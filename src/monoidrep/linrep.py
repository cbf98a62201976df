"""Exact rational linear algebra and verified monoid representations.

Scalars are fractions.Fraction throughout; no floating point is involved
anywhere.  A Representation stores one matrix per monoid element and its
constructor proves the homomorphism law on every pair of elements from its
instances on the generators, with one exact numpy check per generator over
the integer numerators of the matrices (as Python ints).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .elements import FiniteMonoid, product_monoid

ZERO = Fraction(0)
ONE = Fraction(1)


class VerificationError(RuntimeError):
    """A representation failed its homomorphism re-verification."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    """An immutable exact-rational matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(_frac(x) for x in row) for row in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[ZERO] * ncols for _ in range(nrows)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return Matrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        return Matrix([[c * a for a in row] for row in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(min(self.nrows, self.ncols))), ZERO)

    def apply(self, vector) -> tuple:
        """The matrix acting on a column vector, returned as a tuple."""
        if len(vector) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum((a * x for a, x in zip(row, vector)), ZERO) for row in self.rows)

    def is_identity(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == (ONE if i == j else ZERO)
            for i in range(self.nrows) for j in range(self.ncols)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        rows = [list(r) for r in self.rows]
        n = self.nrows
        out = ONE
        for col in range(n):
            piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
            if piv is None:
                return ZERO
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                out = -out
            out *= rows[col][col]
            inv = ONE / rows[col][col]
            for r in range(col + 1, n):
                f = rows[r][col] * inv
                if f:
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
        return out

    def int_form(self):
        """(integer rows, common denominator) with the fraction cleared."""
        den = 1
        for row in self.rows:
            for x in row:
                den = lcm(den, x.denominator)
        return [[int(x * den) for x in row] for row in self.rows], den

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[[str(x) for x in row] for row in self.rows]})"


def kron(a: Matrix, b: Matrix) -> Matrix:
    rows = []
    for ra in a.rows:
        for rb in b.rows:
            rows.append([x * y for x in ra for y in rb])
    return Matrix(rows)


# -- echelon forms and subspaces ---------------------------------------------

@dataclass(frozen=True)
class RrefResult:
    echelon: Matrix
    rank: int
    pivots: tuple
    kernel: "Subspace"
    image: "Subspace"


def _rref_rows(rows):
    """Reduced row echelon form of a list of tuples; returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], tuple(pivots)


class Subspace:
    """A subspace of Q^n held as a reduced-echelon basis; equal iff identical."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, basis, pivots):
        object.__setattr__(self, "ambient", int(ambient))
        object.__setattr__(self, "basis", tuple(tuple(v) for v in basis))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient: int, vectors) -> "Subspace":
        vectors = [tuple(_frac(x) for x in v) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector has wrong length")
        if not vectors:
            return cls(ambient, (), ())
        rows, pivots = _rref_rows(vectors)
        return cls(ambient, rows, pivots)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls.from_vectors(ambient, Matrix.identity(ambient).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vector) -> tuple:
        """Remainder of a vector after clearing pivot coordinates."""
        v = list(_frac(x) for x in vector)
        for row, p in zip(self.basis, self.pivots):
            f = v[p]
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, vector) -> bool:
        return all(x == 0 for x in self.reduce(vector))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def coords(self, vector) -> tuple:
        """Coordinates in the echelon basis; the vector must lie inside."""
        v = tuple(_frac(x) for x in vector)
        cs = tuple(v[p] for p in self.pivots)
        if not self.contains(v):
            raise ValueError("vector is not in the subspace")
        return cs

    def add_vectors(self, vectors) -> "Subspace":
        return Subspace.from_vectors(self.ambient, list(self.basis) + list(vectors))

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus-style intersection via the kernel of [A^T | -B^T]."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        rows = []
        for i in range(self.ambient):
            rows.append(
                tuple(v[i] for v in self.basis) + tuple(-w[i] for w in other.basis)
            )
        ker = rref(Matrix(rows)).kernel
        vecs = []
        for sol in ker.basis:
            coeffs = sol[: self.dim]
            vec = [ZERO] * self.ambient
            for c, b in zip(coeffs, self.basis):
                for k in range(self.ambient):
                    vec[k] += c * b[k]
            vecs.append(tuple(vec))
        return Subspace.from_vectors(self.ambient, vecs)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient})"


def rref(matrix: Matrix) -> RrefResult:
    rows, pivots = _rref_rows(matrix.rows)
    rank = len(rows)
    ncols = matrix.ncols
    free = [c for c in range(ncols) if c not in pivots]
    kernel_vecs = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        kernel_vecs.append(tuple(v))
    kernel = Subspace.from_vectors(ncols, kernel_vecs)
    image = Subspace.from_vectors(
        matrix.nrows, [matrix.column(j) for j in range(ncols)]
    )
    echelon = Matrix(rows) if rows else Matrix.zero(0, ncols)
    return RrefResult(echelon, rank, pivots, kernel, image)


# -- representations ---------------------------------------------------------

class Representation:
    """A verified monoid homomorphism into exact rational matrices."""

    def __init__(self, monoid: FiniteMonoid, matrices, *, verify: bool = True):
        self.monoid = monoid
        self.matrices = tuple(matrices)
        if len(self.matrices) != len(monoid):
            raise ValueError("need one matrix per monoid element")
        dims = {(m.nrows, m.ncols) for m in self.matrices}
        if len(dims) != 1 or len(set(next(iter(dims)))) != 1:
            raise ValueError("matrices must be square and of equal size")
        self.dim = self.matrices[0].nrows
        if self.dim == 0:
            raise ValueError("null representations are excluded by convention")
        if verify:
            self.verify()

    def verify(self):
        """Prove rho(s)rho(t) = rho(s*t) for all s, t from rho(1) = I and
        rho(s)rho(a) = rho(s*a) for every s and every generator a.

        By induction on the length of t as a word in the generators: t = 1
        is rho(1) = I, and if t = t'*a, then rho(s*t) = rho((s*t')*a)
        = rho(s*t')rho(a) = rho(s)rho(t')rho(a) = rho(s)rho(t).
        """
        if not self.matrices[self.monoid.identity_index].is_identity():
            raise VerificationError("identity does not map to the identity matrix")
        forms = [m.int_form() for m in self.matrices]
        nums = np.array([rows for rows, _ in forms], dtype=object)
        dens = np.array([den for _, den in forms], dtype=object)
        for a in self.monoid.generating_set():
            right = self.monoid.table[:, a]
            # rho(s)rho(a) = rho(s*a), both sides times their denominators
            lhs = np.matmul(nums, nums[a]) * dens[right][:, None, None]
            rhs = nums[right] * (dens * dens[a])[:, None, None]
            bad = (lhs != rhs).any(axis=(1, 2))
            if bad.any():
                raise VerificationError(
                    f"homomorphism fails at pair ({int(bad.argmax())}, {a})"
                )

    def matrix_of(self, element) -> Matrix:
        return self.matrices[self.monoid.index(element)]

    def character(self) -> tuple:
        return tuple(m.trace() for m in self.matrices)

    def __repr__(self):
        return f"Representation(dim={self.dim}, |S|={len(self.monoid)})"


def char_equal(c1, c2) -> bool:
    return tuple(c1) == tuple(c2)


def mapping_rep(monoid: FiniteMonoid) -> Representation:
    """The coordinate-permuting action on v_1..v_n read off the element type.

    Partial bijections send v_i to v_{s(i)} when defined and kill it
    otherwise; transformations and permutations always send v_i to v_{s(i)}.
    """
    sample = monoid.elements[0]
    n = sample.n
    mats = []
    for el in monoid.elements:
        cols = []
        for i in range(1, n + 1):
            img = el.apply(i)
            col = [ZERO] * n
            if img is not None:
                col[img - 1] = ONE
            cols.append(col)
        mats.append(Matrix(list(zip(*cols))))
    return Representation(monoid, mats)


def mapping_rep_by_kind(kind: str, n: int) -> Representation:
    from .elements import full_transformation_monoid, symmetric_group, symmetric_inverse_monoid

    builders = {
        "Sn": symmetric_group,
        "In": symmetric_inverse_monoid,
        "Tn": full_transformation_monoid,
    }
    if kind not in builders:
        raise ValueError(f"unknown kind {kind!r}")
    return mapping_rep(builders[kind](n))


def trivial_rep(monoid: FiniteMonoid) -> Representation:
    return Representation(monoid, [Matrix.identity(1)] * len(monoid))


def spin(rep: Representation, seeds) -> Subspace:
    """The least invariant subspace containing the seed vectors."""
    sub = Subspace.from_vectors(rep.dim, seeds)
    gens = [rep.matrices[g] for g in rep.monoid.generating_set()]
    while True:
        new = []
        for v in sub.basis:
            for m in gens:
                w = m.apply(v)
                if not sub.contains(w):
                    new.append(w)
        if not new:
            return sub
        sub = sub.add_vectors(new)


def is_invariant(rep: Representation, sub: Subspace) -> bool:
    gens = [rep.matrices[g] for g in rep.monoid.generating_set()]
    return all(sub.contains(m.apply(v)) for v in sub.basis for m in gens)


def restrict_rep(rep: Representation, sub: Subspace) -> Representation:
    """The action on an invariant subspace, in its echelon-basis coordinates."""
    if not is_invariant(rep, sub):
        raise ValueError("subspace is not invariant")
    mats = []
    for m in rep.matrices:
        cols = [sub.coords(m.apply(v)) for v in sub.basis]
        mats.append(Matrix(list(zip(*cols))))
    return Representation(rep.monoid, mats)


def quotient_rep(rep: Representation, sub: Subspace) -> Representation:
    """The action on V/U in complement coordinates (non-pivot standard axes)."""
    if not is_invariant(rep, sub):
        raise ValueError("subspace is not invariant")
    if sub.dim == rep.dim:
        raise ValueError("quotient by the whole space would be a null representation")
    comp = [c for c in range(rep.dim) if c not in sub.pivots]
    mats = []
    for m in rep.matrices:
        cols = []
        for q in comp:
            w = sub.reduce(m.column(q))
            cols.append([w[c] for c in comp])
        mats.append(Matrix(list(zip(*cols))))
    return Representation(rep.monoid, mats)


def direct_sum(a: Representation, b: Representation) -> Representation:
    if a.monoid is not b.monoid and a.monoid.elements != b.monoid.elements:
        raise ValueError("representations are over different monoids")
    mats = []
    for ma, mb in zip(a.matrices, b.matrices):
        rows = []
        for r in ma.rows:
            rows.append(list(r) + [ZERO] * b.dim)
        for r in mb.rows:
            rows.append([ZERO] * a.dim + list(r))
        mats.append(Matrix(rows))
    return Representation(a.monoid, mats)


def commutation_rows(rep_v: Representation, rep_u: Representation) -> list:
    """Coefficient rows of X phi_V(g) = phi_U(g) X over the generators g.

    X is du x dv, flattened row-major (vec X[i*dv + k] = X[i][k]).  In that
    flattening vec(XA − BX) = (I⊗Aᵀ − B⊗I)·vec X, with I of size du on the
    left and dv on the right, so each generator contributes the du*dv rows of
    that matrix for A = phi_V(g), B = phi_U(g).  Generators suffice: X that
    commutes past phi(s) and phi(t) commutes past phi(s t) = phi(s) phi(t).
    """
    if rep_v.monoid is not rep_u.monoid and rep_v.monoid.elements != rep_u.monoid.elements:
        raise ValueError("representations are over different monoids")
    dv, du = rep_v.dim, rep_u.dim
    rows = []
    for g in rep_v.monoid.generating_set():
        a = rep_v.matrices[g].rows  # dv x dv
        b = rep_u.matrices[g].rows  # du x du
        for i in range(du):
            for j in range(dv):
                coef = [ZERO] * (du * dv)
                for k in range(dv):
                    coef[i * dv + k] += a[k][j]
                for k in range(du):
                    coef[k * dv + j] -= b[i][k]
                rows.append(tuple(coef))
    return rows


def intertwiner_space(rep_v: Representation, rep_u: Representation) -> Subspace:
    """Matrices X with X phi_V(s) = phi_U(s) X, flattened row-major."""
    rows = commutation_rows(rep_v, rep_u)
    if not rows:
        return Subspace.full(rep_u.dim * rep_v.dim)
    return rref(Matrix(rows)).kernel


def commutant_dim(rep: Representation) -> int:
    """Dimension of {X : X phi(s) = phi(s) X for all s}."""
    return intertwiner_space(rep, rep).dim


def one_dim_invariant_lines(rep: Representation, generators=None):
    """All simultaneous eigenvector subspaces with monoid-consistent scalars.

    A line spanned by v is invariant iff every generator g acts on v by a
    scalar c(g); multiplicativity over a finite monoid forces c(g) to be 0 or
    a rational root of unity, so c(g) is searched over {0, 1, -1}, trimmed to
    {0, 1} for idempotent matrices and {1, -1} for invertible ones.  Returns
    (scalar assignment, eigenspace) pairs with nonzero eigenspace; the union
    of the eigenspaces carries every invariant line.
    """
    if generators is None:
        generators = rep.monoid.generating_set()
    gens = [rep.matrices[g] for g in generators]
    ident = Matrix.identity(rep.dim)
    cands = []
    for m in gens:
        if rref(m).rank == rep.dim:
            cands.append((ONE, -ONE))
        elif m * m == m:
            cands.append((ZERO, ONE))
        else:
            cands.append((ZERO, ONE, -ONE))
    found = []

    def descend(k, space, scalars):
        if space.dim == 0:
            return
        if k == len(gens):
            found.append((tuple(scalars), space))
            return
        for lam in cands[k]:
            eig = rref(gens[k] - ident.scale(lam)).kernel
            descend(k + 1, space.intersection(eig), scalars + [lam])

    descend(0, Subspace.full(rep.dim), [])
    return tuple(found)


def find_proper_invariant(rep: Representation, seed_order: str = "standard"):
    """A proper nonzero invariant subspace, or None when the search finds none.

    The candidates are the invariant lines carried by one_dim_invariant_lines,
    then the spans spun from seed vectors: the eigenvectors of every phi(s)
    for the eigenvalues -1, 0 and 1, then the standard basis.  seed_order
    "reversed" tries both lists back to front.  None proves nothing by itself.
    """
    if seed_order not in ("standard", "reversed"):
        raise ValueError(f"unknown seed order {seed_order!r}")
    d = rep.dim
    if d == 1:
        return None
    lines = [v for _, space in one_dim_invariant_lines(rep) for v in space.basis]
    if lines:
        return Subspace.from_vectors(d, [lines[-1] if seed_order == "reversed" else lines[0]])
    ident = Matrix.identity(d)
    seeds = []
    for m in rep.matrices:
        for lam in (-ONE, ZERO, ONE):
            seeds.extend(rref(m - ident.scale(lam)).kernel.basis)
    seeds.extend(ident.rows)
    if seed_order == "reversed":
        seeds.reverse()
    for seed in seeds:
        if all(x == 0 for x in seed):
            continue
        sub = spin(rep, [seed])
        if 0 < sub.dim < d:
            return sub
    return None


def is_irreducible(rep: Representation, certificate: str, *, certified_semisimple: bool = False):
    """Yes/no/undetermined irreducibility, per the chosen certificate.

    "semisimple" uses commutant dimension 1 and demands the caller's
    semisimplicity certificate; "search" hunts for a proper invariant
    subspace with find_proper_invariant, returning a witness on success and
    "undetermined" otherwise.
    """
    if certificate == "semisimple":
        if not certified_semisimple:
            raise ValueError(
                "the commutant certificate is only valid over a certified semisimple monoid"
            )
        return ("yes", None) if commutant_dim(rep) == 1 else ("no", None)
    if certificate != "search":
        raise ValueError(f"unknown certificate {certificate!r}")
    if rep.dim == 1:
        return ("yes", None)
    sub = find_proper_invariant(rep)
    return ("undetermined", None) if sub is None else ("no", sub)


def _unflatten(vec, nrows, ncols) -> Matrix:
    return Matrix([vec[r * ncols:(r + 1) * ncols] for r in range(nrows)])


def iso_test(rep_v: Representation, rep_u: Representation, *, certified_semisimple: bool = False):
    """("iso", witness) / ("not_iso", None) / ("undetermined", None)."""
    if rep_v.dim != rep_u.dim:
        return ("not_iso", None)
    if not char_equal(rep_v.character(), rep_u.character()):
        return ("not_iso", None)
    hom = intertwiner_space(rep_v, rep_u)
    d = rep_v.dim
    for v in hom.basis:
        x = _unflatten(v, d, d)
        if rref(x).rank == d:
            return ("iso", x)
    if hom.dim and 5 ** hom.dim <= 4000:
        for coeffs in itertools.product((-2, -1, 0, 1, 2), repeat=hom.dim):
            if all(c == 0 for c in coeffs):
                continue
            vec = [sum(Fraction(c) * b[k] for c, b in zip(coeffs, hom.basis)) for k in range(d * d)]
            x = _unflatten(vec, d, d)
            if rref(x).rank == d:
                return ("iso", x)
    if certified_semisimple:
        return ("iso", None)
    return ("undetermined", None)


def exterior_power(rep: Representation, p: int) -> Representation:
    """Matrices of minors on the canonical ordered basis of p-subsets."""
    d = rep.dim
    if not 0 <= p <= d:
        raise ValueError(f"exterior power degree must be in 0..{d}")
    basis = list(itertools.combinations(range(d), p))
    mats = []
    for m in rep.matrices:
        rows = []
        for isub in basis:
            row = []
            for jsub in basis:
                row.append(Matrix([[m.rows[i][j] for j in jsub] for i in isub]).det())
            rows.append(row)
        mats.append(Matrix(rows))
    return Representation(rep.monoid, mats)


def outer_tensor(*reps: Representation) -> Representation:
    """Tensor product representation of the direct-product monoid."""
    if not reps:
        raise ValueError("need at least one factor")
    monoid = product_monoid(*(r.monoid for r in reps))
    sizes = [len(r.monoid) for r in reps]
    mats = []
    for flat in range(len(monoid)):
        coords = []
        rem = flat
        for s in reversed(sizes):
            coords.append(rem % s)
            rem //= s
        coords.reverse()
        m = reps[0].matrices[coords[0]]
        for r, c in zip(reps[1:], coords[1:]):
            m = kron(m, r.matrices[c])
        mats.append(m)
    return Representation(monoid, mats)


# -- structured-text serialization -------------------------------------------

def serialize_representation(rep: Representation, *, monoid_label: str, element_text=str) -> str:
    """Line-oriented wire form: header, then per element a label line and
    row-major matrix lines with entries as p/q strings."""
    lines = [
        f"monoid: {monoid_label}",
        f"elements: {len(rep.monoid)}",
        f"dim: {rep.dim}",
    ]
    for k, el in enumerate(rep.monoid.elements):
        lines.append(f"element {k} {element_text(el)}")
        for row in rep.matrices[k].rows:
            lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_representation_payload(text: str):
    """Inverse of serialize_representation, up to the element objects.

    Returns (header dict, element label list, matrices).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = {}
    pos = 0
    while pos < len(lines) and not lines[pos].startswith("element "):
        key, _, value = lines[pos].partition(":")
        header[key.strip()] = value.strip()
        pos += 1
    count = int(header["elements"])
    dim = int(header["dim"])
    labels, matrices = [], []
    for _ in range(count):
        tag, idx, label = lines[pos].split(" ", 2)
        if tag != "element" or int(idx) != len(labels):
            raise ValueError(f"bad element header line: {lines[pos]!r}")
        pos += 1
        rows = []
        for _ in range(dim):
            rows.append([Fraction(tok) for tok in lines[pos].split()])
            pos += 1
        labels.append(label)
        matrices.append(Matrix(rows))
    return header, labels, matrices
