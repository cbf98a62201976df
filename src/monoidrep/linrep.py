"""Exact rational linear algebra and verified monoid representations.

Every exact matrix is stored one way: an object-dtype numpy array of Python
int numerators over one positive denominator, in lowest terms, so that
equality and hashing are exact and canonical.  A subspace is its reduced
echelon basis in the same form.  One fraction-free Gauss-Jordan kernel
serves every elimination, and no floating point is involved anywhere.
Fractions appear only at the edges: matrices and vectors are accepted as
anything Fraction() accepts, and read back through the rows and basis views.

A Representation is one stack of numerators, shape (|S|, d, d), over one
denominator: the same encoding with a leading element axis, so every builder
and reader makes one numpy pass over all elements.  Its constructor proves
the homomorphism law on every pair of elements from its instances on the
generators, with one exact numpy check per generator over the numerators
and s*a read from the monoid's left Cayley graph.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .elements import TABLE_BYTES_BUDGET, ClosureCapError, FiniteMonoid, product_monoid


class VerificationError(RuntimeError):
    """A representation failed its homomorphism re-verification."""


def _numerators(rows):
    """Rows of anything Fraction() accepts, as (integer array, common denominator)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    den = lcm(1, *(x.denominator for r in rows for x in r))
    num = [[x.numerator * (den // x.denominator) for x in r] for r in rows]
    return np.array(num, dtype=object).reshape(len(rows), ncols), den


def _lowest(num, den):
    """num / den with the common factor of every entry and den divided out."""
    g = gcd(den, *num.flat)
    if g > 1:
        num, den = num // g, den // g
    num.flags.writeable = False
    return num, den


class Matrix:
    """An immutable exact-rational matrix: num / den in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, rows):
        self._set(*_numerators(rows))

    @classmethod
    def from_numerators(cls, num, den: int = 1) -> "Matrix":
        """The matrix num / den for an integer array num and a positive den."""
        m = cls.__new__(cls)
        m._set(np.asarray(num, dtype=object), den)
        return m

    def _set(self, num, den):
        num, den = _lowest(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_numerators(np.eye(n, dtype=object))

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of Fraction rows."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    @property
    def nrows(self) -> int:
        return self.num.shape[0]

    @property
    def ncols(self) -> int:
        return self.num.shape[1]

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return Matrix.from_numerators(self.num @ other.num, self.den * other.den)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.num.shape != other.num.shape:
            raise ValueError("shape mismatch")
        return Matrix.from_numerators(self.num * other.den + other.num * self.den,
                                      self.den * other.den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix.from_numerators(self.num * c.numerator, self.den * c.denominator)

    def apply(self, vector) -> tuple:
        """The matrix acting on a column vector, returned as a tuple."""
        num, den = _numerators([vector])
        if num.shape[1] != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(Fraction(x, self.den * den) for x in self.num @ num[0])

    def det(self) -> Fraction:
        """det(N / d) = det(N) / d^n, with det(N) by Bareiss elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return Fraction(_bareiss(self.num), self.den ** self.nrows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.den == other.den
                and self.num.shape == other.num.shape and np.array_equal(self.num, other.num))

    def __hash__(self):
        return hash((self.den, self.num.shape, tuple(self.num.flat)))

    def __repr__(self):
        return f"Matrix({[[str(x) for x in row] for row in self.rows]})"


def _bareiss(num) -> int:
    """Determinant of a square integer array by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968): each step's division by the previous
    pivot is exact, and the last pivot is the determinant up to sign."""
    a = np.array(num, dtype=object)
    sign, prev = 1, 1
    for k in range(len(a)):
        nz = np.flatnonzero(a[k:, k])
        if not len(nz):
            return 0
        if nz[0]:
            a[[k, k + nz[0]]] = a[[k + nz[0], k]]
            sign = -sign
        a[k + 1:, k + 1:] = (a[k + 1:, k + 1:] * a[k, k]
                             - np.outer(a[k + 1:, k], a[k, k + 1:])) // prev
        prev = a[k, k]
    return sign * prev


# -- echelon forms and subspaces ---------------------------------------------

def _rref_rows(rows):
    """Reduced row echelon form of a nonempty list of integer rows.

    Fraction-free Gauss-Jordan: clearing column c from row i replaces it by
    p*row_i - row_i[c]*row_r (p > 0 the pivot entry of row r), and each
    changed row is divided by the gcd of its entries.  Only the rows with a
    nonzero in the pivot column change, which keeps sparse systems cheap.
    Returns (rows, pivots): one primitive integer row per pivot, with a
    positive pivot entry and zeros in every other pivot column; dividing each
    row by its pivot entry gives the rational reduced echelon form.
    """
    a = _primitive(np.array(rows, dtype=object))
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        nz = np.flatnonzero(a[r:, c])
        if not len(nz):
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        if a[r, c] < 0:
            a[r] = -a[r]
        hits = np.flatnonzero(a[:, c])
        hits = hits[hits != r]
        if len(hits):
            a[hits] = _primitive(a[hits] * a[r, c] - np.outer(a[hits, c], a[r]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r], tuple(pivots)


def _primitive(rows):
    """Each integer row divided by the gcd of its entries; zero rows stay."""
    g = np.gcd.reduce(rows, axis=1)
    return rows // np.where(g == 0, 1, g)[:, None]


class Subspace:
    """A subspace of Q^n held as its reduced echelon basis num / den, in
    lowest terms; two subspaces are equal iff these are identical."""

    __slots__ = ("ambient", "num", "den", "pivots")

    def __init__(self, ambient: int, num, den: int, pivots):
        object.__setattr__(self, "ambient", int(ambient))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, ambient: int, rows) -> "Subspace":
        """The span of integer row vectors of length ambient."""
        if not len(rows):
            return cls.zero(ambient)
        ech, pivots = _rref_rows(list(rows))
        lead = ech[np.arange(len(pivots)), list(pivots)]
        den = lcm(1, *lead)  # each row over its pivot entry, over one den
        num, den = _lowest(ech * (den // lead)[:, None], den)
        return cls(ambient, num, den, pivots)

    @classmethod
    def from_vectors(cls, ambient: int, vectors) -> "Subspace":
        num, _ = _numerators(vectors)
        if len(num) and num.shape[1] != ambient:
            raise ValueError("vector has wrong length")
        return cls.span(ambient, num)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, np.zeros((0, ambient), dtype=object), 1, ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, np.eye(ambient, dtype=object), 1, range(ambient))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> tuple:
        """The echelon basis as a tuple of Fraction vectors."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    def reduce(self, rows):
        """den * (v - v[pivots] B) for each integer row v (the last axis): the
        remainder of v after clearing its pivot coordinates, zero exactly on
        the subspace.  The echelon basis B has unit pivot columns, so one
        product clears all."""
        return rows * self.den - rows[..., list(self.pivots)] @ self.num

    def contains(self, vector) -> bool:
        return not self.reduce(_numerators([vector])[0]).any()

    def coords(self, vector) -> tuple:
        """Coordinates in the echelon basis; the vector must lie inside."""
        if not self.contains(vector):
            raise ValueError("vector is not in the subspace")
        return tuple(Fraction(vector[p]) for p in self.pivots)

    def restrict(self, num):
        """The action of integer matrices M (any leading shape) on this
        subspace, in echelon coordinates, as (numerators, den).

        The basis rows b_j have unit pivot columns, so a vector w of the
        subspace has coordinates w[pivots], and the action is
        R = M[pivots, :] B^T (so M / d acts as R's numerators over d * den).
        The subspace is invariant exactly when M B^T = B^T R for every M;
        otherwise this raises ValueError.
        """
        bt = self.num.T
        image = num @ bt  # M B^T, over den
        r = image[..., list(self.pivots), :]
        image *= self.den  # now over den^2, as B^T R is
        if (image != bt @ r).any():
            raise ValueError("subspace is not invariant")
        return r, self.den

    def orthogonal_complement(self) -> "Subspace":
        """The vectors x with b . x = 0 for every basis vector b.

        One vector per free column f: x[f] = den, x[p_i] = -num[i, f].
        """
        free = [c for c in range(self.ambient) if c not in self.pivots]
        vecs = np.zeros((len(free), self.ambient), dtype=object)
        vecs[np.arange(len(free)), free] = self.den
        vecs[:, list(self.pivots)] = -self.num[:, free].T
        return Subspace.span(self.ambient, vecs)

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus-style intersection via the kernel of [A^T | -B^T]."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        both = Subspace.span(self.dim + other.dim, np.hstack([self.num.T, -other.num.T]))
        ker = both.orthogonal_complement()
        return Subspace.span(self.ambient, ker.num[:, :self.dim] @ self.num)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.den == other.den
            and self.num.shape == other.num.shape
            and np.array_equal(self.num, other.num)
        )

    def __hash__(self):
        return hash((self.ambient, self.den, tuple(self.num.flat)))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient})"


class RrefResult:
    """The reduced row echelon form of a matrix, with its rank and pivots;
    the kernel and the image are computed on first use."""

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        self.row_space = Subspace.span(matrix.ncols, matrix.num)
        self.rank = self.row_space.dim
        self.pivots = self.row_space.pivots

    @property
    def echelon(self) -> Matrix:
        return Matrix.from_numerators(self.row_space.num, self.row_space.den)

    @cached_property
    def kernel(self) -> Subspace:
        return self.row_space.orthogonal_complement()

    @cached_property
    def image(self) -> Subspace:
        return Subspace.span(self.matrix.nrows, self.matrix.num.T)


def rref(matrix: Matrix) -> RrefResult:
    return RrefResult(matrix)


# -- representations ---------------------------------------------------------

class Representation:
    """A verified monoid homomorphism into exact rational matrices:
    rho(s) = num[s] / den, with num a read-only object-dtype stack of Python
    ints and den positive, in lowest terms with all of num."""

    def __init__(self, monoid: FiniteMonoid, matrices):
        """From one Matrix per element, brought over one denominator."""
        matrices = tuple(matrices)
        if len({m.num.shape for m in matrices}) > 1:
            raise ValueError("matrices must be square and of equal size")
        den = lcm(*(m.den for m in matrices))
        self._set(monoid, np.array([m.num * (den // m.den) for m in matrices], dtype=object), den)

    @classmethod
    def from_numerators(cls, monoid: FiniteMonoid, num, den: int = 1) -> "Representation":
        """s -> num[s] / den, for an integer stack num of shape (|S|, d, d)."""
        rep = cls.__new__(cls)
        rep._set(monoid, np.asarray(num, dtype=object), den)
        return rep

    def _set(self, monoid, num, den):
        if num.ndim != 3 or len(num) != len(monoid):
            raise ValueError("need one matrix per monoid element")
        if num.shape[1] != num.shape[2]:
            raise ValueError("matrices must be square and of equal size")
        if num.shape[1] == 0:
            raise ValueError("null representations are excluded by convention")
        self.monoid = monoid
        self.num, self.den = _lowest(num, int(den))
        self.dim = num.shape[1]
        self.verify()

    def verify(self):
        """Prove rho(s)rho(t) = rho(s*t) for all s, t from rho(1) = I and
        rho(s)rho(a) = rho(s*a) for every s and every generator a.

        By induction on the length of t as a word in the generators: t = 1
        is rho(1) = I, and if t = t'*a, then rho(s*t) = rho((s*t')*a)
        = rho(s*t')rho(a) = rho(s)rho(t')rho(a) = rho(s)rho(t).  s*a is read
        from a's column, composed along the left Cayley graph once per
        monoid and kept (FiniteMonoid._generator_columns).
        """
        num, den, monoid = self.num, self.den, self.monoid
        if not np.array_equal(num[monoid.identity_index], np.eye(self.dim, dtype=object) * den):
            raise VerificationError("identity does not map to the identity matrix")
        for a, col in zip(monoid.generating_set(), monoid._generator_columns()):
            # rho(s)rho(a) = rho(s*a), both sides times den^2
            bad = (np.matmul(num, num[a]) != num[col] * den).any(axis=(1, 2))
            if bad.any():
                raise VerificationError(f"homomorphism fails at pair ({int(bad.argmax())}, {a})")

    @property
    def matrices(self) -> tuple:
        """rho(s) for every element index s, as Matrix objects."""
        return tuple(Matrix.from_numerators(m, self.den) for m in self.num)

    def matrix_of(self, element) -> Matrix:
        return Matrix.from_numerators(self.num[self.monoid.index(element)], self.den)

    def character(self) -> tuple:
        return tuple(Fraction(t, self.den) for t in np.trace(self.num, axis1=1, axis2=2))

    def character_key(self) -> tuple:
        """The character as (den, integer traces) in lowest terms: equal keys
        iff equal characters, since den / gcd(den, traces) is the least
        common denominator of the traces / den."""
        traces = np.trace(self.num, axis1=1, axis2=2)
        g = gcd(self.den, *traces)
        return self.den // g, tuple(traces // g)

    def __repr__(self):
        return f"Representation(dim={self.dim}, |S|={len(self.monoid)})"


def char_equal(c1, c2) -> bool:
    return tuple(c1) == tuple(c2)


def _permutation_stack(rows):
    """The stack of 0/1 matrices num[s] sending e_b to e_{rows[s][b]}, and
    e_b to 0 where rows[s][b] is -1: num[s, rows[s][b], b] = 1.  rows is one
    int list per matrix, each as long as the side of the matrices.  A stack
    whose object cells, 8-byte pointers, exceed the table budget is refused."""
    rows = np.array(rows, dtype=np.intp)
    count, size = rows.shape
    if count * size * size * 8 > TABLE_BYTES_BUDGET:
        raise ClosureCapError(f"a stack of {count} matrices of side {size} is over the "
                              f"{TABLE_BYTES_BUDGET / 2**20:.0f} MiB table budget")
    s, b = np.nonzero(rows >= 0)
    num = np.zeros((count, size, size), dtype=object)
    num[s, rows[s, b], b] = 1
    return num


def mapping_rep(monoid: FiniteMonoid) -> Representation:
    """The coordinate-permuting action on v_1..v_n read off the image tuples.

    Partial bijections send v_i to v_{s(i)} when defined and kill it
    otherwise; transformations and permutations always send v_i to v_{s(i)}.
    """
    # s(i) - 1 is the 0-based image of i, and -1 where s(i) = 0 is undefined
    rows = [[y - 1 for y in el.images] for el in monoid.elements]
    return Representation.from_numerators(monoid, _permutation_stack(rows))


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
    return Representation.from_numerators(monoid, np.ones((len(monoid), 1, 1), dtype=object))


def spin(rep: Representation, seeds) -> Subspace:
    """The least invariant subspace containing the seed vectors."""
    return _spin(rep, Subspace.from_vectors(rep.dim, seeds))


def _spin(rep: Representation, sub: Subspace) -> Subspace:
    """The least invariant subspace containing sub."""
    gens = [rep.num[g].T for g in rep.monoid.generating_set()]
    while gens:
        images = np.vstack([sub.num @ g for g in gens])  # rows (phi(g) v)^T
        new = images[(sub.reduce(images) != 0).any(axis=1)]
        if not len(new):
            break
        sub = Subspace.span(rep.dim, np.vstack([sub.num, new]))
    return sub


def is_invariant(rep: Representation, sub: Subspace) -> bool:
    return not any(
        sub.reduce(sub.num @ rep.num[g].T).any()
        for g in rep.monoid.generating_set()
    )


def restrict_rep(rep: Representation, sub: Subspace) -> Representation:
    """The action on an invariant subspace, in its echelon-basis coordinates."""
    num, den = sub.restrict(rep.num)
    return Representation.from_numerators(rep.monoid, num, rep.den * den)


def quotient_rep(rep: Representation, sub: Subspace) -> Representation:
    """The action on V/U in complement coordinates (non-pivot standard axes)."""
    if not is_invariant(rep, sub):
        raise ValueError("subspace is not invariant")
    if sub.dim == rep.dim:
        raise ValueError("quotient by the whole space would be a null representation")
    comp = [c for c in range(rep.dim) if c not in sub.pivots]
    cols = sub.reduce(np.swapaxes(rep.num, 1, 2))  # cols[s, c]: column c of phi(s), reduced
    num = np.swapaxes(cols[:, comp][:, :, comp], 1, 2)
    return Representation.from_numerators(rep.monoid, num, rep.den * sub.den)


def direct_sum(a: Representation, b: Representation) -> Representation:
    if a.monoid is not b.monoid and a.monoid.elements != b.monoid.elements:
        raise ValueError("representations are over different monoids")
    d = a.dim + b.dim
    num = np.zeros((len(a.num), d, d), dtype=object)
    num[:, :a.dim, :a.dim] = a.num * b.den
    num[:, a.dim:, a.dim:] = b.num * a.den
    return Representation.from_numerators(a.monoid, num, a.den * b.den)


def commutation_rows(rep_v: Representation, rep_u: Representation):
    """Integer coefficient rows of X phi_V(g) = phi_U(g) X over the generators g.

    X is du x dv, flattened row-major (vec X[i*dv + k] = X[i][k]).  In that
    flattening vec(XA − BX) = (I⊗Aᵀ − B⊗I)·vec X, with I of size du on the
    left and dv on the right, so each generator contributes the du*dv rows of
    that matrix for A = phi_V(g), B = phi_U(g), times both denominators.
    Generators suffice: X that commutes past phi(s) and phi(t) commutes past
    phi(s t) = phi(s) phi(t).
    """
    if rep_v.monoid is not rep_u.monoid and rep_v.monoid.elements != rep_u.monoid.elements:
        raise ValueError("representations are over different monoids")
    dv, du = rep_v.dim, rep_u.dim
    iu, iv = np.eye(du, dtype=object), np.eye(dv, dtype=object)
    rows = [np.zeros((0, du * dv), dtype=object)]
    for g in rep_v.monoid.generating_set():
        rows.append(np.kron(iu, rep_v.num[g].T) * rep_u.den - np.kron(rep_u.num[g], iv) * rep_v.den)
    return np.vstack(rows)


def intertwiner_space(rep_v: Representation, rep_u: Representation) -> Subspace:
    """Matrices X with X phi_V(s) = phi_U(s) X, flattened row-major."""
    rows = commutation_rows(rep_v, rep_u)
    return Subspace.span(rows.shape[1], rows).orthogonal_complement()


def commutant_dim(rep: Representation) -> int:
    """Dimension of {X : X phi(s) = phi(s) X for all s}."""
    return intertwiner_space(rep, rep).dim


def one_dim_invariant_lines(rep: Representation):
    """All simultaneous eigenvector subspaces with monoid-consistent scalars.

    A line spanned by v is invariant iff every generator g acts on v by a
    scalar c(g); multiplicativity over a finite monoid forces c(g) to be 0 or
    a rational root of unity, so c(g) is searched over {0, 1, -1}, trimmed to
    {0, 1} for idempotent matrices and {1, -1} for invertible ones.  Returns
    (scalar assignment, eigenspace) pairs with nonzero eigenspace; the union
    of the eigenspaces carries every invariant line.
    """
    gens = [Matrix.from_numerators(rep.num[g], rep.den) for g in rep.monoid.generating_set()]
    ident = Matrix.identity(rep.dim)
    cands = []
    for m in gens:
        if rref(m).rank == rep.dim:
            cands.append((1, -1))
        elif m * m == m:
            cands.append((0, 1))
        else:
            cands.append((0, 1, -1))
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
    lines = [v for _, space in one_dim_invariant_lines(rep) for v in space.num]
    if lines:
        return Subspace.span(d, [lines[-1] if seed_order == "reversed" else lines[0]])
    ident = np.eye(d, dtype=object)
    seeds = []
    for m in rep.num:  # the kernel of phi(s) - lam I is that of num[s] - lam den I
        for lam in (-1, 0, 1):
            seeds.extend(Subspace.span(d, m - ident * (lam * rep.den)).orthogonal_complement().num)
    seeds.extend(ident)
    if seed_order == "reversed":
        seeds.reverse()
    for seed in seeds:
        sub = _spin(rep, Subspace.span(d, [seed]))
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


def iso_test(rep_v: Representation, rep_u: Representation, *, certified_semisimple: bool = False):
    """("iso", witness) / ("not_iso", None) / ("undetermined", None)."""
    if rep_v.dim != rep_u.dim:
        return ("not_iso", None)
    if rep_v.character_key() != rep_u.character_key():
        return ("not_iso", None)
    hom = intertwiner_space(rep_v, rep_u)
    d = rep_v.dim
    small = hom.dim and 5 ** hom.dim <= 4000
    coeffs = itertools.product((-2, -1, 0, 1, 2), repeat=hom.dim) if small else ()
    combos = (np.array(c, dtype=object) @ hom.num for c in coeffs if any(c))
    for vec in itertools.chain(hom.num, combos):
        x = Matrix.from_numerators(vec.reshape(d, d), hom.den)
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
    num = [[[_bareiss(m[np.ix_(i, j)]) for j in basis] for i in basis] for m in rep.num]
    return Representation.from_numerators(rep.monoid, num, rep.den ** p)


def outer_tensor(*reps: Representation) -> Representation:
    """Tensor product representation of the direct-product monoid."""
    if not reps:
        raise ValueError("need at least one factor")
    monoid = product_monoid(*(r.monoid for r in reps))
    num, den = reps[0].num, reps[0].den
    for r in reps[1:]:  # kron(A[s], B[t]), s major as in product_monoid's element order
        n, d = len(num) * len(r.num), len(num[0]) * r.dim
        num = (num[:, None, :, None, :, None] * r.num[None, :, None, :, None, :]).reshape(n, d, d)
        den *= r.den
    return Representation.from_numerators(monoid, num, den)


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
        for row in rep.num[k]:
            lines.append(" ".join(_ratio_text(x, rep.den) for x in row))
    return "\n".join(lines) + "\n"


def _ratio_text(x: int, den: int) -> str:
    """str(Fraction(x, den)) for an integer x and a positive den, without
    building the Fraction."""
    if den == 1:
        return str(x)
    g = gcd(x, den)
    if g == den:
        return str(x // g)
    return f"{x // g}/{den // g}"


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
