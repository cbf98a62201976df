"""Exact rational linear algebra and verified monoid representations.

Every exact matrix is held one way: a tuple of row tuples of Python int
numerators over one positive denominator, in lowest terms, so that equality
and hashing are exact and canonical and no matrix can be written to.  A
representation's stack, a subspace's reduced echelon basis and an action
restricted to a subspace are all in this form, and the private helpers here
(_apply, _kron, _shifted, _eigenspace) read and write it.  One
fraction-free Gauss-Jordan kernel serves every elimination, and no
floating point is involved anywhere.  Fractions appear only at the edges:
vectors are accepted as anything Fraction() accepts (Subspace.from_vectors,
contains, coords), and a basis or a character is read back as Fractions;
fractions is imported only by the functions that make one, so no command
loads it.  Integer numerators handed to a public constructor pass through
operator.index once, which takes numpy integers without importing numpy,
turns bools into 0 and 1, and refuses floats.  numpy is not imported here.

A Representation is one tuple of such matrices, one per element, over one
denominator.  Its constructor proves the homomorphism law on every pair of
elements from its instances on the generators: each column of rho(s)rho(a)
is summed over the nonzeros of rho(a) alone, with s*a read from the
monoid's left Cayley graph.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from operator import getitem, index, itemgetter, mul

from .elements import FiniteMonoid, check_budget

_flat = itertools.chain.from_iterable


class VerificationError(RuntimeError):
    """A representation failed its homomorphism re-verification."""


def _exact_rows(rows) -> tuple:
    """Integer rows as a tuple of row tuples of Python ints, each entry
    through operator.index once."""
    return tuple(tuple(map(index, row)) for row in rows)


def _numerators(rows):
    """Rows of anything Fraction() accepts, as (integer rows, common denominator)."""
    from fractions import Fraction
    rows = [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    den = lcm(1, *(x.denominator for r in rows for x in r))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in rows), den


def _positive(den) -> int:
    den = index(den)
    if den <= 0:
        raise ValueError("the denominator must be positive")
    return den


def _lowest(num, den):
    """Integer rows num over den with the common factor of den and every
    entry divided out."""
    if den != 1:
        g = gcd(den, *_flat(num))
        if g > 1:
            return tuple(tuple(x // g for x in row) for row in num), den // g
    return num, den


def _identity(n: int, value: int = 1) -> tuple:
    return tuple(tuple(value if i == j else 0 for j in range(n)) for i in range(n))


def _apply(m, v) -> tuple:
    """The integer matrix m times the column vector v."""
    return tuple(sum(map(mul, row, v)) for row in m)


def _combination(terms, rows, length: int) -> list:
    """sum of c * rows[k] over the pairs (k, c) of terms, as a list."""
    out = [0] * length
    for k, c in terms:
        out = [x + c * y for x, y in zip(out, rows[k])]
    return out


def _kron(a, b) -> tuple:
    """The Kronecker product of two integer matrices, a's indices major."""
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _bareiss(num) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968): each step's division by the previous
    pivot is exact, and the last pivot is the determinant up to sign."""
    a = [list(row) for row in num]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot_row, pivot = a[k][k + 1:], a[k][k]
        for i in range(k + 1, n):
            row, lead = a[i], a[i][k]
            row[k + 1:] = [(x * pivot - lead * y) // prev for x, y in zip(row[k + 1:], pivot_row)]
        prev = pivot
    return sign * prev


# -- echelon forms and subspaces ---------------------------------------------

def _rref_rows(rows):
    """Reduced row echelon form of a nonempty list of integer rows.

    Fraction-free Gauss-Jordan, one row at a time.  A row is cleared at each
    pivot column c found so far, as p*row - row[c]*e with e the row of pivot
    c and p = e[c] > 0.  If anything is left, its first nonzero column
    becomes a pivot, its sign is made positive, and that column is cleared
    from the earlier rows the same way.  Each changed row is divided by the
    gcd of its entries, and the pass stops once every column is a pivot.
    Returns (rows, pivots) in pivot order: one primitive integer row per
    pivot, with a positive pivot entry and zeros in every other pivot column.
    Dividing each row by its pivot entry gives the rational reduced echelon
    form, which the span alone determines, so the result does not depend on
    the order or the number of the rows given.
    """
    ncols = len(rows[0])
    ech = {}  # pivot column -> its row
    for row in rows:
        if len(ech) == ncols:
            break
        for c, e in ech.items():
            q = row[c]
            if q:
                p = e[c]
                row = ([x - q * y for x, y in zip(row, e)] if p == 1
                       else _primitive([x * p - q * y for x, y in zip(row, e)]))
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            continue
        row = _primitive(row)
        if row[c] < 0:
            row = [-x for x in row]
        lead = row[c]
        for pc, e in ech.items():
            q = e[c]
            if q:
                ech[pc] = _primitive([x * lead - q * y for x, y in zip(e, row)])
        ech[c] = row
    pivots = sorted(ech)
    return tuple(tuple(ech[c]) for c in pivots), tuple(pivots)


def _primitive(row):
    """An integer row divided by the gcd of its entries; a zero row stays."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


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
        return cls._span(ambient, _exact_rows(rows))

    @classmethod
    def _span(cls, ambient: int, rows) -> "Subspace":
        """span for a sequence of rows already held as Python ints."""
        if not rows:
            return cls.zero(ambient)
        ech, pivots = _rref_rows(rows)
        lead = [row[p] for row, p in zip(ech, pivots)]
        den = lcm(1, *lead)  # each row over its pivot entry, over one den
        num, den = _lowest(tuple(tuple(x * (den // c) for x in row) for row, c in zip(ech, lead)), den)
        return cls(ambient, num, den, pivots)

    @classmethod
    def from_vectors(cls, ambient: int, vectors) -> "Subspace":
        num, _ = _numerators(vectors)
        if num and len(num[0]) != ambient:
            raise ValueError("vector has wrong length")
        return cls._span(ambient, num)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (), 1, ())

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> tuple:
        """The echelon basis as a tuple of Fraction vectors."""
        from fractions import Fraction
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    def reduce(self, rows) -> list:
        """The remainder den * v - sum_i v[p_i] b_i of each integer row v,
        read at the free (non-pivot) columns, one list per row.  The echelon
        basis rows b_i have unit pivot columns, so the remainder is zero at
        every pivot column, and it is zero exactly when v lies in the
        subspace."""
        den, pivots = self.den, self.pivots
        cols = tuple(zip(*self.num)) if self.num else ((),) * self.ambient
        free = [(f, cols[f]) for f in range(self.ambient) if f not in pivots]
        out = []
        for v in rows:
            at = [v[p] for p in pivots]
            out.append([den * v[f] - sum(map(mul, at, col)) for f, col in free])
        return out

    def contains(self, vector) -> bool:
        return not any(self.reduce(_numerators([vector])[0])[0])

    def coords(self, vector) -> tuple:
        """Coordinates in the echelon basis; the vector must lie inside."""
        from fractions import Fraction
        if not self.contains(vector):
            raise ValueError("vector is not in the subspace")
        return tuple(Fraction(vector[p]) for p in self.pivots)

    def restrict(self, mats):
        """The action of integer matrices M on this subspace, in echelon
        coordinates, as (tuple of numerators, den), one per M.

        The basis rows b_j have unit pivot columns, so a vector w of the
        subspace has coordinates w[pivots], and the action is
        R = M[pivots, :] B^T: R[i, j] = (M b_j)[p_i], and M / d acts as R's
        numerators over d * den.  The subspace is invariant exactly when
        den * M b_j = sum_i (M b_j)[p_i] b_i for every j, which is
        reduce(M b_j) = 0; otherwise this raises ValueError.
        """
        terms = [[(k, x) for k, x in enumerate(b) if x] for b in self.num]
        out = []
        for m in mats:
            cols = tuple(zip(*m))
            images = [_combination(t, cols, self.ambient) for t in terms]  # M b_j, over den
            if any(map(any, self.reduce(images))):
                raise ValueError("subspace is not invariant")
            out.append(tuple(zip(*([w[p] for p in self.pivots] for w in images))))
        return tuple(out), self.den

    def orthogonal_complement(self) -> "Subspace":
        """The vectors x with b . x = 0 for every basis vector b.

        One vector per free column f: x[f] = den, x[p_i] = -num[i, f].
        """
        vecs = []
        for f in range(self.ambient):
            if f not in self.pivots:
                x = [0] * self.ambient
                x[f] = self.den
                for p, b in zip(self.pivots, self.num):
                    x[p] = -b[f]
                vecs.append(x)
        return Subspace._span(self.ambient, vecs)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.ambient, self.den, self.num))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient})"


# -- representations ---------------------------------------------------------

class Representation:
    """A verified monoid homomorphism into exact rational matrices:
    rho(s) = num[s] / den, with num a tuple of d x d integer matrices (tuples
    of row tuples of Python ints), one per element, and den positive, in
    lowest terms with all of num."""

    @classmethod
    def from_numerators(cls, monoid: FiniteMonoid, num, den: int = 1) -> "Representation":
        """s -> num[s] / den, for one integer d x d matrix num[s] per element."""
        return cls._of(monoid, tuple(map(_exact_rows, num)), _positive(den))

    @classmethod
    def _of(cls, monoid: FiniteMonoid, num, den: int) -> "Representation":
        """s -> num[s] / den for matrices already held as tuples of Python
        ints, as every builder here writes them; verified all the same."""
        rep = cls.__new__(cls)
        rep._set(monoid, num, den)
        return rep

    def _set(self, monoid, num, den):
        if len(num) != len(monoid):
            raise ValueError("need one matrix per monoid element")
        d = len(num[0])
        if set(map(len, num)) | set(map(len, _flat(num))) != {d}:
            raise ValueError("matrices must be square and of equal size")
        if d == 0:
            raise ValueError("null representations are excluded by convention")
        if den != 1:
            g = gcd(den, *_flat(_flat(num)))
            if g > 1:
                num, den = tuple(tuple(tuple(x // g for x in row) for row in m) for m in num), den // g
        self.monoid = monoid
        self.num, self.den = num, den
        self.dim = d
        self.verify()

    def verify(self):
        """Prove rho(s)rho(t) = rho(s*t) for all s, t from rho(1) = I and
        rho(s)rho(a) = rho(s*a) for every s and every generator a.

        By induction on the length of t as a word in the generators: t = 1
        is rho(1) = I, and if t = t'*a, then rho(s*t) = rho((s*t')*a)
        = rho(s*t')rho(a) = rho(s)rho(t')rho(a) = rho(s)rho(t).  s*a is read
        from a's column, composed along the left Cayley graph once per
        monoid and kept (FiniteMonoid._generator_columns).

        Over the numerators the law at (s, a) is num[s] num[a] = den num[s*a],
        checked column by column: column c of the left side is the sum of
        v * (column r of num[s]) over the nonzeros v = num[a][r][c] of column
        c of num[a], so only rho(a)'s nonzeros are read, dense or sparse
        alike.  A zero column c of num[a] asks for column c of num[s*a] to be
        zero, and one whose only nonzero is den, in row r (an entry 1 of
        rho(a)), asks for it to equal column r of num[s]; these columns of a
        are compared all at once.

        Each column x is held as the integer P(x) = sum_k x_k 2^(w k).  P is
        linear, and one-to-one on the vectors whose entries lie strictly
        between -2^(w-1) and 2^(w-1): if P(x) = P(y), the lowest k with
        x_k != y_k would leave P(x) - P(y) = (x_k - y_k) 2^(w k) modulo
        2^(w (k+1)), with 0 < |x_k - y_k| < 2^w.  The entries of both sides
        are at most m * max(den, l) in absolute value, where m bounds the
        numerators and l the absolute column sums of the generators' matrices,
        and w is chosen with 2^(w-1) above that, so comparing P values
        compares the columns exactly.
        """
        num, den, monoid, d = self.num, self.den, self.monoid, self.dim
        if num[monoid.identity_index] != _identity(d, den):
            raise VerificationError("identity does not map to the identity matrix")
        gens = monoid.generating_set()
        plans = [[[(r, v) for r, v in enumerate(col) if v] for col in zip(*num[a])] for a in gens]
        m = max(map(abs, _flat(_flat(num))))
        l = max([den] + [sum(abs(v) for _, v in terms) for plan in plans for terms in plan])
        w = (m * l).bit_length() + 1
        powers = [1 << (w * k) for k in range(d)]
        # packed[s][c] = P(column c of num[s]); packed[s][d] = 0 stands for a zero column
        packed = [[sum(map(mul, col, powers)) for col in zip(*x)] + [0] for x in num]
        for a, col, plan in zip(gens, monoid._generator_columns(), plans):
            copies, sums = [], []  # (r, c): column c of num[s]num[a]/den is column r of num[s]
            for c, terms in enumerate(plan):
                if not terms or len(terms) == 1 and terms[0][1] == den:
                    copies.append((terms[0][0] if terms else d, c))
                else:
                    sums.append((c, terms))
            rs, cs = zip(*copies, (d, d))  # the extra pair keeps each getter's result a tuple
            take_r, take_c = itemgetter(*rs), itemgetter(*cs)
            for s, sa in enumerate(col):
                here, there = packed[s], packed[sa]
                if take_r(here) != take_c(there) or sums and any(
                        sum([v * here[r] for r, v in terms]) != den * there[c] for c, terms in sums):
                    raise VerificationError(f"homomorphism fails at pair ({s}, {a})")

    def _traces(self) -> list:
        diagonal = range(self.dim)
        return [sum(map(getitem, m, diagonal)) for m in self.num]

    def character(self) -> tuple:
        from fractions import Fraction
        return tuple(Fraction(t, self.den) for t in self._traces())

    def character_key(self) -> tuple:
        """The character as (den, integer traces) in lowest terms: equal keys
        iff equal characters, since den / gcd(den, traces) is the least
        common denominator of the traces / den."""
        traces = self._traces()
        g = gcd(self.den, *traces)
        return self.den // g, tuple(t // g for t in traces)

    def __repr__(self):
        return f"Representation(dim={self.dim}, |S|={len(self.monoid)})"


def char_equal(c1, c2) -> bool:
    return tuple(c1) == tuple(c2)


def _stack(count: int, size: int, matrix) -> tuple:
    """(matrix(0), ..., matrix(count - 1)), each a size x size tuple of row
    tuples: the one writer of representation stacks.  A stack whose cells,
    one 8-byte pointer each, exceed the build budget is refused before any
    matrix is written."""
    check_budget(count * size * size * 8, f"a stack of {count} matrices of side {size}")
    return tuple(map(matrix, range(count)))


def _permutation_stack(rows) -> tuple:
    """The stack of 0/1 matrices num[s] sending e_b to e_{rows[s][b]}, and
    e_b to 0 where rows[s][b] is -1: num[s][rows[s][b]][b] = 1.  rows is one
    int list per matrix, each as long as the side of the matrices."""
    size = len(rows[0]) if rows else 0

    def matrix(s):
        out = [[0] * size for _ in range(size)]
        for b, y in enumerate(rows[s]):
            if y >= 0:
                out[y][b] = 1
        return tuple(map(tuple, out))

    return _stack(len(rows), size, matrix)


def mapping_rep(monoid: FiniteMonoid) -> Representation:
    """The coordinate-permuting action on v_1..v_n read off the image tuples.

    Partial bijections send v_i to v_{s(i)} when defined and kill it
    otherwise; transformations and permutations always send v_i to v_{s(i)}.
    """
    # s(i) - 1 is the 0-based image of i, and -1 where s(i) = 0 is undefined
    rows = [[y - 1 for y in el.images] for el in monoid.elements]
    return Representation._of(monoid, _permutation_stack(rows), 1)


def trivial_rep(monoid: FiniteMonoid) -> Representation:
    return Representation._of(monoid, (((1,),),) * len(monoid), 1)


def spin(rep: Representation, seeds) -> Subspace:
    """The least invariant subspace containing the seed vectors."""
    return _spin(rep, Subspace.from_vectors(rep.dim, seeds))


def _generator_images(rep: Representation, sub: Subspace) -> list:
    """phi(g) v for every generator g, then every basis row v of sub."""
    return [_apply(rep.num[g], v) for g in rep.monoid.generating_set() for v in sub.num]


def _spin(rep: Representation, sub: Subspace) -> Subspace:
    """The least invariant subspace containing sub."""
    while True:
        images = _generator_images(rep, sub)
        new = [w for w, rest in zip(images, sub.reduce(images)) if any(rest)]
        if not new:
            return sub
        sub = Subspace._span(rep.dim, sub.num + tuple(new))


def is_invariant(rep: Representation, sub: Subspace) -> bool:
    return not any(map(any, sub.reduce(_generator_images(rep, sub))))


def restrict_rep(rep: Representation, sub: Subspace) -> Representation:
    """The action on an invariant subspace, in its echelon-basis coordinates."""
    num, den = sub.restrict(rep.num)
    return Representation._of(rep.monoid, num, rep.den * den)


def quotient_rep(rep: Representation, sub: Subspace) -> Representation:
    """The action on V/U in complement coordinates (non-pivot standard axes)."""
    if not is_invariant(rep, sub):
        raise ValueError("subspace is not invariant")
    if sub.dim == rep.dim:
        raise ValueError("quotient by the whole space would be a null representation")
    comp = [c for c in range(rep.dim) if c not in sub.pivots]
    num = []
    for m in rep.num:
        cols = tuple(zip(*m))
        # reduced[j][i]: column comp[j] of phi(s), reduced, at row comp[i]
        reduced = sub.reduce([cols[c] for c in comp])
        num.append(tuple(zip(*reduced)))
    return Representation._of(rep.monoid, tuple(num), rep.den * sub.den)


def direct_sum(a: Representation, b: Representation) -> Representation:
    if a.monoid is not b.monoid and a.monoid.elements != b.monoid.elements:
        raise ValueError("representations are over different monoids")
    right, left = (0,) * b.dim, (0,) * a.dim

    def matrix(s):
        return (tuple(tuple(x * b.den for x in row) + right for row in a.num[s])
                + tuple(left + tuple(x * a.den for x in row) for row in b.num[s]))

    num = _stack(len(a.num), a.dim + b.dim, matrix)
    return Representation._of(a.monoid, num, a.den * b.den)


def commutation_rows(rep_v: Representation, rep_u: Representation) -> list:
    """Integer coefficient rows of X phi_V(g) = phi_U(g) X over the generators g.

    X is du x dv, flattened row-major (vec X[i*dv + k] = X[i][k]).  In that
    flattening vec(XA − BX) = (I⊗Aᵀ − B⊗I)·vec X, with I of size du on the
    left and dv on the right, so each generator contributes the du*dv rows of
    that matrix for A = phi_V(g), B = phi_U(g), times both denominators: row
    (i, k) holds A[k'][k] at (i, k') and -B[i][i'] at (i', k).  Generators
    suffice: X that commutes past phi(s) and phi(t) commutes past
    phi(s t) = phi(s) phi(t).
    """
    if rep_v.monoid is not rep_u.monoid and rep_v.monoid.elements != rep_u.monoid.elements:
        raise ValueError("representations are over different monoids")
    dv, du = rep_v.dim, rep_u.dim
    rows = []
    for g in rep_v.monoid.generating_set():
        a, b = rep_v.num[g], rep_u.num[g]
        for i in range(du):
            for k in range(dv):
                row = [0] * (du * dv)
                row[i * dv:(i + 1) * dv] = [x[k] * rep_u.den for x in a]
                for j, y in enumerate(b[i]):
                    row[j * dv + k] -= y * rep_v.den
                rows.append(row)
    return rows


def intertwiner_space(rep_v: Representation, rep_u: Representation) -> Subspace:
    """Matrices X with X phi_V(s) = phi_U(s) X, flattened row-major."""
    ambient = rep_v.dim * rep_u.dim
    return Subspace._span(ambient, commutation_rows(rep_v, rep_u)).orthogonal_complement()


def commutant_dim(rep: Representation) -> int:
    """Dimension of {X : X phi(s) = phi(s) X for all s}."""
    return intertwiner_space(rep, rep).dim


def _shifted(m, den: int, lam: int) -> tuple:
    """The integer rows of m - lam den I, whose kernel is the eigenspace of
    m / den for the eigenvalue lam."""
    shift = lam * den
    return tuple([x - shift if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m))


def _eigenspace(m, den: int, lam: int) -> Subspace:
    """The eigenspace of m / den for the eigenvalue lam, for integer rows m."""
    return Subspace._span(len(m), _shifted(m, den, lam)).orthogonal_complement()


def one_dim_invariant_lines(rep: Representation):
    """All simultaneous eigenvector subspaces with monoid-consistent scalars.

    A line spanned by v is invariant iff every generator g acts on v by a
    scalar c(g); multiplicativity over a finite monoid forces c(g) to be 0 or
    a rational root of unity, so c(g) is searched over (0, 1, -1), one
    generator after another.  The kernel of stacked rows is the intersection
    of their kernels, so a search node holds the echelon span of the shifted
    rows m - c(g) den I chosen so far (_shifted), and its simultaneous
    eigenspace is that span's orthogonal complement; a zero space is pruned.
    Returns the (scalar assignment, eigenspace) pairs with nonzero
    eigenspace in search order; their union carries every invariant line.
    """
    d, den = rep.dim, rep.den
    shifts = [[(lam, _shifted(rep.num[g], den, lam)) for lam in (0, 1, -1)]
              for g in rep.monoid.generating_set()]
    found = []

    def descend(k, rows, scalars):
        span = Subspace._span(d, rows)
        space = span.orthogonal_complement()
        if space.dim == 0:
            return
        if k == len(shifts):
            found.append((tuple(scalars), space))
            return
        for lam, shifted in shifts[k]:
            descend(k + 1, span.num + shifted, scalars + [lam])

    descend(0, (), [])
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
        return Subspace._span(d, [lines[-1] if seed_order == "reversed" else lines[0]])
    seeds = []
    for m in rep.num:
        for lam in (-1, 0, 1):
            seeds.extend(_eigenspace(m, rep.den, lam).num)
    seeds.extend(_identity(d))
    if seed_order == "reversed":
        seeds.reverse()
    for seed in seeds:
        sub = _spin(rep, Subspace._span(d, [seed]))
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


def exterior_power(rep: Representation, p: int) -> Representation:
    """Matrices of minors on the canonical ordered basis of p-subsets."""
    d = rep.dim
    if not 0 <= p <= d:
        raise ValueError(f"exterior power degree must be in 0..{d}")
    basis = list(itertools.combinations(range(d), p))

    def matrix(s):
        m = rep.num[s]
        return tuple(tuple(_bareiss([[m[r][c] for c in j] for r in i]) for j in basis) for i in basis)

    return Representation._of(rep.monoid, _stack(len(rep.num), len(basis), matrix), rep.den ** p)


# -- structured-text serialization -------------------------------------------

def serialize_representation(rep: Representation, *, monoid_label: str) -> str:
    """Line-oriented wire form: header, then per element a label line (str
    of the element) and row-major matrix lines with entries as p/q strings,
    each distinct numerator's text made once."""
    lines = [
        f"monoid: {monoid_label}",
        f"elements: {len(rep.monoid)}",
        f"dim: {rep.dim}",
    ]
    text = {x: _ratio_text(x, rep.den) for x in set(_flat(_flat(rep.num)))}.__getitem__
    for k, el in enumerate(rep.monoid.elements):
        lines.append(f"element {k} {el}")
        lines.extend(" ".join(map(text, row)) for row in rep.num[k])
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
