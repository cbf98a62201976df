"""The numpy routines that the structure and representation layers replaced
by Python ints, kept as oracles: the order relation of the built-in lattices
by matrix product, meets and joins by bound rows over the order matrix, the
J-order closed over a boolean matrix with its covers from strict @ strict,
the left-row certificate over numpy image rows; and, over object-dtype
stacks, the matmul homomorphism check, fraction-free Gauss-Jordan with
primitive rows, the Bareiss determinant, restriction to an invariant
subspace, and the induced stack written by fancy indexing."""

import itertools
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import monoidrep.lattice as lattice_module
from monoidrep.elements import (
    PartialBijection,
    Permutation,
    Transformation,
    closure,
)
from monoidrep.cliffmunn import induce_raw
from monoidrep.elements import (
    full_transformation_monoid,
    symmetric_group,
    symmetric_inverse_monoid,
)
from monoidrep.green import (
    green_structure,
    lclass_coordinates,
    maximal_subgroup,
    monoid_green,
    transversal,
)
from monoidrep.lattice import LATTICE_KINDS, FiniteLattice, LatticeError, make_lattice, sgl_monoid
from monoidrep.linrep import (
    Representation,
    Subspace,
    VerificationError,
    _bareiss,
    _rref_rows,
    mapping_rep,
)
from monoidrep.specht import specht_rep
from oracles import (
    certificate_inputs,
    certify_left_rows,
    diagonal,
    fraction_matrices,
    fraction_rows,
    from_fractions,
    joins_from_meets,
    oracle_product,
    unitriangular_inverse,
)

BLOCK = 65536


# -- the former numpy routines -------------------------------------------------

def numpy_order_relation(kind, elements, n):
    """leq[a, b] iff R_a is inside R_b, by counting the pairs of R_a that R_b
    lacks in one integer matrix product."""
    if kind == "subsets":
        rel = np.zeros((len(elements), n), dtype=bool)
        for k, a in enumerate(elements):
            rel[k, [x - 1 for x in a]] = True
    else:
        pos = np.zeros((len(elements), n), dtype=np.intp)
        for k, a in enumerate(elements):
            for i, block in enumerate(a):
                pos[k, [x - 1 for x in block]] = i
        compare = np.equal if kind == "set_partitions" else np.less_equal
        rel = compare(pos[:, :, None], pos[:, None, :]).reshape(len(elements), -1)
        rel[[k for k, a in enumerate(elements) if a == ()]] = False
    missing = rel.astype(np.intp) @ (~rel).astype(np.intp).T
    return missing == 0


class NumpyBoundRows:
    """Greatest lower bounds from an order matrix one row at a time: the
    columns of down(a) in order of decreasing down-set size, the first lower
    bound of each b, accepted when its down-set has the intersection's size."""

    def __init__(self, leq):
        self.size = leq.sum(axis=0)
        self.order = np.argsort(-self.size, kind="stable")
        self.below = leq.T[:, self.order]

    def row(self, a):
        cols = np.flatnonzero(self.below[a])
        common = self.below[:, cols]
        best = self.order[cols[common.argmax(axis=1)]]
        return best, self.size[best] != common.sum(axis=1)


def numpy_bounds(elements, leq):
    """The meet and join tables, and bottom and top, as FiniteLattice read
    them from the order matrix in numpy before it kept meets alone; raises
    on the first bad pair."""
    n = len(elements)
    meet = np.empty((n, n), dtype=np.int32)
    join = np.empty((n, n), dtype=np.int32)
    meets, joins = NumpyBoundRows(leq), NumpyBoundRows(leq.T)
    for a in range(n):
        meet[a], no_meet = meets.row(a)
        join[a], no_join = joins.row(a)
        bad = no_meet | no_join
        if bad.any():
            b = int(bad.argmax())
            kind = "meet" if no_meet[b] else "join"
            raise LatticeError(f"no unique {kind} for elements {elements[a]!r} and {elements[b]!r}")
    bottoms = [a for a in range(n) if leq[a].all()]
    tops = [a for a in range(n) if leq[:, a].all()]
    return meet, join, bottoms, tops


def numpy_refusal(elements, leq):
    """FiniteLattice's refusal of the order matrix, read in numpy, or None
    where it accepts: the first pair without a meet, row by row, and then a
    missing top."""
    meets = NumpyBoundRows(leq)
    for a in range(len(elements)):
        _, no_meet = meets.row(a)
        if no_meet.any():
            b = int(no_meet.argmax())
            return f"no unique meet for elements {elements[a]!r} and {elements[b]!r}"
    if not leq.all(axis=0).any():
        return "lattice must have a top"
    return None


def numpy_jorder(m, jclass_of):
    """leq[i, j] iff J_i <= J_j: the two-sided graph of the generators,
    condensed to J-classes in a boolean matrix, made reflexive and closed
    under reachability by Warshall's algorithm.  reach[j, i] holds iff J_j
    reaches J_i, that is, iff J_i <= J_j."""
    t = np.asarray(m.table)
    gens = list(m.generating_set())
    right, left = t[:, gens], t[gens].T
    count = max(jclass_of) + 1
    jof = np.asarray(jclass_of, dtype=np.intp)
    reach = np.eye(count, dtype=bool)
    reach[jof[:, None], jof[right]] = True
    reach[jof[:, None], jof[left]] = True
    for k in range(count):
        reach |= np.outer(reach[:, k], reach[k])
    return np.ascontiguousarray(reach.T)


def numpy_covers(leq):
    strict = (leq & ~np.eye(len(leq), dtype=bool)).astype(np.int64)
    cover = (strict > 0) & ~(strict @ strict > 0)
    return tuple((int(i), int(j)) for i, j in np.argwhere(cover))


def numpy_certify_left_rows(rows, generator_rows, left, e):
    """The certificate over numpy rows: mu(e) a two-sided identity on every
    found row, distinct rows, mu(left[k][x]) = mu(a_k) o mu(x) for all k and
    x, and every generator fixed by mu(e) on the right."""
    rows = np.array(rows, dtype=np.intp)
    generator_rows = np.array(generator_rows, dtype=np.intp).reshape(-1, rows.shape[1])
    left = np.array(left, dtype=np.intp).reshape(-1, len(rows))
    step = max(1, BLOCK // rows.shape[1])
    unit = rows[e]

    def then(block, a):
        return np.pad(block, ((0, 0), (1, 0)))[:, a]

    def lookup(a):
        return np.concatenate(([0], a))

    on_unit = lookup(unit)
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        if not (np.array_equal(on_unit[block], block) and np.array_equal(then(block, unit), block)):
            raise ValueError("identity laws fail")
    if not np.array_equal(then(generator_rows, unit), generator_rows):
        raise ValueError("identity laws fail: a generator is not fixed by the identity")
    ranked = rows[np.lexsort(rows.T)]
    if (ranked[1:] == ranked[:-1]).all(axis=1).any():
        raise ValueError("two elements share an image row")
    for a, succ in zip(generator_rows, left):
        composed = lookup(a)
        for i in range(0, len(rows), step):
            if not np.array_equal(composed[rows[i:i + step]], rows[succ[i:i + step]]):
                raise ValueError("a left product disagrees with the image rows")


def numpy_primitive(rows):
    """Each integer row divided by the gcd of its entries; zero rows stay."""
    g = np.gcd.reduce(rows, axis=1)
    return rows // np.where(g == 0, 1, g)[:, None]


def numpy_rref_rows(rows):
    """Fraction-free Gauss-Jordan over a whole object array: the rows with a
    nonzero in the pivot column are cleared at once."""
    a = numpy_primitive(np.array(rows, dtype=object))
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
            a[hits] = numpy_primitive(a[hits] * a[r, c] - np.outer(a[hits, c], a[r]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r], tuple(pivots)


def numpy_span(rows):
    """(numerators, den, pivots) of the span: each echelon row over its
    pivot entry, over one den, in lowest terms."""
    ech, pivots = numpy_rref_rows(rows)
    lead = ech[np.arange(len(pivots)), list(pivots)]
    den = lcm(1, *lead)
    num = ech * (den // lead)[:, None]
    g = gcd(den, *num.flat)
    return tuples(num // g), den // g, pivots


def numpy_bareiss(num):
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


def numpy_restrict(sub, stack):
    """R = M[pivots, :] B^T for a stack of integer matrices M, over sub.den;
    ValueError unless M B^T den = B^T R for every M."""
    bt = np.array(sub.num, dtype=object).reshape(sub.dim, sub.ambient).T
    image = np.array(stack, dtype=object) @ bt
    r = image[..., list(sub.pivots), :]
    image *= sub.den
    if (image != bt @ r).any():
        raise ValueError("subspace is not invariant")
    return tuples(r), sub.den


def numpy_verifies(rep):
    """rho(1) = I and num[s] num[a] = den num[s*a] for every s and generator
    a, by one object matmul per generator."""
    num, den, monoid = np.array(rep.num, dtype=object), rep.den, rep.monoid
    if not np.array_equal(num[monoid.identity_index], np.eye(rep.dim, dtype=object) * den):
        return False
    for a, col in zip(monoid.generating_set(), monoid._generator_columns()):
        if (np.matmul(num, num[a]) != num[col] * den).any():
            return False
    return True


def numpy_induce_stack(monoid, e, group_rep):
    """(numerators, den) of induce_raw's stack, written by one fancy-index
    assignment from the block map, in lowest terms."""
    classes, _ = monoid_green(monoid)
    trans = transversal(monoid, classes, e)
    group = group_rep.monoid
    block, local = map(np.asarray, lclass_coordinates(monoid, classes, trans))
    ge = classes.hclasses[classes.hclass_of[e]]
    to_group = np.array([group.index(monoid.elements[g]) for g in ge])
    products = np.array(monoid.columns(trans.reps)).T
    big_j = block[products]
    big_g = np.where(big_j >= 0, to_group[local[products]], -1)
    k, dv = len(trans.reps), group_rep.dim
    num = np.zeros((len(monoid), k, dv, k, dv), dtype=object)
    t, i = np.nonzero(big_j >= 0)
    num[t, big_j[t, i], :, i, :] = np.array(group_rep.num, dtype=object)[big_g[t, i]]
    num = num.reshape(len(monoid), k * dv, k * dv)
    g = gcd(group_rep.den, *num.flat)
    return tuples(num // g), group_rep.den // g


def tuples(a):
    """An object array as nested tuples of Python ints."""
    return tuple(map(tuples, a)) if getattr(a, "ndim", 0) else int(a)


# -- inputs ----------------------------------------------------------------------

def lattice_elements(kind, n):
    if kind == "subsets":
        return sorted(itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), m) for m in range(n + 1)))
    if kind == "set_partitions":
        return sorted(lattice_module._set_partitions(n))
    return [()] + sorted(lattice_module._ordered_partitions(n))


def matrix(leq):
    n = len(leq)
    return np.array([[bool(up >> b & 1) for b in range(n)] for up in leq], dtype=bool)


LATTICES = [(kind, n) for kind in LATTICE_KINDS for n in range(1, 6)]
# ordered partitions of [5] are refused by the pair-order bound before their
# pair monoid is built
PAIR_MONOIDS = [(kind, n) for kind, n in LATTICES if (kind, n) != ("ordered_partitions_zero", 5)]


def _element(kind, n):
    points = st.permutations(range(1, n + 1))
    if kind == "S":
        return points.map(Permutation)
    if kind == "T":
        return st.lists(st.integers(1, n), min_size=n, max_size=n).map(Transformation)
    return st.tuples(points, st.lists(st.booleans(), min_size=n, max_size=n)).map(
        lambda pk: PartialBijection(n, [(x, y) for x, y, k in zip(range(1, n + 1), *pk) if k]))


@st.composite
def generated_monoids(draw):
    kind, n = draw(st.sampled_from("SIT")), draw(st.integers(1, 4))
    return closure(draw(st.lists(_element(kind, n), min_size=1, max_size=3)))


def accepts(certify, inputs):
    try:
        certify(*inputs)
    except ValueError:
        return False
    return True


# -- the comparisons ---------------------------------------------------------------

class TestLatticeOracles:
    @pytest.mark.parametrize("kind,n", LATTICES)
    def test_order_relation_is_the_matrix_product(self, kind, n):
        els = lattice_elements(kind, n)
        leq = lattice_module._order_relation(kind, els, n)
        assert np.array_equal(matrix(leq), numpy_order_relation(kind, els, n))

    @pytest.mark.parametrize("kind,n", LATTICES)
    def test_meets_joins_and_bounds_are_the_bound_rows(self, kind, n):
        els = lattice_elements(kind, n)
        lat = FiniteLattice(els, lattice_module._order_relation(kind, els, n))
        meet, join, bottoms, tops = numpy_bounds(lat.elements, matrix(lat.leq))
        assert np.array_equal(lat.meet, meet) and np.array_equal(joins_from_meets(lat), join)
        assert [lat.bottom] == bottoms and [lat.top] == tops

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 8), data=st.data())
    def test_random_posets_fail_alike(self, n, data):
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        leq = np.eye(n, dtype=bool)
        for i, j in edges:
            leq[min(i, j), max(i, j)] = True
        if data.draw(st.booleans()):
            leq[0, :] = leq[:, n - 1] = True
        for k in range(n):
            leq |= np.outer(leq[:, k], leq[k, :])
        up = [sum(1 << b for b in range(n) if leq[a, b]) for a in range(n)]
        # meets and a top are refused exactly where meets and joins are
        refusal = numpy_refusal(tuple(range(n)), leq)
        try:
            meet, join, _, _ = numpy_bounds(tuple(range(n)), leq)
        except LatticeError:
            assert refusal is not None
            with pytest.raises(LatticeError) as got:
                FiniteLattice(range(n), up)
            assert str(got.value) == refusal
            return
        assert refusal is None
        lat = FiniteLattice(range(n), up)
        assert np.array_equal(lat.meet, meet) and np.array_equal(joins_from_meets(lat), join)


class TestJOrderOracles:
    @staticmethod
    def assert_matches(m):
        classes, poset = green_structure(m)
        leq = numpy_jorder(m, classes.jclass_of)
        assert np.array_equal(matrix(poset.leq), leq)
        assert poset.covers() == numpy_covers(leq)

    @pytest.mark.parametrize("kind,n", PAIR_MONOIDS)
    def test_pair_monoids(self, kind, n):
        self.assert_matches(sgl_monoid(make_lattice(kind, n)[1])[0])

    @settings(max_examples=80, deadline=None)
    @given(m=generated_monoids())
    def test_generated_monoids(self, m):
        self.assert_matches(m)


class TestCertificateOracle:
    @staticmethod
    def corrupt(inputs, data):
        """The inputs as found, or with one left cell, one row, the identity
        or one generator row changed."""
        rows, gen_rows, left, e = inputs
        n = len(rows)
        what = data.draw(st.sampled_from(["none", "left", "row", "identity", "generator"]))
        if what == "left":
            k, x = data.draw(st.integers(0, len(left) - 1)), data.draw(st.integers(0, n - 1))
            left[k][x] = data.draw(st.integers(0, n - 1))
        elif what == "row":
            rows[data.draw(st.integers(0, n - 1))] = rows[data.draw(st.integers(0, n - 1))]
        elif what == "identity":
            e = data.draw(st.integers(0, n - 1))
        elif what == "generator":
            gen_rows = list(gen_rows)
            gen_rows[data.draw(st.integers(0, len(gen_rows) - 1))] = rows[data.draw(st.integers(0, n - 1))]
        return rows, gen_rows, left, e

    @settings(max_examples=150, deadline=None)
    @given(m=generated_monoids(), data=st.data())
    def test_generated_monoids(self, m, data):
        inputs = self.corrupt(certificate_inputs(m), data)
        assert accepts(certify_left_rows, inputs) == accepts(numpy_certify_left_rows, inputs)

    @pytest.mark.parametrize("kind,n", [(kind, n) for kind in LATTICE_KINDS for n in (2, 3)])
    def test_pair_monoids(self, kind, n):
        m = sgl_monoid(make_lattice(kind, n)[1])[0]
        inputs = certificate_inputs(m)
        assert accepts(certify_left_rows, inputs) and accepts(numpy_certify_left_rows, inputs)
        rows, gen_rows, left, e = inputs
        for other in range(len(m)):  # every wrong identity
            if other != e:
                wrong = (rows, gen_rows, left, other)
                assert not accepts(certify_left_rows, wrong)
                assert not accepts(numpy_certify_left_rows, wrong)


# -- the representation layers ----------------------------------------------------

def integer_rows(max_rows=6, max_cols=6):
    """Integer rows with negative entries, often with zero rows."""
    return st.integers(1, max_cols).flatmap(lambda n: st.lists(
        st.one_of(st.just([0] * n), st.lists(st.integers(-4, 4), min_size=n, max_size=n)),
        min_size=1, max_size=max_rows))


REP_BASES = [
    mapping_rep(symmetric_inverse_monoid(2)),
    mapping_rep(symmetric_inverse_monoid(3)),
    mapping_rep(full_transformation_monoid(3)),
    mapping_rep(symmetric_group(3)),
    specht_rep((2, 1)).rep,
    specht_rep((2, 2)).rep,
]


@st.composite
def conjugated_reps(draw):
    """A small representation conjugated by D U, D diagonal and U upper
    unitriangular with rational entries: dense matrices over a den > 1."""
    rep = draw(st.sampled_from(REP_BASES))
    n = rep.dim
    diag = [draw(st.fractions(-3, 3, max_denominator=4).filter(bool)) for _ in range(n)]
    upper = {(i, j): draw(st.sampled_from([0, 0, 1, -1, Fraction(1, 2)]))
             for i in range(n) for j in range(i + 1, n)}
    u = fraction_rows([[1 if i == j else upper.get((i, j), 0) for j in range(n)] for i in range(n)])
    p = oracle_product(diagonal(diag), u)
    p_inv = oracle_product(unitriangular_inverse(u), diagonal([1 / x for x in diag]))
    return from_fractions(rep.monoid, [oracle_product(p, m, p_inv) for m in fraction_matrices(rep)])


INDUCE_BUILDS = [
    lambda: symmetric_inverse_monoid(3),
    lambda: sgl_monoid(make_lattice("subsets", 3)[1])[0],
    lambda: sgl_monoid(make_lattice("ordered_partitions_zero", 3)[1])[0],
]


@pytest.fixture(scope="module")
def induce_monoids():
    # built when a test first reads them, not at import: a build that fails
    # under a mutant fails that test, and the module still collects
    return [build() for build in INDUCE_BUILDS]


class TestExactLinearAlgebraOracles:
    @settings(max_examples=150, deadline=None)
    @given(rows=integer_rows())
    def test_rref_rows_are_the_numpy_rows(self, rows):
        ech, pivots = _rref_rows(rows)
        expected, expected_pivots = numpy_rref_rows(rows)
        assert (ech, pivots) == (tuples(expected), expected_pivots)
        sub = Subspace.span(len(rows[0]), rows)
        assert (sub.num, sub.den, sub.pivots) == numpy_span(rows)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(0, 5))
    def test_bareiss_is_the_numpy_determinant(self, data, n):
        rows = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        assert _bareiss(rows) == numpy_bareiss(np.array(rows, dtype=object).reshape(n, n))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), kind=st.sampled_from(["image", "kernel", "random"]))
    def test_restrict_is_the_numpy_restriction(self, data, n, kind):
        square = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
        m = data.draw(square)
        if kind == "random":
            sub = Subspace.span(n, data.draw(integer_rows(n, n).filter(lambda r: len(r[0]) == n)))
        elif kind == "image":
            sub = Subspace.span(n, list(zip(*m)))  # the columns, as reduce_rep spans phi(e)'s
        else:
            sub = Subspace.span(n, m).orthogonal_complement()
        stack = [m, [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in m]]
        try:
            expected = numpy_restrict(sub, stack)
        except ValueError:
            with pytest.raises(ValueError, match="not invariant"):
                sub.restrict(stack)
            return
        assert sub.restrict(stack) == expected


class TestRepresentationOracles:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rep=conjugated_reps())
    def test_verify_agrees_with_the_matmul_check(self, data, rep):
        k = data.draw(st.integers(0, len(rep.monoid) - 1))
        r, c = data.draw(st.integers(0, rep.dim - 1)), data.draw(st.integers(0, rep.dim - 1))
        num = [[list(row) for row in m] for m in rep.num]
        num[k][r][c] += data.draw(st.integers(-2, 2))
        corrupted = Representation.__new__(Representation)
        corrupted.monoid, corrupted.num, corrupted.den, corrupted.dim = rep.monoid, num, rep.den, rep.dim
        if numpy_verifies(corrupted):
            Representation.from_numerators(rep.monoid, num, rep.den)
        else:
            with pytest.raises(VerificationError):
                Representation.from_numerators(rep.monoid, num, rep.den)

    def test_numpy_integers_are_taken_as_python_ints(self):
        sub = Subspace.span(3, np.array([[1, -2, 0], [0, 3, 1]], dtype=np.int64))
        assert (sub.num, sub.den) == (((3, 0, 2), (0, 3, 1)), 3)
        assert {type(x) for row in sub.num for x in row} | {type(sub.den)} == {int}
        group = symmetric_group(2)
        rep = Representation.from_numerators(group, 2 * np.ones((2, 1, 1), dtype=np.int8), np.int32(2))
        assert rep.num == (((1,),), ((1,),)) and type(rep.num[0][0][0]) is int
        assert rep.den == 1 and type(rep.den) is int

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), pick=st.integers(0, len(INDUCE_BUILDS) - 1))
    def test_induce_raw_is_the_fancy_index_stack(self, induce_monoids, data, pick):
        monoid = induce_monoids[pick]
        e = data.draw(st.sampled_from(monoid.idempotent_indices()))
        group = maximal_subgroup(monoid, monoid_green(monoid)[0], e)
        n = len(group)
        scale = [data.draw(st.fractions(-3, 3, max_denominator=4).filter(bool)) for _ in range(n)]
        d, d_inv = diagonal(scale), diagonal([1 / x for x in scale])
        regular = [[[1 if group.mul(g, h) == r else 0 for h in range(n)] for r in range(n)]
                   for g in range(n)]
        group_rep = from_fractions(group, [oracle_product(d, m, d_inv) for m in regular])
        raw = induce_raw(monoid, e, group_rep)
        assert (raw.rep.num, raw.rep.den) == numpy_induce_stack(monoid, e, group_rep)
