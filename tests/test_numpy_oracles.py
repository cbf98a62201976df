"""The numpy routines that the structure layers replaced by Python int lists
and bitsets, kept as oracles: the order relation of the built-in lattices
by matrix product, meets and joins by bound rows over the order matrix, the
J-order closed over a boolean matrix with its covers from strict @ strict,
and the left-row certificate over numpy image rows."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import monoidrep.lattice as lattice_module
from monoidrep.elements import (
    PartialBijection,
    Permutation,
    Transformation,
    _certify_left_rows,
    closure,
)
from monoidrep.green import _strong_components, green_structure
from monoidrep.lattice import LATTICE_KINDS, FiniteLattice, LatticeError, make_lattice, sgl_monoid

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
    them from the order matrix in numpy; raises on the first bad pair."""
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


def numpy_jorder(m, jclass_of):
    """leq[i, j] iff J_i <= J_j: the two-sided graph of the generators,
    condensed to J-classes in a boolean matrix and closed under
    reachability one strongly connected component at a time."""
    t = m.table
    gens = list(m.generating_set())
    right, left = t[:, gens], t[gens].T
    count = max(jclass_of) + 1
    jof = np.asarray(jclass_of, dtype=np.intp)
    edge = np.zeros((count, count), dtype=bool)
    edge[jof[:, None], jof[right]] = True
    edge[jof[:, None], jof[left]] = True
    succ = [np.flatnonzero(row).tolist() for row in edge]
    comp = _strong_components(succ)
    groups = [[] for _ in range(max(comp) + 1)]
    for j, c in enumerate(comp):
        groups[c].append(j)
    below = np.zeros((count, count), dtype=bool)
    for group in groups:
        row = below[[k for j in group for k in succ[j]]].any(axis=0)
        row[group] = True
        below[group] = row
    return np.ascontiguousarray(below.T)


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


def certificate_inputs(m):
    gens = [m.elements[g] for g in m.generating_set()]
    rows = type(m.elements[0])._faithful_rows(list(m.elements) + gens)
    return list(rows[:len(m)]), rows[len(m):], [list(row) for row in m._left], m.identity_index


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
        assert np.array_equal(lat.meet, meet) and np.array_equal(lat.join, join)
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
        try:
            meet, join, _, _ = numpy_bounds(tuple(range(n)), leq)
        except LatticeError as exc:
            with pytest.raises(LatticeError) as got:
                FiniteLattice(range(n), up)
            assert str(got.value) == str(exc)
            return
        lat = FiniteLattice(range(n), up)
        assert np.array_equal(lat.meet, meet) and np.array_equal(lat.join, join)


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
        assert accepts(_certify_left_rows, inputs) == accepts(numpy_certify_left_rows, inputs)

    @pytest.mark.parametrize("kind,n", [(kind, n) for kind in LATTICE_KINDS for n in (2, 3)])
    def test_pair_monoids(self, kind, n):
        m = sgl_monoid(make_lattice(kind, n)[1])[0]
        inputs = certificate_inputs(m)
        assert accepts(_certify_left_rows, inputs) and accepts(numpy_certify_left_rows, inputs)
        rows, gen_rows, left, e = inputs
        for other in range(len(m)):  # every wrong identity
            if other != e:
                wrong = (rows, gen_rows, left, other)
                assert not accepts(_certify_left_rows, wrong)
                assert not accepts(numpy_certify_left_rows, wrong)
