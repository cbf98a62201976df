import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import monoidrep.elements as elements_module
import monoidrep.lattice as lattice_module
from monoidrep.elements import (
    ClosureCapError,
    Permutation,
    symmetric_group,
    symmetric_inverse_monoid,
)
from monoidrep.green import green_structure, maximal_subgroup
from monoidrep.lattice import (
    FiniteLattice,
    GroupAction,
    LatticeError,
    SGLContext,
    SGLElement,
    _inverses,
    _sgl_generators,
    sgl_context,
    make_lattice,
    partition_lattice_report,
    sgl_monoid,
    sgl_order,
    subsets_to_partial_bijection,
)
from oracles import joins_from_meets, maximal_subgroup_at, stabilizers


def canonical(ctx, g, a):
    """The pair g_a for a permutation g."""
    return ctx.canonical(ctx.group.index(g), a)


def matrix(leq, n=None):
    """The boolean matrix of up-set bitsets: [a, b] is bit b of leq[a]."""
    n = len(leq) if n is None else n
    rows = [[bool(up >> b & 1) for b in range(n)] for up in leq]
    return np.array(rows, dtype=bool).reshape(-1, n)


def bitsets(leq):
    """The up-set bitsets of a boolean matrix: bit b of row a is [a, b]."""
    return [sum(1 << b for b, x in enumerate(row) if x) for row in leq]


def bell_number(n):
    # independent oracle: B(n+1) = sum C(n,k) B(k)
    b = [1]
    for m in range(n):
        b.append(sum(math.comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def fubini_number(n):
    # independent oracle: a(n) = sum_{k>=1} C(n,k) a(n-k), a(0) = 1
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def refines(a, b):
    """Oracle: every block of the partition a lies inside a block of b."""
    return all(any(set(block) <= set(big) for big in b) for block in a)


def ordered_leq(a, b):
    """Oracle: both bullets of the ordered-partition order; () is the minimum."""
    if a == ():
        return True
    if b == ():
        return False
    homes = []
    for block in a:
        target = [j for j, big in enumerate(b) if set(block) <= set(big)]
        if not target:
            return False
        homes.append(target[0])
    return all(homes[i] <= homes[i + 1] for i in range(len(homes) - 1))


@pytest.fixture(scope="module")
def subsets3():
    return make_lattice("subsets", 3)


@pytest.fixture(scope="module")
def ordperm3():
    return make_lattice("ordered_partitions_zero", 3)


class TestMakeLattice:
    def test_subsets3(self, subsets3):
        lat, action = subsets3
        assert len(lat) == 8
        assert lat.elements[lat.top] == (1, 2, 3)
        assert lat.elements[lat.bottom] == ()

    def test_set_partitions4(self):
        lat, _ = make_lattice("set_partitions", 4)
        assert len(lat) == bell_number(4) == 15
        assert lat.elements[lat.bottom] == ((1,), (2,), (3,), (4,))

    def test_ordperm3(self, ordperm3):
        lat, _ = ordperm3
        assert len(lat) == fubini_number(3) + 1 == 14
        assert lat.elements[lat.bottom] == ()
        assert lat.elements[lat.top] == ((1, 2, 3),)

    def test_unknown_kind(self):
        with pytest.raises(LatticeError):
            make_lattice("chains", 3)

    def test_degree_cap(self):
        with pytest.raises(LatticeError):
            make_lattice("subsets", 40)

    @pytest.mark.parametrize("kind,n", [
        ("subsets", 3), ("set_partitions", 3), ("ordered_partitions_zero", 3),
    ])
    def test_meets_and_joins_are_bounds(self, kind, n):
        # brute-force glb/lub re-check against the order relation; the
        # joins are the meets of the upper bounds, which the lattice keeps
        # no table of
        lat, _ = make_lattice(kind, n)
        size = len(lat)
        leq = matrix(lat.leq)
        joins = joins_from_meets(lat)
        for a in range(size):
            for b in range(size):
                m = lat.meet[a][b]
                assert leq[m, a] and leq[m, b]
                for c in range(size):
                    if leq[c, a] and leq[c, b]:
                        assert leq[c, m]
                j = joins[a][b]
                assert leq[a, j] and leq[b, j]
                for c in range(size):
                    if leq[a, c] and leq[b, c]:
                        assert leq[j, c]

    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_action_is_poset_automorphism(self, kind, n):
        # a <= b iff g.a <= g.b, every g; plus homomorphism and identity laws
        lat, action = make_lattice(kind, n)  # constructor validates; re-check one law
        leq = matrix(lat.leq)
        for g in range(len(action.group)):
            perm = action.table[g]
            assert np.array_equal(leq[np.ix_(perm, perm)], leq)

    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orbits_are_read_off_the_whole_table(self, kind, n):
        # the orbit of a is {g.a : g in G}, read here from every row of the
        # action table, where the program walks the generators' rows
        lat, action = make_lattice(kind, n)
        expected, seen = [], set()
        for a in range(len(lat)):
            if a not in seen:
                orbit = tuple(sorted({row[a] for row in action.table}))
                seen.update(orbit)
                expected.append(orbit)
        assert action.orbits() == tuple(expected)

    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orbit_mates_incomparable(self, kind, n):
        lat, action = make_lattice(kind, n)
        for orbit in action.orbits():
            for a in orbit:
                for b in orbit:
                    if a != b:
                        assert not lat.leq[a] >> b & 1


ORDER_ORACLES = {
    "subsets": lambda a, b: set(a) <= set(b),
    "set_partitions": refines,
    "ordered_partitions_zero": ordered_leq,
}


def lattice_elements(kind, n):
    """make_lattice's elements, enumerated without its degree and budget checks."""
    if kind == "subsets":
        return sorted(itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), m) for m in range(n + 1)))
    if kind == "set_partitions":
        return sorted(lattice_module._set_partitions(n))
    return [()] + sorted(lattice_module._ordered_partitions(n))


class TestOrderRelation:
    @pytest.mark.parametrize("kind", list(ORDER_ORACLES))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_relation_inclusion_is_the_order(self, kind, n):
        els = lattice_elements(kind, n)
        leq = ORDER_ORACLES[kind]
        expected = np.array([[leq(a, b) for b in els] for a in els])
        relation = lattice_module._order_relation(kind, els, n)
        assert np.array_equal(matrix(relation, len(els)), expected)

    @pytest.mark.parametrize("kind", list(ORDER_ORACLES))
    def test_make_lattice_order(self, kind):
        lat, _ = make_lattice(kind, 4)
        assert lat.elements == tuple(lattice_elements(kind, 4))
        leq = ORDER_ORACLES[kind]
        expected = [[leq(a, b) for b in lat.elements] for a in lat.elements]
        assert np.array_equal(matrix(lat.leq), expected)


def reference_bounds(elements, leq):
    """Oracle: meet and join tables by down-set/up-set bitmask intersection,
    one (a, b) pair at a time, meet before join; raises LatticeError on the
    first pair without a unique bound.  This is the rule FiniteLattice
    checked before it kept meets alone."""
    n = len(elements)
    down = [int.from_bytes(np.packbits(leq[:, a]).tobytes(), "big") for a in range(n)]
    up = [int.from_bytes(np.packbits(leq[a, :]).tobytes(), "big") for a in range(n)]
    # a down-set determines its element, so glb(a, b) exists iff
    # down(a) & down(b) is itself some element's down-set
    down_of = {m: c for c, m in enumerate(down)}
    up_of = {m: c for c, m in enumerate(up)}
    meet = np.empty((n, n), dtype=np.int32)
    join = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        for b in range(n):
            for table, mask_of, want, kind in ((meet, down_of, down[a] & down[b], "meet"),
                                               (join, up_of, up[a] & up[b], "join")):
                hit = mask_of.get(want)
                if hit is None:
                    raise LatticeError(
                        f"no unique {kind} for elements {elements[a]!r} and {elements[b]!r}"
                    )
                table[a, b] = hit
    return meet, join


def reference_refusal(elements, leq):
    """Oracle: FiniteLattice's refusal of an order matrix, or None where it
    accepts: the first pair, row by row, whose lower bounds have no
    greatest element, and then a missing top."""
    n = len(elements)
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if leq[c, a] and leq[c, b]]
            if not any(all(leq[d, c] for d in lower) for c in lower):
                return f"no unique meet for elements {elements[a]!r} and {elements[b]!r}"
    if not any(leq[:, t].all() for t in range(n)):
        return "lattice must have a top"
    return None


def poset(names, covers):
    """The order matrix generated by the covering pairs (x, y), x < y."""
    leq = np.eye(len(names), dtype=bool)
    for x, y in covers:
        leq[names.index(x), names.index(y)] = True
    return transitive_closure(leq)


def transitive_closure(leq):
    reach = leq.copy()
    for k in range(len(reach)):
        reach |= np.outer(reach[:, k], reach[k, :])
    return reach


class TestMeetsAndJoins:
    @pytest.mark.parametrize("kind,n", [(kind, n) for kind in ORDER_ORACLES for n in (1, 2, 3, 4)]
                             + [("subsets", 5), ("subsets", 6),
                                ("set_partitions", 5), ("set_partitions", 6)])
    def test_tables_match_the_pairwise_oracle(self, kind, n):
        lat, _ = make_lattice(kind, n)
        meet, join = reference_bounds(lat.elements, matrix(lat.leq))
        assert np.array_equal(lat.meet, meet)
        # the theorem: the meet of the upper bounds is the join
        assert np.array_equal(joins_from_meets(lat), join)
        assert lat.leq[lat.bottom] == (1 << len(lat)) - 1

    def test_two_minimal_upper_bounds_have_no_join(self):
        # 0 < a, b < c, d < 1: a and b have two minimal upper bounds, and
        # c and d two maximal lower bounds
        names = ("0", "a", "b", "c", "d", "1")
        leq = poset(names, [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                            ("b", "d"), ("c", "1"), ("d", "1")])
        with pytest.raises(LatticeError, match="no unique join for elements 'a' and 'b'"):
            reference_bounds(names, leq)
        message = "no unique meet for elements 'c' and 'd'"
        assert reference_refusal(names, leq) == message
        with pytest.raises(LatticeError, match=message):
            FiniteLattice(names, bitsets(leq))

    def test_meets_without_a_top_are_refused(self):
        # 0 < a, b: every pair has a meet, but a and b have no upper bound
        names = ("0", "a", "b")
        leq = poset(names, [("0", "a"), ("0", "b")])
        with pytest.raises(LatticeError, match="no unique join for elements 'a' and 'b'"):
            reference_bounds(names, leq)
        assert reference_refusal(names, leq) == "lattice must have a top"
        with pytest.raises(LatticeError, match="lattice must have a top"):
            FiniteLattice(names, bitsets(leq))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 9), data=st.data())
    def test_random_posets_agree_with_the_oracle(self, n, data):
        # a random order: the transitive closure of random pairs i < j
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        leq = np.eye(n, dtype=bool)
        for i, j in edges:
            leq[min(i, j), max(i, j)] = True
        if data.draw(st.booleans()):  # bounded: 0 is the bottom and n - 1 the top
            leq[0, :] = leq[:, n - 1] = True
        leq = transitive_closure(leq)
        # meets and a top are refused exactly where meets and joins are
        refusal = reference_refusal(tuple(range(n)), leq)
        try:
            meet, join = reference_bounds(tuple(range(n)), leq)
        except LatticeError:
            assert refusal is not None
            with pytest.raises(LatticeError) as got:
                FiniteLattice(range(n), bitsets(leq))
            assert str(got.value) == refusal
            return
        assert refusal is None
        lat = FiniteLattice(range(n), bitsets(leq))
        assert np.array_equal(lat.meet, meet) and np.array_equal(joins_from_meets(lat), join)


class TestStabilizers:
    def test_subsets3_two_set(self, subsets3):
        lat, action = subsets3
        st = stabilizers(action, lat.index((1, 2)))
        assert len(st.full) == 2
        assert len(st.pointwise) == 1
        assert len(action.group) // len(st.pointwise) == 6

    def test_zero_is_fixed_by_everything(self, ordperm3):
        lat, action = ordperm3
        st = stabilizers(action, lat.bottom)
        assert len(st.full) == len(st.pointwise) == 6

    def test_ordperm_pointwise_trivial_off_zero(self, ordperm3):
        lat, action = ordperm3
        for a in range(len(lat)):
            if a == lat.bottom:
                continue
            st = stabilizers(action, a)
            assert len(st.pointwise) == 1


class TestInverses:
    def test_symmetric_group(self):
        group = symmetric_group(4)
        inv = _inverses(group)
        assert [group.elements[h] for h in inv] == [g.inverse() for g in group.elements]

    def test_not_a_group(self):
        with pytest.raises(ValueError, match="not a group"):
            _inverses(symmetric_inverse_monoid(2))


class TestCanonicalForm:
    def test_collapse_at_small_subset(self, subsets3):
        lat, action = subsets3
        ctx = sgl_context(action)
        a = lat.index((3,))
        g = Permutation([1, 2, 3])
        h = Permutation([2, 1, 3])  # fixes {3} and the empty set
        assert canonical(ctx, g, a) == canonical(ctx, h, a)

    def test_distinct_at_top(self, subsets3):
        lat, action = subsets3
        ctx = sgl_context(action)
        tops = {canonical(ctx, g, lat.top) for g in action.group.elements}
        assert len(tops) == 6

    def test_all_collapse_at_ordperm_zero(self, ordperm3):
        lat, action = ordperm3
        ctx = sgl_context(action)
        zeros = {canonical(ctx, g, lat.bottom) for g in action.group.elements}
        assert len(zeros) == 1

    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    def test_equality_rule_exhaustive(self, kind):
        # canonical forms agree exactly when g^-1 h fixes everything below a
        lat, action = make_lattice(kind, 3)
        ctx = sgl_context(action)
        group = action.group
        for a in range(len(lat)):
            below = lat.down_set(a)
            for gi, g in enumerate(group.elements):
                for hi, h in enumerate(group.elements):
                    rule = all(
                        action.table[group.mul(ctx.ginv[gi], hi)][c] == c
                        for c in below
                    )
                    same = ctx.canonical(gi, a) == ctx.canonical(hi, a)
                    assert rule == same


class TestPairText:
    @pytest.mark.parametrize("kind,value,text", [
        ("subsets", (), "{}"),
        ("subsets", (1, 3), "{1,3}"),
        ("set_partitions", ((1,), (2, 3)), "{{1},{2,3}}"),
        ("ordered_partitions_zero", (), "0"),
        ("ordered_partitions_zero", ((2, 3), (1,)), "({2,3},{1})"),
    ])
    def test_lattice_text(self, kind, value, text):
        lat, action = make_lattice(kind, 3)
        assert lat.text(value) == text
        # a pair prints its group element in cycle-link form, then its lattice element
        ctx = sgl_context(action)
        pair = ctx.canonical(action.group.index(Permutation([2, 3, 1])), lat.index(value))
        assert str(pair) == f"{pair.group_element().to_partial_bijection()}@{text}"

    @pytest.mark.parametrize("kind,value,label", [
        ("subsets", (), "J0"),
        ("subsets", (1, 3), "J2"),
        ("set_partitions", ((1,), (2, 3)), "(2,1)"),
        ("set_partitions", ((1, 2, 3),), "(3)"),
        ("ordered_partitions_zero", (), "0"),
        ("ordered_partitions_zero", ((1,), (2, 3)), "(1,2)"),
    ])
    def test_apex_label(self, kind, value, label):
        lat, action = make_lattice(kind, 3)
        ctx = sgl_context(action)
        for g in range(len(action.group)):  # the label is read off a alone
            assert ctx.canonical(g, lat.index(value)).apex_label() == label

    @pytest.mark.parametrize("kind,value,blocks,per_block", [
        ("subsets", (), ((),), False),
        ("subsets", (1, 3), ((1, 3),), False),
        ("set_partitions", ((1,), (2, 3)), ((1,), (2, 3)), True),
        ("ordered_partitions_zero", (), (), True),
        ("ordered_partitions_zero", ((2, 3), (1,)), ((2, 3), (1,)), True),
    ])
    def test_young_answers_at_an_idempotent(self, kind, value, blocks, per_block):
        lat, action = make_lattice(kind, 3)
        ctx = sgl_context(action)
        e = ctx.idempotent(lat.index(value))
        assert e.young_blocks() == blocks
        assert e.labels_per_block() is per_block
        s = ctx.canonical(action.group.index(Permutation([2, 1, 3])), lat.index(value))
        move = e.young_move(s)
        assert all(move[p] == s.group_element().apply(p) for b in blocks for p in b)


class TestPairArithmetic:
    def test_units_multiply_as_group(self, subsets3):
        lat, action = subsets3
        ctx = sgl_context(action)
        g = Permutation([2, 3, 1])
        h = Permutation([2, 1, 3])
        x = canonical(ctx, g, lat.top) * canonical(ctx, h, lat.top)
        assert x == canonical(ctx, g * h, lat.top)

    def test_idempotents(self, subsets3):
        lat, action = subsets3
        ctx = sgl_context(action)
        for a in range(len(lat)):
            e = ctx.idempotent(a)
            assert e * e == e
            assert e.inverse() == e

    def test_restriction_is_isomorphism_onto_i3(self, subsets3):
        _, action = subsets3
        monoid, _ = sgl_monoid(action)
        i3 = symmetric_inverse_monoid(3)
        mapping = [i3.index(subsets_to_partial_bijection(e)) for e in monoid.elements]
        assert sorted(mapping) == list(range(34))
        for i in range(34):
            for j in range(34):
                assert mapping[monoid.mul(i, j)] == i3.table[mapping[i], mapping[j]]

    def test_inverse_laws_exhaustive(self, subsets3):
        _, action = subsets3
        monoid, _ = sgl_monoid(action)
        for x in monoid.elements:
            assert x * x.inverse() * x == x
            assert x.inverse() * x * x.inverse() == x.inverse()

    def test_unit_inverse(self, subsets3):
        lat, action = subsets3
        ctx = sgl_context(action)
        g = Permutation([2, 3, 1])
        assert canonical(ctx, g, lat.top).inverse() == canonical(ctx, g.inverse(), lat.top)

    def test_monoid_construction_deterministic(self, ordperm3):
        _, action = ordperm3
        m1, _ = sgl_monoid(action)
        m2, _ = sgl_monoid(action)
        assert [e.key() for e in m1.elements] == [e.key() for e in m2.elements]
        assert np.array_equal(m1.table, m2.table)

    def test_table_peak_is_the_table(self):
        _, action = make_lattice("ordered_partitions_zero", 4)
        tracemalloc.start()
        try:
            m, _ = sgl_monoid(action)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(m) == 1801
        assert peak < 2.5 * len(m) ** 2

    def test_certificate_budget(self, subsets3, monkeypatch):
        # |I_3| = 34 pairs with rows of 8 lattice points; a budget one byte
        # short of their certificate rows refuses them before any is built
        need = 34 * elements_module.row_bytes(8)
        monkeypatch.setattr(elements_module, "BUILD_BYTES_BUDGET", need - 1)
        monkeypatch.setattr(lattice_module, "FiniteMonoid", None)  # never reached
        with pytest.raises(ClosureCapError, match="certificate rows of 34 pairs"):
            sgl_monoid(subsets3[1])
        monkeypatch.undo()
        monkeypatch.setattr(elements_module, "BUILD_BYTES_BUDGET", need)
        assert len(sgl_monoid(subsets3[1])[0]) == 34


class TestOrder:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 7), (3, 34), (4, 209)])
    def test_subsets(self, n, expected):
        _, action = make_lattice("subsets", n)
        report = sgl_order(action)
        assert report.formula_total == report.enumerated_total == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_set_partitions_consistent(self, n):
        _, action = make_lattice("set_partitions", n)
        report = sgl_order(action)
        assert report.agree

    def test_set_partitions3_value_and_breakdown(self):
        _, action = make_lattice("set_partitions", 3)
        report = sgl_order(action)
        assert report.formula_total == 16
        assert sorted(c for _, c in report.breakdown) == [1, 3, 3, 3, 6]

    @pytest.mark.parametrize("n,expected", [(2, 7), (3, 79), (4, 1801)])
    def test_ordered_partitions(self, n, expected):
        _, action = make_lattice("ordered_partitions_zero", n)
        report = sgl_order(action)
        assert report.formula_total == report.enumerated_total == expected


    def test_formula_disagreement_needs_no_products(self, monkeypatch):
        # forged stabilizers make the formula count one coset per lattice
        # element (8 for subsets of [3], against 34 pairs); the enumeration
        # is the order of the pair monoid already built, so the disagreement
        # is reported without a single pair product
        _, action = make_lattice("subsets", 3)
        monoid, ctx = sgl_monoid(action)
        ctx.pointwise = [tuple(range(len(ctx.group)))] * len(ctx.lattice)
        products = []
        mul = SGLElement.__mul__
        monkeypatch.setattr(SGLElement, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        with pytest.raises(RuntimeError, match="formula 8 disagrees with enumeration 34"):
            sgl_order(action, monoid)
        assert products == []

    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_enumeration_is_the_closure_of_the_generators(self, kind, n):
        # the order sgl_order reads off the built monoid is the size of the
        # recorded generators' product closure, found here breadth-first
        _, action = make_lattice(kind, n)
        monoid, ctx = sgl_monoid(action)
        gens = _sgl_generators(ctx)
        seen = {ctx.idempotent(ctx.lattice.top)}
        frontier = list(seen)
        while frontier:
            frontier = [p for p in {x * g for x in frontier for g in gens} if p not in seen]
            seen.update(frontier)
        assert seen == set(monoid.elements)
        assert sgl_order(action, monoid).enumerated_total == len(seen)

    def test_monoid_of_another_action_is_refused(self):
        _, first = make_lattice("subsets", 2)
        _, second = make_lattice("subsets", 2)
        with pytest.raises(ValueError, match="not the pair monoid"):
            sgl_order(first, sgl_monoid(second)[0])


class TestSGLContext:
    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tables_match_elementwise_reference(self, kind, n):
        # the pointwise stabilizer of each down-set, and the least member of
        # every coset g * pointwise(a), one group product at a time
        _, action = make_lattice(kind, n)
        ctx = SGLContext(action)
        group, lat = action.group, action.lattice
        for a in range(len(lat)):
            below = lat.down_set(a)
            ks = tuple(g for g in range(len(group))
                       if all(action.table[g][c] == c for c in below))
            assert ctx.pointwise[a] == ks
            assert ctx.rep_table[a] == [
                min(group.mul(g, k) for k in ks) for g in range(len(group))]


class TestGenerators:
    @pytest.mark.parametrize("kind,count", [
        ("ordered_partitions_zero", 10),
        ("set_partitions", 6),
        ("subsets", 6),
    ])
    def test_one_idempotent_per_orbit(self, kind, count):
        # S_4's two generators, plus one idempotent per orbit of the action
        # other than the top's {top}, whose idempotent is the identity
        _, action = make_lattice(kind, 4)
        monoid, _ = sgl_monoid(action)
        assert len(monoid.generator_indices) == count == 1 + len(action.orbits())
        columns = monoid.columns(monoid.generator_indices)
        assert len(elements_module._reach(columns, monoid.identity_index)[0]) == len(monoid)

    def test_a_missing_orbit_idempotent_fails_the_count(self, monkeypatch):
        # no product of the other generators reaches the idempotent at the
        # coatom {1,2,3}, so the closure misses the J-class of 3-sets
        _, action = make_lattice("subsets", 4)
        ctx = sgl_context(action)
        coatom = ctx.idempotent(ctx.lattice.index((1, 2, 3)))
        gens = _sgl_generators(ctx)
        assert coatom in gens
        monkeypatch.setattr(lattice_module, "_sgl_generators",
                            lambda ctx: [x for x in gens if x != coatom])
        with pytest.raises(RuntimeError, match="not 209"):
            sgl_monoid(action)

    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_is_not_a_generator(self, kind, n):
        # at n = 2, S_2 fixes every set partition, so its swap at the top is
        # the identity too
        _, action = make_lattice(kind, n)
        monoid, _ = sgl_monoid(action)
        assert monoid.identity_index not in monoid.generator_indices


class TestGroupAction:
    def test_rejects_corruption_at_a_non_generator(self):
        lat, action = make_lattice("subsets", 3)
        group = action.group
        g = next(
            k for k in range(len(group))
            if k != group.identity_index and k not in group.generating_set()
        )
        table = [list(row) for row in action.table]
        table[g][1], table[g][2] = table[g][2], table[g][1]
        with pytest.raises(LatticeError, match="not a homomorphism"):
            GroupAction(group, lat, table)


def elementwise_image(kind, g, a):
    """g . a for one permutation and one lattice element, from the kind's
    description: subsets map pointwise, set partitions blockwise, and ordered
    partitions blockwise in their block order (() stays ())."""
    if kind == "subsets":
        return tuple(sorted(g.apply(x) for x in a))
    blocks = [tuple(sorted(g.apply(x) for x in block)) for block in a]
    if kind == "set_partitions":
        return tuple(sorted(blocks))
    return tuple(blocks)


class TestActionTable:
    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_elementwise_images(self, kind, n):
        lat, action = make_lattice(kind, n)
        expected = [
            [lat.index(elementwise_image(kind, g, a)) for a in lat.elements]
            for g in action.group.elements
        ]
        assert len(action.table) == math.factorial(n)
        assert action.table == expected


def reference_pairs(action):
    """The canonical pairs g_a, enumerated: for each lattice element a, the
    least group element of each class of those that act alike on the
    down-set of a (one coset of its pointwise stabilizer)."""
    ctx = sgl_context(action)
    pairs = []
    for a in range(len(ctx.lattice)):
        below = ctx.lattice.down_set(a)
        least = {}
        for g, row in enumerate(action.table):
            least.setdefault(tuple(row[d] for d in below), g)
        pairs.extend(SGLElement(ctx, g, a) for g in least.values())
    return sorted(pairs, key=lambda e: e.key())


def reference_pair_monoid(action):
    """The pair monoid's table by the vectorized pair formula, one row at a
    time: (g_a)(h_b) = (gh) at (h^-1 . a) meet b, reduced to its coset's
    least representative, and looked up in an (a, g) -> index array."""
    ctx = sgl_context(action)
    elements = reference_pairs(action)
    eidx = np.full((len(ctx.lattice), len(ctx.group)), -1, dtype=np.int32)
    for k, e in enumerate(elements):
        eidx[e.a, e.g] = k
    garr = np.array([e.g for e in elements], dtype=np.int32)
    aarr = np.array([e.a for e in elements], dtype=np.int32)
    hinv = np.asarray(ctx.ginv)[garr]
    meet, act = np.asarray(ctx.lattice.meet), np.asarray(action.table)
    rep_table = np.asarray(ctx.rep_table)
    table = np.empty((len(elements), len(elements)), dtype=np.int32)
    for i in range(len(elements)):
        c = meet[act[hinv, aarr[i]], aarr]
        r = rep_table[c, ctx.group.table[garr[i], garr]]
        table[i] = eidx[c, r]
    identity = int(eidx[ctx.lattice.top, ctx.group.identity_index])
    gens = tuple(sorted(int(eidx[g.a, g.g]) for g in _sgl_generators(ctx)))
    return tuple(elements), table, identity, gens


class TestPairMonoidTable:
    @pytest.mark.parametrize("kind,n", [
        *[(kind, n) for kind in ("subsets", "set_partitions", "ordered_partitions_zero")
          for n in range(1, 5)],
        ("subsets", 5),
        ("set_partitions", 5),
    ])
    def test_matches_the_pair_formula(self, kind, n):
        _, action = make_lattice(kind, n)
        monoid, _ = sgl_monoid(action)
        elements, table, identity, gens = reference_pair_monoid(action)
        assert table.min() >= 0  # the formula stays inside the pair set
        assert monoid.elements == elements
        assert np.array_equal(monoid.table, table)
        assert monoid.identity_index == identity
        assert monoid.generator_indices == gens
        # the left rows the closure found are the generators' rows of the table
        assert monoid._left == table[list(gens)].tolist()


class TestGreenCompatibility:
    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    def test_lr_classes_match_pair_structure(self, kind):
        lat, action = make_lattice(kind, 3)
        monoid, ctx = sgl_monoid(action)
        classes, _ = green_structure(monoid)
        els = monoid.elements
        for i, x in enumerate(els):
            for j, y in enumerate(els):
                assert (classes.lclass_of[i] == classes.lclass_of[j]) == (x.a == y.a)
                assert (classes.rclass_of[i] == classes.rclass_of[j]) == (
                    x.act_on_a() == y.act_on_a()
                )

    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    def test_jclasses_are_orbits(self, kind):
        lat, action = make_lattice(kind, 3)
        monoid, ctx = sgl_monoid(action)
        classes, _ = green_structure(monoid)
        orbit_of = {}
        for k, orbit in enumerate(action.orbits()):
            for a in orbit:
                orbit_of[a] = k
        for i, x in enumerate(monoid.elements):
            for j, y in enumerate(monoid.elements):
                assert (classes.jclass_of[i] == classes.jclass_of[j]) == (
                    orbit_of[x.a] == orbit_of[y.a]
                )


class TestMaximalSubgroups:
    def test_subsets_two_set(self, subsets3):
        lat, action = subsets3
        g = maximal_subgroup_at(action, lat.index((1, 2)))
        assert len(g) == 2

    def test_ordperm_young(self, ordperm3):
        lat, action = ordperm3
        g = maximal_subgroup_at(action, lat.index(((1, 2), (3,))))
        assert len(g) == 2

    def test_zero_trivial(self, ordperm3):
        lat, action = ordperm3
        assert len(maximal_subgroup_at(action, lat.bottom)) == 1

    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    def test_matches_hclass_of_idempotent(self, kind):
        # quotient description agrees with the H-class computed independently
        lat, action = make_lattice(kind, 3)
        monoid, ctx = sgl_monoid(action)
        classes, _ = green_structure(monoid)
        for a in range(len(lat)):
            by_quotient = maximal_subgroup_at(action, a)
            e = monoid.index(ctx.idempotent(a))
            by_green = maximal_subgroup(monoid, classes, e)
            assert set(by_quotient.elements) == set(by_green.elements)
            assert np.array_equal(by_quotient.table, by_green.table)


def partition_report(n):
    _, action = make_lattice("set_partitions", n)
    return partition_lattice_report(action, sgl_order(action))


class TestPartitionLatticeReport:
    def test_n3_no_conflict(self):
        r = partition_report(3)
        assert r.definitional_order == 16
        assert r.young_formula_value == 16
        assert r.matches_young_formula
        assert not any("FLAG" in ln for ln in r.flag_lines())

    def test_n4_flagged(self):
        r = partition_report(4)
        assert r.definitional_order == 175
        assert r.young_formula_value == 131
        assert not r.matches_young_formula
        assert any("FLAG" in ln for ln in r.flag_lines())


class TestPairOrderBound:
    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sum_of_squared_orbits_bounds_the_order(self, kind, n, monkeypatch):
        bounds = []
        compute = lattice_module._pair_order_bound
        monkeypatch.setattr(lattice_module, "_pair_order_bound",
                            lambda *args: bounds.append(compute(*args)) or bounds[-1])
        _, action = make_lattice(kind, n)
        assert bounds == [sum(len(orbit) ** 2 for orbit in action.orbits())]
        assert bounds[0] <= sgl_order(action).formula_total == len(sgl_monoid(action)[0])

    def test_refused_before_the_order_relation(self, monkeypatch):
        monkeypatch.setattr(lattice_module, "_order_relation", None)  # never reached
        with pytest.raises(ClosureCapError, match="at least 32952 elements"):
            make_lattice("ordered_partitions_zero", 5)
