import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoidrep.cliffmunn import semisimple_predicate, SemisimpleReport
from monoidrep.elements import (
    PartialBijection,
    Transformation,
    closure,
    full_transformation_monoid,
    symmetric_group,
    symmetric_inverse_monoid,
)
from monoidrep.green import (
    GreenClasses,
    JPoset,
    Transversal,
    eggbox,
    green_structure,
    hclass_decompose,
    lclass_coordinates,
    maximal_subgroup,
    monoid_green,
    transversal,
)
from monoidrep.lattice import make_lattice, sgl_monoid
from oracles import greedy_from_elements, jclass_subgroup_iso


@pytest.fixture(scope="module")
def i3():
    m = symmetric_inverse_monoid(3)
    classes, poset = green_structure(m)
    return m, classes, poset


@pytest.fixture(scope="module")
def t3():
    m = full_transformation_monoid(3)
    classes, poset = green_structure(m)
    return m, classes, poset


def jclass_by_rank(m, classes, rank):
    for j, members in enumerate(classes.jclasses):
        if m.elements[members[0]].rank == rank:
            return j
    raise AssertionError(f"no J-class of rank {rank}")


class TestClasses:
    def test_group_has_single_classes(self):
        m = symmetric_group(3)
        classes, poset = green_structure(m)
        assert len(classes.lclasses) == 1
        assert len(classes.rclasses) == 1
        assert len(classes.hclasses) == 1
        assert len(classes.jclasses) == 1
        assert poset.count == 1

    def test_i3_jclass_sizes(self, i3):
        m, classes, poset = i3
        sizes = sorted(len(c) for c in classes.jclasses)
        assert sizes == [1, 6, 9, 18]
        # totally ordered chain
        for a in range(poset.count):
            for b in range(poset.count):
                assert poset.leq[a] >> b & 1 or poset.leq[b] >> a & 1

    def test_t3_jclass_sizes(self, t3):
        _, classes, _ = t3
        assert sorted(len(c) for c in classes.jclasses) == [3, 6, 18]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_in_green_profile(self, n):
        # L is same-domain, R is same-image-set, J is same-rank
        m = symmetric_inverse_monoid(n)
        classes, _ = green_structure(m)
        els = m.elements
        for a in range(len(els)):
            for b in range(len(els)):
                assert (classes.lclass_of[a] == classes.lclass_of[b]) == (
                    els[a].domain == els[b].domain
                )
                assert (classes.rclass_of[a] == classes.rclass_of[b]) == (
                    set(els[a].image) == set(els[b].image)
                )
                assert (classes.jclass_of[a] == classes.jclass_of[b]) == (
                    els[a].rank == els[b].rank
                )

    @pytest.mark.parametrize("n", [2, 3])
    def test_tn_green_profile(self, n):
        # L is same-kernel, R is same-image-set
        m = full_transformation_monoid(n)
        classes, _ = green_structure(m)
        els = m.elements
        for a in range(len(els)):
            for b in range(len(els)):
                assert (classes.lclass_of[a] == classes.lclass_of[b]) == (
                    els[a].kernel() == els[b].kernel()
                )
                assert (classes.rclass_of[a] == classes.rclass_of[b]) == (
                    set(els[a].images) == set(els[b].images)
                )

    def test_in_jposet_is_the_rank_chain(self):
        for n in (2, 3, 4):
            m = symmetric_inverse_monoid(n)
            classes, poset = green_structure(m)
            rank_of = [m.elements[c[0]].rank for c in classes.jclasses]
            for a in range(poset.count):
                for b in range(poset.count):
                    assert bool(poset.leq[a] >> b & 1) == (rank_of[a] <= rank_of[b])


class TestEggbox:
    def test_i3_rank1_grid(self, i3):
        m, classes, _ = i3
        box = eggbox(m, classes, jclass_by_rank(m, classes, 1))
        assert len(box.row_rclasses) == 3 and len(box.col_lclasses) == 3
        assert all(len(cell) == 1 for row in box.grid for cell in row)
        for r in range(3):
            for c in range(3):
                kind = box.idempotent_cells[r][c]
                members = box.grid[r][c]
                el = m.elements[members[0]]
                assert kind == el.is_idempotent()
        # idempotents exactly on a transversal: one per row and column
        assert all(sum(row) == 1 for row in box.idempotent_cells)
        assert all(sum(col) == 1 for col in zip(*box.idempotent_cells))

    def test_i3_rank2_diagonal_subgroups(self, i3):
        m, classes, _ = i3
        box = eggbox(m, classes, jclass_by_rank(m, classes, 2))
        assert len(box.row_rclasses) == 3 and len(box.col_lclasses) == 3
        assert all(len(cell) == 2 for row in box.grid for cell in row)

    def test_t3_constants(self, t3):
        m, classes, _ = t3
        box = eggbox(m, classes, jclass_by_rank(m, classes, 1))
        assert len(box.row_rclasses) == 3 and len(box.col_lclasses) == 1
        assert all(all(row) for row in box.idempotent_cells)

    def test_i3_units(self, i3):
        m, classes, _ = i3
        box = eggbox(m, classes, jclass_by_rank(m, classes, 3))
        assert len(box.row_rclasses) == 1 and len(box.col_lclasses) == 1
        assert len(box.grid[0][0]) == 6

    def test_every_cell_nonempty(self, t3):
        # J = <L,R>: every L-class in a J-class meets every R-class in it
        m, classes, _ = t3
        for j in range(len(classes.jclasses)):
            box = eggbox(m, classes, j)  # raises on an empty cell
            assert all(len(cell) >= 1 for row in box.grid for cell in row)

    def test_at_most_one_idempotent_per_hclass(self, t3):
        m, classes, _ = t3
        for h in classes.hclasses:
            assert sum(1 for x in h if m.table[x, x] == x) <= 1

    def test_in_unique_idempotent_per_row_and_column(self, i3):
        m, classes, _ = i3
        for members in classes.lclasses:
            assert sum(1 for x in members if m.table[x, x] == x) == 1
        for members in classes.rclasses:
            assert sum(1 for x in members if m.table[x, x] == x) == 1


class TestSubgroups:
    def test_i3_rank2_subgroup(self, i3):
        m, classes, _ = i3
        e = m.index(PartialBijection.partial_identity(3, [1, 2]))
        g = maximal_subgroup(m, classes, e)
        assert len(g) == 2
        assert g.is_group()

    def test_t3_subgroup_at_113(self, t3):
        m, classes, _ = t3
        e = m.index(Transformation([1, 1, 3]))
        g = maximal_subgroup(m, classes, e)
        assert len(g) == 2
        other = next(el for el in g.elements if el != Transformation([1, 1, 3]))
        assert other == Transformation([3, 3, 1])

    def test_units_subgroup(self, i3):
        m, classes, _ = i3
        g = maximal_subgroup(m, classes, m.identity_index)
        assert len(g) == 6

    def test_requires_idempotent(self, i3):
        m, classes, _ = i3
        s = m.index(PartialBijection(3, [(1, 2)]))
        with pytest.raises(ValueError):
            maximal_subgroup(m, classes, s)

    @pytest.mark.parametrize("build", [
        lambda: symmetric_group(4),
        lambda: symmetric_inverse_monoid(4),
        lambda: full_transformation_monoid(4),
        lambda: symmetric_inverse_monoid(5),
        lambda: sgl_monoid(make_lattice("subsets", 3)[1])[0],
        lambda: sgl_monoid(make_lattice("ordered_partitions_zero", 3)[1])[0],
        lambda: sgl_monoid(make_lattice("ordered_partitions_zero", 4)[1])[0],
        lambda: sgl_monoid(make_lattice("set_partitions", 4)[1])[0],
    ], ids=["S4", "I4", "T4", "I5", "subsets3", "ordperm3", "ordperm4", "partitions4"])
    def test_elements_are_the_hclass_in_ambient_order(self, build):
        # G_e's element k is the k-th member of H_e, ascending: the index
        # lclass_coordinates, cliffmunn._block_map and reduce_rep read G_e by
        m = build()
        classes, _ = monoid_green(m)
        for e in m.idempotent_indices():
            members = classes.hclasses[classes.hclass_of[e]]
            assert maximal_subgroup(m, classes, e).elements == tuple(m.elements[x] for x in members)


class TestTransversal:
    def test_e_represents_itself(self, i3):
        m, classes, _ = i3
        e = m.index(PartialBijection.partial_identity(3, [1, 2]))
        tr = transversal(m, classes, e)
        assert e in tr.reps
        i, g = hclass_decompose(m, classes, tr, e)
        assert tr.reps[i] == e and g == e

    def test_representative_decomposes_trivially(self, i3):
        m, classes, _ = i3
        e = m.index(PartialBijection.partial_identity(3, [1, 2]))
        tr = transversal(m, classes, e)
        for i, s in enumerate(tr.reps):
            j, g = hclass_decompose(m, classes, tr, s)
            assert j == i and g == e

    def test_unique_decomposition_over_le(self):
        # t = s_i g exists and is unique for every t in L_e, every idempotent e
        for n in (2, 3):
            m = symmetric_inverse_monoid(n)
            classes, _ = green_structure(m)
            for e in m.idempotent_indices():
                tr = transversal(m, classes, e)
                ge = classes.hclasses[classes.hclass_of[e]]
                for t in classes.lclasses[classes.lclass_of[e]]:
                    i, g = hclass_decompose(m, classes, tr, t)
                    assert m.table[tr.reps[i], g] == t
                    hits = [
                        (s, h)
                        for s in tr.reps
                        for h in ge
                        if m.table[s, h] == t
                    ]
                    assert hits == [(tr.reps[i], g)]

    def test_t3_decomposition_unique(self, t3):
        m, classes, _ = t3
        for e in m.idempotent_indices():
            tr = transversal(m, classes, e)
            for t in classes.lclasses[classes.lclass_of[e]]:
                i, g = hclass_decompose(m, classes, tr, t)
                assert m.table[tr.reps[i], g] == t

    def test_rejects_outside_le(self, i3):
        m, classes, _ = i3
        e = m.index(PartialBijection.partial_identity(3, [1, 2]))
        tr = transversal(m, classes, e)
        with pytest.raises(ValueError):
            hclass_decompose(m, classes, tr, m.index(PartialBijection.zero(3)))


class TestSubgroupIso:
    def test_identity_case(self, i3):
        m, classes, _ = i3
        e = m.index(PartialBijection.partial_identity(3, [1, 2]))
        mapping, s_star = jclass_subgroup_iso(m, classes, e, e, e)
        assert mapping == {g: g for g in mapping}

    def test_i3_between_rank2_idempotents(self, i3):
        m, classes, _ = i3
        e = m.index(PartialBijection.partial_identity(3, [1, 2]))
        f = m.index(PartialBijection.partial_identity(3, [1, 3]))
        s = m.index(PartialBijection(3, [(1, 1), (2, 3)]))
        mapping, s_star = jclass_subgroup_iso(m, classes, e, f, s)
        assert len(mapping) == 2
        assert m.elements[s_star] == PartialBijection(3, [(1, 1), (3, 2)])

    def test_t3_rank2_idempotents(self, t3):
        m, classes, _ = t3
        e = m.index(Transformation([1, 1, 3]))
        f = m.index(Transformation([1, 2, 2]))
        # s must sit in L_e (kernel of e) and R_f (image of f)
        cands = [
            s for s in range(len(m))
            if classes.lclass_of[s] == classes.lclass_of[e]
            and classes.rclass_of[s] == classes.rclass_of[f]
        ]
        mapping, _ = jclass_subgroup_iso(m, classes, e, f, cands[0])
        assert len(mapping) == 2

    def test_rejects_non_j_related(self, i3):
        m, classes, _ = i3
        e = m.index(PartialBijection.partial_identity(3, [1, 2]))
        z = m.index(PartialBijection.zero(3))
        with pytest.raises(ValueError):
            jclass_subgroup_iso(m, classes, e, z, e)


# -- the Green layer against brute force, on random small monoids -------------

def _element(kind, n):
    if kind == "T":
        return st.lists(st.integers(1, n), min_size=n, max_size=n).map(Transformation)
    return st.tuples(
        st.permutations(range(1, n + 1)), st.lists(st.booleans(), min_size=n, max_size=n)
    ).map(lambda pk: PartialBijection(n, [(x, y) for x, y, k in zip(range(1, n + 1), *pk) if k]))


@lru_cache(maxsize=None)
def pair_monoid(kind):
    return sgl_monoid(make_lattice(kind, 3)[1])[0]


@st.composite
def small_monoids(draw):
    """Closures of 1-3 random I or T generators of degree <= 4, or one of the
    three pair monoids at degree 3."""
    if draw(st.integers(0, 4)) == 0:
        return pair_monoid(
            draw(st.sampled_from(["subsets", "set_partitions", "ordered_partitions_zero"]))
        )
    kind, n = draw(st.sampled_from("IT")), draw(st.integers(1, 4))
    return closure(draw(st.lists(_element(kind, n), min_size=1, max_size=3)))


def reference_covers(poset):
    """The Hasse edges by the triple loop over all middle classes."""
    return tuple(
        (i, j)
        for i in range(poset.count) for j in range(poset.count)
        if i != j and poset.leq[i] >> j & 1 and not any(
            poset.leq[i] >> k & 1 and poset.leq[k] >> j & 1 and k not in (i, j)
            for k in range(poset.count)
        )
    )


def reference_semisimple_predicate(monoid, characteristic):
    """The status from each element's number of inverses, counted over all
    pairs: none for some element means not regular, exactly one for every
    element means inverse."""
    t = np.asarray(monoid.table)
    n = len(monoid)
    idx = np.arange(n)
    counts = np.array([
        np.sum((t[t[s, :], s] == s) & (t[t[:, s], idx] == idx)) for s in range(n)
    ])
    if (counts == 0).any():
        return SemisimpleReport("unknown", "monoid is not regular")
    if not (counts == 1).all():
        return SemisimpleReport(
            "unknown", "regular but not inverse: no general semisimplicity criterion applies"
        )
    idems = monoid.idempotent_indices()
    if len(idems) == 1:
        if characteristic == 0 or n % characteristic:
            return SemisimpleReport(
                "semisimple", f"group of order {n}, characteristic does not divide it"
            )
        return SemisimpleReport(
            "not_semisimple", f"characteristic {characteristic} divides the group order {n}"
        )
    classes, _ = monoid_green(monoid)
    orders = sorted({len(classes.hclasses[classes.hclass_of[e]]) for e in idems})
    if characteristic == 0:
        return SemisimpleReport(
            "semisimple", f"inverse monoid, subgroup orders {orders}, characteristic 0"
        )
    bad = [o for o in orders if o % characteristic == 0]
    if bad:
        return SemisimpleReport(
            "not_semisimple", f"characteristic {characteristic} divides subgroup order {bad[0]}"
        )
    return SemisimpleReport("semisimple", "inverse monoid, characteristic divides no subgroup order")


class TestGreenLayer:
    @settings(max_examples=60, deadline=None)
    @given(m=small_monoids())
    def test_jclass_idempotents_match_brute_force(self, m):
        classes, _ = monoid_green(m)
        expected = tuple(
            tuple(i for i in members if m.table[i, i] == i) for members in classes.jclasses
        )
        assert classes.jclass_idempotents == expected
        assert m.idempotent_indices() == tuple(i for i in range(len(m)) if m.table[i, i] == i)

    @settings(max_examples=60, deadline=None)
    @given(m=small_monoids())
    def test_jclasses_are_the_equal_two_sided_ideals(self, m):
        classes, _ = monoid_green(m)
        t = np.asarray(m.table)
        ideals = np.zeros((len(m), len(m)), dtype=bool)
        for x in range(len(m)):
            ideals[x, t[t[:, x], :]] = True  # S x S
        for x in range(len(m)):
            same = np.flatnonzero((ideals == ideals[x]).all(axis=1))
            assert tuple(same) == classes.jclasses[classes.jclass_of[x]]

    @settings(max_examples=60, deadline=None)
    @given(m=small_monoids())
    def test_lclass_coordinates_match_brute_force(self, m):
        classes, _ = monoid_green(m)
        for e in m.idempotent_indices():
            tr = transversal(m, classes, e)
            block, local = lclass_coordinates(m, classes, tr)
            ge = classes.hclasses[classes.hclass_of[e]]
            le = classes.lclasses[classes.lclass_of[e]]
            for t in le:
                hits = [
                    (i, k) for i, s in enumerate(tr.reps) for k, g in enumerate(ge)
                    if m.table[s, g] == t
                ]
                assert hits == [(block[t], local[t])]
                assert hclass_decompose(m, classes, tr, t) == (block[t], ge[local[t]])
            outside = set(range(len(m))) - set(le)
            assert all(block[x] == -1 and local[x] == -1 for x in outside)

    @settings(max_examples=60, deadline=None)
    @given(m=small_monoids(), data=st.data())
    def test_bad_transversals_raise(self, m, data):
        classes, _ = monoid_green(m)
        e = data.draw(st.sampled_from(m.idempotent_indices()))
        tr = transversal(m, classes, e)
        le = set(classes.lclasses[classes.lclass_of[e]])
        i = data.draw(st.integers(0, len(tr.reps) - 1))
        outside = [x for x in range(len(m)) if x not in le]
        if outside:
            reps = list(tr.reps)
            reps[i] = data.draw(st.sampled_from(outside))
            with pytest.raises(ValueError, match="outside the L-class"):
                lclass_coordinates(m, classes, Transversal(e, tuple(reps), tr.hclass_ids))
        if len(tr.reps) > 1:
            # a member of another representative's H-class in place of s_i
            j = data.draw(st.sampled_from([j for j in range(len(tr.reps)) if j != i]))
            reps = list(tr.reps)
            reps[i] = data.draw(st.sampled_from(classes.hclasses[classes.hclass_of[tr.reps[j]]]))
            with pytest.raises(ValueError, match="once each"):
                lclass_coordinates(m, classes, Transversal(e, tuple(reps), tr.hclass_ids))

    @settings(max_examples=60, deadline=None)
    @given(m=small_monoids())
    def test_covers_match_the_triple_loop(self, m):
        _, poset = monoid_green(m)
        assert poset.covers() == reference_covers(poset)

    @settings(max_examples=60, deadline=None)
    @given(m=small_monoids(), characteristic=st.sampled_from([0, 2, 3, 5]))
    def test_semisimple_predicate_matches_inverse_counts(self, m, characteristic):
        assert semisimple_predicate(m, characteristic) == reference_semisimple_predicate(
            m, characteristic
        )

    @pytest.mark.parametrize("gens", [
        [Transformation([1, 2, 1]), Transformation([1, 2, 2])],  # one R-class, two L-classes
        [Transformation([1, 1, 1]), Transformation([2, 2, 2])],  # one L-class, two R-classes
    ], ids=["r_class_of_two_idempotents", "l_class_of_two_idempotents"])
    def test_one_idempotent_per_class_on_one_side_is_not_inverse(self, gens):
        m = closure(gens)
        report = semisimple_predicate(m, 0)
        assert report.reason.startswith("regular but not inverse")
        assert report == reference_semisimple_predicate(m, 0)

    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    def test_pair_monoid_covers(self, kind):
        _, poset = monoid_green(pair_monoid(kind))
        assert poset.covers() == reference_covers(poset)


# -- the Cayley-graph classes against principal-ideal bitsets ------------------

def _classify_oracle(keys):
    ids, of = {}, []
    for key in keys:
        of.append(ids.setdefault(key, len(ids)))
    members = [[] for _ in ids]
    for i, c in enumerate(of):
        members[c].append(i)
    return tuple(of), tuple(map(tuple, members))


def reference_green_structure(m):
    """Green classes and J-order from principal-ideal membership bitsets:
    x L y iff Sx = Sy, x R y iff xS = yS, and J_i <= J_j iff the
    representative of J_i lies in S r_j S, all read off the whole table."""
    n, t = len(m), np.asarray(m.table)
    lmem = np.zeros((n, n), dtype=bool)  # lmem[s, x]: x in Ss
    lmem[np.arange(n)[None, :], t] = True
    rmem = np.zeros((n, n), dtype=bool)  # rmem[s, x]: x in sS
    rmem[np.arange(n)[:, None], t] = True
    lclass_of, lclasses = _classify_oracle(row.tobytes() for row in np.packbits(lmem, axis=1))
    rclass_of, rclasses = _classify_oracle(row.tobytes() for row in np.packbits(rmem, axis=1))
    hclass_of, hclasses = _classify_oracle(zip(lclass_of, rclass_of))
    ideal = np.zeros((n, n), dtype=bool)  # ideal[s, x]: x in SsS
    for s in range(n):
        ideal[s, t[np.unique(t[:, s]), :].ravel()] = True
    jclass_of, jclasses = _classify_oracle(row.tobytes() for row in np.packbits(ideal, axis=1))
    idempotents_of = tuple(
        tuple(x for x in members if t[x, x] == x) for members in jclasses
    )
    reps = [members[0] for members in jclasses]
    leq = ideal[np.ix_(reps, reps)].T  # rep i in S rep_j S
    classes = GreenClasses(lclass_of, rclass_of, hclass_of, jclass_of, lclasses, rclasses,
                           hclasses, jclasses, idempotents_of)
    return classes, JPoset(len(reps), leq, jclass_of[m.identity_index])


@st.composite
def monoids_with_or_without_generators(draw):
    """A small monoid, half the time rebuilt without its recorded generators,
    so that green_structure walks the greedy generating set."""
    m = draw(small_monoids())
    if draw(st.booleans()):
        m = greedy_from_elements(m.elements, m.elements[m.identity_index])
    return m


def assert_matches_oracle(m):
    classes, poset = green_structure(m)
    ref_classes, ref_poset = reference_green_structure(m)
    assert classes == ref_classes
    assert poset.count == ref_poset.count and poset.maximum == ref_poset.maximum
    assert np.array_equal([[up >> j & 1 for j in range(poset.count)] for up in poset.leq],
                          ref_poset.leq)


class TestCayleyGraphClasses:
    @settings(max_examples=80, deadline=None)
    @given(m=monoids_with_or_without_generators())
    def test_classes_and_order_match_the_bitset_oracle(self, m):
        assert_matches_oracle(m)

    @pytest.mark.parametrize("kind", ["subsets", "set_partitions", "ordered_partitions_zero"])
    def test_pair_monoids_match_the_bitset_oracle(self, kind):
        assert_matches_oracle(pair_monoid(kind))

    def test_monoid_without_recorded_generators(self):
        t3 = full_transformation_monoid(3)
        m = greedy_from_elements(t3.elements, t3.elements[t3.identity_index])
        gens = m.generator_indices
        assert gens is not None  # the greedy set, recorded at construction
        assert_matches_oracle(m)
        assert m.generator_indices == gens

    def test_non_regular_jclasses_and_order(self):
        # T_4 closure of [2,3,4,4] and [1,1,3,4]: 7 J-classes, 3 without an idempotent
        m = closure([Transformation([2, 3, 4, 4]), Transformation([1, 1, 3, 4])])
        classes, _ = green_structure(m)
        assert len(classes.jclasses) == 7
        assert sum(1 for idems in classes.jclass_idempotents if not idems) == 3
        assert_matches_oracle(m)

    def test_no_square_arrays_beside_the_table(self):
        m = sgl_monoid(make_lattice("ordered_partitions_zero", 4)[1])[0]
        assert len(m) == 1801
        tracemalloc.start()
        try:
            green_structure(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.table.nbytes / 4
