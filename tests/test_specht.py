import itertools
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from monoidrep import specht
from monoidrep.elements import ClosureCapError, Permutation, closure, symmetric_group
from monoidrep.linrep import (
    Representation,
    Subspace,
    char_equal,
    commutant_dim,
    exterior_power,
    mapping_rep,
)
from monoidrep.specht import (
    column_group,
    compositions,
    partitions,
    polytabloid,
    specht_rep,
    standard_tableaux,
    standard_tableaux_count,
    tabloid_module,
    tabloid_of,
    tabloids,
)

F = Fraction


class TestPartitions:
    def test_zero(self):
        assert partitions(0) == ((),)

    def test_three(self):
        assert partitions(3) == ((3,), (2, 1), (1, 1, 1))

    @pytest.mark.parametrize("n,count", [(4, 5), (5, 7), (6, 11)])
    def test_counts(self, n, count):
        assert len(partitions(n)) == count

    def test_compositions(self):
        assert set(compositions(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}
        assert len(compositions(4)) == 8

    def test_standard_counts_n4(self):
        got = {lam: standard_tableaux_count(lam) for lam in partitions(4)}
        assert got == {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1}


class TestTabloids:
    def test_single_row_module_is_trivial(self):
        rep = tabloid_module((3,), (1, 2, 3))
        assert rep.dim == 1
        assert all(c == 1 for c in rep.character())

    def test_hook_module_is_permuting_coordinates(self):
        rep = tabloid_module((2, 1), (1, 2, 3))
        assert rep.dim == 3
        sn = mapping_rep(symmetric_group(3))
        assert char_equal(rep.character(), sn.character())

    def test_two_two_module_dimension(self):
        # oracle: direct tabloid enumeration
        basis = tabloids((2, 2), (1, 2, 3, 4))
        assert len(basis) == 6
        assert tabloid_module((2, 2), (1, 2, 3, 4)).dim == 6

    def test_tabloid_order_is_lexicographic(self):
        basis = tabloids((2, 1), (1, 2, 3))
        assert list(basis) == sorted(basis)

    def test_arbitrary_labels(self):
        basis = tabloids((1, 1), (4, 7))
        assert basis == (((4,), (7,)), ((7,), (4,)))


class TestColumnGroupsAndPolytabloids:
    def test_single_row_trivial_column_group(self):
        t = ((1, 2, 3),)
        assert len(column_group(t)) == 1
        basis = tabloids((3,), (1, 2, 3))
        index = {b: k for k, b in enumerate(basis)}
        assert polytabloid(t, index) == (F(1),)

    def test_hook_polytabloid_is_difference(self):
        # column {i, j} gives v_T = v_i - v_j in tabloid coordinates
        basis = tabloids((2, 1), (1, 2, 3))
        index = {b: k for k, b in enumerate(basis)}
        t = ((1, 3), (2,))  # column is (1, 2)
        vec = polytabloid(t, index)
        v1 = index[tabloid_of(((1, 3), (2,)))]
        v2 = index[tabloid_of(((2, 3), (1,)))]
        expected = [F(0)] * len(basis)
        expected[v1] = F(1)
        expected[v2] = F(-1)
        assert vec == tuple(expected)

    def test_single_column_group_is_everything(self):
        t = ((1,), (2,), (3,))
        assert len(column_group(t)) == 6


class TestSpechtReps:
    def test_trivial(self):
        sd = specht_rep((3,))
        assert sd.rep.dim == 1
        assert all(c == 1 for c in sd.rep.character())

    def test_sign(self):
        sd = specht_rep((1, 1, 1))
        assert sd.rep.dim == 1
        group = sd.rep.monoid
        for k, g in enumerate(group.elements):
            assert sd.rep.character()[k] == g.sign()

    def test_reflectional(self):
        sd = specht_rep((2, 1))
        assert sd.rep.dim == 2
        assert sorted(set(sd.rep.character())) == [F(-1), F(0), F(2)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dims_and_completeness(self, n):
        dims = []
        for lam in partitions(n):
            sd = specht_rep(lam)
            assert sd.rep.dim == standard_tableaux_count(lam)
            dims.append(sd.rep.dim)
        assert sum(d * d for d in dims) == factorial(n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_invariance_before_restriction(self, n):
        for lam in partitions(n):
            sd = specht_rep(lam)
            basis = tabloids(lam, sd.labels)
            index = {b: k for k, b in enumerate(basis)}
            for g in sd.rep.monoid.elements:
                for vec in sd.subspace.basis:
                    image = [F(0)] * len(basis)
                    for k, t in enumerate(basis):
                        if vec[k]:
                            moved = tabloid_of(
                                tuple(tuple(g.apply(x) for x in row) for row in t)
                            )
                            image[index[moved]] += vec[k]
                    assert sd.subspace.contains(image)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_irreducible_and_nonredundant(self, n):
        reps = [specht_rep(lam).rep for lam in partitions(n)]
        for r in reps:
            assert commutant_dim(r) == 1
        chars = [r.character() for r in reps]
        for i in range(len(chars)):
            for j in range(i + 1, len(chars)):
                assert not char_equal(chars[i], chars[j])

    @pytest.mark.parametrize("n", [4, 5])
    def test_exterior_power_identity(self, n):
        refl = specht_rep((n - 1, 1)).rep
        for p in range(1, n):
            lam = (n - p,) + (1,) * p
            target = specht_rep(lam).rep
            assert char_equal(
                exterior_power(refl, p).character(), target.character()
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            specht_rep((1, 2))  # not weakly decreasing
        with pytest.raises(ValueError):
            specht_rep((2, 1), labels=(1, 2))  # size mismatch


# -- the all-tableaux oracle: every polytabloid and the whole tabloid stack ----

def all_fillings(shape, labels):
    """Every row-wise filling of the shape by the labels: m! of them."""
    for perm in itertools.permutations(sorted(labels)):
        rows, pos = [], 0
        for part in shape:
            rows.append(tuple(perm[pos:pos + part]))
            pos += part
        yield tuple(rows)


def is_standard(tableau):
    rows_increase = all(list(row) == sorted(row) for row in tableau)
    columns_increase = all(
        tableau[r][c] < tableau[r + 1][c]
        for r in range(len(tableau) - 1)
        for c in range(len(tableau[r + 1]))
    )
    return rows_increase and columns_increase


def reference_tabloid_matrices(basis, labels, group):
    """The permutation matrix of every group element on the tabloid basis,
    one element at a time, moving every label of every tabloid."""
    index = {t: k for k, t in enumerate(basis)}
    num = []
    for g in group.elements:
        mapping = {labels[i]: labels[g.apply(i + 1) - 1] for i in range(len(labels))}
        moved = [index[tabloid_of(tuple(tuple(mapping[x] for x in row) for row in t))]
                 for t in basis]
        m = [[0] * len(basis) for _ in basis]
        for b, y in enumerate(moved):
            m[y][b] = 1
        num.append(tuple(map(tuple, m)))
    return tuple(num)


def reference_specht(shape, labels, group):
    """The span of all m! polytabloids, restricted from the whole tabloid
    stack: (subspace, representation)."""
    basis = tabloids(shape, labels)
    index = {t: k for k, t in enumerate(basis)}
    sub = Subspace.span(len(basis), [polytabloid(t, index) for t in all_fillings(shape, labels)])
    num, den = sub.restrict(reference_tabloid_matrices(basis, labels, group))
    return sub, Representation.from_numerators(group, num, den)


ORACLE_CASES = (
    [(lam, tuple(range(1, n + 1))) for n in range(1, 6) for lam in partitions(n)]
    + [((2, 1), (4, 7, 9)), ((2, 2, 1), (2, 3, 5, 8, 13)), ((3, 1), (10, 20, 30, 40)),
       ((1, 1), (3, 6))]
    # the five shapes of 6 with at most 30 tabloids
    + [(lam, tuple(range(1, 7))) for lam in ((6,), (5, 1), (4, 2), (4, 1, 1), (3, 3))]
)


class TestStandardPolytabloids:
    @pytest.mark.parametrize("shape,labels", ORACLE_CASES, ids=str)
    def test_matches_the_all_tableaux_oracle(self, shape, labels):
        data = specht_rep(shape, labels)
        sub, rep = reference_specht(shape, labels, data.rep.monoid)
        assert data.subspace == sub and data.subspace.pivots == sub.pivots
        assert data.rep.den == rep.den
        assert data.rep.num == rep.num
        assert data.tabloids == tabloids(shape, labels)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_standard_tableaux_are_the_standard_fillings(self, n):
        for labels in (tuple(range(1, n + 1)), tuple(3 * x + 1 for x in range(n))):
            for lam in partitions(n):
                expected = sorted(t for t in all_fillings(lam, labels) if is_standard(t))
                got = standard_tableaux(lam, labels)
                assert got == tuple(expected)
                assert len(got) == standard_tableaux_count(lam)

    @pytest.mark.parametrize("shape,labels", [((2, 1), (1, 2, 3)), ((3, 1, 1), (1, 2, 4, 6, 7)),
                                              ((2, 2), (5, 6, 7, 8)),
                                              ((2, 1, 1, 1), (1, 2, 3, 4, 5)),
                                              ((4, 1, 1), (1, 2, 3, 4, 5, 6)),
                                              ((3, 2), (2, 3, 5, 8, 13))], ids=str)
    def test_tabloid_module_matches_the_per_element_oracle(self, shape, labels):
        rep = tabloid_module(shape, labels)
        expected = reference_tabloid_matrices(tabloids(shape, labels), labels, rep.monoid)
        assert rep.num == expected

    def test_uses_the_given_group(self):
        group = symmetric_group(4)
        data = specht_rep((2, 1, 1), group=group)
        assert data.rep.monoid is group
        assert data.rep.num == specht_rep((2, 1, 1)).rep.num

    def test_refuses_a_proper_subgroup(self):
        cyclic = closure([Permutation([2, 3, 1])])
        with pytest.raises(ValueError, match="needs all of S_3"):
            specht_rep((2, 1), group=cyclic)

    def test_the_space_is_shared_by_every_group_on_its_labels(self, monkeypatch):
        # one polytabloid span per (shape, labels), whatever group reads it
        monkeypatch.setattr(specht, "_SPECHT_CACHE", {})
        first = specht_rep((2, 1), (4, 7, 9))
        again = specht_rep((2, 1), (9, 7, 4), group=symmetric_group(3))
        assert list(specht._SPECHT_CACHE) == [((2, 1), (4, 7, 9))]
        assert again.subspace is first.subspace and again.tabloids is first.tabloids
        assert again.rep.num == first.rep.num

    def test_an_oversized_tabloid_stack_is_refused_before_allocation(self):
        # 720 permutations of 360 tabloids: 746 MB of object cells
        start = time.perf_counter()
        with pytest.raises(ClosureCapError, match="over the 256 MiB build budget"):
            tabloid_module((2, 1, 1, 1, 1), range(1, 7))
        assert time.perf_counter() - start < 10

    # A polytabloid e_t moved by delta * (one tabloid) leaves S^lambda, and the
    # rank stays f^lambda: the moved vector is outside the span of the others.
    # For f^lambda >= 2 the span then meets S^lambda in the other vectors, so it
    # is invariant only if it contains the irreducible S^lambda, which it does
    # not; for lambda = (1^n), n >= 3, the line is neither the sign nor the
    # trivial line of the regular module.  So the invariance check must fire.
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_corrupted_polytabloid_is_rejected_before_the_gather(self, data):
        n = data.draw(st.integers(3, 5))
        shape = data.draw(st.sampled_from([lam for lam in partitions(n) if lam != (n,)]))
        which = data.draw(st.integers(0, standard_tableaux_count(shape) - 1))
        column = data.draw(st.integers(0, len(tabloids(shape, range(1, n + 1))) - 1))
        delta = data.draw(st.integers(-3, 3).filter(bool))
        group = specht._symmetric_group(n)
        target = standard_tableaux(shape, tuple(range(1, n + 1)))[which]
        real_polytabloid, real_compose = specht.polytabloid, specht._compose_rows
        composed = []

        def corrupted(tableau, index):
            vec = list(real_polytabloid(tableau, index))
            if tableau == target:
                vec[column] += delta
            return tuple(vec)

        def compose(monoid, maps, root_row):
            composed.append(len(monoid))
            return real_compose(monoid, maps, root_row)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specht, "_SPECHT_CACHE", {})
            mp.setattr(specht, "_compose_rows", compose)
            mp.setattr(specht, "polytabloid", corrupted)
            with pytest.raises(ValueError, match="not invariant"):
                specht_rep(shape)
            # only the generators' tabloid rows were built: no element's row
            # was composed along the group's graph
            assert composed == []
            mp.setattr(specht, "polytabloid", real_polytabloid)
            specht_rep(shape)
        assert composed == [len(group)]
