import io
import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

import monoidrep.cliffmunn as cliffmunn_module
import monoidrep.elements as elements_module
import monoidrep.linrep as linrep_module
from monoidrep.cli import run
from monoidrep.elements import (
    ClosureCapError,
    PartialBijection,
    Permutation,
    Transformation,
    closure,
    full_transformation_monoid,
    symmetric_group,
    symmetric_inverse_monoid,
)
from monoidrep.green import lclass_coordinates, maximal_subgroup, transversal, Transversal
from monoidrep.lattice import make_lattice, sgl_monoid
from monoidrep.linrep import (
    Representation,
    Subspace,
    char_equal,
    commutant_dim,
    direct_sum,
    find_proper_invariant,
    is_invariant,
    is_irreducible,
    mapping_rep,
    one_dim_invariant_lines,
    restrict_rep,
    spin,
    trivial_rep,
)
from monoidrep.specht import partitions, specht_rep, tabloid_module
from monoidrep.cliffmunn import (
    ApexError,
    _equivariant_projection,
    _young_irreps,
    CatalogEntry,
    CatalogError,
    annihilator,
    apex,
    cm_catalog,
    cm_roundtrip_check,
    composition_leq,
    decompose,
    induce,
    induce_raw,
    jclass_irreps,
    monoid_green,
    reduce_rep,
    renner_permutohedron_catalog,
    SemisimpleReport,
    semisimple_predicate,
    support_jclasses,
)
from oracles import (
    diagonal,
    fraction_matrices,
    fraction_rows,
    from_fractions,
    oracle_apply,
    oracle_product,
    outer_tensor,
)

F = Fraction


def nonzero(num):
    return any(map(any, num))


def image_of(matrix):
    """The span of the matrix, as Fraction rows, applied to each unit vector."""
    ncols = len(matrix[0])
    units = [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    return Subspace.from_vectors(len(matrix), [oracle_apply(matrix, u) for u in units])


@pytest.fixture(scope="module")
def i3():
    return symmetric_inverse_monoid(3)


@pytest.fixture(scope="module")
def i3_map(i3):
    return mapping_rep(i3)


@pytest.fixture(scope="module")
def t3():
    return full_transformation_monoid(3)


@pytest.fixture(scope="module")
def t3_map(t3):
    return mapping_rep(t3)


@pytest.fixture(scope="module")
def i3_catalog(i3):
    return cm_catalog(i3)


@pytest.fixture(scope="module")
def renner3():
    monoid, _ = sgl_monoid(make_lattice("ordered_partitions_zero", 3)[1])
    return (monoid, *renner_permutohedron_catalog(monoid))


def rank_of_class(monoid, classes, j):
    return monoid.elements[classes.jclasses[j][0]].rank


class TestReduce:
    def test_partial_reflection_reduces_to_permuting_coordinates(self, i3, i3_map):
        for m in (1, 2, 3):
            e = i3.index(PartialBijection.partial_identity(3, range(1, m + 1)))
            red = reduce_rep(i3_map, e)
            assert red.rep.dim == m
            assert len(red.group) == factorial(m)
            # the permuting-coordinates character counts fixed points
            for k, el in enumerate(red.group.elements):
                fixed = sum(1 for d, i in el.pairs if d == i)
                assert red.rep.character()[k] == fixed

    def test_zero_idempotent_kills_everything(self, i3, i3_map):
        red = reduce_rep(i3_map, i3.index(PartialBijection.zero(3)))
        assert red.rep is None
        assert red.carrier.dim == 0

    def test_t3_hyperplane_reduces_to_reflectional(self, t3, t3_map):
        w = spin(t3_map, [(1, -1, 0)])
        wrep = restrict_rep(t3_map, w)
        e = t3.index(Transformation([1, 2, 2]))  # rank 2, fig-14 pattern
        red = reduce_rep(wrep, e)
        assert red.rep.dim == 1
        assert sorted(set(red.rep.character())) == [F(-1), F(1)]

    def test_reduce_at_identity_restricts_to_units(self, i3, i3_map):
        red = reduce_rep(i3_map, i3.identity_index)
        assert red.rep.dim == 3
        assert len(red.group) == 6
        for el in red.group.elements:
            assert fraction_matrices(red.rep)[red.group.index(el)] == fraction_matrices(i3_map)[i3.index(el)]

    def test_carrier_is_the_image_of_phi_e(self):
        # the column span of phi(e) is its image, phi(e) applied to every vector
        i4 = symmetric_inverse_monoid(4)
        for big in [mapping_rep(i4)] + [en.rep for en in cm_catalog(i4)]:
            for e in i4.idempotent_indices():
                image = image_of(fraction_rows(big.num[e], big.den))
                carrier = reduce_rep(big, e).carrier
                assert (carrier.num, carrier.den, carrier.pivots) == (image.num, image.den, image.pivots)

    def test_requires_idempotent(self, i3, i3_map):
        with pytest.raises(ValueError):
            reduce_rep(i3_map, i3.index(PartialBijection(3, [(1, 2)])))

    def test_choice_of_idempotent_invariance(self, i3, i3_map):
        # reductions at J-related idempotents are isomorphic group reps
        classes, _ = monoid_green(i3)
        for j in range(len(classes.jclasses)):
            idems = [i for i in classes.jclasses[j] if i3.table[i, i] == i]
            reds = [reduce_rep(i3_map, e) for e in idems]
            dims = {r.rep.dim if r.rep else 0 for r in reds}
            assert len(dims) == 1
            chars = {tuple(sorted(r.rep.character())) for r in reds if r.rep}
            assert len(chars) <= 1


class TestApex:
    def test_i3_mapping_rep_apex_j1(self, i3, i3_map):
        classes, _ = monoid_green(i3)
        apx, support = apex(i3_map)
        assert rank_of_class(i3, classes, apx) == 1
        assert sorted(rank_of_class(i3, classes, j) for j in support) == [1, 2, 3]

    def test_t3_hyperplane_apex_j2(self, t3, t3_map):
        classes, _ = monoid_green(t3)
        w = spin(t3_map, [(1, -1, 0)])
        apx, support = apex(restrict_rep(t3_map, w))
        assert rank_of_class(t3, classes, apx) == 2

    def test_trivial_rep_apex_is_bottom(self, i3):
        classes, _ = monoid_green(i3)
        apx, support = apex(trivial_rep(i3))
        assert rank_of_class(i3, classes, apx) == 0
        assert len(support) == len(classes.jclasses)

    def test_support_consistent_across_idempotents(self, i3, i3_map):
        # support_jclasses already insists all idempotents in a class agree
        support = support_jclasses(i3_map)
        assert len(support) == 3

    def test_sum_with_trivial_keeps_interval(self, i3, i3_map):
        # the trivial summand acts nonzero everywhere, so the union of
        # supports is still the full chain with minimum the zero class
        classes, _ = monoid_green(i3)
        two = direct_sum(i3_map, trivial_rep(i3))
        apx, support = apex(two)
        assert rank_of_class(i3, classes, apx) == 0

    def test_incomparable_apexes_rejected(self, renner3):
        # a sum of irreducibles at the incomparable (2,1) and (1,2) classes
        # has two minimal support classes, so no apex exists
        monoid, cat, report = renner3
        a = next(en for en in cat if en.apex_label == "(2,1)")
        b = next(en for en in cat if en.apex_label == "(1,2)")
        with pytest.raises(ApexError):
            apex(direct_sum(a.rep, b.rep))


class TestInduceExamples:
    def test_trivial_at_zero_gives_trivial(self, i3):
        classes, _ = monoid_green(i3)
        e = i3.index(PartialBijection.zero(3))
        g = maximal_subgroup(i3, classes, e)
        rep = induce(i3, e, trivial_rep(g))
        assert rep.dim == 1
        assert all(c == 1 for c in rep.character())

    def test_trivial_at_j1_gives_partial_reflection(self, i3, i3_map):
        classes, _ = monoid_green(i3)
        e = i3.index(PartialBijection.partial_identity(3, [1]))
        g = maximal_subgroup(i3, classes, e)
        rep = induce(i3, e, trivial_rep(g))
        assert rep.dim == 3
        assert char_equal(rep.character(), i3_map.character())

    def test_trivial_at_constants_raw_is_mapping_rep(self, t3, t3_map):
        classes, _ = monoid_green(t3)
        e = t3.index(Transformation([1, 1, 1]))
        g = maximal_subgroup(t3, classes, e)
        raw = induce_raw(t3, e, trivial_rep(g))
        assert raw.rep.dim == 3
        assert char_equal(raw.rep.character(), t3_map.character())

    def test_a_rep_over_another_group_is_refused(self, i3):
        # the block map indexes G_e by position; a rep over another group of
        # the same order would be read through it silently
        classes, _ = monoid_green(i3)
        e = i3.index(PartialBijection.partial_identity(3, [1, 2]))
        f = i3.index(PartialBijection.partial_identity(3, [1, 3]))
        other = trivial_rep(maximal_subgroup(i3, classes, f))
        with pytest.raises(ValueError, match="not a representation of the maximal subgroup"):
            induce_raw(i3, e, other)

    def test_t3_annihilator_is_hyperplane(self, t3):
        classes, _ = monoid_green(t3)
        e = t3.index(Transformation([1, 1, 1]))
        g = maximal_subgroup(t3, classes, e)
        raw = induce_raw(t3, e, trivial_rep(g))
        ann = annihilator(raw)
        assert ann.dim == 2
        assert ann.contains((1, -1, 0)) and ann.contains((0, 1, -1))
        quotient = induce(t3, e, trivial_rep(g))
        assert quotient.dim == 1
        assert all(c == 1 for c in quotient.character())

    def test_in_annihilators_vanish(self, i3, i3_catalog):
        for entry in i3_catalog:
            raw = induce_raw(i3, entry.idempotent, entry.group_rep)
            assert annihilator(raw).dim == 0

    def test_specht_inductions_have_expected_dims(self, i3):
        classes, _ = monoid_green(i3)
        for m in (1, 2, 3):
            e = i3.index(PartialBijection.partial_identity(3, range(1, m + 1)))
            group = maximal_subgroup(i3, classes, e)
            for lam in partitions(m):
                sd = specht_rep(lam, tuple(range(1, m + 1)))
                sym = sd.rep.monoid
                mats = []
                for el in group.elements:
                    perm_images = [el.apply(x) for x in range(1, m + 1)]
                    from monoidrep.elements import Permutation
                    mats.append(sd.rep.num[sym.index(Permutation(perm_images))])
                grp_rep = Representation.from_numerators(group, mats, sd.rep.den)
                rep = induce(i3, e, grp_rep)
                assert rep.dim == comb(3, m) * sd.rep.dim

    def test_unit_irreps_extend_by_zero(self, i3):
        classes, _ = monoid_green(i3)
        e = i3.identity_index
        group = maximal_subgroup(i3, classes, e)
        units = set(group.elements)
        refl = specht_rep((2, 1))
        sym = refl.rep.monoid
        mats = []
        for el in group.elements:
            from monoidrep.elements import Permutation
            mats.append(refl.rep.num[sym.index(Permutation([el.apply(x) for x in (1, 2, 3)]))])
        rep = induce(i3, e, Representation.from_numerators(group, mats, refl.rep.den))
        assert rep.dim == 2
        for k, el in enumerate(i3.elements):
            if el in units:
                assert nonzero(rep.num[k])
            else:
                assert not nonzero(rep.num[k])

    def test_transversal_independence(self, i3):
        classes, _ = monoid_green(i3)
        e = i3.index(PartialBijection.partial_identity(3, [1, 2]))
        g = maximal_subgroup(i3, classes, e)
        base = transversal(i3, classes, e)
        raw1 = induce_raw(i3, e, trivial_rep(g))
        # perturb: pick the other member of each non-identity H-class
        new_reps = []
        for h, rep in zip(base.hclass_ids, base.reps):
            members = classes.hclasses[h]
            if rep == e:
                new_reps.append(e)
            else:
                new_reps.append(max(members))
        perturbed = Transversal(e, tuple(new_reps), base.hclass_ids)
        raw2 = induce_raw(i3, e, trivial_rep(g), trans=perturbed)
        assert raw2.transversal != raw1.transversal
        # each transversal reads its own block map, not the cached one of another
        assert raw2.block_map != raw1.block_map
        # I_3 is certified semisimple, so equal characters decide isomorphism
        # (the argument is in cm_roundtrip_check's docstring)
        assert raw1.rep.character_key() == raw2.rep.character_key()


@pytest.fixture(scope="module")
def subsets3():
    lat, action = make_lattice("subsets", 3)
    monoid, ctx = sgl_monoid(action)
    return lat, action, monoid, ctx


class TestInduceSGL:
    def test_partial_reflection_through_pairs(self, subsets3, i3_map):
        lat, action, monoid, ctx = subsets3
        classes, _ = monoid_green(monoid)
        a = lat.index((1,))
        e = monoid.index(ctx.idempotent(a))
        g = maximal_subgroup(monoid, classes, e)
        rep = induce(monoid, e, trivial_rep(g))
        assert sorted(rep.character()) == sorted(i3_map.character())

    def test_low_elements_act_as_zero(self, subsets3):
        lat, action, monoid, ctx = subsets3
        classes, _ = monoid_green(monoid)
        a = lat.index((1, 2))
        e = monoid.index(ctx.idempotent(a))
        g = maximal_subgroup(monoid, classes, e)
        rep = induce(monoid, e, trivial_rep(g))
        for k, el in enumerate(monoid.elements):
            if len(el.lattice_element()) < 2:
                assert not nonzero(rep.num[k])

    def test_higher_partial_identities_fix_blocks(self, subsets3):
        lat, action, monoid, ctx = subsets3
        classes, _ = monoid_green(monoid)
        a = lat.index((1,))
        e = monoid.index(ctx.idempotent(a))
        g = maximal_subgroup(monoid, classes, e)
        rep = induce(monoid, e, trivial_rep(g))
        idc = monoid.index(ctx.idempotent(lat.index((1, 3))))
        mat = fraction_matrices(rep)[idc]
        # fixes the {1}- and {3}-blocks, kills the {2}-block
        diag = [mat[i][i] for i in range(3)]
        assert diag.count(F(1)) == 2 and nonzero(rep.num[idc])


class TestSemisimplePredicate:
    def test_in_char0(self, i3):
        assert semisimple_predicate(i3, 0).status == "semisimple"

    def test_s3_char3(self):
        report = semisimple_predicate(symmetric_group(3), 3)
        assert report.status == "not_semisimple"
        assert "6" in report.reason

    def test_s3_char5(self):
        assert semisimple_predicate(symmetric_group(3), 5).status == "semisimple"

    def test_in_char2(self, i3):
        assert semisimple_predicate(i3, 2).status == "not_semisimple"

    def test_t3_unknown(self, t3):
        report = semisimple_predicate(t3, 0)
        assert report.status == "unknown"
        assert "inverse" in report.reason

    def test_not_regular(self):
        # {1, a, 0} with a = [1 -> 2]: a x a = 0 for every x, so a has no inverse
        m = closure([PartialBijection(2, [(1, 2)])])
        assert len(m) == 3
        assert semisimple_predicate(m, 0) == SemisimpleReport("unknown", "monoid is not regular")

    def test_rejects_bad_characteristic(self, i3):
        with pytest.raises(ValueError):
            semisimple_predicate(i3, 1)


class TestNonSemisimplicityWitness:
    def test_t3_mapping_rep_cannot_decompose(self, t3, t3_map):
        # W is invariant, no line is, so W has no invariant complement:
        # a complement would be 1-dimensional and the eigenline search is
        # complete for lines
        w = spin(t3_map, [(1, -1, 0)])
        assert 0 < w.dim < t3_map.dim
        assert one_dim_invariant_lines(t3_map) == ()
        assert commutant_dim(t3_map) == 1  # the trap: scalar commutant anyway
        with pytest.raises(ValueError):
            decompose(t3_map)


class TestDecompose:
    def test_sn_mapping_splits_into_trivial_and_reflectional(self):
        for n in (2, 3, 4):
            v = mapping_rep(symmetric_group(n))
            factors = decompose(v)
            assert sorted(f.dim for f in factors) == [1, n - 1]
            triv = next(f for f in factors if f.dim == 1)
            assert all(c == 1 for c in triv.character())

    def test_tabloid_hook_module(self):
        for n in (3, 4):
            tm = tabloid_module((n - 1, 1), range(1, n + 1))
            factors = decompose(tm)
            chars = sorted(tuple(f.character()) for f in factors)
            expected = sorted([
                tuple(specht_rep((n,)).rep.character()),
                tuple(specht_rep((n - 1, 1)).rep.character()),
            ])
            assert chars == expected

    def test_double_of_irreducible(self):
        v = specht_rep((3, 1)).rep
        factors = decompose(direct_sum(v, v))
        assert len(factors) == 2
        assert all(char_equal(f.character(), v.character()) for f in factors)

    @pytest.mark.parametrize("n", [3, 4])
    def test_jordan_holder_seed_stability(self, n):
        tm = tabloid_module((n - 1, 1), range(1, n + 1))
        refl = specht_rep((n - 1, 1)).rep
        big = direct_sum(tm, refl)
        a = Counter(tuple(f.character()) for f in decompose(big))
        b = Counter(tuple(f.character()) for f in decompose(big, seed_order="reversed"))
        assert a == b


class TestEquivariantProjection:
    @pytest.mark.parametrize(
        "case", ["s3_fixed_line", "s3_sum_zero", "refl_double", "i3_plus_trivial"]
    )
    def test_projection_laws(self, case, i3, i3_map):
        if case.startswith("s3"):
            rep = mapping_rep(symmetric_group(3))
            vecs = [(1, 1, 1)] if case == "s3_fixed_line" else [(1, -1, 0), (0, 1, -1)]
            sub = Subspace.from_vectors(3, vecs)
        elif case == "refl_double":
            refl = specht_rep((2, 1)).rep
            rep = direct_sum(refl, refl)
            sub = find_proper_invariant(rep)
        else:
            rep = direct_sum(i3_map, trivial_rep(i3))
            sub = Subspace.from_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
        p = _equivariant_projection(rep, sub)
        assert p is not None
        p = fraction_rows(*p)
        assert oracle_product(p, p) == p
        # every element, not just generators
        assert all(oracle_product(p, m) == oracle_product(m, p) for m in fraction_matrices(rep))
        assert image_of(p) == sub
        assert all(oracle_apply(p, u) == u for u in sub.basis)


class TestInvariantSearch:
    def test_no_invariant_line_but_a_proper_subspace(self):
        refl = specht_rep((2, 1)).rep
        rep = direct_sum(refl, refl)
        assert one_dim_invariant_lines(rep) == ()
        verdict, witness = is_irreducible(rep, "search")
        assert verdict == "no"
        assert 0 < witness.dim < 4
        assert is_invariant(rep, witness)

    def test_seeds_skip_the_fraction_round_trip(self, monkeypatch):
        # each integer seed is spun as it is, with no Fraction per entry
        refl = specht_rep((2, 1)).rep
        rep = direct_sum(refl, refl)
        orders = ("standard", "reversed")
        expected = [find_proper_invariant(rep, order) for order in orders]

        def no_fractions(rows):
            raise AssertionError("a seed went through _numerators")

        monkeypatch.setattr(linrep_module, "_numerators", no_fractions)
        assert [find_proper_invariant(rep, order) for order in orders] == expected

    def test_decompose_under_both_seed_orders(self):
        refl = specht_rep((2, 1)).rep
        rep = direct_sum(refl, refl)
        for order in ("standard", "reversed"):
            factors = decompose(rep, seed_order=order)
            assert [f.dim for f in factors] == [2, 2]
            assert all(char_equal(f.character(), refl.character()) for f in factors)

    def test_decompose_over_a_basis_that_is_not_orthogonal(self):
        # the complement is the kernel of the equivariant projection: the
        # orthogonal complement of the fixed line is not invariant here
        base = mapping_rep(symmetric_group(3))
        p, p_inv = ((1, 1, 0), (0, 1, 0), (0, 0, 2)), ((1, -1, 0), (0, 1, 0), (0, 0, F(1, 2)))
        rep = from_fractions(base.monoid, [oracle_product(p, m, p_inv) for m in fraction_matrices(base)])
        fixed = Subspace.span(3, [(2, 1, 2)])  # P (1, 1, 1)
        assert is_invariant(rep, fixed) and not is_invariant(rep, fixed.orthogonal_complement())
        for order in ("standard", "reversed"):
            factors = decompose(rep, seed_order=order)
            assert sorted(f.dim for f in factors) == [1, 2]
            assert all(c == 1 for f in factors if f.dim == 1 for c in f.character())
            assert tuple(map(sum, zip(*(f.character() for f in factors)))) == base.character()


class TestEquation22Property:
    def test_sum_of_translates_is_invariant(self, i3, i3_map):
        # V + V has a diagonal G_e-subrepresentation inside e(V + V);
        # the sum of its transversal translates must be I_n-invariant
        classes, _ = monoid_green(i3)
        big = direct_sum(i3_map, i3_map)
        e = i3.index(PartialBijection.partial_identity(3, [1]))
        trans = transversal(i3, classes, e)
        mats = fraction_matrices(big)
        phi_e = mats[e]
        carrier = image_of(phi_e)
        assert carrier.dim == 2
        diag = [v for v in carrier.basis]
        seed = tuple(a + b for a, b in zip(diag[0], diag[1]))  # a diagonal vector
        vectors = []
        for s in trans.reps:
            m = oracle_product(mats[s], phi_e)
            vectors.append(oracle_apply(m, seed))
        u = Subspace.from_vectors(big.dim, vectors)
        assert 0 < u.dim < big.dim
        for m in mats:
            for v in u.basis:
                assert u.contains(oracle_apply(m, v))


class TestCatalogs:
    def test_i3_catalog(self, i3, i3_catalog):
        assert len(i3_catalog) == 7
        assert sorted(en.dim for en in i3_catalog) == [1, 1, 1, 2, 3, 3, 3]
        assert sum(en.dim ** 2 for en in i3_catalog) == 34

    def test_i3_labels(self, i3_catalog):
        got = {(en.apex_label, en.label) for en in i3_catalog}
        assert got == {
            ("J0", ()),
            ("J1", (1,)),
            ("J2", (2,)), ("J2", (1, 1)),
            ("J3", (3,)), ("J3", (2, 1)), ("J3", (1, 1, 1)),
        }

    def test_i4_catalog(self):
        i4 = symmetric_inverse_monoid(4)
        cat = cm_catalog(i4)
        assert len(cat) == 12
        assert sum(en.dim ** 2 for en in cat) == 209

    def test_i1_catalog(self):
        cat = cm_catalog(symmetric_inverse_monoid(1))
        assert sorted(en.dim for en in cat) == [1, 1]

    def test_roundtrips_i3(self, i3, i3_catalog):
        for en in i3_catalog:
            assert cm_roundtrip_check(i3, en)

    @pytest.mark.parametrize("build", [
        lambda: symmetric_inverse_monoid(3),
        lambda: sgl_monoid(make_lattice("subsets", 3)[1])[0],
        lambda: sgl_monoid(make_lattice("ordered_partitions_zero", 3)[1])[0],
    ], ids=["I3", "subsets3", "ordperm3"])
    def test_roundtrip_refuses_every_swapped_group_rep(self, build):
        # each entry holding another irreducible of its own subgroup, such
        # as (1,1) in place of (2) at I_3's J2
        monoid = build()
        catalog = cm_catalog(monoid)
        swapped = [a._replace(group_rep=b.group_rep) for a in catalog for b in catalog
                   if a.apex == b.apex and a.label != b.label]
        assert swapped
        assert not any(cm_roundtrip_check(monoid, en) for en in swapped)

    @pytest.mark.parametrize("build", [
        lambda: symmetric_inverse_monoid(3),
        lambda: sgl_monoid(make_lattice("subsets", 3)[1])[0],
    ], ids=["I3", "subsets3"])
    def test_roundtrip_refuses_a_summand_the_idempotent_kills(self, build):
        # W = Ind(V) + U with e U = 0 reduces to V at e, so only the up half
        # can refuse it: one entry per catalog rep b that kills a's idempotent
        monoid = build()
        catalog = cm_catalog(monoid)
        padded = [a._replace(rep=direct_sum(a.rep, b.rep)) for a in catalog for b in catalog
                  if not any(map(any, b.rep.num[a.idempotent]))]
        assert len(padded) == 17
        assert not any(cm_roundtrip_check(monoid, en) for en in padded)

    @pytest.mark.parametrize("build", [
        lambda: symmetric_inverse_monoid(3),
        lambda: sgl_monoid(make_lattice("subsets", 3)[1])[0],
    ], ids=["I3", "subsets3"])
    def test_roundtrip_refuses_the_zero_class_rep_at_the_units(self, build):
        # the zero class's rep sends every element to 1; at the units entry of
        # the trivial shape it reduces to that entry's trivial group rep and
        # has its dimension 1, but not its character, which is 0 off the units
        monoid = build()
        catalog = cm_catalog(monoid)
        zero = next(en.rep for en in catalog if en.label == ())
        assert all(m == ((zero.den,),) for m in zero.num)
        units = next(en for en in catalog
                     if en.idempotent == monoid.identity_index and en.label == (3,))
        assert cm_roundtrip_check(monoid, units)
        assert not cm_roundtrip_check(monoid, units._replace(rep=zero))

    def test_roundtrip_refuses_an_entry_over_another_monoid(self, i3_catalog):
        # SGL:subsets:3 has I_3's 34 elements, but not I_3's elements
        subsets3 = sgl_monoid(make_lattice("subsets", 3)[1])[0]
        assert len(subsets3) == 34
        for en in i3_catalog:
            with pytest.raises(ValueError, match="over different monoids"):
                cm_roundtrip_check(subsets3, en)

    def test_roundtrip_needs_a_semisimple_certificate(self, t3):
        # T_3 is regular but not inverse: its certificate is "unknown"
        e = t3.identity_index
        group = maximal_subgroup(t3, monoid_green(t3)[0], e)
        group_rep = trivial_rep(group)
        entry = CatalogEntry(0, "J3", (3,), e, group, group_rep, induce(t3, e, group_rep))
        with pytest.raises(ValueError, match="semisimple monoid"):
            cm_roundtrip_check(t3, entry)

    def test_character_comparisons_use_the_key(self, i3, i3_map, monkeypatch):
        # cm_catalog and the round trip compare lowest-terms trace keys, and
        # decompose reads no character: none builds a Fraction character
        def no_fractions(rep):
            raise AssertionError("Fraction character built")

        monkeypatch.setattr(Representation, "character", no_fractions)
        catalog = cm_catalog(i3)
        for en in catalog:
            assert cm_roundtrip_check(i3, en)
        assert [f.dim for f in decompose(i3_map)] == [3]

    def test_roundtrips_i4(self):
        i4 = symmetric_inverse_monoid(4)
        for en in cm_catalog(i4):
            assert cm_roundtrip_check(i4, en)

    def test_subsets_pairs_catalog_matches_i3(self, i3_catalog):
        lat, action = make_lattice("subsets", 3)
        monoid, ctx = sgl_monoid(action)
        cat = cm_catalog(monoid)
        assert sorted(en.dim for en in cat) == sorted(en.dim for en in i3_catalog)
        assert sum(en.dim ** 2 for en in cat) == 34
        for en in cat:
            assert cm_roundtrip_check(monoid, en)

    def test_apex_of_each_entry_is_its_class(self, i3, i3_catalog):
        for en in i3_catalog:
            apx, support = apex(en.rep)
            assert apx == en.apex
            # support is the upward interval above the apex
            _, poset = monoid_green(i3)
            expected = {j for j in range(poset.count) if poset.leq[en.apex] >> j & 1}
            assert set(support) == expected

    def test_set_partitions3_catalog(self):
        # the definitional subgroups at the middle classes are trivial, so
        # each contributes one entry; completeness still holds at order 16
        lat, action = make_lattice("set_partitions", 3)
        monoid, ctx = sgl_monoid(action)
        cat = cm_catalog(monoid)
        assert sum(en.dim ** 2 for en in cat) == 16
        assert sorted(en.dim for en in cat) == [1, 1, 1, 2, 3]
        for en in cat:
            assert cm_roundtrip_check(monoid, en)

    def test_set_partitions4_unrecognized(self):
        lat, action = make_lattice("set_partitions", 4)
        monoid, ctx = sgl_monoid(action)
        with pytest.raises(CatalogError):
            cm_catalog(monoid)

    def test_tn_refused(self, t3):
        with pytest.raises(CatalogError):
            cm_catalog(t3)

    def test_tn_subgroups_are_not_served(self, t3):
        # a maximal subgroup of T_3 permutes the image of its idempotent, but
        # transformations name no Young blocks: every J-class is refused
        classes, _ = monoid_green(t3)
        for j in range(len(classes.jclasses)):
            with pytest.raises(CatalogError, match="unrecognized maximal subgroup structure "
                                                   "at element type Transformation$"):
                list(jclass_irreps(t3, j))


YOUNG_BLOCKS = [(1, 2, 3), (4, 5, 6)]
SWAP_3_4 = {1: 1, 2: 2, 3: 4, 4: 3, 5: 5, 6: 6}


@pytest.fixture(scope="module")
def s3_by_s3():
    """S_3 x S_3 inside S_6, closed from block-preserving permutations."""
    return closure([Permutation.from_cycle(6, c) for c in ((1, 2), (1, 2, 3), (4, 5), (4, 5, 6))])


def label_map(s):
    return dict(enumerate(s.images, 1))


class TestYoungIrreps:
    def test_matches_the_outer_tensor_of_specht_reps(self, s3_by_s3):
        irreps = dict(_young_irreps(s3_by_s3, YOUNG_BLOCKS, label_map))
        assert sorted(irreps) == sorted(itertools.product(partitions(3), repeat=2))
        for (lam, mu), rep in irreps.items():
            oracle = outer_tensor(specht_rep(lam).rep, specht_rep(mu, (4, 5, 6)).rep)
            assert rep.den == oracle.den
            for s, g in enumerate(s3_by_s3.elements):
                pair = (Permutation(g.images[:3]), Permutation([y - 3 for y in g.images[3:]]))
                assert rep.num[s] == oracle.num[oracle.monoid.index(pair)]

    @pytest.mark.parametrize("corrupt,message", [
        # conjugated by (3 4): a faithful action, but (1 2 3) reads as (1 2 4)
        (lambda s: {SWAP_3_4[x]: SWAP_3_4[y] for x, y in label_map(s).items()},
         "does not preserve the blocks"),
        # (1 2) read as the identity: no action of S_3 x S_3 sends (1 2 3) to itself so
        (lambda s: dict(zip(range(1, 7), range(1, 7))) if s.images == (2, 1, 3, 4, 5, 6)
         else label_map(s), "not an action"),
        # the second block copies the first: an action that kills (4 5)
        (lambda s: {**label_map(s), **{x + 3: s.images[x - 1] + 3 for x in (1, 2, 3)}},
         "not faithful"),
    ], ids=["block", "action", "faithful"])
    def test_a_corrupted_label_map_is_refused(self, s3_by_s3, corrupt, message):
        with pytest.raises(CatalogError, match=message):
            list(_young_irreps(s3_by_s3, YOUNG_BLOCKS, corrupt))


class TestRenner:
    def test_n3_catalog(self, renner3):
        monoid, cat, report = renner3
        assert report.order == 79
        assert len(cat) == 9
        assert sorted(en.dim for en in cat) == [1, 1, 1, 2, 3, 3, 3, 3, 6]
        assert sum(en.dim ** 2 for en in cat) == 79
        assert report.poset_matches_compositions
        assert report.young_orders_match
        assert set(report.jclass_types) == {(), (1, 1, 1), (1, 2), (2, 1), (3,)}
        for en in cat:
            assert cm_roundtrip_check(monoid, en)

    def test_n4_structure_report(self):
        monoid, _ = sgl_monoid(make_lattice("ordered_partitions_zero", 4)[1])
        cat, report = renner_permutohedron_catalog(monoid)
        assert cat is None
        assert report.order == 1801
        assert len(report.jclass_types) == 9
        assert report.poset_matches_compositions
        assert report.young_orders_match

    def test_composition_order(self):
        assert composition_leq((1, 1, 1), (2, 1))
        assert composition_leq((1, 1, 1), (1, 2))
        assert not composition_leq((2, 1), (1, 2))
        assert composition_leq((2, 1), (3,))
        assert composition_leq((), (2, 1))
        assert not composition_leq((2, 1), ())


def oracle_induce_matrices(monoid, e, group_rep):
    """The dense induction over Fraction rows, one element and one product
    t s_i at a time: block (J, i) of phi(t) is rho(g) where t s_i = s_J g
    lies in L_e."""
    classes, _ = monoid_green(monoid)
    trans = transversal(monoid, classes, e)
    group = group_rep.monoid
    block, local = lclass_coordinates(monoid, classes, trans)
    ge = classes.hclasses[classes.hclass_of[e]]
    k, dv = len(trans.reps), group_rep.dim
    group_mats = fraction_matrices(group_rep)
    mats = []
    for t in range(len(monoid)):
        rows = [[F(0)] * (k * dv) for _ in range(k * dv)]
        for i, s in enumerate(trans.reps):
            p = monoid.mul(t, s)
            if block[p] >= 0:
                g = group_mats[group.index(monoid.elements[ge[local[p]]])]
                for r in range(dv):
                    rows[block[p] * dv + r][i * dv:(i + 1) * dv] = g[r]
        mats.append(fraction_rows(rows))
    return mats


def regular_rep(group, scale):
    """The regular representation of a group, conjugated by diag(scale) so
    that its matrices carry different denominators."""
    n = len(group)
    d, d_inv = diagonal(scale), diagonal([1 / F(x) for x in scale])
    mats = []
    for g in range(n):
        perm = [[1 if group.mul(g, h) == r else 0 for h in range(n)] for r in range(n)]
        mats.append(oracle_product(d, perm, d_inv))
    return from_fractions(group, mats)


INDUCE_MONOIDS = [
    symmetric_inverse_monoid(2),
    symmetric_inverse_monoid(3),
    sgl_monoid(make_lattice("subsets", 3)[1])[0],
    sgl_monoid(make_lattice("ordered_partitions_zero", 3)[1])[0],
]


class TestInduceStack:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), monoid=st.sampled_from(INDUCE_MONOIDS))
    def test_induce_raw_matches_the_dense_oracle(self, data, monoid):
        e = data.draw(st.sampled_from(monoid.idempotent_indices()))
        group = maximal_subgroup(monoid, monoid_green(monoid)[0], e)
        scale = [data.draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
                 for _ in range(len(group))]
        group_rep = regular_rep(group, scale)
        raw = induce_raw(monoid, e, group_rep)
        assert fraction_matrices(raw.rep) == tuple(oracle_induce_matrices(monoid, e, group_rep))

    @pytest.mark.parametrize("inputs,cells", [
        # I_3 at a rank-1 idempotent: 34 matrices of side 3
        (lambda: (induce_raw, symmetric_inverse_monoid(3), 1, trivial_rep(maximal_subgroup(
            symmetric_inverse_monoid(3), monoid_green(symmetric_inverse_monoid(3))[0], 1))),
         34 * 3 * 3),
        # S_3 x S_2: 12 matrices of side 2
        (lambda: (outer_tensor, specht_rep((2, 1)).rep, specht_rep((2,), (4, 5)).rep), 12 * 2 * 2),
    ], ids=["induce_raw", "outer_tensor"])
    def test_stacks_over_the_budget_are_refused_before_any_matrix_is_written(
            self, monkeypatch, inputs, cells):
        build, *args = inputs()
        written, stack = [], linrep_module._stack

        def counting(count, size, matrix):
            return stack(count, size, lambda s: written.append(s) or matrix(s))

        monkeypatch.setattr(linrep_module, "_stack", counting)
        monkeypatch.setattr(cliffmunn_module, "_stack", counting)
        monkeypatch.setattr(elements_module, "BUILD_BYTES_BUDGET", cells * 8 - 1)
        with pytest.raises(ClosureCapError, match="build budget"):
            build(*args)
        assert written == []
        monkeypatch.setattr(elements_module, "BUILD_BYTES_BUDGET", cells * 8)
        result = build(*args)  # a stack of exactly the budget is written
        rep = getattr(result, "rep", result)
        assert len(written) == len(rep.monoid) and len(rep.monoid) * rep.dim ** 2 == cells

    def test_equal_characters_over_other_denominators_are_rejected(self, monkeypatch):
        # the regular representation of S_2 and a conjugate of it over den 2
        # share one character; the catalog compares them in lowest terms
        def twice(monoid, e, group):
            yield (1,), regular_rep(group, [1, 1])
            yield (2,), regular_rep(group, [2, 1])

        monkeypatch.setattr(cliffmunn_module, "_group_irreps", twice)
        with pytest.raises(CatalogError, match="entries 0 and 1 have equal characters"):
            cm_catalog(symmetric_group(2))


class TestPerMonoidCaches:
    def _run_counted(self, monkeypatch, name):
        calls = []
        real = getattr(cliffmunn_module, name)
        monkeypatch.setattr(cliffmunn_module, name, lambda *args: calls.append(args) or real(*args))
        assert run(["irreps", "I:4", "--check"], out=io.StringIO()) == 0
        return calls

    def test_one_block_map_per_jclass(self, monkeypatch):
        # 12 entries over I_4's 5 J-classes, each induced and round-tripped;
        # lclass_coordinates runs once per block map computed
        idempotents = [trans.idempotent for _, _, trans in
                       self._run_counted(monkeypatch, "lclass_coordinates")]
        assert len(idempotents) == len(set(idempotents)) == 5

    def test_one_semisimplicity_certificate_per_monoid(self, monkeypatch):
        # cm_catalog and the 12 round trips share one report
        assert len(self._run_counted(monkeypatch, "_semisimple_report")) == 1
