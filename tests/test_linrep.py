import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from monoidrep.elements import (
    FiniteMonoid,
    PartialBijection,
    Permutation,
    Transformation,
    full_transformation_monoid,
    symmetric_group,
    symmetric_inverse_monoid,
)
from monoidrep.linrep import (
    Representation,
    Subspace,
    VerificationError,
    _bareiss,
    _ratio_text,
    _spin,
    char_equal,
    commutant_dim,
    direct_sum,
    exterior_power,
    intertwiner_space,
    is_irreducible,
    mapping_rep,
    one_dim_invariant_lines,
    quotient_rep,
    restrict_rep,
    serialize_representation,
    spin,
    trivial_rep,
)
from monoidrep.specht import specht_rep
from oracles import (
    diagonal,
    fraction_matrices,
    fraction_rows,
    from_fractions,
    jclass_subgroup_iso,
    numerators,
    oracle_apply,
    oracle_product,
    outer_tensor,
    parse_representation_payload,
    unitriangular_inverse,
)

F = Fraction


@pytest.fixture(scope="module")
def s3_map():
    return mapping_rep(symmetric_group(3))


@pytest.fixture(scope="module")
def i3_map():
    return mapping_rep(symmetric_inverse_monoid(3))


@pytest.fixture(scope="module")
def t3_map():
    return mapping_rep(full_transformation_monoid(3))


class TestRref:
    """The row space of a matrix is its echelon form, and the kernel that
    row space's orthogonal complement."""

    def test_identity(self):
        r = Subspace.span(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert r.dim == 3
        assert r.orthogonal_complement().dim == 0

    def test_all_ones(self):
        r = Subspace.span(3, [[1, 1, 1]] * 3)
        kernel = r.orthogonal_complement()
        assert r.dim == 1
        assert kernel.dim == 2
        # the kernel is the plane x1 + x2 + x3 = 0
        assert kernel.contains((1, -1, 0))
        assert kernel.contains((0, 1, -1))
        assert not kernel.contains((1, 0, 0))

    def test_t3_idempotent_rank(self, t3_map):
        m = t3_map.num[t3_map.monoid.index(Transformation([1, 1, 3]))]
        assert Subspace.span(3, m).dim == 2

    def test_idempotence(self):
        once = Subspace.span(3, [[2, 4, 1], [0, 0, 3], [2, 4, 4]])
        assert Subspace.span(3, once.num) == once

    def test_rank_of_product_bounded(self):
        rng = random.Random(7)
        for _ in range(25):
            a = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
            b = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
            rank = [Subspace.from_vectors(3, m).dim for m in (oracle_product(a, b), a, b)]
            assert rank[0] <= min(rank[1:])

    def test_rank_nullity(self):
        r = Subspace.span(4, [[1, 2, 3, 4], [2, 4, 6, 8]])
        assert r.dim + r.orthogonal_complement().dim == 4


class TestMappingReps:
    def test_sn_transposition_is_reflection(self, s3_map):
        from monoidrep.elements import Permutation
        k = s3_map.monoid.index(Permutation([2, 1, 3]))
        m = fraction_matrices(s3_map)[k]
        assert (s3_map.num[k], s3_map.den) == (((0, 1, 0), (1, 0, 0), (0, 0, 1)), 1)
        # fixes the mirror x1 = x2, negates the normal direction
        assert oracle_apply(m, (1, 1, 0)) == (F(1), F(1), F(0))
        assert oracle_apply(m, (1, -1, 0)) == (F(-1), F(1), F(0))

    def test_in_zero_map_is_zero_matrix(self, i3_map):
        assert not any(map(any, i3_map.num[i3_map.monoid.index(PartialBijection.zero(3))]))

    def test_tn_constant_sends_u_to_nv1(self, t3_map):
        m = fraction_matrices(t3_map)[t3_map.monoid.index(Transformation([1, 1, 1]))]
        assert oracle_apply(m, (1, 1, 1)) == (F(3), F(0), F(0))

    def test_verification_catches_corruption(self, s3_map):
        num = list(s3_map.num)
        k = (s3_map.monoid.identity_index + 1) % len(num)
        num[k] = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
        with pytest.raises(VerificationError):
            Representation.from_numerators(s3_map.monoid, num, s3_map.den)

    def test_identity_must_map_to_identity(self, s3_map):
        num = list(s3_map.num)
        num[s3_map.monoid.identity_index] = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
        with pytest.raises(VerificationError):
            Representation.from_numerators(s3_map.monoid, num, s3_map.den)


def all_pairs_homomorphism(monoid, mats):
    """The exhaustive oracle on Fraction rows: rho(1) = I and
    rho(s)rho(t) = rho(s*t) on all pairs."""
    n = len(monoid)
    return mats[monoid.identity_index] == diagonal([1] * len(mats[0])) and all(
        oracle_product(mats[i], mats[j]) == mats[monoid.mul(i, j)] for i in range(n) for j in range(n)
    )


SMALL_REPS = [
    mapping_rep(symmetric_inverse_monoid(3)),
    mapping_rep(full_transformation_monoid(3)),
    specht_rep((2, 1)).rep,
]


def with_entry(m, r, c, value):
    rows = [list(row) for row in m]
    rows[r][c] = value
    return fraction_rows(rows)


class TestVerification:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rep=st.sampled_from(SMALL_REPS))
    def test_single_entry_corruption_is_caught_by_both_checks(self, data, rep):
        k = data.draw(st.integers(0, len(rep.monoid) - 1))
        r, c = data.draw(st.integers(0, rep.dim - 1)), data.draw(st.integers(0, rep.dim - 1))
        delta = data.draw(st.fractions(-3, 3).filter(bool))
        mats = list(fraction_matrices(rep))
        mats[k] = with_entry(mats[k], r, c, mats[k][r][c] + delta)
        assert not all_pairs_homomorphism(rep.monoid, mats)
        with pytest.raises(VerificationError):
            from_fractions(rep.monoid, mats)

    def test_every_generator_is_checked(self):
        # rho is 1 on every coset {s, s*t} of the first generator t but one,
        # and 0 there: rho(s)rho(t) = rho(s*t) for every s, yet rho fails on
        # the other generator
        m = symmetric_group(3)
        t = m.generating_set()[0]
        c = next(k for k in range(len(m)) if k not in (m.identity_index, t))
        mats = [fraction_rows([[0 if k in (c, m.mul(c, t)) else 1]]) for k in range(len(m))]
        assert all(oracle_product(mats[s], mats[t]) == mats[m.mul(s, t)] for s in range(len(m)))
        assert not all_pairs_homomorphism(m, mats)
        with pytest.raises(VerificationError):
            from_fractions(m, mats)

    def test_entries_beyond_int64(self, s3_map):
        d, d_inv = diagonal([2**70, 1, 1]), diagonal([F(1, 2**70), 1, 1])
        mats = [oracle_product(d, m, d_inv) for m in fraction_matrices(s3_map)]
        assert max(abs(x) for m in mats for row in m for x in row) == 2**70
        rep = from_fractions(s3_map.monoid, mats)
        assert all_pairs_homomorphism(rep.monoid, fraction_matrices(rep))
        k, r, c = next(
            (k, r, c) for k, m in enumerate(mats) for r in range(3) for c in range(3)
            if m[r][c] == 2**70
        )
        bad = list(mats)
        bad[k] = with_entry(mats[k], r, c, mats[k][r][c] + 1)
        assert not all_pairs_homomorphism(rep.monoid, bad)
        with pytest.raises(VerificationError):
            from_fractions(s3_map.monoid, bad)

    def test_the_generator_columns_are_composed_once_per_monoid(self, monkeypatch):
        monoid = symmetric_inverse_monoid(3)
        calls, columns = [], FiniteMonoid.columns
        monkeypatch.setattr(FiniteMonoid, "columns",
                            lambda self, targets: calls.append(1) or columns(self, targets))
        for build in (mapping_rep, trivial_rep, mapping_rep):
            build(monoid)
        assert len(calls) == 1


class TestSpin:
    def test_sn_fixed_line(self, s3_map):
        sub = spin(s3_map, [(1, 1, 1)])
        assert sub.dim == 1

    def test_in_any_seed_spins_to_everything(self, i3_map):
        for seed in [(1, 0, 0), (1, 1, 1), (F(1, 2), -1, 3)]:
            assert spin(i3_map, [seed]).dim == 3

    def test_integer_entry_is_spin(self, i3_map, t3_map):
        # find_proper_invariant spins its integer seeds through _spin
        for rep in (i3_map, t3_map):
            for seed in itertools.product((-1, 0, 2), repeat=3):
                assert _spin(rep, Subspace.span(3, [seed])) == spin(rep, [seed])

    def test_tn_hyperplane(self, t3_map):
        w = spin(t3_map, [(1, -1, 0)])
        assert w.dim == 2
        assert w.contains((0, 1, -1))

    def test_output_invariant_and_minimal(self, t3_map):
        w = spin(t3_map, [(1, -1, 0)])
        for m in fraction_matrices(t3_map):
            for v in w.basis:
                assert w.contains(oracle_apply(m, v))
        # minimality: no proper subspace containing the seed is invariant
        for drop in range(w.dim):
            kept = [b for k, b in enumerate(w.basis) if k != drop]
            smaller = Subspace.from_vectors(3, kept)
            closed = all(
                smaller.contains(oracle_apply(m, v))
                for m in fraction_matrices(t3_map) for v in smaller.basis
            )
            has_seed = smaller.contains((1, -1, 0))
            assert not (closed and has_seed)


class TestQuotient:
    def test_by_zero_is_isomorphic_copy(self, s3_map):
        q = quotient_rep(s3_map, Subspace.zero(3))
        assert q.dim == 3
        assert char_equal(q.character(), s3_map.character())

    def test_by_whole_space_rejected(self, s3_map):
        with pytest.raises(ValueError):
            quotient_rep(s3_map, Subspace.span(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))

    def test_by_noninvariant_rejected(self, s3_map):
        with pytest.raises(ValueError):
            quotient_rep(s3_map, Subspace.from_vectors(3, [(1, 0, 0)]))

    def test_t3_mod_hyperplane_is_trivial(self, t3_map):
        w = spin(t3_map, [(1, -1, 0)])
        q = quotient_rep(t3_map, w)
        assert q.dim == 1
        assert all(c == 1 for c in q.character())


class TestDirectSum:
    def test_character_doubles(self, s3_map):
        d = direct_sum(s3_map, s3_map)
        assert d.dim == 6
        assert tuple(d.character()) == tuple(2 * c for c in s3_map.character())

    def test_sn_mapping_is_trivial_plus_reflectional(self, s3_map):
        u = spin(s3_map, [(1, 1, 1)])
        triv = restrict_rep(s3_map, u)
        refl = quotient_rep(s3_map, u)
        assert char_equal(direct_sum(triv, refl).character(), s3_map.character())

    def test_dims_add(self, s3_map):
        u = spin(s3_map, [(1, 1, 1)])
        refl = quotient_rep(s3_map, u)
        assert direct_sum(refl, s3_map).dim == 5

    def test_monoid_mismatch(self, s3_map, t3_map):
        with pytest.raises(ValueError):
            direct_sum(s3_map, t3_map)


class TestCharacter:
    def test_trivial(self):
        t = trivial_rep(symmetric_group(3))
        assert all(c == 1 for c in t.character())

    def test_s3_reflectional_values(self):
        refl = specht_rep((2, 1)).rep
        group = refl.monoid
        by_cycle_type = {}
        for k, g in enumerate(group.elements):
            fixed = sum(1 for i in range(1, 4) if g.apply(i) == i)
            by_cycle_type.setdefault(fixed, set()).add(refl.character()[k])
        assert by_cycle_type[3] == {F(2)}   # identity
        assert by_cycle_type[1] == {F(0)}   # transpositions
        assert by_cycle_type[0] == {F(-1)}  # 3-cycles

    def test_i3_partial_identity_traces(self, i3_map):
        for el in i3_map.monoid.elements:
            if el.is_idempotent():
                assert i3_map.character()[i3_map.monoid.index(el)] == el.rank

    def test_constant_on_conjugacy_classes_of_units(self, i3_map):
        m = i3_map.monoid
        chars = i3_map.character()
        units = [k for k, el in enumerate(m.elements) if el.rank == 3]
        e = m.identity_index
        for g in units:
            for h in units:
                ginv = next(x for x in units if m.mul(g, x) == e)
                conj = m.mul(m.mul(g, h), ginv)
                assert chars[conj] == chars[h]


class TestCommutant:
    def test_trivial_rep(self):
        assert commutant_dim(trivial_rep(symmetric_group(3))) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sn_mapping_two_blocks(self, n):
        assert commutant_dim(mapping_rep(symmetric_group(n))) == 2

    def test_i3_mapping_irreducible(self, i3_map):
        assert commutant_dim(i3_map) == 1

    def test_double_of_irreducible_is_four(self):
        refl = specht_rep((2, 1)).rep
        assert commutant_dim(direct_sum(refl, refl)) == 4


LINE_BUILDS = [
    lambda: mapping_rep(symmetric_group(3)),
    lambda: mapping_rep(symmetric_inverse_monoid(3)),
    lambda: mapping_rep(full_transformation_monoid(3)),
    lambda: specht_rep((2, 1)).rep,
]


class TestInvariantLines:
    def test_t3_has_none(self, t3_map):
        assert one_dim_invariant_lines(t3_map) == ()

    def test_sn_exactly_the_fixed_line(self, s3_map):
        lines = one_dim_invariant_lines(s3_map)
        assert len(lines) == 1
        scalars, space = lines[0]
        assert space.dim == 1
        assert space.contains((1, 1, 1))
        assert all(s == 1 for s in scalars)

    def test_trivial_rep_whole_space(self):
        t = trivial_rep(symmetric_group(3))
        lines = one_dim_invariant_lines(t)
        assert len(lines) == 1 and lines[0][1].dim == 1

    @pytest.mark.parametrize("build", LINE_BUILDS)
    def test_completeness_against_grid_oracle(self, build):
        # every invariant line found by brute rational grid search lies in
        # one of the reported eigenspaces
        rep = build()
        found = one_dim_invariant_lines(rep)
        vals = [F(x) for x in (-2, -1, 0, 1, 2)] + [F(1, 2), F(-1, 2)]
        for vec in itertools.product(vals, repeat=rep.dim):
            if all(x == 0 for x in vec):
                continue
            line = Subspace.from_vectors(rep.dim, [vec])
            if all(line.contains(oracle_apply(m, vec)) for m in fraction_matrices(rep)):
                assert any(space.contains(vec) for _, space in found)

    @pytest.mark.parametrize("build", LINE_BUILDS)
    def test_every_scalar_choice_against_the_stacked_kernel_oracle(self, build):
        # the lines are, in order, every choice of c(g) in (0, 1, -1) per
        # generator whose simultaneous eigenspace, the kernel of the
        # stacked rho(g) - c(g) I, is nonzero
        rep = build()
        mats = fraction_matrices(rep)
        gens = [mats[g] for g in rep.monoid.generating_set()]
        expected = []
        for scalars in itertools.product((0, 1, -1), repeat=len(gens)):
            stacked = [[x - c * (i == j) for j, x in enumerate(row)]
                       for m, c in zip(gens, scalars) for i, row in enumerate(m)]
            kernel = oracle_kernel(stacked, rep.dim)
            if kernel:
                expected.append((scalars, kernel))
        assert [(scalars, space.basis) for scalars, space in one_dim_invariant_lines(rep)] == expected

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_lines_follow_a_change_of_basis(self, data):
        # P rho P^-1, over a den that is seldom 1, has the eigenspaces P E of
        # rho, found under the same scalars in the same order
        base = data.draw(st.sampled_from(STACK_BASES))
        p, p_inv = data.draw(conjugators(base.dim))
        rep = from_fractions(base.monoid, [oracle_product(p, m, p_inv) for m in fraction_matrices(base)])
        moved = tuple((scalars, Subspace.from_vectors(base.dim, [oracle_apply(p, v) for v in space.basis]))
                      for scalars, space in one_dim_invariant_lines(base))
        assert one_dim_invariant_lines(rep) == moved


class TestIrreducibility:
    def test_one_dim_yes(self):
        res, _ = is_irreducible(trivial_rep(symmetric_group(2)), "search")
        assert res == "yes"

    def test_t3_search_finds_hyperplane(self, t3_map):
        res, witness = is_irreducible(t3_map, "search")
        assert res == "no"
        assert witness == spin(t3_map, [(1, -1, 0)])

    def test_s4_reflectional_semisimple_yes(self):
        refl = specht_rep((3, 1)).rep
        res, _ = is_irreducible(refl, "semisimple", certified_semisimple=True)
        assert res == "yes"

    def test_commutant_trap_regression(self, t3_map):
        # reducible with scalar commutant: the certificate must be refused,
        # while the honest search still finds the invariant hyperplane
        assert commutant_dim(t3_map) == 1
        with pytest.raises(ValueError):
            is_irreducible(t3_map, "semisimple")
        assert is_irreducible(t3_map, "search")[0] == "no"


class TestIsoTest:
    def test_intertwiner_dimension(self, s3_map):
        # hom space of the mapping rep with itself = its commutant
        assert intertwiner_space(s3_map, s3_map).dim == 2

    def test_reductions_at_two_idempotents_iso(self, i3_map):
        from monoidrep.cliffmunn import reduce_rep
        m = i3_map.monoid
        e = m.index(PartialBijection.partial_identity(3, [1, 2]))
        f = m.index(PartialBijection.partial_identity(3, [1, 3]))
        red_e = reduce_rep(i3_map, e)
        red_f = reduce_rep(i3_map, f)
        # transport the G_f-rep onto G_e through the canonical subgroup iso
        from monoidrep.green import green_structure
        classes, _ = green_structure(m)
        s = m.index(PartialBijection(3, [(1, 1), (2, 3)]))
        mapping, _ = jclass_subgroup_iso(m, classes, e, f, s)
        transported = Representation.from_numerators(
            red_e.group,
            [red_f.rep.num[red_f.group.index(m.elements[mapping[m.index(el)]])]
             for el in red_e.group.elements],
            red_f.rep.den,
        )
        # Q G_e is semisimple (Maschke): equal characters decide isomorphism
        assert red_e.rep.character_key() == transported.character_key()


class TestTensorConstructions:
    def test_exterior_zero_is_trivial(self, s3_map):
        e0 = exterior_power(s3_map, 0)
        assert e0.dim == 1 and all(c == 1 for c in e0.character())

    def test_exterior_one_is_self(self, s3_map):
        assert char_equal(exterior_power(s3_map, 1).character(), s3_map.character())

    def test_exterior_two_of_s4_reflectional(self):
        refl = specht_rep((3, 1)).rep
        target = specht_rep((2, 1, 1)).rep
        assert char_equal(exterior_power(refl, 2).character(), target.character())

    def test_exterior_out_of_range(self, s3_map):
        with pytest.raises(ValueError):
            exterior_power(s3_map, 4)

    def test_outer_tensor_dims(self):
        a = specht_rep((2, 1)).rep
        b = specht_rep((2,), labels=(4, 5)).rep
        t = outer_tensor(a, b)
        assert t.dim == 2
        assert len(t.monoid) == 12


class TestSerialization:
    def test_roundtrip(self, t3_map):
        text = serialize_representation(t3_map, monoid_label="T:3")
        header, labels, num, den = parse_representation_payload(text)
        assert header["monoid"] == "T:3"
        assert header["dim"] == "3"
        assert len(num) == 27
        assert (num, den) == (t3_map.num, t3_map.den)
        assert labels[0] == str(t3_map.monoid.elements[0])

    def test_rational_entries(self):
        refl = specht_rep((2, 1)).rep
        u = spin(refl, [(1, F(1, 2))])  # force some fractions through coords
        text = serialize_representation(refl, monoid_label="S:3")
        _, _, num, den = parse_representation_payload(text)
        assert (num, den) == (refl.num, refl.den)

    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(st.just(0), st.integers(-2**80, 2**80)),
           den=st.one_of(st.just(1), st.integers(1, 2**80)))
    @example(x=0, den=7)
    @example(x=-12, den=4)
    @example(x=12, den=4)
    @example(x=-6, den=4)
    @example(x=2**80, den=2**79)
    @example(x=-(2**80) + 1, den=3)
    @example(x=-5, den=1)
    def test_entry_text_is_the_fraction_text(self, x, den):
        assert _ratio_text(x, den) == str(F(x, den))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_payload_entries_are_the_fraction_texts(self, data):
        rep = data.draw(stack_reps())
        lines = serialize_representation(rep, monoid_label="X").splitlines()
        entries = [ln for ln in lines if not ln.startswith(("monoid:", "elements:", "dim:", "element "))]
        assert entries == [" ".join(str(F(x, rep.den)) for x in row) for m in rep.num for row in m]


# -- Fraction oracles: Gauss-Jordan, product and determinant over Fraction rows

def oracle_rref(rows):
    """Reduced row echelon form over Fractions: (rows, pivots)."""
    rows = [[F(x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def oracle_kernel(rows, ncols):
    """Echelon basis of {x : rows . x = 0}."""
    ech, pivots = oracle_rref(rows)
    vecs = []
    for f in range(ncols):
        if f not in pivots:
            v = [F(0)] * ncols
            v[f] = F(1)
            for row, p in zip(ech, pivots):
                v[p] = -row[f]
            vecs.append(v)
    return oracle_rref(vecs)[0]


def oracle_det(rows):
    rows = [[F(x) for x in row] for row in rows]
    n = len(rows)
    out = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            out = -out
        out *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return out


def oracle_intersection(a, b, n):
    """Echelon basis of span(a) ∩ span(b): the kernel of [A^T | -B^T]."""
    if not a or not b:
        return ()
    rows = [[v[i] for v in a] + [-w[i] for w in b] for i in range(n)]
    vecs = [
        [sum((c * v[k] for c, v in zip(sol[:len(a)], a)), F(0)) for k in range(n)]
        for sol in oracle_kernel(rows, len(a) + len(b))
    ]
    return oracle_rref(vecs)[0]


entries = st.one_of(st.just(0), st.fractions(min_value=-4, max_value=4, max_denominator=4))


def rational_rows(nrows, ncols):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


def column_span(num):
    """The image of the integer rows num, spanned by their columns as
    reduce_rep spans phi(e)'s."""
    return Subspace._span(len(num), tuple(zip(*num)))


class TestExactKernel:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 5))
    def test_det_matches_oracle(self, data, n):
        a = data.draw(rational_rows(n, n))
        num, den = numerators(a)
        assert F(_bareiss(num), den ** n) == oracle_det(a)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), m=st.integers(1, 5))
    def test_rref_kernel_image_match_oracle(self, data, n, m):
        a = data.draw(rational_rows(n, m))
        r = Subspace.from_vectors(m, a)
        ech, pivots = oracle_rref(a)
        assert r.basis == ech
        assert r.pivots == pivots and r.dim == len(pivots)
        assert r.orthogonal_complement().basis == oracle_kernel(a, m)
        assert column_span(numerators(a)[0]).basis == oracle_rref(list(zip(*a)))[0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5))
    def test_kernel_of_stacked_rows_is_the_intersection(self, data, n):
        # one_dim_invariant_lines intersects eigenspaces as the kernel of
        # the shifted rows stacked
        a = data.draw(rational_rows(data.draw(st.integers(0, n)), n))
        b = data.draw(rational_rows(data.draw(st.integers(0, n)), n))
        stacked = Subspace.from_vectors(n, a + b).orthogonal_complement()
        assert stacked.basis == oracle_intersection(oracle_kernel(a, n), oracle_kernel(b, n), n)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), kind=st.sampled_from(["random", "image", "kernel"]))
    def test_restrict_acts_on_invariant_subspaces_only(self, data, n, kind):
        a = data.draw(rational_rows(n, n))
        m, m_den = numerators(a)
        if kind == "random":
            sub = Subspace.from_vectors(n, data.draw(rational_rows(data.draw(st.integers(0, n)), n)))
        elif kind == "image":
            sub = column_span(m)
        else:
            sub = Subspace._span(n, m).orthogonal_complement()
        basis = [list(b) for b in sub.basis]
        images = [oracle_apply(a, b) for b in basis]
        invariant = len(oracle_rref(basis + images)[1]) == sub.dim
        if not invariant:
            with pytest.raises(ValueError):
                sub.restrict([m])
            return
        (num,), den = sub.restrict([m])
        r = fraction_rows(num, m_den * den)
        bt = [list(col) for col in zip(*basis)] if basis else [[] for _ in range(n)]
        assert oracle_product(bt, r) == oracle_product(a, bt)

    def test_restrict_rejects_a_line_moved_off_itself(self, s3_map):
        line = Subspace.from_vectors(3, [(1, 0, 0)])
        swap = s3_map.num[s3_map.monoid.index(Permutation([2, 1, 3]))]
        with pytest.raises(ValueError, match="not invariant"):
            line.restrict([swap])
        with pytest.raises(ValueError, match="not invariant"):
            restrict_rep(s3_map, line)


class TestVerifyDenominators:
    def test_mixed_denominators_verify(self, s3_map):
        d, d_inv = diagonal([2, 1, 1]), diagonal([F(1, 2), 1, 1])
        mats = [oracle_product(d, m, d_inv) for m in fraction_matrices(s3_map)]
        assert len({numerators(m)[1] for m in mats}) == 2
        rep = from_fractions(s3_map.monoid, mats)
        assert all_pairs_homomorphism(rep.monoid, fraction_matrices(rep))

    def test_rescaled_numerators_are_rejected(self, s3_map):
        # same numerators over a different denominator: not a homomorphism
        e = s3_map.monoid.identity_index
        mats = [m if k == e else fraction_rows(m, 2) for k, m in enumerate(fraction_matrices(s3_map))]
        assert not all_pairs_homomorphism(s3_map.monoid, mats)
        with pytest.raises(VerificationError):
            from_fractions(s3_map.monoid, mats)


# -- per-element builders over Fraction rows, kept as oracles ----------------

def oracle_kron(a, b):
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def oracle_restrict(sub, m):
    """One matrix acting on an invariant subspace, in echelon coordinates:
    R = M[pivots, :] B^T, with M B^T = B^T R over Fractions."""
    bt = [list(col) for col in zip(*sub.basis)] if sub.dim else [[] for _ in range(sub.ambient)]
    image = oracle_product(m, bt)
    r = tuple(image[p] for p in sub.pivots)
    if image != oracle_product(bt, r):
        raise ValueError("subspace is not invariant")
    return r


def oracle_restrict_rep(rep, sub):
    return [oracle_restrict(sub, m) for m in fraction_matrices(rep)]


def oracle_quotient_rep(rep, sub):
    comp = [c for c in range(rep.dim) if c not in sub.pivots]
    mats = []
    for m in fraction_matrices(rep):
        # column c minus its pivot coordinates times the basis
        cols = [[x - sum((col[p] * b[k] for p, b in zip(sub.pivots, sub.basis)), F(0))
                 for k, x in enumerate(col)] for col in zip(*m)]
        mats.append(fraction_rows([[cols[c][r] for c in comp] for r in comp]))
    return mats


def oracle_direct_sum(a, b):
    return [
        fraction_rows([list(row) + [0] * b.dim for row in ma]
                      + [[0] * a.dim + list(row) for row in mb])
        for ma, mb in zip(fraction_matrices(a), fraction_matrices(b))
    ]


def oracle_outer_tensor(*reps):
    sizes = [len(r.monoid) for r in reps]
    matrices = [fraction_matrices(r) for r in reps]
    mats = []
    for flat in range(math.prod(sizes)):
        coords = []
        rem = flat
        for s in reversed(sizes):
            coords.append(rem % s)
            rem //= s
        coords.reverse()
        m = matrices[0][coords[0]]
        for r, c in zip(matrices[1:], coords[1:]):
            m = oracle_kron(m, r[c])
        mats.append(m)
    return mats


def oracle_character(rep):
    return tuple(sum((m[i][i] for i in range(len(m))), F(0)) for m in fraction_matrices(rep))


@st.composite
def conjugators(draw, n):
    """(P, P^-1) with P = D U: D diagonal, U unitriangular, rational entries."""
    diag = [draw(st.fractions(-4, 4, max_denominator=5).filter(bool)) for _ in range(n)]
    d, d_inv = diagonal(diag), diagonal([1 / x for x in diag])
    u = fraction_rows([
        [1 if i == j else (draw(st.fractions(-2, 2, max_denominator=3)) if j > i else 0)
         for j in range(n)]
        for i in range(n)
    ])
    return oracle_product(d, u), oracle_product(unitriangular_inverse(u), d_inv)


STACK_BASES = [
    mapping_rep(symmetric_inverse_monoid(2)),
    mapping_rep(symmetric_inverse_monoid(3)),
    mapping_rep(full_transformation_monoid(2)),
    mapping_rep(full_transformation_monoid(3)),
    mapping_rep(symmetric_group(3)),
    specht_rep((2, 1)).rep,
    trivial_rep(symmetric_group(2)),
]


@st.composite
def stack_reps(draw, bases=STACK_BASES):
    """A small representation conjugated by a random rational matrix, so its
    matrices carry different denominators."""
    rep = draw(st.sampled_from(bases))
    p, p_inv = draw(conjugators(rep.dim))
    return from_fractions(rep.monoid, [oracle_product(p, m, p_inv) for m in fraction_matrices(rep)])


class TestStackEncoding:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_denominator_holds_the_fraction_matrices(self, data):
        base = data.draw(st.sampled_from(STACK_BASES))
        p, p_inv = data.draw(conjugators(base.dim))
        mats = tuple(oracle_product(p, m, p_inv) for m in fraction_matrices(base))
        rep = from_fractions(base.monoid, mats)
        assert fraction_matrices(rep) == mats
        assert math.gcd(rep.den, *itertools.chain(*itertools.chain(*rep.num))) == 1 and rep.den > 0
        tripled = [[[3 * x for x in row] for row in m] for m in rep.num]
        again = Representation.from_numerators(rep.monoid, tripled, rep.den * 3)
        assert again.den == rep.den and again.num == rep.num
        assert all(mats[rep.monoid.index(el)] == m for el, m in zip(rep.monoid.elements, mats))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_restrict_and_quotient_match_per_element_oracles(self, data):
        a = data.draw(stack_reps())
        rep = direct_sum(a, data.draw(stack_reps([r for r in STACK_BASES if r.monoid is a.monoid])))
        seed = data.draw(rational_rows(1, a.dim).filter(lambda rows: any(rows[0])))
        sub = spin(rep, [seed[0] + [0] * (rep.dim - a.dim)])  # inside the first summand
        assert fraction_matrices(restrict_rep(rep, sub)) == tuple(oracle_restrict_rep(rep, sub))
        assert fraction_matrices(quotient_rep(rep, sub)) == tuple(oracle_quotient_rep(rep, sub))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_restrict_raises_like_the_oracle(self, data):
        rep = data.draw(stack_reps())
        seed = data.draw(rational_rows(1, rep.dim).filter(lambda rows: any(rows[0])))
        sub = Subspace.from_vectors(rep.dim, seed)
        try:
            expected = oracle_restrict_rep(rep, sub)
        except ValueError:
            with pytest.raises(ValueError, match="not invariant"):
                restrict_rep(rep, sub)
            return
        assert fraction_matrices(restrict_rep(rep, sub)) == tuple(expected)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_direct_sum_and_character_match_per_element_oracles(self, data):
        a = data.draw(stack_reps())
        b = data.draw(stack_reps([r for r in STACK_BASES if r.monoid is a.monoid]))
        total = direct_sum(a, b)
        assert fraction_matrices(total) == tuple(oracle_direct_sum(a, b))
        assert total.character() == oracle_character(total)
        assert a.character() == oracle_character(a)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_character_key_decides_character_equality(self, data):
        a = data.draw(stack_reps())
        b = data.draw(stack_reps([r for r in STACK_BASES if r.monoid is a.monoid]))
        assert (a.character_key() == b.character_key()) == (a.character() == b.character())
        den, traces = a.character_key()
        # lowest terms, although a.den may divide every trace but not every entry
        assert math.gcd(den, *traces) == 1
        assert tuple(Fraction(x, den) for x in traces) == a.character()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_outer_tensor_matches_per_element_oracle(self, data):
        groups = [r for r in STACK_BASES if len(r.monoid) <= 6]
        reps = [data.draw(stack_reps(groups)) for _ in range(data.draw(st.integers(1, 3)))]
        assert fraction_matrices(outer_tensor(*reps)) == tuple(oracle_outer_tensor(*reps))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_corrupting_one_numerator_or_den_is_judged_like_the_oracle(self, data):
        rep = data.draw(stack_reps())
        den = rep.den + data.draw(st.integers(1, 3))
        with pytest.raises(VerificationError, match="identity"):
            Representation.from_numerators(rep.monoid, rep.num, den)
        k = data.draw(st.integers(0, len(rep.monoid) - 1))
        r, c = data.draw(st.integers(0, rep.dim - 1)), data.draw(st.integers(0, rep.dim - 1))
        num = [[list(row) for row in m] for m in rep.num]
        num[k][r][c] += data.draw(st.integers(-3, 3).filter(bool))
        if all_pairs_homomorphism(rep.monoid, [fraction_rows(m, rep.den) for m in num]):
            Representation.from_numerators(rep.monoid, num, rep.den)  # e.g. trivial made sign
        else:
            with pytest.raises(VerificationError):
                Representation.from_numerators(rep.monoid, num, rep.den)

    def test_bool_numerators_become_ints(self):
        sub = Subspace.span(2, [[True, False]])
        assert sub.num == ((1, 0),) and {type(x) for x in sub.num[0]} == {int}
        rep = Representation.from_numerators(symmetric_group(2), [[[True]], [[True]]])
        assert {type(x) for mat in rep.num for row in mat for x in row} == {int}
        text = serialize_representation(rep, monoid_label="S:2")
        assert "True" not in text and text.splitlines()[-1] == "1"

    def test_float_numerators_are_refused(self):
        with pytest.raises(TypeError):
            Subspace.span(2, [[1.0, 0]])
        with pytest.raises(TypeError):
            Representation.from_numerators(symmetric_group(2), [[[1.0]], [[1]]])
        with pytest.raises(TypeError):
            Representation.from_numerators(symmetric_group(2), [[[1]], [[1]]], 1.0)

    def test_shapes_are_checked(self, s3_map):
        with pytest.raises(ValueError, match="one matrix per monoid element"):
            Representation.from_numerators(s3_map.monoid, s3_map.num[1:])
        with pytest.raises(ValueError, match="square"):
            Representation.from_numerators(s3_map.monoid, [m[:2] for m in s3_map.num])
        with pytest.raises(ValueError, match="null"):
            Representation.from_numerators(s3_map.monoid, [() for m in s3_map.num])

    def test_stack_is_read_only(self, s3_map):
        with pytest.raises(TypeError):
            s3_map.num[0][0][0] = 5
        with pytest.raises(TypeError):
            s3_map.num[0][0] = (5, 0, 0)


# -- verify through the generators' nonzeros ---------------------------------

@st.composite
def monomial_reps(draw, bases=STACK_BASES[:5]):
    """A (partial) permutation representation conjugated by a random rational
    diagonal matrix: every generator column holds at most one nonzero, and
    its numerator is seldom the denominator."""
    rep = draw(st.sampled_from(bases))
    diag = [draw(st.fractions(-4, 4, max_denominator=5).filter(bool)) for _ in range(rep.dim)]
    d, d_inv = diagonal(diag), diagonal([1 / x for x in diag])
    return from_fractions(rep.monoid, [oracle_product(d, m, d_inv) for m in fraction_matrices(rep)])


def corrupted(rep, data):
    """rep's numerators with one entry changed, and whether they still make a
    homomorphism by the all-pairs oracle."""
    k = data.draw(st.integers(0, len(rep.monoid) - 1))
    r, c = data.draw(st.integers(0, rep.dim - 1)), data.draw(st.integers(0, rep.dim - 1))
    num = [[list(row) for row in m] for m in rep.num]
    num[k][r][c] = data.draw(st.sampled_from([-num[k][r][c], num[k][r][c] + rep.den,
                                              num[k][r][c] * 2, 0]).filter(lambda x: x != num[k][r][c]))
    ok = all_pairs_homomorphism(rep.monoid, [fraction_rows(m, rep.den) for m in num])
    return num, ok


class TestVerifyColumns:
    """Each column of rho(s)rho(a) is summed over the nonzeros of rho(a):
    single nonzeros of any value, zero columns, every generator's own
    column and wide entries are judged like the all-pairs oracle (dense
    columns over a den: TestStackEncoding)."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_monomial_columns_with_scaled_entries(self, data):
        rep = data.draw(monomial_reps())
        assert all_pairs_homomorphism(rep.monoid, fraction_matrices(rep))
        num, ok = corrupted(rep, data)
        if ok:
            Representation.from_numerators(rep.monoid, num, rep.den)
        else:
            with pytest.raises(VerificationError):
                Representation.from_numerators(rep.monoid, num, rep.den)

    def test_sign_columns(self):
        # the sign of S_3: each generator column is one nonzero, -1 at a
        # transposition; one transposition's value flipped to 1 is no
        # homomorphism, and neither is the sign read as the trivial value
        sign = specht_rep((1, 1, 1)).rep
        monoid = sign.monoid
        odd = [k for k in range(len(monoid)) if sign.num[k] == ((-1,),)]
        assert len(odd) == 3 and Representation.from_numerators(monoid, sign.num).num == sign.num
        for k in odd:
            num = [((1,),) if j == k else m for j, m in enumerate(sign.num)]
            with pytest.raises(VerificationError):
                Representation.from_numerators(monoid, num)

    def test_each_generator_reads_its_own_column(self):
        # I_3's generators have distinct columns; their matrices exchanged in
        # the mapping representation are no homomorphism
        rep = mapping_rep(symmetric_inverse_monoid(3))
        monoid = rep.monoid
        gens = monoid.generating_set()
        assert len(set(map(tuple, monoid._generator_columns()))) == len(gens)
        for g, h in itertools.combinations(gens, 2):
            num = list(rep.num)
            num[g], num[h] = num[h], num[g]
            assert not all_pairs_homomorphism(monoid, [fraction_rows(m) for m in num])
            with pytest.raises(VerificationError):
                Representation.from_numerators(monoid, num)

    def test_packed_columns_keep_every_entry_apart(self):
        # for [[1, 1], [0, 0]] every entry and column sum is 1, so the packed
        # fields are as narrow as they get; its square is itself, not I
        group = symmetric_group(2)
        num = [((1, 1), (0, 0))] * 2
        num[group.identity_index] = ((1, 0), (0, 1))
        with pytest.raises(VerificationError):
            Representation.from_numerators(group, num)

    def test_large_entries_are_compared_exactly(self):
        # entries far apart in size share one packed integer per column;
        # an error of one in the smallest entry is still caught
        big = 2 ** 200
        d, d_inv = diagonal([big, 1, 3]), diagonal([F(1, big), 1, F(1, 3)])
        base = mapping_rep(symmetric_group(3))
        rep = from_fractions(base.monoid, [oracle_product(d, m, d_inv) for m in fraction_matrices(base)])
        for k in range(len(rep.monoid)):
            for r in range(3):
                for c in range(3):
                    if rep.num[k][r][c]:
                        num = [[list(row) for row in m] for m in rep.num]
                        num[k][r][c] += 1
                        with pytest.raises(VerificationError):
                            Representation.from_numerators(rep.monoid, num, rep.den)
