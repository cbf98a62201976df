import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import monoidrep.elements as elements_module
from monoidrep.elements import (
    BUILD_BYTES_BUDGET,
    DEFAULT_CLOSURE_CAP,
    ClosureCapError,
    DegreeMismatchError,
    ElementParseError,
    FiniteMonoid,
    PartialBijection,
    Permutation,
    Transformation,
    all_partial_bijections,
    canonical_key,
    closure,
    cycle_link_format,
    cycle_link_parse,
    full_transformation_monoid,
    row_bytes,
    symmetric_group,
    symmetric_inverse_monoid,
)
from monoidrep.green import maximal_subgroup, monoid_green
from monoidrep.lattice import LATTICE_KINDS, SGLElement, make_lattice, sgl_monoid
from oracles import (
    all_permutations,
    all_transformations,
    certificate_inputs,
    certify_left_rows,
    element_rows,
    greedy_from_elements,
    maximal_subgroup_at,
    product_monoid,
)


def pb(n, *pairs):
    return PartialBijection(n, pairs)


def in_order_formula(n):
    return sum(math.comb(n, m) ** 2 * math.factorial(m) for m in range(n + 1))


def reference_build(elements, identity, generators=None):
    """The element-by-element build: one Python product per table cell.
    With no generators given, the greedy set: the least element not yet
    reached, added until the generated submonoid is everything."""
    ordered = sorted(set(elements) | {identity}, key=canonical_key)
    index = {e: k for k, e in enumerate(ordered)}
    table = np.array([[index[a * b] for b in ordered] for a in ordered], dtype=np.int32)
    if generators is not None:
        return tuple(ordered), table, index[identity], tuple(index[g] for g in generators)
    gens, reached = [], {index[identity]}
    while len(reached) < len(ordered):
        gens.append(min(set(range(len(ordered))) - reached))
        while True:
            grown = reached | {int(table[x, g]) for x in reached for g in gens}
            if grown == reached:
                break
            reached = grown
    return tuple(ordered), table, index[identity], tuple(gens)


def reference_closure(generators):
    """Breadth-first closure by Python products, with the identity."""
    seen = {generators[0].identity_element()}
    frontier = list(seen)
    while frontier:
        frontier = [p for p in {a * g for a in frontier for g in generators} if p not in seen]
        seen.update(frontier)
    return seen


def generated_outcome(generators, members):
    """What from_elements(members, e, generators) must do, found breadth
    first from the identity by left products: the error it raises, or None
    when the generators reach exactly the closed set members."""
    reached = {generators[0].identity_element()}
    frontier = list(reached)
    while frontier:
        products = {a * x for x in frontier for a in generators}
        if not products <= members:
            return "not multiplicatively closed"
        frontier = list(products - reached)
        reached.update(frontier)
    return None if reached == members else "do not generate"


def assert_matches_reference(m, generators=None):
    elements, table, identity, gens = reference_build(
        m.elements, m.elements[m.identity_index], generators
    )
    assert m.elements == elements
    assert m.table.dtype == np.uint16
    assert np.array_equal(m.table, table)
    assert m.identity_index == identity
    assert m.generator_indices == gens


class TestPartialBijection:
    def test_compose_chain(self):
        s = pb(3, (2, 3))
        t = pb(3, (1, 2))
        assert s * t == pb(3, (1, 3))

    def test_compose_disjoint_gives_zero_map(self):
        s = pb(2, (1, 1))
        t = pb(2, (2, 2))
        assert s * t == PartialBijection.zero(2)

    def test_identity_law(self):
        s = pb(3, (1, 2), (3, 1))
        e = PartialBijection.identity(3)
        assert e * s == s
        assert s * e == s

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            pb(2, (1, 1)) * pb(3, (1, 1))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            PartialBijection(3, [(1, 1), (1, 2)])  # repeated domain point
        with pytest.raises(ValueError):
            PartialBijection(3, [(2, 1), (1, 2)])  # domain not increasing
        with pytest.raises(ValueError):
            PartialBijection(3, [(1, 2), (2, 2)])  # repeated image
        with pytest.raises(ValueError):
            PartialBijection(3, [(1, 4)])  # out of range

    def test_apply_outside_the_domain_is_none(self):
        s = pb(3, (1, 2), (3, 1))
        assert [s.apply(x) for x in range(5)] == [None, 2, None, 1, None]

    def test_inverse_swap(self):
        assert pb(2, (1, 2)).inverse() == pb(2, (2, 1))

    def test_partial_identities_self_inverse(self):
        for points in [(), (1,), (1, 3), (1, 2, 3)]:
            e = PartialBijection.partial_identity(3, points)
            assert e.inverse() == e
            assert e * e == e

    def test_inverse_laws_exhaustive_i3(self):
        els = all_partial_bijections(3)
        assert len(els) == 34
        for s in els:
            t = s.inverse()
            assert s * t * s == s
            assert t * s * t == t

    def test_inverse_uniqueness_exhaustive(self):
        # s* is the only u with sus = s and usu = u, for every s in I_n
        for n in (2, 3):
            els = all_partial_bijections(n)
            for s in els:
                witnesses = [u for u in els if s * u * s == s and u * s * u == u]
                assert witnesses == [s.inverse()]


class TestTransformation:
    def test_compose(self):
        s = Transformation([2, 1, 3])
        t = Transformation([1, 1, 1])
        assert s * t == Transformation([2, 2, 2])

    def test_idempotent_square(self):
        # restricts to the identity on its image
        e = Transformation([1, 1, 3])
        assert e * e == e
        assert e.is_idempotent()

    def test_identity_law(self):
        s = Transformation([3, 3, 1])
        assert s * Transformation.identity(3) == s
        assert Transformation.identity(3) * s == s

    @pytest.mark.parametrize("point", [0, -1, 4])
    def test_apply_outside_the_points_raises(self, point):
        t = Transformation([2, 3, 1])
        assert [t.apply(x) for x in (1, 2, 3)] == [2, 3, 1]
        with pytest.raises(ValueError, match="out of range 1..3"):
            t.apply(point)
        with pytest.raises(ValueError, match="out of range 1..3"):
            Permutation([2, 3, 1]).apply(point)

    def test_kernel(self):
        assert Transformation([1, 1, 3]).kernel() == ((1, 2), (3,))

    def test_regularity_witness_exhaustive_t3(self):
        els = full_transformation_monoid(3).elements
        for s in els:
            assert any(s * t * s == s and t * s * t == t for t in els)

    def test_permutation_checks(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])
        g = Permutation([2, 3, 1])
        assert g * g.inverse() == Permutation.identity(3)
        assert Permutation([2, 1, 3]).sign() == -1
        assert Permutation([2, 3, 1]).sign() == 1


YOUNG_ANSWERS = ("young_blocks", "labels_per_block", "young_move")


class TestFamilyAnswers:
    @pytest.mark.parametrize("build", [symmetric_group, symmetric_inverse_monoid,
                                       full_transformation_monoid])
    def test_apex_label_is_the_rank(self, build):
        m = build(3)
        assert all(el.apex_label() == f"J{el.rank}" for el in m.elements)

    @pytest.mark.parametrize("build", [symmetric_group, symmetric_inverse_monoid])
    def test_an_idempotent_names_its_domain_as_one_block(self, build):
        m = build(3)
        classes, _ = monoid_green(m)
        for e in m.idempotent_indices():
            el = m.elements[e]
            domain = tuple(x for x in range(1, 4) if el.images[x - 1])
            assert el.young_blocks() == (domain,)
            assert el.labels_per_block() is False
            for s in maximal_subgroup(m, classes, e).elements:
                move = el.young_move(s)
                assert {x: move[x] for x in domain} == {x: s.images[x - 1] for x in domain}

    def test_transformations_name_no_young_blocks(self):
        # a subgroup of T_n permutes the image of its idempotent, which is
        # not the set of points a rank-deficient idempotent fixes as a
        # partial identity; the answers stay off every plain transformation
        for el in full_transformation_monoid(3).elements:
            assert type(el) is Transformation
            assert not any(hasattr(el, name) for name in YOUNG_ANSWERS)
        assert all(hasattr(Permutation.identity(3), name) for name in YOUNG_ANSWERS)
        assert all(hasattr(PartialBijection.zero(3), name) for name in YOUNG_ANSWERS)


class TestClosure:
    def test_i2_from_generators(self):
        # brute force: all partial bijections of [2]
        gens = [
            Permutation.from_cycle(2, (1, 2)).to_partial_bijection(),
            PartialBijection.partial_identity(2, [1]),
        ]
        m = closure(gens)
        assert len(m) == len(all_partial_bijections(2)) == 7
        assert in_order_formula(2) == 7

    def test_t3_from_generators(self):
        gens = [
            Permutation.from_cycle(3, (1, 2, 3)),
            Permutation.from_cycle(3, (1, 2)),
            Transformation([1, 1, 2]),
        ]
        assert len(closure(gens)) == 27

    def test_identity_alone(self):
        assert len(closure([PartialBijection.identity(3)])) == 1

    def test_determinism(self):
        gens = [
            Permutation.from_cycle(3, (1, 2)).to_partial_bijection(),
            PartialBijection.partial_identity(3, [1, 2]),
        ]
        a = closure(gens)
        b = closure(gens)
        assert a.elements == b.elements
        assert np.array_equal(a.table, b.table)
        assert a.identity_index == b.identity_index

    def test_cap(self):
        gens = [
            Permutation.from_cycle(4, (1, 2)).to_partial_bijection(),
            Permutation.from_cycle(4, (1, 2, 3, 4)).to_partial_bijection(),
            PartialBijection.partial_identity(4, [1, 2, 3]),
        ]
        with pytest.raises(ClosureCapError):
            closure(gens, cap=50)

    def test_closure_is_the_closure_set(self):
        gens = [
            Permutation.from_cycle(3, (1, 2)).to_partial_bijection(),
            Permutation.from_cycle(3, (1, 2, 3)).to_partial_bijection(),
            PartialBijection.partial_identity(3, [1, 2]),
        ]
        # the cap admits exactly the closure's 34 elements
        assert set(closure(gens, cap=34).elements) == reference_closure(gens)
        with pytest.raises(ClosureCapError):
            closure(gens, cap=33)

    def test_i_file_closure_makes_one_element_product_per_element_found(self, monkeypatch):
        gens = [cycle_link_parse(t, 5) for t in I_FILE_GENS]
        products = []
        mul = PartialBijection.__mul__
        monkeypatch.setattr(PartialBijection, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        m = closure(gens)
        # the 631 * 3 left products are composed as image rows; an element
        # is made, as one product, only for each of the 630 rows found after
        # the identity's
        assert len(m) == 631
        assert len(products) == 630

    def test_pair_closure_makes_one_pair_product_per_pair_found(self, monkeypatch):
        # SGL:ordperm:4 has 1801 pairs and 10 generators: 1800 products, where
        # multiplying every generator into every pair took 18010
        products = []
        mul = SGLElement.__mul__
        monkeypatch.setattr(SGLElement, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        m = pair_monoid(("ordered_partitions_zero", 4))
        assert (len(m), len(m.generator_indices)) == (1801, 10)
        assert len(products) == 1800

    def test_recorded_generators_generate(self):
        for m in (symmetric_inverse_monoid(3), full_transformation_monoid(3), symmetric_group(4)):
            reached = generated_by(m, m.generator_indices)
            assert len(reached) == len(m)


class TestFiniteMonoid:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 7), (3, 34), (4, 209)])
    def test_in_order(self, n, expected):
        assert len(symmetric_inverse_monoid(n)) == expected
        assert in_order_formula(n) == expected

    def test_t3_order(self):
        assert len(full_transformation_monoid(3)) == 27

    def test_the_class_takes_no_table(self):
        # a monoid is built only from certified left rows (_from_left_rows);
        # a table handed to the class is refused before anything reads it
        m = symmetric_group(3)
        with pytest.raises(TypeError):
            FiniteMonoid(m.elements, m.table, m.identity_index)

    def test_the_element_index_is_built_on_first_read(self):
        m = symmetric_inverse_monoid(3)
        assert m._index is None
        assert [m.index(el) for el in m.elements] == list(range(len(m)))
        assert m._index is not None

    def test_product_monoid(self):
        p = product_monoid(symmetric_group(3), symmetric_group(2))
        assert len(p) == 12
        assert p.is_group()
        trip = product_monoid(symmetric_group(2), symmetric_group(2), symmetric_group(2))
        assert len(trip) == 8
        e = trip.identity_index
        assert all(trip.mul(e, k) == k for k in range(8))

    def test_canonical_order_of_i3(self):
        els = symmetric_inverse_monoid(3).elements
        keys = [e.key() for e in els]
        assert keys == sorted(keys)
        assert els[0] == PartialBijection.zero(3)


BUILT_INS = {"S": symmetric_group, "I": symmetric_inverse_monoid, "T": full_transformation_monoid}


def enumerated_build(kind, n):
    """S_n, I_n or T_n from its enumerated element set: the elements in
    canonical order, the indices of the standard generators (1 2) and
    (1 2 ... n), with the partial identity on [n - 1] for I_n and the map
    [1, 1, 3, ..., n] for T_n (the identity for S_1 and T_1), and their
    left rows, one product a * x looked up per cell."""
    elements = {"S": all_permutations, "I": all_partial_bijections,
                "T": all_transformations}[kind](n)
    by_images = {x.images: k for k, x in enumerate(elements)}
    images = {(2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)} if n >= 2 else set()
    if kind == "I":
        images.add((*range(1, n), 0))
    if kind == "T":
        images.add((1, 1, *range(3, n + 1))[:n])
    gens = sorted(by_images[x] for x in images or {tuple(range(1, n + 1))})
    left = [[by_images[(elements[g] * x).images] for x in elements] for g in gens]
    return tuple(elements), left, tuple(gens)


class TestBuiltIns:
    """S_n, I_n and T_n are the closures of their standard generators,
    counted against their orders; no element set is enumerated."""

    @pytest.mark.parametrize("kind,n", [(kind, n) for kind in "SIT" for n in range(1, 6)])
    def test_matches_the_enumeration(self, kind, n):
        m = BUILT_INS[kind](n)
        elements, left, gens = enumerated_build(kind, n)
        assert m.elements == elements
        assert [type(x) for x in m.elements] == [type(x) for x in elements]
        assert m._left == left
        assert m.generator_indices == gens
        assert m.elements[m.identity_index] == elements[0].identity_element()

    def test_built_without_from_elements_or_an_enumeration(self, monkeypatch):
        def refused(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return call

        # the enumerations of S_n and T_n live in the tests only
        monkeypatch.setattr(elements_module, "all_partial_bijections",
                            refused("all_partial_bijections"))
        monkeypatch.setattr(FiniteMonoid, "from_elements", refused("from_elements"))
        orders = [len(build(5)) for build in BUILT_INS.values()]
        orders.append(len(sgl_monoid(make_lattice("ordered_partitions_zero", 4)[1])[0]))
        assert orders == [120, 1546, 3125, 1801]

    def test_a_missing_generator_fails_the_count(self, monkeypatch):
        # T_5 without its rank-4 generator, the least, closes to S_5 only
        closure = elements_module._closure
        monkeypatch.setattr(elements_module, "_closure",
                            lambda gens, *args: closure(gens[1:], *args))
        with pytest.raises(RuntimeError, match="close to 120 elements, not 3125"):
            full_transformation_monoid(5)


class TestMonoidLaws:
    def test_every_left_cell_corruption_of_i4_is_rejected(self):
        # no sampling above 200 elements: the certificate reads each of
        # I_4's |A| |S| = 627 left cells, so moving any one of them fails
        m = symmetric_inverse_monoid(4)
        rows, gen_rows, left, e = certificate_inputs(m)
        n = len(m)
        for k, x in itertools.product(range(len(left)), range(n)):
            bad = [list(row) for row in left]
            bad[k][x] = (bad[k][x] + 1) % n
            with pytest.raises(ValueError, match="a left product disagrees"):
                certify_left_rows(rows, gen_rows, bad, e)


# the generator-file shapes of the benchmark's structure workload
T_FILE_GENS = [Transformation([2, 3, 4, 5, 1]), Transformation([1, 1, 3, 4, 5])]
I_FILE_GENS = ["(1,2,3,4,5)", "[1,2,3,4](5)", "[1,2]"]


class TestImageTable:
    @pytest.mark.parametrize("family,n", [
        *[(all_permutations, n) for n in range(1, 6)],
        *[(all_partial_bijections, n) for n in range(1, 5)],
        *[(all_transformations, n) for n in range(1, 5)],
    ])
    def test_full_monoids_match_elementwise_build(self, family, n):
        els = family(n)
        gens = els[::-1]  # recorded generators must generate the monoid
        m = FiniteMonoid.from_elements(els, els[0].identity_element(), gens)
        assert m.elements == tuple(els)
        assert_matches_reference(m, gens)

    @pytest.mark.parametrize("family", [all_permutations, all_partial_bijections,
                                        all_transformations])
    def test_elements_are_the_callers_objects(self, family):
        # products and generators equal to a member are stored as the member
        els = family(3)
        one = els[0].identity_element()
        gens = [g * one for g in els[::-1]]  # equal copies, not the members
        m = FiniteMonoid.from_elements(els, one, gens)
        mine = {e: e for e in els}
        assert all(x is mine[x] for x in m.elements)

    @pytest.mark.parametrize("gens", [
        T_FILE_GENS,
        [cycle_link_parse(t, 5) for t in I_FILE_GENS],
    ], ids=["t_file", "i_file"])
    def test_generator_files_match_elementwise_build(self, gens):
        m = closure(gens)
        assert set(m.elements) == reference_closure(gens)
        assert_matches_reference(m, gens)

    @pytest.mark.parametrize("gens,order", [
        ([Permutation.from_cycle(300, range(1, 301))], 300),
        ([PartialBijection(300, [(x, x + 1) for x in range(1, 300)])], 301),
        ([Transformation([1] * 300), Transformation([257] * 300)], 3),
    ], ids=["cycle", "shift", "constants_equal_mod_256"])
    def test_two_byte_cells(self, gens, order):
        # degree 300 packs each image into two big-endian bytes
        m = closure(gens)
        assert len(m) == order
        rng = np.random.default_rng(0)
        for i, j in rng.integers(0, len(m), size=(2000, 2)):
            assert m.elements[m.table[i, j]] == m.elements[i] * m.elements[j]

    def test_non_closed_set_raises(self):
        cycle = Transformation([2, 3, 1])
        with pytest.raises(ValueError, match="not multiplicatively closed"):
            FiniteMonoid.from_elements([cycle], Transformation.identity(3), [cycle])

    def test_non_generating_generators_raise(self):
        # the units of I_3 are closed under products, but reach only themselves
        units = [Permutation.from_cycle(3, (1, 2)).to_partial_bijection(),
                 Permutation.from_cycle(3, (1, 2, 3)).to_partial_bijection()]
        with pytest.raises(ValueError, match="do not generate"):
            FiniteMonoid.from_elements(all_partial_bijections(3), PartialBijection.identity(3), units)

    def test_generator_outside_the_set_raises(self):
        outside = Transformation([1, 1, 1])
        with pytest.raises(ValueError, match="not multiplicatively closed"):
            FiniteMonoid.from_elements(all_permutations(3), Permutation.identity(3), [outside])

    def test_false_identity_raises(self):
        # the constant c1 is a right identity of the constants {c1, c2}, not an
        # identity, and c2 = c2 * c1 reaches every element; c1 * c2 = c1 is
        # not c2, so the identity laws fail
        c1, c2 = Transformation([1, 1]), Transformation([2, 2])
        with pytest.raises(ValueError, match="identity laws fail"):
            FiniteMonoid.from_elements([c1, c2], identity=c1, generators=[c2])

    SWAP_12 = PartialBijection(3, [(1, 2), (2, 1)])
    ID_12 = PartialBijection.partial_identity(3, [1, 2])

    @pytest.mark.parametrize("build", [
        lambda gens, e: closure(gens, identity=e),
        lambda gens, e: FiniteMonoid.from_elements([e] + gens, identity=e, generators=gens),
    ], ids=["closure", "from_elements"])
    def test_identity_need_not_be_the_family_identity(self, build):
        # the group {id on {1, 2}, (1 2) on {1, 2}} inside I_3: its identity
        # is a partial identity, not the identity map of [3]
        m = build([self.SWAP_12], self.ID_12)
        assert m.elements == (self.ID_12, self.SWAP_12)
        assert m.elements[m.identity_index] == self.ID_12
        assert m.generating_set() == (1,)
        assert m.is_group()
        assert np.array_equal(m.table, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("build", [
        lambda gens, e: closure(gens, identity=e),
        lambda gens, e: FiniteMonoid.from_elements([e, TestImageTable.SWAP_12], identity=e,
                                                   generators=gens),
    ], ids=["closure", "from_elements"])
    def test_generator_not_fixed_by_the_identity_raises(self, build):
        # (1 2) on all of [3] composes with the identity on {1, 2} to the swap
        # on {1, 2}, a group with that identity; but the generator itself is
        # not fixed by the identity, so it is not in any monoid with it
        full_swap = Permutation.from_cycle(3, (1, 2)).to_partial_bijection()
        assert full_swap * self.ID_12 == self.SWAP_12
        with pytest.raises(ValueError, match="identity laws fail: a generator is not fixed"):
            build([full_swap], self.ID_12)

    def test_is_group(self):
        assert symmetric_group(4).is_group()
        assert not symmetric_inverse_monoid(2).is_group()
        assert not full_transformation_monoid(2).is_group()


def _permutation(n):
    return st.permutations(range(1, n + 1))


def _element(kind, n):
    if kind == "S":
        return _permutation(n).map(Permutation)
    if kind == "T":
        return st.lists(st.integers(1, n), min_size=n, max_size=n).map(Transformation)
    return st.tuples(_permutation(n), st.lists(st.booleans(), min_size=n, max_size=n)).map(
        lambda pk: PartialBijection(n, [(x, y) for x, y, k in zip(range(1, n + 1), *pk) if k])
    )


@st.composite
def _generator_sets(draw):
    kind = draw(st.sampled_from("SIT"))
    if draw(st.booleans()):
        # one generator of a large degree closes to a small cyclic monoid
        return [draw(_element(kind, draw(st.integers(16, 24))))]
    n = draw(st.integers(1, 5))
    return draw(st.lists(_element(kind, n), min_size=1, max_size=3))


def _reference_product(a, b):
    """a * b composed without the image tuples' product: a dict of a's pairs
    for partial bijections, the image lists for full maps."""
    if isinstance(a, PartialBijection):
        lookup = dict(a.pairs)
        return PartialBijection(a.n, [(d, lookup[i]) for d, i in b.pairs if i in lookup])
    images = [a.images[y - 1] for y in b.images]
    both = isinstance(a, Permutation) and isinstance(b, Permutation)
    return Permutation(images) if both else Transformation(images)


class TestUncheckedProducts:
    # a product is built without its constructor's checks; rebuilding it
    # through the validating constructor raises on any broken invariant
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_full_map_product(self, data, n):
        a, b = (data.draw(st.one_of(_element("S", n), _element("T", n))) for _ in range(2))
        p = a * b
        both = isinstance(a, Permutation) and isinstance(b, Permutation)
        assert type(p) is (Permutation if both else Transformation)
        assert type(p)(p.images) == p
        assert p.n == n and all(type(x) is int for x in p.images)
        assert p.images == tuple(a.apply(b.apply(x)) for x in range(1, n + 1))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_partial_bijection_product(self, data, n):
        a, b = (data.draw(_element("I", n)) for _ in range(2))
        p = a * b
        assert type(p) is PartialBijection
        assert PartialBijection(p.n, p.pairs) == p
        assert p.n == n and all(type(x) is int for pair in p.pairs for x in pair)
        assert p.pairs == tuple((x, a.apply(b.apply(x))) for x in b.domain
                                if a.apply(b.apply(x)) is not None)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kind=st.sampled_from("SIT"), n=st.integers(1, 6))
    def test_one_encoding(self, data, kind, n):
        a, b = (data.draw(_element(kind, n)) for _ in range(2))
        p = a * b
        ref = _reference_product(a, b)
        assert p == ref and type(p) is type(ref) and hash(p) == hash(ref)
        assert a.is_idempotent() == (a * a == a)
        image = {a.apply(x) for x in range(1, n + 1)} - {None}
        assert a.rank == len(image)
        if kind == "I":
            assert PartialBijection(a.n, a.pairs) == a
            assert a.domain == tuple(x for x in range(1, n + 1) if a.apply(x) is not None)
            assert a.image == tuple(a.apply(x) for x in a.domain)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_families_stay_apart(self, data, n):
        s = data.draw(_element("I", n))
        p = data.draw(_element("S", n))
        t = data.draw(st.one_of(_element("S", n), _element("T", n)))
        for x, y in ((s, t), (t, s)):
            with pytest.raises(TypeError):
                x * y
        assert PartialBijection.identity(n) != Permutation.identity(n)
        assert Transformation.identity(n) == Permutation.identity(n)
        assert Transformation(p.images) == p
        assert hash(Transformation(p.images)) == hash(p)
        q = p.to_partial_bijection()
        checked = PartialBijection(n, [(x, p.apply(x)) for x in range(1, n + 1)])
        assert type(q) is PartialBijection
        assert q == checked and hash(q) == hash(checked)
        assert q != p and p != q
        assert PartialBijection(q.n, q.pairs) == q


class TestImageTableProperties:
    @settings(max_examples=60, deadline=None)
    @given(gens=_generator_sets(), seed=st.integers(0, 2**32 - 1))
    def test_closure_table_is_the_product_table(self, gens, seed):
        m = closure(gens)
        size = len(m)
        if size <= 100:
            cells = [(i, j) for i in range(size) for j in range(size)]
        else:
            cells = np.random.default_rng(seed).integers(0, size, size=(5000, 2))
        for i, j in cells:
            assert m.elements[m.table[i, j]] == m.elements[i] * m.elements[j]
        assert m.elements[m.identity_index] == gens[0].identity_element()
        assert tuple(m.elements[g] for g in m.generator_indices) == tuple(gens)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from("SIT"), n=st.integers(1, 3))
    def test_subsets_build_or_raise(self, data, kind, n):
        universe = {"S": all_permutations, "I": all_partial_bijections,
                    "T": all_transformations}[kind](n)
        subset = data.draw(st.lists(st.sampled_from(universe), min_size=1, unique=True))
        members = set(subset) | {subset[0].identity_element()}
        if all(a * b in members for a in members for b in members):
            assert_matches_reference(greedy_from_elements(subset))
        else:
            with pytest.raises(ValueError, match="not multiplicatively closed"):
                greedy_from_elements(subset)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), kind=st.sampled_from("SIT"), n=st.integers(1, 3))
    def test_subsets_with_generators_build_or_raise(self, data, kind, n):
        universe = {"S": all_permutations, "I": all_partial_bijections,
                    "T": all_transformations}[kind](n)
        gens = data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=4))
        identity = universe[0].identity_element()
        shape = data.draw(st.sampled_from(["random", "closure", "closure and more"]))
        if shape == "random":
            subset = data.draw(st.lists(st.sampled_from(universe), min_size=1, unique=True))
        else:
            subset = sorted(reference_closure(gens), key=canonical_key)
            if shape == "closure and more":
                subset += data.draw(st.lists(st.sampled_from(universe), min_size=1))
        outcome = generated_outcome(gens, set(subset) | {identity})
        if outcome is None:
            assert_matches_reference(FiniteMonoid.from_elements(subset, identity, gens), gens)
        else:
            with pytest.raises(ValueError, match=outcome):
                FiniteMonoid.from_elements(subset, identity, gens)

    def test_unreached_elements_report_do_not_generate(self):
        # {e, (1,2)} generated by (1,2), plus the unreached [1,2], whose
        # products leave the set: unreached elements are reported first
        swap = Permutation.from_cycle(2, (1, 2)).to_partial_bijection()
        link = cycle_link_parse("[1,2]", 2)
        members = [PartialBijection.identity(2), swap, link]
        assert swap * link not in members
        assert generated_outcome([swap], set(members)) == "do not generate"
        with pytest.raises(ValueError, match="do not generate"):
            FiniteMonoid.from_elements(members, PartialBijection.identity(2), [swap])


def old_is_group(table, e):
    """The former definition: every element has a two-sided inverse, read
    from all |S|^2 cells."""
    unit = table == e
    return bool((unit & unit.T).any(axis=1).all())


@st.composite
def _small_generator_sets(draw):
    kind = draw(st.sampled_from("SIT"))
    n = draw(st.integers(1, 5))
    return draw(st.lists(_element(kind, n), min_size=1, max_size=3))


PAIR_SPECS = [(kind, n) for kind in LATTICE_KINDS for n in range(1, 5)]


def pair_monoid(spec):
    return sgl_monoid(make_lattice(*spec)[1])[0]


class TestLeftCayleyGraph:
    """A closure-built monoid holds its left rows; products, idempotents and
    the group test read them, and agree with the table composed later."""

    @staticmethod
    def assert_graph_matches_table(m, seed):
        n = len(m)
        gens = list(m.generating_set())
        if n <= 60:
            xs, ys = (list(z) for z in zip(*itertools.product(range(n), repeat=2)))
        else:
            xs, ys = np.random.default_rng(seed).integers(0, n, size=(2, 4000)).tolist()
        assert m._table is None
        pairs = [m.mul(x, y) for x, y in zip(xs, ys)]
        right = m.columns(gens)
        left = element_rows(m, gens)
        idempotents = m.idempotent_indices()
        group = m.is_group()
        assert m._table is None  # none of them composed the table
        t = m.table
        assert all(type(x) is int for x in pairs + sum(right, []) + sum(left, []))
        assert pairs == t[xs, ys].tolist()
        assert right == t[:, gens].T.tolist()
        assert left == t[gens].tolist()
        assert idempotents == tuple(np.flatnonzero(np.diagonal(t) == np.arange(n)).tolist())
        assert group == old_is_group(t, m.identity_index)

    @settings(max_examples=80, deadline=None)
    @given(gens=_small_generator_sets(), seed=st.integers(0, 2**32 - 1))
    def test_generated_monoids(self, gens, seed):
        self.assert_graph_matches_table(closure(gens), seed)

    @pytest.mark.parametrize("spec", PAIR_SPECS, ids=lambda s: f"{s[0]}:{s[1]}")
    def test_pair_monoids(self, spec):
        self.assert_graph_matches_table(pair_monoid(spec), 0)

    @pytest.mark.parametrize("build,group", [
        (lambda: symmetric_group(4), True),
        (lambda: symmetric_inverse_monoid(3), False),
        (lambda: full_transformation_monoid(3), False),
        (lambda: pair_monoid(("subsets", 2)), False),
        (lambda: closure([PartialBijection.identity(3)]), True),
        (lambda: units_of(symmetric_inverse_monoid(3)), True),  # a given table
        (lambda: greedy_from_elements(all_transformations(2)), False),
    ], ids=["S", "I", "T", "pairs", "trivial", "units", "given_table"])
    def test_is_group(self, build, group):
        m = build()
        assert m.is_group() is group
        assert old_is_group(m.table, m.identity_index) is group


class TestFaithfulCertificate:
    """The reference certificate against corrupted inputs: each mutant raises."""

    MONOIDS = [
        lambda: symmetric_group(4),
        lambda: symmetric_inverse_monoid(3),
        lambda: full_transformation_monoid(3),
        lambda: closure([cycle_link_parse(t, 5) for t in I_FILE_GENS]),
        lambda: pair_monoid(("ordered_partitions_zero", 3)),
        lambda: pair_monoid(("set_partitions", 3)),
    ]
    IDS = ["S4", "I3", "T3", "i_file", "ordperm3", "partitions3"]

    @pytest.mark.parametrize("build", MONOIDS, ids=IDS)
    def test_built_monoids_pass(self, build):
        m = build()
        # the tree the certificate walked is the one the products read
        tree = certify_left_rows(*certificate_inputs(m))
        list(m._edges())
        assert m._tree == tree

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), which=st.integers(0, len(MONOIDS) - 1))
    def test_one_corrupted_left_cell(self, data, which):
        rows, gen_rows, left, e = certificate_inputs(self.MONOIDS[which]())
        k = data.draw(st.integers(0, len(left) - 1))
        x = data.draw(st.integers(0, len(left[k]) - 1))
        left[k][x] = data.draw(st.sampled_from(
            [z for z in range(len(left[k])) if z != left[k][x]]))
        with pytest.raises(ValueError, match="a left product disagrees"):
            certify_left_rows(rows, gen_rows, left, e)

    @pytest.mark.parametrize("build", MONOIDS, ids=IDS)
    def test_every_generator_is_checked(self, build):
        # a corrupted cell of the last generator's row, not the first's
        rows, gen_rows, left, e = certificate_inputs(build())
        assert len(left) >= 2
        left[-1][e] = left[0][e] if left[0][e] != left[-1][e] else (left[-1][e] + 1) % len(rows)
        with pytest.raises(ValueError, match="a left product disagrees"):
            certify_left_rows(rows, gen_rows, left, e)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), which=st.integers(0, len(MONOIDS) - 1))
    def test_two_elements_sharing_an_image_row(self, data, which):
        rows, gen_rows, left, e = certificate_inputs(self.MONOIDS[which]())
        others = [k for k in range(len(rows)) if k != e]
        i = data.draw(st.sampled_from(others))
        j = data.draw(st.sampled_from([k for k in range(len(rows)) if k != i]))
        rows = list(rows)
        rows[i] = rows[j]
        with pytest.raises(ValueError, match="share an image row"):
            certify_left_rows(rows, gen_rows, left, e)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), which=st.integers(0, len(MONOIDS) - 1))
    def test_wrong_identity(self, data, which):
        rows, gen_rows, left, e = certificate_inputs(self.MONOIDS[which]())
        other = data.draw(st.sampled_from([k for k in range(len(rows)) if k != e]))
        with pytest.raises(ValueError, match="identity laws fail"):
            certify_left_rows(rows, gen_rows, left, other)
        rows = list(rows)
        rows[e] = rows[other]
        with pytest.raises(ValueError, match="identity laws fail"):
            certify_left_rows(rows, gen_rows, left, e)

    def test_a_non_idempotent_identity_row_is_refused(self):
        # {id_1, e} generated by id_1 in I_3, with mu(e) swapped to the map
        # 1 -> 1, 2 -> 3, 3 -> 2: it fixes mu(id_1) on both sides and passes
        # every other check, but it is no identity, as it is not idempotent
        m = closure([pb(3, (1, 1))])
        rows, gen_rows, left, e = certificate_inputs(m)
        rows = list(rows)
        rows[e] = (1, 3, 2)
        with pytest.raises(ValueError, match="identity laws fail"):
            certify_left_rows(rows, gen_rows, left, e)

    @pytest.mark.parametrize("generator,members", [
        # fixed by the identity on {1, 2} on the right only: 1 -> 3
        (pb(3, (1, 3)), [pb(3, (1, 3)), PartialBijection.zero(3)]),
        # fixed on the left only: 3 -> 1
        (pb(3, (3, 1)), [PartialBijection.zero(3)]),
    ], ids=["right_only", "left_only"])
    @pytest.mark.parametrize("build", ["closure", "from_elements"])
    def test_a_generator_fixed_on_one_side_only_is_refused(self, generator, members, build):
        e = TestImageTable.ID_12
        with pytest.raises(ValueError, match="identity laws fail: a generator is not fixed"):
            if build == "closure":
                closure([generator], identity=e)
            else:
                FiniteMonoid.from_elements([e] + members, identity=e, generators=[generator])

    def test_an_unreached_element_is_refused(self):
        # {e, id_1, 0, id_2} in I_3 with the true left rows of id_1: every
        # row is exact, but id_2 and 0 are not reached from e
        e, id1, zero, id2 = (PartialBijection.identity(3), pb(3, (1, 1)),
                             PartialBijection.zero(3), pb(3, (2, 2)))
        found = [e, id1, zero, id2]
        rows = PartialBijection._faithful_rows(found)
        left = [[found.index(id1 * x) for x in found]]
        with pytest.raises(ValueError, match="do not reach every element"):
            certify_left_rows(rows, PartialBijection._faithful_rows([id1]), left, 0)


def subgroups(m):
    """The maximal subgroup at every idempotent of m, each with that
    idempotent as its identity."""
    classes = monoid_green(m)[0]
    return [maximal_subgroup(m, classes, e) for e in m.idempotent_indices()]


class TestSearchCertificate:
    """The closure composes each left product once, as a row, and _validate
    checks what the search does not give by construction.  Its left rows
    pass the reference certificate, which composes every one of them again,
    and corrupting what _validate checks is refused."""

    @settings(max_examples=80, deadline=None)
    @given(gens=_generator_sets())
    def test_generated_monoids_pass_the_reference(self, gens):
        certify_left_rows(*certificate_inputs(closure(gens)))

    @pytest.mark.parametrize("spec", PAIR_SPECS, ids=lambda s: f"{s[0]}:{s[1]}")
    def test_pair_monoids_pass_the_reference(self, spec):
        certify_left_rows(*certificate_inputs(pair_monoid(spec)))

    @pytest.mark.parametrize("build", [
        lambda: [closure([TestImageTable.SWAP_12], identity=TestImageTable.ID_12)],
        lambda: subgroups(symmetric_inverse_monoid(3)),
        lambda: subgroups(full_transformation_monoid(3)),
        lambda: subgroups(pair_monoid(("ordered_partitions_zero", 3))),
    ], ids=["swap_on_12", "I3", "T3", "ordperm3"])
    def test_subgroups_pass_the_reference(self, build):
        # identities that are idempotents, not the identity map
        groups = build()
        assert any(g.elements[g.identity_index] != g.elements[0].identity_element()
                   for g in groups)
        for group in groups:
            certify_left_rows(*certificate_inputs(group))

    @pytest.mark.parametrize("which", [1, 2, 317, 630])
    def test_a_wrong_element_product_is_refused(self, monkeypatch, which):
        # the which-th element made is the identity, not a_k * x: its own row
        # is not the row it was found at (vi)
        gens = [cycle_link_parse(t, 5) for t in I_FILE_GENS]
        made, mul = [], PartialBijection.__mul__

        def wrong(a, b):
            made.append(1)
            return PartialBijection.identity(5) if len(made) == which else mul(a, b)

        monkeypatch.setattr(PartialBijection, "__mul__", wrong)
        with pytest.raises(ValueError, match="image row is not the row it was found at"):
            closure(gens)

    @pytest.mark.parametrize("which", [1, 50])
    def test_a_wrong_pair_product_is_refused(self, monkeypatch, which):
        _, action = make_lattice("ordered_partitions_zero", 3)
        made, mul = [], SGLElement.__mul__

        def wrong(a, b):
            made.append(1)
            product = mul(a, b)
            return product.identity_element() if len(made) == which else product

        monkeypatch.setattr(SGLElement, "__mul__", wrong)
        with pytest.raises(ValueError, match="image row is not the row it was found at"):
            sgl_monoid(action)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), which=st.integers(0, len(TestFaithfulCertificate.MONOIDS) - 1))
    def test_a_wrong_identity_is_refused(self, data, which):
        # each of these generating sets holds a unit other than e, so no
        # other element is an identity for it: (i) or (iv) fails
        m = TestFaithfulCertificate.MONOIDS[which]()
        gens = [m.elements[g] for g in m.generating_set()]
        other = data.draw(st.sampled_from([x for x in m.elements
                                           if x != m.elements[m.identity_index]]))
        with pytest.raises(ValueError, match="identity laws fail"):
            closure(gens, identity=other)

    def test_a_non_idempotent_identity_is_refused(self):
        # 1 -> 1, 2 -> 3, 3 -> 2 fixes id_1 on both sides, and each element
        # made has its row, but it is no identity, as it is not idempotent (i)
        with pytest.raises(ValueError, match="^identity laws fail$"):
            closure([pb(3, (1, 1))], identity=pb(3, (1, 1), (2, 3), (3, 2)))


class TestBuildBudget:
    def test_default_cap_admits_every_closure_of_degree_6(self):
        # a degree-6 generating set closes within T_6 or I_6, and the
        # certificate rows of the cap's elements fit the budget
        assert DEFAULT_CLOSURE_CAP == 6 ** 6 > in_order_formula(6)
        assert DEFAULT_CLOSURE_CAP * row_bytes(6) <= BUILD_BYTES_BUDGET

    def test_budget_sizes(self):
        assert in_order_formula(6) * row_bytes(6) <= BUILD_BYTES_BUDGET  # I_6
        assert 6 ** 6 * row_bytes(6) <= BUILD_BYTES_BUDGET  # T_6
        assert 13327 * row_bytes(64) <= BUILD_BYTES_BUDGET  # SGL:subsets:6
        assert 52666 * row_bytes(203) > BUILD_BYTES_BUDGET  # SGL:partitions:6
        assert 32952 * row_bytes(542) > BUILD_BYTES_BUDGET  # SGL:ordperm:5, its orbit bound

    def test_over_budget_raises_before_the_rows_are_built(self, monkeypatch):
        # the 24 elements of S_4, rows of 4 points: one byte short stops the
        # search at 23, before _validate runs
        gens = [Permutation.from_cycle(4, (1, 2)), Permutation.from_cycle(4, range(1, 5))]
        monkeypatch.setattr(elements_module, "BUILD_BYTES_BUDGET", 24 * row_bytes(4) - 1)
        monkeypatch.setattr(FiniteMonoid, "_validate", None)  # never reached
        with pytest.raises(ClosureCapError, match="cap of 23 elements"):
            FiniteMonoid.from_elements(all_permutations(4), Permutation.identity(4), gens)
        with pytest.raises(ClosureCapError, match="cap of 23 elements"):
            closure(gens, cap=100)
        monkeypatch.undo()
        monkeypatch.setattr(elements_module, "BUILD_BYTES_BUDGET", 24 * row_bytes(4))
        assert len(FiniteMonoid.from_elements(all_permutations(4), Permutation.identity(4), gens)) == 24
        assert len(closure(gens, cap=24)) == 24


def product_reference(*factors):
    """The product table cell by cell, from the factors' own tables."""
    elements = list(itertools.product(*(range(len(m)) for m in factors)))
    index = {t: k for k, t in enumerate(elements)}
    return np.array([
        [index[tuple(m.mul(x, y) for m, x, y in zip(factors, a, b))] for b in elements]
        for a in elements
    ])


class TestProductMonoid:
    def test_table_is_the_coordinatewise_product(self):
        factors = (symmetric_inverse_monoid(2), full_transformation_monoid(2), symmetric_group(3))
        p = product_monoid(*factors)
        assert len(p) == 7 * 4 * 6
        assert np.array_equal(p.table, product_reference(*factors))
        e = p.elements[p.identity_index]
        assert e == tuple(m.elements[m.identity_index] for m in factors)

    def test_a_table_over_the_budget_is_refused_before_numpy_allocates_it(self, monkeypatch):
        # |S_3 x S_2| = 12; a budget one byte short of its two-byte table
        # refuses the table, not the monoid
        p = product_monoid(symmetric_group(3), symmetric_group(2))
        monkeypatch.setattr(elements_module, "BUILD_BYTES_BUDGET", 12 ** 2 * 2 - 1)
        with pytest.raises(ClosureCapError, match="Cayley table of 12 elements .* build budget"):
            p.table
        assert p._table is None
        monkeypatch.setattr(elements_module, "BUILD_BYTES_BUDGET", 12 ** 2 * 2)
        assert np.array_equal(p.table, product_reference(symmetric_group(3), symmetric_group(2)))


def units_of(m):
    return maximal_subgroup(m, monoid_green(m)[0], m.identity_index)


def table_subgroup(m, classes, e):
    """The former maximal_subgroup: H_e with its greedy generating set, built
    from its elements (greedy_from_elements), whose table is the products of H_e
    gathered from the monoid's table and renumbered."""
    members = np.asarray(classes.hclasses[classes.hclass_of[e]], dtype=np.intp)
    position = np.zeros(len(m), dtype=np.intp)
    position[members] = np.arange(len(members))
    group = greedy_from_elements([m.elements[x] for x in members], m.elements[e])
    assert group.identity_index == position[e]
    assert np.array_equal(group.table, position[m.table[np.ix_(members, members)]])
    return group


def block_summed_product(*factors):
    """The former product_monoid table: stride_k * t_k[c_k(i), c_k(j)]
    summed over the factors, and its generators."""
    sizes = [len(m) for m in factors]
    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    flat = np.arange(math.prod(sizes))
    table = np.zeros((len(flat), len(flat)), dtype=np.intp)
    for m, stride, size in zip(factors, strides, sizes):
        c = (flat // stride) % size
        table += stride * m.table[np.ix_(c, c)].astype(np.intp)
    identity = sum(m.identity_index * s for m, s in zip(factors, strides))
    gens = tuple(identity + (g - m.identity_index) * stride
                 for m, stride in zip(factors, strides) for g in m.generating_set())
    return table, identity, gens


def greedy_rebuild(m):
    """m built again from its elements alone, with the greedy generating set."""
    return greedy_from_elements(m.elements, m.elements[m.identity_index])


SMALL_FACTORS = [
    lambda: symmetric_group(1),
    lambda: symmetric_group(3),
    lambda: symmetric_inverse_monoid(2),
    lambda: full_transformation_monoid(2),
    lambda: closure([Transformation([2, 2, 3]), Transformation([1, 3, 1])]),
    lambda: closure([TestImageTable.SWAP_12], identity=TestImageTable.ID_12),
    lambda: greedy_rebuild(full_transformation_monoid(2)),  # the greedy generating set
    lambda: pair_monoid(("subsets", 2)),
]


class TestFormerTableRoutes:
    """The routes that handed tables to the constructor, kept as oracles for
    the graph-built monoids that replace them."""

    @pytest.mark.parametrize("build", [
        lambda: symmetric_inverse_monoid(3),
        lambda: symmetric_inverse_monoid(4),
        lambda: full_transformation_monoid(3),
        lambda: full_transformation_monoid(4),
        *[lambda kind=kind: pair_monoid((kind, 3)) for kind in LATTICE_KINDS],
    ], ids=["I3", "I4", "T3", "T4", *[f"{kind}3" for kind in LATTICE_KINDS]])
    def test_maximal_subgroups_match_the_table_route(self, build):
        m = build()
        classes = monoid_green(m)[0]
        for e in m.idempotent_indices():
            group, old = maximal_subgroup(m, classes, e), table_subgroup(m, classes, e)
            assert group.elements == old.elements
            assert group.identity_index == old.identity_index
            assert np.array_equal(group.table, old.table)
            assert group.generating_set() == old.generating_set()
            assert maximal_subgroup(m, classes, e) is group  # closed once

    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(st.integers(0, len(SMALL_FACTORS) - 1), min_size=1, max_size=3))
    def test_product_monoid_matches_the_block_summed_table(self, picks):
        factors = [SMALL_FACTORS[k]() for k in picks]
        p = product_monoid(*factors)
        table, identity, gens = block_summed_product(*factors)
        assert p.elements == tuple(itertools.product(*(m.elements for m in factors)))
        assert p.identity_index == identity
        assert p.generating_set() == gens
        assert np.array_equal(p.table, table)

    @pytest.mark.parametrize("build", [
        lambda: (all_permutations(3), None),
        lambda: (all_partial_bijections(2), None),
        lambda: (all_transformations(2), None),
        lambda: (all_transformations(3), None),
        lambda: (maximal_subgroup_at(make_lattice("subsets", 3)[1], 6).elements, None),
        lambda: ([TestImageTable.ID_12, TestImageTable.SWAP_12], TestImageTable.ID_12),
    ], ids=["S3", "I2", "T2", "T3", "pair_subgroup", "partial_identity"])
    def test_from_elements_records_the_constructors_greedy_set(self, build):
        els, identity = build()
        m = greedy_from_elements(els, identity)
        given = greedy_rebuild(m)
        assert m.generating_set() == given.generating_set()
        assert_matches_reference(m)  # the table and greedy set by Python products


class TestStoredGeneratorGraphs:
    @pytest.mark.parametrize("build", [
        lambda: symmetric_group(4),
        lambda: symmetric_inverse_monoid(3),
        lambda: full_transformation_monoid(3),
        lambda: product_monoid(symmetric_group(3), symmetric_inverse_monoid(2)),
        lambda: sgl_monoid(make_lattice("ordered_partitions_zero", 3)[1])[0],
        lambda: units_of(symmetric_inverse_monoid(3)),
    ], ids=["S", "I", "T", "product", "pair_monoid", "maximal_subgroup"])
    def test_the_stored_rows_and_columns_are_the_generators(self, build):
        m = build()
        gens = m.generating_set()
        assert m._left == element_rows(m, gens)
        assert m._generator_columns() == m.columns(gens)
        assert m._generator_columns() is m._generator_columns()  # composed once


class TestTwoByteCells:
    BUILDERS = [
        lambda: symmetric_group(4),
        lambda: symmetric_inverse_monoid(3),
        lambda: full_transformation_monoid(3),
        lambda: closure(T_FILE_GENS),
        lambda: closure([cycle_link_parse(t, 5) for t in I_FILE_GENS]),
        lambda: product_monoid(symmetric_group(3), symmetric_inverse_monoid(2)),
        lambda: sgl_monoid(make_lattice("ordered_partitions_zero", 3)[1])[0],
        # pairs multiplied by Python products: the maximal subgroup at {2, 3}
        lambda: maximal_subgroup_at(make_lattice("subsets", 3)[1], 6),
        lambda: units_of(symmetric_inverse_monoid(3)),
        lambda: greedy_rebuild(full_transformation_monoid(3)),
    ]
    BUILDER_IDS = ["S", "I", "T", "t_file", "i_file", "product", "pair_monoid",
                   "pair_subgroup", "maximal_subgroup", "greedy"]

    def test_budget_admits_only_two_byte_indices(self):
        # the largest table the budget admits has 11585 rows, each index a uint16
        assert math.isqrt(BUILD_BYTES_BUDGET // np.dtype(np.uint16).itemsize) == 11585
        assert 11585 <= np.iinfo(np.uint16).max + 1
        with pytest.raises(ClosureCapError, match="Cayley table of 14400 elements"):
            product_monoid(symmetric_group(5), symmetric_group(5)).table

    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_every_builder_allocates_two_byte_cells(self, build):
        m = build()
        assert m.table.dtype == np.uint16
        assert m.table.nbytes == 2 * len(m) ** 2

    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_every_builder_writes_int_indices_in_range(self, build):
        # every cell, the identity and every generator index an int in
        # 0..n-1: what the two-byte cells hold exactly, and what the rows and
        # columns index without wrapping from the end
        m = build()
        n = len(m)
        cells = [x for row in m._left for x in row]
        cells += [m.identity_index, *m.generator_indices]
        assert all(type(x) is int and 0 <= x < n for x in cells)

    def test_full_transformation_monoid_peak_is_the_table(self):
        tracemalloc.start()
        try:
            m = full_transformation_monoid(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(m) == 3125
        assert peak < 2.5 * len(m) ** 2


def generated_by(m, gens) -> list:
    """The indices x * w for the words w in gens, from x = the identity,
    breadth first over the generator columns read from m's products."""
    return elements_module._reach(m.columns(gens), m.identity_index)[0]


class TestGreedyGenerators:
    def test_validation_keeps_the_greedy_set(self, monkeypatch):
        t4 = full_transformation_monoid(4)
        calls = []
        greedy = elements_module._greedy_generators
        monkeypatch.setattr(elements_module, "_greedy_generators",
                            lambda *args: calls.append(1) or greedy(*args))
        m = greedy_rebuild(t4)
        assert len(calls) == 1  # recorded at construction
        gens = m.generator_indices
        assert m.generating_set() == gens == m.generating_set()
        assert len(calls) == 1
        assert len(generated_by(m, gens)) == len(m)


class TestCycleLink:
    def test_link_notation(self):
        s = pb(3, (1, 2), (2, 3))  # 1->2->3, 3 undefined
        assert cycle_link_format(s) == "[1,2,3]"

    def test_single_link_reversed(self):
        # j -> i with j > i keeps the arrow order in the bracket
        assert cycle_link_format(pb(3, (3, 1))) == "[3,1]"

    def test_blocks_sorted_by_least_point(self):
        # the link headed by 3 holds 1, so it precedes the one headed by 2
        assert cycle_link_format(pb(4, (2, 4), (3, 1))) == "[3,1][2,4]"
        assert cycle_link_format(pb(5, (1, 4), (2, 5), (3, 3), (4, 1))) == "(1,4)(3)[2,5]"

    def test_full_cycle(self):
        assert cycle_link_format(pb(3, (1, 2), (2, 3), (3, 1))) == "(1,2,3)"

    def test_zero_map(self):
        assert cycle_link_format(PartialBijection.zero(3)) == "0"
        assert cycle_link_parse("0", 3) == PartialBijection.zero(3)

    def test_roundtrip_i3(self):
        for s in all_partial_bijections(3):
            assert cycle_link_parse(cycle_link_format(s), 3) == s

    def test_parse_errors(self):
        with pytest.raises(ElementParseError):
            cycle_link_parse("(1,1)", 3)  # repeated point
        with pytest.raises(ElementParseError):
            cycle_link_parse("(1,4)", 3)  # out of range
        with pytest.raises(ElementParseError):
            cycle_link_parse("(1,2", 3)  # malformed bracket
        with pytest.raises(ElementParseError):
            cycle_link_parse("[1]", 3)  # a link needs two points
        with pytest.raises(ElementParseError):
            cycle_link_parse("(1)x(2)", 3)  # junk between blocks
