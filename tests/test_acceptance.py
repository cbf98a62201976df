"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (add -s to watch the lines).
Every expected value is exact; the three timed criteria assert their stated
wall-clock bounds.
"""

import io
import pathlib
import time
from collections import Counter
from math import comb, factorial

import numpy as np
import pytest

from monoidrep.cli import run as cli_run
from monoidrep.cliffmunn import (
    annihilator,
    apex,
    cm_catalog,
    cm_roundtrip_check,
    decompose,
    induce_raw,
    monoid_green,
    reduce_rep,
    renner_permutohedron_catalog,
    semisimple_predicate,
)
from monoidrep.elements import (
    PartialBijection,
    Transformation,
    all_partial_bijections,
    full_transformation_monoid,
    symmetric_inverse_monoid,
)
from monoidrep.green import eggbox, green_structure, hclass_decompose, transversal
from monoidrep.lattice import (
    make_lattice,
    partition_lattice_report,
    sgl_monoid,
    sgl_order,
    subsets_to_partial_bijection,
)
from monoidrep.linrep import (
    char_equal,
    commutant_dim,
    direct_sum,
    exterior_power,
    mapping_rep,
    one_dim_invariant_lines,
    restrict_rep,
    spin,
    trivial_rep,
)
from monoidrep.specht import partitions, specht_rep, standard_tableaux_count, tabloid_module

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def report(k, text):
    print(f"ACCEPTANCE {k:>2}: {text} PASS")


@pytest.fixture(scope="module")
def i3():
    return symmetric_inverse_monoid(3)


@pytest.fixture(scope="module")
def t3():
    return full_transformation_monoid(3)


@pytest.fixture(scope="module")
def i3_catalog(i3):
    return cm_catalog(i3)


@pytest.fixture(scope="module")
def renner3():
    monoid, _ = sgl_monoid(make_lattice("ordered_partitions_zero", 3)[1])
    return (monoid, *renner_permutohedron_catalog(monoid))


def test_criterion_01_orders_by_enumeration():
    start = time.monotonic()
    expected = {1: 2, 2: 7, 3: 34, 4: 209}
    for n, value in expected.items():
        enumerated = len(all_partial_bijections(n))
        formula = sum(comb(n, m) ** 2 * factorial(m) for m in range(n + 1))
        assert enumerated == formula == value
    assert len(full_transformation_monoid(3)) == 27
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"|I_1..4| = 2,7,34,209 and |T_3| = 27 in {elapsed:.2f}s")


def test_criterion_02_sgl_order_formula():
    values = {}
    for n in (1, 2, 3, 4):
        _, action = make_lattice("subsets", n)
        r = sgl_order(action)
        assert r.agree
        values[("subsets", n)] = r.formula_total
    assert [values[("subsets", n)] for n in (1, 2, 3, 4)] == [2, 7, 34, 209]
    for n in (1, 2, 3, 4):
        _, action = make_lattice("set_partitions", n)
        r = sgl_order(action)
        assert r.agree
        if n == 3:
            assert r.formula_total == 16
    for n, expected in ((3, 79), (4, 1801)):
        _, action = make_lattice("ordered_partitions_zero", n)
        r = sgl_order(action)
        assert r.agree and r.formula_total == expected
    report(2, "formula == enumeration for all three lattice kinds")


def test_criterion_03_subsets_pairs_isomorphic_to_in():
    for n in (1, 2, 3):
        _, action = make_lattice("subsets", n)
        monoid, _ = sgl_monoid(action)
        target = symmetric_inverse_monoid(n)
        mapping = [target.index(subsets_to_partial_bijection(e)) for e in monoid.elements]
        assert sorted(mapping) == list(range(len(target)))
        for i in range(len(monoid)):
            for j in range(len(monoid)):
                assert mapping[monoid.mul(i, j)] == target.table[mapping[i], mapping[j]]
    for n in (1, 2, 3, 4):
        _, action = make_lattice("subsets", n)
        monoid, _ = sgl_monoid(action)
        target = symmetric_inverse_monoid(n)
        ca, pa = green_structure(monoid)
        cb, pb = green_structure(target)
        for field in ("lclasses", "rclasses", "hclasses", "jclasses"):
            assert sorted(map(len, getattr(ca, field))) == sorted(map(len, getattr(cb, field)))
        assert pa.count == pb.count == n + 1
        sizes = [sorted(bin(up).count("1") for up in p.leq) for p in (pa, pb)]
        assert sizes[0] == sizes[1]
    report(3, "restriction map is a table isomorphism; green profiles agree to n=4")


def test_criterion_04_green_structure(t3):
    for n in (1, 2, 3, 4):
        m = symmetric_inverse_monoid(n)
        classes, poset = green_structure(m)
        by_rank = {}
        for j, members in enumerate(classes.jclasses):
            by_rank[m.elements[members[0]].rank] = j
        for rank, j in by_rank.items():
            assert len(classes.jclasses[j]) == comb(n, rank) ** 2 * factorial(rank)
            box = eggbox(m, classes, j)
            assert len(box.row_rclasses) == comb(n, rank)
            assert len(box.col_lclasses) == comb(n, rank)
            for r in range(len(box.row_rclasses)):
                for c in range(len(box.col_lclasses)):
                    assert box.idempotent_cells[r][c] == (r == c)
    classes_t, _ = green_structure(t3)
    assert sorted(len(c) for c in classes_t.jclasses) == [3, 6, 18]
    # unique Green's-lemma factorization over L_e for all idempotents, n <= 3
    for m in (symmetric_inverse_monoid(3), t3):
        classes, _ = green_structure(m)
        for e in m.idempotent_indices():
            trans = transversal(m, classes, e)
            ge = classes.hclasses[classes.hclass_of[e]]
            for t in classes.lclasses[classes.lclass_of[e]]:
                i, g = hclass_decompose(m, classes, trans, t)
                assert m.table[trans.reps[i], g] == t
                count = sum(
                    1 for s in trans.reps for h in ge if m.table[s, h] == t
                )
                assert count == 1
    report(4, "J-sizes, eggbox shapes, diagonal idempotents, unique sg-factorization")


def test_criterion_05_specht_suite():
    start = time.monotonic()
    for n in range(1, 6):
        dims = []
        for lam in partitions(n):
            sd = specht_rep(lam)
            assert sd.rep.dim == standard_tableaux_count(lam)
            assert commutant_dim(sd.rep) == 1
            dims.append(sd.rep.dim)
        assert sum(d * d for d in dims) == factorial(n)
    assert sorted(specht_rep(lam).rep.dim for lam in partitions(3)) == [1, 1, 2]
    refl = specht_rep((2, 1))
    group = refl.rep.monoid
    for k, g in enumerate(group.elements):
        fixed = sum(1 for i in (1, 2, 3) if g.apply(i) == i)
        expected = {3: 2, 1: 0, 0: -1}[fixed]
        assert refl.rep.character()[k] == expected
    for n in (4, 5):
        base = specht_rep((n - 1, 1)).rep
        for p in range(1, n):
            target = specht_rep((n - p,) + (1,) * p).rep
            assert char_equal(exterior_power(base, p).character(), target.character())
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(5, f"dims, completeness, characters, exterior powers in {elapsed:.2f}s")


def test_criterion_06_reduction_and_apex(i3, t3):
    v = mapping_rep(i3)
    classes, poset = monoid_green(i3)
    apx, support = apex(v)
    rank = lambda j: i3.elements[classes.jclasses[j][0]].rank
    assert rank(apx) == 1
    assert {rank(j) for j in support} == {1, 2, 3}
    assert set(support) == {j for j in range(poset.count) if poset.leq[apx] >> j & 1}
    for m in (1, 2, 3):
        e = i3.index(PartialBijection.partial_identity(3, range(1, m + 1)))
        red = reduce_rep(v, e)
        for k, el in enumerate(red.group.elements):
            assert red.rep.character()[k] == sum(1 for d, i in el.pairs if d == i)
    vt = mapping_rep(t3)
    w = restrict_rep(vt, spin(vt, [(1, -1, 0)]))
    classes_t, _ = monoid_green(t3)
    apx_t, _ = apex(w)
    assert t3.elements[classes_t.jclasses[apx_t][0]].rank == 2
    # all idempotents in a J-class give the same reduction, up to iso
    for j in range(len(classes.jclasses)):
        idems = [i for i in classes.jclasses[j] if i3.table[i, i] == i]
        reds = [reduce_rep(v, e) for e in idems]
        keys = {
            (r.rep.dim, tuple(sorted(r.rep.character()))) if r.rep else (0, ())
            for r in reds
        }
        assert len(keys) == 1
    report(6, "apexes J1/J2 with interval support; reductions match S_m characters")


def test_criterion_07_induction_examples(i3, t3, i3_catalog, renner3):
    classes, _ = monoid_green(i3)
    e0 = i3.index(PartialBijection.zero(3))
    from monoidrep.green import maximal_subgroup
    g0 = maximal_subgroup(i3, classes, e0)
    u0 = induce_raw(i3, e0, trivial_rep(g0))
    assert annihilator(u0).dim == 0
    assert u0.rep.dim == 1 and all(c == 1 for c in u0.rep.character())
    e1 = i3.index(PartialBijection.partial_identity(3, [1]))
    g1 = maximal_subgroup(i3, classes, e1)
    u1 = induce_raw(i3, e1, trivial_rep(g1))
    assert annihilator(u1).dim == 0
    assert char_equal(u1.rep.character(), mapping_rep(i3).character())
    classes_t, _ = monoid_green(t3)
    ec = t3.index(Transformation([1, 1, 1]))
    gc = maximal_subgroup(t3, classes_t, ec)
    raw = induce_raw(t3, ec, trivial_rep(gc))
    ann = annihilator(raw)
    assert ann.dim == raw.rep.dim - 1 == 2
    from monoidrep.cliffmunn import induce
    q = induce(t3, ec, trivial_rep(gc))
    assert q.dim == 1 and all(c == 1 for c in q.character())
    for en in i3_catalog:
        assert annihilator(induce_raw(i3, en.idempotent, en.group_rep)).dim == 0
    monoid_r, cat_r, _ = renner3
    for en in cat_r:
        assert annihilator(induce_raw(monoid_r, en.idempotent, en.group_rep)).dim == 0
    report(7, "trivial inductions, T_3 hyperplane annihilator, zero annihilators")


def test_criterion_08_t3_non_semisimplicity_witness(t3):
    v = mapping_rep(t3)
    w = spin(v, [(1, -1, 0)])
    assert 0 < w.dim < v.dim
    assert one_dim_invariant_lines(v) == ()
    # a decomposition containing W would need an invariant line as the
    # complement; none exists, so V does not decompose
    assert v.dim - w.dim == 1
    assert commutant_dim(v) == 1  # the trap: scalar commutant, yet reducible
    with pytest.raises(ValueError):
        from monoidrep.linrep import is_irreducible
        is_irreducible(v, "semisimple")
    assert semisimple_predicate(t3, 0).status == "unknown"
    report(8, "invariant hyperplane, no eigenlines, commutant trap refused")


def test_criterion_09_clifford_munn_catalogs(i3, i3_catalog, renner3):
    start = time.monotonic()
    assert len(i3_catalog) == 7
    assert sorted(en.dim for en in i3_catalog) == [1, 1, 1, 2, 3, 3, 3]
    assert sum(en.dim ** 2 for en in i3_catalog) == 34
    for en in i3_catalog:
        assert cm_roundtrip_check(i3, en)
    i4 = symmetric_inverse_monoid(4)
    cat4 = cm_catalog(i4)
    assert len(cat4) == 12
    assert sum(en.dim ** 2 for en in cat4) == 209
    for en in cat4:
        assert cm_roundtrip_check(i4, en)
    monoid_r, cat_r, report_r = renner3
    assert len(cat_r) == 9
    assert sum(en.dim ** 2 for en in cat_r) == 79
    assert report_r.poset_matches_compositions and report_r.young_orders_match
    assert set(report_r.jclass_types) == {(), (1, 1, 1), (1, 2), (2, 1), (3,)}
    for en in cat_r:
        assert cm_roundtrip_check(monoid_r, en)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(9, f"I_3 (7), I_4 (12), permutohedron (9) with roundtrips in {elapsed:.2f}s")


def test_criterion_10_jordan_holder_stability():
    for n in (2, 3, 4):
        tm = tabloid_module((n - 1, 1), range(1, n + 1))
        refl = specht_rep((n - 1, 1)).rep
        for rep in (tm, direct_sum(tm, refl)):
            a = Counter(tuple(f.character()) for f in decompose(rep))
            b = Counter(tuple(f.character()) for f in decompose(rep, seed_order="reversed"))
            assert a == b
    report(10, "decompose character multisets identical under both seed orders")


def test_criterion_11_partition_lattice_discrepancy_flagged():
    _, action4 = make_lattice("set_partitions", 4)
    rep4 = partition_lattice_report(action4, sgl_order(action4))
    assert rep4.definitional_order == 175  # formula == enumeration, by sgl_order
    assert rep4.young_formula_value == 131
    assert not rep4.matches_young_formula
    assert any("FLAG" in line for line in rep4.flag_lines())
    _, action3 = make_lattice("set_partitions", 3)
    rep3 = partition_lattice_report(action3, sgl_order(action3))
    assert rep3.definitional_order == rep3.young_formula_value == 16
    buf = io.StringIO()
    assert cli_run(["order", "SGL:partitions:4"], out=buf) == 0
    assert "FLAG: definitional order differs" in buf.getvalue()
    report(11, "definitional order 175 reported and flagged against 131")


def test_criterion_12_cli_golden_files():
    cases = {
        "order_i3": ["order", "I:3"],
        "order_sgl_ordperm3": ["order", "SGL:ordperm:3"],
        "order_s1": ["order", "S:1"],
        "eggbox_i3_all": ["eggbox", "I:3", "--all"],
        "eggbox_t3_constants": ["eggbox", "T:3", "--jclass", "constants"],
        "eggbox_s3": ["eggbox", "S:3"],
        "irreps_i3_check": ["irreps", "I:3", "--check"],
        "irreps_sgl_ordperm3_check": ["irreps", "SGL:ordperm:3", "--check"],
        "irreps_i1": ["irreps", "I:1"],
        "rep_t3_mapping": ["rep", "T:3", "--build", "mapping"],
        "rep_s4_specht_211": ["rep", "S:4", "--build", "specht:(2,1,1)"],
        "rep_i3_induce_j1_1": ["rep", "I:3", "--build", "induce:J1:(1)"],
    }
    for name, argv in cases.items():
        buf = io.StringIO()
        assert cli_run(argv, out=buf) == 0
        assert buf.getvalue() == (GOLDEN_DIR / f"{name}.txt").read_text(), name
    report(12, "all 12 command invocations byte-identical to golden files")
