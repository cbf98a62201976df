import ast
import gc
import importlib
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import time
from collections import Counter

import pytest

import monoidrep
from monoidrep.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    SpecError,
    _build_rep,
    fmt_label,
    parse_and_build,
    parse_label,
    run,
)
from monoidrep import cli, cliffmunn, elements, green, lattice, specht
from monoidrep.cliffmunn import cm_catalog, induce
from monoidrep.elements import FiniteMonoid
from monoidrep.linrep import Representation
from monoidrep.specht import partitions
from cli_cases import (
    EXIT_CASES, GOLDEN_CASES, GOLDEN_DIR, LINE_CASES, TIMED_GOLDEN_CASES, failures,
)
from oracles import parse_representation_payload


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR.parent.parent)  # generator-file paths are repo-relative
    code, text = invoke(GOLDEN_CASES[name])
    assert code == EXIT_OK
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert text == expected


@pytest.mark.parametrize("argv,expected", EXIT_CASES, ids=[shlex.join(argv) for argv, _ in EXIT_CASES])
def test_exit_code(argv, expected, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR.parent.parent)
    assert invoke(argv)[0] == expected


@pytest.mark.parametrize("argv,line", LINE_CASES, ids=[shlex.join(argv) for argv, _ in LINE_CASES])
def test_checked_line(argv, line, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR.parent.parent)
    code, text = invoke(argv)
    assert code == EXIT_OK and line in text.splitlines()


def test_every_golden_file_is_a_case():
    on_disk = {path.stem for path in GOLDEN_DIR.glob("*.txt")}
    assert on_disk == set(GOLDEN_CASES) | set(TIMED_GOLDEN_CASES)
    assert not set(GOLDEN_CASES) & set(TIMED_GOLDEN_CASES)


def right_answers():
    """A stand-in for the installed command, {argv: (exit code, stdout)},
    that answers every case right."""
    answers = {tuple(argv): (EXIT_OK, (GOLDEN_DIR / f"{name}.txt").read_bytes())
               for name, argv in {**GOLDEN_CASES, **TIMED_GOLDEN_CASES}.items()}
    answers.update({tuple(argv): (code, b"") for argv, code in EXIT_CASES})
    answers.update({tuple(argv): (EXIT_OK, f"x\n{line}\n".encode()) for argv, line in LINE_CASES})
    return answers


def test_the_runner_names_each_failure():
    answers = right_answers()
    assert failures(lambda argv: answers[tuple(argv)]) == []
    # one golden byte and one exit code changed
    code, text = answers[("order", "I:3")]
    answers[("order", "I:3")] = code, text.replace(b"34", b"35")
    answers[("order", "gens:tests")] = (EXIT_CAP, b"")
    assert [line.split(":")[0] for line in failures(lambda argv: answers[tuple(argv)])] == [
        "order_i3", "monoidrep order gens"]


# (name the runner reports, argv, the wrong answer) for every case: a golden
# one byte short, an exit code one off, a checked line missing
RUNNER_MUTANTS = (
    [(name, argv, "byte") for name, argv in {**GOLDEN_CASES, **TIMED_GOLDEN_CASES}.items()]
    + [(f"monoidrep {shlex.join(argv)}", argv, "code") for argv, _ in EXIT_CASES]
    + [(f"monoidrep {shlex.join(argv)}", argv, "line") for argv, _ in LINE_CASES])


@pytest.mark.parametrize("name,argv,wrong", RUNNER_MUTANTS, ids=[m[0] for m in RUNNER_MUTANTS])
def test_the_runner_checks_every_case(name, argv, wrong):
    # the installed-entry-point step runs no case the runner skips: each
    # case, answered wrong alone, is the one failure named
    answers = right_answers()
    code, out = answers[tuple(argv)]
    answers[tuple(argv)] = {"byte": (code, out[:-1]), "code": (code + 1, out),
                            "line": (code, b"x\n")}[wrong]
    found = failures(lambda argv: answers[tuple(argv)])
    assert len(found) == 1 and found[0].startswith(f"{name}: ")


def test_reports_are_deterministic():
    for argv in (GOLDEN_CASES["irreps_i3_check"], GOLDEN_CASES["order_sgl_ordperm3"]):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


class TestSpecParsing:
    @pytest.mark.parametrize("bad", [
        "X:3", "I", "I:0", "I:nine", "SGL:cubes:3", "SGL:subsets", "I:40",
    ])
    def test_bad_specs_exit_2(self, bad):
        code, _ = invoke(["order", bad])
        assert code == EXIT_PARSE

    def test_gens_file(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("I 2\n(1,2)\n(1)\n")
        code, text = invoke(["order", f"gens:{path}"])
        assert code == EXIT_OK
        assert "order: 7" in text

    def test_gens_file_comment_lines(self, tmp_path):
        # a line whose text starts with '#' once stripped is a comment,
        # indented or not
        path = tmp_path / "gens.txt"
        path.write_text("# the cyclic group C_3 in I_3\nI 3\n  # note\n(1,2,3)\n\t# end\n")
        code, text = invoke(["order", f"gens:{path}"])
        assert code == EXIT_OK
        assert "order: 3\n" in text

    def test_gens_file_transformations(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("T 3\n[2,3,1]\n[2,1,3]\n[1,1,2]\n")
        code, text = invoke(["order", f"gens:{path}"])
        assert code == EXIT_OK
        assert "order: 27" in text

    def test_gens_file_transformation_degree_exit_2(self, tmp_path):
        # every transformation must have the header's degree
        path = tmp_path / "gens.txt"
        path.write_text("T 5\n[2,1,3]\n[1,1,3]\n")
        code, _ = invoke(["order", f"gens:{path}"])
        assert code == EXIT_PARSE
        path.write_text("T 3\n[2,1,3]\n[1,1,3,4]\n")
        code, _ = invoke(["order", f"gens:{path}"])
        assert code == EXIT_PARSE

    def test_gens_file_bad_element_exit_2(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("I 2\n(1,5)\n")
        code, _ = invoke(["order", f"gens:{path}"])
        assert code == EXIT_PARSE

    def test_missing_file_exit_2(self):
        code, _ = invoke(["order", "gens:/nonexistent/file.txt"])
        assert code == EXIT_PARSE

    def test_directory_as_generator_file_exit_2(self, tmp_path, capsys):
        code, _ = invoke(["order", f"gens:{tmp_path}"])
        assert code == EXIT_PARSE
        assert "Is a directory" in capsys.readouterr().err

    def test_directory_as_out_path_exit_2(self, tmp_path, capsys):
        code, text = invoke(["rep", "I:2", "--build", "mapping", "--out", str(tmp_path)])
        assert code == EXIT_PARSE
        assert text == ""
        assert "Is a directory" in capsys.readouterr().err

    def test_reduce_at_a_class_without_idempotent_exit_2(self, tmp_path, capsys):
        # {1, a, 0} with a = [1 -> 2]: the class of a holds no idempotent
        path = tmp_path / "gens.txt"
        path.write_text("I 2\n[1,2]\n")
        code, text = invoke(["rep", f"gens:{path}", "--build", "reduce:mapping:J1"])
        assert code == EXIT_PARSE
        assert text == ""
        assert "holds no idempotent" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        # I_7 has 130922 elements; note the explicit fixed points: a cycle
        # omitting a point leaves it undefined
        "I 7\n(1,2)(3)(4)(5)(6)(7)\n(1,2,3,4,5,6,7)\n(1)(2)(3)(4)(5)(6)\n",
        # T_7 has 823543
        "T 7\n[2,3,4,5,6,7,1]\n[2,1,3,4,5,6,7]\n[1,1,3,4,5,6,7]\n",
    ], ids=["I7", "T7"])
    def test_closure_cap_exit_3(self, tmp_path, text):
        # both close beyond the default closure cap of 6^6, and stop there
        path = tmp_path / "gens.txt"
        path.write_text(text)
        start = time.monotonic()
        code, _ = invoke(["order", f"gens:{path}"])
        assert code == EXIT_CAP
        assert time.monotonic() - start < 10

    @pytest.mark.parametrize("spec,need", [
        ("SGL:partitions:6", "the certificate rows of 52666 pairs would take 1188.6 MiB"),
        ("SGL:ordperm:5", "has at least 32952 elements, whose certificate rows would take 1979.4 MiB"),
        ("SGL:ordperm:6",
         "has at least 1451724 elements, whose certificate rows would take 752405.1 MiB"),
    ], ids=["SGL:partitions:6", "SGL:ordperm:5", "SGL:ordperm:6"])
    def test_build_budget_exit_3(self, spec, need, capsys):
        # the certificate rows of 52666 pairs of 203 lattice points, and of at
        # least 32952 of 542 and 1451724 of 4683, are refused before a pair
        # is built; SGL:ordperm:5 and 6 before the lattice order
        start = time.monotonic()
        code, _ = invoke(["order", spec])
        assert code == EXIT_CAP
        assert time.monotonic() - start < 20
        assert f"{need}, over the 256 MiB build budget" in capsys.readouterr().err


    @pytest.mark.parametrize("spec,bound", [("SGL:ordperm:5", 32952), ("SGL:ordperm:6", 1451724)])
    def test_pair_order_bound_exit_3(self, spec, bound, capsys):
        # refused from the orbit sizes alone, before the lattice order is built
        code, _ = invoke(["order", spec])
        assert code == EXIT_CAP
        assert f"the pair monoid has at least {bound} elements" in capsys.readouterr().err

    def test_partition_order_builds_once(self, monkeypatch):
        # the Young-index report reuses the lattice and the order report
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("make_lattice", "sgl_order"):
            wrapper = counted(name, getattr(lattice, name))
            monkeypatch.setattr(lattice, name, wrapper)
        code, text = invoke(["order", "SGL:partitions:4"])
        assert code == EXIT_OK
        assert "young_index_total: 131" in text
        assert calls == {"make_lattice": 1, "sgl_order": 1}


def stirling2(n, k):
    """S(n, k), the partitions of n points into k blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class TestDegreeSix:
    def test_orders(self):
        # |I_6| = sum of C(6,k)^2 k!, the partial bijections of rank k, and |T_6| = 6^6
        rook = sum(math.comb(6, k) ** 2 * math.factorial(k) for k in range(7))
        for spec, order in (("I:6", rook), ("T:6", 6 ** 6)):
            code, text = invoke(["order", spec])
            assert code == EXIT_OK
            assert f"order: {order}\n" in text
        assert rook == 13327

    def test_t6_jclasses_are_the_ranks(self):
        # rank k: C(6,k) images, S(6,k) kernels and k! bijections between
        # them, with the symmetric group S_k at each idempotent
        code, text = invoke(["eggbox", "T:6", "--format", "graph"])
        assert code == EXIT_OK
        nodes = [ln for ln in text.splitlines() if ln.startswith("node ")]
        assert nodes == [
            f"node J{k} size={math.comb(6, k) * stirling2(6, k) * math.factorial(k)} "
            f"subgroup={math.factorial(k)}"
            for k in range(1, 7)
        ]

    def test_subset_pairs_agree_with_the_formula(self):
        # the subset pairs of degree 6 are I_6
        code, text = invoke(["order", "SGL:subsets:6"])
        assert code == EXIT_OK
        assert "order: 13327\n" in text and "agreement: yes\n" in text

    def test_t6_has_no_catalog(self):
        code, _ = invoke(["irreps", "T:6"])
        assert code == EXIT_PARSE


class TestBuiltInCounts:
    """A built-in monoid is the closure of its generators, counted against
    its order: a deficient generating set is a fault of the program (exit 4)."""

    def test_a_missing_generator_exits_4(self, monkeypatch):
        # T_4 without its rank-3 generator closes to S_4 only
        closure = elements._closure
        monkeypatch.setattr(elements, "_closure", lambda gens, *args: closure(gens[1:], *args))
        assert invoke(["order", "T:4"])[0] == EXIT_VERIFY

    def test_a_missing_orbit_idempotent_exits_4(self, monkeypatch):
        # the pairs of SGL:subsets:4 without the idempotent at {1,2,3} miss its J-class
        generators = lattice._sgl_generators

        def without_coatom(ctx):
            return [x for x in generators(ctx) if x.lattice_element() != (1, 2, 3)]

        monkeypatch.setattr(lattice, "_sgl_generators", without_coatom)
        assert invoke(["order", "SGL:subsets:4"])[0] == EXIT_VERIFY


class TestEggboxOptions:
    def test_graph_format(self):
        code, text = invoke(["eggbox", "I:3", "--format", "graph"])
        assert code == EXIT_OK
        assert "node J0 size=1 subgroup=1" in text
        assert "edge J2 J3" in text

    def test_unknown_jclass_exit_2(self):
        code, _ = invoke(["eggbox", "I:3", "--jclass", "J9"])
        assert code == EXIT_PARSE

    def test_constants_without_a_constant_map_exit_2(self, capsys):
        # the 3-cycle closes to C_3 in T_3: one J-class, J3, and no constants
        code, text = invoke(["eggbox", f"gens:{GOLDEN_DIR.parent / 'data' / 't3_cycle.gens'}",
                             "--jclass", "constants"])
        assert (code, text) == (EXIT_PARSE, "")
        assert "no J-class 'constants'; available: J3" in capsys.readouterr().err

    def test_numeric_jclass(self):
        code, text = invoke(["eggbox", "I:3", "--jclass", "2"])
        assert code == EXIT_OK
        assert "jclass J2: size 18" in text

    def test_sgl_jclass_by_composition(self):
        code, text = invoke(["eggbox", "SGL:ordperm:3", "--jclass", "(2,1)"])
        assert code == EXIT_OK
        assert "jclass (2,1): size 18" in text

    @pytest.mark.parametrize("jclass", ["J2", "J9"])
    def test_jclass_with_graph_format_exit_2(self, jclass, capsys):
        # the graph is the whole J-poset: a J-class, known or not, is refused
        code, text = invoke(["eggbox", "I:3", "--jclass", jclass, "--format", "graph"])
        assert (code, text) == (EXIT_PARSE, "")
        assert capsys.readouterr().err.startswith("error: --format graph")


class TestIrrepsCommand:
    def test_tn_refused_exit_2(self):
        code, _ = invoke(["irreps", "T:3"])
        assert code == EXIT_PARSE

    def test_tn_refusal_loads_no_representation_layer(self):
        # the spec kind refuses T before any catalog code runs
        proc = fresh_python(_LOAD_PROBE, "irreps", "T:3")
        assert json.loads(proc.stdout) == [EXIT_PARSE, [], False], proc.stderr

    def test_subsets_matches_i3(self):
        code, text = invoke(["irreps", "SGL:subsets:3", "--check"])
        assert code == EXIT_OK
        assert "sum_dim_sq: 34" in text
        assert "check_roundtrips: 7/7" in text

    @pytest.mark.parametrize("n", [3, 4])
    def test_symmetric_group_catalog(self, n):
        code, text = invoke(["irreps", f"S:{n}", "--check"])
        assert code == EXIT_OK
        count = len(partitions(n))
        assert f"entries: {count}" in text
        assert f"sum_dim_sq: {math.factorial(n)}" in text
        assert "check_complete: yes" in text
        assert f"check_roundtrips: {count}/{count}" in text

    @pytest.mark.parametrize("spec,entries", [("I:4", 12), ("SGL:ordperm:3", 9)])
    def test_check_induces_each_entry_once(self, spec, entries, monkeypatch):
        # the catalog induces each entry; the round trips induce nothing
        real, calls = cliffmunn.induce, []
        monkeypatch.setattr(cliffmunn, "induce", lambda *args: calls.append(args) or real(*args))
        code, text = invoke(["irreps", spec, "--check"])
        assert code == EXIT_OK
        assert f"check_roundtrips: {entries}/{entries}" in text
        assert len(calls) == entries

    def test_roundtrips_pass_without_induce(self, monkeypatch):
        monoid = elements.symmetric_inverse_monoid(4)
        catalog = cm_catalog(monoid)

        def refuse(*args):
            raise AssertionError("a round trip induced")

        monkeypatch.setattr(cliffmunn, "induce", refuse)
        assert all(cliffmunn.cm_roundtrip_check(monoid, en) for en in catalog)

    def test_roundtrip_failure_exits_4(self, monkeypatch):
        monkeypatch.setattr(cliffmunn, "cm_roundtrip_check", lambda m, e: False)
        code, text = invoke(["irreps", "I:1", "--check"])
        assert code == 4
        assert "check_roundtrips: 0/2" in text


class TestRepCommand:
    def test_out_file(self, tmp_path):
        out = tmp_path / "rep.txt"
        code, text = invoke(["rep", "T:3", "--build", "mapping", "--out", str(out)])
        assert code == EXIT_OK
        assert f"out: {out}" in text
        header, labels, num, den = parse_representation_payload(out.read_text())
        assert header["dim"] == "3"
        assert len(num) == 27

    def test_unknown_build_exit_2(self):
        code, _ = invoke(["rep", "T:3", "--build", "nonsense"])
        assert code == EXIT_PARSE

    def test_specht_needs_symmetric_group(self):
        code, _ = invoke(["rep", "T:3", "--build", "specht:(2,1)"])
        assert code == EXIT_PARSE

    def test_specht_over_an_s_kind_generator_file(self, monkeypatch):
        # S_3's generators close to full-rank partial bijections, which sort
        # in the order of S:3, so the matrices are those of S:3
        monkeypatch.chdir(GOLDEN_DIR.parent.parent)

        def matrix_lines(text):
            payload = text.split("payload:\n", 1)[1].splitlines()
            return [ln for ln in payload[3:] if not ln.startswith("element ")]

        code, text = invoke(["rep", "gens:tests/data/s3_file.gens", "--build", "specht:(2,1)"])
        assert code == EXIT_OK
        _, expected = invoke(["rep", "S:3", "--build", "specht:(2,1)"])
        assert len(matrix_lines(text)) == 12
        assert matrix_lines(text) == matrix_lines(expected)

    def test_specht_over_a_proper_subgroup_exit_2(self, tmp_path, capsys):
        path = tmp_path / "gens.txt"
        path.write_text("S 3\n(1,2)(3)\n")
        code, text = invoke(["rep", f"gens:{path}", "--build", "specht:(2,1)"])
        assert code == EXIT_PARSE
        assert text == ""
        assert "needs all of S_3; the spec closes to 2 elements" in capsys.readouterr().err

    def test_specht_bad_partition(self):
        code, _ = invoke(["rep", "S:4", "--build", "specht:(2,1)"])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("shape", ["(1,2)", "(2,1,0)", "(3,-1)", "((2),(1))"])
    def test_specht_non_partition_shape_exit_2(self, shape):
        code, _ = invoke(["rep", "S:3", "--build", f"specht:{shape}"])
        assert code == EXIT_PARSE

    def test_specht_uses_the_spec_group(self):
        built = parse_and_build("S:4")
        rep, carrier = _build_rep(built, "specht:(2,1,1)")
        assert rep.monoid is built.monoid
        assert carrier is built.monoid

    def test_rep_verifies_once(self, monkeypatch):
        calls = []
        verify = Representation.verify
        monkeypatch.setattr(Representation, "verify", lambda self: calls.append(1) or verify(self))
        code, _ = invoke(["rep", "S:3", "--build", "specht:(2,1)"])
        assert code == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("spec,builds", [
        # a catalog builds its Specht modules on the maximal subgroups
        ("S:4", {}),
        ("I:4", {}),
    ])
    def test_specht_builds_each_symmetric_group_once(self, monkeypatch, spec, builds):
        # the symmetric groups specht builds for itself, through _symmetric_group
        monkeypatch.setattr(specht, "_SPECHT_CACHE", {})
        monkeypatch.setattr(specht, "_SYMMETRIC_GROUPS", {})
        sizes = []
        build = specht.symmetric_group
        monkeypatch.setattr(specht, "symmetric_group", lambda m: sizes.append(math.factorial(m)) or build(m))
        code, _ = invoke(["irreps", spec, "--check"])
        assert code == EXIT_OK
        assert Counter(sizes) == builds

    @pytest.mark.parametrize("spec", ["SGL:ordperm:3", "I:4"])
    def test_catalog_verifies_each_subgroup_irreducible_once(self, monkeypatch, spec):
        # each irreducible of G_e is built on G_e and verified there once:
        # no S_m is built beside it (direct products and outer tensors are
        # test oracles only)
        monoid = parse_and_build(spec).monoid
        monkeypatch.setattr(specht, "_SPECHT_CACHE", {})
        monkeypatch.setattr(specht, "_SYMMETRIC_GROUPS", {})

        def refused(name):
            def call(*args):
                raise AssertionError(f"{name} was called")
            return call

        monkeypatch.setattr(specht, "symmetric_group", refused("symmetric_group"))
        verified, verify = [], Representation.verify
        monkeypatch.setattr(Representation, "verify", lambda self: verified.append(self) or verify(self))
        catalog = cm_catalog(monoid)
        on_subgroups = [id(rep) for rep in verified if rep.monoid is not monoid]
        assert Counter(on_subgroups) == Counter(id(en.group_rep) for en in catalog)

    def test_each_maximal_subgroup_is_closed_once(self, monkeypatch):
        # 17 subgroup requests over the 5 J-classes of SGL:subsets:4, one
        # closure per J-class's idempotent
        calls, closed, inside = [], [], []
        subgroup, build = cliffmunn.maximal_subgroup, FiniteMonoid.from_elements.__func__

        def requested(*args):
            calls.append(1)
            inside.append(1)
            try:
                return subgroup(*args)
            finally:
                inside.pop()

        def counted(cls, *args, **kwargs):
            if inside:
                closed.append(1)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(cliffmunn, "maximal_subgroup", requested)
        monkeypatch.setattr(FiniteMonoid, "from_elements", classmethod(counted))
        code, _ = invoke(["irreps", "SGL:subsets:4", "--check"])
        assert code == EXIT_OK
        assert (len(calls), len(closed)) == (17, 5)

    def test_reduce_build(self):
        code, text = invoke(["rep", "I:3", "--build", "reduce:mapping:J2"])
        assert code == EXIT_OK
        assert "dim: 2" in text
        assert "elements: 2" in text  # the subgroup S_2

    def test_induce_on_renner(self):
        code, text = invoke(["rep", "SGL:ordperm:3", "--build", "induce:(3):((2,1))"])
        assert code == EXIT_OK
        assert "dim: 2" in text

    def test_induce_builds_only_the_requested_entry(self, monkeypatch):
        induced = []
        monkeypatch.setattr(cliffmunn, "cm_catalog", None)  # the catalog is not built
        monkeypatch.setattr(cliffmunn, "induce", lambda *args: induced.append(args) or induce(*args))
        code, text = invoke(["rep", "I:4", "--build", "induce:J3:(2,1)"])
        assert code == EXIT_OK
        assert "dim: 8" in text
        assert len(induced) == 1

    @pytest.mark.parametrize("build,dim", [("induce:(4):(4)", 1), ("induce:(2,1,1):()", 6)])
    def test_induce_at_a_recognized_partition_class(self, build, dim):
        # SGL:partitions:4 has no catalog: its (2,2) class is not recognized
        code, text = invoke(["rep", "SGL:partitions:4", "--build", build])
        assert code == EXIT_OK
        assert f"dim: {dim}" in text
        assert "elements: 175" in text

    def test_induce_at_an_unrecognized_partition_class_exit_2(self, capsys):
        code, text = invoke(["rep", "SGL:partitions:4", "--build", "induce:(2,2):((2),(2))"])
        assert code == EXIT_PARSE
        assert text == ""
        assert "does not match the Young product" in capsys.readouterr().err

    def test_induce_unknown_label_exit_2(self, capsys):
        code, _ = invoke(["rep", "I:3", "--build", "induce:J1:(2)"])
        assert code == EXIT_PARSE
        assert "no irreducible (2) at J-class J1" in capsys.readouterr().err

    def test_payload_roundtrip(self):
        code, text = invoke(["rep", "I:3", "--build", "induce:J1:(1)"])
        payload = text.split("payload:\n", 1)[1]
        header, labels, num, den = parse_representation_payload(payload)
        assert header["elements"] == "34"
        assert labels[0] == "0"  # the zero map
        assert not any(map(any, num[0]))


class TestLabelCodec:
    @pytest.mark.parametrize("label", [
        (), (3,), (2, 1), (1, 1, 1),
        ((2,), (1,)), ((1, 1), (2,)), ((3,),),
    ])
    def test_roundtrip(self, label):
        assert parse_label(fmt_label(label)) == label

    @pytest.mark.parametrize("text", [
        "((2)", "((1),(2)))", "((1)))", "(((1))", "((1),)(2))", "((1)),((2))",
    ])
    def test_unbalanced_parentheses_raise(self, text):
        with pytest.raises(SpecError):
            parse_label(text)

    def test_unbalanced_label_in_a_build_exits_2(self):
        code, text = invoke(["rep", "I:3", "--build", "induce:J0:((2)"])
        assert code == EXIT_PARSE
        assert text == ""

    @pytest.mark.parametrize("spec", ["I:4", "SGL:ordperm:3"])
    def test_roundtrip_over_catalog_labels(self, spec):
        labels = {en.label for en in cm_catalog(parse_and_build(spec).monoid)}
        assert len(labels) > 1
        for label in labels:
            assert parse_label(fmt_label(label)) == label


LAYERS = ("elements", "lattice", "green", "specht", "linrep", "cliffmunn", "cli")

RECORD_TYPES = (
    green.GreenClasses, green.JPoset, green.Eggbox, green.Transversal,
    cliffmunn.CatalogEntry, cliffmunn.InducedRaw, cliffmunn.ReducedRep,
    cliffmunn.SemisimpleReport, cliffmunn.RennerReport,
    lattice.SGLOrderReport, lattice.PartitionLatticeReport,
    specht.SpechtData, cli.BuiltMonoid,
)

# Runs the CLI entry point in a fresh interpreter and reports, on stderr,
# the freeze count at import and once main() has handed over to run().
_ENTRY_PROBE = """
import gc, sys
import monoidrep.cli as cli
print("at import", gc.get_freeze_count(), file=sys.stderr)
run = cli.run
def probe(argv, out=None):
    print("in main", gc.get_freeze_count(), file=sys.stderr)
    return run(argv, out)
cli.run = probe
sys.argv = ["monoidrep"] + sys.argv[1:]
cli.main()
"""


def fresh_python(source: str, *argv) -> subprocess.CompletedProcess:
    """Run source in a new interpreter that imports monoidrep from src/."""
    root = pathlib.Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", source, *argv], cwd=root,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


class TestProcessCost:
    @pytest.mark.parametrize("argv", [["order", "SGL:ordperm:3"], ["order", "I:0"]])
    def test_main_freezes_the_import_heap(self, argv):
        proc = fresh_python(_ENTRY_PROBE, *argv)
        counts = dict(line.rsplit(" ", 1) for line in proc.stderr.splitlines()
                      if line.startswith(("at import ", "in main ")))
        assert counts["at import"] == "0"
        assert int(counts["in main"]) > 0
        frozen = gc.get_freeze_count()
        code, text = invoke(argv)
        assert gc.get_freeze_count() == frozen  # run() itself leaves collection alone
        assert (proc.returncode, proc.stdout) == (code, text)

    def test_no_dataclasses_in_the_layers(self):
        for name in LAYERS:
            module = importlib.import_module(f"monoidrep.{name}")
            for obj in vars(module).values():
                if isinstance(obj, type) and obj.__module__ == module.__name__:
                    assert not hasattr(obj, "__dataclass_fields__"), obj.__name__

    @pytest.mark.parametrize("record", RECORD_TYPES, ids=lambda r: r.__name__)
    def test_record_types_are_immutable(self, record):
        value = record._make([None] * len(record._fields))
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, 1)
        with pytest.raises(AttributeError):
            value.extra = 1


LAZY_LAYERS = ("lattice", "green", "linrep", "specht", "cliffmunn")

# Runs one command in a fresh interpreter and prints the lazy layers whose
# code has run: a lazy module becomes a plain module when it loads, and
# type() reads the class without loading it.
_LOAD_PROBE = """
import io, json, sys, types
import monoidrep.cli as cli
code = cli.run(sys.argv[1:], io.StringIO())
ran = [name for name in %r if type(sys.modules["monoidrep." + name]) is types.ModuleType]
print(json.dumps([code, ran, "fractions" in sys.modules]))
""" % (LAZY_LAYERS,)


# Runs one command in a fresh interpreter and prints the order of every
# monoid whose table it composed.
_TABLE_PROBE = """
import io, json, sys
import monoidrep.cli as cli
from monoidrep.elements import FiniteMonoid
composed, table = [], FiniteMonoid.table
def read(monoid):
    if monoid._table is None:
        composed.append(len(monoid))
    return table.fget(monoid)
FiniteMonoid.table = property(read)
code = cli.run(sys.argv[1:], io.StringIO())
print(json.dumps([code, composed]))
"""


REPRESENTATION_ARGVS = [
    ["irreps", "I:4", "--check"],
    ["irreps", "SGL:ordperm:3", "--check"],
    ["irreps", "SGL:partitions:3", "--check"],
    # S_3 at a non-identity idempotent of a non-inverse monoid
    ["rep", "T:4", "--build", "reduce:mapping:J3"],
    # a Young subgroup's irreducibles: per-block Specht modules, kron'd on G_e
    ["rep", "SGL:ordperm:3", "--build", "induce:(1,2):((1),(2))"],
    ["rep", "S:6", "--build", "specht:(4,2)"],
]
REPRESENTATION_IDS = ["irreps_I4", "irreps_ordperm3", "irreps_partitions3", "reduce_T4",
                      "induce_ordperm3", "specht_S6"]


class TestLeftCayleyGraph:
    @pytest.mark.parametrize("spec,composed", [
        # pair products walk the acting group S_4's graph: no table at all
        ("SGL:ordperm:4", []),
        ("T:4", []),
        ("S:6", []),
        ("gens:tests/data/i5_file.gens", []),
    ])
    @pytest.mark.parametrize("argv", [["order"], ["eggbox", "--all"], ["eggbox", "--format", "graph"]],
                             ids=["order", "eggbox_text", "eggbox_graph"])
    def test_structure_commands_compose_no_monoid_table(self, spec, composed, argv):
        proc = fresh_python(_TABLE_PROBE, argv[0], spec, *argv[1:])
        assert json.loads(proc.stdout) == [EXIT_OK, composed], proc.stderr

    @pytest.mark.parametrize("argv", REPRESENTATION_ARGVS, ids=REPRESENTATION_IDS)
    def test_representation_commands_compose_no_monoid_table(self, argv):
        # verify and induce_raw read products from the graph's columns
        proc = fresh_python(_TABLE_PROBE, *argv)
        assert json.loads(proc.stdout) == [EXIT_OK, []], proc.stderr

    @pytest.mark.parametrize("argv", REPRESENTATION_ARGVS, ids=REPRESENTATION_IDS)
    def test_representation_commands_certify_each_closure_once(self, monkeypatch, argv):
        # every monoid, subgroup and element set is closed by _closure, which
        # certifies its left rows by one _validate call on the monoid it
        # returns; direct products are written from their factors' rows
        closure, validate = elements._closure, FiniteMonoid._validate
        validated, certified = [], []

        def counted_validate(monoid, *args):
            validated.append(monoid)
            return validate(monoid, *args)

        def counted_closure(*args, **kwargs):
            start = len(validated)
            monoid = closure(*args, **kwargs)
            certified.append(validated[start:] == [monoid])
            return monoid

        monkeypatch.setattr(elements, "_closure", counted_closure)
        monkeypatch.setattr(FiniteMonoid, "_validate", counted_validate)
        monkeypatch.setattr(specht, "_SPECHT_CACHE", {})
        monkeypatch.setattr(specht, "_SYMMETRIC_GROUPS", {})
        code, _ = invoke(argv)
        assert code == EXIT_OK
        assert certified and all(certified)
        assert len(validated) == len(certified)

    def test_generator_columns_are_composed_once_per_monoid(self, monkeypatch):
        # green_structure reads the right Cayley graph that verify, the
        # actions and the Specht modules read: each monoid composes it once
        columns, composed = FiniteMonoid.columns, []

        def counted(monoid, targets):
            targets = list(targets)
            if targets == list(monoid.generator_indices):
                composed.append(monoid)
            return columns(monoid, targets)

        monkeypatch.setattr(FiniteMonoid, "columns", counted)
        monkeypatch.setattr(specht, "_SPECHT_CACHE", {})
        monkeypatch.setattr(specht, "_SYMMETRIC_GROUPS", {})
        built = parse_and_build("I:4")
        monkeypatch.setattr(cli, "parse_and_build", lambda spec: built)
        code, _ = invoke(["irreps", "I:4", "--check"])
        assert code == EXIT_OK
        assert built.monoid in composed
        assert len({id(m) for m in composed}) == len(composed)


# Runs one command in a fresh interpreter and prints its exit code and
# whether fractions was loaded by the time it returned.
_FRACTIONS_PROBE = """
import io, json, sys
import monoidrep.cli as cli
code = cli.run(sys.argv[1:], io.StringIO())
print(json.dumps([code, "fractions" in sys.modules]))
"""

STRUCTURE_SPECS = ["S:4", "I:4", "T:4", "SGL:subsets:4", "SGL:partitions:4", "SGL:ordperm:4",
                   "gens:tests/data/i5_file.gens", "gens:tests/data/t4_nonregular.gens",
                   "gens:tests/data/s3_file.gens"]
STRUCTURE_COMMANDS = [["order"], ["eggbox", "--all"], ["eggbox", "--format", "graph"]]


class TestStructureCommands:
    @pytest.mark.parametrize("spec", STRUCTURE_SPECS)
    def test_structure_commands_build_no_element_index(self, spec, monkeypatch):
        # FiniteMonoid.index builds its dict on first read; order and eggbox
        # never read it
        monkeypatch.chdir(GOLDEN_DIR.parent.parent)
        built = []
        real = FiniteMonoid._from_left_rows.__func__

        def spy(cls, *args):
            built.append(real(cls, *args))
            return built[-1]

        monkeypatch.setattr(FiniteMonoid, "_from_left_rows", classmethod(spy))
        for argv in STRUCTURE_COMMANDS:
            assert invoke([argv[0], spec, *argv[1:]])[0] == EXIT_OK
        assert built and all(m._index is None for m in built)


IMPORT_CALLS = {"__import__", "import_module", "find_spec"}


def test_no_module_imports_numpy():
    # the static guard for every command, present or future: no import
    # statement under src/monoidrep, at module level or inside a function,
    # and no string handed to an import call names numpy
    paths = sorted(pathlib.Path(monoidrep.__file__).parent.rglob("*.py"))
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) in IMPORT_CALLS:
                names = [arg.value for arg in node.args
                         if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] == "numpy"]
    assert len(paths) >= len(LAYERS) + 1  # the layers and __init__
    assert found == []


class TestLayerLoading:
    @pytest.mark.parametrize("argv,ran", [
        (["order", "S:5"], []),
        (["order", "SGL:ordperm:3"], ["lattice"]),
        # a spec with no pair monoid never loads lattice
        (["eggbox", "S:4"], ["green"]),
        (["irreps", "I:3", "--check"], list(LAZY_LAYERS[1:])),
        (["rep", "I:4", "--build", "induce:J2:(1,1)"], list(LAZY_LAYERS[1:])),
    ])
    def test_a_command_runs_only_the_layers_it_calls(self, argv, ran):
        proc = fresh_python(_LOAD_PROBE, *argv)
        # no command makes a Fraction, so none imports fractions
        assert json.loads(proc.stdout) == [EXIT_OK, ran, False], proc.stderr

    @pytest.mark.parametrize("argv", [
        ["irreps", "I:3", "--check"],
        ["rep", "S:5", "--build", "specht:(2,2,1)"],
    ], ids=["irreps_I3", "specht_S5"])
    def test_representation_commands_import_no_fractions(self, argv):
        # linrep imports fractions only inside the functions that make a Fraction
        proc = fresh_python(_FRACTIONS_PROBE, *argv)
        assert json.loads(proc.stdout) == [EXIT_OK, False], proc.stderr

    def test_every_layer_is_registered_at_import(self):
        # perfbench's tracer reads each layer's namespace right after
        # `import monoidrep.cli`; vars() loads a lazy layer
        probe = ("import sys, monoidrep.cli\n"
                 "linrep = vars(sys.modules['monoidrep.linrep'])\n"
                 "print('Representation' in linrep, 'verify' in vars(linrep['Representation']))")
        proc = fresh_python(probe)
        assert proc.stdout.split() == ["True", "True"], proc.stderr

    def test_the_tracer_installs_after_the_cli_import(self):
        # perfbench's tracer wraps the methods and kernels its EXTRA names,
        # FiniteMonoid._validate among them, and install() raises on a name
        # that is gone
        probe = ("import sys, monoidrep.cli\n"
                 "sys.path.insert(0, 'perfbench')\n"
                 "import tracer\n"
                 "tracer.install()\n"
                 "print('installed')")
        proc = fresh_python(probe)
        assert proc.returncode == 0 and proc.stdout.split() == ["installed"], proc.stderr

    def test_public_names_are_the_layers_objects(self):
        for name in monoidrep.__all__:
            layer = importlib.import_module(f"monoidrep.{monoidrep._LAYER_OF[name]}")
            assert getattr(monoidrep, name) is getattr(layer, name), name
        namespace = {}
        exec("from monoidrep import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(monoidrep.__all__)
        with pytest.raises(AttributeError):
            monoidrep.no_such_name
