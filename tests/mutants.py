"""Mutants that the test suite must catch, and a runner that re-checks them.

Each row of MUTANTS replaces one exact piece of program text and names the
one pytest node that must fail on the result.  The runner copies the
checkout to a temporary directory, runs every named node once on the
unchanged copy (each must pass there), and then, row by row, writes the
mutant into the copy, runs only that row's node and puts the file back.

A row fails when its old text is not found exactly once, when the mutated
file does not compile, or when its node passes on the mutant.  A node that
fails, whose module no longer imports (a mutant that rejects the valid
representations a module builds at import), or that pytest no longer finds
has caught the mutant (verdict): the unchanged copy has shown that the node
exists and passes.

    python tests/mutants.py            # every row
    python tests/mutants.py -k budget  # the rows whose name contains "budget"
    python tests/mutants.py --list

Hypothesis runs with a fixed seed, so a run is repeatable.  This is not a
pytest module (its name does not match test_*.py), so tier-1 does not run it.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
LINREP = "src/monoidrep/linrep.py"
CLIFFMUNN = "src/monoidrep/cliffmunn.py"
ELEMENTS = "src/monoidrep/elements.py"
LATTICE = "src/monoidrep/lattice.py"
GREEN = "src/monoidrep/green.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str  # must occur exactly once in the file
    new: str
    node: str  # the pytest node id expected to fail


MUTANTS = (
    # the one eigenvalue shift, read by one_dim_invariant_lines and
    # find_proper_invariant: without den it is right only when den = 1
    Mutant("eigenspace-shift-without-den", LINREP,
           "    shift = lam * den\n", "    shift = lam\n",
           "tests/test_linrep.py::TestInvariantLines::test_lines_follow_a_change_of_basis"),
    # decompose's complement: the orthogonal complement of the invariant
    # subspace, not the kernel of the equivariant projection
    Mutant("decompose-complement-not-the-kernel", CLIFFMUNN,
           "complement = Subspace._span(v.dim, p[0]).orthogonal_complement()",
           "complement = sub.orthogonal_complement()",
           "tests/test_cliffmunn.py::TestInvariantSearch::test_decompose_over_a_basis_that_is_not_orthogonal"),
    # the projection's numerators read over den 1
    Mutant("projection-without-its-den", CLIFFMUNN,
           "for i in range(0, d * d, d)), solved.den",
           "for i in range(0, d * d, d)), 1",
           "tests/test_cliffmunn.py::TestEquivariantProjection::test_projection_laws[s3_sum_zero]"),
    # the payload writer putting each element's matrix rows in reverse
    Mutant("payload-rows-reversed", LINREP,
           "lines.extend(\" \".join(map(text, row)) for row in rep.num[k])",
           "lines.extend(\" \".join(map(text, row)) for row in rep.num[k][::-1])",
           "tests/test_linrep.py::TestSerialization::test_roundtrip"),
    # two catalog entries of I_n exchange their labels (2) and (1,1)
    Mutant("catalog-labels-swapped", CLIFFMUNN,
           "        yield (shapes if per_block else shapes[0]), rep\n",
           "        yield (shapes if per_block else {(2,): (1, 1), (1, 1): (2,)}.get(shapes[0], shapes[0])), rep\n",
           "tests/test_rook_characters.py::test_rook_monoid_catalog_is_solomons[3]"),
    # every Specht block built for the conjugate shape
    Mutant("specht-block-conjugated", CLIFFMUNN,
           "factors.append({lam: _specht_action(group, block_moves, lam, block)",
           "factors.append({lam: _specht_action(group, block_moves, "
           "tuple(sum(p > i for p in lam) for i in range(lam[0])), block)",
           "tests/test_rook_characters.py::test_subsets_pair_monoid_catalog_is_solomons[3]"),
    # the round trip's up half counting every block, not the fixed ones
    Mutant("roundtrip-trace-without-fixed-blocks", CLIFFMUNN,
           "enumerate(zip(js, gs)) if j == i)", "enumerate(zip(js, gs)) if j >= 0)",
           "tests/test_cliffmunn.py::TestCatalogs::test_roundtrips_i3"),
    # verify skipping the first nonzero of a dense generator column
    Mutant("verify-skips-a-nonzero", LINREP,
           "sum([v * here[r] for r, v in terms])", "sum([v * here[r] for r, v in terms[1:]])",
           "tests/test_specht.py::TestSpechtReps::test_reflectional"),
    # a stack one byte over the budget admitted
    Mutant("stack-budget-off-by-one", LINREP,
           "check_budget(count * size * size * 8,", "check_budget(count * size * size * 8 - 1,",
           "tests/test_cliffmunn.py::TestInduceStack::"
           "test_stacks_over_the_budget_are_refused_before_any_matrix_is_written[induce_raw]"),
    # a built-in monoid not counted against its known order
    Mutant("closure-count-check-dropped", ELEMENTS,
           "    if len(monoid) != order:\n", "    if False:\n",
           "tests/test_elements.py::TestBuiltIns::test_a_missing_generator_fails_the_count"),
    # two labels of one J-class of the ordered-partition pair monoid swapped
    Mutant("ordered-partition-labels-swapped", CLIFFMUNN,
           "        yield (shapes if per_block else shapes[0]), rep\n",
           "        yield ({((2,), (1,)): ((1, 1), (1,)), ((1, 1), (1,)): ((2,), (1,))}.get(shapes, shapes)"
           " if per_block else shapes[0]), rep\n",
           "tests/test_rook_characters.py::test_ordered_partition_pair_monoid_catalog_is_the_orbit_sum[3]"),
    # a lattice accepted with a pair that has no meet
    Mutant("lattice-meet-check-skipped", LATTICE,
           "            if None in row:", "            if False:",
           "tests/test_lattice.py::TestMeetsAndJoins::test_two_minimal_upper_bounds_have_no_join"),
    # a lattice accepted without a top, where joins may be missing
    Mutant("lattice-top-check-skipped", LATTICE,
           "        if everything not in self._down:\n", "        if False:\n",
           "tests/test_lattice.py::TestMeetsAndJoins::test_meets_without_a_top_are_refused"),
    # orbits walked along the first generator's row alone
    Mutant("orbits-first-generator-only", LATTICE,
           "_reach(gen_rows, a)", "_reach(gen_rows[:1], a)",
           "tests/test_lattice.py::TestMakeLattice::test_orbits_are_read_off_the_whole_table[3-subsets]"),
    # an invariant-line search node that forgets the rows chosen before it
    Mutant("invariant-lines-drop-earlier-rows", LINREP,
           "descend(k + 1, span.num + shifted, scalars + [lam])",
           "descend(k + 1, shifted, scalars + [lam])",
           "tests/test_linrep.py::TestInvariantLines::test_t3_has_none"),
    # the ordered-partition relation with < for <=
    Mutant("order-relation-strict", LATTICE,
           "else pos[x] <= pos[y]", "else pos[x] < pos[y]",
           "tests/test_lattice.py::TestOrderRelation::"
           "test_relation_inclusion_is_the_order[2-ordered_partitions_zero]"),
    # the J-poset's covers without the transitive reduction
    Mutant("covers-not-reduced", GREEN,
           "_bits(above & ~through)", "_bits(above)",
           "tests/test_numpy_oracles.py::TestJOrderOracles::test_pair_monoids[subsets-2]"),
    # the J-order read off the direct edges, not closed under reachability
    Mutant("jorder-not-closed", GREEN,
           "                bits |= below[k]\n", "                bits |= 1 << k\n",
           "tests/test_green.py::TestClasses::test_in_jposet_is_the_rank_chain"),
    # green_structure composing the right Cayley graph again
    Mutant("green-composes-its-own-columns", GREEN,
           "right, left = monoid._generator_columns(), monoid._left",
           "right, left = monoid.columns(monoid.generator_indices), monoid._left",
           "tests/test_cli.py::TestLeftCayleyGraph::test_generator_columns_are_composed_once_per_monoid"),
    # a Cayley table one byte over the budget admitted
    Mutant("table-budget-off-by-one", ELEMENTS,
           "check_budget(n * n * 2,", "check_budget(n * n * 2 - 1,",
           "tests/test_elements.py::TestProductMonoid::"
           "test_a_table_over_the_budget_is_refused_before_any_cell_is_written"),
    # each table row gathered from its own unwritten row, not its parent's
    Mutant("table-row-from-itself", ELEMENTS,
           "itemgetter(*cells[v * n:(v + 1) * n])", "itemgetter(*cells[u * n:(u + 1) * n])",
           "tests/test_elements.py::TestImageTable::test_full_monoids_match_elementwise_build[all_permutations-3]"),
    # a table whose cells can be written
    Mutant("table-writable", ELEMENTS,
           '.cast("H", (n, n)).toreadonly()', '.cast("H", (n, n))',
           "tests/test_elements.py::TestTwoByteCells::test_the_table_is_the_products_and_read_only"),
    # a command path that imports numpy
    Mutant("eggbox-imports-numpy", GREEN,
           "    members = classes.jclasses[jclass]\n", "    import numpy\n    members = classes.jclasses[jclass]\n",
           "tests/test_cli.py::test_no_module_imports_numpy"),
)


def _pytest(checkout: Path, nodes, timeout: int) -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *nodes]
    try:
        return subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def verdict(code: int) -> str:
    """What a mutant's node exit code says: 1, the node failed; 2, its module
    no longer imports; 4, pytest no longer finds the node, which collected on
    the unchanged copy.  0, the node passed; any other code, an error."""
    if code in (1, 2, 4):
        return "caught"
    return "SURVIVED" if code == 0 else f"error {code}"


def run(mutants, timeout: int = 600) -> list:
    """Problems found, one line each; empty when every mutant is caught."""
    problems = []
    with tempfile.TemporaryDirectory(prefix="monoidrep-mutants-") as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work"))
        nodes = sorted({m.node for m in mutants})
        if _pytest(checkout, nodes, timeout) != 0:
            return ["the named nodes do not all pass on the unchanged checkout"]
        for m in mutants:
            target = checkout / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                problems.append(f"{m.name}: old text found {text.count(m.old)} times in {m.path}")
                continue
            mutated = text.replace(m.old, m.new)
            try:
                compile(mutated, str(target), "exec")
            except SyntaxError as exc:
                problems.append(f"{m.name}: the mutant does not compile: {exc}")
                continue
            target.write_text(mutated)
            try:
                code = _pytest(checkout, [m.node], timeout)
            finally:
                target.write_text(text)
            said = verdict(code)
            print(f"{said:9} {m.name}", flush=True)
            if said != "caught":
                problems.append(f"{m.name}: {said} ({m.node})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", default="", help="run only the rows whose name contains this")
    parser.add_argument("--list", action="store_true", help="print the rows and exit")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.k in m.name]
    if args.list:
        for m in chosen:
            print(f"{m.name}  {m.path}  {m.node}")
        return 0
    if not chosen:
        print(f"no mutant matches {args.k!r}", file=sys.stderr)
        return 2
    problems = run(chosen)
    for line in problems:
        print(line, file=sys.stderr)
    print(f"{len(chosen) - len(problems)} of {len(chosen)} rows passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
