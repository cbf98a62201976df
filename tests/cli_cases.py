"""The CLI cases: every golden report, exit code and checked line of `monoidrep`.

tier-1 (`tests/test_cli.py`) runs the tables through `cli.run` in process,
all but TIMED_GOLDEN_CASES.  Run as a script, this module runs every case
through the installed `monoidrep` command on PATH, from the repository root
(generator-file paths are repo-relative), each with a 180 s timeout, and
exits 1 naming each case it gets wrong:

    pip install -e ".[test]"
    python tests/cli_cases.py

It imports nothing beyond the standard library and takes no arguments.
"""

import pathlib
import shlex
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
TIMEOUT = 180  # seconds per run

# {golden name: argv}: stdout must be tests/golden/<name>.txt byte for byte, exit 0
GOLDEN_CASES = {
    "order_i3": ["order", "I:3"],
    "order_sgl_ordperm3": ["order", "SGL:ordperm:3"],
    "order_s1": ["order", "S:1"],
    "eggbox_i3_all": ["eggbox", "I:3", "--all"],
    "eggbox_t3_constants": ["eggbox", "T:3", "--jclass", "constants"],
    "eggbox_s3": ["eggbox", "S:3"],
    "irreps_i3_check": ["irreps", "I:3", "--check"],
    # subgroups at non-identity idempotents and Young-subgroup products
    "irreps_sgl_ordperm3_check": ["irreps", "SGL:ordperm:3", "--check"],
    "irreps_i1": ["irreps", "I:1"],
    # the image tuples of both kinds: partial bijections and transformations
    "rep_t3_mapping": ["rep", "T:3", "--build", "mapping"],
    "rep_s4_specht_211": ["rep", "S:4", "--build", "specht:(2,1,1)"],
    "rep_i3_induce_j1_1": ["rep", "I:3", "--build", "induce:J1:(1)"],
    "rep_i3_reduce_mapping_j2": ["rep", "I:3", "--build", "reduce:mapping:J2"],
    "rep_sgl_ordperm3_induce_12_1_2": ["rep", "SGL:ordperm:3", "--build", "induce:(1,2):((1),(2))"],
    # two blocks with a sign factor: the kron of per-block Specht matrices on G_e
    "rep_sgl_ordperm3_induce_12_1_11": ["rep", "SGL:ordperm:3", "--build", "induce:(1,2):((1),(1,1))"],
    # a subgroup S_3 at a non-identity idempotent of a non-inverse monoid
    "rep_t4_reduce_mapping_j3": ["rep", "T:4", "--build", "reduce:mapping:J3"],
    "eggbox_sgl_ordperm4_graph": ["eggbox", "SGL:ordperm:4", "--format", "graph"],
    # a non-regular closure in T_4: 7 J-classes, 3 without an idempotent
    "eggbox_t4_nonregular_all": ["eggbox", "gens:tests/data/t4_nonregular.gens", "--all"],
    # the benchmark's I-kind generator file: 631 elements, 6 J-classes
    "eggbox_i5_file_all": ["eggbox", "gens:tests/data/i5_file.gens", "--all"],
    "rep_s5_specht_221": ["rep", "S:5", "--build", "specht:(2,2,1)"],
    "irreps_s5_check": ["irreps", "S:5", "--check"],
    # the largest checked catalog in tier-1: 19 entries over I_5's 1546 elements
    "irreps_i5_check": ["irreps", "I:5", "--check"],
    # the Specht modules of S_6 from the standard polytabloids
    "irreps_s6": ["irreps", "S:6"],
    # the largest transformation table, and 2471 pairs through sgl_monoid and sgl_order
    "eggbox_t5_all": ["eggbox", "T:5", "--all"],
    "order_sgl_partitions5": ["order", "SGL:partitions:5"],
    # the benchmark's largest monoid, 1801 pairs held as their left Cayley
    # graph, by both structure commands
    "order_sgl_ordperm4": ["order", "SGL:ordperm:4"],
    "eggbox_sgl_ordperm4_all": ["eggbox", "SGL:ordperm:4", "--all"],
    # degree 6: the 46656 transformations and 13327 partial bijections, each
    # closed from its generators, and the subset pairs, which are I_6
    "eggbox_t6_all": ["eggbox", "T:6", "--all"],
    "eggbox_i6_all": ["eggbox", "I:6", "--all"],
    "order_sgl_subsets6": ["order", "SGL:subsets:6"],
    # set-partition text, and the FLAG on the Young-index sum
    "order_sgl_partitions4": ["order", "SGL:partitions:4"],
    # pair-monoid J-class labels: J<size> for subsets, sorted block sizes for partitions
    "eggbox_sgl_subsets4_all": ["eggbox", "SGL:subsets:4", "--all"],
    "eggbox_sgl_partitions4_all": ["eggbox", "SGL:partitions:4", "--all"],
    # subset pairs label their irreducibles by one bare shape
    "irreps_sgl_subsets4_check": ["irreps", "SGL:subsets:4", "--check"],
    # the collapsed subgroup at (2,1) serves one () entry
    "irreps_sgl_partitions3_check": ["irreps", "SGL:partitions:3", "--check"],
    # subset-pair payload text, g@{...}
    "rep_sgl_subsets3_induce_j2_11": ["rep", "SGL:subsets:3", "--build", "induce:J2:(1,1)"],
    # the adjoined zero class of the ordered partitions, and its payload text g@0
    "rep_sgl_ordperm3_induce_0": ["rep", "SGL:ordperm:3", "--build", "induce:0:()"],
}

# goldens that tier-1 does not run, for their time
TIMED_GOLDEN_CASES = {
    # the rook monoid I_6: 30 catalog entries, each round-tripped
    "irreps_i6_check": ["irreps", "I:6", "--check"],
}

# (argv, exit code)
EXIT_CASES = [
    # an S-kind generator file closes to all of S_3 as partial bijections
    (["rep", "gens:tests/data/s3_file.gens", "--build", "specht:(2,1)"], 0),
    # a directory is no generator file
    (["order", "gens:tests"], 2),
    # refused from its orbit bound
    (["order", "SGL:ordperm:6"], 3),
    # refused by the build budget before any certificate row is built
    (["order", "SGL:ordperm:5"], 3),
    (["order", "SGL:partitions:6"], 3),
    # a closure in T_3 with no constant map has no J-class "constants"
    (["eggbox", "gens:tests/data/t3_cycle.gens", "--jclass", "constants"], 2),
]

# (argv, a line its stdout must hold, exit 0)
LINE_CASES = [
    # rows wider than 255 cells: one 300-cycle, closed on its faithful rows of 301 entries
    (["order", "gens:tests/data/s300_cycle.gens"], "order: 300"),
]


def failures(run) -> list:
    """One line per case that run gets wrong.  run(argv) returns the exit
    code (None on a timeout) and the stdout bytes of `monoidrep argv`."""
    def said(code):
        return f"timed out after {TIMEOUT} s" if code is None else f"exit {code}"

    found = []
    for name, argv in {**GOLDEN_CASES, **TIMED_GOLDEN_CASES}.items():
        code, out = run(argv)
        golden = (GOLDEN_DIR / f"{name}.txt").read_bytes()
        if (code, out) != (0, golden):
            found.append(f"{name}: {said(code)}, stdout "
                         f"{'equals' if out == golden else 'differs from'} tests/golden/{name}.txt")
    for argv, expected in EXIT_CASES:
        code, _ = run(argv)
        if code != expected:
            found.append(f"monoidrep {shlex.join(argv)}: {said(code)}, expected exit {expected}")
    for argv, line in LINE_CASES:
        code, out = run(argv)
        if code != 0 or line.encode() not in out.splitlines():
            found.append(f"monoidrep {shlex.join(argv)}: {said(code)}, expected exit 0 and the line {line!r}")
    return found


def installed(argv):
    """The exit code and stdout of the monoidrep on PATH, run from the root."""
    try:
        proc = subprocess.run(["monoidrep", *argv], cwd=ROOT, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        return None, exc.stdout or b""
    return proc.returncode, proc.stdout


def main() -> int:
    if shutil.which("monoidrep") is None:
        print("no monoidrep on PATH: install the package first", file=sys.stderr)
        return 1
    found = failures(installed)
    for line in found:
        print(f"FAIL {line}", file=sys.stderr)
    total = len(GOLDEN_CASES) + len(TIMED_GOLDEN_CASES) + len(EXIT_CASES) + len(LINE_CASES)
    print(f"{total - len(found)} of {total} cases passed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
