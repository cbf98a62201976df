"""monoidrep benchmark: fixed lists of CLI invocations, each in a fresh process.

usage: python3 perfbench/run.py --workload {structure,catalog,reps}
                                --seed N --seconds S --trace {0,1}

Run from the root of a checkout; monoidrep is imported from its src/.  One
client runs the ops one after another (a closed loop).  A round is the
workload's whole op list; a run repeats rounds until --seconds have passed
and MIN_ROUNDS are done.  Every op's output is checked against values the oracle
computes without monoidrep; a non-zero exit, a timeout or a failed check
counts the op as failed.  After its first round each run corrupts one output
and requires the checks to reject it.

--trace 0 prints the end-to-end metrics: wall_s (median over rounds of the
summed op wall time), setup_s (median over ops of interpreter start plus
`import monoidrep`) and peak_rss_mb (largest max-RSS of any op process).
--trace 1 runs each op untraced and then traced, and prints the per-layer
metrics of the traced rounds (medians over rounds), with trace.overhead_s =
traced minus untraced wall_s.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"

OP_TIMEOUT_S = 120
RUN_LIMIT_S = 170  # a run stops starting ops after this, to exit within 180 s
# Rounds an untraced run makes at least, so that the shorter workloads report
# a median of several rounds however slow the machine is while they run.
MIN_ROUNDS = {"structure": 1, "catalog": 3, "reps": 2}

# (op index, output corrupted, corruption) per workload, for the self-test
SELF_TEST = {
    "structure": (0, "stdout", lambda text, rng: checks.corrupt_order(text)),
    "catalog": (0, "stdout", lambda text, rng: checks.corrupt_catalog_dim(text)),
    "reps": (1, "payload", checks.corrupt_payload_entry),
}


@dataclass
class OpResult:
    wall_s: float
    setup_s: float
    failed: bool
    wrong: bool
    stdout: str
    payload: str
    layers: dict = field(default_factory=dict)


def run_op(op: workloads.Op, workdir: Path, trace: bool, deadline: float) -> OpResult:
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    trace_path = workdir / "trace.json"
    for path in (trace_path, op.out):
        if path is not None and path.exists():
            path.unlink()
    if time.monotonic() >= deadline:
        print(f"SKIPPED (run time limit): {' '.join(op.argv)}", file=sys.stderr)
        return OpResult(0.0, float("nan"), True, False, "", "")
    cmd = [sys.executable, str(LAUNCH), str(trace_path) if trace else "-", *op.argv]
    timeout = min(OP_TIMEOUT_S, deadline - time.monotonic())
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    stdout = out_path.read_text()
    stderr = err_path.read_text()
    setup = float("nan")
    first = stderr.split("\n", 1)[0].split()
    if len(first) == 2 and first[0] == "perfbench-setup":
        setup = float(first[1]) - t0
    payload = op.out.read_text() if op.out is not None and op.out.exists() else ""
    result = OpResult(wall, setup, code != 0, False, stdout, payload)
    if code != 0:
        print(f"FAILED (exit {code}): {' '.join(op.argv)}\n{stderr[-2000:]}", file=sys.stderr)
        return result
    try:
        op.check(stdout, payload)
    except Exception as exc:  # malformed output can break parsing anywhere
        print(f"WRONG: {' '.join(op.argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        result.failed = result.wrong = True
    if trace and trace_path.exists():
        result.layers = tracer.summarize(json.loads(trace_path.read_text()))
    return result


def self_test(workload: str, ops: list, first_round: list, seed: int) -> bool:
    """Feed one corrupted output of the first round back through its check."""
    index, which, corrupt = SELF_TEST[workload]
    good = first_round[index]
    if good.failed:
        return False
    rng = random.Random(seed)
    stdout, payload = good.stdout, good.payload
    if which == "stdout":
        stdout = corrupt(stdout, rng)
    else:
        payload = corrupt(payload, rng)
    try:
        ops[index].check(stdout, payload)
    except checks.CheckError:
        return True
    print(f"SELF-TEST: a corrupted {which} of {' '.join(ops[index].argv)} passed its check",
          file=sys.stderr)
    return False


def layer_metrics(results: list) -> dict:
    total = tracer.combine([res.layers for res in results])
    build = total.get("elements.build_s", 0.0)
    total["elements.table_cells_per_s"] = total["elements.cells_built"] / build if build else 0.0
    total["cli.stdout_bytes"] = sum(len(r.stdout.encode()) for r in results)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "monoidrep" / "cli.py").is_file():
        print(f"error: no monoidrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # byte-compile and load once, untimed: a user pays this only once
        subprocess.run([sys.executable, str(LAUNCH), "-", "order", "S:1"], cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
                       timeout=OP_TIMEOUT_S)
        ops = workloads.build(args.workload, args.seed, workdir, ROOT)
        plain, traced = [], []  # rounds: lists of OpResult
        correct = True
        # with tracing, each op runs untraced and then traced, back to back,
        # so that both see the same load on the machine
        modes = (False, True) if args.trace else (False,)
        while True:
            pairs = [[run_op(op, workdir, trace, deadline) for trace in modes] for op in ops]
            plain.append([p[0] for p in pairs])
            if args.trace:
                traced.append([p[1] for p in pairs])
            print(f"round {len(plain)}: " + ", ".join(
                f"{sum(res.wall_s for res in r[-1]):.3f} s {name}"
                for r, name in ((plain, "untraced"), (traced, "traced")) if r), file=sys.stderr)
            if len(plain) == 1:
                correct &= self_test(args.workload, ops, plain[0], args.seed)
            done = (time.monotonic() - start >= args.seconds
                    and (args.trace or len(plain) >= MIN_ROUNDS[args.workload]))
            if done or time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    rounds = plain + traced
    attempted = sum(len(r) for r in rounds)
    failed = sum(res.failed for r in rounds for res in r)
    correct &= not any(res.wrong for r in rounds for res in r)
    wall = statistics.median(sum(res.wall_s for res in r) for r in plain)
    if args.trace:
        per_round = [layer_metrics(r) for r in traced]
        traced_wall = statistics.median(sum(res.wall_s for res in r) for r in traced)
        metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        metrics["trace.overhead_s"] = traced_wall - wall
        units = {name: "1/s" if name.endswith("_per_s") else
                 "s" if name.endswith("_s") else
                 "bytes" if name.endswith("_bytes") else "count" for name in metrics}
    else:
        setups = [res.setup_s for r in plain for res in r if not math.isnan(res.setup_s)]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced; "
          f"{attempted} ops, {failed} failed; {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
