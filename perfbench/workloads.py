"""The benchmark's op lists: one CLI invocation per op, each with its check.

The seed relabels the points of the generator files by a random permutation
of [n] (conjugation keeps the order and the eggbox) and picks the element
pairs the representation checks multiply.  monoidrep sees only the written
files and the spec strings.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import checks
import oracle

WORKLOADS = ("structure", "catalog", "reps")

# Generator files written for the structure workload, before relabelling.
T_GENS = ("T", 5, ("[2,3,4,5,1]", "[1,1,3,4,5]"))  # closes to 610 elements
I_GENS = ("I", 5, ("(1,2,3,4,5)", "[1,2,3,4](5)", "[1,2]"))  # closes to 631 elements

# Element pairs multiplied per representation payload.
SAMPLED_PAIRS = 60


@dataclass
class Op:
    argv: list
    check: Callable  # check(stdout, payload) -> None, raises checks.CheckError
    out: Path = None  # payload file the op writes, if any


def relabel(kind: str, n: int, gens, perm) -> list:
    """Generators conjugated by perm (perm[i-1] is the new name of point i)."""
    if kind == "T":
        out = []
        for text in gens:
            images = oracle.parse_images(text)
            new = [0] * n
            for i, v in enumerate(images, 1):
                new[perm[i - 1] - 1] = perm[v - 1]
            out.append("[" + ",".join(map(str, new)) + "]")
        return out
    return [re.sub(r"\d+", lambda m: str(perm[int(m.group()) - 1]), text) for text in gens]


def _gens_file(workdir: Path, name: str, spec, rng: random.Random):
    kind, n, gens = spec
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    lines = relabel(kind, n, gens, perm)
    path = workdir / name
    path.write_text(f"{kind} {n}\n" + "\n".join(lines) + "\n")
    parse = oracle.parse_images if kind == "T" else (lambda t: oracle.parse_partial(t, n))
    return path, [parse(t) for t in lines], n


def _structure_ops(workdir: Path, rng: random.Random, root: Path) -> list:
    cases = []
    for kind, n in (("S", 5), ("S", 6), ("I", 4), ("T", 4)):
        ranks = [] if kind == "S" else [f"J{k}" for k in range(0 if kind == "I" else 1, n + 1)]
        cases.append((f"{kind}:{n}", oracle.order_closed_form(kind, n), None,
                      oracle.eggbox_closed_form(kind, n), checks.chain_covers(ranks)))
    for kind in ("subsets", "partitions", "ordperm"):
        lattice = oracle.PairLattice(kind, 4)
        order = lattice.order()
        if kind != "partitions" and order != oracle.order_closed_form(kind, 4):
            raise RuntimeError(f"oracle: {kind} brute force disagrees with its closed form")
        covers = (checks.chain_covers([f"J{k}" for k in range(5)]) if kind == "subsets"
                  else checks.merge_covers(4, ordered=kind == "ordperm"))
        cases.append((f"SGL:{kind}:4", order, lattice, lattice.eggbox_summary(), covers))
    for name, spec in (("t.gens", T_GENS), ("i.gens", I_GENS)):
        path, gens, n = _gens_file(workdir, name, spec, rng)
        elements = oracle.closure(gens, n)
        cases.append((f"gens:{path.relative_to(root)}", len(elements), None,
                      oracle.green_summary(elements), None))
    ops = []
    for spec, order, lattice, summary, covers in cases:
        ops.append(Op(["order", spec],
                      lambda out, _, o=order, lat=lattice: checks.check_order(out, o, lat)))
        for extra in (["--all"], ["--format", "graph"]):
            ops.append(Op(["eggbox", spec] + extra,
                          lambda out, _, s=summary, c=covers: checks.check_eggbox(out, s, c)))
    return ops


def _catalog_ops() -> list:
    ops = []
    for spec in ("I:3", "I:4", "SGL:subsets:4", "SGL:ordperm:3", "SGL:partitions:3"):
        parts = spec.split(":")
        kind, n = parts[-2], int(parts[-1])
        order = (oracle.order_closed_form(kind, n) if kind != "partitions"
                 else oracle.PairLattice(kind, n).order())
        apexes = oracle.catalog_apexes(kind, n)
        ops.append(Op(["irreps", spec, "--check"],
                      lambda out, _, a=apexes, o=order: checks.check_irreps(out, a, o)))
    return ops


def _reps_ops(workdir: Path, rng: random.Random, root: Path) -> list:
    ordperm3 = oracle.PairLattice("ordperm", 3)
    idem_12 = oracle.catalog_apexes("ordperm", 3)["(1,2)"][0]
    cases = [
        ("S:6", "specht:(4,2)", 720, oracle.hook_dim((4, 2)), checks.perm_carrier(6, (4, 2))),
        ("S:5", "specht:(2,2,1)", 120, oracle.hook_dim((2, 2, 1)),
         checks.perm_carrier(5, (2, 2, 1))),
        ("I:4", "mapping", oracle.order_closed_form("I", 4), 4, checks.map_carrier("I", 4)),
        ("T:4", "mapping", 256, 4, checks.map_carrier("T", 4)),
        # the maximal subgroup S_3 at the least rank-3 idempotent, acting on its image
        ("T:4", "reduce:mapping:J3", 6, 3, checks.map_carrier("T", 4, group=True)),
        ("I:4", "induce:J2:(1,1)", oracle.order_closed_form("I", 4),
         comb(4, 2) * oracle.hook_dim((1, 1)), checks.rook_induced_carrier(4, 2, (1, 1))),
        ("SGL:ordperm:3", "induce:(1,2):((1),(2))", ordperm3.order(),
         idem_12 * oracle.hook_dim((1,)) * oracle.hook_dim((2,)),
         checks.pair_carrier(ordperm3)),
    ]
    ops = []
    for k, (spec, build, order, dim, carrier) in enumerate(cases):
        out = workdir / f"rep{k}.txt"
        pair_rng = random.Random(rng.getrandbits(64))
        ops.append(Op(
            ["rep", spec, "--build", build, "--out", str(out.relative_to(root))],
            lambda stdout, payload, s=spec, o=order, d=dim, c=carrier, r=pair_rng:
                checks.check_rep(stdout, payload, s, o, d, c, SAMPLED_PAIRS, r),
            out))
    return ops


def build(workload: str, seed: int, workdir: Path, root: Path) -> list:
    rng = random.Random(seed)
    if workload == "structure":
        return _structure_ops(workdir, rng, root)
    if workload == "catalog":
        return _catalog_ops()
    if workload == "reps":
        return _reps_ops(workdir, rng, root)
    raise ValueError(f"unknown workload {workload!r}")
