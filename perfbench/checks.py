"""Checks of monoidrep's reports against the oracle's independent values.

Each check takes the text the CLI produced and raises CheckError on the
first disagreement.  The corrupt_* functions make the deliberately wrong
outputs that the benchmark feeds back through the same checks to show that
they can fail.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from math import factorial, prod
from typing import Callable

import oracle


class CheckError(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            out.setdefault(key, value)
    return out


def field(stdout: str, key: str) -> str:
    value = fields(stdout).get(key)
    expect(value is not None, f"no '{key}:' line")
    return value


# -- J-poset covers -----------------------------------------------------------

def chain_covers(labels) -> set:
    return set(zip(labels, labels[1:]))


def merge_covers(n: int, ordered: bool) -> set:
    """Covers of the J-order of a pair monoid over set or ordered partitions:
    a class lies just below the class whose type merges two of its parts
    (adjacent parts for ordered partitions); the zero class, if any, lies
    just below the all-singletons class."""
    fmt = lambda parts: "(" + ",".join(map(str, parts)) + ")"
    types = set(oracle.int_partitions(n))
    if ordered:
        types = {p for t in types for p in itertools.permutations(t)}
    covers = set()
    for t in types:
        for i, j in itertools.combinations(range(len(t)), 2):
            if ordered:
                if j == i + 1:
                    covers.add((fmt(t), fmt(t[:i] + (t[i] + t[j],) + t[j + 1:])))
            else:
                rest = t[:i] + t[i + 1:j] + t[j + 1:]
                covers.add((fmt(t), fmt(tuple(sorted(rest + (t[i] + t[j],), reverse=True)))))
    if ordered:
        covers.add(("0", fmt((1,) * n)))
    return covers


# -- structure ------------------------------------------------------------------

def check_order(stdout: str, order: int, lattice=None) -> None:
    expect(field(stdout, "command") == "order", "not an order report")
    expect(int(field(stdout, "order")) == order,
           f"order {field(stdout, 'order')} != {order}")
    if lattice is None:
        return
    expect(int(field(stdout, "formula")) == order, "formula total disagrees")
    expect(int(field(stdout, "enumerated")) == order, "enumerated total disagrees")
    expect(field(stdout, "agreement") == "yes", "formula and enumeration disagree")
    lines = stdout.splitlines()
    start = lines.index("breakdown:") + 1
    counts = [int(ln.rsplit(": ", 1)[1]) for ln in lines[start:] if ln.startswith("  ")]
    expected = sorted(lattice.coset_count(a) for a in lattice.elements)
    expect(sorted(counts) == expected, "breakdown coset counts disagree")
    if lattice.kind == "partitions":
        young = lattice.young_index_total()
        expect(int(field(stdout, "young_index_total")) == young, "Young index sum disagrees")
        agree = "yes" if young == order else "no"
        expect(field(stdout, "young_index_agreement") == agree, "Young agreement flag wrong")


_JCLASS_RE = re.compile(
    r"^jclass (\S+): size (\d+), rows (\d+), cols (\d+), subgroup order (\d+)$")
_NODE_RE = re.compile(r"^node (\S+) size=(\d+) subgroup=(\d+)$")


def check_eggbox(stdout: str, summary: dict, covers=None) -> None:
    """summary: {label: (size, rows, cols, subgroup)}; covers: set of
    (lower, upper) label pairs, or None when not known independently."""
    expect(field(stdout, "command") == "eggbox", "not an eggbox report")
    expect(int(field(stdout, "jclasses")) == len(summary), "J-class count disagrees")
    lines = stdout.splitlines()
    seen, edges = {}, set()
    if field(stdout, "format") == "graph":
        for line in lines:
            m = _NODE_RE.match(line)
            if m:
                seen[m.group(1)] = (int(m.group(2)), int(m.group(3)))
            elif line.startswith("edge "):
                edges.add(tuple(line.split()[1:]))
        expect(seen == {k: (v[0], v[3]) for k, v in summary.items()},
               "node sizes or subgroup orders disagree")
    else:
        k = 0
        while k < len(lines):
            line = lines[k]
            if line.startswith("  ") and " < " in line:
                edges.add(tuple(line.strip().split(" < ")))
            m = _JCLASS_RE.match(line)
            if m:
                label, size, rows, cols, sub = m.group(1), *map(int, m.groups()[1:])
                seen[label] = (size, rows, cols, sub)
                grid = [ln.split() for ln in lines[k + 1:k + 1 + rows]]
                expect(len(grid) == rows and all(len(r) == cols for r in grid),
                       f"{label}: grid is not {rows}x{cols}")
                expect(all(int(c.lstrip("*")) == sub for r in grid for c in r),
                       f"{label}: a cell differs from the subgroup order")
                expect(all(any(c.startswith("*") for c in r) for r in grid)
                       and all(any(r[j].startswith("*") for r in grid) for j in range(cols)),
                       f"{label}: a row or column holds no idempotent")
                k += rows
            k += 1
        expect(seen == summary, "J-class sizes, rows, cols or subgroup orders disagree")
    if covers is not None:
        expect(edges == covers, "J-poset covers disagree")


# -- catalog --------------------------------------------------------------------

def check_irreps(stdout: str, apexes: dict, order: int) -> None:
    """apexes: {label: (idempotents, subgroup order, block sizes)}."""
    expect(field(stdout, "command") == "irreps", "not an irreps report")
    lines = stdout.splitlines()
    start = lines.index("columns: apex label dim") + 1
    end = next(k for k in range(start, len(lines)) if lines[k].startswith("sum_dim_sq:"))
    rows = [ln.split() for ln in lines[start:end]]
    expect(int(field(stdout, "entries")) == len(rows), "entry count line disagrees")
    by_apex = {}
    for apex, label, dim in rows:
        expect(apex in apexes, f"unknown apex {apex}")
        idem, _, blocks = apexes[apex]
        parts = oracle.label_parts(label)
        hooks = prod(oracle.hook_dim(p) for p in parts)
        expect(int(dim) == idem * hooks,
               f"{apex} {label}: dim {dim} != {idem} idempotents x {hooks}")
        by_apex.setdefault(apex, []).append((parts, hooks))
    for apex, (idem, group_order, blocks) in apexes.items():
        entries = by_apex.get(apex, [])
        young = group_order == prod(factorial(b) for b in blocks)
        count = prod(len(oracle.int_partitions(b)) for b in blocks) if young else 1
        expect(len(entries) == count, f"{apex}: {len(entries)} entries, expected {count}")
        expect(len({parts for parts, _ in entries}) == count, f"{apex}: repeated label")
        expect(sum(h * h for _, h in entries) == group_order,
               f"{apex}: squared label dimensions do not sum to {group_order}")
        if young and blocks:
            expect(all(sorted(map(sum, parts)) == sorted(blocks) for parts, _ in entries),
                   f"{apex}: label shapes do not fit the blocks {blocks}")
    total = sum(int(r[2]) ** 2 for r in rows)
    expect(total == order, f"sum of squared dims {total} != order {order}")
    expect(int(field(stdout, "sum_dim_sq")) == order, "sum_dim_sq line disagrees")
    expect(int(field(stdout, "order")) == order, "order line disagrees")
    expect(field(stdout, "check_complete") == "yes", "completeness not reported")
    expect(field(stdout, "check_roundtrips") == f"{len(rows)}/{len(rows)}",
           "round trips not all reported")


# -- representation payloads ----------------------------------------------------

@dataclass
class Carrier:
    """How to read element labels of a payload and multiply them.

    key(label) gives a hashable element, mul(x, y) the key of the product,
    identity the key whose matrix must be the identity (None: the one
    idempotent, for a group H-class), and character (optional) the expected
    trace of an element's matrix.
    """

    key: Callable
    mul: Callable
    identity: tuple
    character: Callable = None


def perm_carrier(n: int, shape) -> Carrier:
    return Carrier(oracle.parse_images, oracle.compose, tuple(range(1, n + 1)),
                   lambda x: oracle.mn_character(shape, oracle.cycle_type(x)))


def map_carrier(kind: str, n: int, group: bool = False) -> Carrier:
    """Mapping matrices have trace = fixed points; group=True for an H-class,
    whose identity is its idempotent."""
    key = oracle.parse_images if kind == "T" else (lambda t: oracle.parse_partial(t, n))
    return Carrier(key, oracle.compose, None if group else tuple(range(1, n + 1)),
                   oracle.fixed_points)


def rook_induced_carrier(n: int, k: int, shape) -> Carrier:
    """The I_n irreducible at rank k and partition shape, whose character at s
    sums the S_k character of s restricted to each k-set A with s(A) = A
    (Munn; Solomon, J. Algebra 2002)."""

    def character(s):
        total = 0
        for block in itertools.combinations(range(1, n + 1), k):
            if all(s[x - 1] in block for x in block):
                local = tuple(block.index(s[x - 1]) + 1 for x in block)
                total += oracle.mn_character(shape, oracle.cycle_type(local))
        return total

    return Carrier(lambda t: oracle.parse_partial(t, n), oracle.compose,
                   tuple(range(1, n + 1)), character)


def pair_carrier(lattice) -> Carrier:
    n = lattice.n

    def key(text):
        g, _, a = text.partition("@")
        return lattice.element_key(oracle.parse_partial(g, n), lattice.parse_lattice_text(a))

    top = max(lattice.elements, key=lambda a: sum(lattice.leq(c, a) for c in lattice.elements))
    identity = lattice.element_key(tuple(range(1, n + 1)), top)
    return Carrier(key, lattice.multiply, identity)


def check_rep(stdout: str, payload: str, spec: str, order: int, dim: int,
              carrier: Carrier, pairs: int, rng: random.Random) -> None:
    expect(field(stdout, "command") == "rep", "not a rep report")
    expect(field(stdout, "verified") == "yes", "not reported verified")
    expect(int(field(stdout, "dim")) == dim, f"dim {field(stdout, 'dim')} != {dim}")
    try:
        header, labels, matrices = oracle.parse_payload(payload)
    except (ValueError, KeyError, IndexError) as exc:
        raise CheckError(f"payload does not parse: {exc}") from None
    expect(header.get("monoid") == spec, "payload names another monoid")
    expect(len(labels) == order, f"payload holds {len(labels)} elements, expected {order}")
    expect(int(header["dim"]) == dim, "payload dim disagrees")
    index = {}
    for k, label in enumerate(labels):
        index[carrier.key(label)] = k
    expect(len(index) == order, "payload repeats an element")
    keys = list(index)
    identity = carrier.identity
    if identity is None:
        idempotents = [x for x in keys if carrier.mul(x, x) == x]
        expect(len(idempotents) == 1, "a group H-class holds one idempotent")
        identity = idempotents[0]
    expect(identity in index, "the identity is not an element")
    ident = matrices[index[identity]]
    expect(all(ident[i][j] == (1 if i == j else 0) for i in range(dim) for j in range(dim)),
           "the identity does not map to the identity matrix")
    if carrier.character is not None:
        for x in keys:
            expect(oracle.trace(matrices[index[x]]) == carrier.character(x),
                   f"character disagrees at {labels[index[x]]}")
    for _ in range(pairs):
        x, y = rng.choice(keys), rng.choice(keys)
        xy = carrier.mul(x, y)
        expect(xy in index, f"{labels[index[x]]} * {labels[index[y]]} is not an element")
        expect(oracle.matmul(matrices[index[x]], matrices[index[y]]) == matrices[index[xy]],
               f"rho(x)rho(y) != rho(xy) at {labels[index[x]]}, {labels[index[y]]}")


# -- deliberately wrong outputs ------------------------------------------------

def corrupt_order(stdout: str) -> str:
    n = int(field(stdout, "order"))
    return stdout.replace(f"order: {n}\n", f"order: {n + 1}\n", 1)


def corrupt_catalog_dim(stdout: str) -> str:
    lines = stdout.splitlines(keepends=True)
    k = lines.index("columns: apex label dim\n") + 1
    apex, label, dim = lines[k].split()
    lines[k] = f"{apex} {label} {int(dim) + 1}\n"
    return "".join(lines)


def corrupt_payload_entry(payload: str, rng: random.Random) -> str:
    """Add one to a diagonal entry of one seed-chosen element's matrix."""
    lines = payload.splitlines(keepends=True)
    dim = int(next(ln for ln in lines if ln.startswith("dim: ")).split()[1])
    heads = [k for k, ln in enumerate(lines) if ln.startswith("element ")]
    head = rng.choice(heads)
    row = rng.randrange(dim)
    tokens = lines[head + 1 + row].split()
    tokens[row] = str(oracle.parse_fraction(tokens[row]) + 1)
    lines[head + 1 + row] = " ".join(tokens) + "\n"
    return "".join(lines)
