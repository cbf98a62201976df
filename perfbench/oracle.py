"""Values the benchmark checks monoidrep's outputs against.

Nothing here imports monoidrep: every expected number is computed from a
closed form or by a brute force written from the definitions, so a wrong
answer in the program cannot leak into the expectation.

Conventions follow the program's reports: a product x*y of maps is the
composite "apply y, then x", and elements of S/T print as image lists
"[a,b,...]", of I as cycle-link text such as "(1,2)[3,4]" or "0".
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod


# -- closed forms -------------------------------------------------------------

def stirling2(n: int, k: int) -> int:
    """Set partitions of an n-set into k blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def fubini(n: int) -> int:
    """Ordered set partitions of an n-set."""
    return sum(factorial(k) * stirling2(n, k) for k in range(n + 1))


def order_closed_form(kind: str, n: int) -> int:
    if kind == "S":
        return factorial(n)
    if kind == "T":
        return n ** n
    if kind in ("I", "subsets"):
        return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
    if kind == "ordperm":
        return 1 + fubini(n) * factorial(n)
    raise ValueError(kind)


def int_partitions(n: int, largest: int = None):
    """Partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, largest), 0, -1):
        out.extend((first,) + rest for rest in int_partitions(n - first, first))
    return out


def hook_dim(shape) -> int:
    """Dimension of the Specht module of a partition, by the hook-length formula."""
    shape = tuple(shape)
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])] if shape else []
    hooks = prod(
        (shape[i] - j) + (cols[j] - i) - 1
        for i in range(len(shape)) for j in range(shape[i])
    )
    return factorial(sum(shape)) // hooks


def mn_character(shape, cycle_type) -> int:
    """Irreducible character of S_n by the Murnaghan-Nakayama rule.

    The shape is held as a beta-set; removing a rim hook of length r moves
    one bead from b to b - r, with sign (-1)^(beads strictly between).
    """
    shape = tuple(shape)
    beta = frozenset(part + len(shape) - 1 - i for i, part in enumerate(shape))
    return _mn(beta, tuple(sorted(cycle_type, reverse=True)))


@lru_cache(maxsize=None)
def _mn(beta: frozenset, cycles: tuple) -> int:
    if not cycles:
        return 1
    r, rest = cycles[0], cycles[1:]
    total = 0
    for b in beta:
        if b - r >= 0 and b - r not in beta:
            between = sum(1 for c in beta if b - r < c < b)
            total += (-1) ** between * _mn(beta - {b} | {b - r}, rest)
    return total


# -- element text and composition ---------------------------------------------

_BLOCK_RE = re.compile(r"\(([0-9,]+)\)|\[([0-9,]+)\]")


def parse_images(text: str) -> tuple:
    """"[2,1,3]" -> (2, 1, 3)."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not an image list: {text!r}")
    return tuple(int(tok) for tok in text[1:-1].split(","))


def parse_partial(text: str, n: int) -> tuple:
    """Cycle-link text -> image tuple of length n with 0 for "undefined"."""
    images = [0] * n
    text = text.strip()
    if text == "0":
        return tuple(images)
    pos = 0
    for m in _BLOCK_RE.finditer(text):
        if m.start() != pos:
            raise ValueError(f"bad cycle-link text {text!r}")
        pos = m.end()
        if m.group(1) is not None:
            pts = [int(p) for p in m.group(1).split(",")]
            for k, p in enumerate(pts):
                images[p - 1] = pts[(k + 1) % len(pts)]
        else:
            pts = [int(p) for p in m.group(2).split(",")]
            for a, b in zip(pts, pts[1:]):
                images[a - 1] = b
    if pos != len(text):
        raise ValueError(f"bad cycle-link text {text!r}")
    return tuple(images)


def compose(x: tuple, y: tuple) -> tuple:
    """x*y on image tuples (0 = undefined): apply y, then x."""
    return tuple(x[v - 1] if v else 0 for v in y)


def cycle_type(perm: tuple) -> tuple:
    seen, lengths = set(), []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def fixed_points(images: tuple) -> int:
    return sum(1 for i, v in enumerate(images, 1) if v == i)


def rank(images: tuple) -> int:
    return len({v for v in images if v})


# -- brute-force closure and Green structure ----------------------------------

def closure(generators, n: int) -> list:
    """Breadth-first closure of image tuples under composition, with identity."""
    identity = tuple(range(1, n + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                p = compose(x, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return sorted(seen)


def green_summary(elements) -> dict:
    """{"J<rank>": (size, rows, cols, subgroup order)} from principal ideals.

    R-classes are the classes of equal right ideals xS, L-classes of equal
    left ideals Sx; D = J is the join of R and L in a finite monoid, and the
    subgroup order is the size of an H-class holding an idempotent.
    """
    right = {x: frozenset(compose(x, s) for s in elements) for x in elements}
    left = {x: frozenset(compose(s, x) for s in elements) for x in elements}
    parent = {x: x for x in elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ideals in (right, left):
        first = {}
        for x in elements:
            root = first.setdefault(ideals[x], x)
            parent[find(x)] = find(root)
    dclasses = {}
    for x in elements:
        dclasses.setdefault(find(x), []).append(x)
    out = {}
    for members in dclasses.values():
        idem = next(x for x in members if compose(x, x) == x)
        hsize = sum(1 for x in members if right[x] == right[idem] and left[x] == left[idem])
        label = f"J{rank(members[0])}"
        if label in out:
            raise ValueError(f"two J-classes of rank {label[1:]}")
        out[label] = (
            len(members),
            len({right[x] for x in members}),
            len({left[x] for x in members}),
            hsize,
        )
    return out


def eggbox_closed_form(kind: str, n: int) -> dict:
    """Eggbox summary of S_n, I_n and T_n from C(n,k), S(n,k) and k!.

    In T_n with products "apply y, then x", x R y iff the images agree and
    x L y iff the kernels agree, so rows count images and columns kernels.
    """
    if kind == "S":
        return {f"J{n}": (factorial(n), 1, 1, factorial(n))}
    if kind in ("I", "subsets"):
        return {
            f"J{k}": (comb(n, k) ** 2 * factorial(k), comb(n, k), comb(n, k), factorial(k))
            for k in range(n + 1)
        }
    if kind == "T":
        return {
            f"J{k}": (comb(n, k) * stirling2(n, k) * factorial(k), comb(n, k),
                      stirling2(n, k), factorial(k))
            for k in range(1, n + 1)
        }
    raise ValueError(kind)


# -- pair monoids over the built-in lattices ----------------------------------

ZERO = "zero"


def _set_partitions(points):
    if not points:
        return [()]
    first, rest = points[0], points[1:]
    out = []
    for smaller in _set_partitions(rest):
        out.append(((first,),) + smaller)
        for k in range(len(smaller)):
            out.append(smaller[:k] + ((first,) + smaller[k],) + smaller[k + 1:])
    return [tuple(sorted(p)) for p in out]


def _ordered_partitions(points):
    if not points:
        return [()]
    out = []
    for size in range(1, len(points) + 1):
        for block in itertools.combinations(points, size):
            rest = tuple(p for p in points if p not in block)
            out.extend((block,) + tail for tail in _ordered_partitions(rest))
    return out


def _merges_consecutive(a, b) -> bool:
    """b arises from a by merging runs of consecutive blocks of a."""
    k = 0
    for big in b:
        acc = set()
        while acc != set(big):
            if k == len(a) or not set(a[k]) <= set(big):
                return False
            acc |= set(a[k])
            k += 1
    return k == len(a)


class PairLattice:
    """A built-in lattice with the S_n action, from the definitions.

    For each lattice element a: full(a) fixes a, pointwise(a) fixes every
    c <= a; the pair monoid has |S_n|/|pointwise(a)| elements over a, its
    J-classes are the S_n-orbits, and the maximal subgroup at a has order
    |full(a)|/|pointwise(a)|.
    """

    def __init__(self, kind: str, n: int):
        self.kind, self.n = kind, n
        pts = tuple(range(1, n + 1))
        if kind == "subsets":
            self.elements = [c for m in range(n + 1) for c in itertools.combinations(pts, m)]
            self.leq = lambda a, b: set(a) <= set(b)
        elif kind == "partitions":
            self.elements = _set_partitions(pts)
            self.leq = lambda a, b: all(any(set(x) <= set(y) for y in b) for x in a)
        elif kind == "ordperm":
            self.elements = [ZERO] + _ordered_partitions(pts)
            self.leq = lambda a, b: a == ZERO or (b != ZERO and _merges_consecutive(a, b))
        else:
            raise ValueError(kind)
        self.perms = list(itertools.permutations(pts))
        below = {a: [c for c in self.elements if self.leq(c, a)] for a in self.elements}
        self.full = {a: frozenset(g for g in self.perms if self.act(g, a) == a)
                     for a in self.elements}
        self.pointwise = {
            a: frozenset(g for g in self.full[a] if all(self.act(g, c) == c for c in below[a]))
            for a in self.elements
        }

    def act(self, g: tuple, a):
        if a == ZERO:
            return a
        if self.kind == "subsets":
            return tuple(sorted(g[x - 1] for x in a))
        blocks = tuple(tuple(sorted(g[x - 1] for x in b)) for b in a)
        return tuple(sorted(blocks)) if self.kind == "partitions" else blocks

    def meet(self, a, b):
        lower = [c for c in self.elements if self.leq(c, a) and self.leq(c, b)]
        top = [c for c in lower if all(self.leq(d, c) for d in lower)]
        if len(top) != 1:
            raise ValueError("no meet")
        return top[0]

    def coset_count(self, a) -> int:
        return len(self.perms) // len(self.pointwise[a])

    def order(self) -> int:
        return sum(self.coset_count(a) for a in self.elements)

    def apex_label(self, a) -> str:
        if self.kind == "subsets":
            return f"J{len(a)}"
        if a == ZERO:
            return "0"
        sizes = [len(b) for b in a]
        if self.kind == "partitions":
            sizes.sort(reverse=True)
        return "(" + ",".join(map(str, sizes)) + ")"

    def jclasses(self) -> dict:
        """{apex label: (orbit size, subgroup order, block sizes)}."""
        out, done = {}, set()
        for a in self.elements:
            if a in done:
                continue
            orbit = {self.act(g, a) for g in self.perms}
            done |= orbit
            h = len(self.full[a]) // len(self.pointwise[a])
            if a == ZERO or a == ():
                blocks = ()
            else:
                blocks = (len(a),) if self.kind == "subsets" else tuple(len(b) for b in a)
            out[self.apex_label(a)] = (len(orbit), h, blocks)
        return out

    def eggbox_summary(self) -> dict:
        return {
            label: (size * size * h, size, size, h)
            for label, (size, h, _) in self.jclasses().items()
        }

    def young_index_total(self) -> int:
        return sum(
            factorial(self.n) // prod(factorial(len(b)) for b in a)
            for a in self.elements if a != ZERO
        )

    def element_key(self, g: tuple, a):
        """One key per pair g_a: the lattice element and the coset g.pointwise(a)."""
        return (a, min(compose(g, k) for k in self.pointwise[a]))

    def multiply(self, x, y):
        """g_a * h_b = (gh)_c with c = (h^-1 . a) meet b."""
        (a, g), (b, h) = x, y
        h_inv = tuple(sorted(range(1, self.n + 1), key=lambda i: h[i - 1]))
        c = self.meet(self.act(h_inv, a), b)
        return self.element_key(compose(g, h), c)

    def parse_lattice_text(self, text: str):
        if text == "0":
            return ZERO
        inner = text[1:-1]
        blocks = [tuple(int(p) for p in body.split(",")) if body else ()
                  for body in re.findall(r"\{([0-9,]*)\}", inner)]
        if self.kind == "subsets":
            return tuple(p for b in blocks for p in b)
        return tuple(sorted(blocks)) if self.kind == "partitions" else tuple(blocks)


# -- catalog expectations ------------------------------------------------------

def catalog_apexes(kind: str, n: int) -> dict:
    """{apex label: (idempotents, subgroup order, block sizes)} for the
    inverse monoids whose catalogs the CLI builds."""
    if kind == "I":
        return {f"J{k}": (comb(n, k), factorial(k), (k,) if k else ()) for k in range(n + 1)}
    return PairLattice(kind, n).jclasses()


def label_parts(text: str) -> tuple:
    """"()" -> (); "(2,1)" -> ((2,1),); "((1),(2))" -> ((1,), (2,))."""
    text = text.strip()
    if text == "()":
        return ()
    if text.startswith("(("):
        return tuple(tuple(int(p) for p in body.split(","))
                     for body in re.findall(r"\(([0-9,]+)\)", text[1:-1]))
    return (tuple(int(p) for p in text[1:-1].split(",")),)


# -- payload text --------------------------------------------------------------

def parse_fraction(token: str) -> Fraction:
    """"-3/4" -> Fraction(-3, 4); integers without a slash."""
    num, slash, den = token.partition("/")
    if slash and not den.isdigit():
        raise ValueError(f"bad fraction {token!r}")
    return Fraction(int(num), int(den) if slash else 1)


def parse_payload(text: str):
    """(header dict, element labels, matrices as tuples of Fraction rows)."""
    lines = text.splitlines()
    header = {}
    pos = 0
    while pos < len(lines) and not lines[pos].startswith("element "):
        key, _, value = lines[pos].partition(": ")
        header[key] = value
        pos += 1
    count, dim = int(header["elements"]), int(header["dim"])
    labels, matrices = [], []
    for k in range(count):
        tag, idx, label = lines[pos].split(" ", 2)
        if tag != "element" or int(idx) != k:
            raise ValueError(f"bad element line {lines[pos]!r}")
        rows = tuple(tuple(parse_fraction(t) for t in lines[pos + 1 + r].split())
                     for r in range(dim))
        if any(len(row) != dim for row in rows):
            raise ValueError(f"element {k}: matrix is not {dim}x{dim}")
        labels.append(label)
        matrices.append(rows)
        pos += 1 + dim
    if pos != len(lines):
        raise ValueError("trailing lines after the last element")
    return header, labels, matrices


def matmul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col) if x) for col in cols) for row in a)


def trace(m) -> Fraction:
    return sum(m[i][i] for i in range(len(m)))
