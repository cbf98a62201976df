"""Green's relations L, R, H, J on an enumerated finite monoid.

Classes are compared through principal-ideal membership bitsets (one table
sweep per element).  Class ids are assigned in order of least contained
element, so all derived structure is deterministic.  Since the monoids here
are finite, D coincides with J and is not represented separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import FiniteMonoid


@dataclass(frozen=True)
class GreenClasses:
    lclass_of: tuple
    rclass_of: tuple
    hclass_of: tuple
    jclass_of: tuple
    lclasses: tuple  # member-index tuples, one per class
    rclasses: tuple
    hclasses: tuple
    jclasses: tuple


@dataclass(frozen=True)
class JPoset:
    """Partial order on J-classes; leq[i, j] iff J_i <= J_j."""

    count: int
    leq: np.ndarray
    maximum: int

    def covers(self):
        """Hasse diagram edges (lower, upper)."""
        out = []
        for i in range(self.count):
            for j in range(self.count):
                if i == j or not self.leq[i, j]:
                    continue
                if not any(
                    self.leq[i, k] and self.leq[k, j] and k not in (i, j)
                    for k in range(self.count)
                ):
                    out.append((i, j))
        return tuple(out)


@dataclass(frozen=True)
class Eggbox:
    jclass: int
    row_rclasses: tuple
    col_lclasses: tuple
    grid: tuple  # grid[r][c] = sorted member-index tuple (an H-class)
    idempotent_cells: tuple  # parallel bool grid


@dataclass(frozen=True)
class Transversal:
    """One representative per H-class of L_e, with e representing its own."""

    idempotent: int
    reps: tuple  # element indices, ordered by the least member of the H-class
    hclass_ids: tuple


def _classify(keys):
    """Assign class ids by first appearance (= least member)."""
    ids = {}
    of = []
    for key in keys:
        if key not in ids:
            ids[key] = len(ids)
        of.append(ids[key])
    members = [[] for _ in range(len(ids))]
    for i, c in enumerate(of):
        members[c].append(i)
    return tuple(of), tuple(tuple(m) for m in members)


def green_structure(monoid: FiniteMonoid):
    n = len(monoid)
    t = monoid.table

    lmem = np.zeros((n, n), dtype=bool)  # lmem[s, x]: x in Ss
    lmem[np.arange(n)[None, :], t] = True
    rmem = np.zeros((n, n), dtype=bool)  # rmem[s, x]: x in sS
    rmem[np.arange(n)[:, None], t] = True

    lkeys = [row.tobytes() for row in np.packbits(lmem, axis=1)]
    rkeys = [row.tobytes() for row in np.packbits(rmem, axis=1)]
    lclass_of, lclasses = _classify(lkeys)
    rclass_of, rclasses = _classify(rkeys)
    hclass_of, hclasses = _classify(list(zip(lclass_of, rclass_of)))

    # J = <L, R> via union-find over elements
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for members in lclasses + rclasses:
        root = find(members[0])
        for m in members[1:]:
            parent[find(m)] = root
    jclass_of, jclasses = _classify([find(i) for i in range(n)])

    classes = GreenClasses(
        lclass_of, rclass_of, hclass_of, jclass_of,
        lclasses, rclasses, hclasses, jclasses,
    )

    # J-order from two-sided principal ideal containment, one ideal per class
    reps = [members[0] for members in jclasses]
    count = len(reps)
    ideal = np.zeros((count, n), dtype=bool)
    for k, r in enumerate(reps):
        left = np.unique(t[:, r])  # the set Sr
        ideal[k, t[left, :].ravel()] = True  # SrS
    leq = np.zeros((count, count), dtype=bool)
    for i in range(count):
        for j in range(count):
            leq[i, j] = ideal[j, reps[i]]
    for i in range(count):
        for j in range(count):
            if i != j and leq[i, j] and leq[j, i]:
                raise RuntimeError("J-order is not antisymmetric: ideal computation bug")
    poset = JPoset(count, leq, jclass_of[monoid.identity_index])
    if not leq[:, poset.maximum].all():
        raise RuntimeError("units' class is not the maximum of the J-order")
    return classes, poset


def idempotents(monoid: FiniteMonoid) -> tuple:
    return monoid.idempotent_indices()


def eggbox(monoid: FiniteMonoid, classes: GreenClasses, jclass: int) -> Eggbox:
    if not 0 <= jclass < len(classes.jclasses):
        raise ValueError(f"no J-class {jclass}")
    members = classes.jclasses[jclass]
    rows = sorted({classes.rclass_of[m] for m in members}, key=lambda c: classes.rclasses[c][0])
    cols = sorted({classes.lclass_of[m] for m in members}, key=lambda c: classes.lclasses[c][0])
    cell = {(classes.rclass_of[m], classes.lclass_of[m]): [] for m in members}
    for m in members:
        cell[(classes.rclass_of[m], classes.lclass_of[m])].append(m)
    grid, idem = [], []
    for r in rows:
        grow, irow = [], []
        for c in cols:
            box = tuple(sorted(cell.get((r, c), ())))
            if not box:
                raise RuntimeError("empty eggbox cell: monoid is not regular")
            grow.append(box)
            irow.append(any(monoid.table[m, m] == m for m in box))
        grid.append(tuple(grow))
        idem.append(tuple(irow))
    return Eggbox(jclass, tuple(rows), tuple(cols), tuple(grid), tuple(idem))


def maximal_subgroup(monoid: FiniteMonoid, classes: GreenClasses, e: int) -> FiniteMonoid:
    """The H-class of the idempotent e as a group with identity e."""
    if monoid.table[e, e] != e:
        raise ValueError("e is not idempotent")
    h = classes.hclass_of[e]
    members = classes.hclasses[h]
    local = {m: k for k, m in enumerate(members)}
    size = len(members)
    table = np.empty((size, size), dtype=np.int32)
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            p = int(monoid.table[a, b])
            if p not in local:
                raise RuntimeError("H-class of an idempotent is not closed")
            table[i, j] = local[p]
    group = FiniteMonoid([monoid.elements[m] for m in members], table, local[e])
    if not group.is_group():
        raise RuntimeError("H-class of e fails the group axioms")
    return group


def transversal(monoid: FiniteMonoid, classes: GreenClasses, e: int) -> Transversal:
    if monoid.table[e, e] != e:
        raise ValueError("e is not idempotent")
    le_members = classes.lclasses[classes.lclass_of[e]]
    by_h = {}
    for m in le_members:
        by_h.setdefault(classes.hclass_of[m], []).append(m)
    e_h = classes.hclass_of[e]
    hs = sorted(by_h, key=lambda h: min(by_h[h]))
    reps = tuple(e if h == e_h else min(by_h[h]) for h in hs)
    return Transversal(e, reps, tuple(hs))


def hclass_decompose(monoid: FiniteMonoid, classes: GreenClasses, trans: Transversal, t: int):
    """Write t in L_e uniquely as s_i * g with g in G_e; returns (i, g)."""
    e = trans.idempotent
    if classes.lclass_of[t] != classes.lclass_of[e]:
        raise ValueError("element is not in the L-class of e")
    h = classes.hclass_of[t]
    i = trans.hclass_ids.index(h)
    s_i = trans.reps[i]
    ge = classes.hclasses[classes.hclass_of[e]]
    hits = [g for g in ge if monoid.table[s_i, g] == t]
    if len(hits) != 1:
        raise RuntimeError(f"decomposition not unique: {len(hits)} witnesses")
    return i, hits[0]


def jclass_subgroup_iso(monoid: FiniteMonoid, classes: GreenClasses, e: int, f: int, s: int):
    """The isomorphism G_e -> G_f through g -> s g s*, as an index map.

    s must lie in the H-class in the column (L-class) of G_e and the row
    (R-class) of G_f; s* is its semigroup inverse there.
    """
    t = monoid.table
    if t[e, e] != e or t[f, f] != f:
        raise ValueError("e and f must be idempotent")
    if classes.jclass_of[e] != classes.jclass_of[f]:
        raise ValueError("e and f are not J-related")
    if classes.lclass_of[s] != classes.lclass_of[e] or classes.rclass_of[s] != classes.rclass_of[f]:
        raise ValueError("s is not in the required H-class")
    stars = [
        x for x in range(len(monoid))
        if t[x, s] == e and t[s, x] == f
        and t[t[s, x], s] == s and t[t[x, s], x] == x
    ]
    if not stars:
        raise ValueError("no semigroup inverse s* with s*s = e and ss* = f")
    s_star = stars[0]
    ge = classes.hclasses[classes.hclass_of[e]]
    gf = set(classes.hclasses[classes.hclass_of[f]])
    mapping = {g: int(t[t[s, g], s_star]) for g in ge}
    if set(mapping.values()) != gf or len(set(mapping.values())) != len(ge):
        raise RuntimeError("conjugation by s is not a bijection G_e -> G_f")
    for g in ge:
        for h in ge:
            if mapping[int(t[g, h])] != t[mapping[g], mapping[h]]:
                raise RuntimeError("conjugation by s is not a homomorphism")
    return mapping, s_star
