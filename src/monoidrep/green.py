"""Green's relations L, R, H, J on an enumerated finite monoid, and the
Green data that reduction, induction and the catalogs read.

Classes are compared through principal-ideal membership bitsets (one table
sweep per element).  Class ids are assigned in order of least contained
element, so all derived structure is deterministic.  Since the monoids here
are finite, D coincides with J and is not represented separately.

green_structure also records the idempotents of every J-class, from one
pass over the table diagonal.  lclass_coordinates writes each t in L_e as
s_i * g over a transversal {s_i} and the maximal subgroup G_e (the
Schuetzenberger coordinates induction reads) as two integer arrays.
monoid_green caches the structure on the monoid, so it is computed once.
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
    jclass_idempotents: tuple  # ascending idempotent indices, one tuple per J-class


@dataclass(frozen=True)
class JPoset:
    """Partial order on J-classes; leq[i, j] iff J_i <= J_j."""

    count: int
    leq: np.ndarray
    maximum: int

    def covers(self):
        """Hasse diagram edges (lower, upper) in row-major order: the strict
        relations i < j with no k such that i < k < j."""
        strict = (self.leq & ~np.eye(self.count, dtype=bool)).astype(np.int64)
        cover = (strict > 0) & ~(strict @ strict > 0)
        return tuple((int(i), int(j)) for i, j in np.argwhere(cover))


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

    # J = D = L o R = R o L: the D-class of x is the union of the R-classes
    # met by L_x, and L_x meets every R-class in it, so the least R-class id
    # met by L_x is the same for all of D_x and names it
    least_r = np.full(len(lclasses), n)
    np.minimum.at(least_r, np.asarray(lclass_of), np.asarray(rclass_of))
    jclass_of, jclasses = _classify(least_r[np.asarray(lclass_of)].tolist())

    jclass_idempotents = [[] for _ in jclasses]
    for i in monoid.idempotent_indices():  # ascending, so each list is too
        jclass_idempotents[jclass_of[i]].append(i)

    classes = GreenClasses(
        lclass_of, rclass_of, hclass_of, jclass_of, lclasses, rclasses, hclasses,
        jclasses, tuple(map(tuple, jclass_idempotents)),
    )

    # J-order from two-sided principal ideal containment, one ideal per class
    reps = [members[0] for members in jclasses]
    count = len(reps)
    ideal = np.zeros((count, n), dtype=bool)
    for k, r in enumerate(reps):
        left = np.unique(t[:, r])  # the set Sr
        ideal[k, t[left, :].ravel()] = True  # SrS
    leq = np.ascontiguousarray(ideal[:, reps].T)  # leq[i, j]: rep i lies in S rep_j S
    # J_i <= J_j and J_j <= J_i give equal principal ideals S r S, that is
    # J-related reps, so i = j; a pair i != j proves the ideals wrong
    if (leq & leq.T & ~np.eye(count, dtype=bool)).any():
        raise RuntimeError("J-order is not antisymmetric: ideal computation bug")
    poset = JPoset(count, leq, jclass_of[monoid.identity_index])
    # every s = 1 s 1 lies in the ideal of the identity
    if not leq[:, poset.maximum].all():
        raise RuntimeError("units' class is not the maximum of the J-order")
    return classes, poset


def monoid_green(monoid: FiniteMonoid):
    """Green structure of a monoid, cached on the monoid object."""
    cached = getattr(monoid, "_green_cache", None)
    if cached is None:
        cached = green_structure(monoid)
        monoid._green_cache = cached
    return cached


def idempotents(monoid: FiniteMonoid) -> tuple:
    return monoid.idempotent_indices()


def eggbox(monoid: FiniteMonoid, classes: GreenClasses, jclass: int) -> Eggbox:
    if not 0 <= jclass < len(classes.jclasses):
        raise ValueError(f"no J-class {jclass}")
    members = classes.jclasses[jclass]
    # class ids follow least members, so sorting ids orders rows and columns
    rows = tuple(sorted({classes.rclass_of[m] for m in members}))
    cols = tuple(sorted({classes.lclass_of[m] for m in members}))
    cell = {
        (classes.rclass_of[m], classes.lclass_of[m]): classes.hclasses[classes.hclass_of[m]]
        for m in members
    }
    # D = L o R, and D = J in a finite monoid, so every L-class of a J-class
    # meets every R-class of it, regular or not
    if len(cell) != len(rows) * len(cols):
        raise RuntimeError("empty eggbox cell: Green classes computed wrongly")
    grid = tuple(tuple(cell[r, c] for c in cols) for r in rows)
    idempotents_here = set(classes.jclass_idempotents[jclass])
    idem = tuple(tuple(not idempotents_here.isdisjoint(box) for box in row) for row in grid)
    return Eggbox(jclass, rows, cols, grid, idem)


def maximal_subgroup(monoid: FiniteMonoid, classes: GreenClasses, e: int) -> FiniteMonoid:
    """The H-class of the idempotent e as a group with identity e."""
    if monoid.table[e, e] != e:
        raise ValueError("e is not idempotent")
    members = np.asarray(classes.hclasses[classes.hclass_of[e]], dtype=np.intp)
    position = np.full(len(monoid), -1, dtype=np.int32)
    position[members] = np.arange(len(members))
    table = position[monoid.table[np.ix_(members, members)]]
    # Green's theorem (Howie 2.2.5): the H-class of an idempotent is closed
    # under products and is a group with identity e; a product landing
    # outside it, or a failed group axiom below, proves the classes wrong
    if (table < 0).any():
        raise RuntimeError("H-class of an idempotent is not closed")
    group = FiniteMonoid([monoid.elements[m] for m in members], table, position[e])
    if not group.is_group():
        raise RuntimeError("H-class of e fails the group axioms")
    return group


def transversal(monoid: FiniteMonoid, classes: GreenClasses, e: int) -> Transversal:
    if monoid.table[e, e] != e:
        raise ValueError("e is not idempotent")
    reps = {}  # H-class id -> representative, in order of least member
    for m in classes.lclasses[classes.lclass_of[e]]:  # ascending
        reps.setdefault(classes.hclass_of[m], m)
    reps[classes.hclass_of[e]] = e
    return Transversal(e, tuple(reps.values()), tuple(reps))


def lclass_coordinates(monoid: FiniteMonoid, classes: GreenClasses, trans: Transversal):
    """Int arrays block, local over all elements with
    t = reps[block[t]] * G_e[local[t]] for t in L_e and -1 elsewhere, where
    G_e lists the H-class of e ascending, in maximal_subgroup's order.

    Green's lemma (Howie 2.2.1, dual form) makes the products s_i * g a
    tiling of L_e.  From s_i L e, s_i = u e for some u, and left translation
    by u is a bijection R_e -> R_{s_i} that preserves L-classes, so it maps
    H_e = G_e onto H_{s_i}; on G_e it is g -> u g = u e g = s_i g.  With one
    s_i per H-class of L_e, the k |G_e| products list L_e exactly once each,
    so every (i, g) exists and is unique.  The check below confirms it, and
    rejects a transversal with two representatives in one H-class or a
    missing one.
    """
    e = trans.idempotent
    le = classes.lclass_of[e]
    if any(classes.lclass_of[s] != le for s in trans.reps):
        raise ValueError("transversal representative outside the L-class of e")
    reps = np.asarray(trans.reps, dtype=np.intp)
    ge = np.asarray(classes.hclasses[classes.hclass_of[e]], dtype=np.intp)
    products = monoid.table[np.ix_(reps, ge)]  # products[i, g] = s_i * g
    if not np.array_equal(np.sort(products, axis=None), classes.lclasses[le]):
        raise ValueError("the products s_i * g do not list L_e once each: "
                         "not one representative per H-class")
    block = np.full(len(monoid), -1, dtype=np.intp)
    local = np.full(len(monoid), -1, dtype=np.intp)
    block[products] = np.arange(len(reps))[:, None]
    local[products] = np.arange(len(ge))[None, :]
    return block, local


def hclass_decompose(monoid: FiniteMonoid, classes: GreenClasses, trans: Transversal, t: int):
    """Write t in L_e uniquely as s_i * g with g in G_e; returns (i, g)."""
    e = trans.idempotent
    if classes.lclass_of[t] != classes.lclass_of[e]:
        raise ValueError("element is not in the L-class of e")
    block, local = lclass_coordinates(monoid, classes, trans)
    return int(block[t]), classes.hclasses[classes.hclass_of[e]][local[t]]


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
