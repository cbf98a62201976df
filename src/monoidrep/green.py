"""Green's relations L, R, H, J on an enumerated finite monoid, and the
Green data that reduction, induction and the catalogs read.

L- and R-classes are the strongly connected components of the left and
right Cayley graphs of the monoid's generating set, and the J-order is
reachability in the two-sided graph; green_structure holds the proof.  This
needs O(|S| |A|) memory, for a generating set A: both graphs, and the
squares that give the idempotents of every J-class, are Python int lists
read along the monoid's left Cayley graph (its columns and mul), so
no table is composed and numpy is not loaded here.  The J-order is a
tuple of int bitsets.  Class ids are assigned in order of least contained
element, so all derived structure is deterministic.  Since the monoids here are finite,
D coincides with J and is not represented separately.

maximal_subgroup closes G_e, the H-class of an idempotent e and the group
of units of eMe, as a certified left Cayley graph with identity e.
lclass_coordinates writes each t in L_e as s_i * g over a transversal {s_i}
and G_e (the Schuetzenberger coordinates induction reads) as two integer
lists.  monoid_green caches the structure on the monoid, so it is
computed once, and maximal_subgroup caches each G_e beside it.
apex_labels names each J-class for display by its least element's
apex_label(): J<rank>, or block sizes for the pair monoids.
"""

from __future__ import annotations

from typing import NamedTuple

from .elements import FiniteMonoid, _bits, _greedy_generators


class GreenClasses(NamedTuple):
    lclass_of: tuple
    rclass_of: tuple
    hclass_of: tuple
    jclass_of: tuple
    lclasses: tuple  # member-index tuples, one per class
    rclasses: tuple
    hclasses: tuple
    jclasses: tuple
    jclass_idempotents: tuple  # ascending idempotent indices, one tuple per J-class


class JPoset(NamedTuple):
    """Partial order on J-classes: leq[i] is the int bitset of the j with
    J_i <= J_j, so J_i <= J_j iff leq[i] >> j & 1."""

    count: int  # the number of J-classes; shadows tuple.count
    leq: tuple
    maximum: int

    def covers(self):
        """Hasse diagram edges (lower, upper) in row-major order: the strict
        relations i < j with no k such that i < k < j, that is, the j
        strictly above i and not strictly above any k strictly above i."""
        strict = [up & ~(1 << i) for i, up in enumerate(self.leq)]
        out = []
        for i, above in enumerate(strict):
            through = 0
            for k in _bits(above):
                through |= strict[k]
            out.extend((i, j) for j in _bits(above & ~through))
        return tuple(out)


class Eggbox(NamedTuple):
    jclass: int
    row_rclasses: tuple
    col_lclasses: tuple
    grid: tuple  # grid[r][c] = sorted member-index tuple (an H-class)
    idempotent_cells: tuple  # parallel bool grid


class Transversal(NamedTuple):
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


def _strong_components(steps, n: int):
    """Strongly connected components of the graph on 0..n-1 with an edge
    v -> step[v] for each step in steps (int lists, as _reach walks), by
    Tarjan's algorithm with an explicit stack in place of recursion.  Returns
    the component of every node, numbered in the order Tarjan closes them,
    which puts each after every component it reaches."""
    order = [-1] * n  # visiting order, -1 while unvisited
    low = [0] * n
    comp = [-1] * n  # -1 while unassigned, that is, on the stack once visited
    stack, count, visited = [], 0, 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path = [(root, iter(steps))]
        while path:
            v, edges = path[-1]
            for step in edges:
                w = step[v]
                if order[w] < 0:
                    order[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    path.append((w, iter(steps)))
                    break
                if comp[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
    return comp


def green_structure(monoid: FiniteMonoid):
    """Green classes and J-order from the Cayley graphs of a generating set.

    Let A = monoid.generating_set().  It generates S as a monoid: the
    closure's breadth-first search reaches every element of a monoid closed
    from A along A's left rows, which FiniteMonoid._validate proves are the
    element product.  So every u in S is a product a_1 ... a_k of
    generators (k = 0 for the identity), and xS = {x a_1 ... a_k} is
    exactly the set of nodes reachable from x in the right graph x -> x a.  Hence xS = yS, that is x R y, iff x and y reach
    each other: R-classes are the strongly connected components of the
    right graph.  Dually, Sx is the set reachable in the left graph
    x -> a x, and L-classes are its components.  By associativity, S x S =
    {u x v} is the set reachable from x in the two-sided graph with both
    kinds of edge, so J_x <= J_y iff x is reachable from y there.
    """
    n = len(monoid)
    # right[k][x] = x * a_k, the kept columns, and left[k][x] = a_k * x
    right, left = monoid._generator_columns(), monoid._left

    lclass_of, lclasses = _classify(_strong_components(left, n))
    rclass_of, rclasses = _classify(_strong_components(right, n))
    hclass_of, hclasses = _classify(list(zip(lclass_of, rclass_of)))

    # J = D = L o R = R o L: the D-class of x is the union of the R-classes
    # met by L_x, and L_x meets every R-class in it, so the least R-class id
    # met by L_x is the same for all of D_x and names it
    least_r = [n] * len(lclasses)
    for lc, rc in zip(lclass_of, rclass_of):
        least_r[lc] = min(least_r[lc], rc)
    jclass_of, jclasses = _classify([least_r[lc] for lc in lclass_of])

    jclass_idempotents = [[] for _ in jclasses]
    for i in monoid.idempotent_indices():  # ascending, so each list is too
        jclass_idempotents[jclass_of[i]].append(i)

    classes = GreenClasses(
        lclass_of, rclass_of, hclass_of, jclass_of, lclasses, rclasses, hclasses,
        jclasses, tuple(map(tuple, jclass_idempotents)),
    )

    # J-order: the two-sided graph condensed to J-classes, an edge j -> i
    # when some x in J_j has x a or a x in J_i, then closed under
    # reachability one component at a time, each after every component it
    # reaches, into int bitsets: below[j] holds i iff J_i <= J_j
    count = len(jclasses)
    edges = set().union(*(zip(jclass_of, map(jclass_of.__getitem__, step)) for step in right + left))
    succ = [[j] for j in range(count)]  # a self-loop first: it joins no component
    for j, i in sorted(edges):
        succ[j].append(i)
    width = max(map(len, succ))  # as steps, each list repeats up to the longest
    comp = _strong_components([[s[k % len(s)] for s in succ] for k in range(width)], count)
    groups = [[] for _ in range(max(comp, default=-1) + 1)]
    for j, c in enumerate(comp):
        groups[c].append(j)
    below = [0] * count
    for group in groups:  # every class a group reaches is closed before it
        bits = 0
        for j in group:
            bits |= 1 << j
            for k in succ[j]:
                bits |= below[k]
        for j in group:
            below[j] = bits
    leq = [0] * count  # leq[i] holds j iff J_i <= J_j
    for j, bits in enumerate(below):
        for i in _bits(bits):
            leq[i] |= 1 << j
    # J_i <= J_j and J_j <= J_i put i and j in one component of the
    # two-sided graph, that is, make them J-related, so i = j; a pair i != j
    # proves the classes wrong
    if any(up & down != 1 << i for i, (up, down) in enumerate(zip(leq, below))):
        raise RuntimeError("J-order is not antisymmetric: Green classes computed wrongly")
    poset = JPoset(count, tuple(leq), jclass_of[monoid.identity_index])
    # every s = 1 s 1 is reachable from the identity
    if below[poset.maximum] != (1 << count) - 1:
        raise RuntimeError("units' class is not the maximum of the J-order")
    return classes, poset


def monoid_green(monoid: FiniteMonoid):
    """Green structure of a monoid, cached on the monoid object."""
    cached = getattr(monoid, "_green_cache", None)
    if cached is None:
        cached = green_structure(monoid)
        monoid._green_cache = cached
        monoid._subgroup_cache = {}  # maximal_subgroup's, by idempotent
        monoid._block_map_cache = {}  # cliffmunn._block_map's, by transversal
        monoid._semisimple_cache = {}  # cliffmunn.semisimple_predicate's, by characteristic
    return cached


def apex_labels(monoid: FiniteMonoid) -> tuple:
    """The display label of every J-class, by J-class id: its least
    element's apex_label()."""
    classes, _ = monoid_green(monoid)
    return tuple(monoid.elements[members[0]].apex_label() for members in classes.jclasses)


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
    """The H-class of the idempotent e as a group with identity e: G_e, the
    group of units of eMe, closed by FiniteMonoid.from_elements within H_e
    from its greedy generating set, read off the monoid's products.

    Green's theorem (Howie 2.2.5): the H-class of an idempotent is closed
    under products and is a group with identity e.  The closure refuses a
    product outside H_e and certifies the rest; a refusal, or a failed
    group test, proves the classes wrong.  For the classes monoid_green
    returns, each G_e is closed once and cached beside them.
    """
    if monoid.mul(e, e) != e:
        raise ValueError("e is not idempotent")
    cached = getattr(monoid, "_green_cache", None)
    cache = monoid._subgroup_cache if cached is not None and cached[0] is classes else {}
    if e not in cache:
        members = classes.hclasses[classes.hclass_of[e]]
        gens = _greedy_generators(lambda g: monoid.columns([g])[0], members, e)
        elements = monoid.elements
        try:
            group = FiniteMonoid.from_elements([elements[m] for m in members], elements[e],
                                               [elements[g] for g in gens])
        except ValueError as err:
            raise RuntimeError("H-class of an idempotent is not closed") from err
        if not group.is_group():
            raise RuntimeError("H-class of e fails the group axioms")
        cache[e] = group
    return cache[e]


def transversal(monoid: FiniteMonoid, classes: GreenClasses, e: int) -> Transversal:
    if monoid.mul(e, e) != e:
        raise ValueError("e is not idempotent")
    reps = {}  # H-class id -> representative, in order of least member
    for m in classes.lclasses[classes.lclass_of[e]]:  # ascending
        reps.setdefault(classes.hclass_of[m], m)
    reps[classes.hclass_of[e]] = e
    return Transversal(e, tuple(reps.values()), tuple(reps))


def lclass_coordinates(monoid: FiniteMonoid, classes: GreenClasses, trans: Transversal):
    """Int lists block, local over all elements with
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
    ge = classes.hclasses[classes.hclass_of[e]]
    products = [[monoid.mul(s, g) for g in ge] for s in trans.reps]  # s_i * g
    if sorted(t for row in products for t in row) != list(classes.lclasses[le]):
        raise ValueError("the products s_i * g do not list L_e once each: "
                         "not one representative per H-class")
    block = [-1] * len(monoid)
    local = [-1] * len(monoid)
    for i, row in enumerate(products):
        for k, t in enumerate(row):
            block[t], local[t] = i, k
    return block, local


def hclass_decompose(monoid: FiniteMonoid, classes: GreenClasses, trans: Transversal, t: int):
    """Write t in L_e uniquely as s_i * g with g in G_e; returns (i, g)."""
    e = trans.idempotent
    if classes.lclass_of[t] != classes.lclass_of[e]:
        raise ValueError("element is not in the L-class of e")
    block, local = lclass_coordinates(monoid, classes, trans)
    return block[t], classes.hclasses[classes.hclass_of[e]][local[t]]
