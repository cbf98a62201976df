"""Integer partitions, Young tableaux/tabloids, and Specht representations.

Labels are arbitrary distinct integers.  S^lambda on a label set is built
once, for no group in particular (_specht_space, checked exactly with the
proof there).  A group acting on the labels through its generators' label
maps reads every element's matrix from it by one lookup per basis vector
among the span's columns, composed along the group's left Cayley graph
(_specht_action): S_m on the label positions (specht_rep), or a Young
subgroup block by block (cliffmunn._young_irreps).
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import NamedTuple

from .elements import FiniteMonoid, _compose_rows, _inverses, symmetric_group
from .linrep import Representation, Subspace, _permutation_stack, _stack


def partitions(n: int) -> tuple:
    """All partitions of n as weakly decreasing tuples, in decreasing lex order."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def rec(total, maxpart):
        if total == 0:
            yield ()
            return
        for first in range(min(total, maxpart), 0, -1):
            for rest in rec(total - first, first):
                yield (first,) + rest

    return tuple(rec(n, n))


def compositions(n: int) -> tuple:
    """All compositions of n (ordered tuples of positive parts)."""
    out = []
    for cuts in itertools.product((0, 1), repeat=n - 1):
        parts = []
        run = 1
        for c in cuts:
            if c:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return tuple(sorted(out))


def standard_tableaux_count(shape) -> int:
    """Direct enumeration of standard fillings (no hook-length formula)."""
    shape = tuple(shape)
    rows = len(shape)

    def rec(filled):
        if sum(filled) == sum(shape):
            return 1
        total = 0
        for r in range(rows):
            if filled[r] < shape[r] and (r == 0 or filled[r - 1] > filled[r]):
                total += rec(filled[:r] + (filled[r] + 1,) + filled[r + 1:])
        return total

    return rec((0,) * rows)


def _check_shape(shape, labels):
    shape = tuple(int(x) for x in shape)
    labels = tuple(sorted(int(x) for x in labels))
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)) or any(p < 1 for p in shape):
        raise ValueError(f"not a partition shape: {shape}")
    if sum(shape) != len(labels) or len(set(labels)) != len(labels):
        raise ValueError("label set must match the shape size, without repeats")
    return shape, labels


def tabloids(shape, labels) -> tuple:
    """All tabloids of the given shape, each a tuple of sorted row tuples,
    listed in lexicographic order."""
    shape, labels = _check_shape(shape, labels)

    def rec(remaining, parts):
        if not parts:
            yield ()
            return
        first = parts[0]
        for row in itertools.combinations(remaining, first):
            rest = tuple(x for x in remaining if x not in row)
            for tail in rec(rest, parts[1:]):
                yield (row,) + tail

    return tuple(sorted(rec(labels, shape)))


def standard_tableaux(shape, labels) -> tuple:
    """All standard tableaux (rows and columns increasing), each a tuple of
    row tuples, listed in lexicographic order.

    The labels are placed in sorted order, each at the end of a row that is
    shorter than its part and than the row above: the cell above is then
    filled, with a smaller label, so rows and columns increase.
    """
    shape, labels = _check_shape(shape, labels)
    rows = [[] for _ in shape]
    out = []

    def rec(k):
        if k == len(labels):
            out.append(tuple(tuple(row) for row in rows))
            return
        for r, part in enumerate(shape):
            if len(rows[r]) < part and (r == 0 or len(rows[r - 1]) > len(rows[r])):
                rows[r].append(labels[k])
                rec(k + 1)
                rows[r].pop()

    rec(0)
    return tuple(sorted(out))


def tabloid_of(tableau) -> tuple:
    return tuple(tuple(sorted(row)) for row in tableau)


def column_group(tableau) -> tuple:
    """The column-preserving permutations as (sign, {label: label}) pairs."""
    cols = []
    ncols = len(tableau[0]) if tableau else 0
    for c in range(ncols):
        col = tuple(row[c] for row in tableau if len(row) > c)
        cols.append(col)
    out = []
    per_col = []
    for col in cols:
        perms = []
        for images in itertools.permutations(range(len(col))):
            sign = 1
            for i in range(len(images)):
                for j in range(i + 1, len(images)):
                    if images[i] > images[j]:
                        sign = -sign
            perms.append((sign, {col[i]: col[images[i]] for i in range(len(col))}))
        per_col.append(perms)
    for combo in itertools.product(*per_col):
        sign = 1
        mapping = {}
        for s, m in combo:
            sign *= s
            mapping.update(m)
        out.append((sign, mapping))
    return tuple(out)


def polytabloid(tableau, tabloid_index) -> tuple:
    """The signed column-group sum of {T}, as a vector over the tabloid basis."""
    vec = [0] * len(tabloid_index)
    for sign, mapping in column_group(tableau):
        moved = tabloid_of(tuple(tuple(mapping.get(x, x) for x in row) for row in tableau))
        vec[tabloid_index[moved]] += sign
    return tuple(vec)


def _symmetric_group(m: int) -> FiniteMonoid:
    """S_m, built once per process and shared by the Specht and tabloid
    modules on m labels."""
    if m not in _SYMMETRIC_GROUPS:
        _SYMMETRIC_GROUPS[m] = symmetric_group(m)
    return _SYMMETRIC_GROUPS[m]


_SYMMETRIC_GROUPS = {}


def _position_moves(group: FiniteMonoid, labels) -> list:
    """The generators' {label: label} maps: sigma takes labels[i] to labels[sigma(i)]."""
    return [{x: labels[y - 1] for x, y in zip(labels, group.elements[g].images)}
            for g in group.generating_set()]


def _generator_actions(moves, basis) -> list:
    """rows[k][b] is the position of move_k . t_b in the tabloid basis, where
    move . t puts move(x) in the row of x: a left action, so every element's
    row is composed from its generators' along the group's graph (_compose_rows)."""
    index = {t: k for k, t in enumerate(basis)}
    return [[index[tabloid_of(tuple(tuple(move[x] for x in row) for row in t))] for t in basis]
            for move in moves]


def tabloid_module(shape, labels) -> Representation:
    """Permutation representation of S_m, m = len(labels), on the tabloid
    basis: sigma sends t_b to sigma . t_b."""
    shape, labels = _check_shape(shape, labels)
    group = _symmetric_group(len(labels))
    basis = tabloids(shape, labels)
    maps = _generator_actions(_position_moves(group, labels), basis)
    rows = _compose_rows(group, maps, range(len(basis)))
    return Representation._of(group, _permutation_stack(rows), 1)


class SpechtData(NamedTuple):
    shape: tuple
    labels: tuple
    tabloids: tuple
    subspace: Subspace  # echelon basis inside the tabloid module
    rep: Representation  # the action in echelon coordinates


def _specht_space(shape, labels) -> tuple:
    """(tabloids, V), V = S^lambda the span of the standard polytabloids.

    By the standard basis theorem (Sagan, The Symmetric Group, 2nd ed.,
    Thm 2.5.2; James, LNM 682) the f^lambda standard polytabloids are a
    basis of S^lambda.  The program checks this exactly instead of relying
    on it.  V must have rank standard_tableaux_count(shape), and it must be
    invariant under the transposition (l_1 l_2) and the m-cycle
    (l_1 ... l_m) of the sorted labels, by Subspace.restrict on their two
    tabloid matrices.  The cycle's powers conjugate (l_1 l_2) to every
    (l_i l_i+1), and these generate Sym(labels), so V is invariant under it.
    V holds a polytabloid e_t, so it holds every sigma . e_t = e_{sigma t};
    every tableau of the shape is some sigma t, so V contains S^lambda, and
    V is spanned by polytabloids, so V = S^lambda.  Subspace is a reduced
    echelon form, so V is stored exactly as the span of all polytabloids
    would be.  Cached per (shape, labels), for any group acting on them.
    """
    shape, labels = _check_shape(shape, labels)
    if (shape, labels) not in _SPECHT_CACHE:
        basis = tabloids(shape, labels)
        index = {t: k for k, t in enumerate(basis)}
        sub = Subspace.span(len(basis), [polytabloid(t, index) for t in standard_tableaux(shape, labels)])
        expected = standard_tableaux_count(shape)
        if sub.dim != expected:
            raise RuntimeError(f"polytabloid span has dimension {sub.dim}, "
                               f"but {expected} standard tableaux")
        swap = dict(zip(labels, labels[1::-1] + labels[2:]))
        cycle = dict(zip(labels, labels[1:] + labels[:1]))
        # raises ValueError unless the span is invariant under both
        sub.restrict(_permutation_stack(_generator_actions((swap, cycle), basis)))
        _SPECHT_CACHE[shape, labels] = basis, sub
    return _SPECHT_CACHE[shape, labels]


_SPECHT_CACHE = {}


def _specht_action(group: FiniteMonoid, moves, shape, labels) -> tuple:
    """(num, den), unverified: S^lambda in _specht_space's echelon
    coordinates, for a group acting on the labels by its generators' moves.
    V is invariant under every label permutation, so the action of sigma_s is
    restrict's R = M[pivots, :] B^T, and M is a permutation: row i of R[s]
    is column pos(sigma_s^-1 . t_{p_i}) of B, one lookup per row among B's
    columns at the pivot tabloids' positions, composed along the group's
    graph."""
    basis, sub = _specht_space(shape, labels)
    moved = _compose_rows(group, _generator_actions(moves, basis), sub.pivots)  # sigma_s . t_{p_i}
    pos = [moved[g] for g in _inverses(group)]  # pos[s][i]: sigma_s^-1 . t_{p_i}
    cols = tuple(zip(*sub.num))  # cols[b]: column b of B
    return _stack(len(pos), sub.dim, lambda s: tuple(map(cols.__getitem__, pos[s]))), sub.den


def specht_rep(shape, labels=None, group: FiniteMonoid = None) -> SpechtData:
    """S^lambda over S_m, the group's permutations of the m sorted label
    positions; it must have m! elements.  Without a group, S_m is built once
    per process and shared across shapes."""
    shape = tuple(shape)
    if labels is None:
        labels = tuple(range(1, sum(shape) + 1))
    shape, labels = _check_shape(shape, labels)
    if group is None:
        group = _symmetric_group(len(labels))
    if len(group) != factorial(len(labels)):
        raise ValueError(f"a Specht module needs all of S_{len(labels)}, not {len(group)} elements")
    num, den = _specht_action(group, _position_moves(group, labels), shape, labels)
    basis, sub = _specht_space(shape, labels)
    return SpechtData(shape, labels, basis, sub, Representation._of(group, num, den))
