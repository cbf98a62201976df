"""Integer partitions, Young tableaux/tabloids, and Specht representations.

Labels are arbitrary distinct integers, not just 1..n, so the same machinery
serves both the plain symmetric-group case and relabelled copies living on
blocks.  The group acting on a label set is realized as the symmetric group
on positions of the sorted labels.

A Specht representation is built as the span of the f^lambda standard
polytabloids, checked exactly (rank and invariance, with the proof in
specht_rep), and every group element's matrix is read from it by one index
gather over the tabloid positions, composed along the group's left Cayley
graph from the generators' (elements._compose_rows); no tabloid matrix of a
non-generator is built, and numpy is not imported here.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import NamedTuple

from .elements import FiniteMonoid, _compose_rows, _inverses, symmetric_group
from .linrep import Representation, Subspace, _permutation_stack, outer_tensor


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


def p_count(n: int) -> int:
    """Number of partitions of n, cross-checked against the generating function."""
    count = len(partitions(n))
    # coefficient of x^n in prod_{k>=1} 1/(1-x^k), truncated at degree n
    series = [1] + [0] * n
    for k in range(1, n + 1):
        for d in range(k, n + 1):
            series[d] += series[d - k]
    if series[n] != count:
        raise RuntimeError(f"partition count {count} disagrees with generating function {series[n]}")
    return count


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


def _generator_actions(group: FiniteMonoid, basis, labels) -> list:
    """rows[k][b] is the position of a_k . t_b in the tabloid basis, for the
    group's generators a_k, permutations of the sorted label positions:
    sigma . t puts labels[sigma(i)] in the row of labels[i].  This is a left
    action, (sigma tau) . t = sigma . (tau . t), so every element's row is
    composed from these along the group's graph (_compose_rows)."""
    index = {t: k for k, t in enumerate(basis)}
    rows = []
    for g in group.generating_set():
        move = {x: labels[y - 1] for x, y in zip(labels, group.elements[g].images)}
        rows.append([index[tabloid_of(tuple(tuple(move[x] for x in row) for row in t))]
                     for t in basis])
    return rows


def tabloid_module(shape, labels, group: FiniteMonoid = None) -> Representation:
    """Permutation representation on the tabloid basis: sigma sends t_b to
    sigma . t_b."""
    shape, labels = _check_shape(shape, labels)
    if group is None:
        group = _symmetric_group(len(labels))
    basis = tabloids(shape, labels)
    rows = _compose_rows(group, _generator_actions(group, basis, labels), range(len(basis)))
    return Representation.from_numerators(group, _permutation_stack(rows))


class SpechtData(NamedTuple):
    shape: tuple
    labels: tuple
    tabloids: tuple
    subspace: Subspace  # echelon basis inside the tabloid module
    rep: Representation  # the action in echelon coordinates


def specht_rep(shape, labels=None, group: FiniteMonoid = None) -> SpechtData:
    """The Specht representation S^lambda, spanned by the standard polytabloids.

    By the standard basis theorem (Sagan, The Symmetric Group, 2nd ed.,
    Thm 2.5.2; James, LNM 682) the f^lambda standard polytabloids are a
    basis of S^lambda.  The program checks this exactly instead of relying
    on it.  Their span V must have rank standard_tableaux_count(shape), and
    it must be invariant under the group's generators, checked by
    Subspace.restrict on the generators' tabloid matrices only.  The group
    has m! distinct permutations of the m label positions, so it is S_m,
    and V is invariant under all of S_m.  V holds a polytabloid e_t, so it
    holds every sigma . e_t = e_{sigma t}; every tableau of the shape is
    some sigma t, so V contains S^lambda.  V is spanned by polytabloids, so
    V = S^lambda.  Subspace is a reduced echelon form, so V is stored
    exactly as the span of all polytabloids would be.

    Tabloid matrices are permutations, so restrict's R = M[pivots, :] B^T
    reads R[s][i, c] = B[c, pos(sigma_s^-1 . t_{p_i})]: one gather of B^T
    at the positions of the pivot tabloids, composed along the group's
    graph.  from_numerators still proves the homomorphism law.

    Results are cached per (shape, labels); the data is immutable.  Without
    a group, S_m is built once per process and shared across shapes.
    """
    shape = tuple(shape)
    if labels is None:
        labels = tuple(range(1, sum(shape) + 1))
    shape, labels = _check_shape(shape, labels)
    cache_key = (shape, labels) if group is None else None
    if cache_key in _SPECHT_CACHE:
        return _SPECHT_CACHE[cache_key]
    if group is None:
        group = _symmetric_group(len(labels))
    if len(group) != factorial(len(labels)):
        raise ValueError(f"a Specht module needs all of S_{len(labels)}, not {len(group)} elements")
    basis = tabloids(shape, labels)
    index = {t: k for k, t in enumerate(basis)}
    sub = Subspace.span(len(basis), [polytabloid(t, index) for t in standard_tableaux(shape, labels)])
    expected = standard_tableaux_count(shape)
    if sub.dim != expected:
        raise RuntimeError(
            f"polytabloid span has dimension {sub.dim}, but {expected} standard tableaux"
        )
    gen_rows = _generator_actions(group, basis, labels)
    # raises ValueError unless the span is invariant under the generators
    sub.restrict(_permutation_stack(gen_rows))
    moved = _compose_rows(group, gen_rows, sub.pivots)  # moved[s][i]: sigma_s . t_{p_i}
    pos = [moved[g] for g in _inverses(group)]  # pos[s][i]: sigma_s^-1 . t_{p_i}
    rep = Representation.from_numerators(group, sub.num.T[pos], sub.den)
    data = SpechtData(shape, labels, basis, sub, rep)
    if cache_key is not None:
        _SPECHT_CACHE[cache_key] = data
    return data


_SPECHT_CACHE = {}


def young_tensor(shapes, blocks):
    """Outer tensor of Specht factors, one per (shape, label block).

    Returns (Representation over the product of the block symmetric groups,
    list of per-block SpechtData).
    """
    shapes = [tuple(s) for s in shapes]
    blocks = [tuple(sorted(b)) for b in blocks]
    if len(shapes) != len(blocks):
        raise ValueError("one shape per block required")
    flat = [x for b in blocks for x in b]
    if len(set(flat)) != len(flat):
        raise ValueError("blocks must be disjoint")
    for s, b in zip(shapes, blocks):
        if sum(s) != len(b):
            raise ValueError(f"shape {s} does not fit block {b}")
    datas = [specht_rep(s, b) for s, b in zip(shapes, blocks)]
    if len(datas) == 1:
        return datas[0].rep, datas
    return outer_tensor(*(d.rep for d in datas)), datas
