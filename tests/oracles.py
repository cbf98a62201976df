"""Reference routines shared by the test modules, each a former program path
that no command calls, kept as an oracle for the path that replaced it or
for a fact the program relies on:

- certify_left_rows, the left-row certificate that re-composes every left
  product, and certificate_inputs, what it reads of a monoid;
- greedy_from_elements, the build of a monoid from its elements alone with
  the greedy generating set;
- all_permutations and all_transformations, S_n and T_n enumerated;
- element_rows, the row y -> a * y of an element, read along its word;
- jclass_subgroup_iso, the isomorphism G_e -> G_f between the maximal
  subgroups of one J-class, which lets a catalog read one idempotent per
  J-class;
- stabilizers and maximal_subgroup_at, the maximal subgroup of a pair monoid
  read off the stabilizer of one lattice element;
- joins_from_meets, the join table a lattice no longer keeps, derived from
  its meets and top;
- product_monoid and outer_tensor, the direct product as a left Cayley
  graph and the outer tensor of representations over it, the oracle for
  the per-block kron of cliffmunn._young_irreps;
- exact matrices as tuples of Fraction rows (fraction_rows,
  fraction_matrices, numerators, from_fractions, oracle_product,
  oracle_apply, diagonal, unitriangular_inverse), the tests' own
  arithmetic beside the program's one encoding of integer rows over one
  denominator;
- parse_representation_payload, the reader of the payloads that `rep`
  writes, which no command reads back.
"""

import itertools
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import NamedTuple

import monoidrep.elements as elements_module
import monoidrep.linrep as linrep_module
from monoidrep.elements import (
    FiniteMonoid,
    Permutation,
    Transformation,
    _inverses,
    canonical_key,
)
from monoidrep.lattice import GroupAction, sgl_context
from monoidrep.linrep import Representation, _kron


def certify_left_rows(rows, generator_rows, left, e):
    """Raise ValueError unless left is the left Cayley graph of the monoid
    with identity e that the a_k generate, on the faithful rows mu(x) =
    rows[x] and mu(a_k) = generator_rows[k]; return its breadth-first tree.

    Checked: (i) mu(e) o mu(e) = mu(e), and mu(e) o mu(a_k) = mu(a_k); (ii)
    the rows are pairwise distinct; (iii) mu(left[k][x]) = mu(a_k) o mu(x)
    for every k and x, |A| |S| m lookups; (iv) mu(a_k) o mu(e) = mu(a_k);
    (v) the left rows reach every element from e.  Rows are composed as
    tuples with a leading 0, the image of "undefined"."""
    rows = [(0,) + tuple(r) for r in rows]
    generator_rows = [(0,) + tuple(r) for r in generator_rows]
    unit = rows[e]

    def then(a, x):  # mu(a) o mu(x)
        return itemgetter(*x)(a)

    if then(unit, unit) != unit:
        raise ValueError("identity laws fail")
    if any(then(unit, a) != a or then(a, unit) != a for a in generator_rows):
        raise ValueError("identity laws fail: a generator is not fixed by the identity")
    if len(set(rows)) != len(rows):
        raise ValueError("two elements share an image row")
    composers = [itemgetter(*x) for x in rows]  # composers[x](a) = mu(a) o mu(x)
    for a, succ in zip(generator_rows, left):
        if [compose(a) for compose in composers] != [rows[u] for u in succ]:
            raise ValueError("a left product disagrees with the image rows")
    tree = elements_module._reach(left, e)
    if len(tree[0]) != len(rows):
        raise ValueError("the left rows do not reach every element")
    return tree


def certificate_inputs(m):
    """What certify_left_rows reads of m: the faithful rows of the elements
    and of the recorded generators, the left rows and e."""
    gens = [m.elements[g] for g in m.generating_set()]
    rows = type(m.elements[0])._faithful_rows(list(m.elements) + gens)
    return list(rows[:len(m)]), rows[len(m):], [list(row) for row in m._left], m.identity_index


def greedy_from_elements(elements, identity=None):
    """A monoid from a closed element set alone: closed within the set with
    every element as a generator, in canonical order, so the closure's left
    rows are the whole table, left[k][x] the index of elements[k] *
    elements[x]; the greedy set is read from their columns and its rows are
    kept.  |S|^2 left products, where recorded generators take |A| |S|."""
    if identity is None:
        identity = elements[0].identity_element()
    members = {x: x for x in elements}
    identity = members.setdefault(identity, identity)
    monoid = elements_module._closure(sorted(members, key=canonical_key), identity,
                                      len(members), members)
    left, e = monoid._left, monoid.identity_index
    gens = elements_module._greedy_generators(lambda g: [row[g] for row in left],
                                              range(len(left)), e)
    return FiniteMonoid._from_left_rows(monoid.elements, [left[g] for g in gens], e)


def all_transformations(n):
    return sorted(
        (Transformation(images) for images in itertools.product(range(1, n + 1), repeat=n)),
        key=canonical_key,
    )


def all_permutations(n):
    return sorted(
        (Permutation(images) for images in itertools.permutations(range(1, n + 1))),
        key=canonical_key,
    )


def element_rows(monoid, targets):
    """The row y -> a * y of every a in targets, each a list over all y:
    a's word (FiniteMonoid._word) applied to 0..n-1."""
    out = []
    for a in targets:
        row = list(range(len(monoid)))
        for step in monoid._word(a):
            row = list(map(step.__getitem__, row))
        out.append(row)
    return out


def jclass_subgroup_iso(monoid, classes, e, f, s):
    """The isomorphism G_e -> G_f through g -> s g s*, as an index map.

    s must lie in the H-class in the column (L-class) of G_e and the row
    (R-class) of G_f; s* is its semigroup inverse there.
    """
    mul = monoid.mul
    if mul(e, e) != e or mul(f, f) != f:
        raise ValueError("e and f must be idempotent")
    if classes.jclass_of[e] != classes.jclass_of[f]:
        raise ValueError("e and f are not J-related")
    if classes.lclass_of[s] != classes.lclass_of[e] or classes.rclass_of[s] != classes.rclass_of[f]:
        raise ValueError("s is not in the required H-class")
    (x_s,), (s_x,) = monoid.columns([s]), element_rows(monoid, [s])  # x * s and s * x
    # x s = e and s x = f, with (s x) s = f s and (x s) x = e x
    stars = [
        x for x in range(len(monoid))
        if x_s[x] == e and s_x[x] == f and mul(f, s) == s and mul(e, x) == x
    ]
    if not stars:
        raise ValueError("no semigroup inverse s* with s*s = e and ss* = f")
    s_star = stars[0]
    ge = classes.hclasses[classes.hclass_of[e]]
    gf = set(classes.hclasses[classes.hclass_of[f]])
    mapping = {g: mul(s_x[g], s_star) for g in ge}
    if set(mapping.values()) != gf or len(set(mapping.values())) != len(ge):
        raise RuntimeError("conjugation by s is not a bijection G_e -> G_f")
    for g in ge:
        for h in ge:
            if mapping[mul(g, h)] != mul(mapping[g], mapping[h]):
                raise RuntimeError("conjugation by s is not a homomorphism")
    return mapping, s_star


class StabilizerPair(NamedTuple):
    """Full and pointwise stabilizers of a lattice element, as index tuples."""

    full: tuple
    pointwise: tuple


def stabilizers(action: GroupAction, a: int) -> StabilizerPair:
    group, lat = action.group, action.lattice
    full = tuple(g for g in range(len(group)) if action.table[g][a] == a)
    below = lat.down_set(a)
    pointwise = tuple(
        g for g in full if all(action.table[g][c] == c for c in below)
    )
    inv = _inverses(group)
    pw = set(pointwise)
    for g in full:
        for k in pointwise:
            if group.mul(group.mul(g, k), inv[g]) not in pw:
                raise RuntimeError("pointwise stabilizer is not normal in the full one")
    return StabilizerPair(full, pointwise)


def joins_from_meets(lat):
    """join[a][b] for a FiniteLattice, as the meet of the upper bounds of a
    and b, folded from the top: the join whenever every pair has a meet and
    a top exists (FiniteLattice's docstring), which the tests check against
    least upper bounds read off the order."""
    meet, top = lat.meet, lat.top
    out = []
    for up in lat.leq:
        row = []
        for other in lat.leq:
            common, j = up & other, top
            while common:  # each upper bound c, lowest bit first
                low = common & -common
                j = meet[j][low.bit_length() - 1]
                common ^= low
            row.append(j)
        out.append(row)
    return out


def maximal_subgroup_at(action, a):
    """The group of pairs g_a with g.a = a, one element per coset."""
    ctx = sgl_context(action)
    members = sorted({ctx.canonical(g, a) for g in stabilizers(action, a).full},
                     key=lambda x: x.key())
    return greedy_from_elements(members, ctx.idempotent(a))


def product_monoid(*factors):
    """Direct product; elements are tuples, one coordinate per factor, held
    as the left Cayley graph of the factors' generators.

    Flat index i has coordinate c_k(i) = (i // stride_k) % |M_k| in factor
    k.  The generators are each factor's generators a, the other
    coordinates at their identities.  The product is coordinatewise, so
    such an a of factor k moves coordinate k alone: its left row sends i to
    i + stride_k * (a * c_k(i) - c_k(i)), read from the factor's rows.
    These rows are exact left products of the direct product, a monoid, so
    they are its left Cayley graph, and the products read along them are
    its product (see FiniteMonoid._word).  The generators generate it:
    (x_1, ..., x_r) is the product of its coordinates embedded one at a
    time, and each x_k is a word in the generators of M_k.  The identity is
    the tuple of identities, and a = a * e lies in its row.
    """
    if not factors:
        raise ValueError("need at least one factor")
    sizes = [len(m) for m in factors]
    strides = []
    acc = 1
    for s in reversed(sizes):
        strides.append(acc)
        acc *= s
    strides.reverse()
    elements = [tuple(t) for t in itertools.product(*(m.elements for m in factors))]

    left = []
    for m, stride, size in zip(factors, strides, sizes):
        coordinate = [(i // stride) % size for i in range(acc)]
        for row in m._left:
            left.append([i + stride * (row[c] - c) for i, c in enumerate(coordinate)])
    identity = sum(m.identity_index * s for m, s in zip(factors, strides))
    return FiniteMonoid._from_left_rows(elements, left, identity)


def outer_tensor(*reps):
    """Tensor product representation of the direct-product monoid."""
    if not reps:
        raise ValueError("need at least one factor")
    monoid = product_monoid(*(r.monoid for r in reps))
    num, den = reps[0].num, reps[0].den
    # _stack is read from linrep at each call, so a test that wraps it there
    # counts these writes too
    for r in reps[1:]:  # kron(A[s], B[t]) at s * |B| + t, s major as in product_monoid
        n = len(r.num)
        num = linrep_module._stack(len(num) * n, len(num[0]) * r.dim,
                                   lambda k, a=num, b=r.num: _kron(a[k // n], b[k % n]))
        den *= r.den
    return Representation._of(monoid, num, den)


# -- exact matrices as Fraction rows -----------------------------------------

def fraction_rows(rows, den=1):
    """rows / den as a tuple of Fraction row tuples; rows may hold anything
    Fraction() accepts."""
    return tuple(tuple(Fraction(x) / den for x in row) for row in rows)


def fraction_matrices(rep):
    """rho(s) for every element index s, as Fraction rows."""
    return tuple(fraction_rows(m, rep.den) for m in rep.num)


def numerators(rows):
    """Rows of anything Fraction() accepts as (integer row tuples, den), den
    the least common denominator of the entries."""
    rows = fraction_rows(rows)
    den = lcm(1, *(x.denominator for row in rows for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in rows), den


def from_fractions(monoid, mats):
    """The Representation s -> mats[s], one square matrix of anything
    Fraction() accepts per element, brought over one common denominator."""
    flat, den = numerators([row for m in mats for row in m])
    d = len(mats[0])
    return Representation.from_numerators(
        monoid, [flat[k:k + d] for k in range(0, len(flat), d)], den)


def oracle_product(*mats):
    """The product of matrices of anything Fraction() accepts, left to
    right, as Fraction rows."""
    out = fraction_rows(mats[0])
    for b in mats[1:]:
        cols = tuple(zip(*b))
        out = tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols)
                    for row in out)
    return out


def oracle_apply(m, v):
    """The matrix m acting on the column vector v, as a tuple of Fractions."""
    return tuple(sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in m)


def diagonal(values):
    """The diagonal matrix with the given entries, as Fraction rows."""
    n = len(values)
    return fraction_rows([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def unitriangular_inverse(u):
    """(I + N)^-1 = I - N + N^2 - ... for a strictly upper triangular N."""
    n = len(u)
    ident = diagonal([1] * n)
    step = fraction_rows([[(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(u)])  # -N
    inv, power = ident, ident
    for _ in range(n):
        power = oracle_product(power, step)
        inv = tuple(tuple(x + y for x, y in zip(r, q)) for r, q in zip(inv, power))
    return inv


# -- payloads ----------------------------------------------------------------

def parse_representation_payload(text: str):
    """Inverse of serialize_representation, up to the element objects.

    Returns (header dict, element label list, num, den): one integer matrix
    per element over one positive denominator, in lowest terms with all of
    num, as a Representation holds its stack.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = {}
    pos = 0
    while pos < len(lines) and not lines[pos].startswith("element "):
        key, _, value = lines[pos].partition(":")
        header[key.strip()] = value.strip()
        pos += 1
    count = int(header["elements"])
    dim = int(header["dim"])
    labels, rows = [], []
    for _ in range(count):
        tag, idx, label = lines[pos].split(" ", 2)
        if tag != "element" or int(idx) != len(labels):
            raise ValueError(f"bad element header line: {lines[pos]!r}")
        rows.extend(ln.split() for ln in lines[pos + 1:pos + 1 + dim])
        pos += 1 + dim
        labels.append(label)
    # the least common denominator of reduced fractions leaves no common factor
    flat, den = numerators(rows)
    return header, labels, tuple(flat[k:k + dim] for k in range(0, len(flat), dim)), den
