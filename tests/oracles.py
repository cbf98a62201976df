"""Reference routines shared by the test modules, each a former program path
that no command calls: the left-row certificate that re-composes every
left product, the build of a monoid from its elements alone with the
greedy generating set, and the maximal subgroup of a pair monoid read off
the stabilizer of one lattice element."""

from operator import itemgetter

import monoidrep.elements as elements_module
from monoidrep.elements import FiniteMonoid, canonical_key
from monoidrep.lattice import sgl_context, stabilizers


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


def maximal_subgroup_at(action, a):
    """The group of pairs g_a with g.a = a, one element per coset."""
    ctx = sgl_context(action)
    members = sorted({ctx.canonical(g, a) for g in stabilizers(action, a).full},
                     key=lambda x: x.key())
    return greedy_from_elements(members, ctx.idempotent(a))
