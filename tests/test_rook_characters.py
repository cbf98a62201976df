"""The rook monoid catalogs against characters computed with no matrices.

Solomon ("Representations of the rook monoid", J. Algebra 256, 2002) gives
the irreducible characters of I_n: for 0 <= k <= n and a partition lambda of
k, the character at a partial bijection s is

    chi_{k, lambda}(s) = sum of chi^lambda(s|_A)

over the k-subsets A of the domain of s with s(A) = A, where s|_A is the
permutation s induces on A and chi^lambda the irreducible character of S_k.
chi^lambda is computed here by the Murnaghan-Nakayama rule on beta-sets, so
the oracle reads nothing of the program's Specht modules, inductions or
catalogs.  Every catalog entry of I_n and of the subsets pair monoid (read
into I_n through g_a -> g|_a) is matched by its J-class and label.

The ordered-partition pair monoid is checked by the same kind of sum,
with no Möbius inversion (Steinberg, "Möbius functions and semigroup
representation theory", JCTA 113, 2006, treats inverse monoids at large): the
entry at the idempotent e_a with labels (lambda_1, ..., lambda_k), one per
block of a in block order, has at g_b the character

    sum of prod_i chi^{lambda_i}(the cycle type of g on block i of c)

over the c in the S_n-orbit of a with c <= b and g.c = c, where g.c keeps
the block order; the adjoined minimum's entry is 1 everywhere.  c <= b and
g.c are read from the tuples themselves.
"""

import itertools
from functools import lru_cache
from math import factorial, prod

import pytest

from monoidrep.cliffmunn import cm_catalog
from monoidrep.elements import symmetric_inverse_monoid
from monoidrep.lattice import make_lattice, sgl_monoid, subsets_to_partial_bijection


def partitions_of(k, largest=None):
    """The partitions of k as non-increasing tuples."""
    if k == 0:
        return [()]
    largest = k if largest is None else largest
    return [(first,) + rest for first in range(min(k, largest), 0, -1)
            for rest in partitions_of(k - first, first)]


@lru_cache(maxsize=None)
def mn_character(shape, cycle_type):
    """chi^shape at a permutation of cycle type cycle_type, by the
    Murnaghan-Nakayama rule: remove a rim hook of length r = cycle_type[0]
    in every way, each with sign (-1)^(its height), and recurse on the rest.
    On the beta-set {shape[i] + (len(shape) - 1 - i)} a rim hook of length
    r is a move b -> b - r onto a free nonnegative position, and its height
    is the number of beta numbers strictly between b - r and b."""
    if not cycle_type:
        return 1 if not shape else 0
    r, rest = cycle_type[0], cycle_type[1:]
    length = len(shape)
    beta = [part + length - 1 - i for i, part in enumerate(shape)]
    total = 0
    for b in beta:
        if b - r < 0 or b - r in beta:
            continue
        height = sum(1 for c in beta if b - r < c < b)
        moved = sorted((c if c != b else b - r for c in beta), reverse=True)
        smaller = tuple(c - (length - 1 - i) for i, c in enumerate(moved))
        total += (-1) ** height * mn_character(tuple(x for x in smaller if x), rest)
    return total


def cycle_type(images, points):
    """The cycle lengths, largest first, of the permutation that the partial
    map images (1-based, 0 where undefined) induces on the invariant set
    points."""
    lengths, seen = [], set()
    for x in points:
        if x in seen:
            continue
        length = 0
        while x not in seen:
            seen.add(x)
            x = images[x - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def rook_character(k, shape, images):
    """Solomon's chi_{k, shape} at the partial bijection with these images."""
    domain = [x for x in range(1, len(images) + 1) if images[x - 1]]
    return sum(mn_character(shape, cycle_type(images, a))
               for a in itertools.combinations(domain, k)
               if {images[x - 1] for x in a} == set(a))


class TestMurnaghanNakayama:
    def test_s3_table(self):
        types = [(1, 1, 1), (2, 1), (3,)]
        table = {shape: [mn_character(shape, t) for t in types] for shape in partitions_of(3)}
        assert table == {(3,): [1, 1, 1], (2, 1): [2, 0, -1], (1, 1, 1): [1, -1, 1]}

    @pytest.mark.parametrize("k", range(1, 7))
    def test_row_orthogonality(self, k):
        # sum over cycle types mu of |class of mu| chi^lambda(mu) chi^nu(mu)
        # is k! when lambda = nu and 0 otherwise; |class of mu| = k! / z_mu
        def class_size(mu):
            z = 1
            for part in set(mu):
                z *= part ** mu.count(part) * factorial(mu.count(part))
            return factorial(k) // z

        shapes = partitions_of(k)
        for lam, nu in itertools.product(shapes, repeat=2):
            inner = sum(class_size(mu) * mn_character(lam, mu) * mn_character(nu, mu)
                        for mu in shapes)
            assert inner == (factorial(k) if lam == nu else 0)


def assert_catalog_is_solomons(monoid, images_of):
    """Every entry's character is chi_{k, label} at every element, for its
    J-class J<k>, and each (k, label) is in the catalog exactly once."""
    n = len(images_of(monoid.elements[0]))
    entries = cm_catalog(monoid)
    keys = [(en.apex_label, en.label) for en in entries]
    expected = [(f"J{k}", shape) for k in range(n + 1) for shape in partitions_of(k)]
    assert sorted(keys) == sorted(expected)
    images = [images_of(el) for el in monoid.elements]
    for en in entries:
        k = int(en.apex_label[1:])
        assert en.rep.character() == tuple(rook_character(k, en.label, im) for im in images), \
            (en.apex_label, en.label)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rook_monoid_catalog_is_solomons(n):
    assert_catalog_is_solomons(symmetric_inverse_monoid(n), lambda el: el.images)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_subsets_pair_monoid_catalog_is_solomons(n):
    monoid, _ = sgl_monoid(make_lattice("subsets", n)[1])
    assert_catalog_is_solomons(monoid, lambda el: subsets_to_partial_bijection(el).images)


def compositions_of(n):
    """The ordered block sizes of the ordered partitions of n points."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in compositions_of(n - first)]


def with_sizes(points, sizes):
    """The ordered partitions of points with these block sizes, in order:
    the S_n-orbit of any one of them."""
    if not sizes:
        yield ()
        return
    for block in itertools.combinations(points, sizes[0]):
        rest = [x for x in points if x not in block]
        for tail in with_sizes(rest, sizes[1:]):
            yield (block,) + tail


def ordered_leq(c, b):
    """c <= b: () is below everything; otherwise every block of c lies in
    a block of b, and the blocks of b holding c's blocks never go back."""
    if c == ():
        return True
    if b == ():
        return False
    home = {x: i for i, block in enumerate(b) for x in block}
    homes = [home[block[0]] for block in c]
    return (all(home[x] == h for block, h in zip(c, homes) for x in block)
            and homes == sorted(homes))


def ordered_partition_character(a, shapes, images, b):
    """The oracle character at g_b, g with these images, of the entry at e_a
    labelled shapes, one shape per block of a."""
    if a == ():
        return 1
    total = 0
    for c in with_sizes(sorted(x for block in a for x in block), [len(block) for block in a]):
        if ordered_leq(c, b) and all({images[x - 1] for x in block} == set(block) for block in c):
            total += prod(mn_character(shape, cycle_type(images, block))
                          for shape, block in zip(shapes, c))
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ordered_partition_pair_monoid_catalog_is_the_orbit_sum(n):
    monoid, _ = sgl_monoid(make_lattice("ordered_partitions_zero", n)[1])
    entries = cm_catalog(monoid)
    keys = [(en.apex_label, en.label) for en in entries]
    expected = [("0", ())] + [
        ("(" + ",".join(map(str, sizes)) + ")", shapes)
        for sizes in compositions_of(n)
        for shapes in itertools.product(*(partitions_of(k) for k in sizes))]
    assert sorted(keys) == sorted(expected)
    at = [(el.group_element().images, el.lattice_element()) for el in monoid.elements]
    for en in entries:
        a = monoid.elements[en.idempotent].lattice_element()
        assert en.rep.character() == tuple(
            ordered_partition_character(a, en.label, images, b) for images, b in at), \
            (en.apex_label, en.label)
