"""Elements of the three running monoids and a generic closure engine.

Points are 1-based: a degree-n object acts on [n] = {1, ..., n}.
Composition is right-to-left everywhere: (s * t)(x) = s(t(x)), i.e. t acts
first.  All element types are immutable values.  Every element of S, I and T
is one encoding, its image tuple: images[x-1] = s(x), 0 where s is undefined.
Every monoid is held as its left Cayley graph, in Python int lists, closed
from generators, as S_n, I_n and T_n are: it is searched on the image rows
of its elements, each left product composed once as a row and an element
made only when its row is new.  Products, columns and squares are read
along the graph's breadth-first tree, and so are the group actions
(_compose_rows) and inverses (_inverses) of every layer.  The dense table,
which no command reads, is a standard-library buffer of two-byte cells.
"""

from __future__ import annotations

import itertools
import math
import re
from operator import itemgetter

# What one build may allocate where its memory grows with the input: certificate
# rows, a representation stack or a Cayley table, each checked first (check_budget).
BUILD_BYTES_BUDGET = 256 * 2**20
ROW_CELL_BYTES = 116  # one certificate row cell at a build's peak (row_bytes)
DEFAULT_CLOSURE_CAP = 6**6  # |T_6|: any generating set of degree <= 6 closes within it


class DegreeMismatchError(ValueError):
    """Raised when composing elements of different degrees."""


class ClosureCapError(RuntimeError):
    """Raised when a closure run exceeds its element cap, or a build would
    allocate more than BUILD_BYTES_BUDGET bytes (check_budget)."""


class ElementParseError(ValueError):
    """Raised on malformed element text."""


class _PartialMap:
    """A partial map of [n], stored as its image tuple: images[x-1] = s(x),
    and 0 where s is undefined.  The one encoding of S, I and T elements;
    equality and hashing are per family, so maps of different families with
    the same images stay distinct."""

    __slots__ = ("n", "images")

    @classmethod
    def _unchecked(cls, images: tuple) -> "_PartialMap":
        """An element from an int image tuple that already holds every
        invariant the constructor of cls checks.  For products and casts
        only; see __mul__."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", len(images))
        object.__setattr__(obj, "images", images)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def rank(self) -> int:
        """The size of the image."""
        return len(set(self.images).difference((0,)))

    def __mul__(self, other):
        cls = type(self)
        if type(other) is not cls:
            if not (isinstance(self, Transformation) and isinstance(other, Transformation)):
                return NotImplemented
            cls = Transformation
        if self.n != other.n:
            raise DegreeMismatchError(f"degrees differ: {self.n} != {other.n}")
        # Both factors passed their constructors, so the product holds the
        # invariants of cls unchecked.  Its images row[t(x)] = s(t(x)) lie in
        # [n], or are 0 where t(x) or s(t(x)) is undefined.  Two total maps
        # compose to a total map, two bijections of [n] to a bijection, and
        # two injective partial maps to an injective one, as its nonzero
        # images are those of s at distinct points t(x).
        row = (0,) + self.images
        return cls._unchecked(tuple([row[y] for y in other.images]))

    def apex_label(self) -> str:
        """The name of s's J-class: J<rank>, as rank decides J in S, I and T."""
        return f"J{self.rank}"

    def is_idempotent(self) -> bool:
        """Whether s fixes every point of its image, which is s * s = s: if
        s(y) = y for every y = s(x), each s(x) lies in the domain and
        s(s(x)) = s(x); if s * s = s, then s(y) = s(s(x)) = s(x) = y.  An
        injective s that fixes its image is a partial identity."""
        images = self.images
        return all(images[y - 1] == y for y in images if y)

    def identity_element(self) -> "_PartialMap":
        return type(self).identity(self.n)

    @staticmethod
    def _faithful_rows(elements) -> list:
        """The image rows of the elements, on which _closure searches:
        mu(s) = s.images, and mu(s * t) = mu(s) o mu(t) is __mul__ itself."""
        return [s.images for s in elements]


class _Injective:
    """The maximal subgroup G_e at an idempotent e of S or I, as cliffmunn
    reads it: e is the identity on its domain, the one block G_e permutes,
    and irreducibles are labelled by their bare shape.  The other
    transformations have none of this: T_n is not semisimple, and cliffmunn
    refuses its subgroups."""

    __slots__ = ()

    def young_blocks(self) -> tuple:
        return (tuple(x for x, y in enumerate(self.images, 1) if y),)

    def labels_per_block(self) -> bool:
        return False

    def young_move(self, s) -> dict:
        """Where the element s of G_e sends each point."""
        return dict(enumerate(s.images, 1))


class PartialBijection(_Injective, _PartialMap):
    """A partial bijection of [n]: a bijection X -> Y with X, Y subsets of [n].

    Its image tuple has distinct nonzero entries.  The empty domain gives
    the zero map, a valid element at every degree.
    """

    __slots__ = ()

    def __init__(self, n: int, pairs):
        pairs = tuple((int(d), int(i)) for d, i in pairs)
        if n < 1:
            raise ValueError("degree must be >= 1")
        dom = tuple(d for d, _ in pairs)
        img = tuple(i for _, i in pairs)
        if any(not 1 <= p <= n for p in dom + img):
            raise ValueError(f"point out of range 1..{n}: {pairs}")
        if any(dom[k] >= dom[k + 1] for k in range(len(dom) - 1)):
            raise ValueError("domain points must be strictly increasing")
        if len(set(img)) != len(img):
            raise ValueError("image points must be distinct")
        images = [0] * n
        for d, i in pairs:
            images[d - 1] = i
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", tuple(images))

    @classmethod
    def identity(cls, n: int) -> "PartialBijection":
        return cls(n, [(x, x) for x in range(1, n + 1)])

    @classmethod
    def zero(cls, n: int) -> "PartialBijection":
        return cls(n, [])

    @classmethod
    def partial_identity(cls, n: int, points) -> "PartialBijection":
        return cls(n, [(x, x) for x in sorted(points)])

    @property
    def pairs(self) -> tuple:
        """The (x, s(x)) pairs, x ascending."""
        return tuple((x, y) for x, y in enumerate(self.images, 1) if y)

    @property
    def domain(self) -> tuple:
        return tuple(x for x, y in enumerate(self.images, 1) if y)

    @property
    def image(self) -> tuple:
        """s(x) for x in the domain, ascending."""
        return tuple(y for y in self.images if y)

    def apply(self, x: int):
        """s(x), or None where s is undefined."""
        if 1 <= x <= self.n:
            return self.images[x - 1] or None
        return None

    def inverse(self) -> "PartialBijection":
        """The semigroup inverse s*: dom s* = im s, with s s* s = s."""
        return PartialBijection(self.n, sorted((i, d) for d, i in self.pairs))

    def key(self):
        return (self.domain, self.image)

    def __eq__(self, other):
        return isinstance(other, PartialBijection) and self.images == other.images

    def __hash__(self):
        return hash((PartialBijection, self.images))

    def __repr__(self):
        return f"PartialBijection({self.n}, {list(self.pairs)})"

    def __str__(self):
        return cycle_link_format(self)


class Transformation(_PartialMap):
    """A full map [n] -> [n]: its image tuple has no 0."""

    __slots__ = ()

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be >= 1")
        if any(not 1 <= x <= n for x in images):
            raise ValueError(f"image out of range 1..{n}: {images}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(range(1, n + 1))

    def apply(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ValueError(f"point out of range 1..{self.n}: {x}")
        return self.images[x - 1]

    def kernel(self) -> tuple:
        """The fibers of the map, as a sorted tuple of sorted tuples."""
        fibers = {}
        for x in range(1, self.n + 1):
            fibers.setdefault(self.images[x - 1], []).append(x)
        return tuple(sorted(tuple(f) for f in fibers.values()))

    def key(self):
        return self.images

    def __eq__(self, other):
        return isinstance(other, Transformation) and self.images == other.images

    def __hash__(self):
        return hash((Transformation, self.images))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.images)})"

    def __str__(self):
        return "[" + ",".join(str(x) for x in self.images) + "]"


class Permutation(_Injective, Transformation):
    """A Transformation whose images are a bijection of [n]."""

    __slots__ = ()

    def __init__(self, images):
        super().__init__(images)
        if len(set(self.images)) != self.n:
            raise ValueError(f"not a bijection: {self.images}")

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation(inv)

    def sign(self) -> int:
        """Parity by inversion count."""
        inv = sum(
            1
            for a, b in itertools.combinations(self.images, 2)
            if a > b
        )
        return -1 if inv % 2 else 1

    @classmethod
    def from_cycle(cls, n: int, cycle) -> "Permutation":
        images = list(range(1, n + 1))
        cycle = list(cycle)
        for k, x in enumerate(cycle):
            images[x - 1] = cycle[(k + 1) % len(cycle)]
        return cls(images)

    def to_partial_bijection(self) -> PartialBijection:
        # distinct images in [n], none 0: a partial bijection's invariants
        return PartialBijection._unchecked(self.images)


def canonical_key(x):
    """Sort key giving the canonical element order used for monoid tables."""
    if hasattr(x, "key"):
        return x.key()
    raise TypeError(f"no canonical order for {type(x).__name__}")


class FiniteMonoid:
    """An enumerated finite monoid: elements in canonical order, products by
    index.

    Every monoid holds its left Cayley graph as Python int lists: the
    generators' left rows left[k][x], the index of a_k * x.  Products,
    columns and squares are read along the graph's breadth-first tree
    (_edges).  The generators' columns, the right Cayley graph, are
    composed on first read and kept (_generator_columns).  The dense table,
    table[i, j] the index of elements[i] * elements[j] in two-byte cells,
    is composed along the same tree on first read and then kept.  So a
    monoid whose table is never read never holds one.

    A monoid comes into being only as a graph, by _from_left_rows:
    _closure finds the rows on the elements' image rows and certifies what
    its search does not give by construction (_validate).
    FiniteMonoid(...) takes no arguments, so no table handed in from
    outside is ever mistaken for left rows.
    """

    @classmethod
    def _from_left_rows(cls, elements, left, identity_index: int) -> "FiniteMonoid":
        """The monoid whose left rows are proved by _closure's search and
        the _validate it calls on it: left[k][x] indexes a_k * x, and
        a_k = a_k * e is left[k][e]."""
        monoid = object.__new__(cls)
        monoid.elements = tuple(elements)
        monoid._table = None
        monoid._left = left
        monoid._columns = None
        monoid._tree = None
        monoid._words = None
        monoid.identity_index = identity_index
        monoid.generator_indices = tuple(row[identity_index] for row in left)
        monoid._index = None
        return monoid

    def _edges(self):
        """The breadth-first tree of the left rows (_reach; for a
        closure-built monoid, the one its search walked), as (u, (v, k))
        with u = a_k * v: each u != e once, after the edge that reaches v."""
        if self._tree is None:
            self._tree = _reach(self._left, self.identity_index)
        order, via = self._tree
        return zip(itertools.islice(order, 1, None), itertools.islice(via, 1, None))

    def _word(self, x: int) -> tuple:
        """The left rows that x * y applies to y, root end first: x is
        a_k1 * (a_k2 * (... * e)) along the tree, so by associativity x * y
        = a_k1 * (a_k2 * (... * y)), the rows of a_kj, ..., a_k1 in turn."""
        if self._words is None:
            words = [()] * len(self.elements)
            for u, (v, k) in self._edges():
                words[u] = words[v] + (self._left[k],)
            self._words = words
        return self._words[x]

    @property
    def table(self):
        """The |S| x |S| Cayley table: a read-only memoryview of uint16 cells
        (format "H", nbytes 2|S|^2), table[i, j]; np.asarray(table) is a
        zero-copy uint16 array.  Composed on first read and kept: row u =
        a_k * v is left[k] after row v, as (a_k * v) * y = a_k * (v * y), from
        the identity's row 0..n-1 along the tree (_edges).  Within the budget
        it has at most 11585 rows, so every index fits two bytes."""
        if self._table is None:
            from array import array

            n = len(self.elements)
            check_budget(n * n * 2, f"a Cayley table of {n} elements")
            cells = memoryview(array("H", [0]) * (n * n))
            e = self.identity_index
            cells[e * n:(e + 1) * n] = array("H", range(n))
            for u, (v, k) in self._edges():  # n >= 2 here, so itemgetter gives a tuple
                row = itemgetter(*cells[v * n:(v + 1) * n])(self._left[k])
                cells[u * n:(u + 1) * n] = array("H", row)
            self._table = cells.cast("B").cast("H", (n, n)).toreadonly()
        return self._table

    def mul(self, i: int, j: int) -> int:
        """The index of elements[i] * elements[j], along i's word (_word)."""
        for row in self._word(i):
            j = row[j]
        return j

    def columns(self, targets) -> list:
        """The column x -> x * a of every a in targets, each a list over all
        x: the identity's entry is a, and (a_k * v) * a = a_k * (v * a), so
        the entry of u = a_k * v is left[k] at v's, along the tree."""
        left = self._left
        out = []
        for a in targets:
            col = [a] * len(self.elements)
            for u, (v, k) in self._edges():
                col[u] = left[k][col[v]]
            out.append(col)
        return out

    def _generator_columns(self) -> list:
        """columns(generating_set()), the right Cayley graph, kept on first read."""
        if self._columns is None:
            self._columns = self.columns(self.generator_indices)
        return self._columns

    def _validate(self, rows, generator_rows) -> None:
        """Raise ValueError unless the left rows left = self._left, found by
        _closure on the rows R(x) = rows[x] from e = self.identity_index, are
        those of the monoid with identity e that the a_k generate, with
        mu(a_k) = generator_rows[k].  Rows carry a leading 0, the image of
        "undefined", and for such rows p, q the row of p o q is
        itemgetter(*q)(p).

        Each element family gives mu (its _faithful_rows): a map into partial
        maps of [m], 0 where undefined, that is injective and under which the
        family's product is composition, mu(x * y) = mu(x) o mu(y).  mu(e) need
        not be the identity map: a maximal subgroup's identity is an idempotent
        of the ambient monoid.  The search gives by construction: (ii) the rows
        of the found set F are pairwise distinct, as they are dict keys; (iii)
        R(left[k][x]) = mu(a_k) o R(x) for every k and x, as left[k][x] is
        the index of that composed row; (v) the left rows reach every x in F
        from e, as each x after e was found as left[k][v] for a v found before
        it; and R(e) = mu(e).  Checked here: (i) mu(e) o mu(e) = mu(e), and
        mu(e) o mu(a_k) = mu(a_k) for every k; (iv) mu(a_k) o mu(e) = mu(a_k)
        for every k; (vi) R(x) = mu(x) for every x in F, each element's own
        row.
        By (v), every x in F is left[k1][... left[kj][e]], so by (iii) R(x) =
        mu(a_k1) o ... o mu(a_kj) o mu(e).  Then mu(e) o R(x) = R(x) by (i)
        (its first half when j = 0, its second when j > 0), and R(x) o mu(e) =
        R(x) by (i)'s first half: mu(e) is a two-sided identity on the rows of
        F.
        Let T be the table composed along the breadth-first tree: T[e, y] = y,
        and T[x, y] = left[k][T[v, y]] for x = left[k][v].  By induction on the
        depth of x, R(T[x, y]) = R(x) o R(y): at x = e as mu(e) o R(y) = R(y),
        and below, R(T[x, y]) = mu(a_k) o R(v) o R(y) = R(x) o R(y) by (iii)
        twice.  Composition is associative, so by (ii) T is: both bracketings
        of x y z have the row R(x) o R(y) o R(z).  T[e, y] = y, and R(T[x, e])
        = R(x) o mu(e) = R(x), so T[x, e] = x by (ii): the rows, closed under
        composition by the mu(a_k), form a monoid with identity mu(e).  By
        (vi), mu(x * y) = mu(x) o mu(y) = R(T[x, y]) = mu(T[x, y]), and mu is
        injective, so T is the element product and F is closed under products.
        At x = e, (iii) and (iv) give R(left[k][e]) = mu(a_k) o mu(e) =
        mu(a_k), so left[k][e] = a_k by (vi): the generators lie in F and are
        the ones given.  With (v), F is the monoid with identity e that the
        a_k generate.  The cost is |A| m lookups for (i) and (iv) and |S| m
        for (vi): the search composed each of the |A| |S| left products once.
        """
        unit = rows[self.identity_index]

        def then(a, x):  # mu(a) o mu(x)
            return itemgetter(*x)(a)

        if then(unit, unit) != unit:
            raise ValueError("identity laws fail")
        if any(then(unit, a) != a or then(a, unit) != a for a in generator_rows):
            raise ValueError("identity laws fail: a generator is not fixed by the identity")
        own = type(self.elements[0])._faithful_rows(self.elements)
        if any(r[1:] != m for r, m in zip(rows, own)):
            raise ValueError("an element's image row is not the row it was found at")

    def __len__(self):
        return len(self.elements)

    def index(self, element) -> int:
        """The position of element, from a dict built on the first call."""
        if self._index is None:
            self._index = {e: k for k, e in enumerate(self.elements)}
        return self._index[element]

    def idempotent_indices(self) -> tuple:
        """Indices i with i*i = i, ascending: the squares, along the tree."""
        return tuple(x for x in range(len(self.elements)) if self.mul(x, x) == x)

    def is_group(self) -> bool:
        """Whether every element has a two-sided inverse: exactly when every
        generator's left row is a permutation.  In a group every left
        translation is a bijection.  Conversely, a generator a whose left
        translation x -> a*x is injective has it bijective, S being finite,
        so a*x = e for some x; then a*(x*a) = (a*x)*a = a = a*e, and
        injectivity gives x*a = e, so a is a unit.  Units are closed under
        products, (ab)^-1 = b^-1 a^-1, and the generators generate S, so
        every element is a unit."""
        n = len(self.elements)
        return all(len(set(row)) == n for row in self._left)

    def generating_set(self) -> tuple:
        """The indices of the generators the monoid was closed from."""
        return self.generator_indices

    @classmethod
    def from_elements(cls, elements, identity, generators) -> "FiniteMonoid":
        """The monoid of an explicit closed element set with this identity:
        the closure of the recorded generators within the set (_closure),
        which must reach all of it."""
        members = {e: e for e in elements}  # each element to the caller's object
        identity = members.setdefault(identity, identity)
        monoid = _closure(list(generators), identity, len(members), members)
        if len(monoid) != len(members):
            raise ValueError("recorded generators do not generate the monoid")
        return monoid


def check_budget(need: int, what: str) -> None:
    """Raise ClosureCapError if what needs more than BUILD_BYTES_BUDGET bytes."""
    if need > BUILD_BYTES_BUDGET:
        raise ClosureCapError(f"{what} would take {need / 2**20:.1f} MiB, over the "
                              f"{BUILD_BYTES_BUDGET / 2**20:.0f} MiB build budget")


def row_bytes(width: int) -> int:
    """One element's cost at its build's peak: the width + 1 cells of the
    faithful row _closure searches on, at ROW_CELL_BYTES each.  Whole
    builds, spec to certified monoid, peak under tracemalloc at 79.4 B a
    cell for I:6 (7 cells an element), 73.3 for T:6, 26.8 for
    SGL:partitions:5 (53), 24.9 for SGL:subsets:6 (65), 23.9 for
    SGL:ordperm:4 (77) and 18.9 for SGL:partitions:6 (204; 202.6 MB): an
    element costs more than its cells.  The price is I_6's peak when
    elements were searched as objects, 115.2 B, above every one of these."""
    return (width + 1) * ROW_CELL_BYTES


def _bits(mask: int):
    """The positions of the set bits of an int bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(succ, root: int):
    """The nodes reached from root along the edges v -> succ[k][v], in
    breadth-first order, and the edge (v, k) that first reached each one
    (None for root).  succ is a list of int lists, one per k."""
    order, via = [root], [None]
    seen = {root}
    for v in order:  # order grows behind the loop: a queue
        for k, step in enumerate(succ):
            u = step[v]
            if u not in seen:
                seen.add(u)
                order.append(u)
                via.append((v, k))
    return order, via


def _greedy_generators(column, candidates, root: int) -> tuple:
    """The greedy generating set: each candidate, in ascending order, that
    the ones taken before it do not reach, where column(g)[x] indexes x * g
    and the set reached is the root's orbit under x -> x * g (_reach).
    Every candidate taken is reached, as g = root * g, and the set reached
    only grows, so each one taken is the least candidate not yet reached."""
    gens, columns, reached = [], [], {root}
    for g in candidates:
        if g not in reached:
            gens.append(g)
            columns.append(column(g))
            reached = set(_reach(columns, root)[0])
    return tuple(gens)


def _compose_rows(monoid: FiniteMonoid, maps, root_row) -> list:
    """rows[u] = maps[k] o rows[v] along the monoid's breadth-first tree
    (FiniteMonoid._edges: u = a_k * v), from rows[e] = root_row.

    For an action of the monoid, with maps[k][y] the point a_k sends y to
    and root_row the identity's row 0..N-1, rows[u] is the row of u:
    (a_k * v).y = a_k.(v.y), so the row of a_k * v is maps[k] after the row
    of v; from root_row = (p_i), rows[u][i] is u.p_i.  Every group action
    in the program, on lattices and on tabloids, is extended so."""
    rows = [None] * len(monoid)
    rows[monoid.identity_index] = list(root_row)
    for u, (v, k) in monoid._edges():
        rows[u] = list(map(maps[k].__getitem__, rows[v]))
    return rows


def _inverses(group: FiniteMonoid) -> tuple:
    """inv[g] is the index of g's inverse, along the group's breadth-first
    tree: in a group (is_group), the y with a_k * y = e in a generator's
    left row, a permutation, is a_k^-1, and u = a_k * v has the inverse
    v^-1 * a_k^-1."""
    if not group.is_group():
        raise ValueError("not a group")
    e = group.identity_index
    undo = [row.index(e) for row in group._left]
    inv = [e] * len(group)
    for u, (v, k) in group._edges():
        inv[u] = group.mul(inv[v], undo[k])
    return tuple(inv)


def _closure(generators, identity, cap: int, within=None) -> FiniteMonoid:
    """The monoid generated by the generators a_k, found breadth first from
    the identity e on the faithful rows (_faithful_rows) with a leading 0:
    the row of a_k * x is mu(a_k) o mu(x), itemgetter(*mu(x))(mu(a_k)), a
    tuple as mu(x) has at least two entries, looked up among the rows found
    and recorded in left[k][x].  An element is made only for a new row, as
    a_k * x of the x it was found from: |S| - 1 element products.  Raises
    ClosureCapError past cap elements, or past the most whose rows fit the
    budget (row_bytes), and "not multiplicatively closed" for a product
    outside within (when given: a dict from each element to the caller's
    object, which is kept in place of the equal product).  The elements are
    sorted canonically, so the search order does not show.  _validate
    certifies what the search does not give by construction; so the found
    set is the closure, and its products along the left rows are the
    element product.
    """
    family = type(identity)
    unit, *generator_rows = [(0, *r) for r in family._faithful_rows([identity, *generators])]
    cap = min(cap, BUILD_BYTES_BUDGET // row_bytes(len(unit) - 1))
    found, rows, index = [identity], [unit], {unit: 0}
    left = [[] for _ in generators]
    for x, row in zip(found, rows):  # both grow behind the loop: a queue
        compose = itemgetter(*row)  # compose(mu(a)) = mu(a) o mu(x)
        for succ, a, a_row in zip(left, generators, generator_rows):
            p = compose(a_row)
            k = index.get(p)
            if k is None:
                y = a * x
                if within is not None:
                    if y not in within:
                        raise ValueError("element set is not multiplicatively closed")
                    y = within[y]
                if len(found) == cap:
                    raise ClosureCapError(f"closure exceeded cap of {cap} elements")
                k = index[p] = len(found)
                found.append(y)
                rows.append(p)
            succ.append(k)
    del index  # the search dict goes before the sort and the certificate allocate
    n = len(found)
    order = sorted(range(n), key=lambda i: canonical_key(found[i]))
    label = [0] * n
    for new, old in enumerate(order):
        label[old] = new
    left = [[label[row[old]] for old in order] for row in left]
    monoid = FiniteMonoid._from_left_rows([found[i] for i in order], left, label[0])
    monoid._validate([rows[i] for i in order], generator_rows)
    return monoid


def closure(generators, identity=None, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteMonoid:
    """Breadth-first product closure of a generator list (_closure),
    searched on the faithful image rows its element family gives
    (_faithful_rows), with one element product per element found.

    The result is deterministic: elements are re-sorted into canonical order
    before the left rows are stored, so two runs on the same generators give
    identical monoids.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    if identity is None:
        identity = generators[0].identity_element()
    return _closure(generators, identity, cap)


# -- the running examples: element sets in canonical order, read by no construction

def all_partial_bijections(n: int):
    out = []
    points = range(1, n + 1)
    for m in range(n + 1):
        for dom in itertools.combinations(points, m):
            for img in itertools.permutations(points, m):
                out.append(PartialBijection(n, zip(dom, img)))
    return sorted(out, key=canonical_key)


def _exact_closure(generators, identity, order: int) -> FiniteMonoid:
    """The closure F of the generators of P = S_n, I_n, T_n or a pair monoid
    (_closure: found on the faithful rows, certified by _validate), checked
    to have P's order.  F lies in
    P by type: products of permutations, of partial bijections or of
    transformations of [n] are again such (_PartialMap.__mul__), and products
    of canonical pairs are canonical pairs (SGLContext.canonical).  A subset
    of a finite set as large as the set is the set, so |F| = |P| gives F = P.
    Another count is a fault of the program, not of its input: RuntimeError.
    The search stops at the cap |P|, which F cannot pass."""
    monoid = _closure(sorted(generators, key=canonical_key), identity, order)
    if len(monoid) != order:
        raise RuntimeError(f"the generators close to {len(monoid)} elements, not {order}")
    return monoid


def _cycles(n: int) -> set:
    """(1 2) and (1 2 ... n): one permutation at n = 2, none below."""
    if n < 2:
        return set()
    return {Permutation.from_cycle(n, (1, 2)), Permutation.from_cycle(n, range(1, n + 1))}


def symmetric_inverse_monoid(n: int) -> FiniteMonoid:
    """I_n, the closure of _cycles(n) and the partial identity on [n - 1], of
    order the sum over k of C(n, k)^2 k! (_exact_closure)."""
    gens = {c.to_partial_bijection() for c in _cycles(n)}
    gens.add(PartialBijection.partial_identity(n, range(1, n)))
    order = sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
    return _exact_closure(gens, PartialBijection.identity(n), order)


def full_transformation_monoid(n: int) -> FiniteMonoid:
    """T_n, the closure of _cycles(n) and [1, 1, 3, ..., n], of order n^n
    (_exact_closure); at n = 1 that map is [1], the identity."""
    merge = Transformation([1, 1, *range(3, n + 1)][:n])
    return _exact_closure(_cycles(n) | {merge}, Transformation.identity(n), n ** n)


def symmetric_group(n: int) -> FiniteMonoid:
    """S_n, the closure of _cycles(n), of order n! (_exact_closure)."""
    one = Permutation.identity(n)
    return _exact_closure(_cycles(n) or {one}, one, math.factorial(n))


# -- cycle-link text form for partial bijections ----------------------------

_TOKEN_RE = re.compile(r"\(([^()\[\]]*)\)|\[([^()\[\]]*)\]")


def cycle_link_format(s: PartialBijection) -> str:
    """Canonical juxtaposition of disjoint cycles "(...)" and links "[...]".

    Cycles are rotated to start at their least point; blocks are emitted
    cycles first, then links, each group sorted by least point.  The zero
    map formats as "0".  Points in neither the domain nor the image are
    omitted (the degree is carried separately).
    """
    images = s.images
    if not any(images):
        return "0"
    img = set(images)
    cycles, links = [], []
    used = set()
    for start in range(1, s.n + 1):  # link heads: in the domain, not the image
        if images[start - 1] and start not in img:
            chain = [start]
            while images[chain[-1] - 1]:
                chain.append(images[chain[-1] - 1])
            used.update(chain)
            links.append(chain)
    # what remains of the domain decomposes into cycles; x is the least
    # point of its cycle, since every smaller one was used, so the cycles
    # come out rotated and sorted
    for x in range(1, s.n + 1):
        if images[x - 1] and x not in used:
            cyc = [x]
            while images[cyc[-1] - 1] != x:
                cyc.append(images[cyc[-1] - 1])
            used.update(cyc)
            cycles.append(cyc)
    links.sort(key=min)
    parts = ["(" + ",".join(map(str, c)) + ")" for c in cycles]
    parts += ["[" + ",".join(map(str, c)) + "]" for c in links]
    return "".join(parts)


def cycle_link_parse(text: str, n: int) -> PartialBijection:
    """Inverse of cycle_link_format at degree n."""
    text = text.strip()
    if text in ("", "0"):
        return PartialBijection.zero(n)
    pos = 0
    pairs = []
    seen_points = set()
    for match in _TOKEN_RE.finditer(text):
        if text[pos:match.start()].strip():
            raise ElementParseError(f"malformed bracket near {text[pos:match.start()]!r}")
        pos = match.end()
        cycle_body, link_body = match.group(1), match.group(2)
        body = cycle_body if cycle_body is not None else link_body
        try:
            points = [int(p) for p in body.split(",")] if body.strip() else []
        except ValueError:
            raise ElementParseError(f"malformed block {match.group(0)!r}") from None
        if any(not 1 <= p <= n for p in points):
            raise ElementParseError(f"point out of range 1..{n} in {match.group(0)!r}")
        for p in points:
            if p in seen_points:
                raise ElementParseError(f"repeated point {p}")
            seen_points.add(p)
        if cycle_body is not None:
            if not points:
                raise ElementParseError("empty cycle")
            for k, p in enumerate(points):
                pairs.append((p, points[(k + 1) % len(points)]))
        else:
            if len(points) < 2:
                raise ElementParseError("a link needs at least two points")
            for k in range(len(points) - 1):
                pairs.append((points[k], points[k + 1]))
    if pos != len(text) and text[pos:].strip():
        raise ElementParseError(f"malformed bracket near {text[pos:]!r}")
    if not pairs:
        raise ElementParseError("no blocks found")
    return PartialBijection(n, sorted(pairs))
