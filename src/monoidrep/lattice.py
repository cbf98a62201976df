"""Finite lattices carrying a group action, and the inverse monoid they span.

A monoid element is a pair written g_a (group element g, lattice element a),
with g reduced to the least representative of its coset modulo the pointwise
stabilizer of the down-set of a.  Products follow g_a h_b = (gh) at
(h^{-1}.a) meet b.

Lattice elements are plain tuples: subsets are sorted point tuples,
partitions are tuples of sorted blocks, ordered partitions keep their block
order, and () is the adjoined minimum of the ordered-partition lattice.

Everything here is Python ints and lists, and numpy is not loaded: orders,
down-sets and up-sets are int bitsets (bit b of leq[a] is a <= b), meets
are read from them, and the action and coset tables are lists, one row per
group element or lattice element.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter, mul
from typing import NamedTuple

from .elements import (
    FiniteMonoid,
    PartialBijection,
    Permutation,
    _bits,
    _compose_rows,
    _exact_closure,
    _inverses,
    _reach,
    canonical_key,
    check_budget,
    row_bytes,
    symmetric_group,
)

LATTICE_KINDS = ("subsets", "set_partitions", "ordered_partitions_zero")

DESK_DEGREE_CAP = 6


class LatticeError(ValueError):
    """A lattice axiom failed during construction (or n is out of range)."""


class FiniteLattice:
    """Elements in canonical order with the order relation as int bitsets,
    and the meet table.

    leq[a] is the up-set of a, the bitset of the b with a <= b; leq is
    given so, and checked reflexive, antisymmetric and transitive.  Then
    every pair must have a meet, meet[a][b] an element index, and there
    must be a top.

    Meets are read from the down-sets.  Every lower bound c of a and b has
    down(c) inside down(a) & down(b), by transitivity.  If c is the glb,
    every d in the intersection is a lower bound, so d <= c: down(c) is the
    whole intersection.  Conversely, if down(c) = down(a) & down(b), then c
    is a lower bound, and every lower bound lies in the intersection, so
    below c: c is the glb.  Down-sets are distinct by antisymmetry, so the
    glb exists iff the intersection is some element's down-set.

    Meets and a top make a lattice, so no join is stored or checked: in a
    finite poset, the upper bounds of a and b are a nonempty set (the top
    is one); their meet u lies below each of them and, as a and b are
    lower bounds of all of them, above a and b, so u is the join.  The
    bottom is the meet of all elements, the one whose up-set is all.
    """

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        self.kind = None  # set by make_lattice for the built-ins
        n = len(self.elements)
        self.leq = tuple(leq)
        if len(self.leq) != n or any(up < 0 or up >> n for up in self.leq):
            raise LatticeError("order relation has wrong shape")
        self._index = {e: k for k, e in enumerate(self.elements)}
        self._down = [0] * n  # _down[b] holds a iff a <= b
        for a, up in enumerate(self.leq):
            for b in _bits(up):
                self._down[b] |= 1 << a
        if not all(up >> a & 1 for a, up in enumerate(self.leq)):
            raise LatticeError("order not reflexive")
        if any(up & down != 1 << a for a, (up, down) in enumerate(zip(self.leq, self._down))):
            raise LatticeError("order not antisymmetric")
        # a <= b <= c gives a <= c: every up-set holds the up-sets of its members
        if any(self.leq[b] & ~up for up in self.leq for b in _bits(up)):
            raise LatticeError("order not transitive")

        self.meet = []
        of = {bits: c for c, bits in enumerate(self._down)}.get
        for a, mine in enumerate(self._down):
            row = [of(mine & other) for other in self._down]
            if None in row:  # the first bad pair, as the pairs are listed row by row
                b = row.index(None)
                raise LatticeError(f"no unique meet for elements "
                                   f"{self.elements[a]!r} and {self.elements[b]!r}")
            self.meet.append(row)
        everything = (1 << n) - 1
        if everything not in self._down:
            raise LatticeError("lattice must have a top")
        self.top = self._down.index(everything)
        self.bottom = self.leq.index(everything)

    def index(self, element) -> int:
        return self._index[element]

    def down_set(self, a: int) -> tuple:
        return tuple(_bits(self._down[a]))

    def text(self, value) -> str:
        """The printed form of a lattice element: {1,2} for a subset,
        {{1},{2,3}} for a set partition, ({1},{2,3}) for an ordered one, and
        0 for the adjoined minimum of the ordered partitions."""
        if value == ():
            return "0" if self.kind == "ordered_partitions_zero" else "{}"
        if self.kind == "subsets":
            return "{" + ",".join(str(x) for x in value) + "}"
        blocks = ",".join("{" + ",".join(str(x) for x in b) + "}" for b in value)
        if self.kind == "set_partitions":
            return "{" + blocks + "}"
        return "(" + blocks + ")"

    def __len__(self):
        return len(self.elements)


class GroupAction:
    """A permutation group acting on a lattice by poset automorphisms;
    table[g][a] is g.a, one list per group element."""

    def __init__(self, group: FiniteMonoid, lattice: FiniteLattice, table):
        self.group = group
        self.lattice = lattice
        self.table = [list(row) for row in table]
        ng, nl = len(group), len(lattice)
        if len(self.table) != ng or any(len(row) != nl for row in self.table):
            raise LatticeError("action table has wrong shape")
        if self.table[group.identity_index] != list(range(nl)):
            raise LatticeError("identity does not act trivially")
        # (g*h).a = g.(h.a) for all g and a holds for every h once it holds
        # for the generators h: if it holds for h and k, then
        # act(g*(h*k)) = act((g*h)*k) = act(g*h)act(k) = act(g)act(h)act(k)
        # = act(g)act(h*k).  So every act(g) is a product of the generators'
        # permutations, and poset automorphisms are closed under composition.
        gens = group.generating_set()
        for h, times_h in zip(gens, group._generator_columns()):  # times_h[g] = g*h
            act_h = self.table[h]
            for g, row in enumerate(self.table):
                if self.table[times_h[g]] != list(map(row.__getitem__, act_h)):
                    raise LatticeError("action is not a homomorphism")
        # each act(g) is then a bijection, act(g^-1) undoing it, and it
        # keeps the order iff it maps every up-set onto the up-set of the
        # image: {perm[b] : a <= b} = {c : perm[a] <= c}
        leq = lattice.leq
        for g in gens:
            perm = self.table[g]
            for a, up in enumerate(leq):
                image = 0
                for b in _bits(up):
                    image |= 1 << perm[b]
                if image != leq[perm[a]]:
                    raise LatticeError("some group element is not a poset automorphism")

    def orbits(self) -> tuple:
        """The orbits of the group on the lattice (_orbits)."""
        return _orbits([self.table[g] for g in self.group.generating_set()])


# -- built-in lattices -------------------------------------------------------

def make_lattice(kind: str, n: int):
    """One of the built-in lattices with its symmetric-group action; refused
    (ClosureCapError) before its O(N^2) order when the certificate rows of
    its pair monoid, N points wide, would overflow the build budget.  The
    order is _order_relation's, proved there to be the definition, and
    FiniteLattice certifies the meets in it (for subsets, intersections)."""
    if n < 1 or n > DESK_DEGREE_CAP:
        raise LatticeError(f"degree must be in 1..{DESK_DEGREE_CAP}")
    if kind == "subsets":
        elements = sorted(
            itertools.chain.from_iterable(
                itertools.combinations(range(1, n + 1), m) for m in range(n + 1)
            )
        )

        def image(g: Permutation, a):
            return tuple(sorted(g.apply(x) for x in a))

    elif kind == "set_partitions":
        elements = sorted(_set_partitions(n))

        def image(g: Permutation, a):
            return tuple(sorted(tuple(sorted(g.apply(x) for x in block)) for block in a))

    elif kind == "ordered_partitions_zero":
        elements = [()] + sorted(_ordered_partitions(n))

        def image(g: Permutation, a):
            return tuple(tuple(sorted(g.apply(x) for x in block)) for block in a)

    else:
        raise LatticeError(f"unknown lattice kind {kind!r}; expected one of {LATTICE_KINDS}")

    group = symmetric_group(n)
    index = {a: k for k, a in enumerate(elements)}
    gen_rows = [[index[image(group.elements[g], a)] for a in elements]
                for g in group.generating_set()]
    bound = _pair_order_bound(gen_rows)
    check_budget(bound * row_bytes(len(elements)),
                 f"the pair monoid has at least {bound} elements, whose certificate rows")
    lat = FiniteLattice(elements, _order_relation(kind, elements, n))
    lat.kind = kind
    # the |G| x N action table, composed from the generators' rows;
    # GroupAction checks the action law on every row
    table = _compose_rows(group, gen_rows, range(len(elements)))
    return lat, GroupAction(group, lat, table)


def _pair_order_bound(gen_rows) -> int:
    """The sum of |O|^2 over the orbits O of the group on the lattice: a lower
    bound on the order of the pair monoid.

    The monoid holds one pair g_a per coset of K_a, the pointwise stabilizer
    of the down-set of a, so its order is the sum over a of [G : K_a].  K_a
    fixes a, which lies in its own down-set, so K_a is inside Stab(a) and
    [G : K_a] >= [G : Stab(a)] = |G.a|; summing |O| over the |O| elements of
    each orbit O gives the bound.
    """
    return sum(len(orbit) ** 2 for orbit in _orbits(gen_rows))


def _orbits(gen_rows) -> tuple:
    """The orbits of a group on the lattice as sorted tuples, in order of
    least element, each the set _reach finds over the generators' rows
    gen_rows[k][a] = a_k . a (in a finite group, inverses are powers)."""
    seen, out = set(), []
    for a in range(len(gen_rows[0])):
        if a not in seen:
            orbit = tuple(sorted(_reach(gen_rows, a)[0]))
            seen.update(orbit)
            out.append(orbit)
    return tuple(out)


def _set_partitions(n):
    if n == 1:
        return [((1,),)]
    out = []
    for smaller in _set_partitions(n - 1):
        for k in range(len(smaller)):
            blocks = [list(b) for b in smaller]
            blocks[k].append(n)
            out.append(tuple(sorted(tuple(sorted(b)) for b in blocks)))
        out.append(tuple(sorted(smaller + ((n,),))))
    return out


def _ordered_partitions(n):
    points = tuple(range(1, n + 1))

    def rec(remaining):
        if not remaining:
            yield ()
            return
        rest = list(remaining)
        for m in range(1, len(rest) + 1):
            for block in itertools.combinations(rest, m):
                left = tuple(x for x in rest if x not in block)
                for tail in rec(left):
                    yield (block,) + tail

    return list(rec(points))


def _order_relation(kind: str, elements, n: int) -> list:
    """The order of a built-in lattice as up-set bitsets, bit b of leq[a]
    set iff a <= b, from one relation R_a on the points per element a, an
    int bitset: a <= b iff R_a is inside R_b.

    Subsets: R_a = {x : x in a}, and a <= b is a inside b by definition.

    Set partitions: R_a = {(x, y) : x and y in one block of a}, and a <= b
    when every block of a lies inside a block of b.  If it does, x and y in
    one block of a lie in one block of b.  Conversely, if R_a is inside
    R_b, fix x in a block B of a and let B' be the block of b holding x:
    every y in B has (x, y) in R_a, hence in R_b, so y is in B'.

    Ordered partitions: R_a = {(x, y) : pos_a(x) <= pos_a(y)}, where
    pos_a(x) is the position of the block of a holding x, and R_() is
    empty.  The order puts () below everything; otherwise a <= b when every
    block i of a lies inside a block h(i) of b and h is nondecreasing.
    R_() is inside every R_b, and R_a holds (x, x) for a != (), so it is
    not inside R_().  For a, b != (): if h exists and is nondecreasing,
    then pos_b = h o pos_a, so pos_a(x) <= pos_a(y) gives
    pos_b(x) <= pos_b(y).  Conversely, if R_a is inside R_b, then x and y
    in one block of a have (x, y) and (y, x) in R_b, so pos_b(x) = pos_b(y):
    the block lies inside one block of b, and h is defined.  For blocks
    i < j of a, x in i and y in j give (x, y) in R_a, hence in R_b, so
    h(i) = pos_b(x) <= pos_b(y) = h(j).
    """
    if kind == "subsets":
        rel = [sum(1 << (x - 1) for x in a) for a in elements]
    else:
        # pair (x, y) is bit x * n + y, for points x, y counted from 0; set
        # partitions compare block positions for equality only
        same = kind == "set_partitions"
        rel = []
        for a in elements:
            pos = [0] * n  # the position of the block of a holding x + 1
            for i, block in enumerate(a):
                for x in block:
                    pos[x - 1] = i
            rel.append(0 if a == () else sum(
                1 << (x * n + y) for x in range(n) for y in range(n)
                if (pos[x] == pos[y] if same else pos[x] <= pos[y])))
    out = []
    for mine in rel:  # a <= b iff R_a has no pair that R_b lacks
        up = 0
        for b, other in enumerate(rel):
            if not mine & ~other:
                up |= 1 << b
        out.append(up)
    return out


# -- the inverse monoid of pairs g_a ----------------------------------------

def sgl_context(action: "GroupAction") -> "SGLContext":
    """The shared pair-arithmetic context of an action (elements from
    different contexts never compare equal, so one action gets one context)."""
    cached = getattr(action, "_sgl_context", None)
    if cached is None:
        cached = SGLContext(action)
        action._sgl_context = cached
    return cached


class SGLContext:
    """Precomputed data for pair arithmetic over one (group, lattice, action)."""

    def __init__(self, action: GroupAction):
        self.action = action
        self.group = action.group
        self.lattice = action.lattice
        self.ginv = list(_inverses(self.group))
        self.pointwise = []
        # rep_table[a][g] = least member of the coset g * pointwise(a).
        # g K = g' K iff g^-1 g' fixes every d <= a iff g'.d = g.d for
        # every d <= a, so the coset of g is the g' with g's restriction to
        # the down-set of a, and its least member the first such g'
        self.rep_table = []
        one = self.group.identity_index
        for a in range(len(self.lattice)):
            restrict = itemgetter(*self.lattice.down_set(a))
            first = {}
            reps = [first.setdefault(restrict(row), g) for g, row in enumerate(action.table)]
            self.rep_table.append(reps)
            self.pointwise.append(tuple(g for g, r in enumerate(reps) if r == reps[one]))

    def canonical(self, g: int, a: int) -> "SGLElement":
        return SGLElement(self, self.rep_table[a][g], a)

    def idempotent(self, a: int) -> "SGLElement":
        return self.canonical(self.group.identity_index, a)


class SGLElement:
    """A canonical pair g_a; g is stored as a group index."""

    __slots__ = ("context", "g", "a")

    def __init__(self, context: SGLContext, g: int, a: int):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "g", int(g))
        object.__setattr__(self, "a", int(a))

    def __setattr__(self, name, value):
        raise AttributeError("SGLElement is immutable")

    def __mul__(self, other: "SGLElement") -> "SGLElement":
        """g_a h_b = (gh) at c = (h^-1.a) meet b: composition under the
        faithful map mu(g_a): d -> g.d on the down-set of a (_faithful_rows).

        The down-set lemma: mu(g_a) o mu(h_b) is defined at d iff d <= b and
        h.d <= a, that is d <= h^-1.a, as h is a poset automorphism; so iff
        d <= c, where it sends d to g.(h.d) = (gh).d.  That is mu((gh)_c),
        and the coset representative acts as gh on the down-set of c.  mu
        is injective on canonical pairs: the down-set of a has maximum a,
        and g_a, h_a agree on it iff g^-1 h fixes it pointwise, that is iff
        they lie in one coset, which has one representative.
        """
        ctx = self.context
        if ctx is not other.context:
            raise ValueError("elements from different contexts")
        c = ctx.lattice.meet[ctx.action.table[ctx.ginv[other.g]][self.a]][other.a]
        return ctx.canonical(ctx.group.mul(self.g, other.g), c)

    def inverse(self) -> "SGLElement":
        """The semigroup inverse (g^-1) at g.a."""
        ctx = self.context
        return ctx.canonical(ctx.ginv[self.g], self.act_on_a())

    def act_on_a(self) -> int:
        return self.context.action.table[self.g][self.a]

    def identity_element(self) -> "SGLElement":
        ctx = self.context
        return ctx.canonical(ctx.group.identity_index, ctx.lattice.top)

    @staticmethod
    def _faithful_rows(elements) -> list:
        """mu(g_a) for each pair (see __mul__): point d + 1 goes to g.d + 1
        for lattice indices d <= a, to 0 elsewhere, as the product of g's
        shifted row and the 0/1 row of a's down-set."""
        ctx = elements[0].context
        size = len(ctx.lattice)
        shifted, inside = {}, {}
        rows = []
        for x in elements:
            if x.g not in shifted:
                shifted[x.g] = [d + 1 for d in ctx.action.table[x.g]]
            if x.a not in inside:
                down = ctx.lattice._down[x.a]
                inside[x.a] = [down >> d & 1 for d in range(size)]
            rows.append(tuple(map(mul, shifted[x.g], inside[x.a])))
        return rows

    def apex_label(self) -> str:
        """The J-class of g_a, named by the orbit of a: J<size> for a
        subset, 0 for the adjoined minimum, else the block sizes (largest
        first for a set partition)."""
        kind, a = self.context.lattice.kind, self.lattice_element()
        if kind == "subsets":
            return f"J{len(a)}"
        sizes = [len(b) for b in a]
        if kind == "set_partitions":
            sizes.sort(reverse=True)
        return "(" + ",".join(map(str, sizes)) + ")" if a else "0"

    def young_blocks(self) -> tuple:
        """At an idempotent e_a, the blocks of the Young subgroup that G_e
        is checked to be (cliffmunn._young_irreps): a subset is one block, a
        partition its blocks.  Labels hold one shape per block but for
        subsets (labels_per_block)."""
        a = self.lattice_element()
        return (a,) if self.context.lattice.kind == "subsets" else a

    def labels_per_block(self) -> bool:
        return self.context.lattice.kind != "subsets"

    def young_move(self, s: "SGLElement") -> dict:
        """Where the element s = g_a of G_e sends each point: as g does."""
        return dict(enumerate(s.group_element().images, 1))

    def group_element(self) -> Permutation:
        return self.context.group.elements[self.g]

    def lattice_element(self):
        return self.context.lattice.elements[self.a]

    def key(self):
        return (self.a, self.context.group.elements[self.g].images)

    def __eq__(self, other):
        return (
            isinstance(other, SGLElement)
            and self.context is other.context
            and self.g == other.g
            and self.a == other.a
        )

    def __hash__(self):
        return hash((SGLElement, self.g, self.a))

    def __repr__(self):
        return f"SGL(g={self.context.group.elements[self.g]}, a={self.lattice_element()})"

    def __str__(self):
        """g in cycle-link form, @, and a as its lattice prints it."""
        g = self.group_element().to_partial_bijection()
        return f"{g}@{self.context.lattice.text(self.lattice_element())}"


def sgl_monoid(action: GroupAction):
    """The full pair monoid as a FiniteMonoid: the closure of _sgl_generators,
    checked to have one element per canonical pair (elements._exact_closure)."""
    ctx = sgl_context(action)
    # one canonical pair per distinct coset representative of each lattice element
    count = sum(len(set(reps)) for reps in ctx.rep_table)
    check_budget(count * row_bytes(len(ctx.lattice)), f"the certificate rows of {count} pairs")
    gens = sorted(_sgl_generators(ctx), key=canonical_key)
    return _exact_closure(gens, ctx.idempotent(ctx.lattice.top), count), ctx


def _sgl_generators(ctx: SGLContext):
    """Units' generators plus one idempotent per G-orbit of lattice elements.

    The units g_top and the orbit representatives' idempotents generate every
    other idempotent, since e_{g.a} = g_top * e_a * (g^-1)_top; sgl_monoid's
    count proves that they generate the whole pair set.  The
    identity is left out: it is the idempotent of the top's orbit {top},
    and g_top for any g that acts trivially.
    """
    top = ctx.lattice.top
    one = ctx.idempotent(top)
    units = [ctx.canonical(g, top) for g in ctx.group.generating_set()]
    idempotents = [ctx.idempotent(orbit[0]) for orbit in ctx.action.orbits()]
    return [x for x in units + idempotents if x != one]


class SGLOrderReport(NamedTuple):
    formula_total: int
    enumerated_total: int
    breakdown: tuple  # (lattice element, coset count) per element

    @property
    def agree(self) -> bool:
        return self.formula_total == self.enumerated_total


def sgl_order(action: GroupAction, monoid: FiniteMonoid = None) -> SGLOrderReport:
    """Order both by the stabilizer-index formula and by enumeration.

    The enumeration is the order of the pair monoid that sgl_monoid(action)
    builds (pass it as monoid, or it is built here): the closure of the
    units' generators and one idempotent per orbit, which sgl_monoid counts
    against the canonical pairs, so no product is needed here.  The formula
    total, the sum of the indices [G : K_a], is compared with it.
    """
    ctx = sgl_context(action)
    if monoid is None:
        monoid, _ = sgl_monoid(action)
    elif monoid.elements[0].context is not ctx:
        raise ValueError("the monoid is not the pair monoid of this action")
    ng = len(ctx.group)
    breakdown = tuple(
        (ctx.lattice.elements[a], ng // len(ctx.pointwise[a]))
        for a in range(len(ctx.lattice))
    )
    formula = sum(c for _, c in breakdown)
    enumerated = len(monoid)
    if formula != enumerated:
        raise RuntimeError(
            f"order formula {formula} disagrees with enumeration {enumerated}"
        )
    return SGLOrderReport(formula, enumerated, breakdown)


def subsets_to_partial_bijection(element: SGLElement) -> PartialBijection:
    """The restriction map g_a -> g|_a realizing the subsets monoid inside I_n."""
    g = element.group_element()
    a = element.lattice_element()
    return PartialBijection(g.n, sorted((x, g.apply(x)) for x in a))


class PartitionLatticeReport(NamedTuple):
    """Definitional order of the partition-lattice monoid vs the Young-index sum.

    The two agree for n <= 3 and diverge at n = 4; `matches_young_formula`
    records which case holds, computed rather than assumed.
    """

    n: int
    definitional_order: int
    young_formula_value: int

    @property
    def matches_young_formula(self) -> bool:
        return self.definitional_order == self.young_formula_value

    def flags(self) -> list:
        """The FLAG line when the two orders differ, else nothing."""
        if self.matches_young_formula:
            return []
        return ["FLAG: definitional order differs from the Young-subgroup index sum"]

    def flag_lines(self):
        return [
            f"definitional order: {self.definitional_order}",
            f"young index formula: {self.young_formula_value}",
            *self.flags(),
        ]


def partition_lattice_report(action: GroupAction, order: SGLOrderReport) -> PartitionLatticeReport:
    """The report of a set-partition action from its sgl_order result."""
    n = action.group.elements[0].n
    young = sum(math.factorial(n) // math.prod(math.factorial(len(b)) for b in blocks)
                for blocks in action.lattice.elements)
    return PartitionLatticeReport(n, order.formula_total, young)
