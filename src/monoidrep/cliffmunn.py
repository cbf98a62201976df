"""Reduction and induction between a monoid and its maximal subgroups, and
the catalogs of irreducible representations they generate.

Reduction squashes a monoid representation V down to the action of a maximal
subgroup G_e on the image of phi(e); induction blows a G_e-representation up
to block-monomial matrices over a transversal of the H-classes in L_e, then
quotients by the vectors killed by the whole R-class of e.  For the inverse
monoids built here the two are mutually inverse once the idempotent sits in
the apex class, and running every subgroup irreducible through induction
yields the full irreducible catalog.
"""

from __future__ import annotations

import itertools
from math import factorial, gcd, prod
from typing import NamedTuple

from .elements import FiniteMonoid, _compose_rows
from .green import (
    apex_labels,
    lclass_coordinates,
    maximal_subgroup,
    monoid_green,
    transversal,
)
from .linrep import (
    Representation,
    Subspace,
    _identity,
    _kron,
    _stack,
    commutant_dim,
    commutation_rows,
    find_proper_invariant,
    quotient_rep,
    restrict_rep,
    trivial_rep,
)
from .specht import _specht_action, compositions, partitions


class ApexError(RuntimeError):
    """The nonzero-support set is not an upward interval with one minimum."""


class CatalogError(RuntimeError):
    """Catalog construction hit an unrecognized or inconsistent structure."""


# -- reduction ---------------------------------------------------------------

class ReducedRep(NamedTuple):
    """The carrier eV with its G_e-action; rep is None when eV = 0.

    The matrices are automatically invertible on the carrier: the verified
    homomorphism sends g * g^-1 to the identity matrix of the carrier.
    """

    idempotent: int
    carrier: Subspace
    group: FiniteMonoid
    rep: Representation | None


def reduce_rep(big: Representation, e: int) -> ReducedRep:
    monoid = big.monoid
    classes, _ = monoid_green(monoid)
    group = maximal_subgroup(monoid, classes, e)  # raises unless e is idempotent
    carrier = Subspace._span(big.dim, tuple(zip(*big.num[e])))  # the columns of phi(e)
    if carrier.dim == 0:
        return ReducedRep(e, carrier, group, None)
    members = classes.hclasses[classes.hclass_of[e]]  # the group's elements, in order
    num, den = carrier.restrict([big.num[s] for s in members])
    return ReducedRep(e, carrier, group, Representation._of(group, num, big.den * den))


def support_jclasses(big: Representation) -> tuple:
    """J-classes on which some (equivalently, every) idempotent acts nonzero."""
    monoid = big.monoid
    classes, _ = monoid_green(monoid)
    support = []
    for j, idems in enumerate(classes.jclass_idempotents):
        if not idems:
            raise ApexError(f"J-class {j} carries no idempotent; monoid not regular")
        flags = {not any(map(any, big.num[i])) for i in idems}
        if len(flags) != 1:
            raise ApexError(f"idempotents of J-class {j} disagree about eV = 0")
        if not flags.pop():
            support.append(j)
    return tuple(support)


def apex(big: Representation):
    """(apex J-class, full support), requiring an upward interval.

    The interval check only holds for irreducible representations; a failure
    reports that the input was not irreducible.
    """
    monoid = big.monoid
    _, poset = monoid_green(monoid)
    support = support_jclasses(big)
    inside = sum(1 << j for j in support)
    if any(poset.leq[j] & ~inside for j in support):
        raise ApexError("support is not upward closed")
    # j is minimal when no other class of the support lies below it
    minima = [j for j in support
              if not any(poset.leq[k] >> j & 1 for k in support if k != j)]
    if len(minima) != 1:
        raise ApexError(
            f"support has {len(minima)} minimal classes; representation is not irreducible"
        )
    return minima[0], support


# -- induction ---------------------------------------------------------------

class InducedRaw(NamedTuple):
    """The block representation on |T| tagged copies of V, before quotienting."""

    monoid: FiniteMonoid
    idempotent: int
    transversal: tuple  # element indices s_i
    group: FiniteMonoid
    group_rep: Representation
    rep: Representation
    block_map: tuple  # (J, G), each one k-tuple per element: t s_i = s_J g_G; -1 off L_e


def _block_map(monoid: FiniteMonoid, classes, trans) -> tuple:
    """(J, G), one k-tuple each per element t: t s_i = s_J g where t s_i
    lies in L_e, with J = J[t][i] and g at index G[t][i] of G_e, and
    J = G = -1 where it does not.  t s_i is read from the column of s_i in
    the left Cayley graph.  G[t][i] is the position of g in the H-class of
    e, ascending (lclass_coordinates), and that is its index in
    maximal_subgroup: the closure sorts G_e's elements canonically, as the
    ambient monoid's are sorted.  For the classes monoid_green returns, each
    map is computed once and cached beside them, by its transversal."""
    cached = getattr(monoid, "_green_cache", None)
    cache = monoid._block_map_cache if cached is not None and cached[0] is classes else {}
    if trans not in cache:
        block, local = lclass_coordinates(monoid, classes, trans)
        products = list(zip(*monoid.columns(trans.reps)))  # products[t][i] = t s_i
        big_j = tuple(tuple(block[p] for p in row) for row in products)
        big_g = tuple(tuple(local[p] for p in row) for row in products)
        cache[trans] = big_j, big_g
    return cache[trans]


def induce_raw(monoid: FiniteMonoid, e: int, group_rep: Representation,
               trans=None) -> InducedRaw:
    """The block representation on |trans.reps| tagged copies of V: block
    (J, i) of phi(t) is rho(g) where t s_i = s_J g lies in L_e, else 0.
    Each phi(t) is written from its row of the (J, G) block map
    (_block_map, which cm_roundtrip_check reads too), whose g indexes G_e
    as maximal_subgroup orders it: ValueError for a group_rep over another
    group."""
    classes, _ = monoid_green(monoid)
    if trans is None:
        trans = transversal(monoid, classes, e)
    group = group_rep.monoid
    members = classes.hclasses[classes.hclass_of[e]]
    if group.elements != tuple(monoid.elements[x] for x in members):
        raise ValueError("group_rep is not a representation of the maximal subgroup at e")
    big_j, big_g = _block_map(monoid, classes, trans)
    k, dv, blocks = len(trans.reps), group_rep.dim, group_rep.num
    zero = (0,) * (k * dv)

    def matrix(t):  # block (J, i) of phi(t) is rho(G): rows J*dv.., columns i*dv..
        out = {}  # the rows that are not zero
        for i, (j, g) in enumerate(zip(big_j[t], big_g[t])):
            if j >= 0:
                for r, row in enumerate(blocks[g], j * dv):
                    out.setdefault(r, [0] * (k * dv))[i * dv:(i + 1) * dv] = row
        return tuple(tuple(out[r]) if r in out else zero for r in range(k * dv))

    rep = Representation._of(monoid, _stack(len(monoid), k * dv, matrix), group_rep.den)
    return InducedRaw(monoid, e, trans.reps, group, group_rep, rep, (big_j, big_g))


def annihilator(raw: InducedRaw) -> Subspace:
    """Vectors killed by every element of the R-class of e."""
    classes, _ = monoid_green(raw.monoid)
    r_members = classes.rclasses[classes.rclass_of[raw.idempotent]]
    rows = [row for s in r_members for row in raw.rep.num[s]]  # every row of every phi(s)
    return Subspace._span(raw.rep.dim, rows).orthogonal_complement()


def induce(monoid: FiniteMonoid, e: int, group_rep: Representation) -> Representation:
    raw = induce_raw(monoid, e, group_rep)
    ann = annihilator(raw)
    if ann.dim == 0:
        return raw.rep
    return quotient_rep(raw.rep, ann)


# -- semisimplicity ----------------------------------------------------------

class SemisimpleReport(NamedTuple):
    status: str  # "semisimple" | "not_semisimple" | "unknown"
    reason: str


def semisimple_predicate(monoid: FiniteMonoid, characteristic: int = 0) -> SemisimpleReport:
    """Maschke for groups, the subgroup-order divisibility test for inverse
    monoids, and an honest "unknown" for other regular monoids.

    Regular and inverse are read off where the idempotents sit; D = J in a
    finite monoid.  If a = a x a, then a x is an idempotent R-related to a,
    and a D-class holding one regular element is regular throughout (Howie,
    Prop. 2.3.1).  So the monoid is regular iff every J-class holds an
    idempotent.  A monoid is inverse, each element having exactly one
    inverse, iff every L-class and every R-class holds exactly one idempotent
    (Howie, Thm 5.1.1).  An inverse monoid with one idempotent is a group.
    The report is computed once per characteristic and cached beside the
    Green classes.
    """
    if characteristic < 0 or characteristic == 1:
        raise ValueError("characteristic must be 0 or a prime")
    classes, _ = monoid_green(monoid)
    cache = monoid._semisimple_cache
    if characteristic not in cache:
        cache[characteristic] = _semisimple_report(monoid, classes, characteristic)
    return cache[characteristic]


def _semisimple_report(monoid: FiniteMonoid, classes, characteristic: int) -> SemisimpleReport:
    if not all(classes.jclass_idempotents):
        return SemisimpleReport("unknown", "monoid is not regular")
    idems = monoid.idempotent_indices()
    per_l, per_r = [0] * len(classes.lclasses), [0] * len(classes.rclasses)
    for e in idems:
        per_l[classes.lclass_of[e]] += 1
        per_r[classes.rclass_of[e]] += 1
    if any(c != 1 for c in per_l + per_r):
        return SemisimpleReport(
            "unknown", "regular but not inverse: no general semisimplicity criterion applies"
        )
    if len(idems) == 1:
        order = len(monoid)
        if characteristic == 0 or order % characteristic:
            return SemisimpleReport(
                "semisimple", f"group of order {order}, characteristic does not divide it"
            )
        return SemisimpleReport(
            "not_semisimple", f"characteristic {characteristic} divides the group order {order}"
        )
    orders = sorted({len(classes.hclasses[classes.hclass_of[e]]) for e in idems})
    if characteristic == 0:
        return SemisimpleReport(
            "semisimple", f"inverse monoid, subgroup orders {orders}, characteristic 0"
        )
    bad = [o for o in orders if o % characteristic == 0]
    if bad:
        return SemisimpleReport(
            "not_semisimple",
            f"characteristic {characteristic} divides subgroup order {bad[0]}",
        )
    return SemisimpleReport(
        "semisimple", f"inverse monoid, characteristic divides no subgroup order"
    )


# -- decomposition -----------------------------------------------------------

def _equivariant_projection(rep: Representation, sub: Subspace):
    """p in Hom_S(V, V) with image sub and p restricted to sub the identity.

    One augmented system [rows | rhs] in vec p (row-major): p commutes with
    every phi(g); p u = u for the basis rows u of sub, one row kron(e_i, u)
    per coordinate i; and f p = 0 for the rows f of sub's orthogonal
    complement, one row kron(f, e_j) per coordinate j.  Its least solution
    (free unknowns 0) is read off the echelon form, as integer rows over
    one denominator (num, den); None if it has none.
    """
    d = rep.dim
    ident = _identity(d)
    u, f = sub.num, sub.orthogonal_complement().num
    aug = [row + [0] for row in commutation_rows(rep, rep)]
    aug += [row + (x,) for row, x in zip(_kron(ident, u), itertools.chain.from_iterable(zip(*u)))]
    aug += [row + (0,) for row in _kron(f, ident)]
    solved = Subspace._span(d * d + 1, aug)
    if d * d in solved.pivots:
        return None
    sol = [0] * (d * d)
    for p, row in zip(solved.pivots, solved.num):
        sol[p] = row[-1]
    return tuple(tuple(sol[i:i + d]) for i in range(0, d * d, d)), solved.den


def decompose(rep: Representation, *, seed_order: str = "standard"):
    """Split into irreducible factors, returned as representations; only
    valid with a semisimple certificate."""
    cert = semisimple_predicate(rep.monoid, 0)
    if cert.status != "semisimple":
        raise ValueError(f"decompose requires a semisimple certificate: {cert.reason}")
    factors = []

    def split(v):
        sub = find_proper_invariant(v, seed_order)
        if sub is None:
            if commutant_dim(v) != 1:
                raise RuntimeError(
                    "no invariant subspace found for a non-irreducible representation; "
                    "this contradicts the semisimplicity certificate"
                )
            factors.append(v)
            return
        p = _equivariant_projection(v, sub)
        if p is None:
            raise RuntimeError(
                "no equivariant projection onto an invariant subspace; "
                "this contradicts the semisimplicity certificate"
            )
        complement = Subspace._span(v.dim, p[0]).orthogonal_complement()
        if complement.dim + sub.dim != v.dim:
            raise RuntimeError("projection kernel has the wrong dimension")
        split(restrict_rep(v, sub))
        split(restrict_rep(v, complement))

    split(rep)
    return tuple(factors)


# -- the Clifford-Munn catalogs ----------------------------------------------

class CatalogEntry(NamedTuple):
    apex: int
    apex_label: str
    label: tuple
    idempotent: int
    group: FiniteMonoid
    group_rep: Representation
    rep: Representation

    @property
    def dim(self) -> int:
        return self.rep.dim


def _young_irreps(group, blocks, to_label_map):
    """Irreducibles of a subgroup G acting on its points as the Young
    subgroup of its blocks: outer tensors of per-block Specht modules.

    to_label_map(element) is the {label: label} map of an element; only the
    generators' are read.  Checked: (i) |G| = prod b_i!; (ii) each generator
    keeps every block; (iii) the label rows composed along G's graph are an
    action, rows[s * a] = rows[s] o move(a) for every s and generator a;
    (iv) the rows are pairwise distinct.  So s -> rows[s] is a homomorphism,
    by the induction of Representation.verify, injective by (iv), into
    prod Sym(b_i) by (ii) and onto it by (i).  Specht modules are absolutely
    irreducible, so their outer tensors are the product's irreducibles
    (Serre, Linear Representations of Finite Groups, Thm 10).  Each factor
    is read on G itself (specht._specht_action), and their per-element
    kron, the first block's factor outermost, is verified once.
    """
    if len(group) != prod(factorial(len(b)) for b in blocks):
        raise CatalogError("subgroup does not match the Young product of its blocks")
    moves = [to_label_map(group.elements[a]) for a in group.generating_set()]
    if any(move[x] not in block for move in moves for block in blocks for x in block):
        raise CatalogError("subgroup element does not preserve the blocks")
    points = [x for block in blocks for x in block]
    where = {x: i for i, x in enumerate(points)}
    maps = [[where[move[x]] for x in points] for move in moves]  # positions of a_k(points)
    rows = _compose_rows(group, maps, range(len(points)))
    for step, col in zip(maps, group._generator_columns()):  # col[s] = s * a
        if any(rows[sa] != list(map(row.__getitem__, step)) for row, sa in zip(rows, col)):
            raise CatalogError("the generators' label maps are not an action of the subgroup")
    if len(set(map(tuple, rows))) != len(group):
        raise CatalogError("blockwise decomposition of the subgroup is not faithful")
    factors = []  # per block, {shape: (num, den)} of its Specht modules over G
    for block in blocks:
        block_moves = [{x: move[x] for x in block} for move in moves]
        factors.append({lam: _specht_action(group, block_moves, lam, block)
                        for lam in partitions(len(block))})
    for shapes in itertools.product(*factors):  # one shape per block, in partitions order
        (num, den), *rest = (factor[lam] for factor, lam in zip(factors, shapes))
        for f, d in rest:  # kron(num[s], f[s]) for every s
            num = _stack(len(num), len(num[0]) * len(f[0]), lambda s, a=num, b=f: _kron(a[s], b[s]))
            den *= d
        yield shapes, Representation._of(group, num, den)


def _group_irreps(monoid: FiniteMonoid, e: int, group: FiniteMonoid):
    """(label, verified Representation over the subgroup) for every
    irreducible of G_e, the Young subgroup of the blocks the idempotent
    names (young_blocks, young_move), labelled by one shape per block or by
    the bare shape (labels_per_block).  No points (the zero classes) or,
    with labels per block, a trivial group below its blocks (the partition
    lattice's collapse) give the single empty-label entry.
    """
    el = monoid.elements[e]
    if not hasattr(el, "young_blocks"):
        raise CatalogError(
            f"unrecognized maximal subgroup structure at element type {type(el).__name__}"
        )
    blocks, per_block = el.young_blocks(), el.labels_per_block()
    if not any(blocks):
        if len(group) != 1:
            raise CatalogError("zero class with a nontrivial subgroup")
        yield (), trivial_rep(group)
        return
    if per_block and len(group) == 1 and prod(factorial(len(b)) for b in blocks) != 1:
        yield (), trivial_rep(group)
        return
    for shapes, rep in _young_irreps(group, blocks, el.young_move):
        yield (shapes if per_block else shapes[0]), rep


def jclass_irreps(monoid: FiniteMonoid, j: int):
    """(idempotent e, maximal subgroup G_e, label, irreducible of G_e) for the
    recognized subgroup at J-class j: inducing each gives its catalog entry."""
    classes, _ = monoid_green(monoid)
    idems = classes.jclass_idempotents[j]
    if not idems:
        raise CatalogError(f"J-class {j} has no idempotent")
    e = idems[0]
    group = maximal_subgroup(monoid, classes, e)
    for label, group_rep in _group_irreps(monoid, e, group):
        yield e, group, label, group_rep


def cm_catalog(monoid: FiniteMonoid) -> tuple:
    """One catalog entry per (J-class, subgroup irreducible), for inverse
    monoids with recognized subgroup structure; a monoid whose elements
    name no Young blocks, T_n among them, is refused at its first J-class
    (_group_irreps)."""
    cert = semisimple_predicate(monoid, 0)
    labels = apex_labels(monoid)
    entries = []
    for j, apex_label in enumerate(labels):
        for e, group, label, group_rep in jclass_irreps(monoid, j):
            rep = induce(monoid, e, group_rep)
            entries.append(CatalogEntry(j, apex_label, label, e, group, group_rep, rep))
    seen = {}  # character key -> its first entry
    for i, en in enumerate(entries):
        k = seen.setdefault(en.rep.character_key(), i)
        if k != i:
            raise CatalogError(f"catalog entries {k} and {i} have equal characters")
    if cert.status == "semisimple":
        total = sum(en.dim ** 2 for en in entries)
        if total != len(monoid):
            raise CatalogError(
                f"sum of squared dimensions {total} != monoid order {len(monoid)}"
            )
    entries.sort(key=lambda en: (en.apex, en.label))
    return tuple(entries)


def cm_roundtrip_check(monoid: FiniteMonoid, entry: CatalogEntry) -> bool:
    """reduce(induce(V)) iso V and induce(reduce(W)) iso W, decided by
    characters; ValueError for an entry over another monoid, or unless the
    monoid is certified semisimple.

    In characteristic 0 the characters of the simple modules of a
    semisimple algebra are linearly independent, so a module's character
    determines the multiplicity of each simple summand, and two modules
    with equal characters are isomorphic.  Down: V and reduce(W) are
    modules of Q G_e, which is semisimple by Maschke.  Up: W and
    induce(reduce(W)) are modules of Q S, semisimple by the certificate.

    The up half builds no induced module.  With V' = reduce(W) and the
    (J, G) block map of e, the character of induce(V') is
    chi(t) = sum of chi_V'(G[t,i]) over the blocks i with J[t,i] = i:
    (1) Column block i of the raw phi(t) holds rho(G[t,i]) in row block
        J[t,i] alone, or nothing where t s_i is off L_e, so diagonal block i
        is rho(G[t,i]) exactly when J[t,i] = i, and zero otherwise.
    (2) Under the certificate induce returns the raw module: its
        R_e-annihilator is 0.  The certificate is granted only when every
        L- and R-class holds one idempotent, so S is inverse (Howie, Thm
        5.1.1), and x lies in L_e iff x^-1 x = e.  For a representative
        s_i, r = s_i^-1 lies in R_e, as r r^-1 = s_i^-1 s_i = e, and
        r s_i = e, which the transversal represents by e itself.  For
        j != i, (r s_j)^-1 r s_j = s_j^-1 f_i s_j with f_i = s_i s_i^-1;
        this idempotent is at most e, and equal to e only if
        f_j = s_j e s_j^-1 = f_i f_j, that is f_j <= f_i.  But f_i != f_j
        lie in distinct R-classes of the D-class of e, and D-related
        idempotents of a finite monoid are incomparable, so r s_j is off
        L_e.  Hence phi(r) is the identity at block (block of e, i) and
        zero elsewhere, and a vector killed by all of R_e is zero in every
        block i.
    (3) Equal characters then decide W iso induce(V'), as above.
    """
    if entry.rep.monoid is not monoid and entry.rep.monoid.elements != monoid.elements:
        raise ValueError("representations are over different monoids")
    cert = semisimple_predicate(monoid)
    if cert.status != "semisimple":
        raise ValueError(f"round trips are decided by characters only for a "
                         f"semisimple monoid: {cert.reason}")
    red = reduce_rep(entry.rep, entry.idempotent)
    if red.rep is None:
        return False
    if red.rep.monoid.elements != entry.group_rep.monoid.elements:
        raise ValueError("representations are over different monoids")
    den, chi = red.rep.character_key()
    if red.rep.dim != entry.group_rep.dim or (den, chi) != entry.group_rep.character_key():
        return False
    classes, _ = monoid_green(monoid)
    trans = transversal(monoid, classes, entry.idempotent)
    big_j, big_g = _block_map(monoid, classes, trans)
    traces = [sum(chi[g] for i, (j, g) in enumerate(zip(js, gs)) if j == i)
              for js, gs in zip(big_j, big_g)]
    common = gcd(den, *traces)
    return entry.rep.character_key() == (den // common, tuple(t // common for t in traces))


# -- the permutohedron Renner monoid -----------------------------------------

def composition_leq(lam: tuple, mu: tuple) -> bool:
    """lam <= mu iff merging runs of consecutive parts of lam gives mu."""
    if lam == ():
        return True
    if mu == ():
        return False
    i = 0
    for part in mu:
        run = 0
        while run < part:
            if i >= len(lam):
                return False
            run += lam[i]
            i += 1
        if run != part:
            return False
    return i == len(lam)


class RennerReport(NamedTuple):
    n: int
    order: int
    jclass_types: tuple  # composition (or ()) per J-class id
    poset_matches_compositions: bool
    young_orders_match: bool


def renner_permutohedron_catalog(monoid: FiniteMonoid):
    """(catalog, J-poset report) of the ordered-partition pair monoid, the
    sgl_monoid of lattice.make_lattice("ordered_partitions_zero", n).  The
    type of a J-class is the block sizes of its idempotents (young_blocks).

    The catalog is built for n <= 3 and is None above: at n = 4 the monoid
    has 1801 elements and 23 entries of dimension up to 24, which
    `irreps SGL:ordperm:4` builds.
    """
    n = monoid.elements[0].group_element().n
    catalog = cm_catalog(monoid) if n <= 3 else None
    classes, poset = monoid_green(monoid)
    types = [tuple(len(b) for b in monoid.elements[idems[0]].young_blocks())
             for idems in classes.jclass_idempotents]
    expected = set(compositions(n)) | {()}
    poset_ok = set(types) == expected and len(types) == len(expected)
    if poset_ok:
        for j1, t1 in enumerate(types):
            for j2, t2 in enumerate(types):
                if bool(poset.leq[j1] >> j2 & 1) != composition_leq(t1, t2):
                    poset_ok = False
    orders = [len(maximal_subgroup(monoid, classes, idems[0]))
              for idems in classes.jclass_idempotents]
    young_ok = orders == [prod(factorial(p) for p in t) for t in types]
    return catalog, RennerReport(n, len(monoid), tuple(types), poset_ok, young_ok)
