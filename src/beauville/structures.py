"""The Beauville predicates: hyperbolic triples, the powers-not-conjugate
condition, seeded searches and structure constants.

A GroupHandle bundles a realized group: its permutation generators and
their BSGS, built with the handle, whose order certifies the expected
order, and for matrix realizations the point action (vectors or projective
points) that carries explicit matrices into the same permutation group.
Every element is a Permutation, so all element orders are cycle-structure
orders; the order of an injected matrix is only cross-checked against its
image, when the action is faithful.

Realizations of SL, Sp and SU and of their central quotients PSL, PSp
and PSU stop their Schreier-Sims build once its transversal product
reaches the formula order |G|.  That is a proof, not a guess: the
membership predicate _in_classical_group first checks that each matrix
generator lies in G (determinant 1, and for Sp and SU the antidiagonal
form that the standard generators are built on), so |<gens>| <= |G|, and
a lower bound reaching that upper bound makes the BSGS complete (see
permgrp.schreier_sims).  The builtin Alt(n) has even generators, so it
stops at n!/2 the same way (permgrp.alt_bsgs).  Sz, Omega^-, ingested
matrix files and permutation files carry a declared order, have no such
proof and build in full.  Either way GroupHandle compares the BSGS order
with |G| for equality.

verify_triple certifies generation without a full Schreier-Sims build of
<x, y>: an orbit comparison that can only reject, membership of x and y in
G proven through G's BSGS, which proves <x, y> <= G, and then a build of
<x, y> with known_order |G|, which stops once its lower bound on
|<x, y>| reaches |G|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

from .numtheory import factorize
from .matgrp import (
    GroupSpec,
    MatrixStack,
    SquareMatrix,
    antidiagonal_form,
    classical_order,
    standard_generators,
)
from .permgrp import (
    BSGS,
    CAP_EXCEEDED,
    DEFAULT_CAP,
    Permutation,
    PointAction,
    ProductReplacer,
    RandomSource,
    matrix_to_perm,
    orbit_partition,
    packed_class,
    schreier_sims,
)

DEFAULT_BUDGET = 10 ** 5


class GroupHandle:
    """A realized permutation group with certified order.

    The BSGS of perm_gens is built at construction, in full unless a
    complete one is given, and kept; its order must equal expected_order,
    when one is given, and becomes the handle's order.  Matrix realizations
    also carry the point action, whether it is faithful, and the family and
    field parameter q of their spec, which the explicit constructions need.
    The orbit partition, which verify_triple uses, is computed on first use
    and kept.
    """

    def __init__(self, name: str, perm_gens: Sequence[Permutation],
                 expected_order: Optional[int] = None, bsgs: Optional[BSGS] = None):
        self.name = name
        self.perm_gens = list(perm_gens)
        self.bsgs = bsgs if bsgs is not None else schreier_sims(self.perm_gens)
        order = self.bsgs.order()
        if expected_order is not None and order != expected_order:
            raise ValueError(f"BSGS order {order} != formula/declared {expected_order}")
        self.expected_order = order
        self.family: Optional[str] = None
        self.q: Optional[int] = None
        self.action: Optional[PointAction] = None
        self.faithful = False

    # -- matrix realizations

    @classmethod
    def from_matrix_spec(cls, spec: GroupSpec, quotient: bool = False) -> "GroupHandle":
        """Realize a matrix group through a permutation action.

        By default the action is faithful: nonzero vectors when the group
        may hold scalars other than 1 (so covers keep their central
        elements), projective points otherwise.  With quotient=True the
        projective action is used regardless, realizing the central
        quotient (PSL and friends).

        The BSGS build stops at the expected order only when that order
        comes from the formula and _in_classical_group proves its premise;
        otherwise it runs in full.
        """
        gens = list(standard_generators(spec))
        if spec.declared_order is not None:
            expected = spec.declared_order
        else:
            expected = classical_order(spec)
        proven = spec.declared_order is None and _in_classical_group(spec, gens)
        ctx = gens[0].ctx
        center = _scalar_subgroup_order(spec, ctx, gens[0].d)
        name = spec.label()
        if quotient:
            action = "projective"
            expected //= center
            name = "P" + name
        else:
            action = "vectors" if center > 1 else "projective"
        perms, _, act = matrix_to_perm(gens, action)
        bsgs = schreier_sims(perms, known_order=expected if proven else None)
        handle = cls(name, perms, expected, bsgs)
        handle.family = spec.family
        handle.q = spec.q
        handle.action = act
        handle.faithful = center == 1 or not quotient
        return handle

    @cached_property
    def orbits(self) -> Tuple[int, ...]:
        return orbit_partition(self.perm_gens)

    def inject_matrix(self, M: SquareMatrix) -> Permutation:
        """Image of a matrix in the handle's point action.  When the action
        is faithful, the matrix must have the order of its image."""
        perm = self.action.permutation(M)
        assert not self.faithful or M.has_order(perm.order())
        return perm

    def replacer(self, rs: RandomSource) -> ProductReplacer:
        return ProductReplacer(self.perm_gens, rs)

    def __repr__(self) -> str:
        return f"GroupHandle({self.name}, order={self.expected_order})"


def _scalar_subgroup_order(spec: GroupSpec, ctx, d: int) -> int:
    """The order of the group's subgroup of scalar matrices, or for a
    family with no formula the number q - 1 of nonzero scalars of its
    field, which bounds it: such a group acts faithfully on vectors
    whenever the field has a scalar other than 1."""
    if spec.family == "SL":
        return math.gcd(d, spec.q - 1)
    if spec.family == "SU":
        return math.gcd(d, spec.q + 1)
    if spec.family == "Sp":
        return math.gcd(2, spec.q - 1)
    if spec.family == "SuzukiB2":
        return 1
    return ctx.q - 1


def _in_classical_group(spec: GroupSpec, gens: Sequence[SquareMatrix]) -> bool:
    """Whether every generator is proven to lie in the SL, Sp or SU group
    G of spec, so that |<gens>| <= |G|.  The proof is determinant 1, and
    for Sp and SU that the generators preserve the antidiagonal form
    (symplectic or hermitian) on which the standard generators are built,
    checked as one stack."""
    kinds = {"SL": None, "Sp": "symplectic", "SU": "hermitian"}
    if spec.family not in kinds:
        return False
    ctx = gens[0].ctx
    field_order = spec.q ** 2 if spec.family == "SU" else spec.q
    if ctx.q != field_order or any(g.d != spec.d or g.det() != 1 for g in gens):
        return False
    kind = kinds[spec.family]
    return kind is None or bool(
        antidiagonal_form(ctx, spec.d, kind).preserves_each(MatrixStack(gens)).all())


# ---------------------------------------------------------------------------
# triples


@dataclass(frozen=True)
class HyperbolicTriple:
    """A verified generating triple with 1/l + 1/m + 1/n < 1."""

    group: str
    x: object
    y: object
    z: object
    orders: Tuple[int, int, int]
    certified_order: int

    @property
    def order_product(self) -> int:
        l, m, n = self.orders
        return l * m * n


@dataclass(frozen=True)
class NotGenerating:
    """x and y do not generate G.  reason names the step of verify_triple
    that rejected them; |<x, y>| is computed on first use."""

    gens: Tuple[Permutation, Permutation] = field(repr=False)
    reason: str

    @cached_property
    def subgroup_order(self) -> int:
        return schreier_sims(self.gens).order()


@dataclass(frozen=True)
class NotHyperbolic:
    reciprocal_sum: Fraction


ORBITS_DIFFER = "orbits differ from G's"
OUTSIDE_G = "not both in G"
PROPER_SUBGROUP = "proper subgroup"


def verify_triple(G: GroupHandle, x, y) -> Union[HyperbolicTriple, NotGenerating, NotHyperbolic]:
    """Check x, y for a hyperbolic generating triple (x, y, (xy)^-1).

    Generation is proven in three steps.  The orbits of <x, y> must be G's:
    this prefilter only rejects, mostly after a walk over one orbit.  x and
    y must lie in G, proven by stripping them through G's BSGS; that proves
    <x, y> <= G, the premise of known_order.  Then the Schreier-Sims build
    of <x, y> with known_order |G| must reach |G|: its transversal product
    is a lower bound on |<x, y>|, so reaching |G| proves <x, y> = G.
    """
    gens = (x, y)
    if not _same_orbits(gens, G.orbits):
        return NotGenerating(gens, ORBITS_DIFFER)
    if not (G.bsgs.contains(x) and G.bsgs.contains(y)):
        return NotGenerating(gens, OUTSIDE_G)
    sub = schreier_sims(gens, known_order=G.expected_order).order()
    if sub != G.expected_order:
        return NotGenerating(gens, PROPER_SUBGROUP)
    z = (x * y).inverse()
    orders = (x.order(), y.order(), z.order())
    total = sum(Fraction(1, o) for o in orders)
    if total >= 1:
        return NotHyperbolic(total)
    return HyperbolicTriple(G.name, x, y, z, orders, sub)


def _same_orbits(gens: Sequence[Permutation], labels: Tuple[int, ...]) -> bool:
    """orbit_partition(gens) == labels, decided by walking <gens> from each
    orbit minimum of labels and stopping at the first point whose label
    differs from the walk's start, or at the first unseen point that is not
    its own label (its orbit misses the minimum it should hold)."""
    rows = [g._points() for g in gens]
    seen = [False] * len(labels)
    for start, label in enumerate(labels):
        if seen[start]:
            continue
        if label != start:
            return False
        seen[start] = True
        stack = [start]
        while stack:
            pt = stack.pop()
            for row in rows:
                img = row[pt]
                if not seen[img]:
                    if labels[img] != start:
                        return False
                    seen[img] = True
                    stack.append(img)
    return True


# ---------------------------------------------------------------------------
# condition (iii)


@dataclass(frozen=True)
class CoprimeOrders:
    products: Tuple[int, int]


@dataclass(frozen=True)
class ClassChecked:
    checks: Tuple[Tuple[int, int, int], ...]  # (prime, u slot, number of t2 elements checked)


@dataclass(frozen=True)
class Violation:
    prime: int
    u_slot: int
    v_slot: int
    power: int


@dataclass(frozen=True)
class Undecided:
    reason: str


ConditionCertificate = Union[CoprimeOrders, ClassChecked, Violation, Undecided]


def condition_iii(G: GroupHandle, t1: HyperbolicTriple, t2: HyperbolicTriple,
                  cap: int = DEFAULT_CAP) -> ConditionCertificate:
    """No nontrivial power of t1's elements conjugate to a power of t2's.

    Coprime order products certify immediately.  Otherwise reduce to prime
    order: any conjugacy between nontrivial powers forces one between
    powers of prime order, so for each shared prime r it is enough to check
    the order-r powers u^(o(u)/r) against v^(o(v)/r) and all its powers.
    """
    if math.gcd(t1.order_product, t2.order_product) == 1:
        return CoprimeOrders((t1.order_product, t2.order_product))
    shared = set(factorize(t1.order_product).primes) & set(factorize(t2.order_product).primes)
    checks = []
    for r in sorted(shared):
        us = [(slot, u) for slot, u in enumerate((t1.x, t1.y, t1.z))
              if u.order() % r == 0]
        vs = [(slot, v) for slot, v in enumerate((t2.x, t2.y, t2.z))
              if v.order() % r == 0]
        for u_slot, u in us:
            cls = packed_class(_power_to_order(u, r), G.perm_gens, cap)
            if cls is CAP_EXCEEDED:
                return Undecided(f"class orbit of an order-{r} power exceeds cap {cap}")
            for v_slot, v in vs:
                v_r = _power_to_order(v, r)
                for k in range(1, r):
                    if v_r ** k in cls:
                        return Violation(r, u_slot, v_slot, k)
            checks.append((r, u_slot, len(vs)))
    return ClassChecked(tuple(checks))


def _power_to_order(u: Permutation, r: int) -> Permutation:
    o = u.order()
    assert o % r == 0
    return u ** (o // r)


@dataclass(frozen=True)
class BeauvilleStructure:
    """Two hyperbolic triples with a verified disjointness certificate."""

    triple1: HyperbolicTriple
    triple2: HyperbolicTriple
    certificate: ConditionCertificate

    def __post_init__(self):
        assert isinstance(self.certificate, (CoprimeOrders, ClassChecked))

    @property
    def types(self) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
        return (self.triple1.orders, self.triple2.orders)


# ---------------------------------------------------------------------------
# searches


@dataclass(frozen=True)
class Exhausted:
    attempts: int
    detail: str = ""


@dataclass(frozen=True)
class GowResult:
    x: object
    y: object
    witness: object  # the conjugator g with y = x^g
    attempts: int


def gow_search(G: GroupHandle, x0, target_order: Optional[int] = None,
               target_class=None, budget: int = DEFAULT_BUDGET,
               seed: int = 0, cap: int = DEFAULT_CAP,
               require_generation: bool = False) -> Union[GowResult, Exhausted]:
    """Random conjugates y = x0^g until o(x0 y) matches the target.

    target_class, when given, additionally requires x0*y to be conjugate to
    it (checked through the class orbit with the given cap).  With
    require_generation the pair must also pass verify_triple.
    """
    if x0.order() == 1:
        raise ValueError("x0 must be nontrivial")
    rs = RandomSource(seed)
    rep = G.replacer(rs)
    target = None
    if target_class is not None:
        target = packed_class(target_class, G.perm_gens, cap)
        if target is CAP_EXCEEDED:
            return Exhausted(0, "target class orbit exceeds cap")
    for attempt in range(1, budget + 1):
        g = rep.random_element()
        y = x0.conjugate(g)
        prod = x0 * y
        if target_order is not None and not prod.has_order(target_order):
            continue
        if target is not None and prod not in target:
            continue
        if require_generation and not isinstance(verify_triple(G, x0, y), HyperbolicTriple):
            continue
        return GowResult(x0, y, g, attempt)
    return Exhausted(budget)


def _element_of_order(rep: ProductReplacer, order: int,
                      budget: int) -> Tuple[Optional[Permutation], int]:
    for attempt in range(1, budget + 1):
        g = rep.random_element()
        o = g.order()
        if o % order == 0:
            return g ** (o // order), attempt
    return None, budget


def element_of_order(G: GroupHandle, order: int, seed: int = 0,
                     budget: int = DEFAULT_BUDGET):
    """A pseudo-random element of the exact order, or None."""
    el, _ = _element_of_order(G.replacer(RandomSource(seed)), order, budget)
    return el


REPIN_INTERVAL = 300


def search_by_type(G: GroupHandle, type_lmn: Tuple[int, int, int],
                   budget: int = DEFAULT_BUDGET, seed: int = 0
                   ) -> Union[HyperbolicTriple, Exhausted]:
    """Seeded search for a hyperbolic triple of the given type.

    Elements of orders l and m are pinned by powering random elements, then
    the relative position is randomized until the product has order n and
    the pair generates.  The pinned pair is redrawn every few hundred
    attempts so an unlucky pair of conjugacy classes cannot wedge the
    search.  Deterministic for a fixed seed and budget.
    """
    l, m, n = type_lmn
    if min(type_lmn) < 2:
        raise ValueError("orders must be at least 2")
    rs = RandomSource(seed)
    rep = G.replacer(rs)
    a, used1 = _element_of_order(rep, l, budget)
    if a is None:
        return Exhausted(budget, f"no element of order {l}")
    b, used2 = _element_of_order(rep, m, budget - used1)
    if b is None:
        return Exhausted(budget, f"no element of order {m}")
    attempts = used1 + used2
    since_repin = 0
    while attempts < budget:
        attempts += 1
        since_repin += 1
        if since_repin > REPIN_INTERVAL:
            since_repin = 0
            a2, _ = _element_of_order(rep, l, REPIN_INTERVAL)
            b2, _ = _element_of_order(rep, m, REPIN_INTERVAL)
            a, b = a2 or a, b2 or b
        g = rep.random_element()
        bg = b.conjugate(g)
        if not (a * bg).has_order(n):
            continue
        result = verify_triple(G, a, bg)
        if isinstance(result, HyperbolicTriple):
            return result
    return Exhausted(budget)


# ---------------------------------------------------------------------------
# structure constants


class CapExceededError(RuntimeError):
    pass


def structure_constant(G: GroupHandle, c1, c2, z, cap: int = DEFAULT_CAP) -> int:
    """|{(a, b) in c1^G x c2^G : a b = z}|, the number of a in c1's class
    with a^-1 z in c2's class, counted over c1's packed class at once."""
    class1 = packed_class(c1, G.perm_gens, cap)
    if class1 is CAP_EXCEEDED:
        raise CapExceededError(f"class of c1 exceeds cap {cap}")
    class2 = packed_class(c2, G.perm_gens, cap)
    if class2 is CAP_EXCEEDED:
        raise CapExceededError(f"class of c2 exceeds cap {cap}")
    return class1.count_quotients(z, class2)
