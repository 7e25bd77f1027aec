"""The Beauville predicates: hyperbolic triples, the powers-not-conjugate
condition, seeded searches and structure constants.

A GroupHandle bundles a realized group: its permutation generators, whose
BSGS order certifies the expected order, and for matrix realizations the
point action (vectors or projective points) that carries explicit matrices
into the same permutation group.  Every element is a Permutation, so all
element orders are cycle-structure orders; the matrix-level order of an
injected matrix is only cross-checked against its image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .numtheory import Factorization, factorize
from .matgrp import (
    GroupSpec,
    SquareMatrix,
    classical_order,
    order_of_matrix,
    standard_generators,
)
from .permgrp import (
    CAP_EXCEEDED,
    Permutation,
    PointAction,
    ProductReplacer,
    RandomSource,
    class_orbit,
    matrix_to_perm,
    schreier_sims,
)

DEFAULT_BUDGET = 10 ** 5
DEFAULT_CAP = 200000


class GroupHandle:
    """A realized permutation group with certified order.

    Matrix realizations also carry the point action and the field
    parameter q of their spec, which the explicit constructions need.
    """

    def __init__(self, name: str, perm_gens: Sequence[Permutation],
                 expected_order: int):
        self.name = name
        self.perm_gens = list(perm_gens)
        self.expected_order = expected_order
        self.q: Optional[int] = None
        self.action: Optional[PointAction] = None
        self._order_multiple: Optional[Factorization] = None

    # -- realization constructors

    @classmethod
    def from_permutations(cls, name: str, gens: Sequence[Permutation],
                          expected_order: Optional[int] = None) -> "GroupHandle":
        order = schreier_sims(gens).order()
        if expected_order is not None and order != expected_order:
            raise ValueError(f"{name}: BSGS order {order} != declared {expected_order}")
        return cls(name, gens, order)

    @classmethod
    def from_matrix_spec(cls, spec: GroupSpec, cap: int = 10 ** 7,
                         quotient: bool = False) -> "GroupHandle":
        """Realize a matrix group through a permutation action.

        By default the action is faithful: nonzero vectors when the center
        is nontrivial (so covers keep their central elements), projective
        points otherwise.  With quotient=True the projective action is used
        regardless, realizing the central quotient (PSL and friends).
        """
        gens = list(spec.generators or standard_generators(spec))
        if spec.declared_order is not None:
            expected = spec.declared_order
        else:
            expected = classical_order(spec).value
        ctx = gens[0].ctx
        center = _scalar_subgroup_order(spec, ctx, gens[0].d)
        name = spec.label()
        if quotient:
            action = "projective"
            expected //= center
            name = "P" + name
        else:
            action = "vectors" if center > 1 else "projective"
        perms, _, act = matrix_to_perm(gens, action, cap)
        order = schreier_sims(perms).order()
        if order != expected:
            raise ValueError(
                f"{name}: BSGS order {order} != formula/declared {expected}")
        handle = cls(name, perms, expected)
        handle.q = spec.q
        handle.action = act
        if not quotient:
            handle._order_multiple = _group_exponent_multiple(spec)
        return handle

    def inject_matrix(self, M: SquareMatrix) -> Permutation:
        """Image of a matrix in the handle's faithful action, with the
        matrix-level order cross-checked against the cycle structure."""
        perm = self.action.permutation(M)
        if self._order_multiple is not None:
            assert order_of_matrix(M, self._order_multiple) == perm.order()
        return perm

    def replacer(self, rs: RandomSource) -> ProductReplacer:
        return ProductReplacer(self.perm_gens, rs)

    def __repr__(self) -> str:
        return f"GroupHandle({self.name}, order={self.expected_order})"


def _scalar_subgroup_order(spec: GroupSpec, ctx, d: int) -> int:
    if spec.family == "SL":
        return math.gcd(d, spec.q - 1)
    if spec.family == "SU":
        return math.gcd(d, spec.q + 1)
    if spec.family == "Sp":
        return math.gcd(2, spec.q - 1)
    if spec.family in ("SuzukiB2",):
        return 1
    if spec.family in ("OmegaMinus", "OmegaPlus", "OmegaOdd") and spec.q == 2:
        return 1
    # conservative: check whether -1 is in the group via the generators' field
    return 2 if ctx.p != 2 else 1


def _group_exponent_multiple(spec: GroupSpec) -> Factorization:
    """A factored multiple of every element order (|GL_d| over the matrix
    field), used by the factored-order descent."""
    ctx_q = spec.q * spec.q if spec.family in ("GU", "SU") else spec.q
    d = spec.d
    out = factorize(ctx_q).pow(d - 1)
    for i in range(1, d + 1):
        out = out * factorize(ctx_q ** i - 1)
    return out


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
    subgroup_order: int


@dataclass(frozen=True)
class NotHyperbolic:
    reciprocal_sum: Fraction


def verify_triple(G: GroupHandle, x, y) -> Union[HyperbolicTriple, NotGenerating, NotHyperbolic]:
    """Check x, y for a hyperbolic generating triple (x, y, (xy)^-1)."""
    sub = schreier_sims([x, y]).order()
    if sub != G.expected_order:
        return NotGenerating(sub)
    z = (x * y).inverse()
    orders = (x.order(), y.order(), z.order())
    total = sum(Fraction(1, o) for o in orders)
    if total >= 1:
        return NotHyperbolic(total)
    return HyperbolicTriple(G.name, x, y, z, orders, sub)


# ---------------------------------------------------------------------------
# condition (iii)


@dataclass(frozen=True)
class CoprimeOrders:
    products: Tuple[int, int]


@dataclass(frozen=True)
class ClassChecked:
    checks: Tuple[Tuple[int, int, int], ...]  # (prime, order_u, order_v) verified


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
            orbit = class_orbit(_power_to_order(u, r), G.perm_gens, cap)
            if orbit is CAP_EXCEEDED:
                return Undecided(f"class orbit of an order-{r} power exceeds cap {cap}")
            for v_slot, v in vs:
                v_r = _power_to_order(v, r)
                for k in range(1, r):
                    if v_r ** k in orbit:
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
    target_orbit = None
    if target_class is not None:
        target_orbit = class_orbit(target_class, G.perm_gens, cap)
        if target_orbit is CAP_EXCEEDED:
            return Exhausted(0, "target class orbit exceeds cap")
    for attempt in range(1, budget + 1):
        g = rep.random_element()
        y = x0.conjugate(g)
        prod = x0 * y
        if target_order is not None and prod.order() != target_order:
            continue
        if target_orbit is not None and prod not in target_orbit:
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
        if (a * bg).order() != n:
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
    """|{(a, b) in c1^G x c2^G : a b = z}| by iterating over c1's class."""
    orbit1 = class_orbit(c1, G.perm_gens, cap)
    if orbit1 is CAP_EXCEEDED:
        raise CapExceededError(f"class of c1 exceeds cap {cap}")
    orbit2 = class_orbit(c2, G.perm_gens, cap)
    if orbit2 is CAP_EXCEEDED:
        raise CapExceededError(f"class of c2 exceeds cap {cap}")
    count = 0
    for a in orbit1:
        if a.inverse() * z in orbit2:
            count += 1
    return count
