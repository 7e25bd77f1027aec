"""Double covers of Sym(n)/Alt(n) inside a Clifford algebra over GF(7).

The algebra on generators e_1..e_n with e_i^2 = -1 and e_i e_j = -e_j e_i
is modelled on the 2^n basis monomials e_S (S a subset bitmask), with
coefficients in GF(7) (the least odd prime containing a square root of 2,
namely 3).  The lifted transpositions t_i = (e_i - e_{i+1}) / sqrt(2)
satisfy t_i^2 = z, (t_i t_j)^2 = z for |i - j| > 1 and the braid relations,
with the central z acting as the scalar -1, so all the double-cover
identities become exact computations in the algebra.  Elements carry their
projection to Sym(n) so that generation can be certified downstairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .permgrp import Permutation, RandomSource, schreier_sims

_P = 7
_SQRT2 = 3  # 3*3 = 9 = 2 in GF(7)


class RankOutOfRange(ValueError):
    """build_cover supports 3 <= n <= 14."""


class OrderExceedsBound(ValueError):
    """neven_search found no suitable element within its draw budget."""


class ZNotExhibited(AssertionError):
    """No candidate word evaluated to the central involution (a bug, not a
    mathematical possibility)."""


class CliffordCtx:
    """Basis bookkeeping for the rank-n Clifford algebra over GF(7)."""

    def __init__(self, n: int):
        if not 3 <= n <= 14:
            raise RankOutOfRange("supported rank range is 3..14")
        self.n = n
        self.dim = 1 << n
        par = np.zeros(self.dim, dtype=np.int8)
        for v in range(1, self.dim):
            par[v] = par[v >> 1] ^ (v & 1)
        self._parity = par
        self._idx = np.arange(self.dim, dtype=np.int64)

    @staticmethod
    def _sign_mask(s: int) -> int:
        """K with eps(e_S, e_T) = (-1)^popcount(T & K): counts the
        transpositions moving S past T plus the e_i^2 = -1 contractions.

        Bit t of the transposition part is the parity of the bits of S
        above t, which is the inverse Gray code of s >> 1 (n <= 14 < 16)."""
        k = s >> 1
        k ^= k >> 1
        k ^= k >> 2
        k ^= k >> 4
        k ^= k >> 8
        return k ^ s  # the ^ s term adds popcount(S & T) from e_i^2 = -1

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int64)
        for s in np.nonzero(a)[0]:
            k = self._sign_mask(int(s))
            signs = 1 - 2 * self._parity[self._idx & k].astype(np.int64)
            out[self._idx ^ int(s)] += int(a[s]) * signs * b
        return (out % _P).astype(np.int8)


@dataclass(frozen=True)
class CoverElement:
    """A group element of the cover: algebra vector, its inverse, and the
    projected permutation (with inverse) in Sym(n)."""

    ctx: CliffordCtx
    vec: np.ndarray
    inv_vec: np.ndarray
    perm: Permutation
    inv_perm: Permutation

    def __mul__(self, other: "CoverElement") -> "CoverElement":
        ctx = self.ctx
        return CoverElement(
            ctx,
            ctx.mul_vec(self.vec, other.vec),
            ctx.mul_vec(other.inv_vec, self.inv_vec),
            self.perm * other.perm,
            other.inv_perm * self.inv_perm,
        )

    def inverse(self) -> "CoverElement":
        return CoverElement(self.ctx, self.inv_vec, self.vec,
                            self.inv_perm, self.perm)

    def conjugate(self, g: "CoverElement") -> "CoverElement":
        return g.inverse() * self * g

    def __pow__(self, e: int) -> "CoverElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = identity_element(self.ctx)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CoverElement)
                and np.array_equal(self.vec, other.vec))

    def __hash__(self) -> int:
        return hash(self.vec.tobytes())

    def is_identity(self) -> bool:
        return self.vec[0] == 1 and not self.vec[1:].any()


def identity_element(ctx: CliffordCtx) -> CoverElement:
    vec = np.zeros(ctx.dim, dtype=np.int8)
    vec[0] = 1
    ident = Permutation.identity(ctx.n)
    return CoverElement(ctx, vec, vec.copy(), ident, ident)


class Cover:
    """The cover context: generators reachable as t[1]..t[n-1], plus z."""

    def __init__(self, ctx: CliffordCtx, gens: Sequence[CoverElement],
                 z: CoverElement):
        self.ctx = ctx
        self._gens = tuple(gens)  # 0-indexed: _gens[i-1] lifts (i, i+1)
        self.z = z

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def t(self) -> Dict[int, CoverElement]:
        return {i + 1: g for i, g in enumerate(self._gens)}

    def generators(self) -> Tuple[CoverElement, ...]:
        return self._gens


def build_cover(n: int) -> Cover:
    """Construct 2.Sym(n) generators and verify the presentation relations."""
    ctx = CliffordCtx(n)
    inv_sqrt2 = pow(_SQRT2, _P - 2, _P)
    gens: List[CoverElement] = []
    for i in range(1, n):
        vec = np.zeros(ctx.dim, dtype=np.int8)
        vec[1 << (i - 1)] = inv_sqrt2
        vec[1 << i] = (-inv_sqrt2) % _P
        # t_i^2 = z and z^2 = 1, so t_i^-1 = -t_i
        inv_vec = (-vec) % _P
        perm = Permutation.from_cycles(n, [(i, i + 1)])
        gens.append(CoverElement(ctx, vec.astype(np.int8),
                                 inv_vec.astype(np.int8), perm, perm))
    zvec = np.zeros(ctx.dim, dtype=np.int8)
    zvec[0] = _P - 1
    ident = Permutation.identity(n)
    z = CoverElement(ctx, zvec, zvec.copy(), ident, ident)
    cover = Cover(ctx, gens, z)
    _verify_presentation(cover)
    return cover


def _verify_presentation(cover: Cover) -> None:
    n = cover.n
    t, z = cover.t, cover.z
    assert (z * z).is_identity()
    for i in range(1, n):
        assert t[i] * t[i] == z
        assert (t[i] * t[i].inverse()).is_identity()
    for i in range(1, n - 1):
        assert t[i] * t[i + 1] * t[i] == t[i + 1] * t[i] * t[i + 1]
    for i in range(1, n):
        for j in range(i + 2, n):
            assert (t[i] * t[j]) ** 2 == z


def word(cover: Cover, indices: Sequence[int]) -> CoverElement:
    """Product t_{i1} t_{i2} ... for a 1-indexed index sequence."""
    out = identity_element(cover.ctx)
    for i in indices:
        out = out * cover.t[i]
    return out


def cover_order(u: CoverElement) -> int:
    """Order of u, exact from its projection: with k the order of the
    projected permutation, u^k is 1 or the central involution z."""
    k = u.perm.order()
    return k if (u ** k).is_identity() else 2 * k


def standard_xy(cover: Cover) -> Tuple[CoverElement, CoverElement]:
    """The elements x = t_{n-1}...t_1 and y = t_1 t_1^(t_2...t_{n-1}) z.

    x projects to the n-cycle (1, ..., n) and y to the 3-cycle (1, 2, n).
    """
    n = cover.n
    x = word(cover, range(n - 1, 0, -1))
    g = word(cover, range(2, n))
    y = cover.t[1] * cover.t[1].conjugate(g) * cover.z
    return x, y


@dataclass(frozen=True)
class CoverSuiteRow:
    n: int
    y_order: int
    conjugation_identity: bool


def order3_xsimz_suite(n_values: Sequence[int]) -> List[CoverSuiteRow]:
    """Verify o(y) (3 for odd n, 6 for even) and the conjugation identity
    xy = x^(t_2...t_{n-1}) for each requested rank."""
    rows = []
    for n in n_values:
        cover = build_cover(n)
        x, y = standard_xy(cover)
        o = cover_order(y)
        assert o == (3 if n % 2 else 6), (n, o)
        g = word(cover, range(2, n))
        identity_holds = (x * y) == x.conjugate(g)
        assert identity_holds
        rows.append(CoverSuiteRow(n, o, identity_holds))
    return rows


@dataclass(frozen=True)
class NoddResult:
    n: int
    uses_xz: bool  # False: (x, y, xy) has type (n, 3, n); True: (xz, y, xyz)
    triple: Tuple[CoverElement, CoverElement, CoverElement]
    z_word: str
    alt_order: int


def nodd_triple(n: int) -> NoddResult:
    """The type (n, 3, n) triple in 2.Alt(n) for odd n.

    Exactly one of (x, y, xy), (xz, y, xyz) has x-slot order n; the other
    has 2n.  Generation is certified by the projected pair generating
    Alt(n) (BSGS order n!/2) plus an explicit word evaluating to z; the
    cover is a nonsplit extension, so such a word always exists.
    """
    if n % 2 == 0 or not 7 <= n <= 13:
        raise RankOutOfRange("nodd_triple needs odd n in 7..13")
    cover = build_cover(n)
    x, y = standard_xy(cover)
    z = cover.z
    assert x.perm == Permutation.from_cycles(n, [tuple(range(1, n + 1))])
    assert y.perm == Permutation.from_cycles(n, [(1, 2, n)])
    assert cover_order(y) == 3
    ox = cover_order(x)
    assert ox in (n, 2 * n)
    if ox == n:
        u, uz = x, x * z
        uses_xz = False
    else:
        u, uz = x * z, x
        uses_xz = True
    v = y
    w = u * v
    assert cover_order(u) == n and cover_order(w) == n
    alt_order = schreier_sims([u.perm, v.perm]).order()
    assert alt_order == math.factorial(n) // 2
    z_word = _exhibit_center(u, v, z)
    return NoddResult(n, uses_xz, (u, v, w), z_word, alt_order)


def _exhibit_center(u: CoverElement, v: CoverElement, z: CoverElement) -> str:
    """Find a short word in u, v whose value is z.

    Candidates are words whose projection has some order k while the lift
    has order 2k; then word^k = z.  The direct powers u^n, v^3 are tried
    first, then a deterministic breadth of short mixed words.
    """
    candidates: List[Tuple[str, CoverElement]] = [
        ("u^n", u), ("v^3", v), ("(uv)^k", u * v),
        ("(uv^-1)^k", u * v.inverse()), ("(u^2v)^k", u * u * v),
        ("(uv^2)^k", u * v * v), ("([u,v])^k", u.inverse() * v.inverse() * u * v),
        ("(u^3v)^k", u * u * u * v), ("(u^2v^2)^k", u * u * v * v),
        ("(u^2v^-1)^k", u * u * v.inverse()),
        ("(u^4v)^k", u ** 4 * v), ("(u^5v)^k", u ** 5 * v),
        ("(u^3v^2)^k", u ** 3 * v * v), ("(u^4v^2)^k", u ** 4 * v * v),
        ("(u^5v^2)^k", u ** 5 * v * v), ("(u^3v^-1)^k", u ** 3 * v.inverse()),
        ("(u^4v^-1)^k", u ** 4 * v.inverse()),
        ("(uvu^2v)^k", u * v * u * u * v), ("(uvu^3v)^k", u * v * u ** 3 * v),
        ("(uvuv^2)^k", u * v * u * v * v),
    ]
    for name, el in candidates:
        k = el.perm.order()
        if (el ** k) == z:
            return f"{name} with k={k}"
    raise ZNotExhibited("no candidate word evaluated to z")


def neven_search(n: int, seed: int = 0, budget: int = 3000) -> Tuple[CoverElement, CoverElement]:
    """Seeded search for a type (5, n-1, n-1) triple in 2.Alt(n), even n.

    Mirrors the machine check behind the even-rank statement.  One element
    of each cover order is pinned first, then only the relative position is
    randomized (conjugating the first element), which keeps the per-trial
    cost at a few algebra products.
    """
    if n % 2 or not 6 <= n <= 10:
        raise RankOutOfRange("neven_search supports even n in 6..10")
    cover = build_cover(n)
    rs = RandomSource(seed)
    # random words in the lifted transpositions; even length lands in 2.Alt(n)
    def random_even_element() -> CoverElement:
        length = 2 * (2 + rs.randrange(2 * n))
        return word(cover, [1 + rs.randrange(n - 1) for _ in range(length)])

    def pinned_element(order: int) -> CoverElement:
        for _ in range(budget):
            g = random_even_element()
            og = g.perm.order()
            if og % order:
                continue
            g = g ** (og // order)
            if cover_order(g) == order:
                return g
        raise OrderExceedsBound(f"no element of cover order {order} found")

    a0 = pinned_element(5)
    b0 = pinned_element(n - 1)
    target = math.factorial(n) // 2
    for _ in range(budget):
        a = a0.conjugate(random_even_element())
        if cover_order(a * b0) != n - 1:
            continue
        if schreier_sims([a.perm, b0.perm]).order() != target:
            continue
        try:
            _exhibit_center(a, b0, cover.z)
        except ZNotExhibited:
            continue
        return a, b0
    raise OrderExceedsBound(f"no (5,{n-1},{n-1}) triple within {budget} draws")
