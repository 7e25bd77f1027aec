"""Double covers of Sym(n)/Alt(n) acting on a spin module over GF(7).

The Clifford algebra on generators e_1..e_n with e_i^2 = -1 and
e_i e_j = -e_j e_i, with coefficients in GF(7) (the least odd prime
containing a square root of 2, namely 3), contains the cover: the lifted
transpositions t_i = (e_i - e_{i+1}) / sqrt(2) satisfy t_i^2 = z,
(t_i t_j)^2 = z for |i - j| > 1 and the braid relations, with the central z
acting as the scalar -1, so all the double-cover identities become exact
computations in the algebra.

Over a finite field the algebra splits (Schur 1911; Lam, *Introduction to
Quadratic Forms over Fields*, ch. V): with m = ceil(n/2), the rank-2m
algebra is the full matrix algebra on a spin module of dimension d = 2^m,
and the rank-n algebra sits inside it.  CliffordCtx builds d x d matrices
gamma_1..gamma_n over GF(7) satisfying the Clifford relations, so an element
of the cover is one d x d matrix and a product is one matrix product, where
a product of 2^n-coefficient vectors costs O(4^n).  The module is faithful
on the whole algebra, because the rank-2m algebra is simple of dimension d^2;
in group terms, for n >= 5 every nontrivial normal subgroup of 2.Sym(n)
contains z, and z acts as -I != I.  The 2^n coordinates on the basis
monomials e_S (S a subset bitmask) stay available as the lazy view
CoverElement.vec.  Elements carry their projection to Sym(n) so that
generation can be certified downstairs: two even projections generate a
subgroup of Alt(n), so a Schreier-Sims build with known_order n!/2 proves
whether they generate it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .matgrp import binary_power
from .permgrp import Permutation, RandomSource, alt_bsgs
from .structures import REPIN_INTERVAL

_P = 7
_SQRT2 = 3  # 3*3 = 9 = 2 in GF(7)
# anticommuting 2 x 2 matrices over GF(7), both squaring to -1
_A = np.array([[0, 1], [-1, 0]])
_B = np.array([[3, 2], [2, -3]])


class RankOutOfRange(ValueError):
    """build_cover supports 3 <= n <= 14."""


class OrderExceedsBound(ValueError):
    """neven_search found no suitable element within its draw budget."""


class ZNotExhibited(AssertionError):
    """No candidate word evaluated to the central involution (a bug, not a
    mathematical possibility)."""


def _reduce(a: np.ndarray) -> np.ndarray:
    """Integer entries (below 2^31 in size, possibly held as floats) mod 7."""
    return (a.astype(np.int32) % _P).astype(np.int8)


def _mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product mod 7 of int8 matrices (or stacks) with entries in 0..6.

    Every sum formed in this module has at most 2^14 terms, each at most 36,
    so float32 holds it exactly; the integer remainder is several times
    cheaper than np.fmod on floats."""
    return _reduce(np.matmul(a, b, dtype=np.float32))


def _pack(mat: np.ndarray) -> bytes:
    """An int8 d x d matrix with entries in 0..6, two entries per byte."""
    return (mat[:, ::2] * 16 + mat[:, 1::2]).astype(np.uint8).tobytes()


_NIBBLES = np.array([[b >> 4, b & 15] for b in range(256)], dtype=np.int8)


def _unpack(data: bytes, d: int) -> np.ndarray:
    return _NIBBLES.take(np.frombuffer(data, dtype=np.uint8), axis=0).reshape(d, d)


def _kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    return functools.reduce(np.kron, factors)


class CliffordCtx:
    """The rank-n Clifford algebra over GF(7) on its spin module.

    gammas[i] is the d x d matrix of e_{i+1}, d = 2^ceil(n/2), with entries
    in 0..6; dim = 2^n is the number of algebra coordinates.
    """

    def __init__(self, n: int):
        if not 3 <= n <= 14:
            raise RankOutOfRange("supported rank range is 3..14")
        self.n = n
        self.dim = 1 << n
        m = (n + 1) // 2
        self.d = 1 << m
        # the k-th pair K^(k-1) (x) {A, B} (x) I^(m-k), K = AB, squares to
        # (-1)^k; for even k, 2g + 3h and 3g - 2h square to -1 and
        # anticommute, because 2^2 + 3^2 = -1 in GF(7)
        gammas = []
        for k in range(1, m + 1):
            g, h = (_kron([_A @ _B] * (k - 1) + [f] + [np.eye(2, dtype=int)] * (m - k))
                    for f in (_A, _B))
            gammas += [2 * g + 3 * h, 3 * g - 2 * h] if k % 2 == 0 else [g, h]
        self.gammas = _reduce(np.array(gammas[:n]))
        self.identity = np.eye(self.d, dtype=np.int8)
        self.identity_data = _pack(self.identity)
        # Clifford conjugation X -> C^-1 X^T C with C = A (x) B (x) A (x) ...;
        # every factor squares to -1, so C^-1 = (-1)^m C
        conj = _kron([_B if k % 2 else _A for k in range(m)])
        self._conj = _reduce(conj)
        self._conj_inv = _reduce((-1) ** m * conj)
        minus_one = _reduce(-self.identity)
        for i, g in enumerate(self.gammas):
            later = self.gammas[i + 1:]
            assert np.array_equal(_mat_mul(g, g), minus_one), i
            assert np.array_equal(_mat_mul(g, later), _reduce(-_mat_mul(later, g))), i
            assert np.array_equal(self.conjugation(g), _reduce(-g)), i

    def conjugation(self, mat: np.ndarray) -> np.ndarray:
        """The anti-automorphism of the algebra with e_i -> -e_i."""
        return _mat_mul(_mat_mul(self._conj_inv, mat.T), self._conj)

    @functools.cached_property
    def _monomials(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The matrices of the monomials e_lo in the first h = n // 2
        generators (as columns and as one row of blocks) and e_hi in the
        others (stacked), indexed by subset bitmask; and the factor +-1/d of
        each coordinate, as e_S^-1 = +-e_S."""
        def stack(gens: np.ndarray) -> np.ndarray:
            out = self.identity[None]
            for g in gens:  # e_(S + {i}) = e_S e_i for i above S
                out = np.concatenate([out, _mat_mul(out, g)])
            return out

        h, d = self.n // 2, self.d
        lo, hi = stack(self.gammas[:h]), stack(self.gammas[h:])
        lo_cols = lo.transpose(0, 2, 1).reshape(len(lo), d * d).T.copy()
        lo_rows = lo.transpose(1, 0, 2).reshape(d, len(lo) * d)
        size = np.array([bin(s).count("1") for s in range(self.dim)])
        scale = np.where(size * (size + 1) // 2 % 2, -1, 1) * pow(d, -1, _P)
        return lo_cols, lo_rows, hi, scale

    def to_vec(self, mat: np.ndarray) -> np.ndarray:
        """The coordinates c_S = tr(e_S^-1 X) / d of a matrix X in the image
        of the algebra, S = lo + 2^h hi: the trace of e_U vanishes for U
        nonempty."""
        lo_cols, _, hi, scale = self._monomials
        right = _mat_mul(hi.reshape(-1, self.d), mat)  # the e_hi X, stacked
        # tr(e_lo e_hi X) = sum_ij e_lo[i, j] (e_hi X)[j, i]
        traces = _mat_mul(right.reshape(len(hi), -1), lo_cols)
        return _reduce(traces.ravel() * scale)

    def to_matrix(self, vec: np.ndarray) -> np.ndarray:
        """The matrix of sum_S c_S e_lo e_hi."""
        _, lo_rows, hi, _ = self._monomials
        coeffs = _reduce(np.asarray(vec)).reshape(len(hi), -1)
        partial = _mat_mul(coeffs.T, hi.reshape(len(hi), -1))  # sum over hi
        return _mat_mul(lo_rows, partial.reshape(-1, self.d))

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The algebra product of two coordinate vectors, exact because the
        module is faithful on the whole algebra."""
        return self.to_vec(_mat_mul(self.to_matrix(a), self.to_matrix(b)))


_context = functools.lru_cache(maxsize=None)(CliffordCtx)


@dataclass(frozen=True, slots=True)
class CoverElement:
    """A group element of the cover: its matrix on the spin module, packed
    two entries per byte, and the projected permutation in Sym(n).

    Packing halves the memory of the elements that callers keep, such as
    triples and search results; products unpack their operands."""

    ctx: CliffordCtx
    data: bytes
    perm: Permutation

    @property
    def mat(self) -> np.ndarray:
        """The d x d matrix, int8 with entries in 0..6."""
        return _unpack(self.data, self.ctx.d)

    def __mul__(self, other: "CoverElement") -> "CoverElement":
        return CoverElement(self.ctx, _pack(_mat_mul(self.mat, other.mat)),
                            self.perm * other.perm)

    def inverse(self) -> "CoverElement":
        # Clifford conjugation sends t_i to -t_i = t_i^-1 and fixes z = -1,
        # so it inverts every product of them
        return CoverElement(self.ctx, _pack(self.ctx.conjugation(self.mat)),
                            self.perm.inverse())

    def conjugate(self, g: "CoverElement") -> "CoverElement":
        return g.inverse() * self * g

    def __pow__(self, e: int) -> "CoverElement":
        return binary_power(self, e, identity_element(self.ctx))

    @property
    def vec(self) -> np.ndarray:
        """The 2^n coordinates on the basis monomials e_S, computed on
        demand."""
        return self.ctx.to_vec(self.mat)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CoverElement) and self.ctx.n == other.ctx.n
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash(self.data)

    def is_identity(self) -> bool:
        return self.data == self.ctx.identity_data


def identity_element(ctx: CliffordCtx) -> CoverElement:
    return CoverElement(ctx, ctx.identity_data, Permutation.identity(ctx.n))


class Cover:
    """The cover context: generators reachable as t[1]..t[n-1], plus z."""

    def __init__(self, ctx: CliffordCtx, gens: Sequence[CoverElement],
                 z: CoverElement):
        self.ctx = ctx
        self._gens = tuple(gens)  # 0-indexed: _gens[i-1] lifts (i, i+1)
        self.t: Dict[int, CoverElement] = {i + 1: g for i, g in enumerate(self._gens)}
        self.z = z

    @property
    def n(self) -> int:
        return self.ctx.n

    def generators(self) -> Tuple[CoverElement, ...]:
        return self._gens


def build_cover(n: int) -> Cover:
    """Construct 2.Sym(n) generators and verify the presentation relations."""
    ctx = _context(n)
    inv_sqrt2 = pow(_SQRT2, -1, _P)
    gam = ctx.gammas.astype(int)
    gens = [CoverElement(ctx, _pack(_reduce(inv_sqrt2 * (gam[i - 1] - gam[i]))),
                         Permutation.from_cycles(n, [(i, i + 1)]))
            for i in range(1, n)]
    z = CoverElement(ctx, _pack(_reduce(-ctx.identity)), Permutation.identity(n))
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    Alt(n) (see permgrp.alt_bsgs) plus an explicit word evaluating to z; the
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
    alt_order = alt_bsgs([u.perm, v.perm]).order()
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


NEVEN_BUDGET = 3000  # draws per pinned element, and draws of the triple search


def neven_search(n: int, seed: int = 0) -> Tuple[CoverElement, CoverElement]:
    """Seeded search for a type (5, n-1, n-1) triple in 2.Alt(n), even n.

    Mirrors the machine check behind the even-rank statement.  One element
    of each cover order is pinned first, then only the relative position is
    randomized (conjugating the first element), which keeps the per-trial
    cost at a few algebra products.  The pinned pair is redrawn every
    REPIN_INTERVAL draws, as in search_by_type, so an unlucky pair cannot
    wedge the search.  Both projections are even, so permgrp.alt_bsgs proves
    whether they generate Alt(n).
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
        for _ in range(NEVEN_BUDGET):
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
    for draw in range(1, NEVEN_BUDGET + 1):
        if draw % REPIN_INTERVAL == 0:
            a0, b0 = pinned_element(5), pinned_element(n - 1)
        a = a0.conjugate(random_even_element())
        ab = a * b0
        # the cover order is o(projection) or twice it, and n - 1 is odd
        if not ab.perm.has_order(n - 1) or cover_order(ab) != n - 1:
            continue
        if alt_bsgs([a.perm, b0.perm]).order() != target:
            continue
        try:
            _exhibit_center(a, b0, cover.z)
        except ZNotExhibited:
            continue
        return a, b0
    raise OrderExceedsBound(f"no (5,{n-1},{n-1}) triple within {NEVEN_BUDGET} draws")
