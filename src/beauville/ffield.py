"""Arithmetic in GF(p^a) on a polynomial basis.

A context fixes the modulus (the lexicographically least monic irreducible
of degree a, coefficients low-degree-first).  An element is its integer
code sum(c_i * p^i), a plain int in range(q); the coefficient vector is
recovered by base-p digits.  "Least" always means lexicographic on the
coefficient vector (c_0, c_1, ...), the order of FieldCtx.elements(), which
keeps every choice made here reproducible.  The multiplicative generator
is exp[1], and x^(p^k) is pow_code(x, p^k).

Arithmetic on codes is table lookups, built once per context:

* Products: exp/log tables over the least multiplicative generator, with a
  zero sentinel.  log[0] = 2(q - 1) and exp is zero from index 2(q - 1) on,
  so exp[log[i] + log[j]] is i * j for every pair, zero included, with no
  test.  Any other exponent offset must first be reduced mod q - 1: an
  unreduced sum of logs can reach the zero region and read as zero.
* Sums: the spread code.  spread[c] writes the base-p digits of c in radix
  2p - 1 (radix 3 when p = 2), so spread[i] + spread[j] holds the digit
  sums 0..2p-2 with no carry, and fold[spread[i] + spread[j]] is i + j.
  fold has (2p - 1)^a entries: 2,025 for GF(529), 6,561 for GF(256) and
  GF(625).  A flat q x q addition table would hold 390,625 for GF(625).
* Negation: one table, neg[c] = -c.

Every context has all five tables.  get_field refuses, with BadField, a
field whose tables would pass the limits: q > 2^16 for exp and log, or
(2p - 1)^a > 2^18 for spread and fold.  Every field of size below 4,096
is supported; GF(2^12) is the least refused field.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .numtheory import factorize, is_prime

_TABLE_LIMIT = 1 << 16
_SPREAD_LIMIT = 1 << 18


class BadField(ValueError):
    """The field is not supported, or a construction is not available over it."""


class NotInSubfield(ValueError):
    """The given element does not lie in the expected subfield."""


# ---------------------------------------------------------------------------
# dense polynomial helpers over Z_p (low-degree-first coefficient lists)


def _ptrim(f: List[int]) -> List[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f: Sequence[int], g: Sequence[int], p: int) -> List[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)


def _pmod(f: Sequence[int], m: Sequence[int], p: int) -> List[int]:
    f = list(f)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(f) - 1 >= dm and f:
        c = f[-1] * inv_lead % p
        shift = len(f) - 1 - dm
        for i, a in enumerate(m):
            f[shift + i] = (f[shift + i] - c * a) % p
        _ptrim(f)
    return f


def _ppowmod(f: Sequence[int], e: int, m: Sequence[int], p: int) -> List[int]:
    result = [1]
    base = _pmod(f, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _pgcd(f: List[int], g: List[int], p: int) -> List[int]:
    while g:
        f, g = g, _pmod(f, g, p)
    return f


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    a = len(f) - 1
    x = [0, 1]
    xq = _ppowmod(x, p ** a, f, p)
    if _ptrim([(c - d) % p for c, d in itertools.zip_longest(xq, x, fillvalue=0)]):
        return False
    for r in factorize(a).primes:
        xr = _ppowmod(x, p ** (a // r), f, p)
        diff = _ptrim([(c - d) % p for c, d in itertools.zip_longest(xr, x, fillvalue=0)])
        g = _pgcd(list(f), diff, p)
        if len(g) - 1 != 0:
            return False
    return True


def _has_root(f: Sequence[int], p: int) -> bool:
    """Whether f has a root in GF(p), by Horner evaluation at each point."""
    for x in range(p):
        v = 0
        for c in reversed(f):
            v = (v * x + c) % p
        if not v:
            return True
    return False


def _least_irreducible(p: int, a: int) -> Tuple[int, ...]:
    if a == 1:
        return (0, 1)
    # Lex order on (c_0, ..., c_{a-1}); leading coefficient fixed at 1.  A
    # root in GF(p) is a linear factor, so for a >= 2 the root test only
    # rejects reducible candidates (every c_0 = 0 among them) and the first
    # survivor of the full test is still the lex-least irreducible.
    for tail in itertools.product(range(p), repeat=a):
        f = list(tail) + [1]
        if not _has_root(f, p) and _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _digit_map(images: Sequence[int], weights: Sequence[int]) -> List[int]:
    """The table n -> sum(images[t_i] * weights[i]) over n = sum(t_i * r^i),
    r = len(images): a digitwise map from radix r, indexed by n."""
    table = [0]
    for w in weights:
        table = [c + t * w for t in images for c in table]
    return table


# ---------------------------------------------------------------------------
# field context


_CTX_CACHE: Dict[Tuple[int, int], "FieldCtx"] = {}


def get_field(p: int, a: int = 1) -> "FieldCtx":
    """The canonical GF(p^a) context (cached, so equal (p, a) share identity)."""
    key = (p, a)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = FieldCtx(p, a)
    return _CTX_CACHE[key]


def get_field_of_order(q: int) -> "FieldCtx":
    fac = factorize(q).factors
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, a = fac[0]
    return get_field(p, a)


class FieldCtx:
    """GF(p^a) with canonical modulus and table-backed arithmetic on codes.

    The exp, log, neg, spread and fold tables (see the module docstring)
    are public so that the matrix kernels in matgrp can read them without a
    method call per entry.  A field whose tables would pass the limits is
    refused with BadField.
    """

    def __init__(self, p: int, a: int):
        if not is_prime(p):
            raise ValueError("p must be prime")
        if a < 1:
            raise ValueError("degree must be at least 1")
        q = p ** a
        radix = 2 * p - 1  # a digit sum of two codes is at most 2p - 2
        if q > _TABLE_LIMIT or radix ** a > _SPREAD_LIMIT:
            raise BadField(f"GF({q}) is not supported: its arithmetic tables "
                           "would be too large")
        self.p = p
        self.a = a
        self.q = q
        self.modulus = _least_irreducible(p, a)
        self._weights = weights = tuple(p ** i for i in range(a))
        self._trace_zero: Optional[Tuple[int, ...]] = None
        self._embed_cache: Dict[int, Dict[int, int]] = {}
        gen = self._find_generator()
        # exp is cyclic on [0, 2(q - 1)) and zero on [2(q - 1), 4(q - 1)],
        # the range of log[i] + log[j] once either log is the sentinel
        self.exp = exp = [0] * (4 * (q - 1) + 1)
        self.log = log = [2 * (q - 1)] * q
        acc = 1
        for k in range(q - 1):
            exp[k] = exp[k + q - 1] = acc
            log[acc] = k
            acc = self._slow_mul(acc, gen)
        self.neg = _digit_map([-t % p for t in range(p)], weights)
        self.spread = _digit_map(range(p), [radix ** i for i in range(a)])
        self.fold = _digit_map([t % p for t in range(radix)], weights)

    # -- code <-> coefficient vector

    def _encode(self, coeffs: Sequence[int]) -> int:
        return sum((c % self.p) * w for c, w in zip(coeffs, self._weights))

    def _decode(self, code: int) -> Tuple[int, ...]:
        out = []
        for _ in range(self.a):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    # -- raw code arithmetic

    def _slow_mul(self, i: int, j: int) -> int:
        ci, cj = self._decode(i), self._decode(j)
        prod = _pmul(list(ci), list(cj), self.p)
        prod = _pmod(prod, list(self.modulus), self.p)
        prod += [0] * (self.a - len(prod))
        return self._encode(prod)

    def _find_generator(self) -> int:
        # least code in lex coefficient order whose order is q - 1
        if self.q == 2:
            return 1
        target = self.q - 1
        primes = factorize(target).primes
        for code in self.elements():
            if code and all(self._slow_pow(code, target // r) != 1 for r in primes):
                return code
        raise AssertionError("no generator found")  # unreachable

    def _slow_pow(self, code: int, e: int) -> int:
        result = 1
        base = code
        while e:
            if e & 1:
                result = self._slow_mul(result, base)
            base = self._slow_mul(base, base)
            e >>= 1
        return result

    # -- public code api

    def elements(self) -> List[int]:
        """All element codes in lexicographic coefficient order: c_0 varies
        slowest, so zero comes first and the codes are not ascending."""
        return _digit_map(range(self.p), self._weights[::-1])

    def trace_zero(self) -> Tuple[int, ...]:
        """{e : e^q + e = 0} in GF(q^2), in elements() order (so zero comes
        first); built on first use."""
        if self._trace_zero is None:
            if self.a % 2 != 0:
                raise ValueError("context is not a quadratic extension")
            q = self.p ** (self.a // 2)
            self._trace_zero = tuple(e for e in self.elements()
                                     if self.add_code(self.pow_code(e, q), e) == 0)
        return self._trace_zero

    def mul_code(self, i: int, j: int) -> int:
        return self.exp[self.log[i] + self.log[j]]

    def add_code(self, i: int, j: int) -> int:
        return self.fold[self.spread[i] + self.spread[j]]

    def neg_code(self, i: int) -> int:
        return self.neg[i]

    def inv_code(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("field inverse of zero")
        return self.exp[self.q - 1 - self.log[i]]

    def pow_code(self, i: int, e: int) -> int:
        if i == 0:
            if e < 0:
                raise ZeroDivisionError("field inverse of zero")
            return 0 if e else 1
        return self.exp[(self.log[i] * e) % (self.q - 1)]

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.a > 1 else f"GF({self.p})"

    def __reduce__(self):
        return (get_field, (self.p, self.a))


def parse_element(ctx: FieldCtx, text: str) -> int:
    """The code of a comma-separated coefficient list, low degree first;
    coefficients are reduced mod p.  A token that is not an integer, or
    more than a coefficients, raises ValueError."""
    coeffs = [int(part) for part in text.strip().split(",")]
    if len(coeffs) > ctx.a:
        raise ValueError("too many coefficients")
    return ctx._encode(coeffs)


def format_element(ctx: FieldCtx, code: int) -> str:
    """The comma-separated coefficient list of a code, low degree first."""
    return ",".join(map(str, ctx._decode(code)))


# ---------------------------------------------------------------------------
# structure maps


def embed_subfield(sub: FieldCtx, sup: FieldCtx) -> Dict[int, int]:
    """Code map realizing GF(p^a) inside GF(p^(ma)), by the least root of the
    subfield modulus.  Cached on the super context."""
    if sub.p != sup.p or sup.a % sub.a != 0:
        raise ValueError("no embedding between these contexts")
    cache = sup._embed_cache
    if sub.a not in cache:
        mul, add = sup.mul_code, sup.add_code

        def horner(coeffs: Sequence[int], x: int) -> int:
            acc = 0
            for coef in reversed(coeffs):
                acc = add(mul(acc, x), coef)
            return acc

        # prime-field coefficients are their own codes in either context
        root = next(x for x in sup.elements() if horner(sub.modulus, x) == 0)
        cache[sub.a] = {code: horner(sub._decode(code), root) for code in sub.elements()}
    return cache[sub.a]


def solve_norm(ctx: FieldCtx, c: int) -> int:
    """Least x in GF(q^2) (in elements() order) with x * x^q = c, for a code
    c of ctx fixed by the q-power map; the norm map is onto that subfield,
    so a solution always exists."""
    if ctx.a % 2 != 0:
        raise ValueError("context is not a quadratic extension")
    q = ctx.p ** (ctx.a // 2)
    if ctx.pow_code(c, q) != c:
        raise NotInSubfield(f"{format_element(ctx, c)} is not fixed by the q-power map")
    if c == 0:
        return 0
    return next(x for x in ctx.elements() if x and ctx.mul_code(x, ctx.pow_code(x, q)) == c)


def trace_zero_sample(ctx: FieldCtx) -> int:
    """Least nonzero e in GF(q^2) with e^q + e = 0."""
    return ctx.trace_zero()[1]
