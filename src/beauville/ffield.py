"""Arithmetic in GF(p^a) on a polynomial basis.

A context fixes the modulus (the lexicographically least monic irreducible
of degree a, coefficients low-degree-first) and, for fields of size up to
2^16, builds exp/log tables over the least multiplicative generator so that
products and inverses are table lookups.  Elements are immutable wrappers
around an integer code sum(c_i * p^i); the coefficient vector is recovered
by base-p digits.  "Least" always means lexicographic on the coefficient
vector (c_0, c_1, ...), which keeps every choice made here reproducible.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .numtheory import factorize, is_prime

_TABLE_LIMIT = 1 << 16


class NotInSubfield(ValueError):
    """The given element does not lie in the expected subfield."""


class NoSquareRoot(ValueError):
    """The element has no square root in this field."""


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


def _least_irreducible(p: int, a: int) -> Tuple[int, ...]:
    if a == 1:
        return (0, 1)
    # Lex order on (c_0, ..., c_{a-1}); leading coefficient fixed at 1.
    for tail in itertools.product(range(p), repeat=a):
        f = list(tail) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


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
    """GF(p^a) with canonical modulus and table-backed arithmetic on codes."""

    def __init__(self, p: int, a: int):
        if not is_prime(p):
            raise ValueError("p must be prime")
        if a < 1 or a > 16:
            raise ValueError("degree out of supported range 1..16")
        self.p = p
        self.a = a
        self.q = p ** a
        self.modulus = _least_irreducible(p, a)
        self._weights = tuple(p ** i for i in range(a))
        self._order_fac = factorize(self.q - 1) if self.q > 2 else factorize(1)
        self._exp: Optional[List[int]] = None
        self._log: Optional[List[int]] = None
        self._gen_code: Optional[int] = None
        self._trace_zero: Optional[Tuple["FieldElement", ...]] = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

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

    def _build_tables(self) -> None:
        q = self.q
        gen = self._find_generator()
        self._gen_code = gen
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        acc = 1
        for k in range(q - 1):
            exp[k] = acc
            log[acc] = k
            acc = self._slow_mul(acc, gen)
        for k in range(q - 1, 2 * (q - 1)):
            exp[k] = exp[k - (q - 1)]
        self._exp = exp
        self._log = log

    def _find_generator(self) -> int:
        # least code in lex coefficient order whose order is q - 1
        if self.q == 2:
            return 1
        target = self.q - 1
        primes = self._order_fac.primes
        for coeffs in itertools.product(range(self.p), repeat=self.a):
            code = self._encode(coeffs)
            if code == 0:
                continue
            if all(self._slow_pow(code, target // r) != 1 for r in primes):
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

    # -- public element api

    def element(self, value: Union[int, Sequence[int], "FieldElement"]) -> "FieldElement":
        """Coerce an integer (reduced mod p into the prime field), coefficient
        sequence, or element of this context."""
        if isinstance(value, FieldElement):
            if value.ctx is not self:
                raise ValueError("element belongs to a different context")
            return value
        if isinstance(value, int):
            return FieldElement(self, value % self.p)
        coeffs = list(value)
        if len(coeffs) > self.a:
            raise ValueError("too many coefficients")
        return FieldElement(self, self._encode(coeffs + [0] * (self.a - len(coeffs))))

    def from_code(self, code: int) -> "FieldElement":
        if not 0 <= code < self.q:
            raise ValueError("code out of range")
        return FieldElement(self, code)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> Iterable["FieldElement"]:
        """All field elements in lexicographic coefficient order."""
        for coeffs in itertools.product(range(self.p), repeat=self.a):
            yield FieldElement(self, self._encode(coeffs))

    def trace_zero(self) -> Tuple["FieldElement", ...]:
        """{e : e^q + e = 0} in GF(q^2), in elements() order (so zero comes
        first); built on first use."""
        if self._trace_zero is None:
            if self.a % 2 != 0:
                raise ValueError("context is not a quadratic extension")
            q = self.p ** (self.a // 2)
            self._trace_zero = tuple(e for e in self.elements()
                                     if (e ** q + e).code == 0)
        return self._trace_zero

    def mul_code(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[i] + self._log[j]]
        return self._slow_mul(i, j)

    def add_code(self, i: int, j: int) -> int:
        p = self.p
        if p == 2:
            return i ^ j
        out = 0
        for w in self._weights:
            out += ((i + j) % p) * w
            i //= p
            j //= p
        return out

    def neg_code(self, i: int) -> int:
        p = self.p
        if p == 2:
            return i
        out = 0
        for w in self._weights:
            out += (-i % p) * w
            i //= p
        return out

    def inv_code(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("field inverse of zero")
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[i]) % (self.q - 1)]
        return self._slow_pow(i, self.q - 2)

    def pow_code(self, i: int, e: int) -> int:
        if i == 0:
            if e < 0:
                raise ZeroDivisionError("field inverse of zero")
            return 0 if e else 1
        if self._exp is not None:
            return self._exp[(self._log[i] * e) % (self.q - 1)]
        if e < 0:
            return self._slow_pow(self.inv_code(i), -e)
        return self._slow_pow(i, e)

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.a > 1 else f"GF({self.p})"

    def __reduce__(self):
        return (get_field, (self.p, self.a))


class FieldElement:
    """Immutable element of a FieldCtx, stored as an integer code."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: FieldCtx, code: int):
        self.ctx = ctx
        self.code = code

    @property
    def coeffs(self) -> Tuple[int, ...]:
        return self.ctx._decode(self.code)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.ctx is other.ctx and self.code == other.code
        if isinstance(other, int):
            return self == self.ctx.element(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.code))

    def __bool__(self) -> bool:
        return self.code != 0

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise ValueError("mixed field contexts")
            return other
        return self.ctx.element(other)

    def __add__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.add_code(self.code, other.code))

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.neg_code(self.code))

    def __sub__(self, other) -> "FieldElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "FieldElement":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.mul_code(self.code, other.code))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return self * FieldElement(self.ctx, self.ctx.inv_code(other.code))

    def __rtruediv__(self, other) -> "FieldElement":
        return self._coerce(other) / self

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.pow_code(self.code, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.inv_code(self.code))

    def multiplicative_order(self) -> int:
        if self.code == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        e = self.ctx.q - 1
        for r in self.ctx._order_fac.primes:
            while e % r == 0 and self.ctx.pow_code(self.code, e // r) == 1:
                e //= r
        return e

    def serialize(self) -> str:
        """Comma-separated coefficient list, low degree first."""
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"{self.ctx!r}[{self.serialize()}]"


def parse_element(ctx: FieldCtx, text: str) -> FieldElement:
    return ctx.element([int(part) for part in text.strip().split(",")])


# ---------------------------------------------------------------------------
# structure maps


def frobenius(x: FieldElement, k: int = 1) -> FieldElement:
    """x^(p^k)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return x ** (x.ctx.p ** (k % x.ctx.a))


def multiplicative_generator(ctx: FieldCtx) -> FieldElement:
    """Least generator of the multiplicative group (order certified)."""
    if ctx._gen_code is None:
        ctx._gen_code = ctx._find_generator()
    g = FieldElement(ctx, ctx._gen_code)
    assert g.multiplicative_order() == ctx.q - 1
    return g


def subfield_conjugate(x: FieldElement) -> FieldElement:
    """x^q for x in GF(q^2), the involutory automorphism over GF(q)."""
    ctx = x.ctx
    if ctx.a % 2 != 0:
        raise ValueError("context is not a quadratic extension")
    return frobenius(x, ctx.a // 2)


def embed_subfield(sub: FieldCtx, sup: FieldCtx) -> Dict[int, int]:
    """Code map realizing GF(p^a) inside GF(p^(ma)), by the least root of the
    subfield modulus.  Cached on the super context."""
    if sub.p != sup.p or sup.a % sub.a != 0:
        raise ValueError("no embedding between these contexts")
    cache = getattr(sup, "_embed_cache", None)
    if cache is None:
        cache = {}
        sup._embed_cache = cache  # type: ignore[attr-defined]
    if sub.a in cache:
        return cache[sub.a]
    if sub.a == 1:
        mapping = {c: c for c in range(sub.p)}
        cache[sub.a] = mapping
        return mapping
    root = None
    modulus = [sup.element(c) for c in sub.modulus]
    for cand in sup.elements():
        acc = sup.zero
        for coef in reversed(modulus):
            acc = acc * cand + coef
        if acc.code == 0:
            root = cand
            break
    assert root is not None, "subfield modulus must split in the extension"
    mapping = {}
    for coeffs in itertools.product(range(sub.p), repeat=sub.a):
        code = sub._encode(coeffs)
        acc = sup.zero
        for coef in reversed(coeffs):
            acc = acc * root + sup.element(coef)
        mapping[code] = acc.code
    cache[sub.a] = mapping
    return mapping


def solve_norm(ctx: FieldCtx, c: FieldElement) -> FieldElement:
    """Least x in GF(q^2) with x * x^q = c, for c in the subfield GF(q).

    c may be given in the subfield context or as a conjugation-fixed element
    of ctx itself; the norm map is onto, so a solution always exists.
    """
    if ctx.a % 2 != 0:
        raise ValueError("context is not a quadratic extension")
    q = ctx.p ** (ctx.a // 2)
    if c.ctx is ctx:
        if subfield_conjugate(c) != c:
            raise NotInSubfield(f"{c!r} is not fixed by the q-power map")
        target = c
    else:
        if c.ctx.p != ctx.p or c.ctx.a * 2 != ctx.a:
            raise NotInSubfield("c must come from the index-2 subfield")
        target = ctx.from_code(embed_subfield(c.ctx, ctx)[c.code])
    if target.code == 0:
        return ctx.zero
    for x in ctx.elements():
        if x.code and x * (x ** q) == target:
            return x
    raise AssertionError("norm map must be onto")  # unreachable


def trace_zero_sample(ctx: FieldCtx) -> FieldElement:
    """Least nonzero e in GF(q^2) with e^q + e = 0."""
    return ctx.trace_zero()[1]


def sqrt_element(x: FieldElement) -> FieldElement:
    """Least square root of x, or NoSquareRoot (exhaustive search)."""
    for y in x.ctx.elements():
        if y * y == x:
            return y
    raise NoSquareRoot(f"{x!r} is not a square")
