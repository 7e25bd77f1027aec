"""Integer factorization, cyclotomic values and Zsigmondy prime machinery.

Everything here is exact integer arithmetic.  The two workhorses are
``factorize`` (deterministic trial division + Brent rho) and ``zsigmondy``,
which classifies the pair (a, n) according to whether a^n - 1 has a
primitive prime divisor, and if so whether a large one exists.

The key trick used throughout: every primitive prime divisor of a^n - 1
divides the cyclotomic value Phi_n(a), and the only non-primitive prime
that can divide Phi_n(a) is the largest prime factor of n.  Stripping that
prime leaves the "primitive part", whose prime divisors are exactly the
Zsigmondy primes for (a, n).  Existence and the small/large classification
can therefore be decided without factorizing anything big.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

DEFAULT_CEILING = 2 ** 96
_TRIAL_BOUND = 10 ** 6

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the bases above is a proven deterministic test below
# 3.317e24; beyond that we add a strong Lucas test (Baillie-PSW), which has
# no known counterexample and none below 2^64.
_MR_PROVEN_BOUND = 3317044064679887385961981


class CeilingExceeded(ValueError):
    """A composite cofactor above the configured ceiling resisted factoring."""


class NotCoprime(ValueError):
    """Arguments to order_mod must be coprime."""


# ---------------------------------------------------------------------------
# primality


def _small_primes(bound: int = _TRIAL_BOUND) -> List[int]:
    """The primes up to bound, by an odd-only sieve: sieve[i] stands for
    2i + 1, so the final walk covers half the range."""
    if bound < 2:
        return []
    half = (bound + 1) // 2
    sieve = bytearray([1]) * half
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, half, p)))
    # sieve[0] stays set, so the walk yields 1 first and 1 becomes the
    # prime 2 in place: no second list as [2] + primes would build
    primes = list(itertools.compress(range(1, bound + 1, 2), sieve))
    primes[0] = 2
    return primes


_PRIMES: Optional[List[int]] = None


def small_primes() -> List[int]:
    global _PRIMES
    if _PRIMES is None:
        _PRIMES = _small_primes()
    return _PRIMES


def _miller_rabin(n: int, base: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base % n, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    # Selfridge parameter search; n is odd, not a perfect square, > 2.
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    m = k >> s
    # Lucas sequence by binary ladder.
    u, v, qk = 1, p, q
    for bit in bin(m)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) * ((n + 1) // 2) % n, (d * u + p * v) * ((n + 1) // 2) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality check (Miller-Rabin + strong Lucas above 2^81)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if any(not _miller_rabin(n, b) for b in _MR_BASES):
        return False
    if n < _MR_PROVEN_BOUND:
        return True
    r = math.isqrt(n)
    if r * r == n:
        return False
    return _strong_lucas(n)


# ---------------------------------------------------------------------------
# factorization


@dataclass(frozen=True)
class Factorization:
    """A positive integer together with its sorted prime factorization."""

    value: int
    factors: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if e <= 0 or not is_prime(p):
                raise ValueError(f"bad factor ({p}, {e})")
            prod *= p ** e
            prev = p
        if prod != self.value:
            raise ValueError("factor product does not match value")

    @property
    def primes(self) -> Tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def multiplicity(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def divisors(self) -> Iterator[int]:
        divs = [1]
        for p, e in self.factors:
            divs = [d * p ** k for d in divs for k in range(e + 1)]
        return iter(sorted(divs))


def _brent_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n (deterministic c sweep)."""
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise CeilingExceeded(f"rho failed to split {n}")


def factorize(n: int, ceiling: int = DEFAULT_CEILING) -> Factorization:
    """Factor n completely, or raise CeilingExceeded.

    Trial division up to 10^6, then Brent rho on what remains.  A composite
    cofactor larger than ``ceiling`` is not attacked with rho, so the call
    fails rather than run unbounded.
    """
    if n < 1:
        raise ValueError("n must be positive")
    value = n
    exps: Dict[int, int] = {}
    for p in small_primes():
        if p * p > n:
            break
        while n % p == 0:
            exps[p] = exps.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            exps[m] = exps.get(m, 0) + 1
            continue
        if m > ceiling:
            raise CeilingExceeded(
                f"composite cofactor {m} exceeds factorization ceiling {ceiling}"
            )
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(value, tuple(sorted(exps.items())))


def divisors(n: int) -> List[int]:
    return list(factorize(n).divisors())


# ---------------------------------------------------------------------------
# cyclotomic values


_CYCLO_CACHE: Dict[Tuple[int, int], int] = {}


def cyclotomic_value(k: int, q: int) -> int:
    """Phi_k(q) as an exact integer, via q^k - 1 = prod over d|k of Phi_d(q)."""
    if k < 1:
        raise ValueError("k must be positive")
    if q < 2:
        raise ValueError("q must be at least 2")
    key = (k, q)
    if key in _CYCLO_CACHE:
        return _CYCLO_CACHE[key]
    val = q ** k - 1
    for d in divisors(k):
        if d < k:
            val //= cyclotomic_value(d, q)
    _CYCLO_CACHE[key] = val
    return val


# ---------------------------------------------------------------------------
# Zsigmondy primes


class Classification(enum.Enum):
    NONE = "none"
    SMALL = "small"
    LARGE = "large"


def primitive_part(a: int, n: int) -> int:
    """The product of all Zsigmondy-prime powers inside a^n - 1.

    This is Phi_n(a) with the unique possible intrinsic prime (the largest
    prime factor of n) stripped out.  It equals 1 exactly when no Zsigmondy
    prime exists for (a, n).
    """
    if a < 2 or n < 2:
        raise ValueError("need a > 1 and n > 1")
    part = cyclotomic_value(n, a)
    r0 = max(factorize(n).primes)
    while part % r0 == 0:
        part //= r0
    return part


class ZsigmondyResult:
    """Zsigmondy data for (a, n): existence, zeta, lambda, classification.

    ``zeta`` is the largest Zsigmondy prime (None when there is none) and
    ``lam`` the largest power of it dividing a^n - 1.  Both are computed
    lazily because they need the primitive part factorized; existence and
    the small/large classification are decided without any factorization.
    The pair (2, 6) follows the convention lam = 9, classified large.
    """

    __slots__ = ("base", "exponent", "primitive_part", "classification",
                 "_zeta", "_lam")

    def __init__(self, base: int, exponent: int):
        if base < 2 or exponent < 2:
            raise ValueError("need base > 1 and exponent > 1")
        self.base = base
        self.exponent = exponent
        self._zeta: Optional[int] = None
        self._lam: Optional[int] = None
        part = primitive_part(base, exponent)
        self.primitive_part = part
        if (base, exponent) == (2, 6):
            self.classification = Classification.LARGE
            self._lam = 9
        elif part == 1:
            self.classification = Classification.NONE
        elif part == exponent + 1:
            # Every Zsigmondy prime is = 1 mod n, hence >= n+1, so a
            # primitive part of exactly n+1 forces a single small prime.
            assert is_prime(exponent + 1)
            self.classification = Classification.SMALL
            self._zeta = exponent + 1
            self._lam = exponent + 1
        else:
            self.classification = Classification.LARGE

    @property
    def zeta_exists(self) -> bool:
        return self.primitive_part > 1

    @property
    def zeta(self) -> Optional[int]:
        """Largest Zsigmondy prime for (base, exponent), or None."""
        if not self.zeta_exists:
            return None
        if self._zeta is None:
            fac = factorize(self.primitive_part)
            self._zeta = max(fac.primes)
            self._lam = self._zeta ** fac.multiplicity(self._zeta)
        return self._zeta

    @property
    def lam(self) -> Optional[int]:
        """Largest power of zeta dividing base^exponent - 1 (9 for (2, 6))."""
        if self._lam is None and self.zeta_exists:
            self.zeta  # noqa: B018 - forces the factorization
        return self._lam

    def __repr__(self) -> str:
        return (f"ZsigmondyResult(base={self.base}, exponent={self.exponent}, "
                f"classification={self.classification.value})")


def zsigmondy(a: int, n: int) -> ZsigmondyResult:
    """Zsigmondy classification of (a, n); see ZsigmondyResult."""
    return ZsigmondyResult(a, n)


def lambda_value(n: int, p: int) -> int:
    """The prime-power lambda_{n,p} used throughout the triple searches."""
    lam = zsigmondy(p, n).lam
    if lam is None:
        raise ValueError(f"no Zsigmondy prime for ({p}, {n})")
    return lam


def is_large_exception(a: int, n: int) -> bool:
    """True exactly on the four families with no large Zsigmondy prime."""
    if a < 2 or n < 2:
        raise ValueError("need a > 1 and n > 1")
    if n == 2:
        odd = a + 1
        while odd % 2 == 0:
            odd //= 2
        return odd in (1, 3)
    if a == 2:
        return n in (4, 6, 10, 12, 18)
    if a == 3:
        return n in (4, 6)
    return (a, n) == (5, 6)


def zsigmondy_exists_oracle(a: int, n: int) -> bool:
    """Brute-force existence oracle, independent of the cyclotomic route.

    Strips from a^n - 1 every factor shared with some a^d - 1 for a proper
    divisor d of n (any prime dividing a^k - 1 with k < n divides one of
    those); whatever survives is a product of Zsigmondy primes.
    """
    m = a ** n - 1
    for d in divisors(n):
        if d == n:
            continue
        t = a ** d - 1
        g = math.gcd(m, t)
        while g > 1:
            m //= g
            g = math.gcd(m, t)
    return m > 1


# ---------------------------------------------------------------------------
# the divisibility lemmas


def gcd_qpow(q: int, a: int, b: int) -> int:
    """gcd(q^a - 1, q^b - 1) = q^gcd(a,b) - 1, asserted against direct gcd."""
    if q < 2 or a < 1 or b < 1:
        raise ValueError("need q > 1 and positive exponents")
    result = q ** math.gcd(a, b) - 1
    assert result == math.gcd(q ** a - 1, q ** b - 1)
    return result


def order_mod(q: int, r: int) -> int:
    """Multiplicative order of q modulo the prime r."""
    if math.gcd(q, r) != 1:
        raise NotCoprime(f"gcd({q}, {r}) != 1")
    if not is_prime(r):
        raise ValueError("r must be prime")
    e = r - 1
    for p in factorize(e).primes:
        while e % p == 0 and pow(q, e // p, r) == 1:
            e //= p
    return e
