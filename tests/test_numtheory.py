import math

import pytest

from beauville.numtheory import (
    CeilingExceeded,
    Classification,
    Factorization,
    NotCoprime,
    _MR_BASES,
    _MR_PROVEN_BOUND,
    _miller_rabin,
    _small_primes,
    cyclotomic_value,
    divisors,
    factorize,
    gcd_qpow,
    is_large_exception,
    is_prime,
    lambda_value,
    order_mod,
    primitive_part,
    small_primes,
    zsigmondy,
    zsigmondy_exists_oracle,
)


def test_factorize_anchors():
    assert factorize(2047).factors == ((23, 1), (89, 1))
    assert factorize(1).factors == ()
    assert factorize(3 ** 10 - 1).factors == ((2, 3), (11, 2), (61, 1))


def test_prime_sieve():
    primes = small_primes()
    assert len(primes) == 78498 and primes[-1] == 999983 and small_primes() is primes
    for bound in (0, 1, 2, 3, 10, 97, 1000):
        naive = [n for n in range(2, bound + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]
        assert _small_primes(bound) == naive
        assert primes[:len(naive)] == naive


def test_factorize_matches_trial_division_oracle():
    for n in list(range(1, 400)) + [2 ** 31 - 1, 10 ** 9 + 7, 123456789]:
        fac = factorize(n)
        # direct trial-division oracle
        m, out = n, []
        d = 2
        while d * d <= m:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if e:
                out.append((d, e))
            d += 1
        if m > 1:
            out.append((m, 1))
        assert fac.factors == tuple(out)
        assert fac.value == n


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(ValueError):
        Factorization(12, ((2, 2), (3, 2)))  # wrong product
    with pytest.raises(ValueError):
        Factorization(8, ((8, 1),))  # not prime


def test_factorization_arithmetic():
    assert list(factorize(12).divisors()) == [1, 2, 3, 4, 6, 12]


def test_ceiling():
    # a product of two primes beyond trial division and above the ceiling
    p, q = 1000003, 1000033
    with pytest.raises(CeilingExceeded):
        factorize(p * q, ceiling=10 ** 6)
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_is_prime_oracle():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(2 * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n]
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)


def test_is_prime_strong_lucas_branch():
    # from _MR_PROVEN_BOUND on, the 12-base Miller-Rabin test is followed by
    # a strong Lucas test; the bound itself is a strong pseudoprime to every
    # base, so only the Lucas test rejects it
    n = _MR_PROVEN_BOUND
    assert all(_miller_rabin(n, b) for b in _MR_BASES)
    assert not is_prime(n)
    for e in (89, 107, 127):
        assert is_prime(2 ** e - 1)
    assert not is_prime((2 ** 89 - 1) * (2 ** 61 - 1))


def test_zsigmondy_known_anchors():
    r = zsigmondy(2, 6)
    assert r.zeta is None and r.lam == 9
    assert r.classification is Classification.LARGE
    r = zsigmondy(3, 5)
    assert (r.zeta, r.lam, r.classification) == (11, 121, Classification.LARGE)
    r = zsigmondy(2, 4)
    assert (r.zeta, r.lam, r.classification) == (5, 5, Classification.SMALL)
    assert zsigmondy(2, 11).zeta == 89
    assert lambda_value(5, 3) == 121


def test_zeta_divides_no_smaller_power():
    for a, n in [(2, 10), (3, 6), (5, 4), (7, 3), (10, 5)]:
        zeta = zsigmondy(a, n).zeta
        assert (a ** n - 1) % zeta == 0
        for k in range(1, n):
            assert (a ** k - 1) % zeta != 0


def test_zeta_avoids_exponents_below_double():
    # a Zsigmondy (e, a)-prime divides no a^j - 1 for 1 <= j < 2e, j != e
    for a, e in [(2, 5), (3, 4), (5, 3), (7, 6), (11, 4)]:
        zeta = zsigmondy(a, e).zeta
        for j in range(1, 2 * e):
            if j == e:
                continue
            assert (a ** j - 1) % zeta != 0


def test_zeta_congruence():
    # a Zsigmondy prime for (a, n) is 1 mod n, hence >= n + 1
    for a in range(2, 12):
        for n in range(2, 12):
            r = zsigmondy(a, n)
            if r.zeta_exists and (a, n) != (2, 6):
                assert r.zeta % n == 1
                assert r.zeta >= n + 1


def test_cyclotomic_values():
    assert cyclotomic_value(15, 2) == 151
    assert cyclotomic_value(18, 3) == 703
    assert cyclotomic_value(12, 2) * cyclotomic_value(3, 2) == 91
    for q in (2, 3, 5, 7):
        assert cyclotomic_value(1, q) == q - 1
    # product over divisors reconstructs q^k - 1
    for k in (6, 12, 15):
        for q in (2, 3, 5):
            prod = 1
            for d in divisors(k):
                prod *= cyclotomic_value(d, q)
            assert prod == q ** k - 1


def test_primitive_part_examples():
    assert primitive_part(2, 6) == 1
    assert primitive_part(2, 11) == 23 * 89
    assert primitive_part(3, 5) == 121
    assert primitive_part(7, 2) == 1  # 7 + 1 = 2^3


def test_gcd_of_q_power_minus_one():
    assert gcd_qpow(2, 4, 6) == 3
    assert gcd_qpow(3, 3, 5) == 2
    for q, a in [(2, 3), (3, 4), (5, 5), (4, 2)]:
        assert gcd_qpow(q, a, a) == q ** a - 1
        # part (ii): gcd(q^a - 1, q^a + 1) = 1 + (q mod 2)
        assert math.gcd(q ** a - 1, q ** a + 1) == 1 + q % 2
    # part (iii): gcd(q - 1, (q^n - 1)/(q - 1)) = gcd(q - 1, n)
    for q in (2, 3, 4, 5, 7, 9):
        for n in range(1, 9):
            lhs = math.gcd(q - 1, (q ** n - 1) // (q - 1))
            assert lhs == math.gcd(q - 1, n)


def test_order_mod():
    assert order_mod(2, 7) == 3
    assert order_mod(3, 5) == 4
    assert order_mod(8, 7) == 1
    with pytest.raises(NotCoprime):
        order_mod(10, 5)
    # m0 divides r - 1 and r divides Phi_(r^a m)(q) iff m = m0 (m coprime to r)
    for r in (5, 7, 11):
        for q in (2, 3, 4, 6):
            if q % r == 0:
                continue
            m0 = order_mod(q, r)
            assert (r - 1) % m0 == 0
            for m in range(1, 13):
                if math.gcd(m, r) != 1:
                    continue
                for a in (1, 2):
                    value = cyclotomic_value(r ** a * m, q)
                    assert (value % r == 0) == (m == m0)


def test_feit_exceptions():
    assert is_large_exception(2, 10)
    assert is_large_exception(5, 6)
    assert not is_large_exception(7, 3)
    assert is_large_exception(2, 2)   # a + 1 = 3 = 2^0 * 3
    assert is_large_exception(23, 2)  # 24 = 2^3 * 3
    assert not is_large_exception(13, 2)  # 14 = 2 * 7


def test_existence_oracle_small_range():
    for a in range(2, 14):
        for n in range(2, 14):
            assert zsigmondy_exists_oracle(a, n) == zsigmondy(a, n).zeta_exists
