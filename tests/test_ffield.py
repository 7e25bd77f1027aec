import itertools

import pytest

from beauville.ffield import (
    BadField,
    FieldCtx,
    NotInSubfield,
    _is_irreducible,
    _least_irreducible,
    embed_subfield,
    format_element,
    get_field,
    get_field_of_order,
    parse_element,
    solve_norm,
    trace_zero_sample,
)
from beauville.numtheory import factorize
from beauville.permgrp import RandomSource

FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 4),
          (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 2)]


def test_context_cache_and_order():
    assert get_field(3, 2) is get_field(3, 2)
    assert get_field_of_order(9) is get_field(3, 2)
    with pytest.raises(ValueError):
        get_field_of_order(12)


def test_modulus_is_lex_least_known_cases():
    assert get_field(2, 2).modulus == (1, 1, 1)       # x^2 + x + 1
    assert get_field(3, 2).modulus == (1, 0, 1)       # x^2 + 1
    assert get_field(2, 3).modulus == (1, 0, 1, 1)    # x^3 + x^2 + 1, least in
    # low-degree-first coefficient order among the two cubics


def reference_least_irreducible(p, a):
    """The lex-least monic irreducible of degree a, by the full test alone."""
    for tail in itertools.product(range(p), repeat=a):
        f = list(tail) + [1]
        if _is_irreducible(f, p):
            return tuple(f)


def test_modulus_search_prefilter_keeps_lex_least():
    # every prime power p^a <= 3^8 with a >= 2 (degree 1 is x, with no
    # search), and GF(5^7), whose first 15,625 candidates all have c_0 = 0
    cases = [(p, a) for p in range(2, 82) if all(p % d for d in range(2, p))
             for a in range(2, 13) if p ** a <= 3 ** 8]
    assert (3, 8) in cases and (2, 12) in cases and (79, 2) in cases
    for p, a in cases + [(5, 7)]:
        assert _least_irreducible(p, a) == reference_least_irreducible(p, a), (p, a)


def test_elements_are_in_lex_coefficient_order():
    for p, a in FIELDS:
        F = get_field(p, a)
        assert F.elements() == [F._encode(c) for c in itertools.product(range(p), repeat=a)]


def test_field_axioms_sampled():
    rs = RandomSource(11)
    for p, a in FIELDS:
        F = get_field(p, a)
        mul, add = F.mul_code, F.add_code
        for _ in range(400):
            x, y, z = (rs.randrange(F.q) for _ in range(3))
            assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert add(add(x, y), z) == add(x, add(y, z))
            assert add(x, y) == add(y, x) and mul(x, y) == mul(y, x)
            assert add(x, 0) == mul(x, 1) == x and add(x, F.neg_code(x)) == 0
            if x:
                assert mul(x, F.inv_code(x)) == 1
    with pytest.raises(ZeroDivisionError):
        get_field(3, 2).inv_code(0)


def test_frobenius_is_automorphism_fixing_prime_field():
    # x -> x^p, as pow_code computes it
    for p, a in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 4), (5, 2)]:
        F = get_field(p, a)
        frob = [F.pow_code(x, p) for x in range(F.q)]
        assert sorted(frob) == list(range(F.q))
        assert [x for x in range(F.q) if frob[x] == x] == list(range(p))
        for x in range(F.q):
            for y in range(F.q):
                assert frob[F.mul_code(x, y)] == F.mul_code(frob[x], frob[y])
                assert frob[F.add_code(x, y)] == F.add_code(frob[x], frob[y])
        g = F.exp[1]
        assert F.pow_code(frob[g], p ** (a - 1)) == g


def test_multiplicative_generator():
    # exp[1] is the least code of order q - 1, in elements() order
    assert get_field(2, 1).exp[1] == 1
    assert get_field(7).exp[1] == 3  # least primitive root of 7
    x4 = get_field(2, 2).exp[1]
    assert get_field(2, 2).pow_code(x4, 2) == get_field(2, 2).add_code(x4, 1)
    for p, a in FIELDS:
        F = get_field(p, a)
        g = F.exp[1]
        powers, x = [], 1
        for _ in range(F.q - 1):  # by the digit reference, not the tables
            powers.append(x)
            x = _ref_mul(F, x, g)
        assert x == 1 and len(set(powers)) == F.q - 1
        for code in F.elements():
            if code == g:
                break
            assert code == 0 or len({F.pow_code(code, k) for k in range(F.q - 1)}) < F.q - 1


def test_norm_surjectivity_exhaustive():
    for p, a in [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (3, 4)]:
        F = get_field(p, a)
        q = p ** (a // 2)
        sub = get_field(p, a // 2)
        image = {F.mul_code(x, F.pow_code(x, q)) for x in F.elements()}
        assert image == set(embed_subfield(sub, F).values())


def test_solve_norm():
    for p, a in [(3, 2), (2, 4), (5, 2)]:
        F = get_field(p, a)
        q = p ** (a // 2)
        norm = [F.mul_code(x, F.pow_code(x, q)) for x in range(F.q)]
        for c in embed_subfield(get_field(p, a // 2), F).values():
            x = solve_norm(F, c)
            assert norm[x] == c
            # the least solution in elements() order
            assert x == next(y for y in F.elements() if norm[y] == c and (y or not c))
    F9 = get_field(3, 2)
    assert solve_norm(F9, 0) == 0
    with pytest.raises(NotInSubfield):
        solve_norm(F9, F9.exp[1])  # the generator is not fixed by x -> x^3
    with pytest.raises(ValueError):
        solve_norm(get_field(3, 3), 1)  # not a quadratic extension


def test_trace_zero_sample():
    assert trace_zero_sample(get_field(2, 2)) == 1
    F9 = get_field(3, 2)
    e9 = trace_zero_sample(F9)
    assert e9 and F9.mul_code(e9, e9) == F9.neg_code(1)  # e^2 = -1 in GF(9)
    for p, a in [(2, 2), (3, 2), (5, 2), (2, 4)]:
        F = get_field(p, a)
        e = trace_zero_sample(F)
        assert e and F.pow_code(e, p ** (a // 2)) == F.neg_code(e)


def test_trace_zero_set():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25):
        F = get_field_of_order(q * q)
        tz = F.trace_zero()
        assert len(tz) == q
        # exactly the codes e with e^q + e = 0, in elements() order, so zero
        # first and trace_zero_sample second
        assert list(tz) == [e for e in F.elements() if F.add_code(F.pow_code(e, q), e) == 0]
        assert tz[0] == 0 and tz[1] == trace_zero_sample(F)
        assert F.trace_zero() is tz


def test_embedding_is_ring_hom():
    for (p, a), m in [((3, 1), 4), ((2, 2), 2), ((2, 2), 3), ((5, 1), 2), ((3, 2), 2)]:
        sub, sup = get_field(p, a), get_field(p, a * m)
        emb = embed_subfield(sub, sup)
        assert embed_subfield(sub, sup) is emb
        assert len(set(emb.values())) == sub.q and emb[1] == 1
        for x in range(sub.q):
            for y in range(sub.q):
                assert emb[sub.mul_code(x, y)] == sup.mul_code(emb[x], emb[y])
                assert emb[sub.add_code(x, y)] == sup.add_code(emb[x], emb[y])
    with pytest.raises(ValueError):
        embed_subfield(get_field(2, 2), get_field(2, 3))


def test_sqrt():
    # in characteristic 2 the square root is unique: c^(q/2)
    for a in range(1, 12):
        F = get_field(2, a)
        for c in range(F.q):
            r = F.pow_code(c, F.q // 2)
            assert F.mul_code(r, r) == c


def test_serialization_round_trip():
    for p, a in [(3, 2), (2, 3), (5, 1)]:
        F = get_field(p, a)
        for x in range(F.q):
            assert parse_element(F, format_element(F, x)) == x
    F = get_field(3, 2)
    assert format_element(F, F._encode([2, 1])) == "2,1"
    assert parse_element(F, " 2,1 ") == 5 and parse_element(F, "4") == 1  # reduced mod 3
    for bad in ("1,0,1", "1,x", "", "1,"):
        with pytest.raises(ValueError):
            parse_element(F, bad)


# ---------------------------------------------------------------------------
# table arithmetic against the digit loops and polynomial products it replaced

SUITE_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)
# every field of the identity suites: q <= 25 and the quadratic extensions
# up to GF(625); GF(2) and GF(256) are among them
TABLE_FIELDS = sorted({(p, a * k) for q in SUITE_QS for p, a in factorize(q).factors
                       for k in (1, 2)})


def _digits(F, code):
    return [code // F.p ** i % F.p for i in range(F.a)]


def _ref_add(F, i, j):
    return sum((x + y) % F.p * w for x, y, w in zip(_digits(F, i), _digits(F, j), F._weights))


def _ref_neg(F, i):
    return sum(-x % F.p * w for x, w in zip(_digits(F, i), F._weights))


def _ref_mul(F, i, j):
    """Schoolbook product of the coefficient vectors, reduced by the monic
    modulus from the top degree down."""
    p, a, f = F.p, F.a, F.modulus
    prod = [0] * (2 * a - 1)
    for s, x in enumerate(_digits(F, i)):
        for t, y in enumerate(_digits(F, j)):
            prod[s + t] = (prod[s + t] + x * y) % p
    for k in range(2 * a - 2, a - 1, -1):
        c = prod[k]
        for t in range(a + 1):
            prod[k - a + t] = (prod[k - a + t] - c * f[t]) % p
    return sum(c * w for c, w in zip(prod, F._weights))


def _check_pairs(F, pairs):
    for i, j in pairs:
        s, prod = _ref_add(F, i, j), _ref_mul(F, i, j)
        assert F.add_code(i, j) == s and F.mul_code(i, j) == prod, (F, i, j)


def _sampled_pairs(F, count, seed):
    rs = RandomSource(seed)
    pairs = [(rs.randrange(F.q), rs.randrange(F.q)) for _ in range(count)]
    return pairs + [(0, j) for j, _ in pairs[:20]] + [(i, 0) for i, _ in pairs[:20]]


@pytest.mark.parametrize("p, a", TABLE_FIELDS)
def test_table_arithmetic_matches_digit_reference(p, a):
    F = get_field(p, a)
    for i in range(F.q):
        assert F.neg_code(i) == _ref_neg(F, i)
    if F.q <= 81:
        pairs = itertools.product(range(F.q), repeat=2)
    else:
        pairs = _sampled_pairs(F, 3000, 100 * p + a)
    _check_pairs(F, pairs)


def test_table_layout():
    for p, a in TABLE_FIELDS:
        F = get_field(p, a)
        q, radix = F.q, 2 * p - 1
        # zero sentinel: exp reads zero wherever a zero's log is involved
        assert F.log[0] == 2 * (q - 1) and len(F.exp) == 4 * (q - 1) + 1
        assert not any(F.exp[2 * (q - 1):]) and all(F.exp[:2 * (q - 1)])
        assert sorted(F.log[1:]) == list(range(q - 1))
        # the spread code is the base-p digits read in radix 2p - 1
        assert len(F.fold) == radix ** a
        assert F.spread == [sum(t * radix ** k for k, t in enumerate(_digits(F, c)))
                            for c in range(q)]
    assert [len(get_field(p, a).fold) for p, a in [(5, 4), (23, 2), (2, 8)]] == [6561, 2025, 6561]


def test_get_field_refuses_fields_without_tables():
    # 3^12 and 5^8 fold entries are over 2^18, and 70,001 log entries over
    # 2^16, so these fields are refused before any table is built
    for args in [(2, 12), (3, 8), (70001,)]:
        with pytest.raises(BadField, match="not supported"):
            get_field(*args)
    # GF(2^11), the field of Sz(2048), and GF(5^4) sit at the limits with
    # 3^11 and 9^4 fold entries, and build every table
    for p, a in [(2, 11), (5, 4)]:
        F = get_field(p, a)
        assert len(F.exp) == 4 * (F.q - 1) + 1 and len(F.fold) == (2 * p - 1) ** a
        assert len(F.log) == len(F.neg) == len(F.spread) == F.q
        _check_pairs(F, _sampled_pairs(F, 500, p))
