import itertools

import pytest

from beauville.ffield import (
    BadField,
    FieldCtx,
    NotInSubfield,
    _is_irreducible,
    _least_irreducible,
    embed_subfield,
    frobenius,
    get_field,
    get_field_of_order,
    multiplicative_generator,
    parse_element,
    solve_norm,
    sqrt_element,
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


def test_field_axioms_sampled():
    rs = RandomSource(11)
    for p, a in FIELDS:
        F = get_field(p, a)
        for _ in range(400):
            x = F.from_code(rs.randrange(F.q))
            y = F.from_code(rs.randrange(F.q))
            z = F.from_code(rs.randrange(F.q))
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            assert x + y == y + x and x * y == y * x
            if x.code:
                assert x * x.inverse() == F.one
                assert (F.one / x) * x == F.one


def test_frobenius_is_automorphism_fixing_prime_field():
    for p, a in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 4), (5, 2)]:
        F = get_field(p, a)
        fixed = []
        for x in F.elements():
            assert frobenius(x, 1) == x ** p
            if frobenius(x, 1) == x:
                fixed.append(x)
            for y in F.elements():
                if x.code < 5 and y.code < 5:
                    assert frobenius(x * y, 1) == frobenius(x, 1) * frobenius(y, 1)
                    assert frobenius(x + y, 1) == frobenius(x, 1) + frobenius(y, 1)
        assert len(fixed) == p
        x = multiplicative_generator(F)
        assert frobenius(frobenius(x, 1), a - 1) == x


def test_multiplicative_generator():
    assert multiplicative_generator(get_field(2, 1)).code == 1
    assert multiplicative_generator(get_field(7)).code == 3  # least primitive root of 7
    g9 = multiplicative_generator(get_field(3, 2))
    assert g9.multiplicative_order() == 8
    x4 = multiplicative_generator(get_field(2, 2))
    assert frobenius(x4, 1) == x4 * x4 == x4 + get_field(2, 2).one


def test_norm_surjectivity_exhaustive():
    for p, a in [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (3, 4)]:
        F = get_field(p, a)
        q = p ** (a // 2)
        sub = get_field(p, a // 2)
        image = {(x * x ** q).code for x in F.elements()}
        assert image == set(embed_subfield(sub, F).values())


def test_solve_norm():
    F9 = get_field(3, 2)
    c = get_field(3, 1).element(2)
    x = solve_norm(F9, c)
    assert x * x ** 3 == F9.from_code(embed_subfield(get_field(3, 1), F9)[2])
    assert solve_norm(F9, F9.zero) == F9.zero
    one = solve_norm(F9, get_field(3, 1).element(1))
    assert one * one ** 3 == F9.one
    with pytest.raises(NotInSubfield):
        solve_norm(F9, multiplicative_generator(F9))  # generator is not norm-fixed


def test_trace_zero_sample():
    e4 = trace_zero_sample(get_field(2, 2))
    assert e4 == get_field(2, 2).one
    e9 = trace_zero_sample(get_field(3, 2))
    assert (e9 ** 3 + e9).code == 0 and e9.code
    assert e9 * e9 == -get_field(3, 2).one  # e^2 = -1 in GF(9)
    for p, a in [(2, 2), (3, 2), (5, 2), (2, 4)]:
        F = get_field(p, a)
        q = p ** (a // 2)
        e = trace_zero_sample(F)
        assert e ** q == -e


def test_trace_zero_set():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25):
        F = get_field_of_order(q * q)
        tz = F.trace_zero()
        assert len(tz) == q
        assert all(e ** q + e == F.zero for e in tz)
        # elements() order, so zero first and trace_zero_sample second
        order = {e.code: i for i, e in enumerate(F.elements())}
        assert [order[e.code] for e in tz] == sorted(order[e.code] for e in tz)
        assert tz[0] == F.zero and tz[1] == trace_zero_sample(F)
        assert F.trace_zero() is tz


def test_embedding_is_ring_hom():
    sub, sup = get_field(3, 1), get_field(3, 4)
    emb = embed_subfield(sub, sup)
    for x in sub.elements():
        for y in sub.elements():
            fx, fy = sup.from_code(emb[x.code]), sup.from_code(emb[y.code])
            assert emb[(x * y).code] == (fx * fy).code
            assert emb[(x + y).code] == (fx + fy).code


def test_sqrt():
    assert sqrt_element(get_field(7).element(2)).code == 3
    F = get_field(3, 2)
    for x in F.elements():
        y = sqrt_element(x * x)
        assert y * y == x * x


def test_serialization_round_trip():
    F = get_field(3, 2)
    for x in F.elements():
        assert parse_element(F, x.serialize()) == x
    assert F.element([2, 1]).serialize() == "2,1"


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
        x, y = F.from_code(i), F.from_code(j)
        assert (x + y).code == s and (x * y).code == prod
        assert (x - y).code == _ref_add(F, i, _ref_neg(F, j))


def _sampled_pairs(F, count, seed):
    rs = RandomSource(seed)
    pairs = [(rs.randrange(F.q), rs.randrange(F.q)) for _ in range(count)]
    return pairs + [(0, j) for j, _ in pairs[:20]] + [(i, 0) for i, _ in pairs[:20]]


@pytest.mark.parametrize("p, a", TABLE_FIELDS)
def test_table_arithmetic_matches_digit_reference(p, a):
    F = get_field(p, a)
    for i in range(F.q):
        assert F.neg_code(i) == _ref_neg(F, i) == (-F.from_code(i)).code
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
