import pytest

from beauville.ffield import (
    FieldCtx,
    NotInSubfield,
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
