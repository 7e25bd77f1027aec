import math

import numpy as np
import pytest

from beauville.covers import (
    CliffordCtx,
    RankOutOfRange,
    build_cover,
    cover_order,
    identity_element,
    neven_search,
    nodd_triple,
    order3_xsimz_suite,
    standard_xy,
    word,
)
from beauville.permgrp import Permutation, RandomSource, mulclose, schreier_sims


def test_presentation_relations():
    cover = build_cover(5)  # build_cover verifies everything internally
    t, z = cover.t, cover.z
    assert t[1] * t[1] == z
    assert (t[1] * t[3]) ** 2 == z
    assert t[1] * t[2] * t[1] == t[2] * t[1] * t[2]
    assert (z * z).is_identity()
    assert cover_order(z) == 2
    assert cover_order(t[1]) == 4  # t^2 = z != 1 forces order 4


def test_rank_bounds():
    with pytest.raises(RankOutOfRange):
        build_cover(2)
    with pytest.raises(RankOutOfRange):
        build_cover(15)


def test_clifford_associativity_random():
    ctx = CliffordCtx(5)
    rs = RandomSource(9)
    def rand_vec():
        v = np.zeros(ctx.dim, dtype=np.int8)
        for _ in range(4):
            v[rs.randrange(ctx.dim)] = 1 + rs.randrange(6)
        return v
    for _ in range(25):
        a, b, c = rand_vec(), rand_vec(), rand_vec()
        left = ctx.mul_vec(ctx.mul_vec(a, b), c)
        right = ctx.mul_vec(a, ctx.mul_vec(b, c))
        assert np.array_equal(left, right)


def test_sign_homomorphism_consistency():
    # projecting a word to Sym(n) and lifting the projection back through
    # the generators differs from the original by a power of z only
    cover = build_cover(5)
    rs = RandomSource(4)
    for _ in range(20):
        indices = [1 + rs.randrange(4) for _ in range(6)]
        u = word(cover, indices)
        v = word(cover, indices)  # same word lifts identically
        assert u == v
        assert u.perm == math.prod([], start=Permutation.identity(5)) * u.perm
        # u * u^-1 projects to the identity and equals 1 or z in the algebra
        diff = u * u.inverse()
        assert diff.is_identity() or diff == cover.z


def test_lifted_group_order_small():
    # the subgroup generated by all t_i has order 2 * n!
    for n in (3, 4, 5, 6):
        cover = build_cover(n)
        els = mulclose(list(cover.generators()), cap=2 * math.factorial(n) + 1)
        assert len(els) == 2 * math.factorial(n)


def test_order3_and_xsimz():
    rows = order3_xsimz_suite(range(3, 9))
    for row in rows:
        assert row.y_order == (3 if row.n % 2 else 6)
        assert row.conjugation_identity


def test_standard_xy_projections():
    for n in (5, 7):
        cover = build_cover(n)
        x, y = standard_xy(cover)
        assert x.perm == Permutation.from_cycles(n, [tuple(range(1, n + 1))])
        assert y.perm == Permutation.from_cycles(n, [(1, 2, n)])


def test_nodd_triple():
    res = nodd_triple(7)
    u, v, w = res.triple
    assert cover_order(u) == 7 and cover_order(v) == 3 and cover_order(w) == 7
    assert u * v == w
    assert res.alt_order == math.factorial(7) // 2
    with pytest.raises(RankOutOfRange):
        nodd_triple(8)
    with pytest.raises(RankOutOfRange):
        nodd_triple(5)


def test_neven_search_n6():
    a, b = neven_search(6, seed=1)
    assert cover_order(a) == 5
    assert cover_order(b) == 5 and cover_order(a * b) == 5
    assert schreier_sims([a.perm, b.perm]).order() == 360


def test_neven_search_n6_redraws_its_pinned_pair():
    # seed 5's first pinned pair fails in all 3,000 draws; redrawing it
    # every REPIN_INTERVAL draws finds a triple
    a, b = neven_search(6, seed=5)
    assert (cover_order(a), cover_order(b), cover_order(a * b)) == (5, 5, 5)
    assert schreier_sims([a.perm, b.perm]).order() == 360


def test_neven_search_n8():
    a, b = neven_search(8, seed=1)
    assert (cover_order(a), cover_order(b), cover_order(a * b)) == (5, 7, 7)
    assert schreier_sims([a.perm, b.perm]).order() == math.factorial(8) // 2


def test_cover_order_beyond_4n():
    # lifts of a (7)(3) element of Alt(10) have orders 21 and 42 > 4n
    cover = build_cover(10)
    u = word(cover, [1, 2, 3, 4, 5, 6, 8, 9])
    assert u.perm.cycle_type() == (7, 3)
    orders = {cover_order(u), cover_order(u * cover.z)}
    assert orders == {21, 42}
    for v in (u, u * cover.z):
        assert (v ** cover_order(v)).is_identity()


def test_sign_mask_closed_form():
    def reference(n, s):
        k = 0
        for t in range(n):
            if bin(s >> (t + 1)).count("1") & 1:  # elements of S above t
                k ^= 1 << t
        return k ^ s

    for n in range(3, 15):
        ctx = CliffordCtx(n)
        assert all(ctx._sign_mask(s) == reference(n, s) for s in range(ctx.dim)), n
