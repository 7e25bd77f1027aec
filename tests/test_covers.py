import math
from collections import Counter

import numpy as np
import pytest

import beauville.covers as covers_module
from beauville.covers import (
    CliffordCtx,
    Cover,
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
from beauville.matgrp import GroupSpec, SquareMatrix, standard_generators
from beauville.permgrp import Permutation, RandomSource, alt_bsgs, mulclose, schreier_sims


def test_presentation_relations():
    cover = build_cover(5)  # build_cover verifies everything internally
    t, z = cover.t, cover.z
    assert t[1] * t[1] == z
    assert (t[1] * t[3]) ** 2 == z
    assert t[1] * t[2] * t[1] == t[2] * t[1] * t[2]
    assert (z * z).is_identity()
    assert cover_order(z) == 2
    assert cover_order(t[1]) == 4  # t^2 = z != 1 forces order 4


def relations_broken(cover):
    """The relation families of 2.Sym(n) that a cover's generators break,
    checked one product at a time."""
    t, z, n = cover.t, cover.z, cover.n
    broken = set()
    if not all(t[i] * t[i] == z for i in range(1, n)):
        broken.add("square")
    if not all((t[i] * t[i].inverse()).is_identity() for i in range(1, n)):
        broken.add("inverse")
    if not all(t[i] * t[i + 1] * t[i] == t[i + 1] * t[i] * t[i + 1] for i in range(1, n - 1)):
        broken.add("braid")
    if not all((t[i] * t[j]) ** 2 == z for i in range(1, n) for j in range(i + 2, n)):
        broken.add("commuting")
    return broken


@pytest.mark.parametrize("plant, broken", [
    (lambda cover: cover.t[1] * cover.z, {"braid"}),
    (lambda cover: cover.t[2], {"commuting"}),
    (lambda cover: identity_element(cover.ctx), {"square", "braid"}),
], ids=["t1z", "t2", "identity"])
def test_stacked_check_rejects_planted_covers(plant, broken):
    cover = build_cover(5)
    assert relations_broken(cover) == set()
    gens = list(cover.generators())
    gens[0] = plant(cover)
    planted = Cover(cover.ctx, gens, cover.z)
    assert relations_broken(planted) == broken
    with pytest.raises(AssertionError):
        covers_module._verify_presentation(planted)


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


def test_alt_order_needs_even_projections():
    cover = build_cover(7)
    x, y = standard_xy(cover)
    assert alt_bsgs([x.perm, y.perm]).order() == math.factorial(7) // 2
    # t_1 and t_2 project to transpositions, which lie outside Alt(7)
    with pytest.raises(ValueError, match="odd"):
        alt_bsgs([cover.t[1].perm, cover.t[2].perm])


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


def _basis_sign(s, t):
    """e_S e_T = sign * e_(S ^ T): (-1) for each generator of T passed by a
    larger one of S, and for each e_i^2 = -1 contraction."""
    k = 0
    for i in range(s.bit_length()):
        if bin(s >> (i + 1)).count("1") & 1:  # elements of S above i
            k ^= 1 << i
    return -1 if bin(t & (k ^ s)).count("1") & 1 else 1


def _sparse_clifford_mul(a, b):
    """Reference product of two coordinate vectors over their nonzero terms."""
    out = np.zeros(len(a), dtype=np.int64)
    b_terms = [(t, int(b[t])) for t in np.nonzero(b)[0]]
    for s in np.nonzero(a)[0]:
        for t, cb in b_terms:
            out[s ^ t] += _basis_sign(int(s), int(t)) * int(a[s]) * cb
    return out % 7


def test_mul_vec_on_basis_monomials():
    for n in range(3, 8):
        ctx = CliffordCtx(n)
        units = np.eye(ctx.dim, dtype=np.int8)
        for s in range(ctx.dim):
            for t in range(ctx.dim):
                expected = np.zeros(ctx.dim, dtype=np.int8)
                expected[s ^ t] = _basis_sign(s, t) % 7
                assert np.array_equal(ctx.mul_vec(units[s], units[t]), expected), (n, s, t)


def test_spin_module_matches_reference():
    rs = RandomSource(12)
    for n in range(3, 13):
        cover = build_cover(n)
        u = word(cover, [1 + rs.randrange(n - 1) for _ in range(6)])
        v = word(cover, [1 + rs.randrange(n - 1) for _ in range(5)])
        assert np.array_equal((u * v).vec, _sparse_clifford_mul(u.vec, v.vec)), n
        assert (u * u.inverse()).is_identity()
        assert np.array_equal(cover.ctx.to_matrix(u.vec), u.mat)
    for n in (13, 14):
        build_cover(n)  # raises unless the presentation relations hold


# projections of neven_search's pairs and nodd_triple's choices, recorded
# when products ran on 2^n-coefficient vectors
NEVEN_GOLDEN = {
    (6, 0): [(0, 2, 4, 1, 5, 3), (1, 3, 2, 4, 5, 0)],
    (6, 1): [(2, 5, 3, 1, 4, 0), (1, 3, 2, 4, 5, 0)],
    (6, 2): [(1, 3, 5, 2, 4, 0), (1, 4, 3, 0, 2, 5)],
    (6, 3): [(1, 5, 4, 3, 0, 2), (2, 0, 4, 1, 3, 5)],
    (6, 4): [(3, 0, 4, 2, 1, 5), (0, 2, 3, 5, 1, 4)],
    (6, 5): [(2, 5, 1, 3, 0, 4), (5, 1, 0, 2, 3, 4)],
    (8, 0): [(0, 7, 2, 5, 4, 1, 3, 6), (3, 5, 1, 2, 0, 6, 4, 7)],
    (8, 1): [(0, 3, 2, 4, 6, 1, 5, 7), (2, 1, 4, 0, 7, 6, 3, 5)],
    (8, 2): [(2, 1, 6, 3, 0, 5, 7, 4), (1, 3, 2, 7, 0, 4, 5, 6)],
    (8, 3): [(3, 1, 2, 5, 4, 7, 0, 6), (0, 2, 3, 5, 6, 4, 7, 1)],
    (10, 0): [(0, 4, 5, 3, 6, 1, 2, 7, 8, 9), (6, 0, 2, 1, 5, 9, 4, 3, 7, 8)],
    (10, 1): [(0, 4, 7, 2, 3, 5, 6, 1, 8, 9), (6, 4, 3, 1, 9, 0, 2, 7, 5, 8)],
    (10, 2): [(5, 1, 4, 3, 6, 2, 0, 7, 8, 9), (1, 2, 5, 0, 3, 9, 6, 4, 7, 8)],
    (10, 3): [(2, 3, 1, 7, 4, 5, 6, 0, 8, 9), (3, 1, 0, 7, 2, 8, 4, 5, 9, 6)],
}
NODD_GOLDEN = {7: (False, "(u^2v)^k with k=3"), 9: (False, "(uv^-1)^k with k=7"),
               11: (True, "([u,v])^k with k=3")}


def test_search_results_match_golden_values():
    for (n, seed), expected in NEVEN_GOLDEN.items():
        a, b = neven_search(n, seed=seed)
        assert [a.perm.images, b.perm.images] == expected, (n, seed)
    for n, expected in NODD_GOLDEN.items():
        res = nodd_triple(n)
        assert (res.uses_xz, res.z_word) == expected, n


def first_center_candidates(u, v):
    """The first seven candidate words of _exhibit_center: name, value and
    the products that form it (an inverse is two, Clifford conjugation).
    Works on cover elements and on their projections alike."""
    ui, vi = u.inverse(), v.inverse()
    return [("u^n", u, 0), ("v^3", v, 0), ("(uv)^k", u * v, 1), ("(uv^-1)^k", u * vi, 3),
            ("(u^2v)^k", u * u * v, 2), ("(uv^2)^k", u * v * v, 2),
            ("([u,v])^k", ui * vi * u * v, 7)]


def test_center_candidates_are_formed_on_demand(monkeypatch):
    counts = Counter()
    mat_mul = covers_module._mat_mul

    def counting(*args):
        counts["cover"] += 1
        return mat_mul(*args)

    for n, (_, z_word) in NODD_GOLDEN.items():
        u, v, _ = nodd_triple(n).triple
        z = build_cover(n).z
        expected = 0
        for name, p, products in first_center_candidates(u.perm, v.perm):
            # the word, then its power k = o(p): bit_length(k) - 1
            # squarings and popcount(k) - 1 products
            k = p.order()
            expected += products + k.bit_length() - 1 + bin(k).count("1") - 1
            if z_word == f"{name} with k={k}":
                break
        else:
            raise AssertionError(f"{z_word} is not among the first candidates")
        counts.clear()
        with monkeypatch.context() as m:
            m.setattr(covers_module, "_mat_mul", counting)
            assert covers_module._exhibit_center(u, v, z) == z_word
        # no product for the candidates after the hit
        assert counts["cover"] == expected, n


def test_neven_search_n10():
    a, b = neven_search(10, seed=0)
    assert (cover_order(a), cover_order(b), cover_order(a * b)) == (5, 9, 9)
    assert schreier_sims([a.perm, b.perm]).order() == math.factorial(10) // 2


def test_powers_stop_squaring_after_the_top_bit(monkeypatch):
    cover = build_cover(6)
    u = cover.t[1] * cover.t[2] * cover.t[4]
    M = standard_generators(GroupSpec("SL", 3, 5))[0]
    elements = {"cover": u, "perm": u.perm, "matrix": M}
    # x^1..x^8 by repeated multiplication, before the counters go in
    powers = {}
    for key, x in elements.items():
        powers[key] = [x]
        for _ in range(7):
            powers[key].append(powers[key][-1] * x)
    counts = Counter()

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(covers_module, "_mat_mul", counting("cover", covers_module._mat_mul))
    monkeypatch.setattr(Permutation, "__mul__", counting("perm", Permutation.__mul__))
    monkeypatch.setattr(SquareMatrix, "__mul__", counting("matrix", SquareMatrix.__mul__))
    # bit_length(e) - 1 squarings and popcount(e) - 1 products
    expected = [0, 1, 2, 2, 3, 3, 4, 3]
    for e in range(1, 9):
        for key, x in elements.items():
            counts.clear()
            assert x ** e == powers[key][e - 1], (key, e)
            # a cover product also multiplies the projections
            want = Counter({key: expected[e - 1]})
            if key == "cover":
                want["perm"] = expected[e - 1]
            assert +counts == +want, (key, e)
