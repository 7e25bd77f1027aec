import hashlib
import itertools
import math
import os
import random

import pytest

import beauville
from beauville.ffield import get_field_of_order
from beauville.matgrp import GroupSpec, SquareMatrix, standard_generators, suzuki_generators
from beauville.permgrp import (
    CAP_EXCEEDED,
    BadN,
    Permutation,
    PointAction,
    ProductReplacer,
    RandomSource,
    alt_triple,
    class_orbit,
    format_perm_file,
    matrix_to_perm,
    mulclose,
    packed_class,
    parse_perm_file,
    schreier_sims,
)
from beauville.structures import GroupHandle


def cyc(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def test_permutation_basics():
    p = cyc(5, (1, 2, 3))
    q = cyc(5, (3, 4, 5))
    assert (p * q).images == (p * q).images
    assert p.inverse() * p == Permutation.identity(5)
    assert p.order() == 3 and cyc(6, (1, 2), (3, 4, 5)).order() == 6
    assert p.cycle_type() == (3, 1, 1)
    assert (p ** -1) == p.inverse()
    # the public constructor validates outside input
    for bad in ([0, 0, 1], [1, 2, 3], [0, 2], [-1, 0]):
        with pytest.raises(ValueError):
            Permutation(bad)
    # products, inverses and identities are built unchecked, and are the
    # permutations the public constructor builds from the same images
    r = cyc(6, (2, 6))
    s = cyc(6, (1, 2, 3), (4, 5))
    for t in (s * r, s.inverse(), s ** 5, Permutation.identity(6)):
        assert type(t.images) is tuple and Permutation(t.images) == t
    assert (s * r).images == tuple(r.images[i] for i in s.images)


# a reference kernel on plain image tuples, composing left to right


def ref_mul(p, q):
    return tuple(q[i] for i in p)


def ref_inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def ref_power(p, e):
    if e < 0:
        p, e = ref_inverse(p), -e
    out = tuple(range(len(p)))
    for _ in range(e):
        out = ref_mul(out, p)
    return out


def ref_cycles(p):
    seen, out = set(), []
    for start in range(len(p)):
        if start not in seen:
            cyc, j = [start], p[start]
            seen.add(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = p[j]
            out.append(tuple(cyc))
    return out


# uint8 rows up to 256 points, uint16 from 257
@pytest.mark.parametrize("degree", [1, 2, 7, 255, 256, 257, 624])
def test_kernel_matches_tuple_reference(degree):
    rng = random.Random(degree)
    one = tuple(range(degree))
    for _ in range(4):
        a, b = (tuple(rng.sample(range(degree), degree)) for _ in range(2))
        p, q = Permutation(a), Permutation(b)
        assert type(p.images) is tuple and p.images == a and p.degree == degree
        assert (p * q).images == ref_mul(a, b)
        assert p.inverse().images == ref_inverse(a)
        for e in (-3, -2, -1, 0, 1, 2, 3, 5, 8):
            assert (p ** e).images == ref_power(a, e), e
        assert p.conjugate(q).images == ref_mul(ref_mul(ref_inverse(b), a), b)
        cycles = ref_cycles(a)
        assert p.cycles(skip_fixed=False) == cycles
        assert p.cycles() == [c for c in cycles if len(c) > 1]
        assert p.cycle_type() == tuple(sorted(map(len, cycles), reverse=True))
        order = math.lcm(*map(len, cycles))
        assert p.order() == order
        for n in range(1, 13):
            assert p.has_order(n) == (order == n)
        assert p.has_order(order)
        assert p.is_identity() == (a == one)
        assert (p * p.inverse()).is_identity() and (p ** order).is_identity()
        # equality and hashing follow the images, however the element is built
        for same in (Permutation(a), p * Permutation.identity(degree), p.inverse().inverse()):
            assert same == p and hash(same) == hash(p) and same.images == a
        assert (p == q) == (a == b)
    assert Permutation.identity(degree).images == one
    assert Permutation.identity(degree) != Permutation.identity(degree + 1)
    assert len({Permutation.identity(degree), Permutation(one)}) == 1


def test_class_rows_are_the_elements_products_build():
    alt5 = [cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5))]
    sl217 = GroupHandle.from_matrix_spec(GroupSpec("SL", 2, 17))
    assert sl217.perm_gens[0].degree == 288
    for gens in (alt5, sl217.perm_gens):
        rep = ProductReplacer(gens, RandomSource(11))
        for _ in range(3):
            g, h = rep.random_element(), rep.random_element()
            conj = g.conjugate(h)  # built by products
            orbit = class_orbit(g, gens)
            assert conj in orbit and conj in packed_class(g, gens, 10 ** 5)
            (row,) = [x for x in orbit if x == conj]
            assert row is not conj and hash(row) == hash(conj)
            assert row.images == conj.images and row * h.inverse() == h.inverse() * g


def test_bsgs_order_matches_closure_above_256_points():
    G = GroupHandle.from_matrix_spec(GroupSpec("SL", 2, 17))
    assert G.perm_gens[0].degree == 288 and G.expected_order == 4896
    els = mulclose(G.perm_gens)
    assert len(els) == G.bsgs.order() == schreier_sims(G.perm_gens).order() == 4896
    assert all(G.bsgs.contains(g) for g in els)


def test_bsgs_small():
    assert schreier_sims([cyc(3, (1, 2)), cyc(3, (1, 2, 3))]).order() == 6
    assert schreier_sims([cyc(7, (1, 2, 3)), cyc(7, (1, 2, 3, 4, 5, 6, 7))]).order() == 2520
    m11 = [cyc(11, (2, 10), (4, 11), (5, 7), (8, 9)),
           cyc(11, (1, 4, 3, 8), (2, 5, 6, 9))]
    assert schreier_sims(m11).order() == 7920


def test_bsgs_vs_exhaustive_enumeration():
    suites = [
        ("Sym3", [cyc(3, (1, 2)), cyc(3, (1, 2, 3))]),
        ("Sym4", [cyc(4, (1, 2)), cyc(4, (1, 2, 3, 4))]),
        ("Alt4", [cyc(4, (1, 2, 3)), cyc(4, (2, 3, 4))]),
        ("Alt5", [cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5))]),
        ("Sym6", [cyc(6, (1, 2)), cyc(6, (1, 2, 3, 4, 5, 6))]),
        ("D12", [cyc(6, (1, 2, 3, 4, 5, 6)), cyc(6, (2, 6), (3, 5))]),
        ("C7xC2", [cyc(9, (1, 2, 3, 4, 5, 6, 7)), cyc(9, (8, 9))]),
    ]
    for name, gens in suites:
        els = mulclose(gens)
        order = len(els)
        assert schreier_sims(gens).order() == order, name
        # stopped at the true order, the structure is already complete
        stopped = schreier_sims(gens, known_order=order)
        assert stopped.order() == order, name
        assert all(stopped.contains(g) for g in els), name
        # a bound that is never reached builds to completion
        assert schreier_sims(gens, known_order=order + 1).order() == order, name


def test_bsgs_structure_golden():
    # base, level generators and transversal reps of M11 as built by the
    # deterministic Schreier-Sims; lazy Schreier generators keep them
    path = os.path.join(os.path.dirname(beauville.__file__), "data", "M11.perm")
    with open(path, encoding="utf-8") as fh:
        gens, _ = parse_perm_file(fh.read())
    bsgs = schreier_sims(gens)
    h = hashlib.sha256()
    h.update(repr(bsgs.base).encode())
    for lst in bsgs.level_gens:
        h.update(b"L")
        for g in lst:
            h.update(repr(g.images).encode())
    for trans in bsgs.transversals:
        h.update(b"T")
        for pt, rep in trans.items():
            h.update(repr((pt, rep.images)).encode())
    assert bsgs.order() == 7920
    assert h.hexdigest() == (
        "0a30e2be4d9b8618295c3e09760025ae0dfd85c5947de2d6b6ff0bd22877723b")


def test_rep_inverses_invert_the_reps():
    m11 = [cyc(11, (2, 10), (4, 11), (5, 7), (8, 9)),
           cyc(11, (1, 4, 3, 8), (2, 5, 6, 9))]
    sp43 = GroupHandle.from_matrix_spec(GroupSpec("Sp", 4, 3))
    for bsgs in (schreier_sims(m11), sp43.bsgs):
        for level, trans in enumerate(bsgs.transversals):
            for pt, rep in trans.items():
                assert (bsgs._rep_inverse(level, pt) * rep).is_identity()
                # the cached inverse is the one returned again
                assert bsgs._rep_inverse(level, pt) is bsgs._rep_inverse(level, pt)


def test_known_order_stops_complete_and_refuses_a_false_premise():
    alt7 = [cyc(7, (1, 2, 3)), cyc(7, (1, 2, 3, 4, 5, 6, 7))]
    stopped = schreier_sims(alt7, known_order=2520)
    assert stopped.order() == 2520
    assert stopped.contains(alt7[0]) and not stopped.contains(cyc(7, (1, 2)))
    # a transversal product above the known order refutes the premise; no
    # product of orbit sizes <= 7 equals 11, so Sym(7) must pass it
    with pytest.raises(ValueError, match="known order 11"):
        schreier_sims([cyc(7, (1, 2)), alt7[1]], known_order=11)
    # a proper subgroup builds to completion with its exact order
    sub = schreier_sims(alt7[:1], known_order=2520)
    assert sub.order() == 3


def test_bsgs_membership():
    gens = [cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5))]
    bsgs = schreier_sims(gens)
    for g in mulclose(gens):
        assert bsgs.contains(g)
    assert not bsgs.contains(cyc(5, (1, 2)))  # odd permutation


def test_matrix_to_perm_homomorphism_and_kernel():
    gens = standard_generators(GroupSpec("SL", 2, 3))
    perms, npts, act = matrix_to_perm(gens, "projective")
    assert npts == 4
    # homomorphism on random products
    rs = RandomSource(3)
    mats = list(gens)
    for _ in range(30):
        i, j = rs.randrange(len(mats)), rs.randrange(len(mats))
        assert act.permutation(mats[i] * mats[j]) == act.permutation(mats[i]) * act.permutation(mats[j])
        mats.append(mats[i] * mats[j])
    # the projective kernel is the scalar subgroup: |PSL2(3)| = 12
    assert schreier_sims(perms).order() == 12
    perms_v, npts_v, _ = matrix_to_perm(gens, "vectors")
    assert npts_v == 8
    assert schreier_sims(perms_v).order() == 24  # faithful for SL2(3)


def _ref_point_images(M, kind):
    """Per-point reference: lex-ordered points, v -> v*M by field methods,
    projective images scaled to lead 1, index by dict."""
    F, d = M.ctx, M.d
    pts = [v for v in itertools.product(range(F.q), repeat=d) if any(v)]
    if kind == "projective":
        pts = [v for v in pts if next(c for c in v if c) == 1]
    index = {v: i for i, v in enumerate(pts)}
    out = []
    for v in pts:
        w = [0] * d
        for vk, row in zip(v, M.rows):
            w = [F.add_code(wj, F.mul_code(vk, mj)) for wj, mj in zip(w, row)]
        w = tuple(w)
        if kind == "projective":
            inv = F.inv_code(next(c for c in w if c))
            w = tuple(F.mul_code(inv, c) for c in w)
        out.append(index[w])
    return tuple(out)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_point_action_matches_per_point_reference(q):
    rs = RandomSource(q)
    for d in (1, 2, 3):
        F = get_field_of_order(q)
        mats = []
        while len(mats) < 4:
            M = SquareMatrix(F, [[rs.randrange(q) for _ in range(d)] for _ in range(d)])
            if M.det():
                mats.append(M)
        singular = SquareMatrix(F, [[int(i == j != 0) for j in range(d)] for i in range(d)])
        for kind in ("vectors", "projective"):
            act = PointAction(F, d, kind)
            for M in mats:
                assert act.permutation(M).images == _ref_point_images(M, kind)
            with pytest.raises(ValueError):
                act.permutation(singular)
            with pytest.raises(ValueError):
                act.permutation(SquareMatrix.identity(F, d + 1))


def test_sl2_projective_images():
    perms, npts, _ = matrix_to_perm(standard_generators(GroupSpec("SL", 2, 2)), "projective")
    assert npts == 3 and schreier_sims(perms).order() == 6  # SL2(2) = Sym(3)
    perms, npts, _ = matrix_to_perm(standard_generators(GroupSpec("SL", 2, 9)), "projective")
    assert npts == 10 and schreier_sims(perms).order() == 360  # PSL2(9) = Alt(6)
    perms, npts, _ = matrix_to_perm(standard_generators(GroupSpec("SL", 3, 2)), "projective")
    assert npts == 7 and schreier_sims(perms).order() == 168


def test_class_orbit():
    sym4 = [cyc(4, (1, 2)), cyc(4, (1, 2, 3, 4))]
    assert class_orbit(Permutation.identity(4), sym4) == {Permutation.identity(4)}
    assert len(class_orbit(cyc(4, (1, 2)), sym4)) == 6
    # 3-cycles split in Alt(4)
    alt4 = [cyc(4, (1, 2, 3)), cyc(4, (2, 3, 4))]
    orbit = class_orbit(cyc(4, (1, 2, 3)), alt4)
    assert len(orbit) == 4
    assert class_orbit(cyc(4, (1, 2)), sym4, cap=3) is CAP_EXCEEDED
    # orbit size divides group order; members share the cycle type
    g = cyc(5, (1, 2, 3, 4, 5))
    alt5 = [cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5))]
    orbit = class_orbit(g, alt5)
    assert 60 % len(orbit) == 0
    assert all(h.cycle_type() == g.cycle_type() for h in orbit)


def reference_class(g, gens, cap):
    """The class of g as image tuples, closed one element at a time."""
    pairs = []
    for h in gens:
        hinv = [0] * h.degree
        for i, j in enumerate(h.images):
            hinv[j] = i
        pairs.append((h.images, hinv))
    orbit = {g.images}
    frontier = [g.images]
    while frontier:
        fresh = []
        for x in frontier:
            for h, hinv in pairs:
                y = tuple(h[x[i]] for i in hinv)  # h^-1 x h
                if y not in orbit:
                    if len(orbit) >= cap:
                        return CAP_EXCEEDED
                    orbit.add(y)
                    fresh.append(y)
        frontier = fresh
    return orbit


def test_class_orbit_matches_reference_closure():
    sym4 = [cyc(4, (1, 2)), cyc(4, (1, 2, 3, 4))]
    alt4 = [cyc(4, (1, 2, 3)), cyc(4, (2, 3, 4))]
    alt5 = [cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5))]
    sp43, _, _ = matrix_to_perm(standard_generators(GroupSpec("Sp", 4, 3)), "vectors")
    sz8, _, _ = matrix_to_perm(list(suzuki_generators(8).generators), "projective")
    # (3 4) lies outside <(1 2 3)>, so the keys need a base of
    # <(1 2 3), (3 4)>: keys on the base of <(1 2 3)> alone, one point,
    # would merge two of the three conjugates.  The trivial group's base
    # is empty, so its keys have zero width.
    c3 = [cyc(4, (1, 2, 3))]
    trivial = [Permutation.identity(3)]
    assert class_orbit(cyc(4, (3, 4)), c3) == {cyc(4, (1, 4)), cyc(4, (2, 4)), cyc(4, (3, 4))}
    assert schreier_sims(trivial).base == []
    # Alt(20) = <(1 2 3), (2 3 ... 20)> has an 18-point base, so its keys
    # need 78 bits and are void scalars, not int64.  Its 5-cycle class
    # (372,096 elements) is left out: the reference closure alone takes
    # seconds.
    alt20 = [cyc(20, (1, 2, 3)), cyc(20, tuple(range(2, 21)))]
    assert 20 ** len(schreier_sims(alt20).base) >= 2 ** 63
    cases = [(sym4, [cyc(4, (1, 2)), cyc(4, (1, 2), (3, 4))]),
             (alt4, [cyc(4, (1, 2, 3))]),
             (alt5, [cyc(5, (1, 2, 3, 4, 5)), cyc(5, (1, 2), (3, 4))]),
             (c3, [cyc(4, (3, 4)), cyc(4, (1, 2), (3, 4))]),
             (trivial, trivial),
             (alt20, [cyc(20, (1, 2, 3)), cyc(20, (1, 2), (3, 4))])]
    # degree 80 packs rows as uint8, degree 585 as uint16
    for gens, count in ((sp43, 3), (sz8, 2)):
        rep = ProductReplacer(gens, RandomSource(gens[0].degree))
        cases.append((gens, [rep.random_element() for _ in range(count)]))
    assert sp43[0].degree == 80 and sz8[0].degree == 585
    for gens, elements in cases:
        for g in elements:
            want = reference_class(g, gens, cap=10 ** 5)
            orbit = class_orbit(g, gens)
            assert {h.images for h in orbit} == want
            assert all(type(h) is Permutation and type(h.images) is tuple for h in orbit)
            # the cap boundary: exactly cap elements is a class, one more is not
            assert class_orbit(g, gens, cap=len(want)) == orbit
            assert class_orbit(g, gens, cap=len(want) - 1) is CAP_EXCEEDED


def test_has_order_matches_order():
    gens, _, _ = matrix_to_perm(standard_generators(GroupSpec("Sp", 4, 3)), "vectors")
    rep = ProductReplacer(gens, RandomSource(5))
    seen = set()
    for _ in range(3000):
        g = rep.random_element()
        o = g.order()
        seen.add(o)
        for n in range(1, 37):
            assert g.has_order(n) == (o == n)
    assert seen == {2, 3, 4, 5, 6, 8, 9, 10, 12, 18}
    one = Permutation.identity(80)
    assert one.has_order(1) and not one.has_order(2)


def test_alt_triple_types():
    for n in range(7, 16):
        x, y, expected = alt_triple(n)
        z = x * y
        assert (x.order(), y.order(), z.order()) == expected
        if n % 2:
            assert expected == (n - 2, n - 2, 5)
        else:
            assert expected == (math.lcm(3, n - 3), n - 2, 3)
    # proof details
    x, y, _ = alt_triple(9)
    assert x * y == cyc(9, (1, 2, 9, 8, 7))
    with pytest.raises(BadN):
        alt_triple(5)


def test_product_replacement_golden_sequence():
    gens = [cyc(3, (1, 2)), cyc(3, (1, 2, 3))]
    rep = ProductReplacer(gens, RandomSource(42))
    seq = [rep.random_element().images for _ in range(8)]
    assert seq == [(0, 1, 2), (2, 1, 0), (2, 0, 1), (0, 2, 1),
                   (1, 2, 0), (1, 2, 0), (1, 2, 0), (2, 1, 0)]
    # same seed, same stream
    rep2 = ProductReplacer(gens, RandomSource(42))
    assert [rep2.random_element().images for _ in range(8)] == seq


def test_random_elements_lie_in_group_and_cover_orders():
    gens = [cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5))]
    bsgs = schreier_sims(gens)
    rep = ProductReplacer(gens, RandomSource(0))
    seen = set()
    for _ in range(2000):
        g = rep.random_element()
        assert bsgs.contains(g)
        seen.add(g.order())
    assert seen == {1, 2, 3, 5}  # all element orders of Alt(5)


def test_splitmix_golden():
    rs = RandomSource(7)
    assert [rs.next64() for _ in range(4)] == [
        7191089600892374487, 309689372594955804,
        16616101746815609346, 10753165928301472203]


def test_perm_file_round_trip():
    gens = [cyc(11, (2, 10), (4, 11), (5, 7), (8, 9)),
            cyc(11, (1, 4, 3, 8), (2, 5, 6, 9))]
    text = format_perm_file(gens)
    parsed, degree = parse_perm_file(text)
    assert degree == 11 and parsed == gens
    with pytest.raises(ValueError):
        parse_perm_file("perm 3 1\n1 1 2\n")
    with pytest.raises(ValueError):
        parse_perm_file("perm 3 2\n1 2 3\n")
