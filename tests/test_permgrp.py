import math

import pytest

from beauville.matgrp import GroupSpec, standard_generators
from beauville.permgrp import (
    CAP_EXCEEDED,
    BadN,
    Permutation,
    ProductReplacer,
    RandomSource,
    alt_triple,
    class_orbit,
    format_perm_file,
    matrix_to_perm,
    mulclose,
    parse_perm_file,
    schreier_sims,
)


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
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


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
        assert schreier_sims(gens).order() == len(mulclose(gens)), name


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
    assert RandomSource(7).derive(3).next64() == 17731997454495024839


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
