from fractions import Fraction

import pytest

from beauville.matgrp import GroupSpec
from beauville.permgrp import (
    Permutation,
    RandomSource,
    alt_triple,
    class_orbit,
    mulclose,
    schreier_sims,
)
from beauville.structures import (
    BeauvilleStructure,
    ClassChecked,
    CoprimeOrders,
    Exhausted,
    GroupHandle,
    HyperbolicTriple,
    NotGenerating,
    NotHyperbolic,
    Violation,
    condition_iii,
    element_of_order,
    gow_search,
    search_by_type,
    structure_constant,
    verify_triple,
)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def perm_handle(name, gens):
    return GroupHandle.from_permutations(name, gens)


def test_verify_triple_diagnoses():
    x, y, _ = alt_triple(7)
    G = perm_handle("Alt7", [x, y])
    res = verify_triple(G, x, y)
    assert isinstance(res, HyperbolicTriple) and res.orders == (5, 5, 5)

    s3 = perm_handle("Sym3", [cyc(3, (1, 2)), cyc(3, (2, 3))])
    res = verify_triple(s3, s3.perm_gens[0], s3.perm_gens[1])
    assert isinstance(res, NotHyperbolic) and res.reciprocal_sum == Fraction(4, 3)

    G2 = GroupHandle.from_matrix_spec(GroupSpec("SL", 3, 2))
    one = Permutation.identity(G2.perm_gens[0].degree)
    res = verify_triple(G2, one, one)
    assert isinstance(res, NotGenerating) and res.subgroup_order == 1


def test_condition_iii_coprime_fast_path():
    G = GroupHandle.from_matrix_spec(GroupSpec("SL", 3, 2))
    t1 = search_by_type(G, (4, 4, 4), seed=1)
    t2 = search_by_type(G, (3, 3, 7), seed=2)
    cert = condition_iii(G, t1, t2)
    assert isinstance(cert, CoprimeOrders) and cert.products == (64, 63)
    bs = BeauvilleStructure(t1, t2, cert)
    assert bs.types == ((4, 4, 4), (3, 3, 7))


def test_condition_iii_violation_on_equal_triples():
    x, y, _ = alt_triple(7)
    G = perm_handle("Alt7", [x, y])
    t = verify_triple(G, x, y)
    cert = condition_iii(G, t, t)
    assert isinstance(cert, Violation)
    with pytest.raises(AssertionError):
        BeauvilleStructure(t, t, cert)


def _all_hyperbolic_triples(G, elements):
    """All (x, y) giving hyperbolic generating triples, as verified objects."""
    out = []
    for x in elements:
        for y in elements:
            res = verify_triple(G, x, y)
            if isinstance(res, HyperbolicTriple):
                out.append(res)
    return out


def _brute_force_condition_iii(G, t1, t2):
    """Full power-pair oracle: some nontrivial power of t1's elements is
    conjugate to a nontrivial power of t2's elements."""
    for u in (t1.x, t1.y, t1.z):
        ou = u.order()
        for i in range(1, ou):
            orbit = class_orbit(u ** i, G.perm_gens, cap=10 ** 6)
            for v in (t2.x, t2.y, t2.z):
                ov = v.order()
                for j in range(1, ov):
                    if v ** j in orbit:
                        return False  # violated
    return True


def test_condition_iii_reduction_matches_power_pair_oracle():
    # groups of order <= 5000 with assorted triple pairs
    groups = [
        ("Alt5", [cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5))]),
        ("Alt6", [cyc(6, (1, 2, 3)), cyc(6, (1, 2, 3, 4, 5, 6)) * cyc(6, (1, 2))]),
        ("SL3_2", None),
        ("SL2_7", None),
    ]
    rs = RandomSource(77)
    for name, gens in groups:
        if gens is None:
            d, q = (3, 2) if name == "SL3_2" else (2, 7)
            G = GroupHandle.from_matrix_spec(GroupSpec("SL", d, q))
        else:
            G = perm_handle(name, gens)
        assert G.expected_order <= 5000
        # sample pairs of hyperbolic triples through the search machinery
        triples = []
        for seed in range(10):
            for lmn in [(4, 4, 4), (3, 3, 7), (5, 5, 5), (4, 4, 7), (7, 7, 3),
                        (5, 5, 4), (8, 8, 8), (3, 3, 4), (6, 6, 6), (5, 4, 3)]:
                res = search_by_type(G, lmn, budget=400, seed=seed * 31 + 5)
                if isinstance(res, HyperbolicTriple):
                    triples.append(res)
            if len(triples) >= 6:
                break
        checked = 0
        for i in range(len(triples)):
            for j in range(i, len(triples)):
                cert = condition_iii(G, triples[i], triples[j], cap=10 ** 6)
                brute_ok = _brute_force_condition_iii(G, triples[i], triples[j])
                assert isinstance(cert, (CoprimeOrders, ClassChecked)) == brute_ok, (
                    name, triples[i].orders, triples[j].orders)
                checked += 1
        assert checked >= 3, name


def test_gow_search():
    G = GroupHandle.from_matrix_spec(GroupSpec("SL", 3, 2))
    x0 = element_of_order(G, 3, seed=5)
    r = gow_search(G, x0, target_order=7, seed=9, require_generation=True)
    assert not isinstance(r, Exhausted)
    assert (x0 * r.y).order() == 7
    # returned y is a conjugate of x0 through the recorded witness
    assert r.y == x0.conjugate(r.witness)
    assert isinstance(verify_triple(G, x0, r.y), HyperbolicTriple)
    # impossible target exhausts
    r = gow_search(G, x0, target_order=1000, budget=200, seed=1)
    assert isinstance(r, Exhausted) and r.attempts == 200


def test_gow_search_symplectic_rank_two():
    # the small-symplectic kind of pairing: order 5 to 5 and order 9 to 9
    G = GroupHandle.from_matrix_spec(GroupSpec("Sp", 4, 3))
    for order, seed in ((5, 21), (9, 22)):
        x0 = element_of_order(G, order, seed=seed)
        r = gow_search(G, x0, target_order=order, seed=seed + 1)
        assert not isinstance(r, Exhausted)
        assert (x0 * r.y).order() == order


def test_gow_search_target_class():
    G = GroupHandle.from_matrix_spec(GroupSpec("SL", 3, 2))
    x0 = element_of_order(G, 3, seed=5)
    z0 = element_of_order(G, 7, seed=6)
    r = gow_search(G, x0, target_class=z0, seed=3)
    assert not isinstance(r, Exhausted)
    assert (x0 * r.y).order() == 7


def test_search_by_type_determinism_and_exhaustion():
    G = GroupHandle.from_matrix_spec(GroupSpec("SL", 2, 11))
    r1 = search_by_type(G, (5, 5, 11), budget=5000, seed=42)
    r2 = search_by_type(G, (5, 5, 11), budget=5000, seed=42)
    assert isinstance(r1, HyperbolicTriple)
    assert r1.x == r2.x and r1.y == r2.y
    assert isinstance(search_by_type(G, (2, 2, 2), budget=100, seed=1),
                      (Exhausted, HyperbolicTriple))
    r = search_by_type(G, (99, 5, 5), budget=50, seed=1)
    assert isinstance(r, Exhausted)


def test_structure_constant_sym3():
    s3 = perm_handle("Sym3", [cyc(3, (1, 2)), cyc(3, (2, 3))])
    transposition = cyc(3, (1, 2))
    rotation = cyc(3, (1, 2, 3))
    assert structure_constant(s3, transposition, transposition, rotation) == 3
    # exhaustive oracle
    els = mulclose(s3.perm_gens)
    cls_t = {g for g in els if g.cycle_type() == (2, 1)}
    count = sum(1 for a in cls_t for b in cls_t if a * b == rotation)
    assert count == 3
    # ab = identity forces b = a^-1, so the count is the class size (3);
    # against a class not containing the inverses it is 0
    assert structure_constant(s3, transposition, transposition,
                              Permutation.identity(3)) == 3
    assert structure_constant(s3, rotation, transposition,
                              Permutation.identity(3)) == 0


def test_structure_constant_alt5():
    alt5 = perm_handle("Alt5", [cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5))])
    five = cyc(5, (1, 2, 3, 4, 5))
    other = five * five  # the other class of 5-cycles
    got = structure_constant(alt5, five, five, other)
    els = mulclose(alt5.perm_gens)
    cls1 = class_orbit(five, alt5.perm_gens)
    assert len(cls1) == 12
    brute = sum(1 for a in cls1 for b in cls1 if a * b == other)
    assert got == brute > 0
