from collections import Counter
from fractions import Fraction

import pytest

import beauville.structures as structures
from beauville.matgrp import (
    BadField,
    GroupSpec,
    SquareMatrix,
    lineardim3_triple,
    standard_generators,
    suzuki_generators,
)
from beauville.permgrp import (
    Permutation,
    RandomSource,
    alt_triple,
    class_orbit,
    matrix_to_perm,
    mulclose,
    orbit_partition,
    schreier_sims,
)
from beauville.structures import (
    ORBITS_DIFFER,
    OUTSIDE_G,
    PROPER_SUBGROUP,
    BeauvilleStructure,
    ClassChecked,
    CoprimeOrders,
    Exhausted,
    GroupHandle,
    HyperbolicTriple,
    NotGenerating,
    NotHyperbolic,
    Violation,
    _same_orbits,
    condition_iii,
    element_of_order,
    gow_search,
    search_by_type,
    structure_constant,
    verify_triple,
)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def test_lineardim3_pair_generates_sl3():
    for q, lmn in ((5, (5, 5, 12)), (7, (7, 7, 24)), (8, (4, 2, 63)), (9, (3, 3, 40)),
                   (13, (13, 13, 84))):
        G = GroupHandle.from_matrix_spec(GroupSpec("SL", 3, q))
        x, y, _ = lineardim3_triple(q)
        res = verify_triple(G, G.inject_matrix(x), G.inject_matrix(y))
        assert isinstance(res, HyperbolicTriple), (q, res)
        assert res.orders == lmn and res.certified_order == G.expected_order
    # over GF(4) the pair generates a subgroup of order 1080 only
    with pytest.raises(BadField, match="1080"):
        lineardim3_triple(4)


def test_verify_triple_diagnoses():
    x, y, _ = alt_triple(7)
    G = GroupHandle("Alt7", [x, y])
    res = verify_triple(G, x, y)
    assert isinstance(res, HyperbolicTriple) and res.orders == (5, 5, 5)

    s3 = GroupHandle("Sym3", [cyc(3, (1, 2)), cyc(3, (2, 3))])
    res = verify_triple(s3, s3.perm_gens[0], s3.perm_gens[1])
    assert isinstance(res, NotHyperbolic) and res.reciprocal_sum == Fraction(4, 3)

    G2 = GroupHandle.from_matrix_spec(GroupSpec("SL", 3, 2))
    one = Permutation.identity(G2.perm_gens[0].degree)
    res = verify_triple(G2, one, one)
    assert isinstance(res, NotGenerating) and res.subgroup_order == 1


def test_verify_triple_rejects_a_conjugate_subgroup():
    # PSL(2,5) on the 6 projective points; (2,3)(5,6) and (1,2,3,4,6)
    # generate a group of the same order and the same (single) orbit, but a
    # different conjugate inside Sym(6)
    perms, _, _ = matrix_to_perm(standard_generators(GroupSpec("SL", 2, 5)), "projective")
    G = GroupHandle("PSL2_5", perms, 60)
    x, y = cyc(6, (2, 3), (5, 6)), cyc(6, (1, 2, 3, 4, 6))
    assert schreier_sims([x, y]).order() == 60
    res = verify_triple(G, x, y)
    assert isinstance(res, NotGenerating) and res.reason == OUTSIDE_G
    assert res.subgroup_order == 60


def test_verify_triple_matches_full_schreier_sims_on_alt6():
    gens = [cyc(6, (1, 2, 3)), cyc(6, (2, 3, 4, 5, 6))]
    G = GroupHandle("Alt6", gens)
    full_G = schreier_sims(gens)
    alt6 = sorted(mulclose(gens), key=lambda g: g.images)
    sym6 = sorted(mulclose([cyc(6, (1, 2)), cyc(6, (1, 2, 3, 4, 5, 6))]),
                  key=lambda g: g.images)
    assert G.expected_order == len(alt6) == 360 and len(sym6) == 720
    rs = RandomSource(2024)
    # 2,000 pairs from Alt(6), then 200 from Sym(6) to reach the membership step
    pairs = [(alt6[rs.randrange(360)], alt6[rs.randrange(360)]) for _ in range(2000)]
    pairs += [(sym6[rs.randrange(720)], sym6[rs.randrange(720)]) for _ in range(200)]
    outcomes = Counter()
    for x, y in pairs:
        full = schreier_sims([x, y]).order()
        generates = full == 360 and full_G.contains(x) and full_G.contains(y)
        res = verify_triple(G, x, y)
        if not generates:
            assert isinstance(res, NotGenerating), (x, y)
            assert res.subgroup_order == full
            outcomes[res.reason] += 1
            if res.reason == PROPER_SUBGROUP and full == 60:
                outcomes["transitive Alt(5)"] += 1
            continue
        z = (x * y).inverse()
        hyperbolic = sum(Fraction(1, g.order()) for g in (x, y, z)) < 1
        assert isinstance(res, HyperbolicTriple if hyperbolic else NotHyperbolic), (x, y)
        outcomes["accept" if hyperbolic else "not hyperbolic"] += 1
    # every step of verify_triple decides some of the sample
    assert outcomes[ORBITS_DIFFER] and outcomes[OUTSIDE_G]
    assert outcomes["transitive Alt(5)"] and outcomes["accept"]


# every SL, Sp and SU spec (quotient flag last) that the shipped catalog
# and the tests realize
CLASSICAL_REALIZATIONS = [
    *[("SL", 2, q, False) for q in (5, 7, 8, 11, 13, 17, 19)],
    *[("SL", 3, q, False) for q in (2, 3, 4, 5, 7, 8, 9, 13)],
    ("SL", 4, 2, False), ("SL", 4, 3, False), ("SL", 4, 4, False), ("SL", 5, 2, False),
    ("Sp", 4, 3, False), ("Sp", 4, 4, False), ("Sp", 4, 5, False),
    ("SU", 3, 3, False), ("SU", 4, 2, False),
    ("SL", 2, 11, True), ("SL", 2, 13, True),
]


@pytest.mark.parametrize("family,d,q,quotient", CLASSICAL_REALIZATIONS)
def test_stopped_realization_equals_full_build(family, d, q, quotient):
    G = GroupHandle.from_matrix_spec(GroupSpec(family, d, q), quotient=quotient)
    stopped, full = G.bsgs, schreier_sims(G.perm_gens)
    assert stopped.base == full.base
    assert [list(t) for t in stopped.transversals] == [list(t) for t in full.transversals]
    assert stopped.order() == full.order() == G.expected_order
    rep = G.replacer(RandomSource(d * 1000 + q))
    degree = G.perm_gens[0].degree
    members = [rep.random_element() for _ in range(20)]
    # no group here holds a transposition: it would fix degree - 2 >= 3
    # points, and so a spanning set of vectors or points
    odd = Permutation.from_cycles(degree, [(1, 2)])
    for g in members:
        assert stopped.contains(g) and full.contains(g)
    for g in (odd, Permutation.identity(degree + 1)):
        assert not stopped.contains(g) and not full.contains(g)


def test_failed_membership_proof_builds_in_full(monkeypatch):
    builds = []

    def recording_schreier_sims(gens, *args, **kwargs):
        bsgs = schreier_sims(gens, *args, **kwargs)
        builds.append((kwargs.get("known_order"), bsgs))
        return bsgs

    monkeypatch.setattr(structures, "schreier_sims", recording_schreier_sims)
    spec = GroupSpec("SL", 2, 3)
    gens = standard_generators(spec)
    ctx = gens[0].ctx
    # diag(-1, 1) has determinant -1: with it <gens> is GL(2, 3), order 48
    monkeypatch.setattr(structures, "standard_generators",
                        lambda _: (*gens, SquareMatrix(ctx, [[2, 0], [0, 1]])))
    with pytest.raises(ValueError, match="BSGS order 48 != formula/declared 24"):
        GroupHandle.from_matrix_spec(spec)
    (known, _), = builds
    assert known is None
    # a proper subgroup passes the proof, but never reaches |G| = 24: it
    # builds to completion and fails the same order check
    builds.clear()
    monkeypatch.setattr(structures, "standard_generators", lambda _: gens[:1])
    with pytest.raises(ValueError, match="!= formula/declared 24"):
        GroupHandle.from_matrix_spec(spec)
    (known, bsgs), = builds
    assert known == 24 and bsgs.order() == 3


def test_inject_matrix_cross_checks_only_faithful_actions(monkeypatch):
    # SL(2,5) acts faithfully on vectors; PSL(2,5) on projective points
    # loses -I, so a matrix need not have the order of its image there
    x = standard_generators(GroupSpec("SL", 2, 5))[0]
    for quotient in (False, True):
        G = GroupHandle.from_matrix_spec(GroupSpec("SL", 2, 5), quotient=quotient)
        assert G.faithful is not quotient
        assert G.inject_matrix(x).order() == 5
        one = Permutation.identity(G.perm_gens[0].degree)
        monkeypatch.setattr(G.action, "permutation", lambda M: one)
        if quotient:
            assert G.inject_matrix(x) is one
        else:
            with pytest.raises(AssertionError):
                G.inject_matrix(x)


def test_permutation_handle_checks_its_declared_order():
    gens = [cyc(6, (1, 2, 3)), cyc(6, (2, 3, 4, 5, 6))]
    with pytest.raises(ValueError, match="BSGS order 360 != formula/declared 720"):
        GroupHandle("Alt6", gens, 720)
    assert GroupHandle("Alt6", gens, 360).expected_order == 360


def test_handle_without_a_bsgs_builds_the_full_one():
    # a handle given no BSGS keeps the structure of a fresh full build
    x, y, _ = alt_triple(7)
    G = GroupHandle("Alt7", [x, y])
    full = schreier_sims([x, y])
    assert G.bsgs.base == full.base and G.expected_order == full.order() == 2520
    assert ([{pt: rep.images for pt, rep in t.items()} for t in G.bsgs.transversals]
            == [{pt: rep.images for pt, rep in t.items()} for t in full.transversals])


def test_same_orbits_matches_orbit_partition():
    sl44 = GroupHandle.from_matrix_spec(GroupSpec("SL", 4, 4))
    sz8 = GroupHandle.from_matrix_spec(suzuki_generators(8))
    assert len(set(sl44.orbits)) == 1 and len(set(sz8.orbits)) > 1
    rs = RandomSource(4242)
    outcomes = Counter()
    for G in (sl44, sz8):
        rep = G.replacer(RandomSource(7))
        labellings = [G.orbits]
        for _ in range(20):
            # cyclic subgroups and random pairs: mostly fewer orbits than G,
            # sometimes the same ones
            x, y = rep.random_element(), rep.random_element()
            for gens in ((x, y), (x, x ** 2), (x,)):
                labels = orbit_partition(gens)
                labellings.append(labels)
                for target in labellings[-4:]:
                    same = _same_orbits(gens, target)
                    assert same == (labels == target)
                    outcomes[same] += 1
                # mutated labels: one point moved to another orbit's label,
                # and one orbit minimum relabelled
                p = rs.randrange(len(labels))
                moved = list(labels)
                moved[p] = labels[(p + 1 + rs.randrange(len(labels) - 1)) % len(labels)]
                minimum = list(labels)
                m = labels[p]
                minimum[m] = labels[-1] if labels[-1] != m else labels[0]
                for mutant in (tuple(moved), tuple(minimum)):
                    assert _same_orbits(gens, mutant) == (labels == mutant)
                    outcomes[labels == mutant] += 1
    assert outcomes[True] and outcomes[False]


def test_condition_iii_coprime_fast_path():
    G = GroupHandle.from_matrix_spec(GroupSpec("SL", 3, 2))
    t1 = search_by_type(G, (4, 4, 4), seed=1)
    t2 = search_by_type(G, (3, 3, 7), seed=2)
    cert = condition_iii(G, t1, t2)
    assert isinstance(cert, CoprimeOrders) and cert.products == (64, 63)
    bs = BeauvilleStructure(t1, t2, cert)
    assert bs.types == ((4, 4, 4), (3, 3, 7))


@pytest.mark.parametrize("types,checks", [
    (((9, 9, 9), (5, 5, 6)), ((3, 0, 1), (3, 1, 1), (3, 2, 1))),
    (((8, 8, 5), (6, 6, 9)), ((2, 0, 2), (2, 1, 2))),
])
def test_condition_iii_class_checked_in_sp43(types, checks):
    # order products sharing a prime, at a seed whose triples pass
    G = GroupHandle.from_matrix_spec(GroupSpec("Sp", 4, 3))
    t1, t2 = (search_by_type(G, lmn, seed=1) for lmn in types)
    cert = condition_iii(G, t1, t2)
    assert cert == ClassChecked(checks)
    assert _brute_force_condition_iii(G, t1, t2)


def test_condition_iii_violation_on_equal_triples():
    x, y, _ = alt_triple(7)
    G = GroupHandle("Alt7", [x, y])
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
            G = GroupHandle(name, gens)
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
    s3 = GroupHandle("Sym3", [cyc(3, (1, 2)), cyc(3, (2, 3))])
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
    alt5 = GroupHandle("Alt5", [cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5))])
    five = cyc(5, (1, 2, 3, 4, 5))
    other = five * five  # the other class of 5-cycles
    got = structure_constant(alt5, five, five, other)
    els = mulclose(alt5.perm_gens)
    cls1 = class_orbit(five, alt5.perm_gens)
    assert len(cls1) == 12
    brute = sum(1 for a in cls1 for b in cls1 if a * b == other)
    assert got == brute > 0


def test_structure_constant_matches_brute_force():
    alt5 = GroupHandle("Alt5", [cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5))])
    reps = [cyc(5, (1, 2), (3, 4)), cyc(5, (1, 2, 3)), cyc(5, (1, 2, 3, 4, 5)),
            cyc(5, (1, 3, 5, 2, 4))]
    classes = [class_orbit(c, alt5.perm_gens) for c in reps]
    for c1, cls1 in zip(reps, classes):
        for c2, cls2 in zip(reps, classes):
            for z in reps + [Permutation.identity(5)]:
                brute = sum(1 for a in cls1 for b in cls2 if a * b == z)
                assert structure_constant(alt5, c1, c2, z) == brute
                assert structure_constant(alt5, c2, c1, z) == brute
    # Sp(4, 3) on 80 vectors: count a in C1 with a^-1 z in C2 element by element
    sp = GroupHandle.from_matrix_spec(GroupSpec("Sp", 4, 3))
    c1, c2, c3 = (element_of_order(sp, k, seed=2) for k in (5, 3, 4))
    for x, y, z in ((c1, c2, c1 * c2), (c1, c3, c1 * c3), (c2, c3, c1)):
        clx = class_orbit(x, sp.perm_gens)
        cly = class_orbit(y, sp.perm_gens)
        brute = sum(1 for a in clx if a.inverse() * z in cly)
        assert structure_constant(sp, x, y, z) == brute
        assert structure_constant(sp, y, x, z) == brute
