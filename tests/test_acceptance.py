"""Acceptance suite: one test per criterion, each printing a PASS line.

Three sub-items are unattainable as stated and fail with an explicit
finite certificate in the failure message: the (5,5,5) half of the
minus-type row over GF(2), and the two even-order semisimple types at the
matrix level for SL2(11)/SL2(13).  Everything else must pass at the
stated tolerances.
"""

import math
import time

import pytest

from beauville.catalog import CatalogOptions, load_catalog_file, run_catalog, shipped_catalog_path
from beauville.covers import cover_order, nodd_triple, order3_xsimz_suite
from beauville.identities import run_identity_suite
from beauville.matgrp import (
    GroupSpec,
    omega_minus_char2_generators,
    sp42_triple,
    standard_generators,
)
from beauville.numtheory import (
    Classification,
    cyclotomic_value,
    is_large_exception,
    zsigmondy,
    zsigmondy_exists_oracle,
)
from beauville.permgrp import (
    Permutation,
    RandomSource,
    alt_triple,
    class_orbit,
    matrix_to_perm,
    mulclose,
    schreier_sims,
)
from beauville.structures import (
    ClassChecked,
    CoprimeOrders,
    Exhausted,
    GroupHandle,
    HyperbolicTriple,
    condition_iii,
    search_by_type,
    structure_constant,
    verify_triple,
)

A_RANGE = range(2, 101)
N_RANGE = range(2, 41)


def _ok(n, message):
    print(f"\n[acceptance] criterion {n}: PASS - {message}")


def test_criterion_01_zsigmondy_exhaustive():
    start = time.monotonic()
    none_set = {(a, n) for a in A_RANGE for n in N_RANGE
                if not zsigmondy(a, n).zeta_exists}
    expected = {(2, 6)} | {(a, 2) for a in A_RANGE if (a + 1) & a == 0}
    assert none_set == expected
    oracle = {(a, n) for a in A_RANGE for n in N_RANGE
              if not zsigmondy_exists_oracle(a, n)}
    assert oracle == none_set
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _ok(1, f"no-Zsigmondy set matches on 99x39 grid in {elapsed:.1f}s")


def test_criterion_02_feit_exhaustive():
    start = time.monotonic()
    small = {(a, n) for a in A_RANGE for n in N_RANGE
             if zsigmondy(a, n).classification is Classification.SMALL}
    # the exception list covers the no-prime pairs and the (2,6) convention;
    # Small classification is exactly the rest of it
    expected_small = {(a, n) for a in A_RANGE for n in N_RANGE
                      if is_large_exception(a, n)
                      and zsigmondy(a, n).zeta_exists and (a, n) != (2, 6)}
    assert small == expected_small
    # and the honest no-large-prime set is exactly the exception list
    no_large = {(a, n) for a in A_RANGE for n in N_RANGE
                if zsigmondy(a, n).classification is not Classification.LARGE
                or (a, n) == (2, 6)}
    assert no_large == {(a, n) for a in A_RANGE for n in N_RANGE
                        if is_large_exception(a, n)}
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _ok(2, f"Small set equals the exception list in {elapsed:.1f}s")


def test_criterion_03_anchored_constants():
    assert zsigmondy(3, 5).lam == 121
    r = zsigmondy(2, 11)
    assert r.zeta == 89 and (2 ** 11 - 1) == 23 * 89
    r26 = zsigmondy(2, 6)
    assert r26.zeta is None and r26.lam == 9
    assert r26.classification is Classification.LARGE
    assert cyclotomic_value(15, 2) == 151
    assert cyclotomic_value(18, 3) == 703
    assert cyclotomic_value(12, 2) * cyclotomic_value(3, 2) == 91
    _ok(3, "all anchored constants exact")


SL_ROWS = {
    "SL_3_2": ((4, 4, 4), (3, 3, 7)),
    "SL_3_3": ((4, 4, 8), (3, 3, 13)),
    "SL_4_2": ((4, 4, 4), (3, 3, 15)),
    "SL_4_3": ((8, 8, 8), (9, 9, 13)),
    "SL_4_4": ((4, 4, 17), (3, 3, 15)),
    "SL_5_2": ((4, 4, 14), (3, 3, 15)),
}


def test_criterion_04_sl_table_rows():
    start = time.monotonic()
    entries, base = load_catalog_file(shipped_catalog_path())
    selected = [e for e in entries if e.name in SL_ROWS]
    report = run_catalog(selected, CatalogOptions(base_dir=base))
    for entry in report.entries:
        assert entry.status == "Verified", (entry.group, entry.status, entry.detail)
        assert set(entry.types) == set(SL_ROWS[entry.group]), entry.group
        assert entry.certificate == "CoprimeOrders"
    # larger rows are present and marked with reasons
    by_name = {e.name: e for e in entries}
    for name in ("SL_4_16", "SL_6_7", "SL_5_7", "SL_4_11"):
        assert by_name[name].infeasible, name
    elapsed = time.monotonic() - start
    assert elapsed < 600
    _ok(4, f"six SL rows verified end-to-end in {elapsed:.1f}s")


def test_criterion_05_small_symplectic():
    start = time.monotonic()
    # Sp4(3): full Beauville structure of types ((5,5,5),(9,9,9))
    G3 = GroupHandle.from_matrix_spec(GroupSpec("Sp", 4, 3))
    t1 = search_by_type(G3, (5, 5, 5), seed=127)
    t2 = search_by_type(G3, (9, 9, 9), seed=128)
    assert isinstance(t1, HyperbolicTriple) and isinstance(t2, HyperbolicTriple)
    assert isinstance(condition_iii(G3, t1, t2), CoprimeOrders)
    # Sp4(4): type (4,4,17) from the explicit construction
    G4 = GroupHandle.from_matrix_spec(GroupSpec("Sp", 4, 4))
    x, y, _ = sp42_triple(4)
    res = verify_triple(G4, G4.inject_matrix(x), G4.inject_matrix(y))
    assert isinstance(res, HyperbolicTriple) and res.orders == (4, 4, 17)
    # Sp4(5): type (8,8,13) by search
    G5 = GroupHandle.from_matrix_spec(GroupSpec("Sp", 4, 5))
    t = search_by_type(G5, (8, 8, 13), seed=5)
    assert isinstance(t, HyperbolicTriple) and t.orders == (8, 8, 13)
    # and the construction triple (5,5,13) verifies too
    x, y, _ = sp42_triple(5)
    res = verify_triple(G5, G5.inject_matrix(x), G5.inject_matrix(y))
    assert isinstance(res, HyperbolicTriple) and res.orders == (5, 5, 13)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _ok(5, f"Sp4(3)/(4)/(5) items verified in {elapsed:.1f}s")


def test_criterion_06_omega_minus_17s():
    start = time.monotonic()
    G = GroupHandle.from_matrix_spec(omega_minus_char2_generators(8))
    t = search_by_type(G, (17, 17, 17), seed=132)
    assert isinstance(t, HyperbolicTriple) and t.orders == (17, 17, 17)
    elapsed = time.monotonic() - start
    assert elapsed < 600
    _ok(6, f"(17,17,17) verified in the minus-type group in {elapsed:.1f}s "
           "(the (5,5,5) half is covered by its own test)")


def test_criterion_06_omega_minus_555_as_printed():
    """Faithful attempt at the printed (5,5,5) half of the row.

    Every order-5 element of the minus-type group over GF(2) fixes a
    4-space pointwise (the free module type would need a plus-type space),
    and sampled order-5 products always share fixed vectors, so no (5,5,5)
    triple can generate.  The search is still attempted as specified; if it
    ever succeeds the criterion passes.
    """
    G = GroupHandle.from_matrix_spec(omega_minus_char2_generators(8))
    result = search_by_type(G, (5, 5, 5), budget=40000, seed=131)
    if isinstance(result, HyperbolicTriple):
        _ok(6, f"(5,5,5) verified: {result.orders}")
        return
    # certificate: order-5 elements fix 4-spaces; order-5 products of
    # order-5 pairs always have a common fixed point
    rep = G.replacer(RandomSource(9))
    def of_order_5():
        while True:
            g = rep.random_element()
            o = g.order()
            if o % 5 == 0:
                return g ** (o // 5)
    a = of_order_5()
    assert sum(1 for i in range(a.degree) if a.images[i] == i) == 15  # 4-space
    shared = checked = 0
    while checked < 40:
        b = a.conjugate(rep.random_element())
        if (a * b).order() != 5:
            continue
        checked += 1
        if any(a.images[i] == i == b.images[i] for i in range(a.degree)):
            shared += 1
    assert shared == checked == 40
    pytest.fail(
        "(5,5,5) is unattainable in the minus-type orthogonal group over "
        "GF(2): every order-5 element fixes a 4-space pointwise and all 40 "
        "sampled order-5 products of order-5 pairs share a fixed vector, so "
        "such pairs generate point stabilizers only.  The printed row "
        "matches the plus-type group instead (where (5,5,5) verifies but no "
        "element of order 17 exists).")


def test_criterion_07_alt_triples():
    start = time.monotonic()
    for n in range(7, 16):
        x, y, expected = alt_triple(n)  # asserts BSGS order n!/2 internally
        if n % 2:
            assert expected == (n - 2, n - 2, 5)
        else:
            assert expected == (math.lcm(3, n - 3), n - 2, 3)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _ok(7, f"Alt(7..15) triples certified in {elapsed:.1f}s")


def test_criterion_08_covers():
    start = time.monotonic()
    rows = order3_xsimz_suite(range(3, 13))
    for row in rows:
        assert row.y_order == (3 if row.n % 2 else 6)
        assert row.conjugation_identity
    for n in (7, 9, 11):
        res = nodd_triple(n)
        u, v, w = res.triple
        assert (cover_order(u), cover_order(v), cover_order(w)) == (n, 3, n)
        assert res.alt_order == math.factorial(n) // 2
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _ok(8, f"cover identities for n in 3..12 and nodd 7/9/11 in {elapsed:.1f}s")


def test_criterion_09_charpoly_identity_suites():
    start = time.monotonic()
    failures = run_identity_suite("all", qmax=25, trials=1000, seed=0)
    assert failures == 0
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _ok(9, f"4 identity suites, 1000 draws per field up to q=25, "
           f"zero mismatches in {elapsed:.1f}s")


def test_criterion_10_sl2_rows():
    start = time.monotonic()
    expected = {
        (11, (5, 5, 11)), (11, (12, 12, 12)), (11, (5, 5, 5)),
        (13, (7, 7, 13)),
        (17, (9, 9, 17)), (17, (8, 8, 8)),
        (19, (10, 10, 19)), (19, (9, 9, 9)),
        (7, (8, 8, 8)), (7, (7, 7, 3)),
    }
    for i, (q, lmn) in enumerate(sorted(expected)):
        G = GroupHandle.from_matrix_spec(GroupSpec("SL", 2, q))
        res = search_by_type(G, lmn, seed=17 + i)
        assert isinstance(res, HyperbolicTriple), (q, lmn, res)
        assert res.orders == lmn
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _ok(10, f"8 attainable matrix-level types plus the two special rows "
            f"verified in {elapsed:.1f}s (even-order types in their own test)")


@pytest.mark.parametrize("q,lmn,psl_order", [(11, (6, 6, 11), 660), (13, (6, 6, 6), 1092)])
def test_criterion_10_even_types_as_printed(q, lmn, psl_order):
    """Faithful attempt at the matrix-level even-order semisimple types.

    Exhaustive over the class products: in SL2(11) a product of two
    order-6 matrices never has order 11, and in SL2(13) pairs of order-6
    matrices never generate (both cube to the central involution, so the
    projective image satisfies the Euclidean (3,3,3) relation).  The types
    do exist in the projective quotient, where they are verified here
    before reporting the matrix-level failure.
    """
    G = GroupHandle.from_matrix_spec(GroupSpec("SL", 2, q))
    result = search_by_type(G, lmn, budget=20000, seed=3)
    if isinstance(result, HyperbolicTriple):
        _ok(10, f"SL2({q}) type {lmn} verified")
        return
    # exhaustive certificate over the full order-6 class products
    els = mulclose(G.perm_gens, cap=4000)
    sixes = [g for g in els if g.order() == 6]
    # one class, so pairs (x, y) with x over any part of it cover every
    # pair up to simultaneous conjugation
    assert len(class_orbit(sixes[0], G.perm_gens)) == len(sixes)
    witness_orders = set()
    generating = 0
    for x in sixes[:30]:
        for y in sixes:
            prod = x * y
            witness_orders.add(prod.order())
            if prod.order() == lmn[2] and schreier_sims([x, y]).order() == G.expected_order:
                generating += 1
    assert generating == 0
    # the projective quotient does carry the type
    P = GroupHandle.from_matrix_spec(GroupSpec("SL", 2, q), quotient=True)
    assert P.expected_order == psl_order
    psl = search_by_type(P, lmn, seed=4)
    assert isinstance(psl, HyperbolicTriple) and psl.orders == lmn
    pytest.fail(
        f"type {lmn} is unattainable in SL2({q}) at the matrix level: over "
        f"the full order-6 class, product orders are {sorted(witness_orders)} "
        f"with no generating pair of the required type; the projective "
        f"quotient does realize it (verified above).")


def test_criterion_11_sporadic_words():
    entries, base = load_catalog_file(shipped_catalog_path())
    selected = [e for e in entries if e.name in ("M11", "M23", "M24")]
    report = run_catalog(selected, CatalogOptions(base_dir=base))
    by_name = {e.group: e for e in report.entries}
    m11 = by_name["M11"]
    assert m11.status == "Verified"
    assert set(m11.types) == {(6, 6, 6), (11, 11, 11)}
    for name in ("M23", "M24"):
        assert by_name[name].status == "Skipped"
        assert "not present" in by_name[name].detail
    _ok(11, "M11 words verified from the shipped file; M23/M24 skipped cleanly")


def _alt5_handle():
    gens = [Permutation.from_cycles(5, [(1, 2, 3)]),
            Permutation.from_cycles(5, [(3, 4, 5)])]
    return GroupHandle("Alt5", gens)


def test_criterion_12_alt5_negative_control():
    start = time.monotonic()
    G = _alt5_handle()
    els = sorted(mulclose(G.perm_gens), key=lambda g: g.images)
    assert len(els) == 60
    # class id for every element, then the set of classes hit by the
    # nontrivial powers of each element
    reps = []
    cls_of = {}
    for g in els:
        if g in cls_of:
            continue
        orbit = class_orbit(g, G.perm_gens)
        idx = len(reps)
        reps.append(g)
        for h in orbit:
            cls_of[h] = idx
    assert len(reps) == 5
    power_classes = {g: frozenset(cls_of[g ** k] for k in range(1, g.order()))
                     for g in els}
    triples = []
    for x in els:
        for y in els:
            res = verify_triple(G, x, y)
            if isinstance(res, HyperbolicTriple):
                triples.append(res)
    assert triples, "Alt(5) does have single hyperbolic triples"
    fingerprints = {frozenset().union(power_classes[t.x], power_classes[t.y],
                                      power_classes[t.z])
                    for t in triples}
    # every pair of fingerprints intersects: condition (iii) always fails
    for f1 in fingerprints:
        for f2 in fingerprints:
            assert f1 & f2, "found a Beauville-compatible pair in Alt(5)"
    # spot-check the reduction agrees on a few explicit pairs
    for i in (0, len(triples) // 2):
        cert = condition_iii(G, triples[i], triples[-1 - i])
        assert not isinstance(cert, (CoprimeOrders, ClassChecked))
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _ok(12, f"all {len(triples)} hyperbolic triples of Alt(5) pairwise violate "
            f"condition (iii) ({elapsed:.1f}s)")


def test_criterion_12_sl2_5_negative_control():
    gens, _, _ = matrix_to_perm(standard_generators(GroupSpec("SL", 2, 5)), "vectors")
    G = GroupHandle("SL2_5", gens)
    assert G.expected_order == 120
    els = sorted(mulclose(G.perm_gens), key=lambda g: g.images)
    reps = []
    cls_of = {}
    for g in els:
        if g not in cls_of:
            orbit = class_orbit(g, G.perm_gens)
            idx = len(reps)
            reps.append(g)
            for h in orbit:
                cls_of[h] = idx
    power_classes = {g: frozenset(cls_of[g ** k] for k in range(1, g.order()))
                     for g in els}
    triples = []
    for x in els:
        for y in els:
            res = verify_triple(G, x, y)
            if isinstance(res, HyperbolicTriple):
                triples.append(res)
    fingerprints = {frozenset().union(power_classes[t.x], power_classes[t.y],
                                      power_classes[t.z]) for t in triples}
    for f1 in fingerprints:
        for f2 in fingerprints:
            assert f1 & f2, "found a Beauville-compatible pair in SL2(5)"
    _ok(12, f"SL2(5) regression: {len(triples)} triples, no compatible pair")


def test_criterion_13_property_suites():
    start = time.monotonic()
    # BSGS order vs exhaustive enumeration, groups of order <= 10^4
    def cyc(n, *cycles):
        return Permutation.from_cycles(n, list(cycles))
    suite = [
        [cyc(3, (1, 2)), cyc(3, (1, 2, 3))],
        [cyc(4, (1, 2)), cyc(4, (1, 2, 3, 4))],
        [cyc(4, (1, 2, 3)), cyc(4, (2, 3, 4))],
        [cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5))],
        [cyc(6, (1, 2)), cyc(6, (1, 2, 3, 4, 5, 6))],
        [cyc(7, (1, 2, 3)), cyc(7, (1, 2, 3, 4, 5, 6, 7))],
        [cyc(11, (2, 10), (4, 11), (5, 7), (8, 9)),
         cyc(11, (1, 4, 3, 8), (2, 5, 6, 9))],  # M11, order 7920
        list(matrix_to_perm(standard_generators(GroupSpec("SL", 3, 2)),
                            "projective")[0]),
    ]
    for gens in suite:
        order = schreier_sims(gens).order()
        assert order <= 10 ** 4
        assert order == len(mulclose(gens))
    # structure constants vs exhaustive enumeration
    s3 = GroupHandle("Sym3", [cyc(3, (1, 2)), cyc(3, (2, 3))])
    assert structure_constant(s3, cyc(3, (1, 2)), cyc(3, (1, 2)),
                              cyc(3, (1, 2, 3))) == 3
    alt5 = _alt5_handle()
    five = cyc(5, (1, 2, 3, 4, 5))
    cls = class_orbit(five, alt5.perm_gens)
    target = five * five
    brute = sum(1 for a in cls for b in cls if a * b == target)
    assert structure_constant(alt5, five, five, target) == brute > 0
    # determinism: same master seed, canonically identical reports
    entries, base = load_catalog_file(shipped_catalog_path())
    subset = [e for e in entries if e.name in ("SL_3_2", "Sp_4_3", "M11", "SL_4_16")]
    r1 = run_catalog(subset, CatalogOptions(master_seed=11, base_dir=base))
    r2 = run_catalog(subset, CatalogOptions(master_seed=11, base_dir=base))
    assert r1.canonical_json() == r2.canonical_json()
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _ok(13, f"BSGS/structure-constant/determinism suites in {elapsed:.1f}s "
            "(the condition-iii reduction oracle runs in test_structures)")
