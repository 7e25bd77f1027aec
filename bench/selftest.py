"""Self-test of the benchmark's output checks.

For each workload, a true answer from the program must pass its check and
one planted wrong answer must fail it.  Takes about ten seconds.

    PYTHONPATH=src python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import random
import sys

from beauville import catalog, covers, permgrp, structures

import workloads


def catalog_case():
    entries, base = catalog.load_catalog_file(catalog.shipped_catalog_path())
    entry = next(e for e in entries if e.name == "SL_3_2")
    G = catalog.realize_source(entry.source, base)
    triples = [structures.search_by_type(G, r.type_lmn, seed=r.seed)
               for r in (entry.triple1, entry.triple2)]
    report = catalog.EntryReport(entry.name, "Verified")
    t = triples[0]
    y2 = t.y * t.y
    planted = dataclasses.replace(t, y=y2, z=(t.x * y2).inverse())
    return ("triple with y replaced by y^2",
            lambda ts: workloads.check_catalog_row(entry, report, ts),
            triples, [planted, triples[1]])


def classes_case():
    G = catalog.realize_source("builtin:Sp:4:3", ".")
    gens = [g.images for g in G.perm_gens]
    g = workloads.element_of_order(random.Random(0), gens, 5)
    orbit = permgrp.class_orbit(permgrp.Permutation(g), G.perm_gens)
    size = G.expected_order // 10
    truth = (len(orbit), True)
    return ("class size off by one",
            lambda result: workloads.check_orbit(result, size, structures.DEFAULT_CAP),
            truth, (truth[0] + 1, True))


def identities_case():
    w = workloads.Identities(0)
    rnd = w.run_round()
    label, (mismatches, draws) = rnd.outputs[0]
    planted = workloads.Round(rnd.attempted, rnd.failed,
                              [(label, (mismatches, draws - 1))] + rnd.outputs[1:])
    return ("one suite one draw short",
            lambda r: workloads.check_identities(r, w.TRIALS), rnd, planted)


def covers_case():
    result = covers.nodd_triple(7)
    u, v, w = result.triple
    planted = dataclasses.replace(result, triple=(u, v * v, w))
    return ("nodd triple with y replaced by y^2",
            lambda r: workloads.check_nodd(r, 7), result, planted)


def main():
    ok = True
    for name, case in (("catalog", catalog_case), ("classes", classes_case),
                       ("identities", identities_case), ("covers", covers_case)):
        what, check, truth, planted = case()
        true_problems = check(truth)
        planted_problems = check(planted)
        if true_problems:
            ok = False
            print(f"{name}: FAIL, the true answer is rejected: {true_problems}")
        elif not planted_problems:
            ok = False
            print(f"{name}: FAIL, planted wrong answer ({what}) is accepted")
        else:
            print(f"{name}: ok, planted wrong answer ({what}) rejected: {planted_problems[0]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
