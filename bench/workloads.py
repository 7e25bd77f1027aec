"""The four benchmark workloads.

Each workload builds its inputs from the seed in set-up, runs one round of
fixed operations per `run_round()` call, and checks a round's outputs with
`check()` against the reference computations in `reference.py`.  An
operation is one call into the program: a catalog row, a class orbit, a
condition (iii) verdict, a structure constant, an identity suite at one q,
or one covers call.  An operation that raises counts as failed.
"""

from __future__ import annotations

import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from typing import List

from beauville import catalog, covers, ffield, identities, permgrp, structures

import reference as ref


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    outputs: List = field(default_factory=list)

    def attempt(self, label, fn, *args):
        """Run one operation; keep (label, result) unless it raised."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation {label} failed:", file=sys.stderr)
            traceback.print_exc()
            return
        self.outputs.append((label, result))


def intercept(module, name, record):
    """Replace module.name, as the module's own code calls it, by a wrapper
    that hands each result to record."""
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        record(result)
        return result

    setattr(module, name, wrapper)


# ---------------------------------------------------------------------------
# catalog


class Catalog:
    """The shipped catalog rows that verify at the default budget.

    OmegaMinus_8_2 is left out: its (5,5,5) half exhausts the 100,000
    attempt budget by design, about 150 s of one row.  Rows run at master
    seed 0, the shipped per-entry seeds: other master seeds change how many
    candidates a row's search rejects (SL_4_4 takes 8 s at master seeds 0
    and 1 and 94 s at 2), which would turn wall time into a measure of
    search luck.  The benchmark seed sets the order the rows run in.
    """

    ROWS = ("SL_3_2", "SL_3_3", "SL_4_2", "SL_4_3", "SL_4_4", "SL_5_2", "SL_2_7",
            "SL_2_8", "SL_2_11", "PSL_2_11_semisimple", "PSL_2_13_semisimple",
            "SL_2_17_semisimple", "SL_2_19_semisimple", "Sp_4_3", "Sp_4_5", "Sz_8", "M11")

    def __init__(self, seed):
        entries, base = catalog.load_catalog_file(catalog.shipped_catalog_path())
        by_name = {e.name: e for e in entries}
        self.rows = [by_name[name] for name in self.ROWS]
        self.options = catalog.CatalogOptions(base_dir=base)
        self.handles = {}
        for entry in self.rows:
            handle = catalog.realize_source(entry.source, base, declared_order=entry.order)
            if handle is None:
                raise RuntimeError(f"{entry.name}: source {entry.source} is missing")
            self.handles[entry.source] = handle
        random.Random(seed).shuffle(self.rows)
        # the triples a row receives from the search and verification layer
        self._captured = []
        for name in ("search_by_type", "verify_triple"):
            intercept(catalog, name, lambda result: self._captured.append(result))

    def _run_row(self, entry):
        self._captured = []
        report = catalog.run_entry(entry, self.options, self.handles)
        return entry, report, self._captured

    def run_round(self):
        out = Round()
        for entry in self.rows:
            out.attempt(entry.name, self._run_row, entry)
        return out

    def check(self, rnd):
        problems = []
        seen = set()
        for name, (entry, report, triples) in rnd.outputs:
            seen.add(name)
            problems += [f"{name}: {p}" for p in check_catalog_row(entry, report, triples)]
        if rnd.failed == 0 and seen != set(self.ROWS):
            problems.append(f"rows run: {sorted(seen)}")
        return problems


def check_catalog_row(entry, report, triples):
    problems = []
    if report.status != "Verified":
        problems.append(f"status {report.status}: {report.detail}")
    if len(triples) != 2:
        return problems + [f"{len(triples)} triples captured, expected 2"]
    if not all(hasattr(t, "orders") for t in triples):
        return problems + [f"not a triple: {triples}"]
    group_order = ref.source_order(entry.source)
    products = []
    for t, recipe in zip(triples, (entry.triple1, entry.triple2)):
        x, y, z = t.x.images, t.y.images, t.z.images
        if not ref.is_identity(ref.compose(ref.compose(x, y), z)):
            problems.append(f"{t.orders}: xyz != 1")
        orders = (ref.order(x), ref.order(y), ref.order(z))
        if orders != t.orders:
            problems.append(f"element orders {orders}, reported {t.orders}")
        if recipe.kind == "search" and orders != recipe.type_lmn:
            problems.append(f"element orders {orders}, recipe asks {recipe.type_lmn}")
        if not ref.is_hyperbolic(orders):
            problems.append(f"{orders} is not hyperbolic")
        generated = ref.sympy_order([x, y])
        if generated != group_order:
            problems.append(f"{orders}: <x, y> has order {generated}, |G| = {group_order}")
        products.append(math.prod(orders))
        if orders not in entry.expected_types:
            problems.append(f"{orders} not among expected {entry.expected_types}")
    if math.gcd(*products) != 1:
        problems.append(f"order products {products} are not coprime")
    return problems


# ---------------------------------------------------------------------------
# classes


def random_element(rng, gens, length=40):
    g = gens[rng.randrange(len(gens))]
    for _ in range(length):
        g = ref.compose(g, gens[rng.randrange(len(gens))])
    return g


def element_of_order(rng, gens, target):
    """A random element of the given order, as an image tuple."""
    while True:
        g = random_element(rng, gens)
        o = ref.order(g)
        if o % target == 0:
            return ref.power(g, o // target)


class Classes:
    """Class orbits with closed-form sizes, plus condition (iii) on triples
    that share a prime and structure constants.

    Centralizer orders: in Sz(q) the tori of orders q - 1 and
    q +- sqrt(2q) + 1 are self-centralizing, an involution has centralizer
    of order q^2 and an element of order 4 one of order 2q; in Sp(4, q) an
    element of order dividing q^2 + 1 has centralizer of that order; in
    SL(4, 3) an element of order 13 has centralizer of order 26, so its
    class (466,560 elements) runs into the default cap.
    """

    GROUPS = {"Sz8": "builtin:Sz:8", "Sp43": "builtin:Sp:4:3", "SL43": "builtin:SL:4:3"}
    ORBITS = (("Sz8", 5, 5), ("Sz8", 7, 7), ("Sz8", 13, 13), ("Sz8", 4, 16),
              ("Sz8", 2, 64), ("Sp43", 5, 10), ("SL43", 13, 26))
    # Type pairs in Sp(4, 3) whose order products share a prime, searched
    # at a fixed seed whose triples pass condition (iii), so both calls take
    # the ClassChecked path; search times at other seeds range over 0.05-3 s.
    CONDITION_TYPES = (((9, 9, 9), (5, 5, 6)), ((8, 8, 5), (6, 6, 9)))
    CONDITION_SEED = 1
    CAP = structures.DEFAULT_CAP
    SAMPLES = 3

    def __init__(self, seed):
        rng = random.Random(seed)
        self.groups = {key: catalog.realize_source(src, ".") for key, src in self.GROUPS.items()}
        self.gens = {key: [g.images for g in G.perm_gens] for key, G in self.groups.items()}
        self.orbits = []
        for key, el_order, centralizer in self.ORBITS:
            g = element_of_order(rng, self.gens[key], el_order)
            samples = [ref.conjugate(g, random_element(rng, self.gens[key]))
                       for _ in range(self.SAMPLES)]
            size = self.groups[key].expected_order // centralizer
            self.orbits.append((f"{key}/order{el_order}", key, permgrp.Permutation(g),
                                [permgrp.Permutation(s) for s in samples], size))
        sp = self.groups["Sp43"]
        self.triples = []
        for types in self.CONDITION_TYPES:
            pair = []
            for lmn in types:
                t = structures.search_by_type(sp, lmn, seed=self.CONDITION_SEED)
                if not isinstance(t, structures.HyperbolicTriple):
                    raise RuntimeError(f"no {lmn} triple in Sp(4,3): {t}")
                pair.append(t)
            self.triples.append(tuple(pair))
        c1 = element_of_order(rng, self.gens["Sp43"], 5)
        c2 = element_of_order(rng, self.gens["Sp43"], 3)
        self.constants = [permgrp.Permutation(v) for v in (c1, c2, ref.compose(c1, c2))]
        self._reference_verdicts = None

    def _orbit(self, key, g, samples):
        orbit = permgrp.class_orbit(g, self.groups[key].perm_gens, self.CAP)
        if orbit is permgrp.CAP_EXCEEDED:
            return "capped"
        return len(orbit), all(s in orbit for s in samples)

    def run_round(self):
        out = Round()
        for label, key, g, samples, _ in self.orbits:
            out.attempt(label, self._orbit, key, g, samples)
        sp = self.groups["Sp43"]
        for i, (t1, t2) in enumerate(self.triples):
            out.attempt(f"condition_iii/{i}", structures.condition_iii, sp, t1, t2, self.CAP)
        c1, c2, z = self.constants
        out.attempt("structure_constant/12", structures.structure_constant, sp, c1, c2, z)
        out.attempt("structure_constant/21", structures.structure_constant, sp, c2, c1, z)
        return out

    def reference_verdicts(self):
        if self._reference_verdicts is None:
            gens = self.gens["Sp43"]
            self._reference_verdicts = [reference_condition_iii(gens, t1, t2)
                                        for t1, t2 in self.triples]
        return self._reference_verdicts

    def check(self, rnd):
        results = dict(rnd.outputs)
        problems = []
        for label, _, _, _, size in self.orbits:
            if label not in results:
                continue
            problems += [f"{label}: {p}" for p in check_orbit(results[label], size, self.CAP)]
        for i, verdict in enumerate(self.reference_verdicts()):
            got = results.get(f"condition_iii/{i}")
            if got is not None and type(got).__name__ != verdict:
                problems.append(f"condition_iii/{i}: {got}, reference finds {verdict}")
        a12 = results.get("structure_constant/12")
        a21 = results.get("structure_constant/21")
        if a12 is not None and a21 is not None and (a12 != a21 or a12 < 1):
            problems.append(f"structure constants a(C1,C2;z) = {a12}, a(C2,C1;z) = {a21}")
        return problems


def check_orbit(result, size, cap):
    """An orbit result against the closed-form class size."""
    if size > cap:
        return [] if result == "capped" else [f"class of size {size} > cap {cap} gave {result}"]
    if result == "capped":
        return [f"class of size {size} <= cap {cap} reported capped"]
    count, samples_in = result
    problems = []
    if count != size:
        problems.append(f"orbit has {count} elements, |G|/|C(g)| = {size}")
    if not samples_in:
        problems.append("a conjugate of g is missing from its orbit")
    return problems


def reference_condition_iii(gens, t1, t2):
    """The condition (iii) verdict from reference class orbits: for each
    shared prime r, is some power of an order-r power in t2 conjugate to an
    order-r power in t1?"""
    els1 = [t1.x.images, t1.y.images, t1.z.images]
    els2 = [t2.x.images, t2.y.images, t2.z.images]
    prod1 = math.prod(ref.order(u) for u in els1)
    prod2 = math.prod(ref.order(v) for v in els2)
    common = math.gcd(prod1, prod2)
    if common == 1:
        return "CoprimeOrders"
    shared = [r for r in range(2, common + 1)
              if common % r == 0 and all(r % d for d in range(2, r))]
    for r in shared:
        for u in els1:
            if ref.order(u) % r:
                continue
            orbit = ref.class_orbit(ref.power(u, ref.order(u) // r), gens)
            for v in els2:
                if ref.order(v) % r:
                    continue
                v_r = ref.power(v, ref.order(v) // r)
                if any(ref.power(v_r, k) in orbit for k in range(1, r)):
                    return "Violation"
    return "ClassChecked"


# ---------------------------------------------------------------------------
# identities


def prime_power(q):
    """(p, a) with q = p^a, or None."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    a = 0
    while q % p == 0:
        q //= p
        a += 1
    return (p, a) if q == 1 else None


FIELDS = [q for q in range(2, 26) if prime_power(q)]
# each suite's domain of field orders, as the constructions require
SUITE_FIELDS = {
    "lineardim3": [q for q in FIELDS if q > 3],
    "u41": [q for q in FIELDS if q > 2],
    "u3": [q for q in FIELDS if q > 2],
    "sp42": [q for q in FIELDS if q >= 4],
}
MATRIX_BUILDERS = {
    "lineardim3": ("lineardim3_matrices",),
    "u41": ("u41_matrices",),
    "u3": ("u3_matrices",),
    "sp42": ("sp42_matrices_odd", "sp42_matrices_even"),
}


class Identities:
    """The charpoly identity suites at a fixed trial count over every
    field up to q = 25.  Draw i of a suite at the j-th field uses seed
    seed + 7919 j, as `run_identity_suite` does."""

    TRIALS = 100

    def __init__(self, seed):
        self.seed = seed
        for lemma, qs in SUITE_FIELDS.items():
            for q in qs:
                p, a = prime_power(q)
                ffield.get_field(p, a)
                if lemma in ("u41", "u3"):
                    ffield.get_field(p, 2 * a)
        self.draws = 0
        for names in MATRIX_BUILDERS.values():
            for name in names:
                intercept(identities, name, self._count_draw)

    def _count_draw(self, _matrices):
        self.draws += 1

    def _suite(self, lemma, q, seed):
        suite = getattr(identities, lemma + "_suite")
        before = self.draws
        mismatches = suite(q, self.TRIALS, seed)
        return mismatches, self.draws - before

    def run_round(self):
        out = Round()
        for lemma, qs in SUITE_FIELDS.items():
            for i, q in enumerate(qs):
                out.attempt((lemma, q), self._suite, lemma, q, self.seed + 7919 * i)
        return out

    def check(self, rnd):
        return check_identities(rnd, self.TRIALS)


def check_identities(rnd, trials):
    problems = []
    for (lemma, q), (mismatches, draws) in rnd.outputs:
        if mismatches:
            problems.append(f"{lemma} q={q}: {mismatches} mismatches")
        if draws != trials:
            problems.append(f"{lemma} q={q}: {draws} draws, expected {trials}")
    expected = {(lemma, q) for lemma, qs in SUITE_FIELDS.items() for q in qs}
    if rnd.failed == 0 and {label for label, _ in rnd.outputs} != expected:
        problems.append("suites run differ from the field list")
    return problems


# ---------------------------------------------------------------------------
# covers


class Covers:
    """The double-cover identities and triples in the Clifford algebra.

    neven_search runs only at n = 8 and at its default seed 0: its draw
    count depends on the seed (0.2 s to 3.4 s over seeds 0-24), and at
    n = 6 it fails for some seeds (see CHANGES.md), at n = 10 for most.
    The benchmark seed sets the order of the calls.
    """

    SUITE_N = tuple(range(3, 13))
    NODD_N = (7, 9, 11)
    NEVEN_N = (8,)

    def __init__(self, seed):
        self.calls = ([("suite", n) for n in self.SUITE_N]
                      + [("nodd", n) for n in self.NODD_N]
                      + [("neven", n) for n in self.NEVEN_N])
        random.Random(seed).shuffle(self.calls)
        self._standard = {}

    def run_round(self):
        out = Round()
        for kind, n in self.calls:
            if kind == "suite":
                out.attempt((kind, n), covers.order3_xsimz_suite, [n])
            elif kind == "nodd":
                out.attempt((kind, n), covers.nodd_triple, n)
            else:
                out.attempt((kind, n), covers.neven_search, n)
        return out

    def standard_y(self, n):
        """y of the standard pair at rank n, rebuilt outside the timed work."""
        if n not in self._standard:
            self._standard[n] = covers.standard_xy(covers.build_cover(n))
        return self._standard[n]

    def check(self, rnd):
        problems = []
        for (kind, n), result in rnd.outputs:
            if kind == "suite":
                found = check_suite_rows(result, n, self.standard_y(n))
            elif kind == "nodd":
                found = check_nodd(result, n)
            else:
                found = check_neven(result, n)
            problems += [f"{kind}({n}): {p}" for p in found]
        if rnd.failed == 0 and {label for label, _ in rnd.outputs} != set(self.calls):
            problems.append("covers calls run differ from the plan")
        return problems


def cover_y_order(n):
    return 3 if n % 2 else 6


def check_suite_rows(rows, n, standard_xy):
    problems = []
    if len(rows) != 1 or rows[0].n != n:
        return [f"rows {rows}"]
    row = rows[0]
    if row.y_order != cover_y_order(n) or not row.conjugation_identity:
        problems.append(f"row {row}")
    x, y = standard_xy
    if ref.clifford_order(list(y.vec), 12) != cover_y_order(n):
        problems.append(f"reference o(y) is not {cover_y_order(n)}")
    if list((x * y).vec) != ref.clifford_mul(list(x.vec), list(y.vec)):
        problems.append("x*y differs from the reference product")
    return problems


def check_nodd(result, n):
    problems = []
    u, v, w = result.triple
    alt = math.factorial(n) // 2
    if result.n != n or result.alt_order != alt:
        problems.append(f"n={result.n}, alt_order={result.alt_order}")
    if ref.sympy_order([u.perm.images, v.perm.images]) != alt:
        problems.append("projected pair does not generate Alt(n)")
    if ref.compose(u.perm.images, v.perm.images) != w.perm.images:
        problems.append("w does not project to u v")
    if list(w.vec) != ref.clifford_mul(list(u.vec), list(v.vec)):
        problems.append("w differs from the reference product u v")
    if ref.clifford_order(list(v.vec), 6) != 3:
        problems.append("reference o(v) is not 3")
    if ref.order(u.perm.images) != n or ref.order(w.perm.images) != n:
        problems.append("projections of u, w do not have order n")
    return problems


def check_neven(result, n):
    problems = []
    a, b = result
    if ref.sympy_order([a.perm.images, b.perm.images]) != math.factorial(n) // 2:
        problems.append("projected pair does not generate Alt(n)")
    ab = ref.clifford_mul(list(a.vec), list(b.vec))
    if list((a * b).vec) != ab:
        problems.append("a*b differs from the reference product")
    orders = (ref.order(a.perm.images), ref.order(b.perm.images),
              ref.order(ref.compose(a.perm.images, b.perm.images)))
    if orders != (5, n - 1, n - 1):
        problems.append(f"projected type {orders}")
    return problems


WORKLOADS = {"catalog": Catalog, "classes": Classes, "identities": Identities, "covers": Covers}
