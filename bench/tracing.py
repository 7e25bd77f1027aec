"""Per-layer tracing for the traced benchmark run.

Wrappers are installed from outside the program, around the public
functions and operators of each `beauville` module.  Coarse calls (catalog
rows, searches, BSGS builds, class orbits, charpolys, ...) record a span
(name, start, end, parent); hot operators (permutation products, Clifford
products, field enumerations, ...) record only a count and a duration,
since a span per product would cost more memory than the work it measures.
Everything is kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

from beauville import catalog, covers, ffield, identities, matgrp, numtheory, permgrp, structures

SUITES = ("lineardim3", "u41", "u3", "sp42")


class Tracer:
    """Spans, counts and durations for one process."""

    def __init__(self):
        self.spans = []           # (name, start, end, parent index or -1)
        self._stack = []
        self.open = Counter()     # span names currently open
        self.durations = defaultdict(lambda: array("d"))
        self.counts = Counter()
        self.setup_durations = None

    # -- recording

    def span(self, name, fn, key=None, after=None):
        """Wrap fn so that each call records a span under name (and under
        key(args) when given); after(args, kwargs, result) adds counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer.open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.open[name] -= 1
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
                tracer.durations[name].append(end - start)
                if key is not None:
                    tracer.durations[key(args)].append(end - start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def op(self, name, fn, key=None):
        """Wrap a hot operator: count and duration, no span."""
        durations = self.durations

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            durations[name].append(elapsed)
            if key is not None:
                durations[key(args)].append(elapsed)
            return result

        return wrapper

    def end_setup(self):
        """Keep what set-up recorded apart; per-layer work figures count the
        timed rounds only."""
        self.setup_durations = dict(self.durations)
        self.durations.clear()
        self.counts.clear()

    # -- installation

    def install(self):
        """Wrap every traced function in every `beauville` module namespace
        that refers to it, and the traced methods on their classes."""
        span, op = self.span, self.op

        def count_accept(args, kwargs, result):
            if type(result).__name__ == "HyperbolicTriple":
                self.counts["verify_accepted"] += 1

        def count_orbit(args, kwargs, result):
            if isinstance(result, (set, frozenset)):
                self.counts["orbit_elements"] += len(result)
            else:  # the cap was reached: that many elements were enumerated
                self.counts["orbit_elements"] += args[2] if len(args) > 2 else kwargs.get("cap", 200000)

        def count_suite(lemma):
            def after(args, kwargs, result):
                self.counts["draws." + lemma] += args[1]
            return after

        functions = [
            (catalog, "realize_source", span, "catalog.realize_source", {}),
            (catalog, "run_entry", span, "catalog.run_entry",
             {"key": lambda a: "catalog.entry." + a[0].name}),
            (structures, "search_by_type", span, "structures.search_by_type", {}),
            (structures, "verify_triple", span, "structures.verify_triple",
             {"after": count_accept}),
            (structures, "condition_iii", span, "structures.condition_iii", {}),
            (structures, "structure_constant", span, "structures.structure_constant", {}),
            (permgrp, "class_orbit", span, "permgrp.class_orbit", {"after": count_orbit}),
            (permgrp, "matrix_to_perm", span, "permgrp.matrix_to_perm", {}),
            (matgrp, "charpoly", span, "matgrp.charpoly", {}),
            (ffield, "get_field", span, "ffield.get_field", {}),
            (covers, "build_cover", span, "covers.build_cover", {}),
            (covers, "cover_order", span, "covers.cover_order", {}),
            (numtheory, "factorize", op, "numtheory.factorize", {}),
        ]
        for lemma in SUITES:
            functions.append((identities, lemma + "_suite", span, "identities." + lemma,
                              {"after": count_suite(lemma)}))
        for module, attr, wrap, name, extra in functions:
            _patch_everywhere(getattr(module, attr), wrap(name, getattr(module, attr), **extra))

        def count_draw(fn):
            @functools.wraps(fn)
            def wrapper(self_, *args):
                if self.open["structures.search_by_type"]:
                    self.counts["search_draws"] += 1
                return fn(self_, *args)
            return wrapper

        methods = [
            (permgrp.Permutation, "__init__", op, "permgrp.Permutation.__init__", {}),
            (permgrp.Permutation, "__mul__", op, "permgrp.Permutation.__mul__", {}),
            (permgrp.Permutation, "inverse", op, "permgrp.Permutation.inverse", {}),
            (permgrp.BSGS, "__init__", span, "permgrp.BSGS", {}),
            (permgrp.ProductReplacer, "random_element", op, "permgrp.ProductReplacer.random_element", {}),
            (matgrp.SquareMatrix, "__mul__", op, "matgrp.SquareMatrix.__mul__", {}),
            (matgrp.FormSpec, "preserves", op, "matgrp.FormSpec.preserves", {}),
            (ffield.FieldCtx, "elements", op, "ffield.FieldCtx.elements", {}),
            (covers.CliffordCtx, "mul_vec", op, "covers.CliffordCtx.mul_vec",
             {"key": lambda a: f"covers.mul_vec.n{a[0].n}"}),
        ]
        for cls, attr, wrap, name, extra in methods:
            setattr(cls, attr, wrap(name, getattr(cls, attr), **extra))
        permgrp.ProductReplacer.random_element = count_draw(permgrp.ProductReplacer.random_element)

    # -- results

    def metrics(self, rows):
        """The per-layer metrics; rows names the catalog rows to report."""
        work, setup = self.durations, self.setup_durations or {}

        def n(name):
            return len(work.get(name, ()))

        def total(name, source=work):
            return float(sum(source.get(name, ())))

        def median_ms(name):
            values = work.get(name)
            return statistics.median(values) * 1e3 if values else 0.0

        def median_us(name):
            return median_ms(name) * 1e3

        def p90_ms(name):
            values = sorted(work.get(name, ()))
            return values[min(len(values) - 1, int(0.9 * len(values)))] * 1e3 if values else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        out = {"catalog.realize_s": (total("catalog.realize_source", setup), "s")}
        for row in rows:
            out[f"catalog.entry_s.{row}"] = (total("catalog.entry." + row), "s")
        out.update({
            "structures.search_calls": (n("structures.search_by_type"), "count"),
            "structures.search_s": (total("structures.search_by_type"), "s"),
            "structures.search_draws": (c["search_draws"], "count"),
            "structures.verify_calls": (n("structures.verify_triple"), "count"),
            "structures.verify_s": (total("structures.verify_triple"), "s"),
            "structures.verify_accept_ratio": (
                ratio(c["verify_accepted"], n("structures.verify_triple")), "ratio"),
            "structures.condition_iii_calls": (n("structures.condition_iii"), "count"),
            "structures.condition_iii_s": (total("structures.condition_iii"), "s"),
            "structures.structure_constant_s": (total("structures.structure_constant"), "s"),
            "permgrp.bsgs_builds": (n("permgrp.BSGS"), "count"),
            "permgrp.bsgs_s": (total("permgrp.BSGS"), "s"),
            "permgrp.bsgs_ms_p50": (median_ms("permgrp.BSGS"), "ms"),
            "permgrp.bsgs_ms_p90": (p90_ms("permgrp.BSGS"), "ms"),
            "permgrp.perm_constructions": (n("permgrp.Permutation.__init__"), "count"),
            "permgrp.products": (n("permgrp.Permutation.__mul__"), "count"),
            "permgrp.product_us": (median_us("permgrp.Permutation.__mul__"), "us"),
            "permgrp.inverses": (n("permgrp.Permutation.inverse"), "count"),
            "permgrp.inverse_us": (median_us("permgrp.Permutation.inverse"), "us"),
            "permgrp.replacer_draws": (n("permgrp.ProductReplacer.random_element"), "count"),
            "permgrp.class_orbit_calls": (n("permgrp.class_orbit"), "count"),
            "permgrp.class_orbit_elements": (c["orbit_elements"], "count"),
            "permgrp.class_orbit_elements_per_s": (
                ratio(c["orbit_elements"], total("permgrp.class_orbit")), "1/s"),
            "permgrp.matrix_to_perm_s": (total("permgrp.matrix_to_perm", setup), "s"),
            "matgrp.charpoly_calls": (n("matgrp.charpoly"), "count"),
            "matgrp.charpoly_s": (total("matgrp.charpoly"), "s"),
            "matgrp.matrix_products": (n("matgrp.SquareMatrix.__mul__"), "count"),
            "matgrp.form_checks": (n("matgrp.FormSpec.preserves"), "count"),
            "ffield.element_enumerations": (n("ffield.FieldCtx.elements"), "count"),
            "ffield.get_field_s": (total("ffield.get_field", setup), "s"),
        })
        for lemma in SUITES:
            out[f"identities.draws_per_s.{lemma}"] = (
                ratio(c["draws." + lemma], total("identities." + lemma)), "1/s")
        out.update({
            "covers.mul_vec_calls": (n("covers.CliffordCtx.mul_vec"), "count"),
            "covers.mul_vec_s": (total("covers.CliffordCtx.mul_vec"), "s"),
            "covers.mul_vec_ms.n8": (median_ms("covers.mul_vec.n8"), "ms"),
            "covers.mul_vec_ms.n10": (median_ms("covers.mul_vec.n10"), "ms"),
            "covers.mul_vec_ms.n12": (median_ms("covers.mul_vec.n12"), "ms"),
            "covers.cover_order_calls": (n("covers.cover_order"), "count"),
            "covers.build_cover_s": (total("covers.build_cover"), "s"),
            "numtheory.factorize_calls": (n("numtheory.factorize"), "count"),
            "numtheory.factorize_s": (total("numtheory.factorize"), "s"),
        })
        return out

    def self_times(self):
        """Total and self time per span name (self = duration minus the
        time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(totals.items())}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "self_times": self.self_times(),
                "spans": [{"name": name, "start": start, "end": end, "parent": parent}
                          for name, start, end, parent in self.spans],
            }, fh)


def _patch_everywhere(original, wrapped):
    for name, module in list(sys.modules.items()):
        if name == "beauville" or name.startswith("beauville."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
