"""Randomized verification of the printed characteristic-polynomial
identities behind the four explicit small-rank constructions.

Each suite draws random admissible parameters, builds the matrices, and
compares charpoly(x*y) against the printed coefficient formula.  The draw
streams are seeded, so runs are reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .ffield import FieldCtx, get_field, get_field_of_order
from .matgrp import (
    antidiagonal_form,
    charpoly,
    lineardim3_charpoly,
    lineardim3_matrices,
    sp42_charpoly_even,
    sp42_charpoly_odd,
    sp42_matrices_even,
    sp42_matrices_odd,
    u3_charpoly,
    u3_matrices,
    u41_charpoly,
    u41_matrices,
)
from .numtheory import factorize
from .permgrp import RandomSource

_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25]


def _fields_for(lemma: str, qmax: int) -> List[int]:
    if lemma == "lineardim3":
        return [q for q in _PRIME_POWERS if 3 < q <= qmax]
    if lemma in ("u41", "u3"):
        return [q for q in _PRIME_POWERS if 2 < q <= qmax]
    if lemma == "sp42":
        return [q for q in _PRIME_POWERS if q <= qmax and (q >= 4)]
    raise ValueError(f"unknown lemma {lemma!r}")


def _rand_element(ctx: FieldCtx, rs: RandomSource):
    return ctx.from_code(rs.randrange(ctx.q))


def _pick(pool: Sequence, rs: RandomSource):
    return pool[rs.randrange(len(pool))]


def lineardim3_suite(q: int, trials: int, seed: int) -> int:
    ctx = get_field_of_order(q)
    rs = RandomSource(seed)
    mismatches = 0
    for _ in range(trials):
        a = _rand_element(ctx, rs)
        b = _rand_element(ctx, rs)
        x, y = lineardim3_matrices(q, a, b)
        if charpoly(x * y) != lineardim3_charpoly(a, b):
            mismatches += 1
    return mismatches


def u41_suite(q: int, trials: int, seed: int) -> int:
    p, h = factorize(q).factors[0]
    ctx = get_field(p, 2 * h)
    form = antidiagonal_form(ctx, 4, "hermitian")
    trace_zero = ctx.trace_zero()
    nonzero_trace_zero = trace_zero[1:]
    rs = RandomSource(seed)
    mismatches = 0
    for _ in range(trials):
        e = _pick(nonzero_trace_zero, rs)
        b = _rand_element(ctx, rs)
        c = _pick(trace_zero, rs)
        x, y = u41_matrices(e, b, c)
        ok = (form.preserves(x) and form.preserves(y)
              and charpoly(x * y) == u41_charpoly(e, b, c))
        if not ok:
            mismatches += 1
    return mismatches


def u3_suite(q: int, trials: int, seed: int) -> int:
    p, h = factorize(q).factors[0]
    ctx = get_field(p, 2 * h)
    form = antidiagonal_form(ctx, 3, "hermitian")
    rs = RandomSource(seed)
    # admissible (a, b): b + b^q + a a^q = 0; sample a and then b from the
    # matching trace fiber, whose zero fiber is the trace-zero set
    trace_zero = ctx.trace_zero()
    fibers: Dict[int, Sequence] = {0: trace_zero}
    for el in ctx.elements():
        t = (el + el ** q).code
        if t:
            fibers.setdefault(t, []).append(el)
    nonzero_trace_zero = trace_zero[1:]
    mismatches = 0
    for _ in range(trials):
        e = _pick(nonzero_trace_zero, rs)
        a = _rand_element(ctx, rs)
        b = _pick(fibers[(-(a * a ** q)).code], rs)
        x, y = u3_matrices(e, a, b)
        ok = (form.preserves(x) and form.preserves(y)
              and charpoly(x * y) == u3_charpoly(e, a, b))
        if not ok:
            mismatches += 1
    return mismatches


def sp42_suite(q: int, trials: int, seed: int) -> int:
    ctx = get_field_of_order(q)
    form = antidiagonal_form(ctx, 4, "symplectic")
    rs = RandomSource(seed)
    mismatches = 0
    if ctx.p == 2:
        squares = {(beta * beta + beta).code for beta in ctx.elements()}
        lams = [el for el in ctx.elements() if el.code not in squares]
        for _ in range(trials):
            a = _rand_element(ctx, rs)
            b = _rand_element(ctx, rs)
            lam = _pick(lams, rs)
            x, y = sp42_matrices_even(a, b, lam)
            ok = (form.preserves(x) and form.preserves(y)
                  and charpoly(x * y) == sp42_charpoly_even(a, b, lam))
            if not ok:
                mismatches += 1
    else:
        for _ in range(trials):
            a = _rand_element(ctx, rs)
            b = _rand_element(ctx, rs)
            x, y = sp42_matrices_odd(a, b)
            ok = (form.preserves(x) and form.preserves(y)
                  and charpoly(x * y) == sp42_charpoly_odd(a, b))
            if not ok:
                mismatches += 1
    return mismatches


_SUITES = {
    "lineardim3": lineardim3_suite,
    "u41": u41_suite,
    "u3": u3_suite,
    "sp42": sp42_suite,
}


def run_identity_suite(lemma: str, qmax: int = 25, trials: int = 1000,
                       seed: int = 0, verbose: bool = False) -> int:
    """Total mismatch count across the parity-appropriate fields up to qmax."""
    lemmas = list(_SUITES) if lemma == "all" else [lemma]
    total = 0
    for name in lemmas:
        suite = _SUITES[name]
        for i, q in enumerate(_fields_for(name, qmax)):
            bad = suite(q, trials, seed + 7919 * i)
            total += bad
            if verbose:
                status = "ok" if bad == 0 else f"{bad} MISMATCHES"
                print(f"{name} q={q}: {trials} draws, {status}")
    return total
