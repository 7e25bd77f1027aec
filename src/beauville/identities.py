"""Randomized verification of the printed characteristic-polynomial
identities behind the four explicit small-rank constructions.

Each suite draws random admissible parameters, builds the matrices, and
compares charpoly(x*y) against the printed coefficient formula.  Parameters
are element codes (see ffield), drawn directly or picked from code pools in
elements() order, and the matrix builders and printed polynomials of matgrp
take codes.  The draw streams are seeded, so runs are reproducible.

A suite draws all its trials first and checks them as one stack (see
matgrp): the product x*y, the form checks of x and y and the charpoly of
x*y are numpy gathers on the field tables over every draw at once.  The
checks consume no randomness, so the draw stream is the one a draw-by-draw
check would see.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .ffield import get_field, get_field_of_order
from .matgrp import (
    MatrixStack,
    antidiagonal_form,
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
# draws checked per stack: one stack at the default 1,000 trials, and
# bounded memory at any trial count
_STACK_LIMIT = 1000


class SuiteRangeError(ValueError):
    """A trial count or qmax outside the range the suites can run."""


def _fields_for(lemma: str, qmax: int) -> List[int]:
    if lemma == "lineardim3":
        return [q for q in _PRIME_POWERS if 3 < q <= qmax]
    if lemma in ("u41", "u3"):
        return [q for q in _PRIME_POWERS if 2 < q <= qmax]
    if lemma == "sp42":
        return [q for q in _PRIME_POWERS if q <= qmax and (q >= 4)]
    raise ValueError(f"unknown lemma {lemma!r}")


def _pick(pool: Sequence, rs: RandomSource):
    return pool[rs.randrange(len(pool))]


def _mismatches(trials: int, draw, form=None) -> int:
    """How many of `trials` draws fail: draw() returns matrices x, y and
    the printed charpoly of x*y, and x, y must also preserve form, if one
    is given.  Draws are checked in stacks of up to _STACK_LIMIT."""
    mismatches = 0
    for start in range(0, trials, _STACK_LIMIT):
        xs, ys, printed = zip(*[draw() for _ in range(min(_STACK_LIMIT, trials - start))])
        X, Y = MatrixStack(xs), MatrixStack(ys)
        ok = np.array([tuple(cp) == want
                       for cp, want in zip((X * Y).charpolys().tolist(), printed)])
        if form is not None:
            ok &= form.preserves_each(X) & form.preserves_each(Y)
        mismatches += len(ok) - int(np.count_nonzero(ok))
    return mismatches


def lineardim3_suite(q: int, trials: int, seed: int) -> int:
    ctx = get_field_of_order(q)
    rs = RandomSource(seed)

    def draw():
        a = rs.randrange(ctx.q)
        b = rs.randrange(ctx.q)
        x, y = lineardim3_matrices(ctx, a, b)
        return x, y, lineardim3_charpoly(ctx, a, b)

    return _mismatches(trials, draw)


def u41_suite(q: int, trials: int, seed: int) -> int:
    p, h = factorize(q).factors[0]
    ctx = get_field(p, 2 * h)
    trace_zero = ctx.trace_zero()
    nonzero_trace_zero = trace_zero[1:]
    rs = RandomSource(seed)

    def draw():
        e = _pick(nonzero_trace_zero, rs)
        b = rs.randrange(ctx.q)
        c = _pick(trace_zero, rs)
        x, y = u41_matrices(ctx, e, b, c)
        return x, y, u41_charpoly(ctx, e, b, c)

    return _mismatches(trials, draw, antidiagonal_form(ctx, 4, "hermitian"))


def u3_suite(q: int, trials: int, seed: int) -> int:
    p, h = factorize(q).factors[0]
    ctx = get_field(p, 2 * h)
    rs = RandomSource(seed)
    # admissible (a, b): b + b^q + a a^q = 0; sample a and then b from the
    # trace fiber over -a a^q, whose zero fiber is the trace-zero set
    trace_zero = ctx.trace_zero()
    fibers: Dict[int, List[int]] = {0: list(trace_zero)}
    # draws pick from a fiber by index: list codes in elements() order, as
    # trace_zero() does
    for el in ctx.elements():
        t = ctx.add_code(el, ctx.pow_code(el, q))
        if t:
            fibers.setdefault(t, []).append(el)
    neg_norm = [ctx.neg[ctx.mul_code(a, ctx.pow_code(a, q))] for a in range(ctx.q)]
    nonzero_trace_zero = trace_zero[1:]

    def draw():
        e = _pick(nonzero_trace_zero, rs)
        a = rs.randrange(ctx.q)
        b = _pick(fibers[neg_norm[a]], rs)
        x, y = u3_matrices(ctx, e, a, b)
        return x, y, u3_charpoly(ctx, e, a, b)

    return _mismatches(trials, draw, antidiagonal_form(ctx, 3, "hermitian"))


def sp42_suite(q: int, trials: int, seed: int) -> int:
    ctx = get_field_of_order(q)
    rs = RandomSource(seed)
    if ctx.p == 2:
        squares = {ctx.add_code(ctx.mul_code(beta, beta), beta) for beta in range(ctx.q)}
        lams = [el for el in ctx.elements() if el not in squares]

        def draw():
            a = rs.randrange(ctx.q)
            b = rs.randrange(ctx.q)
            lam = _pick(lams, rs)
            x, y = sp42_matrices_even(ctx, a, b, lam)
            return x, y, sp42_charpoly_even(ctx, a, b, lam)
    else:
        def draw():
            a = rs.randrange(ctx.q)
            b = rs.randrange(ctx.q)
            x, y = sp42_matrices_odd(ctx, a, b)
            return x, y, sp42_charpoly_odd(ctx, a, b)

    return _mismatches(trials, draw, antidiagonal_form(ctx, 4, "symplectic"))


_SUITES = {
    "lineardim3": lineardim3_suite,
    "u41": u41_suite,
    "u3": u3_suite,
    "sp42": sp42_suite,
}


def run_identity_suite(lemma: str, qmax: int = 25, trials: int = 1000,
                       seed: int = 0, verbose: bool = False) -> int:
    """Total mismatch count across the parity-appropriate fields up to qmax.

    SuiteRangeError for trials < 1, or for a qmax that leaves a suite with
    no field or passes the largest field the suites list."""
    lemmas = list(_SUITES) if lemma == "all" else [lemma]
    if trials < 1:
        raise SuiteRangeError(f"trials must be at least 1, got {trials}")
    top = _PRIME_POWERS[-1]
    least = max(_fields_for(name, top)[0] for name in lemmas)
    if not least <= qmax <= top:
        raise SuiteRangeError(f"qmax must be in {least}..{top} for {lemma}, got {qmax}")
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
