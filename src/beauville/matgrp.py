"""Matrices over GF(q), classical group data and explicit generator triples.

Matrices act on row vectors (v -> v*M), so products compose left to right,
matching the permutation convention in permgrp.  Characteristic polynomials
are returned monic as det(wI - M); the printed coefficient formulas from
the small-rank constructions are normalized the same way before comparing.

The matrix kernels read the field tables.  The product, elimination and
powers take one SquareMatrix in pure Python; the exact-order test
`SquareMatrix.has_order` needs them.
The characteristic polynomial and the form check run on stacks:
`MatrixStack` holds n matrices of one dimension as an (n, d, d) code array,
and its products, Berkowitz `charpolys` and `FormSpec.preserves_each` are
numpy gathers over all n at once.  `charpoly` and `FormSpec.preserves` are
those kernels on a stack of one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .numtheory import Factorization, factorize, lambda_value
from .ffield import (
    BadField,
    FieldCtx,
    embed_subfield,
    format_element,
    get_field,
    get_field_of_order,
    solve_norm,
    trace_zero_sample,
)


class UnsupportedFamily(ValueError):
    """No formula or construction for this group family."""


class NotUnipotentConsistent(ValueError):
    """The supplied exponent multiple was not a multiple of the order."""


# ---------------------------------------------------------------------------
# matrices


def binary_power(x, e: int, one):
    """x ** e by repeated squaring, for any element type with `*` and
    `.inverse()`; one is the identity, returned for e = 0.  No product
    involves the identity and no squaring follows the top bit, so e > 0
    costs bit_length(e) - 1 squarings and popcount(e) - 1 products."""
    if e < 0:
        x, e = x.inverse(), -e
    result = None
    while e:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if e:
            x = x * x
    return one if result is None else result


class SquareMatrix:
    """Immutable d x d matrix over a FieldCtx, entries stored as codes.

    The kernels (products, elimination, Frobenius) read the context's
    exp/log, spread/fold and neg tables directly; every context has them
    (see ffield).  Results built here skip the row checks of __init__.
    """

    __slots__ = ("ctx", "d", "rows")

    def __init__(self, ctx: FieldCtx, rows: Sequence[Sequence[int]]):
        self.ctx = ctx
        self.rows = tuple(map(tuple, rows))
        self.d = d = len(self.rows)
        if d and set(map(len, self.rows)) != {d}:
            raise ValueError("matrix must be square")
        if d and not (min(map(min, self.rows)) >= 0 and max(map(max, self.rows)) < ctx.q):
            raise ValueError(f"matrix entries must be codes in range({ctx.q})")

    @classmethod
    def _unchecked(cls, ctx: FieldCtx, rows: Tuple[Tuple[int, ...], ...]) -> "SquareMatrix":
        M = cls.__new__(cls)
        M.ctx, M.rows, M.d = ctx, rows, len(rows)
        return M

    @classmethod
    def identity(cls, ctx: FieldCtx, d: int) -> "SquareMatrix":
        return cls(ctx, [[1 if i == j else 0 for j in range(d)] for i in range(d)])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SquareMatrix) and self.ctx is other.ctx
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.rows))

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.ctx is not other.ctx:
            raise ValueError("mixed field contexts")
        if self.d != other.d:
            raise ValueError(f"cannot multiply a {self.d} x {self.d} and a "
                             f"{other.d} x {other.d} matrix")
        ctx = self.ctx
        exp, log, spread, fold = ctx.exp, ctx.log, ctx.spread, ctx.fold
        # the nonzero (k, log b_kj) of each column of other, listed once
        cols = [[(k, log[b]) for k, b in enumerate(col) if b] for col in zip(*other.rows)]
        out = []
        for row in self.rows:
            logs = [log[a] for a in row]
            new_row = []
            for col in cols:
                acc = 0
                for k, lb in col:
                    acc = fold[spread[acc] + spread[exp[logs[k] + lb]]]
                new_row.append(acc)
            out.append(tuple(new_row))
        return SquareMatrix._unchecked(ctx, tuple(out))

    def __pow__(self, e: int) -> "SquareMatrix":
        return binary_power(self, e, SquareMatrix.identity(self.ctx, self.d))

    def has_order(self, n: int) -> bool:
        """Whether the order is exactly n: M^n is the identity and M^(n/r)
        is not for any prime r dividing n."""
        if n < 1 or not (self ** n).is_identity():
            return False
        return not any((self ** (n // r)).is_identity() for r in factorize(n).primes)

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix._unchecked(self.ctx, tuple(zip(*self.rows)))

    def conjugate_entries(self, k: int) -> "SquareMatrix":
        """Apply the p^k-power field automorphism entrywise."""
        ctx = self.ctx
        exp, log, m = ctx.exp, ctx.log, ctx.q - 1
        pk = ctx.p ** (k % ctx.a)
        return SquareMatrix._unchecked(ctx, tuple(
            tuple(exp[log[v] * pk % m] if v else 0 for v in row) for row in self.rows))

    def _elimination(self) -> Tuple[Optional[List[List[int]]], int]:
        """Gauss-Jordan on [M | I]; returns (inverse rows or None, det code)."""
        ctx = self.ctx
        exp, log, spread, fold, neg = ctx.exp, ctx.log, ctx.spread, ctx.fold, ctx.neg
        m1 = ctx.q - 1
        n = self.d
        rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.rows)]
        det = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if rows[r][col]), None)
            if pivot is None:
                return None, 0
            if pivot != col:
                rows[col], rows[pivot] = rows[pivot], rows[col]
                det = neg[det]
            lp = log[rows[col][col]]
            det = exp[log[det] + lp]
            linv = m1 - lp  # log of the pivot's inverse, in 1..q-1
            pivot_row = rows[col] = [exp[linv + log[v]] for v in rows[col]]
            for r in range(n):
                if r != col and rows[r][col]:
                    lc = log[neg[rows[r][col]]]
                    rows[r] = [fold[spread[v] + spread[exp[lc + log[w]]]]
                               for v, w in zip(rows[r], pivot_row)]
        return [r[n:] for r in rows], det

    def det(self) -> int:
        return self._elimination()[1]

    def inverse(self) -> "SquareMatrix":
        inv, _ = self._elimination()
        if inv is None:
            raise ZeroDivisionError("matrix is singular")
        return SquareMatrix._unchecked(self.ctx, tuple(map(tuple, inv)))

    def is_identity(self) -> bool:
        return all(v == (1 if i == j else 0)
                   for i, row in enumerate(self.rows) for j, v in enumerate(row))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_element(self.ctx, v) for v in row)
                         for row in self.rows)
        return f"SquareMatrix({self.ctx!r}, [{body}])"


def charpoly(M: SquareMatrix) -> Tuple[int, ...]:
    """Monic characteristic polynomial det(wI - M), coefficient codes low
    first: MatrixStack.charpolys on a stack of one."""
    return tuple(MatrixStack([M]).charpolys()[0].tolist())


def order_of_matrix(M: SquareMatrix, exponent_multiple: Factorization) -> int:
    """Exact multiplicative order via factored-exponent descent."""
    n = exponent_multiple.value
    if not (M ** n).is_identity():
        raise NotUnipotentConsistent(f"M^{n} is not the identity")
    order = n
    for p, e in exponent_multiple.factors:
        for _ in range(e):
            if (M ** (order // p)).is_identity():
                order //= p
            else:
                break
    return order


# ---------------------------------------------------------------------------
# matrix stacks


class FieldArrays:
    """int64 numpy copies of a context's exp/log, spread/fold and neg tables
    (see ffield), with the two stack reductions built on them.  One per
    context, from field_arrays."""

    def __init__(self, ctx: FieldCtx):
        self.exp, self.log, self.spread, self.fold, self.neg = (
            np.array(t, np.int64) for t in (ctx.exp, ctx.log, ctx.spread, ctx.fold, ctx.neg))
        # the spread of a product and of a folded digit sum, so that a
        # running sum stays spread and takes one lookup per term
        self.exp_spread = self.spread[self.exp]
        self.fold_spread = self.spread[self.fold]

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum_k a_k b_k over the last axis of two code arrays, broadcasting
        the others."""
        terms = self.exp_spread[self.log[a] + self.log[b]]
        acc = terms[..., 0] if terms.shape[-1] else np.zeros(terms.shape[:-1], np.int64)
        for k in range(1, terms.shape[-1]):
            acc = self.fold_spread[acc + terms[..., k]]
        return self.fold[acc]

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of the d x d code matrices in the last two axes,
        broadcasting the leading ones."""
        return self.dot(a[..., :, None, :], np.swapaxes(b, -1, -2)[..., None, :, :])


@functools.cache
def field_arrays(ctx: FieldCtx) -> FieldArrays:
    """The numpy tables of ctx, built on first use and kept with it."""
    return FieldArrays(ctx)


class MatrixStack:
    """n matrices of one dimension over one context, held as an (n, d, d)
    int64 array of codes; the stack kernels check all n at once."""

    __slots__ = ("ctx", "codes")

    def __init__(self, matrices: Sequence[SquareMatrix]):
        if not matrices:
            raise ValueError("a stack needs at least one matrix")
        ctx, d = matrices[0].ctx, matrices[0].d
        if any(M.ctx is not ctx or M.d != d for M in matrices):
            raise ValueError("a stack holds matrices of one context and one dimension")
        chain = itertools.chain.from_iterable
        self.ctx = ctx
        self.codes = np.fromiter(chain(chain(M.rows for M in matrices)), np.int64,
                                 len(matrices) * d * d).reshape(len(matrices), d, d)

    @classmethod
    def _of(cls, ctx: FieldCtx, codes: np.ndarray) -> "MatrixStack":
        S = cls.__new__(cls)
        S.ctx, S.codes = ctx, codes
        return S

    @property
    def d(self) -> int:
        return self.codes.shape[1]

    def __mul__(self, other: "MatrixStack") -> "MatrixStack":
        """The products self[i] * other[i]."""
        if self.ctx is not other.ctx:
            raise ValueError("mixed field contexts")
        if self.codes.shape != other.codes.shape:
            raise ValueError("stacks differ in length or dimension")
        return MatrixStack._of(self.ctx, field_arrays(self.ctx).matmul(self.codes, other.codes))

    def charpolys(self) -> np.ndarray:
        """det(wI - M) for every M, as an (n, d + 1) array of coefficient
        codes, low first and monic.

        Berkowitz's algorithm (S. J. Berkowitz, Inf. Proc. Letters 18,
        1984), which needs no pivots and so no branch on the entries.  For
        r = d - 1 down to 0, write the trailing block M[r:, r:] as
        [[a, R], [C, B]].  Its polynomial, high coefficient first, is the
        lower-triangular Toeplitz matrix with first column
        (1, -a, -RC, -RBC, ..., -R B^(d-r-2) C) times that of B.  One dot
        with M[r:, r + 1:] = [R; B] gives R u and B u together.
        """
        t = field_arrays(self.ctx)
        A, d = self.codes, self.d
        one, zero = np.ones(len(A), np.int64), np.zeros(len(A), np.int64)
        poly = one[:, None]  # of the empty block
        for r in range(d - 1, -1, -1):
            col = [one, t.neg[A[:, r, r]]]
            RB, u = A[:, r:, r + 1:], A[:, r + 1:, r]
            for _ in range(d - r - 1):
                w = t.dot(RB, u[:, None, :])
                col.append(t.neg[w[:, 0]])
                u = w[:, 1:]
            # the Toeplitz matrix, its zeros read from a zero last column
            col.append(zero)
            poly = t.dot(np.stack(col, axis=1)[:, _toeplitz_index(d - r)], poly[:, None, :])
        return poly[:, ::-1]


@functools.cache
def _toeplitz_index(s: int) -> np.ndarray:
    """The (s + 1) x s indices i - j on and below the diagonal, s + 1 above."""
    i, j = np.arange(s + 1)[:, None], np.arange(s)
    return np.where(i >= j, i - j, s + 1)


# ---------------------------------------------------------------------------
# invariant forms


@dataclass(frozen=True)
class FormSpec:
    """An invariant form: symplectic/hermitian/symmetric Gram matrix."""

    kind: str  # 'symplectic' | 'hermitian' | 'symmetric'
    gram: SquareMatrix

    def __post_init__(self) -> None:
        J = self.gram
        ctx = J.ctx
        if self.kind == "symplectic":
            assert all(J.rows[i][i] == 0 for i in range(J.d))
            assert J.transpose().rows == tuple(
                tuple(ctx.neg_code(v) for v in row) for row in J.rows)
            assert J.det() != 0
        elif self.kind == "hermitian":
            assert ctx.a % 2 == 0, "hermitian form needs a quadratic extension"
            assert J == J.conjugate_entries(ctx.a // 2).transpose()
        elif self.kind == "symmetric":
            assert J == J.transpose()
        else:
            raise ValueError(f"unknown form kind {self.kind!r}")

    def preserves(self, g: SquareMatrix) -> bool:
        """preserves_each on a stack of one."""
        return bool(self.preserves_each(MatrixStack([g]))[0])

    def preserves_each(self, stack: MatrixStack) -> np.ndarray:
        """g J sigma(g)^T == J for every g of a stack, sigma the q-power map
        for hermitian forms, as a bool array: g J and then (g J) sigma(g)^T
        on the stack kernels, compared with J in every entry.  sigma keeps
        zero at zero: log's zero sentinel is put back after the reduction."""
        J = self.gram
        ctx = J.ctx
        if stack.ctx is not ctx:
            raise ValueError("mixed field contexts")
        if stack.d != J.d:
            raise ValueError(f"{stack.d} x {stack.d} matrices cannot preserve a "
                             f"{J.d}-dimensional form")
        t = field_arrays(ctx)
        G, gram = stack.codes, np.array(J.rows, np.int64).reshape(J.d, J.d)
        sigma = G
        if self.kind == "hermitian":
            m = ctx.q - 1
            sigma = t.exp[np.where(G != 0, t.log[G] * ctx.p ** (ctx.a // 2) % m, 2 * m)]
        image = t.matmul(t.matmul(G, gram), np.swapaxes(sigma, 1, 2))
        return (image == gram).all(axis=(1, 2))


def antidiagonal_form(ctx: FieldCtx, d: int, kind: str) -> FormSpec:
    """Gram matrices for the explicit constructions: all-ones antidiagonal
    for the hermitian case, sign-split antidiagonal for the symplectic."""
    rows = [[0] * d for _ in range(d)]
    for i in range(d):
        if kind == "symplectic" and i >= d // 2:
            rows[i][d - 1 - i] = ctx.neg_code(1)
        else:
            rows[i][d - 1 - i] = 1
    return FormSpec(kind, SquareMatrix(ctx, rows))


# ---------------------------------------------------------------------------
# group specifications and order formulas


@dataclass(frozen=True)
class GroupSpec:
    """A classical group family with its defining parameters.

    For unitary families q is the hermitian parameter: matrices live over
    GF(q^2).  Ingested specs carry explicit generators plus the declared
    order instead of a formula.
    """

    family: str
    d: int
    q: int
    generators: Optional[Tuple[SquareMatrix, ...]] = None
    declared_order: Optional[int] = None
    name: Optional[str] = None

    _FAMILIES = ("GL", "SL", "GU", "SU", "Sp", "OmegaPlus", "OmegaMinus",
                 "OmegaOdd", "SuzukiB2", "Ingested")

    def __post_init__(self) -> None:
        if self.family not in self._FAMILIES:
            raise UnsupportedFamily(self.family)

    def label(self) -> str:
        if self.name:
            return self.name
        return f"{self.family}_{self.d}_{self.q}"


def classical_order(spec: GroupSpec) -> int:
    """|G| from the standard order formulas."""
    fam, d, q = spec.family, spec.d, spec.q
    if fam == "Ingested":
        raise UnsupportedFamily("Ingested specs carry a declared order instead")
    if fam in ("GL", "SL"):
        out = q ** (d * (d - 1) // 2) * math.prod(q ** i - 1 for i in range(1, d + 1))
        return out // (q - 1) if fam == "SL" else out
    if fam in ("GU", "SU"):
        out = q ** (d * (d - 1) // 2) * math.prod(q ** i - (-1) ** i for i in range(1, d + 1))
        return out // (q + 1) if fam == "SU" else out
    if fam == "Sp":
        if d % 2:
            raise UnsupportedFamily("Sp needs even dimension")
        m = d // 2
        return q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))
    if fam == "OmegaOdd":
        if d % 2 == 0 or q % 2 == 0:
            raise UnsupportedFamily("OmegaOdd needs odd d and odd q")
        m = d // 2
        return q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1)) // 2
    if fam in ("OmegaPlus", "OmegaMinus"):
        if d % 2:
            raise UnsupportedFamily("even-dimensional family")
        m = d // 2
        eps = 1 if fam == "OmegaPlus" else -1
        out = (q ** (m * (m - 1)) * (q ** m - eps)
               * math.prod(q ** (2 * i) - 1 for i in range(1, m)))
        return out // 2 if q % 2 else out
    if fam == "SuzukiB2":
        return q * q * (q * q + 1) * (q - 1)
    raise UnsupportedFamily(fam)


def singer_order(spec: GroupSpec) -> int:
    """Cyclic maximal-torus (Singer) order for the families that have one."""
    fam, d, q = spec.family, spec.d, spec.q
    if fam == "SL":
        return (q ** d - 1) // (q - 1)
    if fam == "SU" and d % 2 == 1:
        return (q ** d + 1) // (q + 1)
    if fam == "Sp" and d % 2 == 0:
        return q ** (d // 2) + 1
    if fam == "OmegaMinus" and d % 2 == 0:
        return (q ** (d // 2) + 1) // math.gcd(q + 1, 2)
    raise UnsupportedFamily(f"no Singer order for {fam}_{d}")

# ---------------------------------------------------------------------------
# standard generating sets


def _unit_with(ctx: FieldCtx, d: int, entries: Dict[Tuple[int, int], int]) -> SquareMatrix:
    rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for (i, j), code in entries.items():
        rows[i][j] = code
    return SquareMatrix(ctx, rows)


def _sl_generators(d: int, q: int) -> Tuple[SquareMatrix, ...]:
    ctx = get_field_of_order(q)
    gens = [_unit_with(ctx, d, {(0, 1): ctx.exp[k]}) for k in range(ctx.a)]
    # cycle matrix with sign fix so the determinant is 1
    rows = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        rows[i][i + 1] = 1
    rows[d - 1][0] = 1 if d % 2 else ctx.neg_code(1)
    gens.append(SquareMatrix(ctx, rows))
    return tuple(gens)


def _form_value(form: FormSpec, x: Sequence[int], y: Sequence[int]) -> int:
    """x J sigma(y)^T, sigma the q-power map for hermitian forms."""
    J = form.gram
    ctx = J.ctx
    if form.kind == "hermitian":
        qpow = ctx.p ** (ctx.a // 2)
        y = [ctx.pow_code(yj, qpow) for yj in y]
    mul, add = ctx.mul_code, ctx.add_code
    acc = 0
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj and J.rows[i][j]:
                    acc = add(acc, mul(mul(xi, J.rows[i][j]), yj))
    return acc


def _transvection(form: FormSpec, v: Sequence[int], lam_code: int) -> SquareMatrix:
    """x -> x + lam * B(x, v) * v written as a matrix (rows are images of e_i).

    It preserves the form when v is isotropic and lam is chosen for the
    form: any lam for symplectic forms, trace-zero lam for hermitian ones.
    """
    ctx = form.gram.ctx
    mul, add = ctx.mul_code, ctx.add_code
    d = form.gram.d
    rows = []
    for i in range(d):
        e = [1 if k == i else 0 for k in range(d)]
        c = mul(lam_code, _form_value(form, e, v))
        rows.append([add(e[k], mul(c, v[k])) for k in range(d)])
    return SquareMatrix(ctx, rows)


def _sp_generators(d: int, q: int) -> Tuple[SquareMatrix, ...]:
    ctx = get_field_of_order(q)
    form = antidiagonal_form(ctx, d, "symplectic")
    lams = [ctx.exp[k] for k in range(ctx.a)]
    vecs = []
    for i in range(d):
        vecs.append(tuple(1 if k == i else 0 for k in range(d)))
    for i in range(d):
        for j in range(i + 1, d):
            vecs.append(tuple(1 if k in (i, j) else 0 for k in range(d)))
    return tuple(_transvection(form, v, lam) for v in vecs for lam in lams)


def _su_generators(d: int, q: int) -> Tuple[SquareMatrix, ...]:
    p, h = factorize(q).factors[0]
    ctx = get_field(p, 2 * h)
    form = antidiagonal_form(ctx, d, "hermitian")
    mul = ctx.mul_code
    t0 = trace_zero_sample(ctx)
    sub = get_field_of_order(q)
    emb = embed_subfield(sub, ctx)
    lams = [mul(t0, emb[sub.exp[k]]) for k in range(sub.a)]
    gen2 = ctx.exp[1]
    # isotropic vectors: basis vectors off the antidiagonal middle, weight-2
    # combinations, and for odd d a few weight-3 vectors through the middle
    # (odd dimensions have no isotropic weight-2 support containing it)
    vecs: List[Tuple[int, ...]] = []
    for i in range(d):
        if d % 2 == 1 and i == d // 2:
            continue
        vecs.append(tuple(1 if k == i else 0 for k in range(d)))
    for i in range(d):
        for j in range(i + 1, d):
            for w in (1, gen2, ctx.exp[2]):
                v = [0] * d
                v[i], v[j] = 1, w
                if _form_value(form, v, v) == 0:
                    vecs.append(tuple(v))
    if d % 2 == 1:
        mid = d // 2
        for s in (1, gen2):
            for t in ctx.elements():
                v = [0] * d
                v[0], v[mid], v[d - 1] = 1, s, t
                if _form_value(form, v, v) == 0:
                    vecs.append(tuple(v))
    return tuple(_transvection(form, v, lam) for v in vecs for lam in lams)


def suzuki_generators(q: int) -> GroupSpec:
    """Standard 4-dimensional generators of Sz(q), q = 2^(2m+1) >= 8.

    The unipotent family u(a, b), the torus element for a field generator
    and the antidiagonal involution.  The declared order comes from
    classical_order; the BSGS cross-check lives with the callers.
    """
    fac = factorize(q).factors
    if len(fac) != 1 or fac[0][0] != 2 or fac[0][1] % 2 == 0 or q < 8:
        raise BadField("Suzuki groups need q = 2^(2m+1) >= 8")
    ctx = get_field_of_order(q)
    m = (ctx.a - 1) // 2
    r = 2 ** (m + 1)  # twisting automorphism x -> x^r, with x^(r^2) = x^2
    mul, add, pw = ctx.mul_code, ctx.add_code, ctx.pow_code

    def u(a: int, b: int) -> SquareMatrix:
        ar = pw(a, r)
        return SquareMatrix(ctx, [
            [1, 0, 0, 0],
            [a, 1, 0, 0],
            [add(mul(a, ar), b), ar, 1, 0],
            [add(add(mul(mul(a, a), ar), mul(a, b)), pw(b, r)), b, a, 1],
        ])

    gen = ctx.exp[1]
    torus = SquareMatrix(ctx, [
        [pw(gen, 1 + 2 ** m), 0, 0, 0],
        [0, pw(gen, 2 ** m), 0, 0],
        [0, 0, pw(gen, -(2 ** m)), 0],
        [0, 0, 0, pw(gen, -1 - 2 ** m)],
    ])
    flip = SquareMatrix(ctx, [
        [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    gens = (u(1, 0), u(0, 1), torus, flip)
    order = classical_order(GroupSpec("SuzukiB2", 4, q))
    return GroupSpec("SuzukiB2", 4, q, generators=gens, declared_order=order,
                     name=f"Sz_{q}")


def _gf2_insert(echelon: List[int], v: Sequence[int]) -> bool:
    """Add the 0/1 vector v to an echelon basis of int bitmasks over GF(2);
    False when v already lies in its span."""
    r = int("".join(map(str, v)), 2)
    for b in echelon:
        r = min(r, r ^ b)
    if r:
        echelon.append(r)
    return r != 0


def omega_minus_char2_generators(d: int, q: int = 2) -> GroupSpec:
    """Generators for the simple group Omega_d^-(2) as transvection pairs.

    Uses the minus-type quadratic form (hyperbolic pairs plus an anisotropic
    x^2 + xy + y^2 tail); orthogonal transvections t_a for nonsingular a
    generate O, and products of two of them land in Omega.  The declared
    order comes from the classical formula; callers certify it by BSGS.
    """
    if q != 2:
        raise BadField("only the characteristic-2 minus-type construction is shipped")
    if d % 2 or d < 4:
        raise BadField("need even d >= 4")
    ctx = get_field(2, 1)

    def quad(v: Tuple[int, ...]) -> int:
        total = 0
        for i in range(0, d - 2, 2):
            total ^= v[i] & v[i + 1]
        total ^= v[d - 2] ^ (v[d - 2] & v[d - 1]) ^ v[d - 1]
        return total

    def bil(u: Tuple[int, ...], v: Tuple[int, ...]) -> int:
        uv = tuple(a ^ b for a, b in zip(u, v))
        return quad(uv) ^ quad(u) ^ quad(v)

    def transvection(a: Tuple[int, ...]) -> SquareMatrix:
        rows = []
        for i in range(d):
            e = tuple(1 if k == i else 0 for k in range(d))
            c = bil(e, a)
            rows.append([e[k] ^ (c & a[k]) for k in range(d)])
        return SquareMatrix(ctx, rows)

    nonsingular = [v for v in itertools.product((0, 1), repeat=d) if quad(v)]
    # pair the first nonsingular vector with a spread sample; consecutive
    # lex vectors concentrate in a coordinate subspace and generate too little
    step = max(1, len(nonsingular) // 8)
    sample = nonsingular[1::step][:8]
    # every t_b t_a fixes the vectors orthogonal to b and a, so the sample
    # must span GF(2)^d; from d = 10 on, eight vectors do not, and the next
    # nonsingular vectors outside the span extend it
    echelon: List[int] = []
    for v in [nonsingular[0]] + sample:
        _gf2_insert(echelon, v)
    extra = iter(nonsingular)
    while len(echelon) < d:
        a = next(extra)
        if _gf2_insert(echelon, a):
            sample.append(a)
    base = transvection(nonsingular[0])
    gens = tuple(base * transvection(a) for a in sample)
    order = classical_order(GroupSpec("OmegaMinus", d, 2))
    return GroupSpec("OmegaMinus", d, 2, generators=gens, declared_order=order,
                     name=f"OmegaMinus_{d}_2")


def standard_generators(spec: GroupSpec) -> Tuple[SquareMatrix, ...]:
    """Deterministic generating matrices for the supported builtin families."""
    if spec.generators is not None:
        return spec.generators
    if spec.family == "SL":
        return _sl_generators(spec.d, spec.q)
    if spec.family == "Sp":
        return _sp_generators(spec.d, spec.q)
    if spec.family == "SU":
        return _su_generators(spec.d, spec.q)
    if spec.family == "SuzukiB2":
        return suzuki_generators(spec.q).generators
    if spec.family == "OmegaMinus" and spec.q == 2:
        return omega_minus_char2_generators(spec.d).generators
    raise UnsupportedFamily(f"no standard generators for {spec.family}")

# ---------------------------------------------------------------------------
# explicit small-rank triples
#
# Each construction returns matrices built exactly from the printed entries,
# solves the free parameters against a target characteristic polynomial and
# asserts the coefficient identity plus form membership on the pair it
# returns; its search filters on the order of x*y only.  The matrix builders
# and the *_charpoly helpers take a context and element codes (in
# range(ctx.q)) and work on codes throughout: entries and coefficients come
# from the context's tables, and the matrices skip the row checks.  The
# *_charpoly helpers give the printed quartic/cubic normalized to det(wI - M).


def _monic(ctx: FieldCtx, codes: Sequence[int]) -> Tuple[int, ...]:
    """Printed coefficient codes (low first, monic or -monic) made monic."""
    if codes[-1] != 1:
        codes = [ctx.neg[c] for c in codes]
    assert codes[-1] == 1
    return tuple(codes)


def lineardim3_matrices(ctx: FieldCtx, a: int, b: int) -> Tuple[SquareMatrix, SquareMatrix]:
    x = SquareMatrix._unchecked(ctx, ((1, 0, 0), (a, 1, 0), (b, 1, 1)))
    y = SquareMatrix._unchecked(ctx, ((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    return x, y


def lineardim3_charpoly(ctx: FieldCtx, a: int, b: int) -> Tuple[int, ...]:
    """1 - (b+3-a)w + (3+b)w^2 - w^3, normalized monic."""
    add, neg = ctx.add_code, ctx.neg
    b3 = add(b, 3 % ctx.p)
    return _monic(ctx, [1, neg[add(b3, neg[a])], b3, neg[1]])


def lineardim3_triple(q: int) -> Tuple[SquareMatrix, SquareMatrix, SquareMatrix]:
    """The unipotent pair in SL_3(q), q >= 5, with product matched to the
    block-companion semisimple element of the construction.

    Returns (x, y, xy) with o(xy) = (q^2-1)/gcd(2, q-1).  For even q this
    is the full q^2 - 1.  For odd q it cannot be pushed higher: the
    companion roots have norm lam^2, whose order is only (q-1)/2, so every
    admissible multiplier caps the product order at (q^2-1)/2.  Among the
    multipliers m outside {mu + 1/mu} with both solved parameters nonzero,
    the least one attaining that order is chosen.

    verify_triple certifies that x and y generate SL_3(q) for q = 5, 7, 8,
    9 and 11; larger fields are unchecked.  Over GF(4) the pair generates
    only a subgroup of order 1080, so q = 4 is refused.
    """
    if q <= 3:
        raise BadField("construction needs q > 3")
    if q == 4:
        raise BadField("over GF(4) the pair generates a proper subgroup of order 1080")
    ctx = get_field_of_order(q)
    mul, add, neg, inv = ctx.mul_code, ctx.add_code, ctx.neg, ctx.inv_code
    lam = ctx.exp[1]
    lam_m2 = ctx.pow_code(lam, -2)
    excluded = {add(mu, inv(mu)) for mu in ctx.elements() if mu}
    three = 3 % ctx.p
    wanted = (q * q - 1) // (1 if q % 2 == 0 else 2)
    for m in ctx.elements():
        if m in excluded:
            continue
        b = add(add(mul(lam, m), lam_m2), neg[three])
        a = add(add(b, three), neg[add(mul(inv(lam), m), mul(lam, lam))])
        if not (a and b):
            continue
        # z = companion(w^2 - lam*m*w + lam^2) + [lam^-2] block
        z = SquareMatrix(ctx, [
            [0, neg[lam], 0],
            [lam, mul(lam, m), 0],
            [0, 0, lam_m2],
        ])
        if not z.has_order(wanted):
            continue
        x, y = lineardim3_matrices(ctx, a, b)
        xy = x * y
        cp_xy, cp_z = map(tuple, MatrixStack([xy, z]).charpolys().tolist())
        assert cp_xy == lineardim3_charpoly(ctx, a, b) == cp_z
        assert x.det() == 1 and y.det() == 1
        assert xy.has_order(wanted)
        return x, y, xy
    raise BadField(f"no admissible multiplier over GF({q})")


def u41_matrices(ctx: FieldCtx, e: int, b: int, c: int) -> Tuple[SquareMatrix, SquareMatrix]:
    # y is the unitary transvection fixed by e; the four-row unipotent shape
    # displayed for it in the source is a misprint (it fails g J conj(g)^T = J
    # for every odd q) and only the transvection reproduces the quartic below.
    add, neg = ctx.add_code, ctx.neg
    qpow = ctx.p ** (ctx.a // 2)
    nbq = neg[ctx.pow_code(b, qpow)]
    cq = ctx.pow_code(c, qpow)
    y = SquareMatrix._unchecked(ctx, (
        (1, 0, 0, e),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ))
    x = SquareMatrix._unchecked(ctx, (
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (add(b, c), cq, 1, 0),
        (add(add(nbq, neg[c]), cq), add(add(nbq, neg[cq]), c), neg[1], 1),
    ))
    return x, y


def u41_charpoly(ctx: FieldCtx, e: int, b: int, c: int) -> Tuple[int, ...]:
    """w^4 + (2ce+eb^q-4)w^3 + (eb-eb^q+6-5ce)w^2 + (2ce-eb-4)w + 1."""
    add, mul, neg, p = ctx.add_code, ctx.mul_code, ctx.neg, ctx.p
    ce = mul(c, e)
    eb = mul(e, b)
    ebq = mul(e, ctx.pow_code(b, p ** (ctx.a // 2)))
    ce2 = mul(2 % p, ce)
    coeffs = [
        1,
        add(add(ce2, neg[eb]), neg[4 % p]),
        add(add(add(eb, neg[ebq]), 6 % p), neg[mul(5 % p, ce)]),
        add(add(ce2, ebq), neg[4 % p]),
        1,
    ]
    return _monic(ctx, coeffs)


# a candidate of a (t, f) search: the target charpoly of x*y, x, y and the
# parameters of the printed charpoly
_Candidate = Tuple[Tuple[int, ...], SquareMatrix, SquareMatrix, Tuple[int, ...]]


def _u41_candidates(q: int) -> Iterator[_Candidate]:
    """The candidates of u41_triple in its (t, f) order, t in GF(q^2) and f
    in GF(q), for every (t, f) with c != 0: b and c are solved so that
    charpoly(x*y) is the target w^4 + t w^3 + f w^2 + t^q w + 1, and the
    parameters are (e, b, c)."""
    p, h = factorize(q).factors[0]
    ctx = get_field(p, 2 * h)
    e = trace_zero_sample(ctx)
    sub = get_field_of_order(q)
    emb = embed_subfield(sub, ctx)
    mul, add = ctx.mul_code, ctx.add_code
    neg_inv_e = ctx.neg[ctx.inv_code(e)]
    for t in ctx.elements():
        tq = ctx.pow_code(t, q)
        for f_sub in sub.elements():
            f = emb[f_sub]
            c = mul(add(add(add(f, t), tq), 2 % p), neg_inv_e)
            if not c:
                continue
            # solved from the quartic coefficients; the printed solution for
            # b carries sign misprints, the correct one is all-plus
            b = mul(add(add(add(mul(3 % p, tq), mul(2 % p, t)), mul(2 % p, f)), 8 % p),
                    neg_inv_e)
            x, y = u41_matrices(ctx, e, b, c)
            yield (1, tq, f, t, 1), x, y, (e, b, c)


def u41_triple(q: int) -> Tuple[SquareMatrix, SquareMatrix, SquareMatrix]:
    """The SU_4(q) pair of the four-dimensional unitary construction, q > 2.

    Takes the first candidate of _u41_candidates whose product has exactly
    the Zsigmondy order lambda_{4h,p} (q = p^h), then asserts on it form
    membership, the target charpoly, the printed coefficient identity and
    that e and c have trace zero.
    """
    if q <= 2:
        raise BadField("construction needs q > 2")
    p, h = factorize(q).factors[0]
    target_order = lambda_value(4 * h, p)
    for target, x, y, (e, b, c) in _u41_candidates(q):
        xy = x * y
        if not xy.has_order(target_order):
            continue
        ctx = xy.ctx
        add, pw = ctx.add_code, ctx.pow_code
        assert antidiagonal_form(ctx, 4, "hermitian").preserves_each(MatrixStack([x, y])).all()
        assert charpoly(xy) == target == u41_charpoly(ctx, e, b, c)
        assert add(pw(e, q), e) == 0 and add(pw(c, q), c) == 0
        return x, y, xy
    raise BadField(f"no admissible (t, f) found for SU_4({q})")


def u3_matrices(ctx: FieldCtx, e: int, a: int, b: int) -> Tuple[SquareMatrix, SquareMatrix]:
    aq = ctx.pow_code(a, ctx.p ** (ctx.a // 2))
    y = SquareMatrix._unchecked(ctx, ((1, 0, e), (0, 1, 0), (0, 0, 1)))
    x = SquareMatrix._unchecked(ctx, ((1, 0, 0), (a, 1, 0), (b, ctx.neg[aq], 1)))
    return x, y


def u3_charpoly(ctx: FieldCtx, e: int, a: int, b: int) -> Tuple[int, ...]:
    """-w^3 + (be+3)w^2 - (3 + aa^q e + be)w + 1, normalized monic."""
    add, mul, neg = ctx.add_code, ctx.mul_code, ctx.neg
    be3 = add(mul(b, e), 3 % ctx.p)
    aaqe = mul(mul(a, ctx.pow_code(a, ctx.p ** (ctx.a // 2))), e)
    return _monic(ctx, [1, neg[add(be3, aaqe)], be3, neg[1]])


def u3_triple(q: int) -> Tuple[SquareMatrix, SquareMatrix, SquareMatrix]:
    """The SU_3(q) pair (q > 2) with product of order q^2 - 1."""
    if q <= 2:
        raise BadField("construction needs q > 2")
    p, h = factorize(q).factors[0]
    ctx = get_field(p, 2 * h)
    form = antidiagonal_form(ctx, 3, "hermitian")
    e = trace_zero_sample(ctx)
    mul, add, neg, pw = ctx.mul_code, ctx.add_code, ctx.neg, ctx.pow_code
    inv_e = ctx.inv_code(e)
    # the diagonal lam, lam^(q-1), lam^(-q) of the target semisimple element
    lam = ctx.exp[1]
    lam1, lam2 = pw(lam, q - 1), pw(lam, -q)
    b = mul(add(add(add(lam, lam1), lam2), neg[3 % p]), inv_e)
    bq = pw(b, q)
    s = add(b, bq)
    # the nonvanishing identity from the construction
    factored = mul(mul(mul(add(1, neg[lam]), add(lam2, neg[1])), add(1, neg[lam1])), inv_e)
    assert s == factored and s != 0
    a = solve_norm(ctx, neg[s])
    assert a != 0
    assert add(s, mul(a, pw(a, q))) == 0
    x, y = u3_matrices(ctx, e, a, b)
    assert form.preserves_each(MatrixStack([x, y])).all()
    xy = x * y
    z = SquareMatrix(ctx, [[lam, 0, 0], [0, lam1, 0], [0, 0, lam2]])
    cp_xy, cp_z = map(tuple, MatrixStack([xy, z]).charpolys().tolist())
    assert cp_xy == u3_charpoly(ctx, e, a, b) == cp_z
    assert xy.has_order(q * q - 1)
    return x, y, xy


def sp42_matrices_odd(ctx: FieldCtx, a: int, b: int) -> Tuple[SquareMatrix, SquareMatrix]:
    # Two corrections against the displayed matrix: the (4,3) entry must be
    # -1 for x to be symplectic, and the printed quartic below holds with a
    # at position (4,1) and b in the middle column (the display swaps them).
    neg = ctx.neg
    x = SquareMatrix._unchecked(ctx, (
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (0, b, 1, 0),
        (a, neg[b], neg[1], 1),
    ))
    y = SquareMatrix._unchecked(ctx, (
        (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    return x, y


def sp42_charpoly_odd(ctx: FieldCtx, a: int, b: int) -> Tuple[int, ...]:
    """w^4 - (4+a)w^3 + (6+b+2a)w^2 + (-4-a)w + 1."""
    add, mul, p = ctx.add_code, ctx.mul_code, ctx.p
    t = ctx.neg[add(4 % p, a)]
    return _monic(ctx, [1, t, add(add(6 % p, b), mul(2 % p, a)), t, 1])


def sp42_matrices_even(ctx: FieldCtx, a: int, b: int, lam: int) -> Tuple[SquareMatrix, SquareMatrix]:
    x = SquareMatrix._unchecked(ctx, (
        (1, 0, 0, 0),
        (a, 1, 0, 0),
        (0, b, 1, 0),
        (0, ctx.mul_code(a, b), a, 1),
    ))
    y = SquareMatrix._unchecked(ctx, (
        (1, 1, 1, lam), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)))
    return x, y


def sp42_charpoly_even(ctx: FieldCtx, a: int, b: int, lam: int) -> Tuple[int, ...]:
    """w^4 + bw^3 + a^2(b lam + 1)w^2 + bw + 1."""
    mul = ctx.mul_code
    return _monic(ctx, [1, b, mul(mul(a, a), ctx.add_code(mul(b, lam), 1)), b, 1])


def _sp42_candidates(q: int) -> Iterator[_Candidate]:
    """The candidates of sp42_triple in its (t, f) order, the parameters
    solved so that charpoly(x*y) is the palindromic target
    w^4 + t w^3 + f w^2 + t w + 1.  Even q: (a, b, lam) for every nonzero t
    and f.  Odd q: (a, b) for every (t, f), leaving out b = 0 at p = 3."""
    ctx = get_field_of_order(q)
    p = ctx.p
    mul, add, neg = ctx.mul_code, ctx.add_code, ctx.neg
    if p == 2:
        squares = {add(mul(beta, beta), beta) for beta in ctx.elements()}
        lams = [el for el in ctx.elements() if el not in squares]
        assert len(lams) >= 2, "fewer than two twist choices"
        for t in ctx.elements():
            if not t:
                continue
            for f in ctx.elements():
                if not f:
                    continue
                b = t
                lam = lams[0] if mul(b, lams[0]) != 1 else lams[1]
                # the square root in characteristic 2 is the q/2-power map
                a = ctx.pow_code(mul(f, ctx.inv_code(add(mul(b, lam), 1))), q // 2)
                x, y = sp42_matrices_even(ctx, a, b, lam)
                yield (1, t, f, t, 1), x, y, (a, b, lam)
        return
    for t in ctx.elements():
        # the printed w^3 coefficient is -(4+a), so a = -4 - t
        a = neg[add(4 % p, t)]
        for f in ctx.elements():
            b = add(f, neg[add(6 % p, mul(2 % p, a))])
            if not b and p == 3:
                continue  # keep o(x) = 9 at p = 3
            x, y = sp42_matrices_odd(ctx, a, b)
            yield (1, t, f, t, 1), x, y, (a, b)


def sp42_triple(q: int) -> Tuple[SquareMatrix, SquareMatrix, SquareMatrix]:
    """The Sp_4(q) pair: unipotent/transvection for odd q > 3, the order-4
    pair for even q >= 4; product order (q^2+1)/gcd(2,q-1).

    Takes the first candidate of _sp42_candidates whose product has exactly
    that order, then asserts on it form membership, the target charpoly and
    the printed coefficient identity, and for even q that x and y have
    order 4.
    """
    even = get_field_of_order(q).p == 2
    if even and q < 4:
        raise BadField("even branch needs q >= 4")
    if not even and q <= 3:
        raise BadField("odd branch needs q > 3")
    target_order = (q * q + 1) // (1 if even else 2)
    for target, x, y, params in _sp42_candidates(q):
        xy = x * y
        if not xy.has_order(target_order):
            continue
        ctx = xy.ctx
        printed = (sp42_charpoly_even if even else sp42_charpoly_odd)(ctx, *params)
        assert antidiagonal_form(ctx, 4, "symplectic").preserves_each(MatrixStack([x, y])).all()
        assert charpoly(xy) == target == printed
        if even:
            assert x.has_order(4) and y.has_order(4)
        return x, y, xy
    raise BadField(f"no admissible (t, f) found for Sp_4({q})")
