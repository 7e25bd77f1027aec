import collections
import hashlib
import itertools

import pytest

from beauville.ffield import get_field, get_field_of_order
from beauville import identities, matgrp
from beauville.identities import _mismatches
from beauville.matgrp import (
    BadField,
    FormSpec,
    GroupSpec,
    MatrixStack,
    SquareMatrix,
    UnsupportedFamily,
    _sp42_candidates,
    _u41_candidates,
    antidiagonal_form,
    charpoly,
    classical_order,
    lineardim3_triple,
    omega_minus_char2_generators,
    order_of_matrix,
    singer_order,
    sp42_triple,
    standard_generators,
    suzuki_generators,
    u3_triple,
    u41_triple,
)
from beauville.numtheory import factorize, lambda_value
from beauville.permgrp import RandomSource, matrix_to_perm, schreier_sims


def test_classical_orders():
    assert classical_order(GroupSpec("SL", 3, 2)) == 168
    assert classical_order(GroupSpec("Sp", 4, 3)) == 51840
    assert classical_order(GroupSpec("GL", 1, 7)) == 6
    assert classical_order(GroupSpec("SU", 3, 3)) == 6048
    assert classical_order(GroupSpec("SU", 4, 2)) == 25920
    assert classical_order(GroupSpec("SuzukiB2", 4, 8)) == 29120
    assert classical_order(GroupSpec("OmegaMinus", 8, 2)) == 197406720
    assert classical_order(GroupSpec("OmegaPlus", 8, 2)) == 174182400
    assert classical_order(GroupSpec("OmegaOdd", 7, 3)) == 4585351680
    assert classical_order(GroupSpec("OmegaMinus", 8, 3)) == 10151968619520
    assert classical_order(GroupSpec("OmegaPlus", 8, 3)) == 9904359628800
    assert classical_order(GroupSpec("SU", 3, 5)) == 378000
    with pytest.raises(UnsupportedFamily):
        classical_order(GroupSpec("Ingested", 2, 2, declared_order=10))


def test_singer_orders():
    assert singer_order(GroupSpec("SL", 3, 2)) == 7
    assert singer_order(GroupSpec("Sp", 4, 3)) == 10
    assert singer_order(GroupSpec("SU", 5, 2)) == 11
    assert singer_order(GroupSpec("OmegaMinus", 8, 2)) == 17
    with pytest.raises(UnsupportedFamily):
        singer_order(GroupSpec("SU", 4, 2))


def test_classical_order_matches_bsgs():
    for spec, action in [
        (GroupSpec("SL", 2, 4), "projective"),
        (GroupSpec("SL", 3, 3), "projective"),
        (GroupSpec("SL", 4, 2), "projective"),
        (GroupSpec("Sp", 4, 3), "vectors"),
        (GroupSpec("SU", 3, 3), "vectors"),
        (GroupSpec("SU", 4, 2), "vectors"),
    ]:
        gens = standard_generators(spec)
        perms, _, _ = matrix_to_perm(gens, action)
        order = schreier_sims(perms).order()
        expected = classical_order(spec)
        if action == "projective":
            # the projective image is the central quotient
            from math import gcd
            if spec.family == "SL":
                expected //= gcd(spec.d, spec.q - 1)
        assert order == expected, spec.label()


def test_charpoly_basics():
    F = get_field(5)
    assert charpoly(SquareMatrix.identity(F, 2)) == (1, 3, 1)  # (w-1)^2
    # companion matrix reproduces its polynomial
    comp = SquareMatrix(F, [[0, 1], [3, 3]])  # w^2 - 3w + 2
    assert charpoly(comp) == (2, 2, 1)
    # similarity invariance on random samples
    rs = RandomSource(5)
    F9 = get_field(3, 2)
    for _ in range(50):
        M = SquareMatrix(F9, [[rs.randrange(9) for _ in range(3)] for _ in range(3)])
        g = SquareMatrix(F9, [[rs.randrange(9) for _ in range(3)] for _ in range(3)])
        if g.det() == 0:
            continue
        assert charpoly(g.inverse() * M * g) == charpoly(M)


def test_order_of_matrix():
    F = get_field(2, 1)
    assert order_of_matrix(SquareMatrix.identity(F, 3), factorize(168)) == 1
    # companion of a primitive polynomial is a Singer cycle of order q^d - 1
    F3 = get_field(3)
    comp = SquareMatrix(F3, [[0, 1], [1, 1]])  # w^2 - w - 1 primitive
    assert order_of_matrix(comp, factorize(8)) == 8
    F7 = get_field(7)
    lam = F7.exp[1]
    diag = SquareMatrix(F7, [[lam, 0], [0, F7.inv_code(lam)]])
    assert order_of_matrix(diag, factorize(6)) == 6
    from beauville.matgrp import NotUnipotentConsistent
    with pytest.raises(NotUnipotentConsistent):
        order_of_matrix(comp, factorize(7))


def test_has_order_matches_order_of_matrix():
    # true exactly at the order found by the descent from |GL_d(q)|: not at
    # 0, 1 (unless M = I), twice the order or the order over one prime
    rs = RandomSource(22)
    for d in range(1, 5):
        for q in (2, 3, 4, 5, 7, 8, 9):
            ctx = get_field_of_order(q)
            exponent = factorize(classical_order(GroupSpec("GL", d, q)))
            for _ in range(4):
                M = SquareMatrix(ctx, [[rs.randrange(q) for _ in range(d)] for _ in range(d)])
                if M.det() == 0:
                    continue
                o = order_of_matrix(M, exponent)
                for n in {0, 1, o, 2 * o} | {o // r for r in factorize(o).primes}:
                    assert M.has_order(n) == (n == o), (d, q, M, n, o)


def test_form_preservation_of_standard_generators():
    spec = GroupSpec("Sp", 4, 3)
    form = antidiagonal_form(get_field(3), 4, "symplectic")
    for g in standard_generators(spec):
        assert form.preserves(g)
    spec = GroupSpec("SU", 3, 3)
    form = antidiagonal_form(get_field(3, 2), 3, "hermitian")
    for g in standard_generators(spec):
        assert form.preserves(g)
        assert g.det() == 1


def test_lineardim3():
    for q in (5, 7, 8, 9):
        x, y, xy = lineardim3_triple(q)
        assert x.det() == 1 and y.det() == 1
        want = (q * q - 1) if q % 2 == 0 else (q * q - 1) // 2
        assert order_of_matrix(xy, factorize(q * q - 1)) == want
    for q in (3, 4):
        with pytest.raises(BadField):
            lineardim3_triple(q)


def test_lineardim3_types():
    # q = 8: x has order 4, y order 2, xy order 63
    x, y, xy = lineardim3_triple(8)
    assert order_of_matrix(x, factorize(8)) == 4
    assert order_of_matrix(y, factorize(8)) == 2
    assert order_of_matrix(xy, factorize(63)) == 63
    # odd q: unipotent orders p
    x, y, xy = lineardim3_triple(5)
    assert order_of_matrix(x, factorize(5)) == 5
    assert order_of_matrix(y, factorize(5)) == 5


def test_u41():
    for q in (3, 4, 5):
        p, h = factorize(q).factors[0]
        x, y, xy = u41_triple(q)
        form = antidiagonal_form(get_field(p, 2 * h), 4, "hermitian")
        assert form.preserves(x) and form.preserves(y)
        target = lambda_value(4 * h, p)
        assert order_of_matrix(xy, factorize(q ** 4 - 1)) == target
    with pytest.raises(BadField):
        u41_triple(2)


def test_u41_types():
    # q = 4: type (4, 2, 17)
    x, y, xy = u41_triple(4)
    assert order_of_matrix(x, factorize(16)) == 4
    assert order_of_matrix(y, factorize(16)) == 2
    assert order_of_matrix(xy, factorize(4 ** 4 - 1)) == 17


def test_u3():
    for q in (3, 4, 5, 7):
        x, y, xy = u3_triple(q)
        assert order_of_matrix(xy, factorize(q * q - 1)) == q * q - 1
    # q = 4: type (4, 2, 15)
    x, y, xy = u3_triple(4)
    assert order_of_matrix(x, factorize(16)) == 4
    assert order_of_matrix(y, factorize(16)) == 2
    # q = 3: the order oracle reports o(xy) = 8
    x, y, xy = u3_triple(3)
    assert order_of_matrix(xy, factorize(8)) == 8
    with pytest.raises(BadField):
        u3_triple(2)


def test_sp42():
    # q = 5: product order (q^2+1)/2 = 13; q = 4: type (4, 4, 17)
    x, y, xy = sp42_triple(5)
    assert order_of_matrix(xy, factorize(26)) == 13
    assert order_of_matrix(x, factorize(5)) == 5
    x, y, xy = sp42_triple(4)
    assert order_of_matrix(x, factorize(16)) == 4
    assert order_of_matrix(y, factorize(16)) == 4
    assert order_of_matrix(xy, factorize(17)) == 17
    form = antidiagonal_form(get_field(2, 2), 4, "symplectic")
    assert form.preserves(x) and form.preserves(y)
    # p = 3 branch: type (9, 3, 41) over GF(9)
    x, y, xy = sp42_triple(9)
    assert order_of_matrix(x, factorize(27)) == 9
    assert order_of_matrix(xy, factorize(41)) == 41
    with pytest.raises(BadField):
        sp42_triple(3)


def test_suzuki():
    spec = suzuki_generators(8)
    assert spec.declared_order == 29120
    perms, npts, _ = matrix_to_perm(list(spec.generators), "projective")
    assert schreier_sims(perms).order() == 29120
    # element order census: Sz(8) has orders {1, 2, 4, 5, 7, 13} only
    from beauville.permgrp import mulclose
    orders = {g.order() for g in mulclose(perms, cap=30000)}
    assert orders == {1, 2, 4, 5, 7, 13}
    with pytest.raises(BadField):
        suzuki_generators(4)
    with pytest.raises(BadField):
        suzuki_generators(16)


def test_omega_minus():
    spec = omega_minus_char2_generators(8)
    perms, _, _ = matrix_to_perm(list(spec.generators), "vectors")
    assert schreier_sims(perms).order() == spec.declared_order == 197406720


def _gf2_rank(rows):
    echelon = []
    for r in rows:
        for b in echelon:
            r = min(r, r ^ b)
        if r:
            echelon.append(r)
    return len(echelon)


def test_omega_minus_generators_fix_no_vector():
    # x fixed by every g means x (g - I) = 0 for every g: x is in the left
    # kernel of the side-by-side g - I blocks, which have full rank d iff
    # no nonzero vector is fixed
    for d in range(4, 18, 2):
        gens = omega_minus_char2_generators(d).generators
        rows = [int("".join(str(g.rows[i][j] ^ (i == j)) for g in gens for j in range(d)), 2)
                for i in range(d)]
        assert _gf2_rank(rows) == d, d
    spec = omega_minus_char2_generators(10)
    perms, _, _ = matrix_to_perm(list(spec.generators), "vectors")
    assert schreier_sims(perms).order() == spec.declared_order == 25015379558400


# ---------------------------------------------------------------------------
# table kernels, on one matrix and stacked, against reference kernels kept
# here: products, determinants and Frobenius through the field's methods
# (checked against digit loops and polynomial products in test_ffield), and
# a column-subset charpoly

SUITE_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)
KERNEL_FIELDS = sorted({(p, a * k) for q in SUITE_QS for p, a in factorize(q).factors
                        for k in (1, 2)})


def _ref_sum(F, terms):
    acc = 0
    for t in terms:
        acc = F.add_code(acc, t)
    return acc


def _ref_mul(F, A, B):
    d = len(A)
    return tuple(tuple(_ref_sum(F, [F.mul_code(A[i][k], B[k][j]) for k in range(d)])
                       for j in range(d)) for i in range(d))


def _ref_det(F, A):
    """Leibniz expansion over all permutations."""
    d, total = len(A), 0
    for perm in itertools.permutations(range(d)):
        term = 1
        for i, j in enumerate(perm):
            term = F.mul_code(term, A[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        total = F.add_code(total, F.neg_code(term) if inversions % 2 else term)
    return total


def _ref_charpoly(F, A):
    """det(wI - A) by expansion along rows with a column-subset table."""
    d = len(A)

    def padd(f, g):
        if len(f) < len(g):
            f, g = g, f
        return tuple(F.add_code(a, b) for a, b in itertools.zip_longest(f, g, fillvalue=0))

    table = {0: (1,)}
    for i in range(d):
        new_table = {}
        for mask, poly in table.items():
            for j in range(d):
                bit = 1 << j
                if mask & bit:
                    continue
                const = F.neg_code(A[i][j])
                term = tuple(F.mul_code(c, const) for c in poly)
                if i == j:
                    term = padd(term, (0,) + poly)
                if bin(mask >> (j + 1)).count("1") & 1:
                    term = tuple(F.neg_code(c) for c in term)
                key = mask | bit
                new_table[key] = padd(new_table[key], term) if key in new_table else term
        table = new_table
    out = table[(1 << d) - 1]
    return out + (0,) * (d + 1 - len(out))


def _ref_power(F, x, e):
    result = 1
    while e:
        if e & 1:
            result = F.mul_code(result, x)
        x, e = F.mul_code(x, x), e >> 1
    return result


def _kernel_pool(F, d, rs):
    """Zero, identity, singular, nilpotent, triangular with zero subdiagonal,
    permutation and monomial, sparse and dense."""
    q = F.q

    def rand(nonzero=False):
        return 1 + rs.randrange(q - 1) if nonzero else rs.randrange(q)

    def build(entry):
        return [[entry(i, j) for j in range(d)] for i in range(d)]

    pool = [build(lambda i, j: 0), build(lambda i, j: int(i == j)),
            build(lambda i, j: rand() if j > i else 0),              # strictly upper
            build(lambda i, j: rand() if j < i else 0),              # strictly lower
            build(lambda i, j: rand() if j >= i else 0),             # upper, zero subdiagonal
            build(lambda i, j: rand() if rs.randrange(2) else 0),    # sparse
            build(lambda i, j: rand() if rs.randrange(2) else 0)]
    pool += [build(lambda i, j: rand()) for _ in range(3)]
    singular = build(lambda i, j: rand())
    # last row = first row + an earlier row (the zero row when d = 1)
    singular[-1] = [F.add_code(a, b) if d > 1 else 0
                    for a, b in zip(singular[0], singular[(d - 1) // 2])]
    pool.append(singular)
    perms = list(itertools.permutations(range(d)))
    chosen = perms if len(perms) <= 6 else [perms[rs.randrange(len(perms))] for _ in range(4)]
    for perm in chosen:
        pool.append(build(lambda i, j: int(perm[i] == j)))
    pool.append(build(lambda i, j: rand(nonzero=True) if perm[i] == j else 0))
    return [SquareMatrix(F, rows) for rows in pool]


@pytest.mark.parametrize("p, a", KERNEL_FIELDS)
def test_kernels_match_reference(p, a):
    F = get_field(p, a)
    q, rs = F.q, RandomSource(1000 * p + a)
    for d in range(1, 6):
        ident = SquareMatrix.identity(F, d).rows
        pool = _kernel_pool(F, d, rs)
        dense = pool[7]
        for M in pool:
            A = M.rows
            cp = charpoly(M)
            assert cp == _ref_charpoly(F, A), (F, A)
            if q <= 9:  # det(wI - M) at every w of the field
                for w in range(q):
                    shifted = [[F.add_code(w if i == j else 0, F.neg_code(v))
                                for j, v in enumerate(row)] for i, row in enumerate(A)]
                    value = 0
                    for c in reversed(cp):
                        value = F.add_code(F.mul_code(value, w), c)
                    assert value == _ref_det(F, shifted)
            det = _ref_det(F, A)
            assert M.det() == det
            if det:
                inv = M.inverse()
                assert _ref_mul(F, A, inv.rows) == _ref_mul(F, inv.rows, A) == ident
            else:
                with pytest.raises(ZeroDivisionError):
                    M.inverse()
            for B in (M, dense):
                assert (M * B).rows == _ref_mul(F, A, B.rows)
                assert (B * M).rows == _ref_mul(F, B.rows, A)
            assert M.transpose().rows == tuple(zip(*A))
            for k in range(a + 1):
                assert M.conjugate_entries(k).rows == tuple(
                    tuple(_ref_power(F, v, p ** k) for v in row) for row in A)
        # the pool as one stack, times itself and times itself reversed
        S, R = MatrixStack(pool), MatrixStack(pool[::-1])
        assert S.codes.shape == (len(pool), d, d) and S.d == d
        for M, cp in zip(pool, S.charpolys().tolist()):
            assert tuple(cp) == _ref_charpoly(F, M.rows), (F, M.rows)
        for other, stack in ((pool, S), (pool[::-1], R)):
            for M, B, prod in zip(pool, other, (S * stack).codes.tolist()):
                assert tuple(map(tuple, prod)) == _ref_mul(F, M.rows, B.rows)


def _ref_preserves(form, g):
    F, J = g.ctx, form.gram.rows
    gs = g.conjugate_entries(F.a // 2) if form.kind == "hermitian" else g
    return _ref_mul(F, _ref_mul(F, g.rows, J), tuple(zip(*gs.rows))) == J


def _random_invertible(F, d, rs):
    while True:
        P = SquareMatrix(F, [[rs.randrange(F.q) for _ in range(d)] for _ in range(d)])
        if P.det():
            return P


@pytest.mark.parametrize("p, a", KERNEL_FIELDS)
def test_preserves_matches_reference(p, a):
    # each antidiagonal J and P J sigma(P)^T for a random invertible P, whose
    # rows have several nonzero entries; the conjugates P g P^-1 of J's
    # isometries g preserve the latter
    F = get_field(p, a)
    rs = RandomSource(2000 * p + a)
    for d in range(1, 6):
        kinds = ["symmetric"] + (["symplectic"] if d % 2 == 0 else [])
        kinds += ["hermitian"] if a % 2 == 0 else []
        for kind in kinds:
            form = antidiagonal_form(F, d, kind)
            members = [SquareMatrix.identity(F, d)]
            members.append(SquareMatrix(F, [[F.neg_code(1) if i == j else 0 for j in range(d)]
                                            for i in range(d)]))
            if kind == "symplectic" and d == 4:
                members += standard_generators(GroupSpec("Sp", 4, F.q))
            if kind == "hermitian" and d in (3, 4) and p ** (a // 2) > 2:
                members += standard_generators(GroupSpec("SU", d, p ** (a // 2)))
            P = _random_invertible(F, d, rs)
            Ps = P.conjugate_entries(a // 2) if kind == "hermitian" else P
            dense = FormSpec(kind, P * form.gram * Ps.transpose())
            Pinv = P.inverse()
            for J, isometries in ((form, members), (dense, [P * g * Pinv for g in members])):
                for g in isometries:
                    assert J.preserves(g) and _ref_preserves(J, g)
                assert J.preserves_each(MatrixStack(isometries)).all()
                pool = _kernel_pool(F, d, rs)
                verdicts = [_ref_preserves(J, g) for g in pool]
                assert [J.preserves(g) for g in pool] == verdicts
                assert J.preserves_each(MatrixStack(pool)).tolist() == verdicts


def test_preserves_refuses_foreign_matrices():
    F = get_field(5, 2)
    form = antidiagonal_form(F, 4, "hermitian")
    with pytest.raises(ValueError):
        form.preserves(SquareMatrix.identity(get_field(5), 4))
    for d in (3, 5):  # a bare zip would check only the top-left block of d = 5
        with pytest.raises(ValueError):
            form.preserves(SquareMatrix.identity(F, d))


def test_stacks_refuse_foreign_matrices():
    F, G = get_field(5, 2), get_field(5)
    form = antidiagonal_form(F, 4, "hermitian")
    S4 = MatrixStack([SquareMatrix.identity(F, 4)] * 2)
    # a larger matrix after a smaller one would fill the stack unchecked
    for matrices in ([], [SquareMatrix.identity(F, 4), SquareMatrix.identity(G, 4)],
                     [SquareMatrix.identity(F, 3), SquareMatrix.identity(F, 4)]):
        with pytest.raises(ValueError):
            MatrixStack(matrices)
    with pytest.raises(ValueError):
        form.preserves_each(MatrixStack([SquareMatrix.identity(G, 4)]))
    for d in (3, 5):
        other = MatrixStack([SquareMatrix.identity(F, d)] * 2)
        with pytest.raises(ValueError):
            form.preserves_each(other)
        with pytest.raises(ValueError):
            S4 * other
    for other in (MatrixStack([SquareMatrix.identity(G, 4)] * 2),
                  MatrixStack([SquareMatrix.identity(F, 4)] * 3)):
        with pytest.raises(ValueError):
            S4 * other
    assert form.preserves_each(S4).tolist() == [True, True]


def test_preserves_builds_no_matrices(monkeypatch):
    cases = []
    for kind, family in (("hermitian", "SU"), ("symplectic", "Sp")):
        gens = standard_generators(GroupSpec(family, 4, 3))
        ctx = gens[0].ctx
        form = antidiagonal_form(ctx, 4, kind)
        skew = SquareMatrix(ctx, [[2 if i == j == 0 else int(i == j) for j in range(4)]
                                  for i in range(4)])
        cases += [(form, g, True) for g in gens] + [(form, skew, False), (form, gens[0] * skew, False)]

    def refuse(self, other):
        raise AssertionError("FormSpec.preserves multiplied matrices")

    monkeypatch.setattr(SquareMatrix, "__mul__", refuse)
    for form, g, member in cases:
        assert form.preserves(g) is member


def test_mismatches_counts_form_failures():
    # x is no isometry but the printed charpoly is x*y's own, so only the
    # form check can reject, and it must reject every trial
    F = get_field(5, 2)
    form = antidiagonal_form(F, 4, "hermitian")
    x = SquareMatrix(F, [[2 if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)])
    y = standard_generators(GroupSpec("SU", 4, 5))[0]
    assert form.preserves(y) and not form.preserves(x)
    draws = []

    def draw():
        draws.append(1)
        return x, y, charpoly(x * y)

    assert _mismatches(7, draw, form) == 7 and len(draws) == 7
    assert _mismatches(7, draw) == 0 and len(draws) == 14


@pytest.mark.parametrize("limit", [1000, 3])
def test_mismatches_counts_each_failing_draw(monkeypatch, limit):
    # seven draws: one fails only the x form check, one only the y form
    # check, one only the charpoly; a stack limit of 3 splits them 3 + 3 + 1
    monkeypatch.setattr(identities, "_STACK_LIMIT", limit)
    F = get_field(5, 2)
    form = antidiagonal_form(F, 4, "hermitian")
    gens = standard_generators(GroupSpec("SU", 4, 5))
    skew = SquareMatrix(F, [[2 if i == j == 0 else int(i == j) for j in range(4)]
                            for i in range(4)])
    assert not form.preserves(skew) and all(form.preserves(g) for g in gens[:3])
    pairs = [(gens[0], gens[1]), (skew, gens[1]), (gens[1], gens[2]), (gens[2], skew),
             (gens[0], gens[2]), (gens[2], gens[0]), (gens[1], gens[0])]
    wrong = list(charpoly(gens[0] * gens[2]))
    wrong[1] = F.add_code(wrong[1], 1)
    drawn = []

    def draw():
        x, y = pairs[len(drawn)]
        drawn.append(1)
        printed = tuple(wrong) if len(drawn) == 5 else charpoly(x * y)
        return x, y, printed

    assert _mismatches(7, draw, form) == 3 and len(drawn) == 7
    del drawn[:]
    assert _mismatches(7, draw) == 1 and len(drawn) == 7


def test_square_matrix_checks_shape_and_codes():
    F = get_field(5)
    with pytest.raises(ValueError):
        SquareMatrix(F, [[0, 5], [1, 0]])
    with pytest.raises(ValueError):
        SquareMatrix(F, [[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        SquareMatrix(F, [[0, 1], [1]])
    for a, b in ((4, 3), (3, 4)):
        with pytest.raises(ValueError):
            SquareMatrix.identity(F, a) * SquareMatrix.identity(F, b)


# Every matrix of the explicit triples and of the standard generating sets,
# hashed: a change in how their entries are computed must keep each code.
PINNED_TRIPLES = [
    (lineardim3_triple, (5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)),
    (u41_triple, (3, 4, 5, 7, 8, 9)),
    (u3_triple, (3, 4, 5, 7, 8, 9, 11, 13, 16, 25)),
    (sp42_triple, (4, 5, 7, 8, 9, 11, 13, 16, 25)),
]


def test_triples_are_pinned():
    digest = hashlib.sha256()
    for fn, qs in PINNED_TRIPLES:
        for q in qs:
            digest.update(repr((fn.__name__, q, [M.rows for M in fn(q)])).encode())
    assert digest.hexdigest() == "da77efd9905d700855bec0123be96651a531142c6724edc35c33bd6c578964b5"


def test_standard_generators_are_pinned():
    specs = [GroupSpec(family, d, q)
             for family, dims in (("SL", (2, 3, 4)), ("Sp", (2, 4)), ("SU", (2, 3, 4, 5)))
             for d in dims for q in (2, 3, 4, 5, 7, 8, 9)]
    specs += [GroupSpec("SuzukiB2", 4, q) for q in (8, 32)]
    assert len(specs) == 65
    digest = hashlib.sha256()
    for spec in specs:
        gens = standard_generators(spec)
        digest.update(repr((spec.family, spec.d, spec.q, [M.rows for M in gens])).encode())
    assert digest.hexdigest() == "5c3bb3eefc760faf639f84c5e271b24245c0a2e5968757c5fc704fefcf3e875c"


@pytest.mark.parametrize("candidates, kind, qs, count", [
    (_u41_candidates, "hermitian", (3, 4, 5), lambda q: q ** 3 - q ** 2),
    (_sp42_candidates, "symplectic", (4, 5, 7, 8, 9),
     lambda q: (q - 1) ** 2 if q % 2 == 0 else q * q - (q if q % 3 == 0 else 0)),
], ids=["u41", "sp42"])
def test_every_candidate_meets_its_target(candidates, kind, qs, count):
    # the solvers check form membership and the target charpoly on the pair
    # they return only: the parameters are solved so that both hold for
    # every (t, f) candidate, not only for those the search passes over
    for q in qs:
        targets, xs, ys, _ = zip(*candidates(q))
        X, Y = MatrixStack(xs), MatrixStack(ys)
        ctx = X.ctx
        # every (t, f) once, but those whose solve fails: c = 0 for u41
        # (one f per t), t = 0 or f = 0 for even sp42, b = 0 at p = 3
        assert len(set(targets)) == len(targets) == count(q)
        for one, t_low, f, t, lead in targets:
            assert one == lead == 1 and ctx.pow_code(f, q) == f
            assert t_low == (ctx.pow_code(t, q) if kind == "hermitian" else t)
        form = antidiagonal_form(ctx, 4, kind)
        assert form.preserves_each(X).all() and form.preserves_each(Y).all()
        assert [tuple(cp) for cp in (X * Y).charpolys().tolist()] == list(targets)


def test_triple_solvers_check_the_returned_pair_only(monkeypatch):
    # the (t, f) searches filter on the order of x*y; each kernel that checks
    # the form or a charpoly runs at most twice per solve, however many
    # candidates the search passes over
    calls = collections.Counter()

    def counted(name, kernel):
        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapper

    monkeypatch.setattr(matgrp, "charpoly", counted("charpoly", matgrp.charpoly))
    for cls, name in ((FormSpec, "preserves"), (FormSpec, "preserves_each"),
                      (MatrixStack, "charpolys")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    for fn, qs in PINNED_TRIPLES:
        for q in qs:
            calls.clear()
            fn(q)
            assert max(calls.values()) <= 2, (fn.__name__, q, dict(calls))
