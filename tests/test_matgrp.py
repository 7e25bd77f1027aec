import pytest

from beauville.ffield import get_field, multiplicative_generator
from beauville.matgrp import (
    BadField,
    FormSpec,
    GroupSpec,
    SquareMatrix,
    UnsupportedFamily,
    antidiagonal_form,
    charpoly,
    classical_order,
    lineardim3_triple,
    omega_minus_char2_generators,
    order_of_matrix,
    singer_order,
    sp42_triple,
    spin_submodule_search,
    standard_generators,
    suzuki_generators,
    u3_triple,
    u41_triple,
)
from beauville.numtheory import factorize, lambda_value
from beauville.permgrp import RandomSource, matrix_to_perm, schreier_sims


def test_classical_orders():
    assert classical_order(GroupSpec("SL", 3, 2)).value == 168
    assert classical_order(GroupSpec("Sp", 4, 3)).value == 51840
    assert classical_order(GroupSpec("GL", 1, 7)).value == 6
    assert classical_order(GroupSpec("SU", 3, 3)).value == 6048
    assert classical_order(GroupSpec("SU", 4, 2)).value == 25920
    assert classical_order(GroupSpec("SuzukiB2", 4, 8)).value == 29120
    assert classical_order(GroupSpec("OmegaMinus", 8, 2)).value == 197406720
    assert classical_order(GroupSpec("OmegaPlus", 8, 2)).value == 174182400
    assert classical_order(GroupSpec("OmegaOdd", 7, 3)).value == 4585351680
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
        expected = classical_order(spec).value
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
    comp = SquareMatrix.from_elements(F, [[0, 1], [-2, 3]])  # w^2 - 3w + 2
    assert charpoly(comp) == (2, 2, 1)
    # similarity invariance on random samples
    rs = RandomSource(5)
    F9 = get_field(3, 2)
    for _ in range(50):
        M = SquareMatrix(F9, [[rs.randrange(9) for _ in range(3)] for _ in range(3)])
        g = SquareMatrix(F9, [[rs.randrange(9) for _ in range(3)] for _ in range(3)])
        if g.det().code == 0:
            continue
        assert charpoly(g.inverse() * M * g) == charpoly(M)


def test_order_of_matrix():
    F = get_field(2, 1)
    assert order_of_matrix(SquareMatrix.identity(F, 3), factorize(168)) == 1
    # companion of a primitive polynomial is a Singer cycle of order q^d - 1
    F3 = get_field(3)
    comp = SquareMatrix.from_elements(F3, [[0, 1], [1, 1]])  # w^2 - w - 1 primitive
    assert order_of_matrix(comp, factorize(8)) == 8
    lam = multiplicative_generator(get_field(7))
    diag = SquareMatrix.from_elements(get_field(7), [[lam, 0], [0, lam ** -1]])
    assert order_of_matrix(diag, factorize(6)) == 6
    from beauville.matgrp import NotUnipotentConsistent
    with pytest.raises(NotUnipotentConsistent):
        order_of_matrix(comp, factorize(7))


def test_form_preservation_of_standard_generators():
    spec = GroupSpec("Sp", 4, 3)
    form = antidiagonal_form(get_field(3), 4, "symplectic")
    for g in standard_generators(spec):
        assert form.preserves(g)
    spec = GroupSpec("SU", 3, 3)
    form = antidiagonal_form(get_field(3, 2), 3, "hermitian")
    for g in standard_generators(spec):
        assert form.preserves(g)
        assert g.det().code == 1


def test_lineardim3():
    for q in (5, 7, 8, 9):
        x, y, xy = lineardim3_triple(q)
        assert x.det().code == 1 and y.det().code == 1
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


def test_spin_submodule_search():
    F = get_field(2, 1)
    block = SquareMatrix.from_elements(F, [[1, 1], [0, 1]])
    found = spin_submodule_search([block])
    assert found is not None and len(found.basis) == 1
    gens = standard_generators(GroupSpec("SL", 2, 4))
    assert spin_submodule_search(list(gens)) is None
    scal = SquareMatrix.from_elements(get_field(5), [[2, 0], [0, 2]])
    assert spin_submodule_search([scal]) is not None
