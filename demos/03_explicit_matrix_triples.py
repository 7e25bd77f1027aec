"""The four explicit small-rank constructions.

Small classical groups do not have enough semisimple classes for purely
random arguments, so SL_3(q), SU_4(q), SU_3(q) and Sp_4(q) get explicit
unipotent pairs whose product is steered onto a target characteristic
polynomial.  Each builder solves the free parameters, asserts the printed
coefficient identity and certifies the product order.

Run:  python demos/03_explicit_matrix_triples.py
"""

from beauville import (
    factorize,
    lineardim3_triple,
    order_of_matrix,
    sp42_triple,
    u3_triple,
    u41_triple,
)
from beauville.numtheory import lambda_value

print("SL_3(q): unipotent x, transvection y, product in a maximal torus")
for q in (5, 7, 8, 9):
    x, y, xy = lineardim3_triple(q)
    o = order_of_matrix(xy, factorize(q * q - 1))
    print(f"  q={q}: o(xy) = {o} (target (q^2-1)/gcd(2,q-1) = "
          f"{(q * q - 1) // (1 if q % 2 == 0 else 2)})")

print()
print("SU_4(q): product of order lambda_{4h,p} (q = p^h)")
for q in (3, 4, 5):
    p, h = factorize(q).factors[0]
    x, y, xy = u41_triple(q)
    print(f"  q={q}: target {lambda_value(4 * h, p)}, "
          f"o(x) = {order_of_matrix(x, factorize(p ** 4))}, "
          f"o(y) = {order_of_matrix(y, factorize(p ** 4))}")

print()
print("SU_3(q): product of order q^2 - 1 exactly")
for q in (3, 4, 5):
    x, y, xy = u3_triple(q)
    print(f"  q={q}: o(xy) = {order_of_matrix(xy, factorize(q * q - 1))}")

print()
print("Sp_4(q): transvection pair, product order (q^2+1)/gcd(2,q-1)")
for q in (4, 5, 9):
    x, y, xy = sp42_triple(q)
    target = (q * q + 1) // (2 if q % 2 else 1)
    print(f"  q={q}: o(xy) = {order_of_matrix(xy, factorize(q ** 4 - 1))} "
          f"(target {target})")

print()
print("Randomized identity suites over every field up to q = 25:")
print("  beauville identities --lemma all --qmax 25")
