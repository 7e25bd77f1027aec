"""Double covers of the alternating groups acting on a spin module.

The cover 2.Sym(n) lives in the Clifford algebra with e_i^2 = -1 over GF(7):
the lifted transposition t_i = (e_i - e_{i+1})/sqrt(2) squares to the
central z = -1 and the braid relations hold on the nose.  Over GF(7) the
algebra splits, so it acts on a spin module of dimension 2^ceil(n/2), and
each element is one such matrix: the cover identities become exact matrix
products.  The module is faithful on the whole algebra (for n >= 5 it is
enough that z acts as -I), and the 2^n coordinates on the monomials e_S
stay available as the lazy view `.vec`.  The lifts x = t_{n-1}...t_1 and
y = t_1 t_1^(t_2...t_{n-1}) z project onto the n-cycle and a 3-cycle.

Run:  python demos/04_double_covers.py
"""

from beauville import build_cover, cover_order, nodd_triple, order3_xsimz_suite
from beauville.covers import standard_xy, word

print("Presentation check for n = 6 (verified on construction):")
cover = build_cover(6)
t, z = cover.t, cover.z
print(f"  elements are {cover.ctx.d} x {cover.ctx.d} matrices; t_1.vec has "
      f"{int((t[1].vec != 0).sum())} of {cover.ctx.dim} coordinates nonzero")
print("  t_1^2 = z:", t[1] * t[1] == z)
print("  (t_1 t_3)^2 = z:", (t[1] * t[3]) ** 2 == z)
print("  braid:", t[2] * t[3] * t[2] == t[3] * t[2] * t[3])

print()
print("o(y) alternates with the parity of n, and xy = x^(t_2...t_{n-1}):")
for row in order3_xsimz_suite(range(3, 11)):
    print(f"  n={row.n:>2}: o(y) = {row.y_order}, conjugation identity exact")

print()
print("Type (n,3,n) triples in 2.Alt(n) for odd n, with the center exhibited:")
for n in (7, 9):
    res = nodd_triple(n)
    which = "(xz, y, xyz)" if res.uses_xz else "(x, y, xy)"
    print(f"  n={n}: winner {which}; z recovered as {res.z_word}; "
          f"projected pair generates Alt({n}) of order {res.alt_order}")

print()
print("x itself may have order n or 2n; the construction picks the right lift:")
for n in (7, 9, 11):
    x, y = standard_xy(build_cover(n))
    print(f"  n={n}: o(x) = {cover_order(x)}, o(y) = {cover_order(y)}")
