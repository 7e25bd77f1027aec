"""Reference computations the benchmark checks the program against.

Nothing here calls `beauville`: permutations are plain image tuples
composed left to right ((p * q)(i) = q[p[i]], the program's convention),
group orders come from closed forms or from sympy's Schreier-Sims, and the
Clifford product is rebuilt from e_i^2 = -1 and e_i e_j = -e_j e_i.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# permutations as image tuples


def compose(p, q):
    return tuple(q[i] for i in p)


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def is_identity(p):
    return all(i == j for i, j in enumerate(p))


def order(p):
    seen = [False] * len(p)
    out = 1
    for start in range(len(p)):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length:
            out = math.lcm(out, length)
    return out


def power(p, e):
    result = tuple(range(len(p)))
    base = p
    while e:
        if e & 1:
            result = compose(result, base)
        base = compose(base, base)
        e >>= 1
    return result


def conjugate(g, h):
    """g^h = h^-1 g h."""
    return compose(compose(inverse(h), g), h)


def class_orbit(g, gens):
    """The conjugacy class of g under <gens>, by breadth-first closure."""
    pairs = [(h, inverse(h)) for h in gens]
    orbit = {g}
    frontier = [g]
    while frontier:
        nxt = []
        for x in frontier:
            for h, hinv in pairs:
                y = compose(compose(hinv, x), h)
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    return orbit


def is_hyperbolic(orders):
    return sum(Fraction(1, o) for o in orders) < 1


def sympy_order(gens):
    """Order of <gens> by sympy's Schreier-Sims."""
    from sympy.combinatorics import Permutation, PermutationGroup
    return PermutationGroup([Permutation(list(g)) for g in gens]).order()


# ---------------------------------------------------------------------------
# closed-form group orders


def order_sl(n, q):
    out = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        out *= q ** i - 1
    return out


def order_sp4(q):
    return q ** 4 * (q ** 2 - 1) * (q ** 4 - 1)


def order_psl2(q):
    return q * (q * q - 1) // math.gcd(2, q - 1)


def order_sz(q):
    return q * q * (q * q + 1) * (q - 1)


ORDER_M11 = 7920


def source_order(source):
    """|G| for a catalog source string, from the closed forms above."""
    parts = source.split(":")
    if parts[0] == "file" and parts[1] == "M11.perm":
        return ORDER_M11
    family, args = parts[1], [int(v) for v in parts[2:]]
    if family == "SL":
        return order_sl(*args)
    if family == "Sp" and args[0] == 4:
        return order_sp4(args[1])
    if family == "PSL" and args[0] == 2:
        return order_psl2(args[1])
    if family == "Sz":
        return order_sz(args[0])
    raise ValueError(f"no closed form for {source}")


# ---------------------------------------------------------------------------
# Clifford algebra over GF(7)

P = 7


def basis_product(s, t):
    """e_S e_T = sign * e_U for subset bitmasks (bit i is e_(i+1)).

    e_T is the product of its generators in increasing order, so multiply
    e_S on the right by them one at a time: each new generator moves left
    past every larger generator already present (one sign change each),
    and meeting its own copy contracts to e_i^2 = -1.
    """
    sign = 1
    cur = s
    i = 0
    while t >> i:
        if t >> i & 1:
            if bin(cur >> (i + 1)).count("1") & 1:
                sign = -sign
            if cur >> i & 1:
                sign = -sign
            cur ^= 1 << i
        i += 1
    return sign, cur


def clifford_mul(a, b):
    """Product of two coefficient vectors (sequences of ints mod 7)."""
    out = [0] * len(a)
    b_terms = [(t, int(c)) for t, c in enumerate(b) if c]
    for s, ca in enumerate(a):
        if not ca:
            continue
        ca = int(ca)
        for t, cb in b_terms:
            sign, u = basis_product(s, t)
            out[u] += sign * ca * cb
    return [c % P for c in out]


def clifford_is_one(v):
    return v[0] % P == 1 and not any(c % P for c in v[1:])


def clifford_order(v, bound):
    """Least k <= bound with v^k = 1, or None."""
    acc = list(v)
    for k in range(1, bound + 1):
        if clifford_is_one(acc):
            return k
        acc = clifford_mul(acc, v)
    return None
