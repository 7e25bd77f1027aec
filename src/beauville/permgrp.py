"""Permutation groups with base/strong-generating-set certificates.

Permutations are stored 0-based as image tuples and compose left to right
((p * q)(i) = q[p[i]]), matching the row-vector matrix action.  The BSGS is
built by the deterministic incremental Schreier-Sims algorithm with base
points taken as first moved points, so the whole structure is a function of
the generator list alone.  Orders, membership and the generation
certificates used by the Beauville predicates all come from it.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .ffield import FieldCtx
from .matgrp import SquareMatrix


class TooManyPoints(ValueError):
    """The requested action has more points than the configured cap."""


class BadN(ValueError):
    """The alternating-group construction needs a larger degree."""


CAP_EXCEEDED = object()  # sentinel returned by class_orbit when over cap


class Permutation:
    """A permutation of 0..n-1 as an image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        self.images = tuple(images)
        if set(self.images) != set(range(len(self.images))):
            raise ValueError("not a permutation")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]],
                    one_based: bool = True) -> "Permutation":
        img = list(range(n))
        for cyc in cycles:
            pts = [c - 1 for c in cyc] if one_based else list(cyc)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                img[a] = b
        return cls(img)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        q = other.images
        return Permutation([q[i] for i in self.images])

    def __pow__(self, e: int) -> "Permutation":
        if e < 0:
            return self.inverse() ** (-e)
        result = Permutation.identity(self.degree)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def conjugate(self, g: "Permutation") -> "Permutation":
        """self^g = g^-1 * self * g."""
        ginv = g.inverse()
        return ginv * self * g

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self, skip_fixed: bool = True) -> List[Tuple[int, ...]]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            if len(cyc) > 1 or not skip_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> Tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles(skip_fixed=False)), reverse=True))

    def order(self) -> int:
        out = 1
        for c in self.cycles():
            out = out * len(c) // math.gcd(out, len(c))
        return out

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cyc)


# ---------------------------------------------------------------------------
# Schreier-Sims


class BSGS:
    """Base, strong generators and per-level transversals for <gens>."""

    def __init__(self, gens: Sequence[Permutation]):
        if not gens:
            raise ValueError("need at least one generator")
        self.degree = gens[0].degree
        if any(g.degree != self.degree for g in gens):
            raise ValueError("mixed degrees")
        self.gens = [g for g in gens if not g.is_identity()]
        self.base: List[int] = []
        self.level_gens: List[List[Permutation]] = []
        self.transversals: List[Dict[int, Permutation]] = []
        self._build()

    # transversal[l][p] maps base[l] to p; reps are stable once assigned

    def _strip(self, g: Permutation, from_level: int = 0) -> Tuple[Permutation, int]:
        h = g
        for level in range(from_level, len(self.base)):
            pt = h.images[self.base[level]]
            trans = self.transversals[level]
            if pt not in trans:
                return h, level
            h = h * trans[pt].inverse()
        return h, len(self.base)

    def _add_base_point(self, g: Permutation) -> None:
        moved = next(i for i in range(self.degree) if g.images[i] != i)
        self.base.append(moved)
        self.level_gens.append([])
        self.transversals.append({self.base[-1]: Permutation.identity(self.degree)})

    def _level_generators(self, level: int) -> List[Permutation]:
        """All installed generators fixing base[0..level-1], i.e. the union
        of the lists from this level downwards."""
        out = []
        for lst in self.level_gens[level:]:
            out.extend(lst)
        return out

    def _extend_orbit(self, level: int, h: Permutation) -> List[Permutation]:
        """Extend one level's orbit by a new generator; reps stay stable.
        Returns the fresh Schreier generators of that level."""
        trans = self.transversals[level]
        gens = self._level_generators(level)
        schreier = []
        frontier = []
        for pt in list(trans):
            img = h.images[pt]
            if img not in trans:
                trans[img] = trans[pt] * h
                frontier.append(img)
            else:
                s = trans[pt] * h * trans[img].inverse()
                if not s.is_identity():
                    schreier.append(s)
        while frontier:
            new_frontier = []
            for pt in frontier:
                rep = trans[pt]
                for g in gens:
                    img = g.images[pt]
                    if img not in trans:
                        trans[img] = rep * g
                        new_frontier.append(img)
                    else:
                        s = rep * g * trans[img].inverse()
                        if not s.is_identity():
                            schreier.append(s)
            frontier = new_frontier
        return schreier

    def _build(self) -> None:
        stack = [(g, 0) for g in reversed(self.gens)]
        while stack:
            g, level = stack.pop()
            h, drop = self._strip(g, level)
            if h.is_identity():
                continue
            if drop == len(self.base):
                self._add_base_point(h)
            # h fixes base[0..drop-1], so it joins the generator sets of
            # every level up to drop and can grow each of those orbits
            self.level_gens[drop].append(h)
            for l in range(drop + 1):
                for s in self._extend_orbit(l, h):
                    stack.append((s, l + 1))
        for g in self.gens:
            h, _ = self._strip(g)
            assert h.is_identity(), "strong generating set verification failed"

    def order(self) -> int:
        out = 1
        for trans in self.transversals:
            out *= len(trans)
        return out

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        h, _ = self._strip(g)
        return h.is_identity()


def schreier_sims(gens: Sequence[Permutation]) -> BSGS:
    """Deterministic BSGS for the group generated by gens."""
    return BSGS(gens)


def mulclose(gens: Iterable, cap: Optional[int] = None):
    """Exhaustive closure of a generating set (test oracle for BSGS orders)."""
    gens = list(gens)
    els = set(gens)
    frontier = list(els)
    while frontier:
        new_frontier = []
        for a in frontier:
            for g in gens:
                c = a * g
                if c not in els:
                    els.add(c)
                    new_frontier.append(c)
                    if cap is not None and len(els) > cap:
                        raise ValueError("closure exceeded cap")
        frontier = new_frontier
    return els

# ---------------------------------------------------------------------------
# matrix groups as permutation groups


def _vector_points(ctx: FieldCtx, d: int) -> List[Tuple[int, ...]]:
    """All nonzero code vectors in coordinate-lex order (frozen contract)."""
    pts = [v for v in itertools.product(range(ctx.q), repeat=d) if any(v)]
    return pts


def _projective_points(ctx: FieldCtx, d: int) -> List[Tuple[int, ...]]:
    """Representatives with first nonzero coordinate 1, coordinate-lex order."""
    pts = []
    for lead in range(d):
        for tail in itertools.product(range(ctx.q), repeat=d - lead - 1):
            pts.append((0,) * lead + (1,) + tail)
    pts.sort()
    return pts


def _normalize_projective(ctx: FieldCtx, vec: Tuple[int, ...]) -> Tuple[int, ...]:
    lead = next(c for c in vec if c)
    if lead == 1:
        return vec
    inv = ctx.inv_code(lead)
    return tuple(ctx.mul_code(inv, c) for c in vec)


class PointAction:
    """A fixed enumeration of vector or projective points for one context."""

    def __init__(self, ctx: FieldCtx, d: int, kind: str, cap: int = 10 ** 7):
        count = ctx.q ** d - 1
        if kind == "projective":
            count //= ctx.q - 1
        if count > cap:
            raise TooManyPoints(f"{count} points exceeds the cap {cap}")
        self.ctx = ctx
        self.d = d
        self.kind = kind
        if kind == "vectors":
            self.points = _vector_points(ctx, d)
        elif kind == "projective":
            self.points = _projective_points(ctx, d)
        else:
            raise ValueError("kind must be 'vectors' or 'projective'")
        self.index = {p: i for i, p in enumerate(self.points)}

    def permutation(self, M: SquareMatrix) -> Permutation:
        img = [0] * len(self.points)
        for i, v in enumerate(self.points):
            w = M.apply(v)
            if self.kind == "projective":
                w = _normalize_projective(self.ctx, w)
            img[i] = self.index[w]
        return Permutation(img)


def matrix_to_perm(gens: Sequence[SquareMatrix], action: str = "vectors",
                   cap: int = 10 ** 7) -> Tuple[List[Permutation], int, PointAction]:
    """Permutation images of matrix generators on nonzero vectors or
    projective points.  The projective action has exactly the scalars as
    kernel, realizing the central quotient."""
    if not gens:
        raise ValueError("need at least one matrix")
    act = PointAction(gens[0].ctx, gens[0].d, action, cap)
    return [act.permutation(M) for M in gens], len(act.points), act


# ---------------------------------------------------------------------------
# conjugacy class orbits


def class_orbit(g, gens: Sequence, cap: int = 200000):
    """The conjugacy class of g under <gens> by orbit closure, or the
    CAP_EXCEEDED sentinel.  Works for any hashable element type with `*`
    and `.inverse()`."""
    gen_pairs = [(h, h.inverse()) for h in gens]
    orbit = {g}
    frontier = [g]
    while frontier:
        new_frontier = []
        for x in frontier:
            for h, hinv in gen_pairs:
                y = hinv * (x * h)
                if y not in orbit:
                    if len(orbit) >= cap:
                        return CAP_EXCEEDED
                    orbit.add(y)
                    new_frontier.append(y)
        frontier = new_frontier
    return orbit


# ---------------------------------------------------------------------------
# alternating group triples


def alt_triple(n: int) -> Tuple[Permutation, Permutation, Tuple[int, int, int]]:
    """The explicit Alt(n) pair: type (n-2, n-2, 5) for odd n >= 7 and
    (lcm(3, n-3), n-2, 3) for even n >= 6, generation certified by BSGS."""
    if n < 6 or (n % 2 == 1 and n < 7):
        raise BadN("need n >= 6, and n >= 7 when odd")
    if n % 2:
        x = Permutation.from_cycles(n, [tuple(range(1, n - 1))])
        y = Permutation.from_cycles(n, [tuple(range(n, 2, -1))])
        z = x * y
        assert z == Permutation.from_cycles(n, [(1, 2, n, n - 1, n - 2)])
        assert (x * y.inverse()).cycle_type()[0] == n  # n-cycle, as in the proof
        expected = (n - 2, n - 2, 5)
    else:
        u = Permutation.from_cycles(n, [(1, 2), tuple(range(n, 2, -1))])
        v = Permutation.from_cycles(n, [tuple(range(1, n - 2)), (n - 2, n - 1, n)])
        assert u * v == Permutation.from_cycles(n, [(1, 3, n - 2)])
        # the stated type lists the lcm(3, n-3) element first, so swap
        x, y = v, u
        z = x * y
        expected = (math.lcm(3, n - 3), n - 2, 3)
    assert (x.order(), y.order(), z.order()) == expected
    assert schreier_sims([x, y]).order() == math.factorial(n) // 2
    return x, y, expected


# ---------------------------------------------------------------------------
# seeded randomness and product replacement


_MASK64 = (1 << 64) - 1


class RandomSource:
    """SplitMix64 stream; identical seeds give identical element streams."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("empty range")
        # rejection sampling keeps the stream portable and unbiased
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            v = self.next64()
            if v <= limit:
                return v % n

    def derive(self, index: int) -> "RandomSource":
        child = RandomSource(self.seed ^ (0xD1B54A32D192ED03 * (index + 1) & _MASK64))
        child.next64()
        return child


class ProductReplacer:
    """Product-replacement (rattle) state over a generating set of any
    element type with `*` and `.inverse()`."""

    SLOTS = 10
    BURN_IN = 60

    def __init__(self, gens: Sequence, rs: RandomSource):
        if not gens:
            raise ValueError("need generators")
        self.rs = rs
        slots = list(gens)
        while len(slots) < self.SLOTS:
            slots.append(gens[len(slots) % len(gens)])
        self.slots = slots
        self.acc = gens[0].inverse() * gens[0]
        for _ in range(self.BURN_IN):
            self._mix()

    def _mix(self):
        n = len(self.slots)
        i = self.rs.randrange(n)
        j = self.rs.randrange(n - 1)
        if j >= i:
            j += 1
        other = self.slots[j]
        if self.rs.randrange(2):
            other = other.inverse()
        if self.rs.randrange(2):
            self.slots[i] = self.slots[i] * other
        else:
            self.slots[i] = other * self.slots[i]
        self.acc = self.acc * self.slots[i]

    def random_element(self):
        self._mix()
        return self.acc


# ---------------------------------------------------------------------------
# ingestion (1-based whitespace image lists)


def parse_perm_file(text: str) -> Tuple[List[Permutation], int]:
    """Parse the `perm <degree> <count>` generator file format."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty permutation file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "perm":
        raise ValueError("line 1: expected header 'perm <degree> <count>'")
    degree, count = int(header[1]), int(header[2])
    if len(lines) - 1 != count:
        raise ValueError(f"expected {count} generator lines, found {len(lines) - 1}")
    gens = []
    for idx, line in enumerate(lines[1:], start=2):
        images = [int(tok) for tok in line.split()]
        if sorted(images) != list(range(1, degree + 1)):
            raise ValueError(f"line {idx}: not a permutation of 1..{degree}")
        gens.append(Permutation([v - 1 for v in images]))
    return gens, degree


def format_perm_file(gens: Sequence[Permutation]) -> str:
    degree = gens[0].degree
    out = [f"perm {degree} {len(gens)}"]
    for g in gens:
        out.append(" ".join(str(v + 1) for v in g.images))
    return "\n".join(out) + "\n"
