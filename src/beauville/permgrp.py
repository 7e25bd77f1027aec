"""Permutation groups with base/strong-generating-set certificates.

Permutations act on 0..n-1 and compose left to right ((p * q)(i) = q[p[i]]),
matching the row-vector matrix action.  Each is stored as the bytes of its
0-based image row in the narrowest unsigned type: uint8 up to 256 points,
where a product is one bytes.translate and an inverse one bytes.maketrans,
and uint16 above, where a product is one numpy gather and an inverse one
scatter.  `.images` is a read-only tuple view of the row.  The public
constructor validates its input; products, inverses and identities are
built unchecked, since they are permutations by construction.

The BSGS is built by the deterministic incremental Schreier-Sims algorithm
with base points taken as first moved points, so the whole structure is a
function of the generator list alone.  Schreier generators are formed only
when they are taken off the work stack.  Orders, membership and the
generation certificates used by the Beauville predicates all come from it.
A build whose caller has proven H = <gens> <= G stops as soon as the
product of its transversal sizes, a lower bound on |H| at every stage,
reaches |G| (known_order): that proves H = G, and the stopped structure is
complete.  Each transversal rep is inverted at most once, on first use in
a sift, and the inverse is kept.

Conjugacy classes are closed a whole breadth-first layer at a time in
numpy, with no Python statement per candidate.  The closure keys each
element by its images of a base of <gens, g> (exact, because two elements
of a group that agree on its base are equal), dedupes a layer's keys by
sorting, and builds full rows only for new class elements.
Classes are kept as packed rows (PackedClass) in the same byte format, so
membership tests and structure constants use the elements' own bytes, and
class rows become Permutations with no copy.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .ffield import FieldCtx
from .matgrp import SquareMatrix, binary_power, field_arrays


class TooManyPoints(ValueError):
    """The requested action has more than POINT_CAP points."""


class BadN(ValueError):
    """The alternating-group construction needs a larger degree."""


CAP_EXCEEDED = object()  # sentinel returned by class_orbit when over cap
DEFAULT_CAP = 200000  # largest class, in elements, that class closures build
POINT_CAP = 10 ** 7  # most points a matrix group's point action may have


class Permutation:
    """A permutation of 0..n-1, stored as the bytes of its image row in the
    narrowest unsigned type (uint8 up to 256 points, uint16 up to 65,536).

    The stored bytes are exactly a PackedClass row.  `images` is a read-only
    tuple view of them; `_points()` is an indexable view for point lookups.
    """

    __slots__ = ("_data", "degree")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if set(images) != set(range(len(images))):
            raise ValueError("not a permutation")
        self.degree = len(images)
        self._data = np.array(images, _dtype(self.degree)).tobytes()

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return _unchecked(_identity_bytes(n), n)

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """The permutation of 0..n-1 with the given cycles on 1..n."""
        img = list(range(n))
        for cyc in cycles:
            pts = [c - 1 for c in cyc]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                img[a] = b
        return cls(img)

    @property
    def images(self) -> Tuple[int, ...]:
        return tuple(self._points())

    def _points(self):
        """The images as an indexable sequence of ints: the bytes themselves
        for uint8, a memoryview cast for wider rows."""
        if self.degree <= 256:
            return self._data
        return memoryview(self._data).cast(_dtype(self.degree).char)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)[i] = q[p[i]]: q's row, padded to a 256-byte table, is a
        # translate table for p's bytes; wider rows gather in numpy
        n = self.degree
        if n <= 256:
            return _unchecked(self._data.translate(other._data + _IDENT_BYTES[n:]), n)
        return _unchecked(_row(other).take(_row(self)).tobytes(), n)

    def __pow__(self, e: int) -> "Permutation":
        return binary_power(self, e, Permutation.identity(self.degree))

    def inverse(self) -> "Permutation":
        n = self.degree
        if n <= 256:
            # the table sending p[i] to i, cut back to n points
            return _unchecked(bytes.maketrans(self._data, _identity_bytes(n))[:n], n)
        inv = np.empty(n, _dtype(n))
        inv[_row(self)] = _identity_row(n)
        return _unchecked(inv.tobytes(), n)

    def conjugate(self, g: "Permutation") -> "Permutation":
        """self^g = g^-1 * self * g."""
        ginv = g.inverse()
        return ginv * self * g

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Permutation) and self.degree == other.degree
                and self._data == other._data)

    def __hash__(self) -> int:
        # the byte length fixes the degree, so equal bytes mean equal elements
        return hash(self._data)

    def is_identity(self) -> bool:
        return self._data == _identity_bytes(self.degree)

    def cycles(self, skip_fixed: bool = True) -> List[Tuple[int, ...]]:
        images = self._points()
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = images[j]
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

    def has_order(self, n: int) -> bool:
        """Whether the order is exactly n.  Stops at the first cycle whose
        length does not divide n, so most wrong orders cost a partial walk."""
        images = self._points()
        seen = [False] * self.degree
        out = 1
        for start in range(self.degree):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = images[j]
                length += 1
            if n % length:
                return False
            out = out * length // math.gcd(out, length)
        return out == n

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cyc)


_IDENT_BYTES = bytes(range(256))


@functools.lru_cache(maxsize=None)
def _dtype(degree: int) -> np.dtype:
    """The narrowest unsigned type holding the points 0..degree-1."""
    return np.min_scalar_type(max(degree - 1, 0))


@functools.lru_cache(maxsize=None)
def _identity_row(degree: int) -> np.ndarray:
    row = np.arange(degree, dtype=_dtype(degree))
    row.flags.writeable = False
    return row


@functools.lru_cache(maxsize=None)
def _identity_bytes(degree: int) -> bytes:
    return _identity_row(degree).tobytes()


def _unchecked(data: bytes, degree: int) -> Permutation:
    """A Permutation from image bytes known to be a permutation."""
    p = object.__new__(Permutation)
    p._data = data
    p.degree = degree
    return p


def orbit_partition(gens: Sequence[Permutation]) -> Tuple[int, ...]:
    """For each point, the least point of its orbit under <gens>: two
    groups on the same points have equal orbits iff these tuples agree."""
    degree = gens[0].degree
    rows = [g._points() for g in gens]
    label = [-1] * degree
    for start in range(degree):
        if label[start] >= 0:
            continue
        label[start] = start
        stack = [start]
        while stack:
            pt = stack.pop()
            for row in rows:
                img = row[pt]
                if label[img] < 0:
                    label[img] = start
                    stack.append(img)
    return tuple(label)


# ---------------------------------------------------------------------------
# Schreier-Sims


class BSGS:
    """Base, strong generators and per-level transversals for <gens>.

    With known_order the build returns as soon as order() reaches it,
    complete: the caller has proven that <gens> lies in a group of that
    order (see schreier_sims).  A build that never reaches it runs to
    completion, and one that passes it raises.
    """

    def __init__(self, gens: Sequence[Permutation], known_order: Optional[int] = None):
        if not gens:
            raise ValueError("need at least one generator")
        self.degree = gens[0].degree
        if any(g.degree != self.degree for g in gens):
            raise ValueError("mixed degrees")
        self.gens = [g for g in gens if not g.is_identity()]
        self.base: List[int] = []
        self.level_gens: List[List[Permutation]] = []
        self.transversals: List[Dict[int, Permutation]] = []
        self._inverses: List[Dict[int, Permutation]] = []
        self._build(known_order)

    # transversal[l][p] maps base[l] to p; reps are stable once assigned,
    # so an inverse rep, once computed, stays valid

    def _rep_inverse(self, level: int, pt: int) -> Permutation:
        """transversals[level][pt]^-1, computed on first use and kept."""
        inverses = self._inverses[level]
        inv = inverses.get(pt)
        if inv is None:
            inv = inverses[pt] = self.transversals[level][pt].inverse()
        return inv

    def _strip(self, g: Permutation, from_level: int = 0) -> Tuple[Permutation, int]:
        h = g
        for level in range(from_level, len(self.base)):
            pt = h._points()[self.base[level]]
            if pt not in self.transversals[level]:
                return h, level
            h = h * self._rep_inverse(level, pt)
        return h, len(self.base)

    def _add_base_point(self, g: Permutation) -> None:
        images = g._points()
        moved = next(i for i in range(self.degree) if images[i] != i)
        self.base.append(moved)
        self.level_gens.append([])
        self.transversals.append({self.base[-1]: Permutation.identity(self.degree)})
        self._inverses.append({})

    def _level_generators(self, level: int) -> List[Permutation]:
        """All installed generators fixing base[0..level-1], i.e. the union
        of the lists from this level downwards."""
        out = []
        for lst in self.level_gens[level:]:
            out.extend(lst)
        return out

    def _extend_orbit(self, level: int, h: Permutation, stack: list) -> None:
        """Extend one level's orbit by a new generator; reps stay stable.
        Pushes the level's fresh Schreier generators rep * g * back^-1,
        back the rep of img = (base point)^(rep * g), onto stack as pending
        (rep, g, img, level) entries."""
        trans = self.transversals[level]
        rows = [(g, g._points()) for g in self._level_generators(level)]
        frontier = []
        h_images = h._points()
        for pt in list(trans):
            img = h_images[pt]
            if img not in trans:
                trans[img] = trans[pt] * h
                frontier.append(img)
            else:
                stack.append((trans[pt], h, img, level))
        while frontier:
            new_frontier = []
            for pt in frontier:
                rep = trans[pt]
                for g, images in rows:
                    img = images[pt]
                    if img not in trans:
                        trans[img] = rep * g
                        new_frontier.append(img)
                    else:
                        stack.append((rep, g, img, level))
            frontier = new_frontier

    def _build(self, known_order: Optional[int]) -> None:
        # entries (g, gen, img, level): strip g * gen * rep^-1 from level + 1,
        # rep the level's rep of img; the input generators have gen None and
        # strip from level 0
        stack = [(g, None, None, 0) for g in reversed(self.gens)]
        while stack:
            g, gen, img, level = stack.pop()
            if gen is not None:
                g = g * gen * self._rep_inverse(level, img)
                if g.is_identity():
                    continue
                level += 1
            h, drop = self._strip(g, level)
            if h.is_identity():
                continue
            if drop == len(self.base):
                self._add_base_point(h)
            # h fixes base[0..drop-1], so it joins the generator sets of
            # every level up to drop and can grow each of those orbits
            self.level_gens[drop].append(h)
            for l in range(drop + 1):
                self._extend_orbit(l, h, stack)
            if known_order is not None:
                order = self.order()
                if order > known_order:
                    raise ValueError(
                        f"<gens> has order at least {order} > known order {known_order}")
                if order == known_order:
                    return
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


def schreier_sims(gens: Sequence[Permutation], known_order: Optional[int] = None) -> BSGS:
    """Deterministic BSGS for the group generated by gens.

    known_order = N carries a premise that the caller must have proven:
    <gens> lies in a group of order N.  The build then stops once its
    transversal product, a lower bound on |<gens>|, reaches N.  With
    |<gens>| <= N that forces every basic orbit to be full and the base's
    pointwise stabilizer to be trivial, so the structure is complete: it
    has the base, level generators and reps of the full build, since the
    Schreier generators left on the stack all strip to 1 (Seress,
    Permutation Group Algorithms, 2003, ch. 4).  A proper subgroup builds
    to completion with its exact order, and a product above N, which
    refutes the premise, raises ValueError.
    """
    return BSGS(gens, known_order)


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


class PointAction:
    """A fixed enumeration of vector or projective points for one context.

    Point i is the i-th code vector in coordinate-lex order (a frozen
    contract): every nonzero vector, or every projective representative
    whose first nonzero coordinate is 1.  Its key sum_k v_k q^(d-1-k) is
    therefore increasing in i, and an image's index is a binary search on
    its key.  permutation() maps all points at once with the context's
    numpy tables (matgrp.field_arrays), summing as FieldArrays.dot does.
    """

    def __init__(self, ctx: FieldCtx, d: int, kind: str):
        q = ctx.q
        count = q ** d - 1
        if kind == "projective":
            count //= q - 1
        if count > POINT_CAP:
            raise TooManyPoints(f"{count} points exceeds the cap {POINT_CAP}")
        if kind == "vectors":
            keys = np.arange(1, q ** d, dtype=np.int64)
        elif kind == "projective":
            # first nonzero coordinate 1 at position d - 1 - e: keys q^e .. 2q^e - 1
            keys = np.concatenate([np.arange(q ** e, 2 * q ** e, dtype=np.int64)
                                   for e in range(d)])
        else:
            raise ValueError("kind must be 'vectors' or 'projective'")
        self.ctx = ctx
        self.d = d
        self.kind = kind
        self.keys = keys
        self._weights = q ** np.arange(d - 1, -1, -1, dtype=np.int64)
        self._tables = field_arrays(ctx)
        self._point_logs = self._tables.log[keys[:, None] // self._weights % q]

    def permutation(self, M: SquareMatrix) -> Permutation:
        if M.ctx is not self.ctx or M.d != self.d:
            raise ValueError("matrix does not act on these points")
        t = self._tables
        exp, log = t.exp, t.log
        logs = self._point_logs
        n = len(self.keys)
        acc = np.zeros((n, self.d), np.int64)
        for k, row in enumerate(M.rows):
            for j, b in enumerate(row):
                if b:
                    acc[:, j] = t.fold_spread[acc[:, j] + t.exp_spread[logs[:, k] + log[b]]]
        img = t.fold[acc]
        if self.kind == "projective":
            lead = img[np.arange(n), (img != 0).argmax(axis=1)]
            if not lead.all():
                raise ValueError("matrix is singular")
            # scale each row by its lead's inverse: log lead^-1 = q - 1 - log lead
            img = exp[log[img] + (self.ctx.q - 1 - log[lead])[:, None]]
        img_keys = img @ self._weights
        idx = np.searchsorted(self.keys, img_keys).clip(max=n - 1)
        if not (self.keys[idx] == img_keys).all():
            raise ValueError("matrix is singular")
        # every image is a point, so M is injective on the points
        return _unchecked(idx.astype(_dtype(n)).tobytes(), n)


def matrix_to_perm(gens: Sequence[SquareMatrix],
                   action: str = "vectors") -> Tuple[List[Permutation], int, PointAction]:
    """Permutation images of matrix generators on nonzero vectors or
    projective points.  The projective action has exactly the scalars as
    kernel, realizing the central quotient."""
    if not gens:
        raise ValueError("need at least one matrix")
    act = PointAction(gens[0].ctx, gens[0].d, action)
    return [act.permutation(M) for M in gens], len(act.keys), act


# ---------------------------------------------------------------------------
# conjugacy class orbits


def class_orbit(g: Permutation, gens: Sequence[Permutation], cap: int = DEFAULT_CAP):
    """The conjugacy class of g under <gens> as a set of Permutations, or
    the CAP_EXCEEDED sentinel when the class has more than cap elements.

    The orbit closure runs on packed image rows (see packed_class); the
    rows become Permutations once, at the end."""
    found = packed_class(g, gens, cap)
    return found if found is CAP_EXCEEDED else found.permutations()


class PackedClass:
    """A set of permutations of one degree held as packed image rows.

    Each key is the byte string a Permutation of that degree stores (uint8
    rows up to 256 points, uint16 up to 65,536), so membership tests take
    the element's own bytes and rows become Permutations with no copy.
    packed_class dedupes on shorter keys, the images of a base of the group
    the elements lie in, packed into an int64 or a void scalar and kept as
    a sorted array, and builds these full-row keys once at the end."""

    def __init__(self, keys: set, degree: int):
        self.keys = keys
        self.degree = degree
        self.dtype = _dtype(degree)

    def __contains__(self, p: Permutation) -> bool:
        return p._data in self.keys

    def permutations(self) -> set:
        return {_unchecked(key, self.degree) for key in self.keys}

    def count_quotients(self, z: Permutation, other: "PackedClass") -> int:
        """|{a in self : a^-1 z in other}|.  All of self is inverted by one
        scatter and composed with z by one gather, (a^-1 z)(i) = z[a^-1[i]]."""
        a = np.frombuffer(b"".join(self.keys), self.dtype).reshape(-1, self.degree)
        a_inv = np.empty_like(a)
        a_inv[np.arange(len(a))[:, None], a] = _identity_row(self.degree)
        return sum(key in other.keys for key in _keys(_apply(z, a_inv)).tolist())


def packed_class(g: Permutation, gens: Sequence[Permutation], cap: int):
    """The conjugacy class of g under <gens> as a PackedClass, or
    CAP_EXCEEDED when the class has more than cap elements.

    Breadth-first orbit closure a whole layer at a time on a 2-D array F
    of image rows; conjugating row x by h gives y = h^-1 x h with
    y[i] = h[x[h^-1[i]]].  Every conjugate lies in H = <gens, g>, and two
    elements of H that agree on a base B of H are equal, so the closure
    dedupes on the images of B alone.  Per layer it gathers the base
    images h[F[:, h^-1[B]]] for every generator at once, one key each
    (_base_keys), sorts them, drops repeats and the keys already in the
    sorted array `seen` (found by searchsorted), merges the rest into
    `seen`, and builds full rows only for those new elements."""
    bsgs = _memo_bsgs(tuple(gens))
    base = np.array(bsgs.base if bsgs.contains(g) else schreier_sims([*gens, g]).base, np.intp)
    n = g.degree
    pairs = []
    for h in gens:
        hinv = _row(h.inverse()).astype(np.intp)
        pairs.append((h, hinv, hinv[base]))
    frontier = _row(g)[None, :]
    seen = _base_keys(frontier.take(base, axis=1), n)
    layers = []
    while len(frontier):
        layers.append(frontier)
        keys = _base_keys(np.concatenate(
            [_apply(h, frontier.take(hinv_base, axis=1)) for h, _, hinv_base in pairs]), n)
        order = keys.argsort()
        keys = keys[order]
        new = np.ones(len(keys), bool)
        new[1:] = keys[1:] != keys[:-1]
        pos = seen.searchsorted(keys)
        new &= seen[np.minimum(pos, len(seen) - 1)] != keys
        seen = np.insert(seen, pos[new], keys[new])
        if len(seen) > cap:
            return CAP_EXCEEDED
        gen, rows = np.divmod(order[new], len(frontier))
        frontier = np.concatenate([_apply(h, frontier[rows[gen == j]].take(hinv, axis=1))
                                   for j, (h, hinv, _) in enumerate(pairs)])
    keys = set().union(*(_keys(layer).tolist() for layer in layers))
    assert len(keys) == len(seen), "base images failed to separate class elements"
    return PackedClass(keys, n)


@functools.lru_cache(maxsize=8)
def _memo_bsgs(gens: Tuple[Permutation, ...]) -> BSGS:
    """The BSGS of <gens>, kept for the last few generator tuples, since
    the classes of one group are closed under the same generators."""
    return schreier_sims(gens)


def _row(p: Permutation) -> np.ndarray:
    """A read-only 1-D image array over the element's own bytes."""
    return np.frombuffer(p._data, _dtype(p.degree))


def _apply(h: Permutation, y: np.ndarray) -> np.ndarray:
    """h[y]: h applied to every entry of an image array.  uint8 entries go
    through one bytes.translate with h's row padded to a 256-byte table,
    as in Permutation.__mul__, not an index gather that casts y to intp;
    wider entries through take, which is faster than indexing h[y]."""
    if h.degree <= 256:
        table = h._data + _IDENT_BYTES[h.degree:]
        return np.frombuffer(y.tobytes().translate(table), np.uint8).reshape(y.shape)
    return _row(h).take(y)


def _base_keys(images: np.ndarray, degree: int) -> np.ndarray:
    """One sortable key per row of base images: the row as an int64 in
    radix degree when degree ** width < 2 ** 63, else the row's bytes as
    one void scalar.  Both kinds sort, compare and searchsorted alike."""
    width = images.shape[1]
    if degree ** width < 2 ** 63:
        return images.astype(np.int64) @ (degree ** np.arange(width, dtype=np.int64))
    return _keys(images)


def _keys(rows: np.ndarray) -> np.ndarray:
    """The rows of a 2-D array of positive width as one void scalar each,
    a view over the rows' bytes; .tolist() gives them as bytes keys."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


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
    assert alt_bsgs([x, y]).order() == math.factorial(n) // 2
    return x, y, expected


def alt_bsgs(gens: Sequence[Permutation]) -> BSGS:
    """The BSGS of <gens>, for even permutations of n points.  Evenness
    proves <gens> <= Alt(n), the premise of the build's known_order n!/2,
    so the build stops complete at n!/2; an odd generator raises
    ValueError."""
    if any(sum(len(c) - 1 for c in g.cycles()) % 2 for g in gens):
        raise ValueError("an odd generator puts <gens> outside Alt(n)")
    return schreier_sims(gens, known_order=math.factorial(gens[0].degree) // 2)


# ---------------------------------------------------------------------------
# seeded randomness and product replacement


_MASK64 = (1 << 64) - 1


class RandomSource:
    """SplitMix64 stream; identical seeds give identical element streams."""

    def __init__(self, seed: int):
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


def content_lines(text: str) -> List[Tuple[int, str]]:
    """The lines of a generator file that are neither blank nor '#'
    comments, each with its own line number in the file, from 1."""
    return [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1)
            if ln.strip() and not ln.lstrip().startswith("#")]


@contextlib.contextmanager
def at_line(lineno: int):
    """Prefix a ValueError raised in the block with the file line it read."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc


def parse_perm_file(text: str) -> Tuple[List[Permutation], int]:
    """Parse the `perm <degree> <count>` generator file format."""
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty permutation file")
    lineno, header = lines[0][0], lines[0][1].split()
    with at_line(lineno):
        if len(header) != 3 or header[0] != "perm":
            raise ValueError("expected header 'perm <degree> <count>'")
        degree, count = int(header[1]), int(header[2])
    if len(lines) - 1 != count:
        raise ValueError(f"expected {count} generator lines, found {len(lines) - 1}")
    gens = []
    for lineno, line in lines[1:]:
        with at_line(lineno):
            images = [int(tok) for tok in line.split()]
            if sorted(images) != list(range(1, degree + 1)):
                raise ValueError(f"not a permutation of 1..{degree}")
        gens.append(Permutation([v - 1 for v in images]))
    return gens, degree


def format_perm_file(gens: Sequence[Permutation]) -> str:
    degree = gens[0].degree
    out = [f"perm {degree} {len(gens)}"]
    for g in gens:
        out.append(" ".join(str(v + 1) for v in g.images))
    return "\n".join(out) + "\n"
