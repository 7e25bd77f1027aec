"""Catalog files: parse table-row entries, realize the groups, replay the
triple recipes and emit a structured report.

Catalog format (blank-line separated records, '#' comments):

    group SL_3_2
    source builtin:SL:3:2
    triple1 search:4,4,4:101
    triple2 search:3,3,7:102
    expected_types (4,4,4),(3,3,7)

    group SL_4_16
    infeasible search degree 4369 is beyond the desk-scale budget

Sources: builtin:<SL|Sp|SU>:<d>:<q>, builtin:Sz:<q>, builtin:OmegaMinus:<d>:<q>,
builtin:Alt:<n>, or file:<relative path> (permutation or matrix generator
file, with a `order <N>` line declaring the group order).  Recipes:
search:l,m,n:seed, words:<x>:<g> (y = x^g in the standard generators a, b),
construction:<lineardim3|u41|u3|sp42> (matrix sources only).  A missing
generator file makes the entry Skipped, never a failure.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .matgrp import (
    GroupSpec,
    SquareMatrix,
    lineardim3_triple,
    omega_minus_char2_generators,
    sp42_triple,
    suzuki_generators,
    u3_triple,
    u41_triple,
)
from .ffield import get_field
from .permgrp import Permutation, parse_perm_file
from .structures import (
    DEFAULT_BUDGET,
    DEFAULT_CAP,
    CoprimeOrders,
    Exhausted,
    GroupHandle,
    HyperbolicTriple,
    NotGenerating,
    NotHyperbolic,
    Undecided,
    Violation,
    condition_iii,
    search_by_type,
    verify_triple,
)
from .words import evaluate_word

SCHEMA_VERSION = 1


class CatalogParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CatalogDataError(ValueError):
    """A referenced generator file exists but is malformed or inconsistent."""


@dataclass(frozen=True)
class TripleRecipe:
    kind: str  # 'search' | 'words' | 'construction'
    type_lmn: Optional[Tuple[int, int, int]] = None
    seed: int = 0
    x_word: Optional[str] = None
    g_word: Optional[str] = None
    construction: Optional[str] = None


@dataclass
class CatalogEntry:
    name: str
    source: Optional[str] = None
    order: Optional[int] = None
    triple1: Optional[TripleRecipe] = None
    triple2: Optional[TripleRecipe] = None
    expected_types: Optional[Tuple[Tuple[int, int, int], Tuple[int, int, int]]] = None
    infeasible: Optional[str] = None
    line: int = 0


@dataclass
class EntryReport:
    group: str
    status: str  # Verified | TypeMismatch | Undecided | Skipped | Exhausted | Violation
    types: Optional[Tuple[Tuple[int, int, int], Tuple[int, int, int]]] = None
    expected: Optional[Tuple[Tuple[int, int, int], Tuple[int, int, int]]] = None
    certificate: Optional[str] = None
    seed: Optional[int] = None
    attempts: int = 0
    elapsed_ms: int = 0
    detail: str = ""

    def to_dict(self) -> Dict:
        return {
            "group": self.group,
            "status": self.status,
            "types": self.types,
            "expected": self.expected,
            "certificate": self.certificate,
            "seed": self.seed,
            "attempts": self.attempts,
            "elapsed_ms": self.elapsed_ms,
            "detail": self.detail,
        }


@dataclass
class Report:
    schema_version: int
    master_seed: int
    entries: List[EntryReport]

    def to_dict(self) -> Dict:
        return {
            "schema_version": self.schema_version,
            "master_seed": self.master_seed,
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, default=list)

    def canonical_json(self) -> str:
        """Deterministic form: elapsed fields stripped."""
        data = self.to_dict()
        for entry in data["entries"]:
            entry.pop("elapsed_ms", None)
        return json.dumps(data, indent=2, sort_keys=True, default=list)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out

    @property
    def failed(self) -> bool:
        return any(e.status in ("Violation", "TypeMismatch") for e in self.entries)

    def strict_failed(self) -> bool:
        return any(e.status != "Verified" for e in self.entries)


# ---------------------------------------------------------------------------
# parsing


def _parse_type_list(text: str, line: int, col: int) -> Tuple[Tuple[int, int, int], ...]:
    parts = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "(":
            depth += 1
            current = ""
        elif ch == ")":
            depth -= 1
            nums = tuple(int(v) for v in current.split(","))
            if len(nums) != 3:
                raise CatalogParseError(line, col, f"expected 3 orders, got {nums}")
            parts.append(nums)
        elif depth:
            current += ch
    if len(parts) != 2:
        raise CatalogParseError(line, col, "expected two parenthesized types")
    return tuple(parts)


def _parse_recipe(text: str, line: int, col: int) -> TripleRecipe:
    pieces = text.split(":")
    if pieces[0] == "search":
        if len(pieces) != 3:
            raise CatalogParseError(line, col, "search:l,m,n:seed")
        try:
            lmn = tuple(int(v) for v in pieces[1].split(","))
            seed = int(pieces[2])
        except ValueError as exc:
            raise CatalogParseError(line, col, str(exc)) from None
        if len(lmn) != 3:
            raise CatalogParseError(line, col, "need three orders")
        return TripleRecipe("search", type_lmn=lmn, seed=seed)
    if pieces[0] == "words":
        if len(pieces) != 3:
            raise CatalogParseError(line, col, "words:<x word>:<conjugator word>")
        return TripleRecipe("words", x_word=pieces[1], g_word=pieces[2])
    if pieces[0] == "construction":
        if len(pieces) != 2 or pieces[1] not in ("lineardim3", "u41", "u3", "sp42"):
            raise CatalogParseError(line, col,
                                    "construction:<lineardim3|u41|u3|sp42>")
        return TripleRecipe("construction", construction=pieces[1])
    raise CatalogParseError(line, col, "recipe kind search|words|construction")


def parse_catalog(text: str) -> List[CatalogEntry]:
    entries: List[CatalogEntry] = []
    current: Optional[CatalogEntry] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            if not line:
                current = None
            continue
        if " " in line:
            key, value = line.split(None, 1)
        else:
            key, value = line, ""
        col = raw.index(key) + 1
        if key == "group":
            if not value:
                raise CatalogParseError(lineno, col, "group needs a name")
            current = CatalogEntry(name=value.strip(), line=lineno)
            entries.append(current)
            continue
        if current is None:
            raise CatalogParseError(lineno, col, "field outside a group record")
        vcol = raw.index(value) + 1 if value else col
        if key == "source":
            current.source = value.strip()
        elif key == "order":
            try:
                current.order = int(value)
            except ValueError:
                raise CatalogParseError(lineno, vcol, "order must be an integer") from None
        elif key in ("triple1", "triple2"):
            recipe = _parse_recipe(value.strip(), lineno, vcol)
            setattr(current, key, recipe)
        elif key == "expected_types":
            current.expected_types = _parse_type_list(value, lineno, vcol)
        elif key == "infeasible":
            current.infeasible = value.strip() or "marked infeasible"
        else:
            raise CatalogParseError(lineno, col, f"unknown field {key!r}")
    for entry in entries:
        if entry.infeasible is None:
            missing = [f for f in ("source", "triple1", "triple2", "expected_types")
                       if getattr(entry, f) is None]
            if missing:
                raise CatalogParseError(entry.line, 1,
                                        f"{entry.name}: missing {', '.join(missing)}")
    return entries


# ---------------------------------------------------------------------------
# realization


_CONSTRUCTIONS = {
    "lineardim3": lineardim3_triple,
    "u41": u41_triple,
    "u3": u3_triple,
    "sp42": sp42_triple,
}


def _alt_generators(n: int) -> List[Permutation]:
    three = Permutation.from_cycles(n, [(1, 2, 3)])
    if n % 2:
        big = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
    else:
        big = Permutation.from_cycles(n, [tuple(range(2, n + 1))])
    return [three, big]


def realize_source(source: str, base_dir: str, cap: int = 10 ** 7,
                   declared_order: Optional[int] = None) -> Optional[GroupHandle]:
    """Build a GroupHandle from a catalog source; None when the referenced
    file is absent (the entry is then Skipped)."""
    parts = source.split(":")
    if parts[0] == "builtin":
        fam = parts[1]
        if fam == "Sz":
            spec = suzuki_generators(int(parts[2]))
            return GroupHandle.from_matrix_spec(spec, cap)
        if fam == "OmegaMinus":
            spec = omega_minus_char2_generators(int(parts[2]), int(parts[3]))
            return GroupHandle.from_matrix_spec(spec, cap)
        if fam == "Alt":
            n = int(parts[2])
            return GroupHandle.from_permutations(
                f"Alt_{n}", _alt_generators(n), math.factorial(n) // 2)
        if fam in ("SL", "Sp", "SU"):
            spec = GroupSpec(fam, int(parts[2]), int(parts[3]))
            return GroupHandle.from_matrix_spec(spec, cap)
        if fam in ("PSL", "PSp", "PSU"):
            spec = GroupSpec(fam[1:], int(parts[2]), int(parts[3]))
            return GroupHandle.from_matrix_spec(spec, cap, quotient=True)
        raise CatalogDataError(f"unknown builtin family {fam!r}")
    if parts[0] == "file":
        path = os.path.join(base_dir, parts[1])
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        body = [ln for ln in text.splitlines()
                if ln.strip() and not ln.lstrip().startswith("#")]
        header = body[0].split()[0] if body else ""
        try:
            if header == "perm":
                gens, _ = parse_perm_file(text)
                return GroupHandle.from_permutations(
                    os.path.basename(parts[1]), gens, declared_order)
            if header == "mat":
                gens = parse_matrix_file(text)
                if declared_order is None:
                    raise CatalogDataError(f"{parts[1]}: matrix sources need an order line")
                spec = GroupSpec("Ingested", gens[0].d, gens[0].ctx.q,
                                 generators=tuple(gens), declared_order=declared_order,
                                 name=os.path.basename(parts[1]))
                return GroupHandle.from_matrix_spec(spec, cap)
        except (ValueError, AssertionError) as exc:
            raise CatalogDataError(f"{parts[1]}: {exc}") from exc
        raise CatalogDataError(f"{parts[1]}: unknown generator file header {header!r}")
    raise CatalogDataError(f"unknown source kind {source!r}")


def parse_matrix_file(text: str) -> List[SquareMatrix]:
    """Parse the `mat <d> <p> <a> <count>` generator format: d rows of d
    comma-separated coefficient lists per generator."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    header = lines[0].split()
    if len(header) != 5 or header[0] != "mat":
        raise ValueError("line 1: expected header 'mat <d> <p> <a> <count>'")
    d, p, a, count = (int(v) for v in header[1:])
    ctx = get_field(p, a)
    expected_lines = 1 + d * count
    if len(lines) != expected_lines:
        raise ValueError(f"expected {expected_lines} lines, found {len(lines)}")
    gens = []
    pos = 1
    for _ in range(count):
        rows = []
        for _ in range(d):
            tokens = lines[pos].split()
            if len(tokens) != d:
                raise ValueError(f"line {pos + 1}: expected {d} entries")
            rows.append([ctx.element([int(c) for c in tok.split(",")]).code
                         for tok in tokens])
            pos += 1
        gens.append(SquareMatrix(ctx, rows))
    return gens


# ---------------------------------------------------------------------------
# running


@dataclass
class CatalogOptions:
    master_seed: int = 0
    budget: int = DEFAULT_BUDGET
    cap: int = DEFAULT_CAP
    only: Optional[str] = None
    base_dir: str = "."


def _mix_seed(master: int, seed: int) -> int:
    return seed if master == 0 else ((master << 20) ^ seed) & ((1 << 63) - 1)


def _build_triple(G: GroupHandle, recipe: TripleRecipe, options: CatalogOptions
                  ) -> Tuple[Union[HyperbolicTriple, Exhausted, str], int, int]:
    """Returns (triple-or-failure, seed used, attempts)."""
    if recipe.kind == "search":
        seed = _mix_seed(options.master_seed, recipe.seed)
        result = search_by_type(G, recipe.type_lmn, options.budget, seed)
        if isinstance(result, Exhausted):
            return result, seed, result.attempts
        return result, seed, 0
    if recipe.kind == "words":
        ab = G.perm_gens[:2]
        x = evaluate_word(ab, recipe.x_word)
        y = x.conjugate(evaluate_word(ab, recipe.g_word))
        result = verify_triple(G, x, y)
        if isinstance(result, NotGenerating):
            return f"words recipe generates subgroup of order {result.subgroup_order}", 0, 0
        if isinstance(result, NotHyperbolic):
            return f"words recipe not hyperbolic (sum {result.reciprocal_sum})", 0, 0
        return result, 0, 0
    # construction recipes rebuild the matrices in the handle's own field
    # and are injected through the faithful action
    builder = _CONSTRUCTIONS[recipe.construction]
    x, y, _ = builder(G.q)
    result = verify_triple(G, G.inject_matrix(x), G.inject_matrix(y))
    if not isinstance(result, HyperbolicTriple):
        return f"construction failed verification: {result}", 0, 0
    return result, 0, 0


def run_entry(entry: CatalogEntry, options: CatalogOptions,
              handles: Dict[str, GroupHandle]) -> EntryReport:
    start = time.monotonic()

    def done(report: EntryReport) -> EntryReport:
        report.elapsed_ms = int((time.monotonic() - start) * 1000)
        return report

    if entry.infeasible is not None:
        return done(EntryReport(entry.name, "Skipped", detail=entry.infeasible))
    if entry.source not in handles:
        handles[entry.source] = realize_source(
            entry.source, options.base_dir, declared_order=entry.order)
    G = handles[entry.source]
    if G is None:
        return done(EntryReport(entry.name, "Skipped",
                                detail=f"generator file for {entry.source} not present"))
    triples = []
    seeds = []
    attempts = 0
    for recipe in (entry.triple1, entry.triple2):
        if recipe.kind == "construction" and G.action is None:
            raise CatalogDataError(
                f"{entry.name} (line {entry.line}): construction:{recipe.construction}"
                f" needs a matrix source, not {entry.source}")
        result, seed, used = _build_triple(G, recipe, options)
        seeds.append(seed)
        attempts += used
        if isinstance(result, Exhausted):
            return done(EntryReport(entry.name, "Exhausted", seed=seed,
                                    attempts=result.attempts,
                                    detail=result.detail or "search budget exhausted"))
        if isinstance(result, str):
            return done(EntryReport(entry.name, "TypeMismatch", detail=result))
        triples.append(result)
    t1, t2 = triples
    types = (t1.orders, t2.orders)
    cert = condition_iii(G, t1, t2, options.cap)
    if isinstance(cert, Violation):
        return done(EntryReport(entry.name, "Violation", types=types,
                                expected=entry.expected_types,
                                detail=f"conjugate prime-order powers: {cert}"))
    if isinstance(cert, Undecided):
        return done(EntryReport(entry.name, "Undecided", types=types,
                                expected=entry.expected_types, detail=cert.reason))
    cert_name = "CoprimeOrders" if isinstance(cert, CoprimeOrders) else "ClassChecked"
    # expected types are matched as an unordered pair of ordered triples
    if {types[0], types[1]} != {entry.expected_types[0], entry.expected_types[1]}:
        return done(EntryReport(entry.name, "TypeMismatch", types=types,
                                expected=entry.expected_types,
                                certificate=cert_name, seed=seeds[0],
                                detail="verified structure has unexpected types"))
    return done(EntryReport(entry.name, "Verified", types=types,
                            expected=entry.expected_types, certificate=cert_name,
                            seed=seeds[0], attempts=attempts))


def run_catalog(entries: Sequence[CatalogEntry], options: Optional[CatalogOptions] = None
                ) -> Report:
    """Run every entry (optionally restricted by options.only) and collect a
    deterministic report in catalog order."""
    options = options or CatalogOptions()
    selected = [e for e in entries
                if options.only is None or e.name == options.only]
    handles: Dict[str, GroupHandle] = {}
    reports = [run_entry(e, options, handles) for e in selected]
    return Report(SCHEMA_VERSION, options.master_seed, reports)


def load_catalog_file(path: str) -> Tuple[List[CatalogEntry], str]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_catalog(text), os.path.dirname(os.path.abspath(path))


def shipped_catalog_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "catalog.txt")
