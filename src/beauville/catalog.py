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
construction:<lineardim3|u41|u3|sp42> (matrix sources of SL_3, SU_4, SU_3
and Sp_4 respectively).  A missing generator file makes the entry Skipped,
never a failure.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .matgrp import (
    BadField,
    GroupSpec,
    SquareMatrix,
    lineardim3_triple,
    omega_minus_char2_generators,
    sp42_triple,
    suzuki_generators,
    u3_triple,
    u41_triple,
)
from .ffield import get_field, parse_element
from .numtheory import factorize
from .permgrp import Permutation, TooManyPoints, alt_bsgs, at_line, content_lines, parse_perm_file
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
from .words import ParseError, WordExpr, evaluate_word, parse_word

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
    x_word: Optional[WordExpr] = None
    g_word: Optional[WordExpr] = None
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


@dataclass
class Report:
    schema_version: int
    master_seed: int
    entries: List[EntryReport]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, default=list)

    def canonical_json(self) -> str:
        """Deterministic form: elapsed fields stripped."""
        data = asdict(self)
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
    depth = start = 0
    current = ""
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
            current = ""
            start = i + 1
        elif ch == ")":
            depth -= 1
            try:
                nums = tuple(int(v) for v in current.split(","))
            except ValueError:
                raise CatalogParseError(line, col + start,
                                        f"orders must be integers, got ({current})") from None
            if len(nums) != 3:
                raise CatalogParseError(line, col, f"expected 3 orders, got {nums}")
            if min(nums) < 2:
                raise CatalogParseError(line, col + start, "orders must be at least 2")
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
        if min(lmn) < 2:
            raise CatalogParseError(line, col, "orders must be at least 2")
        return TripleRecipe("search", type_lmn=lmn, seed=seed)
    if pieces[0] == "words":
        if len(pieces) != 3:
            raise CatalogParseError(line, col, "words:<x word>:<conjugator word>")
        words = []
        offset = len("words:")
        for piece in pieces[1:]:
            try:
                words.append(parse_word(piece))
            except ParseError as exc:
                raise CatalogParseError(line, col + offset + exc.position,
                                        f"word {piece!r}: expected {exc.expected}") from None
            offset += len(piece) + 1
        return TripleRecipe("words", x_word=words[0], g_word=words[1])
    if pieces[0] == "construction":
        if len(pieces) != 2 or pieces[1] not in ("lineardim3", "u41", "u3", "sp42"):
            raise CatalogParseError(line, col,
                                    "construction:<lineardim3|u41|u3|sp42>")
        return TripleRecipe("construction", construction=pieces[1])
    raise CatalogParseError(line, col, "recipe kind search|words|construction")


def parse_catalog(text: str) -> List[CatalogEntry]:
    entries: List[CatalogEntry] = []
    current: Optional[CatalogEntry] = None
    first_line: Dict[str, int] = {}
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
        vcol = raw.index(value, col - 1 + len(key)) + 1 if value else col
        if key == "group":
            if not value:
                raise CatalogParseError(lineno, col, "group needs a name")
            name = value.strip()
            if name in first_line:
                raise CatalogParseError(lineno, vcol,
                                        f"group {name} already defined at line {first_line[name]}")
            first_line[name] = lineno
            current = CatalogEntry(name=name, line=lineno)
            entries.append(current)
            continue
        if current is None:
            raise CatalogParseError(lineno, col, "field outside a group record")
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


# each construction with the family and dimension of the source it needs
_CONSTRUCTIONS = {
    "lineardim3": (lineardim3_triple, "SL", 3),
    "u41": (u41_triple, "SU", 4),
    "u3": (u3_triple, "SU", 3),
    "sp42": (sp42_triple, "Sp", 4),
}


def _alt(n: int) -> GroupHandle:
    """Alt(n) on (1, 2, 3) and an n-cycle (n odd) or an (n-1)-cycle (n
    even): both are even, so alt_bsgs stops its build at n!/2."""
    gens = [Permutation.from_cycles(n, [(1, 2, 3)]),
            Permutation.from_cycles(n, [tuple(range(2 - n % 2, n + 1))])]
    return GroupHandle(f"Alt_{n}", gens, math.factorial(n) // 2, alt_bsgs(gens))


def _classical(family: str, quotient: bool, d: int, q: int) -> GroupHandle:
    return GroupHandle.from_matrix_spec(GroupSpec(family, d, q), quotient=quotient)


# each builtin family: the integer fields of its source, in order, and the
# builder that realizes the group from them
_BUILTINS = {
    "Sz": (("q",), lambda q: GroupHandle.from_matrix_spec(suzuki_generators(q))),
    "OmegaMinus": (("d", "q"), lambda d, q: GroupHandle.from_matrix_spec(
        omega_minus_char2_generators(d, q))),
    "Alt": (("n",), _alt),
    **{("P" if quotient else "") + fam:
       (("d", "q"), functools.partial(_classical, fam, quotient))
       for fam in ("SL", "Sp", "SU") for quotient in (False, True)},
}


def _builtin_args(source: str, fam: str, values: List[str]) -> Dict[str, int]:
    """The checked integer fields of a builtin source: the family's arity,
    d >= 2 (even for Sp), n >= 3 and a prime-power q.  SU_3(2) is refused:
    its standard generators generate a proper subgroup."""
    names = _BUILTINS[fam][0]
    if len(values) != len(names) or not all(v.isdigit() for v in values):
        usage = ":".join(["builtin", fam] + [f"<{n}>" for n in names])
        raise CatalogDataError(f"source {source!r}: expected {usage}")
    args = dict(zip(names, map(int, values)))
    for name, least in (("d", 2), ("n", 3)):
        if args.get(name, least) < least:
            raise CatalogDataError(f"source {source!r}: need {name} >= {least}")
    if fam in ("Sp", "PSp") and args["d"] % 2:
        raise CatalogDataError(f"source {source!r}: Sp needs an even d")
    if fam in ("SU", "PSU") and (args["d"], args["q"]) == (3, 2):
        raise CatalogDataError(f"source {source!r}: the SU_3(2) generators "
                               "generate a proper subgroup")
    q = args.get("q", 2)
    if q < 2 or len(factorize(q).factors) != 1:
        raise CatalogDataError(f"source {source!r}: {q} is not a prime power")
    return args


def realize_source(source: str, base_dir: str,
                   declared_order: Optional[int] = None) -> Optional[GroupHandle]:
    """Build a GroupHandle from a catalog source; None when the referenced
    file is absent (the entry is then Skipped).  A malformed source raises
    CatalogDataError."""
    parts = source.split(":")
    if parts[0] == "builtin":
        fam = parts[1] if len(parts) > 1 else ""
        if fam not in _BUILTINS:
            raise CatalogDataError(f"unknown builtin family {fam!r}")
        args = _builtin_args(source, fam, parts[2:])
        try:
            return _BUILTINS[fam][1](**args)
        except (BadField, TooManyPoints) as exc:
            raise CatalogDataError(f"source {source!r}: {exc}") from None
    if parts[0] == "file":
        if len(parts) != 2 or not parts[1]:
            raise CatalogDataError(f"source {source!r}: expected file:<relative path>")
        name = parts[1]
        path = os.path.join(base_dir, name)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CatalogDataError(f"{name}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise CatalogDataError(f"{name}: not UTF-8 text (byte {exc.start})") from None
        body = content_lines(text)
        header = body[0][1].split()[0] if body else ""
        if header == "mat" and declared_order is None:
            raise CatalogDataError(f"{name}: matrix sources need an order line")
        try:
            if header == "perm":
                gens, _ = parse_perm_file(text)
                return GroupHandle(os.path.basename(name), gens, declared_order)
            if header == "mat":
                gens = parse_matrix_file(text)
                spec = GroupSpec("Ingested", gens[0].d, gens[0].ctx.q,
                                 generators=tuple(gens), declared_order=declared_order,
                                 name=os.path.basename(name))
                return GroupHandle.from_matrix_spec(spec)
        except (ValueError, AssertionError) as exc:
            raise CatalogDataError(f"{name}: {exc}") from exc
        raise CatalogDataError(f"{name}: unknown generator file header {header!r}")
    raise CatalogDataError(f"unknown source kind {source!r}")


def parse_matrix_file(text: str) -> List[SquareMatrix]:
    """Parse the `mat <d> <p> <a> <count>` generator format: d rows of d
    comma-separated coefficient lists per generator."""
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty matrix file")
    lineno, header = lines[0][0], lines[0][1].split()
    with at_line(lineno):
        if len(header) != 5 or header[0] != "mat":
            raise ValueError("expected header 'mat <d> <p> <a> <count>'")
        d, p, a, count = (int(v) for v in header[1:])
    ctx = get_field(p, a)
    expected_lines = 1 + d * count
    if len(lines) != expected_lines:
        raise ValueError(f"expected {expected_lines} lines, found {len(lines)}")
    gens = []
    for k in range(count):
        rows = []
        for lineno, line in lines[1 + k * d:1 + (k + 1) * d]:
            with at_line(lineno):
                tokens = line.split()
                if len(tokens) != d:
                    raise ValueError(f"expected {d} entries")
                rows.append([parse_element(ctx, tok) for tok in tokens])
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


def _build_triple(G: GroupHandle, entry: CatalogEntry, recipe: TripleRecipe,
                  options: CatalogOptions
                  ) -> Tuple[Union[HyperbolicTriple, Exhausted, str], int, int]:
    """Returns (triple-or-failure, seed used, attempts)."""
    if recipe.kind == "search":
        seed = _mix_seed(options.master_seed, recipe.seed)
        result = search_by_type(G, recipe.type_lmn, options.budget, seed)
        if isinstance(result, Exhausted):
            return result, seed, result.attempts
        return result, seed, 0
    if recipe.kind == "words":
        if len(G.perm_gens) < 2:
            raise CatalogDataError(f"{entry.name} (line {entry.line}): words recipe needs two "
                                   f"standard generators, {entry.source} has {len(G.perm_gens)}")
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
    builder, family, d = _CONSTRUCTIONS[recipe.construction]
    where = f"{entry.name} (line {entry.line}): construction:{recipe.construction}"
    if G.action is None:
        raise CatalogDataError(f"{where} needs a matrix source, not {entry.source}")
    if (G.family, G.action.d) != (family, d):
        raise CatalogDataError(f"{where} needs a {family}_{d} source, not {entry.source}")
    try:
        x, y, _ = builder(G.q)
    except BadField as exc:
        raise CatalogDataError(f"{where}: {exc}") from None
    result = verify_triple(G, G.inject_matrix(x), G.inject_matrix(y))
    if isinstance(result, NotGenerating):
        return (f"construction failed verification: {result.reason},"
                f" <x, y> has order {result.subgroup_order}"), 0, 0
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
        try:
            handles[entry.source] = realize_source(
                entry.source, options.base_dir, declared_order=entry.order)
        except CatalogDataError as exc:
            raise CatalogDataError(f"{entry.name} (line {entry.line}): {exc}") from None
    G = handles[entry.source]
    if G is None:
        return done(EntryReport(entry.name, "Skipped",
                                detail=f"generator file for {entry.source} not present"))
    triples = []
    seeds = []
    attempts = 0
    for recipe in (entry.triple1, entry.triple2):
        result, seed, used = _build_triple(G, entry, recipe, options)
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
