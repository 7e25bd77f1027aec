"""Command-line surface: zsigmondy, catalog, search, identities, covers.

Exit codes: 0 for verified/skipped outcomes, 1 for a mathematical failure
(Violation or TypeMismatch, or anything non-Verified under --strict),
2 for usage, file and catalog-data errors.  Catalog runs are serial and
deterministic for a fixed --seed; --budget and --cap set the search budget
and the class-orbit cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import covers as covers_mod
from .catalog import (
    CatalogDataError,
    CatalogOptions,
    CatalogParseError,
    load_catalog_file,
    realize_source,
    run_catalog,
    shipped_catalog_path,
)
from .numtheory import zsigmondy
from .structures import (
    DEFAULT_BUDGET,
    DEFAULT_CAP,
    Exhausted,
    search_by_type,
)
from .identities import SuiteRangeError, run_identity_suite


def cmd_zsigmondy(args) -> int:
    if args.base < 2 or args.exp < 2:
        print("error: --base and --exp must be at least 2", file=sys.stderr)
        return 2
    result = zsigmondy(args.base, args.exp)
    payload = {
        "base": args.base,
        "exponent": args.exp,
        "zeta": result.zeta,
        "lambda": result.lam,
        "classification": result.classification.value,
    }
    if (args.base, args.exp) == (2, 6):
        payload["note"] = "lambda 9 by convention, treated as large"
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in ("base", "exponent", "zeta", "lambda", "classification", "note"):
            if key in payload:
                print(f"{key}: {payload[key]}")
    return 0


def cmd_catalog(args) -> int:
    if args.budget < 1:
        print("error: --budget must be at least 1", file=sys.stderr)
        return 2
    if args.cap < 1:
        print("error: --cap must be at least 1", file=sys.stderr)
        return 2
    path = args.file or shipped_catalog_path()
    try:
        entries, base_dir = load_catalog_file(path)
    except FileNotFoundError:
        print(f"error: catalog file {path} not found", file=sys.stderr)
        return 2
    except CatalogParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2
    if args.only is not None and all(e.name != args.only for e in entries):
        print(f"error: no entry named {args.only!r} in {path}", file=sys.stderr)
        return 2
    options = CatalogOptions(
        master_seed=args.seed,
        budget=args.budget,
        cap=args.cap,
        only=args.only,
        base_dir=base_dir,
    )
    try:
        report = run_catalog(entries, options)
    except CatalogDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.canonical_json() if args.canonical else report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(report.counts().items()))
    print(f"# {summary}", file=sys.stderr)
    if report.failed:
        return 1
    if args.strict and report.strict_failed():
        return 1
    return 0


def cmd_search(args) -> int:
    try:
        lmn = tuple(int(v) for v in args.type.split(","))
        if len(lmn) != 3 or min(lmn) < 2:
            raise ValueError
    except ValueError:
        print("error: --type must be l,m,n, each order at least 2", file=sys.stderr)
        return 2
    if args.budget < 1:
        print("error: --budget must be at least 1", file=sys.stderr)
        return 2
    if args.family == "Sz":
        source = f"builtin:Sz:{args.q}"
    else:
        source = f"builtin:{args.family}:{args.d}:{args.q}"
    try:
        handle = realize_source(source, "")
    except CatalogDataError as exc:
        print(f"error: cannot realize group: {exc}", file=sys.stderr)
        return 2
    result = search_by_type(handle, lmn, args.budget, args.seed)
    if isinstance(result, Exhausted):
        print(f"exhausted after {result.attempts} attempts {result.detail}")
        return 1
    print(f"found: type {result.orders} in {handle.name}, "
          f"group order {result.certified_order}")
    return 0


def cmd_identities(args) -> int:
    try:
        failures = run_identity_suite(args.lemma, qmax=args.qmax, trials=args.trials,
                                      seed=args.seed, verbose=True)
    except SuiteRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if failures == 0 else 1


def cmd_covers(args) -> int:
    if not 3 <= args.nmax <= 14:
        print("error: --nmax must be in 3..14, the ranks build_cover supports",
              file=sys.stderr)
        return 2
    ns = range(3, args.nmax + 1)
    rows = covers_mod.order3_xsimz_suite(list(ns))
    print("n  o(y)  conjugation identity")
    for row in rows:
        print(f"{row.n:<2} {row.y_order:<5} {'exact' if row.conjugation_identity else 'FAILED'}")
    for n in (7, 9, 11):
        if n <= args.nmax:
            res = covers_mod.nodd_triple(n)
            which = "(xz, y, xyz)" if res.uses_xz else "(x, y, xy)"
            print(f"nodd n={n}: triple {which} has type ({n},3,{n}); "
                  f"z = {res.z_word}; Alt({n}) order {res.alt_order} certified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beauville",
        description="Verification and search for Beauville structures on "
                    "finite quasisimple groups at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zsigmondy", help="classify (base, exp) Zsigmondy data")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--exp", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_zsigmondy)

    p = sub.add_parser("catalog", help="run catalog entries and report")
    p.add_argument("--file", help="catalog file (default: shipped catalog)")
    p.add_argument("--seed", type=int, default=0, help="master seed (0 keeps per-entry seeds)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--only", help="run a single named entry")
    p.add_argument("--out", help="write the JSON report to a file")
    p.add_argument("--strict", action="store_true",
                   help="fail on Skipped/Exhausted/Undecided as well")
    p.add_argument("--canonical", action="store_true",
                   help="emit the canonical report (elapsed fields stripped)")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("search", help="search one group for a triple type")
    p.add_argument("--family", required=True,
                   choices=["SL", "Sp", "SU", "Sz", "OmegaMinus"])
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--type", required=True, help="l,m,n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("identities", help="randomized coefficient identity suites")
    p.add_argument("--lemma", required=True,
                   choices=["lineardim3", "u41", "u3", "sp42", "all"])
    p.add_argument("--qmax", type=int, default=25)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("covers", help="double-cover identity suites")
    p.add_argument("--nmax", type=int, default=12)
    p.set_defaults(func=cmd_covers)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
