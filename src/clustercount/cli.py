"""Command-line frontend.

All results go to stdout as a single JSON object (or array for `check`);
diagnostics go to stderr.  Counts are serialized as decimal strings so
arbitrary-precision values survive any JSON consumer.

Exit codes: 0 success, 1 mathematical disagreement, failed check or
arithmetic error (a count or a fit that cannot be right), 2 usage error
(conflicting flags, and a budget below 1 or a non-integer
CLUSTERCOUNT_BUDGET, included), 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from functools import cache

from .coeffs import CoeffMap, normalize, read_coeff_file
from .counting import (DEFAULT_BUDGET, VarietyInstance, brute_count,
                       normal_form_instance, resolve_budget)
from .errors import BudgetExceeded, ClusterCountError, UnsupportedSize
from .forests import dynkin, dynkin_tiling, leafy_tiling, read_tree_file
from .formulas import formula_count
from .gf import field_from_order
from .qpoly import FamilyPolicy, fit_and_verify
from .recursion import _require_invertible, recursive_count
from .singular import singular_points
from .suites import PAPER_SUITE, run_suite

USAGE_ERROR, MATH_ERROR, BUDGET_ERROR = 2, 1, 3


class UsageError(Exception):
    pass


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _parse_alpha_items(spec: str, field) -> list:
    """Comma-separated items; each an integer reduced into the field, or a
    colon-separated coefficient vector for extension fields.  A bad item is
    a UsageError that names it by position and text."""
    if not spec.strip():
        raise UsageError("--alpha is empty")
    items = []
    for i, part in enumerate(spec.split(","), start=1):
        part = part.strip()
        try:
            vector = tuple(int(c) for c in part.split(":"))
        except ValueError:
            what = "a vector of integers" if ":" in part else "an integer"
            raise UsageError(f"--alpha item {i} ({part}): not {what}") from None
        if ":" not in part:
            items.append(vector[0])
            continue
        try:
            field.from_vector(vector)
        except UnsupportedSize as exc:
            raise UsageError(f"--alpha item {i} ({part}): {exc}") from None
        items.append(vector)
    return items


def _glue_alpha(argv: list[str]) -> list[str]:
    """Write `--alpha VALUE` as `--alpha=VALUE` when VALUE starts with '-'
    and a digit: argparse reads a lone `-1,1,1` or `-1:1` as an option, so
    both spellings mean the same."""
    out = list(argv)
    for i in range(len(out) - 1, 0, -1):
        if out[i - 1] == "--alpha" and re.match(r"-\d", out[i]):
            out[i - 1:i + 1] = [f"--alpha={out[i]}"]
    return out


def _build_instance(args, field) -> tuple[VarietyInstance, str | None, int | None]:
    """Returns (instance, dynkin type or None, rank or None)."""
    if args.tree_file is not None and args.type:
        raise UsageError("give either --type/--rank or --tree-file, not both")
    if args.tree_file is not None and args.rank is not None:
        raise UsageError("--rank goes with --type, not with --tree-file")
    if args.alpha is not None and args.coeff_file is not None:
        raise UsageError("give either --alpha or --coeff-file, not both")
    t = rank = None
    if args.tree_file is not None:
        forest = read_tree_file(args.tree_file)
    elif not args.type:
        raise UsageError("give a variety: --type/--rank or --tree-file")
    elif args.rank is None:
        raise UsageError("--type requires --rank")
    else:
        t, rank = args.type.upper(), args.rank
        forest = dynkin(t, rank)
    if args.coeff_file is not None:
        cm = read_coeff_file(args.coeff_file, field, forest)
    elif args.alpha is not None:
        items = _parse_alpha_items(args.alpha, field)
        if len(items) == forest.n_vertices:
            cm = CoeffMap.make(field, dict(zip(forest.vertices, items)))
        elif t is None:
            raise UsageError(
                f"--alpha needs {forest.n_vertices} values for this tree")
        else:
            cm = normal_form_instance(field, t, rank, tuple(items)).coeffs
    else:
        cm = CoeffMap.ones(field, forest)
    return VarietyInstance(forest, cm, field), t, rank


def _method_report(report, elapsed_ms: float, stats: bool) -> dict:
    out = {"count": str(report.count), "elapsed_ms": round(elapsed_ms, 2)}
    if report.branch:
        out["branch"] = report.branch
    if report.engine:
        out["engine"] = report.engine
    if stats:
        out["stats"] = report.stats
    return out


def cmd_count(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    resolve_budget(args.budget)  # a bad budget is an error for every method
    field = field_from_order(args.q)
    instance, t, rank = _build_instance(args, field)
    methods = (["brute", "recursion", "formula"] if args.method == "all"
               else [args.method])
    if "formula" in methods and t is None:
        if args.method == "all":
            methods.remove("formula")
        else:
            raise UsageError("--method formula needs a Dynkin variety")
    if "recursion" in methods:  # refuse a zero before brute force runs
        _require_invertible(instance)
    results, elapsed_ms = {}, {}
    for m in methods:
        start = time.perf_counter()
        if m == "brute":
            results[m] = brute_count(instance, budget=args.budget,
                                     jobs=args.jobs)
        elif m == "recursion":
            results[m] = recursive_count(instance)
        else:
            norm = normalize(instance.forest, dynkin_tiling(t, rank),
                             instance.coeffs)
            results[m] = formula_count(t, rank, norm.coeffs, field)
        elapsed_ms[m] = (time.perf_counter() - start) * 1000
    counts = {m: r.count for m, r in results.items()}
    agree = len(set(counts.values())) == 1
    out = {
        "variety": instance.descriptor(),
        "q": field.q,
        "method": args.method,
        "count": str(next(iter(counts.values()))),
        "branch": next((r.branch for r in results.values() if r.branch), None),
        "elapsed_ms": round(sum(elapsed_ms.values()), 2),
    }
    if len(results) > 1:
        out["methods"] = {m: _method_report(r, elapsed_ms[m], args.stats)
                          for m, r in results.items()}
        out["agree"] = agree
    elif args.stats:
        out["stats"] = next(iter(results.values())).stats
    _emit(out)
    return 0 if agree else MATH_ERROR


def cmd_normalize(args) -> int:
    field = field_from_order(args.q)
    instance, t, rank = _build_instance(args, field)
    if t is not None:
        tiling = dynkin_tiling(t, rank)
    else:
        tiling = leafy_tiling(instance.forest)
    norm = normalize(instance.forest, tiling, instance.coeffs)
    _emit({
        "variety": instance.descriptor(),
        "q": field.q,
        "alpha": instance.coeffs.as_str(),
        "normalized": norm.coeffs.as_str(),
        "covered": sorted(tiling.covered),
        "dominoes": [list(d) for d in tiling.dominoes],
        "trace": [list(step) for step in norm.trace],
    })
    return 0


def cmd_singular(args) -> int:
    field = field_from_order(args.q)
    instance, _, _ = _build_instance(args, field)
    pts = singular_points(instance, budget=args.budget)

    def coords(codes):
        return {str(v): field.text(c)
                for v, c in zip(instance.forest.vertices, codes)}

    _emit({
        "variety": instance.descriptor(),
        "q": field.q,
        "count": len(pts),
        "singular_points": [{"x": coords(xs), "xp": coords(xps)}
                            for xs, xps in pts],
    })
    return 0


def cmd_interpolate(args) -> int:
    policy = FamilyPolicy(args.type.upper(), args.rank, args.branch)
    rep = fit_and_verify(policy, degree=args.degree, extra=args.extra)
    _emit({
        "family": policy.name,
        "degree": rep.polynomial.degree,
        "polynomial": rep.polynomial.text(descending=not args.ascending),
        "coefficients": rep.polynomial.coefficient_strings(),
        "samples": [list(s) for s in rep.samples],
        "held_out": [list(h) for h in rep.held_out],
        "residuals": [int(r) if r.denominator == 1 else str(r)
                      for r in rep.residuals],
        "ok": rep.ok,
    })
    return 0 if rep.ok else MATH_ERROR


def cmd_check(args) -> int:
    results = run_suite(args.suite)
    _emit([r.to_json() for r in results])
    return 0 if all(r.ok for r in results) else MATH_ERROR


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="clustercount",
        description="Exact F_q point counts for exchange-equation varieties "
                    "on trees and forests.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_variety_args(p):
        p.add_argument("--type", choices=list("ADEade"),
                       help="Dynkin type (with --rank)")
        p.add_argument("--rank", type=int, help="Dynkin rank")
        p.add_argument("--tree-file", help="forest file: 'u v' per edge, "
                                           "'v' per isolated vertex")
        p.add_argument("--alpha",
                       help="coefficients: comma-separated integers (below "
                            "q a raw encoding, otherwise mod p), vectors as "
                            "colon-separated digits; either one value per "
                            "vertex or just the normal-form parameters; "
                            "default all ones; excludes --coeff-file")
        p.add_argument("--coeff-file", help="coefficient file: 'v value' "
                                            "per line, default 1; excludes "
                                            "--alpha")
        p.add_argument("--q", type=int, required=True,
                       help="field order (prime power)")

    def add_budget_arg(p):
        p.add_argument("--budget", type=int, default=None,
                       help="enumeration budget in elementary steps, "
                            "at least 1 "
                            f"(default {DEFAULT_BUDGET}, or "
                            "CLUSTERCOUNT_BUDGET)")

    p_count = sub.add_parser("count", help="count points")
    add_variety_args(p_count)
    add_budget_arg(p_count)
    p_count.add_argument("--method", default="all",
                         choices=["brute", "recursion", "formula", "all"])
    p_count.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                         help="parallel workers for enumeration, at most "
                              "one per CPU")
    p_count.add_argument("--stats", action="store_true",
                         help="add each method's work counts (recursion: "
                              "memo nodes added, canonical forms built; "
                              "null for a method that records none)")
    p_count.set_defaults(fn=cmd_count)

    p_norm = sub.add_parser("normalize",
                            help="flip coefficients to tiling normal form")
    add_variety_args(p_norm)
    p_norm.set_defaults(fn=cmd_normalize)

    p_sing = sub.add_parser("singular", help="list singular points")
    add_variety_args(p_sing)
    add_budget_arg(p_sing)
    p_sing.set_defaults(fn=cmd_singular)

    p_interp = sub.add_parser("interpolate",
                              help="fit the count polynomial of a family")
    p_interp.add_argument("--type", required=True, choices=list("ADEade"))
    p_interp.add_argument("--rank", type=int, required=True)
    p_interp.add_argument("--branch", default="generic",
                          choices=["generic", "special", "equal-special",
                                   "one-special", "double-special"])
    p_interp.add_argument("--degree", type=int, default=None,
                          help="degree bound, at least 1 (default: the "
                               "rank, at least 1)")
    p_interp.add_argument("--extra", type=int, default=2,
                          help="held-out verification primes, at least 0")
    p_interp.add_argument("--ascending", action="store_true",
                          help="print polynomial lowest degree first")
    p_interp.set_defaults(fn=cmd_interpolate)

    p_check = sub.add_parser("check", help="run verification batteries")
    p_check.add_argument("--suite", default="paper",
                         help="paper (everything) or one of: "
                              + ", ".join(PAPER_SUITE))
    p_check.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_alpha(sys.argv[1:] if argv is None
                                         else argv))
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MATH_ERROR
    except (ClusterCountError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
