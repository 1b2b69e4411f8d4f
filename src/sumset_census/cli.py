"""Command line front end.

Subcommands: sumset, census, gaps, family, verify, pairs.  Deterministic
results go to stdout (JSON, JSON lines, or plain key = value text); progress
and timing go to stderr, so identical configurations produce byte-identical
stdout and files.

Exit codes: 0 success, 1 a checked statement was violated, 2 usage error,
3 budget exceeded, 4 an internal consistency check failed (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .census import _histograms_csv, count_pair_solutions, run_census
from .engine import SetVector, profile_naive
from .family import (
    FamilyParams,
    family_size,
    generate_family,
    member_record,
    member_steps,
    verify_member,
)
from .guards import BudgetExceededError, InvariantError
from .plotting import histogram_svg
from .verifier import verify_ddp, verify_ortho, verify_paircount, verify_repno

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4

DEFAULT_GRID_Q = (20, 30, 40)
DEFAULT_GRID_H = (2, 3, 4)


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def cmd_sumset(args: argparse.Namespace) -> int:
    values = _parse_vector(args.set)
    vec = SetVector.from_values(values, args.q)
    profile = profile_naive(vec, args.h)
    print(f"set = {','.join(str(a) for a in vec.elements)}")
    print(f"q = {vec.q}")
    print(f"h = {profile.h}")
    print(f"size = {profile.size}")
    print(f"deficit = {profile.deficit}")
    print(f"max_reps = {profile.max_reps}")
    for collision in profile.collisions:
        shown = " = ".join(f"({','.join(map(str, v))})" for v in collision.vectors)
        print(f"collision n={collision.n}: {shown}")
    return EXIT_OK


def cmd_census(args: argparse.Namespace) -> int:
    report = run_census(
        q=args.q,
        k=args.k,
        h_cap=args.h_cap,
        shards=args.shards,
        workers=args.workers,
    )
    text = report.to_json()
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "census.json").write_text(text)
        (out / "histograms.csv").write_text(report.histograms_csv())
    print(
        f"# census q={args.q} k={args.k} h_cap={args.h_cap}: "
        f"{report.total_subsets} subsets, {report.violation_count} violations",
        file=sys.stderr,
    )
    return EXIT_VIOLATION if report.violation_count else EXIT_OK


def cmd_gaps(args: argparse.Namespace) -> int:
    report = run_census(
        q=args.q,
        k=4,
        h_cap=args.h,
        shards=args.shards,
        workers=args.workers,
    )
    gap = report.gaps[args.h]
    payload = {"q": args.q, "k": 4, **gap._asdict()}
    payload["ratios"] = [None if r is None else round(r, 6) for r in gap.ratios]
    text = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(text)
    svg = histogram_svg(
        report.histograms[args.h].counts,
        args.h,
        gap.ladder,
        title=f"{args.h}-fold sumset sizes over 4-subsets of [1..{args.q}]",
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "gaps.json").write_text(text)
    (out / "gaps.csv").write_text(_histograms_csv(report.histograms, [args.h]))
    (out / "gaps.svg").write_text(svg)
    print(f"# gaps q={args.q} h={args.h}: wrote {out}/gaps.{{json,csv,svg}}", file=sys.stderr)
    return EXIT_VIOLATION if report.violation_count else EXIT_OK


def cmd_family(args: argparse.Namespace) -> int:
    params = FamilyParams(h=args.h, q=args.q)
    total = family_size(params)
    steps = args.steps
    member_steps(params.h, steps)  # refused even when no member gets verified
    header = {
        "h": params.h,
        "q": params.q,
        "a_max": params.a_max,
        "b_max": params.b_max,
        "d_min": params.d_min,
        "family_size": total,
        "limit": args.limit,
        "seed": args.seed,
        "steps": steps,
    }
    lines = [json.dumps(header)]
    failures = 0
    for member in generate_family(params, limit=args.limit, seed=args.seed):
        verification = verify_member(member, params.h, max_step=steps)
        if not verification.passed:
            failures += 1
        lines.append(json.dumps(member_record(member, verification)))
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    else:
        sys.stdout.write(text)
    print(
        f"# family h={args.h} q={args.q}: size {total}, "
        f"{len(lines) - 1} emitted, {failures} failed verification",
        file=sys.stderr,
    )
    return EXIT_VIOLATION if failures else EXIT_OK


def _emit_verdicts(verdicts) -> int:
    bad = 0
    for verdict in verdicts:
        print(verdict.to_json())
        work = "".join(f" {key}={value}" for key, value in verdict.work.items())
        work = f"; work:{work}" if work else ""
        print(
            f"# lemma {verdict.lemma}: {verdict.instances} instances, "
            f"{len(verdict.violations)} violations, {verdict.elapsed_s:.2f}s{work}",
            file=sys.stderr,
        )
        if not verdict.passed:
            bad += 1
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.lemma == "ortho":
        return _emit_verdicts([verify_ortho(args.q, args.h)])
    if args.lemma == "repno":
        return _emit_verdicts([verify_repno(args.q, args.k, args.h)])
    if args.lemma == "ddp":
        verdict, _ = verify_ddp(args.q, args.h)
        return _emit_verdicts([verdict])
    if args.lemma == "pairs":
        return _emit_verdicts([verify_paircount(args.h_max)])
    # all: the desk-scale grid
    verdicts = [verify_paircount(args.h_max)]
    for q in args.grid_q:
        for h in args.grid_h:
            verdicts.append(verify_ortho(q, h))
            verdicts.append(verify_repno(q, 4, h))
            verdicts.append(verify_ddp(q, h)[0])
    return _emit_verdicts(verdicts)


def cmd_pairs(args: argparse.Namespace) -> int:
    x = _parse_vector(args.x)
    y = _parse_vector(args.y)
    count = count_pair_solutions(x, y, args.q, restrict_bstar=args.restrict_bstar)
    print(
        json.dumps(
            {
                "x": list(x),
                "y": list(y),
                "q": args.q,
                "restrict_bstar": args.restrict_bstar,
                "count": count,
            }
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumset-census",
        description="Iterated sumset profiles, censuses and lemma verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sumset", help="profile one h-fold sumset")
    p.add_argument("--set", required=True, help="comma-separated elements, e.g. 1,2,8,10")
    p.add_argument("--h", type=int, required=True, help="fold count")
    p.add_argument("--q", type=int, default=None, help="ambient bound (default max element)")
    p.set_defaults(func=cmd_sumset)

    p = sub.add_parser("census", help="census all k-subsets of [1..q]")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--h-cap", type=int, default=6, dest="h_cap")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="directory for census.json + histograms.csv")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("gaps", help="ladder report and SVG chart at one fold")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="gaps_out", help="directory for gaps.{json,csv,svg}")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("family", help="generate and verify family members")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=1, help="deficit steps to verify")
    p.add_argument("--out", default=None, help="JSONL output file (default stdout)")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", help="run finite lemma sweeps")
    lemma_sub = p.add_subparsers(dest="lemma", required=True)

    lp = lemma_sub.add_parser("ortho", help="disjoint supports of colliding pairs")
    lp.add_argument("--q", type=int, required=True)
    lp.add_argument("--h", type=int, required=True)
    lp.set_defaults(func=cmd_verify)

    lp = lemma_sub.add_parser("repno", help="representation bound at order h+1")
    lp.add_argument("--q", type=int, required=True)
    lp.add_argument("--k", type=int, default=4)
    lp.add_argument("--h", type=int, required=True)
    lp.set_defaults(func=cmd_verify)

    lp = lemma_sub.add_parser("ddp", help="dot-product interval realization")
    lp.add_argument("--q", type=int, required=True)
    lp.add_argument("--h", type=int, required=True)
    lp.set_defaults(func=cmd_verify)

    lp = lemma_sub.add_parser("pairs", help="disjoint-support pair census")
    lp.add_argument("--h-max", type=int, default=12, dest="h_max")
    lp.set_defaults(func=cmd_verify)

    lp = lemma_sub.add_parser("all", help="full desk-scale grid")
    lp.add_argument("--h-max", type=int, default=12, dest="h_max")
    lp.add_argument("--grid-q", type=_parse_vector, default=DEFAULT_GRID_Q, dest="grid_q")
    lp.add_argument("--grid-h", type=_parse_vector, default=DEFAULT_GRID_H, dest="grid_h")
    lp.set_defaults(func=cmd_verify)

    p = sub.add_parser("pairs", help="count subsets solving x.A == y.A")
    p.add_argument("--x", required=True, help="comma-separated composition")
    p.add_argument("--y", required=True, help="comma-separated composition")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--restrict-bstar", action="store_true", dest="restrict_bstar")
    p.set_defaults(func=cmd_pairs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
