"""The three benchmark workloads and the gate that checks their output bytes.

Each workload is one closed-loop job: it calls the package's public API,
runs to completion and returns the bytes a user keeps plus the number of
violations the package reported.  Jobs take a tracer; with tracing off its
spans and counts do nothing.  Inputs are parameters only: the census and
the verify grid are fixed, and the family sample is drawn from the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import sumset_census as sc

CENSUS_Q = 60
CENSUS_K = 4
CENSUS_H_CAP = 5
GAPS_H = 5

GRID_Q = (20, 30, 40)
GRID_H = (2, 3, 4)
PAIRCOUNT_H_MAX = 12

FAMILY_H = 3
FAMILY_Q = 270_000
FAMILY_LIMIT = 500
FAMILY_STEPS = 2


@dataclass
class Output:
    """What one job produced: named text outputs, violations, and for the
    census the report itself (the traced run replays it)."""

    files: dict[str, str]
    violations: int
    report: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    gate: str  # key of this workload's digests in expected.json
    items: int  # work items per job, the numerator of items_per_s
    prepare: Callable[[int], dict]
    job: Callable[[Any, dict], Output]


def census_inputs(seed: int) -> dict:
    return {"q": CENSUS_Q, "k": CENSUS_K, "h_cap": CENSUS_H_CAP}


def census_job(tr, inputs: dict) -> Output:
    """run_census, then census.json, histograms.csv and the gaps json/csv/svg
    at fold GAPS_H, byte for byte as the CLI's census and gaps commands
    write them."""
    q, h = inputs["q"], GAPS_H
    with tr.span("census.run_s"):
        report = sc.run_census(**inputs)
    with tr.span("census.serialize_s"):
        census_json = report.to_json()
        files = {
            "census.json": census_json,
            "histograms.csv": report.histograms_csv(),
        }
        hist = report.histograms[h]
        gap = sc.detect_gaps(hist, h)
        payload = {
            "q": q,
            "k": 4,
            "h": h,
            "ladder": list(gap.ladder),
            "counts": list(gap.counts),
            "intermediate_max": list(gap.intermediate_max),
            "gap_differences": list(gap.gap_differences),
            "confirmed": list(gap.confirmed),
            "strongly_confirmed": list(gap.strongly_confirmed),
            "ratios": [None if r is None else round(r, 6) for r in gap.ratios],
            "inconclusive": gap.inconclusive,
        }
        files["gaps.json"] = json.dumps(payload, indent=2) + "\n"
        rows = ["h,size,count"]
        rows += [f"{h},{size},{hist.counts[size]}" for size in sorted(hist.counts, reverse=True)]
        files["gaps.csv"] = "\n".join(rows) + "\n"
    with tr.span("plotting.svg_s"):
        files["gaps.svg"] = sc.histogram_svg(
            hist.counts,
            h,
            gap.ladder,
            title=f"{h}-fold sumset sizes over 4-subsets of [1..{q}]",
        )
    tr.count("census.json_bytes", len(census_json.encode()))
    tr.count("plotting.svg_bytes", len(files["gaps.svg"].encode()))
    return Output(files, report.violation_count, report)


def verify_inputs(seed: int) -> dict:
    return {"grid_q": GRID_Q, "grid_h": GRID_H, "h_max": PAIRCOUNT_H_MAX}


def verify_job(tr, inputs: dict) -> Output:
    """The default `verify all` grid; the verdict lines match its stdout."""
    with tr.span("verifier.paircount_s"):
        verdicts = [sc.verify_paircount(inputs["h_max"])]
    for q in inputs["grid_q"]:
        swept = math.comb(q, 4)
        for h in inputs["grid_h"]:
            with tr.span("verifier.ortho_s"):
                ortho = sc.verify_ortho(q, h)
            with tr.span("verifier.repno_s"):
                repno = sc.verify_repno(q, 4, h)
            with tr.span("verifier.ddp_s"):
                ddp = sc.verify_ddp(q, h)[0]
            verdicts += [ortho, repno, ddp]
            tr.count("verifier.subsets_swept", 3 * swept)
            tr.count("verifier.filtered_swept", 2 * swept)
            tr.count("verifier.instances", ortho.instances + repno.instances)
    text = "".join(v.to_json() + "\n" for v in verdicts)
    return Output({"verdicts.jsonl": text}, sum(len(v.violations) for v in verdicts))


def family_inputs(seed: int) -> dict:
    return {
        "params": sc.FamilyParams(h=FAMILY_H, q=FAMILY_Q),
        "limit": FAMILY_LIMIT,
        "seed": seed,
        "steps": FAMILY_STEPS,
    }


def family_job(tr, inputs: dict) -> Output:
    """Sample, verify and record family members; the JSONL matches the CLI's
    `family --h 3 --q 270000 --limit 500 --steps 2 --seed <seed>`."""
    params, steps = inputs["params"], inputs["steps"]
    header = {
        "h": params.h,
        "q": params.q,
        "a_max": params.a_max,
        "b_max": params.b_max,
        "d_min": params.d_min,
        "family_size": sc.family_size(params),
        "limit": inputs["limit"],
        "seed": inputs["seed"],
        "steps": steps,
    }
    with tr.span("family.decode_s"):
        members = list(sc.generate_family(params, limit=inputs["limit"], seed=inputs["seed"]))
    lines = [json.dumps(header)]
    failures = 0
    for member in members:
        with tr.span("family.verify_s"):
            verification = sc.verify_member(member, params.h, max_step=steps)
        with tr.span("family.record_s"):
            record = sc.member_record(member, verification)
        failures += not verification.passed
        lines.append(json.dumps(record))
    tr.count("family.members", len(members))
    # every kernel call of this job came from verify_member
    tr.count("family.kernel_bits", tr.counts["engine.kernel_bits"])
    return Output({"family.jsonl": "\n".join(lines) + "\n"}, failures)


def _verify_items() -> int:
    # ortho, repno and ddp each sweep C(q,4) subsets at every (q, h)
    return 3 * len(GRID_H) * sum(math.comb(q, 4) for q in GRID_Q)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census-q60", "census", math.comb(CENSUS_Q, CENSUS_K),
            census_inputs, census_job,
        ),
        Workload("verify-grid", "verify", _verify_items(), verify_inputs, verify_job),
        Workload("family-wide", "family", FAMILY_LIMIT, family_inputs, family_job),
    )
}


def digests(files: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in files.items()}


def check(workload: Workload, out: Output, seed: int, expected: dict) -> list[str]:
    """Reasons this job's output is wrong; empty when it passed the gate.

    Output bytes must match the digests recorded in expected.json.  The
    family digest holds for the recorded seed only; at any other seed every
    sampled member must have one record and every record must pass.
    """
    problems = []
    if out.violations:
        problems.append(f"{out.violations} violations reported")
    gate = expected[workload.gate]
    if "seed" in gate and gate["seed"] != seed:
        problems += _family_shape(out.files["family.jsonl"])
        return problems
    got = digests(out.files)
    for name, digest in gate["digests"].items():
        if got.get(name) != digest:
            problems.append(f"{name} digest {got.get(name)} != recorded {digest}")
    return problems


def _family_shape(text: str) -> list[str]:
    lines = text.splitlines()
    records = [json.loads(line) for line in lines[1:]]
    problems = []
    if len(records) != FAMILY_LIMIT:
        problems.append(f"{len(records)} family records, expected {FAMILY_LIMIT}")
    failed = sum(not all(r["checks"].values()) for r in records)
    if failed:
        problems.append(f"{failed} family members failed verification")
    return problems
