"""Benchmark of the sumset_census package through its public API.

    python3 perfbench/run.py --workload census-q60 --seed 1 --seconds 38 --trace 0

Run from a checkout: the package is imported from the checkout's src/ and
nowhere else.  Every workload is a closed loop with one client: one job runs
to completion in a fresh interpreter (child.py), its output bytes are
checked, then the next job starts.  Another job starts while the time so
far plus half a median job is within --seconds, so a run lasts --seconds give
or take half a job; at least one job always runs.  The last stdout line is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: medians over the jobs,
and setup_s the median over at least SETUP_SAMPLES fresh interpreters.
With --trace 1 the run makes one untraced job and two traced ones, asserts
that the traced jobs' work counts agree exactly, replays the census through
the public kernel when the workload is a census, and reports the per-layer
metrics listed in layers.json.  The first stdout line is a run header; the
line before the result summarises the jobs, the error rate and, when
traced, the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from child import BENCH_DIR, ROOT, ensure_package, load_json

WORKLOAD_NAMES = ("census-q60", "verify-grid", "family-wide")
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Tally:
    """Jobs attempted and failed in one run, with the reasons they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def collect(name: str, seed: int, mode: str) -> dict:
    """One child.py sample; its stdout is one JSON line."""
    done = subprocess.run(
        [sys.executable, "-I", str(BENCH_DIR / "child.py"), name, str(seed), mode],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(done.stdout)


def timed_run(name: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    # half the set-up samples come first: they warm the file cache before any
    # job is timed, and with the rest, taken last, they span the whole run
    setups = [collect(name, seed, "setup")["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    jobs = []
    started = time.perf_counter()
    while True:
        job = collect(name, seed, "job")
        tally.record(job["problems"])
        jobs.append(job)
        walls = [j["wall_s"] for j in jobs]
        if time.perf_counter() - started + statistics.median(walls) / 2 > seconds:
            break
    setups += [j["setup_s"] for j in jobs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(collect(name, seed, "setup")["setup_s"])

    import workloads

    items = workloads.WORKLOADS[name].items
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(items / w for w in walls),
        "cpu_s": statistics.median(j["cpu_s"] for j in jobs),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
        "setup_s": statistics.median(setups),
    }
    summary = {"job_wall_s": walls, "job_cpu_s": [j["cpu_s"] for j in jobs], "setup_s": setups}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, summary


def traced_run(name: str, seed: int, tally: Tally) -> tuple[dict, dict]:
    untraced = collect(name, seed, "job")
    passes = [collect(name, seed, "trace-replay"), collect(name, seed, "trace")]
    for job in [untraced] + passes:
        tally.record(job["problems"])
    first, second = passes[0]["counts"], passes[1]["counts"]
    if first != second:
        differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        tally.record([f"work counts differ between traced jobs: {differ}"])

    counts = dict(first)
    times = {
        k: statistics.mean(p["times"].get(k, 0.0) for p in passes)
        for k in passes[0]["times"].keys() | passes[1]["times"].keys()
    }
    replay = passes[0].get("replay", {})
    counts.update(replay.get("counts", {}))
    times.update(replay.get("times", {}))

    overhead = statistics.mean(p["wall_s"] for p in passes) - untraced["wall_s"]
    filtered = counts.get("verifier.filtered_swept", 0)
    derived = {
        "verifier.qualify_ratio": counts.get("verifier.instances", 0) / filtered if filtered else 0.0,
        "trace.overhead_s": overhead,
    }
    metrics = {}
    for metric, spec in load_json("layers.json")["per_layer"].items():
        value = derived.get(metric, counts.get(metric, times.get(metric, 0)))
        metrics[metric] = (value, spec["unit"])
    summary = {
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": [p["wall_s"] for p in passes],
        "trace_overhead_s": overhead,
    }
    return metrics, summary


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def header(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ensure_package()
    print(json.dumps({"header": header(args)}), flush=True)
    tally = Tally()
    if args.trace:
        metrics, summary = traced_run(args.workload, args.seed, tally)
    else:
        metrics, summary = timed_run(args.workload, args.seed, args.seconds, tally)
    summary.update(error_rate=tally.error_rate, problems=tally.problems[:20])
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
