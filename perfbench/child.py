"""One sample of a workload in a fresh interpreter, printed as a JSON line.

    python3 -I perfbench/child.py WORKLOAD SEED MODE

MODE is one of:
  setup         only the set-up: import sumset_census and prepare the inputs
  job           set-up, then one untraced job and its gate check
  trace         set-up, then one job with spans and layer probes on
  trace-replay  as trace, then for a census the replay through the engine

run.py starts one of these per job, so every job meets the allocator and
caches as a fresh command-line run does, and no job inherits heap state
from the one before it.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MODES = ("setup", "job", "trace", "trace-replay")


def ensure_package() -> None:
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    if not (SRC / "sumset_census" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sumset_census package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sumset_census

    if not Path(sumset_census.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: sumset_census imported from {sumset_census.__file__}")


def load_json(name: str) -> dict:
    return json.loads((BENCH_DIR / name).read_text())


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (a
    census pool worker, when there are any)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024 / 1e6


def sample(name: str, seed: int, mode: str, inputs: dict, expected: dict) -> dict:
    """Run one job of the named workload; return its times, the gate's
    problems and, when traced, the layer counts and times."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer(enabled=mode != "job")
    probes = tracer.patched() if tracer.enabled else contextlib.nullcontext()
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    with probes:
        out = workload.job(tracer, inputs)
    wall = time.perf_counter() - started
    cpu = cpu_seconds() - cpu0
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "problems": workloads.check(workload, out, seed, expected),
    }
    if tracer.enabled:
        result["counts"] = dict(tracer.counts)
        result["times"] = dict(tracer.times)
    if mode == "trace-replay" and out.report is not None:
        replay = tracing.Tracer()
        with replay.patched():
            problems = tracing.replay_census(replay, out.report)
        result["replay"] = {
            "counts": dict(replay.counts),
            "times": dict(replay.times),
        }
        result["problems"] += problems
    return result


def main() -> None:
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    if mode not in MODES:
        raise SystemExit(f"perfbench: unknown mode {mode!r}, expected one of {MODES}")
    sys.path.insert(0, str(BENCH_DIR))
    # set-up: the package import plus the workload's input preparation
    started = time.perf_counter()
    ensure_package()
    import workloads

    inputs = workloads.WORKLOADS[name].prepare(seed)
    result = {"setup_s": time.perf_counter() - started}
    if mode != "setup":
        result.update(sample(name, seed, mode, inputs, load_json("expected.json")))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
