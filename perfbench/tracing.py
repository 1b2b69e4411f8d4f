"""Spans and exact work counts recorded from the benchmark's side of each
layer call, for the traced run only.

A Tracer times named spans that the jobs open around their calls into the
package.  While `patched()` is active it also wraps every binding of the
engine kernel, the engine collision scan and the disjoint-support pair scan
inside the package, so calls the verifier and the family make into those
layers are timed and counted too.  Times are inclusive: a verifier span
contains the engine time spent under it.

The census inlines its own kernel and scan, so its layer counts come from
`replay_census`, which feeds the same subsets through the public
`sumset_sizes` and `profile_naive`; engine times on the census workloads are
replay times.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
import time
from collections import Counter, defaultdict

import sumset_census as sc
from sumset_census.engine import elements_of

_NULL_SPAN = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.times: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    def span(self, key: str):
        return self._span(key) if self.enabled else _NULL_SPAN

    @contextlib.contextmanager
    def _span(self, key: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.times[key] += time.perf_counter() - started

    def count(self, key: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[key] += n

    @contextlib.contextmanager
    def patched(self):
        """Wrap every package binding of the probed layer functions."""
        originals = {}
        for original, prefix, work_key, work in _probes():
            wrapper = self._wrap(original, prefix, work_key, work)
            for module in _package_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        originals[(module, attr)] = value
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for (module, attr), value in originals.items():
                setattr(module, attr, value)

    def _wrap(self, fn, prefix: str, work_key: str, work):
        times, counts = self.times, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            times[prefix + "_s"] += time.perf_counter() - started
            counts[prefix + "_calls"] += 1
            counts[work_key] += work(*args, **kwargs)
            return result

        return wrapper


def _kernel_bits(a, h, *_, **__):
    elems = elements_of(a)
    return h * (elems[-1] - elems[0]) + 1


def _scan_compositions(a, h, *_, **__):
    return sc.multiset_count(h, len(elements_of(a)))


def _pairs_visited(h, k, *_, **__):
    m = sc.multiset_count(h, k)
    return m * (m - 1) // 2


def _probes():
    return (
        (sc.engine.sumset_sizes, "engine.kernel", "engine.kernel_bits", _kernel_bits),
        (sc.engine.profile_naive, "engine.scan", "engine.scan_compositions", _scan_compositions),
        (
            sc.compositions.disjoint_support_pairs,
            "compositions.pair_scan",
            "compositions.pair_scan_pairs",
            _pairs_visited,
        ),
    )


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "sumset_census" or name.startswith("sumset_census.")
    ]


def replay_census(tr: Tracer, report) -> list[str]:
    """Feed every subset of the report's census through the public kernel
    and, when it collides, the public scan; count the work under census.*.

    Returns every way the replay disagrees with the report.

    Call it under `tr.patched()` so engine calls are counted.
    """
    q, k, h_cap = report.q, report.k, report.h_cap
    m_of = [sc.multiset_count(i, k) for i in range(h_cap + 1)]
    hist = [Counter() for _ in range(h_cap)]
    subsets = 0
    for top in range(k, q + 1):
        for rest in itertools.combinations(range(1, top), k - 1):
            elems = rest + (top,)
            subsets += 1
            sizes = sc.sumset_sizes(elems, h_cap)
            for i, size in enumerate(sizes):
                hist[i][size] += 1
            first = next((i for i in range(1, h_cap + 1) if sizes[i - 1] < m_of[i]), 0)
            if first:
                sc.profile_naive(elems, first)
    c = tr.counts
    c["census.subsets"] = subsets
    c["census.kernel_evals"] = c["engine.kernel_calls"]
    c["census.collision_scans"] = c["engine.scan_calls"]
    c["census.scan_compositions"] = c["engine.scan_compositions"]
    c["census.kernel_bits"] = c["engine.kernel_bits"]

    problems = []
    total = math.comb(q, k)
    expect = {
        "census.subsets": total,
        "census.kernel_evals": total,
        "census.collision_scans": total - report.capped,
        "census.scan_compositions": sum(
            n * m_of[h + 1] for h, n in report.bstar_counts.items()
        ),
    }
    for key, value in expect.items():
        if c[key] != value:
            problems.append(f"replay {key} = {c[key]}, report implies {value}")
    for i in range(h_cap):
        if dict(hist[i]) != report.histograms[i + 1].counts:
            problems.append(f"replay histogram at fold {i + 1} differs from the report")
    return problems
