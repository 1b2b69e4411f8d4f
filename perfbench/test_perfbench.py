"""Tests of the benchmark's own gate and metadata.

    python3 -m pytest -q perfbench

The fault-injection cases corrupt one output the package returns and check
that every job then counts as failed (error rate 1.0).  They run real jobs
in this process, so the file takes about half a minute.
"""

from __future__ import annotations

import json

import pytest

import child
import run

child.ensure_package()

import sumset_census as sc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAMILY = workloads.WORKLOADS["family-wide"]


def one_job(name: str, seed: int = 0) -> run.Tally:
    inputs = workloads.WORKLOADS[name].prepare(seed)
    tally = run.Tally()
    tally.record(child.sample(name, seed, "job", inputs, child.load_json("expected.json"))["problems"])
    return tally


def test_family_at_recorded_seed_passes_the_gate():
    tally = one_job("family-wide")
    assert (tally.attempted, tally.failed, tally.error_rate) == (1, 0, 0.0)


def test_corrupted_family_record_reads_error_rate_one(monkeypatch):
    real = sc.member_record

    def corrupt(member, verification):
        record = real(member, verification)
        record["checks"]["separation"] = False
        return record

    monkeypatch.setattr(sc, "member_record", corrupt)
    assert one_job("family-wide").error_rate == 1.0
    # at a seed with no recorded digest the shape check catches it too
    assert one_job("family-wide", seed=7).error_rate == 1.0


def test_corrupted_census_report_reads_error_rate_one(monkeypatch):
    real = sc.CensusReport.histograms_csv
    monkeypatch.setattr(sc.CensusReport, "histograms_csv", lambda self: real(self) + "0,0,0\n")
    tally = one_job("census-q60")
    assert tally.error_rate == 1.0
    assert tally.problems and all("histograms.csv" in p for p in tally.problems)


def test_reported_violations_fail_the_job():
    text = json.dumps({"h": 3}) + "\n"
    out = workloads.Output({"family.jsonl": text}, violations=2)
    expected = child.load_json("expected.json")
    problems = workloads.check(FAMILY, out, 0, expected)
    assert "2 violations reported" in problems
    assert any("digest" in p for p in problems)


def test_family_shape_check_at_unrecorded_seed():
    header = json.dumps({"h": 3})
    good = json.dumps({"checks": {"h_star": True, "separation": True}})
    bad = json.dumps({"checks": {"h_star": False, "separation": True}})
    expected = child.load_json("expected.json")

    def problems(lines):
        text = "\n".join([header] + lines) + "\n"
        return workloads.check(FAMILY, workloads.Output({"family.jsonl": text}, 0), 5, expected)

    assert problems([good] * workloads.FAMILY_LIMIT) == []
    assert problems([good] * (workloads.FAMILY_LIMIT - 1)) != []
    assert problems([good] * (workloads.FAMILY_LIMIT - 1) + [bad]) != []


def test_patching_counts_nested_calls_and_restores_bindings():
    tracer = tracing.Tracer()
    with tracer.patched():
        assert hasattr(sc.verifier.profile_naive, "__wrapped__")
        sc.verify_paircount(3)
        sc.verify_member(sc.member_at(FAMILY.prepare(0)["params"], 0), 3, max_step=2)
    assert tracer.counts["compositions.pair_scan_calls"] == 3
    assert tracer.counts["engine.kernel_calls"] == 1
    assert tracer.counts["engine.scan_calls"] == 2
    assert sc.verifier.disjoint_support_pairs is sc.compositions.disjoint_support_pairs
    assert sc.family.sumset_sizes is sc.engine.sumset_sizes
    assert not hasattr(sc.engine.profile_naive, "__wrapped__")


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((child.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_runner(benchmark_json):
    layers = child.load_json("layers.json")
    assert [w["name"] for w in benchmark_json["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(layers["workloads"]) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]} == run.END_TO_END
    assert [
        {"name": name, "unit": spec["unit"], "better": spec["better"]}
        for name, spec in layers["per_layer"].items()
    ] == benchmark_json["per_layer"]
