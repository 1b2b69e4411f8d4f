import json
import os
import shutil
import subprocess
import sys
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import sumset_census
from sumset_census import census, cli, family, run_census, verify_ortho

CLI = [sys.executable, "-m", "sumset_census"]


def run_cli(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=merged
    )


class TestSumset:
    def test_worked_example(self):
        result = run_cli("sumset", "--set", "1,2,8,10", "--h", "3")
        assert result.returncode == 0
        assert "size = 19" in result.stdout
        assert "deficit = 1" in result.stdout
        assert "max_reps = 2" in result.stdout
        assert "collision n=12: (0,2,1,0) = (2,0,0,1)" in result.stdout

    def test_unsorted_input_is_sorted(self):
        result = run_cli("sumset", "--set", "10,1,8,2", "--h", "2")
        assert result.returncode == 0
        assert "set = 1,2,8,10" in result.stdout
        assert "size = 10" in result.stdout
        assert "deficit = 0" in result.stdout

    def test_repeated_elements_are_a_usage_error(self):
        result = run_cli("sumset", "--set", "1,2,2,5", "--h", "2")
        assert result.returncode == 2
        assert "usage error" in result.stderr

    def test_malformed_vector_is_a_usage_error(self):
        result = run_cli("sumset", "--set", "1,2,x", "--h", "2")
        assert result.returncode == 2


class TestCensus:
    def test_stdout_is_shard_invariant(self):
        plain = run_cli("census", "--q", "14", "--h-cap", "3")
        sharded = run_cli("census", "--q", "14", "--h-cap", "3", "--shards", "4")
        parallel = run_cli(
            "census", "--q", "14", "--h-cap", "3", "--shards", "4", "--workers", "2"
        )
        assert plain.returncode == sharded.returncode == parallel.returncode == 0
        assert plain.stdout == sharded.stdout == parallel.stdout
        payload = json.loads(plain.stdout)
        assert payload["q"] == 14 and payload["h_cap"] == 3

    def test_out_directory(self, tmp_path):
        out = tmp_path / "census_out"
        result = run_cli("census", "--q", "10", "--h-cap", "2", "--out", str(out))
        assert result.returncode == 0
        assert (out / "census.json").read_text() == result.stdout
        csv = (out / "histograms.csv").read_text()
        assert csv.splitlines()[0] == "h,size,count"

    def test_budget_environment_exits_3(self):
        result = run_cli("census", "--q", "30", env={"SUMSET_MAX_SUBSETS": "100"})
        assert result.returncode == 3


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "ortho", "--q", "30", "--h", "2"),
        ("verify", "repno", "--q", "30", "--h", "2"),
        ("verify", "ddp", "--q", "30", "--h", "2"),
        ("pairs", "--x", "2,0,0,1", "--y", "0,2,1,0", "--q", "30"),
        ("gaps", "--q", "30", "--h", "3", "--out", "OUT"),
        ("verify", "all"),
    ],
)
def test_sweep_budget_environment_exits_3(args, tmp_path):
    out = tmp_path / "out"
    args = [str(out) if a == "OUT" else a for a in args]
    result = run_cli(*args, env={"SUMSET_MAX_SUBSETS": "100"})
    assert result.returncode == 3
    assert "budget exceeded" in result.stderr
    # refused before any output
    assert result.stdout == "" and not out.exists()


class TestGaps:
    def test_writes_json_csv_svg(self, tmp_path):
        out = tmp_path / "gaps_out"
        result = run_cli("gaps", "--q", "12", "--h", "3", "--out", str(out))
        assert result.returncode == 0
        payload = json.loads((out / "gaps.json").read_text())
        assert (out / "gaps.json").read_text() == result.stdout
        assert payload["ladder"] == [20, 19, 16]
        assert payload["gap_differences"] == [1, 3]
        assert set(payload) == {
            "q",
            "k",
            "h",
            "ladder",
            "counts",
            "intermediate_max",
            "gap_differences",
            "confirmed",
            "strongly_confirmed",
            "ratios",
            "inconclusive",
        }
        csv_lines = (out / "gaps.csv").read_text().splitlines()
        assert csv_lines[0] == "h,size,count"
        assert all(line.startswith("3,") for line in csv_lines[1:])
        root = ET.fromstring((out / "gaps.svg").read_text())
        assert root.tag.split("}")[-1] == "svg"


class TestFamily:
    def test_reproducible_sample(self):
        args = ("family", "--h", "2", "--q", "8000", "--limit", "5", "--seed", "3")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        lines = first.stdout.splitlines()
        header = json.loads(lines[0])
        assert header["family_size"] == 1215
        assert header["seed"] == 3
        members = [json.loads(line) for line in lines[1:]]
        assert len(members) == 5
        for rec in members:
            assert rec["a"] < rec["b"] < rec["c"] < rec["d"] <= 8000
            assert all(rec["checks"].values())

    def test_out_file(self, tmp_path):
        out = tmp_path / "members.jsonl"
        result = run_cli(
            "family", "--h", "2", "--q", "8000", "--limit", "3", "--out", str(out)
        )
        assert result.returncode == 0
        assert result.stdout == ""
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + 3 members
        assert json.loads(lines[0])["limit"] == 3

    def test_out_file_in_missing_directory(self, tmp_path):
        out = tmp_path / "results" / "family" / "members.jsonl"
        result = run_cli(
            "family", "--h", "2", "--q", "8000", "--limit", "3", "--out", str(out)
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize("limit", ["2", "0"])
    def test_steps_past_order_2h_minus_1_are_a_usage_error(self, limit):
        result = run_cli(
            "family", "--h", "2", "--q", "8000", "--limit", limit, "--steps", "5"
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "order 2h - 1 = 3" in result.stderr


class TestVerify:
    def test_pairs_passes(self):
        result = run_cli("verify", "pairs", "--h-max", "8")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["lemma"] == "paircount" and payload["passed"]

    def test_pairs_budget_is_the_composition_count(self):
        result = run_cli("verify", "pairs", "--h-max", "45")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["passed"]
        result = run_cli(
            "verify", "pairs", "--h-max", "45", env={"SUMSET_MAX_COMPOSITIONS": "100"}
        )
        assert result.returncode == 3
        assert "budget exceeded" in result.stderr

    def test_ortho_sample_is_a_usage_error(self):
        # ortho always sweeps every subset: a script passing --sample fails
        # loudly rather than getting a different verdict
        result = run_cli("verify", "ortho", "--q", "30", "--h", "2", "--sample", "5")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "unrecognized arguments: --sample" in result.stderr

    @pytest.mark.parametrize(
        "args",
        [("ortho", "--q", "8", "--h", "6"), ("repno", "--q", "12", "--k", "5", "--h", "3")],
    )
    def test_empty_sweep_is_a_usage_error(self, args):
        result = run_cli("verify", *args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "nothing to check" in result.stderr

    def test_work_counts_go_to_stderr(self):
        result = run_cli("verify", "ortho", "--q", "20", "--h", "2")
        assert result.returncode == 0
        assert result.stdout == verify_ortho(20, 2).to_json() + "\n"
        assert "work" not in result.stdout
        assert (
            "; work: patterns_classified=26 profiles=26 reused=0\n"
            in result.stderr
        )

    def test_repno(self):
        result = run_cli("verify", "repno", "--q", "12", "--h", "2")
        assert result.returncode == 0
        assert json.loads(result.stdout)["params"]["bound"] == 2

    def test_ddp_passes(self):
        result = run_cli("verify", "ddp", "--q", "20", "--h", "2")
        assert result.returncode == 0

    def test_ddp_violation_exits_1(self):
        result = run_cli("verify", "ddp", "--q", "7", "--h", "8")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["passed"] is False
        assert {v["s"] for v in payload["violations"]} == {40, 48, 56}

    def test_all_grid(self):
        result = run_cli(
            "verify", "all", "--h-max", "4", "--grid-q", "10", "--grid-h", "2"
        )
        assert result.returncode == 0
        lines = [json.loads(line) for line in result.stdout.splitlines()]
        assert [p["lemma"] for p in lines] == ["paircount", "ortho", "repno", "ddp"]
        assert all(p["passed"] for p in lines)


class TestViolationsExit1:
    """Exit 1 comes from counted violations; the output is still written."""

    @pytest.fixture
    def raised_ladder_bound(self, monkeypatch):
        real = census.figurate_gap
        monkeypatch.setattr(census, "figurate_gap", lambda h, step, k: real(h, step, k) + 1)

    def test_census(self, raised_ladder_bound, capsys):
        violations = run_census(q=14, k=4, h_cap=4).violation_count
        assert violations
        assert cli.main(["census", "--q", "14", "--h-cap", "4"]) == cli.EXIT_VIOLATION == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["q"] == 14
        assert f" {violations} violations" in captured.err

    def test_gaps(self, raised_ladder_bound, capsys, tmp_path):
        out = tmp_path / "gaps_out"
        argv = ["gaps", "--q", "14", "--h", "4", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VIOLATION
        assert json.loads(capsys.readouterr().out)["h"] == 4
        assert (out / "gaps.json").exists()

    def test_family(self, monkeypatch, capsys):
        real = family.tetrahedral
        monkeypatch.setattr(family, "tetrahedral", lambda n: real(n) + 1)
        argv = ["family", "--h", "2", "--q", "8000", "--limit", "3"]
        assert cli.main(argv) == cli.EXIT_VIOLATION
        captured = capsys.readouterr()
        members = [json.loads(line) for line in captured.out.splitlines()[1:]]
        failed = sum(not all(rec["checks"].values()) for rec in members)
        assert failed == len(members) == 3
        assert f"{failed} failed verification" in captured.err


class TestPairs:
    def test_counts_worked_pair(self):
        result = run_cli("pairs", "--x", "2,0,0,1", "--y", "0,2,1,0", "--q", "12")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["count"] == 54
        assert payload["restrict_bstar"] is False

    def test_restricted_count(self):
        result = run_cli(
            "pairs", "--x", "2,0,0,1", "--y", "0,2,1,0", "--q", "12",
            "--restrict-bstar",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["restrict_bstar"] is True
        assert 0 <= payload["count"] <= 54

    def test_equal_vectors_are_a_usage_error(self):
        result = run_cli("pairs", "--x", "1,1,0,0", "--y", "1,1,0,0", "--q", "10")
        assert result.returncode == 2
        assert "usage error" in result.stderr


class TestEntryPoints:
    def test_help(self):
        result = run_cli("--help")
        assert result.returncode == 0
        for name in ("sumset", "census", "gaps", "family", "verify", "pairs"):
            assert name in result.stdout

    def test_missing_subcommand(self):
        result = run_cli()
        assert result.returncode == 2

    @pytest.mark.skipif(
        shutil.which("sumset-census") is None,
        reason="console script not on PATH",
    )
    def test_console_script(self):
        result = subprocess.run(
            ["sumset-census", "sumset", "--set", "1,2,8,10", "--h", "2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "size = 10" in result.stdout

    def test_all_lists_every_public_name(self):
        names = sumset_census.__all__
        assert len(names) == len(set(names))
        assert all(hasattr(sumset_census, name) for name in names)
        public = {
            name
            for name, value in vars(sumset_census).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert public == set(names)

    def test_import_leaves_heavy_modules_out(self):
        # the SVG escape, the process pool and dataclass code generation are
        # stdlib modules that pull in much of the stdlib; importing the
        # package or its command line must not load them
        heavy = ("xml.sax", "urllib.request", "http.client", "email",
                 "concurrent.futures", "multiprocessing", "dataclasses", "inspect")
        src = Path(__file__).resolve().parents[1] / "src"
        for module in ("sumset_census", "sumset_census.cli"):
            code = (
                f"import sys; sys.path.insert(0, {str(src)!r}); import {module}; "
                f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
            )
            result = subprocess.run(
                [sys.executable, "-S", "-c", code], capture_output=True, text=True
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout == "[]\n", module
