import itertools
import json
import math
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_census import (
    BudgetExceededError,
    InvariantError,
    SizeHistogram,
    count_pair_solutions,
    detect_gaps,
    multiset_count,
    run_census,
    tetrahedral,
)
from sumset_census import census, cli, engine
from sumset_census.compositions import compositions_table

from oracles import (
    plain_pair_count,
    composition_count,
    order_of,
    pair_solution_count_4,
    plain_census,
    representation_counter,
)


@pytest.fixture(scope="module")
def small_census():
    return run_census(q=12, k=4, h_cap=4)


class TestRunCensusAgainstOracle:
    def test_histograms_match_multiset_oracle(self, small_census):
        q, k, h_cap = 12, 4, 4
        expected = {h: {} for h in range(1, h_cap + 1)}
        for elems in itertools.combinations(range(1, q + 1), k):
            for h in range(1, h_cap + 1):
                size = len(representation_counter(elems, h))
                expected[h][size] = expected[h].get(size, 0) + 1
        for h in range(1, h_cap + 1):
            assert small_census.histograms[h].counts == expected[h]

    def test_classification_matches_oracle(self, small_census):
        q, k, h_cap = 12, 4, 4
        bstar = {}
        capped = 0
        for elems in itertools.combinations(range(1, q + 1), k):
            h_star, is_capped = order_of(elems, h_cap)
            if is_capped:
                capped += 1
            else:
                bstar[h_star] = bstar.get(h_star, 0) + 1
        assert small_census.bstar_counts == bstar
        assert small_census.capped == capped

    def test_exceptional_matches_oracle(self, small_census):
        q, k, h_cap = 12, 4, 4
        exceptional = {}
        for elems in itertools.combinations(range(1, q + 1), k):
            h_star, is_capped = order_of(elems, h_cap)
            if is_capped:
                continue
            counter = representation_counter(elems, h_star + 1)
            deficit = composition_count(h_star + 1, k) - len(counter)
            if deficit >= 2:
                exceptional[h_star] = exceptional.get(h_star, 0) + 1
        assert small_census.exceptional_counts == exceptional

    def test_mass_conservation_and_partition(self, small_census):
        total = math.comb(12, 4)
        for h in range(1, 5):
            assert small_census.histograms[h].total == total
        assert sum(small_census.bstar_counts.values()) + small_census.capped == total

    def test_no_lemma_violations(self, small_census):
        assert small_census.ladder_violations == ()
        assert small_census.rep_violations == ()
        assert small_census.support_violations == ()

    def test_rep_profiles_within_bound(self, small_census):
        for profile in small_census.rep_profiles.values():
            assert set(profile) == {2}


class TestSharding:
    def test_shard_counts_agree(self):
        reference = run_census(q=14, k=4, h_cap=4, shards=1)
        for shards in (4, 16):
            other = run_census(q=14, k=4, h_cap=4, shards=shards)
            assert other.to_json() == reference.to_json()
            assert other.histograms_csv() == reference.histograms_csv()
            assert other == reference

    def test_worker_processes_agree(self):
        reference = run_census(q=12, k=4, h_cap=3, shards=4, workers=1)
        parallel = run_census(q=12, k=4, h_cap=3, shards=4, workers=2)
        assert parallel == reference


_PLAIN_REPORTS = {}


def _plain_report(q, k, h_cap):
    key = (q, k, h_cap)
    if key not in _PLAIN_REPORTS:
        _PLAIN_REPORTS[key] = plain_census(q, k, h_cap)
    return _PLAIN_REPORTS[key]


def _assert_same_report(report, reference):
    assert report == reference
    assert report.to_json() == reference.to_json()
    assert report.histograms_csv() == reference.histograms_csv()


class TestPatternSweepAgainstPlainSweep:
    """The gap-pattern sweep must reproduce the per-subset sweep exactly."""

    @pytest.mark.parametrize(
        "q,k,h_cap", [(12, 4, 4), (25, 4, 5), (40, 4, 6), (20, 5, 4), (14, 5, 2)]
    )
    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_report_bytes_match(self, q, k, h_cap, shards):
        reference = _plain_report(q, k, h_cap)
        _assert_same_report(run_census(q=q, k=k, h_cap=h_cap, shards=shards), reference)

    def test_worker_processes_match(self):
        report = run_census(q=25, k=4, h_cap=5, shards=3, workers=2)
        _assert_same_report(report, _plain_report(25, 4, 5))

    def test_plain_sweep_shards_agree(self):
        assert plain_census(14, 4, 4, shards=3) == plain_census(14, 4, 4)


class TestPlaneCensusAgainstPlainSweep:
    """For k <= 4 the census walks relation planes, tallies each plane's
    one-plane points through one representative, evaluates only the line
    points, and counts the rest as capped; the per-subset sweep is the
    oracle for every tally and byte."""

    # at (16, 4, 6) and (20, 4, 8) every subset collides, so nothing is capped
    @pytest.mark.parametrize(
        "q,k,h_cap,capped", [(20, 4, 8, 0), (30, 4, 6, 16), (20, 3, 6, 688), (16, 4, 6, 0)]
    )
    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_report_bytes_match(self, q, k, h_cap, capped, shards):
        reference = _plain_report(q, k, h_cap)
        assert reference.capped == capped
        _assert_same_report(run_census(q=q, k=k, h_cap=h_cap, shards=shards), reference)

    def test_worker_processes_match(self):
        report = run_census(q=30, k=4, h_cap=6, shards=8, workers=2)
        _assert_same_report(report, _plain_report(30, 4, 6))

    def test_k5_runs_the_pattern_pass(self, monkeypatch):
        calls = {"pattern": 0, "plane": 0}

        def counting(kind, shard):
            def run(args):
                calls[kind] += 1
                return shard(args)

            return run

        monkeypatch.setattr(census, "_census_shard", counting("pattern", census._census_shard))
        monkeypatch.setattr(census, "_plane_shard", counting("plane", census._plane_shard))
        run_census(q=11, k=5, h_cap=4, shards=2)
        assert calls == {"pattern": 2, "plane": 0}
        run_census(q=11, k=4, h_cap=4, shards=2)
        assert calls == {"pattern": 2, "plane": 2}


class TestClosedForm:
    @pytest.mark.parametrize("q,k,h_cap", [(24, 4, 5), (18, 4, 7), (40, 3, 6)])
    def test_every_one_plane_pattern(self, q, k, h_cap):
        # planes through each pattern by direct dot products, not by the walk
        planes = [
            (w, r) for w in range(2, h_cap + 1) for r in engine._relation_planes(k, w)
        ]
        directions = {u for u, _, _ in engine._relation_lines(h_cap)} if k == 4 else set()
        one_plane = 0
        for d in itertools.combinations(range(1, q), k - 1):
            degrees = [w for w, r in planes if sum(c * e for c, e in zip(r, d)) == 0]
            assert (len(degrees) >= 2) == (engine._direction(d) in directions)
            if len(degrees) == 1:
                one_plane += 1
                closed = census._closed_form(k, degrees[0], h_cap)
                assert census._fold_sizes((0,) + d, h_cap) == closed
        assert one_plane


def _patch_lines(monkeypatch, edit):
    # the class table reads the directions through engine at build time
    real = engine._relation_lines
    monkeypatch.setattr(
        engine, "_relation_lines", lambda h_cap, low=2: tuple(edit(real(h_cap, low)))
    )


class TestPlaneCensusFaults:
    """A broken plane-class table raises InvariantError or fails a byte test."""

    @staticmethod
    def _lines_without(monkeypatch, u):
        assert u in {v for v, _, _ in engine._relation_lines(5)}
        _patch_lines(monkeypatch, lambda lines: (line for line in lines if line[0] != u))

    def test_dropped_line_overcounts(self, monkeypatch):
        # the dilates of (1, 2, 3) would be counted on each of its planes as
        # one-plane points
        self._lines_without(monkeypatch, (1, 2, 3))
        with pytest.raises(InvariantError, match="more than C"):
            run_census(q=12, k=4, h_cap=4)

    def test_dropped_line_point_as_representative(self, monkeypatch):
        # (1, 2, 8) would stand for every one-plane point of (2, -1, 0)
        self._lines_without(monkeypatch, (1, 2, 8))
        with pytest.raises(InvariantError, match="differ from its closed form"):
            run_census(q=12, k=4, h_cap=4)

    def test_dropped_line_fails_the_byte_test(self, monkeypatch):
        self._lines_without(monkeypatch, (2, 7, 20))
        assert run_census(q=25, k=4, h_cap=5) != _plain_report(25, 4, 5)

    def test_line_point_on_one_plane(self, monkeypatch):
        # (1, 5, 10) lies on the one plane (0, 2, -1) of degree <= 4
        assert (1, 5, 10) not in {u for u, _, _ in engine._relation_lines(4)}
        spurious = ((1, 5, 10), ((0, 2, -1),), 2)
        _patch_lines(monkeypatch, lambda lines: sorted(lines + (spurious,)))
        with pytest.raises(InvariantError, match=r"line \(1, 5, 10\) met on 1 relation"):
            run_census(q=12, k=4, h_cap=4)
        # listed on a second plane it does not lie on, of degree 3, it takes
        # subsets from that plane's closed form to the one of degree 2
        assert (1, 2, -1) in engine._relation_planes(4, 3)
        spurious = ((1, 5, 10), ((0, 2, -1), (1, 2, -1)), 2)
        _patch_lines(monkeypatch, lambda lines: sorted(lines + (spurious,)))
        engine._plane_classes.cache_clear()
        assert run_census(q=25, k=4, h_cap=4) != _plain_report(25, 4, 4)

    def test_wrong_closed_form(self, monkeypatch):
        real = census._closed_form
        monkeypatch.setattr(
            census, "_closed_form", lambda k, w, h_cap: real(k, w + 1, h_cap)
        )
        for k in (3, 4):
            with pytest.raises(InvariantError, match="differ from its closed form"):
                run_census(q=14, k=k, h_cap=4)

    def test_first_collision_below_the_lowest_plane(self, monkeypatch):
        # (1, 2, 3) lies on d_1 + d_2 = d_3, of degree 2
        census._plane_shard((12, 4, 4, [], [((1, 2, 3), 9, 2)]))
        with pytest.raises(InvariantError, match="lowest relation plane has degree 3"):
            census._plane_shard((12, 4, 4, [], [((1, 2, 3), 9, 3)]))
        # the same wrong lowest degree, read from the directions
        _patch_lines(
            monkeypatch,
            lambda lines: (
                (u, planes, lowest + (u == (1, 2, 3))) for u, planes, lowest in lines
            ),
        )
        with pytest.raises(InvariantError, match="lowest relation plane has degree 3"):
            run_census(q=12, k=4, h_cap=4)

    def test_negative_remainder(self, monkeypatch):
        # a plane weight too large leaves fewer than 0 subsets capped, or
        # one-plane subsets on a plane with no one-plane point; one subset
        # too many on a plane fails the byte test; the class table passes
        # the progressions it walked on to the weight
        real = engine._plane_weight
        monkeypatch.setattr(
            engine,
            "_plane_weight",
            lambda r, q, *walk: real(r, q, *walk) + 495 * (r == (1, 1, -1)),
        )
        with pytest.raises(InvariantError, match="more than C"):
            run_census(q=12, k=4, h_cap=4)
        monkeypatch.setattr(engine, "_plane_weight", lambda r, q, *walk: 2 * real(r, q, *walk))
        engine._plane_classes.cache_clear()
        with pytest.raises(InvariantError, match=r"plane \(0, 3, -2\) has 42 subsets on no"):
            run_census(q=12, k=4, h_cap=4)
        monkeypatch.setattr(
            engine,
            "_plane_weight",
            lambda r, q, *walk: real(r, q, *walk) + (r in ((1, 1, -1), (2, -1))),
        )
        for k, q in ((3, 14), (4, 20)):
            engine._plane_classes.cache_clear()
            assert run_census(q=q, k=k, h_cap=4) != _plain_report(q, k, 4)


class TestLadderBoundForEveryK:
    """The deficit s steps past the first collision is at least M(s-1, k),
    which is the tetrahedral number only at k = 4."""

    def test_three_element_census_has_no_violations(self):
        report = run_census(q=14, k=3, h_cap=5)
        assert report.violation_count == 0
        _assert_same_report(report, plain_census(14, 3, 5))

    def test_three_element_cli_exits_0(self, capsys):
        assert cli.main(["census", "--q", "14", "--k", "3", "--h-cap", "5"]) == cli.EXIT_OK
        assert "0 violations" in capsys.readouterr().err


class TestViolationExpansion:
    """Violations found on a pattern are reported per explicit subset."""

    def test_raised_ladder_bound(self, monkeypatch):
        real = census.figurate_gap
        monkeypatch.setattr(census, "figurate_gap", lambda h, step, k: real(h, step, k) + 1)
        for k, q in ((3, 14), (4, 14), (5, 11)):
            report = run_census(q=q, k=k, h_cap=4, shards=3)
            assert report.ladder_violations
            assert report.rep_violations == report.support_violations == ()
            _assert_same_report(report, plain_census(q, k, 4))

    def test_rep_bound_of_one(self, monkeypatch):
        monkeypatch.setattr(census, "_rep_bound", lambda k: 1)
        for k, q in ((4, 14), (5, 11)):
            report = run_census(q=q, k=k, h_cap=4)
            assert report.rep_violations
            assert report.ladder_violations == report.support_violations == ()
            # every uncapped subset reports at least one violation
            assert len({v.elements for v in report.rep_violations}) == sum(
                report.bstar_counts.values()
            )
            _assert_same_report(report, plain_census(q, k, 4))


def _vanishing_deficit(monkeypatch):
    # a kernel that reads fold 3 as full lets every deficit found at fold 2 vanish
    real = census._fold_sizes

    def fold_3_full(elems, h):
        sizes = real(elems, h)
        if h >= 3:
            sizes[2] = multiset_count(3, len(elems))
        return sizes

    monkeypatch.setattr(census, "_fold_sizes", fold_3_full)


class TestInvariantError:
    def test_vanished_deficit_raises(self, monkeypatch):
        _vanishing_deficit(monkeypatch)
        with pytest.raises(InvariantError, match="vanished at fold 3"):
            run_census(q=12, k=4, h_cap=4)

    def test_cli_exits_4(self, monkeypatch, capsys):
        _vanishing_deficit(monkeypatch)
        assert cli.main(["census", "--q", "12", "--h-cap", "4"]) == cli.EXIT_INVARIANT == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal check failed" in captured.err
        assert "vanished at fold 3" in captured.err

    def test_crosses_a_worker_process(self, monkeypatch, capsys):
        # the patched kernel reaches the workers only when they are forked
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("worker processes are not forked")
        _vanishing_deficit(monkeypatch)
        with pytest.raises(InvariantError, match="vanished at fold 3"):
            run_census(q=14, k=4, h_cap=4, shards=2, workers=2)
        argv = ["census", "--q", "14", "--h-cap", "4", "--shards", "2", "--workers", "2"]
        assert cli.main(argv) == cli.EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "vanished at fold 3" in captured.err

    def test_is_not_a_lemma_violation(self):
        # a bug exits 4, apart from the exit 1 of a counted violation
        assert issubclass(InvariantError, RuntimeError)
        assert cli.EXIT_INVARIANT != cli.EXIT_VIOLATION


class TestBudget:
    def test_subset_budget_required(self, monkeypatch):
        monkeypatch.setenv("SUMSET_MAX_SUBSETS", "1000")
        with pytest.raises(BudgetExceededError) as excinfo:
            run_census(q=30, k=4, h_cap=3)
        assert excinfo.value.required == math.comb(30, 4)
        assert excinfo.value.limit == 1000

    def test_subset_budget_environment(self, monkeypatch):
        monkeypatch.setenv("SUMSET_MAX_SUBSETS", "100")
        with pytest.raises(BudgetExceededError):
            run_census(q=20, k=4, h_cap=3)
        monkeypatch.setenv("SUMSET_MAX_SUBSETS", str(math.comb(20, 4)))
        run_census(q=20, k=4, h_cap=2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            run_census(q=3, k=4)
        with pytest.raises(ValueError):
            run_census(q=10, k=1)
        with pytest.raises(ValueError):
            run_census(q=10, k=4, h_cap=0)
        with pytest.raises(ValueError):
            run_census(q=10, k=4, shards=0)


class TestDetectGaps:
    def test_synthetic_example(self):
        hist = SizeHistogram(5, {56: 1000, 55: 100, 54: 1, 53: 1, 52: 90})
        report = detect_gaps(hist, 5)
        assert report.ladder == (56, 55, 52, 46, 36)
        assert report.confirmed[:3] == (True, True, True)
        assert report.confirmed[3] is False and report.confirmed[4] is False
        assert report.inconclusive  # two rungs were never attained
        assert report.ratios[1] == 100.0
        assert report.strongly_confirmed[1] is True

    def test_empty_band_is_infinite_ratio(self):
        hist = SizeHistogram(2, {10: 50, 9: 20})
        report = detect_gaps(hist, 2)
        assert report.ladder == (10, 9)
        assert report.ratios == (None, None)
        assert report.confirmed == (True, True)
        assert report.inconclusive  # no sizes exist between adjacent rungs

    def test_gap_differences_are_triangular(self):
        for h in range(2, 9):
            hist = SizeHistogram(h, {multiset_count(h, 4): 1})
            report = detect_gaps(hist, h)
            assert report.gap_differences == tuple(
                (j + 1) * (j + 2) // 2 for j in range(h - 1)
            )
            assert report.ladder == tuple(
                multiset_count(h, 4) - tetrahedral(j) for j in range(h)
            )

    def test_rung_must_beat_both_adjacent_bands(self):
        counts = {20: 500, 19: 80, 18: 90, 17: 1, 16: 300}
        report = detect_gaps(SizeHistogram(3, counts), 3)
        # rung 19 loses to size 18 sitting in the gap below it
        assert report.ladder == (20, 19, 16)
        assert report.confirmed == (True, False, True)

    def test_mismatched_fold_rejected(self):
        with pytest.raises(ValueError):
            detect_gaps(SizeHistogram(3, {}), 4)


class TestCountPairSolutions:
    def test_worked_example_vectors(self):
        count = count_pair_solutions((2, 0, 0, 1), (0, 2, 1, 0), 12)
        assert count == 54 == pair_solution_count_4((2, 0, 0, 1), (0, 2, 1, 0), 12)
        # the worked example set solves this equation
        assert 2 * 1 + 10 == 2 * 2 + 8

    def test_slot_monotone_pair_is_empty(self):
        count = count_pair_solutions((1, 1, 0, 0), (0, 0, 1, 1), 15)
        assert count == 0 == pair_solution_count_4((1, 1, 0, 0), (0, 0, 1, 1), 15)

    def test_singleton_pair_restricted_is_empty(self):
        for h in (2, 3):
            assert count_pair_solutions(
                (h, 0, 0, 0), (0, h, 0, 0), 20, restrict_bstar=True
            ) == 0

    def test_restriction_filters_by_order(self):
        x, y = (2, 0, 0, 1), (0, 2, 1, 0)
        unrestricted = count_pair_solutions(x, y, 12)
        restricted = count_pair_solutions(x, y, 12, restrict_bstar=True)
        oracle = 0
        for elems in itertools.combinations(range(1, 13), 4):
            if sum(c * e for c, e in zip(x, elems)) != sum(
                c * e for c, e in zip(y, elems)
            ):
                continue
            if order_of(elems, 3)[0] == 2 and not order_of(elems, 3)[1]:
                oracle += 1
        assert restricted == oracle
        assert restricted <= unrestricted

    def test_preconditions(self):
        with pytest.raises(ValueError):
            count_pair_solutions((1, 1, 0, 0), (1, 1, 0, 0), 10)
        with pytest.raises(ValueError):
            count_pair_solutions((1, 1, 0, 0), (0, 1, 1, 1), 10)
        with pytest.raises(ValueError):
            count_pair_solutions((2, 0, 0, 1), (0, 2, 1), 10)
        with pytest.raises(ValueError):
            count_pair_solutions((2, 1, 0, 0), (2, 0, 1, 0), 10, restrict_bstar=True)

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("SUMSET_MAX_SUBSETS", "100")
        with pytest.raises(BudgetExceededError) as excinfo:
            count_pair_solutions((2, 0, 0, 1), (0, 2, 1, 0), 50)
        assert excinfo.value.required == math.comb(50, 4)

    def test_restricted_bitmap_budget(self, monkeypatch):
        # the restricted count folds windows of degree * (q - 1) + 1 bits;
        # C(843, 3) passes the subset budget, so the bitmap budget must
        # refuse 240,000 * 842 + 1 bits before any fold
        def no_fold(elems, h):
            raise AssertionError(f"folded {elems} past the bitmap budget")

        monkeypatch.setattr(census, "_fold_sizes", no_fold)
        x, y = (0, 240_000, 0), (120_000, 0, 120_000)
        with pytest.raises(BudgetExceededError) as excinfo:
            count_pair_solutions(x, y, 843, restrict_bstar=True)
        assert excinfo.value.required == 202_080_001
        argv = ["pairs", "--x", "0,240000,0", "--y", "120000,0,120000", "--q", "843"]
        assert cli.main(argv + ["--restrict-bstar"]) == cli.EXIT_BUDGET == 3

    @pytest.mark.parametrize(
        "x,y",
        [
            ((2, 0, 0, 1), (0, 2, 1, 0)),
            ((1, 0, 0, 1), (0, 1, 1, 0)),
            ((0, 0, 3, 0), (1, 1, 0, 1)),
            ((1, 0, 2, 0), (0, 3, 0, 0)),
        ],
    )
    @pytest.mark.parametrize("q", [4, 9, 13, 18])
    def test_translation_reduction_matches_literal_loops(self, x, y, q):
        assert count_pair_solutions(x, y, q) == pair_solution_count_4(x, y, q)
        degree = sum(x)
        restricted = sum(
            1
            for elems in itertools.combinations(range(1, q + 1), 4)
            if sum(c * e for c, e in zip(x, elems)) == sum(c * e for c, e in zip(y, elems))
            and order_of(elems, degree) == (degree - 1, False)
        )
        assert count_pair_solutions(x, y, q, restrict_bstar=True) == restricted


    @pytest.mark.parametrize("restrict_bstar", [False, True])
    @pytest.mark.parametrize(
        "x,y,q",
        [
            ((2, 0, 0, 1), (0, 2, 1, 0), 40),
            ((1, 0, 0, 2), (0, 3, 0, 0), 35),
            ((0, 2, 0, 1), (1, 0, 2, 0), 30),
            ((0, 3, 0, 0), (1, 0, 1, 1), 30),
            ((1, 1, 0, 0), (0, 0, 1, 1), 20),
            ((2, 0, 0, 0, 1), (0, 1, 2, 0, 0), 22),
            ((0, 1, 0, 2, 0), (1, 0, 1, 0, 1), 20),
            ((1, 0, 0, 1, 0), (0, 0, 2, 0, 0), 18),
            ((0, 3, 0, 0, 0), (1, 0, 0, 1, 1), 18),
        ],
    )
    def test_plane_walk_matches_pattern_count(self, x, y, q, restrict_bstar):
        if restrict_bstar and any(a and b for a, b in zip(x, y)):
            return
        count = count_pair_solutions(x, y, q, restrict_bstar=restrict_bstar)
        assert count == plain_pair_count(x, y, q, restrict_bstar=restrict_bstar)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_plane_weight_matches_pattern_count(self, data):
        # unrestricted, the count is the plane's closed-form weight
        k = data.draw(st.sampled_from([3, 4, 5]), label="k")
        comps = compositions_table(data.draw(st.integers(2, 4), label="degree"), k)
        x = data.draw(st.sampled_from(comps), label="x")
        y = data.draw(st.sampled_from(comps).filter(lambda y: y != x), label="y")
        q = data.draw(st.integers(k, 24), label="q")
        assert count_pair_solutions(x, y, q) == plain_pair_count(x, y, q)


class TestBStarCrossCheck:
    def test_order_one_count_equals_pair_equation_union(self):
        q = 12
        report = run_census(q=q, k=4, h_cap=2)
        comps = compositions_table(2, 4)
        nontrivial_pairs = [
            (x, y)
            for i, x in enumerate(comps)
            for y in comps[i + 1 :]
            if sum(a * b for a, b in zip(x, y)) == 0
            and not (max(x) == 2 and max(y) == 2)
        ]
        assert len(nontrivial_pairs) == 15
        union = set()
        for elems in itertools.combinations(range(1, q + 1), 4):
            for x, y in nontrivial_pairs:
                if sum(c * e for c, e in zip(x, elems)) == sum(
                    c * e for c, e in zip(y, elems)
                ):
                    union.add(elems)
                    break
        # ground truth: direct classification of every subset
        direct = sum(
            1
            for elems in itertools.combinations(range(1, q + 1), 4)
            if order_of(elems, 2) == (1, False)
        )
        assert report.bstar_counts[1] == direct == len(union)


class TestReportSerialization:
    def test_json_schema_and_determinism(self, small_census):
        text = small_census.to_json()
        assert text == run_census(q=12, k=4, h_cap=4).to_json()
        payload = json.loads(text)
        assert list(payload) == [
            "q",
            "k",
            "h_cap",
            "histograms",
            "bstar_counts",
            "exceptional_counts",
            "capped",
            "gaps",
        ]
        assert payload["q"] == 12 and payload["k"] == 4 and payload["h_cap"] == 4
        assert set(payload["histograms"]) == {"1", "2", "3", "4"}
        assert sum(payload["histograms"]["2"].values()) == math.comb(12, 4)
        assert set(payload["bstar_counts"]) == {"1", "2", "3"}
        for h, gap in payload["gaps"].items():
            assert set(gap) == {"ladder", "confirmed", "ratios"}
            assert len(gap["ladder"]) == int(h)

    def test_csv_format(self, small_census):
        lines = small_census.histograms_csv().splitlines()
        assert lines[0] == "h,size,count"
        rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
        assert rows == sorted(rows, key=lambda r: (r[0], -r[1]))
        total_by_h = {}
        for h, _, count in rows:
            total_by_h[h] = total_by_h.get(h, 0) + count
        assert total_by_h == {h: math.comb(12, 4) for h in range(1, 5)}
