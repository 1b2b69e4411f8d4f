"""Acceptance gate: ten checks, one printed pass/fail line each.

The heavyweight censuses (q = 40 and q = 60) are shared session fixtures so
the whole gate costs two sweeps, not six.  Every check goes through the
public API only.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import pytest

from sumset_census import (
    FamilyParams,
    family_size,
    generate_family,
    profile_fast,
    profile_naive,
    run_census,
    sumset_sizes,
    verify_ddp,
    verify_member,
    verify_paircount,
)

from oracles import family_enumeration


@pytest.fixture(scope="session")
def emit(request):
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def _emit(line: str) -> None:
        if manager is not None:
            with manager.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    return _emit


@contextmanager
def criterion(emit, num: int, desc: str):
    try:
        yield
    except BaseException:
        emit(f"criterion {num:02d} FAIL {desc}")
        raise
    else:
        emit(f"criterion {num:02d} PASS {desc}")


@pytest.fixture(scope="session")
def q40_census():
    started = time.perf_counter()
    report = run_census(q=40, k=4, h_cap=6)
    return report, time.perf_counter() - started


@pytest.fixture(scope="session")
def q60_census():
    started = time.perf_counter()
    report = run_census(q=60, k=4, h_cap=5)
    return report, time.perf_counter() - started


def test_criterion_01_pair_count_closed_form(emit):
    with criterion(emit, 1, "disjoint-support pair census matches 5h^2+1 / 5h^2-5 for h=1..12"):
        verdict = verify_paircount(12)
        assert verdict.passed
        assert verdict.instances == 12
        assert verdict.elapsed_s < 1.0


def test_criterion_02_worked_example(emit):
    with criterion(emit, 2, "{1,2,8,10}: full at fold 2, size 19 at fold 3, one collision at 12"):
        elems = (1, 2, 8, 10)
        two = profile_naive(elems, 2)
        assert two.size == 10 and two.deficit == 0 and two.collisions == ()
        three = profile_naive(elems, 3)
        assert three.size == 19 and three.deficit == 1
        assert len(three.collisions) == 1
        hit = three.collisions[0]
        assert hit.n == 12
        assert set(hit.vectors) == {(2, 0, 0, 1), (0, 2, 1, 0)}


def test_criterion_03_deficit_ladder_sweep(emit, q40_census):
    with criterion(emit, 3, "q=40 census: every deficit >= its tetrahedral bound, zero violations"):
        report, elapsed = q40_census
        assert report.total_subsets == math.comb(40, 4) == 91390
        assert report.ladder_violations == ()
        assert sum(report.bstar_counts.values()) + report.capped == 91390
        assert elapsed < 300.0


def test_criterion_04_representation_bound(emit, q40_census):
    with criterion(emit, 4, "max representations at first colliding fold: 2 for k=4, 3 for k=5"):
        report, _ = q40_census
        assert report.rep_violations == ()
        # bound attained exactly: every classified set peaks at 2 reps
        for profile in report.rep_profiles.values():
            assert set(profile) == {2}
        assert sum(
            count for profile in report.rep_profiles.values() for count in profile.values()
        ) == sum(report.bstar_counts.values())
        five = run_census(q=20, k=5, h_cap=4)
        assert five.rep_violations == ()
        reps_seen = {
            r for profile in five.rep_profiles.values() for r in profile
        }
        assert reps_seen <= {2, 3} and 2 in reps_seen


def test_criterion_05_disjoint_support(emit, q40_census):
    with criterion(emit, 5, "q=40 census: colliding pairs at the first colliding fold are support-disjoint"):
        report, _ = q40_census
        assert report.support_violations == ()


def test_criterion_06_dot_product_interval(emit):
    with criterion(emit, 6, "q=30, h=2..4: every s in [5h..hq] realized by recipe and enumeration"):
        for h in (2, 3, 4):
            verdict, dot_range = verify_ddp(30, h)
            assert verdict.passed
            assert dot_range.min_achievable == h + 1
            assert dot_range.max_achievable == (h + 1) * 30
            assert dot_range.max_achievable <= 4 * (h + 1) * 30
            assert all(s in dot_range.achievable for s in range(5 * h, 30 * h + 1))


def test_criterion_07_family_verification(emit):
    with criterion(emit, 7, "family counts match enumeration; sampled members show the exact claimed structure"):
        params = FamilyParams(2, 8000)
        assert family_size(params) == len(family_enumeration(2, 8000)) == 1215
        members = list(generate_family(params, limit=500, seed=20260815))
        assert len(members) == 500
        for m in members:
            v = verify_member(m, 2)
            assert v.passed and v.deficits == (1,)
        params3 = FamilyParams(3, 27000)
        assert family_size(params3) == len(family_enumeration(3, 27000)) == 5962
        members3 = list(generate_family(params3, limit=200, seed=20260815))
        assert len(members3) == 200
        for m in members3:
            v = verify_member(m, 3, max_step=2)
            assert v.passed and v.deficits == (1, 4)


def test_criterion_08_triangular_gap_histogram(emit, q60_census):
    with criterion(emit, 8, "q=60, fold 5: ladder sizes 56,55,52,46 dominate their gaps; drops 1,3,6,10"):
        report, elapsed = q60_census
        assert elapsed < 600.0
        counts = report.histograms[5].counts
        gap = report.gaps[5]
        assert gap.ladder == (56, 55, 52, 46, 36)
        assert gap.gap_differences == (1, 3, 6, 10)
        # count(56) is the global maximum over the whole fold-5 histogram
        assert counts[56] == max(counts.values())
        # each named rung strictly beats every intermediate size next to it
        for rung, band in [
            (56, []),
            (55, [54, 53]),
            (52, [54, 53, 51, 50, 49, 48, 47]),
            (46, [51, 50, 49, 48, 47]),
        ]:
            assert all(counts[rung] > counts.get(s, 0) for s in band)
        assert gap.confirmed[:4] == (True, True, True, True)
        assert report.violation_count == 0


def test_criterion_09_oracle_equivalence(emit):
    desc = (
        "fast kernel equals enumeration on 1000 random sets, q<=200, "
        "and 200 wide ones, q<=10^6, folds<=6"
    )
    with criterion(emit, 9, desc):
        rng = random.Random(20260815)
        # narrow draws fold as bitmaps, wide ones mostly as sets of sums
        draws = [(1000, 10, 200), (200, 10**4, 10**6)]
        for count, q_min, q_max in draws:
            for _ in range(count):
                q = rng.randint(q_min, q_max)
                k = rng.randint(2, 5)
                elems = tuple(sorted(rng.sample(range(1, q + 1), k)))
                h = rng.randint(1, 6)
                size, deficit = profile_fast(elems, h)
                naive = profile_naive(elems, h)
                assert size == naive.size
                assert deficit == naive.deficit
                assert sumset_sizes(elems, h)[h - 1] == naive.size


def test_criterion_10_determinism(emit):
    with criterion(emit, 10, "shard count never changes report bytes; seeded sampling reproduces"):
        reports = [run_census(q=25, k=4, h_cap=5, shards=s) for s in (1, 4, 16)]
        for other in reports[1:]:
            assert other.to_json() == reports[0].to_json()
            assert other.histograms_csv() == reports[0].histograms_csv()
        params = FamilyParams(2, 16000)
        first = [m.elements for m in generate_family(params, limit=25, seed=11)]
        second = [m.elements for m in generate_family(params, limit=25, seed=11)]
        assert first == second
        assert verify_ddp(10, 2)[0].to_json() == verify_ddp(10, 2)[0].to_json()
