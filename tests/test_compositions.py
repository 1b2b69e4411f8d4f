import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_census import (
    BudgetExceededError,
    disjoint_support_pairs,
    enumerate_compositions,
    figurate_gap,
    multiset_count,
    tetrahedral,
)

from oracles import composition_count, disjoint_pair_scan


@pytest.mark.parametrize(
    "h,k,expected",
    [(2, 4, 10), (3, 4, 20), (5, 4, 56), (0, 4, 1), (0, 9, 1), (12, 4, 455), (1, 7, 7)],
)
def test_multiset_count_values(h, k, expected):
    assert multiset_count(h, k) == expected


@given(st.integers(0, 40), st.integers(1, 8))
def test_multiset_count_matches_pascal_recursion(h, k):
    assert multiset_count(h, k) == composition_count(h, k)


@given(st.integers(1, 40), st.integers(2, 8))
def test_multiset_count_pascal_recurrence(h, k):
    assert multiset_count(h, k) == multiset_count(h - 1, k) + multiset_count(h, k - 1)


@pytest.mark.parametrize("bad", [(-1, 4), (2, 0), (3, -2)])
def test_multiset_count_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        multiset_count(*bad)


def test_tetrahedral_values():
    assert [tetrahedral(n) for n in range(6)] == [0, 1, 4, 10, 20, 35]
    with pytest.raises(ValueError):
        tetrahedral(-1)


@given(st.integers(0, 200))
def test_tetrahedral_differences_are_triangular(n):
    assert tetrahedral(n + 1) - tetrahedral(n) == (n + 1) * (n + 2) // 2


@given(st.integers(1, 30), st.integers(1, 30), st.integers(2, 8))
def test_figurate_gap_is_lower_order_count(h, step, k):
    assert figurate_gap(h, step, k) == multiset_count(step - 1, k)


@given(st.integers(1, 30), st.integers(1, 30))
def test_figurate_gap_k4_is_tetrahedral(h, step):
    assert figurate_gap(h, step, 4) == tetrahedral(step)


def test_figurate_gap_step_one_is_single_collision():
    for k in range(2, 7):
        assert figurate_gap(3, 1, k) == 1


def test_enumerate_compositions_examples():
    assert list(enumerate_compositions(1, 4)) == [
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
    ]
    assert list(enumerate_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(enumerate_compositions(0, 3)) == [(0, 0, 0)]


@given(st.integers(0, 9), st.integers(1, 5))
def test_enumerate_compositions_contract(h, k):
    comps = list(enumerate_compositions(h, k))
    assert len(comps) == composition_count(h, k)
    assert comps == sorted(comps)
    assert len(set(comps)) == len(comps)
    assert all(len(x) == k and sum(x) == h and min(x) >= 0 for x in comps)


@pytest.mark.parametrize("h,total,nontrivial", [(1, 6, 0), (2, 21, 15), (3, 46, 40), (4, 81, 75)])
def test_disjoint_support_pairs_small(h, total, nontrivial):
    census = disjoint_support_pairs(h, 4)
    assert census.total_disjoint_pairs == total
    assert census.nontrivial_pairs == nontrivial


def test_disjoint_support_pairs_closed_form_k4():
    for h in range(1, 13):
        census = disjoint_support_pairs(h, 4)
        assert census.total_disjoint_pairs == 5 * h * h + 1
        assert census.nontrivial_pairs == 5 * h * h - 5


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("h", range(1, 9))
def test_disjoint_support_pairs_match_pairwise_scan(h, k):
    census = disjoint_support_pairs(h, k)
    assert (census.total_disjoint_pairs, census.nontrivial_pairs) == disjoint_pair_scan(h, k)


@given(st.integers(1, 8), st.integers(2, 5))
@settings(max_examples=40)
def test_disjoint_pairs_drop_exactly_both_singleton_pairs(h, k):
    census = disjoint_support_pairs(h, k)
    assert census.total_disjoint_pairs - census.nontrivial_pairs == math.comb(k, 2)


def test_disjoint_support_pairs_budget_guard(monkeypatch):
    monkeypatch.setenv("SUMSET_MAX_COMPOSITIONS", "10")
    with pytest.raises(BudgetExceededError) as excinfo:
        disjoint_support_pairs(12, 4)
    assert excinfo.value.required == 455


def test_disjoint_support_pairs_rejects_degenerate():
    with pytest.raises(ValueError):
        disjoint_support_pairs(0, 4)
    with pytest.raises(ValueError):
        disjoint_support_pairs(2, 1)
