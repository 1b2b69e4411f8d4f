import functools
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_census import (
    BudgetExceededError,
    Collision,
    SetVector,
    classify,
    figurate_gap,
    multiset_count,
    profile_fast,
    profile_naive,
    sumset_sizes,
)
from sumset_census import engine
from sumset_census.engine import first_deficit
from sumset_census.guards import DEFAULT_MAX_BITMAP_BITS, InvariantError

from oracles import (
    composition_count,
    folded_sizes,
    order_of,
    plain_relation_lines,
    plane_has_point,
    representation_counter,
)


@st.composite
def small_sets(draw, min_k=2, max_k=5, max_q=60):
    k = draw(st.integers(min_k, max_k))
    q = draw(st.integers(k, max_q))
    elems = draw(st.sets(st.integers(1, q), min_size=k, max_size=k))
    return tuple(sorted(elems))


@st.composite
def wide_sets(draw, max_span=10**6):
    """k = 2..5 sets spread over up to max_span, placed anywhere: either
    random elements, which rarely collide, or a small set dilated by a large
    factor, which keeps the small set's collisions."""
    lo = draw(st.integers(1, 10**6))
    if draw(st.booleans()):
        k = draw(st.integers(2, 5))
        span = draw(st.integers(k, max_span))
        interior = draw(st.sets(st.integers(1, span - 1), min_size=k - 2, max_size=k - 2))
        offsets = {0, span} | interior
    else:
        small = draw(small_sets(max_q=30))
        scale = draw(st.integers(1, max_span // (small[-1] - small[0])))
        offsets = {scale * (e - small[0]) for e in small}
    return tuple(sorted(lo + o for o in offsets))


class TestSetVector:
    def test_valid(self):
        vec = SetVector((1, 2, 8, 10), 12)
        assert vec.elements == (1, 2, 8, 10)

    def test_from_values_sorts_and_defaults_q(self):
        vec = SetVector.from_values([10, 1, 8, 2])
        assert vec.elements == (1, 2, 8, 10)
        assert vec.q == 10

    @pytest.mark.parametrize(
        "elements,q",
        [
            ((5,), 10),           # fewer than two elements
            ((), 10),
            ((2, 2, 3, 4), 10),   # repeat
            ((3, 2), 10),         # not increasing
            ((0, 1, 2, 3), 10),   # below 1
            ((1, 2, 3, 11), 10),  # above q
        ],
    )
    def test_rejects_degenerate(self, elements, q):
        with pytest.raises(ValueError):
            SetVector(elements, q)

    def test_from_values_rejects_repeats(self):
        with pytest.raises(ValueError):
            SetVector.from_values([1, 1, 2, 3])


class TestElementsOf:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: profile_naive((1, 2.5), 2),
            lambda: sumset_sizes((1, 2.5), 2),
            lambda: classify((1, 2.5, 7)),
            lambda: SetVector((1, 2.5, 7), 10),
            lambda: SetVector((1, "2"), 10),
        ],
    )
    def test_non_integer_element_is_refused(self, call):
        with pytest.raises(ValueError, match="elements must be integers"):
            call()


class TestProfileNaive:
    def test_worked_example_order_two(self):
        profile = profile_naive((1, 2, 8, 10), 2)
        assert profile.size == 10 == multiset_count(2, 4)
        assert profile.deficit == 0
        assert profile.max_reps == 1
        assert profile.collisions == ()

    def test_worked_example_order_three(self):
        profile = profile_naive((1, 2, 8, 10), 3)
        assert profile.size == 19
        assert profile.deficit == 1
        assert profile.max_reps == 2
        assert profile.collisions == (
            Collision(12, ((0, 2, 1, 0), (2, 0, 0, 1))),
        )

    def test_arithmetic_progression(self):
        assert profile_naive((1, 2, 3, 4), 2).size == 7
        assert profile_naive((1, 2, 3, 4), 5).size == 16

    def test_singleton_set(self):
        profile = profile_naive((5,), 3)
        assert profile.size == 1
        assert profile.deficit == 0

    def test_spread_member(self):
        profile = profile_naive((1, 6, 16, 7921), 3)
        assert profile.size == 19
        assert profile.collisions == (
            Collision(18, ((0, 3, 0, 0), (2, 0, 1, 0))),
        )

    def test_accepts_set_vector_and_unsorted(self):
        assert profile_naive(SetVector((1, 2, 8, 10), 10), 3).size == 19
        assert profile_naive([10, 8, 2, 1], 3).size == 19

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            profile_naive((1, 2, 8, 10), 0)
        with pytest.raises(ValueError):
            profile_naive((1, 1, 2), 2)
        with pytest.raises(ValueError):
            profile_naive((), 2)

    def test_composition_budget(self, monkeypatch):
        monkeypatch.setenv("SUMSET_MAX_COMPOSITIONS", "10")
        with pytest.raises(BudgetExceededError) as excinfo:
            profile_naive((1, 2, 8, 10), 5)
        assert excinfo.value.required == multiset_count(5, 4)

    @given(small_sets(), st.integers(1, 4))
    @settings(max_examples=80)
    def test_size_identity(self, elems, h):
        profile = profile_naive(elems, h)
        lost = sum(len(c.vectors) - 1 for c in profile.collisions)
        assert profile.size + lost == multiset_count(h, len(elems))
        assert profile.deficit == lost

    @given(small_sets(max_k=4, max_q=40), st.integers(1, 4))
    @settings(max_examples=60)
    def test_multiplicities_match_multiset_oracle(self, elems, h):
        oracle = representation_counter(elems, h)
        profile = profile_naive(elems, h)
        assert profile.size == len(oracle)
        assert profile.max_reps == max(oracle.values())
        assert {c.n: len(c.vectors) for c in profile.collisions} == {
            n: r for n, r in oracle.items() if r >= 2
        }


class TestFastKernel:
    def test_sizes_match_example(self):
        assert sumset_sizes((1, 2, 8, 10), 3) == [4, 10, 19]
        assert profile_fast((1, 6, 16, 7921), 3) == (19, 1)

    @given(small_sets(), st.integers(1, 5))
    @settings(max_examples=80)
    def test_sizes_match_set_folding_oracle(self, elems, h):
        assert sumset_sizes(elems, h) == folded_sizes(elems, h)

    @given(small_sets(max_q=40), st.integers(1, 4))
    @settings(max_examples=60)
    def test_fast_agrees_with_naive(self, elems, h):
        sizes = sumset_sizes(elems, h)
        for i in range(1, h + 1):
            assert sizes[i - 1] == profile_naive(elems, i).size

    def test_memory_guard(self):
        # a 2*10^9-bit window: over the fixed cap, whichever fold would run
        with pytest.raises(BudgetExceededError) as excinfo:
            sumset_sizes((1, 10 ** 9), 2)
        assert excinfo.value.required == 2 * (10 ** 9 - 1) + 1
        assert excinfo.value.limit == DEFAULT_MAX_BITMAP_BITS

    @given(wide_sets(), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_wide_sizes_match_enumeration(self, elems, h):
        sizes = sumset_sizes(elems, h)
        assert sizes == [profile_naive(elems, i).size for i in range(1, h + 1)]

    @pytest.mark.parametrize("k,h", [(2, 6), (3, 4), (3, 8), (4, 3), (4, 5), (4, 8), (5, 4)])
    def test_representations_agree_at_the_crossover(self, monkeypatch, k, h):
        # widths h*span + 1 at most at and just past the crossover, with random
        # and with progression-like (colliding) interiors
        width = engine._set_fold_work(k, h)
        below = (width - 1) // h
        rng = random.Random(k * 100 + h)
        called = []

        def spy(name):
            real = getattr(engine, name)

            def kernel(e, i):
                called.append(name)
                return real(e, i)

            return kernel

        for name in ("_fold_sizes", "_fold_sums"):
            monkeypatch.setattr(engine, name, spy(name))
        for span, kernel in ((below, "_fold_sizes"), (below + 1, "_fold_sums")):
            step = span // (k - 1)
            for offsets in (
                {0, span} | set(rng.sample(range(1, span), k - 2)),
                {0, span} | {step * j for j in range(1, k - 1)},
            ):
                elems = tuple(sorted(7 + o for o in offsets))
                called.clear()
                expected = [profile_naive(elems, i).size for i in range(1, h + 1)]
                assert sumset_sizes(elems, h) == expected
                assert called == [kernel]
                assert engine._fold_sizes(elems, h) == engine._fold_sums(elems, h) == expected


class TestClassify:
    def test_worked_example(self):
        result = classify((1, 2, 8, 10), 8)
        assert result.h_star == 2
        assert not result.capped
        assert result.first_collision == Collision(12, ((0, 2, 1, 0), (2, 0, 0, 1)))

    def test_spread_member(self):
        result = classify((1, 6, 16, 7921), 6)
        assert (result.h_star, result.capped) == (2, False)

    def test_progression_collides_at_two(self):
        result = classify((1, 2, 3, 4), 6)
        assert result.h_star == 1
        assert result.first_collision.n == 4

    def test_capped(self):
        result = classify((1, 10, 100, 1000), 3)
        assert result.h_star == 3
        assert result.capped
        assert result.first_collision is None

    def test_h_star_at_least_one(self):
        # |1A| = k always, so no set can collide at order 1
        result = classify((3, 7), 1)
        assert result.h_star == 1 and result.capped

    @given(small_sets(max_q=50), st.integers(2, 5))
    @settings(max_examples=60)
    def test_deficits_persist(self, elems, h_cap):
        sizes = sumset_sizes(elems, h_cap)
        deficient = [
            sizes[i - 1] < multiset_count(i, len(elems)) for i in range(1, h_cap + 1)
        ]
        if True in deficient:
            first = deficient.index(True)
            assert all(deficient[first:])
        classify(elems, h_cap)  # must never raise the persistence error

    @pytest.mark.parametrize("elems,fold", [((1, 2, 3, 4), 3), ((1, 2, 8, 10), 4)])
    def test_vanished_deficit_is_an_invariant_error(self, monkeypatch, elems, fold):
        # a kernel that reads the fold after the first deficit as full
        real = engine._fold_sizes

        def full_at_fold(e, h):
            sizes = real(e, h)
            sizes[fold - 1] = multiset_count(fold, len(e))
            return sizes

        monkeypatch.setattr(engine, "_fold_sizes", full_at_fold)
        with pytest.raises(InvariantError, match=f"vanished at fold {fold}"):
            classify(elems, 4)


class TestFirstDeficit:
    @given(small_sets(max_q=40), st.integers(1, 5))
    @settings(max_examples=80)
    def test_matches_order_oracle(self, elems, h):
        h_star, capped = order_of(elems, h)
        assert first_deficit(elems, sumset_sizes(elems, h)) == (0 if capped else h_star + 1)


def _ladder(elems, h_star, max_step):
    """(step, deficit, bound, tight) for folds h_star + 1 .. h_star + max_step,
    after checking that h_star is the order sumset_sizes and first_deficit read."""
    k = len(elems)
    sizes = sumset_sizes(elems, h_star + max_step)
    assert first_deficit(elems, sizes) == h_star + 1
    rows = []
    for step in range(1, max_step + 1):
        fold = h_star + step
        deficit = multiset_count(fold, k) - sizes[fold - 1]
        bound = figurate_gap(h_star, step, k)
        rows.append((step, deficit, bound, deficit == bound))
    return rows


class TestGapBoundCheck:
    """s steps past the first collision, a k-set loses at least M(s - 1, k)
    sums; checked on worked examples and on random sets beyond the census
    sweeps."""

    def test_worked_example(self):
        assert _ladder((1, 2, 8, 10), 2, 3) == [
            (1, 1, 1, True),
            (2, 5, 4, False),
            (3, 15, 10, False),
        ]

    def test_family_member_is_tight_at_step_one(self):
        assert _ladder((1, 6, 16, 7921), 2, 1) == [(1, 1, 1, True)]

    def test_three_elements_read_the_k3_ladder(self):
        # |iA| = 2i + 1 for the progression, so every deficit equals M(s-1, 3)
        assert _ladder((1, 2, 3), 1, 4) == [
            (s, figurate_gap(1, s, 3), figurate_gap(1, s, 3), True) for s in range(1, 5)
        ]

    @given(
        st.sampled_from([3, 5]).flatmap(lambda k: small_sets(min_k=k, max_k=k, max_q=50)),
        st.integers(1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_k_against_order_oracle(self, elems, max_step):
        k = len(elems)
        h_star, capped = order_of(elems, 5)
        if capped:
            return
        rows = _ladder(elems, h_star, max_step)
        assert [row[0] for row in rows] == list(range(1, max_step + 1))
        for step, deficit, bound, _ in rows:
            fold = h_star + step
            assert deficit == composition_count(fold, k) - len(representation_counter(elems, fold))
            assert deficit >= bound

    @given(small_sets(min_k=4, max_k=4, max_q=60), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_never_violates_on_true_order(self, elems, max_step):
        result = classify(elems, 6)
        if result.capped or result.h_star > 4:
            return
        for step, deficit, bound, _ in _ladder(elems, result.h_star, max_step):
            fold = result.h_star + step
            assert deficit == composition_count(fold, 4) - len(representation_counter(elems, fold))
            assert deficit >= bound, f"figurate bound failed for {elems} at step {step}"


@functools.cache
def _walk_candidates(q, k, h):
    """Gap vectors the plane walk yields for order h at (q, k), as a set."""
    return {
        point
        for r in engine._relation_planes(k, h + 1)
        for point in engine._plane_points(r, q)
    }


class TestRelationPlanes:
    @pytest.mark.parametrize("w,count", [(3, 40), (4, 60), (5, 120)])
    def test_four_element_plane_counts(self, w, count):
        planes = engine._relation_planes(4, w)
        assert len(planes) == len(set(planes)) == count
        for r in planes:
            relation = (-sum(r),) + r
            assert sum(v for v in relation if v > 0) == w
            assert math.gcd(*r) == 1
            assert next(c for c in r if c) > 0

    @pytest.mark.parametrize("k,w_max,q", [(3, 6, 60), (4, 6, 60), (5, 5, 30)])
    def test_ordered_planes_are_those_with_a_point(self, k, w_max, q):
        # the suffix-sum rule against a search, on every plane: at these q
        # an ordered plane already has a point
        planes = [r for w in range(2, w_max + 1) for r in engine._relation_planes(k, w)]
        assert [engine._ordered(r) for r in planes] == [plane_has_point(r, q) for r in planes]
        assert any(engine._ordered(r) for r in planes)
        assert not all(engine._ordered(r) for r in planes if min(r) < 0 < max(r))

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(any),
        st.integers(1, 16),
    )
    @settings(max_examples=200)
    def test_points_are_the_plane_in_lexicographic_order(self, r, q):
        expected = [
            d
            for d in itertools.combinations(range(1, q), len(r))
            if sum(c * e for c, e in zip(r, d)) == 0
        ]
        assert list(engine._plane_points(tuple(r), q)) == expected

    @given(
        st.sampled_from([3, 4, 5]).flatmap(
            lambda k: small_sets(min_k=k, max_k=k, max_q=6 * k)
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_every_set_of_exact_order_is_a_candidate(self, elems):
        h_star, capped = order_of(elems, 5)
        if capped or h_star > 4:
            return
        gaps = tuple(e - elems[0] for e in elems[1:])
        assert gaps in _walk_candidates(6 * len(elems), len(elems), h_star)

    @given(
        st.sampled_from([3, 4, 5]), st.integers(1, 4), st.integers(6, 14), st.data()
    )
    @settings(max_examples=60, deadline=None)
    def test_every_candidate_collides_by_the_plane_degree(self, k, h, q, data):
        candidates = sorted(_walk_candidates(q, k, h))
        if not candidates:
            return
        gaps = data.draw(st.sampled_from(candidates))
        elems = (1,) + tuple(1 + d for d in gaps)
        assert len(representation_counter(elems, h + 1)) < composition_count(h + 1, k)


@functools.cache
def _plane_hits(q, k, h_cap):
    """The relation planes of degree 2..h_cap through each gap vector below
    q, found by walking every plane."""
    hits = {}
    for w in range(2, h_cap + 1):
        for r in engine._relation_planes(k, w):
            for d in engine._plane_points(r, q):
                hits.setdefault(d, []).append(r)
    return hits


class TestRelationLines:
    @pytest.mark.parametrize("h_cap,count", [(5, 663), (8, 8419)])
    def test_direction_counts(self, h_cap, count):
        lines = engine._relation_lines(h_cap)
        directions = [u for u, _, _ in lines]
        assert len(directions) == len(set(directions)) == count
        assert directions == sorted(directions)
        degree = {r: w for w in range(2, h_cap + 1) for r in engine._relation_planes(4, w)}
        for u, planes, lowest in lines:
            assert 0 < u[0] < u[1] < u[2] <= h_cap * h_cap
            assert math.gcd(*u) == 1
            assert len(planes) >= 2
            assert all(sum(c * e for c, e in zip(r, u)) == 0 for r in planes)
            assert lowest == min(degree[r] for r in planes)

    @pytest.mark.parametrize("q,h_cap", [(60, 5), (40, 8)])
    def test_line_points_are_the_points_on_two_or_more_planes(self, q, h_cap):
        # the dilates of the directions, and the planes through each, against
        # the planes through each point found by walking every plane
        on_planes = _plane_hits(q, 4, h_cap)
        points = {}
        for u, planes, lowest in engine._relation_lines(h_cap):
            for t in range(1, (q - 1) // u[2] + 1):
                points[tuple(t * c for c in u)] = set(planes)
        assert points == {d: set(rs) for d, rs in on_planes.items() if len(rs) >= 2}

    @pytest.mark.parametrize("h_cap", range(2, 10))
    def test_slices_match_the_all_pairs_crossing(self, h_cap):
        # the union of the slices low..h_cap holds the directions of the
        # one-pass crossing that lie on a plane of degree >= low, each with
        # all its planes of degree <= h_cap and their lowest degree
        degree = {r: w for w in range(2, h_cap + 1) for r in engine._relation_planes(4, w)}
        plain = plain_relation_lines(h_cap)
        for low in range(2, h_cap + 1):
            expected = {
                u: (set(planes), lowest)
                for u, planes, lowest in plain
                if max(degree[r] for r in planes) >= low
            }
            lines = engine._relation_lines(h_cap, low)
            assert [u for u, _, _ in lines] == sorted(expected)
            assert {u: (set(planes), lowest) for u, planes, lowest in lines} == expected

    @pytest.mark.parametrize("q,h_cap", [(12, 3), (30, 5), (41, 6), (25, 8)])
    @pytest.mark.parametrize("k", [3, 4])
    def test_tables_by_degree_are_the_full_table_filtered(self, q, k, h_cap):
        planes, lines = engine._plane_classes(q, k, h_cap)
        for low in range(2, h_cap + 1):
            assert engine._plane_classes(q, k, h_cap, low) == (
                tuple(c for c in planes if c[1] >= low),
                tuple(c for c in lines if c[2] >= low),
            )

    @pytest.mark.parametrize("k", [2, 3])
    def test_no_lines_below_four_elements(self, k):
        assert engine._plane_classes(40, k, 6)[1] == ()
        assert max(map(len, _plane_hits(40, k, 6).values()), default=1) == 1

    def test_dilates_share_sizes_and_collisions(self):
        # h(tA) = t*hA: a dilate t*u has u's sizes and, at its first
        # colliding fold, the same colliding composition indices
        for u, _, lowest in engine._relation_lines(6):
            pattern = (0,) + u
            sizes = engine._fold_sizes(pattern, 6)
            _, groups = engine._collision_scan(pattern, lowest)
            for t in range(2, 89 // u[2] + 1):
                dilate = tuple(t * c for c in pattern)
                assert engine._fold_sizes(dilate, 6) == sizes
                _, dilated = engine._collision_scan(dilate, lowest)
                assert dilated == {t * n: idxs for n, idxs in groups.items()}


class TestPlaneWeights:
    @given(
        st.sampled_from([3, 4, 5]).flatmap(
            lambda k: st.lists(st.integers(-5, 5), min_size=k - 1, max_size=k - 1).filter(any)
        ),
        st.integers(1, 80),
    )
    @settings(max_examples=200, deadline=None)
    def test_weight_is_the_walk_sum(self, r, q):
        r = tuple(r)
        expected = sum(q - d[-1] for d in engine._plane_points(r, q))
        assert engine._plane_weight(r, q) == expected

    @pytest.mark.parametrize(
        "r,q",
        [
            # k = 4: one prefix coordinate running over a long range, with
            # d_{j-1} + d_j bounded on its own (r_s = -r_j) or not bounded
            # by d_j at all (r_s = 0)
            ((1, 1, -1), 60),
            ((2, 0, -1), 60),
            ((2, 1, -1), 60),
            ((3, -5, 2), 60),
            # k = 5: two prefix coordinates
            ((1, 1, 1, -1), 40),
            ((0, 1, 1, -1), 40),
            ((2, -3, 0, 1), 40),
            ((1, -2, 2, -1), 40),
        ],
    )
    def test_points_and_weight_match_brute_force(self, r, q):
        points = [
            d
            for d in itertools.combinations(range(1, q), len(r))
            if sum(c * e for c, e in zip(r, d)) == 0
        ]
        assert points
        assert list(engine._plane_points(r, q)) == points
        assert engine._plane_weight(r, q) == sum(q - d[-1] for d in points)

    @pytest.mark.parametrize("q,k,h_cap", [(30, 4, 5), (61, 4, 4), (40, 3, 6), (25, 4, 8)])
    def test_classes_cover_the_colliding_subsets(self, q, k, h_cap):
        # each plane's one-plane weight and representative, and each line
        # class, against the planes through every point found by the walk
        on_planes = _plane_hits(q, k, h_cap)
        one_plane, lines = Counter(), Counter()
        for d, planes in sorted(on_planes.items()):
            if len(planes) == 1:
                (r,) = planes
                one_plane[r] += q - d[-1]
            else:
                lines[min(d, engine._mirror(d))] += q - d[-1]
        planes, classes = engine._plane_classes(q, k, h_cap)
        assert {r: weight for r, _, _, weight in planes} == +one_plane
        for r, _, representative, _ in planes:
            first = next(d for d in engine._plane_points(r, q) if len(on_planes[d]) == 1)
            assert representative == first
        dilates = Counter()
        for u, weight, _ in classes:
            assert u <= engine._mirror(u)
            dilates[u] = weight
        assert dilates == Counter(
            {u: sum(w for d, w in lines.items() if engine._direction(d) == u) for u in dilates}
        )
        assert sum(dilates.values()) == sum(lines.values())
