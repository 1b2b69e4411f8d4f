import functools
import itertools
import json
import math

import pytest

from sumset_census import (
    BudgetExceededError,
    InvariantError,
    census,
    cli,
    verifier,
    profile_naive,
    realize_total,
    verify_ddp,
    verify_ortho,
    verify_paircount,
    verify_repno,
)
from sumset_census.verifier import DdpViolation, RealizedTotal

from oracles import (
    composition_count,
    order_of,
    plain_ddp_achievable,
    plain_ortho,
    plain_repno,
    plain_sweeps,
    representation_counter,
)

DEFAULT_GRID = [(q, h) for q in cli.DEFAULT_GRID_Q for h in cli.DEFAULT_GRID_H]


@functools.cache
def _plain_verdicts(q, h):
    """The plain ortho and repno (k = 4) verdict lines at (q, h), from one
    plain pass per session; call it only with unpatched bindings."""
    return tuple(verdict.to_json() for verdict in plain_sweeps(q, 4, h))


class TestPairCount:
    def test_closed_forms_hold_through_twelve(self):
        verdict = verify_paircount(12)
        assert verdict.passed
        assert verdict.instances == 12
        assert verdict.lemma == "paircount"
        assert verdict.params == {"h_max": 12, "k": 4}

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            verify_paircount(0)


class TestOrtho:
    def test_sweep_passes(self):
        verdict = verify_ortho(30, 2)
        assert verdict.passed
        assert verdict.instances == 9476
        verdict = verify_ortho(20, 3)
        assert verdict.passed
        assert verdict.instances == 830

    def test_worked_example_pair_is_disjoint(self):
        # the one collision of {1,2,8,10} at its first colliding order
        collision = profile_naive((1, 2, 8, 10), 3).collisions[0]
        x, y = collision.vectors
        assert not any(u and v for u, v in zip(x, y))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="order exactly 6: nothing to check"):
            verify_ortho(8, 6)

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("SUMSET_MAX_SUBSETS", "100")
        with pytest.raises(BudgetExceededError) as excinfo:
            verify_ortho(40, 2)
        assert excinfo.value.required == math.comb(40, 4)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            verify_ortho(3, 2)
        with pytest.raises(ValueError):
            verify_ortho(10, 0)


class TestRepNo:
    def test_four_element_bound_is_two(self):
        verdict = verify_repno(20, 4, 2)
        assert verdict.passed
        assert verdict.params["bound"] == 2
        oracle = sum(
            1
            for elems in itertools.combinations(range(1, 21), 4)
            if order_of(elems, 3) == (2, False)
        )
        assert verdict.instances == oracle

    def test_five_element_bound_is_three(self):
        verdict = verify_repno(12, 5, 2)
        assert verdict.passed
        assert verdict.params["bound"] == 3
        examined = 0
        max_reps_seen = 1
        for elems in itertools.combinations(range(1, 13), 5):
            counter = representation_counter(elems, 3)
            if len(representation_counter(elems, 2)) < composition_count(2, 5):
                continue
            if len(counter) == composition_count(3, 5):
                continue
            examined += 1
            max_reps_seen = max(max_reps_seen, max(counter.values()))
        assert verdict.instances == examined
        assert 2 <= max_reps_seen <= 3

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="order exactly 3: nothing to check"):
            verify_repno(12, 5, 3)

    def test_budget_and_degenerate(self, monkeypatch):
        monkeypatch.setenv("SUMSET_MAX_SUBSETS", "10")
        with pytest.raises(BudgetExceededError) as excinfo:
            verify_repno(40, 4, 2)
        assert excinfo.value.required == math.comb(40, 4)
        with pytest.raises(ValueError):
            verify_repno(10, 1, 2)
        with pytest.raises(ValueError):
            verify_repno(10, 4, 0)


class TestRealizeTotal:
    def test_generic_case(self):
        assert realize_total(17, 3, 30) == RealizedTotal(
            17, (0, 1, 0, 3), (1, 2, 3, 5)
        )

    def test_zero_remainder_falls_back(self):
        # 12 = 6*2 exactly; the recipe shifts to 5*2 + 2
        assert realize_total(12, 2, 30) == RealizedTotal(
            12, (0, 1, 0, 2), (1, 2, 3, 5)
        )

    def test_equal_parts_collapse_to_one_element(self):
        assert realize_total(30, 5, 30) == RealizedTotal(
            30, (0, 0, 0, 6), (1, 2, 3, 5)
        )

    def test_witness_contract_across_the_interval(self):
        for h in (2, 3, 4):
            q = 25
            for s in range(5 * h, h * q + 1):
                witness = realize_total(s, h, q)
                assert witness.s == s
                assert len(witness.elements) == 4
                assert len(set(witness.elements)) == 4
                assert all(1 <= e <= q for e in witness.elements)
                assert sum(witness.composition) == h + 1
                assert (
                    sum(c * e for c, e in zip(witness.composition, witness.elements))
                    == s
                )

    def test_recipe_failure_is_reported(self):
        # s divisible by h forces the remainder element to be h itself,
        # which does not fit below q here
        with pytest.raises(ValueError):
            realize_total(40, 8, 7)

    def test_broken_recipe_is_an_invariant_error(self, monkeypatch):
        # a quotient one too large: the witness realizes s + h, not s
        monkeypatch.setattr(verifier, "divmod", lambda s, h: divmod(s + h, h), raising=False)
        with pytest.raises(InvariantError, match="recipe realized 32 at degree 3, wanted 30"):
            realize_total(30, 2, 30)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            realize_total(9, 2, 30)  # below 5h
        with pytest.raises(ValueError):
            realize_total(61, 2, 30)  # above hq
        with pytest.raises(ValueError):
            realize_total(12, 2, 6)  # q too small for fillers
        with pytest.raises(ValueError):
            realize_total(12, 0, 30)


class TestDdp:
    def test_interval_is_covered(self):
        verdict, dot_range = verify_ddp(20, 2)
        assert verdict.passed
        assert verdict.instances == 31
        assert (dot_range.lo, dot_range.hi) == (10, 40)
        assert (dot_range.min_achievable, dot_range.max_achievable) == (3, 60)
        assert dot_range.max_achievable <= 4 * 3 * 20
        assert all(s in dot_range.achievable for s in range(10, 41))

    def test_honest_failure_when_recipe_runs_out(self):
        # h exceeds q: multiples of h need the element h itself, absent here
        verdict, dot_range = verify_ddp(7, 8)
        assert not verdict.passed
        assert sorted(v.s for v in verdict.violations) == [40, 48, 56]
        assert {v.stage for v in verdict.violations} == {"recipe"}
        # enumeration still covers the interval, so only the recipe fails
        assert all(s in dot_range.achievable for s in range(40, 57))
        assert (dot_range.min_achievable, dot_range.max_achievable) == (9, 63)

    def test_reaches_q_200(self):
        # C(200, 4) is under the default subset budget
        verdict, dot_range = verify_ddp(200, 6)
        assert verdict.passed
        assert verdict.instances == 1171
        assert (dot_range.min_achievable, dot_range.max_achievable) == (7, 1400)

    def test_dot_products_match_enumeration(self):
        for q in range(7, 15):
            for h in range(1, 9):
                assert verifier._dot_products(q, h) == plain_ddp_achievable(q, h), (q, h)

    def test_budget_and_degenerate(self, monkeypatch):
        monkeypatch.setenv("SUMSET_MAX_SUBSETS", "1000")
        with pytest.raises(BudgetExceededError) as excinfo:
            verify_ddp(50, 2)
        assert excinfo.value.required == math.comb(50, 4)
        with pytest.raises(ValueError):
            verify_ddp(6, 2)
        with pytest.raises(ValueError):
            verify_ddp(20, 0)


class TestVerdictSerialization:
    def test_json_ignores_elapsed_time(self):
        first = verify_ortho(12, 2)
        second = verify_ortho(12, 2)
        assert first.to_json() == second.to_json()

    def test_json_shape(self):
        payload = json.loads(verify_paircount(4).to_json())
        assert list(payload) == [
            "lemma",
            "params",
            "instances",
            "passed",
            "violations",
        ]
        assert payload["passed"] is True
        assert payload["violations"] == []

    def test_violations_serialize_with_kind(self):
        verdict, _ = verify_ddp(7, 8)
        payload = json.loads(verdict.to_json())
        assert payload["passed"] is False
        kinds = {v["kind"] for v in payload["violations"]}
        assert kinds == {"DdpViolation"}
        assert {v["s"] for v in payload["violations"]} == {40, 48, 56}

    def test_namedtuple_roundtrip_helper(self):
        verdict, _ = verify_ddp(7, 8)
        line = verdict.to_json()
        assert json.loads(line)["lemma"] == "ddp"
        assert line == verify_ddp(7, 8)[0].to_json()


def test_verifiers_agree_with_census_route():
    # the ortho sweep reads the census's plane classes through the same
    # evaluator; both must see zero violations on the same box
    from sumset_census import run_census

    report = run_census(q=16, k=4, h_cap=4)
    assert report.violation_count == 0
    for h in (1, 2, 3):
        assert verify_ortho(16, h).passed


class TestPatternSweepMatchesPlainSweep:
    """Each sweep evaluates one gap pattern per translation class; the plain
    per-subset sweeps in oracles.py are the reference, byte for byte."""

    @pytest.mark.parametrize("q,h", DEFAULT_GRID)
    def test_default_grid_verdict_bytes(self, q, h, monkeypatch):
        ortho, repno = _plain_verdicts(q, h)
        assert verify_ortho(q, h).to_json() == ortho
        assert verify_repno(q, 4, h).to_json() == repno
        verdict, dot_range = verify_ddp(q, h)
        monkeypatch.setattr(verifier, "_dot_products", plain_ddp_achievable)
        plain_verdict, plain_range = verify_ddp(q, h)
        assert verdict.to_json() == plain_verdict.to_json()
        assert dot_range == plain_range

    @pytest.mark.parametrize("q,k,h", [(16, 5, 2), (24, 5, 3), (20, 5, 2), (18, 6, 2)])
    def test_five_element_repno_bytes(self, q, k, h):
        verdict = verify_repno(q, k, h)
        assert verdict.instances > 0
        assert verdict.to_json() == plain_repno(q, k, h).to_json()

    @pytest.mark.parametrize(
        "q,k,h,classes", [(20, 3, 2, 2), (30, 3, 3, 2), (40, 3, 4, 4), (25, 3, 1, 1)]
    )
    def test_three_element_repno_bytes(self, q, k, h, classes):
        # k = 3 evaluates one class per plane of degree h + 1, as the census
        # does (two planes meet only at 0)
        verdict = verify_repno(q, k, h)
        assert verdict.instances > 0
        assert verdict.work == {"patterns_classified": classes, "profiles": classes, "reused": 0}
        assert verdict.to_json() == plain_repno(q, k, h).to_json()

    @pytest.mark.parametrize("q,h", [(7, 8), (20, 2), (30, 4)])
    def test_achievable_dot_products(self, q, h):
        assert verify_ddp(q, h)[1].achievable == plain_ddp_achievable(q, h)


class TestCandidateSource:
    """The classes and candidates the sweeps take, and the work counts a
    sweep reports."""

    def test_work_counts(self):
        # a full k = 4 sweep reads each class once: at h = 2, 15 planes of
        # degree 3 and 11 line classes, whatever the q
        verdict = verify_ortho(20, 2)
        assert verdict.work == {
            "patterns_classified": 26,
            "profiles": 26,
            "reused": 0,
        }
        assert "work" not in json.loads(verdict.to_json())
        # q = 30 has the same representatives and directions, whose
        # profiles q = 20 computed: it adds their weights only
        assert verify_ortho(30, 2).work == {
            "patterns_classified": 26,
            "profiles": 0,
            "reused": 0,
        }
        # k = 5 reads the census's per-pattern pass: one evaluation per
        # mirror pair of the 3,876 patterns
        assert verify_repno(20, 5, 2).work["patterns_classified"] == 1956

    @pytest.mark.parametrize("q,h", [(60, 5), (25, 3), (30, 6)])
    def test_class_route_verdict_bytes(self, q, h):
        ortho, repno = _plain_verdicts(q, h)
        assert verify_ortho(q, h).to_json() == ortho
        assert verify_repno(q, 4, h).to_json() == repno

    def test_plane_representative_must_show_its_pair(self, monkeypatch):
        # a one-plane representative whose scan shows a second collision
        # breaks the rule every one-plane point is counted by
        real = census._collision_scan

        def extra_collision(elems, h):
            size, groups = real(elems, h)
            return size, {**groups, 0: next(iter(groups.values()))}

        monkeypatch.setattr(census, "_collision_scan", extra_collision)
        with pytest.raises(InvariantError, match=r"are not the one pair"):
            verify_repno(20, 4, 2)

    def test_classes_must_first_collide_at_h_plus_1(self, monkeypatch):
        real = census._plane_classes

        def one_degree_up(q, k, h_cap, low=2):
            planes, lines = real(q, k, h_cap, low)
            return planes, tuple((u, weight, lowest + 1) for u, weight, lowest in lines)

        monkeypatch.setattr(census, "_plane_classes", one_degree_up)
        # the directions of lowest degree 4 now claim 5: census._plane_shard
        # finds their first collision at fold 4
        with pytest.raises(InvariantError, match=r"lowest relation plane has degree 5$"):
            verify_ortho(30, 3)


class TestSharedClassification:
    """ortho and repno share the class profiles of the last (q, h): the
    second sweep profiles nothing, either order gives the same bytes as the
    plain sweeps, and each verdict counts only its own work."""

    def test_second_sweep_classifies_nothing(self):
        verify_ortho(20, 2)
        assert verify_repno(20, 4, 2).work == {
            "patterns_classified": 0,
            "profiles": 0,
            "reused": 26,
        }

    @pytest.mark.parametrize("q,h", DEFAULT_GRID)
    def test_repno_before_and_after_ortho(self, q, h):
        ortho, repno = _plain_verdicts(q, h)
        assert verify_repno(q, 4, h).to_json() == repno
        assert verify_ortho(q, h).to_json() == ortho
        assert verify_repno(q, 4, h).to_json() == repno

    def test_ortho_then_repno(self):
        ortho = verify_ortho(30, 2)
        assert ortho.work == {"patterns_classified": 26, "profiles": 26, "reused": 0}
        assert ortho.to_json() == plain_ortho(30, 2).to_json()
        repno = verify_repno(30, 4, 2)
        assert repno.work == {"patterns_classified": 0, "profiles": 0, "reused": 26}
        assert repno.to_json() == plain_repno(30, 4, 2).to_json()

    def test_refusals_on_a_warm_classification(self, monkeypatch):
        for _ in range(2):
            with pytest.raises(ValueError, match="nothing to check"):
                verify_ortho(8, 6)
        verify_ortho(40, 2)
        monkeypatch.setenv("SUMSET_MAX_SUBSETS", "100")
        with pytest.raises(BudgetExceededError):
            verify_ortho(40, 2)
        with pytest.raises(BudgetExceededError):
            verify_repno(40, 4, 2)

    def test_composition_budget_on_a_warm_classification(self, monkeypatch):
        verify_ortho(20, 2)
        monkeypatch.setenv("SUMSET_MAX_COMPOSITIONS", "10")
        # checked on every sweep, warm or cold, against the 20 compositions
        # of 3 into 4 parts
        with pytest.raises(BudgetExceededError) as excinfo:
            verify_repno(20, 4, 2)
        assert excinfo.value.required == 20
        # with the budget back the sweep reads every class profile
        monkeypatch.delenv("SUMSET_MAX_COMPOSITIONS")
        verdict = verify_repno(20, 4, 2)
        assert verdict.work == {"patterns_classified": 0, "profiles": 0, "reused": 26}
        assert verdict.to_json() == plain_repno(20, 4, 2).to_json()

    def test_bitmap_budget_on_the_widest_window(self, monkeypatch):
        # checked on every sweep, before any evaluation: a set of [1..q] folds
        # at most 3 * (q - 1) + 1 bits at h + 1 = 3
        monkeypatch.setenv("SUMSET_MAX_SUBSETS", str(10**24))
        q = 40_000_000
        with pytest.raises(BudgetExceededError) as excinfo:
            verify_repno(q, 3, 2)
        assert excinfo.value.required == 3 * (q - 1) + 1

    def test_interrupted_classification_is_not_reused(self, monkeypatch):
        # a failure inside the class profiles keeps no tally: the next sweep
        # at the same (q, h) reads every class again, and profiles those
        # whose profile the failure cut short
        class Interrupted(Exception):
            pass

        real, calls = census._collision_scan, itertools.count()

        def interrupted(elems, h):
            if next(calls) == 10:
                raise Interrupted
            return real(elems, h)

        assert verify_repno(16, 4, 2).work["profiles"] == 26
        # q = 20 would read all 26 profiles of q = 16 and scan nothing, so
        # the patch clears what a sweep reads, as any rebinding must
        census._order_tally.cache_clear()
        census._class_profiles.clear()
        monkeypatch.setattr(census, "_collision_scan", interrupted)
        with pytest.raises(Interrupted):
            verify_repno(20, 4, 2)
        monkeypatch.undo()
        verdict = verify_repno(20, 4, 2)
        # the 10 profiles checked before the failure are kept, one scan each
        assert verdict.work == {"patterns_classified": 26, "profiles": 16, "reused": 0}
        assert verdict.to_json() == plain_repno(20, 4, 2).to_json()


class TestOnePassPerKH:
    """Each (q, h) profiles its own classes, so any order of q gives the
    plain sweeps' bytes, and repno reads what ortho profiled."""

    @pytest.mark.parametrize("h", (2, 3, 4))
    def test_any_order_of_q(self, h):
        for grid in ((20, 30, 40), (40, 30, 20)):
            for q in grid:
                ortho, repno = _plain_verdicts(q, h)
                assert verify_ortho(q, h).to_json() == ortho
                verdict = verify_repno(q, 4, h)
                assert verdict.to_json() == repno
                assert verdict.work["patterns_classified"] == 0


def _assert_explicit_violations(verdict):
    # every qualifying set violates, in enumeration order, and each violation
    # names its own subset and one of that subset's colliding sums
    elements = [v.elements for v in verdict.violations]
    assert len(set(elements)) == verdict.instances
    assert elements == sorted(elements)
    assert any(e[0] > 1 for e in elements)
    for v in verdict.violations:
        collisions = profile_naive(v.elements, v.h_star + 1).collisions
        assert v.n in {c.n for c in collisions}


def _assert_same_verdict(verdict, oracle):
    # byte equality of the two JSON lines, checked from the cheapest figure
    # up so a failure names its first difference; a plain == on two
    # single-line JSONs with thousands of violations diffs for minutes
    assert verdict.instances == oracle.instances
    assert len(verdict.violations) == len(oracle.violations)
    mine, theirs = (json.loads(v.to_json())["violations"] for v in (verdict, oracle))
    first = next((i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b), None)
    assert first is None, f"violation {first}: {mine[first]} != {theirs[first]}"
    same_bytes = verdict.to_json() == oracle.to_json()
    assert same_bytes, "verdicts differ outside their violation lists"


def _first_vector_twice(elems, h, real=census._collision_scan):
    # the scan whose every colliding group also lists its first composition
    # again, which overlaps itself; every scan a sweep or a plain sweep
    # takes comes from census._collision_scan
    size, groups = real(elems, h)
    return size, {n: idxs + idxs[:1] for n, idxs in groups.items()}


class TestFaultInjection:
    """Faults that make every qualifying set violate: the pattern sweep must
    then report exactly what the plain sweep reports."""

    @pytest.mark.parametrize("q,k,h", [(20, 4, 2), (16, 5, 2), (20, 3, 2), (20, 6, 2)])
    def test_rep_bound_of_one(self, q, k, h, monkeypatch):
        # at k >= 5 the census's pass also holds the violating sets of lower
        # order, which the sweep must drop
        monkeypatch.setattr(census, "_rep_bound", lambda k: 1)
        verdict = verify_repno(q, k, h)
        assert verdict.params["bound"] == 1
        _assert_same_verdict(verdict, plain_repno(q, k, h))
        _assert_explicit_violations(verdict)

    def test_overlapping_vector_pair(self, monkeypatch):
        monkeypatch.setattr(census, "_collision_scan", _first_vector_twice)
        verdict = verify_ortho(20, 2)
        _assert_same_verdict(verdict, plain_ortho(20, 2))
        _assert_explicit_violations(verdict)

    def test_patch_after_a_warm_classification(self, monkeypatch):
        # the order tally of the last (q, k, h) is keyed on nothing but
        # (q, k, h), and a class profile on nothing the scan is, so a patch
        # of the scan clears both on the way in, and again on the way out so
        # the patch's profiles do not outlive it; the patched classes
        # violate and name their own subsets
        def clear():
            census._order_tally.cache_clear()
            census._class_profiles.clear()

        assert verify_ortho(20, 2).passed
        clear()
        monkeypatch.setattr(census, "_collision_scan", _first_vector_twice)
        verdict = verify_ortho(20, 2)
        assert not verdict.passed
        assert verdict.work == {"patterns_classified": 26, "profiles": 26, "reused": 0}
        _assert_same_verdict(verdict, plain_ortho(20, 2))
        monkeypatch.undo()
        clear()
        verdict = verify_ortho(20, 2)
        assert verdict.passed
        assert verdict.work == {"patterns_classified": 26, "profiles": 26, "reused": 0}


def test_kernel_and_enumerated_sizes_must_agree(monkeypatch):
    # each checked set's fold-(h + 1) size has two routes, the kernel and
    # the collision scan; a disagreement is a bug, exit 4
    real = census._collision_scan

    def one_too_large(elems, h):
        size, groups = real(elems, h)
        return size + 1, groups

    monkeypatch.setattr(census, "_collision_scan", one_too_large)
    message = r"kernel size 19 != enumerated size 20 at fold 3 of \(0, 1, 6, 9\)"
    with pytest.raises(InvariantError, match=message):
        verify_ortho(20, 2)
    assert cli.main(["verify", "ortho", "--q", "20", "--h", "2"]) == cli.EXIT_INVARIANT == 4
