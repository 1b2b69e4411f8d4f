"""Exhaustive census of iterated sumset sizes over all k-subsets of [1..q].

The sweep computes |iA| for i = 1..h_cap with the engine's bitmap kernel,
classifies the B_h order from the engine's first-deficit rule, and checks the
collision-structure lemmas on the way in one evaluator (_SetEvaluator), whose
collisions the ortho and repno sweeps of verifier read: by the engine's collision
scan at the first colliding order, the deficit ladder past the first
collision, the representation bound at order h_star + 1, and pairwise
support disjointness of colliding vectors.  Per-order size histograms,
population tallies and any violations are accumulated exactly.

Every tallied figure depends on a subset only through its gap pattern up to
reflection.  A subset collides by fold h_cap exactly when its pattern lies
on a primitive relation plane of degree at most h_cap
(engine._relation_planes), so for k <= 4 the census reads one table of plane
classes (engine._plane_classes) and walks a plane only to name violations.
A pattern on one plane only, of degree w, has |iA| = M(i, k) - M(i - w, k)
at every fold: each plane is evaluated once, on one representative, for all
the subsets of its one-plane patterns, whose number the table sums in closed
form (engine._plane_weight); the representative must match that closed form,
and its one collision must be its plane's pair.  At k = 4 the patterns on
two or more planes are the dilates t*u of the directions u where two planes
meet (engine._relation_lines); since h(tA) = t*hA, each direction is
evaluated once per mirror pair, for all its dilates, and its first colliding
fold must be the lowest degree of its planes.  At k <= 3 there are none.
The subsets on no plane are capped and add to the top bin of every fold.
For k >= 5, where most colliding patterns lie on three or more planes, the
census instead evaluates every gap pattern, one per mirror pair
(_census_shard).  The full lemma sweeps of verifier read one of these
tallies up to fold h + 1 (_order_tally), which decides the route for them
too.  Each evaluation is counted once per subset it stands for.  A class
of the table has one profile at every q: the weight-free evaluation of a
plane's representative or of a direction, with its checks, is kept per
process (_class_profiles), so each q of a sweep grid or a census adds only
the weights of the classes an earlier q profiled.
Violations name explicit subsets: when an evaluation violates, the
translates it stands for are evaluated again only to collect theirs, and add
nothing to the tallies.

Shards split the evaluations: for k <= 4 the plane and line classes of the
table, for k >= 5 the patterns by span.  Shard tallies merge by plain
addition and list concatenation followed by sorting, so the merged report is
independent of the shard count and of whether shards ran inline or in worker
processes.  Per evaluated set, the collision scan recounts the sumset size
at order h_star + 1 by composition enumeration; any disagreement with the
bitmap kernel, or with the closed form or plane degrees above, aborts the
sweep with InvariantError.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from functools import lru_cache
from typing import Iterable, NamedTuple

from .compositions import (
    Composition,
    _support_mask,
    compositions_table,
    figurate_gap,
    multiset_count,
    tetrahedral,
)
from .engine import (
    _collision_scan,
    _direction,
    _fold_sizes,
    _mirror,
    _plane_classes,
    _plane_points,
    _plane_weight,
    _relation_lines,
    first_deficit,
)
from .guards import DEFAULT_MAX_BITMAP_BITS, InvariantError, require_budget, require_subsets

DEFAULT_STRONG_RATIO = 10.0


class SizeHistogram(NamedTuple):
    """Subset counts by h-fold sumset size; totals C(q,k) for a full census."""

    h: int
    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class DeficitLadderViolation(NamedTuple):
    """Deficit below its figurate bound at h_star + step; expected never."""

    elements: tuple[int, ...]
    h_star: int
    step: int
    deficit: int
    bound: int


class RepBoundViolation(NamedTuple):
    """More representations of one sum at order h_star + 1 than floor((k+1)/2)."""

    elements: tuple[int, ...]
    h_star: int
    n: int
    reps: int


class SupportOverlapViolation(NamedTuple):
    """Colliding vector pair at order h_star + 1 with overlapping supports."""

    elements: tuple[int, ...]
    h_star: int
    n: int
    x: Composition
    y: Composition


class GapReport(NamedTuple):
    """Triangular-gap ladder read off one k=4 size histogram.

    ladder[j] = multiset_count(h,4) - tetrahedral(j) are the predicted
    frequent sizes; gap_differences are their successive drops (the triangular
    numbers 1, 3, 6, ...).  A rung is confirmed when its count strictly
    exceeds every count at sizes strictly inside the adjacent gaps; ratios
    report that contrast (None when the adjacent bands are empty, an infinite
    contrast).  strongly_confirmed additionally demands a ratio of at least
    DEFAULT_STRONG_RATIO.
    """

    h: int
    ladder: tuple[int, ...]
    counts: tuple[int, ...]
    intermediate_max: tuple[int, ...]
    gap_differences: tuple[int, ...]
    confirmed: tuple[bool, ...]
    strongly_confirmed: tuple[bool, ...]
    ratios: tuple[float | None, ...]
    inconclusive: bool


def detect_gaps(hist: SizeHistogram, h: int) -> GapReport:
    """Rung confirmation for the k=4 deficit ladder at fold h.

    The report is marked inconclusive when some rung was never attained or
    when no sizes exist strictly between rungs (tiny h), in which case the
    mechanical confirmations say little.
    """
    if hist.h != h:
        raise ValueError(f"histogram is for fold {hist.h}, not {h}")
    if h < 1:
        raise ValueError(f"fold count must be >= 1, got h={h}")
    m = multiset_count(h, 4)
    ladder = tuple(m - tetrahedral(j) for j in range(h))
    counts = tuple(hist.counts.get(s, 0) for s in ladder)
    bands = [
        tuple(range(ladder[j + 1] + 1, ladder[j])) for j in range(len(ladder) - 1)
    ]
    intermediate_max = tuple(
        max((hist.counts.get(s, 0) for s in band), default=0) for band in bands
    )
    gap_differences = tuple(ladder[j] - ladder[j + 1] for j in range(len(ladder) - 1))
    confirmed = []
    strongly = []
    ratios: list[float | None] = []
    # rung j lies between bands j - 1 and j; there is no band past either end
    padded = (0,) + intermediate_max + (0,)
    for j, rung_count in enumerate(counts):
        adj_max = max(padded[j], padded[j + 1])
        ok = rung_count > adj_max
        confirmed.append(ok)
        if adj_max == 0:
            ratios.append(None)
            strongly.append(ok)
        else:
            ratios.append(rung_count / adj_max)
            strongly.append(ok and rung_count >= DEFAULT_STRONG_RATIO * adj_max)
    inconclusive = any(c == 0 for c in counts) or all(len(b) == 0 for b in bands)
    return GapReport(
        h=h,
        ladder=ladder,
        counts=counts,
        intermediate_max=intermediate_max,
        gap_differences=gap_differences,
        confirmed=tuple(confirmed),
        strongly_confirmed=tuple(strongly),
        ratios=tuple(ratios),
        inconclusive=inconclusive,
    )


class _ShardTally:
    """Raw accumulators for one shard, empty up to fold h_cap; merged by addition."""

    def __init__(self, h_cap: int):
        self.hist: list[Counter] = [Counter() for _ in range(h_cap)]
        self.bstar: Counter = Counter()
        self.exceptional: Counter = Counter()
        self.rep_profile: Counter = Counter()
        self.capped = 0
        self.subsets = 0
        self.evaluations = 0  # sets counted with a weight
        self.profiles = 0  # of those, profiles computed and not read from _class_profiles
        self.violations: list = []  # ladder, rep-bound and support violations


class _Evaluation(NamedTuple):
    """One evaluated set: |iA| for i = 1..h_cap, first colliding fold, groups, violations."""

    sizes: list[int]
    first: int
    groups: dict[int, list[int]]
    violations: list


def _rep_bound(k: int) -> int:
    """Largest representation count allowed at order h_star + 1."""
    return (k + 1) // 2


class _SetEvaluator:
    """Sizes, B_h order and collision structure of single k-sets up to h_cap.

    Holds the per-(k, h_cap) tables.  Every invariant check runs on every
    evaluated set: persistent deficits, kernel size against enumerated size
    at the first colliding fold, and a collision behind every deficit.
    """

    def __init__(self, k: int, h_cap: int):
        self.k = k
        self.h_cap = h_cap
        self.m_of = [multiset_count(i, k) for i in range(h_cap + 1)]
        # per h_star: the forced deficit at h_star + step, step = 1, 2, ...
        self.ladder = {
            h: [figurate_gap(h, step, k) for step in range(1, h_cap - h + 1)]
            for h in range(1, h_cap)
        }
        # per composition: bitmask of occupied slots, for pairwise disjointness
        self.supp_of = {
            d: [_support_mask(x) for x in compositions_table(d, k)]
            for d in range(2, h_cap + 1)
        }
        self.rep_bound = _rep_bound(k)

    def profile(self, elems: tuple[int, ...]) -> _Evaluation:
        """The sizes, first colliding fold (0 when capped), groups and
        violations of elems, weight-free."""
        sizes = _fold_sizes(elems, self.h_cap)
        first = first_deficit(elems, sizes)
        if not first:
            return _Evaluation(sizes, 0, {}, [])
        return _Evaluation(sizes, first, *self.collisions(elems, sizes, first))

    def count(self, found: _Evaluation, tally: _ShardTally, weight: int) -> None:
        """Count weight subsets of the profile found into tally."""
        sizes, first = found.sizes, found.first
        tally.evaluations += 1
        tally.subsets += weight
        for i, size in enumerate(sizes):
            tally.hist[i][size] += weight
        if not first:
            tally.capped += weight
            return
        h_star = first - 1
        tally.bstar[h_star] += weight
        if self.m_of[first] - sizes[h_star] >= 2:
            tally.exceptional[h_star] += weight
        tally.rep_profile[(h_star, max(map(len, found.groups.values())))] += weight

    def collisions(
        self, elems: tuple[int, ...], sizes: list[int], first: int
    ) -> tuple[dict[int, list[int]], list]:
        """(groups, violations) of elems, first colliding at fold first: the
        deficit ladder of sizes, and the representation bound and support
        disjointness of each group of the collision scan at first.  A scan
        size other than sizes[first - 1], or no group, raises InvariantError.
        """
        h_star = first - 1
        violations: list = []
        for step, bound in enumerate(self.ladder[h_star], 1):
            deficit = self.m_of[h_star + step] - sizes[h_star + step - 1]
            if deficit < bound:
                violations.append(DeficitLadderViolation(elems, h_star, step, deficit, bound))
        size, groups = _collision_scan(elems, first)
        if size != sizes[h_star]:
            raise InvariantError(
                f"kernel size {sizes[h_star]} != enumerated size "
                f"{size} at fold {first} of {elems}"
            )
        if not groups:
            raise InvariantError(f"deficit at fold {first} of {elems} but no collision found")
        supp = self.supp_of[first]
        for t, idxs in groups.items():
            r = len(idxs)
            if r > self.rep_bound:
                violations.append(RepBoundViolation(elems, h_star, t, r))
            for i in range(r):
                for j in range(i + 1, r):
                    if supp[idxs[i]] & supp[idxs[j]]:
                        comps = compositions_table(first, self.k)
                        violations.append(
                            SupportOverlapViolation(
                                elems, h_star, t, comps[idxs[i]], comps[idxs[j]]
                            )
                        )
        return groups, violations


def _keep_violations(
    evaluator: _SetEvaluator, q: int, d: tuple[int, ...], tally: _ShardTally
) -> None:
    """Keep the violations of every translate in [1..q] of the pattern (0,) + d.

    Each translate is profiled for its violations only and adds nothing to
    the tally's counts.
    """
    shape = (0,) + d
    for c in range(1, q - d[-1] + 1):
        elems = tuple(c + s for s in shape)
        tally.violations.extend(evaluator.profile(elems).violations)


def _census_shard(args: tuple[int, int, int, int, int]) -> _ShardTally:
    """Tally every k-subset of [1..q] whose span is shard_index modulo shards,
    one gap pattern at a time: the census for k >= 5.

    A subset is a translate of its gap pattern (0, s_1, ..., s_{k-2}, span),
    and every tallied figure depends on the pattern only up to reflection
    s -> span - s: translating adds c*i to every i-fold sum, and reflecting
    reverses every composition, so sizes, collision group sizes and support
    disjointness are unchanged.  Each mirror pair is evaluated once, on the
    lexicographically smaller pattern, and counted for its q - span
    translates, twice over when the pattern is not its own mirror.
    Violations name explicit subsets, so when a pattern violates, each
    translate of it and of its mirror is profiled again, which adds nothing
    to the tallies, and its violations are kept instead.
    """
    q, k, h_cap, shard_index, shards = args
    evaluator = _SetEvaluator(k, h_cap)
    tally = _ShardTally(h_cap)
    for span in range(k - 1, q):
        if span % shards != shard_index:
            continue
        for interior in itertools.combinations(range(1, span), k - 2):
            mirrored = tuple(span - s for s in reversed(interior))
            if interior > mirrored:
                continue
            pattern = (0,) + interior + (span,)
            found = evaluator.profile(pattern)
            tally.profiles += 1
            evaluator.count(found, tally, (q - span) * (1 if interior == mirrored else 2))
            if found.violations:
                for shape in {interior, mirrored}:
                    _keep_violations(evaluator, q, shape + (span,), tally)
    return tally


def _closed_form(k: int, w: int, h_cap: int) -> list[int]:
    """|iA| for i = 1..h_cap of a k-set on exactly one plane of degree <= h_cap,
    of degree w: M(i, k) - M(i - w, k).

    With v the plane's relation and v+ its positive part, every collision
    of iA is a chain x, x - v, x - 2v, ... of compositions, which holds
    exactly one composition that does not dominate v+; the M(i - w, k)
    compositions that do are the lost ones.
    """
    return [
        multiset_count(i, k) - (multiset_count(i - w, k) if i >= w else 0)
        for i in range(1, h_cap + 1)
    ]


# (k, h_cap, elems, claim) -> the checked profile of a class of _plane_shard
_class_profiles: dict[tuple, _Evaluation] = {}


def _class_profile(
    evaluator: _SetEvaluator, elems: tuple[int, ...], claim, tally: _ShardTally
) -> _Evaluation:
    """The profile of a plane or line class of _plane_shard, checked against
    its claim: (r, w) for a representative on plane r of degree w only, the
    lowest degree of its planes for a direction.

    A representative's sizes must equal the closed form of degree w, and its
    one collision at fold w must be the plane's pair {v+, v-},
    v = (-sum(r),) + r; a direction must first collide at its lowest degree.
    Any mismatch raises InvariantError.  Neither the profile nor the claim
    depends on q, so a checked profile is kept in _class_profiles and read
    by every later shard; tally counts the profiles computed.
    """
    key = (evaluator.k, evaluator.h_cap, elems, claim)
    found = _class_profiles.get(key)
    if found is not None:
        return found
    found = evaluator.profile(elems)
    if isinstance(claim, int):
        if found.first != claim:
            raise InvariantError(
                f"first collision of {elems} at fold {found.first}, but its "
                f"lowest relation plane has degree {claim}"
            )
    else:
        r, w = claim
        closed = _closed_form(evaluator.k, w, evaluator.h_cap)
        if found.sizes != closed:
            raise InvariantError(
                f"sizes {found.sizes} of {elems}, on plane {r} "
                f"only, differ from its closed form {closed}"
            )
        v = (-sum(r),) + r
        pair = {tuple(max(c, 0) for c in v), tuple(max(-c, 0) for c in v)}
        comps = compositions_table(w, evaluator.k)
        if [{comps[i] for i in idxs} for idxs in found.groups.values()] != [pair]:
            raise InvariantError(
                f"collisions of {elems} at fold {w} are not the "
                f"one pair {sorted(pair)} of its plane {r}"
            )
    _class_profiles[key] = found
    tally.profiles += 1
    return found


def _plane_shard(args: tuple[int, int, int, tuple, tuple]) -> _ShardTally:
    """Evaluate a share of the plane and line classes of engine._plane_classes.

    A plane's one-plane points all share the profile of the closed form, so
    its representative is profiled once, for all of their subsets; a line
    class is profiled on its direction u, for the subsets of its dilates and
    their mirrors.  Both profiles are checked by _class_profile.
    Violations name explicit subsets: when a representative violates, its
    plane is walked again and the translates of each of its one-plane points
    are profiled, uncounted; when a direction violates, the translates of
    its dilates and of their mirrors are.
    """
    q, k, h_cap, planes, lines = args
    evaluator = _SetEvaluator(k, h_cap)
    tally = _ShardTally(h_cap)
    for r, w, representative, weight in planes:
        found = _class_profile(evaluator, (0,) + representative, (r, w), tally)
        evaluator.count(found, tally, weight)
        if found.violations:
            # every direction through r comes from a slice of degree >= w
            directions = {u for u, _, _ in _relation_lines(h_cap, w)} if k == 4 else set()
            for d in _plane_points(r, q):
                if _direction(d) not in directions:
                    _keep_violations(evaluator, q, d, tally)
    for u, weight, lowest in lines:
        found = _class_profile(evaluator, (0,) + u, lowest, tally)
        evaluator.count(found, tally, weight)
        if found.violations:
            for t in range(1, (q - 1) // u[-1] + 1):
                d = tuple(t * c for c in u)
                for shape in {d, _mirror(d)}:
                    _keep_violations(evaluator, q, shape, tally)
    return tally


@lru_cache(maxsize=1)
def _order_tally(q: int, k: int, h: int) -> _ShardTally:
    """The census's tally up to fold h + 1 that holds every k-subset of
    [1..q] of B_h order exactly h, for the lemma sweeps.

    For k <= 4 these subsets are the classes of _plane_classes(q, k, h + 1,
    h + 1): the planes of degree h + 1 and the directions of lowest plane
    degree h + 1, all of B_h order h, read by _plane_shard.  That table is
    built from the degree-(h + 1) planes and the directions on them only:
    no plane of lower degree is weighed or walked, and only the plane pairs
    holding a degree-(h + 1) plane are crossed.  For k >= 5 it is
    _census_shard's pass over every gap pattern, which also tallies the
    sets of lower order.  The last (q, k, h) is kept, so the repno sweep
    after ortho evaluates nothing.
    """
    if k > 4:
        return _census_shard((q, k, h + 1, 0, 1))
    planes, lines = _plane_classes(q, k, h + 1, h + 1)
    return _plane_shard((q, k, h + 1, planes, lines))


class CensusReport(NamedTuple):
    """Merged result of one full census sweep.

    bstar_counts[h] is the number of subsets whose B_h order is exactly h
    (uncapped, so h < h_cap); exceptional_counts[h] those among them whose
    deficit at order h+1 is at least 2 (more than one collision).  capped
    subsets never enter either tally.  rep_profiles[h][r] counts subsets with
    h_star == h whose largest representation multiplicity at order h+1 is r.
    The violation tuples are empty unless a lemma actually failed.
    """

    q: int
    k: int
    h_cap: int
    histograms: dict[int, SizeHistogram]
    bstar_counts: dict[int, int]
    exceptional_counts: dict[int, int]
    capped: int
    gaps: dict[int, GapReport]
    rep_profiles: dict[int, dict[int, int]]
    ladder_violations: tuple[DeficitLadderViolation, ...] = ()
    rep_violations: tuple[RepBoundViolation, ...] = ()
    support_violations: tuple[SupportOverlapViolation, ...] = ()

    @property
    def total_subsets(self) -> int:
        return math.comb(self.q, self.k)

    @property
    def violation_count(self) -> int:
        return (
            len(self.ladder_violations)
            + len(self.rep_violations)
            + len(self.support_violations)
        )

    def to_json(self) -> str:
        """Canonical JSON report; identical parameters give identical bytes."""
        payload = {
            "q": self.q,
            "k": self.k,
            "h_cap": self.h_cap,
            "histograms": {
                str(h): {
                    str(size): self.histograms[h].counts[size]
                    for size in sorted(self.histograms[h].counts, reverse=True)
                }
                for h in range(1, self.h_cap + 1)
            },
            "bstar_counts": {
                str(h): self.bstar_counts.get(h, 0) for h in range(1, self.h_cap)
            },
            "exceptional_counts": {
                str(h): self.exceptional_counts.get(h, 0) for h in range(1, self.h_cap)
            },
            "capped": self.capped,
            "gaps": {
                str(h): {
                    "ladder": list(report.ladder),
                    "confirmed": list(report.confirmed),
                    "ratios": [
                        None if r is None else round(r, 6) for r in report.ratios
                    ],
                }
                for h, report in sorted(self.gaps.items())
            },
        }
        return json.dumps(payload, indent=2) + "\n"

    def histograms_csv(self) -> str:
        """All histograms as CSV rows h,size,count sorted by (h, size desc)."""
        return _histograms_csv(self.histograms, range(1, self.h_cap + 1))


def _histograms_csv(histograms: dict[int, SizeHistogram], folds: Iterable[int]) -> str:
    """CSV rows h,size,count for the given folds in order, size descending."""
    lines = ["h,size,count"]
    for h in folds:
        counts = histograms[h].counts
        for size in sorted(counts, reverse=True):
            lines.append(f"{h},{size},{counts[size]}")
    return "\n".join(lines) + "\n"


def run_census(
    q: int,
    k: int = 4,
    h_cap: int = 6,
    shards: int = 1,
    workers: int = 1,
) -> CensusReport:
    """Census every k-subset of [1..q] up to fold h_cap.

    The subset count C(q,k) is checked against the sweep budget before any
    enumeration.  For k <= 4 the census reads the plane classes of degree
    2..h_cap (engine._plane_classes), evaluates each plane's representative
    and each line direction for the subsets they stand for (_plane_shard),
    and counts the remaining subsets, which collide by no fold up to h_cap,
    as capped.  For k >= 5 it evaluates every gap pattern, one per
    translation and reflection class (_census_shard).  shards controls the
    partition of the evaluations (of the plane and line classes for k <= 4,
    of the patterns by span modulo shards for k >= 5); workers > 1 runs
    shards in processes.
    Reports are identical for every shards/workers choice.  A failed internal
    consistency check raises InvariantError.
    """
    if k < 2:
        raise ValueError(f"set size must be >= 2, got k={k}")
    if q < k:
        raise ValueError(f"need q >= k, got q={q}, k={k}")
    if h_cap < 1:
        raise ValueError(f"classification cap must be >= 1, got {h_cap}")
    if shards < 1 or workers < 1:
        raise ValueError(f"shards and workers must be >= 1, got {shards}, {workers}")
    n_subsets = math.comb(q, k)
    require_subsets(f"census of C({q},{k}) subsets", n_subsets)
    if k > 4:
        shard_args = [(q, k, h_cap, s, shards) for s in range(shards)]
        return _merge_report(q, k, h_cap, _run_shards(_census_shard, shard_args, workers))
    planes, lines = _plane_classes(q, k, h_cap)
    covered = sum(c[-1] for c in planes) + sum(c[1] for c in lines)
    capped = n_subsets - covered
    if capped < 0:
        raise InvariantError(f"relation planes cover {covered} subsets, more than C({q},{k})")
    shard_args = [(q, k, h_cap, planes[s::shards], lines[s::shards]) for s in range(shards)]
    tallies = _run_shards(_plane_shard, shard_args, workers)
    if capped:
        tally = _ShardTally(h_cap)
        tally.subsets = tally.capped = capped
        for i in range(h_cap):
            tally.hist[i][multiset_count(i + 1, k)] = capped
        tallies.append(tally)
    return _merge_report(q, k, h_cap, tallies)


def _run_shards(shard, shard_args: list, workers: int) -> list[_ShardTally]:
    """shard applied to each argument tuple, in worker processes if workers > 1."""
    if workers > 1 and len(shard_args) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(shard_args))) as pool:
            return list(pool.map(shard, shard_args))
    return [shard(a) for a in shard_args]


def _merge_report(q: int, k: int, h_cap: int, tallies: list[_ShardTally]) -> CensusReport:
    """Add shard tallies, check their mass, and build the report."""
    n_subsets = math.comb(q, k)
    merged = _ShardTally(h_cap)
    for t in tallies:
        for i in range(h_cap):
            merged.hist[i].update(t.hist[i])
        merged.bstar.update(t.bstar)
        merged.exceptional.update(t.exceptional)
        merged.rep_profile.update(t.rep_profile)
        merged.capped += t.capped
        merged.subsets += t.subsets
        merged.evaluations += t.evaluations
        merged.violations.extend(t.violations)
    hist = merged.hist

    if merged.subsets != n_subsets:
        raise InvariantError(
            f"shard merge saw {merged.subsets} subsets, expected {n_subsets}"
        )
    for i in range(h_cap):
        if sum(hist[i].values()) != n_subsets:
            raise InvariantError(f"histogram mass at fold {i + 1} is not C(q,k)")
    if sum(merged.bstar.values()) + merged.capped != n_subsets:
        raise InvariantError("classification tallies do not partition the subsets")

    histograms = {i + 1: SizeHistogram(i + 1, dict(hist[i])) for i in range(h_cap)}
    gaps = (
        {h: detect_gaps(histograms[h], h) for h in range(1, h_cap + 1)}
        if k == 4
        else {}
    )
    rep_profiles: dict[int, dict[int, int]] = {}
    for (h_star, r), count in sorted(merged.rep_profile.items()):
        rep_profiles.setdefault(h_star, {})[r] = count

    def of_kind(kind: type) -> tuple:
        return tuple(sorted(v for v in merged.violations if isinstance(v, kind)))

    return CensusReport(
        q=q,
        k=k,
        h_cap=h_cap,
        histograms=histograms,
        bstar_counts=dict(sorted(merged.bstar.items())),
        exceptional_counts=dict(sorted(merged.exceptional.items())),
        capped=merged.capped,
        gaps=gaps,
        rep_profiles=rep_profiles,
        ladder_violations=of_kind(DeficitLadderViolation),
        rep_violations=of_kind(RepBoundViolation),
        support_violations=of_kind(SupportOverlapViolation),
    )


def count_pair_solutions(
    x: Composition,
    y: Composition,
    q: int,
    restrict_bstar: bool = False,
) -> int:
    """Number of k-subsets A of [1..q] (ascending slots) with x . A == y . A.

    x and y must be distinct compositions of the same degree h+1; with
    restrict_bstar only subsets whose B_h order is exactly degree-1 are
    counted, and the pair must then have disjoint supports (colliding pairs
    with overlapping supports cannot occur for such sets).
    """
    x = tuple(x)
    y = tuple(y)
    if len(x) != len(y):
        raise ValueError(f"vectors must have equal length, got {x} and {y}")
    if x == y:
        raise ValueError("vectors must be distinct")
    if any(v < 0 for v in x + y):
        raise ValueError("vectors must be nonnegative")
    degree = sum(x)
    if degree != sum(y):
        raise ValueError(f"degrees differ: {sum(x)} vs {sum(y)}")
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    if restrict_bstar and any(a and b for a, b in zip(x, y)):
        raise ValueError(f"restricted count needs disjoint supports, got {x}, {y}")
    k = len(x)
    if q < k:
        raise ValueError(f"need q >= k, got q={q}, k={k}")
    require_subsets(f"pair solution scan over C({q},{k}) subsets", math.comb(q, k))
    # Equal degrees make both the equation and the B_h order invariant under
    # translation, so the solutions are the translates of the gap patterns
    # (0, d) on the one plane r . d == 0, r = x[1:] - y[1:]; each pattern
    # stands for its q - d[-1] translates, which _plane_weight sums without
    # the walk.  Restricted, each pattern is tested on its translate
    # starting at 1.  r is not zero: x != y and their degrees are equal.
    r = tuple(a - b for a, b in zip(x[1:], y[1:]))
    if not restrict_bstar:
        return _plane_weight(r, q)
    require_budget("sumset bitmap", degree * (q - 1) + 1, DEFAULT_MAX_BITMAP_BITS)
    count = 0
    for d in _plane_points(r, q):
        elems = (1,) + tuple(1 + e for e in d)
        if first_deficit(elems, _fold_sizes(elems, degree)) == degree:
            count += q - d[-1]
    return count
