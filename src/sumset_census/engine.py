"""Iterated sumset profiles and B_h classification of integer sets.

For a set A = {a_1 < ... < a_k} and fold count h, the h-fold sumset hA is the
set of all sums of h elements of A with repetition.  Each sum is a dot product
x . A over a composition x of h into k parts, so |hA| <= multiset_count(h, k),
with equality exactly when A is a B_h-set (every sum has one representation).

Two independent size computations live here.  profile_naive enumerates every
composition and counts representations exactly; it is the oracle and the only
source of collision structure.  sumset_sizes/profile_fast fold Minkowski sums
through a dense bitmap held in a shifted big integer; it returns sizes only
and must agree with the oracle on every size.  Keeping both routes alive is
the point: each checks the other.

This module is the only home of the bitmap kernel (_fold_sizes), the
composition collision scan (_collision_scan) and the first-deficit rule
(first_deficit).  The census calls the unvalidated kernel and scan directly
on sets it generates; every other caller goes through the validating public
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence, Union

from .compositions import Composition, compositions_table, multiset_count, tetrahedral
from .guards import (
    DEFAULT_MAX_BITMAP_BITS,
    MAX_COMPOSITIONS_ENV,
    InvariantError,
    LemmaViolationError,
    composition_budget,
    require_budget,
)

DEFAULT_H_CAP = 8


class Collision(NamedTuple):
    """A sum n with at least two composition representations over some set."""

    n: int
    vectors: tuple[Composition, ...]


@dataclass(frozen=True)
class SetVector:
    """A k-element subset of [1..q] held as a strictly increasing tuple.

    Construction rejects degenerate input: fewer than two elements, repeated
    elements, elements outside [1..q].
    """

    elements: tuple[int, ...]
    q: int

    def __post_init__(self):
        elems = self.elements
        if len(elems) < 2:
            raise ValueError(f"a set vector needs at least 2 elements, got {elems}")
        for a in elems:
            if not isinstance(a, int):
                raise ValueError(f"elements must be integers, got {a!r}")
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise ValueError(f"elements must be strictly increasing, got {elems}")
        if elems[0] < 1:
            raise ValueError(f"elements must be >= 1, got {elems[0]}")
        if elems[-1] > self.q:
            raise ValueError(f"largest element {elems[-1]} exceeds bound q={self.q}")

    @classmethod
    def from_values(cls, values: Iterable[int], q: int | None = None) -> "SetVector":
        """Build from unordered values; repeats are rejected, q defaults to max."""
        elems = tuple(sorted(values))
        if len(set(elems)) != len(elems):
            raise ValueError(f"repeated element in {elems}")
        return cls(elems, q if q is not None else (elems[-1] if elems else 0))

    @property
    def k(self) -> int:
        return len(self.elements)


SetLike = Union[SetVector, Sequence[int]]


def elements_of(a: SetLike) -> tuple[int, ...]:
    """Normalize a SetVector or an iterable of distinct positive integers.

    Profiles are well defined for any nonempty set, including singletons, so
    unlike SetVector this accepts k == 1.
    """
    if isinstance(a, SetVector):
        return a.elements
    elems = tuple(sorted(a))
    if not elems:
        raise ValueError("set must be nonempty")
    if elems[0] < 1:
        raise ValueError(f"elements must be >= 1, got {elems[0]}")
    if any(b <= a_ for a_, b in zip(elems, elems[1:])):
        raise ValueError(f"repeated element in {elems}")
    return elems


@dataclass(frozen=True)
class SumsetProfile:
    """Exact description of one h-fold sumset.

    size + sum of (r-1) over all collision multiplicities == multiset_count,
    so deficit == number of representations lost to collisions.
    """

    h: int
    size: int
    deficit: int
    max_reps: int
    collisions: tuple[Collision, ...]


def profile_naive(a: SetLike, h: int, max_compositions: int | None = None) -> SumsetProfile:
    """Profile hA by enumerating every composition of h; the exact oracle.

    Representation multiplicities r(n) and the full collision list come out
    of the same enumeration, so max_reps and collisions are exact.  Collisions
    are listed by increasing sum, vectors within one collision in the
    lexicographic enumeration order.
    """
    elems = elements_of(a)
    if h < 1:
        raise ValueError(f"fold count must be >= 1, got h={h}")
    k = len(elems)
    m = multiset_count(h, k)
    require_budget(
        f"composition enumeration for h={h}, k={k}",
        m,
        composition_budget(max_compositions),
        MAX_COMPOSITIONS_ENV,
    )
    size, groups = _collision_scan(elems, h)
    comps = compositions_table(h, k)
    collisions = tuple(
        Collision(n, tuple(comps[i] for i in idxs)) for n, idxs in sorted(groups.items())
    )
    max_reps = max((len(idxs) for idxs in groups.values()), default=1)
    return SumsetProfile(h, size, m - size, max_reps, collisions)


def _collision_scan(elems: tuple[int, ...], h: int) -> tuple[int, dict[int, list[int]]]:
    """(|hA|, colliding groups) of a sorted tuple in one pass over compositions.

    groups maps every sum with two or more representations to the indices of
    those compositions in compositions_table(h, k), ascending.  No input
    checks; the caller validates.
    """
    comps = compositions_table(h, len(elems))
    seen: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    if len(elems) == 4:
        # unrolled dot product: the census and the lemma sweeps live at k = 4
        e0, e1, e2, e3 = elems
        for idx, x in enumerate(comps):
            t = x[0] * e0 + x[1] * e1 + x[2] * e2 + x[3] * e3
            if t in seen:
                groups.setdefault(t, [seen[t]]).append(idx)
            else:
                seen[t] = idx
    else:
        for idx, x in enumerate(comps):
            t = sum(c * e for c, e in zip(x, elems))
            if t in seen:
                groups.setdefault(t, [seen[t]]).append(idx)
            else:
                seen[t] = idx
    return len(seen), groups


def sumset_sizes(a: SetLike, h: int, max_bits: int = DEFAULT_MAX_BITMAP_BITS) -> list[int]:
    """Sizes |iA| for i = 1..h via iterated Minkowski folds of a dense bitmap.

    The i-fold sumset lives in [i*min(A) .. i*max(A)]; it is held as a big-int
    bitmask offset by i*min(A), so one fold is k shifts and k ors and a size
    query is a popcount.  No representation counts are available here.
    """
    elems = elements_of(a)
    if h < 1:
        raise ValueError(f"fold count must be >= 1, got h={h}")
    span = h * (elems[-1] - elems[0]) + 1
    require_budget("sumset bitmap", span, max_bits)
    return _fold_sizes(elems, h)


def _fold_sizes(elems: tuple[int, ...], h: int) -> list[int]:
    """The bitmap kernel behind sumset_sizes, on a sorted tuple, unchecked."""
    shifts = [e - elems[0] for e in elems]
    cur = 0
    for s in shifts:
        cur |= 1 << s
    sizes = [cur.bit_count()]
    for _ in range(h - 1):
        nxt = 0
        for s in shifts:
            nxt |= cur << s
        cur = nxt
        sizes.append(cur.bit_count())
    return sizes


@lru_cache(maxsize=None)
def _full_sizes(k: int, h: int) -> tuple[int, ...]:
    """multiset_count(i, k) for i = 1..h, materialized once per (k, h)."""
    return tuple(multiset_count(i, k) for i in range(1, h + 1))


def first_deficit(elems: tuple[int, ...], sizes: Sequence[int]) -> int:
    """First fold i with |iA| < multiset_count(i, k), or 0 when there is none.

    sizes[i - 1] is |iA| for i = 1..len(sizes).  A collision at fold i
    extends to every larger fold, so a deficit must persist once it appears;
    a size back at its maximum raises InvariantError.
    """
    full = _full_sizes(len(elems), len(sizes))
    first = 0
    for i, size in enumerate(sizes):
        if size < full[i]:
            if not first:
                first = i + 1
        elif first:
            raise InvariantError(
                f"deficit at fold {first} of {elems} vanished at fold {i + 1}"
            )
    return first


def profile_fast(a: SetLike, h: int) -> tuple[int, int]:
    """(size, deficit) of hA from the bitmap kernel, sizes only."""
    elems = elements_of(a)
    size = sumset_sizes(elems, h)[-1]
    return size, multiset_count(h, len(elems)) - size


@dataclass(frozen=True)
class BhClassification:
    """Largest verified h with hA collision-free, h_star >= 1 always.

    capped means no collision was found up to the scan cap, so h_star is only
    a lower bound on the true order.  When uncapped, first_collision is the
    smallest-sum collision at order h_star + 1, the witness that A is not a
    B_{h_star+1}-set.
    """

    h_star: int
    capped: bool
    first_collision: Collision | None


def classify(a: SetLike, h_cap: int = DEFAULT_H_CAP) -> BhClassification:
    """B_h order of A by scanning kernel sizes for the first deficit.

    A deficit at fold i means a collision among i-fold sums, so h_star is the
    last fold before the first deficit.  Deficits must persist once they
    appear (a collision at order i extends to every larger order); that
    monotonicity is checked against the size profile, not assumed, and a
    vanished deficit raises InvariantError.
    """
    elems = elements_of(a)
    if h_cap < 1:
        raise ValueError(f"classification cap must be >= 1, got {h_cap}")
    first = first_deficit(elems, sumset_sizes(elems, h_cap))
    if first:
        witness = profile_naive(elems, first).collisions[0]
        return BhClassification(first - 1, False, witness)
    return BhClassification(h_cap, True, None)


class GapBoundRecord(NamedTuple):
    """Deficit of (h_star+step)A against its figurate lower bound."""

    step: int
    deficit: int
    bound: int
    tight: bool


def gap_bound_check(a: SetLike, h_star: int, max_step: int) -> list[GapBoundRecord]:
    """Check the deficit ladder below a first collision at order h_star + 1.

    For a 4-element set whose B_h order is exactly h_star, the sumset at order
    h_star + step must lose at least tetrahedral(step) elements, because the
    first collision fans out through every extension by step - 1 more
    summands.  Records report the exact deficit, the bound, and whether they
    agree (tight means the first collision explains every lost element).

    Raises ValueError when A's actual order is not h_star, and
    LemmaViolationError if any deficit falls short of its bound.
    """
    elems = elements_of(a)
    if len(elems) != 4:
        raise ValueError(f"deficit ladder is stated for 4-element sets, got k={len(elems)}")
    if h_star < 1 or max_step < 1:
        raise ValueError(f"need h_star >= 1 and max_step >= 1, got {h_star}, {max_step}")
    sizes = sumset_sizes(elems, h_star + max_step)
    first = first_deficit(elems, sizes)
    if first and first <= h_star:
        raise ValueError(f"{elems} already collides at fold {first}, so h_star != {h_star}")
    if first != h_star + 1:
        raise ValueError(f"{elems} is still collision-free at fold {h_star + 1}")
    records = []
    for step in range(1, max_step + 1):
        deficit = multiset_count(h_star + step, 4) - sizes[h_star + step - 1]
        bound = tetrahedral(step)
        if deficit < bound:
            raise LemmaViolationError(
                f"deficit {deficit} at fold {h_star + step} of {elems} is below "
                f"the figurate bound {bound}"
            )
        records.append(GapBoundRecord(step, deficit, bound, deficit == bound))
    return records
