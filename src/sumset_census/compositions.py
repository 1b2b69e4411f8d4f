"""Exact combinatorics of sum vectors.

A composition here is a k-tuple x of nonnegative integers with x_1+...+x_k = h.
It encodes one multiset of h summands drawn from a k-element set A = {a_1 <
... < a_k}: entry x_i says how many times a_i is used, so the represented sum
is the dot product x . A.  Everything downstream (sumset profiles, collision
censuses, lemma sweeps) is phrased in terms of these vectors.

All arithmetic is exact; counts come from math.comb and can never wrap.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Iterator, NamedTuple

from .guards import require_compositions

Composition = tuple[int, ...]


def multiset_count(h: int, k: int) -> int:
    """Number of compositions of h into k nonnegative parts: C(h+k-1, k-1).

    This is also the largest possible size of the h-fold sumset hA of a
    k-element set, attained exactly when A is a B_h-set.  By convention
    multiset_count(0, k) == 1 (the empty sum).
    """
    if h < 0:
        raise ValueError(f"fold count must be nonnegative, got h={h}")
    if k < 1:
        raise ValueError(f"set size must be positive, got k={k}")
    return math.comb(h + k - 1, k - 1)


def tetrahedral(n: int) -> int:
    """n-th tetrahedral number C(n+2, 3): 0, 1, 4, 10, 20, 35, ..."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return math.comb(n + 2, 3)


def figurate_gap(h: int, step: int, k: int) -> int:
    """Deficit forced at order h+step by a first collision at order h+1.

    Equals multiset_count(step-1, k); for k=4 these are the tetrahedral
    numbers tetrahedral(step).  The predicted frequent size at the step is
    multiset_count(h+step, k) - figurate_gap(h, step, k).
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if h < 1:
        raise ValueError(f"base order must be >= 1, got h={h}")
    return multiset_count(step - 1, k)


def enumerate_compositions(h: int, k: int) -> Iterator[Composition]:
    """Yield all compositions of h into k nonnegative parts, lexicographically.

    multiset_count(h, k) tuples total, each summing to h.
    """
    if h < 0:
        raise ValueError(f"fold count must be nonnegative, got h={h}")
    if k < 1:
        raise ValueError(f"set size must be positive, got k={k}")
    yield from _compositions(h, k)


def _compositions(h: int, k: int) -> Iterator[Composition]:
    if k == 1:
        yield (h,)
        return
    for first in range(h + 1):
        for rest in _compositions(h - first, k - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def compositions_table(h: int, k: int) -> tuple[Composition, ...]:
    """All compositions of h into k parts, materialized once per (h, k)."""
    return tuple(enumerate_compositions(h, k))


def _support_mask(x: Composition) -> int:
    """Bitmask of the slots x occupies: bit i is set when x_i > 0."""
    return sum(1 << i for i, v in enumerate(x) if v)


class PairCensus(NamedTuple):
    """Counts of unordered disjoint-support pairs among compositions of h."""

    h: int
    k: int
    total_disjoint_pairs: int
    nontrivial_pairs: int


def disjoint_support_pairs(h: int, k: int) -> PairCensus:
    """Census of pairs {x, y} of distinct compositions of h with x . y == 0.

    Vanishing dot product and disjoint support are the same predicate on
    nonnegative vectors, so pairs are counted by support mask: with n_S the
    number of compositions whose support is exactly S, the total is the sum
    of n_S * n_T over unordered pairs of disjoint masks.  Supports are
    nonempty for h >= 1, so two vectors with disjoint supports are distinct.
    nontrivial_pairs drops the C(k,2) pairs where both vectors have singleton
    support: those encode h*a = h*b, impossible for distinct elements, so
    they can never witness a collision.  For k=4 the two counts follow the
    closed forms 5h^2+1 and 5h^2-5.  The composition budget bounds the
    multiset_count(h, k) compositions enumerated.
    """
    if h < 1:
        raise ValueError(f"fold count must be >= 1, got h={h}")
    if k < 2:
        raise ValueError(f"set size must be >= 2, got k={k}")
    require_compositions(
        f"disjoint-support pair census for h={h}, k={k}", multiset_count(h, k)
    )
    by_mask = Counter(_support_mask(x) for x in compositions_table(h, k))
    ordered = sum(
        n_s * n_t
        for s, n_s in by_mask.items()
        for t, n_t in by_mask.items()
        if not s & t
    )
    total = ordered // 2
    return PairCensus(h, k, total, total - math.comb(k, 2))
