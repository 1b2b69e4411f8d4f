"""Iterated sumset profiles and B_h classification of integer sets.

For a set A = {a_1 < ... < a_k} and fold count h, the h-fold sumset hA is the
set of all sums of h elements of A with repetition.  Each sum is a dot product
x . A over a composition x of h into k parts, so |hA| <= multiset_count(h, k),
with equality exactly when A is a B_h-set (every sum has one representation).

Two independent size computations live here.  profile_naive enumerates every
composition and counts representations exactly; it is the oracle and the only
source of collision structure.  sumset_sizes/profile_fast fold Minkowski sums
and return sizes only, which must agree with the oracle on every size.
Keeping both routes alive is the point: each checks the other.

The fold has two representations, chosen per call by a cost read off the
input.  A narrow set folds through a dense bitmap held in a shifted big
integer (_fold_sizes), whose work grows with the width h*span.  A wide set
folds a Python set of its sums (_fold_sums), whose work grows with the
sums it touches, k * sum_{i<h} M(i, k), whatever the span.

This module is the only home of the two fold kernels, the composition
collision scan (_collision_scan) and the first-deficit rule (first_deficit).
The census calls the unvalidated bitmap kernel and scan directly on the gap
patterns it generates, whose spans stay below q; every other caller goes
through the validating public functions.

The relation-plane walk (_relation_planes, _plane_points) lists the gap
patterns on which a given disjoint-support relation x . A == y . A holds,
along arithmetic progressions (_plane_progressions) that _plane_weight sums
in closed form, without the walk.  _relation_lines lists, for 4-sets, the
directions where two planes meet, which hold every pattern on more than one
plane, with the planes through each; it joins one slice per degree w
(_line_slice), the crossings of the planes of degree w with those of degree
at most w.  From both, _plane_classes builds the table the census and the
full k <= 4 lemma sweeps read: one class per plane and per direction, each
of one profile and a closed-form subset count.  The table is built by
degree: the census reads degrees 2..h_cap, and a lemma sweep at order h
degree h + 1 alone, which crosses, weighs and walks only its own slice.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .compositions import (
    Composition,
    _support_mask,
    compositions_table,
    multiset_count,
)
from .guards import (
    DEFAULT_MAX_BITMAP_BITS,
    InvariantError,
    require_budget,
    require_compositions,
)

DEFAULT_H_CAP = 8

# Bitmap bits that cost as much as one sum of a set fold.  sumset_sizes folds
# sets of sums once the width h*span exceeds this many times
# k * sum_{i<h} M(i, k), a bound on the sums h set folds touch.  Crossovers
# measured on random sets (CPython 3.11, x86-64), as width over that sum
# for (k, h): (2,6) 174, (3,4) 179, (3,8) 112, (4,3) 219, (4,5) 144,
# (4,8) 96, (4,12) 65, (5,4) 146, (5,6) 108; 128 is near their geometric
# mean, and a set misjudged near a crossover costs at most about twice the
# cheaper fold.
SET_FOLD_COST = 128


class Collision(NamedTuple):
    """A sum n with at least two composition representations over some set."""

    n: int
    vectors: tuple[Composition, ...]


class SetVector(NamedTuple("SetVector", [("elements", tuple[int, ...]), ("q", int)])):
    """A k-element subset of [1..q] held as a strictly increasing tuple.

    Construction rejects degenerate input: fewer than two elements, elements
    not given in increasing order, elements above q, and whatever elements_of
    refuses (non-integers, repeats, elements below 1).
    """

    __slots__ = ()

    def __new__(cls, elements: tuple[int, ...], q: int) -> "SetVector":
        if len(elements) < 2:
            raise ValueError(f"a set vector needs at least 2 elements, got {elements}")
        if elements_of(elements) != tuple(elements):
            raise ValueError(f"elements must be strictly increasing, got {elements}")
        if elements[-1] > q:
            raise ValueError(f"largest element {elements[-1]} exceeds bound q={q}")
        return super().__new__(cls, elements, q)

    # _replace builds through _make, which would skip the checks of __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_values(cls, values: Iterable[int], q: int | None = None) -> "SetVector":
        """Build from unordered values; repeats are rejected, q defaults to max."""
        elems = tuple(sorted(values))
        return cls(elems, q if q is not None else (elems[-1] if elems else 0))


SetLike = Union[SetVector, Sequence[int]]


def elements_of(a: SetLike) -> tuple[int, ...]:
    """Normalize a SetVector or an iterable of distinct positive integers.

    Profiles are well defined for any nonempty set, including singletons, so
    unlike SetVector this accepts k == 1.  A non-integer element is refused
    with ValueError.
    """
    if isinstance(a, SetVector):
        return a.elements
    elems = tuple(a)
    for e in elems:
        if not isinstance(e, int):
            raise ValueError(f"elements must be integers, got {e!r}")
    elems = tuple(sorted(elems))
    if not elems:
        raise ValueError("set must be nonempty")
    if elems[0] < 1:
        raise ValueError(f"elements must be >= 1, got {elems[0]}")
    if any(b <= a_ for a_, b in zip(elems, elems[1:])):
        raise ValueError(f"repeated element in {elems}")
    return elems


class SumsetProfile(NamedTuple):
    """Exact description of one h-fold sumset.

    size + sum of (r-1) over all collision multiplicities == multiset_count,
    so deficit == number of representations lost to collisions.
    """

    h: int
    size: int
    deficit: int
    max_reps: int
    collisions: tuple[Collision, ...]


def profile_naive(a: SetLike, h: int) -> SumsetProfile:
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
    require_compositions(f"composition enumeration for h={h}, k={k}", multiset_count(h, k))
    return _profile(elems, h)


def _profile(elems: tuple[int, ...], h: int) -> SumsetProfile:
    """The body of profile_naive on a sorted tuple of distinct positive
    integers, unchecked: the caller validates and checks the budget."""
    size, groups = _collision_scan(elems, h)
    comps = compositions_table(h, len(elems))
    collisions = tuple(
        Collision(n, tuple(comps[i] for i in idxs)) for n, idxs in sorted(groups.items())
    )
    max_reps = max((len(idxs) for idxs in groups.values()), default=1)
    return SumsetProfile(h, size, len(comps) - size, max_reps, collisions)


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
            t = sum(map(operator.mul, x, elems))
            if t in seen:
                groups.setdefault(t, [seen[t]]).append(idx)
            else:
                seen[t] = idx
    return len(seen), groups


def sumset_sizes(a: SetLike, h: int) -> list[int]:
    """Sizes |iA| for i = 1..h via iterated Minkowski folds.

    The h-fold sumset lives in a window of width h*(max(A) - min(A)) + 1,
    which the fixed DEFAULT_MAX_BITMAP_BITS caps whichever representation
    folds it.  A window of at most SET_FOLD_COST * k * sum_{i<h} M(i, k) bits
    folds as a dense bitmap (_fold_sizes); a wider one folds as a set of sums
    (_fold_sums).  Both give the same sizes.  No representation counts are
    available here.
    """
    elems = elements_of(a)
    if h < 1:
        raise ValueError(f"fold count must be >= 1, got h={h}")
    require_budget("sumset bitmap", h * (elems[-1] - elems[0]) + 1, DEFAULT_MAX_BITMAP_BITS)
    return _sizes(elems, h)


def _sizes(elems: tuple[int, ...], h: int) -> list[int]:
    """The body of sumset_sizes on a sorted tuple of distinct positive
    integers, unchecked: picks the bitmap or the set fold by cost."""
    span = h * (elems[-1] - elems[0]) + 1
    k = len(elems)
    # the work is at least SET_FOLD_COST * k, so most narrow sets skip the lookup
    if span > SET_FOLD_COST * k and span > _set_fold_work(k, h):
        return _fold_sums(elems, h)
    return _fold_sizes(elems, h)


@lru_cache(maxsize=None)
def _set_fold_work(k: int, h: int) -> int:
    """Bitmap width at which h set folds of a k-set cost as much as bitmap ones."""
    return SET_FOLD_COST * k * sum(multiset_count(i, k) for i in range(h))


def _fold_sums(elems: tuple[int, ...], h: int) -> list[int]:
    """The set-of-sums kernel behind sumset_sizes for wide sets, unchecked.

    The i-fold sumset is held as a Python set of its sums, so a fold costs k
    additions per sum, however far apart the elements are.
    """
    cur = set(elems)
    sizes = [len(cur)]
    for _ in range(h - 1):
        cur = {s + e for s in cur for e in elems}
        sizes.append(len(cur))
    return sizes


def _fold_sizes(elems: tuple[int, ...], h: int) -> list[int]:
    """The bitmap kernel behind sumset_sizes, on a sorted tuple, unchecked.

    The i-fold sumset lives in [i*min(A) .. i*max(A)]; it is held as a big-int
    bitmask offset by i*min(A), so one fold is k shifts and k ors and a size
    query is a popcount.
    """
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
def _relation_planes(k: int, w: int) -> tuple[tuple[int, ...], ...]:
    """The primitive relation planes of degree w for k-sets, ascending.

    A pair of compositions x != y of w with disjoint supports is a relation
    v = x - y, whose entries sum to 0 and whose positive part is w; it holds
    on A = a_1 + (0, d) exactly when r . d = 0 for r = v[1:].  Each plane is
    listed once, as the r with its first nonzero entry positive, and only
    when r is primitive: a multiple t*r' is the plane of r', of degree w/t.
    """
    by_mask: dict[int, list[Composition]] = {}
    for x in compositions_table(w, k):
        by_mask.setdefault(_support_mask(x), []).append(x)
    planes = []
    for s, xs in by_mask.items():
        for t, ys in by_mask.items():
            if s >= t or s & t:
                continue
            for x in xs:
                for y in ys:
                    r = tuple(a - b for a, b in zip(x[1:], y[1:]))
                    if math.gcd(*r) != 1:
                        continue
                    if next(c for c in r if c) < 0:
                        r = tuple(-c for c in r)
                    planes.append(r)
    return tuple(sorted(planes))


@lru_cache(maxsize=None)
def _line_slice(w: int) -> tuple[tuple[tuple[int, int, int], tuple, int], ...]:
    """(u, planes, lowest) for each primitive direction 0 < u_1 < u_2 < u_3
    where a plane of degree w meets a plane of degree 2..w, ascending by u.

    For 4-sets the planes live in Z^3, and two distinct ones, r . d == 0 and
    s . d == 0, meet in the line spanned by r x s.  So a gap vector on two or
    more of them is t*u for one of these directions u and some t >= 1.  The
    slice crosses each plane of degree w with every plane of lower degree
    and with every later plane of degree w, so each pair of planes is
    crossed once, in the slice of its larger degree.  The first plane of
    degree w through a direction u meets every other plane of degree <= w
    through u while it is crossed with the planes after it, so that pass
    lists them all, by degree, and gives the lowest degree.  A direction
    whose planes reach a higher degree is listed with its planes of degree
    <= w only.  Planes of one sign hold no gap vector and take no part.
    """
    degree = {
        r: v for v in range(2, w + 1) for r in _relation_planes(4, v) if min(r) < 0 < max(r)
    }
    below = [r for r, v in degree.items() if v < w]
    top = [r for r, v in degree.items() if v == w]
    rank = {r: i for i, r in enumerate(degree)}  # by degree, then r
    lines: dict[tuple[int, int, int], tuple] = {}
    for i, a in enumerate(top):
        a1, a2, a3 = a
        met: dict[tuple[int, int, int], list] = {}  # u -> [a, planes after a]
        for b in below + top[i + 1 :]:
            b1, b2, b3 = b
            u1, u2, u3 = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
            if u1 < 0:
                u1, u2, u3 = -u1, -u2, -u3
            if 0 < u1 < u2 < u3:
                g = math.gcd(u1, u2, u3)
                u = (u1 // g, u2 // g, u3 // g)
                if u not in lines:
                    met.setdefault(u, [a]).append(b)
        for u, through in met.items():
            through.sort(key=rank.__getitem__)
            lines[u] = (u, tuple(through), degree[through[0]])
    return tuple(lines[u] for u in sorted(lines))


@lru_cache(maxsize=None)
def _relation_lines(
    h_cap: int, low: int = 2
) -> tuple[tuple[tuple[int, int, int], tuple, int], ...]:
    """(u, planes, lowest) for each primitive direction 0 < u_1 < u_2 < u_3
    where two planes of degree 2..h_cap meet and one of them has degree at
    least low, ascending by u: the union of the slices low..h_cap.

    Each direction's entry comes from the highest slice that holds it, the
    degree of its highest plane up to h_cap, which lists every plane of
    degree 2..h_cap through it and their lowest degree (_line_slice).
    """
    lines = {line[0]: line for w in range(low, h_cap + 1) for line in _line_slice(w)}
    return tuple(lines[u] for u in sorted(lines))


def _plane_progressions(
    r: Sequence[int], q: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, int], tuple[int, int], tuple[int, int]]]:
    """The gap vectors 0 < d_1 < ... < d_{k-1} < q with r . d == 0, as
    arithmetic progressions (prefix, first, last, step).

    With j the last coordinate whose coefficient is nonzero, d_j is solved
    for: the prefix, the coordinates before d_{j-1}, is enumerated, and
    (d_{j-1}, d_j) steps from first to last by step, along the residue class
    of d_{j-1} that makes d_j integral, within the interval where
    d_{j-1} < d_j and the coordinates after d_j, which are free, still fit
    below q.  The last prefix coordinate p runs only where some real
    d_{j-1} meets those four bounds: each is linear in d_{j-1} and p, so
    pairing every lower bound on d_{j-1} with every upper one bounds p once
    per head, the coordinates before p.  Prefixes come in lexicographic
    order, and each progression ascends in d_{j-1}.  r must not be all zero.
    """
    if min(r) >= 0 or max(r) <= 0:
        return  # a nonzero r of one sign has r . d != 0 for every d > 0
    j = max(i for i, c in enumerate(r) if c)
    sign = 1 if r[j] > 0 else -1
    r_j, r_s = sign * r[j], sign * r[j - 1]
    prefix_r = [sign * c for c in r[: j - 1]]
    top = q - len(r) + j  # largest d_j leaving room for the free tail
    g = math.gcd(r_s, r_j)
    step = (r_j // g, -r_s // g)
    inverse = pow(r_s // g, -1, step[0])
    for prefix in _plane_prefixes(prefix_r, r_s, r_j, top):
        c = sum(map(operator.mul, prefix_r, prefix))
        if c % g:
            continue
        # d_j = -(c + r_s * d) / r_j with d = d_{j-1}: d_j <= top and d_j > d
        lo, hi = _narrow(r_s, -(c + r_j * top), prefix[-1] + 1 if prefix else 1, top - 1)
        lo, hi = _narrow(-(r_s + r_j), c + r_j, lo, hi)
        lo += (-c // g * inverse - lo) % step[0]
        if lo <= hi:
            hi -= (hi - lo) % step[0]
            yield prefix, (lo, -(c + r_s * lo) // r_j), (hi, -(c + r_s * hi) // r_j), step


def _plane_prefixes(
    prefix_r: Sequence[int], r_s: int, r_j: int, top: int
) -> Iterator[tuple[int, ...]]:
    """The prefixes of _plane_progressions in lexicographic order, each last
    coordinate p limited to where some real d = d_{j-1} meets its bounds.

    With c the head's share of r . d, the bounds are a * d >= e0 + e1 * p
    for (a, e0, e1) in: d > p; d < top; d_j <= top; d_j > d.  A lower bound
    (a > 0) and an upper one (b < 0) leave a d exactly when
    (b * e1 - a * f1) * p >= a * f0 - b * e0, and a bound with a = 0 bounds
    p on its own, so every prefix with a progression is kept.
    """
    if not prefix_r:
        yield ()
        return
    r_p = prefix_r[-1]
    for head in itertools.combinations(range(1, top - 2), len(prefix_r) - 1):
        c = sum(map(operator.mul, prefix_r, head))
        bounds = (
            (1, 1, 1),
            (-1, 1 - top, 0),
            (r_s, -(c + r_j * top), -r_p),
            (-(r_s + r_j), c + r_j, r_p),
        )
        lo, hi = head[-1] + 1 if head else 1, top - 2
        for a, e0, e1 in bounds:
            if a == 0:
                lo, hi = _narrow(-e1, e0, lo, hi)
            elif a > 0:
                for b, f0, f1 in bounds:
                    if b < 0:
                        lo, hi = _narrow(b * e1 - a * f1, a * f0 - b * e0, lo, hi)
        for p in range(lo, hi + 1):
            yield head + (p,)


def _plane_points(
    r: Sequence[int], q: int, progressions: Iterable | None = None
) -> Iterator[tuple[int, ...]]:
    """Gap vectors 0 < d_1 < ... < d_{k-1} < q with r . d == 0, ascending:
    the points of _plane_progressions, each with every free tail.  A caller
    that has already walked _plane_progressions(r, q) passes its
    progressions, and the plane is not walked again."""
    if progressions is None:
        progressions = _plane_progressions(r, q)
    for prefix, first, last, step in progressions:
        tail = len(r) - len(prefix) - 2
        for i in range((last[0] - first[0]) // step[0] + 1):
            point = prefix + (first[0] + i * step[0], first[1] + i * step[1])
            if tail:
                for rest in itertools.combinations(range(point[-1] + 1, q), tail):
                    yield point + rest
            else:
                yield point


def _plane_weight(r: Sequence[int], q: int, progressions: Iterable | None = None) -> int:
    """Sum of q - d[-1] over the points d of _plane_points(r, q): the number
    of subsets of [1..q] whose gap vector lies on r, without the walk.

    A point with t free tail coordinates after d_j stands for the
    C(q - d_j, t + 1) ways to pick the tail and a translate: a polynomial of
    degree t + 1 in the index along a progression, summed in closed form
    from its forward differences.  progressions, when given, are those of
    _plane_progressions(r, q), already walked.
    """
    if progressions is None:
        progressions = _plane_progressions(r, q)
    total = 0
    for prefix, first, last, step in progressions:
        m = len(r) - len(prefix) - 1
        n = (last[0] - first[0]) // step[0] + 1
        if m == 1:  # no free tail: q - d_j, summed from its two ends
            total += n * (2 * q - first[1] - last[1]) // 2
            continue
        values = [_binomial(q - first[1] - i * step[1], m) for i in range(m + 1)]
        for i in range(m + 1):
            total += math.comb(n, i + 1) * values[0]
            values = [b - a for a, b in zip(values, values[1:])]
    return total


def _binomial(x: int, m: int) -> int:
    """C(x, m) as a polynomial in x, so also defined for x < 0."""
    return math.prod(range(x - m + 1, x + 1)) // math.factorial(m)


def _narrow(a: int, e: int, lo: int, hi: int) -> tuple[int, int]:
    """The interval [lo, hi] cut down to the integers d with a * d >= e."""
    if a > 0:
        return max(lo, -(-e // a)), hi
    if a < 0:
        return lo, min(hi, e // a)
    return (lo, hi) if e <= 0 else (lo, lo - 1)


@lru_cache(maxsize=None)
def _plane_classes(q: int, k: int, h_cap: int, low: int = 2) -> tuple[tuple, tuple]:
    """(planes, lines): the gap vectors below q on relation planes of degree
    2..h_cap, for k <= 4, as classes of one profile each, those of degree
    low..h_cap.

    lines holds (u, weight, lowest) for each direction u of _relation_lines
    with u_3 < q and lowest >= low, the smaller of each mirror pair: its
    dilates t*u and their mirrors share u's collisions, since h(tA) = t*hA,
    and stand for weight subsets, (1 or 2) times the sum of q - t*u_3;
    lowest is the least degree of u's planes.  At k <= 3 two planes meet
    only at 0.  planes holds (r, w, representative, weight) for each plane
    of degree w in low..h_cap with a point on no other plane: weight is
    _plane_weight(r, q) less the subsets of the dilates on r, and
    representative its first point that is no t*u, both read from one walk
    of _plane_progressions(r, q).  Every direction through such a plane is
    in _relation_lines(h_cap, low), so a table of one degree crosses only
    the planes of its own slice.
    """
    on_plane: dict[tuple[int, ...], list] = {}
    lines = []
    for u, through, lowest in _relation_lines(h_cap, low) if k == 4 else ():
        if u[2] >= q:
            continue
        if len(through) < 2:
            raise InvariantError(
                f"line {u} met on {len(through)} relation planes, not 2 or more"
            )
        t = (q - 1) // u[2]
        weight = t * q - u[2] * t * (t + 1) // 2
        for r in through:
            on_plane.setdefault(r, []).append((u, weight))
        if lowest < low:
            continue
        mirrored = _mirror(u)
        if u <= mirrored:
            lines.append((u, weight * (1 if u == mirrored else 2), lowest))
    planes = []
    for w in range(low, h_cap + 1):
        for r in _relation_planes(k, w):
            on_lines = on_plane.get(r, ())
            progressions = tuple(_plane_progressions(r, q))
            weight = _plane_weight(r, q, progressions) - sum(dilates for _, dilates in on_lines)
            if not weight:
                continue
            directions = {u for u, _ in on_lines}
            representative = next(
                (
                    d
                    for d in _plane_points(r, q, progressions)
                    if _direction(d) not in directions
                ),
                None,
            )
            if weight < 0 or representative is None:
                raise InvariantError(f"plane {r} has {weight} subsets on no other plane")
            planes.append((r, w, representative, weight))
    return tuple(planes), tuple(lines)


def _direction(d: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive vector d / gcd(d)."""
    g = math.gcd(*d)
    return tuple(c // g for c in d)


def _mirror(d: tuple[int, ...]) -> tuple[int, ...]:
    """The gap vector of the reflection s -> span - s of the pattern (0,) + d."""
    span = d[-1]
    return tuple(span - s for s in reversed(d[:-1])) + (span,)


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
    """(size, deficit) of hA from sumset_sizes' folds, sizes only."""
    elems = elements_of(a)
    size = sumset_sizes(elems, h)[-1]
    return size, multiset_count(h, len(elems)) - size


class BhClassification(NamedTuple):
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
