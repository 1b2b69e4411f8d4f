"""Independent brute-force oracles used only by the tests.

Deliberately written with different algorithms than the package: counts come
from a Pascal recursion instead of binomials, representation multiplicities
from combinations_with_replacement instead of composition enumeration, sizes
from plain set folding, and pair solutions from literal nested loops.  When
the package and these helpers agree, two unrelated routes reached the same
numbers.

The remaining helpers instead keep the package's earlier plain algorithms
alive as references for its shortcuts: the per-subset census sweep and the
per-subset ortho, repno and ddp sweeps (the package reads plane classes or
walks gap patterns), the pairwise disjoint-support scan (the package counts
by support mask), the gap-pattern pair count (the package walks one
relation plane), and the crossing of all relation planes at once (the
package crosses them one degree slice at a time).  plane_has_point finds
by search whether a relation plane holds a gap vector, which the package
reads off the signs of the plane's suffix sums.
"""

from collections import Counter
from functools import cache
import itertools
import math
from typing import NamedTuple

from sumset_census import census, engine, sumset_sizes, verifier
from sumset_census.census import (
    DeficitLadderViolation,
    RepBoundViolation,
    SupportOverlapViolation,
)
from sumset_census.compositions import compositions_table


@cache
def composition_count(h: int, k: int) -> int:
    """Number of k-part compositions of h by the Pascal recursion."""
    if h < 0:
        raise ValueError(h)
    if k == 1 or h == 0:
        return 1
    return composition_count(h - 1, k) + composition_count(h, k - 1)


def representation_counter(elems, h) -> Counter:
    """Multiplicity of every h-fold sum, one count per multiset of summands."""
    return Counter(sum(c) for c in itertools.combinations_with_replacement(elems, h))


def folded_sizes(elems, h) -> list[int]:
    """|iA| for i = 1..h by plain set folding."""
    current = set(elems)
    sizes = [len(current)]
    for _ in range(h - 1):
        current = {s + a for s in current for a in elems}
        sizes.append(len(current))
    return sizes


def order_of(elems, h_cap) -> tuple[int, bool]:
    """(h_star, capped) from representation counters alone."""
    k = len(elems)
    for i in range(1, h_cap + 1):
        if len(representation_counter(elems, i)) < composition_count(i, k):
            return i - 1, False
    return h_cap, True


def pair_solution_count_4(x, y, q) -> int:
    """Literal quadruple loop counting 4-subsets with x . A == y . A."""
    count = 0
    for a in range(1, q + 1):
        for b in range(a + 1, q + 1):
            for c in range(b + 1, q + 1):
                for d in range(c + 1, q + 1):
                    vec = (a, b, c, d)
                    lhs = sum(u * v for u, v in zip(x, vec))
                    rhs = sum(u * v for u, v in zip(y, vec))
                    if lhs == rhs:
                        count += 1
    return count


def plain_pair_count(x, y, q, restrict_bstar=False):
    """count_pair_solutions by testing every gap pattern, the package's
    sweep before it walked the one relation plane; the kernel and the
    first-deficit rule are read through the census module at call time."""
    k = len(x)
    degree = sum(x)
    count = 0
    for span in range(k - 1, q):
        for interior in itertools.combinations(range(2, span + 1), k - 2):
            elems = (1,) + interior + (span + 1,)
            lhs = sum(c * e for c, e in zip(x, elems))
            if lhs != sum(c * e for c, e in zip(y, elems)):
                continue
            if restrict_bstar and census.first_deficit(
                elems, census._fold_sizes(elems, degree)
            ) != degree:
                continue
            count += q - span
    return count


def family_enumeration(h, q) -> list[tuple[int, int, int, int]]:
    """All family members by direct loops over the parameter ranges."""
    members = []
    a_top = q // (10 * h) ** 3
    b_top = q // (10 * h) ** 2
    d_low = -(-99 * q // 100)
    for a in range(1, a_top + 1):
        for b in range(3 * h * a, b_top + 1):
            c = (h + 1) * b - h * a
            for d in range(d_low, q + 1):
                members.append((a, b, c, d))
    return members


def disjoint_pair_scan(h, k) -> tuple[int, int]:
    """(total, nontrivial) disjoint-support pairs by a pairwise scan of all
    compositions; a pair is trivial when both vectors are singletons."""
    comps = compositions_table(h, k)
    singleton = [max(x) == h for x in comps]
    total = 0
    nontrivial = 0
    for i, x in enumerate(comps):
        for j in range(i + 1, len(comps)):
            if all(a == 0 or b == 0 for a, b in zip(x, comps[j])):
                total += 1
                if not (singleton[i] and singleton[j]):
                    nontrivial += 1
    return total, nontrivial


@cache
def plain_relation_lines(h_cap):
    """(u, planes, lowest) for each direction where two planes of degree
    2..h_cap meet, ascending by u, by crossing every pair of mixed-sign
    planes in one pass: the package's build before it crossed by degree.
    The first plane through u, in degree order, meets every other one in u
    while it is crossed with the planes after it, so that pass lists them
    all, by degree, and gives the lowest degree."""
    planes = [
        (w, r)
        for w in range(2, h_cap + 1)
        for r in engine._relation_planes(4, w)
        if min(r) < 0 < max(r)
    ]
    through = {}
    for i, (w, a) in enumerate(planes):
        a1, a2, a3 = a
        met = {}  # u -> [w, a, later planes]
        for _, b in planes[i + 1 :]:
            b1, b2, b3 = b
            u1, u2, u3 = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
            if u1 < 0:
                u1, u2, u3 = -u1, -u2, -u3
            if 0 < u1 < u2 < u3:
                g = math.gcd(u1, u2, u3)
                u = (u1 // g, u2 // g, u3 // g)
                if u not in through:
                    met.setdefault(u, [w, a]).append(b)
        through.update(met)
    return tuple((u, tuple(met[1:]), met[0]) for u, met in sorted(through.items()))


def plane_has_point(r, q):
    """Whether some gap vector 0 < d_1 < ... < d_{k-1} < q has r . d == 0:
    every d_1 < ... < d_{k-2} is tried, and d_{k-1} solved for from
    r . d == 0, or any d_{k-1} taken when its coefficient is 0."""
    *head_r, last = r
    for head in itertools.combinations(range(1, q), len(head_r)):
        c = sum(a * b for a, b in zip(head_r, head))
        if last == 0:
            if c == 0 and head[-1] < q - 1:
                return True
        elif c % last == 0 and head[-1] < -c // last < q:
            return True
    return False


def plain_census_shard(q, k, h_cap, shard_index=0, shards=1):
    """Census tally over every k-subset of [1..q] one by one, sharded by
    largest element: the package's sweep before it went over gap patterns.
    Bounds are read through the census module at call time, so a test that
    patches them there patches this sweep too."""
    m_of = [census.multiset_count(i, k) for i in range(h_cap + 1)]
    rep_bound = census._rep_bound(k)
    comp_of = {d: compositions_table(d, k) for d in range(2, h_cap + 1)}
    supp_of = {
        d: [sum(1 << i for i, v in enumerate(x) if v) for x in comps]
        for d, comps in comp_of.items()
    }
    tally = census._ShardTally(h_cap)
    hist = tally.hist
    for top in range(k, q + 1):
        if top % shards != shard_index:
            continue
        for rest in itertools.combinations(range(1, top), k - 1):
            elems = rest + (top,)
            tally.subsets += 1
            base = elems[0]
            shifts = [e - base for e in elems]
            cur = 0
            for s in shifts:
                cur |= 1 << s
            sizes = [cur.bit_count()]
            for _ in range(h_cap - 1):
                nxt = 0
                for s in shifts:
                    nxt |= cur << s
                cur = nxt
                sizes.append(cur.bit_count())
            first_deficit = 0
            for i in range(1, h_cap + 1):
                s_i = sizes[i - 1]
                hist[i - 1][s_i] += 1
                if s_i < m_of[i]:
                    if not first_deficit:
                        first_deficit = i
                elif first_deficit:
                    raise census.InvariantError(f"deficit vanished for {elems}")
            if not first_deficit:
                tally.capped += 1
                continue
            h_star = first_deficit - 1
            tally.bstar[h_star] += 1
            if m_of[first_deficit] - sizes[first_deficit - 1] >= 2:
                tally.exceptional[h_star] += 1
            for step in range(1, h_cap - h_star + 1):
                deficit = m_of[h_star + step] - sizes[h_star + step - 1]
                bound = census.figurate_gap(h_star, step, k)
                if deficit < bound:
                    tally.violations.append(
                        DeficitLadderViolation(elems, h_star, step, deficit, bound)
                    )
            comps = comp_of[first_deficit]
            seen = {}
            dups = {}
            for idx, x in enumerate(comps):
                t = sum(c * e for c, e in zip(x, elems))
                if t in seen:
                    dups.setdefault(t, [seen[t]]).append(idx)
                else:
                    seen[t] = idx
            if len(seen) != sizes[first_deficit - 1] or not dups:
                raise census.InvariantError(f"scan disagrees with kernel for {elems}")
            supp = supp_of[first_deficit]
            max_reps = 1
            for t, idxs in dups.items():
                r = len(idxs)
                max_reps = max(max_reps, r)
                if r > rep_bound:
                    tally.violations.append(RepBoundViolation(elems, h_star, t, r))
                for i in range(r):
                    for j in range(i + 1, r):
                        if supp[idxs[i]] & supp[idxs[j]]:
                            tally.violations.append(
                                SupportOverlapViolation(
                                    elems, h_star, t, comps[idxs[i]], comps[idxs[j]]
                                )
                            )
            tally.rep_profile[(h_star, max_reps)] += 1
    return tally


def plain_census(q, k, h_cap, shards=1):
    """CensusReport of the per-subset sweep, merged as run_census merges."""
    tallies = [plain_census_shard(q, k, h_cap, s, shards) for s in range(shards)]
    return census._merge_report(q, k, h_cap, tallies)


class MissingCollisionViolation(NamedTuple):
    """A set of B_h order h_star that showed no collision at h_star + 1;
    the package raises InvariantError there instead."""

    elements: tuple[int, ...]
    h_star: int


def _plain_sets_of_order(q, k, h):
    """(A, collisions at h + 1) for every k-subset A of [1..q] of B_h order
    exactly h, one subset at a time, collisions as (sum, vectors) by
    increasing sum.  Sizes come from the public sumset_sizes, the order and
    the collisions from the census module's first_deficit and
    _collision_scan at call time, so a test that patches those there
    patches this sweep too."""
    comps = compositions_table(h + 1, k)
    for elems in itertools.combinations(range(1, q + 1), k):
        if census.first_deficit(elems, sumset_sizes(elems, h + 1)) == h + 1:
            _, groups = census._collision_scan(elems, h + 1)
            yield elems, [(n, [comps[i] for i in idxs]) for n, idxs in sorted(groups.items())]


def plain_sweeps(q, k, h):
    """(ortho, repno): the LemmaVerdicts of the per-subset ortho and repno
    sweeps over k-subsets, from one pass; the ortho verdict is the lemma's
    own at k = 4.  The representation bound is read through the census
    module at call time."""
    bound = census._rep_bound(k)
    examined = 0
    overlaps = []
    excesses = []
    for elems, collisions in _plain_sets_of_order(q, k, h):
        examined += 1
        for n, vectors in collisions:
            for x, y in itertools.combinations(vectors, 2):
                if any(u and v for u, v in zip(x, y)):
                    overlaps.append(SupportOverlapViolation(elems, h, n, x, y))
            if len(vectors) > bound:
                excesses.append(RepBoundViolation(elems, h, n, len(vectors)))
        if not collisions:
            excesses.append(MissingCollisionViolation(elems, h))
    ortho_params = {"q": q, "h": h, "sample": 0}
    repno_params = {"q": q, "k": k, "h": h, "bound": bound}
    return (
        verifier.LemmaVerdict("ortho", ortho_params, examined, tuple(overlaps), 0.0, {}),
        verifier.LemmaVerdict("repno", repno_params, examined, tuple(excesses), 0.0, {}),
    )


def plain_ortho(q, h):
    """LemmaVerdict of the per-subset ortho sweep."""
    return plain_sweeps(q, 4, h)[0]


def plain_repno(q, k, h):
    """LemmaVerdict of the per-subset repno sweep."""
    return plain_sweeps(q, k, h)[1]


def plain_ddp_achievable(q, h):
    """Every (h+1)-fold dot product over every 4-subset of [1..q], one
    subset at a time."""
    achievable = set()
    comps = compositions_table(h + 1, 4)
    for e0, e1, e2, e3 in itertools.combinations(range(1, q + 1), 4):
        for x in comps:
            achievable.add(x[0] * e0 + x[1] * e1 + x[2] * e2 + x[3] * e3)
    return frozenset(achievable)
