"""Stand-alone finite verification of the collision-structure lemmas.

Each verifier sweeps a fully enumerable instance space and returns a
LemmaVerdict whose violation list is empty exactly when the statement held
everywhere.  ortho and repno check their lemmas with the census's own
evaluator, census._SetEvaluator, on the sets of B_h order exactly h: its
collision scan at fold h + 1 must give the kernel's size and a collision
(InvariantError otherwise), and it names every colliding group over the
representation bound or with overlapping supports; a sweep keeps the
violations of its own kind at order h, sorted, which is subset enumeration
order.  These sweeps are not an independent route to the census's facts;
the per-subset sweeps of tests/oracles.py are, and the sweeps must match
them byte for byte.

A sweep reads the census's own tally up to fold h + 1,
census._order_tally, which evaluates each class of subsets once, on one
representative, as the census does, and names the subsets of a violating
class; the instances are its count of order h.  The last (q, k, h) is
kept, so repno after ortho evaluates nothing again, and at k <= 4 each
class profile is kept for every q (census._class_profiles), so a later q
profiles only the classes no earlier q did.  The budgets are checked at the
start of every sweep; code that rebinds what a sweep reads clears
census._order_tally and census._class_profiles first.  ddp needs no
subsets: its dot products are the sums of h + 1 elements of [1..q] with at
most four distinct values, built by a four-round DP over values
(_dot_products).

Verified statements, at desk scale:
  ortho      colliding vector pairs at the first colliding order have
             pairwise disjoint supports
  repno      at order h_star + 1 no sum has more than floor((k+1)/2)
             representations (a set with no colliding sum there is an
             InvariantError of the evaluator)
  ddp        every s in [5h .. hq] is an (h+1)-fold dot product over some
             4-subset of [1..q], found both by an explicit division-algorithm
             recipe and among all such dot products, built by the DP
  paircount  the disjoint-support pair census matches 5h^2+1 and 5h^2-5
"""

from __future__ import annotations

import json
import math
import time
from typing import NamedTuple

from . import census
from .compositions import Composition, disjoint_support_pairs, multiset_count
from .census import RepBoundViolation, SupportOverlapViolation, _order_tally
from .engine import profile_naive  # not called here; perfbench's tracer test reads it
from .guards import (
    DEFAULT_MAX_BITMAP_BITS,
    InvariantError,
    require_budget,
    require_compositions,
    require_subsets,
)


class LemmaVerdict(NamedTuple):
    """Outcome of one finite sweep; empty violations means the lemma held."""

    lemma: str
    params: dict
    instances: int
    violations: tuple
    elapsed_s: float
    work: dict

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        """One deterministic JSON line; elapsed time and work counts are
        deliberately left out so identical parameters give identical bytes."""
        payload = {
            "lemma": self.lemma,
            "params": dict(sorted(self.params.items())),
            "instances": self.instances,
            "passed": self.passed,
            "violations": [_jsonable(v) for v in self.violations],
        }
        return json.dumps(payload)


def _jsonable(value):
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        record = {"kind": type(value).__name__}
        record.update({k: _jsonable(v) for k, v in value._asdict().items()})
        return record
    if isinstance(value, (tuple, list, frozenset, set)):
        return [_jsonable(v) for v in value]
    return value


class PairCountViolation(NamedTuple):
    """Disjoint-support pair census disagreeing with its closed form."""

    h: int
    total: int
    expected_total: int
    nontrivial: int
    expected_nontrivial: int


class DdpViolation(NamedTuple):
    """A claimed dot-product value the recipe or the enumeration missed."""

    stage: str
    s: int
    detail: str


class DotProductRange(NamedTuple):
    """Achievable (h+1)-fold dot products over 4-subsets of [1..q].

    lo..hi is the claimed interval [5h .. hq]; min/max are the observed
    extremes, h+1 and (h+1)q for a full enumeration.
    """

    h: int
    q: int
    lo: int
    hi: int
    min_achievable: int
    max_achievable: int
    achievable: frozenset[int]


def _violations_by_set(q: int, k: int, h: int, kind: type) -> tuple[int, list, dict]:
    """(instances, violations of kind at order h, work) over the k-subsets
    of [1..q] of B_h order exactly h, from census._order_tally.  Raises
    ValueError when there is no such subset, so an empty sweep cannot pass.
    work counts what this call did: classes read (patterns_classified), the
    profiles of those it computed rather than read from an earlier q
    (profiles), and classes of a tally kept from the sweep before (reused)."""
    # the tally calls the unchecked engine bodies, so the budgets are checked
    # on every sweep: every set lies in [1..q] and is scanned at fold h + 1
    require_compositions(
        f"composition enumeration for h={h + 1}, k={k}", multiset_count(h + 1, k)
    )
    require_budget("sumset bitmap", (h + 1) * (q - 1) + 1, DEFAULT_MAX_BITMAP_BITS)
    work = {"patterns_classified": 0, "profiles": 0, "reused": 0}
    misses = _order_tally.cache_info().misses
    tally = _order_tally(q, k, h)
    if _order_tally.cache_info().misses > misses:
        work["patterns_classified"] = tally.evaluations
        work["profiles"] = tally.profiles
    else:
        work["reused"] = tally.evaluations
    instances = tally.bstar[h]
    if not instances:
        raise ValueError(
            f"no {k}-subset of [1..{q}] has B_h order exactly {h}: nothing to check"
        )
    mine = sorted(v for v in tally.violations if isinstance(v, kind) and v.h_star == h)
    return instances, mine, work


def verify_ortho(q: int, h: int) -> LemmaVerdict:
    """Sweep 4-subsets of [1..q] with B_h order exactly h: every pair of
    vectors colliding at order h+1 must have disjoint supports."""
    if q < 4:
        raise ValueError(f"need q >= 4, got {q}")
    if h < 1:
        raise ValueError(f"order must be >= 1, got h={h}")
    require_subsets(f"ortho sweep over C({q},4) subsets", math.comb(q, 4))
    started = time.perf_counter()
    examined, violations, work = _violations_by_set(q, 4, h, SupportOverlapViolation)
    return LemmaVerdict(
        lemma="ortho",
        # "sample" is a fixed 0 only so the verdict bytes stay those the
        # verify-all digest records
        params={"q": q, "h": h, "sample": 0},
        instances=examined,
        violations=tuple(violations),
        elapsed_s=time.perf_counter() - started,
        work=work,
    )


def verify_repno(q: int, k: int, h: int) -> LemmaVerdict:
    """Sweep k-subsets of [1..q] with B_h order exactly h: at order h+1 no sum
    may have more than floor((k+1)/2) representations.  A set with no sum of
    two there, where the order says one collided, raises InvariantError."""
    if k < 2:
        raise ValueError(f"set size must be >= 2, got k={k}")
    if q < k:
        raise ValueError(f"need q >= k, got q={q}, k={k}")
    if h < 1:
        raise ValueError(f"order must be >= 1, got h={h}")
    require_subsets(f"representation sweep over C({q},{k}) subsets", math.comb(q, k))
    started = time.perf_counter()
    examined, violations, work = _violations_by_set(q, k, h, RepBoundViolation)
    return LemmaVerdict(
        lemma="repno",
        params={"q": q, "k": k, "h": h, "bound": census._rep_bound(k)},
        instances=examined,
        violations=tuple(violations),
        elapsed_s=time.perf_counter() - started,
        work=work,
    )


class RealizedTotal(NamedTuple):
    """Witness that s equals composition . elements at degree h+1."""

    s: int
    composition: Composition
    elements: tuple[int, ...]


def realize_total(s: int, h: int, q: int) -> RealizedTotal:
    """Division-algorithm witness for s in [5h .. hq] as an (h+1)-fold dot
    product over a 4-subset of [1..q].

    Write s = a*h + b; when the remainder is zero shift to a-1 and b = h so b
    names a usable element.  If a == b the single element a carries all h+1
    summands, otherwise a carries h and b carries one.  The two remaining
    slots are filled with the smallest unused elements, which contribute
    nothing (weight zero).  Raises ValueError when no witness exists under
    this recipe (for example b > q).
    """
    if q < 7:
        raise ValueError(f"need q >= 7 for distinct fillers, got q={q}")
    if h < 1:
        raise ValueError(f"order must be >= 1, got h={h}")
    if not (5 * h <= s <= h * q):
        raise ValueError(f"s={s} outside claimed interval [{5 * h}, {h * q}]")
    a, b = divmod(s, h)
    if b == 0:
        a, b = a - 1, h
    if a > q:
        raise ValueError(f"quotient element {a} exceeds q={q}")
    if b > q:
        raise ValueError(f"remainder element {b} exceeds q={q}")
    weights = {a: h + 1} if a == b else {a: h, b: 1}
    elems = sorted(weights)
    filler = 1
    while len(elems) < 4:
        if filler not in weights:
            elems.append(filler)
        filler += 1
        if filler > q + 1:
            raise ValueError(f"fillers exhausted below q={q}")
    elems = tuple(sorted(elems))
    if elems[-1] > q:
        raise ValueError(f"witness element {elems[-1]} exceeds q={q}")
    composition = tuple(weights.get(e, 0) for e in elems)
    realized = sum(c * e for c, e in zip(composition, elems))
    if realized != s or sum(composition) != h + 1:
        raise InvariantError(
            f"recipe realized {realized} at degree {sum(composition)}, wanted {s}"
        )
    return RealizedTotal(s, composition, elems)


def verify_ddp(q: int, h: int) -> tuple[LemmaVerdict, DotProductRange]:
    """Check that every s in [5h .. hq] is realized as an (h+1)-fold dot
    product over a 4-subset of [1..q], by recipe and among all such dot
    products (_dot_products), and that the achievable range is
    [h+1 .. (h+1)q].
    """
    if q < 7:
        raise ValueError(f"need q >= 7, got {q}")
    if h < 1:
        raise ValueError(f"order must be >= 1, got h={h}")
    require_subsets(f"dot-product enumeration over C({q},4) subsets", math.comb(q, 4))
    started = time.perf_counter()
    lo, hi = 5 * h, h * q
    violations: list[DdpViolation] = []
    for s in range(lo, hi + 1):
        try:
            realize_total(s, h, q)
        except ValueError as exc:
            violations.append(DdpViolation("recipe", s, str(exc)))

    achievable = _dot_products(q, h)
    for s in range(lo, hi + 1):
        if s not in achievable:
            violations.append(DdpViolation("enumeration", s, "not attained by any (A, x)"))

    min_seen = min(achievable)
    max_seen = max(achievable)
    if min_seen != h + 1:
        violations.append(DdpViolation("range", min_seen, f"minimum should be {h + 1}"))
    if max_seen != (h + 1) * q:
        violations.append(DdpViolation("range", max_seen, f"maximum should be {(h + 1) * q}"))
    if max_seen > 4 * (h + 1) * q:
        violations.append(
            DdpViolation("range", max_seen, f"maximum exceeds 4(h+1)q = {4 * (h + 1) * q}")
        )
    verdict = LemmaVerdict(
        lemma="ddp",
        params={"q": q, "h": h},
        instances=hi - lo + 1,
        violations=tuple(violations),
        elapsed_s=time.perf_counter() - started,
        work={},
    )
    dot_range = DotProductRange(
        h=h,
        q=q,
        lo=lo,
        hi=hi,
        min_achievable=min_seen,
        max_achievable=max_seen,
        achievable=achievable,
    )
    return verdict, dot_range


def _dot_products(q: int, h: int) -> frozenset[int]:
    """Every x . A over compositions x of h + 1 into 4 parts and 4-subsets A
    of [1..q].

    x . A is a sum of h + 1 elements of [1..q] that uses at most four
    distinct values, those of A with nonzero weight.  Conversely, such a sum
    is an x . A: q >= 4 leaves room to pad the values it uses into a 4-subset
    of [1..q], with zero weight on the padding.  So reach[c], the bitmask of
    sums of c elements, starts from the empty sum and takes four rounds, each
    keeping every sum it already holds and adding m >= 1 copies of one value
    v in 1..q to the sums of c - m elements.  After r rounds reach holds the
    sums with at most r distinct values: four rounds, not more, because more
    would admit sums no 4-subset gives.  (The output cannot show the
    difference, since sums of two values already fill [h+1 .. (h+1)q].)
    """
    reach = [1] + [0] * (h + 1)
    for _ in range(4):
        grown = list(reach)
        for c in range(1, h + 2):
            for m in range(1, c + 1):
                for v in range(1, q + 1):
                    grown[c] |= reach[c - m] << (m * v)
        reach = grown
    mask = reach[h + 1]
    return frozenset(t for t in range(mask.bit_length()) if mask >> t & 1)


def verify_paircount(h_max: int) -> LemmaVerdict:
    """Compare the brute-force disjoint-support pair census for k=4 against
    the closed forms 5h^2+1 (all pairs) and 5h^2-5 (nontrivial pairs)."""
    if h_max < 1:
        raise ValueError(f"need h_max >= 1, got {h_max}")
    started = time.perf_counter()
    violations: list[PairCountViolation] = []
    for h in range(1, h_max + 1):
        pairs = disjoint_support_pairs(h, 4)
        expected_total = 5 * h * h + 1
        expected_nontrivial = 5 * h * h - 5
        if (
            pairs.total_disjoint_pairs != expected_total
            or pairs.nontrivial_pairs != expected_nontrivial
        ):
            violations.append(
                PairCountViolation(
                    h,
                    pairs.total_disjoint_pairs,
                    expected_total,
                    pairs.nontrivial_pairs,
                    expected_nontrivial,
                )
            )
    return LemmaVerdict(
        lemma="paircount",
        params={"h_max": h_max, "k": 4},
        instances=h_max,
        violations=tuple(violations),
        elapsed_s=time.perf_counter() - started,
        work={},
    )
