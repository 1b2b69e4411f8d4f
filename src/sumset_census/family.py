"""Explicit family of 4-element sets with exactly one collision mechanism.

Members are A = {a, b, c, d} inside [1..q] with c = (h+1)b - ha, so that
h*a + c = (h+1)*b is a built-in collision at order h+1, and d parked in the
top hundredth of [1..q] so far from the rest that it never participates in an
unplanned coincidence.  The parameter ranges

    a in [1 .. floor(q / (10h)^3)]
    b in [3ha .. floor(q / (10h)^2)]
    d in [ceil(99q/100) .. q]

keep a < b < c < d with (h+1)c < d and make every member a B_h-set whose only
collisions, through order 2h-1, are the forced ones: the colliding vector
pairs all differ by +/-(h, -(h+1), 1, 0), and the deficit at order h+step is
exactly tetrahedral(step).  Enumeration is a pure indexed sequence, so a
member can be decoded from its index and sampling is reproducible from a
seed.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from .compositions import multiset_count, tetrahedral
from .engine import (
    SetLike,
    SetVector,
    elements_of,
    first_deficit,
    profile_naive,
    sumset_sizes,
)
from .guards import InvariantError


class FamilyParams(NamedTuple("FamilyParams", [("h", int), ("q", int)])):
    """Target order h >= 2 and ambient bound q; ranges derive from these."""

    __slots__ = ()

    def __new__(cls, h: int, q: int) -> "FamilyParams":
        if h < 2:
            raise ValueError(f"target order must be >= 2, got h={h}")
        if q < 1:
            raise ValueError(f"bound must be >= 1, got q={q}")
        return super().__new__(cls, h, q)

    # _replace builds through _make, which would skip the checks of __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def a_max(self) -> int:
        return self.q // (10 * self.h) ** 3

    @property
    def b_max(self) -> int:
        return self.q // (10 * self.h) ** 2

    @property
    def d_min(self) -> int:
        return -(-99 * self.q // 100)

    @property
    def d_count(self) -> int:
        return max(0, self.q - self.d_min + 1)


def family_size(params: FamilyParams) -> int:
    """Member count in closed form, no enumeration.

    Sum over a of the b-range length times the d-range length; zero whenever
    q is too small for any a (q < (10h)^3).
    """
    per_d = params.d_count
    total = 0
    for a in range(1, params.a_max + 1):
        total += max(0, params.b_max - 3 * params.h * a + 1)
    return total * per_d


def member_at(params: FamilyParams, index: int) -> SetVector:
    """Decode the index-th member (a ascending, then b, then d)."""
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    h, q = params.h, params.q
    per_d = params.d_count
    remaining = index
    for a in range(1, params.a_max + 1):
        n_b = max(0, params.b_max - 3 * h * a + 1)
        block = n_b * per_d
        if remaining < block:
            b = 3 * h * a + remaining // per_d
            d = params.d_min + remaining % per_d
            c = (h + 1) * b - h * a
            if not (a < b < c < d <= q):
                raise InvariantError(f"malformed member ({a},{b},{c},{d}) at index {index}")
            return SetVector((a, b, c, d), q)
        remaining -= block
    raise ValueError(f"index {index} out of range for family of size {family_size(params)}")


def generate_family(
    params: FamilyParams, limit: int | None = None, seed: int = 0
) -> Iterator[SetVector]:
    """Yield members in index order; sample exactly limit of them when larger.

    Sampling is uniform without replacement, reproducible from the seed, and
    emitted in index order.
    """
    total = family_size(params)
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit is None or total <= limit:
        indices: Iterator[int] | list[int] = range(total)
    else:
        indices = sorted(random.Random(seed).sample(range(total), limit))
    for i in indices:
        yield member_at(params, i)


class MemberVerification(NamedTuple):
    """Clause-by-clause verdict for one claimed family member.

    failures names every violated clause; an empty tuple means the member
    shows exactly the advertised collision structure.
    """

    elements: tuple[int, ...]
    h: int
    h_star_ok: bool
    deficits_ok: bool
    trivial_only_ok: bool
    separation_ok: bool
    deficits: tuple[int, ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def member_steps(h: int, max_step: int) -> range:
    """Steps 1..max_step of a member check at target order h.

    The family's claims reach order 2h - 1 only, so max_step must lie in
    1..h-1; anything else raises ValueError rather than checking fewer steps.
    """
    if max_step < 1:
        raise ValueError(f"max_step must be >= 1, got {max_step}")
    if max_step > h - 1:
        raise ValueError(
            f"max_step {max_step} exceeds h - 1 = {h - 1}: the family's collision "
            f"structure is claimed only through order 2h - 1 = {2 * h - 1}"
        )
    return range(1, max_step + 1)


def verify_member(a: SetLike, h: int, max_step: int = 1) -> MemberVerification:
    """Check a 4-element set against the family's collision-structure claims.

    Clauses, for steps 1..max_step (at most h - 1, see member_steps):
      h_star: the B_h order is exactly h (full sizes through h, deficit at h+1)
      deficits: deficit at order h+step equals tetrahedral(step) exactly
      trivial_only: every colliding pair differs by +/-(h, -(h+1), 1, 0)
      separation: (h+1)*c < d for the sorted elements {a, b, c, d}

    The kernel sizes and the collision scans cross-check each other: a scan
    at fold h+step whose size differs from the kernel's raises
    InvariantError, as in the census.
    """
    elems = elements_of(a)
    if len(elems) != 4:
        raise ValueError(f"family members have 4 elements, got {elems}")
    if h < 2:
        raise ValueError(f"target order must be >= 2, got h={h}")
    steps = member_steps(h, max_step)
    top = h + steps[-1]
    sizes = sumset_sizes(elems, top)

    h_star_ok = first_deficit(elems, sizes) == h + 1

    deficits = tuple(
        multiset_count(h + step, 4) - sizes[h + step - 1] for step in steps
    )
    deficits_ok = all(d == tetrahedral(step) for step, d in zip(steps, deficits))

    signature = (h, -(h + 1), 1, 0)
    trivial = {signature, tuple(-v for v in signature)}
    trivial_only_ok = True
    for step in steps:
        profile = profile_naive(elems, h + step)
        if profile.size != sizes[h + step - 1]:
            raise InvariantError(
                f"kernel size {sizes[h + step - 1]} != enumerated size "
                f"{profile.size} at fold {h + step} of {elems}"
            )
        trivial_only_ok = trivial_only_ok and all(
            len(collision.vectors) == 2
            and tuple(u - v for u, v in zip(*collision.vectors)) in trivial
            for collision in profile.collisions
        )

    separation_ok = (h + 1) * elems[2] < elems[3]

    failures = tuple(
        name
        for name, ok in [
            ("h_star", h_star_ok),
            ("deficits", deficits_ok),
            ("trivial_only", trivial_only_ok),
            ("separation", separation_ok),
        ]
        if not ok
    )
    return MemberVerification(
        elements=elems,
        h=h,
        h_star_ok=h_star_ok,
        deficits_ok=deficits_ok,
        trivial_only_ok=trivial_only_ok,
        separation_ok=separation_ok,
        deficits=deficits,
        failures=failures,
    )


def member_record(member: SetVector, verification: MemberVerification) -> dict:
    """JSON-ready record for one member and its verification."""
    a, b, c, d = member.elements
    return {
        "a": a,
        "b": b,
        "c": c,
        "d": d,
        "h": verification.h,
        "checks": {
            "h_star": verification.h_star_ok,
            "deficits": verification.deficits_ok,
            "trivial_only": verification.trivial_only_ok,
            "separation": verification.separation_ok,
        },
    }
