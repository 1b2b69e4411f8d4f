"""Resource guards shared by the enumeration routines.

Every exhaustive sweep in this package is bounded up front: the number of
subsets a census may visit and the number of compositions a profile may
enumerate are checked against budgets before any work starts.  This module
is the only place a limit is set.  Each sweep makes one call naming its work
and its count, require_subsets or require_compositions, which reads the
limit from SUMSET_MAX_SUBSETS or SUMSET_MAX_COMPOSITIONS at call time; the
sumset bitmap cap DEFAULT_MAX_BITMAP_BITS is fixed.  Exceeding a budget is
always a loud failure that names the required budget, never a silent
truncation.
"""

from __future__ import annotations

import os

MAX_SUBSETS_ENV = "SUMSET_MAX_SUBSETS"
MAX_COMPOSITIONS_ENV = "SUMSET_MAX_COMPOSITIONS"

DEFAULT_MAX_SUBSETS = 100_000_000
DEFAULT_MAX_COMPOSITIONS = 10_000_000

# A dense sumset bitmap spans h*(max(A)-min(A))+1 cells; this cap keeps a
# single profile call well under ~12 MB.
DEFAULT_MAX_BITMAP_BITS = 100_000_000


class BudgetExceededError(RuntimeError):
    """Raised when a sweep would exceed its subset/composition/memory budget."""

    def __init__(self, what: str, required: int, limit: int, env: str | None = None):
        self.what = what
        self.required = required
        self.limit = limit
        hint = f" (raise it via {env})" if env else ""
        super().__init__(
            f"{what} requires budget {required}, limit is {limit}{hint}"
        )


class InvariantError(RuntimeError):
    """Raised when an internal consistency check of a computation fails.

    Examples: the bitmap kernel and composition enumeration disagree on a
    sumset size, a deficit vanishes at a larger fold, or merged shard tallies
    do not add up to the subsets swept.  This always means a bug, never a
    finding about sumsets.
    """


def _env_budget(env: str, default: int) -> int:
    raw = os.environ.get(env)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{env} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{env} must be positive, got {value}")
    return value


def require_budget(what: str, required: int, limit: int, env: str | None = None) -> None:
    """Refuse work over limit; env names the variable that set the limit."""
    if required > limit:
        raise BudgetExceededError(what, required, limit, env)


def require_subsets(what: str, required: int) -> None:
    """Refuse a sweep over more subsets than SUMSET_MAX_SUBSETS allows."""
    limit = _env_budget(MAX_SUBSETS_ENV, DEFAULT_MAX_SUBSETS)
    require_budget(what, required, limit, MAX_SUBSETS_ENV)


def require_compositions(what: str, required: int) -> None:
    """Refuse enumerating more compositions than SUMSET_MAX_COMPOSITIONS allows."""
    limit = _env_budget(MAX_COMPOSITIONS_ENV, DEFAULT_MAX_COMPOSITIONS)
    require_budget(what, required, limit, MAX_COMPOSITIONS_ENV)
