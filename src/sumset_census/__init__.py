"""Iterated sumsets of small integer sets: exact profiles, exhaustive
censuses of B_h orders and sumset sizes, an explicit one-collision family,
and finite verification of the collision-structure lemmas."""

from .compositions import (
    Composition,
    PairCensus,
    disjoint_support_pairs,
    enumerate_compositions,
    figurate_gap,
    multiset_count,
    tetrahedral,
)
from .census import (
    CensusReport,
    GapReport,
    SizeHistogram,
    count_pair_solutions,
    detect_gaps,
    run_census,
)
from .engine import (
    BhClassification,
    Collision,
    SetVector,
    SumsetProfile,
    classify,
    profile_fast,
    profile_naive,
    sumset_sizes,
)
from .family import (
    FamilyParams,
    MemberVerification,
    family_size,
    generate_family,
    member_at,
    member_record,
    verify_member,
)
from .guards import BudgetExceededError, InvariantError
from .plotting import histogram_svg
from .verifier import (
    DotProductRange,
    LemmaVerdict,
    realize_total,
    verify_ddp,
    verify_ortho,
    verify_paircount,
    verify_repno,
)

__version__ = "0.1.0"

__all__ = [
    "BhClassification",
    "BudgetExceededError",
    "CensusReport",
    "Collision",
    "Composition",
    "DotProductRange",
    "FamilyParams",
    "GapReport",
    "InvariantError",
    "LemmaVerdict",
    "MemberVerification",
    "PairCensus",
    "SetVector",
    "SizeHistogram",
    "SumsetProfile",
    "classify",
    "count_pair_solutions",
    "detect_gaps",
    "disjoint_support_pairs",
    "enumerate_compositions",
    "family_size",
    "figurate_gap",
    "generate_family",
    "histogram_svg",
    "member_at",
    "member_record",
    "multiset_count",
    "profile_fast",
    "profile_naive",
    "realize_total",
    "run_census",
    "sumset_sizes",
    "tetrahedral",
    "verify_ddp",
    "verify_member",
    "verify_ortho",
    "verify_paircount",
    "verify_repno",
]
