"""The result records of the public API are immutable NamedTuples.

Every record is built the way a caller gets it, through the public
functions; SetVector and FamilyParams check their fields however they are
built, _replace included.
"""

import pickle

import pytest

import sumset_census as sc


@pytest.fixture(scope="module")
def records():
    report = sc.run_census(12, 4, 4)
    ddp, dot_range = sc.verify_ddp(10, 2)
    params = sc.FamilyParams(2, 8000)
    member = sc.member_at(params, 0)
    return {
        "PairCensus": sc.disjoint_support_pairs(3, 4),
        "SumsetProfile": sc.profile_naive((1, 2, 8, 10), 3),
        "BhClassification": sc.classify((1, 2, 8, 10)),
        "SizeHistogram": report.histograms[3],
        "GapReport": report.gaps[3],
        "CensusReport": report,
        "LemmaVerdict": sc.verify_ortho(20, 2),
        "DdpVerdict": ddp,
        "DotProductRange": dot_range,
        "MemberVerification": sc.verify_member(member, 2),
        "SetVector": member,
        "FamilyParams": params,
    }


NAMES = [
    "PairCensus",
    "SumsetProfile",
    "BhClassification",
    "SizeHistogram",
    "GapReport",
    "CensusReport",
    "LemmaVerdict",
    "DdpVerdict",
    "DotProductRange",
    "MemberVerification",
    "SetVector",
    "FamilyParams",
]


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_set(records, name):
    record = records[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", NAMES)
def test_asdict_keys_are_the_fields(records, name):
    record = records[name]
    as_dict = record._asdict()
    assert list(as_dict) == list(record._fields)
    assert tuple(as_dict.values()) == record
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")


@pytest.mark.parametrize("name", NAMES)
def test_records_pickle(records, name):
    record = records[name]
    assert pickle.loads(pickle.dumps(record)) == record


def test_verdicts_without_work_do_not_share_one_dict():
    ddp = sc.verify_ddp(10, 2)[0]
    again = sc.verify_ddp(10, 3)[0]
    paircount = sc.verify_paircount(2)
    assert ddp.work == again.work == paircount.work == {}
    assert ddp.work is not again.work
    assert ddp.work is not paircount.work
    ddp.work["seen"] = 1
    assert paircount.work == {} and again.work == {}


def test_record_reprs():
    assert repr(sc.FamilyParams(3, 27000)) == "FamilyParams(h=3, q=27000)"
    assert repr(sc.SetVector((1, 2, 8), 10)) == "SetVector(elements=(1, 2, 8), q=10)"
    assert repr(sc.disjoint_support_pairs(2, 4)) == (
        "PairCensus(h=2, k=4, total_disjoint_pairs=21, nontrivial_pairs=15)"
    )


@pytest.mark.parametrize(
    "elements,q,message",
    [
        ((5,), 10, "a set vector needs at least 2 elements, got (5,)"),
        ((3, 2), 10, "elements must be strictly increasing, got (3, 2)"),
        ((2, 2), 10, "repeated element in (2, 2)"),
        ((0, 2), 10, "elements must be >= 1, got 0"),
        ((1, 2.5), 10, "elements must be integers, got 2.5"),
        ((1, 12), 10, "largest element 12 exceeds bound q=10"),
    ],
)
def test_set_vector_refusals(elements, q, message):
    with pytest.raises(ValueError) as refused:
        sc.SetVector(elements, q)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        sc.SetVector(elements=elements, q=q)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        sc.SetVector((1, 2), 10)._replace(elements=elements, q=q)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "h,q,message",
    [
        (1, 100, "target order must be >= 2, got h=1"),
        (2, 0, "bound must be >= 1, got q=0"),
        (0, 0, "target order must be >= 2, got h=0"),
    ],
)
def test_family_params_refusals(h, q, message):
    with pytest.raises(ValueError) as refused:
        sc.FamilyParams(h, q)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        sc.FamilyParams(h=h, q=q)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        sc.FamilyParams(2, 100)._replace(h=h, q=q)
    assert str(refused.value) == message
