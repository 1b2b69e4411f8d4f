import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_census import (
    FamilyParams,
    InvariantError,
    cli,
    family,
    family_size,
    generate_family,
    member_at,
    member_record,
    verify_member,
)

from oracles import family_enumeration


class TestFamilyParams:
    def test_derived_ranges(self):
        p = FamilyParams(2, 8000)
        assert (p.a_max, p.b_max, p.d_min, p.d_count) == (1, 20, 7920, 81)
        p = FamilyParams(3, 27000)
        assert (p.a_max, p.b_max, p.d_min, p.d_count) == (1, 30, 26730, 271)

    def test_d_min_is_ceiling(self):
        # 99*101/100 = 99.99 must round up
        assert FamilyParams(2, 101).d_min == 100
        assert FamilyParams(2, 100).d_min == 99

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            FamilyParams(1, 100)
        with pytest.raises(ValueError):
            FamilyParams(2, 0)


class TestFamilySize:
    @pytest.mark.parametrize(
        "h,q,expected",
        [(2, 8000, 1215), (2, 16000, 10304), (3, 27000, 5962)],
    )
    def test_frozen_counts(self, h, q, expected):
        assert family_size(FamilyParams(h, q)) == expected

    def test_empty_below_threshold(self):
        # no admissible a until q reaches (10h)^3
        assert family_size(FamilyParams(2, 7999)) == 0
        assert family_size(FamilyParams(3, 26999)) == 0
        assert family_size(FamilyParams(2, 8000)) == 1215

    @given(h=st.integers(2, 4), q=st.integers(1, 20000))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_oracle(self, h, q):
        assert family_size(FamilyParams(h, q)) == len(family_enumeration(h, q))


class TestMemberAt:
    def test_first_and_last(self):
        p = FamilyParams(2, 8000)
        assert member_at(p, 0).elements == (1, 6, 16, 7920)
        assert member_at(p, 1214).elements == (1, 20, 58, 8000)
        assert member_at(FamilyParams(3, 27000), 0).elements == (1, 9, 33, 26730)

    def test_out_of_range(self):
        p = FamilyParams(2, 8000)
        with pytest.raises(ValueError):
            member_at(p, 1215)
        with pytest.raises(ValueError):
            member_at(p, -1)

    def test_enumeration_matches_oracle(self):
        p = FamilyParams(2, 8000)
        got = [m.elements for m in generate_family(p)]
        assert got == family_enumeration(2, 8000)

    @given(index=st.integers(0, 10303))
    @settings(max_examples=80, deadline=None)
    def test_members_are_well_formed(self, index):
        p = FamilyParams(2, 16000)
        m = member_at(p, index)
        a, b, c, d = m.elements
        assert a < b < c < d <= p.q
        assert c == 3 * b - 2 * a
        assert 3 * a <= b <= p.b_max and a <= p.a_max and d >= p.d_min
        assert 2 * a + c == 3 * b  # the built-in collision
        assert 3 * c < d  # separation


class TestMalformedMember:
    @pytest.fixture
    def d_min_below_c(self, monkeypatch):
        monkeypatch.setattr(FamilyParams, "d_min", property(lambda self: 2))

    def test_raises_invariant_error(self, d_min_below_c):
        with pytest.raises(InvariantError, match="malformed member"):
            member_at(FamilyParams(2, 8000), 0)

    def test_cli_exits_4(self, d_min_below_c, capsys):
        # members are emitted in index order, so index 0 comes first
        assert cli.main(["family", "--h", "2", "--q", "8000"]) == cli.EXIT_INVARIANT == 4
        assert "malformed member" in capsys.readouterr().err


class TestGenerateFamily:
    def test_sampling_is_reproducible(self):
        p = FamilyParams(2, 16000)
        first = [m.elements for m in generate_family(p, limit=50, seed=123)]
        second = [m.elements for m in generate_family(p, limit=50, seed=123)]
        assert first == second
        assert len(first) == 50
        indices = [family_enumeration(2, 16000).index(e) for e in first]
        assert indices == sorted(indices)  # emitted in index order

    def test_limit_above_total_yields_everything(self):
        p = FamilyParams(2, 8000)
        assert len(list(generate_family(p, limit=10**9))) == 1215

    def test_limit_zero_and_negative(self):
        p = FamilyParams(2, 8000)
        assert list(generate_family(p, limit=0)) == []
        with pytest.raises(ValueError):
            list(generate_family(p, limit=-1))


class TestVerifyMember:
    def test_true_member_passes(self):
        v = verify_member((1, 6, 16, 7920), 2)
        assert v.passed
        assert v.failures == ()
        assert v.deficits == (1,)
        assert v.h_star_ok and v.deficits_ok and v.trivial_only_ok and v.separation_ok

    def test_deeper_steps_on_higher_order_member(self):
        v = verify_member((1, 9, 33, 26730), 3, max_step=2)
        assert v.passed
        assert v.deficits == (1, 4)

    def test_worked_example_is_not_a_member(self):
        # right order and deficit, but the collision is not the forced one
        # and the top element is far too close
        v = verify_member((1, 2, 8, 10), 2)
        assert v.h_star_ok and v.deficits_ok
        assert v.failures == ("trivial_only", "separation")

    def test_tampered_middle_element_breaks_the_collision(self):
        v = verify_member((1, 6, 17, 7920), 2)
        assert v.failures == ("h_star", "deficits")
        assert not v.passed

    def test_tampered_top_element_breaks_separation(self):
        v = verify_member((1, 6, 16, 40), 2)
        assert "separation" in v.failures

    def test_sampled_members_pass(self):
        p = FamilyParams(2, 16000)
        for m in generate_family(p, limit=12, seed=7):
            assert verify_member(m, 2).passed

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            verify_member((1, 2, 3), 2)
        with pytest.raises(ValueError):
            verify_member((1, 6, 16, 7920), 1)
        with pytest.raises(ValueError):
            verify_member((1, 6, 16, 7920), 2, max_step=0)
        with pytest.raises(ValueError, match="integers"):
            verify_member((1.0, 6, 16, 7920), 2)

    @pytest.mark.parametrize("fold", [4, 5])
    def test_kernel_and_scan_must_agree(self, monkeypatch, fold):
        # a kernel one short at fold h + step is caught by that step's scan
        real = family.sumset_sizes

        def short(elems, h):
            sizes = real(elems, h)
            sizes[fold - 1] -= 1
            return sizes

        monkeypatch.setattr(family, "sumset_sizes", short)
        with pytest.raises(InvariantError, match=f"enumerated size .* at fold {fold} of"):
            verify_member((1, 9, 33, 26730), 3, max_step=2)

    @pytest.mark.parametrize("h,max_step", [(2, 2), (2, 5), (3, 3)])
    def test_steps_past_order_2h_minus_1_are_refused(self, h, max_step):
        member = next(generate_family(FamilyParams(h, 27000), limit=1))
        with pytest.raises(ValueError, match=f"order 2h - 1 = {2 * h - 1}"):
            verify_member(member, h, max_step=max_step)


class TestMemberRecord:
    def test_record_shape(self):
        p = FamilyParams(2, 8000)
        m = member_at(p, 0)
        rec = member_record(m, verify_member(m, 2))
        assert rec == {
            "a": 1,
            "b": 6,
            "c": 16,
            "d": 7920,
            "h": 2,
            "checks": {
                "h_star": True,
                "deficits": True,
                "trivial_only": True,
                "separation": True,
            },
        }
