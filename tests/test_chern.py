from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bundlecalc import (
    ChernData,
    DomainError,
    direct_sum,
    discriminant,
    dual,
    from_truncated,
    secondary_slope,
    slope,
    sym_power,
    sym_rank,
    tensor,
    truncated_ch,
    wedge_power,
)
from bundlecalc.oracles import power_by_roots

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def bundle(rank, deg=0, c1sq=0, c2=0):
    return ChernData(rank, F(deg), F(c1sq), F(c2))


chern_records = st.builds(
    bundle, st.integers(min_value=1, max_value=6), rationals, rationals, rationals
)


class TestSlopeAndDiscriminant:
    def test_slope_examples(self):
        assert slope(bundle(2, 0, 7, 1)) == 0
        assert slope(bundle(3, 6)) == 2
        assert slope(bundle(4, -2)) == F(-1, 2)

    def test_discriminant_examples(self):
        assert discriminant(bundle(2, 0, 0, 5)) == 20
        assert discriminant(bundle(1, 3, 9, 0)) == 0
        assert discriminant(bundle(3, 0, 1, 2)) == 10

    def test_slope_rejects_zero_object(self):
        with pytest.raises(DomainError):
            slope(ChernData.zero())


class TestSecondarySlope:
    def test_examples(self):
        assert secondary_slope(bundle(2, 0, 0, 4)) == 2
        assert secondary_slope(bundle(1)) == 0
        # tensor of c2 = a and c2 = b rank-2 bundles, a = 1 and b = 3
        prod = tensor(bundle(2, 0, 0, 1), bundle(2, 0, 0, 3))
        assert prod == bundle(4, 0, 0, 8)
        assert secondary_slope(prod) == 2

    def test_undefined_outside_c1_zero(self):
        with pytest.raises(DomainError, match="c1 = 0"):
            secondary_slope(bundle(2, 1))
        with pytest.raises(DomainError):
            secondary_slope(bundle(2, 0, 4))

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        rationals,
        rationals,
    )
    def test_additivity_under_tensor(self, ra, rb, ca, cb):
        v, w = bundle(ra, 0, 0, ca), bundle(rb, 0, 0, cb)
        assert secondary_slope(tensor(v, w)) == secondary_slope(v) + secondary_slope(w)


class TestTruncatedRoundTrip:
    @given(chern_records)
    def test_round_trip_is_identity(self, e):
        assert from_truncated(truncated_ch(e), e.c1sq) == e

    def test_ch2_formula(self):
        ch = truncated_ch(bundle(2, 3, 5, 1))
        assert (ch.ch0, ch.ch1, ch.ch2) == (2, 3, F(3, 2))


class TestDirectSum:
    def test_trivial_bundles(self):
        assert direct_sum(bundle(1), bundle(1)) == bundle(2)

    def test_c1_zero_summands(self):
        assert direct_sum(bundle(2, 0, 0, 1), bundle(2, 0, 0, 3)) == bundle(4, 0, 0, 4)

    def test_opposite_line_bundles_need_cross(self):
        a, b = bundle(1, 2, 4), bundle(1, -2, 4)
        with pytest.raises(DomainError, match="cross"):
            direct_sum(a, b)
        # O(D) + O(-D) with D.D = 4: cross pairing is -4
        assert direct_sum(a, b, F(-4)) == bundle(2, 0, 0, -4)
        # declared orthogonal classes instead
        assert direct_sum(a, b, F(0)) == bundle(2, 0, 8, 0)

    @given(chern_records, chern_records, rationals)
    def test_truncated_character_is_additive(self, a, b, x):
        total = truncated_ch(direct_sum(a, b, x))
        cha, chb = truncated_ch(a), truncated_ch(b)
        assert total.ch0 == cha.ch0 + chb.ch0
        assert total.ch1 == cha.ch1 + chb.ch1
        assert total.ch2 == cha.ch2 + chb.ch2

    def test_zero_object_is_neutral(self):
        e = bundle(3, 1, 1, 7)
        assert direct_sum(ChernData.zero(), e) == e


class TestTensor:
    def test_unit_of_the_monoid(self):
        e = bundle(5, 3, 9, 11)
        assert tensor(e, bundle(1)) == e

    def test_rank_two_times_rank_two(self):
        assert tensor(bundle(2, 0, 0, 1), bundle(2, 0, 0, 1)) == bundle(4, 0, 0, 4)

    def test_twist_kills_c1(self):
        # E with det 2n Theta twisted by O(-n Theta); cross = -2n^2
        for n, c in [(1, 11), (3, 7)]:
            e = bundle(2, 2 * n, 4 * n * n, c)
            line = bundle(1, -n, n * n)
            assert tensor(e, line, F(-2 * n * n)) == bundle(2, 0, 0, c - n * n)

    def test_cross_required_when_both_sides_curved(self):
        with pytest.raises(DomainError, match="cross"):
            tensor(bundle(2, 1), bundle(2, 1))

    @given(chern_records, chern_records, rationals)
    def test_graded_multiplicativity(self, a, b, x):
        cha, chb = truncated_ch(a), truncated_ch(b)
        ch = truncated_ch(tensor(a, b, x))
        assert ch.ch0 == cha.ch0 * chb.ch0
        assert ch.ch1 == cha.ch0 * chb.ch1 + chb.ch0 * cha.ch1
        assert ch.ch2 == cha.ch0 * chb.ch2 + chb.ch0 * cha.ch2 + x

    def test_zero_object_absorbs(self):
        assert tensor(ChernData.zero(), bundle(3, 1, 1, 7)) == ChernData.zero()


class TestDual:
    def test_examples(self):
        assert dual(bundle(2, 0, 0, 5)) == bundle(2, 0, 0, 5)
        assert dual(bundle(1, 3, 9)) == bundle(1, -3, 9)

    @given(chern_records)
    def test_involution_and_slope(self, e):
        assert dual(dual(e)) == e
        assert slope(dual(e)) == -slope(e)


class TestPowers:
    def test_sym_examples(self):
        assert sym_power(bundle(2, 0, 0, 1), 2) == bundle(3, 0, 0, 4)
        e = bundle(3, 1, 1, 7)
        assert sym_power(e, 0) == bundle(1)
        assert sym_power(e, 1) == e

    def test_wedge_examples(self):
        assert wedge_power(bundle(2, 5, 25, 3), 2) == bundle(1, 5, 25)
        assert wedge_power(bundle(2, 1, 1, 1), 3) == ChernData.zero()
        assert wedge_power(bundle(2, 1, 1, 1), 3).is_zero_object

    def test_rank_one_powers_follow_the_virtual_reduction(self):
        # Sym^n of an ideal-sheaf-like class (1, d, s, c) keeps the c2 data
        e = bundle(1, 2, 4, 3)
        assert sym_power(e, 2) == bundle(1, 4, 16, 9)
        assert sym_power(e, 2) == power_by_roots(e, 2, "sym")

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_spot_oracle_agreement(self, rank, n):
        e = bundle(rank, 2, 3, -1)
        assert sym_power(e, n) == power_by_roots(e, n, "sym")
        assert wedge_power(e, n) == power_by_roots(e, n, "wedge")

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_powers_of_the_zero_object(self, n):
        # Sym^0 and Lambda^0 are the trivial line; higher powers are zero
        expected = bundle(1) if n == 0 else ChernData.zero()
        assert sym_power(ChernData.zero(), n) == expected
        assert wedge_power(ChernData.zero(), n) == expected

    def test_sym_rank_examples(self):
        assert sym_rank(2, 384064) == 384065
        assert sym_rank(3, 2) == 6
        assert sym_rank(1, 17) == 1

    def test_sym_rank_matches_sym_power_rank(self):
        e = bundle(3, 0, 0, 2)
        for n in range(5):
            assert sym_power(e, n).rank == sym_rank(3, n)


class TestValidation:
    def test_float_rejected(self):
        with pytest.raises(DomainError, match="float"):
            ChernData(2, 0.5, F(0), F(0))

    def test_bad_rank(self):
        with pytest.raises(DomainError):
            ChernData(-1)

    def test_zero_object_must_be_clean(self):
        with pytest.raises(DomainError):
            ChernData(0, F(1))

    def test_json_round_trip(self):
        e = bundle(2, F(1, 2), -3, 5)
        assert ChernData.from_json(e.to_json()) == e
        with pytest.raises(DomainError):
            ChernData.from_json({"rank": "2", "bogus": "1"})
