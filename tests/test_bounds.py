import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bundlecalc import (
    AmbientSpace,
    CapExceededError,
    ChernData,
    DomainError,
    JordanMode,
    MissingConstantError,
    PrecisionError,
    discriminant,
    dual,
    ell_bound,
    jordan_constant,
    langer_index,
    restriction_report,
    schur_surd_multiple,
    sym_rank,
    tensor,
)
from bundlecalc import bounds
from bundlecalc.oracles import surd_power_difference


def surface(m=1, beta=None, assume=False):
    return AmbientSpace(2, m, beta or {}, assume_beta_zero=assume)


class TestLangerIndex:
    def test_rank_two_fixture(self):
        e = ChernData(2, F(0), F(0), F(5))
        assert langer_index(e, surface(beta={2: F(0)}), F(20)) == 10

    def test_zero_discriminant(self):
        e = ChernData(2)
        assert langer_index(e, surface(beta={2: F(0)}), F(0)) == 0

    def test_rank_three_with_beta(self):
        e = ChernData(3, F(0), F(1), F(2))
        assert langer_index(e, surface(m=2, beta={3: F(1, 2)}), F(12)) == 8

    def test_line_bundle_rejected(self):
        with pytest.raises(DomainError, match="rank"):
            langer_index(ChernData(1), surface(assume=True), F(0))

    def test_missing_beta(self):
        with pytest.raises(MissingConstantError):
            langer_index(ChernData(2), surface(), F(0))

    def test_assume_beta_zero_flag(self):
        assert langer_index(ChernData(2), surface(assume=True), F(20)) == 10

    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=1, max_value=5),
        st.fractions(min_value=0, max_value=9, max_denominator=6),
        st.fractions(min_value=-40, max_value=40, max_denominator=9),
        st.fractions(min_value=0, max_value=25, max_denominator=9),
    )
    def test_monotone_in_delta(self, r, m, beta, delta, bump):
        amb = surface(m=m, beta={r: beta})
        e = ChernData(r)
        assert langer_index(e, amb, delta + bump) >= langer_index(e, amb, delta)


class TestJordanConstant:
    def test_schur_r2_is_a_difference_of_powers(self):
        assert jordan_constant(2, JordanMode.schur()) == 5 ** 8 - 3 ** 8

    def test_schur_r1_needs_a_ceiling(self):
        # (sqrt8+1)^2 - (sqrt8-1)^2 = 4 sqrt8 = sqrt128, between 11 and 12
        assert jordan_constant(1, JordanMode.schur()) == 12

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_schur_bracketing(self, r):
        j = jordan_constant(r, JordanMode.schur())
        b = schur_surd_multiple(r)
        u, b_oracle = surd_power_difference(r)
        assert u == 0 and b == b_oracle
        assert (j - 1) ** 2 < 8 * r * b * b <= j * j

    @pytest.mark.parametrize("r,root", [(2, 4), (8, 8)])
    def test_schur_exact_when_8r_is_a_perfect_square(self, r, root):
        n = 2 * r * r
        expected = (root + 1) ** n - (root - 1) ** n
        assert jordan_constant(r, JordanMode.schur()) == expected

    def test_explicit_pass_through(self):
        assert jordan_constant(9, JordanMode.explicit(60)) == 60
        with pytest.raises(DomainError):
            JordanMode.explicit(0)

    def test_weisfeiler_exact_paths(self):
        # r = 1: the power is 1, so J = 2! regardless of a, b
        assert jordan_constant(1, JordanMode.weisfeiler(F(3), F(-7))) == 2
        # a = 0 with integral b: plain integer arithmetic
        assert jordan_constant(3, JordanMode.weisfeiler(0, 2)) == math.factorial(4) * 9
        assert jordan_constant(2, JordanMode.weisfeiler(0, -1)) == 3

    def test_weisfeiler_interval_path(self):
        # 6 * 2^(ln2 / 2) = 7.629..., so the ceiling is 8
        assert jordan_constant(2, JordanMode.weisfeiler(F(1, 2), 0)) == 8

    def test_weisfeiler_exact_integer_cannot_separate(self):
        # (4+1)! * 4^(1/2) = 240 exactly: endpoints always straddle it
        with pytest.raises(PrecisionError):
            jordan_constant(4, JordanMode.weisfeiler(0, F(1, 2)))

    def test_weisfeiler_requires_parameters(self):
        with pytest.raises(DomainError):
            JordanMode("weisfeiler")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
class TestSchurDigitCheck:
    """J(41) has 4308 digits, past the default 4300-digit int-to-str limit:
    it is refused before the binomial sum runs."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        surd = bounds.schur_surd_multiple
        monkeypatch.setattr(bounds, "schur_surd_multiple", lambda r: calls.append(r) or surd(r))
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            yield calls
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("r", [41, 46, 47, 81, 10 ** 60])
    def test_refused_before_the_sum(self, spy, r):
        with pytest.raises(CapExceededError,
                           match="^number has more than 4300 decimal digits, the output limit$"):
            jordan_constant(r, JordanMode.schur())
        assert spy == []

    def test_the_largest_that_fits_is_computed(self, spy):
        assert len(str(jordan_constant(40, JordanMode.schur()))) == 4084
        assert spy == [40]

    def test_no_limit_no_check(self, spy):
        sys.set_int_max_str_digits(0)
        assert len(str(jordan_constant(41, JordanMode.schur()))) == 4308
        assert spy == [41]


class TestEllBound:
    def test_schur_headline_value(self):
        amb = surface(assume=True)
        value = ell_bound(2, F(1), amb, JordanMode.schur())
        assert value == 384064 * 384065

    def test_zero_c2(self):
        assert ell_bound(2, F(0), surface(assume=True), JordanMode.schur()) == 0

    def test_miniature(self):
        assert ell_bound(2, F(1), surface(assume=True), JordanMode.explicit(1)) == 2

    def test_degenerate_rank_one(self):
        with pytest.raises(DomainError, match="degenerate"):
            ell_bound(1, F(1), surface(assume=True), JordanMode.explicit(5))

    def test_missing_beta_t(self):
        with pytest.raises(MissingConstantError):
            ell_bound(2, F(1), surface(), JordanMode.explicit(1))

    @pytest.mark.parametrize("r,c", [(2, F(1)), (3, F(2)), (2, F(7, 3))])
    def test_normalized_at_most_as_printed(self, r, c):
        amb = surface(assume=True)
        mode = JordanMode.explicit(2)
        t = sym_rank(r, 2)
        assert r <= t
        # exact rational comparison before flooring
        lhs = F(t - 1, t) * 2 * t * c
        rhs = F(t - 1, r) * 2 * t * c
        assert lhs <= rhs
        assert ell_bound(r, c, amb, mode, "normalized") <= ell_bound(r, c, amb, mode, "as_printed")

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            ell_bound(2, F(1), surface(assume=True), JordanMode.explicit(1), "fixed")


class TestRestrictionReport:
    def test_endomorphism_summand(self):
        e = ChernData(2, F(0), F(0), F(1))
        end = tensor(e, dual(e))
        assert end == ChernData(4, F(0), F(0), F(4))
        assert discriminant(end) == 32
        report = restriction_report([end], surface(assume=True))
        assert report.ell == 24
        assert report.summands[0].index == 24

    def test_line_bundle_summands_are_skipped(self):
        with pytest.raises(DomainError, match="rank >= 2"):
            restriction_report([ChernData(1)], surface(assume=True))

    def test_maximum_over_summands(self):
        a = ChernData(2, F(0), F(0), F(5))   # index 10
        b = ChernData(4, F(0), F(0), F(4))   # index 24
        line = ChernData(1)
        report = restriction_report([a, line, b], surface(assume=True))
        assert report.ell == 24
        assert [s.index for s in report.summands] == [10, None, 24]
        assert report.summands[1].skipped

    def test_empty_list(self):
        with pytest.raises(DomainError, match="empty"):
            restriction_report([], surface(assume=True))

    def test_higher_dimension_needs_deltas(self):
        amb = AmbientSpace(3, 1, assume_beta_zero=True)
        e = ChernData(2, F(0), F(0), F(5))
        with pytest.raises(DomainError, match="delta"):
            restriction_report([e], amb)
        report = restriction_report([e], amb, [F(20)])
        assert report.ell == 10

    def test_json_schema(self):
        e = ChernData(2, F(0), F(0), F(5))
        payload = restriction_report([e], surface(assume=True)).to_json()
        assert set(payload) == {"summands", "ell"}
        assert payload["ell"] == "10"
        assert payload["summands"][0]["chern"]["rank"] == "2"


class TestAmbientSpace:
    def test_validation(self):
        with pytest.raises(DomainError):
            AmbientSpace(0, 1)
        with pytest.raises(DomainError):
            AmbientSpace(2, 0)
        with pytest.raises(DomainError):
            AmbientSpace(2, 1, {2: F(-1)})

    def test_a_huge_rank_is_named_by_its_leading_digits(self):
        rank = 10 ** 5000 + 1
        with pytest.raises(MissingConstantError) as err:
            surface().beta_for(rank)
        assert str(err.value) == ("beta_1" + "0" * 39 + "... (5001 digits) is not configured; "
                                  "supply it or enable assume-beta-zero")
        with pytest.raises(DomainError) as err:
            AmbientSpace(2, 1, {rank: F(-1)})
        assert str(err.value) == "beta_1" + "0" * 39 + "... (5001 digits) must be nonnegative"
        with pytest.raises(MissingConstantError, match="^beta_3 is not configured"):
            surface().beta_for(3)
