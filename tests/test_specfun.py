import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpainleve.specfun import (
    GammaRatioDegeneracy,
    MittagLefflerParams,
    MittagLefflerRangeError,
    gamma,
    gamma_ratio,
    mittag_leffler,
    pole_pair_ratio_limit,
)

SQRT_PI = 1.7724538509055159


def test_gamma_half_is_sqrt_pi():
    g = gamma(0.5)
    assert not g.is_pole
    assert g.value() == pytest.approx(SQRT_PI, rel=1e-13)


def test_gamma_pole_at_nonpositive_integers():
    for x in (0.0, -1.0, -2.0, -7.0):
        assert gamma(x).is_pole
    # within the pole tolerance band
    assert gamma(-3.0 + 1e-10).is_pole
    assert not gamma(-3.0 + 1e-6).is_pole
    assert not gamma(3.0).is_pole


def test_gamma_minus_half_by_reflection():
    assert gamma(-0.5).value() == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)


def test_gamma_sign_alternates_between_negative_integers():
    assert gamma(-0.5).sign == -1
    assert gamma(-1.5).sign == 1
    assert gamma(-2.5).sign == -1


def test_gamma_ratio_simple():
    # Gamma(2)/Gamma(1.5) = 1/(sqrt(pi)/2)
    assert gamma_ratio(2.0, 1.5) == pytest.approx(2.0 / SQRT_PI, rel=1e-13)


def test_gamma_ratio_denominator_pole_is_zero():
    assert gamma_ratio(0.5, 0.0) == 0.0
    assert gamma_ratio(1.7, -3.0) == 0.0


def test_gamma_ratio_numerator_pole_is_infinite_marker():
    assert gamma_ratio(0.0, 0.5) is GammaRatioDegeneracy.INFINITE


def test_gamma_ratio_both_poles_indeterminate():
    assert gamma_ratio(0.0, -1.0) is GammaRatioDegeneracy.INDETERMINATE


def test_gamma_ratio_frozen_oracle():
    # Gamma(0.6)/Gamma(0.2), 50-digit reference 0.32438312916656429844
    assert gamma_ratio(0.6, 0.2) == pytest.approx(0.32438312916656430, rel=1e-12)


def test_pole_pair_limit_matches_recurrence():
    # Gamma(eps)/Gamma(eps-1) -> -1, Gamma(-1+eps)/Gamma(-2+eps) -> -2
    assert pole_pair_ratio_limit(0.0, -1.0) == -1.0
    assert pole_pair_ratio_limit(-1.0, -2.0) == -2.0
    assert pole_pair_ratio_limit(0.0, -2.0) == 2.0


def test_gamma_matches_mpmath_oracle():
    # log-magnitude and sign on 20 001 points of [-10, 10]; the integers
    # among them are poles and only need the flag
    worst = 0.0
    with mpmath.workdps(30):
        for i in range(20_001):
            x = -10.0 + i * 1e-3
            g = gamma(x)
            if abs(x - round(x)) < 1e-9 and round(x) <= 0:
                assert g.is_pole
                continue
            exact = mpmath.gamma(mpmath.mpf(x))
            assert g.sign == (1 if exact > 0 else -1), x
            worst = max(worst, abs(g.log_magnitude - float(mpmath.log(abs(exact)))))
    assert worst <= 1e-13


@given(st.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=300)
def test_gamma_recurrence(x):
    # Gamma(x+1) = x Gamma(x) away from poles
    if abs(x) < 1e-3 or abs(x - round(x)) < 1e-3:
        return
    g = gamma(x)
    g1 = gamma(x + 1.0)
    lhs = g1.sign * math.exp(g1.log_magnitude)
    rhs = x * g.sign * math.exp(g.log_magnitude)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=300)
def test_gamma_reflection(x):
    # Gamma(x) Gamma(1-x) sin(pi x) / pi = 1 for non-integer x
    if abs(x - round(x)) < 1e-3:
        return
    gx = gamma(x)
    g1x = gamma(1.0 - x)
    log_product = gx.log_magnitude + g1x.log_magnitude
    sign = gx.sign * g1x.sign
    value = sign * math.exp(log_product) * math.sin(math.pi * x) / math.pi
    assert value == pytest.approx(1.0, rel=1e-10)


@given(
    st.floats(min_value=0.2, max_value=8.0),
    st.floats(min_value=0.2, max_value=8.0),
)
@settings(max_examples=200)
def test_gamma_ratio_consistent_with_gamma(a, b):
    ratio = gamma_ratio(a, b)
    direct = gamma(a).value() / gamma(b).value()
    assert ratio == pytest.approx(direct, rel=1e-12)


def test_mittag_leffler_is_exp_at_alpha_one():
    params = MittagLefflerParams(1.0, 1.0)
    assert mittag_leffler(params, 1.0) == pytest.approx(math.e, rel=1e-14)
    for z in (-5.0, -2.2, -0.5, 0.0, 0.7, 3.3, 5.0):
        assert mittag_leffler(params, z) == pytest.approx(math.exp(z), abs=1e-10 * math.exp(abs(z)))


def test_mittag_leffler_alpha_two_is_cos():
    params = MittagLefflerParams(2.0, 1.0)
    assert mittag_leffler(params, -1.0) == pytest.approx(math.cos(1.0), rel=1e-13)


def test_mittag_leffler_erfc_identity():
    # E_{1/2}(-1) = e * erfc(1), reference 0.42758357615580700441
    params = MittagLefflerParams(0.5, 1.0)
    assert mittag_leffler(params, -1.0) == pytest.approx(0.427583576155807, rel=1e-12)


def test_mittag_leffler_beta_default_and_validation():
    assert MittagLefflerParams(0.7).beta == 1.0
    with pytest.raises(ValueError):
        MittagLefflerParams(0.0)
    with pytest.raises(ValueError):
        MittagLefflerParams(-1.0)


def test_mittag_leffler_range_error_beyond_ten():
    with pytest.raises(MittagLefflerRangeError):
        mittag_leffler(MittagLefflerParams(0.8), 10.5)


def test_mittag_leffler_cancellation_guard_small_alpha():
    # alpha = 0.3, z = -9: the alternating series loses all accuracy in
    # double precision; a range error beats silent garbage.
    with pytest.raises(MittagLefflerRangeError):
        mittag_leffler(MittagLefflerParams(0.3), -9.0)


def test_mittag_leffler_small_alpha_moderate_argument_ok():
    # still fine close to the origin
    value = mittag_leffler(MittagLefflerParams(0.3), -0.9)
    assert math.isfinite(value)
    assert 0.0 < value < 1.0
