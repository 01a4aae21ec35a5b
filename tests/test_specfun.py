import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpainleve import specfun
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
    # The contour solves alpha = 0.3, z = -9 now; the guard still protects
    # the series for alpha > 1.  E_{2,1}(-(pi/2)^2) = cos(pi/2) = 0 against a
    # largest term of 1.23: a range error beats silent garbage.
    with pytest.raises(MittagLefflerRangeError, match="cancellation loss"):
        mittag_leffler(MittagLefflerParams(2.0), -((math.pi / 2) ** 2))


def test_mittag_leffler_small_alpha_moderate_argument_ok():
    # still fine close to the origin
    value = mittag_leffler(MittagLefflerParams(0.3), -0.9)
    assert math.isfinite(value)
    assert 0.0 < value < 1.0


def test_mittag_leffler_contour_range_ends_at_minus_fifty():
    params = MittagLefflerParams(0.5)
    assert math.isfinite(mittag_leffler(params, -50.0))
    with pytest.raises(MittagLefflerRangeError, match="range"):
        mittag_leffler(params, np.array([-1.0, -50.5]))


def test_mittag_leffler_scalar_in_float_out_array_in_array_out():
    params = MittagLefflerParams(0.5)
    assert type(mittag_leffler(params, -1.0)) is float
    assert type(mittag_leffler(params, -20.0)) is float
    out = mittag_leffler(params, np.array([[-1.0, 0.5], [-20.0, 0.0]]))
    assert out.shape == (2, 2)
    assert out[1, 1] == 1.0


def _ml_reference(alpha, beta, z):
    """E_{alpha,beta}(z) in mpmath: the series with enough guard digits for
    its cancellation where |z|^(1/alpha) < 120, Talbot's inversion of the
    Laplace transform s^(alpha-beta)/(s^alpha - z) at t = 1 beyond."""
    x = abs(z) ** (1.0 / alpha)
    if x < 120.0:
        with mpmath.workdps(25 + int(x / 2.3)):
            zm, a, total, k = mpmath.mpf(z), mpmath.mpf(alpha), mpmath.mpf(0), 0
            while True:
                term = zm**k * mpmath.rgamma(a * k + beta)
                total += term
                if k > x and abs(term) < mpmath.mpf(10) ** -25:
                    return float(total)
                k += 1
    with mpmath.workdps(30):
        return float(
            mpmath.invertlaplace(
                lambda s: s ** (alpha - beta) / (s**alpha - z), 1, method="talbot"
            )
        )


def test_mittag_leffler_matches_mpmath_oracle_on_negative_axis():
    # alpha in [0.3, 1], beta in {1, alpha, alpha+1, alpha+2}, z in [-50, 0],
    # on both sides of the series/contour switch at |z| = 2^alpha
    for alpha in (0.3, 0.35, 0.45, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.0):
        for beta in (1.0, alpha, alpha + 1.0, alpha + 2.0):
            switch = 2.0**alpha
            zs = [-0.5, -0.99 * switch, -1.01 * switch, -4.0, -15.0, -50.0]
            got = mittag_leffler(MittagLefflerParams(alpha, beta), np.array(zs))
            for z, value in zip(zs, got):
                exact = _ml_reference(alpha, beta, z)
                if abs(exact) >= 1e-2:
                    assert abs(value - exact) <= 1e-12 * abs(exact), (alpha, beta, z)
                else:
                    assert abs(value - exact) <= 1e-14, (alpha, beta, z)


def _terms(alpha, beta, z):
    """The terms the evaluator adds for z: contour summands where the contour
    takes over, else the power series as the scalar loop it replaced summed
    it (z^k by repeated products, stopping after two terms below 1e-16 of
    the partial sum).  alpha, beta > 0, so every Gamma argument is positive."""
    if alpha <= 1.0 and alpha <= beta <= alpha + 2.0 and z < -(2.0**alpha):
        log_s = specfun._ML_LOG_S
        summands = specfun._ML_WEIGHTS * np.exp((alpha - beta) * log_s)
        return None, (summands / (np.exp(alpha * log_s) - z)).imag
    terms, zk, small = [], 1.0, 0
    while small < 2:
        terms.append(zk * math.exp(-math.lgamma(alpha * len(terms) + beta)))
        small = small + 1 if abs(terms[-1]) < 1e-16 * abs(sum(terms)) else 0
        zk *= z
    return math.fsum(terms), np.array(terms)


@given(
    st.floats(min_value=0.3, max_value=1.5),
    st.floats(min_value=0.3, max_value=3.0),
    st.lists(st.floats(min_value=-50.0, max_value=1.0), min_size=1, max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_mittag_leffler_array_matches_scalar_calls(alpha, beta, zs):
    # each element against the scalar call and, on the series, against the
    # compensated sum of the scalar loop's terms
    params = MittagLefflerParams(alpha, beta)
    try:
        got = mittag_leffler(params, np.array(zs))
    except MittagLefflerRangeError:
        # then some element raises on its own as well
        with pytest.raises(MittagLefflerRangeError):
            for z in zs:
                mittag_leffler(params, z)
        return
    for z, value in zip(zs, got):
        reference, terms = _terms(alpha, beta, z)
        tol = 4 * sys.float_info.epsilon * float(np.sum(np.abs(terms)))
        assert abs(value - mittag_leffler(params, z)) <= tol
        if reference is not None:
            assert abs(value - reference) <= tol
