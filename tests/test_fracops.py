import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracpainleve.fracops import (
    DomainError,
    GridFunction,
    PowerTerm,
    _lag_apply,
    _lag_table,
    caputo_l1,
    caputo_power,
    product_trapezoid_weights,
    rl_integral,
)

SQRT_PI = 1.7724538509055159


def grid_fn(f, a=0.0, b=1.0, n=1000):
    g = np.linspace(a, b, n)
    return GridFunction(g, f(g))


class TestCaputoPower:
    def test_linear_power_half_derivative(self):
        # D^0.5 t at t=1 is Gamma(2)/Gamma(1.5) = 2/sqrt(pi)
        value = caputo_power(PowerTerm(1.0, 1.0, 0.0), 0.5, 1.0)
        assert value == pytest.approx(2.0 / SQRT_PI, rel=1e-13)

    def test_constant_annihilated(self):
        assert caputo_power(PowerTerm(5.0, 0.0, 0.0), 0.5, 2.0) == 0.0

    def test_fractional_exponent_oracle(self):
        # Gamma(1.6)/Gamma(1.2) = 0.97314938749969280 (50-digit reference)
        value = caputo_power(PowerTerm(1.0, 0.6, 0.0), 0.4, 1.0)
        assert value == pytest.approx(0.9731493874996928, rel=1e-12)

    def test_negative_exponent_in_formal_range(self):
        # gamma in (alpha-1, 0) is allowed; compare against the raw formula
        alpha, g = 0.5, -0.3
        value = caputo_power(PowerTerm(2.0, g, 0.0), alpha, 2.0)
        expected = 2.0 * math.gamma(g + 1.0) / math.gamma(g - alpha + 1.0) * 2.0 ** (g - alpha)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            caputo_power(PowerTerm(1.0, 1.0, 0.5), 0.5, 0.5)  # t <= base point
        with pytest.raises(DomainError):
            caputo_power(PowerTerm(1.0, -0.8, 0.0), 0.5, 1.0)  # below alpha-1
        with pytest.raises(DomainError):
            caputo_power(PowerTerm(1.0, 1.0, 0.0), 1.5, 1.0)  # alpha out of range

    def test_classical_limit(self):
        # alpha -> 1: D^alpha t^g approaches g t^(g-1) within 1 percent
        for g in (1.0, 2.0, 3.0):
            value = caputo_power(PowerTerm(1.0, g, 0.0), 0.999, 1.0)
            assert value == pytest.approx(g, rel=0.01)

    def test_alpha_one_exact(self):
        value = caputo_power(PowerTerm(1.0, 2.0, 0.0), 1.0, 3.0)
        assert value == pytest.approx(6.0, rel=1e-12)


class TestRlIntegral:
    def test_order_one_is_plain_integration(self):
        out = rl_integral(grid_fn(lambda t: np.ones_like(t)), 1.0)
        assert np.max(np.abs(out.values - out.grid)) < 1e-12

    def test_half_integral_of_one(self):
        out = rl_integral(grid_fn(lambda t: np.ones_like(t), n=1000), 0.5)
        exact = np.sqrt(out.grid) / math.gamma(1.5)
        assert np.max(np.abs(out.values - exact)) <= 1e-3

    def test_first_point_is_zero(self):
        out = rl_integral(grid_fn(lambda t: np.cos(t)), 0.7)
        assert out.values[0] == 0.0

    def test_semigroup_half_half(self):
        f = grid_fn(lambda t: t, n=1000)
        twice = rl_integral(rl_integral(f, 0.5), 0.5)
        assert np.max(np.abs(twice.values - f.grid**2 / 2.0)) <= 2e-3

    def test_nonuniform_grid_supported(self):
        g = np.sort(np.concatenate([np.linspace(0, 1, 400), np.geomspace(1e-4, 0.9, 100)]))
        g = np.unique(g)
        f = GridFunction(g, np.ones_like(g))
        out = rl_integral(f, 0.5)
        exact = np.sqrt(g) / math.gamma(1.5)
        assert np.max(np.abs(out.values - exact)) <= 2e-3

    def test_malformed_grid_rejected(self):
        with pytest.raises(DomainError):
            GridFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4))
        with pytest.raises(DomainError):
            GridFunction(np.array([0.0, 1.0]), np.zeros(3))

    def test_uniform_grid_allocates_no_matrix(self):
        # the dense path needs 134 MB for one 4096 x 4096 array alone
        f = grid_fn(np.cos, n=4096)
        tracemalloc.start()
        try:
            rl_integral(f, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


@given(
    n=st.integers(min_value=2, max_value=2048),
    alpha=st.floats(min_value=1e-6, max_value=1.0),
    length=st.floats(min_value=1e-3, max_value=100.0),
    shift=st.floats(min_value=-1.0, max_value=1.0),
    coeffs=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=5, max_size=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=2048, alpha=0.5, length=1.0, shift=0.0, coeffs=[1.0, -1.0, 0.5, 1.0, 0.3], seed=0)
@settings(max_examples=20, deadline=None)
def test_lag_apply_matches_dense_weights(n, alpha, length, shift, coeffs, seed):
    """The FFT lag apply equals the dense product-trapezoid matrix product.

    The dense reference forms t_i - t_j in floating point, so the interval
    stays within one length of the origin, and both paths round their panel
    moments with an error growing with the lag that cancels between
    neighbouring weights only for smooth f.  Rough f is checked against the
    Toeplitz matrix of the same tables instead, which tests the apply alone.
    """
    a = shift * length
    grid = np.linspace(a, a + length, n)
    s = (grid - a) / length
    p = coeffs
    smooth = p[0] + p[1] * s + p[2] * s**2 + p[3] * np.cos(2.0 * np.pi * s + 6.0 * p[4])
    _, c, right = _lag_table(n, length / (n - 1), alpha)
    dense = product_trapezoid_weights(grid, alpha) @ smooth
    err = np.max(np.abs(_lag_apply(c, right, smooth) - dense))
    assert err <= 1e-13 * np.max(np.abs(dense))

    rough = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    toeplitz = np.where(lag >= 0, c[np.maximum(lag, 0)], 0.0)
    toeplitz[:, 0] -= right[1:]
    direct = toeplitz @ rough
    err = np.max(np.abs(_lag_apply(c, right, rough) - direct))
    assert err <= 1e-13 * np.max(np.abs(direct))


class TestCaputoL1:
    def test_matches_power_rule_for_t(self):
        f = grid_fn(lambda t: t, n=2000)
        out = caputo_l1(f, 0.5)
        exact = np.array(
            [caputo_power(PowerTerm(1.0, 1.0, 0.0), 0.5, t) if t > 0 else 0.0 for t in f.grid]
        )
        mask = f.grid >= 0.1
        assert np.max(np.abs(out.values[mask] - exact[mask])) <= 1e-3

    def test_matches_power_rule_for_t_squared(self):
        f = grid_fn(lambda t: t**2, n=2000)
        out = caputo_l1(f, 0.5)
        exact = np.array(
            [caputo_power(PowerTerm(1.0, 2.0, 0.0), 0.5, t) if t > 0 else 0.0 for t in f.grid]
        )
        mask = f.grid >= 0.1
        assert np.max(np.abs(out.values[mask] - exact[mask])) <= 1e-3

    def test_constant_maps_to_zero(self):
        for alpha in (0.2, 0.5, 0.9):
            out = caputo_l1(grid_fn(lambda t: np.full_like(t, 3.7), n=200), alpha)
            assert np.max(np.abs(out.values[1:])) == 0.0

    def test_first_point_marked_undefined(self):
        out = caputo_l1(grid_fn(lambda t: t, n=50), 0.5)
        assert math.isnan(out.values[0])

    def test_nonuniform_grid_rejected(self):
        g = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
        with pytest.raises(DomainError):
            caputo_l1(GridFunction(g, np.zeros_like(g)), 0.5)

    def test_left_inverse_of_integral(self):
        # D^alpha I^alpha f recovers f within discretization error on smooth f
        f = grid_fn(lambda t: np.sin(t) + 2.0, n=2000)
        composed = caputo_l1(rl_integral(f, 0.4), 0.4)
        mask = f.grid >= 0.05
        assert np.max(np.abs(composed.values[mask] - f.values[mask])) <= 2e-3


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from([0.25, 0.5, 0.8]),
)
@settings(max_examples=30, deadline=None)
def test_linearity_of_operators(c1, c2, alpha):
    g = np.linspace(0.0, 1.0, 120)
    f1 = np.sin(g)
    f2 = g**2
    combo = GridFunction(g, c1 * f1 + c2 * f2)
    lhs_int = rl_integral(combo, alpha).values
    rhs_int = (
        c1 * rl_integral(GridFunction(g, f1), alpha).values
        + c2 * rl_integral(GridFunction(g, f2), alpha).values
    )
    scale = np.max(np.abs(lhs_int)) + 1.0
    assert np.max(np.abs(lhs_int - rhs_int)) <= 1e-13 * scale

    lhs_l1 = caputo_l1(combo, alpha).values[1:]
    rhs_l1 = (
        c1 * caputo_l1(GridFunction(g, f1), alpha).values[1:]
        + c2 * caputo_l1(GridFunction(g, f2), alpha).values[1:]
    )
    scale = np.max(np.abs(lhs_l1)) + 1.0
    assert np.max(np.abs(lhs_l1 - rhs_l1)) <= 1e-12 * scale


@given(st.floats(min_value=1.1, max_value=3.0), st.floats(min_value=0.3, max_value=0.9))
@settings(max_examples=50, deadline=None)
def test_caputo_power_scales_linearly(gamma_exp, alpha):
    base = caputo_power(PowerTerm(1.0, gamma_exp, 0.0), alpha, 1.5)
    scaled = caputo_power(PowerTerm(-2.5, gamma_exp, 0.0), alpha, 1.5)
    assert scaled == pytest.approx(-2.5 * base, rel=1e-13)
