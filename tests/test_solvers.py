import math

import numpy as np
import pytest

from fracpainleve.existence import IvpProblem, certify_nonlinear
from fracpainleve.fracops import product_trapezoid_weights
from fracpainleve.solvers import (
    BoxEscapeError,
    NonConvergenceError,
    SolutionTrajectory,
    _blow_up_time,
    abm_solve,
    picard_solve,
    solve_linear_ml,
)
from fracpainleve.specfun import gamma

E_HALF_MINUS_ONE = 0.427583576155807  # E_{1/2}(-1) = e erfc(1)


class TestPicard:
    def test_classical_exponential(self):
        # box wide enough that the interval itself caps h at 0.5
        problem = IvpProblem(1.0, lambda t, y: y, (0.0, 0.5), 1.0, 2.0, lipschitz=1.0)
        cert = certify_nonlinear(problem)
        assert cert.h == pytest.approx(0.5)
        traj = picard_solve(problem, cert, grid_points=2000, tol=1e-10)
        assert traj.grid[-1] == pytest.approx(0.5)
        assert traj.values[-1] == pytest.approx(1.6487212707001282, abs=1e-4)
        exact = np.exp(traj.grid)
        assert np.max(np.abs(traj.values - exact)) <= 1e-4
        assert traj.method == "picard"
        assert traj.error_bound is not None

    def test_zero_field_converges_in_one_iteration(self):
        problem = IvpProblem(0.5, lambda t, y: 0.0, (0.0, 1.0), 2.5, 1.0)
        cert = certify_nonlinear(problem)
        traj = picard_solve(problem, cert, grid_points=64, tol=1e-12)
        assert traj.iterations == 1
        assert np.all(traj.values == 2.5)
        assert traj.error_bound == 0.0

    def test_against_mittag_leffler_closed_form(self):
        problem = IvpProblem(0.5, lambda t, y: -y, (0.0, 0.5), 1.0, 1.0, lipschitz=1.0)
        cert = certify_nonlinear(problem)
        traj = picard_solve(problem, cert, grid_points=1200, tol=1e-10)
        ml = solve_linear_ml(0.5, 1.0, None, 1.0, traj.grid)
        assert np.max(np.abs(traj.values - ml.values)) <= 1e-3

    def test_error_bound_is_geometric(self):
        problem = IvpProblem(0.8, lambda t, y: -y, (0.0, 1.0), 1.0, 1.0, lipschitz=1.0)
        cert = certify_nonlinear(problem)
        traj = picard_solve(problem, cert, grid_points=200, tol=1e-11)
        n = traj.iterations
        d1 = traj.difference_history[0]
        assert traj.error_bound == pytest.approx(cert.k**n / (1.0 - cert.k) * d1)

    def test_observed_contraction_rate(self):
        problem = IvpProblem(
            0.6, lambda t, y: 0.5 + math.sin(y), (0.0, 1.0), 0.0, 1.0, lipschitz=1.0
        )
        cert = certify_nonlinear(problem)
        traj = picard_solve(problem, cert, grid_points=300, tol=1e-12)
        diffs = traj.difference_history
        floor = 1e-13 * max(1.0, float(np.max(np.abs(traj.values))))
        for previous, current in zip(diffs, diffs[1:]):
            if previous < floor or current < floor:
                continue
            assert current <= cert.k * previous * 1.1

    def test_residual_of_fixed_point(self):
        problem = IvpProblem(0.7, lambda t, y: -y, (0.0, 1.0), 1.0, 1.0, lipschitz=1.0)
        cert = certify_nonlinear(problem)
        tol = 1e-9
        traj = picard_solve(problem, cert, grid_points=400, tol=tol)
        W = product_trapezoid_weights(traj.grid, 0.7) / gamma(0.7).value()
        image = problem.y0 + W @ np.array([-v for v in traj.values])
        assert np.max(np.abs(image - traj.values)) <= 2.0 * tol

    def test_box_escape_detected(self):
        problem = IvpProblem(1.0, lambda t, y: y * y, (0.0, 1.0), 1.0, 1.0, lipschitz=4.0)
        cert = certify_nonlinear(problem)
        # lie about the certified interval to force the iterates out of the box
        bad_cert = type(cert)(
            alpha=cert.alpha,
            M=cert.M,
            K=cert.K,
            L=cert.L,
            h=0.9,
            k=cert.k,
            guaranteed_interval=(0.0, 0.9),
            apriori_bound_factor=cert.apriori_bound_factor,
        )
        with pytest.raises(BoxEscapeError):
            picard_solve(problem, bad_cert, grid_points=200, tol=1e-10)

    def test_non_convergence_reports_last_difference(self):
        problem = IvpProblem(1.0, lambda t, y: -y, (0.0, 0.5), 1.0, 1.0, lipschitz=1.0)
        cert = certify_nonlinear(problem)
        with pytest.raises(NonConvergenceError) as excinfo:
            picard_solve(problem, cert, grid_points=100, tol=1e-15, max_iter=3)
        assert excinfo.value.last_difference > 0.0

    def test_grid_points_minimum(self):
        problem = IvpProblem(1.0, lambda t, y: 0.0, (0.0, 1.0), 0.0, 1.0)
        cert = certify_nonlinear(problem)
        with pytest.raises(ValueError):
            picard_solve(problem, cert, grid_points=8)


class TestSolveLinearMl:
    def test_classical_decay(self):
        grid = np.linspace(0.0, 1.0, 101)
        traj = solve_linear_ml(1.0, 1.0, None, 1.0, grid)
        assert traj.values[-1] == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_half_order_decay(self):
        grid = np.linspace(0.0, 1.0, 101)
        traj = solve_linear_ml(0.5, 1.0, None, 1.0, grid)
        assert traj.values[-1] == pytest.approx(E_HALF_MINUS_ONE, abs=1e-8)

    def test_pure_forcing_power_ramp(self):
        # lam = 0, f = 1, y0 = 0: y(t) = t^alpha / Gamma(alpha+1)
        grid = np.linspace(0.0, 1.0, 257)
        traj = solve_linear_ml(0.5, 0.0, lambda t: 1.0, 0.0, grid)
        assert traj.values[-1] == pytest.approx(1.0 / math.gamma(1.5), abs=1e-3)

    def test_classical_ode_with_sin_forcing(self):
        # y' = -y + sin t, y0 = 0 has y = (sin t - cos t + e^-t)/2
        grid = np.linspace(0.0, 1.0, 801)
        traj = solve_linear_ml(1.0, 1.0, math.sin, 0.0, grid)
        exact = (np.sin(grid) - np.cos(grid) + np.exp(-grid)) / 2.0
        assert np.max(np.abs(traj.values - exact)) <= 1e-6

    def test_constant_forcing_is_exact(self):
        # product-trapezoidal moments are exact, so constant forcing incurs
        # no quadrature error at all
        grid = np.linspace(0.0, 0.8, 64)
        traj = solve_linear_ml(0.3, 1.0, lambda t: 1.0, 1.0, grid)
        assert np.max(np.abs(traj.values - 1.0)) <= 1e-13

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            solve_linear_ml(0.5, 1.0, None, 1.0, np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            solve_linear_ml(0.5, 1.0, None, 1.0, np.array([0.0, 0.1, 0.3]))

    def test_decay_past_the_series_range_agrees_with_abm_and_picard(self):
        # D^0.5 y = -2y, y(0) = 1 on [0, 3] reaches z = -3.46, where the
        # series cancels and the contour takes over; criterion 8's 5e-3
        rhs = lambda t, y: -2.0 * y  # noqa: E731
        abm = abm_solve(IvpProblem(0.5, rhs, (0.0, 3.0), 1.0, 1.0), grid_points=4000)
        ml = solve_linear_ml(0.5, 2.0, None, 1.0, abm.grid)
        assert np.max(np.abs(ml.values - abm.values)) <= 5e-3
        problem = IvpProblem(0.5, rhs, (0.0, 3.0), 1.0, 1.0, lipschitz=2.0)
        cert = certify_nonlinear(problem)
        pic = picard_solve(problem, cert, grid_points=600, tol=1e-10)
        ml = solve_linear_ml(0.5, 2.0, None, 1.0, pic.grid)
        assert np.max(np.abs(ml.values - pic.values)) <= 5e-3

    def test_range_error_propagates(self):
        from fracpainleve.specfun import MittagLefflerRangeError

        # z = -100^0.9 = -63.1 at the end, below the contour's range
        grid = np.linspace(0.0, 100.0, 65)
        with pytest.raises(MittagLefflerRangeError):
            solve_linear_ml(0.9, 1.0, None, 1.0, grid)


class TestAbm:
    def test_classical_exponential(self):
        problem = IvpProblem(1.0, lambda t, y: y, (0.0, 1.0), 1.0, 1.0)
        traj = abm_solve(problem, grid_points=4000)
        assert traj.values[-1] == pytest.approx(math.e, abs=1e-4)
        assert not traj.blew_up

    def test_agrees_with_mittag_leffler(self):
        problem = IvpProblem(0.5, lambda t, y: -y, (0.0, 1.0), 1.0, 1.0)
        traj = abm_solve(problem, grid_points=2000)
        ml = solve_linear_ml(0.5, 1.0, None, 1.0, traj.grid)
        assert np.max(np.abs(traj.values - ml.values)) <= 1e-3

    def test_classical_cubic_closed_form(self):
        # y' = -2 y^3, y(0) = 1 has y = (1 + 4t)^(-1/2)
        problem = IvpProblem(1.0, lambda t, y: -2.0 * y**3, (0.0, 1.0), 1.0, 1.0)
        traj = abm_solve(problem, grid_points=2000)
        exact = (1.0 + 4.0 * traj.grid) ** -0.5
        assert np.max(np.abs(traj.values - exact)) <= 1e-5

    def test_blow_up_truncates_near_classical_time(self):
        # y' = y^2, y0 = 1 blows up at t = 1; the leading-order balance
        # truncates at the last grid point before it
        problem = IvpProblem(1.0, lambda t, y: y * y, (0.0, 1.2), 1.0, 1.0)
        traj = abm_solve(problem, grid_points=4000)
        assert traj.blew_up
        assert traj.last_valid_time == pytest.approx(1.0, abs=5e-3)
        assert traj.grid.size == traj.values.size
        assert np.all(np.isfinite(traj.values))
        assert np.max(np.abs(traj.values)) <= 1e12

    def test_immediate_non_finite_field(self):
        from fracpainleve.existence import NonFiniteFieldError

        problem = IvpProblem(0.5, lambda t, y: float("nan"), (0.0, 1.0), 1.0, 1.0)
        with pytest.raises(NonFiniteFieldError):
            abm_solve(problem, grid_points=32)

    def test_trajectory_csv_round_trip(self):
        problem = IvpProblem(0.7, lambda t, y: -y, (0.0, 1.0), 1.0, 1.0)
        traj = abm_solve(problem, grid_points=50)
        text = traj.csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "t,y"
        assert len(lines) == 51
        t_back, y_back = zip(*(map(float, ln.split(",")) for ln in lines[1:]))
        assert np.allclose(t_back, traj.grid)
        assert np.allclose(y_back, traj.values)


class TestAbmBlowUpBalance:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 5.0])
    def test_exact_balance_samples_give_back_blow_up_time(self, alpha, m):
        # samples of y = A (t* - t)^(-sigma) with F = c y^m, c chosen so that
        # the leading-order balance holds exactly
        t_star, amplitude = 0.7, 1.3
        sigma = alpha / (m - 1.0)
        c = math.exp(math.lgamma(sigma + alpha) - math.lgamma(sigma))
        c *= amplitude ** (1.0 - m)
        ts = (0.69, 0.695)
        ys = [amplitude * (t_star - t) ** -sigma for t in ts]
        fs = [c * y**m for y in ys]
        estimate = _blow_up_time(alpha, ts[1], ys[0], ys[1], fs[0], fs[1])
        assert estimate == pytest.approx(t_star, abs=1e-12)

    def test_samples_without_the_balance_give_no_estimate(self):
        assert _blow_up_time(1.0, 0.5, 2.0, 1.0, 4.0, 1.0) == math.inf  # |y| falls
        assert _blow_up_time(1.0, 0.5, 1.0, 2.0, -1.0, 4.0) == math.inf  # F flips
        assert _blow_up_time(1.0, 0.5, 1.0, 2.0, 1.0, 2.0) == math.inf  # m = 1
        assert _blow_up_time(0.5, 0.5, 1.0, 2.0, 2.0, 3.0) == math.inf  # m < 1

    @pytest.mark.parametrize("grid_points", [1000, 4000, 16000])
    @pytest.mark.parametrize("y0", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_power_law_truncates_just_before_blow_up(self, p, y0, grid_points):
        # y' = y^p blows up at t* = 1/((p-1) y0^(p-1))
        t_star = 1.0 / ((p - 1) * y0 ** (p - 1))
        problem = IvpProblem(1.0, lambda t, y: y**p, (0.0, 1.2 * t_star), y0, 1.0)
        traj = abm_solve(problem, grid_points=grid_points)
        h = float(traj.grid[1] - traj.grid[0])
        assert traj.blew_up
        assert t_star - 2.0 * h <= traj.last_valid_time <= t_star

    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    def test_fractional_truncation_settles_under_refinement(self, alpha):
        problem = IvpProblem(alpha, lambda t, y: y * y, (0.0, 1.0), 1.0, 1.0)
        coarse = abm_solve(problem, grid_points=4000)
        fine = abm_solve(problem, grid_points=16000)
        h = float(coarse.grid[1] - coarse.grid[0])
        assert coarse.blew_up and fine.blew_up
        assert abs(coarse.last_valid_time - fine.last_valid_time) <= 2.0 * h

    @pytest.mark.parametrize(
        "alpha,rhs,y0",
        [
            pytest.param(1.0, lambda t, y: math.sin(t) - y, 1.0, id="sin_t-y"),
            pytest.param(0.5, lambda t, y: math.sin(t) - y, 1.0, id="sin_t-y_a05"),
            pytest.param(1.0, lambda t, y: y * (1.0 - y), 0.1, id="logistic"),
            pytest.param(0.8, lambda t, y: y, 1.0, id="linear_a08"),
            # y = exp(sin t): F crosses zero at the minimum of y near 3 pi/2
            pytest.param(1.0, lambda t, y: math.cos(t) * y, 1.0, id="cos_t*y"),
        ],
    )
    def test_no_finite_time_blow_up_is_not_truncated(self, alpha, rhs, y0):
        problem = IvpProblem(alpha, rhs, (0.0, 10.0), y0, 1.0)
        traj = abm_solve(problem, grid_points=4000)
        assert not traj.blew_up
        assert traj.grid.size == 4000


class TestThreeWayAgreement:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("lam", [1.0, -1.0])
    def test_homogeneous_agreement(self, alpha, lam):
        problem = IvpProblem(
            alpha, lambda t, y: -lam * y, (0.0, 1.0), 1.0, 1.0, lipschitz=1.0
        )
        cert = certify_nonlinear(problem)
        pic = picard_solve(problem, cert, grid_points=600, tol=1e-10)
        ml = solve_linear_ml(alpha, lam, None, 1.0, pic.grid)
        abm_problem = IvpProblem(
            alpha, lambda t, y: -lam * y, (0.0, cert.h), 1.0, 1.0, lipschitz=1.0
        )
        abm = abm_solve(abm_problem, grid_points=600)
        assert np.max(np.abs(pic.values - ml.values)) <= 5e-3
        assert np.max(np.abs(abm.values - ml.values)) <= 5e-3
        assert np.max(np.abs(abm.values - pic.values)) <= 5e-3


def test_trajectory_summary_shape():
    problem = IvpProblem(0.5, lambda t, y: -y, (0.0, 1.0), 1.0, 1.0)
    traj = abm_solve(problem, grid_points=64)
    summary = traj.summary_json_dict()
    assert summary["type"] == "trajectory_summary"
    assert summary["method"] == "abm"
    assert summary["points"] == 64
    assert summary["error_bound"] is None
    assert isinstance(summary["csv_sha256"], str) and len(summary["csv_sha256"]) == 64
