"""Three solution paths that must agree on their common domain.

* :func:`picard_solve` iterates the integral operator under a contraction
  certificate, with an a-priori geometric error bound.
* :func:`solve_linear_ml` evaluates the Mittag-Leffler closed form of the
  constant-coefficient linear problem D^alpha y + lambda y = f.
* :func:`abm_solve` is an independent predictor-corrector oracle (product
  rectangle predictor, product trapezoid corrector) with blow-up detection.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import specfun
from .existence import ExistenceCertificate, IvpProblem, NonFiniteFieldError
from .fracops import DomainError, _lag_apply, _lag_table, _uniform_step
# bound here only so the benchmark's tracer can wrap it by name
from .fracops import product_trapezoid_weights  # noqa: F401
from .specfun import MittagLefflerParams

__all__ = [
    "BLOW_UP_THRESHOLD",
    "SolutionTrajectory",
    "NonConvergenceError",
    "BoxEscapeError",
    "picard_solve",
    "solve_linear_ml",
    "abm_solve",
]

#: Fallback: trajectories are truncated with a blow-up marker past this
#: magnitude even where the leading-order balance has not fired.
BLOW_UP_THRESHOLD = 1e12


class NonConvergenceError(ArithmeticError):
    """Picard iteration failed to meet the tolerance within max_iter."""

    def __init__(self, message: str, last_difference: float):
        super().__init__(message)
        self.last_difference = last_difference


class BoxEscapeError(ArithmeticError):
    """An iterate left the certified box: the discretization is too coarse
    for the certificate's guarantees to transfer."""


@dataclass(frozen=True)
class SolutionTrajectory:
    """Solution samples on a uniform grid, with method metadata.

    ``error_bound`` is the a-priori sup-norm bound k^n/(1-k) |y1 - y0| and is
    present exactly for the picard method.  ``blew_up`` marks a trajectory
    truncated at ``last_valid_time`` because the solution blows up before the
    next grid point: either the leading-order balance extrapolates the
    singularity there, or values crossed the blow-up threshold.
    """

    grid: np.ndarray
    values: np.ndarray
    method: str
    error_bound: float | None = None
    iterations: int | None = None
    blew_up: bool = False
    last_valid_time: float | None = None
    difference_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.method not in ("picard", "mittag_leffler", "abm"):
            raise ValueError(f"unknown method {self.method!r}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("trajectory values must be finite")
        if (self.error_bound is not None) != (self.method == "picard"):
            raise ValueError("error_bound is present exactly for the picard method")

    def csv_text(self) -> str:
        lines = ["t,y"]
        for t, y in zip(self.grid, self.values):
            lines.append(f"{float(t)!r},{float(y)!r}")
        return "\n".join(lines) + "\n"

    def summary_json_dict(self) -> dict:
        import hashlib

        digest = hashlib.sha256(self.csv_text().encode("ascii")).hexdigest()
        return {
            "type": "trajectory_summary",
            "method": self.method,
            "points": int(self.grid.size),
            "t_start": float(self.grid[0]),
            "t_end": float(self.grid[-1]),
            "y_start": float(self.values[0]),
            "y_end": float(self.values[-1]),
            "sup_abs": float(np.max(np.abs(self.values))),
            "error_bound": self.error_bound,
            "iterations": self.iterations,
            "blew_up": self.blew_up,
            "last_valid_time": self.last_valid_time,
            "csv_sha256": digest,
        }


def _eval_field(rhs, grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    for i in range(values.size):
        out[i] = rhs(float(grid[i]), float(values[i]))
    return out


def picard_solve(
    problem: IvpProblem,
    cert: ExistenceCertificate,
    grid_points: int = 256,
    tol: float = 1e-10,
    max_iter: int = 400,
) -> SolutionTrajectory:
    """Fixed-point iteration of y -> y0 + I^alpha F(., y) on [a, a+h].

    The integral operator is discretized once as product-trapezoidal lag
    tables over the certificate's interval and applied by FFT; iterates start
    from the constant initial value and stop when the sup-grid difference
    drops below tol.
    Escaping the certified box raises, and non-convergence within max_iter
    raises with the last observed difference attached.
    """
    if grid_points < 16:
        raise ValueError(f"grid_points must be >= 16, got {grid_points}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    a = problem.interval[0]
    grid = np.linspace(a, a + cert.h, grid_points)
    _, c, right = _lag_table(grid_points, cert.h / (grid_points - 1), problem.alpha)
    g = specfun.gamma(problem.alpha).value()
    y = np.full(grid_points, problem.y0, dtype=float)
    box = problem.box_radius if not cert.m_unconstrained else math.inf
    first_step: float | None = None
    history: list[float] = []
    for iteration in range(1, max_iter + 1):
        f = _eval_field(problem.rhs, grid, y)
        if not np.all(np.isfinite(f)):
            raise NonFiniteFieldError("F produced non-finite values along an iterate")
        y_next = problem.y0 + _lag_apply(c, right, f) / g
        if np.max(np.abs(y_next - problem.y0)) > box * (1.0 + 1e-12):
            raise BoxEscapeError(
                "iterate escaped the certified box; refine the grid or shrink h"
            )
        diff = float(np.max(np.abs(y_next - y)))
        history.append(diff)
        if first_step is None:
            first_step = diff
        y = y_next
        if diff < tol:
            bound = cert.k**iteration / (1.0 - cert.k) * first_step
            return SolutionTrajectory(
                grid=grid,
                values=y,
                method="picard",
                error_bound=bound,
                iterations=iteration,
                difference_history=tuple(history),
            )
    raise NonConvergenceError(
        f"no convergence after {max_iter} iterations (last difference {history[-1]:.3e})",
        last_difference=history[-1],
    )


def solve_linear_ml(
    alpha: float,
    lam: float,
    forcing: Callable[[float], float] | None,
    y0: float,
    grid: np.ndarray,
) -> SolutionTrajectory:
    """Closed form for D^alpha y + lam y = f(t), y(0) = y0, on a uniform grid.

    y(t) = y0 E_alpha(-lam t^alpha)
           + integral_0^t (t-tau)^(alpha-1) E_{alpha,alpha}(-lam (t-tau)^alpha) f(tau) dtau.

    The homogeneous part is quadrature-free.  The forcing convolution is
    product-trapezoidal: f is replaced by its piecewise-linear interpolant
    and the kernel moments are taken exactly, using the closed-form
    antiderivatives u^alpha E_{alpha,alpha+1}(-lam u^alpha) and
    u^(alpha+1) E_{alpha,alpha+2}(-lam u^alpha).  The rule is exact for
    constant and linear forcing.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    t = np.asarray(grid, dtype=float)
    if t.size < 2 or t[0] != 0.0:
        raise ValueError("grid must start at 0 and have at least 2 points")
    h = _uniform_step(t)
    if h is None:
        raise DomainError("grid must be uniform")
    e1 = MittagLefflerParams(alpha, 1.0)
    values = y0 * np.array(
        [specfun.mittag_leffler(e1, -lam * tau**alpha) for tau in t]
    )
    if forcing is None:
        return SolutionTrajectory(grid=t, values=values, method="mittag_leffler")
    fvals = np.array([forcing(float(tau)) for tau in t])
    if not np.all(np.isfinite(fvals)):
        raise NonFiniteFieldError("forcing produced non-finite values on the grid")
    # Integrating the convolution by parts against the kernel antiderivative
    # Q(u) = u^alpha E_{alpha,alpha+1}(-lam u^alpha) (Q(0) = 0) gives
    #   conv(t) = Q(t) f(0) + sum_j s_j [R(t - t_j) - R(t - t_{j+1})],
    # with s_j the interpolant slopes and R(u) = u^(alpha+1)
    # E_{alpha,alpha+2}(-lam u^alpha) the antiderivative of Q.
    e_a1 = MittagLefflerParams(alpha, alpha + 1.0)
    e_a2 = MittagLefflerParams(alpha, alpha + 2.0)
    Q = np.array(
        [tau**alpha * specfun.mittag_leffler(e_a1, -lam * tau**alpha) for tau in t]
    )
    R = np.array(
        [
            tau ** (alpha + 1.0) * specfun.mittag_leffler(e_a2, -lam * tau**alpha)
            for tau in t
        ]
    )
    slopes = np.diff(fvals) / h
    dR = np.diff(R)
    conv = np.zeros_like(values)
    if t.size > 1:
        conv[1:] = np.convolve(slopes, dR)[: t.size - 1]
    values = values + Q * fvals[0] + conv
    return SolutionTrajectory(grid=t, values=values, method="mittag_leffler")


def _blow_up_time(
    alpha: float, t: float, y_prev: float, y: float, f_prev: float, f: float
) -> float:
    """Blow-up time extrapolated from two consecutive samples, or inf.

    Near a blow-up the solution follows the leading-order balance
    y ~ A (t* - t)^(-sigma) against F ~ y^m, with sigma = alpha/(m-1).  The
    local power m is read off the samples as dlog|F| / dlog|y|; balancing the
    left-sided derivative of the ansatz against F then gives
    (t* - t)^alpha = Gamma(sigma+alpha)/Gamma(sigma) * y/F.  Samples that do
    not show the balance (y and F not of one sign, |y| not growing, m <= 1)
    give inf.
    """
    if not (y * f > 0.0 and y_prev * f_prev > 0.0 and y * y_prev > 0.0):
        return math.inf
    dlog_y = math.log(abs(y)) - math.log(abs(y_prev))
    if not dlog_y > 0.0:
        return math.inf
    m = (math.log(abs(f)) - math.log(abs(f_prev))) / dlog_y
    if not m > 1.0:
        return math.inf
    sigma = alpha / (m - 1.0)
    # log form: sigma grows without bound as m -> 1+ (fields linear in y)
    log_ratio = math.lgamma(sigma + alpha) - math.lgamma(sigma)
    log_gap = (log_ratio + math.log(abs(y)) - math.log(abs(f))) / alpha
    try:
        return t + math.exp(log_gap)
    except OverflowError:
        return math.inf


def abm_solve(problem: IvpProblem, grid_points: int = 512) -> SolutionTrajectory:
    """Adams-Bashforth-Moulton predictor-corrector for the Volterra form.

    One-pass scheme on the full problem interval: product-rectangle predictor,
    product-trapezoid corrector evaluated once at the predicted point.

    The trajectory is truncated at t_n, with a blow-up marker and the last
    valid time, when the solution does not exist at t_(n+1).  The primary
    test is the leading-order balance (see :func:`_blow_up_time`): an
    explicit scheme runs below a blowing-up solution and keeps producing
    finite values past the singularity, so the magnitude alone cannot tell
    where the solution ends.  The balance extrapolates t* from the samples
    already computed and truncates once the estimates at t_(n-1) and at t_n
    both fall before t_(n+1); one estimate alone also fires where F crosses
    zero at a minimum of |y|.  Values beyond the blow-up threshold (or
    non-finite) truncate as a fallback.
    """
    if grid_points < 16:
        raise ValueError(f"grid_points must be >= 16, got {grid_points}")
    a, b = problem.interval
    n_steps = grid_points - 1
    h = (b - a) / n_steps
    t = a + h * np.arange(grid_points)
    alpha = problem.alpha
    m0, c, right = _lag_table(grid_points, h, alpha)
    g = specfun.gamma(alpha).value()
    # row n+1 of the weights: f_j at lag n+1-j, the first column less right[n+2]
    rect = m0[1:] / g  # rect[i] weights f_{n-i} in the predictor
    trap = c / g  # trap[i] weights f_{n+1-i} in the corrector, j >= 1
    first = (c[1:] - right[2:]) / g  # first[n] weights f_0 in the corrector

    y = np.empty(grid_points)
    f = np.empty(grid_points)
    y[0] = problem.y0
    f0 = problem.rhs(float(t[0]), float(problem.y0))
    if not math.isfinite(f0):
        raise NonFiniteFieldError(f"F({t[0]}, {problem.y0}) = {f0} is not finite")
    f[0] = f0

    def _truncated(last: int) -> SolutionTrajectory:
        return SolutionTrajectory(
            grid=t[: last + 1].copy(),
            values=y[: last + 1].copy(),
            method="abm",
            blew_up=True,
            last_valid_time=float(t[last]),
        )

    y_prev = f_prev = math.nan  # no sample before t_0
    t_star_prev = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            y_n, f_n = float(y[n]), float(f[n])
            t_star = _blow_up_time(alpha, float(t[n]), y_prev, y_n, f_prev, f_n)
            if max(t_star, t_star_prev) < t[n + 1]:
                return _truncated(n)
            y_prev, f_prev, t_star_prev = y_n, f_n, t_star
            known = f[: n + 1]
            pred = y[0] + float(known @ rect[n::-1])
            if not math.isfinite(pred) or abs(pred) > BLOW_UP_THRESHOLD:
                return _truncated(n)
            f_pred = problem.rhs(float(t[n + 1]), pred)
            if not math.isfinite(f_pred):
                return _truncated(n)
            interior = float(f[1 : n + 1] @ trap[n:0:-1])
            y_next = y[0] + (first[n] * f[0] + interior + trap[0] * f_pred)
            if not math.isfinite(y_next) or abs(y_next) > BLOW_UP_THRESHOLD:
                return _truncated(n)
            y[n + 1] = y_next
            f_next = problem.rhs(float(t[n + 1]), float(y_next))
            if not math.isfinite(f_next):
                return _truncated(n)
            f[n + 1] = f_next
    return SolutionTrajectory(grid=t, values=y, method="abm")
