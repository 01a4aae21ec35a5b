"""Fractional operators: exact Caputo power rule, Riemann-Liouville integral
by product-trapezoidal quadrature, and the L1 discrete Caputo derivative.

The discrete operators exist so that every closed-form claim in the package
can be cross-checked against an independent numerical route.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .specfun import GammaRatioDegeneracy

__all__ = [
    "DomainError",
    "DegenerateBalanceError",
    "PowerTerm",
    "GridFunction",
    "caputo_power",
    "rl_integral",
    "caputo_l1",
    "product_trapezoid_weights",
]


class DomainError(ValueError):
    """Input outside the operator's domain (bad grid, bad exponent, ...)."""


class DegenerateBalanceError(ArithmeticError):
    """Both Gamma factors of the power rule pole; a limit would be needed."""


@dataclass(frozen=True)
class PowerTerm:
    """A * (t - t0)^gamma, the building block the power rule acts on."""

    coefficient: float
    exponent: float
    base_point: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.coefficient):
            raise DomainError(f"coefficient must be finite, got {self.coefficient}")
        if not math.isfinite(self.exponent):
            raise DomainError(f"exponent must be finite, got {self.exponent}")


@dataclass
class GridFunction:
    """Function samples on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.values.ndim != 1:
            raise DomainError("grid and values must be one-dimensional")
        if self.grid.size != self.values.size:
            raise DomainError(
                f"grid has {self.grid.size} points but values has {self.values.size}"
            )
        if self.grid.size >= 2 and not np.all(np.diff(self.grid) > 0.0):
            raise DomainError("grid must be strictly increasing")

    def spacing(self) -> float:
        """Uniform spacing; DomainError when the grid is not uniform."""
        h = _uniform_step(self.grid)
        if h is None:
            raise DomainError("grid is not uniform")
        return h


def _uniform_step(grid: np.ndarray) -> float | None:
    """Spacing of a grid whose steps agree within 1e-12 of its span, else None."""
    diffs = np.diff(grid)
    if diffs.size == 0:
        return None
    h = float(diffs[0])
    if np.max(np.abs(diffs - h)) > 1e-12 * max(abs(grid[-1] - grid[0]), 1.0):
        return None
    return h


def caputo_power(term: PowerTerm, alpha: float, t: float) -> float:
    """Caputo derivative of order alpha of A (t-t0)^gamma, evaluated at t.

    Uses Gamma(gamma+1)/Gamma(gamma-alpha+1) (t-t0)^(gamma-alpha).  A constant
    (gamma = 0) differentiates to exactly zero: the definition differentiates
    first, so the formula's nonzero value at gamma = 0 does not apply.
    Negative exponents gamma in (alpha-1, 0) are accepted; the singular
    ansatz of the Painleve engine needs them even though such functions fall
    outside the classical domain of the operator.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not t > term.base_point:
        raise DomainError(f"t = {t} must exceed the base point {term.base_point}")
    g = term.exponent
    if g == 0.0:
        return 0.0
    if g <= alpha - 1.0:
        raise DomainError(
            f"exponent {g} not above alpha - 1 = {alpha - 1}; the power rule is undefined"
        )
    ratio = specfun.gamma_ratio(g + 1.0, g - alpha + 1.0)
    if ratio is GammaRatioDegeneracy.INDETERMINATE:
        raise DegenerateBalanceError(
            f"both Gamma arguments pole for gamma={g}, alpha={alpha}"
        )
    if ratio is GammaRatioDegeneracy.INFINITE:
        raise DegenerateBalanceError(
            f"Gamma({g + 1.0}) poles while Gamma({g - alpha + 1.0}) does not"
        )
    return term.coefficient * ratio * (t - term.base_point) ** (g - alpha)


def product_trapezoid_weights(grid: np.ndarray, alpha: float) -> np.ndarray:
    """Weight matrix W with (W @ f)[n] = integral_a^{t_n} (t_n - tau)^(alpha-1) f~(tau) dtau,

    where f~ is the piecewise-linear interpolant of f on the grid.  The kernel
    moments over each panel are exact, so the rule stays robust as the kernel
    blows up at tau -> t_n.  No 1/Gamma(alpha) factor is included.
    """
    t = np.asarray(grid, dtype=float)
    n = t.size
    if n < 2:
        raise DomainError("need at least 2 grid points")
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    # D[i, j] = t_i - t_j; panel j spans [t_j, t_{j+1}] and contributes to
    # row i only when j + 1 <= i.
    diff = t[:, None] - t[None, :]
    A = diff[:, :-1]
    B = diff[:, 1:]
    valid = B >= -1e-15
    Ac = np.where(valid, np.maximum(A, 0.0), 0.0)
    Bc = np.where(valid, np.maximum(B, 0.0), 0.0)
    pa = Ac**alpha
    pb = Bc**alpha
    pa1 = Ac ** (alpha + 1.0)
    pb1 = Bc ** (alpha + 1.0)
    m0 = (pa - pb) / alpha
    m1 = Ac * m0 - (pa1 - pb1) / (alpha + 1.0)
    dt = np.diff(t)[None, :]
    left = np.where(valid, m0 - m1 / dt, 0.0)
    right = np.where(valid, m1 / dt, 0.0)
    W = np.zeros((n, n))
    W[:, :-1] += left
    W[:, 1:] += right
    return W


def _lag_table(
    n: int, h: float, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Product-quadrature weights of a uniform n-point grid, indexed by lag.

    On a uniform grid every panel moment depends only on the lag l = i - j
    between row i and panel [t_j, t_{j+1}], so the weights of
    :func:`product_trapezoid_weights` collapse to one-dimensional tables:

    * ``m0[l]``, l < n: the product-rectangle moment of the kernel over the
      panel at lag l (``m0[0] = 0``);
    * ``c[l]``, l < n: the trapezoid weight ``left[l] + right[l+1]`` of f_j
      in row j + l, with ``left[0] = 0``;
    * ``right[l]``, l <= n: the panel's weight on its right end point, which
      the first column lacks: ``W[i, 0] = c[i] - right[i+1]``.

    No 1/Gamma(alpha) factor is included.
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    # moments in units of h (the kernel scales them all by h^alpha), in forms
    # free of cancellation: differences of k^alpha lose digits as k grows
    m0 = np.zeros(n + 1)
    right = np.zeros(n + 1)
    m0[1] = 1.0 / alpha
    right[1] = 1.0 / (alpha * (alpha + 1.0))
    k = np.arange(2, n + 1, dtype=float)
    pk = k ** (alpha - 1.0)
    # m0[k] = (k^alpha - (k-1)^alpha) / alpha
    m0[2:] = -k * pk * np.expm1(alpha * np.log1p(-1.0 / k)) / alpha
    # right[k] = int_0^1 s (k-s)^(alpha-1) ds
    #          = k^(alpha-1) sum_j (1-alpha)_j / (j! (j+2)) k^(-j),
    # positive terms with ratio <= 1/2, so the k = 2 column converges last
    x = 1.0 / k
    term = np.full(k.size, 0.5)
    total = term.copy()
    j = 0
    while k.size and term[0] > 1e-17 * total[0]:
        term *= (j + 1.0 - alpha) * (j + 2.0) / ((j + 1.0) * (j + 3.0)) * x
        total += term
        j += 1
    right[2:] = pk * total
    scale = h**alpha
    m0 *= scale
    right *= scale
    c = m0[:n] - right[:n] + right[1:]
    return m0[:n], c, right


def _causal_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i] = sum_{j <= i} a[i - j] b[j] for i < len(b), with a at least as
    long as b: a zero-padded FFT product in O(N log N)."""
    n = b.size
    size = 1 << (2 * n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a[:n], size) * np.fft.rfft(b, size), size)[:n]


def _lag_apply(c: np.ndarray, right: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(W f)[i] = sum_{j <= i} c[i - j] f_j - right[i + 1] f_0 for the tables
    of :func:`_lag_table`: a Toeplitz convolution, by FFT without forming W."""
    return _causal_convolve(c, f) - right[1 : f.size + 1] * f[0]


def rl_integral(f: GridFunction, alpha: float) -> GridFunction:
    """Riemann-Liouville fractional integral I^alpha f on f's own grid.

    Product-trapezoidal quadrature of the weakly singular kernel
    (t - tau)^(alpha-1) / Gamma(alpha); the value at the first grid point
    is 0 by construction.
    """
    h = _uniform_step(f.grid)
    if h is None:
        out = product_trapezoid_weights(f.grid, alpha) @ f.values
    else:
        _, c, right = _lag_table(f.grid.size, h, alpha)
        out = _lag_apply(c, right, f.values)
    out /= specfun.gamma(alpha).value()
    out[0] = 0.0
    return GridFunction(f.grid.copy(), out)


def caputo_l1(f: GridFunction, alpha: float) -> GridFunction:
    """L1 finite-difference Caputo derivative of order alpha in (0, 1).

    Requires a uniform grid with at least 3 points.  The first grid point is
    undefined for the scheme and is marked with nan.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if f.grid.size < 3:
        raise DomainError("need at least 3 grid points")
    h = f.spacing()
    n = f.grid.size
    # kernel q_k = (k+1)^beta - k^beta = beta m0_beta[k+1], beta = 1 - alpha,
    # from the cancellation-free lag-table moment; out[m] = sum_j df_j q_{m-1-j}
    beta = 1.0 - alpha
    q = beta * _lag_table(n, 1.0, beta)[0][1:]
    scale = h ** (-alpha) / specfun.gamma(2.0 - alpha).value()
    out = np.empty(n)
    out[0] = math.nan
    out[1:] = scale * _causal_convolve(q, np.diff(f.values))
    return GridFunction(f.grid.copy(), out)
