"""Real-argument Gamma machinery and the two-parameter Mittag-Leffler function.

Gamma values are carried in signed-log form so that ratios of huge (or tiny)
Gamma values stay finite, and so that poles at non-positive integers are
ordinary values instead of overflow accidents.  Everything downstream
(power-rule derivatives, indicial equations, closed-form solutions) is built
out of ``gamma_ratio`` and ``mittag_leffler``.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "POLE_TOLERANCE",
    "GammaValue",
    "GammaRatioDegeneracy",
    "MittagLefflerParams",
    "MittagLefflerRangeError",
    "gamma",
    "gamma_ratio",
    "mittag_leffler",
]

#: Arguments closer than this to a non-positive integer count as Gamma poles.
#: Root scans in the singularity engine can land arbitrarily close to poles,
#: so an explicit band beats relying on overflow behaviour.
POLE_TOLERANCE = 1e-9

#: Largest |z| for which the power series is offered at all.  Inside it the
#: guards below still raise instead of returning garbage: for z > 0, E_{alpha,1}
#: trips the term cap from z = 4.15 (alpha 0.4), 5.92 (0.5) and 8.44 (0.6),
#: measured in steps of 0.01, and alpha >= 0.7 is reliable on all of [0, 10].
ML_MAX_ABS_Z = 10.0

#: Most negative z offered to the contour, which takes over from the series
#: where 0 < alpha <= 1, alpha <= beta <= alpha + 2 and |z|^(1/alpha) > 2.
#: Against mpmath (alpha in [0.3, 1], beta in {1, alpha, alpha+1, alpha+2}) its
#: error is below 3e-13 relative, or 3e-15 absolute where |E| < 1e-2; outside
#: that beta band it degrades (6e-6 relative at beta = 10).
ML_MIN_Z = -50.0

_ML_CONTOUR_FROM = 2.0  # beyond it the series cancels worse than the contour rounds
_ML_STOP_FACTOR = 1e-16
_ML_MAX_TERMS = 20_000
_ML_ABS_TERM_CAP = 1e14
_ML_CANCELLATION_CAP = 1e5
# Trapezoid rule with N = 20 on the parabola s = mu (1 + iu)^2, u = kh,
# |k| <= N, h = 3/N, mu = pi N/12: Weideman & Trefethen, Math. Comp. 76 (2007)
# 1341-1356, at t = 1.  More nodes raise e^mu, which amplifies rounding.  By
# conjugate symmetry only k >= 0 is kept, half-weighted at k = 0, with
# weights h/pi e^s ds/du and ds/du = 2i sqrt(mu s).
_ML_NODES = 20
_ML_MU = math.pi * _ML_NODES / 12.0
_ML_S = _ML_MU * (1.0 + 3j / _ML_NODES * np.arange(_ML_NODES + 1)) ** 2
_ML_LOG_S = np.log(_ML_S)
_ML_WEIGHTS = 6j / (math.pi * _ML_NODES) * np.exp(_ML_S) * np.sqrt(_ML_MU * _ML_S)
_ML_WEIGHTS[0] /= 2.0


@dataclass(frozen=True)
class GammaValue:
    """Gamma(x) as sign * exp(log_magnitude), with poles flagged in-band."""

    log_magnitude: float
    sign: int
    is_pole: bool

    def value(self) -> float:
        """Collapse to a plain float; poles map to nan."""
        if self.is_pole:
            return math.nan
        try:
            magnitude = math.exp(self.log_magnitude)
        except OverflowError:
            magnitude = math.inf
        return self.sign * magnitude


class GammaRatioDegeneracy(enum.Enum):
    """Degenerate outcomes of Gamma(num)/Gamma(den)."""

    #: Numerator poles while the denominator does not: the ratio is infinite.
    INFINITE = "infinite"
    #: Both arguments pole: the ratio only makes sense as a limit, which the
    #: caller must take (the pole orders decide the finite value).
    INDETERMINATE = "indeterminate"


class MittagLefflerRangeError(ValueError):
    """Requested argument lies outside the reliable range of the series."""


@dataclass(frozen=True)
class MittagLefflerParams:
    """Parameters (alpha, beta) of E_{alpha,beta}."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")


def _is_pole(x: float) -> bool:
    return x < 0.5 and abs(x - round(x)) < POLE_TOLERANCE and round(x) <= 0


def gamma(x: float) -> GammaValue:
    """Signed-log Gamma(x) for finite real x; poles are values, not errors.

    The magnitude is ``math.lgamma``; below 0 the sign is (-1)^floor(x), the
    sign of Gamma between consecutive poles.
    """
    if not math.isfinite(x):
        raise ValueError(f"gamma requires a finite argument, got {x}")
    if _is_pole(x):
        return GammaValue(math.inf, 1, True)
    try:
        log_magnitude = math.lgamma(x)
    except OverflowError:  # x beyond about 2.5e305
        log_magnitude = math.inf
    sign = -1 if x < 0.0 and math.floor(x) % 2 else 1
    return GammaValue(log_magnitude, sign, False)


def gamma_ratio(num: float, den: float) -> float | GammaRatioDegeneracy:
    """Gamma(num)/Gamma(den) in signed-log space.

    Returns 0.0 when only the denominator poles, ``INFINITE`` when only the
    numerator poles, and ``INDETERMINATE`` when both pole (the caller must
    take the limit appropriate to its context).
    """
    num_pole = _is_pole(num)
    den_pole = _is_pole(den)
    if num_pole and den_pole:
        return GammaRatioDegeneracy.INDETERMINATE
    if num_pole:
        return GammaRatioDegeneracy.INFINITE
    if den_pole:
        return 0.0
    gn = gamma(num)
    gd = gamma(den)
    try:
        magnitude = math.exp(gn.log_magnitude - gd.log_magnitude)
    except OverflowError:
        magnitude = math.inf
    return gn.sign * gd.sign * magnitude


def pole_pair_ratio_limit(num: float, den: float) -> float:
    """Limit of Gamma(num+eps)/Gamma(den+eps) when both arguments pole.

    Near a pole at -n, Gamma(-n+eps) ~ (-1)^n / (n! eps), so the eps cancels
    and the limit is (-1)^(n1+n2) n2!/n1! with n1 = -num, n2 = -den.
    """
    n1 = round(-num)
    n2 = round(-den)
    if n1 < 0 or n2 < 0:
        raise ValueError(f"arguments ({num}, {den}) are not non-positive integers")
    sign = -1.0 if (n1 + n2) % 2 else 1.0
    return sign * math.factorial(n2) / math.factorial(n1)


def _inv_gamma(x: float) -> float:
    """1/Gamma(x): zero at a pole, and an exact factorial at integers in
    [1, 171], so classical limits (exp, cos) come out correctly rounded."""
    if _is_pole(x):
        return 0.0
    nearest = round(x)
    if 1 <= nearest <= 171 and abs(x - nearest) < POLE_TOLERANCE:
        return 1.0 / math.factorial(int(nearest) - 1)
    g = gamma(x)
    try:
        return g.sign * math.exp(-g.log_magnitude)
    except OverflowError:
        return 0.0


def _ml_series(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Power series over all of z at once.  An element stops after two
    consecutive terms below 1e-16 of its partial sum (safe when the series
    alternates or a Gamma pole zeroes one term) and adds zeros from then on;
    the term cap and the cancellation guard hold per element."""
    total, comp, max_term, streak = np.zeros((4, z.size))
    zk = np.ones(z.size)  # z**k, exact at k = 0
    for k in range(_ML_MAX_TERMS):
        term = np.where(streak < 2, zk * _inv_gamma(alpha * k + beta), 0.0)
        # Neumaier compensation: the series alternates for z < 0, so plain
        # accumulation would leak round-off into the leading digits
        new = total + term
        comp += np.where(abs(total) >= abs(term), total - new + term, term - new + total)
        total = new
        np.maximum(max_term, abs(term), out=max_term)
        if np.any(max_term > _ML_ABS_TERM_CAP):
            raise MittagLefflerRangeError(
                f"series terms exceed {_ML_ABS_TERM_CAP:.0e} for alpha={alpha}, "
                f"z={z[np.argmax(max_term)]}; result would be dominated by round-off"
            )
        small = abs(term) < _ML_STOP_FACTOR * np.maximum(abs(total), 1e-300)
        streak = np.where(small & (k > 0), streak + 1, 0)
        if np.all(streak >= 2):
            break
        zk *= z
    else:
        raise MittagLefflerRangeError(
            f"series did not settle within {_ML_MAX_TERMS} terms for z={z[streak < 2][0]}"
        )
    total += comp
    lossy = max_term > _ML_CANCELLATION_CAP * np.maximum(abs(total), 1e-300)
    if lossy.any():
        i = np.argmax(lossy)
        raise MittagLefflerRangeError(
            f"cancellation loss: max term {max_term[i]:.3e} vs result {total[i]:.3e} "
            f"for alpha={alpha}, z={z[i]}"
        )
    return total


def _ml_contour(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Bromwich integral of s^(alpha-beta)/(s^alpha - z) at t = 1 for z < 0
    and 0 < alpha <= 1: every singularity lies on the negative real axis,
    inside the parabola, so no residues are needed."""
    numer = _ML_WEIGHTS * np.exp((alpha - beta) * _ML_LOG_S)
    return (numer / (np.exp(alpha * _ML_LOG_S) - z[:, None])).imag.sum(axis=1)


def mittag_leffler(
    params: MittagLefflerParams, z: float | np.ndarray
) -> float | np.ndarray:
    """E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta), elementwise:
    a float gives a float, an array an array of its shape.

    Where 0 < alpha <= 1, alpha <= beta <= alpha + 2 and z < -2^alpha, the
    value is a parabolic-contour integral, for z down to :data:`ML_MIN_Z`;
    elsewhere it is the power series, for |z| <= :data:`ML_MAX_ABS_Z`.  Raises
    :class:`MittagLefflerRangeError` outside those ranges, or when series
    terms or their cancellation would destroy the accuracy target."""
    values = np.asarray(z, dtype=float)
    flat = values.ravel()
    alpha, beta = params.alpha, params.beta
    served = alpha <= 1.0 and alpha <= beta <= alpha + 2.0
    contour = flat < (-(_ML_CONTOUR_FROM**alpha) if served else -math.inf)
    outside = ~np.isfinite(flat) | (flat < ML_MIN_Z) | (~contour & (abs(flat) > ML_MAX_ABS_Z))
    if outside.any():
        raise MittagLefflerRangeError(
            f"z = {flat[outside][0]} is outside the reliable range |z| <= "
            f"{ML_MAX_ABS_Z} ({ML_MIN_Z} <= z < 0 for alpha <= 1)"
        )
    out = np.empty(flat.size)
    if contour.any():
        out[contour] = _ml_contour(alpha, beta, flat[contour])
    out[~contour] = _ml_series(alpha, beta, flat[~contour])
    return float(out[0]) if values.ndim == 0 else out.reshape(values.shape)
