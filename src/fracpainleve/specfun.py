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
#: guards below still raise instead of returning garbage: measured in steps of
#: 0.01 from 0, E_{alpha,1} trips the cancellation guard from z = -2.72
#: (alpha 0.4), -3.44 (0.5), -5.36 (0.7), -6.52 (0.8) and -6.69 (1), and the
#: term cap from z = 4.15 (0.4), 5.92 (0.5) and 8.44 (0.6); alpha >= 0.7 is
#: reliable on all of [0, 10].
ML_MAX_ABS_Z = 10.0

_ML_STOP_FACTOR = 1e-16
_ML_MAX_TERMS = 20_000
_ML_ABS_TERM_CAP = 1e14
_ML_CANCELLATION_CAP = 1e5


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


def mittag_leffler(params: MittagLefflerParams, z: float) -> float:
    """E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta).

    Truncated power series with term-magnitude stopping (next term below
    1e-16 of the partial sum).  Raises :class:`MittagLefflerRangeError` when
    |z| exceeds the documented range or when alternating-series cancellation
    would destroy the accuracy target.
    """
    if not math.isfinite(z):
        raise MittagLefflerRangeError(f"z must be finite, got {z}")
    if abs(z) > ML_MAX_ABS_Z:
        raise MittagLefflerRangeError(
            f"|z| = {abs(z)} exceeds the reliable range |z| <= {ML_MAX_ABS_Z}"
        )
    terms: list[float] = []
    total = 0.0
    max_term = 0.0
    zk = 1.0  # z**k, exact at k = 0
    small_streak = 0
    for k in range(_ML_MAX_TERMS):
        arg = params.alpha * k + params.beta
        nearest = round(arg)
        if _is_pole(arg):
            # 1/Gamma at a pole is zero; the term drops out.
            term = 0.0
        elif 1 <= nearest <= 171 and abs(arg - nearest) < POLE_TOLERANCE:
            # integer argument: the factorial is exact, so classical limits
            # (exp, cos) come out correctly rounded
            term = zk / math.factorial(int(nearest) - 1)
        else:
            g = gamma(arg)
            try:
                inv_gamma = g.sign * math.exp(-g.log_magnitude)
            except OverflowError:
                inv_gamma = 0.0
            term = zk * inv_gamma
        terms.append(term)
        total += term
        max_term = max(max_term, abs(term))
        if max_term > _ML_ABS_TERM_CAP:
            raise MittagLefflerRangeError(
                f"series terms exceed {_ML_ABS_TERM_CAP:.0e} for alpha={params.alpha}, "
                f"z={z}; result would be dominated by round-off"
            )
        if abs(term) < _ML_STOP_FACTOR * max(abs(total), 1e-300) and k > 0:
            small_streak += 1
            # Two consecutive negligible terms: safe stop even when the
            # series alternates or a Gamma pole zeroed a single term.
            if small_streak >= 2:
                break
        else:
            small_streak = 0
        zk *= z
    else:
        raise MittagLefflerRangeError(
            f"series did not settle within {_ML_MAX_TERMS} terms for z={z}"
        )
    # Compensated summation: the series alternates for z < 0, so naive
    # accumulation order would leak round-off into the leading digits.
    total = math.fsum(terms)
    if max_term > _ML_CANCELLATION_CAP * max(abs(total), 1e-300):
        raise MittagLefflerRangeError(
            f"cancellation loss: max term {max_term:.3e} vs result {total:.3e} "
            f"for alpha={params.alpha}, z={z}"
        )
    return total
