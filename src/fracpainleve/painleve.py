"""Singularity screening for scalar Caputo fractional ODEs.

Given D^alpha y = sum_i f_i(t0) y^{p_i}, the engine asks whether a movable
singularity y ~ A (t - t0)^(-sigma) is admissible, where arbitrary constants
can enter the local expansion (resonances, the roots of a Gamma-ratio
indicial equation), and whether the fractional power-series recursion stays
consistent at each resonance.  A separate routine walks the leading-order
cascade of multi-term linear equations, which collapses to a regular
solution whenever the derivative orders are strictly ordered.

All Gamma arithmetic happens in signed-log space via :mod:`.specfun`; pole
pairs that admit finite limits (the classical alpha = 1 reduction) are
resolved explicitly so that integer-order sanity checks go through the same
code path.
"""

import enum
import heapq
import itertools
import math
import operator
from dataclasses import dataclass

from . import specfun
from .specfun import GammaRatioDegeneracy

__all__ = [
    "EngineSettings",
    "RhsTerm",
    "PowerLawFde",
    "MultiTermLinearFde",
    "LeadingOrder",
    "ResonanceKind",
    "Resonance",
    "CompatibilityEntry",
    "ExpansionResult",
    "Verdict",
    "PainleveReport",
    "NoBalanceError",
    "DepthOverflowError",
    "leading_order",
    "resonances",
    "expand_series",
    "run_test",
    "analyze_multiterm",
]

_ZERO_EXPONENT_TOL = 1e-12
_POSITIVE_TOL = 1e-9
_DEDUPE_TOL = 1e-9
_MAX_DEPTH = 64
# fixed scan and ladder parameters (not problem options)
_SCAN_LO = -10.0
_SCAN_HI = 10.0
_SCAN_STEP = 1e-3
_MINUS_ONE_TOL = 1e-6
_BISECT_TOL = 1e-10
_LADDER_TOL = 1e-6
_MAX_DENOMINATOR = 64


class NoBalanceError(ValueError):
    """No right-hand-side term is superlinear; there is nothing to balance."""


class DepthOverflowError(ValueError):
    """Requested expansion depth exceeds the supported maximum."""


@dataclass(frozen=True)
class EngineSettings:
    """The tolerances a problem file may set through ``options``: the largest
    indicial residual a resonance may keep (``tol_res``), the largest forcing
    a compatible resonance may leave (``tol_compat``) and the half-width of
    the band around a Gamma pole (``pole_band``), whose edges the scan steps
    to and inside which a root is ``near_pole``.  The scan window and step
    and the other tolerances are module constants."""

    pole_band: float = 1e-6
    tol_res: float = 1e-8
    tol_compat: float = 1e-8


DEFAULT_SETTINGS = EngineSettings()


@dataclass(frozen=True)
class RhsTerm:
    """One right-hand-side monomial f(t0) * y^power."""

    coefficient: float
    power: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficient", float(self.coefficient))
        object.__setattr__(self, "power", float(self.power))
        if not math.isfinite(self.coefficient):
            raise ValueError(f"coefficient must be finite, got {self.coefficient}")
        if not (math.isfinite(self.power) and self.power >= 1.0):
            raise ValueError(f"power must be a finite real >= 1, got {self.power}")


@dataclass(frozen=True)
class PowerLawFde:
    """D^alpha y = sum_i f_i(t0) y^{p_i} near a candidate singularity t0.

    Only the coefficient values at t0 matter to the local analysis, so the
    coefficient functions are frozen to numbers up front.  Terms with equal
    powers are merged and terms with zero coefficient dropped; the remaining
    powers are sorted descending.
    """

    alpha: float
    terms: tuple[RhsTerm, ...]
    t0: float = 0.0
    linear: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        merged: dict[float, float] = {}
        for term in self.terms:
            for p in merged:
                if abs(p - term.power) <= 1e-12:
                    merged[p] += term.coefficient
                    break
            else:
                merged[term.power] = term.coefficient
        cleaned = tuple(
            RhsTerm(c, p) for p, c in sorted(merged.items(), reverse=True) if c != 0.0
        )
        if not cleaned:
            raise ValueError("all terms vanish; the equation has no right-hand side")
        if not self.linear and cleaned[0].power <= 1.0:
            raise ValueError(
                "no term with power > 1; flag the problem linear=True if intended"
            )
        object.__setattr__(self, "terms", cleaned)

    @property
    def dominant(self) -> RhsTerm:
        return self.terms[0]


@dataclass(frozen=True)
class MultiTermLinearFde:
    """D^alpha y + a D^beta y + ... + b y = u(t), orders strictly descending."""

    orders: tuple[float, ...]
    coefficients: tuple[float, ...]
    zeroth_coeff: float
    forcing_at_t0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(float(o) for o in self.orders))
        object.__setattr__(
            self, "coefficients", tuple(float(c) for c in self.coefficients)
        )
        if not self.orders:
            raise ValueError("at least one derivative order is required")
        if len(self.orders) != len(self.coefficients):
            raise ValueError("orders and coefficients must have the same length")
        for o in self.orders:
            if not (math.isfinite(o) and 0.0 < o <= 1.0):
                raise ValueError(f"orders must lie in (0, 1], got {o}")
        if any(b - a >= 0 for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError("orders must be strictly descending")
        if self.coefficients[0] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        if not math.isfinite(self.zeroth_coeff) or not math.isfinite(self.forcing_at_t0):
            raise ValueError("zeroth_coeff and forcing_at_t0 must be finite")


@dataclass(frozen=True)
class LeadingOrder:
    """Outcome of the dominant balance y ~ A (t - t0)^(-sigma).

    ``amplitude_power`` stores A^(balanced_power - 1), which the balance
    determines directly; ``amplitude`` is the real amplitude when one exists,
    otherwise the modulus of the complex amplitude (flagged by
    ``amplitude_is_real``).  ``sigma = 0`` marks a regular (non-singular)
    solution, as produced by the multi-term cascade.
    """

    sigma: float
    amplitude: float | None
    balanced_power: float
    degenerate: bool
    amplitude_is_real: bool = True
    amplitude_power: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "amplitude": self.amplitude,
            "amplitude_is_real": self.amplitude_is_real,
            "balanced_power": self.balanced_power,
            "degenerate": self.degenerate,
        }


class ResonanceKind(enum.Enum):
    PRINCIPAL_MINUS_ONE = "principal_minus_one"
    POSITIVE = "positive"
    NEGATIVE_OTHER = "negative_other"
    NEAR_POLE = "near_pole"


@dataclass(frozen=True)
class Resonance:
    """A real root of the indicial equation, with its classification."""

    value: float
    classification: ResonanceKind

    def to_json_dict(self) -> dict:
        return {"value": self.value, "classification": self.classification.value}


@dataclass(frozen=True)
class CompatibilityEntry:
    """Outcome of one consistency check in the series recursion.

    ``resonance_index`` points into the resonance list for genuine resonance
    checks and is None for structural failures (incommensurate exponent
    ladder, pole-struck linear factor at a non-resonant order).
    """

    resonance_index: int | None
    order: int | None
    satisfied: bool
    reason: str
    forcing: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "resonance_index": self.resonance_index,
            "order": self.order,
            "satisfied": self.satisfied,
            "reason": self.reason,
            "forcing": self.forcing,
        }


@dataclass(frozen=True)
class ExpansionResult:
    """Fractional series expansion around the singular (or regular) ansatz."""

    delta: float
    coefficients: tuple[float, ...]
    entries: tuple[CompatibilityEntry, ...]


class Verdict(enum.Enum):
    PASSES = "passes"
    FAILS_COMPLEX_OR_MISSING_RESONANCE = "fails_complex_or_missing_resonance"
    FAILS_COMPATIBILITY = "fails_compatibility"
    REGULAR_NO_SINGULARITY = "regular_no_singularity"
    DEGENERATE_BALANCE = "degenerate_balance"


@dataclass(frozen=True)
class PainleveReport:
    """Full outcome of the singularity test for one problem."""

    leading: LeadingOrder
    resonances: tuple[Resonance, ...]
    has_minus_one: bool
    compatibility: tuple[CompatibilityEntry, ...]
    verdict: Verdict
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "type": "painleve_report",
            "leading": self.leading.to_json_dict(),
            "resonances": [r.to_json_dict() for r in self.resonances],
            "has_minus_one": self.has_minus_one,
            "compatibility": [c.to_json_dict() for c in self.compatibility],
            "verdict": self.verdict.value,
            "notes": list(self.notes),
        }


def _power_ratio(x: float, alpha: float) -> float | GammaRatioDegeneracy:
    """Power-rule factor Gamma(x)/Gamma(x-alpha) of (t-t0)^(x-1); pole pairs
    resolve to their finite limit, ``INFINITE`` passes through.  At alpha = 1
    the factor is x - 1 exactly, pole pairs included; the Gamma route would
    be flat across each pole-pair band, where the bisected root would depend
    on rounding."""
    if alpha == 1.0:
        return x - 1.0
    ratio = specfun.gamma_ratio(x, x - alpha)
    if ratio is GammaRatioDegeneracy.INDETERMINATE:
        return specfun.pole_pair_ratio_limit(x, x - alpha)
    return ratio


def _root(magnitude: float, exponent: float) -> float:
    # magnitude**(1/exponent) without raising on over/underflow; the caller
    # treats non-finite or vanished results as a degenerate balance
    try:
        return magnitude ** (1.0 / exponent)
    except OverflowError:
        return math.inf


def _amplitude_from_power(c: float, exponent: float) -> tuple[float, bool]:
    """Solve A**exponent = c for A; falls back to the modulus when the real
    root does not exist (even root of a negative number, or non-integral
    exponent with c < 0)."""
    k = round(exponent)
    if abs(exponent - k) < 1e-12:
        if k % 2 == 1:
            return math.copysign(_root(abs(c), float(k)), c), True
        if c >= 0.0:
            return _root(c, float(k)), True
        return _root(abs(c), float(k)), False
    if c > 0.0:
        return _root(c, exponent), True
    return _root(abs(c), exponent), False


def leading_order(problem: PowerLawFde) -> LeadingOrder:
    """Balance the fractional derivative of the ansatz against the dominant
    right-hand-side term.

    The exponent match fixes sigma = alpha/(m-1) for dominant power m; the
    coefficient match fixes A^(m-1).  When the Gamma ratio of the balance is
    zero or infinite the balance forces A = 0 and the result is flagged
    degenerate (amplitude unset).
    """
    dominant = problem.dominant
    m = dominant.power
    if m <= 1.0:
        raise NoBalanceError(
            f"every term has power <= 1 (max {m}); no singular balance exists"
        )
    sigma = problem.alpha / (m - 1.0)
    ratio = _power_ratio(1.0 - sigma, problem.alpha)
    if ratio is GammaRatioDegeneracy.INFINITE or ratio == 0.0:
        return LeadingOrder(
            sigma=sigma,
            amplitude=None,
            balanced_power=m,
            degenerate=True,
        )
    amplitude_power = ratio / dominant.coefficient
    amplitude, is_real = _amplitude_from_power(amplitude_power, m - 1.0)
    if not math.isfinite(amplitude) or amplitude == 0.0:
        # the root over/underflowed double precision: no representable
        # nonzero amplitude exists, which is a degenerate balance in kind
        return LeadingOrder(
            sigma=sigma,
            amplitude=None,
            balanced_power=m,
            degenerate=True,
        )
    return LeadingOrder(
        sigma=sigma,
        amplitude=amplitude,
        balanced_power=m,
        degenerate=False,
        amplitude_is_real=is_real,
        amplitude_power=amplitude_power,
    )


def _pole_grid(anchor: float, lo: float, hi: float) -> list[float]:
    """Points anchor - n (n >= 0 integer) inside [lo, hi]."""
    out = []
    n = max(0, math.ceil(anchor - hi))
    p = anchor - n
    while p >= lo - 1e-12:
        if p <= hi + 1e-12:
            out.append(p)
        n += 1
        p = anchor - n
    return out


def _unpaired(poles: list[float], others: list[float]) -> list[float]:
    """The poles not within 1e-9 of any pole in ``others``."""
    return [p for p in poles if all(abs(p - q) >= 1e-9 for q in others)]


def _bisect(f, a: float, b: float, fa: float, fb: float, resid_tol: float) -> float:
    """Bisect to width _BISECT_TOL; where the residual is still above
    resid_tol (steep roots near poles), keep halving down to machine spacing."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        if fm is None or fm == 0.0:
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
        if b - a <= _BISECT_TOL and min(abs(fa), abs(fb)) <= resid_tol:
            break
    return a if abs(fa) <= abs(fb) else b


def resonances(
    problem: PowerLawFde,
    leading: LeadingOrder,
    settings: EngineSettings = DEFAULT_SETTINGS,
) -> list[Resonance]:
    """All real roots of g(r) = p f(t0) A^(p-1) on the scan window.

    One sorted list of points holds the scan grid, every unpaired numerator
    pole (where the residual is infinite) and that pole's band edges; the
    residual is evaluated once per point.  Each consecutive pair with finite
    residuals of opposite sign is refined by bisection.  Roots are
    deduplicated, residual-checked and classified; the returned list is
    deterministic for fixed settings.
    """
    if leading.degenerate:
        raise ValueError("leading order is degenerate; no resonance analysis")
    sigma = leading.sigma
    alpha = problem.alpha
    m = leading.balanced_power
    dominant = problem.dominant
    if abs(dominant.power - m) > 1e-12:
        raise ValueError("leading order does not match the problem's dominant term")
    rhs = m * dominant.coefficient * leading.amplitude_power

    lo, hi, band = _SCAN_LO, _SCAN_HI, settings.pole_band
    num_poles = _pole_grid(sigma - 1.0, lo, hi)
    den_poles = _pole_grid(sigma + alpha - 1.0, lo, hi)
    # a numerator pole on a denominator pole resolves to a finite limit: it is
    # no discontinuity and gets no band
    hazards = _unpaired(num_poles, den_poles)
    banded = hazards + _unpaired(den_poles, num_poles)

    def resid(r: float) -> float | None:
        g = _power_ratio(r + 1.0 - sigma, alpha)
        return None if g is GammaRatioDegeneracy.INFINITE else g - rhs

    n_steps = int(round((hi - lo) / _SCAN_STEP))
    grid = (lo + i * _SCAN_STEP for i in range(n_steps + 1))
    edges = sorted(e for p in hazards for e in (p - band, p + band) if lo <= e <= hi)
    # the residual is infinite on the poles themselves; no call needed there
    samples = heapq.merge(
        ((r, resid(r)) for r in heapq.merge(grid, edges)),
        [(p, None) for p in sorted(hazards)],
        key=operator.itemgetter(0),
    )
    roots: list[float] = []
    for (a, fa), (b, fb) in itertools.pairwise(samples):
        if fa is None or fb is None:
            continue
        if fa == 0.0:
            roots.append(a)
        elif (fa < 0.0) != (fb < 0.0):
            roots.append(_bisect(resid, a, b, fa, fb, settings.tol_res))

    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > _DEDUPE_TOL:
            deduped.append(r)

    out: list[Resonance] = []
    for r in deduped:
        fr = resid(r)
        if fr is None or abs(fr) > settings.tol_res:
            continue
        if any(abs(r - p) <= band for p in banded):
            kind = ResonanceKind.NEAR_POLE
        elif abs(r + 1.0) <= _MINUS_ONE_TOL:
            kind = ResonanceKind.PRINCIPAL_MINUS_ONE
        elif r > _POSITIVE_TOL:
            kind = ResonanceKind.POSITIVE
        else:
            kind = ResonanceKind.NEGATIVE_OTHER
        out.append(Resonance(r, kind))
    return out


def _snap_rational(x: float, max_den: int, tol: float) -> float:
    """Nearest rational p/q (q <= max_den) within tol, else x unchanged."""
    best = x
    best_err = tol
    for q in range(1, max_den + 1):
        p = round(x * q)
        if p < 1:
            continue
        err = abs(x - p / q)
        if err < best_err:
            best = p / q
            best_err = err
            if err == 0.0:
                break
    return best


def _series_pow(coeffs: list[float], power: float, upto: int) -> list[float]:
    """Coefficients of (sum_k coeffs[k] x^k)^power through index ``upto``.

    J.C.P. Miller recurrence; requires coeffs[0] != 0, and coeffs[0] > 0
    unless the power is integral.
    """
    a0 = coeffs[0]
    if a0 == 0.0:
        raise ValueError("leading series coefficient must be nonzero")
    integral = abs(power - round(power)) < 1e-12
    if a0 < 0.0 and not integral:
        raise ValueError("negative leading coefficient with non-integral power")
    w = [a0 ** (float(round(power)) if integral else power)]
    for n in range(1, upto + 1):
        s = 0.0
        for j in range(1, n + 1):
            aj = coeffs[j] if j < len(coeffs) else 0.0
            if aj != 0.0:
                s += ((power + 1.0) * j - n) * aj * w[n - j]
        w.append(s / (n * a0))
    return w


def expand_series(
    problem: PowerLawFde,
    leading: LeadingOrder,
    res: list[Resonance],
    depth: int,
    settings: EngineSettings = DEFAULT_SETTINGS,
) -> ExpansionResult:
    """Drive the fractional power-series recursion to ``depth`` terms.

    The expansion y = sum_k a_k (t-t0)^(-sigma + k delta) uses one arithmetic
    exponent ladder of step delta = min positive element of
    {positive resonances} U {alpha}, snapped to a small rational when one is
    within tolerance.  Every positive resonance and every subdominant term's
    exponent offset must land on the ladder; otherwise the recursion is not
    well-posed and the expansion reports a single unsatisfied
    "incommensurate" entry per positive resonance.

    At non-resonant orders the linear factor g(k delta) - rhs determines a_k;
    at resonance orders a_k is free and the accumulated forcing must vanish
    within tol_compat for the resonance to be compatible.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > _MAX_DEPTH:
        raise DepthOverflowError(f"depth {depth} exceeds the maximum {_MAX_DEPTH}")
    if leading.degenerate:
        raise ValueError("leading order is degenerate; no expansion exists")
    if not leading.amplitude_is_real:
        raise ValueError("amplitude is not real; the real recursion does not apply")

    alpha = problem.alpha
    sigma = leading.sigma
    m = leading.balanced_power
    amp = leading.amplitude
    amp_power = leading.amplitude_power
    if amp_power is None:
        amp_power = amp ** (m - 1.0)

    positive = [
        (i, r.value) for i, r in enumerate(res) if r.value > _POSITIVE_TOL
    ]
    delta0 = min([r for _, r in positive] + [alpha])
    delta = _snap_rational(delta0, _MAX_DENOMINATOR, _LADDER_TOL)

    def _ladder_index(x: float) -> int | None:
        k = round(x / delta)
        if abs(x - k * delta) <= _LADDER_TOL:
            return k
        return None

    incommensurate = False
    order_of_resonance: dict[int, int] = {}
    beyond_depth: list[tuple[int, int]] = []
    for i, r in positive:
        k = _ladder_index(r)
        if k is None or k < 1:
            incommensurate = True
        elif k > depth:
            # the recursion never reaches this resonance, so its consistency
            # is unverified; report that rather than staying silent
            beyond_depth.append((i, k))
        else:
            order_of_resonance[k] = i
    offsets: list[int] = []
    for term in problem.terms:
        nu_i = _ladder_index(alpha - (term.power - 1.0) * sigma)
        if nu_i is None or nu_i < 0:
            incommensurate = True
        else:
            offsets.append(nu_i)

    if incommensurate:
        entries = tuple(
            CompatibilityEntry(i, None, False, "incommensurate", None)
            for i, _ in positive
        ) or (CompatibilityEntry(None, None, False, "incommensurate", None),)
        return ExpansionResult(delta, (amp,), entries)

    balanced_rhs = sum(
        term.power * term.coefficient * amp_power
        for term, nu in zip(problem.terms, offsets)
        if nu == 0
    )

    coeffs = [amp]
    entries: list[CompatibilityEntry] = []
    for k in range(1, depth + 1):
        forcing = 0.0
        try:
            for term, nu in zip(problem.terms, offsets):
                idx = k - nu
                if idx < 0:
                    continue
                padded = coeffs + [0.0] * (idx + 1 - len(coeffs))
                forcing += term.coefficient * _series_pow(padded, term.power, idx)[idx]
        except ValueError:
            # a non-integral power of a negative leading amplitude: the real
            # recursion does not exist past this point
            entries.append(CompatibilityEntry(None, k, False, "nonreal_series", None))
            break
        exponent = -sigma + k * delta
        factor = 0.0  # a constant differentiates to zero
        if abs(exponent) > _ZERO_EXPONENT_TOL:
            factor = _power_ratio(exponent + 1.0, alpha)
        if k in order_of_resonance:
            satisfied = abs(forcing) <= settings.tol_compat
            entries.append(
                CompatibilityEntry(
                    order_of_resonance[k], k, satisfied, "resonance", forcing
                )
            )
            coeffs.append(0.0)
            continue
        if factor is GammaRatioDegeneracy.INFINITE:
            entries.append(
                CompatibilityEntry(None, k, False, "pole_struck", forcing)
            )
            coeffs.append(0.0)
            continue
        linear = factor - balanced_rhs
        if abs(linear) <= 1e-12 * (1.0 + abs(balanced_rhs)):
            # A vanishing linear factor at an order no listed resonance
            # claims: the recursion cannot determine a_k here.
            entries.append(
                CompatibilityEntry(None, k, False, "untracked_resonance", forcing)
            )
            coeffs.append(0.0)
            continue
        coeffs.append(forcing / linear)
    for i, k in beyond_depth:
        entries.append(CompatibilityEntry(i, k, False, "beyond_depth", None))
    return ExpansionResult(delta, tuple(coeffs), tuple(entries))


def run_test(
    problem: PowerLawFde,
    depth: int = 12,
    settings: EngineSettings = DEFAULT_SETTINGS,
) -> PainleveReport:
    """Leading balance, resonance scan and compatibility recursion, composed.

    The verdict is ``passes`` exactly when a resonance sits at r = -1 (the
    free location of the singularity), the amplitude is real, and every
    compatibility check is satisfied.
    """
    leading = leading_order(problem)
    dominant = problem.dominant
    notes = [
        f"dominant term: power {dominant.power!r} with coefficient {dominant.coefficient!r}"
    ]
    if leading.degenerate:
        notes.append(
            "balance Gamma ratio degenerate: the singular ansatz forces A = 0"
        )
        return PainleveReport(
            leading=leading,
            resonances=(),
            has_minus_one=False,
            compatibility=(),
            verdict=Verdict.DEGENERATE_BALANCE,
            notes=tuple(notes),
        )
    res = resonances(problem, leading, settings)
    has_minus_one = any(
        r.classification is ResonanceKind.PRINCIPAL_MINUS_ONE for r in res
    )
    if not leading.amplitude_is_real:
        notes.append("amplitude is complex; real-series compatibility skipped")
        return PainleveReport(
            leading=leading,
            resonances=tuple(res),
            has_minus_one=has_minus_one,
            compatibility=(),
            verdict=Verdict.FAILS_COMPLEX_OR_MISSING_RESONANCE,
            notes=tuple(notes),
        )
    compat = expand_series(problem, leading, res, depth, settings).entries
    if not has_minus_one:
        verdict = Verdict.FAILS_COMPLEX_OR_MISSING_RESONANCE
    elif any(not entry.satisfied for entry in compat):
        verdict = Verdict.FAILS_COMPATIBILITY
    else:
        verdict = Verdict.PASSES
    return PainleveReport(
        leading=leading,
        resonances=tuple(res),
        has_minus_one=has_minus_one,
        compatibility=compat,
        verdict=verdict,
        notes=tuple(notes),
    )


def analyze_multiterm(problem: MultiTermLinearFde) -> PainleveReport:
    """Leading-order cascade for the multi-term linear equation.

    With strictly descending orders every pairwise singular balance leaves
    the most singular term alone after the limit t -> t0+, forcing A = 0; the
    equation therefore admits no movable singularity and the regular branch
    gives the finite amplitude forcing/zeroth_coeff.
    """
    notes: list[str] = []
    top = problem.orders[0]
    notes.append(
        f"most singular exponent -sigma-{top!r}: alone it forces A = 0"
    )
    for k in range(1, len(problem.orders)):
        gap = top - problem.orders[k]
        notes.append(
            f"balance D^{top!r} vs D^{problem.orders[k]!r}: residual factor "
            f"(t-t0)^{gap!r} -> 0 as t -> t0+, again forcing A = 0"
        )
    notes.append(
        f"balance D^{top!r} vs zeroth-order term: residual factor "
        f"(t-t0)^{top!r} -> 0 as t -> t0+, again forcing A = 0"
    )
    notes.append("every singular balance collapses; taking the regular branch sigma = 0")
    if problem.zeroth_coeff == 0.0:
        raise ZeroDivisionError(
            "zeroth-order coefficient is 0; the regular amplitude u(t0)/b is undefined"
        )
    amplitude = problem.forcing_at_t0 / problem.zeroth_coeff
    leading = LeadingOrder(
        sigma=0.0,
        amplitude=amplitude,
        balanced_power=1.0,
        degenerate=False,
        amplitude_is_real=True,
        amplitude_power=1.0,
    )
    return PainleveReport(
        leading=leading,
        resonances=(),
        has_minus_one=False,
        compatibility=(),
        verdict=Verdict.REGULAR_NO_SINGULARITY,
        notes=tuple(notes),
    )
