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

import bisect
import enum
import functools
import itertools
import math
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
    the band around a Gamma pole (``pole_band``), inside which a root is
    ``near_pole``; around an unpaired numerator pole its edges are samples of
    the scan.  The scan window and step and the other tolerances are module
    constants."""

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


def _at_most_one_root(alpha: float, c: float, xa: float, xb: float) -> bool:
    """Whether g(x) = Gamma(x)/Gamma(x-alpha) = c has at most one root on [xa, xb]
    inside one interval (-k, 1-k), k >= 1.  There g = R S, R = Gamma(1-x+alpha)/
    Gamma(1-x) > 0 decreasing, S = cos(pi alpha) - sin(pi alpha) cot(pi x), so
    S - c/R increases where c (1/R)' <= c alpha psi'(y) Gamma(y)/Gamma(y+alpha),
    y = 1 - xb, is below S' >= pi sin(pi alpha)/max sin^2(pi x); always if c <= 0."""
    y = 1.0 - xb  # psi'(y) <= psi'(min(k, 64)) and psi'(y) <= 1/y + 1/y^2
    psi1 = math.pi**2 / 6.0 - math.fsum(1.0 / j**2 for j in range(1, min(int(y), 64)))
    psi1 = min(psi1, 1.0 / y + 1.0 / y**2)
    slope = c * alpha * psi1 * math.exp(math.lgamma(y) - math.lgamma(y + alpha))
    sin2 = math.sin(math.pi * min(max(xa, math.floor(xa) + 0.5), xb)) ** 2
    return slope * sin2 < math.pi * math.sin(math.pi * alpha)


def resonances(
    problem: PowerLawFde,
    leading: LeadingOrder,
    settings: EngineSettings = DEFAULT_SETTINGS,
) -> list[Resonance]:
    """All real roots of g(r) = p f(t0) A^(p-1) on the scan window.

    The roots are those of a walk that bisects each pair of consecutive finite
    residuals of opposite sign in one sorted stream: the grid lo + i*step,
    every unpaired numerator pole (residual None) and its band edges.  On a
    piece between poles that ``_at_most_one_root`` proves, bisection over
    stream indices finds the sign change without walking the piece.  Roots
    are deduplicated, residual-checked and classified.
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

    # stream index k -> point; ties: grid, edge, pole; a pole at inf ends it
    grid = range(int(round((hi - lo) / _SCAN_STEP)) + 1)
    at = lambda i: lo + i * _SCAN_STEP  # noqa: E731
    edges = [e for p in hazards for e in (p - band, p + band) if lo <= e <= hi]
    extras = sorted([(e, False) for e in edges] + [(p, True) for p in hazards + [math.inf]])
    idx = [t + bisect.bisect_right(grid, x, key=at) for t, (x, _) in enumerate(extras)]

    @functools.lru_cache(maxsize=64)
    def sample(k: int) -> tuple[float, float | None]:
        t = bisect.bisect_left(idx, k)
        x, pole = extras[t] if idx[t] == k else (at(k - t), False)
        return x, None if pole else resid(x)

    roots: list[float] = []

    def scan(s: int, e: int, split: bool) -> None:
        xs, xe = (sample(k)[0] + 1.0 - sigma for k in (s, e))
        same = math.floor(xs) == math.floor(xe)
        # g = x - 1 at alpha = 1; for x > 0, g < 0 up to alpha and increasing after
        if alpha == 1.0 or xs > 0.0 or same and _at_most_one_root(alpha, rhs, xs, xe):
            if ((fs := sample(s)[1]) < 0.0) != (sample(e)[1] < 0.0):
                flip = lambda k: (sample(k)[1] < 0.0) != (fs < 0.0)  # noqa: E731
                s = bisect.bisect_left(range(e), True, s + 1, e, key=flip) - 1
            e = min(s + 2, e)  # walk only the two cells from the sign change
        elif split and same:  # 16 pieces: the bound is sharper near the poles
            for a, b in itertools.pairwise([*range(s, e, (e - s) // 16 + 1), e]):
                scan(a, b, False)
            return
        for (a, fa), (b, fb) in itertools.pairwise(map(sample, range(s, e + 1))):
            if fa is None or fb is None:
                continue
            if fa == 0.0:
                roots.append(a)
            elif (fa < 0.0) != (fb < 0.0):
                roots.append(_bisect(resid, a, b, fa, fb, settings.tol_res))

    # one gap per pair of unpaired poles, less its end samples on a pole
    for p, q in itertools.pairwise([-1] + [k for k, (_, pole) in zip(idx, extras) if pole]):
        s = next((k for k in range(p + 1, q - 1) if sample(k)[1] is not None), q - 1)
        e = next((k for k in range(q - 1, s, -1) if sample(k)[1] is not None), s)
        if s < e:
            scan(s, e, True)

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
