import heapq
import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpainleve.painleve import (
    CompatibilityEntry,
    EngineSettings,
    LeadingOrder,
    MultiTermLinearFde,
    NoBalanceError,
    DepthOverflowError,
    PowerLawFde,
    Resonance,
    ResonanceKind,
    RhsTerm,
    Verdict,
    analyze_multiterm,
    expand_series,
    leading_order,
    resonances,
    run_test,
)
from fracpainleve import painleve, specfun
from fracpainleve.specfun import GammaRatioDegeneracy, gamma, gamma_ratio

# 50-digit references, computed once with an arbitrary-precision Gamma
GR_06_02 = 0.32438312916656430  # Gamma(0.6)/Gamma(0.2)
LOGISTIC_R_STAR_04 = 0.36552683438452195  # positive indicial root at alpha=0.4


def logistic(alpha, r=1.0, K=1.0):
    return PowerLawFde(alpha, (RhsTerm(r, 1.0), RhsTerm(-r / K, 2.0)))


def cubic(alpha, b=-1.0):
    return PowerLawFde(alpha, (RhsTerm(b, 3.0),))


class TestLeadingOrder:
    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.9])
    def test_logistic_sigma_equals_alpha(self, alpha):
        lead = leading_order(logistic(alpha))
        assert lead.sigma == pytest.approx(alpha, abs=1e-12)
        assert lead.balanced_power == 2.0

    @pytest.mark.parametrize("alpha", [0.4, 0.8])
    def test_cubic_sigma_is_half_alpha(self, alpha):
        lead = leading_order(cubic(alpha))
        assert lead.sigma == pytest.approx(alpha / 2.0, abs=1e-12)

    def test_logistic_amplitude_at_alpha_04(self):
        # balance A Gamma(0.6)/Gamma(0.2) = -A^2 gives A = -Gamma(0.6)/Gamma(0.2)
        lead = leading_order(logistic(0.4))
        assert lead.amplitude == pytest.approx(-GR_06_02, rel=1e-12)
        assert lead.amplitude_is_real

    def test_logistic_amplitude_scales_with_K_over_r(self):
        lead = leading_order(logistic(0.4, r=2.0, K=3.0))
        assert lead.amplitude == pytest.approx(-GR_06_02 * 3.0 / 2.0, rel=1e-12)

    def test_logistic_degenerate_at_alpha_half(self):
        lead = leading_order(logistic(0.5))
        assert lead.degenerate
        assert lead.amplitude is None
        assert lead.sigma == pytest.approx(0.5, abs=1e-12)

    def test_amplitude_continuous_near_degeneracy(self):
        a_49 = leading_order(logistic(0.49)).amplitude
        a_51 = leading_order(logistic(0.51)).amplitude
        assert abs(a_49) < 0.1 and abs(a_51) < 0.1
        assert abs(leading_order(logistic(0.499)).amplitude) < abs(a_49)
        assert abs(leading_order(logistic(0.501)).amplitude) < abs(a_51)

    def test_classical_y_squared_amplitude(self):
        # alpha=1, p=2: pole-pair limit gives A = -1 (y = -1/(t-t0))
        lead = leading_order(PowerLawFde(1.0, (RhsTerm(1.0, 2.0),)))
        assert lead.sigma == 1.0
        assert lead.amplitude == pytest.approx(-1.0, abs=1e-14)

    def test_complex_amplitude_flagged(self):
        # cubic with defocusing sign at alpha=0.5: A^2 < 0
        lead = leading_order(cubic(0.5, b=-1.0))
        assert not lead.amplitude_is_real
        assert lead.amplitude > 0.0  # modulus

    def test_no_balance_error(self):
        problem = PowerLawFde(0.5, (RhsTerm(2.0, 1.0),), linear=True)
        with pytest.raises(NoBalanceError):
            leading_order(problem)

    def test_barely_superlinear_power_degenerates_instead_of_overflowing(self):
        # m - 1 ~ 1e-10: the amplitude root leaves double precision entirely,
        # which the engine reports as a degenerate balance rather than raising
        lead = leading_order(PowerLawFde(0.5, (RhsTerm(1.0, 1.0 + 1e-10),)))
        assert lead.degenerate
        assert lead.amplitude is None

    def test_amplitude_scales_inversely_with_coefficient(self):
        big = leading_order(PowerLawFde(0.7, (RhsTerm(1e8, 2.0),)))
        tiny = leading_order(PowerLawFde(0.7, (RhsTerm(1e-8, 2.0),)))
        assert big.amplitude == pytest.approx(tiny.amplitude * 1e-16, rel=1e-9)

    def test_sigma_balanced_power_relation(self):
        for alpha in (0.2, 0.55, 1.0):
            for power in (1.5, 2.0, 3.0, 4.0):
                lead = leading_order(PowerLawFde(alpha, (RhsTerm(-1.0, power),)))
                assert lead.sigma * (lead.balanced_power - 1.0) == pytest.approx(
                    alpha, abs=1e-12
                )


class TestResonances:
    def test_classical_reduction_closed_form(self):
        # Gamma(r)/Gamma(r-1) = r - 1 pointwise
        for r in (-2.3, -0.7, 0.4, 2.6, 5.1):
            assert gamma_ratio(r, r - 1.0) == pytest.approx(r - 1.0, rel=1e-12)

    def test_classical_y_squared_resonances(self):
        problem = PowerLawFde(1.0, (RhsTerm(1.0, 2.0),))
        lead = leading_order(problem)
        res = resonances(problem, lead)
        assert len(res) == 1
        assert res[0].value == pytest.approx(-1.0, abs=1e-9)
        assert res[0].classification is ResonanceKind.PRINCIPAL_MINUS_ONE

    def test_minus_one_always_present(self):
        # g(-1) = m * Gamma(1-sigma)/Gamma(1-sigma-alpha) identically
        for problem in (logistic(0.4), cubic(0.8), cubic(0.5, b=1.0)):
            lead = leading_order(problem)
            res = resonances(problem, lead)
            assert any(
                r.classification is ResonanceKind.PRINCIPAL_MINUS_ONE for r in res
            )

    def test_root_placed_by_construction(self):
        # hand-build a leading order whose indicial rhs equals g(0.7) via the
        # same gamma_ratio forward map; the scan must then return r = 0.7
        alpha, sigma = 0.5, 0.5
        target = gamma_ratio(0.7 + 1.0 - sigma, 0.7 + 1.0 - sigma - alpha)
        lead = LeadingOrder(
            sigma=sigma,
            amplitude=target / 2.0,
            balanced_power=2.0,
            degenerate=False,
            amplitude_is_real=True,
            amplitude_power=target / 2.0,
        )
        problem = PowerLawFde(alpha, (RhsTerm(1.0, 2.0),))
        res = resonances(problem, lead)
        assert any(r.value == pytest.approx(0.7, abs=1e-9) for r in res)

    def test_rhs_equal_to_g_minus_one_places_minus_one(self):
        alpha, sigma = 0.6, 0.3
        g_minus_one = gamma_ratio(-sigma, -sigma - alpha)
        lead = LeadingOrder(
            sigma=sigma,
            amplitude=g_minus_one / 2.0,
            balanced_power=2.0,
            degenerate=False,
            amplitude_is_real=True,
            amplitude_power=g_minus_one / 2.0,
        )
        problem = PowerLawFde(alpha, (RhsTerm(1.0, 2.0),))
        res = resonances(problem, lead)
        assert any(
            r.classification is ResonanceKind.PRINCIPAL_MINUS_ONE for r in res
        )

    def test_logistic_positive_resonance_value(self):
        problem = logistic(0.4)
        lead = leading_order(problem)
        res = resonances(problem, lead)
        positive = [r for r in res if r.classification is ResonanceKind.POSITIVE]
        assert len(positive) == 1
        assert positive[0].value == pytest.approx(LOGISTIC_R_STAR_04, abs=1e-9)

    def test_residuals_within_tolerance(self):
        problem = logistic(0.35)
        lead = leading_order(problem)
        rhs = 2.0 * problem.dominant.coefficient * lead.amplitude_power
        for r in resonances(problem, lead):
            g_val = gamma_ratio(
                r.value + 1.0 - lead.sigma, r.value + 1.0 - lead.sigma - problem.alpha
            )
            assert abs(g_val - rhs) <= 1e-8

    def test_scaling_covariance(self):
        # scaling the dominant coefficient must leave the resonance set alone
        base = logistic(0.45)
        scaled = PowerLawFde(0.45, (RhsTerm(1.0, 1.0), RhsTerm(-7.0, 2.0)))
        r1 = [r.value for r in resonances(base, leading_order(base))]
        r2 = [r.value for r in resonances(scaled, leading_order(scaled))]
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            assert a == pytest.approx(b, abs=1e-9)
        lead1 = leading_order(base)
        lead2 = leading_order(scaled)
        assert lead2.amplitude_power == pytest.approx(lead1.amplitude_power / 7.0, rel=1e-12)
        assert lead2.sigma == lead1.sigma

    def test_degenerate_leading_rejected(self):
        problem = logistic(0.5)
        with pytest.raises(ValueError):
            resonances(problem, leading_order(problem))

    def test_root_near_numerator_pole_found(self):
        # place a root 2e-4 away from the numerator pole at r = sigma - 1;
        # the bracket-splitting scan must still isolate it
        alpha, sigma = 0.5, 0.5
        target = -0.5 + 2e-4
        g_target = gamma_ratio(target + 1.0 - sigma, target + 1.0 - sigma - alpha)
        lead = LeadingOrder(
            sigma=sigma,
            amplitude=g_target / 2.0,
            balanced_power=2.0,
            degenerate=False,
            amplitude_is_real=True,
            amplitude_power=g_target / 2.0,
        )
        problem = PowerLawFde(alpha, (RhsTerm(1.0, 2.0),))
        res = resonances(problem, lead)
        assert any(r.value == pytest.approx(target, abs=1e-8) for r in res)

    def test_root_inside_denominator_pole_band_classified_near_pole(self):
        # a root within the exclusion band of a denominator pole (where the
        # indicial function crosses zero smoothly) survives the residual
        # filter and is classified near_pole
        alpha, sigma = 0.5, 0.5
        den_pole = sigma + alpha - 1.0  # r = 0, numerator there is fine
        target = den_pole + 5e-7
        g_target = gamma_ratio(target + 1.0 - sigma, target + 1.0 - sigma - alpha)
        lead = LeadingOrder(
            sigma=sigma,
            amplitude=g_target / 2.0,
            balanced_power=2.0,
            degenerate=False,
            amplitude_is_real=True,
            amplitude_power=g_target / 2.0,
        )
        problem = PowerLawFde(alpha, (RhsTerm(1.0, 2.0),))
        res = resonances(problem, lead)
        hits = [r for r in res if abs(r.value - target) < 1e-6]
        assert hits
        assert hits[0].classification is ResonanceKind.NEAR_POLE


# Full resonance lists of the scan (value, classification), pinned so a
# rewrite of the scan keeps every root; values agree to 1e-10, the
# bisection tolerance.
GOLDEN_RESONANCES = {
    # numerator poles sigma - 1 - n fall exactly on scan-grid points
    "logistic_a04": (
        logistic(0.4),
        [
            (-9.114110194146633, "negative_other"),
            (-8.109901441872118, "negative_other"),
            (-7.1048957340717305, "negative_other"),
            (-6.098796286046504, "negative_other"),
            (-5.091121367633343, "negative_other"),
            (-4.081021453559397, "negative_other"),
            (-3.0668088487386704, "negative_other"),
            (-2.0444353247284894, "negative_other"),
            (-1.0, "principal_minus_one"),
            (0.3655268343687057, "positive"),
        ],
    ),
    # the bundled cubic problem
    "cubic_amplitude_a08": (
        cubic(0.8),
        [
            (-9.824911263108254, "negative_other"),
            (-8.827309695661068, "negative_other"),
            (-7.830286952257157, "negative_other"),
            (-6.834089885115624, "negative_other"),
            (-5.83913109564781, "negative_other"),
            (-4.846156317949296, "negative_other"),
            (-3.856663444817066, "negative_other"),
            (-2.87414501863718, "negative_other"),
            (-1.908746703565121, "negative_other"),
            (-1.0, "principal_minus_one"),
            (-0.27289712923765164, "negative_other"),
        ],
    ),
    # grid samples fall inside pole bands; -1 and -5 classify near_pole
    "y2_a09999996": (
        PowerLawFde(0.9999996, (RhsTerm(1.0, 2.0),)),
        [
            (-5.000001599999953, "near_pole"),
            (-4.000002399997692, "negative_other"),
            (-3.0012655746340755, "negative_other"),
            (-2.9987357586622236, "negative_other"),
            (-1.9999992000015916, "negative_other"),
            (-1.0, "near_pole"),
        ],
    ),
    # sigma = 7/30: no pole on the grid
    "y4_a07": (
        PowerLawFde(0.7, (RhsTerm(1.0, 4.0),)),
        [
            (-9.049211510300639, "negative_other"),
            (-8.047800872385501, "negative_other"),
            (-7.046073793888092, "negative_other"),
            (-6.043899385929108, "negative_other"),
            (-5.04105852150917, "negative_other"),
            (-4.037150723040104, "negative_other"),
            (-3.0313458803296083, "negative_other"),
            (-2.02154472309351, "negative_other"),
            (-1.0, "principal_minus_one"),
            (0.23146423208713574, "positive"),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RESONANCES))
def test_resonance_scan_matches_golden_lists(name):
    problem, expected = GOLDEN_RESONANCES[name]
    found = resonances(problem, leading_order(problem))
    assert [r.classification.value for r in found] == [k for _, k in expected]
    for r, (value, _) in zip(found, expected):
        assert r.value == pytest.approx(value, abs=1e-10)


class TestCompatibility:
    def test_no_positive_resonances_vacuous(self):
        problem = cubic(0.8)
        lead = leading_order(problem)
        res = resonances(problem, lead)
        entries = list(expand_series(problem, lead, res, depth=10).entries)
        assert entries == []

    def test_mittag_leffler_series_reproduced(self):
        # D^alpha y = lam y with the regular ladder: coefficients must follow
        # a_{k+1}/a_k = lam Gamma(k alpha + 1)/Gamma((k+1) alpha + 1)
        alpha, lam, y0 = 0.6, 0.8, 1.3
        problem = PowerLawFde(alpha, (RhsTerm(lam, 1.0),), linear=True)
        lead = LeadingOrder(
            sigma=0.0,
            amplitude=y0,
            balanced_power=1.0,
            degenerate=False,
            amplitude_is_real=True,
            amplitude_power=1.0,
        )
        result = expand_series(problem, lead, [], depth=12)
        assert result.delta == pytest.approx(alpha)
        for k, a_k in enumerate(result.coefficients):
            expected = y0 * lam**k / gamma(alpha * k + 1.0).value()
            assert a_k == pytest.approx(expected, rel=1e-10)
        assert result.entries == ()

    def test_classical_logistic_laurent_series(self):
        # y' = y - y^2 has y = 1/u + 1/2 + u/12 - u^3/720 + ... around a pole
        problem = logistic(1.0)
        lead = leading_order(problem)
        res = resonances(problem, lead)
        result = expand_series(problem, lead, res, depth=6)
        expected = [1.0, 0.5, 1.0 / 12.0, 0.0, -1.0 / 720.0, 0.0, 1.0 / 30240.0]
        for a_k, e_k in zip(result.coefficients, expected):
            assert a_k == pytest.approx(e_k, abs=1e-12)

    def test_pure_cubic_alpha_half_resonance_compatible(self):
        problem = cubic(0.5, b=1.0)
        lead = leading_order(problem)
        res = resonances(problem, lead)
        entries = list(expand_series(problem, lead, res, depth=12).entries)
        resonant = [e for e in entries if e.reason == "resonance"]
        assert len(resonant) == 1
        assert resonant[0].satisfied
        assert abs(resonant[0].forcing) <= 1e-8

    def test_injected_inconsistency_detected(self):
        # adding a commensurate linear term leaves nonzero forcing at the
        # positive resonance r = 1, which must fail the 1e-8 threshold
        problem = PowerLawFde(0.5, (RhsTerm(1.0, 3.0), RhsTerm(1e-3, 1.0)))
        lead = leading_order(problem)
        res = resonances(problem, lead)
        entries = list(expand_series(problem, lead, res, depth=12).entries)
        resonant = [e for e in entries if e.reason == "resonance"]
        assert len(resonant) == 1
        assert not resonant[0].satisfied
        assert abs(resonant[0].forcing) > 1e-8

    def test_incommensurate_ladder_flagged(self):
        # fractional logistic: the positive resonance step cannot carry the
        # linear term's exponent offset
        problem = logistic(0.4)
        lead = leading_order(problem)
        res = resonances(problem, lead)
        entries = list(expand_series(problem, lead, res, depth=8).entries)
        assert entries
        assert all(e.reason == "incommensurate" and not e.satisfied for e in entries)

    def test_depth_overflow(self):
        problem = cubic(0.8)
        lead = leading_order(problem)
        with pytest.raises(DepthOverflowError):
            list(expand_series(problem, lead, [], depth=65).entries)

    def test_positive_resonance_beyond_depth_reported(self):
        # a resonance the recursion never reaches is unverified, not passed
        alpha, sigma = 0.5, 0.5
        r_star = 5.0
        g_star = gamma_ratio(r_star + 1.0 - sigma, r_star + 1.0 - sigma - alpha)
        lead = LeadingOrder(
            sigma=sigma,
            amplitude=g_star / 2.0,
            balanced_power=2.0,
            degenerate=False,
            amplitude_is_real=True,
            amplitude_power=g_star / 2.0,
        )
        problem = PowerLawFde(alpha, (RhsTerm(1.0, 2.0),))
        res = [Resonance(r_star, ResonanceKind.POSITIVE)]
        entries = list(expand_series(problem, lead, res, depth=4).entries)
        assert any(e.reason == "beyond_depth" and not e.satisfied for e in entries)
        deep = list(expand_series(problem, lead, res, depth=12).entries)
        assert all(e.reason != "beyond_depth" for e in deep)

    def test_nonreal_series_marked_not_crashed(self):
        # negative amplitude with a non-integral subdominant power: the real
        # recursion cannot be continued and must say so in-band.  The leading
        # order is hand-built so the ladder itself is commensurate (resonance
        # at alpha/2 carries the half-step the 1.5-power offset needs).
        alpha, sigma = 0.8, 0.8
        r_star = 0.4
        g_star = gamma_ratio(r_star + 1.0 - sigma, r_star + 1.0 - sigma - alpha)
        lead = LeadingOrder(
            sigma=sigma,
            amplitude=-1.0,
            balanced_power=2.0,
            degenerate=False,
            amplitude_is_real=True,
            amplitude_power=g_star / 2.0,
        )
        problem = PowerLawFde(alpha, (RhsTerm(1.0, 2.0), RhsTerm(0.3, 1.5)))
        res = [Resonance(r_star, ResonanceKind.POSITIVE)]
        entries = list(expand_series(problem, lead, res, depth=8).entries)
        assert any(e.reason == "nonreal_series" and not e.satisfied for e in entries)


class TestRunTest:
    def test_classical_y_squared_passes(self):
        report = run_test(PowerLawFde(1.0, (RhsTerm(1.0, 2.0),)), depth=12)
        assert report.verdict is Verdict.PASSES
        assert report.has_minus_one
        values = [r.value for r in report.resonances]
        assert len(values) == 1 and values[0] == pytest.approx(-1.0, abs=1e-9)

    def test_logistic_alpha_04_report(self):
        report = run_test(logistic(0.4), depth=8)
        assert report.leading.sigma == pytest.approx(0.4, abs=1e-12)
        assert report.leading.amplitude == pytest.approx(-GR_06_02, rel=1e-10)
        assert report.has_minus_one
        # the delta ladder cannot host both the positive resonance and the
        # linear term's offset, so compatibility fails as incommensurate
        assert report.verdict is Verdict.FAILS_COMPATIBILITY

    def test_logistic_alpha_05_degenerate(self):
        report = run_test(logistic(0.5))
        assert report.verdict is Verdict.DEGENERATE_BALANCE
        assert report.resonances == ()

    def test_pure_cubic_alpha_half_passes(self):
        report = run_test(cubic(0.5, b=1.0), depth=12)
        assert report.verdict is Verdict.PASSES

    def test_classical_cubic_branch_point(self):
        # y' = -2 y^3 has y = (4(t - t0))^(-1/2): a movable branch point with
        # sigma = 1/2, amplitude 1/2, and the indicial function collapses to
        # the linear form r - 1/2 whose only root at rhs = -3/2 is r = -1
        report = run_test(PowerLawFde(1.0, (RhsTerm(-2.0, 3.0),)), depth=10)
        assert report.leading.sigma == pytest.approx(0.5, abs=1e-14)
        assert report.leading.amplitude == pytest.approx(0.5, rel=1e-12)
        values = [r.value for r in report.resonances]
        assert len(values) == 1 and values[0] == pytest.approx(-1.0, abs=1e-9)
        assert report.verdict is Verdict.PASSES

    def test_complex_amplitude_verdict(self):
        report = run_test(cubic(0.5, b=-1.0), depth=8)
        assert report.verdict is Verdict.FAILS_COMPLEX_OR_MISSING_RESONANCE

    def test_verdict_passes_implication(self):
        for problem in (
            PowerLawFde(1.0, (RhsTerm(1.0, 2.0),)),
            cubic(0.5, b=1.0),
            logistic(1.0),
        ):
            report = run_test(problem, depth=10)
            if report.verdict is Verdict.PASSES:
                assert report.has_minus_one
                assert all(e.satisfied for e in report.compatibility)

    def test_report_round_trip(self):
        report = run_test(logistic(0.4), depth=8)
        d = report.to_json_dict()
        assert d["verdict"] == "fails_compatibility"
        assert d["leading"]["sigma"] == report.leading.sigma
        assert len(d["resonances"]) == len(report.resonances)


@given(
    alpha=st.floats(min_value=0.2, max_value=0.95),
    scale=st.floats(min_value=0.1, max_value=20.0),
)
@settings(max_examples=8, deadline=None)
def test_randomized_scaling_covariance(alpha, scale):
    # multiplying the dominant coefficient rescales A^(m-1) by its inverse
    # and leaves sigma and the resonance set untouched
    if abs(2.0 * alpha - 1.0) < 0.02:
        return  # skip the degenerate-balance neighbourhood
    base = PowerLawFde(alpha, (RhsTerm(1.0, 1.0), RhsTerm(-1.0, 2.0)))
    scaled = PowerLawFde(alpha, (RhsTerm(1.0, 1.0), RhsTerm(-scale, 2.0)))
    lead_base = leading_order(base)
    lead_scaled = leading_order(scaled)
    assert lead_scaled.sigma == lead_base.sigma
    assert lead_scaled.amplitude_power == pytest.approx(
        lead_base.amplitude_power / scale, rel=1e-12
    )
    r_base = [r.value for r in resonances(base, lead_base)]
    r_scaled = [r.value for r in resonances(scaled, lead_scaled)]
    assert len(r_base) == len(r_scaled)
    for a, b in zip(r_base, r_scaled):
        assert a == pytest.approx(b, abs=1e-9)


@given(
    alpha=st.floats(min_value=0.15, max_value=1.0),
    power=st.sampled_from([2.0, 3.0]),
    coeff=st.floats(min_value=0.2, max_value=5.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=25, deadline=None)
def test_randomized_verdict_implication(alpha, power, coeff, sign):
    problem = PowerLawFde(alpha, (RhsTerm(sign * coeff, power),))
    lead = leading_order(problem)
    assert lead.sigma * (lead.balanced_power - 1.0) == pytest.approx(alpha, abs=1e-12)
    if lead.degenerate:
        report = run_test(problem, depth=6)
        assert report.verdict is Verdict.DEGENERATE_BALANCE
        return
    report = run_test(problem, depth=6)
    if report.verdict is Verdict.PASSES:
        assert report.has_minus_one
        assert all(e.satisfied for e in report.compatibility)
        assert report.leading.amplitude_is_real


class TestMultiterm:
    @pytest.mark.parametrize(
        "orders,coeffs,b,u,expected",
        [
            ((1.0, 0.5), (1.0, 1.0), 2.0, 4.0, 2.0),
            ((0.9, 0.3), (1.0, 0.5), 1.0, 1.0, 1.0),
            ((0.7, 0.2), (1.0, 2.0), 4.0, -6.0, -1.5),
        ],
    )
    def test_regular_amplitude(self, orders, coeffs, b, u, expected):
        report = analyze_multiterm(MultiTermLinearFde(orders, coeffs, b, u))
        assert report.verdict is Verdict.REGULAR_NO_SINGULARITY
        assert report.leading.amplitude == pytest.approx(expected, abs=1e-12)
        assert report.leading.sigma == 0.0

    def test_zero_forcing_gives_zero_amplitude(self):
        report = analyze_multiterm(MultiTermLinearFde((0.8, 0.4), (1.0, 1.0), 3.0, 0.0))
        assert report.leading.amplitude == 0.0
        assert report.verdict is Verdict.REGULAR_NO_SINGULARITY

    def test_zero_zeroth_coefficient_raises(self):
        with pytest.raises(ZeroDivisionError):
            analyze_multiterm(MultiTermLinearFde((1.0, 0.5), (1.0, 1.0), 0.0, 4.0))

    def test_cascade_documented_in_notes(self):
        report = analyze_multiterm(MultiTermLinearFde((1.0, 0.5), (1.0, 1.0), 2.0, 4.0))
        assert any("forcing A = 0" in note for note in report.notes)

    def test_invalid_orders_rejected(self):
        with pytest.raises(ValueError):
            MultiTermLinearFde((0.5, 0.9), (1.0, 1.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            MultiTermLinearFde((1.0, 0.5), (0.0, 1.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            MultiTermLinearFde((1.2, 0.5), (1.0, 1.0), 1.0, 1.0)


class TestProblemValidation:
    def test_zero_coefficient_terms_dropped(self):
        problem = PowerLawFde(0.5, (RhsTerm(0.0, 3.0), RhsTerm(1.0, 2.0)))
        assert problem.dominant.power == 2.0

    def test_equal_powers_merged(self):
        problem = PowerLawFde(0.5, (RhsTerm(1.0, 2.0), RhsTerm(2.0, 2.0)))
        assert len(problem.terms) == 1
        assert problem.dominant.coefficient == 3.0

    def test_superlinear_term_required_unless_linear(self):
        with pytest.raises(ValueError):
            PowerLawFde(0.5, (RhsTerm(1.0, 1.0),))
        PowerLawFde(0.5, (RhsTerm(1.0, 1.0),), linear=True)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            PowerLawFde(1.5, (RhsTerm(1.0, 2.0),))
        with pytest.raises(ValueError):
            PowerLawFde(0.0, (RhsTerm(1.0, 2.0),))


@pytest.mark.parametrize("power", [1.5, 2.0, 2.5, 3.0, 4.0, 5.0])
def test_classical_minus_one_resonance_is_exact(power):
    # at alpha = 1 the power-rule factor is x - 1, pole pairs included, so
    # y' = c y^p has its resonance at exactly -1 (criterion 4 allows 1e-9)
    for c in (-2.0, -1.0, -0.7, -0.25, 0.25, 0.5, 0.7, 1.0, 2.0):
        report = run_test(PowerLawFde(1.0, (RhsTerm(c, power),)), depth=4)
        assert [r.value for r in report.resonances] == [-1.0], (power, c)
        assert report.resonances[0].classification is ResonanceKind.PRINCIPAL_MINUS_ONE


def reference_walk(problem, lead, opts=EngineSettings()):
    """The scan before pole-interval brackets: one walk over the whole stream
    (grid, band edges, unpaired poles), bisecting every sign change; kept as
    the reference whose list ``resonances`` must reproduce exactly."""
    sigma, alpha, band = lead.sigma, problem.alpha, opts.pole_band
    rhs = lead.balanced_power * problem.dominant.coefficient * lead.amplitude_power
    lo, hi, step = painleve._SCAN_LO, painleve._SCAN_HI, painleve._SCAN_STEP
    num = painleve._pole_grid(sigma - 1.0, lo, hi)
    den = painleve._pole_grid(sigma + alpha - 1.0, lo, hi)
    hazards = painleve._unpaired(num, den)
    banded = hazards + painleve._unpaired(den, num)

    def resid(r):
        g = painleve._power_ratio(r + 1.0 - sigma, alpha)
        return None if g is GammaRatioDegeneracy.INFINITE else g - rhs

    grid = (lo + i * step for i in range(int(round((hi - lo) / step)) + 1))
    edges = sorted(e for p in hazards for e in (p - band, p + band) if lo <= e <= hi)
    samples = heapq.merge(
        ((r, resid(r)) for r in heapq.merge(grid, edges)),
        [(p, None) for p in sorted(hazards)],
        key=operator.itemgetter(0),
    )
    roots = []
    for (a, fa), (b, fb) in itertools.pairwise(samples):
        if fa is not None and fb is not None and fa == 0.0:
            roots.append(a)
        elif fa is not None and fb is not None and (fa < 0.0) != (fb < 0.0):
            roots.append(painleve._bisect(resid, a, b, fa, fb, opts.tol_res))
    deduped = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > painleve._DEDUPE_TOL:
            deduped.append(r)
    out = []
    for r in deduped:
        fr = resid(r)
        if fr is None or abs(fr) > opts.tol_res:
            continue
        if any(abs(r - p) <= band for p in banded):
            kind = "near_pole"
        elif abs(r + 1.0) <= painleve._MINUS_ONE_TOL:
            kind = "principal_minus_one"
        else:
            kind = "positive" if r > painleve._POSITIVE_TOL else "negative_other"
        out.append((r, kind))
    return out


def _listed(res):
    return [(r.value, r.classification.value) for r in res]


def _count_gamma_ratio(monkeypatch):
    calls = [0]
    inner = specfun.gamma_ratio

    def counted(x, y):
        calls[0] += 1
        return inner(x, y)

    monkeypatch.setattr(specfun, "gamma_ratio", counted)
    return calls


@st.composite
def _scan_problems(draw):
    if draw(st.booleans()):
        digits = draw(st.integers(1, 4))
        alpha = round(draw(st.floats(0.05, 1.0)), digits)
    else:  # within 2e-9 to 1e-6 of k/1000: pole bands and pole pairs nearly meet
        offset = draw(st.floats(2e-9, 1e-6)) * draw(st.sampled_from([-1.0, 1.0]))
        alpha = min(draw(st.integers(50, 1000)) / 1000 + offset, 1.0)
    power = draw(st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0, 5.0]))

    def coeff():
        return draw(st.floats(0.25, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))

    lower = draw(st.lists(st.floats(1.0, power - 0.1), max_size=2))
    terms = [RhsTerm(coeff(), power)] + [RhsTerm(coeff(), q) for q in lower]
    opts = EngineSettings(
        pole_band=draw(st.sampled_from([1e-4, 1e-5, 1e-6, 1e-8])),
        tol_res=draw(st.sampled_from([1e-8, 1e-12])),
    )
    return PowerLawFde(alpha, tuple(terms)), opts


@given(case=_scan_problems())
@settings(max_examples=30, deadline=None)
def test_bracketed_scan_equals_full_walk(case):
    # same count, same classes and == on the values: the bracketed scan
    # bisects the very cells the full walk bisects
    problem, opts = case
    lead = leading_order(problem)
    if lead.degenerate:
        return
    assert _listed(resonances(problem, lead, opts)) == reference_walk(problem, lead, opts)


@pytest.mark.parametrize(
    "problem", [logistic(0.4), cubic(0.8), GOLDEN_RESONANCES["y4_a07"][0]]
)
def test_scan_cost_stays_bracketed(problem, monkeypatch):
    # the full-window walk costs about 20 000 Gamma ratios; brackets a few hundred
    lead = leading_order(problem)
    calls = _count_gamma_ratio(monkeypatch)
    resonances(problem, lead)
    assert 0 < calls[0] <= 1000


def test_uniqueness_bound_is_sound():
    # wherever the bound claims at most one root of g = c > 0 on (n, n+1),
    # 10^4 samples of g - c change sign at most once
    rng = random.Random(2024)
    claimed = 0
    for _ in range(300):
        alpha, c, n = rng.uniform(0.05, 0.99), rng.uniform(0.01, 30.0), rng.randint(-12, -1)
        if not painleve._at_most_one_root(alpha, c, float(n), n + 1.0):
            continue
        claimed += 1
        xs = [n + (i + 0.5) / 1e4 for i in range(10_000)]
        signs = [math.gamma(x) / math.gamma(x - alpha) < c for x in xs]
        assert sum(a != b for a, b in itertools.pairwise(signs)) <= 1, (alpha, c, n)
    assert 100 < claimed < 300


def test_unproven_piece_is_walked(monkeypatch):
    # y' = y^1.5 at alpha = 0.51: c = 21.3 defeats the bound on (-1, 0) as a
    # whole and on its middle pieces, which are walked point by point
    problem = PowerLawFde(0.51, (RhsTerm(1.0, 1.5),))
    lead = leading_order(problem)
    c = 1.5 * lead.amplitude_power
    assert not painleve._at_most_one_root(0.51, c, -1.0, 0.0)
    verdicts = []
    bound = painleve._at_most_one_root

    def spy(alpha, c, xa, xb):
        verdicts.append((xa, xb, bound(alpha, c, xa, xb)))
        return verdicts[-1][2]

    monkeypatch.setattr(painleve, "_at_most_one_root", spy)
    calls = _count_gamma_ratio(monkeypatch)
    found = _listed(resonances(problem, lead))
    walked = [(a, b) for a, b, ok in verdicts if not ok and -1.0 < a < b < 0.0]
    walked = [(a, b) for a, b in walked if b - a < 0.5]  # pieces, not the interval
    assert len(walked) >= 2
    assert calls[0] >= sum(xb - xa for xa, xb in walked) / painleve._SCAN_STEP
    monkeypatch.undo()
    assert found == reference_walk(problem, lead)


@pytest.mark.parametrize("power", [2.0, 3.0])
def test_paired_pole_window_is_walked(power, monkeypatch):
    # alpha = 1 - 5e-10 pairs every numerator pole with a denominator pole, so
    # no pole splits the window; spanning pole pairs, it is walked in full.
    # The balance of y^2 is degenerate there, so the leading order is built
    # from its alpha = 1 limit, Gamma(1-sigma)/Gamma(-sigma) = -sigma.
    alpha = 1.0 - 5e-10
    sigma = alpha / (power - 1.0)
    problem = PowerLawFde(alpha, (RhsTerm(1.0, power),))
    lead = LeadingOrder(sigma, 1.0, power, False, True, -sigma)
    calls = _count_gamma_ratio(monkeypatch)
    found = _listed(resonances(problem, lead))
    assert calls[0] >= 20_001
    monkeypatch.undo()
    assert found == reference_walk(problem, lead)
