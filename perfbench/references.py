"""Independent checks of the program's outputs.

Nothing here imports the program.  References come from mpmath, from closed
forms of manufactured solutions, or from properties of the numerical methods
(see README.md for how each tolerance follows from the method's order).
Every check returns a list of error strings; an empty list means the output
passed.
"""

import hashlib
import json
import math

import mpmath as mp
import numpy as np

EPS = np.finfo(float).eps

#: Distance to a non-positive integer at which a Gamma argument is a pole
#: (the program's documented pole band).
POLE_BAND = 1e-9

#: Relative accuracy claimed for the program's real Gamma (README: 1e-12 for
#: the recurrence; measured log-error 8.9e-15), used where a result carries
#: a handful of Gamma factors.
GAMMA_REL = 1e-12

#: Picard stopping tolerance the benchmark passes on the command line.
PICARD_TOL = 1e-10

#: Constants C of the ABM error bounds, per solution family (README.md,
#: "march", gives the orders and how each C was set):
#:   t2          C h^(1+alpha) (1 + max|y|)
#:   relaxation  C h^(2 alpha) lam^2 |y0|
#:   blowup      C (h/t*)^2 y0, on [0, t*/2]
ABM_CONST = {"t2": 4.0, "relaxation": 1.0, "blowup": 15.0}


def digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def parse_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = text.splitlines()
    if not lines or lines[0] != "t,y":
        raise ValueError("missing t,y header")
    data = np.array([row.split(",") for row in lines[1:]], dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("rows must hold two numbers")
    return data[:, 0], data[:, 1]


# -- special functions in mpmath ---------------------------------------------


def _is_pole(x) -> bool:
    return x < 0.5 and abs(x - round(x)) < POLE_BAND


def gamma_ratio_mp(num: float, den: float):
    """Gamma(num)/Gamma(den) at 30 digits.  Arguments within the pole band
    are snapped to the integer, so pole pairs give their finite limit; a
    lone numerator pole gives +inf."""
    with mp.workdps(30):
        a = mp.mpf(round(num)) if _is_pole(num) else mp.mpf(num)
        b = mp.mpf(round(den)) if _is_pole(den) else mp.mpf(den)
        try:
            return mp.gammaprod([a], [b])
        except (ValueError, ZeroDivisionError):
            return mp.inf


def ml_coefficients(alpha: float, beta: float, zmax: float, dps: int = 30):
    """1/Gamma(alpha k + beta) for k = 0.. until |zmax|^k/Gamma falls below
    10^-dps of the largest term."""
    with mp.workdps(dps + 10):
        coeffs = []
        biggest = mp.mpf(0)
        k = 0
        while True:
            c = mp.rgamma(mp.mpf(alpha) * k + mp.mpf(beta))
            term = abs(c) * mp.mpf(zmax) ** k
            biggest = max(biggest, term)
            coeffs.append(c)
            if k > 5 and term < biggest * mp.mpf(10) ** (-dps - 2) and term < mp.mpf(10) ** (-dps):
                break
            k += 1
    return coeffs


def mittag_leffler_mp(alpha: float, beta: float, z: np.ndarray, dps: int = 30) -> np.ndarray:
    """E_{alpha,beta}(z) summed in mpmath at ``dps`` digits (plus guard
    digits for the cancellation of negative z), rounded to double."""
    z = np.asarray(z, dtype=float)
    zmax = float(np.max(np.abs(z))) if z.size else 0.0
    guard = int(math.ceil(max(zmax, 1.0) ** (1.0 / alpha) / math.log(10))) + 5
    coeffs = ml_coefficients(alpha, beta, max(zmax, 1e-300), dps + guard)
    out = np.empty(z.size)
    with mp.workdps(dps + guard):
        for i, zi in enumerate(z):
            x = mp.mpf(float(zi))
            acc = mp.mpf(0)
            for c in reversed(coeffs):
                acc = acc * x + c
            out[i] = float(acc)
    return out


def mittag_leffler_f64(alpha: float, beta: float, z: np.ndarray) -> tuple[np.ndarray, float]:
    """E_{alpha,beta}(z) by Horner in double precision on mpmath
    coefficients, and a bound on its rounding error (2 n eps times the sum of
    the absolute terms, n the number of terms)."""
    z = np.asarray(z, dtype=float)
    zmax = float(np.max(np.abs(z)))
    coeffs = [float(c) for c in ml_coefficients(alpha, beta, max(zmax, 1e-300), 17)]
    acc = np.zeros_like(z)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc, 2 * len(coeffs) * EPS * ml_abs_sum(alpha, beta, zmax)


def ml_abs_sum(alpha: float, beta: float, x: float) -> float:
    """sum_k x^k / |Gamma(alpha k + beta)| for x >= 0: bounds |E_{alpha,beta}(z)|
    and the magnitude of the series terms for |z| <= x."""
    coeffs = ml_coefficients(alpha, beta, max(x, 1e-300), 20)
    with mp.workdps(25):
        return float(sum(abs(c) * mp.mpf(x) ** k for k, c in enumerate(coeffs)))


# -- screen ------------------------------------------------------------------


def check_power_law(doc: dict, raw: bytes, report: dict) -> list[str]:
    """Leading balance, amplitude, degeneracy and resonances in mpmath."""
    errs = []
    if report.get("input_digest") != digest(raw):
        errs.append("input_digest is not the sha256 of the file")
    res = report["result"]
    tol_res = report["tolerances"]["tol_res"]
    alpha = float(doc["alpha"])
    merged = {}
    for term in doc["terms"]:
        merged[float(term["power"])] = merged.get(float(term["power"]), 0.0) + term["coefficient"]
    m = max(p for p, c in merged.items() if c != 0.0)
    c = merged[m]
    lead = res["leading"]
    sigma = alpha / (m - 1.0)
    if abs(lead["sigma"] - sigma) > 4 * EPS * sigma:
        errs.append(f"sigma {lead['sigma']!r} != alpha/(m-1) = {sigma!r}")
    if lead["balanced_power"] != m:
        errs.append(f"balanced power {lead['balanced_power']} != dominant power {m}")
    num, den = 1.0 - sigma, 1.0 - sigma - alpha
    degenerate = _is_pole(num) != _is_pole(den)
    if lead["degenerate"] != degenerate:
        errs.append(f"degenerate flag {lead['degenerate']} but balance ratio degenerate={degenerate}")
    if degenerate:
        if res["verdict"] != "degenerate_balance" or lead["amplitude"] is not None:
            errs.append("degenerate balance must give verdict degenerate_balance and no amplitude")
        if res["resonances"]:
            errs.append("degenerate balance reports resonances")
        return errs
    if res["verdict"] == "degenerate_balance":
        errs.append("verdict degenerate_balance on a balance whose ratio is finite and nonzero")
        return errs
    ratio = gamma_ratio_mp(num, den)
    amp = lead["amplitude"]
    if amp is None:
        return errs + ["non-degenerate balance without an amplitude"]
    with mp.workdps(30):
        target = ratio / c
        odd_root = abs((m - 1.0) - round(m - 1.0)) < 1e-12 and round(m - 1.0) % 2 == 1
        real_root = target > 0 or odd_root
        if lead["amplitude_is_real"] != bool(real_root):
            errs.append(f"amplitude_is_real={lead['amplitude_is_real']} but c A^(m-1) = {float(target)!r}")
        a_mp = mp.mpf(amp)
        if lead["amplitude_is_real"]:
            got = c * (a_mp ** int(round(m - 1.0)) if odd_root else abs(a_mp) ** (m - 1.0))
        else:
            got = -c * abs(a_mp) ** (m - 1.0)  # modulus reported: |A|^(m-1) = -ratio/c
        if abs(got - ratio) > GAMMA_REL * abs(ratio):
            errs.append(f"c A^(m-1) = {float(got)!r} != Gamma(1-s)/Gamma(1-s-a) = {float(ratio)!r}")
        if not lead["amplitude_is_real"] and res["verdict"] != "fails_complex_or_missing_resonance":
            errs.append("complex amplitude with a verdict other than fails_complex_or_missing_resonance")
        rhs = m * ratio
        principal = False
        for r in res["resonances"]:
            val = r["value"]
            g = gamma_ratio_mp(val + 1.0 - sigma, val + 1.0 - sigma - alpha)
            if not mp.isfinite(g) or abs(g - rhs) > tol_res:
                errs.append(f"resonance {val!r}: |g(r) - m c A^(m-1)| = {float(abs(g - rhs)):.3e} > tol_res")
            if r["classification"] == "principal_minus_one" and abs(val + 1.0) <= 1e-6:
                principal = True
        if not principal or not res["has_minus_one"]:
            errs.append("r = -1 is not reported as principal_minus_one")
    return errs


def check_multiterm(doc: dict, raw: bytes, report: dict) -> list[str]:
    errs = []
    if report.get("input_digest") != digest(raw):
        errs.append("input_digest is not the sha256 of the file")
    res = report["result"]
    lead = res["leading"]
    if res["verdict"] != "regular_no_singularity":
        errs.append(f"verdict {res['verdict']} for a multi-term linear equation")
    amp = doc["forcing_at_t0"] / doc["zeroth_coeff"]
    if lead["sigma"] != 0.0 or lead["amplitude"] is None or abs(lead["amplitude"] - amp) > 2 * EPS * abs(amp):
        errs.append(f"amplitude {lead['amplitude']!r} != u(t0)/b = {amp!r} (or sigma != 0)")
    return errs


# -- volterra ----------------------------------------------------------------


def exact_solution(spec: dict, t: np.ndarray, digits30: bool = True) -> tuple[np.ndarray, float]:
    """Values of the manufactured or closed-form solution on the grid t, and
    a bound on their error.  E_alpha is summed in mpmath at 30 digits, or
    (``digits30=False``, for long grids checked to the ABM's order) in
    double precision."""
    if spec["solution"] == "t2":
        return spec["b"] * t * t, 0.0
    if spec["solution"] == "relaxation":
        z = -spec["lam"] * t ** spec["alpha"]
        if digits30:
            return spec["y0"] * mittag_leffler_mp(spec["alpha"], 1.0, z), 0.0
        e, bound = mittag_leffler_f64(spec["alpha"], 1.0, z)
        return spec["y0"] * e, abs(spec["y0"]) * bound
    if spec["solution"] == "blowup":
        p = spec["p"]
        return (spec["y0"] ** (1 - p) - (p - 1) * t) ** (-1.0 / (p - 1)), 0.0
    raise ValueError(spec["solution"])


def field_along(spec: dict, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F(t, y(t)) = D^alpha y along the exact solution."""
    if spec["solution"] == "t2":
        return spec["c"] * t ** (2.0 - spec["alpha"])
    if spec["solution"] == "relaxation":
        return -spec["lam"] * y
    raise ValueError(spec["solution"])


def product_trapezoid(g: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """I^alpha of the piecewise-linear interpolant of g on a uniform grid
    (the Diethelm-Ford-Freed corrector weights), by direct convolution."""
    n = g.size
    j = np.arange(n + 1, dtype=float)
    p1 = j ** (alpha + 1.0)
    a = p1[2:] - 2.0 * p1[1:-1] + p1[:-2]  # a[l-1], l = 1 .. n-1
    out = np.zeros(n)
    idx = np.arange(1, n, dtype=float)
    out[1:] = ((idx - 1.0) ** (alpha + 1.0) - (idx - 1.0 - alpha) * idx**alpha) * g[0] + g[1:]
    if n > 2:
        out[2:] += np.convolve(g[1:-1], a[: n - 2])[: n - 2]
    return out * h**alpha / math.gamma(alpha + 2.0)


def _grid_errors(t: np.ndarray, n: int, T: float) -> list[str]:
    if t.size != n:
        return [f"{t.size} grid points, expected {n}"]
    expect = np.linspace(0.0, T, n)
    if np.max(np.abs(t - expect)) > 4 * EPS * T:
        return ["grid is not the uniform grid on the interval"]
    return []


def check_certificate(spec: dict, raw: bytes, report: dict) -> list[str]:
    """The certificate covers the whole interval and its inequalities hold
    with the field's true bounds on the box."""
    errs = []
    if report.get("input_digest") != digest(raw):
        errs.append("input_digest is not the sha256 of the file")
    cert = report["result"]
    alpha, T, M = spec["alpha"], spec["T"], spec["M"]
    if cert["guaranteed_interval"] != [0.0, T]:
        errs.append(f"guaranteed interval {cert['guaranteed_interval']} does not cover [0, {T!r}]")
    g = float(mp.gamma(mp.mpf(alpha) + 1))
    tau = T**alpha / g
    k, K, L = cert["k"], cert["K"], cert["L"]
    if abs(k - L * tau) > 1e-12 * k:
        errs.append(f"k = {k!r} != L h^a / Gamma(a+1) = {L * tau!r}")
    if not k < 1.0:
        errs.append(f"contraction constant k = {k!r} >= 1")
    if K * tau > M * (1.0 + 1e-12):
        errs.append(f"K h^a / Gamma(a+1) = {K * tau!r} exceeds the box radius {M!r}")
    if L < spec["lipschitz_true"] * (1.0 - 1e-12):
        errs.append(f"L = {L!r} below the field's Lipschitz constant {spec['lipschitz_true']!r}")
    ts = np.linspace(0.0, T, 401)
    ys = np.linspace(spec["y0"] - M, spec["y0"] + M, 401)
    tt, yy = np.meshgrid(ts, ys)
    if spec["solution"] == "relaxation":
        F = -spec["lam"] * yy
    elif "s" in spec:  # nonlinear: c t^(2-a) + s (y^2 - b^2 t^4)
        F = spec["c"] * tt ** (2.0 - alpha) + spec["s"] * (yy * yy - spec["b"] ** 2 * tt**4)
    else:  # linear: c t^(2-a) + lam b t^2 - lam y
        F = spec["c"] * tt ** (2.0 - alpha) + spec["lam"] * (spec["b"] * tt * tt - yy)
    if K < float(np.max(np.abs(F))):
        errs.append(f"K = {K!r} below sup |F| = {float(np.max(np.abs(F)))!r} on the box")
    factor = cert["apriori_bound_factor"]
    if abs(factor - k / (1.0 - k)) > 1e-12 * factor:
        errs.append("apriori_bound_factor != k/(1-k)")
    return errs


def picard_tolerance(spec: dict, t: np.ndarray, y_exact: np.ndarray) -> float:
    """Bound on |picard - exact| at the grid points.

    The discrete operator y -> y0 + I_h F(., y) is a contraction with
    constant k = L T^a / Gamma(a+1) (its weights are positive and sum to the
    exact kernel integral).  The exact samples miss its fixed point by the
    quadrature residual R = |y - y0 - I_h F(., y)|, so they lie within
    R/(1-k) of it; the iterate stopped at a step below tol lies within
    k tol/(1-k) of it.  Round-off adds a few N eps of the values involved.
    """
    alpha, T, n = spec["alpha"], spec["T"], t.size
    k = spec["lipschitz_true"] * T**alpha / math.gamma(alpha + 1.0)
    F = field_along(spec, t, y_exact)
    residual = np.abs(y_exact - spec["y0"] - product_trapezoid(F, t[1] - t[0], alpha))
    scale = abs(spec["y0"]) + float(np.max(np.abs(y_exact))) + float(np.max(np.abs(F))) * T**alpha
    return (k * PICARD_TOL + float(np.max(residual))) / (1.0 - k) + 8 * n * EPS * scale


def ml_tolerance(spec: dict, t: np.ndarray) -> float:
    """Bound on |ml - exact|.

    Homogeneous problems are quadrature-free: each series term carries the
    relative error of one Gamma value (measured below 1e-14), so the error
    is below 2e-14 times the sum of the absolute terms, plus a few ulps.
    With forcing f = c t^(2-a) + lam b t^2 the program integrates the
    piecewise-linear interpolant of f against the kernel
    u^(a-1) E_{a,a}(-lam u^a), exactly.  The interpolation error of t^2 is
    h^2/4; that of c t^(2-a) is at most
    h^2/8 |f''| on panels away from 0 and h^(2-a) on the first; integrated
    against |kernel| <= u^(a-1) E* (E* = sum |lam T^a|^k / Gamma(ak+a)) this
    gives E* h^2 [ |lam| b T^a/(4a) + |c| (2^a (2-a) Gamma(a) Gamma(2-a)/8 + 1/a) ].
    """
    alpha, lam, T = spec["alpha"], spec["lam"], spec["T"]
    x = abs(lam) * T**alpha
    series = abs(spec["y0"]) * ml_abs_sum(alpha, 1.0, x)
    tol = 2e-14 * series + 8 * EPS * (abs(spec["y0"]) + 1.0)
    if spec["solution"] == "t2":
        h = T / (t.size - 1)
        e_star = ml_abs_sum(alpha, alpha, x)
        b, c = spec["b"], spec["c"]
        quad = abs(lam) * b * T**alpha / (4 * alpha) + abs(c) * (
            2**alpha * (2 - alpha) * math.gamma(alpha) * math.gamma(2 - alpha) / 8 + 1 / alpha
        )
        tol += e_star * h * h * quad + 8 * t.size * EPS * (b * T * T + 1.0)
    return tol


def check_trajectory(spec: dict, method: str, text: str, cache: dict) -> list[str]:
    """CSV trajectory of picard, ml or abm against the exact solution."""
    try:
        t, y = parse_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    n, T = spec["points"], spec["T"]
    if spec["solution"] == "blowup":
        return _check_blowup(spec, t, y)
    errs = _grid_errors(t, n, T)
    if errs:
        return errs
    digits30 = method != "abm"
    key = ("exact", digits30, json.dumps(spec, sort_keys=True))
    if key not in cache:
        cache[key] = exact_solution(spec, t, digits30)
    y_exact, ref_err = cache[key]
    err = np.abs(y - y_exact)
    if method == "picard":
        tkey = ("picard", key)
        if tkey not in cache:
            cache[tkey] = picard_tolerance(spec, t, y_exact)
        tol = cache[tkey]
    elif method == "ml":
        tol = ml_tolerance(spec, t)
    else:
        tol = abm_tolerance(spec, T / (n - 1), y_exact) + ref_err
    worst = float(np.max(err))
    if not worst <= tol:
        i = int(np.argmax(err))
        errs.append(f"{method}: |y - exact| = {worst:.3e} at t = {t[i]!r} exceeds {tol:.3e}")
    return errs


def abm_tolerance(spec: dict, h: float, y_exact: np.ndarray) -> float:
    alpha, cls = spec["alpha"], spec["solution"]
    if cls == "t2":
        return ABM_CONST[cls] * h ** (1.0 + alpha) * (1.0 + float(np.max(np.abs(y_exact))))
    if cls == "relaxation":
        return ABM_CONST[cls] * h ** (2.0 * alpha) * spec["lam"] ** 2 * abs(spec["y0"])
    return ABM_CONST[cls] * (h / spec["t_star"]) ** 2 * spec["y0"]


def _check_blowup(spec: dict, t: np.ndarray, y: np.ndarray) -> list[str]:
    """y' = y^p: the trajectory stops at the last grid point before t*,
    t* - 2h <= last_valid_time <= t*, and matches the exact solution on
    [0, t*/2] to the method's second order."""
    errs = []
    n, T, t_star = spec["points"], spec["T"], spec["t_star"]
    h = T / (n - 1)
    if t.size >= n or t.size < 2:
        return [f"{t.size} rows: the blow-up at t* = {t_star!r} did not truncate"]
    expect = h * np.arange(t.size)
    if np.max(np.abs(t - expect)) > 4 * EPS * T:
        errs.append("grid is not the uniform grid on the interval")
    last = float(t[-1])
    if not t_star - 2 * h <= last <= t_star:
        errs.append(f"last_valid_time {last!r} outside [t* - 2h, t*] = [{t_star - 2 * h!r}, {t_star!r}]")
    early = t <= 0.5 * t_star
    y_exact, _ = exact_solution(spec, t[early])
    tol = abm_tolerance(spec, h, y_exact)
    worst = float(np.max(np.abs(y[early] - y_exact)))
    if not worst <= tol:
        errs.append(f"abm: |y - exact| = {worst:.3e} on [0, t*/2] exceeds {tol:.3e}")
    return errs


def check_report_json(text: str) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
