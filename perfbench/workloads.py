"""Seeded problem generators for the three benchmark workloads.

A workload is one *round*: a fixed list of problem slots whose numeric
parameters are drawn from the seed.  The slot list (problem classes, grid
sizes, CLI calls) is the same for every seed, so every run does the same
kinds of work in the same proportions and only the numbers change.  A run
repeats its round until its time is up.

Each problem carries the CLI calls that answer it (``{file}`` stands for the
problem file) and a ``spec``: the parameters the independent checks in
``references.py`` need.  Nothing here imports the program.
"""

import math
import random
from dataclasses import dataclass

WORKLOADS = ("screen", "volterra", "march")

#: Powers a power_law right-hand side draws from.
POWERS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)

#: Bundled problem files each screen round answers (relative to the root).
BUNDLED_SCREEN = (
    "problems/logistic_a04.json",
    "problems/logistic_a05.json",
    "problems/cubic_amplitude_a08.json",
    "problems/pid_form.json",
)

#: The bundled y' = y^2 blow-up and the coarse grids on which the solver
#: stops one step past t* = 1 (a known fault, counted as failed).
BUNDLED_BLOWUP = "problems/blowup_y2.json"
KNOWN_FAULT_POINTS = (128, 512)

#: Every verdict the singularity test can give; each screen round holds all.
VERDICTS = (
    "passes",
    "fails_complex_or_missing_resonance",
    "fails_compatibility",
    "regular_no_singularity",
    "degenerate_balance",
)

VOLTERRA_POINTS = (1024, 2048, 4096)
MARCH_POINTS = (4000, 8000, 16000)


@dataclass
class Problem:
    """One problem: a file (generated or bundled), its CLI calls and the
    parameters its check needs."""

    name: str
    calls: list
    spec: dict
    doc: dict | None = None
    bundled: str | None = None
    known_fault: bool = False


def _r(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def _sign(rng: random.Random) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


# -- screen ------------------------------------------------------------------


def _degenerate(alpha: float, m: float) -> bool:
    """Whether Gamma(1-s)/Gamma(1-s-alpha), s = alpha/(m-1), is 0 or a pole
    (exactly one of the two arguments at a non-positive integer)."""
    s = alpha / (m - 1.0)

    def pole(x):
        return x < 0.5 and abs(x - round(x)) < 1e-9

    return pole(1.0 - s) != pole(1.0 - s - alpha)


def _balance_sign(alpha: float, m: float) -> float:
    s = alpha / (m - 1.0)
    num = math.gamma(1.0 - s)
    den = math.gamma(1.0 - s - alpha)
    return math.copysign(1.0, num / den)


def _power_law(rng: random.Random, slot: str) -> dict:
    """A power_law file.  ``slot`` fixes the verdict family so every round
    holds the same mix: ``generic`` (any outcome the numbers give),
    ``complex`` (no real amplitude) or ``degenerate`` (balance ratio 0 or a
    pole)."""
    while True:
        m = rng.choice(POWERS[1:])
        if slot == "degenerate":
            # 1 - s - alpha = 0 exactly where alpha = (m-1)/m
            alpha = (m - 1.0) / m
            if not 0.3 <= alpha <= 1.0:
                continue
        elif slot == "complex":
            m = rng.choice((3.0, 5.0))  # A^(m-1) with m-1 even has no real root
            alpha = _r(rng, 0.3, 1.0)
        else:
            alpha = _r(rng, 0.3, 1.0)
        if slot != "degenerate" and _degenerate(alpha, m):
            continue
        lower = [p for p in POWERS if p < m]
        extra = rng.sample(lower, rng.randint(0, min(2, len(lower))))
        coeff = _sign(rng) * _r(rng, 0.25, 2.0)
        if slot == "complex":
            coeff = -_balance_sign(alpha, m) * abs(coeff)
        terms = [{"coefficient": coeff, "power": m}]
        for p in sorted(extra, reverse=True):
            terms.append({"coefficient": _sign(rng) * _r(rng, 0.25, 2.0), "power": p})
        return {"kind": "power_law", "alpha": alpha, "terms": terms, "t0": 0.0}


def _multiterm(rng: random.Random) -> dict:
    alpha = _r(rng, 0.3, 1.0)
    n_lower = rng.randint(1, 2)
    lower = sorted({_r(rng, 0.05, alpha - 0.05, 2) for _ in range(n_lower)}, reverse=True)
    orders = [alpha] + lower
    coeffs = [_r(rng, 0.5, 2.0)] + [_sign(rng) * _r(rng, 0.25, 2.0) for _ in lower]
    return {
        "kind": "multiterm_linear",
        "alpha": alpha,
        "orders": orders,
        "coefficients": coeffs,
        "zeroth_coeff": _sign(rng) * _r(rng, 0.5, 3.0),
        "forcing_at_t0": _sign(rng) * _r(rng, 0.1, 5.0),
    }


def screen(seed: int) -> list[Problem]:
    """22 painleve calls: 14 generic, 1 complex-amplitude and 2 degenerate
    seeded power_law files, 1 seeded multiterm_linear file and the 4 bundled
    power_law/multiterm_linear problems, so every verdict kind occurs."""
    rng = random.Random(f"screen-{seed}")
    slots = ["generic"] * 14 + ["complex"] + ["degenerate"] * 2
    out = [_screen_problem(f"pl{i:02d}", doc=_power_law(rng, slot))
           for i, slot in enumerate(slots)]
    out.append(_screen_problem("mt00", doc=_multiterm(rng)))
    for path in BUNDLED_SCREEN:
        out.append(_screen_problem("bundled-" + path.split("/")[-1][:-5], bundled=path))
    return out


def _screen_problem(name: str, **kw) -> Problem:
    return Problem(name, [["painleve", "--problem", "{file}"]], {}, **kw)


# -- volterra ----------------------------------------------------------------


def _linear_t2(rng: random.Random) -> tuple[dict, dict]:
    """D^a y + lam y = f with the manufactured solution y = b t^2:
    f = c t^(2-a) + lam b t^2, c = 2 b / Gamma(3-a)."""
    alpha = _r(rng, 0.5, 1.0)
    lam = _sign(rng) * _r(rng, 0.5, 2.0)
    b = _r(rng, 0.5, 2.0)
    k = _r(rng, 0.3, 0.45)
    g = math.gamma(alpha + 1.0)
    T = (k * g / abs(lam)) ** (1.0 / alpha)
    c = 2.0 * b / math.gamma(3.0 - alpha)
    beta = 2.0 - alpha
    f_max = abs(c) * T**beta + abs(lam) * b * T * T
    tau = T**alpha / g
    M = 2.0 * max(1.05 * f_max * tau / (1.0 - 1.05 * k), b * T * T)
    forcing = f"{c!r}*t^{beta!r} + {lam * b!r}*t^2"
    doc = {
        "kind": "ivp", "alpha": alpha, "rhs": f"{forcing} - {lam!r}*y",
        "interval": [0.0, T], "y0": 0.0, "box_radius": M, "lipschitz": abs(lam),
        "lambda": lam, "forcing": forcing,
    }
    spec = {"solution": "t2", "alpha": alpha, "lam": lam, "b": b, "c": c, "T": T,
            "y0": 0.0, "M": M, "lipschitz_true": abs(lam)}
    return doc, spec


def _homogeneous(rng: random.Random) -> tuple[dict, dict]:
    """D^a y + lam y = 0, y = y0 E_a(-lam t^a)."""
    alpha = _r(rng, 0.5, 1.0)
    lam = _sign(rng) * _r(rng, 0.5, 2.0)
    y0 = _sign(rng) * _r(rng, 0.5, 2.0)
    k = _r(rng, 0.3, 0.45)
    g = math.gamma(alpha + 1.0)
    T = (k * g / abs(lam)) ** (1.0 / alpha)
    M = 2.0 * 1.05 * k * abs(y0) / (1.0 - 1.05 * k)
    doc = {
        "kind": "ivp", "alpha": alpha, "rhs": f"{-lam!r}*y", "interval": [0.0, T],
        "y0": y0, "box_radius": M, "lipschitz": abs(lam), "lambda": lam,
    }
    spec = {"solution": "relaxation", "alpha": alpha, "lam": lam, "T": T, "y0": y0,
            "M": M, "lipschitz_true": abs(lam)}
    return doc, spec


def _nonlinear_t2(rng: random.Random, T: float | None = None) -> tuple[dict, dict]:
    """D^a y = c t^(2-a) + s (y^2 - b^2 t^4) with the manufactured solution
    y = b t^2 (c = 2 b / Gamma(3-a)).  Without ``T`` (Picard) s = +-1 and the
    interval is the longest one (from a fixed ladder) the contraction
    certificate covers with room to spare.  With ``T`` (ABM over the whole
    interval) s = -1: the field is dissipative in y, so the error of the
    march does not grow with T."""
    alpha = _r(rng, 0.5, 1.0)
    b = _r(rng, 0.5, 2.0)
    s = _sign(rng) if T is None else -1.0
    c = 2.0 * b / math.gamma(3.0 - alpha)
    beta = 2.0 - alpha
    g = math.gamma(alpha + 1.0)
    if T is None:
        T = 0.4
        while True:
            tau = T**alpha / g
            M = 0.2 / tau  # sampled L = 1.25 * 2M, so k = 0.5
            k_bound = 1.05 * (c * T**beta + max(M * M, b * b * T**4)) * tau
            if k_bound <= 0.8 * M and b * T * T <= 0.5 * M:
                break
            T = round(T * 0.9, 6)
    else:
        M = 1.0
    sgn = "+" if s > 0 else "-"
    rhs = f"{c!r}*t^{beta!r} {sgn} (y^2 - {b * b!r}*t^4)"
    doc = {"kind": "ivp", "alpha": alpha, "rhs": rhs, "interval": [0.0, T],
           "y0": 0.0, "box_radius": M}
    spec = {"solution": "t2", "alpha": alpha, "lam": 0.0, "b": b, "c": c, "s": s,
            "T": T, "y0": 0.0, "M": M, "lipschitz_true": 2.0 * M}
    return doc, spec


def _volterra_problem(name: str, make, rng: random.Random, n: int) -> Problem:
    doc, spec = make(rng)
    calls = [
        ["certify", "--problem", "{file}"],
        ["solve", "--problem", "{file}", "--method", "picard", "--points", str(n),
         "--tol", "1e-10"],
    ]
    if "lambda" in doc:
        calls.append(["solve", "--problem", "{file}", "--method", "ml", "--points", str(n)])
    spec["points"] = n
    return Problem(name, calls, spec, doc=doc)


def volterra(seed: int) -> list[Problem]:
    """Eighteen problems: two draws of each of {linear manufactured,
    homogeneous, nonlinear manufactured} x N in {1024, 2048, 4096}.  Each is
    certify, then solve --method picard, then (linear files) solve --method
    ml.  Two draws per slot, so that one draw's cost does not set a run's
    figures."""
    rng = random.Random(f"volterra-{seed}")
    return [
        _volterra_problem(f"{cls}{n}-{j}", make, rng, n)
        for j in range(2)
        for n in VOLTERRA_POINTS
        for cls, make in (("lin", _linear_t2), ("hom", _homogeneous), ("nl", _nonlinear_t2))
    ]


# -- march -------------------------------------------------------------------


def _relaxation(rng: random.Random) -> tuple[dict, dict]:
    """D^a y = -lam y on [0, T], y = y0 E_a(-lam t^a), lam T^a <= 2."""
    alpha = _r(rng, 0.5, 1.0)
    lam = _r(rng, 0.5, 2.0)
    y0 = _sign(rng) * _r(rng, 0.5, 2.0)
    T = round((_r(rng, 1.0, 2.0) / lam) ** (1.0 / alpha), 6)
    doc = {"kind": "ivp", "alpha": alpha, "rhs": f"{-lam!r}*y", "interval": [0.0, T],
           "y0": y0, "box_radius": 1.0}
    spec = {"solution": "relaxation", "alpha": alpha, "lam": lam, "T": T, "y0": y0}
    return doc, spec


def _blowup(rng: random.Random) -> tuple[dict, dict]:
    """y' = y^p, y(0) = y0 > 0: t* = 1/((p-1) y0^(p-1)); interval (0, 1.2 t*)."""
    p = rng.choice((2, 3, 5))
    y0 = _r(rng, 0.5, 2.0)
    t_star = 1.0 / ((p - 1) * y0 ** (p - 1))
    T = 1.2 * t_star
    doc = {"kind": "ivp", "alpha": 1.0, "rhs": f"y^{p}", "interval": [0.0, T],
           "y0": y0, "box_radius": 1.0}
    spec = {"solution": "blowup", "alpha": 1.0, "p": p, "y0": y0, "t_star": t_star, "T": T}
    return doc, spec


def march(seed: int) -> list[Problem]:
    """Ten solve --method abm calls: {nonlinear manufactured, relaxation}
    x N in {4000, 8000, 16000}, y' = y^p blow-ups at N in {4000, 16000}, and
    the bundled y' = y^2 at 128 and 512 points (the known coarse-grid fault).

    With the interval (0, 1.2 t*), t* lies half a step past a grid point at
    4000 and 16000 points but 0.83 of a step past one at 8000, where the
    solver stops 0.17 h after t* whatever p and y0 are; an 8000-point
    blow-up would fail on every seed through inputs the seed draws, so the
    fault is measured on the fixed bundled file instead."""
    rng = random.Random(f"march-{seed}")
    out = []
    for n in MARCH_POINTS:
        classes = [
            ("nl", lambda r: _nonlinear_t2(r, T=round(_r(r, 0.5, 1.0), 6))),
            ("rel", _relaxation),
        ]
        if n != 8000:
            classes.append(("blow", _blowup))
        for cls, make in classes:
            doc, spec = make(rng)
            spec["points"] = n
            out.append(_abm_problem(f"{cls}{n}", spec, doc=doc))
    for n in KNOWN_FAULT_POINTS:
        spec = {"solution": "blowup", "alpha": 1.0, "p": 2, "y0": 1.0, "t_star": 1.0,
                "T": 1.2, "points": n}
        out.append(_abm_problem(f"bundled-blowup_y2-{n}", spec, bundled=BUNDLED_BLOWUP,
                                known_fault=True))
    return out


def _abm_problem(name: str, spec: dict, **kw) -> Problem:
    argv = ["solve", "--problem", "{file}", "--method", "abm", "--points", str(spec["points"])]
    return Problem(name, [argv], spec, **kw)


GENERATORS = {"screen": screen, "volterra": volterra, "march": march}


def make_round(workload: str, seed: int) -> list[Problem]:
    return GENERATORS[workload](seed)


def warmup(workload: str) -> list[Problem]:
    """One problem of each kind the workload sends, the same for every seed
    so that set-up time does not depend on the seed."""
    rng = random.Random(f"warmup-{workload}")
    if workload == "screen":
        return [
            _screen_problem("warmup-pl", doc=_power_law(rng, "generic")),
            _screen_problem("warmup-mt", doc=_multiterm(rng)),
        ]
    if workload == "volterra":
        return [_volterra_problem("warmup-lin", _linear_t2, rng, VOLTERRA_POINTS[0])]
    doc, spec = _nonlinear_t2(rng, T=0.75)
    spec["points"] = MARCH_POINTS[0]
    return [_abm_problem("warmup-nl", spec, doc=doc)]
