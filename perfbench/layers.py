"""Per-layer tracing, installed only for a traced run (``--trace 1``).

Wrappers go where callers look the names up at call time: module globals
that other modules reach as ``module.name``, names imported into another
module (``solvers.product_trapezoid_weights``, ``cli.compile_expression``),
and class attributes (``Report.to_json_text``, ``SolutionTrajectory.csv_text``).
``specfun.gamma`` is wrapped in ``specfun`` itself because ``gamma_ratio``
and ``mittag_leffler`` call it there.

Coarse calls (one per CLI step) are kept as spans -- name, start, end,
parent span and problem -- in memory and written out when the run ends.
Scalar calls that run tens of thousands of times per problem (Gamma, the
Mittag-Leffler series, field evaluations) are only counted and timed in
aggregate.  Every wrapper adds its duration to the enclosing span's child
time, so a span's self time is its duration minus its children.
"""

import json
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    """Spans, counts and times of the wrapped calls of one traced run."""

    def __init__(self):
        self.stack = []  # frames: [name, start, child_seconds, span_index]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.field_evals = Counter()  # keyed by the enclosing span's name
        self.spans = []
        self.problem = None
        self.extra = Counter()
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name, span):
        index = None
        if span:
            parent = self.stack[-1][3] if self.stack else None
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.problem])
        frame = [name, _clock(), 0.0, index]
        self.stack.append(frame)
        return frame

    def _leave(self, frame):
        end = _clock()
        self.stack.pop()
        name, start, child, index = frame
        dt = end - start
        self.total[name] += dt
        self.self_time[name] += dt - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dt
        if index is not None:
            self.spans[index][1] = start
            self.spans[index][2] = end

    def wrap(self, name, fn, span=True, on_result=None):
        def traced(*args, **kwargs):
            frame = self._enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def field(self, expression):
        tracer = self

        def evaluate(t, y=0.0):
            start = _clock()
            value = expression(t, y)
            dt = _clock() - start
            tracer.total["expr.field"] += dt
            tracer.calls["expr.field"] += 1
            owner = tracer.stack[-1] if tracer.stack else None
            if owner is not None:
                owner[2] += dt
                tracer.field_evals[owner[0]] += 1
            return value

        return evaluate

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        from fracpainleve import cli, existence, fracops, painleve, solvers, specfun

        def on_weights(w):
            self.extra["fracops.weights_bytes"] += w.shape[0] * w.shape[1] * 8

        def on_resonances(res):
            self.extra["painleve.resonances_found"] += len(res)

        def on_picard(traj):
            self.extra["solvers.picard_iterations"] += traj.iterations

        def on_abm(traj):
            self.extra["solvers.abm_steps"] += traj.grid.size - 1

        compile_expression = cli.compile_expression

        def compile_counted(text):
            self.calls["expr.compile"] += 1
            return self.field(compile_expression(text))

        weights = self.wrap("fracops.weights", fracops.product_trapezoid_weights,
                            on_result=on_weights)
        patches = [
            (cli, "run", self.wrap("cli.run", cli.run)),
            (cli, "parse_problem", self.wrap("cli.parse_problem", cli.parse_problem)),
            (cli.Report, "to_json_text", self.wrap("cli.report", cli.Report.to_json_text)),
            (solvers.SolutionTrajectory, "csv_text",
             self.wrap("cli.csv", solvers.SolutionTrajectory.csv_text)),
            (cli, "compile_expression", compile_counted),
            (painleve, "run_test", self.wrap("painleve.run_test", painleve.run_test)),
            (painleve, "resonances", self.wrap("painleve.resonances", painleve.resonances,
                                               on_result=on_resonances)),
            (painleve, "expand_series",
             self.wrap("painleve.expand_series", painleve.expand_series)),
            (specfun, "gamma", self.count("specfun.gamma", specfun.gamma)),
            (specfun, "gamma_ratio",
             self.wrap("specfun.gamma_ratio", specfun.gamma_ratio, span=False)),
            (specfun, "mittag_leffler",
             self.wrap("specfun.ml", specfun.mittag_leffler, span=False)),
            (fracops, "product_trapezoid_weights", weights),
            (solvers, "product_trapezoid_weights", weights),
            (existence, "certify_nonlinear",
             self.wrap("existence.certify", existence.certify_nonlinear)),
            (existence, "certify_linear",
             self.wrap("existence.certify", existence.certify_linear)),
            (solvers, "picard_solve",
             self.wrap("solvers.picard", solvers.picard_solve, on_result=on_picard)),
            (solvers, "solve_linear_ml", self.wrap("solvers.ml_solve", solvers.solve_linear_ml)),
            (solvers, "abm_solve", self.wrap("solvers.abm", solvers.abm_solve, on_result=on_abm)),
        ]
        for owner, attr, replacement in patches:
            self._patch(owner, attr, replacement)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self, problems: int) -> dict:
        """Per-layer metrics, each a per-problem mean over the run (the
        ratios are over the whole run)."""
        ms = 1000.0 / problems

        def per(value):
            return value / problems

        abm_steps = self.extra["solvers.abm_steps"]
        values = {
            "cli.calls": per(self.calls["cli.run"]),
            "cli.parse_problem_ms": self.total["cli.parse_problem"] * ms,
            "cli.report_ms": self.total["cli.report"] * ms,
            "cli.csv_ms": self.total["cli.csv"] * ms,
            "painleve.run_test_ms": self.total["painleve.run_test"] * ms,
            "painleve.resonances_ms": self.total["painleve.resonances"] * ms,
            "painleve.expand_series_ms": self.total["painleve.expand_series"] * ms,
            "painleve.resonances_found": per(self.extra["painleve.resonances_found"]),
            "specfun.gamma_calls": per(self.calls["specfun.gamma"]),
            "specfun.gamma_ratio_calls": per(self.calls["specfun.gamma_ratio"]),
            "specfun.gamma_ratio_ms": self.total["specfun.gamma_ratio"] * ms,
            "specfun.ml_calls": per(self.calls["specfun.ml"]),
            "specfun.ml_ms": self.total["specfun.ml"] * ms,
            "fracops.weights_calls": per(self.calls["fracops.weights"]),
            "fracops.weights_ms": self.total["fracops.weights"] * ms,
            "fracops.weights_bytes": per(self.extra["fracops.weights_bytes"]),
            "existence.certify_ms": self.total["existence.certify"] * ms,
            "existence.field_evals": per(self.field_evals["existence.certify"]),
            "solvers.picard_ms": self.total["solvers.picard"] * ms,
            "solvers.picard_self_ms": self.self_time["solvers.picard"] * ms,
            "solvers.picard_iterations": per(self.extra["solvers.picard_iterations"]),
            "solvers.ml_solve_ms": self.total["solvers.ml_solve"] * ms,
            "solvers.ml_solve_self_ms": self.self_time["solvers.ml_solve"] * ms,
            "solvers.abm_ms": self.total["solvers.abm"] * ms,
            "solvers.abm_self_ms": self.self_time["solvers.abm"] * ms,
            "solvers.abm_steps": per(abm_steps),
            "solvers.abm_us_per_step": (
                self.total["solvers.abm"] * 1e6 / abm_steps if abm_steps else 0.0
            ),
            "expr.compile_calls": per(self.calls["expr.compile"]),
            "expr.field_evals": per(self.calls["expr.field"]),
            "expr.field_ms": self.total["expr.field"] * ms,
            "expr.field_evals_per_abm_step": (
                self.field_evals["solvers.abm"] / abm_steps if abm_steps else 0.0
            ),
        }
        return values

    def write(self, path, header: dict):
        """Write the kept spans (times relative to the first span) as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(header)
        doc["spans"] = [
            {"name": n, "start_ms": (s - origin) * 1e3, "end_ms": (e - origin) * 1e3,
             "parent": p, "problem": q}
            for n, s, e, p, q in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)
