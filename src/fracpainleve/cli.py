"""Command-line front end: problem files in, JSON reports (or CSV) out.

Subcommands
    painleve  --problem FILE [--depth N]      singularity report as JSON
    certify   --problem FILE                  existence certificate as JSON
    solve     --problem FILE --method M ...   trajectory as CSV or JSON summary
    ml        --alpha A --beta B --z Z        Mittag-Leffler value
    caputo    --alpha A --gamma G [--t T]     exact power-rule value

Exit status: 0 success, 2 input errors, 3 numerical failures.  stdout carries
only the machine-parseable result; diagnostics go to stderr.  Reports embed
the tool version, the sha256 digest of the input file and the tolerances in
effect, and identical invocations produce byte-identical output.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from functools import cache
from importlib import resources

import numpy as np

from . import __version__, existence, painleve, solvers, specfun
from .expr import Expression, ExpressionError, compile_expression
from .fracops import PowerTerm, caputo_power

__all__ = [
    "CliInputError",
    "ProblemFile",
    "Report",
    "parse_problem",
    "run",
    "main",
]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class CliInputError(ValueError):
    """Invalid command line, problem file, or expression."""


@cache
def _validator(name: str):
    """Validator for a packaged schema, built and checked once on first use;
    ``ml`` and ``caputo`` validate nothing, so they never import jsonschema."""
    import jsonschema

    text = resources.files("fracpainleve").joinpath(f"schema/{name}").read_text()
    schema = json.loads(text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _schema_error(doc: dict, name: str):
    """The error ``jsonschema.validate`` would raise, or None."""
    from jsonschema.exceptions import best_match

    return best_match(_validator(name).iter_errors(doc))


@dataclass(frozen=True)
class Report:
    """Envelope for every structured result the CLI emits.

    Serialization is canonical (sorted keys, two-space indent, trailing
    newline) so identical invocations are byte-identical, and every emitted
    report is validated against the published schema before printing.
    """

    command: str
    input_digest: str | None
    version: str
    tolerances: dict
    result: dict

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "input_digest": self.input_digest,
            "version": self.version,
            "tolerances": self.tolerances,
            "result": self.result,
        }

    def to_json_text(self) -> str:
        doc = self.to_json_dict()
        if (error := _schema_error(doc, "report.schema.json")) is not None:
            raise error
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class ProblemFile:
    """A validated problem file plus the digest of its raw bytes."""

    kind: str
    alpha: float
    data: dict
    options: dict
    digest: str

    def to_power_law(self) -> painleve.PowerLawFde:
        terms = tuple(
            painleve.RhsTerm(t["coefficient"], t["power"]) for t in self.data["terms"]
        )
        return painleve.PowerLawFde(
            alpha=self.alpha,
            terms=terms,
            t0=self.data.get("t0", 0.0),
            linear=self.data.get("linear", False),
        )

    def to_multiterm(self) -> painleve.MultiTermLinearFde:
        return painleve.MultiTermLinearFde(
            orders=tuple(self.data["orders"]),
            coefficients=tuple(self.data["coefficients"]),
            zeroth_coeff=self.data["zeroth_coeff"],
            forcing_at_t0=self.data["forcing_at_t0"],
        )

    def to_ivp(self) -> existence.IvpProblem:
        rhs = _compile(self.data["rhs"], "rhs")
        return existence.IvpProblem(
            alpha=self.alpha,
            rhs=rhs,
            interval=tuple(self.data["interval"]),
            y0=self.data["y0"],
            box_radius=self.data["box_radius"],
            lipschitz=self.data.get("lipschitz"),
        )


def _compile(text: str, field: str) -> Expression:
    try:
        return compile_expression(text)
    except ExpressionError as exc:
        raise CliInputError(f"invalid expression in {field!r}: {exc}") from exc


def parse_problem(path: str) -> ProblemFile:
    """Read, digest, schema-validate and semantically check a problem file."""
    try:
        raw = open(path, "rb").read()
    except OSError as exc:
        raise CliInputError(f"cannot read problem file {path!r}: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"problem file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliInputError(f"problem file {path!r} must hold a JSON object")
    kind = doc.get("kind")
    alpha = doc.get("alpha")
    if kind in ("power_law", "ivp") and isinstance(alpha, (int, float)):
        if not 0.0 < float(alpha) <= 1.0:
            raise CliInputError(
                f"field 'alpha': got {alpha}, but alpha ∈ (0, 1] is required"
            )
    if (error := _schema_error(doc, "problem.schema.json")) is not None:
        raise CliInputError(
            f"problem file invalid at {error.json_path}: {error.message}"
        ) from error
    # Cross-field checks the schema cannot express.
    if kind == "multiterm_linear":
        orders = doc["orders"]
        if len(orders) != len(doc["coefficients"]):
            raise CliInputError("orders and coefficients must have the same length")
        if any(b >= a for a, b in zip(orders, orders[1:])):
            raise CliInputError("orders must be strictly descending")
        if abs(float(alpha) - orders[0]) > 1e-12:
            raise CliInputError("alpha must equal the leading entry of orders")
        if doc["coefficients"][0] == 0:
            raise CliInputError("leading coefficient must be nonzero")
    if kind == "ivp":
        a, b = doc["interval"]
        if not a < b:
            raise CliInputError(f"interval must satisfy a < b, got [{a}, {b}]")
        _compile(doc["rhs"], "rhs")
        for field in ("forcing", "linear_coefficient"):
            if field in doc:
                _compile(doc[field], field)
    return ProblemFile(
        kind=kind,
        alpha=float(alpha),
        data=doc,
        options=doc.get("options", {}),
        digest=digest,
    )


def _emit_report(
    command: str, problem: ProblemFile | None, tolerances: dict, result: dict
) -> str:
    return Report(
        command=command,
        input_digest=problem.digest if problem is not None else None,
        version=__version__,
        tolerances=tolerances,
        result=result,
    ).to_json_text()


def _engine_settings(options: dict) -> painleve.EngineSettings:
    kwargs = {}
    for key in ("tol_res", "tol_compat", "pole_band"):
        if key in options:
            kwargs[key] = float(options[key])
    return painleve.EngineSettings(**kwargs) if kwargs else painleve.DEFAULT_SETTINGS


def _cmd_painleve(args) -> int:
    problem = parse_problem(args.problem)
    settings = _engine_settings(problem.options)
    depth = args.depth if args.depth is not None else int(problem.options.get("depth", 12))
    if problem.kind == "power_law":
        report = painleve.run_test(problem.to_power_law(), depth=depth, settings=settings)
    elif problem.kind == "multiterm_linear":
        report = painleve.analyze_multiterm(problem.to_multiterm())
    else:
        raise CliInputError(
            "painleve requires kind 'power_law' or 'multiterm_linear', got 'ivp'"
        )
    tolerances = {
        "depth": depth,
        "tol_res": settings.tol_res,
        "tol_compat": settings.tol_compat,
        "pole_band": settings.pole_band,
    }
    sys.stdout.write(_emit_report("painleve", problem, tolerances, report.to_json_dict()))
    return EXIT_OK


def _cmd_certify(args) -> int:
    problem = parse_problem(args.problem)
    if problem.kind != "ivp":
        raise CliInputError(f"certify requires kind 'ivp', got {problem.kind!r}")
    density = int(problem.options.get("sample_density", 33))
    if "linear_coefficient" in problem.data:
        p = _compile(problem.data["linear_coefficient"], "linear_coefficient")
        cert = existence.certify_linear(
            problem.alpha,
            lambda t: p(t, 0.0),
            tuple(problem.data["interval"]),
            sample_density=max(density, 129),
        )
    else:
        cert = existence.certify_nonlinear(problem.to_ivp(), sample_density=density)
    tolerances = {
        "sample_density": density,
        "theta": existence.THETA,
        "k_inflation": existence.K_INFLATION,
        "l_inflation": existence.L_FD_INFLATION,
    }
    sys.stdout.write(_emit_report("certify", problem, tolerances, cert.to_json_dict()))
    return EXIT_OK


def _cmd_solve(args) -> int:
    problem = parse_problem(args.problem)
    if problem.kind != "ivp":
        raise CliInputError(f"solve requires kind 'ivp', got {problem.kind!r}")
    points = args.points if args.points is not None else int(problem.options.get("grid_points", 512))
    tol = args.tol if args.tol is not None else float(problem.options.get("tol", 1e-10))
    max_iter = int(problem.options.get("max_iter", 400))
    ivp = problem.to_ivp()
    a, b = ivp.interval
    tolerances: dict = {"points": points}
    if args.method == "picard":
        density = int(problem.options.get("sample_density", 33))
        cert = existence.certify_nonlinear(ivp, sample_density=density)
        traj = solvers.picard_solve(ivp, cert, grid_points=points, tol=tol, max_iter=max_iter)
        tolerances.update({"tol": tol, "max_iter": max_iter, "sample_density": density})
    elif args.method == "abm":
        traj = solvers.abm_solve(ivp, grid_points=points)
    else:  # ml
        if "lambda" not in problem.data:
            raise CliInputError("method 'ml' needs a 'lambda' field in the problem file")
        if a != 0.0:
            raise CliInputError("method 'ml' requires the interval to start at 0")
        forcing_expr = problem.data.get("forcing")
        forcing = None
        if forcing_expr is not None:
            f = _compile(forcing_expr, "forcing")
            forcing = lambda t: f(t, 0.0)  # noqa: E731
        traj = solvers.solve_linear_ml(
            ivp.alpha, float(problem.data["lambda"]), forcing, ivp.y0,
            np.linspace(a, b, points),
        )
    if args.format == "csv":
        sys.stdout.write(traj.csv_text())
    else:
        sys.stdout.write(
            _emit_report("solve", problem, tolerances, traj.summary_json_dict())
        )
    return EXIT_OK


def _cmd_ml(args) -> int:
    params = specfun.MittagLefflerParams(args.alpha, args.beta)
    value = specfun.mittag_leffler(params, args.z)
    sys.stdout.write(f"{value!r}\n")
    return EXIT_OK


def _cmd_caputo(args) -> int:
    value = caputo_power(PowerTerm(1.0, args.gamma, 0.0), args.alpha, args.t)
    sys.stdout.write(f"{value!r}\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracpainleve",
        description="Singularity screening and certified solving for scalar "
        "Caputo fractional ODEs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("painleve", help="run the singularity test on a problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(handler=_cmd_painleve)

    c = sub.add_parser("certify", help="emit an existence certificate")
    c.add_argument("--problem", required=True)
    c.set_defaults(handler=_cmd_certify)

    s = sub.add_parser("solve", help="solve an IVP and emit the trajectory")
    s.add_argument("--problem", required=True)
    s.add_argument("--method", required=True, choices=["picard", "ml", "abm"])
    s.add_argument("--points", type=int, default=None)
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.set_defaults(handler=_cmd_solve)

    m = sub.add_parser("ml", help="evaluate the Mittag-Leffler function")
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--beta", type=float, default=1.0)
    m.add_argument("--z", type=float, required=True)
    m.set_defaults(handler=_cmd_ml)

    k = sub.add_parser("caputo", help="exact Caputo power-rule value")
    k.add_argument("--alpha", type=float, required=True)
    k.add_argument("--gamma", type=float, required=True)
    k.add_argument("--t", type=float, default=1.0)
    k.set_defaults(handler=_cmd_caputo)

    return parser


def run(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    # solver, certificate and Gamma failures are ArithmeticErrors; the
    # Mittag-Leffler range error is a ValueError too, so it is caught first
    try:
        return args.handler(args)
    except (specfun.MittagLefflerRangeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
