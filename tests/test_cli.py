import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from fracpainleve.cli import CliInputError, parse_problem

REPO = Path(__file__).resolve().parent.parent
PROBLEMS = REPO / "problems"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fracpainleve", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def report_schema():
    return json.loads(
        (REPO / "src" / "fracpainleve" / "schema" / "report.schema.json").read_text()
    )


class TestParseProblem:
    def test_logistic_file_round_trip(self):
        pf = parse_problem(str(PROBLEMS / "logistic_a04.json"))
        assert pf.kind == "power_law"
        problem = pf.to_power_law()
        assert problem.alpha == 0.4
        assert problem.dominant.power == 2.0
        assert pf.digest.startswith("sha256:")

    def test_alpha_out_of_range_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"kind": "power_law", "alpha": 1.5, "terms": [{"coefficient": 1, "power": 2}]}
            )
        )
        with pytest.raises(CliInputError) as excinfo:
            parse_problem(str(bad))
        assert "alpha ∈ (0, 1]" in str(excinfo.value)

    def test_ivp_expression_compiles(self, tmp_path):
        f = tmp_path / "ivp.json"
        f.write_text(
            json.dumps(
                {
                    "kind": "ivp",
                    "alpha": 0.5,
                    "rhs": "y^2",
                    "interval": [0, 1],
                    "y0": 3.0,
                    "box_radius": 1.0,
                }
            )
        )
        pf = parse_problem(str(f))
        problem = pf.to_ivp()
        assert problem.rhs(0.0, 3.0) == 9.0

    def test_schema_violation_names_field(self, tmp_path):
        f = tmp_path / "bad2.json"
        f.write_text(json.dumps({"kind": "ivp", "alpha": 0.5, "rhs": "y"}))
        with pytest.raises(CliInputError) as excinfo:
            parse_problem(str(f))
        assert "interval" in str(excinfo.value) or "required" in str(excinfo.value)

    def test_missing_file(self):
        with pytest.raises(CliInputError):
            parse_problem("no/such/file.json")

    def test_multiterm_round_trip(self):
        pf = parse_problem(str(PROBLEMS / "pid_form.json"))
        problem = pf.to_multiterm()
        assert problem.orders == (1.0, 0.5)
        assert problem.zeroth_coeff == 2.0
        assert problem.forcing_at_t0 == 4.0

    def test_multiterm_alpha_must_match_leading_order(self, tmp_path):
        f = tmp_path / "mt.json"
        f.write_text(
            json.dumps(
                {
                    "kind": "multiterm_linear",
                    "alpha": 0.7,
                    "orders": [1.0, 0.5],
                    "coefficients": [1.0, 1.0],
                    "zeroth_coeff": 2.0,
                    "forcing_at_t0": 4.0,
                }
            )
        )
        with pytest.raises(CliInputError):
            parse_problem(str(f))

    def test_unknown_option_rejected(self, tmp_path):
        f = tmp_path / "opt.json"
        f.write_text(
            json.dumps(
                {
                    "kind": "power_law",
                    "alpha": 0.5,
                    "terms": [{"coefficient": 1, "power": 2}],
                    "options": {"bogus": 1},
                }
            )
        )
        with pytest.raises(CliInputError):
            parse_problem(str(f))


class TestSubcommands:
    def test_ml_value(self):
        proc = run_cli("ml", "--alpha", "1", "--beta", "1", "--z", "1")
        assert proc.returncode == 0
        assert proc.stdout == "2.718281828459045\n"
        assert proc.stderr == ""

    def test_ml_range_error_exit_3(self):
        proc = run_cli("ml", "--alpha", "0.5", "--z", "50")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "range" in proc.stderr

    def test_caputo_value(self):
        proc = run_cli("caputo", "--alpha", "0.5", "--gamma", "1")
        assert proc.returncode == 0
        assert float(proc.stdout) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)

    def test_caputo_bad_exponent_exit_2(self):
        proc = run_cli("caputo", "--alpha", "0.5", "--gamma", "-0.9")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_painleve_degenerate_logistic(self):
        proc = run_cli("painleve", "--problem", "problems/logistic_a05.json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["verdict"] == "degenerate_balance"
        jsonschema.validate(report, report_schema())

    def test_painleve_rejects_ivp_kind(self):
        proc = run_cli("painleve", "--problem", "problems/blowup_y2.json")
        assert proc.returncode == 2
        assert "power_law" in proc.stderr

    def test_certify_rejects_non_ivp_kind(self):
        proc = run_cli("certify", "--problem", "problems/pid_form.json")
        assert proc.returncode == 2
        assert "ivp" in proc.stderr

    def test_solve_bad_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "ivp", "alpha": 2.0}))
        proc = run_cli("solve", "--problem", str(bad), "--method", "abm")
        assert proc.returncode == 2
        assert "alpha" in proc.stderr
        assert proc.stdout == ""

    def test_solve_csv_header(self):
        proc = run_cli(
            "solve", "--problem", "problems/blowup_y2.json", "--method", "picard",
            "--points", "64",
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("t,y\n")

    def test_unknown_subcommand_exit_2(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2


class TestDeterminismAndSchema:
    CASES = [
        ("logistic_a04.json", ["painleve", "--problem"]),
        ("logistic_a05.json", ["painleve", "--problem"]),
        ("cubic_amplitude_a08.json", ["painleve", "--problem"]),
        ("pid_form.json", ["painleve", "--problem"]),
        ("blowup_y2.json", ["certify", "--problem"]),
    ]

    @pytest.mark.parametrize("name,command", CASES)
    def test_byte_identical_and_schema_valid(self, name, command):
        args = command[:-1] + ["--problem", str(PROBLEMS / name)]
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        jsonschema.validate(report, report_schema())

    def test_solve_json_schema_valid_and_deterministic(self):
        args = [
            "solve", "--problem", str(PROBLEMS / "blowup_y2.json"),
            "--method", "abm", "--points", "512", "--format", "json",
        ]
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        jsonschema.validate(report, report_schema())
        assert report["result"]["blew_up"] is True

    def test_published_schemas_match_packaged(self):
        for name in ("problem.schema.json", "report.schema.json"):
            published = (REPO / "schema" / name).read_text()
            packaged = (
                REPO / "src" / "fracpainleve" / "schema" / name
            ).read_text()
            assert published == packaged

    def test_problem_files_validate_against_problem_schema(self):
        schema = json.loads((REPO / "schema" / "problem.schema.json").read_text())
        for path in sorted(PROBLEMS.glob("*.json")):
            jsonschema.validate(json.loads(path.read_text()), schema)

    def test_file_options_flow_into_report(self, tmp_path):
        f = tmp_path / "opts.json"
        f.write_text(
            json.dumps(
                {
                    "kind": "power_law",
                    "alpha": 0.8,
                    "terms": [{"coefficient": -1.0, "power": 3}],
                    "options": {"depth": 20, "tol_res": 1e-9},
                }
            )
        )
        proc = run_cli("painleve", "--problem", str(f))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["tolerances"]["depth"] == 20
        assert report["tolerances"]["tol_res"] == 1e-9

    def test_report_round_trips_losslessly(self):
        proc = run_cli("painleve", "--problem", str(PROBLEMS / "logistic_a04.json"))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        re_dumped = json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert re_dumped == proc.stdout


class TestMlAndLinearPaths:
    def test_solve_ml_method(self, tmp_path):
        f = tmp_path / "linear.json"
        f.write_text(
            json.dumps(
                {
                    "kind": "ivp",
                    "alpha": 0.5,
                    "rhs": "1 - y",
                    "interval": [0, 1],
                    "y0": 1.0,
                    "box_radius": 1.0,
                    "lambda": 1.0,
                    "forcing": "1",
                }
            )
        )
        proc = run_cli(
            "solve", "--problem", str(f), "--method", "ml", "--points", "65",
            "--format", "json",
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        jsonschema.validate(report, report_schema())
        assert report["result"]["method"] == "mittag_leffler"
        # D^0.5 y + y = 1, y0 = 1 has the constant solution y = 1
        assert report["result"]["y_end"] == pytest.approx(1.0, abs=1e-12)

    def test_solve_ml_requires_lambda(self, tmp_path):
        f = tmp_path / "nolambda.json"
        f.write_text(
            json.dumps(
                {
                    "kind": "ivp",
                    "alpha": 0.5,
                    "rhs": "-y",
                    "interval": [0, 1],
                    "y0": 1.0,
                    "box_radius": 1.0,
                }
            )
        )
        proc = run_cli("solve", "--problem", str(f), "--method", "ml")
        assert proc.returncode == 2
        assert "lambda" in proc.stderr

    def test_solve_ml_cancellation_exit_3(self, tmp_path):
        # E_{0.5,1}(-2 t^0.5) needs z = -3.46 at t = 3, past the series'
        # cancellation limit (about -3.44 for alpha = 0.5)
        f = tmp_path / "decay.json"
        f.write_text(
            json.dumps(
                {
                    "kind": "ivp",
                    "alpha": 0.5,
                    "rhs": "-2*y",
                    "interval": [0, 3],
                    "y0": 1.0,
                    "box_radius": 1.0,
                    "lambda": 2.0,
                }
            )
        )
        proc = run_cli("solve", "--problem", str(f), "--method", "ml")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "cancellation loss" in proc.stderr

    def test_certify_linear_coefficient_path(self, tmp_path):
        f = tmp_path / "linear_cert.json"
        f.write_text(
            json.dumps(
                {
                    "kind": "ivp",
                    "alpha": 0.5,
                    "rhs": "-y",
                    "interval": [0, 4],
                    "y0": 1.0,
                    "box_radius": 1.0,
                    "linear_coefficient": "1",
                }
            )
        )
        proc = run_cli("certify", "--problem", str(f))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        jsonschema.validate(report, report_schema())
        assert report["result"]["m_unconstrained"] is True
        assert report["result"]["continuation_required"] is True
        assert report["result"]["M"] is None

    def test_painleve_depth_overflow_exit_2(self):
        proc = run_cli(
            "painleve", "--problem", "problems/cubic_amplitude_a08.json",
            "--depth", "100",
        )
        assert proc.returncode == 2

    def test_caputo_with_t_flag(self):
        proc = run_cli("caputo", "--alpha", "0.5", "--gamma", "2", "--t", "2")
        assert proc.returncode == 0
        # Gamma(3)/Gamma(2.5) * 2^1.5 = 1.5045055561273501 * 2.8284271...
        assert float(proc.stdout) == pytest.approx(
            1.5045055561273501 * 2.0**1.5, rel=1e-12
        )

    def test_solve_csv_deterministic(self):
        args = [
            "solve", "--problem", str(PROBLEMS / "blowup_y2.json"),
            "--method", "abm", "--points", "128",
        ]
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.startswith("t,y\n")
