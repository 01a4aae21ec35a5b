import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name):
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name)],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_case_studies_cover_every_bundled_problem():
    proc = run_script("run_case_studies.py")
    assert proc.returncode == 0, proc.stderr
    for path in sorted((REPO / "problems").glob("*.json")):
        assert f"{path.stem}:" in proc.stdout


def test_solver_agreement_runs():
    proc = run_script("solver_agreement.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
