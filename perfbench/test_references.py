"""Each benchmark check accepts the program's real output and rejects a
perturbed copy of it.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import references as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run._import_program()


def _answer(cli, tmp_path, problem, index):
    if problem.doc is not None:
        path = tmp_path / f"{problem.name}.json"
        path.write_text(json.dumps(problem.doc))
    else:
        path = HERE.parent / problem.bundled
    argv = [str(path) if a == "{file}" else a for a in problem.calls[index]]
    rc, out, err = run.call(cli, argv)
    assert rc == 0, err
    return path.read_bytes(), out


def _pick(workload, name, seed=0):
    return next(p for p in workloads.make_round(workload, seed) if p.name == name)


def _csv(t, y):
    return "t,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t, y))


def test_rounds_repeat_for_a_seed_and_change_with_it():
    for w in workloads.WORKLOADS:
        a = [(p.name, p.doc) for p in workloads.make_round(w, 7)]
        assert a == [(p.name, p.doc) for p in workloads.make_round(w, 7)]
        assert a != [(p.name, p.doc) for p in workloads.make_round(w, 8)]
        names = [p.name for p in workloads.make_round(w, 8)]
        assert names == [n for n, _ in a]  # same slots for every seed


@pytest.mark.parametrize("name", ["pl00", "pl14", "pl15", "bundled-cubic_amplitude_a08"])
def test_power_law_check_rejects_perturbations(cli, tmp_path, name):
    p = _pick("screen", name)
    raw, out = _answer(cli, tmp_path, p, 0)
    doc = json.loads(raw)
    report = json.loads(out)
    assert ref.check_power_law(doc, raw, report) == []

    bad = json.loads(out)
    bad["input_digest"] = "sha256:" + hashlib.sha256(raw + b" ").hexdigest()
    assert ref.check_power_law(doc, raw, bad)

    bad = json.loads(out)
    bad["result"]["leading"]["sigma"] *= 1 + 1e-12
    assert ref.check_power_law(doc, raw, bad)

    bad = json.loads(out)
    bad["result"]["leading"]["degenerate"] = not bad["result"]["leading"]["degenerate"]
    assert ref.check_power_law(doc, raw, bad)

    if report["result"]["leading"]["amplitude"] is None:
        return
    bad = json.loads(out)
    bad["result"]["leading"]["amplitude"] *= 1 + 1e-10
    assert ref.check_power_law(doc, raw, bad)

    bad = json.loads(out)
    bad["result"]["leading"]["amplitude_is_real"] = not bad["result"]["leading"]["amplitude_is_real"]
    assert ref.check_power_law(doc, raw, bad)

    bad = json.loads(out)
    bad["result"]["resonances"] = [
        r for r in bad["result"]["resonances"] if r["classification"] != "principal_minus_one"
    ]
    assert ref.check_power_law(doc, raw, bad)

    bad = json.loads(out)
    bad["result"]["resonances"][0]["value"] += 1e-4
    assert ref.check_power_law(doc, raw, bad)


def test_multiterm_check_rejects_perturbations(cli, tmp_path):
    p = _pick("screen", "mt00")
    raw, out = _answer(cli, tmp_path, p, 0)
    doc = json.loads(raw)
    assert ref.check_multiterm(doc, raw, json.loads(out)) == []
    bad = json.loads(out)
    bad["result"]["leading"]["amplitude"] *= 1 + 1e-13
    assert ref.check_multiterm(doc, raw, bad)
    bad = json.loads(out)
    bad["result"]["verdict"] = "passes"
    assert ref.check_multiterm(doc, raw, bad)


@pytest.mark.parametrize("name", ["lin1024-0", "hom1024-0", "nl1024-0"])
def test_certificate_check_rejects_perturbations(cli, tmp_path, name):
    p = _pick("volterra", name)
    raw, out = _answer(cli, tmp_path, p, 0)
    assert ref.check_certificate(p.spec, raw, json.loads(out)) == []
    for field, change in (
        ("guaranteed_interval", lambda v: [v[0], v[1] * 0.999]),
        ("k", lambda v: v * 1.001),
        ("K", lambda v: v * 0.5),
        ("L", lambda v: v * 0.5),
    ):
        bad = json.loads(out)
        bad["result"][field] = change(bad["result"][field])
        assert ref.check_certificate(p.spec, raw, bad), field


@pytest.mark.parametrize(
    "workload, name, index, shift",
    [
        ("volterra", "lin1024-0", 1, 1e-6),  # picard, y = b t^2
        ("volterra", "hom1024-0", 1, 1e-6),  # picard, relaxation
        ("volterra", "nl1024-0", 1, 1e-6),  # picard, nonlinear y = b t^2
        ("volterra", "lin1024-0", 2, 1e-6),  # ml with forcing
        ("volterra", "hom1024-0", 2, 1e-12),  # ml, quadrature-free
        ("march", "nl4000", 0, 1e-4),  # abm, nonlinear y = b t^2
        ("march", "rel4000", 0, 1e-3),  # abm, relaxation
        ("march", "blow4000", 0, 1e-4),  # abm, blow-up, values before t*/2
    ],
)
def test_trajectory_check_rejects_a_shifted_value(cli, tmp_path, workload, name, index, shift):
    p = _pick(workload, name)
    _, out = _answer(cli, tmp_path, p, index)
    method = p.calls[index][p.calls[index].index("--method") + 1]
    assert ref.check_trajectory(p.spec, method, out, {}) == []
    t, y = ref.parse_csv(out)
    y = y.copy()
    y[len(y) // 5] += shift
    assert ref.check_trajectory(p.spec, method, _csv(t, y), {})
    if p.spec["solution"] != "blowup":
        assert ref.check_trajectory(p.spec, method, _csv(t[:-1], y[:-1]), {})  # a row lost


def test_blowup_check_rejects_a_stop_past_t_star(cli, tmp_path):
    p = _pick("march", "blow4000")
    _, out = _answer(cli, tmp_path, p, 0)
    t, y = ref.parse_csv(out)
    h = t[1] - t[0]
    assert ref.check_trajectory(p.spec, "abm", out, {}) == []
    longer = _csv(list(t) + [t[-1] + h], list(y) + [2 * y[-1]])
    assert ref.check_trajectory(p.spec, "abm", longer, {})
    shorter = _csv(t[:-2], y[:-2])  # stops more than 2h before t*
    assert ref.check_trajectory(p.spec, "abm", shorter, {})


def test_known_fault_fails_its_check(cli):
    p = next(q for q in workloads.make_round("march", 0) if q.known_fault)
    _, out = _answer(cli, None, p, 0)
    errs = ref.check_trajectory(p.spec, "abm", out, {})
    assert any("last_valid_time" in e for e in errs)
