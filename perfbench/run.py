"""fracpainleve benchmark: seeded problem files through the CLI, in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload screen|volterra|march --seed N \
        --seconds S --trace 0|1

Each problem file goes through ``fracpainleve.cli.run([...])`` with stdout
captured, one call after another (a closed loop: one client, the next call
sent when the last one answered).  A run repeats its workload's round of
problems until ``--seconds`` of timed work have passed, finishing the round
it is in, and checks every output against the independent references in
``references.py`` outside the timed intervals.  Times are reported at a
reference host speed, measured by ``calibrate()`` before every problem.
The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Diagnostics go to stderr.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread: the Picard weight product is a matrix-vector product that
# OpenBLAS would otherwise spread over both CPUs, adding run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up is measured this many times, in fresh processes, per run.
SETUP_REPEATS = 5

#: Time of ``calibrate()`` on the reference machine (about its median on a
#: 2-CPU x86-64 VM with Python 3.11).  Reported times are scaled by this
#: over the loop's median time in the run; see README.md, "Steadiness".
CALIBRATION_REF_S = 0.005

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

EXIT_NO_PROGRAM = 2


def _import_program():
    """Import the CLI from this checkout's ``src`` and nowhere else."""
    if not (SRC / "fracpainleve" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    from fracpainleve import cli

    if Path(cli.__file__).resolve().parent != SRC / "fracpainleve":
        print(f"error: imported {cli.__file__}, not the checkout's program", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return cli


def calibrate() -> float:
    """Time a fixed pure-Python loop: how fast the host runs this process
    right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    return time.perf_counter() - start


def call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


class Workdir:
    """The round's problem files, written under perfbench/out/."""

    def __init__(self, problems):
        OUT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self.files = {}
        for p in problems:
            if p.doc is not None:
                f = self.path / f"{p.name}.json"
                f.write_text(json.dumps(p.doc, indent=1) + "\n")
            else:
                f = ROOT / p.bundled
            self.files[p.name] = f

    def argv(self, problem, template):
        return [str(self.files[problem.name]) if a == "{file}" else a for a in template]

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)


def setup(workload: str, seed: int):
    """Import the program, write the round's files, answer one warm-up
    problem of each kind."""
    cli = _import_program()
    problems = workloads.make_round(workload, seed)
    warm = workloads.warmup(workload)
    work = Workdir(problems + warm)
    for p in warm:
        for template in p.calls:
            call(cli, work.argv(p, template))
    return cli, problems, work


def measure_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter until it has set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=str(ROOT), text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc})")
    return elapsed


class Checker:
    """Runs the independent checks, caching references per problem and
    verdicts per distinct output (every round repeats the same problems)."""

    def __init__(self, work):
        import references  # here, so set-up probes do not load mpmath

        self.ref = references
        self.work = work
        self.cache = {}
        self.verdicts = {}

    def check(self, problem, index, rc, stdout) -> list[str]:
        key = (problem.name, index, rc, stdout)
        if key not in self.verdicts:
            self.verdicts[key] = self._check(problem, index, rc, stdout)
        return self.verdicts[key]

    def _check(self, problem, index, rc, stdout) -> list[str]:
        if rc != 0:
            return [f"exit status {rc}"]
        ref = self.ref
        argv = problem.calls[index]
        raw = self.work.files[problem.name].read_bytes()
        if argv[0] in ("painleve", "certify"):
            report, errs = ref.check_report_json(stdout)
            if errs:
                return errs
            if argv[0] == "certify":
                return ref.check_certificate(problem.spec, raw, report)
            doc = json.loads(raw)
            if doc["kind"] == "multiterm_linear":
                return ref.check_multiterm(doc, raw, report)
            return ref.check_power_law(doc, raw, report)
        method = argv[argv.index("--method") + 1]
        return ref.check_trajectory(problem.spec, method, stdout, self.cache)


def run(args) -> dict:
    cli, problems, work = setup(args.workload, args.seed)
    try:
        return _measure(args, cli, problems, work)
    finally:
        work.close()


def _measure(args, cli, problems, work) -> dict:
    setup_samples = []
    probes = 0 if args.trace else SETUP_REPEATS
    checker = Checker(work)
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    latencies = {p.name: [] for p in problems}
    calibration = []
    attempted = failed = 0
    correct = True
    verdicts = set()
    timed = 0.0
    rounds = 0
    try:
        while timed < args.seconds or rounds == 0:
            rounds += 1
            for p in problems:
                # set-up probes are spread over the run, between problems,
                # so they sample the same stretch of time as the problems
                if len(setup_samples) < probes * timed / args.seconds:
                    setup_samples.append(measure_setup(args.workload, args.seed))
                argvs = [work.argv(p, t) for t in p.calls]
                gc.collect()
                calibration.append(calibrate())
                if tracer is not None:
                    tracer.problem = p.name
                start = time.perf_counter()
                outputs = [call(cli, a) for a in argvs]
                elapsed = time.perf_counter() - start
                timed += elapsed
                latencies[p.name].append(elapsed)
                attempted += 1
                if tracer is not None:
                    tracer.problem = None
                errs = []
                for i, (rc, out, err) in enumerate(outputs):
                    found = checker.check(p, i, rc, out)
                    errs += [f"{p.calls[i][0]}: {e}" for e in found]
                    if rc != 0 and err:
                        errs.append(err.strip().splitlines()[-1])
                    if rc == 0 and p.calls[i][0] == "painleve":
                        verdicts.add(json.loads(out)["result"]["verdict"])
                if errs:
                    failed += 1
                    if not p.known_fault:
                        correct = False
                    if rounds == 1:
                        tag = "known fault" if p.known_fault else "FAILED"
                        for e in errs:
                            print(f"{tag} {p.name}: {e}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
    while len(setup_samples) < probes:
        setup_samples.append(measure_setup(args.workload, args.seed))
    if args.workload == "screen":
        missing = set(workloads.VERDICTS) - verdicts
        if missing:
            correct = False
            print(f"FAILED: verdicts never reported: {sorted(missing)}", file=sys.stderr)
    rate = attempted / timed
    slowdown = statistics.median(calibration) / CALIBRATION_REF_S
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {attempted} problems, "
          f"{failed} failed, {timed:.2f} s timed, {rate:.3f} problems/s as measured, "
          f"host at 1/{slowdown:.3f} of reference speed", file=sys.stderr)
    if tracer is not None:
        values = tracer.metrics(attempted)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}-{os.getpid()}.json"
        tracer.write(trace_file, {"workload": args.workload, "seed": args.seed,
                                  "rounds": rounds, "problems": attempted,
                                  "problems_per_s": rate})
        print(f"spans written to {trace_file}", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "problems_per_s": rate,
            # median over problems of each problem's median over the rounds
            "latency_p50_ms": statistics.median(statistics.median(v) for v in latencies.values())
            * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print("as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in values.items()),
          file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    # times at the reference speed: divide by the run's slowdown
    scale = {"s": 1 / slowdown, "ms": 1 / slowdown, "us": 1 / slowdown, "1/s": slowdown}
    metrics = {name: {"value": values[name] * scale.get(unit, 1.0), "unit": unit}
               for name, unit in units.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        _, _, work = setup(args.workload, args.seed)
        print("ready", flush=True)
        work.close()
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
