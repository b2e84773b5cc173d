"""ultrajet benchmark: seeded pipeline workloads run through ``cli.run``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload calculus --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --quick              # self-test, about 15 s
    python3 perfbench/run.py --make-references    # rewrite references/*.json

Load model: one client in a closed loop.  The next job starts only when the
previous ``cli.run`` returns; all jobs of a run share this interpreter and
write to ``perfbench/_work``.  Jobs are taken in whole cycles (see
``workloads.py``), at least ``MIN_JOBS`` of them, as many as fill about
``--seconds`` of timed work on the seed code.

``--trace 0`` measures the end-to-end metrics with tracing off, with every
job's wall time rescaled to the host's reference speed (``speed.py``): on
a shared host the same job can run half again as slowly for tens of
seconds at a time.
``--trace 1`` is a separate run: each job runs once with the layer wraps on
and once with them off, in alternating order; it reports the per-layer
metrics of the traced passes and the tracing overhead, checks that both
passes write byte-identical reports and that the wraps are removed, and
writes the spans to ``perfbench/_work/<workload>/trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import speed
import workloads
from tracer import LAYERS, METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
BUNDLED = (("power_strong", ("check",)), ("log_power_selfheir", ("check",)),
           ("sin_gevrey2_all", ("all",)))
SETUP_IMPORTS = 5
QUICK_JOBS = 2
REFERENCE_JOBS = 40
MIN_JOBS = 24      # enough jobs for a tail percentile with ten jobs beyond it
# one job cycle of the seed code, in seconds at the reference speed (speed.py)
CYCLE_SECONDS = {"calculus": 10.0, "certify_1d": 3.4, "verify_2d": 3.05}

END_TO_END = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


# -- one job ------------------------------------------------------------------------

def run_job(cli, job, job_dir: Path):
    """Run the job's commands; returns (wall seconds, outcome, bytes written)."""
    if job_dir.exists():
        shutil.rmtree(job_dir)
    job_dir.mkdir(parents=True)
    config = job_dir / "config.json"
    config.write_text(json.dumps(job.config))
    statuses = []
    t0 = time.perf_counter()
    for command in job.commands:
        try:
            statuses.append(cli.run(command, str(config), str(job_dir / command)))
        except Exception as exc:  # a traceback out of the CLI is a failed job
            statuses.append(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    outcome = checker.read_outcome(job_dir, job.commands, statuses)
    written = sum(f.stat().st_size for c in job.commands
                  for f in (job_dir / c).glob("*") if f.is_file())
    return elapsed, outcome, written


def job_problems(outcome: dict, reference) -> list[str]:
    problems = checker.invariants(outcome)
    if reference is not None:
        problems += checker.compare(reference, checker.reference_entry(outcome),
                                    "reference")
    return problems


def report_bytes(job_dir: Path, commands) -> list[bytes]:
    return [(job_dir / c / "report.json").read_bytes()
            if (job_dir / c / "report.json").is_file() else b"" for c in commands]


# -- runs ---------------------------------------------------------------------------

class Run:
    """Per-run tallies: latencies, failures and the error kinds reports carry."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.error_kinds: dict[str, int] = {}

    def record(self, job, elapsed: float, outcome: dict, problems: list[str]):
        self.latencies.append(elapsed)
        if problems:
            self.failed += 1
            self.problems += [f"job {job.index}: {p}" for p in problems]
        for kind in checker.error_kinds(outcome):
            self.error_kinds[kind] = self.error_kinds.get(kind, 0) + 1


def _cycles(workload: str, seed: int, seconds: float, passes: int) -> list:
    """The job cycles of a run: as many whole cycles as ``passes`` passes
    fill in about ``seconds`` at the seed code's pace (``CYCLE_SECONDS``),
    and at least ``MIN_JOBS`` jobs.  The count follows from the arguments
    alone, so every run of a workload times the same number of jobs and a
    faster program finishes the same jobs sooner."""
    stream = workloads.cycles(workload, seed)
    first = next(stream)
    n_cycles = max(math.ceil(MIN_JOBS / len(first)),
                   round(seconds / (passes * CYCLE_SECONDS[workload])))
    return [first] + list(itertools.islice(stream, n_cycles - 1))


def _references(workload: str, seed: int):
    refs = checker.load_references(workload) if seed == checker.DEFAULT_SEED else []
    return lambda i: refs[i] if i < len(refs) else None


def measure(cli, workload: str, seed: int, seconds: float) -> tuple[Run, list]:
    """End-to-end run with tracing off: one checked pass over the jobs.
    Returns the run at the reference speed (``speed.py``) and the jobs'
    wall-clock times."""
    work = WORK / workload
    reference = _references(workload, seed)
    run, walls = Run(), []
    pace = speed.Pace()
    for cycle in _cycles(workload, seed, seconds, 1):
        for job in cycle:
            elapsed, outcome, _ = run_job(cli, job, work / "job")
            run.record(job, pace.rescale(elapsed), outcome,
                       job_problems(outcome, reference(job.index)))
            walls.append(elapsed)
    return run, walls


def measure_traced(cli, workload: str, seed: int, seconds: float, jobs=None):
    """Traced run; returns (traced Run, untraced wall, tracer, extra problems)."""
    work = WORK / workload
    reference = _references(workload, seed)
    tracer = Tracer()
    run = Run()
    plain = []
    problems = []

    def traced(job):
        tracer.job = job.index
        tracer.install()
        try:
            return run_job(cli, job, work / "job-traced")
        finally:
            if not tracer.uninstall():
                problems.append(f"job {job.index}: wraps not removed")

    batches = [jobs] if jobs is not None else _cycles(workload, seed, seconds, 2)
    for batch in batches:
        for job in batch:
            results = {}
            for kind in (("plain", "traced") if job.index % 2 == 0
                         else ("traced", "plain")):
                results[kind] = (traced(job) if kind == "traced" else
                                 run_job(cli, job, work / "job-plain"))
            elapsed, outcome, written = results["traced"]
            tracer.end_job(written)
            plain.append(results["plain"][0])
            job_issues = job_problems(outcome, reference(job.index))
            if (report_bytes(work / "job-traced", job.commands)
                    != report_bytes(work / "job-plain", job.commands)):
                job_issues.append("report.json differs with the wraps on")
            run.record(job, elapsed, outcome, job_issues)
    return run, sum(plain), tracer, problems


# -- metrics ------------------------------------------------------------------------

def setup_seconds(n: int = SETUP_IMPORTS) -> float:
    """Median time for a fresh interpreter to ``import ultrajet.cli``, at
    the reference speed; one unmeasured import first writes the bytecode
    caches."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import ultrajet.cli; "
            "print(time.perf_counter() - t)")

    def once() -> float:
        out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        return float(out.stdout.strip())

    once()
    pace = speed.Pace()
    return statistics.median(pace.rescale(once()) for _ in range(n))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest latency percentile with at least ten jobs beyond it:
    (value, percentile, jobs beyond).  Falls back to the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def job_metrics(lat: list[float], failed: int) -> dict:
    return {"jobs_per_s": (len(lat) - failed) / sum(lat),
            "job_p50_s": statistics.median(lat), "job_tail_s": tail(lat)[0]}


def end_to_end(run: Run, walls: list, setup_s: float) -> tuple[dict, list[str]]:
    lat = run.latencies
    _, pct, beyond = tail(lat)
    values = {
        **job_metrics(lat, run.failed),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = ", ".join(f"{k} {v:.6g}"
                     for k, v in job_metrics(walls, run.failed).items())
    notes = [
        "  times are at the reference speed (speed.py); "
        f"as wall-clock time: {wall}",
        f"  job_tail_s is p{pct:.1f}: {beyond} of {len(lat)} jobs are slower",
        f"  fail_ratio    {run.failed / len(lat):.6g} "
        f"({run.failed} of {len(lat)} jobs failed)",
        f"  setup_s is the median of {SETUP_IMPORTS} fresh imports of ultrajet.cli",
    ]
    return values, notes


def _print_result(correct: bool, run: Run, metrics: dict, units: dict,
                  notes: list[str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    for line in notes:
        print(line)
    if run.error_kinds:
        kinds = ", ".join(f"{k} x{v}" for k, v in sorted(run.error_kinds.items()))
        print(f"  error kinds in reports: {kinds}")
    for p in run.problems[:20]:
        print(f"  FAILED {p}")
    print(json.dumps({
        "correct": correct, "attempted": len(run.latencies), "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


def layer_metrics(run: Run, plain_wall: float, tracer: Tracer) -> dict:
    values = tracer.metrics(len(run.latencies), SRC / "ultrajet")
    traced_wall = sum(run.latencies)
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    values["trace.self_sum_ratio"] = sum(tracer.self_times().values()) / traced_wall
    return {name: values[name] for name in METRICS}


# -- modes --------------------------------------------------------------------------

def main_workload(args) -> None:
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    setup_s = None if args.trace else setup_seconds()
    from ultrajet import cli

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        run, plain_wall, tracer, problems = measure_traced(
            cli, args.workload, args.seed, args.seconds)
        tracer.write(WORK / args.workload / "trace.json")
        metrics = layer_metrics(run, plain_wall, tracer)
        run.problems += problems
        spans_file = (WORK / args.workload / "trace.json").relative_to(ROOT)
        notes = [f"  traced jobs {len(run.latencies)}; spans {len(tracer.spans)} "
                 f"written to {spans_file}"]
        correct = run.failed == 0 and not problems
    else:
        run, walls = measure(cli, args.workload, args.seed, args.seconds)
        metrics, notes = end_to_end(run, walls, setup_s)
        correct = run.failed == 0
    _print_result(correct, run, metrics, METRICS if args.trace else END_TO_END, notes)


def bundled_jobs() -> list:
    out = []
    for i, (name, commands) in enumerate(BUNDLED):
        config = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        out.append(workloads.Job(i, commands, config))
    return out


def main_quick() -> int:
    """Two jobs per workload and the bundled configs, through the output
    checker and the tracer."""
    from ultrajet import cli

    bad = 0
    suites = {w: list(itertools.islice(workloads.jobs(w, checker.DEFAULT_SEED),
                                       QUICK_JOBS))
              for w in workloads.WORKLOADS}
    suites["bundled"] = bundled_jobs()
    for name, jobs in suites.items():
        run, plain_wall, tracer, problems = measure_traced(
            cli, name, checker.DEFAULT_SEED, 0.0, jobs=jobs)
        metrics = layer_metrics(run, plain_wall, tracer)
        busy = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
        top = max(busy, key=busy.get)
        issues = run.problems + problems
        bad += len(issues)
        print(f"{name:11s} jobs {len(run.latencies)}  failed {run.failed}  "
              f"top layer {top}  overhead {metrics['trace.overhead_ratio']:.3f}  "
              f"self/wall {metrics['trace.self_sum_ratio']:.4f}")
        for p in issues:
            print(f"  FAILED {p}")
    print("quick: ok" if not bad else f"quick: {bad} problems")
    return 0 if not bad else 1


def main_references(n_jobs: int) -> None:
    """Store the default seed's outcomes as the references."""
    from ultrajet import cli

    checker.REFERENCES.mkdir(exist_ok=True)
    suites = {w: list(itertools.islice(workloads.jobs(w, checker.DEFAULT_SEED),
                                       n_jobs))
              for w in workloads.WORKLOADS}
    suites["bundled"] = bundled_jobs()
    for name, jobs in suites.items():
        refs = []
        for job in jobs:
            _, outcome, _ = run_job(cli, job, WORK / "references" / "job")
            problems = checker.invariants(outcome)
            if problems:
                print(f"{name} job {job.index}: {problems}")
            refs.append(checker.reference_entry(outcome))
        path = checker.REFERENCES / f"{name}.json"
        path.write_text(json.dumps(refs, separators=(",", ":")) + "\n")
        print(f"{name}: {len(refs)} references -> {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=checker.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="self-test: checker and tracer on a few jobs")
    parser.add_argument("--make-references", action="store_true",
                        help="rewrite the stored references of the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "ultrajet" / "cli.py").is_file():
        print(f"perfbench: no ultrajet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.quick:
        return main_quick()
    if args.make_references:
        main_references(REFERENCE_JOBS)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    main_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
