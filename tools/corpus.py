"""Byte-identity corpus: every report, CSV and exit status of a fixed set of runs.

    python3 tools/corpus.py OUT

Runs the first 56 seed-0 jobs of each benchmark workload under their own
commands, and the bundled configs under every command, with the package in
the ``src`` of the checkout that holds this script.  Each run keeps its
config, the output directory of each command and ``status.json``, the exit
status of each command (or the exception that escaped it):

    OUT/<workload>/<job>/...    the jobs of ``perfbench/workloads.py``
    OUT/bundled/<config>/...    the configs of ``configs/``

Two trees, from two checkouts, compare with ``tools/refdiff.py``.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from ultrajet import cli  # noqa: E402

JOBS = 56
SEED = 0


def run_all(out: Path, config: Path, commands) -> None:
    """Run each command on ``config`` into ``out/<command>``, and record
    the exit statuses in ``out/status.json``."""
    status = {}
    for command in commands:
        try:
            status[command] = cli.run(command, str(config), str(out / command))
        except Exception as exc:  # a traceback is an outcome to compare too
            status[command] = f"{type(exc).__name__}: {exc}"
    (out / "status.json").write_text(json.dumps(status, indent=1) + "\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/corpus.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"corpus: {out} is not empty", file=sys.stderr)
        return 2
    for name in workloads.WORKLOADS:
        for job in itertools.islice(workloads.jobs(name, SEED), JOBS):
            job_dir = out / name / f"{job.index:04d}"
            job_dir.mkdir(parents=True)
            config = job_dir / "config.json"
            config.write_text(json.dumps(job.config))
            run_all(job_dir, config, job.commands)
    for config in sorted((ROOT / "configs").glob("*.json")):
        job_dir = out / "bundled" / config.stem
        job_dir.mkdir(parents=True)
        run_all(job_dir, config, sorted(cli._PIPELINES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
