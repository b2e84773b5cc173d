"""The benchmark's own tests: ``python3 -m pytest -q perfbench``."""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _first(workload, seed, n):
    return [j.config for j in itertools.islice(workloads.jobs(workload, seed), n)]


def test_jobs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert _first(workload, 3, 30) == _first(workload, 3, 30)
        assert _first(workload, 3, 30) != _first(workload, 4, 30)


def test_set_points_are_distinct():
    for workload in ("certify_1d", "verify_2d"):
        for config in _first(workload, 0, 40):
            points = [tuple(p) for p in config["compact_set"]["points"]]
            assert len(set(points)) == len(points)


def test_calculus_cycle_is_balanced():
    cycle = next(workloads.cycles("calculus", 5))
    shapes = {(c.config["weights"][0]["preset"], c.config["K_max"]) for c in cycle}
    assert len(cycle) == 27 and len(shapes) == 9
    for kind in ("power", "log_power", "gevrey_dual"):
        mine = [c.config for c in cycle if c.config["weights"][0]["preset"] == kind]
        counts = [sum(ch in c["checks"] for c in mine) for ch in workloads.CHECKS]
        assert set(counts) <= {4, 5}  # four drawn, plus a rare fallback


def test_compare_tolerances():
    ref = {"status": 1, "report": {"v": [{"holds": True, "C": 1.0}],
                                   "cube_stats": {"n_cubes": 12.0}}}
    close = json.loads(json.dumps(ref))
    close["report"]["v"][0]["C"] = 1.0 + 1e-9
    assert checker.compare(ref, close) == []
    far = json.loads(json.dumps(ref))
    far["report"]["v"][0]["C"] = 1.0 + 1e-5
    assert checker.compare(ref, far)
    cubes = json.loads(json.dumps(ref))
    cubes["report"]["cube_stats"]["n_cubes"] = 12.0 + 1e-9
    assert checker.compare(ref, cubes)
    flipped = json.loads(json.dumps(ref))
    flipped["report"]["v"][0]["holds"] = False
    assert checker.compare(ref, flipped)


def test_invariants_catch_escapes_and_config_errors():
    assert checker.invariants({"check": {"status": "ValueError: x"}})
    assert checker.invariants({"check": {"status": 2, "report": {"errors": []}}})
    assert checker.invariants({"check": {"status": 0, "report_error": "missing"}})


def test_pace_rescales_by_the_probes_on_both_sides(monkeypatch):
    probes = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(speed, "probe",
                        lambda: next(probes) * speed.REFERENCE_S)
    pace = speed.Pace()
    assert abs(pace.rescale(3.0) - 1.0) < 1e-12  # host 3x slow on average
    assert abs(pace.rescale(5.0) - 2.0) < 1e-12  # then 2.5x slow


def test_quick_mode_passes():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().endswith("quick: ok")


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                          "calculus", "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
