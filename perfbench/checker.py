"""Output checks for benchmark jobs.

Every job, on any seed, must satisfy the invariants that need no stored
reference: no exception escapes ``cli.run``, the exit status is never 2,
``report.json`` is present and parses, a partition-of-unity sum deviation
(where reported) is below 1e-10, the jet certificate (where reported) is
``ok``, and a ``verify`` report carries a residual fit.

On the default seed, each job is also compared with the reference stored in
``references/<workload>.json``.  Exit status, verdict names, ``holds``,
error kinds, every other string and boolean, and the integer fields must
match exactly; floats must agree within ``REL_TOL`` relative (``ABS_TOL``
absolute near zero).  Error messages are not compared, because they print
floats with ``%g``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

DEFAULT_SEED = 0
REL_TOL = 1e-6
ABS_TOL = 1e-12
INTEGER_KEYS = {"n_cubes", "max_overlap", "depth_cap", "samples_per_cube",
                "grid_points", "n_points", "K_max", "P_max", "A_max",
                "pou_halvings", "n_t"}
REFERENCES = Path(__file__).resolve().parent / "references"


def read_outcome(job_dir: Path, commands, statuses) -> dict:
    """What a job produced: per command its exit status and report."""
    outcome = {}
    for command, status in zip(commands, statuses):
        entry = {"status": status}
        if isinstance(status, int):
            try:
                text = (job_dir / command / "report.json").read_text()
                entry["report"] = json.loads(text)
            except (OSError, ValueError) as exc:
                entry["report_error"] = f"{type(exc).__name__}: {exc}"
        outcome[command] = entry
    return outcome


def invariants(outcome: dict) -> list[str]:
    """Problems that need no reference, as short strings."""
    problems = []
    for command, entry in outcome.items():
        status = entry["status"]
        if not isinstance(status, int):
            problems.append(f"{command}: exception escaped cli.run: {status}")
            continue
        if status == 2:
            problems.append(f"{command}: exit status 2 (config rejected)")
        if "report" not in entry:
            problems.append(
                f"{command}: report.json unreadable: {entry['report_error']}")
            continue
        report = entry["report"]
        dev = report.get("cube_stats", {}).get("pou_sum_deviation")
        if dev is not None and not dev < 1e-10:
            problems.append(f"{command}: pou_sum_deviation {dev!r}")
        for cert in report.get("certificates", []):
            jet_cert = cert.get("jet_certificate")
            if jet_cert is not None and jet_cert.get("ok") is not True:
                problems.append(f"{command}: jet certificate not ok")
            if cert.get("kind") == "verification" and cert.get("fit") is None:
                problems.append(f"{command}: no residual fit")
        kinds = {c.get("kind") for c in report.get("certificates", [])}
        if command in ("verify", "all") and "verification" not in kinds:
            problems.append(f"{command}: no verification certificate")
    return problems


def error_kinds(outcome: dict) -> list[str]:
    """Kinds of the errors the reports carry (for the run summary)."""
    return [e.get("kind", "?") for entry in outcome.values()
            for e in entry.get("report", {}).get("errors", [])]


def reference_entry(outcome: dict) -> dict:
    """The part of an outcome stored as a reference (the echo is dropped:
    it is regenerated from the seed)."""
    out = {}
    for command, entry in outcome.items():
        ref = {"status": entry["status"]}
        if "report" in entry:
            ref["report"] = {k: v for k, v in entry["report"].items()
                             if k != "config_echo"}
        out[command] = ref
    return out


def compare(expected, actual, path: str = "") -> list[str]:
    """Differences between a stored reference and a fresh outcome."""
    key = path.rsplit(".", 1)[-1]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(set(expected) ^ set(actual))} differ"]
        diffs = []
        for k in expected:
            if k == "message":
                continue
            diffs += compare(expected[k], actual[k], f"{path}.{k}")
        return diffs
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        diffs = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs += compare(e, a, f"{path}[{i}]")
        return diffs
    numbers = (int, float)
    if (isinstance(expected, numbers) and isinstance(actual, numbers)
            and not isinstance(expected, bool) and not isinstance(actual, bool)
            and key not in INTEGER_KEYS and (isinstance(expected, float)
                                             or isinstance(actual, float))):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if expected == actual or math.isclose(expected, actual, rel_tol=REL_TOL,
                                              abs_tol=ABS_TOL):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def load_references(name: str) -> list:
    path = REFERENCES / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else []
