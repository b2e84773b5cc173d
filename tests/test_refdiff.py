"""``tools/refdiff.py`` on two output trees of the same runs, one of them
edited: it names exactly the edited leaf, one line for each, and exits 1;
on two identical trees it prints nothing and exits 0."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from ultrajet.cli import run

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("refdiff", ROOT / "tools" / "refdiff.py")
refdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refdiff)

JOB = Path("bundled") / "power_strong"


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """``fn`` and ``check`` on a bundled config: a report with verdicts and a CSV."""
    root = tmp_path_factory.mktemp("old")
    for command in ("fn", "check"):
        run(command, str(ROOT / "configs" / "power_strong.json"), str(root / JOB / command))
    return root


def _diff_after(edit, tree, tmp_path, capsys):
    """The exit status and lines of refdiff on the tree and an edited copy."""
    new = tmp_path / "new"
    shutil.copytree(tree, new)
    edit(new / JOB)
    status = refdiff.main([str(tree), str(new)])
    return status, capsys.readouterr().out.splitlines()


def _edit_report(path, change):
    report = json.loads(path.read_text())
    change(report)
    path.write_text(json.dumps(report, indent=2) + "\n")


def test_refdiff_is_silent_on_identical_trees(tree, tmp_path, capsys):
    assert _diff_after(lambda job: None, tree, tmp_path, capsys) == (0, [])


def test_refdiff_names_a_changed_value(tree, tmp_path, capsys):
    def edit(job):
        path = job / "fn" / "fn_omega.csv"
        rows = path.read_text().splitlines()
        rows[2] = rows[2].replace("21.268386596526103", "21.268386596526104")
        path.write_text("\n".join(rows) + "\n")

    status, lines = _diff_after(edit, tree, tmp_path, capsys)
    assert status == 1
    assert lines == [f"{JOB / 'fn'}  fn_omega.csv  2.omega_star  "
                     "'21.268386596526103' -> '21.268386596526104'"]


def test_refdiff_names_a_removed_key(tree, tmp_path, capsys):
    def drop(report):
        del report["verdicts"][0]["witness_constants"]  # {"C": ...}

    status, lines = _diff_after(lambda job: _edit_report(job / "check" / "report.json", drop),
                                tree, tmp_path, capsys)
    assert status == 1
    assert len(lines) == 1
    assert lines[0].startswith(f"{JOB / 'check'}  report.json  "
                               "verdicts[0].witness_constants.C  REMOVED  ")


def test_refdiff_names_a_flipped_holds(tree, tmp_path, capsys):
    def flip(report):
        report["verdicts"][1]["holds"] = not report["verdicts"][1]["holds"]

    status, lines = _diff_after(lambda job: _edit_report(job / "check" / "report.json", flip),
                                tree, tmp_path, capsys)
    assert status == 1
    assert len(lines) == 1
    assert lines[0].startswith(f"{JOB / 'check'}  report.json  verdicts[1].holds  ")
    assert lines[0].endswith("  FLIP")
