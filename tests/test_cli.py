import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ultrajet import cli, pou
from ultrajet.cli import _jet_preset, _write_csv, main, run, validate_config
from ultrajet.errors import ConfigError
from ultrajet.jets import CompactSet, jet_from_preset

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
SRC = ROOT / "src"


def load_report(out):
    return json.loads((Path(out) / "report.json").read_text())


# -- validation ------------------------------------------------------------------

def test_defaults_materialized():
    cfg = validate_config({"weights": [
        {"name": "w", "preset": "power", "params": {"alpha": 0.5}}]})
    assert cfg["K_max"] == 128
    assert cfg["extension"]["L_guard"] == 64.0
    assert cfg["x_grid"] == {"min_pow": -4, "max_pow": 6}


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        validate_config({"bogus": 1})
    with pytest.raises(ConfigError):
        validate_config({"weights": [{"name": "w", "preset": "power",
                                      "params": {"alpha": 0.5, "zz": 1}}]})
    with pytest.raises(ConfigError):
        validate_config({"checks": [{"check": "nonsense"}]})


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}')
    assert run("check", str(bad), str(tmp_path / "out")) == 2
    rep = load_report(tmp_path / "out")
    assert rep["errors"][0]["kind"] == "config"


def _jet_config(points, preset):
    return {"sequences": [{"name": "S", "generator": "gevrey",
                           "params": {"s": 1.0}}],
            "compact_set": {"points": points},
            "jet": {"preset": preset, "A_max": 4, "source_sequence": "S"},
            "decomposition": {"depth_cap": 2},
            "pou": {"order_cap": 2, "sequence": "S"}}


SIN, EXP = {"kind": "sin"}, {"kind": "exp", "a": 0.5}


@pytest.mark.parametrize("points, preset", [
    ([[0.0], [1.0]], {"kind": "tensor", "axes": [SIN, EXP]}),
    ([[0.0, 0.0], [1.0, 1.0]], SIN),
    ([[0.0, 0.0], [1.0, 1.0]], {"kind": "tensor", "axes": [SIN, EXP, SIN]}),
    ([[0.0, 0.0], [1.0, 1.0]],
     {"kind": "product", "factors": [{"kind": "tensor", "axes": [SIN, EXP]}]}),
])
def test_preset_dimension_mismatch_is_config_error(tmp_path, points, preset):
    with pytest.raises(ConfigError):
        validate_config(_jet_config(points, preset))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_jet_config(points, preset)))
    assert run("extend", str(path), str(tmp_path / "out")) == 2
    assert load_report(tmp_path / "out")["errors"][0]["kind"] == "config"


def test_order_above_jet_degree_is_config_error(tmp_path):
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["jet"].update({"A_max": 2, "P_max": 2})
    cfg["extension"]["orders"] = [0, 3]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("verify", str(path), str(tmp_path / "out")) == 2
    assert load_report(tmp_path / "out")["errors"][0]["kind"] == "config"
    planar = _jet_config([[0.0, 0.0], [1.0, 1.0]],
                         {"kind": "tensor", "axes": [SIN, EXP]})
    planar["pou"]["order_cap"] = 4
    planar["extension"] = {"orders": [[1, 3]]}
    validate_config(planar, "verify")
    for orders in ([[0, 0], [1, 4]], [[0, "1"]], ["2"], None):
        planar["extension"] = {"orders": orders}
        with pytest.raises(ConfigError):
            validate_config(planar, "all")


def test_order_above_partition_cap_is_config_error(tmp_path):
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["extension"]["orders"] = [0, 5]  # A_max 12, order_cap 4
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("verify", str(path), str(tmp_path / "out")) == 2
    err = load_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config"
    assert "extension.orders 5" in err["message"] and "pou.order_cap 4" in err["message"]


def test_growth_orders_above_partition_cap_is_config_error(tmp_path):
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["extension"]["growth_orders"] = 7  # order_cap 4
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("verify", str(path), str(tmp_path / "out")) == 2
    err = load_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config"
    assert "extension.growth_orders 7" in err["message"]
    assert "pou.order_cap 4" in err["message"]
    cfg["extension"]["growth_orders"] = 4
    validate_config(cfg, "verify")


def test_series_degree_above_jet_order_is_config_error(tmp_path):
    cfg = _jet_config([[0.0], [1.0]], SIN)
    cfg["jet"]["P_max"] = 5  # A_max 4
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("extend", str(path), str(tmp_path / "out")) == 2
    err = load_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config"
    assert "jet.P_max 5" in err["message"] and "jet.A_max 4" in err["message"]
    cfg["jet"]["P_max"] = 4
    validate_config(cfg, "extend")


def test_empty_approach_scales_is_config_error(tmp_path):
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["extension"]["approach_scales"] = []
    validate_config(cfg, "extend")  # only verify reads them
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for command in ("verify", "all"):
        assert run(command, str(path), str(tmp_path / command)) == 2
        err = load_report(tmp_path / command)["errors"][0]
        assert err["kind"] == "config"
        assert "extension.approach_scales" in err["message"]


def test_orders_are_checked_only_for_verify(tmp_path):
    cfg = _jet_config([[0.0], [1.0]], SIN)
    cfg["jet"]["A_max"] = 1  # below the default orders [0, 1, 2]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("extend", str(path), str(tmp_path / "extend")) == 0
    assert run("verify", str(path), str(tmp_path / "verify")) == 2
    assert load_report(tmp_path / "verify")["errors"][0]["kind"] == "config"
    cfg["extension"] = None
    path.write_text(json.dumps(cfg))
    assert run("cubes", str(path), str(tmp_path / "cubes")) == 0
    assert run("verify", str(path), str(tmp_path / "none")) == 2


def test_order_length_must_match_dimension(tmp_path):
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["extension"]["orders"] = [[0, 1]]  # two entries, points in 1D
    validate_config(cfg, "extend")
    with pytest.raises(ConfigError, match="dimension 1"):
        validate_config(cfg, "verify")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("verify", str(path), str(tmp_path / "out")) == 2
    assert load_report(tmp_path / "out")["errors"][0]["kind"] == "config"


@pytest.mark.parametrize("entry", [
    {"name": "w", "preset": "power", "params": {}},
    {"name": "w", "preset": "power", "params": {"alpha": 2.0}},
    {"name": "w", "preset": "power", "params": {"alpha": True}},
    {"name": "w", "preset": "log_power", "params": {"b": "x"}},
    {"name": "w", "preset": "log_power", "params": {"b": 2.0, "scale": 0}},
    {"name": "w", "preset": "gevrey_dual", "params": {"s": float("nan")}},
    {"name": "w", "preset": "tabulated", "params": {"ts": 3, "values": [0]}},
    {"name": "w", "preset": "power", "params": [0.5]},
    {"name": "w", "preset": "log_power", "params": {}},  # log_power requires b
])
def test_bad_weight_params_are_config_errors(tmp_path, entry):
    cfg = {"weights": [entry]}
    with pytest.raises(ConfigError):
        validate_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("fn", str(path), str(tmp_path / "out")) == 2
    assert load_report(tmp_path / "out")["errors"][0]["kind"] == "config"


def test_bad_sequence_params_are_config_errors():
    for entry in ({"name": "S", "generator": "gevrey", "params": {}},
                  {"name": "S", "generator": "gevrey", "params": {"s": -1}},
                  {"name": "S", "generator": "quotient_power",
                   "params": {"p": 2.0, "scale": -1.0}}):
        with pytest.raises(ConfigError):
            validate_config({"sequences": [entry]})
    validate_config({"sequences": [{"name": "S", "generator": "quotient_power",
                                    "params": {"p": -0.5}}]})


@pytest.mark.parametrize("command, entry", [
    ("fn", {"name": "w", "preset": "log_power", "params": {"b": 2.0},
            "normalized": False}),
    ("fn", {"name": "w", "preset": "omega_of_sequence", "params": {"sequence": "S"},
            "normalized": False}),
    ("fn", {"name": "w", "preset": "tabulated", "normalized": True,
            "params": {"ts": [1.0, 2.0], "values": [0.0, 1.0]}}),
    ("seq", {"name": "T", "generator": "mu_table", "params": {"mu": [1.0] * 21},
             "K_max": 5}),
    ("seq", {"name": "T", "generator": "descendant_of", "params": {"sequence": "S"},
             "K_max": 7}),
])
def test_entry_setting_the_row_does_not_take_is_config_error(tmp_path, command, entry):
    key = "weights" if "preset" in entry else "sequences"
    setting = "normalized" if key == "weights" else "K_max"
    cfg = {"sequences": [{"name": "S", "generator": "gevrey", "params": {"s": 1.0},
                          "K_max": 40}], key: [entry]}
    if key == "sequences":
        cfg["sequences"].append(entry)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(command, str(path), str(tmp_path / "out")) == 2
    err = load_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config" and repr(setting) in err["message"]
    assert repr(entry.get("preset", entry.get("generator"))) in err["message"]


@pytest.mark.parametrize("order_cap", [13, 20])
def test_order_cap_above_12_is_config_error_before_any_bump(tmp_path, monkeypatch,
                                                             order_cap):
    def no_bump(*args, **kwargs):
        raise AssertionError("a bump was built")

    monkeypatch.setattr(pou, "_canonical_for", no_bump)
    monkeypatch.setattr(pou, "build_pou", no_bump)
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["pou"]["order_cap"] = 12
    validate_config(cfg, "pou")
    cfg["pou"]["order_cap"] = order_cap
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("pou", str(path), str(tmp_path / "out")) == 2
    err = load_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config" and "pou.order_cap" in err["message"]


@pytest.mark.parametrize("sequences", [
    [{"name": "S", "generator": "descendant_of", "params": {"sequence": "S"}}],
    [{"name": "A", "generator": "descendant_of", "params": {"sequence": "B"}},
     {"name": "B", "generator": "descendant_of", "params": {"sequence": "A"}}],
])
def test_sequence_defined_through_itself_is_config_error(tmp_path, sequences):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sequences": sequences}))
    assert run("seq", str(path), str(tmp_path / "out")) == 2
    err = load_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config" and "defined through itself" in err["message"]


def test_jet_preset_tensor_has_one_axis_per_entry():
    spec = {"kind": "tensor", "axes": [{"kind": "sin"}, {"kind": "exp"},
                                       {"kind": "runge"}]}
    assert len(_jet_preset(spec).axes) == 3


def test_jet_preset_round_trip():
    spec = {"kind": "product", "factors": [{"kind": "runge", "c": 2.0},
                                           {"kind": "poly", "coeffs": [0.0, 1.0]}]}
    jet = jet_from_preset(_jet_preset(spec), CompactSet.from_points([[0.0]]), A_max=3)
    # x/(1+2x^2) has derivative 1 at 0
    assert math.isclose(jet.value(0, (1,)), 1.0, rel_tol=1e-12)
    # parameters left out take the class defaults
    sin = _jet_preset({"kind": "sin"})
    assert (sin.a, sin.b) == (1.0, 0.0)


def _readme_items(marker: str) -> dict:
    """The items name{params} [settings] that the README schema block lists
    after ``marker``; the list runs on while a line ends with a comma."""
    block = (ROOT / "README.md").read_text().split("### Config schema")[1]
    lines = iter(block.splitlines())
    text = next(line for line in lines if f"// {marker}" in line).split(marker, 1)[1]
    while not text.strip() or text.rstrip().endswith(","):
        text += next(lines).strip().lstrip("/")
    return {name: (params.split(", ") if params else [],
                   settings.split(", ") if settings else [])
            for name, params, settings
            in re.findall(r"(\w+)\{([^}]*)\}(?: \[([^\]]*)\])?", text)}


@pytest.mark.parametrize("marker, table", [
    ("presets, as name{params} [entry settings it takes]:", cli._WEIGHT_PRESETS),
    ("generators:", cli._SEQ_GENERATORS),
    ("preset kinds:", cli._JET_KINDS),
])
def test_readme_schema_lists_the_rows_of_each_table(marker, table):
    assert _readme_items(marker) == {
        name: (list(row.params), list(row.settings)) for name, row in table.items()}


def test_library_value_error_while_building_is_config_error(tmp_path):
    # parameters that pass the schema but that the constructors refuse
    cfg = {"weights": [{"name": "w", "preset": "tabulated",
                        "params": {"ts": [0.0, 2.0, 1.0], "values": [0, 1, 2]}}],
           "sequences": [{"name": "S", "generator": "mu_table",
                          "params": {"mu": [1.0, -2.0, 3.0]}}],
           "checks": [{"check": "almost_increasing", "sequence": "S"}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for command, name in (("fn", "'w'"), ("check", "'S'")):
        assert run(command, str(path), str(tmp_path / command)) == 2
        err = load_report(tmp_path / command)["errors"][-1]
        assert err["kind"] == "config" and name in err["message"]


@pytest.mark.parametrize("entry", [
    {"check": "heir", "omega": "w"},
    {"check": "mixed_tail", "nu": "S"},
    {"check": "chain"},
])
def test_check_missing_argument_is_config_error(tmp_path, entry):
    cfg = {"weights": [{"name": "w", "preset": "power", "params": {"alpha": 0.5}}],
           "checks": [entry]}
    with pytest.raises(ConfigError, match="missing"):
        validate_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("check", str(path), str(tmp_path / "out")) == 2
    assert load_report(tmp_path / "out")["errors"][0]["kind"] == "config"


def test_matrix_check_on_unnormalized_weight_is_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "weights": [{"name": "w", "preset": "power", "params": {"alpha": 0.5},
                     "normalized": False}],
        "checks": [{"check": "good", "weight": "w"}]}))
    assert run("check", str(path), str(tmp_path / "out")) == 2
    err = load_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config" and "'w'" in err["message"]


_W = [{"name": "w", "preset": "power", "params": {"alpha": 0.5}}]


@pytest.mark.parametrize("cfg, message", [
    ({"weights": _W, "checks": [{"check": ["good"], "weight": "w"}]},
     "unknown check entry"),
    ({"weights": 5}, "weights must be a list of objects"),
    ({"weights": _W, "checks": [{"check": "chain", "weight": "w", "x": "abc"}]},
     "checks[chain].x = 'abc'"),
    ({"weights": _W, "extension": {"chain_x": "abc"}}, "extension.chain_x = 'abc'"),
    ({"schema_version": True}, "config.schema_version = True"),
])
def test_malformed_values_are_config_errors(tmp_path, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("check", str(path), str(tmp_path / "out")) == 2
    err = load_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config" and message in err["message"]


@pytest.mark.parametrize("command, section, value", [
    ("cubes", "compact_set", 5),
    ("extend", "extension", None),
    ("pou", "pou", "x"),
    ("cubes", "decomposition", 3),
    ("cubes", "output", 3),
    ("seq", "x_grid", "x"),  # a section that the command does not read
])
def test_section_of_wrong_type_is_config_error(tmp_path, command, section, value):
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg[section] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(command, str(path), str(tmp_path / "out")) == 2
    err = load_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config" and f"{section} must be an object" in err["message"]


def test_csv_columns_keep_per_cell_format(tmp_path):
    floats = [0.1, -0.0, 1e-320, 2.0 ** 60, float("inf"), float("nan"), 1 / 3]
    labels = ["a", "0 1", "x", "", "y", "z", "w"]
    _write_csv(tmp_path / "t.csv", ["i", "f", "s"],
               [np.arange(7), np.array(floats), labels])
    want = ["i,f,s"] + [f"{i},{format(v, '.17g')},{s}"
                        for i, (v, s) in enumerate(zip(floats, labels))]
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"


def test_chain_x_stays_optional():
    validate_config({"checks": [{"check": "chain", "weight": "w"}]})


@pytest.mark.parametrize("compact_set, message", [
    ({"points": [[0.0, 0.0]], "box": [[-3.0, 3.0], [-2.0, 2.0]]}, "cube"),
    ({"points": [[0.0, 0.0], [0.0, 0.0]]}, "distinct"),
    ({"points": [[0.0, 0.0], [4.0, 0.0]], "box": [[-3.0, 3.0]] * 2}, "inside"),
])
def test_bad_compact_set_is_config_error(tmp_path, compact_set, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"compact_set": compact_set}))
    assert run("cubes", str(path), str(tmp_path / "out")) == 2
    err = load_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config" and message in err["message"]


def test_boxless_set_of_unequal_extents_gets_a_cube(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"compact_set": {"points": [[0, 0], [1, 2]]},
                                "decomposition": {"depth_cap": 3}}))
    assert run("cubes", str(path), str(tmp_path / "out")) == 0
    assert load_report(tmp_path / "out")["cube_stats"]["n_cubes"] > 0


def test_report_is_strict_json_with_spelled_infinity(tmp_path):
    # the harmonic sequence has a divergent reciprocal tail
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sequences": [
        {"name": "H", "generator": "quotient_power", "params": {"p": 1.0}}]}))
    assert run("seq", str(path), str(tmp_path / "out")) == 0
    text = (tmp_path / "out" / "report.json").read_text()

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rep = json.loads(text, parse_constant=refuse)
    assert rep["certificates"][0]["witnesses"]["nonqa_tail_estimate"] == "inf"


def test_cli_import_leaves_scipy_optimize_out():
    # the conjugates need no scipy.optimize, whose import adds about a
    # third to the import time of ultrajet.cli
    code = "import sys, ultrajet.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "False"


def test_extend_in_three_dimensions(tmp_path):
    cfg = _jet_config([[0.0, 0.0, 0.0]],
                      {"kind": "tensor", "axes": [SIN, EXP, SIN]})
    cfg["compact_set"]["box"] = [[-1.0, 1.0]] * 3
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("extend", str(path), str(tmp_path / "out")) == 0
    with open(tmp_path / "out" / "field_samples.csv") as fh:
        header = next(fh)
        n_lines = 1 + sum(1 for _ in fh)
    assert header == "x_0,x_1,x_2,f\n"
    assert n_lines <= 160_001


# -- check pipelines ----------------------------------------------------------------

def test_power_strong_config_passes(tmp_path):
    status = run("check", str(CONFIGS / "power_strong.json"),
                 str(tmp_path / "out"))
    assert status == 0
    rep = load_report(tmp_path / "out")
    assert all(v["holds"] for v in rep["verdicts"])
    echo = rep["config_echo"]
    assert echo["schema_version"] == 1
    assert echo["extension"]["L_guard"] == 64.0


def test_log_power_selfheir_fails_with_witness(tmp_path):
    status = run("check", str(CONFIGS / "log_power_selfheir.json"),
                 str(tmp_path / "out"))
    assert status == 1
    rep = load_report(tmp_path / "out")
    v = rep["verdicts"][0]
    assert not v["holds"]
    assert "t" in v["counterexample"]


def test_reports_byte_identical_across_runs(tmp_path):
    for name in ("a", "b"):
        assert run("check", str(CONFIGS / "power_strong.json"),
                   str(tmp_path / name)) == 0
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb
    for name in ("va", "vb"):
        assert run("verify", str(CONFIGS / "sin_gevrey2_all.json"),
                   str(tmp_path / name)) == 0
    for file in ("report.json", "residuals.csv"):
        assert (tmp_path / "va" / file).read_bytes() == (tmp_path / "vb" / file).read_bytes()


def test_seed_override_recorded(tmp_path):
    assert run("check", str(CONFIGS / "power_strong.json"),
               str(tmp_path / "out"), seed=17) == 0
    rep = load_report(tmp_path / "out")
    assert rep["config_echo"]["seed"] == 17


# -- full pipeline ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def all_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("all-out")
    status = run("all", str(CONFIGS / "sin_gevrey2_all.json"), str(out))
    return status, out


def test_all_pipeline_exits_zero(all_run):
    status, out = all_run
    rep = load_report(out)
    assert rep["errors"] == []
    assert status == 0
    assert all(v["holds"] for v in rep["verdicts"])


def test_all_pipeline_residual_csv_monotone(all_run):
    _, out = all_run
    lines = (Path(out) / "residuals.csv").read_text().strip().split("\n")
    assert lines[0] == "alpha,d,residual,capped"
    rows = [ln.split(",") for ln in lines[1:]]
    by_alpha = {}
    for a, d, rres, capped in rows:
        by_alpha.setdefault(a, []).append((float(d), float(rres)))
    for a, pairs in by_alpha.items():
        pairs.sort(reverse=True)
        vals = [v for _, v in pairs]
        drops = sum(1 for x, y in zip(vals, vals[1:]) if y <= x * 1.1)
        assert drops >= len(vals) - 2, (a, vals)


def test_all_pipeline_artifacts_exist(all_run):
    _, out = all_run
    for name in ("report.json", "seq_S.csv", "fn_omega.csv",
                 "matrix_omega.csv", "cubes.csv", "pou_bounds.csv",
                 "field_samples.csv", "residuals.csv"):
        assert (Path(out) / name).exists(), name
    rep = load_report(out)
    kinds = {c["kind"] for c in rep["certificates"]}
    assert {"sequence", "weight", "matrix", "chain", "extension",
            "verification"} <= kinds


def test_all_pipeline_csv_floats_roundtrip(all_run):
    _, out = all_run
    lines = (Path(out) / "seq_S.csv").read_text().strip().split("\n")
    k, logm_col = lines[5].split(",")[0], lines[5].split(",")[1]
    # 17 significant digits: the printed decimal recovers the stored double
    assert format(float(logm_col), ".17g") == logm_col
    import math
    assert math.isclose(float(logm_col), 2.0 * math.lgamma(float(k) + 1.0),
                        rel_tol=1e-14)


def test_strict_escalates_warnings(tmp_path):
    status = run("verify", str(CONFIGS / "sin_gevrey2_all.json"),
                 str(tmp_path / "out"), strict=True)
    rep = load_report(tmp_path / "out")
    if rep["warnings"]:
        assert status == 1
    else:
        assert status == 0


def test_extend_with_cutoff_config(tmp_path):
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["extension"]["cutoff_radius"] = 0.25
    cfg["decomposition"]["depth_cap"] = 10
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(cfg))
    assert run("extend", str(path), str(tmp_path / "out")) == 0
    lines = (tmp_path / "out" / "field_samples.csv").read_text().strip().split("\n")
    rows = [(float(a), float(b)) for a, b in (ln.split(",") for ln in lines[1:])]
    far = [v for x, v in rows if abs(abs(x) - 1.0) > 0.6]
    assert far and all(v == 0.0 for v in far)


def test_verify_in_chain_mode_config(tmp_path):
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["extension"]["schedule"] = "omega"   # chain mode over omega's matrix
    cfg["extension"]["orders"] = [0, 1]
    cfg["extension"]["approach_scales"] = [0.125, 0.03125, 0.0078125]
    cfg["extension"]["grid_points"] = 100
    cfg["decomposition"]["depth_cap"] = 11
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cfg))
    assert run("verify", str(path), str(tmp_path / "out")) == 0
    rep = load_report(tmp_path / "out")
    ver = next(c for c in rep["certificates"] if c["kind"] == "verification")
    assert ver["mode"] == "matrix"
    assert ver["fit"] is not None


def test_main_entry_point(tmp_path):
    status = main(["check", "--config", str(CONFIGS / "power_strong.json"),
                   "--out", str(tmp_path / "out"), "--seed", "3"])
    assert status == 0
