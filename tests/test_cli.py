import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ultrajet import cli, extend as extend_module, jets, pou, seqcore
from ultrajet.cli import _jet_preset, _write_csv, main, run, validate_config
from ultrajet.errors import ConfigError
from ultrajet.jets import CompactSet, jet_from_preset

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
SRC = ROOT / "src"


def load_report(out):
    return json.loads((Path(out) / "report.json").read_text())


def load_strict_report(out):
    """The report, refusing the NaN and Infinity constants that strict JSON lacks."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads((Path(out) / "report.json").read_text(), parse_constant=refuse)


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


@pytest.mark.parametrize("mu", [5e-324, 1e-7], ids=["subnormal", "below_grid_start"])
def test_growth_profile_too_short_to_certify_is_config_error(tmp_path, mu):
    # t_valid_max = mu: 5e-324 made the grid length int(-inf), an
    # OverflowError; 1e-7 a grid falling from GRID_LO = 1e-6 to 4.5e-8
    cfg = {"sequences": [{"name": "S", "generator": "mu_table",
                          "params": {"mu": [1.0] + [mu] * 4}}],
           "weights": [{"name": "w", "preset": "omega_of_sequence",
                        "params": {"sequence": "S"}}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("fn", str(path), str(tmp_path / "out")) == 2
    assert [e["kind"] for e in load_report(tmp_path / "out")["errors"]] == ["config"]


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

    monkeypatch.setattr(pou, "CanonicalBump", no_bump)
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


def test_pou_bounds_csv_is_each_cube_bump_bound(tmp_path):
    cfg = validate_config(json.loads((CONFIGS / "sin_gevrey2_all.json").read_text()), "pou")
    assert run("pou", str(CONFIGS / "sin_gevrey2_all.json"), str(tmp_path / "out")) == 0
    pu = cli._Context(cfg).pou
    rows = (tmp_path / "out" / "pou_bounds.csv").read_text().splitlines()
    assert rows[0] == "cube,order,bound"
    assert rows[1:] == [f"{i},{j},{pu.bumps[i][0].bound(j):.17g}"
                        for i in range(pu.dec.n_cubes) for j in range(pu.order_cap + 1)]


@pytest.mark.parametrize("command", ["extend", "verify", "all"])
def test_run_builds_one_compact_set(tmp_path, monkeypatch, command):
    # the cover and the jet share the run's one set
    built, post_init = [], CompactSet.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CompactSet, "__post_init__", counted)
    assert run(command, str(CONFIGS / "sin_gevrey2_all.json"), str(tmp_path / "out")) == 0
    assert len(built) == 1


def test_jet_order_past_the_sequence_fails_before_the_jet_table(tmp_path, monkeypatch):
    # the order check needs no table: an A_max far past the source
    # sequence's K_max (64) is refused without tabulating the preset
    from test_config_fuzz import _SMALL

    def no_table(*args, **kwargs):
        raise AssertionError("the jet table was built")

    monkeypatch.setattr(jets, "jet_from_preset", no_table)
    cfg = json.loads(json.dumps(_SMALL))
    cfg["jet"]["A_max"] = 800
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("extend", str(path), str(tmp_path / "out")) == 1
    assert load_report(tmp_path / "out")["errors"] == [
        {"kind": "OrderCapExceeded", "message": "sequence table too short for order 801"}]


@pytest.mark.parametrize("command", ["pou", "verify"])
def test_tiny_pou_delta_is_stage_overflow(tmp_path, command):
    # radii of 1e-300 give 1/r^j = inf: no finite bump bound, so no certificate
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["pou"]["delta"] = 1e-300
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, str(path), str(tmp_path / "out")) == 1
    assert [e["kind"] for e in load_report(tmp_path / "out")["errors"]] == ["StageOverflow"]


@pytest.mark.parametrize("s", [500.0, 700.0])
def test_underflowing_bump_radii_are_stage_overflow(tmp_path, s):
    # the radii delta / mu_k of gevrey(s) underflow to 0 for s >= about 500:
    # no bump to build, so no certificate, and no ValueError traceback
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["sequences"].append({"name": "G", "generator": "gevrey", "params": {"s": s}})
    cfg["pou"]["sequence"] = "G"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("extend", str(path), str(tmp_path / "out")) == 1
    assert [e["kind"] for e in load_strict_report(tmp_path / "out")["errors"]] == [
        "StageOverflow"]


@pytest.mark.parametrize("jet", [
    {"preset": {"kind": "sin", "a": 1e200}}, {"preset": {"kind": "sin", "a": 1e300}},
    {"preset": {"kind": "exp", "a": 1e200}}, {"preset": {"kind": "exp", "a": 1e300}},
    {"rho": 1e-300}, {"rho": 5e-324},
], ids=["sin-1e200", "sin-1e300", "exp-1e200", "exp-1e300", "rho-1e-300", "rho-5e-324"])
@pytest.mark.parametrize("command", ["extend", "verify"])
def test_jet_out_of_float_range_is_bound_overflow(tmp_path, jet, command):
    # a^j overflows in the derivative table, rho^k underflows to 0 in the
    # certificate's scales, and |F'| / (rho M_1) overflows at rho = 5e-324:
    # each gives an infinite constant, with no warning
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["jet"].update(jet)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(command, str(path), str(tmp_path / "out")) == 1
    assert [e["kind"] for e in load_strict_report(tmp_path / "out")["errors"]] == [
        "BoundOverflow"]


def test_log_power_tail_past_float_range_is_grid_exhausted(tmp_path):
    # (log t)^120 overflows at t = e^600, the cap the conjugate tests first:
    # omega there is about e^-168, so the argmax still rises at the cap
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"weights": [
        {"name": "w", "preset": "log_power", "params": {"b": 120.0}}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("matrix", str(path), str(tmp_path / "out")) == 1
    assert [e["kind"] for e in load_strict_report(tmp_path / "out")["errors"]] == [
        "GridExhausted"]


def test_overflowing_derivative_bounds_are_bound_overflow(tmp_path):
    # a jet of size 1e306 has derivatives of inf from order 1 on: the field
    # evaluation stops at them, with no RuntimeWarning on the way
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["jet"]["preset"] = {"kind": "poly", "coeffs": [1e306]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("verify", str(path), str(tmp_path / "out")) == 1
    assert [e["kind"] for e in load_report(tmp_path / "out")["errors"]] == ["BoundOverflow"]


@pytest.mark.parametrize("command", ["extend", "verify"])
def test_overflowing_jet_certificate_is_bound_overflow(tmp_path, command):
    # a slope of 1e308 overflows the first-order remainders: the certificate
    # constant is inf, and certify stops at it with no warning on the way
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["jet"]["preset"] = {"kind": "poly", "coeffs": [0.0, 1e308]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, str(path), str(tmp_path / "out")) == 1
    assert [e["kind"] for e in load_report(tmp_path / "out")["errors"]] == ["BoundOverflow"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["extend", "verify"])
def test_runge_jet_at_its_pole_is_bound_overflow(tmp_path, command):
    # 1 - x^2 is 0 at the set points +-1: the jet table divides by zero there,
    # with no warning, and certify stops at the inf value
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["jet"]["preset"] = {"kind": "runge", "c": -1.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(command, str(path), str(tmp_path / "out")) == 1
    assert [e["kind"] for e in load_report(tmp_path / "out")["errors"]] == ["BoundOverflow"]


@pytest.mark.parametrize("command", ["extend", "verify"])
def test_far_apart_points_are_bound_overflow(tmp_path, command):
    # the remainder scale |b - a|^q of two points 2e30 apart leaves the float
    # range: certify stops with BoundOverflow, not an OverflowError traceback
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["compact_set"] = {"points": [[-1e30], [1e30]], "box": [[-3e30, 3e30]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, str(path), str(tmp_path / "out")) == 1
    assert [e["kind"] for e in load_report(tmp_path / "out")["errors"]] == ["BoundOverflow"]


@pytest.mark.parametrize("command", ["extend", "verify", "all"])
def test_points_2e_300_apart_extend_with_a_finite_certificate(tmp_path, command):
    # |b - a|^2 of two points 2e-300 apart underflows to 0; the norm scales
    # b - a first, so the remainder scales stay finite and nothing overflows
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["compact_set"] = {"points": [[-1e-300], [1e-300]], "box": [[-1.0, 1.0]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(command, str(path), str(tmp_path / "out")) == 0
    rep = load_report(tmp_path / "out")
    assert rep["errors"] == []
    # verify reports no extension certificate, only what it measured
    assert all((c["jet_certificate"]["C"], c["jet_certificate"]["binding"])
               == (1.0, ["value", 0, [1]])
               for c in rep["certificates"] if c["kind"] == "extension")


@pytest.mark.parametrize("command", ["extend", "verify"])
def test_rho_powers_out_of_range_are_bound_overflow(tmp_path, command):
    # rho^k with rho = 1e30 leaves the float range by k = 11 <= A_max = 12:
    # certify stops with BoundOverflow, not an OverflowError traceback
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["jet"]["rho"] = 1e30
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, str(path), str(tmp_path / "out")) == 1
    assert [e["kind"] for e in load_report(tmp_path / "out")["errors"]] == ["BoundOverflow"]


def test_log_power_out_of_float_range_is_config_error(tmp_path):
    # log_power(200) overflowed in s1 ** b: a traceback and no report.json
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"weights": [
        {"name": "w", "preset": "log_power", "params": {"b": 200.0}}]}))
    assert run("fn", str(path), str(tmp_path / "out")) == 2
    err = load_strict_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config" and "not a positive float" in err["message"]


def test_non_finite_jet_values_stop_certify_before_a_certificate(tmp_path):
    # exp(1e300 x) at x = -2, -1: e^(a x) underflows to 0 and a^2 overflows,
    # so a second derivative is NaN, a ratio that never binds; certify wrote
    # C = 0 with "ok": true before the field stopped on the same values
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["jet"]["preset"] = {"kind": "exp", "a": 1e300}
    cfg["compact_set"] = {"points": [[-2.0], [-1.0]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("extend", str(path), str(tmp_path / "out")) == 1
    rep = load_strict_report(tmp_path / "out")
    assert [e["kind"] for e in rep["errors"]] == ["BoundOverflow"]
    assert rep["errors"][0]["message"] == "jet value nan at point 0, alpha (2,)"
    assert not any("jet_certificate" in c for c in rep["certificates"])


@pytest.mark.parametrize("command, entry, checks, status", [
    ("seq", {"generator": "quotient_power", "params": {"p": 1e300}}, [], 2),
    ("seq", {"generator": "gevrey", "params": {"s": 1e300}}, [], 0),
    ("check", {"generator": "gevrey", "params": {"s": 700.0}},
     [{"check": "mixed_tail", "mu": "G", "nu": "G"}], 1),
], ids=["quotient_power-1e300", "gevrey-1e300", "mixed_tail-gevrey-700"])
def test_sequences_past_float_range_end_typed(tmp_path, command, entry, checks, status):
    # k^p overflows in quotient_power (a config error), the last-quarter
    # growth of M_k^(1/k) overflows to a growth of inf, and mu_k = k^701
    # leaves the float range in mixed_tail (BoundOverflow): no RuntimeWarning
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sequences": [{"name": "G", **entry}], "checks": checks}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(command, str(path), str(tmp_path / "out")) == status
    rep = load_strict_report(tmp_path / "out")
    if status == 2:
        assert "quotients must be positive and finite" in rep["errors"][0]["message"]
    elif status == 1:
        assert [e["kind"] for e in rep["errors"]] == ["BoundOverflow"]
        assert rep["errors"][0]["message"] == "G: mu_3 overflows"
    else:
        assert rep["certificates"][0]["witnesses"]["weight_sequence_growth"] == "inf"


def test_gevrey_index_past_float_range_is_config_error(tmp_path):
    # (1 + s) log 128! overflows for s above about 3.6e305: gevrey refuses the
    # index, as quotient_power refuses a quotient of inf
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sequences": [
        {"name": "G", "generator": "gevrey", "params": {"s": 1e307}}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("seq", str(path), str(tmp_path / "out")) == 2
    assert load_strict_report(tmp_path / "out")["errors"] == [{"kind": "config", "message":
        "sequence 'G': gevrey index 1e+307: log M_128 is not a finite float"}]


@pytest.mark.parametrize("compact_set", [
    {"points": [[-1e300], [1e300]]}, {"points": [[-1.2e154], [1.2e154]]},
    {"points": [[0.0]], "box": [[-1e300, 1e300]]},
], ids=["points-1e300", "points-1.2e154", "box-1e300"])
def test_set_coordinates_whose_distances_overflow_are_config_errors(tmp_path, compact_set):
    # the cube-to-set distances are squared: at +-1.2e154 each coordinate's
    # square is a float, but not the square of their distance
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["compact_set"] = compact_set
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("cubes", str(path), str(tmp_path / "out")) == 2
    err = load_strict_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config" and err["message"].startswith("compact_set.")
    assert "of size at most 1e+150" in err["message"]


def test_schedule_sequence_without_moderate_growth_is_config_error(tmp_path):
    # (k!)^101 is past the moderate-growth cap: the single-sequence schedule
    # refuses it, and that ValueError ended ``extend`` in a traceback
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["sequences"].append({"name": "G", "generator": "gevrey", "params": {"s": 100.0}})
    cfg["jet"]["source_sequence"] = "G"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("extend", str(path), str(tmp_path / "out")) == 2
    assert load_strict_report(tmp_path / "out")["errors"] == [{"kind": "config", "message":
        "extension: G: moderate growth flag required for single-sequence scheduling"}]


def test_approach_scales_whose_squares_overflow_are_config_errors(tmp_path):
    # the approach points at distance 1e300 from the set were squared too
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["extension"]["approach_scales"] = [0.125, 1e300]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("verify", str(path), str(tmp_path / "out")) == 2
    assert load_strict_report(tmp_path / "out")["errors"] == [{"kind": "config", "message":
        "extension.approach_scales = [0.125, 1e+300]: not a list of real numbers in (0, 1e+150]"}]


def test_tail_sums_run_only_when_a_check_reads_them(tmp_path, monkeypatch):
    # good and almost_increasing read no tail certificate, so no tail sum
    # runs; strong_matrix reads all 11 rows' tails in one call
    calls = []
    tail_sum = seqcore._model_tail_sum
    monkeypatch.setattr(seqcore, "_model_tail_sum",
                        lambda *args: calls.append(len(args[0])) or tail_sum(*args))
    cfg = {"weights": [{"name": "w", "preset": "power", "params": {"alpha": 0.5}}],
           "sequences": [{"name": "S", "generator": "gevrey", "params": {"s": 1.0}}],
           "checks": [{"check": "good", "weight": "w"},
                      {"check": "almost_increasing", "sequence": "S"}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("check", str(path), str(tmp_path / "good")) == 0
    assert calls == []
    cfg["checks"] = [{"check": "strong_matrix", "weight": "w"}]
    path.write_text(json.dumps(cfg))
    run("check", str(path), str(tmp_path / "strong"))
    assert calls == [11]


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
    assert math.isclose(jet.values[0, jet.rank((1,))], 1.0, rel_tol=1e-12)
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


def test_readme_library_quick_start_runs():
    block = (ROOT / "README.md").read_text().split("## Library quick start")[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md: Library quick start", "exec"), {})


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
    # a partition sequence whose quotients fall: the bump radii delta / mu_k grow
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["sequences"].append({"name": "W", "generator": "mu_table", "params": {
        "mu": [1.0, 4.0, 2.0] + [k ** 2.5 for k in range(3, 129)]}})
    cfg["pou"]["sequence"] = "W"
    path.write_text(json.dumps(cfg))
    for command in ("pou", "extend", "verify"):
        assert run(command, str(path), str(tmp_path / command)) == 2
        err = load_report(tmp_path / command)["errors"][-1]
        assert err["kind"] == "config" and err["message"].startswith("pou: ")


@pytest.mark.parametrize("ts, values", [([1.0], [0.0]), ([], []), ([1.0, 2.0], [0.0])],
                         ids=["one_point", "no_point", "unequal_lengths"])
def test_tabulated_weight_of_fewer_than_two_points_is_config_error(tmp_path, ts, values):
    # the final slope read the last two entries: IndexError, a traceback and no report
    cfg = {"weights": [{"name": "w", "preset": "tabulated",
                        "params": {"ts": ts, "values": values}}],
           "checks": [{"check": "strong", "weight": "w"}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for command in ("fn", "matrix", "check", "all"):
        assert run(command, str(path), str(tmp_path / command)) == 2
        err = load_report(tmp_path / command)["errors"][-1]
        assert err["kind"] == "config" and "'w'" in err["message"]


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


def test_doubling_absorption_fails_on_a_step_past_every_constant(tmp_path):
    # omega jumps by 1e15 between t = 1 and 10: 2 omega(t) - omega(Ht) stays
    # 1e15 for every tried H, 909.5 times the largest constant tried
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "K_max": 64,
        "weights": [{"name": "w", "preset": "tabulated",
                     "params": {"ts": [1, 10, 20], "values": [0, 1e15, 1e15]}}],
        "checks": [{"check": "doubling_absorption", "weight": "w"}]}))
    assert run("check", str(path), str(tmp_path / "out")) == 1
    (verdict,) = load_report(tmp_path / "out")["verdicts"]
    assert verdict["holds"] is False
    counter = verdict["counterexample"]
    assert (counter["needed_C"], counter["mode"]) == (1e15, "cap")
    assert math.isclose(counter["t"], 10.40, rel_tol=1e-3)
    assert math.isclose(counter["margin"], 909.5, rel_tol=1e-4)


def test_check_warns_when_the_concavity_equivalence_forms_disagree(tmp_path):
    # the scaling form fails on this table where the matrix form holds
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "K_max": 16,
        "weights": [{"name": "w", "preset": "tabulated", "params": {
            "ts": [1.0, 2.740619865197784, 15.27001531841382, 1769.134523541308,
                   12647.055368487689, 21845.053093359184, 43620.92406903621],
            "values": [0.0, 0.38067311430136336, 7.654732619270954, 38.06905066814099,
                       842.186167248475, 1154.611645823686, 3080.7309386171446]}}],
        "checks": [{"check": "concavity_equivalence", "weight": "w"}]}))
    assert run("check", str(path), str(tmp_path / "out")) == 1
    rep = load_report(tmp_path / "out")
    assert rep["warnings"] == ["concavity equivalence forms disagree on w"]
    assert [(v["name"], v["holds"]) for v in rep["verdicts"]] == [
        ("concave_scaling[w]", False), ("concave_matrix_form", True)]


def test_matrix_skips_an_unnormalized_weight_with_a_warning(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "weights": [{"name": "w", "preset": "power", "params": {"alpha": 0.5},
                     "normalized": False}]}))
    assert run("matrix", str(path), str(tmp_path / "out")) == 0
    rep = load_report(tmp_path / "out")
    assert rep["warnings"] == ["matrix skipped for unnormalized weight w"]
    assert rep["certificates"] == [] and not (tmp_path / "out" / "matrix_w.csv").exists()


def test_pou_warns_when_its_delta_is_halved(tmp_path):
    # delta 1.0 leaves no room for the bump radii until it is halved 5 times
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["pou"]["delta"] = 1.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("pou", str(path), str(tmp_path / "out")) == 0
    rep = load_report(tmp_path / "out")
    assert rep["warnings"] == ["pou delta halved 5 times"]
    assert rep["cube_stats"]["pou_halvings"] == 5


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


@pytest.mark.parametrize("x_grid, message", [
    ({"min_pow": 3, "max_pow": 1}, "x_grid: min_pow 3 above max_pow 1"),
    ({"max_pow": 1100}, "x_grid.max_pow = 1100: not an integer <= 1023"),
])
def test_bad_x_grid_is_config_error(tmp_path, x_grid, message):
    # an empty grid, and a power of two past the float range
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"weights": _W, "x_grid": x_grid,
                                "checks": [{"check": "good", "weight": "w"}]}))
    for command in ("matrix", "check"):
        assert run(command, str(path), str(tmp_path / command)) == 2
        err = load_report(tmp_path / command)["errors"][0]
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
    _write_csv(tmp_path / "empty.csv", ["i", "f", "s"], [np.arange(0), np.array([]), []])
    assert (tmp_path / "empty.csv").read_text() == "i,f,s\n"  # a table with no rows


def test_residuals_csv_has_one_cell_per_column_in_two_dimensions(tmp_path):
    """A multi-index is one cell, its entries joined by spaces as in jet_table.csv."""
    cfg = _jet_config([[-0.5, 0.25], [0.75, -0.5]], {"kind": "tensor", "axes": [SIN, EXP]})
    cfg["extension"] = {"orders": [[0, 0], [1, 0]], "approach_scales": [0.125, 0.0625, 0.03125]}
    path = tmp_path / "planar.json"
    path.write_text(json.dumps(cfg))
    run("verify", str(path), str(tmp_path / "out"))
    with open(tmp_path / "out" / "residuals.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["alpha", "d", "residual", "capped"] and rows
    assert all(len(row) == len(header) for row in rows)
    assert {tuple(map(int, row[0].split(" "))) for row in rows} == {(0, 0), (1, 0)}


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
    rep = load_strict_report(tmp_path / "out")
    assert rep["certificates"][0]["witnesses"]["nonqa_tail_estimate"] == "inf"


def test_cli_import_leaves_scipy_out():
    # log k! comes from seqcore's own table, and importing scipy.special for
    # it took more than half the import time of ultrajet.cli
    for module in ("ultrajet", "ultrajet.cli"):
        code = (f"import sys, {module}; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.stdout.strip() == "[]", module


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


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_reports_are_canonical_indent_2_json(tmp_path, config):
    # every report.json is the stdlib's indent-2 text of its own content,
    # whichever encoder writes it
    for command in sorted(cli._PIPELINES):
        run(command, str(CONFIGS / config), str(tmp_path / command))
        raw = (tmp_path / command / "report.json").read_bytes()
        assert raw == (json.dumps(json.loads(raw), indent=2, allow_nan=False) + "\n").encode()


def oracle_finite(v):
    """v with each non-finite float spelled as the string "inf", "-inf" or
    "nan": the copy that json.dump once wrote as the report."""
    if isinstance(v, float):
        return v if math.isfinite(v) else str(v)
    if isinstance(v, dict):
        return {k: oracle_finite(x) for k, x in v.items()}
    return [oracle_finite(x) for x in v] if isinstance(v, (list, tuple)) else v


def encoded(v) -> str:
    parts = []
    cli._encode(v, parts)
    return "".join(parts)


REPORT_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan]))
class _Label(str):
    """A str subclass: a container spells it as its base type, as json does."""


REPORT_LEAVES = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é€😀"]),
                          st.booleans(), st.none(), st.integers(), REPORT_FLOATS,
                          st.integers(-2**200, 2**200), REPORT_FLOATS.map(np.float64),
                          st.text(max_size=3).map(_Label))
REPORT_KEYS = st.one_of(st.text(), st.integers(-2**70, 2**70), st.booleans(), st.none(),
                        st.floats(allow_nan=False, allow_infinity=False))
REPORTS = st.recursive(REPORT_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(REPORT_KEYS, inner, max_size=4)), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(REPORTS)
@example([(), [[], {}], ({},), [[[]]], {"": {"": []}}])  # nested empty containers
@example({1: [math.inf, -math.inf, math.nan], None: (-0.0, 5e-324), True: {2.5: ()},
          False: [(math.nan,), {-7: math.inf}], -2**70: _Label("k")})
@example((np.float64(math.inf), [np.float64(-0.0), _Label('"')], {"a": (None, True)}))
def test_report_encoder_equals_json_dumps(report):
    assert encoded(report) == json.dumps(oracle_finite(report), indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [
    np.int64(3), np.array([1.0]), [1.0, np.bool_(True)], {"a": {(1, 2): 0}},
    {math.nan: 1}, {math.inf: 1}, {"a": object()}, {1j: 0},
], ids=["int64", "array", "bool_", "tuple-key", "nan-key", "inf-key", "object", "complex-key"])
def test_report_encoder_refuses_what_json_refuses(bad):
    with pytest.raises((TypeError, ValueError)) as refused:
        json.dumps(oracle_finite(bad), indent=2, allow_nan=False)
    with pytest.raises(refused.type):
        encoded(bad)


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
    # the cutoff was removed: its key takes null alone, and a radius is a
    # config error that names the key
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["extension"]["cutoff_radius"] = None
    assert validate_config(cfg, "extend")["extension"]["cutoff_radius"] is None
    cfg["extension"]["cutoff_radius"] = 0.25
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(cfg))
    assert run("extend", str(path), str(tmp_path / "out")) == 2
    err = load_report(tmp_path / "out")["errors"][0]
    assert err["kind"] == "config"
    assert "extension.cutoff_radius" in err["message"]


def _with_sequence_T(**extension):
    """The bundled 1D config with a second sequence T (Gevrey, s = 3) and
    the given extension settings."""
    cfg = json.loads((CONFIGS / "sin_gevrey2_all.json").read_text())
    cfg["sequences"].append({"name": "T", "generator": "gevrey", "params": {"s": 3.0}})
    cfg["extension"].update(extension)
    return cfg


def test_verify_measures_growth_in_the_target_sequence(tmp_path):
    cfg = _with_sequence_T(target_sequence="T")
    path = tmp_path / "target.json"
    path.write_text(json.dumps(cfg))
    assert run("verify", str(path), str(tmp_path / "out")) == 0
    ver = next(c for c in load_report(tmp_path / "out")["certificates"]
               if c["kind"] == "verification")
    assert ver["growth"]["row"] == "T"
    ctx = cli._Context(validate_config(cfg, "verify"))
    ec = cfg["extension"]
    want = extend_module.verify(ctx.field, ctx.sequence("T"), orders=ec["orders"],
                                approach_scales=ec["approach_scales"],
                                grid_points=ec["grid_points"])
    assert ver["growth"] == want["growth"]


def test_extension_schedules_on_the_source_sequence(tmp_path):
    cfg = _with_sequence_T(source_sequence="T")
    path = tmp_path / "source.json"
    path.write_text(json.dumps(cfg))
    assert run("verify", str(path), str(tmp_path / "out")) == 0
    ctx = cli._Context(validate_config(cfg, "verify"))
    assert ctx.field.sched.s_prime.source.label == "T"


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


def test_extend_and_verify_report_the_schedule_of_the_field(tmp_path):
    # the bundled config caps degrees at its jet order A_max 12
    path = CONFIGS / "sin_gevrey2_all.json"
    sched = cli._Context(validate_config(json.loads(path.read_text()), "verify")).field.sched
    assert np.any(sched.capped)
    keys = {"extension": ["kind", "L", "mode", "jet_certificate", "degree_cap_hit"],
            "verification": ["kind", "fit", "growth", "taylor_bounds", "L", "mode",
                             "degree_cap_hit"]}
    for command, kinds in (("extend", ["extension"]), ("verify", ["verification"]),
                           ("all", ["extension", "verification"])):
        assert run(command, str(path), str(tmp_path / command)) == 0
        rep = load_report(tmp_path / command)
        certs = [c for c in rep["certificates"] if c["kind"] in keys]
        assert [c["kind"] for c in certs] == kinds
        for c in certs:
            assert list(c) == keys[c["kind"]]
            assert (c["L"], c["mode"], c["degree_cap_hit"]) == (sched.L, sched.mode, True)
        assert rep["warnings"].count("degree schedule capped at the jet order") == 1


def test_main_entry_point(tmp_path):
    status = main(["check", "--config", str(CONFIGS / "power_strong.json"),
                   "--out", str(tmp_path / "out"), "--seed", "3"])
    assert status == 0


def test_main_reports_an_out_that_names_a_file_without_a_traceback(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    status = main(["check", "--config", str(CONFIGS / "power_strong.json"),
                   "--out", str(out)])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("ultrajet: ") and err.count("\n") == 1


def test_rerun_replaces_its_output_files(tmp_path):
    # a hard link to the old report keeps the old bytes: the rerun writes a
    # new file instead of truncating and rewriting the old one
    out = tmp_path / "out"
    assert run("check", str(CONFIGS / "power_strong.json"), str(out)) == 0
    old = (out / "report.json").read_bytes()
    os.link(out / "report.json", tmp_path / "old.json")
    assert run("check", str(CONFIGS / "power_strong.json"), str(out), seed=3) == 0
    assert (tmp_path / "old.json").read_bytes() == old
    assert load_report(out)["config_echo"]["seed"] == 3
