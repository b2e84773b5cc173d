"""Configs drawn from the schema with perturbed values, types and keys, or
with float values from 5e-324 to 1e307 in size: every run of every command
ends with exit status 0, 1 or 2 and a strict-JSON report, never a traceback
(nor, for the float sizes, a RuntimeWarning).  The base configs are small
(K_max 64, depth 4, few grid points), so a run takes a fraction of a
second."""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ultrajet.cli import _PIPELINES, run

_SMALL = {
    "schema_version": 1,
    "seed": 0,
    "K_max": 64,
    "x_grid": {"min_pow": -2, "max_pow": 3},
    "weights": [{"name": "omega", "preset": "power", "params": {"alpha": 0.5}},
                {"name": "lp", "preset": "log_power", "params": {"b": 2.0}}],
    "sequences": [{"name": "S", "generator": "gevrey", "params": {"s": 1.0}},
                  {"name": "Q", "generator": "quotient_power", "params": {"p": 2.0}}],
    "compact_set": {"points": [[-0.5, 0.0], [0.5, 0.25]], "box": [[-2.0, 2.0]] * 2},
    "jet": {"preset": {"kind": "tensor", "axes": [{"kind": "sin", "a": 1.0},
                                                  {"kind": "exp", "a": 0.5}]},
            "A_max": 4, "rho": 1.0, "source_sequence": "S"},
    "decomposition": {"depth_cap": 4, "min_feature_scale": None},
    "pou": {"order_cap": 2, "sequence": "S"},
    "extension": {"orders": [[0, 0], [1, 0]], "approach_scales": [0.25, 0.125],
                  "grid_points": 25, "L_guard": 64.0, "chain_x": 1.0},
    "checks": [{"check": "strong", "weight": "omega"},
               {"check": "chain", "weight": "omega", "x": 1.0},
               {"check": "almost_increasing", "sequence": "S"}],
    "output": {"csv": False},
}
_ONE_D = copy.deepcopy(_SMALL)
_ONE_D.update(compact_set={"points": [-1.0, 1.0]}, output={"csv": True},
              jet={"preset": {"kind": "sin"}, "A_max": 6, "source_sequence": "S"})
_ONE_D["extension"] = {"orders": [0, 1], "approach_scales": [0.125], "grid_points": 20}
_ONE_D["checks"] = [{"check": "good", "weight": "lp"},
                    {"check": "mixed_tail", "mu": "S", "nu": "Q"}]
# the growth profile of a quotient table with float entries, and a check of it
_PROFILE = {
    "schema_version": 1, "seed": 0, "K_max": 64, "x_grid": {"min_pow": -2, "max_pow": 3},
    "sequences": [{"name": "T", "generator": "mu_table", "params": {"mu": [1.0, 2.5, 4.0, 6.5]}}],
    "weights": [{"name": "w", "preset": "omega_of_sequence", "params": {"sequence": "T"}}],
    "checks": [{"check": "strong", "weight": "w"}],
    "output": {"csv": False},
}
# a partition sequence whose quotients fall, so that the bump radii delta / mu_k grow
_FALLING_POU = copy.deepcopy(_ONE_D)
_FALLING_POU["sequences"].append({"name": "W", "generator": "mu_table", "params": {
    "mu": [1.0, 4.0, 2.0] + [k ** 2.5 for k in range(3, 65)]}})
_FALLING_POU["pou"]["sequence"] = "W"

# a row of each table that the bases above leave out: a tabulated weight,
# mu_table and descendant_of sequences, a jet of every one-variable kind
# but sin and exp, and a degree schedule from a weight matrix
_ROWS = copy.deepcopy(_ONE_D)
_ROWS["weights"].append({"name": "tab", "preset": "tabulated",
                         "params": {"ts": [1.0, 2.0, 8.0], "values": [0.0, 0.5, 2.0]}})
_ROWS["sequences"] += [{"name": "T", "generator": "mu_table",
                        "params": {"mu": [1.0, 2.0, 3.5, 5.0, 7.0, 9.5, 12.0, 15.0]}},
                       {"name": "D", "generator": "descendant_of", "params": {"sequence": "S"}}]
_ROWS["jet"] = {"preset": {"kind": "sum", "terms": [
    {"kind": "product", "factors": [{"kind": "poly", "coeffs": [1.0, -0.5, 0.25]},
                                    {"kind": "runge", "c": 1.0}]},
    {"kind": "sin"}]}, "A_max": 6, "source_sequence": "S"}
_ROWS["extension"]["schedule"] = "omega"
_ROWS["checks"] = [{"check": "good", "weight": "tab"},
                   {"check": "descendant", "sequence": "D"},
                   {"check": "almost_increasing", "sequence": "T"}]


def _rows(edit):
    """A copy of _ROWS with ``edit`` applied."""
    cfg = copy.deepcopy(_ROWS)
    edit(cfg)
    return cfg


# what _ROWS found, each a traceback before: a table of one point (it had no
# final slope), a table entry that is no number, an empty quotient table
_ONE_POINT_TABLE = _rows(lambda c: c["weights"][2].update(params={"ts": [1.0], "values": [0.0]}))
_OBJECT_IN_TABLE = _rows(lambda c: c["weights"][2]["params"].update(ts=[{}, 2.0, 8.0]))
_EMPTY_MU = _rows(lambda c: c["sequences"][2]["params"].update(mu=[]))
# ... and each a traceback or a RuntimeWarning: the Runge powers of a far
# point, a steep table line, the descendant and the growth weights of a
# fast sequence, and the powers of M1 for a large jet
_FAR_RUNGE = _rows(lambda c: c.update(compact_set={"points": [1e23, 1.0]}))
_STEEP_TABLE = _rows(lambda c: c["weights"][2]["params"].update(values=[0.0, 0.5, 1e49]))
_FAST_GEVREY = _rows(lambda c: c["sequences"][0]["params"].update(s=1000.0))
_FASTER_WEIGHT = _rows(lambda c: c["sequences"][0]["params"].update(s=100.0))
_LARGE_JET = _rows(lambda c: c["jet"]["preset"]["terms"][0]["factors"][0].update(
    coeffs=[1e154, -0.5, 0.25]))

# replacement values: every JSON type, small numbers of each sign and no
# large ones (a large order or depth is slow, not wrong)
_VALUES = st.sampled_from([None, True, 0, 1, 2, 3, -1, 0.5, 1.5, -2.5, float("nan"),
                           float("inf"), "", "x", "S", [], [0], [[0.0, 1.0]], {},
                           {"x": 1}])


def _paths(node, prefix=()):
    """Every key path of the config (list entries by index)."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def perturbed_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from((_SMALL, _ONE_D, _ROWS))))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(cfg))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(("value",) * 5 + ("drop", "extra")))
        value = copy.deepcopy(draw(_VALUES))
        if action == "value":
            parent[path[-1]] = value
        elif action == "drop":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["unknown_key"] = value
        else:
            parent.append(value)
    return cfg


def _strict(text):
    def refuse(name):
        raise ValueError(f"non-finite constant {name} in report.json")
    return json.loads(text, parse_constant=refuse)


def _exits_cleanly_with_strict_report(cfg, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        status = run(command, str(path), str(Path(tmp) / "out"))
        assert status in (0, 1, 2)
        report = _strict((Path(tmp) / "out" / "report.json").read_text())
        assert report["command"] == command


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(perturbed_configs(), st.sampled_from(sorted(_PIPELINES)))
@example(_FALLING_POU, "pou")
@example(_ONE_POINT_TABLE, "fn")
@example(_OBJECT_IN_TABLE, "fn")
@example(_EMPTY_MU, "seq")
def test_perturbed_configs_exit_cleanly_with_strict_report(cfg, command):
    _exits_cleanly_with_strict_report(cfg, command)


@st.composite
def float_magnitude_configs(draw):
    """A base config with one or two of its float leaves set to a size
    10^e, e in [-323.3, 307] (5e-324 to 1e307), of either sign."""
    cfg = copy.deepcopy(draw(st.sampled_from((_SMALL, _ONE_D, _PROFILE, _ROWS))))
    leaves = []  # (parent, key) of every float
    for path in _paths(cfg):
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent[path[-1]], float):
            leaves.append((parent, path[-1]))
    for i in draw(st.lists(st.integers(0, len(leaves) - 1), min_size=1, max_size=2,
                           unique=True)):
        parent, key = leaves[i]
        size = max(5e-324, 10.0 ** draw(st.floats(-323.3, 307.0)))
        parent[key] = -size if draw(st.booleans()) else size
    return cfg


_TINY_QUOTIENTS = copy.deepcopy(_PROFILE)  # a growth profile valid only up to t = 5e-324
_TINY_QUOTIENTS["sequences"][0]["params"]["mu"] = [1.0] + [5e-324] * 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(float_magnitude_configs(), st.sampled_from(sorted(_PIPELINES)))
@example(_TINY_QUOTIENTS, "fn")
@example(_FAR_RUNGE, "extend")
@example(_STEEP_TABLE, "matrix")
@example(_FAST_GEVREY, "seq")
@example(_FASTER_WEIGHT, "verify")
@example(_LARGE_JET, "verify")
def test_float_magnitudes_exit_cleanly_with_strict_report(cfg, command):
    _exits_cleanly_with_strict_report(cfg, command)
