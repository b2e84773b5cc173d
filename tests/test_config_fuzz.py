"""Configs drawn from the schema with perturbed values, types and keys: every
run of every command ends with exit status 0, 1 or 2 and a strict-JSON
report, never a traceback.  The base configs are small (K_max 64, depth 4,
few grid points), so a run takes a fraction of a second."""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

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
_ONE_D["extension"] = {"orders": [0, 1], "approach_scales": [0.125], "grid_points": 20,
                       "cutoff_radius": 0.25}
_ONE_D["checks"] = [{"check": "good", "weight": "lp"},
                    {"check": "mixed_tail", "mu": "S", "nu": "Q"}]

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
    cfg = copy.deepcopy(draw(st.sampled_from((_SMALL, _ONE_D))))
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


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(perturbed_configs(), st.sampled_from(sorted(_PIPELINES)))
def test_perturbed_configs_exit_cleanly_with_strict_report(cfg, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        status = run(command, str(path), str(Path(tmp) / "out"))
        assert status in (0, 1, 2)
        report = _strict((Path(tmp) / "out" / "report.json").read_text())
        assert report["command"] == command
