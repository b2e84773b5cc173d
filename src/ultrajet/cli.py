"""Command-line driver: config parsing, pipelines, report and CSV emission.

One JSON config drives every pipeline.  Validation is strict (unknown keys
rejected) and all defaults are materialized into the config echoed at the
top of the report, so a report always contains everything needed for an
exact rerun.  Reports are written with a fixed key order and shortest
round-trip float serialization; reruns with the same config produce
byte-identical output.

Exit codes: 0 all requested verdicts/invariants pass, 1 a verdict or
invariant failed (or --strict turned a finite-range warning into a
failure), 2 the config was rejected, by validation or by the library
while building a named weight or sequence; the report says which.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import inf, isfinite
from pathlib import Path

import numpy as np

from . import conditions, extend as extmod, fncore, geometry, jets, pou as poumod, seqcore
from .errors import ConfigError, UltrajetError

SCHEMA_VERSION = 1

# parameters by preset: a real one is given by its range (lo, hi], any
# other by its type; every parameter is required except the optional ones
_WEIGHT_PRESETS = {
    "power": {"alpha": (0.0, 1.0)},
    "log_power": {"b": (0.0, inf), "scale": (0.0, inf)},
    "gevrey_dual": {"s": (0.0, inf)},
    "omega_of_sequence": {"sequence": str},
    "tabulated": {"ts": list, "values": list},
}
_SEQ_GENERATORS = {
    "gevrey": {"s": (0.0, inf)},
    "quotient_power": {"p": (-inf, inf), "scale": (0.0, inf)},
    "mu_table": {"mu": list},
    "descendant_of": {"sequence": str},
}
_OPTIONAL_PARAMS = {"scale"}
_JET_PRESET_KEYS = {
    "sin": {"a", "b"}, "exp": {"a"}, "poly": {"coeffs"}, "runge": {"c"},
    "product": {"factors"}, "sum": {"terms"}, "tensor": {"axes"},
}
# check -> (function, its arguments in order as (config key, _Context
# resolver)); chain also takes an optional "x", default 1.0
_CHECKS = {
    "heir": (conditions.check_heir, (("omega", "weight"), ("sigma", "weight"))),
    "strong": (conditions.check_strong, (("weight", "weight"),)),
    "good": (conditions.check_good, (("weight", "matrix"),)),
    "mixed_tail": (conditions.check_mixed_tail, (("mu", "sequence"), ("nu", "sequence"))),
    "almost_increasing": (conditions.check_almost_increasing, (("sequence", "sequence"),)),
    "doubling_absorption": (conditions.check_doubling_absorption, (("weight", "weight"),)),
    "quotient_root_domination": (conditions.check_quotient_root_domination,
                                 (("weight", "matrix"),)),
    "concavity_equivalence": (conditions.check_concavity_equivalence,
                              (("weight", "weight"), ("weight", "matrix"))),
    "strong_matrix": (conditions.check_strong_matrix, (("weight", "matrix"),)),
    "descendant": (conditions.check_descendant, (("sequence", "sequence"),)),
    "chain": (conditions.resolve_chain, (("weight", "matrix"),)),
}
_CHECK_KEYS = {name: {key for key, _ in args} for name, (_, args) in _CHECKS.items()}
_CHECK_KEYS["chain"].add("x")

_DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "K_max": 128,
    "x_grid": {"min_pow": -4, "max_pow": 6},
    "weights": [],
    "sequences": [],
    "compact_set": None,
    "jet": None,
    "decomposition": {"depth_cap": 12, "min_feature_scale": None},
    "pou": {"delta": None, "order_cap": 4, "sequence": None},
    "extension": {
        "L_guard": 64.0,
        "orders": [0, 1, 2],
        "approach_scales": [2.0 ** -k for k in range(3, 9)],
        "schedule": "single",
        "source_sequence": None,
        "target_sequence": None,
        "growth_orders": None,
        "grid_points": 800,
        "cutoff_radius": None,
        "chain_x": 1.0,
    },
    "checks": [],
    "output": {"csv": True},
}


def _reject_unknown(d: dict, allowed, where: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _merged(defaults: dict, given: dict, where: str) -> dict:
    _reject_unknown(given, defaults, where)
    out = {}
    for k, dv in defaults.items():
        if isinstance(dv, dict) and isinstance(given.get(k), dict):
            out[k] = _merged(dv, given[k], f"{where}.{k}")
        elif k in given:
            out[k] = given[k]
        else:
            out[k] = dv
    return out


def validate_config(raw: dict, command: str | None = None) -> dict:
    """Strict validation with default materialization; the sections that
    only ``command`` reads are checked when it is given."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = _merged(_DEFAULTS, raw, "config")
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg['schema_version']}")
    for key in ("weights", "sequences", "checks"):
        if not (isinstance(cfg[key], list)
                and all(isinstance(e, dict) for e in cfg[key])):
            raise ConfigError(f"{key} must be a list of objects")
    for w in cfg["weights"]:
        _reject_unknown(w, {"name", "preset", "params", "normalized"},
                        "weights[]")
        if "name" not in w or "preset" not in w:
            raise ConfigError("each weight needs a name and a preset")
        if w["preset"] not in _WEIGHT_PRESETS:
            raise ConfigError(f"unknown weight preset {w['preset']!r}")
        _validate_params(w.get("params", {}), _WEIGHT_PRESETS[w["preset"]],
                         f"weights[{w['name']}].params")
    for s in cfg["sequences"]:
        _reject_unknown(s, {"name", "generator", "params", "K_max"},
                        "sequences[]")
        if "name" not in s or "generator" not in s:
            raise ConfigError("each sequence needs a name and a generator")
        if s["generator"] not in _SEQ_GENERATORS:
            raise ConfigError(f"unknown sequence generator {s['generator']!r}")
        _validate_params(s.get("params", {}), _SEQ_GENERATORS[s["generator"]],
                         f"sequences[{s['name']}].params")
    if cfg["compact_set"] is not None:
        _reject_unknown(cfg["compact_set"], {"points", "box"}, "compact_set")
        if "points" not in cfg["compact_set"]:
            raise ConfigError("compact_set needs points")
    if cfg["jet"] is not None:
        _reject_unknown(cfg["jet"], {"preset", "A_max", "rho",
                                     "source_sequence", "P_max"}, "jet")
        preset = cfg["jet"].get("preset")
        _validate_jet_preset(preset)
        if cfg["compact_set"] is not None:
            n_axes = len(preset.get("axes", [])) if preset["kind"] == "tensor" else 1
            dim = _points(cfg["compact_set"]).shape[1]
            if n_axes != dim:
                raise ConfigError(f"jet.preset has {n_axes} axes but the "
                                  f"compact_set points have dimension {dim}")
        cfg["jet"].setdefault("A_max", 12)
        cfg["jet"].setdefault("rho", 1.0)
        cfg["jet"].setdefault("P_max", cfg["jet"]["A_max"])
        if _run_verify in _PIPELINES.get(command, ()):
            dim = (None if cfg["compact_set"] is None
                   else _points(cfg["compact_set"]).shape[1])
            _validate_orders(cfg["extension"], cfg["jet"]["A_max"], dim)
    for c in cfg["checks"]:
        if not isinstance(c.get("check"), str) or c["check"] not in _CHECK_KEYS:
            raise ConfigError(f"unknown check entry {c!r}")
        where = f"checks[{c['check']}]"
        _reject_unknown(c, _CHECK_KEYS[c["check"]] | {"check"}, where)
        for key, _ in _CHECKS[c["check"]][1]:
            if key not in c:
                raise ConfigError(f"{where}: missing {key!r}")
        if "x" in c and not _is_real(c["x"]):
            raise ConfigError(f"{where}.x = {c['x']!r}: not a real number")
    ext = cfg["extension"]
    if isinstance(ext, dict) and not _is_real(ext["chain_x"]):
        raise ConfigError(f"extension.chain_x = {ext['chain_x']!r}: not a real number")
    return cfg


def _validate_params(params, spec: dict, where: str):
    """The parameters of one weight or sequence entry against its spec."""
    if not isinstance(params, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(params, spec, where)
    for key, kind in spec.items():
        if key not in params:
            if key in _OPTIONAL_PARAMS:
                continue
            raise ConfigError(f"{where}: missing {key!r}")
        v = params[key]
        if isinstance(kind, tuple):
            lo, hi = kind
            if not (_is_real(v) and lo < v <= hi):
                top = f"{hi:g}]" if isfinite(hi) else "inf)"
                raise ConfigError(f"{where}.{key} = {v!r}: not a real number "
                                  f"in ({lo:g}, {top}")
        elif not isinstance(v, kind):
            raise ConfigError(f"{where}.{key}: not a {kind.__name__}")


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and isfinite(v)


def _validate_orders(extension, A_max: int, dim: int | None):
    """Each verified order is an int or int list of degree <= A_max, with
    one entry per coordinate of the points (an int counts as one)."""
    orders = extension.get("orders") if isinstance(extension, dict) else None
    if not isinstance(orders, list):
        raise ConfigError("extension.orders must be a list")
    for entry in orders:
        axes = entry if isinstance(entry, list) else [entry]
        if not all(isinstance(a, int) and not isinstance(a, bool) and a >= 0
                   for a in axes):
            raise ConfigError(f"extension.orders {entry!r}: not an order")
        if sum(axes) > A_max:
            raise ConfigError(f"extension.orders {entry}: degree above jet.A_max")
        if dim is not None and len(axes) != dim:
            raise ConfigError(f"extension.orders {entry}: {len(axes)} entries "
                              f"for points of dimension {dim}")


def _validate_jet_preset(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("jet.preset must be an object with a kind")
    kind = spec["kind"]
    if kind not in _JET_PRESET_KEYS:
        raise ConfigError(f"unknown jet preset kind {kind!r}")
    _reject_unknown(spec, _JET_PRESET_KEYS[kind] | {"kind"}, f"jet.preset[{kind}]")
    for key in ("factors", "terms", "axes"):
        for sub in spec.get(key, []):
            _validate_jet_preset(sub)
            if sub["kind"] == "tensor":
                raise ConfigError("a tensor jet preset is allowed only at "
                                  "the top level")


def _points(compact_set: dict) -> np.ndarray:
    """The compact_set points as an (n, dim) array; a flat list is 1D."""
    try:
        pts = np.asarray(compact_set["points"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"compact_set.points: {exc}") from None
    return pts.reshape(-1, 1) if pts.ndim == 1 else pts


class _Context:
    """Lazy resolution of named config objects."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self._weights: dict = {}
        self._seqs: dict = {}
        self._matrices: dict = {}
        self._dec = None
        self._pou = None
        self._field = None

    def x_grid(self):
        g = self.cfg["x_grid"]
        return tuple(2.0 ** j for j in range(g["min_pow"], g["max_pow"] + 1))

    def sequence(self, name: str) -> seqcore.WeightSequence:
        if name not in self._seqs:
            entry = next((s for s in self.cfg["sequences"] if s["name"] == name),
                         None)
            if entry is None:
                raise ConfigError(f"sequence {name!r} not defined")
            params = entry.get("params", {})
            k_max = entry.get("K_max", self.cfg["K_max"])
            gen = entry["generator"]
            try:
                if gen == "gevrey":
                    seq = seqcore.gevrey(params["s"], K_max=k_max)
                elif gen == "quotient_power":
                    seq = seqcore.quotient_power(params["p"], K_max=k_max,
                                                 scale=params.get("scale", 1.0))
                elif gen == "mu_table":
                    seq = seqcore.from_mu(params["mu"], label=name)
                else:
                    seq = seqcore.descendant(self.sequence(params["sequence"]))
            except ValueError as exc:
                raise ConfigError(f"sequence {name!r}: {exc}") from None
            seq.label = name
            self._seqs[name] = seq
        return self._seqs[name]

    def weight(self, name: str) -> fncore.WeightFunction:
        if name not in self._weights:
            entry = next((w for w in self.cfg["weights"] if w["name"] == name),
                         None)
            if entry is None:
                raise ConfigError(f"weight {name!r} not defined")
            params = entry.get("params", {})
            preset = entry["preset"]
            normalized = entry.get("normalized", True)
            try:
                if preset == "power":
                    fn = fncore.power(params["alpha"], normalized=normalized)
                elif preset == "log_power":
                    fn = fncore.log_power(params["b"], scale=params.get("scale", 1.0))
                elif preset == "gevrey_dual":
                    fn = fncore.gevrey_dual(params["s"], normalized=normalized)
                elif preset == "omega_of_sequence":
                    fn = fncore.omega_of_sequence(self.sequence(params["sequence"]))
                else:
                    fn = fncore.tabulated(params["ts"], params["values"], label=name)
            except ValueError as exc:
                raise ConfigError(f"weight {name!r}: {exc}") from None
            fn.label = name
            self._weights[name] = fn
        return self._weights[name]

    def matrix(self, weight_name: str) -> fncore.WeightMatrix:
        if weight_name not in self._matrices:
            try:
                self._matrices[weight_name] = fncore.weight_matrix(
                    self.weight(weight_name), x_grid=self.x_grid(),
                    K_max=self.cfg["K_max"])
            except ValueError as exc:
                raise ConfigError(f"matrix of {weight_name!r}: {exc}") from None
        return self._matrices[weight_name]

    def compact_set(self) -> jets.CompactSet:
        cs = self.cfg["compact_set"]
        if cs is None:
            raise ConfigError("compact_set required for this command")
        pts = _points(cs)
        try:
            if cs.get("box"):
                return jets.CompactSet(pts, tuple(tuple(b) for b in cs["box"]))
            return jets.CompactSet.from_points(pts)
        except ValueError as exc:
            raise ConfigError(f"compact_set: {exc}") from None

    def jet(self) -> jets.Ultrajet:
        jc = self.cfg["jet"]
        if jc is None:
            raise ConfigError("jet section required for this command")
        preset = jets.make_preset(jc["preset"])
        jet = jets.jet_from_preset(preset, self.compact_set(), A_max=jc["A_max"])
        seq = self.sequence(jc["source_sequence"])
        cert = jets.certify(jet, seq, rho=jc["rho"], P_max=jc["P_max"])
        return jet.with_certificate(cert)


# -- report plumbing --------------------------------------------------------------

def _new_report(cfg: dict, command: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "config_echo": cfg, "verdicts": [], "certificates": [],
            "residual_tables": [], "cube_stats": {}, "warnings": [],
            "errors": []}


def _write_csv(path: Path, header: list[str], columns) -> None:
    """A CSV from equal-length columns, one format per row: a float column
    as "%.17g" (17 significant digits, which read back the same double; the
    bytes of ``format(v, ".17g")``), any other column by ``str``."""
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns)
    lines = [",".join(header)]
    lines += [fmt % row for row in zip(*(c.tolist() for c in columns))]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _finite(v):
    """v with each non-finite float spelled as the string "inf", "-inf" or
    "nan", so the report is strict JSON."""
    if isinstance(v, float):
        return v if isfinite(v) else str(v)
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    return [_finite(x) for x in v] if isinstance(v, (list, tuple)) else v


def _write_report(report: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", newline="\n") as fh:
        json.dump(_finite(report), fh, indent=2, allow_nan=False)
        fh.write("\n")


# -- pipelines ----------------------------------------------------------------------

def _run_seq(ctx: _Context, report: dict, out: Path) -> int:
    csv = ctx.cfg["output"]["csv"]
    for entry in ctx.cfg["sequences"]:
        seq = ctx.sequence(entry["name"])
        report["certificates"].append({
            "kind": "sequence", "name": entry["name"], "K_max": seq.K_max,
            "flags": dict(seq.flags), "witnesses": dict(seq.witnesses)})
        if csv:
            _write_csv(out / f"seq_{entry['name']}.csv",
                       ["k", "logM", "logm", "logmu"],
                       [np.arange(seq.K_max + 1), seq.logM, seq.log_m, seq.log_mu])
    return 0


def _run_fn(ctx: _Context, report: dict, out: Path) -> int:
    csv = ctx.cfg["output"]["csv"]
    for entry in ctx.cfg["weights"]:
        fn = ctx.weight(entry["name"])
        report["certificates"].append({
            "kind": "weight", "name": entry["name"],
            "normalized": fn.normalized, "flags": dict(fn.flags),
            "witnesses": dict(fn.witnesses)})
        if csv:
            ts = np.geomspace(1e-2, min(1e8, 0.04 * fn.t_valid_max), 200)
            cols = ["t", "omega"]
            data = [ts, fn(ts)]
            if fn.flags["non_quasianalytic"]:
                cols.append("kappa")
                data.append(fncore.kappa(fn, ts))
            if fn.flags["o_of_t"]:
                cols.append("omega_star")
                data.append(fncore.omega_conjugate_grid(fn, ts))
            _write_csv(out / f"fn_{entry['name']}.csv", cols, data)
    return 0


def _run_matrix(ctx: _Context, report: dict, out: Path) -> int:
    csv = ctx.cfg["output"]["csv"]
    for entry in ctx.cfg["weights"]:
        fn = ctx.weight(entry["name"])
        if not fn.normalized:
            report["warnings"].append(
                f"matrix skipped for unnormalized weight {entry['name']}")
            continue
        mat = ctx.matrix(entry["name"])
        report["certificates"].append({
            "kind": "matrix", "weight": entry["name"],
            "x_grid": list(mat.x_grid), "K_max": mat.K_max,
            "rows_log_convex": all(r.flags["log_convex"]
                                   for r in mat.rows.values())})
        if csv:
            header = ["k"] + [f"logW_x{x:g}" for x in mat.x_grid]
            _write_csv(out / f"matrix_{entry['name']}.csv", header,
                       [np.arange(mat.K_max + 1)]
                       + [mat.row(x).logM[: mat.K_max + 1] for x in mat.x_grid])
    return 0


def _run_check(ctx: _Context, report: dict, out: Path) -> int:
    status = 0
    for entry in ctx.cfg["checks"]:
        kind = entry["check"]
        check, params = _CHECKS[kind]
        try:
            args = [getattr(ctx, resolve)(entry[key]) for key, resolve in params]
            if kind == "chain":
                cert = check(*args, entry.get("x", 1.0))
                refined = conditions.verify_chain(*args, cert, refine=10)
                report["certificates"].append(
                    {"kind": "chain", "weight": entry["weight"],
                     "certificate": cert.to_dict(), "refined_grid_holds": bool(refined)})
                v = []
                if not refined:
                    status = 1
                    report["errors"].append({"kind": "chain_refinement",
                                             "weight": entry["weight"]})
            else:
                v = check(*args)
                v = list(v) if isinstance(v, tuple) else [v]
                if kind == "concavity_equivalence" and v[0].holds != v[1].holds:
                    report["warnings"].append(
                        f"concavity equivalence forms disagree on {entry['weight']}")
        except ConfigError:
            raise
        except UltrajetError as exc:
            report["errors"].append({"kind": type(exc).__name__,
                                     "check": kind, "message": str(exc)})
            status = 1
            continue
        for verdict in v:
            report["verdicts"].append(verdict.to_dict())
            if not verdict.holds:
                status = 1
    return status


def _decomposition(ctx: _Context):
    if ctx._dec is None:
        cs = ctx.compact_set()
        dc = ctx.cfg["decomposition"]
        try:
            ctx._dec = geometry.decompose(cs.box, cs, depth_cap=dc["depth_cap"],
                                          min_feature_scale=dc["min_feature_scale"])
        except ValueError as exc:
            raise ConfigError(f"decomposition: {exc}") from None
    return ctx._dec


def _run_cubes(ctx: _Context, report: dict, out: Path) -> int:
    csv = ctx.cfg["output"]["csv"]
    dec = _decomposition(ctx)
    stats = geometry.cube_diagnostics(dec, samples_per_cube=32,
                                      seed=ctx.cfg["seed"])
    stats.update({"n_cubes": dec.n_cubes, "collar_radius": dec.collar_radius,
                  "depth_cap": dec.depth_cap})
    report["cube_stats"] = {k: (float(v) if isinstance(v, (int, float)) else v)
                            for k, v in stats.items()}
    if csv:
        hdr = (["i"] + [f"center_{d}" for d in range(dec.dim)]
               + ["side", "d_center", "d_cube"])
        _write_csv(out / "cubes.csv", hdr,
                   [np.arange(dec.n_cubes), *dec.centers.T, dec.sides,
                    dec.center_dist, dec.cube_dist])
    return 0


def _build_pou(ctx: _Context, dec):
    if ctx._pou is None:
        pc = ctx.cfg["pou"]
        if pc["sequence"] is None:
            raise ConfigError("pou.sequence must name a sequence")
        seq = ctx.sequence(pc["sequence"])
        ctx._pou = poumod.build_pou(dec, seq, delta=pc["delta"],
                                    order_cap=pc["order_cap"])
    return ctx._pou


def _run_pou(ctx: _Context, report: dict, out: Path) -> int:
    dec = _decomposition(ctx)
    pu = _build_pou(ctx, dec)
    rng = np.random.default_rng(ctx.cfg["seed"])
    lo = np.array([b[0] for b in dec.box])
    hi = np.array([b[1] for b in dec.box])
    pts = rng.uniform(lo, hi, size=(20_000, dec.dim))
    mask = pu.covered(pts)
    dev = float(np.max(np.abs(pu.sum_phi(pts[mask]) - 1.0))) if np.any(mask) else 0.0
    report["cube_stats"]["pou_sum_deviation"] = dev
    report["cube_stats"]["pou_delta"] = pu.delta
    report["cube_stats"]["pou_halvings"] = pu.halvings
    if pu.halvings:
        report["warnings"].append(f"pou delta halved {pu.halvings} times")
    if ctx.cfg["output"]["csv"]:
        orders = pu.order_cap + 1
        _write_csv(out / "pou_bounds.csv", ["cube", "order", "bound"],
                   [np.repeat(np.arange(dec.n_cubes), orders),
                    np.tile(np.arange(orders), dec.n_cubes),
                    [bumps[0].bound(j) for bumps in pu.bumps for j in range(orders)]])
    return 0 if dev < 1e-10 else 1


def _build_field(ctx: _Context):
    if ctx._field is not None:
        return ctx._field
    dec = _decomposition(ctx)
    pu = _build_pou(ctx, dec)
    jet = ctx.jet()
    ec = ctx.cfg["extension"]
    if ec["schedule"] == "single":
        src_name = ec["source_sequence"] or ctx.cfg["jet"]["source_sequence"]
        source = ctx.sequence(src_name)
    else:
        weight_name = ec["schedule"]
        mat = ctx.matrix(weight_name)
        cert = conditions.resolve_chain(mat, ec["chain_x"])
        source = (mat, cert)
    L = extmod.default_L(jet, guard=ec["L_guard"])
    sched = extmod.schedule(dec, source, L, A_max=jet.A_max)
    ctx._field = extmod.extend(jet, pu, sched,
                               cutoff_radius=ec["cutoff_radius"])
    return ctx._field


def _run_extend(ctx: _Context, report: dict, out: Path) -> int:
    fld = _build_field(ctx)
    report["certificates"].append({
        "kind": "extension", "L": fld.L, "mode": fld.sched.mode,
        "jet_certificate": fld.jet.certificate.to_dict(),
        "degree_cap_hit": bool(np.any(fld.sched.capped))})
    if bool(np.any(fld.sched.capped)):
        report["warnings"].append("degree schedule capped at the jet order")
    if ctx.cfg["output"]["csv"]:
        jet = fld.jet
        n_points, n_multi = jet.values.shape
        _write_csv(out / "jet_table.csv", ["point", "alpha", "value"],
                   [np.repeat(np.arange(n_points), n_multi),
                    [" ".join(map(str, m)) for m in jet.multi] * n_points,
                    jet.values.ravel()])
        dec = fld.pou.dec
        grid = geometry.box_grid(dec.box, 400)
        hdr = [f"x_{d}" for d in range(dec.dim)] + ["f"]
        _write_csv(out / "field_samples.csv", hdr, [*grid.T, fld.value(grid)])
    return 0


def _run_verify(ctx: _Context, report: dict, out: Path) -> int:
    fld = _build_field(ctx)
    ec = ctx.cfg["extension"]
    target = ctx.sequence(ec["target_sequence"]
                          or ctx.cfg["jet"]["source_sequence"])
    rep = extmod.verify(fld, target, orders=ec["orders"],
                        approach_scales=ec["approach_scales"],
                        growth_orders=ec["growth_orders"],
                        grid_points=ec["grid_points"])
    report["residual_tables"].append(rep["residuals"])
    report["certificates"].append({
        "kind": "verification", "fit": rep["fit"], "growth": rep["growth"],
        "taylor_bounds": rep["taylor_bounds"], "L": rep["L"],
        "mode": rep["mode"], "degree_cap_hit": rep["degree_cap_hit"]})
    if rep["degree_cap_hit"]:
        report["warnings"].append("degree schedule capped at the jet order")
    if ctx.cfg["output"]["csv"]:
        table = rep["residuals"]
        _write_csv(out / "residuals.csv", ["alpha", "d", "residual", "capped"],
                   [[",".join(map(str, r["alpha"])) for r in table],
                    [r["d"] for r in table], [r["residual"] for r in table],
                    [int(r["capped"]) for r in table]])
    if rep["fit"] is None:
        report["errors"].append({"kind": "residual_fit",
                                 "message": "no admissible fit under the caps"})
        return 1
    return 0


_PIPELINES = {
    "seq": (_run_seq,),
    "fn": (_run_fn,),
    "matrix": (_run_matrix,),
    "check": (_run_check,),
    "cubes": (_run_cubes,),
    "pou": (_run_cubes, _run_pou),
    "extend": (_run_cubes, _run_extend),
    "verify": (_run_verify,),
    "all": (_run_seq, _run_fn, _run_matrix, _run_check, _run_cubes,
            _run_pou, _run_extend, _run_verify),
}


def run(command: str, config_path: str, out_dir: str,
        seed: int | None = None, strict: bool = False) -> int:
    """Execute one pipeline; returns the process exit status."""
    out = Path(out_dir)
    try:
        raw = json.loads(Path(config_path).read_text())
        cfg = validate_config(raw, command)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        report = {"schema_version": SCHEMA_VERSION, "command": command,
                  "errors": [{"kind": "config", "message": str(exc)}]}
        _write_report(report, out)
        return 2
    if seed is not None:
        cfg["seed"] = seed
    out.mkdir(parents=True, exist_ok=True)
    ctx = _Context(cfg)
    report = _new_report(cfg, command)
    status = 0
    for stage in _PIPELINES[command]:
        try:
            status = max(status, stage(ctx, report, out))
        except ConfigError as exc:  # raised while resolving a config object
            report["errors"].append({"kind": "config", "message": str(exc)})
            status = 2
            break
        except UltrajetError as exc:
            report["errors"].append({"kind": type(exc).__name__,
                                     "message": str(exc)})
            status = max(status, 1)
    report["warnings"] = list(dict.fromkeys(report["warnings"]))
    if strict and report["warnings"]:
        status = max(status, 1)
        report["errors"].append({"kind": "strict",
                                 "message": "warnings escalated by --strict"})
    _write_report(report, out)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ultrajet",
        description="Weight calculus, cube covers, certified partitions, "
                    "and degree-scheduled jet extension.")
    parser.add_argument("command", choices=sorted(_PIPELINES))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="ultrajet-out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the sampling seed")
    parser.add_argument("--strict", action="store_true",
                        help="treat finite-range warnings as failures")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out, seed=args.seed,
               strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
