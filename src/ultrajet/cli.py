"""Command-line driver: config parsing, pipelines, report and CSV emission.

One JSON config drives every pipeline.  Validation is strict (unknown keys
rejected) and all defaults are materialized into the config echoed at the
top of the report, so a report always contains everything needed for an
exact rerun.  Each weight preset, sequence generator, jet kind and check
is one row of one table below, with its parameters, the entry settings it
takes and its builder, and each setting of a section is one spec with its
test and its default: a run builds exactly what validation passed.
Reports are written with a fixed key order and shortest round-trip float
serialization; reruns with the same config produce byte-identical output.

Exit codes: 0 all requested verdicts/invariants pass, 1 a verdict or
invariant failed (or --strict turned a finite-range warning into a
failure), 2 the config was rejected, by validation or by the library
while building a named weight or sequence; the report says which.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property
from json.encoder import encode_basestring_ascii as _ascii
from math import inf, isfinite
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import conditions, extend as extmod, fncore, geometry, jets, pou as poumod, seqcore
from .errors import ConfigError, UltrajetError

SCHEMA_VERSION = 1
_UNSET = object()  # the default of a spec without one
# the largest size of a set coordinate, box bound or approach scale: the
# squared distances between such values, summed over the axes, stay floats
MAX_COORDINATE = 1e150


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and isfinite(v)


class _Spec(NamedTuple):
    """What a config value must be, its test, whether its key may be left
    out, and the default that the echo then records (unset: the library
    takes its own)."""

    text: str
    ok: Callable
    optional: bool = False
    default: object = _UNSET


def _optional(spec: _Spec) -> _Spec:
    return spec._replace(optional=True)


def _default(value, spec: _Spec | None = None) -> _Spec:
    """``spec`` (any value when None) with ``value`` as its default."""
    return (spec or _ANY)._replace(optional=True, default=value)


def _real_in(lo: float, hi: float) -> _Spec:
    top = f"{hi:g}]" if isfinite(hi) else "inf)"
    return _Spec(f"a real number in ({lo:g}, {top}", lambda v: _is_real(v) and lo < v <= hi)


def _int_in(lo: int, hi: float = inf) -> _Spec:
    return _Spec(f"an integer >= {lo}" if hi == inf else f"an integer in [{lo}, {hi}]",
                 lambda v: isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi)


def _or_null(spec: _Spec) -> _Spec:
    return _Spec(f"{spec.text} or null", lambda v: v is None or spec.ok(v))


_ANY = _Spec("anything", lambda v: True)
_INT = _Spec("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_REAL = _Spec("a real number", _is_real)
_POSITIVE = _real_in(0.0, inf)
_COORDINATE = _Spec(f"a real number of size at most {MAX_COORDINATE:g}",
                    lambda v: _is_real(v) and abs(v) <= MAX_COORDINATE)
_STR = _Spec("a string", lambda v: isinstance(v, str))
_BOOL = _Spec("true or false", lambda v: isinstance(v, bool))
_LIST = _Spec("a list", lambda v: isinstance(v, list))
_OBJECT = _Spec("an object", lambda v: isinstance(v, dict))
_PARTS = _Spec("a non-empty list", lambda v: isinstance(v, list) and len(v) > 0)


class _Kind(NamedTuple):
    """One row of a kind table: the specs of the kind's parameters, its
    builder, and the entry settings besides name, kind and params that it
    takes.  A weight or sequence is built as ``build(context, name,
    **params, **settings)``; a jet kind's builder is its ``jets`` class."""

    params: dict
    build: Callable
    settings: tuple = ()


def _calls(f) -> Callable:
    """A builder that hands the params and settings to ``f`` unchanged."""
    return lambda ctx, name, **kw: f(**kw)


_WEIGHT_PRESETS = {
    "power": _Kind({"alpha": _real_in(0.0, 1.0)}, _calls(fncore.power), ("normalized",)),
    "log_power": _Kind({"b": _POSITIVE, "scale": _optional(_POSITIVE)},
                       _calls(fncore.log_power)),
    "gevrey_dual": _Kind({"s": _POSITIVE}, _calls(fncore.gevrey_dual), ("normalized",)),
    "omega_of_sequence": _Kind({"sequence": _STR}, lambda ctx, name, sequence:
                               fncore.omega_of_sequence(ctx.sequence(sequence))),
    "tabulated": _Kind({"ts": _LIST, "values": _LIST}, lambda ctx, name, **kw:
                       fncore.tabulated(**kw, label=name)),
}
# a mu_table is as long as its table and a descendant as its source, so
# only the two generated families take a K_max
_SEQ_GENERATORS = {
    "gevrey": _Kind({"s": _POSITIVE}, _calls(seqcore.gevrey), ("K_max",)),
    "quotient_power": _Kind({"p": _REAL, "scale": _optional(_POSITIVE)},
                            _calls(seqcore.quotient_power), ("K_max",)),
    "mu_table": _Kind({"mu": _LIST}, lambda ctx, name, mu:
                      seqcore.from_mu(mu, label=name)),
    "descendant_of": _Kind({"sequence": _STR}, lambda ctx, name, sequence:
                           seqcore.descendant(ctx.sequence(sequence))),
}
# the two named lists: the key that picks an entry's row, the rows, and
# the specs of the entry settings that rows may take
_ENTRIES = {
    "weights": ("preset", _WEIGHT_PRESETS, {"normalized": _optional(_BOOL)}),
    "sequences": ("generator", _SEQ_GENERATORS, {"K_max": _optional(_int_in(1))}),
}
# a jet kind's parameters left out take the defaults of its class
_JET_KINDS = {
    "sin": _Kind({"a": _optional(_REAL), "b": _optional(_REAL)}, jets.Sin),
    "exp": _Kind({"a": _optional(_REAL)}, jets.Exp),
    "runge": _Kind({"c": _optional(_REAL)}, jets.Runge),
    "poly": _Kind({"coeffs": _Spec("a list of real numbers", lambda v: isinstance(
        v, list) and all(map(_is_real, v)))}, jets.Poly),
    "product": _Kind({"factors": _PARTS}, jets.Product1D),
    "sum": _Kind({"terms": _PARTS}, jets.Sum1D),
    "tensor": _Kind({"axes": _PARTS}, jets.Tensor),
}
# check -> (function, its arguments in order as (config key, _Context
# resolver)); chain also takes an "x"
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
_CHECK_PARAMS = {name: {"check": _STR, **{key: _STR for key, _ in args}}
                 for name, (_, args) in _CHECKS.items()}
_CHECK_PARAMS["chain"]["x"] = _default(1.0, _REAL)

# the top level in echo order; a section left out is {} (every setting at
# its default) or, for the two that have settings without one, null
_TOP = {
    "schema_version": _default(SCHEMA_VERSION, _Spec(
        f"schema version {SCHEMA_VERSION}", lambda v: _INT.ok(v) and v == SCHEMA_VERSION)),
    "seed": _default(0, _int_in(0)), "K_max": _default(seqcore.DEFAULT_K_MAX, _int_in(1)),
    "x_grid": _default({}), "weights": _default([]), "sequences": _default([]),
    "compact_set": _default(None), "jet": _default(None),
    "decomposition": _default({}), "pou": _default({}), "extension": _default({}),
    "checks": _default([]), "output": _default({}),
}
# the settings of each object section
_SECTIONS = {
    # 2^1023 is the largest power of two that is a float
    "x_grid": {"min_pow": _default(-4, _INT), "max_pow": _default(6, _Spec(
        "an integer <= 1023", lambda v: _INT.ok(v) and v <= 1023))},
    "compact_set": {"points": _LIST, "box": _optional(_or_null(_Spec(
        f"a list of [lo, hi] pairs, each {_COORDINATE.text}",
        lambda v: isinstance(v, list) and all(isinstance(b, list) and len(b) == 2
                                              and all(map(_COORDINATE.ok, b)) for b in v))))},
    # P_max, left out, is A_max: the one default derived from another
    "jet": {"preset": _OBJECT, "A_max": _default(jets.DEFAULT_A_MAX, _int_in(0)),
            "rho": _default(1.0, _POSITIVE), "source_sequence": _STR,
            "P_max": _optional(_int_in(0))},
    "decomposition": {"depth_cap": _default(12, _int_in(1)),
                      "min_feature_scale": _default(None, _or_null(_POSITIVE))},
    # a bump build takes 4x longer per +2 of order_cap: 1.3 s at 12
    "pou": {"delta": _default(None, _or_null(_POSITIVE)),
            "order_cap": _default(4, _int_in(0, 12)),
            "sequence": _default(None, _or_null(_STR))},
    "extension": {
        "L_guard": _default(extmod.DEFAULT_GUARD, _Spec(
            "a real number >= 1", lambda v: _is_real(v) and v >= 1)),
        "orders": _default([0, 1, 2]),  # checked for verify (_validate_orders)
        "approach_scales": _default([2.0 ** -k for k in range(3, 9)], _Spec(
            f"a list of real numbers in (0, {MAX_COORDINATE:g}]", lambda v: isinstance(v, list)
            and all(_POSITIVE.ok(d) and _COORDINATE.ok(d) for d in v))),
        "schedule": _default("single", _STR),
        "source_sequence": _default(None, _or_null(_STR)),
        "target_sequence": _default(None, _or_null(_STR)),
        "growth_orders": _default(None, _or_null(_int_in(0))),
        "grid_points": _default(800, _int_in(1)),
        # the cutoff was removed; the key stays so that older echoes rerun
        "cutoff_radius": _default(None, _Spec("null: the cutoff was removed",
                                              lambda v: v is None)),
        "chain_x": _default(1.0, _REAL)},
    "output": {"csv": _default(True, _BOOL)},
}


def _settled(given, specs: dict, where: str) -> dict:
    """``given`` checked against its specs (an object, no unknown key, none
    missing that has to be given, every value passing its test), as a new
    object in table order with the defaults filled in."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(given) - set(specs)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = sorted(k for k, s in specs.items() if not (s.optional or k in given))
    if missing:
        raise ConfigError(f"{where}: missing {missing[0]!r}")
    for key, spec in specs.items():
        if key in given and not spec.ok(given[key]):
            raise ConfigError(f"{where}.{key} = {given[key]!r}: not {spec.text}")
    return {k: given[k] if k in given else s.default for k, s in specs.items()
            if k in given or s.default is not _UNSET}


def validate_config(raw: dict, command: str | None = None) -> dict:
    """The config settled by the tables above.  A section is an object or
    null, and a null one fails where a command needs it; the sections that
    only ``command`` reads are checked when it is given."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = _settled(raw, _TOP, "config")
    for name, specs in _SECTIONS.items():
        if cfg[name] is not None:
            cfg[name] = _settled(cfg[name], specs, name)
    grid = cfg["x_grid"]
    if grid is not None and grid["min_pow"] > grid["max_pow"]:
        raise ConfigError(f"x_grid: min_pow {grid['min_pow']} above max_pow {grid['max_pow']}")
    for key in ("weights", "sequences", "checks"):
        if not (isinstance(cfg[key], list)
                and all(isinstance(e, dict) for e in cfg[key])):
            raise ConfigError(f"{key} must be a list of objects")
    for key in _ENTRIES:
        cfg[key] = [_settled_entry(e, key) for e in cfg[key]]
    for c in cfg["checks"]:
        if not isinstance(c.get("check"), str) or c["check"] not in _CHECK_PARAMS:
            raise ConfigError(f"unknown check entry {c!r}")
    cfg["checks"] = [_settled(c, _CHECK_PARAMS[c["check"]], f"checks[{c['check']}]")
                     for c in cfg["checks"]]
    jet = cfg["jet"]
    if jet is not None:
        if "P_max" not in jet:
            jet["P_max"] = jet["A_max"]
        if jet["P_max"] > jet["A_max"]:
            raise ConfigError(f"jet.P_max {jet['P_max']}: above jet.A_max {jet['A_max']}")
        preset = _jet_preset(jet["preset"])
        n_axes = len(preset.axes) if isinstance(preset, jets.Tensor) else 1
        cs = cfg["compact_set"]
        dim = None if cs is None else _points(cs).shape[1]
        if dim is not None and n_axes != dim:
            raise ConfigError(f"jet.preset has {n_axes} axes but the "
                              f"compact_set points have dimension {dim}")
        if _run_verify in _PIPELINES.get(command, ()):
            pou = cfg["pou"]
            _validate_orders(cfg["extension"], jet["A_max"], dim,
                             None if pou is None else pou["order_cap"])
    return cfg


def _settled_entry(entry: dict, key: str) -> dict:
    """A weight or sequence entry settled: its row's params, and only the
    entry settings that the row takes."""
    kind, table, settings = _ENTRIES[key]
    entry = _settled(entry, {"name": _STR, kind: _STR, "params": _default({}, _OBJECT),
                             **settings}, f"{key}[]")
    row = table.get(entry[kind])
    if row is None:
        raise ConfigError(f"unknown {key[:-1]} {kind} {entry[kind]!r}")
    where = f"{key}[{entry['name']}]"
    for s in settings:
        if s in entry and s not in row.settings:
            raise ConfigError(f"{where}: {kind} {entry[kind]!r} takes no {s!r}")
    entry["params"] = _settled(entry["params"], row.params, f"{where}.params")
    return entry


def _jet_preset(spec, top: bool = True):
    """The ``jets`` preset that ``spec`` describes, built by its kind's row
    once the row's checks pass; a tensor is allowed only at the top."""
    if not (isinstance(spec, dict) and isinstance(spec.get("kind"), str)
            and spec["kind"] in _JET_KINDS):
        raise ConfigError(f"jet.preset {spec!r}: not an object with a known kind")
    if spec["kind"] == "tensor" and not top:
        raise ConfigError("a tensor jet preset is allowed only at the top level")
    row = _JET_KINDS[spec["kind"]]
    params = _settled({k: v for k, v in spec.items() if k != "kind"}, row.params,
                      f"jet.preset[{spec['kind']}]")
    if _PARTS in row.params.values():  # product, sum, tensor: one list of parts
        (parts,) = params.values()
        return row.build(*(_jet_preset(sub, top=False) for sub in parts))
    return row.build(**params)


def _section(cfg: dict, name: str) -> dict:
    """The config section ``name``, read where a pipeline needs it: a
    ConfigError if it is null."""
    if cfg[name] is None:
        raise ConfigError(f"{name} must be an object, not None")
    return cfg[name]


def _validate_orders(extension, A_max: int, dim: int | None, order_cap: int | None):
    """Each verified order is an int or int list of degree <= A_max, with
    one entry per coordinate of the points (an int counts as one).  The
    verified orders and ``growth_orders`` stay within pou.order_cap, the
    highest order of the partition's derivative tables.  The approach
    scales that the residual fit reads are not empty."""
    orders = extension.get("orders") if isinstance(extension, dict) else None
    if not isinstance(orders, list) or not orders:
        raise ConfigError("extension.orders must be a non-empty list")
    if not extension["approach_scales"]:
        raise ConfigError("extension.approach_scales must be a non-empty list")
    for entry in orders:
        axes = entry if isinstance(entry, list) else [entry]
        if not all(isinstance(a, int) and not isinstance(a, bool) and a >= 0
                   for a in axes):
            raise ConfigError(f"extension.orders {entry!r}: not an order")
        if sum(axes) > A_max:
            raise ConfigError(f"extension.orders {entry}: degree above jet.A_max")
        if order_cap is not None and sum(axes) > order_cap:
            raise ConfigError(f"extension.orders {entry}: degree above "
                              f"pou.order_cap {order_cap}")
        if dim is not None and len(axes) != dim:
            raise ConfigError(f"extension.orders {entry}: {len(axes)} entries "
                              f"for points of dimension {dim}")
    growth = extension["growth_orders"]
    if order_cap is not None and growth is not None and growth > order_cap:
        raise ConfigError(f"extension.growth_orders {growth}: above "
                          f"pou.order_cap {order_cap}")


def _points(compact_set: dict) -> np.ndarray:
    """The compact_set points as an (n, dim) array; a flat list is 1D."""
    try:
        pts = np.asarray(compact_set["points"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"compact_set.points: {exc}") from None
    if pts.ndim == 0 or not np.all(np.abs(pts) <= MAX_COORDINATE):  # NaN fails too
        raise ConfigError("compact_set.points must be a list of coordinates of size "
                          f"at most {MAX_COORDINATE:g}")
    return pts.reshape(-1, 1) if pts.ndim == 1 else pts


class _Context:
    """Lazy resolution of named config objects: the named weights, sequences
    and matrices by name, and the run objects of the extension chain (set,
    jet, cover, partition, field) each at its first read."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self._named = {"weights": {}, "sequences": {}}
        self._building: set = set()
        self._matrices: dict = {}

    def x_grid(self):
        g = _section(self.cfg, "x_grid")
        return tuple(2.0 ** j for j in range(g["min_pow"], g["max_pow"] + 1))

    def sequence(self, name: str) -> seqcore.WeightSequence:
        return self._entry("sequences", name)

    def weight(self, name: str) -> fncore.WeightFunction:
        return self._entry("weights", name)

    def _entry(self, key: str, name: str):
        """The weight or sequence ``name``, built once by its row from the
        entry's params and the entry settings that the row takes."""
        built, noun = self._named[key], key[:-1]
        if (key, name) in self._building:
            raise ConfigError(f"{noun} {name!r} is defined through itself")
        if name not in built:
            entry = next((e for e in self.cfg[key] if e["name"] == name), None)
            if entry is None:
                raise ConfigError(f"{noun} {name!r} not defined")
            kind, table, _ = _ENTRIES[key]
            row = table[entry[kind]]
            settings = {s: entry[s] for s in row.settings if s in entry}
            if "K_max" in row.settings:  # by default as long as the config's tables
                settings.setdefault("K_max", self.cfg["K_max"])
            self._building.add((key, name))
            try:
                built[name] = row.build(self, name, **entry["params"], **settings)
            except ValueError as exc:
                raise ConfigError(f"{noun} {name!r}: {exc}") from None
            finally:
                self._building.discard((key, name))
            built[name].label = name
        return built[name]

    def matrix(self, weight_name: str) -> fncore.WeightMatrix:
        if weight_name not in self._matrices:
            try:
                self._matrices[weight_name] = fncore.weight_matrix(
                    self.weight(weight_name), x_grid=self.x_grid(),
                    K_max=self.cfg["K_max"])
            except ValueError as exc:
                raise ConfigError(f"matrix of {weight_name!r}: {exc}") from None
        return self._matrices[weight_name]

    @cached_property
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

    @cached_property
    def jet(self) -> jets.Ultrajet:
        """The certified jet; a source sequence too short for its orders
        fails before the table is built."""
        jc = self.cfg["jet"]
        if jc is None:
            raise ConfigError("jet section required for this command")
        seq = self.sequence(jc["source_sequence"])
        jets.certify_orders(seq, jc["A_max"], jc["P_max"])
        jet = jets.jet_from_preset(_jet_preset(jc["preset"]), self.compact_set,
                                   A_max=jc["A_max"])
        cert = jets.certify(jet, seq, rho=jc["rho"], P_max=jc["P_max"])
        return jet.with_certificate(cert)

    @cached_property
    def decomposition(self) -> geometry.CubeDecomposition:
        cs = self.compact_set
        dc = _section(self.cfg, "decomposition")
        try:
            return geometry.decompose(cs.box, cs, depth_cap=dc["depth_cap"],
                                      min_feature_scale=dc["min_feature_scale"])
        except ValueError as exc:
            raise ConfigError(f"decomposition: {exc}") from None

    @cached_property
    def pou(self) -> poumod.PartitionOfUnity:
        dec = self.decomposition
        pc = _section(self.cfg, "pou")
        if pc["sequence"] is None:
            raise ConfigError("pou.sequence must name a sequence")
        return poumod.build_pou(dec, self.sequence(pc["sequence"]), delta=pc["delta"],
                                order_cap=pc["order_cap"])

    @cached_property
    def field(self) -> extmod.ExtensionField:
        pu, jet = self.pou, self.jet
        ec = _section(self.cfg, "extension")
        if ec["schedule"] == "single":
            src_name = ec["source_sequence"] or self.cfg["jet"]["source_sequence"]
            source = self.sequence(src_name)
        else:
            weight_name = ec["schedule"]
            mat = self.matrix(weight_name)
            cert = conditions.resolve_chain(mat, ec["chain_x"])
            source = (mat, cert)
        L = extmod.default_L(jet, guard=ec["L_guard"])
        try:  # a single-sequence schedule needs a sequence of moderate growth
            sched = extmod.schedule(pu.dec, source, L, A_max=jet.A_max)
        except ValueError as exc:
            raise ConfigError(f"extension: {exc}") from None
        return extmod.extend(jet, pu, sched)


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


def _encode(v, parts: list, pad: str = "\n") -> None:
    """Append to ``parts`` the text of ``json.dumps(v, indent=2, allow_nan=False)``
    at the indentation ``pad``, with each non-finite float spelled as the
    string "inf", "-inf" or "nan", so the report is strict JSON."""
    if isinstance(v, float):
        parts.append(float.__repr__(v) if isfinite(v) else f'"{float.__repr__(v)}"')
    elif isinstance(v, str):
        parts.append(_ascii(v))
    elif v is None or v is True or v is False:
        parts.append("null" if v is None else "true" if v else "false")
    elif isinstance(v, int):
        parts.append(int.__repr__(v))
    elif isinstance(v, dict):
        inner = pad + "  "
        for i, (k, x) in enumerate(v.items()):
            if not isinstance(k, (str, int, float, type(None))):
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {type(k).__name__}")
            key = k if isinstance(k, str) else json.dumps(k, allow_nan=False)  # as json spells it
            parts.append(f'{"," if i else "{"}{inner}{_ascii(key)}: ')
            _encode(x, parts, inner)
        parts.append(pad + "}" if v else "{}")
    elif isinstance(v, (list, tuple)):
        inner = pad + "  "
        for i, x in enumerate(v):
            parts.append(("," if i else "[") + inner)
            _encode(x, parts, inner)
        parts.append(pad + "]" if v else "[]")
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _write_report(report: dict, out: Path) -> None:
    parts: list[str] = []
    _encode(report, parts)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text("".join(parts) + "\n", newline="\n")


# -- pipelines ----------------------------------------------------------------------

def _run_seq(ctx: _Context, report: dict, out: Path) -> int:
    csv = _section(ctx.cfg, "output")["csv"]
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
    csv = _section(ctx.cfg, "output")["csv"]
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
    csv = _section(ctx.cfg, "output")["csv"]
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
            "rows_log_convex": bool(seqcore._log_convex(mat.stack("logM")).all())})
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
                cert = check(*args, entry["x"])
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


def _run_cubes(ctx: _Context, report: dict, out: Path) -> int:
    csv = _section(ctx.cfg, "output")["csv"]
    dec = ctx.decomposition
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


def _run_pou(ctx: _Context, report: dict, out: Path) -> int:
    dec, pu = ctx.decomposition, ctx.pou
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
    if _section(ctx.cfg, "output")["csv"]:
        orders = pu.order_cap + 1
        _write_csv(out / "pou_bounds.csv", ["cube", "order", "bound"],
                   [np.repeat(np.arange(dec.n_cubes), orders),
                    np.tile(np.arange(orders), dec.n_cubes),
                    [pu.canonical.bound(j) / (s / 2.0) ** j
                     for s in dec.sides.tolist() for j in range(orders)]])
    return 0 if dev < 1e-10 else 1


def _schedule_entries(fld, report: dict, **between) -> dict:
    """The certificate entries of the field's schedule: L, mode, ``between``,
    then whether a degree was capped, which also warns."""
    if cap := bool(np.any(fld.sched.capped)):
        report["warnings"].append("degree schedule capped at the jet order")
    return {"L": fld.sched.L, "mode": fld.sched.mode, **between, "degree_cap_hit": cap}


def _run_extend(ctx: _Context, report: dict, out: Path) -> int:
    fld = ctx.field
    report["certificates"].append({"kind": "extension", **_schedule_entries(
        fld, report, jet_certificate=fld.jet.certificate.to_dict())})
    if _section(ctx.cfg, "output")["csv"]:
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
    fld = ctx.field
    ec = _section(ctx.cfg, "extension")
    target = ctx.sequence(ec["target_sequence"]
                          or ctx.cfg["jet"]["source_sequence"])
    rep = extmod.verify(fld, target, orders=ec["orders"],
                        approach_scales=ec["approach_scales"],
                        growth_orders=ec["growth_orders"],
                        grid_points=ec["grid_points"])
    table = rep.pop("residuals")  # the rest, fit to taylor_bounds, is the certificate
    report["residual_tables"].append(table)
    report["certificates"].append({"kind": "verification", **rep, **_schedule_entries(fld, report)})
    if _section(ctx.cfg, "output")["csv"]:
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
