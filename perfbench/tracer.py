"""Outside-in tracer: wraps each layer's public functions and methods.

The wraps are installed from the benchmark's own files; the package is not
edited.  A call from one layer into another opens a span (name, start, end,
parent span, job id).  A call inside one layer only bumps counters, so hot
intra-layer helpers cost a counter increment and not a span; the functions
whose inclusive time is a metric (``TIMED``) always open a span.  Spans are
kept in memory and written out when the run ends.

A layer's self time is the time of its spans minus the time covered by
their child spans, so the self times of all layers add up to the time spent
inside the root spans (one ``cli.run`` per command).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from math import comb
from pathlib import Path

import numpy as np

LAYERS = ("cli", "seqcore", "fncore", "conditions", "jets", "geometry", "pou",
          "extend")

# functions whose inclusive time is reported: name -> metric
TIMED = {
    "cli.validate_config": "cli.validate_s",
    "fncore.weight_matrix": "fncore.weight_matrix_s",
    "fncore.kappa": "fncore.kappa_s",
    "conditions.resolve_chain": "conditions.resolve_chain_s",
    "jets.certify": "jets.certify_s",
    "geometry.decompose": "geometry.decompose_s",
    "geometry.cube_diagnostics": "geometry.cube_diagnostics_s",
    "pou.build_pou": "pou.build_s",
    "extend.verify": "extend.verify_s",
    "extend.derivative_bounds": "extend.derivative_bounds_s",
}

# call counts reported as metrics: metric -> wrapped function
CALLS = {
    "fncore.young_conjugate_calls": "fncore.young_conjugate",
    "fncore.omega_conjugate_calls": "fncore.omega_conjugate",
    "fncore.omega_evals": "fncore.WeightFunction.__call__",
    "conditions.mixed_tail_calls": "conditions.check_mixed_tail",
    "jets.taylor_grid_calls": "jets.taylor_grid",
    "pou.phi_derivs_calls": "pou.PartitionOfUnity.phi_derivs",
    "pou.bump_eval_calls": "pou.CanonicalBump.eval",
    "pou.phi_bound_calls": "pou.PartitionOfUnity.phi_bound",
    "extend.derivative_grid_calls": "extend.ExtensionField.derivative_grid",
    "seqcore.sequences_built": "seqcore.WeightSequence.__init__",
}

# per-layer metric -> unit, in report order
METRICS = {
    "cli.self_s": "s/job", "cli.validate_s": "s/job",
    "cli.bytes_written": "bytes/job",
    "seqcore.self_s": "s/job", "seqcore.calls": "count/job",
    "seqcore.sequences_built": "count/job",
    "fncore.self_s": "s/job", "fncore.weight_matrix_s": "s/job",
    "fncore.young_conjugate_calls": "count/job",
    "fncore.omega_conjugate_calls": "count/job", "fncore.kappa_s": "s/job",
    "fncore.omega_evals": "count/job", "fncore.omega_points": "count/job",
    "conditions.self_s": "s/job", "conditions.checks": "count/job",
    "conditions.resolve_chain_s": "s/job",
    "conditions.mixed_tail_calls": "count/job",
    "jets.self_s": "s/job", "jets.certify_s": "s/job",
    "jets.certify_terms": "count/job", "jets.taylor_grid_calls": "count/job",
    "jets.taylor_grid_points": "count/job",
    "geometry.self_s": "s/job", "geometry.decompose_s": "s/job",
    "geometry.cube_diagnostics_s": "s/job", "geometry.cubes": "count/job",
    "geometry.max_overlap": "count/job",
    "pou.self_s": "s/job", "pou.build_s": "s/job",
    "pou.phi_derivs_calls": "count/job", "pou.phi_derivs_points": "count/job",
    "pou.bump_eval_calls": "count/job", "pou.bump_eval_points": "count/job",
    "pou.phi_bound_calls": "count/job",
    "extend.self_s": "s/job", "extend.verify_s": "s/job",
    "extend.derivative_grid_calls": "count/job",
    "extend.derivative_grid_points": "count/job",
    "extend.derivative_bounds_s": "s/job", "extend.cube_hit_ratio": "ratio",
    **{f"{layer}.src_lines": "lines" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.self_sum_ratio": "ratio",
}


class Tracer:
    """Spans and counters for one run; ``install`` wraps, ``uninstall``
    restores and proves that every wrapped name is the original again."""

    def __init__(self):
        self.job = None
        self.spans: list = []       # (name, start, end, parent, job)
        self._child: list = []      # time covered by each span's children
        self._stack: list = []      # (span id, layer) of the open spans
        self.calls: dict = {}
        self.counts: dict = {"fncore.omega_points": 0,
                             "jets.certify_terms": 0,
                             "jets.taylor_grid_points": 0,
                             "geometry.cubes": 0, "geometry.max_overlap": 0,
                             "pou.phi_derivs_points": 0,
                             "pou.bump_eval_points": 0,
                             "extend.derivative_grid_points": 0,
                             "cli.bytes_written": 0}
        self._hits = [0, 0]         # (call, cube) pairs hit, pairs scanned
        self._deferred: list = []
        self._patches: list = []    # (owner, attribute, original)

    # -- counters recorded at the wrapped boundaries ----------------------

    def _hooks(self) -> dict:
        c = self.counts

        def omega(args, kwargs, result):
            c["fncore.omega_points"] += int(np.size(args[1]))

        def certify(args, kwargs, result):
            jet = args[0]
            p_max = kwargs.get("P_max", args[3] if len(args) > 3 else None)
            p_max = jet.A_max if p_max is None else p_max
            n, dim = len(jet.cset.points), jet.cset.dim
            # computed, not counted: n(n-1) * sum_{p <= P_max} |{alpha: |alpha| <= p}|
            c["jets.certify_terms"] += n * (n - 1) * sum(
                comb(p + dim, dim) for p in range(p_max + 1))

        def taylor_grid(args, kwargs, result):
            c["jets.taylor_grid_points"] += len(result)

        def decompose(args, kwargs, result):
            c["geometry.cubes"] += len(result.sides)
            c["geometry.max_overlap"] += max(
                (len(n) for n in result.neighbors), default=0)

        def phi_derivs(args, kwargs, result):
            c["pou.phi_derivs_points"] += int(np.size(args[2])) // args[0].dec.dim

        def bump_eval(args, kwargs, result):
            c["pou.bump_eval_points"] += int(np.size(args[1]))

        def derivative_grid(args, kwargs, result):
            c["extend.derivative_grid_points"] += len(result)
            self._deferred.append((args[0].pou.dec, np.array(args[1])))

        return {"fncore.WeightFunction.__call__": omega,
                "jets.certify": certify, "jets.taylor_grid": taylor_grid,
                "geometry.decompose": decompose,
                "pou.PartitionOfUnity.phi_derivs": phi_derivs,
                "pou.CanonicalBump.eval": bump_eval,
                "extend.ExtensionField.derivative_grid": derivative_grid}

    def _wrap(self, fn, layer: str, name: str, hook):
        stack, spans, child, calls = self._stack, self.spans, self._child, self.calls
        timed = name in TIMED
        clock = time.perf_counter
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if not timed and stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                sid = len(spans)
                parent = stack[-1][0] if stack else -1
                spans.append(None)
                child.append(0.0)
                stack.append((sid, layer))
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[sid] = (name, t0, t1, parent, self.job)
                    if parent >= 0:
                        child[parent] += t1 - t0
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        modules = {layer: importlib.import_module(f"ultrajet.{layer}")
                   for layer in LAYERS}
        package = importlib.import_module("ultrajet")
        replaced = {}   # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                own = getattr(obj, "__module__", None) == mod.__name__
                if attr.startswith("_") or not own:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(obj, layer, name, hooks.get(name))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, hooks)
        # a function is looked up wherever it was imported, so patch every
        # module namespace that holds it (``extend.taylor_grid`` and the like)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, layer: str, hooks: dict) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, layer, name,
                                               hooks.get(name)))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, layer, name, hooks.get(name))
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> bool:
        """Restore every wrapped name; True when all are the originals again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(vars(owner)[attr] is original
                 for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    # -- per-job bookkeeping -----------------------------------------------

    def end_job(self, bytes_written: int) -> None:
        """Fold in what was deferred out of the timed region."""
        self.counts["cli.bytes_written"] += bytes_written
        for dec, x in self._deferred:
            self._hits[0] += _cubes_hit(dec, x.reshape(-1, dec.dim))
            self._hits[1] += dec.n_cubes
        self._deferred.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (t1 - t0) - self._child[sid]
        return out

    def metrics(self, n_jobs: int, src_dir: Path) -> dict:
        per_job = 1.0 / max(n_jobs, 1)
        out = {f"{layer}.self_s": t * per_job
               for layer, t in self.self_times().items()}
        timed = dict.fromkeys(TIMED.values(), 0.0)
        checks = 0
        for name, t0, t1, parent, _ in self.spans:
            if name in TIMED:
                timed[TIMED[name]] += t1 - t0
            if name.startswith("conditions.check_") and (
                    parent < 0 or not self.spans[parent][0].startswith("conditions.")):
                checks += 1
        out.update({k: v * per_job for k, v in timed.items()})
        out["conditions.checks"] = checks * per_job
        out.update({metric: self.calls.get(fn, 0) * per_job
                    for metric, fn in CALLS.items()})
        out["seqcore.calls"] = per_job * sum(
            v for k, v in self.calls.items() if k.startswith("seqcore."))
        out.update({k: v * per_job for k, v in self.counts.items()})
        out["extend.cube_hit_ratio"] = (self._hits[0] / self._hits[1]
                                        if self._hits[1] else 0.0)
        for layer in LAYERS:
            text = (src_dir / f"{layer}.py").read_text()
            out[f"{layer}.src_lines"] = float(len(text.splitlines()))
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans, "calls": self.calls,
                       "counts": self.counts}, fh, separators=(",", ":"))


def _cubes_hit(dec, pts: np.ndarray) -> int:
    """Number of cubes whose expanded cube holds at least one of ``pts``."""
    from ultrajet.geometry import EXPANSION

    half = dec.sides * (EXPANSION / 2.0)
    hit = np.zeros(dec.n_cubes, dtype=bool)
    for lo in range(0, len(pts), 256):
        chunk = pts[lo:lo + 256]
        hit |= np.any(np.all(np.abs(chunk[None, :, :] - dec.centers[:, None, :])
                             <= half[:, None, None], axis=2), axis=1)
    return int(np.count_nonzero(hit))
