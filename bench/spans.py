"""Outside-in span tracer for qtorus, and the launcher of traced jobs.

The launcher runs one CLI job the way ``python -m qtorus.cli`` does, but
first wraps every public function of the layer modules under the names its
callers look up (``cli.build_profile`` as well as ``norms.build_profile``),
so each call into a layer records a span: name, layer, start, end, parent
span and, for some calls, work counts read from the arguments.  The import
of each layer module is recorded as an ``import`` span of that layer.  Spans
are kept in memory and written once, after ``cli.main`` returns:

    python3 bench/spans.py --job spectra-00 --spans spans.json -- norms --input x.jsonl --out o

A span's self time is its duration minus the durations of its child spans.
Spans nest strictly (one thread), so the self times of a job's spans sum to
the duration of its root spans.

Importing this module does not import qtorus; the aggregation helpers are
stdlib-only so ``run.py`` can use them.
"""

from __future__ import annotations

import functools
import importlib.machinery
import inspect
import json
import math
import sys
import time

LAYERS = ("series", "logspace", "norms", "associated", "interpolate", "families", "cli")

#: associated functions that answer a query at one r or one m.
POINT_QUERIES = ("log_tau", "log_tau_shifted", "t_m", "theta")
FOLDS = ("diagonal_fold", "alias_fold")


class Tracer:
    """In-memory span recorder for one single-threaded job."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def open(self, name: str, layer: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "layer": layer,
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = self.clock()
        self._stack.pop()

    def inside(self, layer: str) -> bool:
        """True when an open span belongs to ``layer``."""
        return any(s["layer"] == layer for s in self._stack)


# ---------------------------------------------------------------------------
# Aggregation (stdlib only)
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_self_times(spans: list[dict]) -> dict:
    """Layer -> summed self time of its spans."""
    own = self_times(spans)
    totals: dict = {}
    for s in spans:
        totals[s["layer"]] = totals.get(s["layer"], 0.0) + own[s["id"]]
    return totals


# ---------------------------------------------------------------------------
# Work counts read from call arguments and results
# ---------------------------------------------------------------------------

def _tau_rows(name: str, a: dict) -> int:
    """Grid points one associated entry point scans, each over j = 0..J."""
    if name == "witness":
        return max(int(m) for m in a["m_grid"])
    if name == "build_table":
        return 2 * len(a["r_grid"])  # ln tau and ln tau~ per r
    if name == "carleman_diagnostic":
        return max(2, int(math.ceil(a["points_per_decade"] * math.log10(a["r_max"]))) + 1)
    if name in ("t_m", "theta"):
        return int(a["m"])
    return 1  # log_tau, log_tau_shifted


def _work(layer: str, name: str, a: dict, result, outermost: bool) -> dict | None:
    if name == "read_coefficients":
        return {"modes": result.n_modes}
    if name == "eval_batch":
        series = a["series"]
        return {"terms": len(a["points"]) * series.n_modes * series.dim}
    if layer == "associated" and outermost and "profile" in a:
        return {"tau_terms": _tau_rows(name, a) * (a["profile"].j_max + 1)}
    if name == "interpolation_audit":
        return {"grid_nodes": int(a["m"]) ** a["series"].dim}
    if name in FOLDS:
        return {"fold": f"{name}:{int(a['m'])}"}
    return None


COUNTED = {"read_coefficients", "eval_batch", "interpolation_audit", *FOLDS}


def _wrap(fn, layer: str, tracer: Tracer):
    name = fn.__name__
    counted = name in COUNTED or layer == "associated"
    signature = inspect.signature(fn) if counted else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        outermost = not tracer.inside(layer)
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        # Nested associated calls add no tau_terms; skip the costly bind.
        if counted and (outermost or layer != "associated"):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            work = _work(layer, name, bound.arguments, result, outermost)
            if work:
                span["work"] = work
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module, in every namespace."""
    modules = {layer: sys.modules[f"qtorus.{layer}"] for layer in LAYERS}
    wrapped: dict = {}
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if obj.__module__ != f"qtorus.{layer}" or layer not in modules:
                continue
            if obj not in wrapped:
                wrapped[obj] = _wrap(obj, layer, tracer)
            setattr(module, attr, wrapped[obj])


class ImportTimer:
    """Meta-path finder that records the import of each layer module as a span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path=None, target=None):
        package, _, layer = name.rpartition(".")
        if package != "qtorus" or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def timed_exec(module):
            span = tracer.open("import", layer)
            try:
                exec_module(module)
            finally:
                tracer.close(span)

        spec.loader.exec_module = timed_exec
        return spec


def launch(job: str, spans_path: str, cli_args: list[str]) -> int:
    """Run one traced CLI job and write its spans; returns the CLI exit code."""
    import numpy  # noqa: F401  third-party import stays in process start-up

    tracer = Tracer()
    timer = ImportTimer(tracer)
    sys.meta_path.insert(0, timer)
    try:
        import qtorus.cli
    finally:
        sys.meta_path.remove(timer)
    install(tracer)
    try:
        code = qtorus.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "spans": tracer.spans}, fh)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 5 or argv[0] != "--job" or argv[2] != "--spans" or argv[4] != "--":
        print("usage: spans.py --job ID --spans FILE -- <qtorus cli args>", file=sys.stderr)
        return 2
    return launch(argv[1], argv[3], argv[5:])


if __name__ == "__main__":
    sys.exit(main())
