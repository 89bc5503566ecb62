"""Per-layer span tracer, applied to privacy-lab from outside the package.

A layer is one module of the package: equilibrium, welfare, montecarlo,
report and cli.  `Tracer.install` wraps every public module-level function
of those modules and rebinds each name under which the package holds it, so
that calls through `from .equilibrium import ...` are traced too.  Each call
records a span (name, start, end, parent span, job id) into flat in-memory
arrays; `dump` writes them out once the run is over.

A few leaf helpers run once per output cell or per bisection step, where a
span would cost more than the work it times.  Those are counted but not
timed (`COUNT_ONLY`); their time falls into the caller's self time.

numpy and concurrent.futures are imported only when needed, so that a
process which imports this module before the package still pays, and
records, the package's own import cost.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import threading
import time
from array import array
from collections import Counter

PACKAGE = "privacy_lab"
LAYERS = ("equilibrium", "welfare", "montecarlo", "report", "cli")
COUNT_ONLY = frozenset({"format_float", "regime_label", "posterior_slope", "combined_noise_std"})
ESTIMATORS = ("estimate_welfare", "estimate_lambda_regression", "estimate_price_moments")
CHUNKED = ("simulate", "simulate_batched", "verify_best_response")


def _is_renderer(name: str) -> bool:
    return name.endswith("_to_csv") or name.endswith("_json")


def _chunk_count(args, kwargs) -> int:
    for a in (*args, *kwargs.values()):
        if hasattr(a, "n_paths") and hasattr(a, "chunk_size"):
            return math.ceil(a.n_paths / a.chunk_size)
    return 0


def _materialized_bytes(result) -> int:
    arrays = getattr(result, "arrays", None)
    if arrays is None:
        return 0
    return sum(getattr(v, "nbytes", 0) for v in vars(arrays).values())


def _bundle_bytes(result) -> int:
    return sum(os.path.getsize(f) for f in getattr(result, "files", ()))


def observe_pool_sizes(record):
    """Patch ThreadPoolExecutor so that `record(max_workers)` sees every pool
    created; return a function that undoes the patch."""
    import concurrent.futures

    pool_cls = concurrent.futures.ThreadPoolExecutor
    original_init = pool_cls.__init__

    def init(pool, *args, **kwargs):
        original_init(pool, *args, **kwargs)
        record(pool._max_workers)

    pool_cls.__init__ = init
    return lambda: setattr(pool_cls, "__init__", original_init)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []  # (layer, function) per name id
        self._name_ids: dict[tuple[str, str], int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.counts: Counter = Counter()
        self.current_job = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _nid(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.t0)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.current_job)
            self.t0.append(0)
            self.t1.append(0)
        stack.append(idx)
        self.t0[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter_ns()
        self._stack().pop()

    def record(self, layer: str, name: str, t0: int, t1: int) -> None:
        """Add a finished top-level span measured by the caller."""
        with self._lock:
            self.name_id.append(self._nid(layer, name))
            self.parent.append(-1)
            self.job.append(self.current_job)
            self.t0.append(t0)
            self.t1.append(t1)

    def _wrap(self, fn, layer: str, name: str):
        if name in COUNT_ONLY:
            key = f"{layer}.calls"

            def counted(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        nid = self._nid(layer, name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name in CHUNKED:
                self.counts["montecarlo.chunks"] += _chunk_count(args, kwargs)
            if name == "simulate":
                self.counts["montecarlo.bytes_materialized"] += _materialized_bytes(result)
            elif name == "write_report_bundle":
                self.counts["report.bytes_written"] += _bundle_bytes(result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append(lambda m=mod, a=attr, v=value: setattr(m, a, v))

        def pool_size(n: int) -> None:
            self.counts["montecarlo.threads"] = max(self.counts["montecarlo.threads"], n)

        self._undo.append(observe_pool_sizes(pool_size))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        import numpy as np

        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "job": np.frombuffer(self.job, dtype=np.int64),
            "t0": np.frombuffer(self.t0, dtype=np.int64),
            "t1": np.frombuffer(self.t1, dtype=np.int64),
        }

    def dump(self, path) -> None:
        """Write spans, their name table and the counters to an .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array([f"{layer}.{name}" for layer, name in self.names], dtype=str),
            count_keys=np.array(list(self.counts), dtype=str),
            count_values=np.array(list(self.counts.values()), dtype=np.int64),
            **self.arrays(),
        )

    def merge_dump(self, path, job: int) -> None:
        """Append the spans and counters of another process's dump, as job `job`."""
        import numpy as np

        with np.load(path) as data:
            remap = [self._nid(*str(n).split(".", 1)) for n in data["names"]]
            offset = len(self.t0)
            self.name_id.extend(remap[i] for i in data["name_id"].tolist())
            self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"].tolist())
            self.job.extend([job] * len(data["t0"]))
            self.t0.extend(data["t0"].tolist())
            self.t1.extend(data["t1"].tolist())
            for key, value in zip(data["count_keys"].tolist(), data["count_values"].tolist()):
                if key == "montecarlo.threads":
                    self.counts[key] = max(self.counts[key], value)
                else:
                    self.counts[key] += value

    # -- summary -----------------------------------------------------------

    def layer_metrics(self, n_ops: int, op_seconds: float) -> dict[str, float]:
        """Per-operation self time and call counts per layer, inclusive time of
        the named operations, and the share of op time the top-level spans
        cover."""
        import numpy as np

        a = self.arrays()
        dur = (a["t1"] - a["t0"]) / 1e9
        nested = a["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, a["parent"][nested], dur[nested])
        n_names = len(self.names)
        calls_by = np.bincount(a["name_id"], minlength=n_names)
        dur_by = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        self_by = np.bincount(a["name_id"], weights=dur - child, minlength=n_names)

        def total(by, pred) -> float:
            return float(sum(by[i] for i, key in enumerate(self.names) if pred(*key))) / n_ops

        def incl(pred) -> float:
            return total(dur_by, lambda _layer, name: pred(name))

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = total(calls_by, lambda l, _n: l == layer) + self.counts[f"{layer}.calls"] / n_ops
            out[f"{layer}.self_s"] = total(self_by, lambda l, _n: l == layer)
        out["equilibrium.validate_calls"] = total(calls_by, lambda _l, n: n == "validate_params")
        out["equilibrium.fixed_point_s"] = incl(lambda n: n == "solve_fixed_point")
        out["montecarlo.simulate_s"] = incl(lambda n: n == "simulate")
        out["montecarlo.estimator_s"] = incl(lambda n: n in ESTIMATORS)
        out["montecarlo.batched_s"] = incl(lambda n: n == "simulate_batched")
        out["montecarlo.best_response_s"] = incl(lambda n: n == "verify_best_response")
        out["montecarlo.chunks"] = self.counts["montecarlo.chunks"] / n_ops
        out["montecarlo.threads"] = self.counts["montecarlo.threads"] or (1 if self.counts["montecarlo.chunks"] else 0)
        out["montecarlo.bytes_materialized"] = self.counts["montecarlo.bytes_materialized"] / n_ops
        out["report.sweep_s"] = incl(lambda n: n == "sweep")
        out["report.render_s"] = incl(_is_renderer)
        out["report.bundle_s"] = incl(lambda n: n == "write_report_bundle")
        out["report.bytes_written"] = self.counts["report.bytes_written"] / n_ops
        out["trace.coverage"] = float(dur[~nested].sum()) / op_seconds
        return out
