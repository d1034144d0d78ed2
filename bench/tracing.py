"""Span tracing of the sdconsensus layers, installed from outside the package.

Each traced public function is replaced, at every module attribute or class
attribute that callers resolve it through, by a wrapper that records one
span: name, start, end and the id of the enclosing span.  Spans live in flat
in-memory arrays while the batch runs; self times are computed afterwards as
a span's duration minus the durations of its direct children (calls are
strictly nested on one thread, so the children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# (layer, owner attribute path, function name); the owner is a module of the
# package or a class in it.  Metric names are "<layer>.<function>".
TRACED = (
    ("cli", "sdconsensus.cli", "main"),
    ("cli", "sdconsensus.cli", "resolve_config"),
    ("cli", "sdconsensus.cli", "write_trajectories_csv"),
    ("cli", "sdconsensus.cli", "write_aggregate_csv"),
    ("synthesis", "sdconsensus.synthesis", "design"),
    ("certify", "sdconsensus.certify.PlantModel", "discretize"),
    ("certify", "sdconsensus.certify", "certify_double_integrator"),
    ("certify", "sdconsensus.certify", "certify_grid"),
    ("numerics", "sdconsensus.numerics", "max_singular_values"),
    ("numerics", "sdconsensus.numerics", "expm"),
    ("numerics", "sdconsensus.numerics", "expm_integral"),
    ("graph", "sdconsensus.graph", "random_balanced_graph"),
    ("graph", "sdconsensus.graph", "spectrum"),
    ("graph", "sdconsensus.graph", "laplacian"),
    ("graph", "sdconsensus.graph", "consensus_eigenvalues"),
    ("sim", "sdconsensus.sim", "run"),
    ("sim", "sdconsensus.sim", "step"),
    ("sim", "sdconsensus.sim", "step_kronecker"),
    ("sim", "sdconsensus.sim", "sample_interval"),
    ("sim", "sdconsensus.sim", "disagreement"),
    ("sim", "sdconsensus.sim", "reduced_norm"),
)

TRACED_NAMES = tuple(f"{layer}.{fn}" for layer, _, fn in TRACED)


def _stack_count(args, kwargs, result) -> float:
    stack = args[0] if args else kwargs["stack"]
    return float(np.prod(np.shape(stack)[:-2]))


def _grid_cells(args, kwargs, result) -> float:
    return float(np.prod(result.grid_shape))


# work done by one call, recorded with its span: matrices whose largest
# singular value was computed, and (h, lambda) cells of a grid certificate
WORK_COUNTERS = {
    "numerics.max_singular_values": _stack_count,
    "certify.certify_grid": _grid_cells,
}


def _resolve_owner(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        if module_name in sys.modules:
            owner = sys.modules[module_name]
            for attr in parts[cut:]:
                owner = getattr(owner, attr)
            return owner
    raise LookupError(f"cannot resolve {path}")


def _binding_sites(original):
    """Every (module, attribute) of the package bound to ``original``."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sdconsensus" or name.startswith("sdconsensus.")):
            continue
        for attr, value in vars(module).items():
            if value is original:
                sites.append((module, attr))
    return sites


class Tracer:
    """Records spans of the traced functions between ``install`` and ``restore``."""

    def __init__(self):
        self.names = list(TRACED_NAMES) + ["batch"]
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._saved = []

    def clear(self) -> None:
        for arr in (self.name_idx, self.parent, self.start, self.end, self.work):
            del arr[:]
        del self._stack[1:]

    def _wrap(self, idx: int, fn):
        name_idx, parent, start, end, work, stack = (
            self.name_idx, self.parent, self.start, self.end, self.work, self._stack
        )
        clock = time.perf_counter
        measure = WORK_COUNTERS.get(self.names[idx])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_idx.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            work.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if measure is not None:
                work[sid] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for idx, (_, owner_path, fn_name) in enumerate(TRACED):
            owner = _resolve_owner(owner_path)
            if isinstance(owner, type):
                original = vars(owner)[fn_name]
                sites = [(owner, fn_name)]
            else:
                original = getattr(owner, fn_name)
                sites = _binding_sites(original)
            wrapper = self._wrap(idx, original)
            for site, attr in sites:
                self._saved.append((site, attr, original))
                setattr(site, attr, wrapper)

    def restore(self) -> None:
        for site, attr, original in reversed(self._saved):
            setattr(site, attr, original)
        for site, attr, original in self._saved:
            if getattr(site, attr) is not original:
                raise RuntimeError(f"failed to restore {attr}")
        self._saved = []

    @contextlib.contextmanager
    def batch_span(self):
        """Record the root span of one batch around the body."""
        sid = len(self.start)
        self.name_idx.append(len(self.names) - 1)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.work.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_idx": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }


def summarize(spans: dict) -> dict:
    """Per-name call counts, total and self seconds, and per-call durations."""
    names = spans["names"]
    idx = spans["name_idx"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    n_names = len(names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    calls = np.bincount(idx, minlength=n_names)
    total = np.bincount(idx, weights=dur, minlength=n_names)
    self_sum = np.bincount(idx, weights=self_time, minlength=n_names)
    work = np.bincount(idx, weights=spans["work"], minlength=n_names)
    out = {}
    for i, name in enumerate(names):
        out[str(name)] = {
            "calls": int(calls[i]),
            "total_s": float(total[i]),
            "self_s": float(self_sum[i]),
            "work": float(work[i]),
            "durations": dur[idx == i],
        }
    # children of random_balanced_graph that are spectrum calls: one per try
    rbg = list(names).index("graph.random_balanced_graph")
    spec = list(names).index("graph.spectrum")
    rbg_spans = idx == rbg
    parent_is_rbg = np.zeros(len(dur), dtype=bool)
    parent_is_rbg[has_parent] = rbg_spans[parent[has_parent]]
    out["graph.spectrum"]["calls_in_pool"] = int(np.count_nonzero(parent_is_rbg & (idx == spec)))
    return out
