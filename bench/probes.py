"""Layer probes: direct, warmed, best-of-k calls at fixed sizes.

Each probe times one public function of a layer on inputs of a fixed size,
so its number moves only when that function's own cost changes.  The
n = 1000 probes show how far the simulator is from large networks.
"""

from __future__ import annotations

import time

import numpy as np

from sdconsensus import certify, graph, sim, synthesis

PROBE_NAMES = (
    "probe.step_n5.us",
    "probe.step_n100.us",
    "probe.step_n1000.us",
    "probe.step_kronecker_n100.us",
    "probe.reduced_norm_n100.us",
    "probe.disagreement_n100.us",
    "probe.discretize.us",
    "probe.design.us",
    "probe.certify_double_integrator.ms",
    "probe.grid500_di.ms",
    "probe.grid200_general.ms",
    "probe.random_balanced_graph_n1000.ms",
)


def best_of(fn, k: int, inner: int) -> float:
    """Smallest mean seconds per call over ``k`` repeats of ``inner`` calls."""
    fn()
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _ring_graph(rng, n: int) -> graph.WeightedDigraph:
    w = np.zeros((n, n))
    idx = np.arange(n)
    w[idx, (idx + 1) % n] = w[(idx + 1) % n, idx] = 1.0
    extra = np.triu(rng.random((n, n)) < 0.3, 1)
    w[extra | extra.T] = 1.0
    np.fill_diagonal(w, 0.0)
    return graph.WeightedDigraph(w)


def run_probes(seed: int) -> dict:
    """Probe values keyed by PROBE_NAMES, in the unit each name ends with."""
    rng = np.random.default_rng([seed, 2])
    di = certify.PlantModel.double_integrator()
    general = certify.PlantModel.general(di.A, di.B)
    spec = synthesis.DesignSpec(1.0, 5.0, 60.0)
    dsn = synthesis.design(spec)
    K, T, h = dsn.K, dsn.T, 0.5
    band = (spec.lambda2, spec.lambdaN)
    graphs = {n: _ring_graph(rng, n) for n in (5, 100, 1000)}
    states = {n: rng.uniform(-1.0, 1.0, size=(n, 2)) for n in graphs}
    basis = graph.reduction_basis(100)
    us, ms = 1e6, 1e3
    probes = {
        "probe.step_n5.us": (lambda: sim.step(states[5], graphs[5], K, h, di), 5, 200, us),
        "probe.step_n100.us": (lambda: sim.step(states[100], graphs[100], K, h, di), 5, 20, us),
        "probe.step_n1000.us": (lambda: sim.step(states[1000], graphs[1000], K, h, di), 3, 1, us),
        "probe.step_kronecker_n100.us": (
            lambda: sim.step_kronecker(states[100], graphs[100], K, h, di), 5, 10, us
        ),
        "probe.reduced_norm_n100.us": (lambda: sim.reduced_norm(states[100], basis, T), 5, 200, us),
        "probe.disagreement_n100.us": (lambda: sim.disagreement(states[100]), 5, 500, us),
        "probe.discretize.us": (lambda: di.discretize(h), 5, 500, us),
        "probe.design.us": (lambda: synthesis.design(spec), 5, 100, us),
        "probe.certify_double_integrator.ms": (
            lambda: certify.certify_double_integrator(spec, dsn), 5, 5, ms
        ),
        "probe.grid500_di.ms": (
            lambda: certify.certify_grid(di, K, T, spec.hbar, band, grid=(500, 500)), 3, 1, ms
        ),
        "probe.grid200_general.ms": (
            lambda: certify.certify_grid(general, K, T, spec.hbar, band, grid=(200, 200)), 3, 1, ms
        ),
        "probe.random_balanced_graph_n1000.ms": (
            lambda: graph.random_balanced_graph(1000, 5.0, 60.0, 7), 2, 1, ms
        ),
    }
    if tuple(probes) != PROBE_NAMES:
        raise RuntimeError("probe table does not match PROBE_NAMES")
    return {name: best_of(fn, k, inner) * scale for name, (fn, k, inner, scale) in probes.items()}
