"""The benchmark's workloads: seeded inputs, one timed batch, output checks.

Every workload follows the same closed loop: ``inputs(i)`` builds the
inputs of batch ``i`` outside the timed region, ``execute`` is the timed
call into the package, and ``check`` verifies the outputs afterwards and
returns one message per failed operation.  All inputs derive from the
workload seed, so the same seed always gives the same inputs.

* ``ex1_simulate`` runs the ``simulate`` command on a copy of
  ``configs/example1.yaml`` (5 agents): per-step Python overhead and the
  CSV writer dominate.
* ``net100_verified`` calls ``sim.run`` in the example2 regime (100 agents)
  with the Kronecker cross-check on: the O(n^2) coupling dominates.
* ``certify_stream`` sends a seeded stream of certification requests of
  four kinds that share ``certify`` and ``numerics`` but load them
  differently; the simulator does no work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import yaml

from sdconsensus import certify, cli, graph, sim, synthesis

ROOT = Path(__file__).resolve().parent.parent

NU_FLOOR = 1e-12
STEP_FORM_TOL = 1e-12
CONVERGENCE_RATIO = 1e-3
SIGMA_RTOL = 1e-9


def nu_violations(run_ids: np.ndarray, nu: np.ndarray) -> int:
    """Steps of one run where nu >= NU_FLOOR does not strictly decrease."""
    same_run = run_ids[1:] == run_ids[:-1]
    active = same_run & (nu[:-1] >= NU_FLOOR)
    return int(np.count_nonzero(~(nu[1:][active] < nu[:-1][active])))


class Ex1Simulate:
    """``simulate`` on example1: 100 runs x 1000 steps, about 8.8 MB of CSV."""

    name = "ex1_simulate"

    def __init__(self, seed: int, work_dir: Path, short: bool = False):
        self.seed = seed
        self.dir = work_dir / self.name
        self.runs = 4 if short else None
        self.reference = None

    def _write_config(self, path: Path, out_dir: Path, **batch) -> dict:
        raw = yaml.safe_load((ROOT / "configs" / "example1.yaml").read_text(encoding="utf-8"))
        raw["batch"]["seed"] = self.seed
        raw["batch"].update(batch)
        raw["output"]["dir"] = str(out_dir)
        path.write_text(yaml.safe_dump(raw, sort_keys=True), encoding="utf-8")
        return raw

    def _simulate(self, config: Path, out_dir: Path, *extra) -> int:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli.main(["simulate", "--config", str(config), "--out", str(out_dir), *extra])

    def prepare(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = self.dir / "out"
        self.config = self.dir / "example1.yaml"
        batch = {"runs": self.runs} if self.runs else {}
        raw = self._write_config(self.config, self.out_dir, **batch)
        self.items = (
            raw["batch"]["runs"] * raw["schedule"]["steps"] * raw["topology"]["random"]["agents"]
        )
        warm = self.dir / "warm.yaml"
        self._write_config(warm, self.dir / "warm", runs=1)
        if self._simulate(warm, self.dir / "warm") != cli.EXIT_OK:
            raise RuntimeError("warm-up simulate failed")

    def inputs(self, i: int):
        return self.config

    def ops(self, inputs) -> int:
        return 1

    def execute(self, config):
        return self._simulate(config, self.out_dir, "--assert-convergence", str(CONVERGENCE_RATIO))

    def output_digest(self) -> tuple[str, str]:
        return tuple(
            hashlib.sha256((self.out_dir / f).read_bytes()).hexdigest()
            for f in ("trajectories.csv", "aggregate.csv")
        )

    def csv_bytes(self) -> int:
        return sum((self.out_dir / f).stat().st_size for f in ("trajectories.csv", "aggregate.csv"))

    def check(self, config, rc) -> list[str]:
        if rc != cli.EXIT_OK:
            return [f"simulate exited {rc} (--assert-convergence {CONVERGENCE_RATIO})"]
        digest = self.output_digest()
        if self.reference is None:
            self.reference = digest
            run_ids, nu = [], []
            with open(self.out_dir / "trajectories.csv", encoding="utf-8") as f:
                next(f)
                for line in f:
                    fields = line.split(",")
                    run_ids.append(int(fields[0]))
                    nu.append(float(fields[6]))
            bad = nu_violations(np.array(run_ids), np.array(nu))
            return [f"nu failed to decrease on {bad} steps"] if bad else []
        if digest != self.reference:
            return ["CSV output differs from the first batch with the same seed"]
        return []


class Net100Verified:
    """``sim.run`` with 100 agents, band [5, 60], hbar 1, step-form check on."""

    name = "net100_verified"
    AGENTS = 100
    STEPS = 1000

    def __init__(self, seed: int, work_dir: Path, short: bool = False):
        self.seed = seed
        self.runs = 1 if short else 2
        self.reference = None

    def prepare(self) -> None:
        spec = synthesis.DesignSpec(1.0, 5.0, 60.0)
        self.config = sim.SimulationConfig(
            n_agents=self.AGENTS,
            plant=certify.PlantModel.double_integrator(),
            hbar=spec.hbar,
            steps=self.STEPS,
            runs=self.runs,
            seed=self.seed,
            topology=sim.TopologyRecipe(spec.lambda2, spec.lambdaN, pool_size=4),
            design=synthesis.design(spec),
            verify_step_forms=True,
        )
        self.items = self.runs * self.STEPS * self.AGENTS
        sim.run(dataclasses.replace(self.config, runs=1, steps=2))

    def inputs(self, i: int):
        return self.config

    def ops(self, inputs) -> int:
        return 1

    def execute(self, config):
        return sim.run(config)

    def csv_bytes(self) -> int:
        return 0

    def check(self, config, result) -> list[str]:
        failures = []
        agg = result.aggregate_delta
        if not agg[-1] < CONVERGENCE_RATIO * agg[0]:
            failures.append(f"aggregate ratio {agg[-1] / agg[0]:.3e} >= {CONVERGENCE_RATIO}")
        gap = max(rec.step_form_gap for rec in result.records)
        if not gap < STEP_FORM_TOL:
            failures.append(f"step_form_gap {gap:.3e} >= {STEP_FORM_TOL}")
        for rec in result.records:
            bad = nu_violations(np.zeros(len(rec.nu), dtype=int), rec.nu)
            if bad:
                failures.append(f"run {rec.run_id}: nu failed to decrease on {bad} steps")
        arrays = [np.concatenate([r.t, r.h, r.delta, r.nu]) for r in result.records]
        if self.reference is None:
            self.reference = arrays
        elif not all(np.array_equal(a, b) for a, b in zip(arrays, self.reference)):
            failures.append("trajectories differ from the first batch with the same seed")
        return [" / ".join(failures)] if failures else []


# ---------------------------------------------------------------------------
# certification requests

# requests of each kind in one batch, chosen so that each kind takes a
# comparable share of the batch time
PASS_MIX = {"exact": 16, "grid500": 2, "general": 2, "fixed": 4}
SHORT_MIX = {"exact": 4, "grid500": 1, "general": 1, "fixed": 1}
FIXED_AGENTS = 20


def fuzz_spec(rng) -> synthesis.DesignSpec:
    """Spec drawn like the acceptance fuzz set."""
    hbar = float(10.0 ** rng.uniform(-1.0, 2.0))
    lambda2 = float(10.0 ** rng.uniform(-2.0, 1.0))
    ratio = float(10.0 ** rng.uniform(0.0, 3.0))
    return synthesis.DesignSpec(hbar, lambda2, lambda2 * ratio)


def unbalanced_digraph(rng, n: int) -> np.ndarray:
    """Weights of a random digraph with a directed spanning tree, not balanced."""
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for idx in range(1, n):
        receiver, sender = order[idx], order[rng.integers(0, idx)]
        w[receiver, sender] = rng.uniform(0.5, 1.5)
    extra = (rng.random((n, n)) < 0.15) & (w == 0.0)
    np.fill_diagonal(extra, False)
    w[extra] = rng.uniform(0.1, 1.0, size=int(extra.sum()))
    return w


def reference_sigma(K, T, h: float, lam: complex) -> float:
    """Largest singular value of T^-1 (F(h) - lam G(h) K) T by LAPACK SVD,
    with the closed-form double-integrator discretization."""
    F = np.array([[1.0, h], [0.0, 1.0]])
    G = np.array([[0.5 * h * h], [h]])
    M = np.linalg.solve(T, (F - lam * (G @ K)) @ T)
    return float(np.linalg.svd(M, compute_uv=False)[0])


class CertifyStream:
    """Seeded stream of certification requests; one batch is one mix."""

    name = "certify_stream"
    # times each request; the runner swaps in a clock that leaves out the
    # host-speed samples taken while the request ran
    clock = staticmethod(time.perf_counter)

    def __init__(self, seed: int, work_dir: Path, short: bool = False):
        self.seed = seed
        self.mix = SHORT_MIX if short else PASS_MIX
        self.di = certify.PlantModel.double_integrator()
        self.general = certify.PlantModel.general(self.di.A, self.di.B)

    def _request(self, rng, kind: str) -> dict:
        if kind != "fixed":
            return {"kind": kind, "spec": fuzz_spec(rng)}
        w = unbalanced_digraph(rng, FIXED_AGENTS)
        ev = np.linalg.eigvals(np.diag(w.sum(axis=1)) - w)
        ev = np.delete(ev, np.argmin(np.abs(ev)))
        hbar = float(10.0 ** rng.uniform(-1.0, 0.5))
        spec = synthesis.DesignSpec(hbar, float(ev.real.min()), float(np.abs(ev).max()))
        return {"kind": kind, "spec": spec, "graph": graph.WeightedDigraph(w), "eigenvalues": ev}

    def _requests(self, rng) -> list:
        kinds = [k for k, count in self.mix.items() for _ in range(count)]
        return [self._request(rng, kinds[j]) for j in rng.permutation(len(kinds))]

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        warm = [self._request(rng, kind) for kind in self.mix]
        for outcome in self.execute(warm):
            if outcome["error"] is not None:
                raise RuntimeError(f"warm-up {outcome['kind']} request failed: {outcome['error']}")
        self.items = sum(self.mix.values())

    def inputs(self, i: int) -> list:
        return self._requests(np.random.default_rng([self.seed, 1, i]))

    def ops(self, requests) -> int:
        return len(requests)

    def csv_bytes(self) -> int:
        return 0

    def _certify(self, req):
        spec = req["spec"]
        dsn = synthesis.design(spec)
        band = (spec.lambda2, spec.lambdaN)
        kind = req["kind"]
        if kind == "exact":
            cert = certify.certify_double_integrator(spec, dsn)
        elif kind == "grid500":
            cert = certify.certify_grid(self.di, dsn.K, dsn.T, spec.hbar, band, grid=(500, 500))
        elif kind == "general":
            cert = certify.certify_grid(self.general, dsn.K, dsn.T, spec.hbar, band, grid=(200, 200))
        else:
            lambdas = graph.consensus_eigenvalues(req["graph"])
            cert = certify.certify_grid(self.di, dsn.K, dsn.T, spec.hbar, lambdas, grid=(200, 200))
            return dsn, cert, lambdas
        return dsn, cert, None

    def execute(self, requests) -> list:
        clock = self.clock
        outcomes = []
        for req in requests:
            t0 = clock()
            try:
                result, error = self._certify(req), None
            except Exception as exc:  # a failed request is counted, the stream goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append(
                {"kind": req["kind"], "seconds": clock() - t0, "result": result, "error": error}
            )
        return outcomes

    def check(self, requests, outcomes) -> list[str]:
        failures = []
        for req, out in zip(requests, outcomes):
            problem = out["error"] or self._check_one(req, *out["result"])
            if problem:
                failures.append(f"{req['kind']}: {problem}")
        return failures

    def _check_one(self, req, dsn, cert, lambdas) -> str | None:
        spec, kind = req["spec"], req["kind"]
        h, lam = cert.worst_point
        lam = lam if kind == "fixed" else lam.real
        sigma = reference_sigma(dsn.K, dsn.T, h, lam)
        if abs(sigma - cert.worst_sigma) > SIGMA_RTOL * sigma:
            return f"worst_sigma {cert.worst_sigma!r} but SVD gives {sigma!r} at the worst point"
        band = (spec.lambda2, spec.lambdaN)
        if kind == "grid500":
            exact = certify.certify_double_integrator(spec, dsn)
            if exact.verdict == "certified" and cert.verdict == "refuted":
                return "exact-certified design refuted by the 500x500 grid"
        elif kind == "general":
            di = certify.certify_grid(self.di, dsn.K, dsn.T, spec.hbar, band, grid=(200, 200))
            if di.verdict != cert.verdict or abs(di.worst_sigma - cert.worst_sigma) > 1e-9:
                return (
                    f"general plant gives {cert.verdict} {cert.worst_sigma!r}, double "
                    f"integrator gives {di.verdict} {di.worst_sigma!r}"
                )
        elif kind == "fixed":
            ref = req["eigenvalues"]
            scale = np.abs(ref).max()
            dist = np.abs(np.asarray(lambdas)[:, None] - ref[None, :])
            mismatch = max(dist.min(axis=0).max(), dist.min(axis=1).max())
            if len(lambdas) != len(ref) or mismatch > 1e-9 * scale:
                return "consensus eigenvalues disagree with the Laplacian spectrum"
        return None


WORKLOADS = {cls.name: cls for cls in (Ex1Simulate, Net100Verified, CertifyStream)}
