"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criterion 3 is expected to fail on its margin clause: the transformed
closed-loop map tends to the identity as the sampling interval tends to
zero, so the worst sampled singular value on a grid whose smallest h is
hbar/500 sits around 1 - 5e-5, short of the demanded 1e-3 margin.  The
failure is reported with the measured margins and the bound -mu * hbar / 500
they meet, rather than hidden.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sdconsensus import cli
from sdconsensus.certify import (
    PlantModel,
    certify_double_integrator,
    certify_grid,
)
from sdconsensus.numerics import (
    block_gershgorin_sv_bound,
    complex_block_split,
    expm,
    expm_integral,
    gershgorin_sv_bound,
    max_singular_value,
)
from sdconsensus.sim import SimulationConfig, TopologyRecipe, run
from sdconsensus.synthesis import (
    DesignSpec,
    abstract_consistency,
    design,
    is_feasible,
    limits,
)
from test_synthesis import random_spec, replay_design

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

REGIMES = {
    "example1": dict(n_agents=5, band=(0.3, 6.0), hbar=3.0, seed=20260801),
    "example2": dict(n_agents=100, band=(5.0, 60.0), hbar=1.0, seed=20260802),
}


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def _design_runtime(spec: DesignSpec) -> float:
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        design(spec)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def regime_batches():
    """Both worked-example regimes: 100 runs x 1000 steps with step-form verification."""
    plant = PlantModel.double_integrator()
    out = {}
    for name, p in REGIMES.items():
        spec = DesignSpec(p["hbar"], *p["band"])
        cfg = SimulationConfig(
            n_agents=p["n_agents"],
            plant=plant,
            hbar=p["hbar"],
            steps=1000,
            runs=100,
            seed=p["seed"],
            topology=TopologyRecipe(*p["band"], pool_size=4),
            design=design(spec),
            verify_step_forms=True,
        )
        t0 = time.perf_counter()
        result = run(cfg)
        out[name] = (result, time.perf_counter() - t0)
    return out


def _gain_reproduction(num, label, spec_args, frac_args, published):
    spec = DesignSpec(*spec_args)
    dsn = design(spec)
    K = dsn.K[0]
    rounded_ok = (round(float(K[0]), 4), round(float(K[1]), 4)) == published
    _, _, k1, k2, K1, K2 = replay_design(*frac_args)
    replay_ok = (
        abs(dsn.k1 - float(k1)) <= 1e-12 * float(k1)
        and abs(dsn.k2 - float(k2)) <= 1e-12 * float(k2)
        and abs(K[0] - float(K1)) <= 1e-12 * abs(float(K1))
        and abs(K[1] - float(K2)) <= 1e-12 * abs(float(K2))
    )
    runtime = _design_runtime(spec)
    ok = rounded_ok and replay_ok and runtime < 1e-3
    report(
        num,
        f"gain reproduction ({label})",
        ok,
        f"K=[{K[0]:.8f}, {K[1]:.8f}], design runtime {runtime * 1e6:.0f} us",
    )
    assert rounded_ok, f"gain rounds to {K.round(4)} instead of {published}"
    assert replay_ok, "full-precision gains drift from the exact replay"
    assert runtime < 1e-3, f"design took {runtime:.6f}s"


def test_criterion_1_gain_reproduction_example1():
    _gain_reproduction(
        1,
        "hbar=3, band [0.3, 6]",
        (3.0, 0.3, 6.0),
        (Fraction(3), Fraction(3, 10), Fraction(6)),
        (0.0009, 0.1093),
    )


def test_criterion_2_gain_reproduction_example2():
    _gain_reproduction(
        2,
        "hbar=1, band [5, 60]",
        (1.0, 5.0, 60.0),
        (Fraction(1), Fraction(5), Fraction(60)),
        (0.0013, 0.032),
    )


def small_h_margin(plant, spec, dsn, nh):
    """-mu * hbar / nh: the margin left at the grid's smallest interval.

    mu = lambda_max((N + N^T)/2) is the log-norm of N = T^-1 (A - lambda B K) T
    at the binding band end (the larger of the two), and sigma is
    1 + h mu + O(h^2) as h -> 0.
    """
    Tinv = np.linalg.inv(dsn.T)
    mu = -np.inf
    for lam in (spec.lambda2, spec.lambdaN):
        N = Tinv @ (plant.A - lam * plant.B @ dsn.K) @ dsn.T
        mu = max(mu, np.linalg.eigvalsh((N + N.T) / 2.0)[-1])
    return -mu * spec.hbar / nh


def test_criterion_3_certificate_soundness():
    t0 = time.perf_counter()
    plant = PlantModel.double_integrator()
    margins = {}
    bounds = {}
    exact_ok = True
    grid_below_one = True
    for label, spec_args in (("example1", (3.0, 0.3, 6.0)), ("example2", (1.0, 5.0, 60.0))):
        spec = DesignSpec(*spec_args)
        dsn = design(spec)
        exact_ok &= certify_double_integrator(spec, dsn).verdict == "certified"
        grid = certify_grid(
            plant, dsn.K, dsn.T, spec.hbar, (spec.lambda2, spec.lambdaN), grid=(500, 500)
        )
        grid_below_one &= grid.worst_sigma < 1.0
        margins[label] = grid.margin
        bounds[label] = small_h_margin(plant, spec, dsn, 500)
    margin_ok = all(m > 1e-3 for m in margins.values())

    rng = np.random.default_rng(20260803)
    fuzz_ok = True
    for _ in range(1000):
        spec = random_spec(rng)
        dsn = design(spec)
        if certify_double_integrator(spec, dsn).verdict != "certified":
            continue
        grid = certify_grid(
            plant, dsn.K, dsn.T, spec.hbar, (spec.lambda2, spec.lambdaN), grid=(64, 64)
        )
        if grid.verdict == "refuted":
            fuzz_ok = False
            break
    elapsed = time.perf_counter() - t0
    time_ok = elapsed < 30.0

    detail = (
        f"exact={exact_ok}, grid max sigma < 1: {grid_below_one}, "
        f"margins example1={margins['example1']:.2e} example2={margins['example2']:.2e} "
        f"(required > 1e-3), fuzz clean={fuzz_ok}, elapsed {elapsed:.1f}s"
    )
    ok = exact_ok and grid_below_one and margin_ok and fuzz_ok and time_ok
    report(3, "certificate soundness", ok, detail)
    assert exact_ok and grid_below_one and fuzz_ok and time_ok, detail
    # Unattainable as specified: the transformed map tends to the identity
    # as h -> 0, so with the grid's smallest h at hbar/500 the achievable
    # margin is -mu * hbar / 500, about 5e-5 / 8e-5 for the two designs.
    # Asserted as stated rather than silently weakened.
    assert margin_ok, (
        "500x500 grid margin clause cannot hold: sigma = 1 + h mu + O(h^2) as "
        "h -> 0, so the smallest interval hbar/500 leaves a margin of about "
        "-mu * hbar / 500, with mu = lambda_max((N + N^T)/2) and "
        "N = T^-1 (A - lambda B K) T at the binding band end: "
        + ", ".join(f"{k} {v:.2e}" for k, v in bounds.items())
        + f" (measured margins {margins})"
    )


def test_criterion_4_feasibility_consistency():
    rng = np.random.default_rng(20260804)
    skipped = 0
    equiv_ok = True
    dominance_ok = True
    for _ in range(10000):
        spec = random_spec(rng)
        mu1 = float(10.0 ** rng.uniform(-1.5, 2.0))
        mu2 = mu1 * float(10.0 ** rng.uniform(0.01, 2.0))
        lim = limits(spec, mu1, mu2)
        if lim.a + lim.d < lim.b * (1.0 - 1e-12):
            dominance_ok = False
            break
        if abs(lim.b - lim.c) <= 1e-12 * max(lim.b, lim.c):
            skipped += 1  # knife-edge tie within the stated tolerance
            continue
        if abstract_consistency(lim.a, lim.b, lim.c, lim.d) != is_feasible(spec, mu1, mu2):
            equiv_ok = False
            break
    ok = equiv_ok and dominance_ok and skipped < 10
    report(
        4,
        "feasibility consistency",
        ok,
        f"10000 draws, {skipped} knife-edge ties skipped",
    )
    assert ok


def test_criterion_5_discretization_exactness():
    rng = np.random.default_rng(20260805)
    plant = PlantModel.double_integrator()
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    worst_fast = 0.0
    worst_general = 0.0
    for _ in range(1000):
        h = float(rng.uniform(0.0, 10.0))
        if h == 0.0:
            continue
        F_exp = np.array([[1.0, h], [0.0, 1.0]])
        G_exp = np.array([[0.5 * h * h], [h]])
        F, G = plant.discretize(h)
        worst_fast = max(
            worst_fast,
            np.abs(F - F_exp).max(),
            np.abs(G - G_exp).max(),
        )
        # general matrix-exponential route: ulp-level agreement relative to
        # the entry scale (G entries reach 50 at h = 10)
        gen_gap = max(
            np.abs(expm(a, h) - F_exp).max(),
            (np.abs(expm_integral(a, b, h) - G_exp) / np.maximum(1.0, np.abs(G_exp))).max(),
        )
        worst_general = max(worst_general, gen_gap)
    fast_ok = worst_fast <= 1e-14
    general_ok = worst_general <= 1e-13

    rng2 = np.random.default_rng(20260806)
    worst_semigroup = 0.0
    for _ in range(300):
        n = int(rng2.integers(2, 5))
        m = rng2.standard_normal((n, n))
        h1, h2 = rng2.uniform(0.05, 1.5, size=2)
        scale = np.linalg.norm(m, 2) * (h1 + h2)
        if scale > 5.0:
            m *= 5.0 / scale
        gap = np.abs(expm(m, h1) @ expm(m, h2) - expm(m, h1 + h2)).max()
        worst_semigroup = max(worst_semigroup, gap)
    semigroup_ok = worst_semigroup <= 1e-10

    ok = fast_ok and general_ok and semigroup_ok
    report(
        5,
        "discretization exactness",
        ok,
        f"F,G worst {worst_fast:.1e} (general route {worst_general:.1e} rel), "
        f"semigroup worst {worst_semigroup:.1e}",
    )
    assert ok


def test_criterion_6_bound_dominance():
    rng = np.random.default_rng(20260807)
    scalar_ok = True
    for _ in range(10000):
        n = int(rng.integers(1, 7))
        m = rng.standard_normal((n, n))
        if rng.random() < 0.25:
            m = m + 1j * rng.standard_normal((n, n))
        if gershgorin_sv_bound(m) < max_singular_value(m) * (1.0 - 1e-12):
            scalar_ok = False
            break

    block_ok = True
    for _ in range(1000):
        nb = int(rng.integers(2, 4))
        grid = [[rng.standard_normal((2, 2)) for _ in range(nb)] for _ in range(nb)]
        assembled = np.block(grid)
        if block_gershgorin_sv_bound(grid) < max_singular_value(assembled) * (1.0 - 1e-12):
            block_ok = False
            break

    multiset_ok = True
    worst_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        minus, plus = complex_block_split(a, b)
        union = np.sort(
            np.concatenate(
                [
                    np.linalg.svd(minus, compute_uv=False),
                    np.linalg.svd(plus, compute_uv=False),
                ]
            )
        )
        embed = np.sort(
            np.linalg.svd(np.block([[a, -b], [b, a]]), compute_uv=False)
        )
        worst_gap = max(worst_gap, np.abs(embed - union).max())
    multiset_ok = worst_gap <= 1e-9

    ok = scalar_ok and block_ok and multiset_ok
    report(
        6,
        "bound dominance",
        ok,
        f"scalar 10^4, block 10^3, split multiset worst gap {worst_gap:.1e}",
    )
    assert ok


def test_criterion_7_convergence_envelope(regime_batches):
    details = []
    ok = True
    for name, (result, elapsed) in regime_batches.items():
        ratio = result.aggregate_delta[-1] / result.aggregate_delta[0]
        converged = ratio < 1e-3
        monotone = True
        for rec in result.records:
            nu = rec.nu
            active = nu[:-1] >= 1e-12
            if not np.all(nu[1:][active] < nu[:-1][active]):
                monotone = False
                break
        details.append(f"{name}: ratio {ratio:.2e}, monotone={monotone}, {elapsed:.0f}s")
        ok &= converged and monotone
    time_ok = regime_batches["example2"][1] < 120.0
    ok &= time_ok
    report(7, "convergence envelope", ok, "; ".join(details))
    assert ok, details


def test_criterion_8_step_form_equivalence(regime_batches):
    # every run must have been cross-checked: an unchecked run's gap is nan,
    # which max() could pass over, so each gap is compared on its own
    gaps = [rec.step_form_gap for result, _ in regime_batches.values() for rec in result.records]
    worst = max(gaps)
    ok = all(gap < 1e-12 for gap in gaps)
    report(8, "step-form equivalence", ok, f"worst gap {worst:.1e} over all steps")
    assert ok


def test_criterion_9_determinism(tmp_path):
    ok = True
    details = []
    for name in ("example1", "example2"):
        config = str(CONFIG_DIR / f"{name}.yaml")
        dirs = [tmp_path / f"{name}_{i}" for i in (0, 1)]
        for d in dirs:
            rc = cli.main(["simulate", "--config", config, "--out", str(d)])
            assert rc == cli.EXIT_OK
        same = all(
            (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
            for f in ("trajectories.csv", "aggregate.csv")
        )
        details.append(f"{name}: byte-identical={same}")
        ok &= same
    report(9, "determinism", ok, "; ".join(details))
    assert ok
