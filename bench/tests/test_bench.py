"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sdconsensus import certify, cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                      "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        report = json.loads(lines[-2])["report"]
        assert report["failed_ratio"] == {"value": 0.0, "unit": "ratio"}
        named = (
            ["certs_per_s", "certify_exact_tail_ms"]
            + [f"certify_{k}_p50_ms" for k in ("exact", "grid500", "general", "fixed")]
            if workload == "certify_stream"
            else ["agent_steps_per_s"]
        )
        assert all(report[name]["unit"] for name in named)


def test_corrupted_csv_copy_counts_as_failed(tmp_path, monkeypatch):
    wl = workloads.Ex1Simulate(3, tmp_path, short=True)
    wl.prepare()
    write = cli.write_aggregate_csv
    calls = []

    def write_then_corrupt(path, aggregate):
        write(path, aggregate)
        calls.append(path)
        if len(calls) == 2:
            with open(path, "a", encoding="utf-8") as f:
                f.write("corrupted\n")

    monkeypatch.setattr(cli, "write_aggregate_csv", write_then_corrupt)
    state = run.run_loop(wl, 0.0)
    assert (state["attempted"], state["failed"]) == (2, 1)
    assert "differs from the first batch" in state["failures"][0]


def test_tampered_certificate_counts_as_failed(tmp_path, monkeypatch):
    wl = workloads.CertifyStream(3, tmp_path, short=True)
    wl.prepare()
    grid = certify.certify_grid

    def tampered(*args, **kwargs):
        cert = grid(*args, **kwargs)
        return certify.ContractionCertificate(
            cert.verdict, cert.worst_sigma * (1.0 - 1e-6), cert.worst_point, cert.method,
            cert.grid_shape, cert.guard,
        )

    monkeypatch.setattr(certify, "certify_grid", tampered)
    state = run.run_loop(wl, 0.0)
    grid_requests = sum(n for k, n in workloads.SHORT_MIX.items() if k != "exact")
    assert state["failed"] == 2 * grid_requests
    assert state["attempted"] == 2 * sum(workloads.SHORT_MIX.values())


def test_tracer_self_time_and_restore():
    spans = {
        "names": np.array(list(tracing.TRACED_NAMES) + ["batch"]),
        "name_idx": np.array([len(tracing.TRACED_NAMES), 0, 1, 1], dtype=np.int32),
        "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0, 6.0]),
        "end": np.array([10.0, 5.0, 3.0, 8.0]),
        "work": np.zeros(4),
    }
    summary = tracing.summarize(spans)
    assert summary["batch"]["self_s"] == pytest.approx(4.0)
    assert summary[tracing.TRACED_NAMES[0]]["self_s"] == pytest.approx(3.0)
    assert summary[tracing.TRACED_NAMES[1]]["calls"] == 2

    from sdconsensus import sim

    originals = (sim.step, cli.run, certify.PlantModel.__dict__["discretize"])
    tracer = tracing.Tracer()
    tracer.install()
    assert sim.step is not originals[0] and cli.run is not originals[1]
    tracer.restore()
    assert (sim.step, cli.run, certify.PlantModel.__dict__["discretize"]) == originals


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, "--workload", "ex1_simulate", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_samples_and_restores_the_timer():
    import signal
    import time

    import calibrate

    before = signal.getsignal(signal.SIGALRM)
    probe = calibrate.SpeedProbe(interval=0.01)
    with probe:
        t0, w0 = time.perf_counter(), probe.work_clock()
        deadline = t0 + 0.2
        while time.perf_counter() < deadline:
            pass
        wall, work = time.perf_counter() - t0, probe.work_clock() - w0
    assert len(probe.samples) >= 2
    assert work == pytest.approx(wall - sum(probe.samples[1:]), abs=0.01)
    assert probe.scale() == pytest.approx(calibrate.NOMINAL_S / np.mean(probe.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
