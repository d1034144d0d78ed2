"""sdconsensus benchmark: one workload, one closed loop, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src`` directory.  One client in one process calls the package; each batch
starts only when the previous one has returned.  Batches repeat until
``--seconds`` have passed (at least two, so the second can be compared with
the first).  Every batch's outputs are checked, and a failed check counts
against ``attempted`` like an operation that raised.

With ``--trace 0`` the end-to-end metrics are reported; tracing is off.
Their times are calibrated to the host's speed while they were measured
(see ``calibrate.py``): a shared host drifts by a quarter over minutes, and
the calibrated times do not.  The report line holds the wall times too.
With ``--trace 1`` untraced and traced batches alternate: the traced ones
give per-layer call counts and self times (spans recorded around the
package's public functions from outside), the pairs give the tracing
overhead, and the layer probes run once at the end.

The last stdout line is the result object; the two lines before it hold the
run record (machine, versions, commit, source line counts) and the full
report of the workload's own metrics, failed_ratio included.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "out"
SETUP_REPEATS = 7
MIN_BATCHES = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metrics shared by every workload: name -> unit
END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# the blocking steps of the simulation workloads
BLOCKING_PREFIXES = ("sim.", "certify.discretize", "cli.write_")


def pin_to_one_cpu() -> int | None:
    """Pin this process, and the processes it starts, to its first allowed CPU.

    Virtual CPUs of a shared host can differ in speed by a third, and a
    process the scheduler moves between them changes speed mid-batch; one
    fixed CPU keeps batches of one run, and runs of one machine, comparable.
    """
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # affinity is fixed by the environment; run unpinned
        return None
    return cpu


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the processors this process may use."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < cap:
            cap = int(current)
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    from probes import PROBE_NAMES
    from tracing import TRACED_NAMES

    units = {}
    for name in TRACED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "sim.steps": "count",
        "certify.certify_double_integrator.ms": "ms",
        "certify.certify_grid.ms": "ms",
        "certify.grid_cells_per_s": "1/s",
        "numerics.sv_matrices": "count",
        "synthesis.design.us": "us",
        "graph.pool_accept_ratio": "ratio",
        "graph.consensus_eigenvalues.ms": "ms",
        "cli.resolve_config.ms": "ms",
        "cli.write_trajectories_csv.s": "s",
        "cli.write_aggregate_csv.ms": "ms",
        "cli.csv_bytes": "B",
        "trace.batch_s": "s",
        "trace.blocking_self_share": "ratio",
        "trace_overhead_ratio": "ratio",
    })
    for name in PROBE_NAMES:
        units[name] = name.rsplit(".", 1)[1]
    return units


def layer_metrics(summary: dict, batch_s: float, csv_bytes: int) -> dict:
    """Per-layer values of one traced batch."""
    import numpy as np

    def median_call(name: str, scale: float) -> float:
        durations = summary[name]["durations"]
        return float(np.median(durations)) * scale if len(durations) else 0.0

    out = {}
    for name in summary:
        if name != "batch":
            out[f"{name}.calls"] = summary[name]["calls"]
            out[f"{name}.self_s"] = summary[name]["self_s"]
    grid = summary["certify.certify_grid"]
    tries = summary["graph.spectrum"]["calls_in_pool"]
    blocking = sum(
        v["self_s"] for name, v in summary.items() if name.startswith(BLOCKING_PREFIXES)
    )
    out.update({
        "sim.steps": summary["sim.step"]["calls"],
        "certify.certify_double_integrator.ms": median_call("certify.certify_double_integrator", 1e3),
        "certify.certify_grid.ms": median_call("certify.certify_grid", 1e3),
        "certify.grid_cells_per_s": grid["work"] / grid["total_s"] if grid["calls"] else 0.0,
        "numerics.sv_matrices": summary["numerics.max_singular_values"]["work"],
        "synthesis.design.us": median_call("synthesis.design", 1e6),
        "graph.pool_accept_ratio": (
            summary["graph.random_balanced_graph"]["calls"] / tries if tries else 0.0
        ),
        "graph.consensus_eigenvalues.ms": median_call("graph.consensus_eigenvalues", 1e3),
        "cli.resolve_config.ms": median_call("cli.resolve_config", 1e3),
        "cli.write_trajectories_csv.s": median_call("cli.write_trajectories_csv", 1.0),
        "cli.write_aggregate_csv.ms": median_call("cli.write_aggregate_csv", 1e3),
        "cli.csv_bytes": csv_bytes,
        "trace.batch_s": batch_s,
        "trace.blocking_self_share": blocking / batch_s,
    })
    return out


def tail(values: list) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run_record(args, pinned_cpu: int | None, blas_threads: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    lines = {
        p.name: len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "sdconsensus").glob("*.py"))
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_lines": lines,
        "source_lines_total": sum(lines.values()),
    }


def measure_setup(args) -> list[tuple[float, float]]:
    """(wall, calibrated) seconds of fresh processes that import the package,
    build the workload's inputs and finish lazy first-call set-up."""
    from calibrate import calibrated_call

    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--short"] if args.short else [])
    times = []
    for _ in range(1 if args.short else SETUP_REPEATS):
        wall, cal, proc = calibrated_call(lambda: subprocess.run(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120, check=False))
        times.append((wall, cal))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return times


def run_loop(workload, seconds: float, tracer=None) -> dict:
    """Closed loop of batches until ``seconds`` have passed.

    With a tracer, odd batches are traced and even ones are not, and no
    batch is calibrated.  Without one, every batch runs under a speed probe.
    """
    from calibrate import SpeedProbe
    from tracing import summarize

    state = {"plain": [], "traced": [], "layers": [], "attempted": 0, "failed": 0,
             "failures": [], "outcomes": [], "spans": None}
    probe = SpeedProbe() if tracer is None else None
    clock = probe.work_clock if probe else time.perf_counter
    workload.clock = clock
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_BATCHES or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        inputs = workload.inputs(i)
        error = None
        if traced:
            tracer.clear()
            tracer.install()
        scope = tracer.batch_span() if traced else probe or contextlib.nullcontext()
        try:
            with scope:
                t0 = clock()
                try:
                    out = workload.execute(inputs)
                except Exception as exc:  # counted as failed; the loop goes on
                    out, error = None, f"{type(exc).__name__}: {exc}"
                dt = clock() - t0
        finally:
            if traced:
                tracer.restore()
        ops = workload.ops(inputs)
        failures = [error] if error else workload.check(inputs, out)
        state["attempted"] += ops
        state["failed"] += min(ops, len(failures))
        state["failures"].extend(f"batch {i}: {msg}" for msg in failures)
        if traced:
            state["traced"].append(dt)
            spans = tracer.arrays()
            state["layers"].append(layer_metrics(summarize(spans), dt, workload.csv_bytes()))
            state["spans"] = spans
        else:
            scale = probe.scale() if probe else 1.0
            state["plain"].append((dt, dt * scale, workload.items))
            if isinstance(out, list):  # per-request outcomes of certify_stream
                state["outcomes"].extend((o["kind"], o["seconds"] * scale) for o in out)
        i += 1
    return state


def end_to_end(state: dict, setup: list, workload_name: str) -> tuple[dict, dict]:
    """Contract metrics and the workload's full report."""
    batch = [cal for _, cal, _ in state["plain"]]
    rates = [items / cal for _, cal, items in state["plain"]]
    metrics = {
        "setup_s": statistics.median(cal for _, cal in setup),
        "batch_s": statistics.median(batch),
        "throughput_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "setup_s": {"value": metrics["setup_s"], "unit": "s",
                    "samples": [cal for _, cal in setup],
                    "wall_samples": [wall for wall, _ in setup]},
        "batch_s": {"value": metrics["batch_s"], "unit": "s", "samples": batch,
                    "wall_samples": [wall for wall, _, _ in state["plain"]]},
        "peak_rss_mb": {"value": metrics["peak_rss_mb"], "unit": "MB"},
        "failed_ratio": {"value": state["failed"] / state["attempted"], "unit": "ratio"},
    }
    if workload_name == "certify_stream":
        report["certs_per_s"] = {
            "value": sum(items for _, _, items in state["plain"]) / sum(batch), "unit": "1/s"
        }
        for kind in ("exact", "grid500", "general", "fixed"):
            ms = [seconds * 1e3 for k, seconds in state["outcomes"] if k == kind]
            report[f"certify_{kind}_p50_ms"] = {
                "value": statistics.median(ms), "unit": "ms", "samples": len(ms)
            }
            if kind == "exact":
                value, pct, n = tail(ms)
                report["certify_exact_tail_ms"] = {
                    "value": value, "unit": "ms", "percentile": pct, "samples": n
                }
    else:
        report["agent_steps_per_s"] = {"value": metrics["throughput_per_s"], "unit": "1/s"}
    return metrics, report


def per_layer(state: dict, seed: int) -> dict:
    from probes import run_probes

    names = per_layer_units()
    values = {
        name: statistics.median(layer[name] for layer in state["layers"])
        for name in state["layers"][0]
    }
    values["trace_overhead_ratio"] = (
        statistics.median(state["traced"]) / statistics.median(dt for dt, _, _ in state["plain"])
    )
    values.update(run_probes(seed))
    missing = set(names) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics missing: {sorted(missing)}")
    return values


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="small batches, one set-up process: a quick smoke run")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sdconsensus" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no sdconsensus source tree at {ROOT}", file=sys.stderr)
        return 2
    pinned_cpu = pin_to_one_cpu()
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import sdconsensus
    from tracing import Tracer
    from workloads import WORKLOADS

    if Path(sdconsensus.__file__).resolve().parent != (SRC / "sdconsensus").resolve():
        print(f"error: imported sdconsensus from {sdconsensus.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, WORK, short=args.short)
    if args.setup_only:
        workload.prepare()
        return 0
    try:
        setup = [] if args.trace else measure_setup(args)
        workload.prepare()
        state = run_loop(workload, args.seconds, Tracer() if args.trace else None)
        record = run_record(args, pinned_cpu, blas_threads)
        if args.trace:
            values = per_layer(state, args.seed)
            units = per_layer_units()
            metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
            report = {"spans_file": str((WORK / f"spans_{args.workload}.npz").relative_to(ROOT))}
            import numpy as np

            WORK.mkdir(parents=True, exist_ok=True)
            np.savez_compressed(WORK / f"spans_{args.workload}.npz", **state["spans"])
        else:
            values, report = end_to_end(state, setup, args.workload)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
    report["failures"] = state["failures"][:20]
    print(json.dumps({"run_record": record}))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": state["failed"] == 0,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
