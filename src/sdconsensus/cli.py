"""Command-line interface: gain design, certification, simulation, sweeps.

One YAML config file describes one reproducible experiment (plant, gain or
design parameters, topology pool, sampling bounds, schedule, batch seed,
output paths).  All randomness flows from the single master seed recorded in
the run manifest, and CSV output uses shortest round-trip float formatting
so identical configs produce byte-identical files.

Exit codes: 0 ok / certified, 1 refuted (or a failed convergence assertion),
2 usage or config error, 3 inconclusive certificate, 4 refusal to simulate
an uncertified gain without --force.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .certify import ContractionCertificate, PlantModel, certify_gain
from .graph import (
    GraphBandError,
    UnsupportedGraphError,
    WeightedDigraph,
    consensus_eigenvalues,
    has_spanning_tree,
    pool_band,
)
from .sim import (
    SimulationConfig,
    TopologyRecipe,
    UncertifiedGainError,
    run,
)
from .synthesis import DesignSpec, design, is_feasible

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_UNCERTIFIED = 4

_VERDICT_EXIT = {
    "certified": EXIT_OK,
    "refuted": EXIT_REFUTED,
    "inconclusive": EXIT_INCONCLUSIVE,
}


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# config handling


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        raw = yaml.safe_load(f)
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping")
    return raw


_TOP_LEVEL_KEYS = {
    "plant", "design", "gain", "topology", "sampling",
    "schedule", "batch", "init", "output", "certify",
}


def resolve_config(raw: dict) -> dict:
    """Fill defaults and normalize a raw config mapping.

    The result is a plain nested dict of JSON primitives, idempotent under
    re-resolution, so its digest does not depend on key order or on which
    defaults were spelled out in the file.
    """
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    plant = dict(raw.get("plant") or {})
    plant.setdefault("kind", "double_integrator")
    if plant["kind"] not in ("double_integrator", "general"):
        raise ConfigError(f"unknown plant kind {plant['kind']!r}")
    if plant["kind"] == "general":
        if "A" not in plant or "B" not in plant:
            raise ConfigError("general plant needs A and B matrices")
        plant["A"] = [[float(v) for v in row] for row in plant["A"]]
        plant["B"] = [[float(v) for v in row] for row in plant["B"]]

    sampling = dict(raw.get("sampling") or {})
    if "hbar" not in sampling:
        raise ConfigError("sampling.hbar is required")
    sampling["hbar"] = float(sampling["hbar"])
    if sampling["hbar"] <= 0.0:
        raise ConfigError("sampling.hbar must be positive")
    sampling["h_min"] = float(sampling.get("h_min", sampling["hbar"] * 1e-3))

    dsn = raw.get("design")
    gain = raw.get("gain")
    if dsn is not None and gain is not None:
        raise ConfigError("give either design or gain, not both")
    if dsn is not None:
        dsn = dict(dsn)
        if "lambda2" not in dsn or "lambdaN" not in dsn:
            raise ConfigError("design needs lambda2 and lambdaN")
        dsn = {"lambda2": float(dsn["lambda2"]), "lambdaN": float(dsn["lambdaN"])}
    if gain is not None:
        gain = dict(gain)
        if "K" not in gain:
            raise ConfigError("gain needs the feedback matrix K")
        out_gain = {"K": [[float(v) for v in row] for row in gain["K"]]}
        if gain.get("T") is not None:
            out_gain["T"] = [[float(v) for v in row] for row in gain["T"]]
        else:
            out_gain["T"] = None
        gain = out_gain

    topology = raw.get("topology")
    if topology is not None:
        topology = dict(topology)
        if ("graphs" in topology) == ("random" in topology):
            raise ConfigError("topology needs exactly one of graphs or random")
        if "graphs" in topology:
            topology = {"graphs": [str(p) for p in topology["graphs"]]}
            if not topology["graphs"]:
                raise ConfigError("topology.graphs must not be empty")
        else:
            recipe = dict(topology["random"])
            if "agents" not in recipe or "lambda_band" not in recipe:
                raise ConfigError("topology.random needs agents and lambda_band")
            band = [float(v) for v in recipe["lambda_band"]]
            if len(band) != 2:
                raise ConfigError("lambda_band must be [lo, hi]")
            topology = {
                "random": {
                    "agents": int(recipe["agents"]),
                    "lambda_band": band,
                    "pool_size": int(recipe.get("pool_size", 4)),
                    "seed": (None if recipe.get("seed") is None else int(recipe["seed"])),
                    "edge_prob": float(recipe.get("edge_prob", 0.3)),
                }
            }

    schedule = dict(raw.get("schedule") or {})
    schedule = {
        "steps": int(schedule.get("steps", 1000)),
        "switch_period": (
            None
            if schedule.get("switch_period") is None
            else int(schedule["switch_period"])
        ),
    }

    batch = dict(raw.get("batch") or {})
    batch = {"runs": int(batch.get("runs", 100)), "seed": int(batch.get("seed", 0))}

    init = dict(raw.get("init") or {})
    bounds = init.get("bounds", [[-10.0, 10.0], [-1.0, 1.0]])
    init = {"bounds": [[float(lo), float(hi)] for lo, hi in bounds]}

    output = dict(raw.get("output") or {})
    output = {
        "dir": str(output.get("dir", "out")),
        "full_state": bool(output.get("full_state", False)),
    }

    certify_sec = dict(raw.get("certify") or {})
    mode = certify_sec.get("mode", "band")
    if mode not in ("band", "fixed"):
        raise ConfigError(f"unknown certify mode {mode!r}")
    certify_sec = {
        "mode": mode,
        "grid": [int(v) for v in certify_sec.get("grid", [200, 200])],
        "guard": float(certify_sec.get("guard", 1e-6)),
    }

    return {
        "plant": plant,
        "design": dsn,
        "gain": gain,
        "topology": topology,
        "sampling": sampling,
        "schedule": schedule,
        "batch": batch,
        "init": init,
        "output": output,
        "certify": certify_sec,
    }


def serialize_config(resolved: dict) -> str:
    return yaml.safe_dump(resolved, sort_keys=True)


def config_digest(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# graph interchange files


def read_graph_file(path) -> WeightedDigraph:
    """Read the plain-text graph format.

    First non-comment line: the node count, optionally followed by the word
    ``symmetric``.  Each further line is ``i j w`` (1-based): a link of
    weight w carrying agent j's state to agent i.  Under ``symmetric`` each
    pair is listed once and installed in both directions.
    """
    lines = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            text = line.split("#", 1)[0].strip()
            if text:
                lines.append(text)
    if not lines:
        raise ConfigError(f"graph file {path} is empty")
    head = lines[0].split()
    n = int(head[0])
    symmetric = len(head) > 1 and head[1] == "symmetric"
    if len(head) > 1 and not symmetric:
        raise ConfigError(f"unexpected token {head[1]!r} in graph header")
    w = np.zeros((n, n))
    for text in lines[1:]:
        parts = text.split()
        if len(parts) != 3:
            raise ConfigError(f"bad edge line {text!r}, expected 'i j w'")
        i, j = int(parts[0]) - 1, int(parts[1]) - 1
        weight = float(parts[2])
        if not (0 <= i < n and 0 <= j < n):
            raise ConfigError(f"edge endpoints out of range in {text!r}")
        w[i, j] = weight
        if symmetric:
            w[j, i] = weight
    try:
        return WeightedDigraph(w)
    except ValueError as exc:
        raise ConfigError(f"invalid graph in {path}: {exc}") from exc


def write_graph_file(path, g: WeightedDigraph, symmetric: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{g.n} symmetric\n" if symmetric else f"{g.n}\n")
        w = g.weights
        for i in range(g.n):
            for j in range(g.n):
                if w[i, j] != 0.0 and (not symmetric or i < j):
                    f.write(f"{i + 1} {j + 1} {_fmt(w[i, j])}\n")


# ---------------------------------------------------------------------------
# config -> objects


def _build_plant(resolved: dict) -> PlantModel:
    plant = resolved["plant"]
    if plant["kind"] == "double_integrator":
        return PlantModel.double_integrator()
    return PlantModel.general(np.array(plant["A"]), np.array(plant["B"]))


def _load_pool(resolved: dict, base_dir: Path) -> list[WeightedDigraph]:
    paths = resolved["topology"]["graphs"]
    return [read_graph_file(base_dir / p) for p in paths]


def _build_topology(resolved: dict, base_dir: Path):
    """Returns (topology object for sim, n_agents)."""
    topo = resolved["topology"]
    if topo is None:
        raise ConfigError("topology section is required")
    if "random" in topo:
        r = topo["random"]
        recipe = TopologyRecipe(
            r["lambda_band"][0], r["lambda_band"][1],
            pool_size=r["pool_size"], seed=r["seed"], edge_prob=r["edge_prob"],
        )
        return recipe, r["agents"]
    pool = _load_pool(resolved, base_dir)
    sizes = {g.n for g in pool}
    if len(sizes) != 1:
        raise ConfigError(f"pool graphs disagree on node count: {sorted(sizes)}")
    return pool, pool[0].n


def _build_gain(resolved: dict) -> dict:
    """The gain as keyword arguments of SimulationConfig and certify_gain:
    a design, or a raw gain K with its transform T (None for the identity)."""
    if resolved["design"] is not None:
        if resolved["plant"]["kind"] != "double_integrator":
            raise ConfigError(
                "design synthesis only covers the double-integrator plant; "
                "give an explicit gain section for general dynamics"
            )
        spec = DesignSpec(
            resolved["sampling"]["hbar"],
            resolved["design"]["lambda2"],
            resolved["design"]["lambdaN"],
        )
        return {"design": design(spec)}
    if resolved["gain"] is not None:
        T = resolved["gain"]["T"]
        return {
            "gain": np.array(resolved["gain"]["K"]),
            "transform": None if T is None else np.array(T),
        }
    raise ConfigError("config needs a design or gain section")


def _certification_band(resolved: dict, base_dir: Path) -> tuple[float, float]:
    if resolved["design"] is not None:
        return resolved["design"]["lambda2"], resolved["design"]["lambdaN"]
    topo = resolved["topology"]
    if topo is None:
        raise ConfigError("no eigenvalue band available: give design or topology")
    if "random" in topo:
        lo, hi = topo["random"]["lambda_band"]
        return lo, hi
    try:
        return pool_band(_load_pool(resolved, base_dir))
    except UnsupportedGraphError as exc:
        raise ConfigError(
            f"topology.graphs: {exc} (use certify.mode: fixed for a single "
            "general digraph)"
        ) from exc


# ---------------------------------------------------------------------------
# output writers


def write_trajectories_csv(path, records) -> None:
    """One row per sampling instant per run; the terminal row of each run
    leaves h and topology empty (no step starts there)."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("run,k,t,h,topology,delta,nu\n")
        for rec in records:
            run = rec.run_id
            t, h, topo, delta, nu = (
                a.tolist() for a in (rec.t, rec.h, rec.topology, rec.delta, rec.nu)
            )
            f.writelines(
                f"{run},{k},{tk!r},{hk!r},{g},{d!r},{v!r}\n"
                for k, tk, hk, g, d, v in zip(range(len(h)), t, h, topo, delta, nu)
            )
            f.write(f"{run},{len(h)},{t[-1]!r},,,{delta[-1]!r},{nu[-1]!r}\n")


def write_aggregate_csv(path, aggregate) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("k,delta_max\n")
        values = np.asarray(aggregate, dtype=float).tolist()
        f.writelines(f"{k},{v!r}\n" for k, v in enumerate(values))


def write_states_csv(path, records) -> None:
    n_states = records[0].states.shape[2]
    cols = ",".join(f"x{c}" for c in range(n_states))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"run,k,agent,{cols}\n")
        for rec in records:
            for k, frame in enumerate(rec.states.tolist()):
                f.writelines(
                    f"{rec.run_id},{k},{agent},{','.join(map(repr, row))}\n"
                    for agent, row in enumerate(frame)
                )


def _write_report(path, cert: ContractionCertificate, extra: dict | None = None) -> None:
    payload = cert.to_dict()
    if extra:
        payload.update(extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_design(args) -> int:
    try:
        spec = DesignSpec(args.hbar, args.lambda2, args.lambdaN)
        dsn = design(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    K = dsn.K[0]
    print(f"mu1 = {_fmt(dsn.mu1)}")
    print(f"mu2 = {_fmt(dsn.mu2)}")
    print(f"k1  = {_fmt(dsn.k1)}  (rounded {round(dsn.k1, 4)})")
    print(f"k2  = {_fmt(dsn.k2)}  (rounded {round(dsn.k2, 4)})")
    print(f"T   = [[{_fmt(dsn.T[0, 0])}, {_fmt(dsn.T[0, 1])}], "
          f"[{_fmt(dsn.T[1, 0])}, {_fmt(dsn.T[1, 1])}]]")
    print(f"K   = [{_fmt(K[0])}, {_fmt(K[1])}]  "
          f"(rounded [{round(K[0], 4)}, {round(K[1], 4)}])")
    return EXIT_OK


def _certify_from_config(args) -> tuple[ContractionCertificate, dict]:
    cfg_path = Path(args.config)
    resolved = resolve_config(load_config(cfg_path))
    base_dir = cfg_path.parent
    plant = _build_plant(resolved)
    gain = _build_gain(resolved)
    if resolved["certify"]["mode"] == "fixed":
        topo = resolved["topology"]
        if topo is None or "graphs" not in topo or len(topo["graphs"]) != 1:
            raise ConfigError("fixed mode needs topology.graphs with exactly one graph")
        g = read_graph_file(base_dir / topo["graphs"][0])
        if not has_spanning_tree(g):
            raise ConfigError("fixed-mode graph must have a spanning tree")
        lambdas = consensus_eigenvalues(g)
    else:
        lambdas = _certification_band(resolved, base_dir)
    cert = certify_gain(
        plant, resolved["sampling"]["hbar"], lambdas,
        tuple(resolved["certify"]["grid"]), resolved["certify"]["guard"], **gain,
    )
    return cert, {"config_digest": config_digest(resolved)}


def cmd_certify(args) -> int:
    try:
        if args.config is not None:
            cert, extra = _certify_from_config(args)
        else:
            if None in (args.hbar, args.lambda2, args.lambdaN):
                print(
                    "error: give --config or all of --hbar --lambda2 --lambdaN",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            spec = DesignSpec(args.hbar, args.lambda2, args.lambdaN)
            cert = certify_gain(
                PlantModel.double_integrator(), spec.hbar, (spec.lambda2, spec.lambdaN),
                design=design(spec),
            )
            extra = {}
    except (ConfigError, ValueError, TypeError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.report is not None:
        _write_report(args.report, cert, extra)
    lam = complex(cert.worst_point[1])
    lam_text = _fmt(lam.real) if lam.imag == 0.0 else str(lam)
    print(
        f"verdict: {cert.verdict} (method {cert.method}); worst sigma "
        f"{_fmt(cert.worst_sigma)} at h={_fmt(cert.worst_point[0])}, "
        f"lambda={lam_text}; margin {_fmt(cert.margin)}"
    )
    return _VERDICT_EXIT[cert.verdict]


def cmd_simulate(args) -> int:
    t_start = time.perf_counter()
    try:
        cfg_path = Path(args.config)
        resolved = resolve_config(load_config(cfg_path))
        base_dir = cfg_path.parent
        plant = _build_plant(resolved)
        gain = _build_gain(resolved)
        topology, n_agents = _build_topology(resolved, base_dir)
        config = SimulationConfig(
            n_agents=n_agents,
            plant=plant,
            hbar=resolved["sampling"]["hbar"],
            h_min=resolved["sampling"]["h_min"],
            steps=resolved["schedule"]["steps"],
            switch_period=resolved["schedule"]["switch_period"],
            runs=resolved["batch"]["runs"],
            seed=resolved["batch"]["seed"],
            topology=topology,
            init_bounds=tuple(tuple(b) for b in resolved["init"]["bounds"]),
            record_states=resolved["output"]["full_state"],
            **gain,
        )
    except (ConfigError, ValueError, TypeError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = run(config, force=args.force)
    except UncertifiedGainError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        if args.report is not None:
            _write_report(args.report, exc.certificate)
        return EXIT_UNCERTIFIED
    except GraphBandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.out) if args.out is not None else Path(resolved["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "trajectories": out_dir / "trajectories.csv",
        "aggregate": out_dir / "aggregate.csv",
        "manifest": out_dir / "manifest.json",
    }
    write_trajectories_csv(paths["trajectories"], result.records)
    write_aggregate_csv(paths["aggregate"], result.aggregate_delta)
    if resolved["output"]["full_state"]:
        paths["states"] = out_dir / "states.csv"
        write_states_csv(paths["states"], result.records)
    manifest = {
        "tool": "sdconsensus",
        "version": __version__,
        "config_digest": config_digest(resolved),
        "master_seed": resolved["batch"]["seed"],
        "band": list(result.band),
        "certificate": result.certificate.to_dict() if result.certificate else None,
        "outputs": {k: str(v) for k, v in paths.items()},
        "runs": resolved["batch"]["runs"],
        "steps": resolved["schedule"]["steps"],
        "elapsed_seconds": time.perf_counter() - t_start,
    }
    with open(paths["manifest"], "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")

    initial = result.aggregate_delta[0]
    final = result.aggregate_delta[-1]
    ratio = final / initial if initial > 0 else 0.0
    print(
        f"completed {resolved['batch']['runs']} runs x "
        f"{resolved['schedule']['steps']} steps; aggregate disagreement "
        f"{_fmt(initial)} -> {_fmt(final)} (ratio {ratio:.3e})"
    )
    if args.assert_convergence is not None and ratio > args.assert_convergence:
        print(
            f"convergence assertion failed: ratio {ratio:.3e} > "
            f"{args.assert_convergence:.3e}",
            file=sys.stderr,
        )
        return EXIT_REFUTED
    return EXIT_OK


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    if n < 1 or hi < lo:
        raise ConfigError("axis needs lo <= hi and at least one point")
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, n)


def cmd_sweep(args) -> int:
    try:
        hbars = _axis(*args.hbar_axis[:2], int(args.hbar_axis[2]))
        ratios = _axis(*args.ratio_axis[:2], int(args.ratio_axis[2]))
        if np.any(ratios < 1.0):
            raise ConfigError("band ratios below one are meaningless")
        if (args.mu1 is None) != (args.mu2 is None):
            raise ConfigError("give both --mu1 and --mu2 or neither")
        grid = (int(args.grid[0]), int(args.grid[1]))
        if min(grid) < 1:
            raise ConfigError("grid needs at least one sample per axis")
        cells = []
        for hbar in hbars:
            for ratio in ratios:
                spec = DesignSpec(float(hbar), args.lambda2, args.lambda2 * float(ratio))
                dsn = design(spec)
                mu = (dsn.mu1, dsn.mu2) if args.mu1 is None else (args.mu1, args.mu2)
                cells.append((ratio, spec, dsn, is_feasible(spec, *mu)))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    plant = PlantModel.double_integrator()
    lines = ["hbar,ratio,lambda2,lambdaN,feasible,k1,k2,K1,K2,verdict,margin"]
    for ratio, spec, dsn, feasible in cells:
        cert = certify_gain(plant, spec.hbar, (spec.lambda2, spec.lambdaN), grid, design=dsn)
        lines.append(
            f"{_fmt(spec.hbar)},{_fmt(ratio)},{_fmt(spec.lambda2)},{_fmt(spec.lambdaN)},"
            f"{int(feasible)},{_fmt(dsn.k1)},{_fmt(dsn.k2)},"
            f"{_fmt(dsn.K[0, 0])},{_fmt(dsn.K[0, 1])},{cert.verdict},{_fmt(cert.margin)}"
        )
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdconsensus",
        description="Sampled-data consensus toolkit for double-integrator agents",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="compute a gain from hbar and the eigenvalue band")
    p.add_argument("--hbar", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--lambdaN", type=float, required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("certify", help="certify a gain over an (h, lambda) region")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--lambdaN", type=float, default=None)
    p.add_argument("--report", type=str, default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="run a seeded batch described by a config file")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, default=None, help="override output.dir")
    p.add_argument("--force", action="store_true",
                   help="simulate even when the gain is not certified")
    p.add_argument("--assert-convergence", type=float, default=None, metavar="R",
                   help="exit nonzero unless final aggregate delta <= R * initial")
    p.add_argument("--report", type=str, default=None,
                   help="where to write the certificate on refusal")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="feasibility and margin map over (hbar, band ratio)")
    p.add_argument("--hbar-axis", type=float, nargs=3, required=True,
                   metavar=("LO", "HI", "N"))
    p.add_argument("--ratio-axis", type=float, nargs=3, required=True,
                   metavar=("LO", "HI", "N"))
    p.add_argument("--lambda2", type=float, default=1.0)
    p.add_argument("--mu1", type=float, default=None,
                   help="fixed transform parameter for the feasibility column")
    p.add_argument("--mu2", type=float, default=None)
    p.add_argument("--grid", type=int, nargs=2, default=(100, 100),
                   metavar=("NH", "NL"))
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
