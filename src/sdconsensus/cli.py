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
import math
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .certify import ContractionCertificate, PlantModel, certify_gain
from .graph import WeightedDigraph, consensus_eigenvalues, has_spanning_tree
from .sim import (
    H_MIN_FRACTION,
    SimulationConfig,
    TopologyRecipe,
    UncertifiedGainError,
    _topology_band,
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
        try:
            raw = yaml.safe_load(f)
        except RecursionError:
            # yaml composes nested nodes by recursion: deep nesting is bad input
            # here, while a RecursionError anywhere else is a bug
            raise ConfigError("config file nests too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping")
    return raw


_REQUIRED = object()  # a missing field is an error
_OMITTED = object()  # a missing field stays out of the resolved config


def _matrix(rows) -> list:
    return [[float(v) for v in row] for row in rows]


def _whole(value) -> int:
    # 2.5 and true are errors, not 2 and 1
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ConfigError(f"expected a whole number, got {value!r}")
    return int(value)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected true or false, got {value!r}")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected text, got {value!r}")
    return value


def _choice(*options):
    """Coercion of a text field that takes one of ``options``."""
    def choice(value) -> str:
        if not (isinstance(value, str) and value in options):
            raise ConfigError(f"expected one of {list(options)}, got {value!r}")
        return value
    return choice


def _list(coerce):
    """Coercion of a list whose entries go through ``coerce``."""
    def items(values) -> list:
        if not isinstance(values, list):
            raise ConfigError(f"expected a list, got {values!r}")
        return [coerce(v) for v in values]
    return items


def _pair(coerce):
    """Coercion of a two-element list whose entries go through ``coerce``."""
    def pair(values) -> list:
        if not isinstance(values, list) or len(values) != 2:
            raise ConfigError(f"expected a pair [a, b], got {values!r}")
        return [coerce(v) for v in values]
    return pair


# section -> field -> (coercion, default).  A dict in place of a coercion is
# the field table of a nested mapping; a null value counts as missing.
_SCHEMA = {
    "plant": ({
        "kind": (_choice("double_integrator", "general"), "double_integrator"),
        "A": (_matrix, _OMITTED),
        "B": (_matrix, _OMITTED),
    }, {}),
    "design": ({"lambda2": (float, _REQUIRED), "lambdaN": (float, _REQUIRED)}, None),
    "gain": ({"K": (_matrix, _REQUIRED), "T": (_matrix, None)}, None),
    "topology": ({
        "graphs": (_list(_text), _OMITTED),
        "random": ({
            "agents": (_whole, _REQUIRED),
            "lambda_band": (_pair(float), _REQUIRED),
            "pool_size": (_whole, 4),
            "seed": (_whole, None),
            "edge_prob": (float, 0.3),
        }, _OMITTED),
    }, None),
    "sampling": ({"hbar": (float, _REQUIRED), "h_min": (float, _OMITTED)}, {}),
    "schedule": ({"steps": (_whole, 1000), "switch_period": (_whole, None)}, {}),
    "batch": ({"runs": (_whole, 100), "seed": (_whole, 0)}, {}),
    "init": ({
        "bounds": (_list(_pair(float)), [[-10.0, 10.0], [-1.0, 1.0]]),
    }, {}),
    "output": ({"dir": (_text, "out"), "full_state": (_flag, False)}, {}),
    "certify": ({"mode": (_choice("band", "fixed"), "band")}, {}),
}


def _fill(fields: dict, raw, prefix: str = "") -> dict:
    """Coerce the fields of one mapping, fill defaults, reject missing
    required fields and unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'} must be a mapping")
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(prefix + str(k) for k in unknown)}")
    out = {}
    for key, (coerce, default) in fields.items():
        value = raw.get(key)
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"{prefix}{key} is required")
            if default is _OMITTED:
                continue
            value = default
        if value is None:
            out[key] = None
        elif isinstance(coerce, dict):
            out[key] = _fill(coerce, value, f"{prefix}{key}.")
        else:
            try:
                out[key] = coerce(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{prefix}{key}: {exc}") from exc
    return out


def resolve_config(raw: dict) -> dict:
    """Fill defaults and normalize a raw config mapping.

    The result is a plain nested dict of JSON primitives, idempotent under
    re-resolution, so its digest does not depend on key order or on which
    defaults were spelled out in the file.  It rejects only the file's shape,
    field types and section choices; the objects built from it check values.
    """
    resolved = _fill(_SCHEMA, raw)
    plant, sampling, topology = resolved["plant"], resolved["sampling"], resolved["topology"]
    if plant["kind"] == "general" and ("A" not in plant or "B" not in plant):
        raise ConfigError("general plant needs A and B matrices")
    sampling.setdefault("h_min", sampling["hbar"] * H_MIN_FRACTION)
    if (resolved["design"] is None) == (resolved["gain"] is None):
        raise ConfigError("config needs exactly one of a design or a gain section")
    if topology is not None and ("graphs" in topology) == ("random" in topology):
        raise ConfigError("topology needs exactly one of graphs or random")
    return resolved


def config_digest(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# graph interchange files


def read_graph_file(path) -> WeightedDigraph:
    """Read the plain-text graph format.

    First non-comment line: the node count, optionally followed by the word
    ``symmetric``.  Each further line is ``i j w`` (1-based): a link of
    finite weight w >= 0 carrying agent j's state to agent i != j.  Under
    ``symmetric`` each pair is listed once and installed in both directions.
    A link listed twice (under ``symmetric``, as ``i j`` and ``j i`` too) is
    an error.  Every error names the file and its line.
    """
    lines = []
    with open(path, "r", encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            text = line.split("#", 1)[0].strip()
            if text:
                lines.append((number, text))
    if not lines:
        raise ConfigError(f"graph file {path} is empty")
    number, text = lines[0]
    head = text.split()
    try:
        n = int(head[0])
    except ValueError:
        n = None
    if n is None or n < 1 or head[1:] not in ([], ["symmetric"]):
        raise ConfigError(
            f"{path}, line {number}: bad header {text!r}, expected 'n' or 'n symmetric'"
        )
    symmetric = len(head) == 2
    edges, first_line = [], {}
    for number, text in lines[1:]:
        try:
            i, j, weight = text.split()
            edge = (int(i) - 1, int(j) - 1, float(weight))
        except ValueError:
            raise ConfigError(
                f"{path}, line {number}: bad edge {text!r}, expected 'i j w'"
            ) from None
        if not (0 <= edge[0] < n and 0 <= edge[1] < n):
            raise ConfigError(f"{path}, line {number}: edge endpoints out of range in {text!r}")
        if edge[0] == edge[1]:
            raise ConfigError(f"{path}, line {number}: self-loop in {text!r}")
        if not (math.isfinite(edge[2]) and edge[2] >= 0.0):
            raise ConfigError(
                f"{path}, line {number}: weight must be finite and nonnegative in {text!r}"
            )
        link = tuple(sorted(edge[:2])) if symmetric else edge[:2]
        if link in first_line:
            raise ConfigError(
                f"{path}, lines {first_line[link]} and {number}: link {i} {j} is given twice"
            )
        first_line[link] = number
        edges.append(edge)
    return WeightedDigraph.from_edges(n, edges, symmetric)


# ---------------------------------------------------------------------------
# config -> objects


def _build_plant(resolved: dict) -> PlantModel:
    plant = resolved["plant"]
    if plant["kind"] == "double_integrator":
        return PlantModel.double_integrator()
    return PlantModel.general(np.array(plant["A"]), np.array(plant["B"]))


def _build_topology(resolved: dict, base_dir: Path):
    """(topology object for sim, n_agents), or (None, None) without one."""
    topo = resolved["topology"]
    if topo is None:
        return None, None
    if "random" in topo:
        r = topo["random"]
        recipe = TopologyRecipe(
            r["lambda_band"][0], r["lambda_band"][1],
            pool_size=r["pool_size"], seed=r["seed"], edge_prob=r["edge_prob"],
        )
        return recipe, r["agents"]
    # the pool rule (not empty, one node count, ...) is graph.pool_band's
    pool = [read_graph_file(base_dir / p) for p in topo["graphs"]]
    return pool, pool[0].n if pool else 0


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
    T = resolved["gain"]["T"]
    return {
        "gain": np.array(resolved["gain"]["K"]),
        "transform": None if T is None else np.array(T),
    }


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


def _write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_design(args) -> int:
    dsn = design(DesignSpec(args.hbar, args.lambda2, args.lambdaN))
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


def _certify_from_config(path) -> tuple[ContractionCertificate, dict]:
    """The certificate of a config's gain.  Fixed mode takes the exact
    eigenvalues of its single graph; band mode takes the band that
    ``simulate`` certifies, and the design band only without a topology."""
    resolved = resolve_config(load_config(path))
    topology, _ = _build_topology(resolved, Path(path).parent)
    if resolved["certify"]["mode"] == "fixed":
        if not isinstance(topology, list) or len(topology) != 1:
            raise ConfigError("fixed mode needs topology.graphs with exactly one graph")
        if topology[0].n < 2:
            raise ConfigError("fixed-mode graph needs at least two nodes")
        if not has_spanning_tree(topology[0]):
            raise ConfigError("fixed-mode graph must have a spanning tree")
        lambdas = consensus_eigenvalues(topology[0])
    elif topology is not None:
        lambdas = _topology_band(topology)
    elif resolved["design"] is not None:
        lambdas = (resolved["design"]["lambda2"], resolved["design"]["lambdaN"])
    else:
        raise ConfigError("no eigenvalue band available: give design or topology")
    cert = certify_gain(
        _build_plant(resolved), resolved["sampling"]["hbar"], lambdas, **_build_gain(resolved)
    )
    return cert, {"config_digest": config_digest(resolved)}


def cmd_certify(args) -> int:
    inline = (args.hbar, args.lambda2, args.lambdaN)
    if args.config is not None:
        if inline != (None, None, None):
            raise ConfigError("give --config or --hbar --lambda2 --lambdaN, not both")
        cert, extra = _certify_from_config(args.config)
    elif None in inline:
        raise ConfigError("give --config or all of --hbar --lambda2 --lambdaN")
    else:
        spec = DesignSpec(args.hbar, args.lambda2, args.lambdaN)
        cert = certify_gain(
            PlantModel.double_integrator(), spec.hbar, (spec.lambda2, spec.lambdaN),
            design=design(spec),
        )
        extra = {}
    if args.report is not None:
        _write_json(args.report, {**cert.to_dict(), **extra})
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
    bound = args.assert_convergence
    if bound is not None and not (math.isfinite(bound) and bound >= 0.0):
        raise ConfigError("--assert-convergence needs a finite R >= 0")
    resolved = resolve_config(load_config(args.config))
    plant = _build_plant(resolved)
    gain = _build_gain(resolved)
    topology, n_agents = _build_topology(resolved, Path(args.config).parent)
    if topology is None:
        raise ConfigError("topology section is required")
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
    t_built = time.perf_counter()
    try:
        result = run(config, force=args.force)
    except UncertifiedGainError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        if args.report is not None:
            _write_json(args.report, exc.certificate.to_dict())
        return EXIT_UNCERTIFIED

    t_ran = time.perf_counter()
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
    timings = {
        "resolve": t_built - t_start,
        **result.timings,
        "write": time.perf_counter() - t_ran,
    }
    manifest = {
        "tool": "sdconsensus",
        "version": __version__,
        "config_digest": config_digest(resolved),
        "master_seed": resolved["batch"]["seed"],
        "band": list(result.band),
        "certificate": result.certificate.to_dict(),
        "outputs": {k: str(v) for k, v in paths.items()},
        "runs": resolved["batch"]["runs"],
        "steps": resolved["schedule"]["steps"],
        "timings": timings,
        "elapsed_seconds": time.perf_counter() - t_start,
    }
    _write_json(paths["manifest"], manifest)

    initial = result.aggregate_delta[0]
    final = result.aggregate_delta[-1]
    ratio = final / initial if initial > 0 else 0.0
    print(
        f"completed {resolved['batch']['runs']} runs x "
        f"{resolved['schedule']['steps']} steps; aggregate disagreement "
        f"{_fmt(initial)} -> {_fmt(final)} (ratio {ratio:.3e})"
    )
    # a NaN ratio (a diverged batch) fails too
    if bound is not None and not ratio <= bound:
        print(
            f"convergence assertion failed: ratio {ratio:.3e} is not <= {bound:.3e}",
            file=sys.stderr,
        )
        return EXIT_REFUTED
    return EXIT_OK


def _axis(name: str, lo: float, hi: float, n: float) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{name} needs finite lo and hi, got {lo!r} and {hi!r}")
    if n % 1:
        raise ConfigError(f"{name} needs a whole number of points, got {n!r}")
    if not (1 <= n <= 10**6 and lo <= hi):
        raise ConfigError(
            f"{name} needs lo <= hi and 1 to 1000000 points, got {lo!r}, {hi!r}, {n!r}"
        )
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, int(n))


def cmd_sweep(args) -> int:
    hbars = _axis("--hbar-axis", *args.hbar_axis)
    ratios = _axis("--ratio-axis", *args.ratio_axis)
    if (args.mu1 is None) != (args.mu2 is None):
        raise ConfigError("give both --mu1 and --mu2 or neither")
    plant = PlantModel.double_integrator()
    lines = ["hbar,ratio,lambda2,lambdaN,feasible,k1,k2,K1,K2,verdict,margin"]
    for hbar in hbars:
        for ratio in ratios:
            spec = DesignSpec(float(hbar), args.lambda2, args.lambda2 * float(ratio))
            dsn = design(spec)
            mu = (dsn.mu1, dsn.mu2) if args.mu1 is None else (args.mu1, args.mu2)
            feasible = is_feasible(spec, *mu)
            cert = certify_gain(plant, spec.hbar, (spec.lambda2, spec.lambdaN), design=dsn)
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
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


# unusable input in any command: exit 2 with a one-line message, no traceback
# (ConfigError, UnsupportedGraphError and GraphBandError are ValueErrors); a
# MemoryError is a config asking for more memory than the machine has
_USAGE_ERRORS = (ValueError, TypeError, OSError, MemoryError, yaml.YAMLError)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
