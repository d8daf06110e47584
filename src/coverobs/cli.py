"""Command line front end for the whole pipeline.

Subcommands mirror the library layering: ``net`` generates or inspects the
paired graphs, ``cover`` solves and audits estimation-set assignments,
``gains synth`` designs observer parameters, ``sim`` runs the closed loops
and sweeps, and ``pipeline`` chains all stages over one shared manifest.
Each stage is one function that its subcommand and ``pipeline`` both call,
so the two routes check, warn and compute alike.

Every file the tool writes carries the SHA-256 hash of its run manifest:
JSON documents embed a ``manifest_hash`` key, CSV files start with a
``# manifest_hash=...`` comment line above the header row.  Re-running a
command with identical inputs and seeds reproduces identical bytes.  Each
JSON file is read by its loader, through :mod:`coverobs.artifact`, and
checked against the files it is used with: cover and plant against the
network, design and controller against the plant.

Exit codes: 0 success, 1 numeric failure (divergence, infeasible design),
2 input error (bad flags, missing, unparsable or mismatched files).  A
reader that closes standard output early (``| head``) is not a failure:
exit 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .artifact import read_json, write_json
from .coverage import (
    CoverageError,
    dimension_stats,
    load_cover,
    pareto_local_audit,
    save_cover,
    solve,
)
from .gains import (
    ControllerGains,
    GainsError,
    check_poles,
    check_theta,
    load_controller,
    load_design,
    save_design,
    synthesize,
)
from .netgraph import (
    GraphError,
    check_generator,
    check_node_count,
    gen_random_pair,
    load_pair,
    save_pair,
    similarity,
    star_pair,
)
from .observer import ObserverError
from .plant import PlantError, build_microgrid, check_microgrid, load_plant, save_plant
from .simloop import (
    SimConfig,
    SimError,
    invariant_set_report,
    run_distributed,
    theta_sweep,
)

PAPER_GAMMA_STIFF_THETA = 10.0


class InputError(Exception):
    """User-facing input problem: maps to exit code 2."""


# ------------------------------------------------------------------ manifest

def _tool_versions() -> dict:
    return {
        "coverobs": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class RunManifest:
    """Reproducibility record shared by every artifact of one command."""

    command: str
    inputs: dict
    outputs: dict
    seeds: dict
    config: dict
    versions: dict = field(default_factory=_tool_versions)

    def body(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "seeds": self.seeds,
            "config": self.config,
            "versions": self.versions,
        }

    def digest(self) -> str:
        canon = json.dumps(self.body(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def write(self, path: str | Path) -> str:
        digest = self.digest()
        write_json(path, {**self.body(), "hash": digest})
        return digest


def _manifest_path(primary_out: Path) -> Path:
    return primary_out.with_name(primary_out.name + ".manifest.json")


# rows formatted per write: keeps the Python floats and strings alive at once
# to a few kB, so writing a result does not raise the peak memory of a run
CSV_CHUNK_ROWS = 16


def _write_csv(path: Path, header: list[str], columns, manifest_hash: str) -> None:
    """Write equal-length 1-D float or integer ``columns`` under ``header``,
    after a manifest-hash line.  A value is written as the ``repr`` of its
    Python scalar, so floats round-trip; rows end in ``\\r\\n``, as
    :mod:`csv` writes them."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# manifest_hash={manifest_hash}\n")
        fh.write(",".join(header) + "\r\n")
        for a in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            cells = (map(repr, c[a : a + CSV_CHUNK_ROWS].tolist()) for c in columns)
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*cells)))


def _write_result_csv(path: Path, result, manifest_hash: str) -> None:
    """One row per recorded time: t, the plant state, err_norm, sat_flag."""
    header = ["t"] + [f"x{k}" for k in range(1, result.x.shape[1] + 1)]
    _write_csv(
        path,
        header + ["err_norm", "sat_flag"],
        [result.t, *result.x.T, result.err_norm, result.sat_flags.astype(int)],
        manifest_hash,
    )


def _write_sweep_csv(path: Path, rows: list[dict], manifest_hash: str) -> None:
    """One row per theta of :func:`theta_sweep`."""
    header = ["theta", "mean_gap", "min_gap", "max_gap"]
    _write_csv(path, header, [[r[k] for r in rows] for k in header], manifest_hash)


def _emit_json(doc: dict, out: Path | None) -> None:
    if out is None:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        write_json(out, doc)


# ------------------------------------------------------------------- loading

# what the library raises for inputs it cannot use and for numeric failure;
# the CLI reports them as bad input when loading or checking, else as exit 1
LIBRARY_ERRORS = (
    GraphError, CoverageError, PlantError, GainsError, ObserverError, SimError,
)


def _load(what: str, loader, path: str, *context):
    """``loader(path, *context)``; a missing file, or one the loader rejects
    (unreadable, or not fitting ``context``), is bad input."""
    if not Path(path).exists():
        raise InputError(f"missing {what} file: {path}")
    try:
        return loader(path, *context)
    except LIBRARY_ERRORS as exc:
        raise InputError(f"cannot load {what} {exc}") from exc


def _checked(check, *args):
    """``check(*args)``, with a library error as bad input."""
    try:
        return check(*args)
    except LIBRARY_ERRORS as exc:
        raise InputError(str(exc)) from exc


def _load_controller(path: str | None, plant, pair) -> ControllerGains:
    if path is None:
        return ControllerGains(K_blocks={})
    return _load("controller", load_controller, path, plant, pair)


def _load_inputs(args):
    """The network, cover, plant, design (for the commands that take one)
    and controller files of ``args``, each checked by its loader against the
    ones before it, plus the manifest's ``inputs`` entry naming them."""
    pair = _load("network", load_pair, args.pair)
    assignment = _load("cover", load_cover, args.cover, pair)
    plant = _load("plant", load_plant, args.plant, pair)
    inputs = {
        "pair": args.pair,
        "cover": args.cover,
        "plant": args.plant,
        "controller": args.controller or "",
    }
    design = None
    if hasattr(args, "design"):
        design = _load("design", load_design, args.design, plant)
        inputs.update(design=args.design, config=args.config or "")
    controller = _load_controller(args.controller, plant, pair)
    return pair, assignment, plant, design, controller, inputs


SIM_CONFIG_KEYS = {f.name for f in fields(SimConfig)}


def _sim_config(**raw) -> SimConfig:
    try:
        if raw.get("x0") is not None:
            raw["x0"] = np.asarray(raw["x0"], dtype=float)
        return SimConfig(**raw)
    except (TypeError, ValueError, SimError) as exc:
        raise InputError(f"bad simulation config: {exc}") from exc


def _config_doc(doc) -> dict:
    if not isinstance(doc, dict):
        raise SimError("must hold a JSON object")
    unknown = set(doc) - SIM_CONFIG_KEYS
    if unknown:
        raise SimError(f"has unknown keys: {', '.join(sorted(unknown))}")
    return doc


def _load_config(path: str | None, force_flag: bool, plant) -> SimConfig:
    """The run's config; an ``x0`` that does not fit ``plant`` is bad input."""
    raw = {} if path is None else _load("config", read_json, path, SimError, _config_doc)
    raw["force"] = bool(raw.get("force", False)) or force_flag
    config = _sim_config(**raw)
    _checked(config.resolve_x0, plant.state_dim)
    return config


def _parse_thetas(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad theta list {text!r}: {exc}") from exc
    if not vals:
        raise InputError("theta list is empty")
    for theta in vals:
        _checked(check_theta, theta)
    return vals


def _resolve_policy(args) -> tuple[str, float | None, tuple | None]:
    """The gamma policy, the fixed gamma and the observer poles of ``args``."""
    policy = "paper" if args.paper_gamma else args.policy
    if policy == "fixed" and args.gamma is None:
        raise InputError("--policy fixed needs --gamma")
    if args.poles is None:
        return policy, args.gamma, None
    try:
        poles = tuple(float(tok) for tok in args.poles.split(",") if tok.strip())
    except ValueError as exc:
        raise InputError(f"bad pole list {args.poles!r}: {exc}") from exc
    if not poles:
        raise InputError("pole list is empty")
    return policy, args.gamma, poles


def _warn_paper_stiffness(policy: str, theta: float, n: int) -> None:
    if policy == "paper" and theta >= PAPER_GAMMA_STIFF_THETA:
        gamma = 100.0 * theta * theta
        stiff = gamma * theta ** (n - 1)
        print(
            f"warning: paper gamma schedule at theta={theta:g} sets "
            f"gamma={gamma:g}; consensus stiffness ~{stiff:.3g} forces "
            "very small integration steps",
            file=sys.stderr,
        )


# ------------------------------------------------------------------- stages
# Each stage is shared by its subcommand and by ``pipeline``.

def _pair_maker(args):
    """A function that builds the network of ``args``, once its flags have
    been checked here."""
    _checked(check_node_count, args.nodes)
    if args.star:
        return lambda: star_pair(args.nodes)
    params = (args.nodes, args.avg_degree, args.similarity, args.seed, args.tol)
    _checked(check_generator, *params)
    return lambda: gen_random_pair(*params)


def _synthesize(plant, assignment, pair, controller, theta, policy, gamma, poles):
    _checked(check_theta, theta)
    if poles is not None:
        _checked(check_poles, poles, plant.n)
    _warn_paper_stiffness(policy, theta, plant.n)
    return synthesize(
        plant, assignment, pair, theta, controller,
        gamma=gamma, policy=policy, poles=poles,
    )


def _check_sweep_flags(args) -> None:
    """Raise :class:`InputError` unless a sweep can run on these flags."""
    _sim_config(horizon=args.horizon, observer_init=args.observer_init, seed=args.seed)
    if args.repeats < 1:
        raise InputError(f"repeats must be >= 1, got {args.repeats}")


def _sweep(plant, assignment, pair, controller, thetas, policy, gamma, poles, args, design=None):
    """:func:`theta_sweep` over checked ``thetas`` with the flags of ``args``:
    ``design`` at its own theta, warned about alike, and a design from
    :func:`_synthesize` at each other theta."""
    designs = []
    for theta in thetas:
        if design is not None and theta == design.theta:
            _warn_paper_stiffness(policy, theta, plant.n)
            designs.append(design)
        else:
            designs.append(
                _synthesize(plant, assignment, pair, controller, theta, policy, gamma, poles)
            )
    return theta_sweep(
        plant, assignment, pair, designs, args.repeats, args.seed, controller,
        horizon=args.horizon, force=args.force, observer_init=args.observer_init,
    )


# ---------------------------------------------------------------------- net

def cmd_net_gen(args) -> int:
    out = Path(args.out)
    pair = _pair_maker(args)()
    manifest = RunManifest(
        command="net gen",
        inputs={},
        outputs={"pair": str(out)},
        seeds={"net": args.seed},
        config={
            "nodes": args.nodes,
            "star": bool(args.star),
            "avg_degree": args.avg_degree,
            "target_similarity": args.similarity,
            "tol": args.tol,
        },
    )
    digest = manifest.write(_manifest_path(out))
    save_pair(pair, out, manifest_hash=digest)
    print(f"wrote {out}  nodes={pair.n}  S_pc={similarity(pair):.4f}")
    return 0


def cmd_net_info(args) -> int:
    pair = _load("network", load_pair, args.pair)
    phys = sum(len(pair.phys_neighbors(i)) for i in pair.nodes())
    comm = sum(len(pair.comm_neighbors(i)) for i in pair.nodes()) // 2
    _emit_json(
        {
            "nodes": pair.n,
            "phys_edges": phys,
            "comm_edges": comm,
            "similarity": similarity(pair),
        },
        None,
    )
    return 0


# -------------------------------------------------------------------- cover

def _stats_doc(assignment, block_order: int) -> dict:
    stats = dimension_stats(assignment, block_order)
    return {
        "sets": len(assignment.sets),
        "block_order": stats.block_order,
        "max_dim": stats.max_dim,
        "min_dim": stats.min_dim,
        "mean_dim": stats.mean_dim,
        "max_reduction": stats.max_reduction,
        "min_reduction": stats.min_reduction,
        "mean_reduction": stats.mean_reduction,
    }


def cmd_cover_solve(args) -> int:
    pair = _load("network", load_pair, args.pair)
    if args.audit:
        _check_auditable(pair)
    out = Path(args.out)
    assignment = solve(pair)
    manifest = RunManifest(
        command="cover solve",
        inputs={"pair": args.pair},
        outputs={"cover": str(out)},
        seeds={},
        config={"block_order": args.block_order},
    )
    digest = manifest.write(_manifest_path(out))
    save_cover(assignment, out, manifest_hash=digest)
    doc = _stats_doc(assignment, args.block_order)
    if args.audit:
        doc["pareto_local"], doc["counterexample"] = pareto_local_audit(assignment, pair)
    _emit_json(doc, None)
    return 0


def _check_auditable(pair) -> None:
    if pair.n > 12:
        raise InputError(f"audit enumerates single edits exhaustively; N={pair.n} exceeds 12")


def cmd_cover_audit(args) -> int:
    pair = _load("network", load_pair, args.pair)
    _check_auditable(pair)
    assignment = _load("cover", load_cover, args.cover, pair) if args.cover else solve(pair)
    ok, witness = pareto_local_audit(assignment, pair)
    _emit_json({"pareto_local": ok, "counterexample": witness}, None)
    return 0


def cmd_cover_stats(args) -> int:
    pair = _load("network", load_pair, args.pair)
    assignment = _load("cover", load_cover, args.cover, pair) if args.cover else solve(pair)
    _emit_json(_stats_doc(assignment, args.block_order), None)
    return 0


# -------------------------------------------------------------------- gains

def cmd_gains_synth(args) -> int:
    pair, assignment, plant, _, controller, inputs = _load_inputs(args)
    policy, gamma, poles = _resolve_policy(args)
    out = Path(args.out)
    design = _synthesize(
        plant, assignment, pair, controller, args.theta, policy, gamma, poles
    )
    manifest = RunManifest(
        command="gains synth",
        inputs=inputs,
        outputs={"design": str(out)},
        seeds={},
        config={
            "theta": design.theta,
            "gamma": design.gamma,
            "policy": design.policy,
            "poles": list(design.poles),
        },
    )
    digest = manifest.write(_manifest_path(out))
    save_design(design, out, manifest_hash=digest)
    certified = design.gamma >= design.gamma_bound
    print(
        f"wrote {out}  theta={design.theta:g}  gamma={design.gamma:.6g}  "
        f"bound={design.gamma_bound:.6g}  certified={certified}"
    )
    return 0


# ---------------------------------------------------------------------- sim

def cmd_sim_run(args) -> int:
    pair, assignment, plant, design, controller, inputs = _load_inputs(args)
    config = _load_config(args.config, args.force, plant)
    out = Path(args.out)

    result = run_distributed(plant, assignment, pair, design, controller, config)
    x0 = config.resolve_x0(plant.state_dim)
    manifest = RunManifest(
        command="sim run",
        inputs=inputs,
        outputs={"result": str(out)},
        seeds={"sim": config.seed},
        config={
            "theta": design.theta,
            "gamma": design.gamma,
            "sat_level": config.resolve_sat(x0),
            "h": result.h,
            "horizon": config.horizon,
            "observer_init": config.observer_init,
            "record_points": config.record_points,
        },
    )
    digest = manifest.write(_manifest_path(out))
    _write_result_csv(out, result, digest)
    print(
        f"wrote {out}  I_x={result.I_x:.6g}  h={result.h:.3g}  "
        f"steps={result.steps}  final_err={result.err_norm[-1]:.3g}"
    )
    return 0


def cmd_sim_sweep(args) -> int:
    pair, assignment, plant, _, controller, inputs = _load_inputs(args)
    policy, gamma, poles = _resolve_policy(args)
    thetas = _parse_thetas(args.thetas)
    _check_sweep_flags(args)
    out = Path(args.out)

    rows = _sweep(
        plant, assignment, pair, controller, thetas, policy, gamma, poles, args
    )
    manifest = RunManifest(
        command="sim sweep",
        inputs=inputs,
        outputs={"sweep": str(out)},
        seeds={"sweep": args.seed},
        config={
            "thetas": thetas,
            "repeats": args.repeats,
            "policy": policy,
            "gamma": gamma,
            "poles": list(poles) if poles else None,
            "horizon": args.horizon,
            "observer_init": args.observer_init,
        },
    )
    digest = manifest.write(_manifest_path(out))
    _write_sweep_csv(out, rows, digest)
    print(f"wrote {out}  thetas={len(rows)}  repeats={args.repeats}")
    return 0


def cmd_sim_report(args) -> int:
    pair, assignment, plant, design, controller, inputs = _load_inputs(args)
    config = _load_config(args.config, args.force, plant)
    out = Path(args.out) if args.out else None

    result = run_distributed(plant, assignment, pair, design, controller, config)
    report = invariant_set_report(design, controller, plant, result)
    doc = dict(report)
    doc["I_x"] = result.I_x
    if out is not None:
        manifest = RunManifest(
            command="sim report",
            inputs=inputs,
            outputs={"report": str(out)},
            seeds={"sim": config.seed},
            config={"theta": design.theta, "gamma": design.gamma},
        )
        doc["manifest_hash"] = manifest.write(_manifest_path(out))
    _emit_json(doc, out)
    return 0


# ----------------------------------------------------------------- pipeline

@contextmanager
def _stage(name: str):
    """Prefix any error with the pipeline stage that raised it."""
    try:
        yield
    except (InputError, *LIBRARY_ERRORS) as exc:
        exc.args = (f"stage {name}: {exc}",)
        raise


def cmd_pipeline(args) -> int:
    outdir = Path(args.outdir)
    paths = {
        name: outdir / f"{name}.{ext}"
        for name, ext in (
            ("pair", "json"), ("cover", "json"), ("plant", "json"),
            ("design", "json"), ("result", "csv"), ("sweep", "csv"),
        )
    }
    policy, gamma, poles = _resolve_policy(args)
    thetas = _parse_thetas(args.thetas) if args.thetas else [args.theta]
    # the flags of every stage are checked before anything is written
    with _stage("network"):
        make_pair = _pair_maker(args)
    with _stage("plant"):
        _checked(check_microgrid, args.plant_seed, args.coupling_scale)
    with _stage("sim"):
        _sim_config(horizon=args.horizon, observer_init=args.observer_init, seed=args.seed)
    with _stage("sweep"):
        _check_sweep_flags(args)

    manifest = RunManifest(
        command="pipeline",
        inputs={"controller": args.controller or ""},
        outputs={name: str(p) for name, p in paths.items()},
        seeds={
            "net": args.seed,
            "plant": args.plant_seed,
            "sim": args.seed,
            "sweep": args.seed,
        },
        config={
            "nodes": args.nodes,
            "star": bool(args.star),
            "avg_degree": args.avg_degree,
            "target_similarity": args.similarity,
            "coupling_scale": args.coupling_scale,
            "theta": args.theta,
            "policy": policy,
            "gamma": gamma,
            "poles": list(poles) if poles else None,
            "horizon": args.horizon,
            "observer_init": args.observer_init,
            "thetas": thetas,
            "repeats": args.repeats,
        },
    )
    outdir.mkdir(parents=True, exist_ok=True)
    digest = manifest.write(outdir / "manifest.json")

    with _stage("network"):
        pair = make_pair()
        save_pair(pair, paths["pair"], manifest_hash=digest)
    with _stage("cover"):
        assignment = solve(pair)
        save_cover(assignment, paths["cover"], manifest_hash=digest)
    with _stage("plant"):
        plant = build_microgrid(pair, args.plant_seed, args.coupling_scale)
        save_plant(plant, paths["plant"], manifest_hash=digest)
    with _stage("gains"):
        controller = _load_controller(args.controller, plant, pair)
        design = _synthesize(
            plant, assignment, pair, controller, args.theta, policy, gamma, poles
        )
        save_design(design, paths["design"], manifest_hash=digest)
    with _stage("sim"):
        config = _sim_config(
            horizon=args.horizon,
            observer_init=args.observer_init,
            seed=args.seed,
            force=args.force,
        )
        result = run_distributed(
            plant, assignment, pair, design, controller, config
        )
        _write_result_csv(paths["result"], result, digest)
    with _stage("sweep"):
        sweep_rows = _sweep(
            plant, assignment, pair, controller, thetas, policy, gamma, poles, args, design
        )
        _write_sweep_csv(paths["sweep"], sweep_rows, digest)
    print(
        f"pipeline complete in {outdir}  I_x={result.I_x:.6g}  "
        f"final_err={result.err_norm[-1]:.3g}"
    )
    return 0


# ------------------------------------------------------------------- parser

def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy", choices=("auto", "paper", "fixed"), default="auto",
        help="gamma schedule: auto takes 1.1x the certified bound, paper "
        "uses 100*theta^2, fixed takes --gamma verbatim",
    )
    parser.add_argument(
        "--paper-gamma", action="store_true",
        help="shorthand for --policy paper",
    )
    parser.add_argument("--gamma", type=float, default=None,
                        help="consensus gain (required for --policy fixed)")
    parser.add_argument("--poles", default=None,
                        help="comma-separated observer poles; negative values "
                             "need the equals form, e.g. --poles=-4,-9")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverobs",
        description="Cover-based distributed observer toolkit",
        epilog="Outputs embed the run manifest hash.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    net = top.add_parser("net", help="generate or inspect graph pairs")
    netsub = net.add_subparsers(dest="cmd", required=True)
    gen = netsub.add_parser("gen", help="generate a physical/communication pair")
    gen.add_argument("-n", "--nodes", type=int, required=True)
    gen.add_argument("--star", action="store_true",
                     help="star on node 1 in both layers")
    gen.add_argument("--avg-degree", type=float, default=3.0)
    gen.add_argument("--similarity", type=float, default=0.85,
                     help="target layer similarity S_pc")
    gen.add_argument("--tol", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_net_gen)
    info = netsub.add_parser("info", help="summarize a saved pair")
    info.add_argument("pair")
    info.set_defaults(func=cmd_net_info)

    cover = top.add_parser("cover", help="estimation-set assignment tools")
    coversub = cover.add_subparsers(dest="cmd", required=True)
    csolve = coversub.add_parser("solve", help="solve and save a cover")
    csolve.add_argument("--pair", required=True)
    csolve.add_argument("--out", required=True)
    csolve.add_argument("--block-order", type=int, default=1,
                        help="states per node when reporting dimensions")
    csolve.add_argument("--audit", action="store_true",
                        help="also run the local-edit audit (N <= 12)")
    csolve.set_defaults(func=cmd_cover_solve)
    caudit = coversub.add_parser("audit", help="single-edit optimality audit")
    caudit.add_argument("--pair", required=True)
    caudit.add_argument("--cover", default=None,
                        help="audit this file instead of solving fresh")
    caudit.set_defaults(func=cmd_cover_audit)
    cstats = coversub.add_parser("stats", help="observer dimension statistics")
    cstats.add_argument("--pair", required=True)
    cstats.add_argument("--cover", default=None)
    cstats.add_argument("--block-order", type=int, default=1)
    cstats.set_defaults(func=cmd_cover_stats)

    gains = top.add_parser("gains", help="observer gain synthesis")
    gainssub = gains.add_subparsers(dest="cmd", required=True)
    synth = gainssub.add_parser("synth", help="design gains for one theta")
    synth.add_argument("--pair", required=True)
    synth.add_argument("--cover", required=True)
    synth.add_argument("--plant", required=True)
    synth.add_argument("--controller", default=None)
    synth.add_argument("--theta", type=float, required=True)
    _add_policy_flags(synth)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_gains_synth)

    sim = top.add_parser("sim", help="closed-loop simulation")
    simsub = sim.add_subparsers(dest="cmd", required=True)
    run = simsub.add_parser("run", help="one distributed run to CSV")
    for flag in ("--pair", "--cover", "--plant", "--design"):
        run.add_argument(flag, required=True)
    run.add_argument("--controller", default=None)
    run.add_argument("--config", default=None,
                     help="JSON file of SimConfig overrides")
    run.add_argument("--force", action="store_true",
                     help="run even when gamma sits below the certified bound")
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_sim_run)
    sweep = simsub.add_parser(
        "sweep", help="index-gap sweep over theta",
        description=(
            "Gap between the distributed and the centralized closed-loop cost "
            "I_x at each theta. Without --controller the plant runs "
            "independently of the observer, so every gap is step-size rounding "
            "(about -7.6e-5 of I_x = 44 at every theta from 2 to 15 on the 9-node "
            "star). The paper's claim that the distributed cost approaches the "
            "centralized one as theta grows needs --controller."
        ),
    )
    for flag in ("--pair", "--cover", "--plant"):
        sweep.add_argument(flag, required=True)
    sweep.add_argument("--controller", default=None,
                       help="feedback gains; without them the gaps measure only rounding")
    sweep.add_argument("--thetas", default="2,3,5,7,9,12,15")
    sweep.add_argument("--repeats", type=int, default=6)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--horizon", type=float, default=10.0)
    sweep.add_argument("--observer-init", type=float, default=2.0)
    _add_policy_flags(sweep)
    sweep.add_argument("--force", action="store_true")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sim_sweep)
    rep = simsub.add_parser("report", help="invariant-set radii for one run")
    for flag in ("--pair", "--cover", "--plant", "--design"):
        rep.add_argument(flag, required=True)
    rep.add_argument("--controller", default=None)
    rep.add_argument("--config", default=None)
    rep.add_argument("--force", action="store_true")
    rep.add_argument("--out", default=None,
                     help="write JSON here instead of stdout")
    rep.set_defaults(func=cmd_sim_report)

    pipe = top.add_parser(
        "pipeline", help="network -> cover -> gains -> sim -> sweep"
    )
    pipe.add_argument("-n", "--nodes", type=int, required=True)
    pipe.add_argument("--star", action="store_true")
    pipe.add_argument("--avg-degree", type=float, default=3.0)
    pipe.add_argument("--similarity", type=float, default=0.85)
    pipe.add_argument("--seed", type=int, default=0)
    pipe.add_argument("--plant-seed", type=int, default=0)
    pipe.add_argument("--coupling-scale", type=float, default=1.0)
    pipe.add_argument("--controller", default=None)
    pipe.add_argument("--theta", type=float, default=5.0)
    _add_policy_flags(pipe)
    pipe.add_argument("--horizon", type=float, default=10.0)
    pipe.add_argument("--observer-init", type=float, default=2.0)
    pipe.add_argument("--thetas", default=None,
                      help="sweep list; defaults to just --theta")
    pipe.add_argument("--repeats", type=int, default=2)
    pipe.add_argument("--force", action="store_true")
    pipe.add_argument("--outdir", required=True)
    # no --tol flag: a random pipeline network takes net gen's default
    pipe.set_defaults(func=cmd_pipeline, tol=0.05)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader surfaces here, not at exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LIBRARY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull
        # so that the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
