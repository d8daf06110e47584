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

Exit codes: 0 success, 1 numeric failure (divergence, infeasible design,
overflow, an array too large to allocate), 2 input error (bad flags,
missing, unparsable or mismatched files, output paths that cannot be
written).  A reader that closes standard output early (``| head``) is not
a failure: exit 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
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
    GAMMA_POLICIES,
    ControllerGains,
    GainsError,
    check_choice,
    check_theta,
    invariant_set_report,
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
from .plant import (
    MICROGRID_BLOCK_ORDER, PlantError, build_microgrid, check_microgrid, load_plant, save_plant,
)
from .simloop import SimConfig, SimError, run_distributed, theta_sweep

PAPER_GAMMA_STIFF_THETA = 10.0


class InputError(Exception):
    """User-facing input problem: maps to exit code 2."""


# ------------------------------------------------------------------ manifest

def _write_manifest(path: Path | None, command: str, inputs, outputs, seeds, config) -> str:
    """Write the reproducibility record shared by every artifact of one
    command to ``path``, unless it is None, and return its hash, the SHA-256
    of its canonical JSON."""
    versions = {"coverobs": __version__, "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__}
    body = dict(command=command, inputs=inputs, outputs=outputs, seeds=seeds, config=config,
                versions=versions)
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    if path is not None:
        write_json(path, {**body, "hash": digest})
    return digest


def _manifest_path(primary_out: Path) -> Path | None:
    """The side manifest of ``primary_out``, or None when that is not a
    regular file (``/dev/null``), beside which nothing is written."""
    if primary_out.exists() and not primary_out.is_file():
        return None
    return primary_out.with_name(primary_out.name + ".manifest.json")


def _out_path(path: str, directory: bool = False) -> Path:
    """``path`` checked as an output file, or with ``directory`` as an output
    directory the command creates, before the command does any work: a path
    that cannot be written is bad input, and nothing is written.  It must
    not be a directory where a file goes or a file where a directory goes,
    and the directory that takes it (its nearest existing one) be writable."""
    out = Path(path)
    if out.exists() and out.is_dir() != directory:
        raise InputError(f"cannot write {path}: it is {'not ' if directory else ''}a directory")
    home = next(p for p in (out, *out.parents) if p.exists()) if directory else out.parent
    if not home.is_dir():
        raise InputError(f"cannot write {path}: no directory {home}")
    if not os.access(out if out.exists() else home, os.W_OK):
        raise InputError(f"cannot write {path}: permission denied")
    return out


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


def _require(what: str, path: str) -> None:
    if not Path(path).exists():
        raise InputError(f"missing {what} file: {path}")


def _load(what: str, loader, path: str, *context):
    """``loader(path, *context)``; a missing file, or one the loader rejects
    (unreadable, or not fitting ``context``), is bad input."""
    _require(what, path)
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


def _load_config(path: str | None, force_flag: bool, plant) -> SimConfig:
    """The run's config file, with no unknown keys and an ``x0`` that fits
    ``plant``, forced by ``force_flag`` or its own ``force``."""

    def parse(doc) -> SimConfig:
        unknown = doc.keys() - SIM_CONFIG_KEYS
        if unknown:
            raise SimError(f"has unknown keys: {', '.join(sorted(unknown))}")
        config = SimConfig(**doc)
        config.resolve_x0(plant.state_dim)
        return config

    config = SimConfig() if path is None else _load("config", read_json, path, SimError, parse)
    return replace(config, force=True) if force_flag else config


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
    """The gamma policy, the gamma and the parsed observer poles of ``args``,
    for :func:`check_choice` to check."""
    if args.poles is None:
        return args.policy, args.gamma, None
    try:
        poles = tuple(float(tok) for tok in args.poles.split(",") if tok.strip())
    except ValueError as exc:
        raise InputError(f"bad pole list {args.poles!r}: {exc}") from exc
    return args.policy, args.gamma, poles


def _warn_paper_stiffness(design) -> None:
    if design.policy == "paper" and design.theta >= PAPER_GAMMA_STIFF_THETA:
        print(
            f"warning: paper gamma schedule at theta={design.theta:g} sets "
            f"gamma={design.gamma:g}; consensus stiffness ~{design.stiff_scale:.3g} "
            "forces very small integration steps",
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
    """:func:`synthesize`, with a choice that :func:`check_choice` refuses
    as bad input."""
    _checked(check_choice, theta, policy, gamma, poles, plant.n)
    design = synthesize(
        plant, assignment, pair, theta, controller,
        gamma=gamma, policy=policy, poles=poles,
    )
    _warn_paper_stiffness(design)
    return design


def _run_config(args) -> SimConfig:
    """The run config of the ``--horizon``, ``--observer-init``, ``--seed``
    and ``--force`` flags, which a sweep's runs share too."""
    try:
        return SimConfig(horizon=args.horizon, observer_init=args.observer_init,
                         seed=args.seed, force=args.force)
    except SimError as exc:
        raise InputError(f"bad simulation config: {exc}") from exc


def _check_repeats(repeats: int) -> None:
    if repeats < 1:
        raise InputError(f"repeats must be >= 1, got {repeats}")


def _sweep(plant, assignment, pair, controller, thetas, policy, gamma, poles, repeats, config,
           design=None):
    """:func:`theta_sweep` over checked ``thetas``, ``repeats`` starts and
    the run ``config``: ``design`` at its own theta, and a design from
    :func:`_synthesize` at each other distinct theta.  Each design is warned
    about once, when :func:`_synthesize` makes it, so a reused ``design`` is
    not warned about again."""
    made = {} if design is None else {design.theta: design}
    for theta in thetas:
        if theta not in made:
            made[theta] = _synthesize(
                plant, assignment, pair, controller, theta, policy, gamma, poles
            )
    designs = [made[theta] for theta in thetas]
    return theta_sweep(
        plant, assignment, pair, designs, repeats, config.seed, controller,
        horizon=config.horizon, force=config.force, observer_init=config.observer_init,
    )


# ---------------------------------------------------------------------- net

def _network_config(args) -> dict:
    """The manifest config of the network flags."""
    return {"nodes": args.nodes, "star": bool(args.star), "avg_degree": args.avg_degree,
            "target_similarity": args.similarity}


def cmd_net_gen(args) -> int:
    out = _out_path(args.out)
    pair = _pair_maker(args)()
    digest = _write_manifest(
        _manifest_path(out), "net gen",
        inputs={},
        outputs={"pair": str(out)},
        seeds={"net": args.seed},
        config={**_network_config(args), "tol": args.tol},
    )
    save_pair(pair, out, manifest_hash=digest)
    print(f"wrote {out}  nodes={pair.n}  S_pc={similarity(pair):.4f}")
    return 0


def cmd_net_info(args) -> int:
    pair = _load("network", load_pair, args.pair)
    _emit_json(
        {
            "nodes": pair.n,
            "phys_edges": len(pair.phys_edges),
            "comm_edges": len(pair.comm_edges),
            "similarity": similarity(pair),
        },
        None,
    )
    return 0


# -------------------------------------------------------------------- cover

def _stats_doc(assignment, block_order: int) -> dict:
    stats = _checked(dimension_stats, assignment, block_order)
    return {"sets": len(assignment.sets), **asdict(stats)}


def cmd_cover_solve(args) -> int:
    out = _out_path(args.out)
    pair = _load("network", load_pair, args.pair)
    if args.audit:
        _check_auditable(pair)
    assignment = solve(pair)
    doc = _stats_doc(assignment, args.block_order)
    digest = _write_manifest(
        _manifest_path(out), "cover solve",
        inputs={"pair": args.pair},
        outputs={"cover": str(out)},
        seeds={},
        config={"block_order": args.block_order},
    )
    save_cover(assignment, out, manifest_hash=digest)
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
    out = _out_path(args.out)
    pair, assignment, plant, _, controller, inputs = _load_inputs(args)
    policy, gamma, poles = _resolve_policy(args)
    design = _synthesize(
        plant, assignment, pair, controller, args.theta, policy, gamma, poles
    )
    digest = _write_manifest(
        _manifest_path(out), "gains synth",
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
    save_design(design, out, manifest_hash=digest)
    print(
        f"wrote {out}  theta={design.theta:g}  gamma={design.gamma:.6g}  "
        f"bound={design.gamma_bound:.6g}  certified={design.certified}"
    )
    return 0


# ---------------------------------------------------------------------- sim

def _run(args):
    """The plant, design, controller and manifest inputs of ``args``, its
    run config and the run on them, shared by ``sim run`` and ``sim report``."""
    pair, assignment, plant, design, controller, inputs = _load_inputs(args)
    config = _load_config(args.config, args.force, plant)
    result = run_distributed(plant, assignment, pair, design, controller, config)
    return plant, design, controller, inputs, config, result


def cmd_sim_run(args) -> int:
    out = _out_path(args.out)
    plant, design, _, inputs, config, result = _run(args)
    x0 = config.resolve_x0(plant.state_dim)
    digest = _write_manifest(
        _manifest_path(out), "sim run",
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
    _write_result_csv(out, result, digest)
    print(
        f"wrote {out}  I_x={result.I_x:.6g}  h={result.h:.3g}  "
        f"steps={result.steps}  final_err={result.err_norm[-1]:.3g}"
    )
    return 0


def cmd_sim_sweep(args) -> int:
    out = _out_path(args.out)
    pair, assignment, plant, _, controller, inputs = _load_inputs(args)
    policy, gamma, poles = _resolve_policy(args)
    thetas = _parse_thetas(args.thetas)
    config = _run_config(args)
    _check_repeats(args.repeats)

    rows = _sweep(
        plant, assignment, pair, controller, thetas, policy, gamma, poles, args.repeats, config
    )
    digest = _write_manifest(
        _manifest_path(out), "sim sweep",
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
    _write_sweep_csv(out, rows, digest)
    print(f"wrote {out}  thetas={len(rows)}  repeats={args.repeats}")
    return 0


def cmd_sim_report(args) -> int:
    out = _out_path(args.out) if args.out else None
    plant, design, controller, inputs, config, result = _run(args)
    doc = {**invariant_set_report(design, controller, plant, result), "I_x": result.I_x}
    if out is not None:
        doc["manifest_hash"] = _write_manifest(
            _manifest_path(out), "sim report",
            inputs=inputs,
            outputs={"report": str(out)},
            seeds={"sim": config.seed},
            config={"theta": design.theta, "gamma": design.gamma},
        )
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
    outdir = _out_path(args.outdir, directory=True)
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
    with _stage("gains"):
        _checked(check_choice, args.theta, policy, gamma, poles, MICROGRID_BLOCK_ORDER)
        if args.controller is not None:
            _require("controller", args.controller)
    with _stage("sim"):
        config = _run_config(args)
    with _stage("sweep"):
        _check_repeats(args.repeats)

    outdir.mkdir(parents=True, exist_ok=True)
    digest = _write_manifest(
        outdir / "manifest.json", "pipeline",
        inputs={"controller": args.controller or ""},
        outputs={name: str(p) for name, p in paths.items()},
        seeds={
            "net": args.seed,
            "plant": args.plant_seed,
            "sim": args.seed,
            "sweep": args.seed,
        },
        config={
            **_network_config(args),
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
        result = run_distributed(plant, assignment, pair, design, controller, config)
        _write_result_csv(paths["result"], result, digest)
    with _stage("sweep"):
        sweep_rows = _sweep(
            plant, assignment, pair, controller, thetas, policy, gamma, poles, args.repeats,
            config, design,
        )
        _write_sweep_csv(paths["sweep"], sweep_rows, digest)
    print(
        f"pipeline complete in {outdir}  I_x={result.I_x:.6g}  "
        f"final_err={result.err_norm[-1]:.3g}"
    )
    return 0


# ------------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    def group(*parents) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    # each flag that several subcommands take is declared once, in a group
    # that they take as a parent
    network = group()
    network.add_argument("-n", "--nodes", type=int, required=True)
    network.add_argument("--star", action="store_true", help="star on node 1 in both layers")
    network.add_argument("--avg-degree", type=float, default=3.0)
    network.add_argument("--similarity", type=float, default=0.85,
                         help="target layer similarity S_pc")
    seed = group()
    seed.add_argument("--seed", type=int, default=0)
    out = group()
    out.add_argument("--out", required=True)
    pair = group()
    pair.add_argument("--pair", required=True)
    block_order = group()
    block_order.add_argument("--block-order", type=int, default=1,
                             help="states per node when reporting dimensions")
    controller = group()
    controller.add_argument("--controller", default=None)
    cover_plant = group()
    for flag in ("--cover", "--plant"):
        cover_plant.add_argument(flag, required=True)
    files = group(pair, cover_plant, controller)
    policy = group()
    policy.add_argument(
        "--policy", choices=GAMMA_POLICIES, default="auto",
        help="gamma schedule: auto takes 1.1x the certified bound, paper "
        "uses 100*theta^2, fixed takes --gamma verbatim",
    )
    policy.add_argument("--gamma", type=float, default=None,
                        help="consensus gain: required by fixed, a floor for auto")
    policy.add_argument("--poles", default=None,
                        help="comma-separated observer poles; negative values "
                             "need the equals form, e.g. --poles=-4,-9")
    horizon = group()
    horizon.add_argument("--horizon", type=float, default=10.0)
    horizon.add_argument("--observer-init", type=float, default=2.0)
    force = group()
    force.add_argument("--force", action="store_true",
                       help="run even when gamma does not exceed the certified bound")
    design_run = group(force)
    design_run.add_argument("--design", required=True)
    design_run.add_argument("--config", default=None, help="JSON file of SimConfig overrides")

    parser = argparse.ArgumentParser(
        prog="coverobs",
        description="Cover-based distributed observer toolkit",
        epilog="Outputs embed the run manifest hash.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    net = top.add_parser("net", help="generate or inspect graph pairs")
    netsub = net.add_subparsers(dest="cmd", required=True)
    gen = netsub.add_parser(
        "gen", parents=[network, seed, out], help="generate a physical/communication pair"
    )
    gen.add_argument("--tol", type=float, default=0.05)
    gen.set_defaults(func=cmd_net_gen)
    info = netsub.add_parser("info", help="summarize a saved pair")
    info.add_argument("pair")
    info.set_defaults(func=cmd_net_info)

    cover = top.add_parser("cover", help="estimation-set assignment tools")
    coversub = cover.add_subparsers(dest="cmd", required=True)
    csolve = coversub.add_parser(
        "solve", parents=[pair, out, block_order], help="solve and save a cover"
    )
    csolve.add_argument("--audit", action="store_true",
                        help="also run the local-edit audit (N <= 12)")
    csolve.set_defaults(func=cmd_cover_solve)
    caudit = coversub.add_parser("audit", parents=[pair], help="single-edit optimality audit")
    caudit.add_argument("--cover", default=None,
                        help="audit this file instead of solving fresh")
    caudit.set_defaults(func=cmd_cover_audit)
    cstats = coversub.add_parser(
        "stats", parents=[pair, block_order], help="observer dimension statistics"
    )
    cstats.add_argument("--cover", default=None)
    cstats.set_defaults(func=cmd_cover_stats)

    gains = top.add_parser("gains", help="observer gain synthesis")
    gainssub = gains.add_subparsers(dest="cmd", required=True)
    synth = gainssub.add_parser(
        "synth", parents=[files, policy, out], help="design gains for one theta"
    )
    synth.add_argument("--theta", type=float, required=True)
    synth.set_defaults(func=cmd_gains_synth)

    sim = top.add_parser("sim", help="closed-loop simulation")
    simsub = sim.add_subparsers(dest="cmd", required=True)
    run = simsub.add_parser(
        "run", parents=[files, design_run, out], help="one distributed run to CSV"
    )
    run.set_defaults(func=cmd_sim_run)
    sweep = simsub.add_parser(
        "sweep", parents=[files, seed, horizon, policy, force, out],
        help="index-gap sweep over theta",
        description=(
            "Gap between the distributed and the centralized closed-loop cost "
            "I_x at each theta. Without --controller the plant runs "
            "independently of the observer, so every gap is step-size rounding "
            "(about -7.6e-5 of I_x = 44 at every theta from 2 to 15 on the 9-node "
            "star). The paper's claim that the distributed cost approaches the "
            "centralized one as theta grows needs --controller."
        ),
    )
    sweep.add_argument("--thetas", default="2,3,5,7,9,12,15")
    sweep.add_argument("--repeats", type=int, default=6)
    sweep.set_defaults(func=cmd_sim_sweep)
    rep = simsub.add_parser(
        "report", parents=[files, design_run], help="invariant-set radii for one run"
    )
    rep.add_argument("--out", default=None,
                     help="write JSON here instead of stdout")
    rep.set_defaults(func=cmd_sim_report)

    pipe = top.add_parser(
        "pipeline", parents=[network, seed, controller, policy, horizon, force],
        help="network -> cover -> gains -> sim -> sweep",
    )
    pipe.add_argument("--plant-seed", type=int, default=0)
    pipe.add_argument("--coupling-scale", type=float, default=1.0)
    pipe.add_argument("--theta", type=float, default=5.0)
    pipe.add_argument("--thetas", default=None,
                      help="sweep list; defaults to just --theta")
    pipe.add_argument("--repeats", type=int, default=2)
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
    except (*LIBRARY_ERRORS, MemoryError) as exc:  # numpy names the array it could not hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull
        # so that the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
