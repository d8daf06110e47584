"""The three benchmark workloads: inputs from a seed, one pass, output checks.

Every workload calls coverobs through module attributes (``coverage.solve``,
``cli.main``), so the spans that :mod:`tracing` installs see each call.

The seed picks one of :data:`VARIANTS` input variants, ``seed % VARIANTS``.
References for every variant were recorded by ``record_refs.py`` at the
commit that defined this benchmark and live in ``references.json``.  Inputs
that set how much work a pass does (the networks of ``paper47-run`` and
``cover-scale``, the integration horizon, the batch size) are fixed: across
network seeds 0-9 the paper-scale operator ranges from 874 to 1496 states
and one pass from 3 s to 19 s, which no run-to-run bound could absorb.  The
seed varies what leaves the work unchanged: initial states (``paper47-run``,
``star9-pipeline``), and on ``cover-scale`` the plant parameters behind
gamma and the small-network batch.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from coverobs import cli, coverage, gains, netgraph, plant, simloop

VARIANTS = 16
DEFAULT_SEED = 0
# Seed kept out of tuning, for confirming later performance claims.
HELD_OUT_SEED = 13

THETA = 6.0
POLES = (-4.0, -9.0)
COUPLING_SCALE = 2.5e8
PLANT_SEED = 1

# paper47-run: the paper's scale, network seed 0 (mean observer dim 17.53)
PAPER_N = 47
PAPER_NET_SEED = 0
PAPER_HORIZON = 0.003

# star9-pipeline: the README's end-to-end example
STAR9_ARGS = (
    "pipeline", "-n", "9", "--star", "--coupling-scale", "2.5e8",
    "--theta", "6", "--poles=-4,-9",
)
STAR9_ARTIFACTS = (
    "cover.json", "design.json", "manifest.json", "pair.json", "plant.json",
    "result.csv", "sweep.csv",
)

# cover-scale: (a) one large design; (b) a batch by the recipe of acceptance gate 1
SCALE_N = 800
SCALE_NET_SEED = 0
BATCH = 500
BATCH_MAX_N = 40
BATCH_MIN_N = 4


@dataclass
class Context:
    """Per-run state shared by the passes of one workload."""

    tmp: Path
    first_hash: str | None = None
    keep: dict = field(default_factory=dict)


@dataclass
class PassResult:
    failed: int
    outputs: dict
    extra: dict = field(default_factory=dict)


def _no_controller() -> gains.ControllerGains:
    return gains.ControllerGains(K_blocks={})


# ----------------------------------------------------------------- paper47-run

def paper47_inputs(seed: int) -> dict:
    return {"variant": seed % VARIANTS}


def paper47_pass(inp: dict, ctx: Context) -> PassResult:
    pair = netgraph.gen_random_pair(PAPER_N, 3.0, 0.85, seed=PAPER_NET_SEED)
    cover = coverage.solve(pair)
    grid = plant.build_microgrid(pair, seed=PLANT_SEED, coupling_scale=COUPLING_SCALE)
    controller = _no_controller()
    design = gains.synthesize(
        grid, cover, pair, THETA, controller, policy="auto", poles=POLES
    )
    result = simloop.run_distributed(
        grid, cover, pair, design, controller,
        simloop.SimConfig(horizon=PAPER_HORIZON, seed=inp["variant"]),
    )
    return PassResult(0, {"cover": cover, "result": result})


def paper47_summary(out: dict, ctx: Context):
    res = out["result"]
    problems = []
    if not res.group_identity_max_rel <= 1e-12:
        problems.append(f"group_identity_max_rel {res.group_identity_max_rel:.3g} > 1e-12")
    fixed = {
        "mean_dim": coverage.dimension_stats(out["cover"], 2).mean_dim,
        "h": res.h,
        "steps": res.steps,
    }
    variant = {"I_x": res.I_x, "err_final": float(res.err_norm[-1])}
    return fixed, variant, problems


# -------------------------------------------------------------- star9-pipeline

def star9_inputs(seed: int) -> dict:
    return {"variant": seed % VARIANTS}


def star9_pass(inp: dict, ctx: Context) -> PassResult:
    outdir = ctx.tmp / "star9"
    shutil.rmtree(outdir, ignore_errors=True)
    argv = [*STAR9_ARGS, "--seed", str(inp["variant"]), "--outdir", str(outdir)]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    sizes = {p.name: p.stat().st_size for p in outdir.iterdir()} if outdir.is_dir() else {}
    return PassResult(
        0,
        {"code": code, "stdout": printed.getvalue(), "outdir": outdir, "sizes": sizes},
        {"bytes_written": sum(sizes.values())},
    )


def star9_summary(out: dict, ctx: Context):
    problems = []
    if out["code"] != 0:
        problems.append(f"pipeline exit code {out['code']}")
    missing = sorted(set(STAR9_ARTIFACTS) - set(out["sizes"]))
    if missing:
        problems.append(f"missing artifacts {missing}")
    manifest = out["outdir"] / "manifest.json"
    digest = json.loads(manifest.read_text())["hash"] if manifest.exists() else None
    if ctx.first_hash is None:
        ctx.first_hash = digest
    elif digest != ctx.first_hash:
        problems.append(f"manifest hash {digest} differs from first pass {ctx.first_hash}")
    found = re.search(r"I_x=(\S+)", out["stdout"])
    variant = {"I_x": float(found.group(1)) if found else float("nan")}
    return {}, variant, problems


# ----------------------------------------------------------------- cover-scale

def scale_inputs(seed: int) -> dict:
    """The plant seed of part (a) and the small-pair specs of part (b).

    The plant seed moves gamma, not the work: the network and cover of part
    (a) stay fixed.  The specs are drawn exactly as ``random_pairs`` in
    ``tests/conftest.py`` draws them.
    """
    variant = seed % VARIANTS
    rng = np.random.default_rng(variant)
    specs = []
    for _ in range(3 * BATCH):
        n = int(rng.integers(BATCH_MIN_N, BATCH_MAX_N + 1))
        deg = float(rng.uniform(1.5, min(4.0, n - 1)))
        sim = float(rng.uniform(0.55, 0.95))
        specs.append((n, deg, sim))
    return {"variant": variant, "plant_seed": PLANT_SEED + variant, "specs": specs}


def scale_pass(inp: dict, ctx: Context) -> PassResult:
    """(a) one large network through cover, statistics and the gamma bound;
    (b) BATCH random small pairs, each generated, solved and validated."""
    t0 = perf_counter()
    pair = netgraph.gen_random_pair(SCALE_N, 3.0, 0.85, seed=SCALE_NET_SEED, tol=0.08)
    cover = coverage.solve(pair)
    stats = coverage.dimension_stats(cover, 2)
    grid = plant.build_microgrid(pair, seed=inp["plant_seed"], coupling_scale=COUPLING_SCALE)
    bound = gains.gamma_lower_bound(grid, cover, pair, THETA, _no_controller(), poles=POLES)
    t1 = perf_counter()
    ctx.keep["design"] = {"pair": pair, "cover": cover, "plant": grid}

    base = inp["variant"] * 100003
    covers, failed, rejected = [], 0, 0
    for k, (n, deg, sim) in enumerate(inp["specs"]):
        try:
            small = netgraph.gen_random_pair(n, deg, sim, seed=base + k, tol=0.08)
        except netgraph.GraphError:
            rejected += 1  # the recipe's rejection sampling, not a failure
            continue
        try:
            got = coverage.solve(small)
            ok = coverage.validate(got, small).ok
        except coverage.CoverageError:
            ok = False
        if ok:
            covers.append(got)
        else:
            failed += 1
        if len(covers) + failed == BATCH:
            break
    else:
        raise RuntimeError("batch spec stream starved")
    t2 = perf_counter()
    out = {
        "pair": pair, "cover": cover, "stats": stats, "bound": bound,
        "covers": covers, "failed": failed, "rejected": rejected,
    }
    return PassResult(failed, out, {"design_s": t1 - t0, "covers_per_s": BATCH / (t2 - t1)})


def scale_summary(out: dict, ctx: Context):
    problems = []
    if not coverage.validate(out["cover"], out["pair"]).ok:
        problems.append(f"N={SCALE_N} cover fails validation")
    fixed = {
        "total_load": out["cover"].total_load(),
        "sets": len(out["cover"].nonempty_sets()),
        "mean_dim": out["stats"].mean_dim,
    }
    variant = {
        "gamma_bound": out["bound"],
        "batch_size": len(out["covers"]) + out["failed"],
        "batch_total_load": sum(c.total_load() for c in out["covers"]),
        "batch_sets": sum(len(c.nonempty_sets()) for c in out["covers"]),
        "batch_rejected": out["rejected"],
    }
    return fixed, variant, problems


def defect_probe(ctx: Context) -> dict:
    """Known defect: policy "auto" at N=800 trips the absolute residual check.

    Recorded, not fixed: ``LYAPUNOV_RESIDUAL_TOL`` is absolute while gamma is
    about 1e8, so the weight residual exceeds it.
    """
    out = ctx.keep.get("design")
    if out is None:
        return {}
    try:
        gains.synthesize(
            out["plant"], out["cover"], out["pair"], THETA, _no_controller(),
            policy="auto", poles=POLES,
        )
    except gains.GainsError as exc:
        return {"failed": 1, "message": str(exc)}
    return {"failed": 0, "message": ""}


# ------------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object
    run_pass: object
    summary: object
    ops: int  # operations attempted per pass
    # relative tolerance per reference key; 0 means exact
    rtol: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper47-run", paper47_inputs, paper47_pass, paper47_summary, 1,
            # loose enough for a future exponential stepper (agrees to 1.6e-10)
            {"mean_dim": 0, "h": 1e-12, "steps": 0, "I_x": 1e-8, "err_final": 1e-8},
        ),
        Workload(
            "star9-pipeline", star9_inputs, star9_pass, star9_summary, 1,
            # I_x is parsed from the 6 significant digits the CLI prints
            {"I_x": 1e-5},
        ),
        Workload(
            "cover-scale", scale_inputs, scale_pass, scale_summary, 1 + BATCH,
            {
                "total_load": 0, "sets": 0, "mean_dim": 0, "gamma_bound": 1e-9,
                "batch_size": 0, "batch_total_load": 0, "batch_sets": 0,
                "batch_rejected": 0,
            },
        ),
    )
}


def compare(got: dict, want: dict, rtol: dict) -> list[str]:
    """Differences between summary values and their references."""
    problems = []
    for key, ref in want.items():
        val = got.get(key)
        tol = rtol.get(key, 0)
        if tol == 0:
            same = val == ref
        else:
            same = val is not None and abs(val - ref) <= tol * abs(ref)
        if not same:
            problems.append(f"{key}={val!r}, reference {ref!r}")
    return problems
