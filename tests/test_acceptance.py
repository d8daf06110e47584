"""End-to-end release gates, one test per gate.

Run with -v for one pass/fail line per gate; each test also prints a
single summary line with the measured quantities (visible with -s).
Budgets are wall-clock on a single core; the slowest gate is the
theta sweep, well under its half-hour ceiling.
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np
import pytest

from coverobs.coverage import (
    dimension_stats,
    merge,
    pareto_local_audit,
    solve,
    validate,
)
from coverobs.gains import ControllerGains, synthesize, transform_block
from coverobs.netgraph import NetworkPair, gen_random_pair, similarity, star_pair
from coverobs.plant import BlockPlant, build_microgrid
from coverobs.simloop import (
    SimConfig,
    invariant_set_report,
    run_centralized,
    run_distributed,
    theta_sweep,
)

from conftest import random_pairs


def report(gate: str, **metrics) -> None:
    parts = " ".join(f"{k}={v}" for k, v in metrics.items())
    print(f"[gate] {gate}: {parts}")


# ------------------------------------------------------- shared slow setups

@pytest.fixture(scope="module")
def star_microgrid():
    """9-node star with couplings rescaled to order one, observer at theta 6."""
    pair = star_pair(9)
    assignment = solve(pair)
    plant = build_microgrid(pair, seed=1, coupling_scale=2.5e8)
    controller = ControllerGains(K_blocks={})
    design = synthesize(
        plant, assignment, pair, 6.0, controller,
        policy="auto", poles=(-4.0, -9.0),
    )
    return pair, assignment, plant, controller, design


@pytest.fixture(scope="module")
def star_microgrid_run(star_microgrid):
    pair, assignment, plant, controller, design = star_microgrid
    t0 = perf_counter()
    result = run_distributed(
        plant, assignment, pair, design, controller,
        SimConfig(horizon=10.0, seed=0),
    )
    return result, perf_counter() - t0


@pytest.fixture(scope="module")
def ring_runs():
    """Singleton covers on a 4-node ring, run to steady state at three thetas."""
    pair = NetworkPair.from_edges(4, [], [(1, 2), (2, 3), (3, 4), (4, 1)])
    assignment = solve(pair)
    blocks: dict[tuple[int, int], np.ndarray] = {}
    b: dict[int, np.ndarray] = {}
    c: dict[int, np.ndarray] = {}
    gains: dict[tuple[int, int], np.ndarray] = {}
    for i in range(1, 5):
        blocks[(i, i)] = np.array([[0.0, 1.0], [-1.0, -1.0]])
        b[i] = np.array([[0.0], [1.0]])
        c[i] = np.array([[1.0, 0.0]])
        gains[(i, i)] = np.array([[-2.0, -2.0]])
    plant = BlockPlant(N=4, n=2, m=1, p=1, A_blocks=blocks, B_blocks=b, C_blocks=c)
    controller = ControllerGains(K_blocks=gains)
    out = []
    for theta in (5.0, 10.0, 15.0):
        design = synthesize(
            plant, assignment, pair, theta, controller, policy="paper"
        )
        result = run_distributed(
            plant, assignment, pair, design, controller,
            SimConfig(horizon=16.0, seed=0),
        )
        out.append(
            (theta, design, result,
             invariant_set_report(design, controller, plant, result))
        )
    return out


@pytest.fixture(scope="module")
def recovery_sweep(recovery_benchmark):
    pair, assignment, plant, controller = recovery_benchmark
    t0 = perf_counter()
    designs = [
        synthesize(
            plant, assignment, pair, theta, controller,
            gamma=500.0, policy="fixed", poles=(-8.0, -16.0),
        )
        for theta in (2.0, 3.0, 5.0, 7.0, 9.0, 12.0, 15.0)
    ]
    rows = theta_sweep(
        plant, assignment, pair, designs, repeats=6, seed=0, controller=controller,
        observer_init=0.0, force=True,
    )
    return rows, perf_counter() - t0


@pytest.fixture(scope="module")
def recovery_spot_runs(recovery_benchmark):
    """Two full runs at the sweep endpoints, kept for the identity gate."""
    pair, assignment, plant, controller = recovery_benchmark
    out = []
    for theta in (2.0, 15.0):
        design = synthesize(
            plant, assignment, pair, theta, controller,
            gamma=500.0, policy="fixed", poles=(-8.0, -16.0),
        )
        result = run_distributed(
            plant, assignment, pair, design, controller,
            SimConfig(horizon=10.0, seed=0, observer_init=0.0, force=True),
        )
        out.append((theta, result))
    return out


# ------------------------------------------------------------------- gates

def test_criterion_01_random_pairs_yield_valid_covers():
    t0 = perf_counter()
    pairs = random_pairs(1000, 40, seed=11)
    assert len(pairs) == 1000
    violations = 0
    for pair in pairs:
        violations += len(validate(solve(pair), pair).violations)
    elapsed = perf_counter() - t0
    assert violations == 0
    assert elapsed < 120.0
    report("cover validity", pairs=1000, violations=violations,
           seconds=round(elapsed, 1))


def test_criterion_02_star_cover_is_exactly_the_hub_pairs(star9):
    assignment = solve(star9)
    members = {s.members for s in assignment.sets}
    expected = {(1, k) for k in range(2, 10)}
    assert members == expected
    merged_again = merge(assignment, star9)
    assert {s.members for s in merged_again.sets} == expected
    report("star exactness", sets=len(members), stable_under_merge=True)


def test_criterion_03_cluster_fixtures_valid_and_within_load_budget(
    two_cluster_pair, chain_cluster_pair
):
    # hand covers: {1,2,3},{4,5,6},{3,4} -> 22 and the doubled-chain
    # version -> 36; solver output may differ but not by more than 20%
    budgets = [(two_cluster_pair, 22), (chain_cluster_pair, 36)]
    loads = []
    for pair, hand_total in budgets:
        assignment = solve(pair)
        assert validate(assignment, pair).ok
        assert assignment.total_load() <= 1.2 * hand_total
        loads.append(assignment.total_load())
    covered_3 = solve(two_cluster_pair).covered(3)
    assert covered_3 >= {1, 2, 4}
    report("fixture covers", totals=loads, node3_sees=sorted(covered_3))


def test_criterion_04_no_single_edit_beats_solver_output(
    star9, two_cluster_pair, chain_cluster_pair
):
    audited = 0
    for pair in (star9, two_cluster_pair, chain_cluster_pair):
        clean, witness = pareto_local_audit(solve(pair), pair)
        assert clean, witness
        audited += 1
    for pair in random_pairs(100, 8, seed=0):
        clean, witness = pareto_local_audit(solve(pair), pair)
        assert clean, witness
        audited += 1
    report("single-edit audit", assignments=audited, counterexamples=0)


def test_criterion_05_mean_observer_dimension_stays_small():
    n_block, n_nodes = 2, 47
    worst = 0.0
    for seed in range(10):
        pair = gen_random_pair(n_nodes, 3.0, 0.85, seed=seed)
        assert 0.80 <= similarity(pair) <= 0.90
        stats = dimension_stats(solve(pair), n_block)
        fraction = stats.mean_dim / (n_block * n_nodes)
        worst = max(worst, fraction)
        assert fraction <= 0.35
    report("dimension reduction", seeds=10, worst_mean_fraction=round(worst, 3))


def test_criterion_06_solver_time_scales_quadratically_or_better():
    sizes = [50, 100, 200, 400]
    pairs = {n: gen_random_pair(n, 3.0, 0.85, seed=1, tol=0.08) for n in sizes}
    times = {}
    for n in sizes:
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            solve(pairs[n])
            best = min(best, perf_counter() - t0)
        times[n] = best
    ratios = [times[2 * n] / times[n] for n in sizes[:-1]]
    assert all(r <= 5.0 for r in ratios), ratios
    report("solver scaling", ratios=[round(r, 2) for r in ratios],
           t400=round(times[400], 3))


def test_criterion_07_weight_equations_certified_per_agent(star_microgrid):
    _, _, plant, _, design = star_microgrid
    worst_res, worst_eig, worst_absc = 0.0, math.inf, -math.inf
    for i in range(1, plant.N + 1):
        abar, cbar = transform_block(
            plant.A_blocks[(i, i)], plant.C_blocks[i], design.theta
        )
        F = abar - design.Hbar[i] @ cbar
        P = design.P[i]
        residual = np.linalg.norm(
            F.T @ P + P @ F + 2.0 * design.gamma * np.eye(plant.n), "fro"
        )
        worst_res = max(worst_res, residual)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(P).min()))
        worst_absc = max(worst_absc, float(np.linalg.eigvals(F).real.max()))
    assert worst_res <= 1e-8
    assert worst_eig > 0.0
    assert worst_absc < 0.0
    report("weight certificates", agents=plant.N,
           max_residual=f"{worst_res:.2e}", min_eig=f"{worst_eig:.2e}",
           max_abscissa=f"{worst_absc:.2f}")


def test_criterion_08_group_error_identity_holds_every_step(
    star_microgrid_run, ring_runs, recovery_spot_runs
):
    # group_identity_max_rel is the max over all integration steps of a
    # run, so one number per run certifies the whole trajectory
    results = [star_microgrid_run[0]]
    results += [result for _, _, result, _ in ring_runs]
    results += [result for _, result in recovery_spot_runs]
    worst = max(r.group_identity_max_rel for r in results)
    assert worst <= 1e-12
    report("group identity", runs=len(results), worst_rel=f"{worst:.2e}")


def test_criterion_09_observer_error_collapses_three_orders(star_microgrid_run):
    result, elapsed = star_microgrid_run
    e0 = float(result.err_norm[0])
    idx = int(np.searchsorted(result.t, 2.0))
    e2 = float(result.err_norm[idx])
    after = result.err_norm[result.t >= 2.0]
    assert e0 / e2 >= 1e3
    assert float(after.max()) <= 10.0 * e2
    assert elapsed < 300.0
    report("observer convergence", drop_orders=round(math.log10(e0 / e2), 2),
           bounded_after=f"{after.max():.2e}", seconds=round(elapsed, 1))


def test_criterion_10_distributed_cost_approaches_centralized(recovery_sweep):
    rows, elapsed = recovery_sweep
    means = [row["mean_gap"] for row in rows]
    head = means[0]
    assert all(m > 0.0 for m in means)
    inversions = [
        means[k + 1] - means[k]
        for k in range(len(means) - 1)
        if means[k + 1] > means[k]
    ]
    assert len(inversions) <= 1
    assert all(step <= 0.05 * head for step in inversions)
    assert means[-1] <= 0.05 * head
    assert elapsed < 1800.0
    report("performance recovery",
           gaps=[f"{m:.4f}" for m in means],
           tail_over_head=round(means[-1] / head, 4),
           inversions=len(inversions), seconds=round(elapsed, 1))


def test_criterion_11_steady_state_inside_shrinking_radius(ring_runs):
    radii = []
    for theta, design, _, rep in ring_runs:
        assert design.gamma == pytest.approx(100.0 * theta * theta)
        assert rep["within_omega_x"] is True
        assert rep["steady_state_norm"] <= rep["omega_x_radius"]
        radii.append(rep["omega_x_radius"])
    assert radii[0] > radii[1] > radii[2]
    report("shrinking radius",
           radii=[f"{r:.3e}" for r in radii],
           steady=[f"{rep['steady_state_norm']:.1e}" for *_, rep in ring_runs])


def test_criterion_12_step_halving_shows_fourth_order_ratio():
    plant = BlockPlant(
        N=1, n=1, m=1, p=1,
        A_blocks={(1, 1): np.array([[-1.0]])},
        B_blocks={1: np.array([[0.0]])},
        C_blocks={1: np.array([[1.0]])},
    )
    gains = ControllerGains(K_blocks={})
    errors = {}
    for h in (0.2, 0.1):
        result = run_centralized(
            plant, gains,
            SimConfig(horizon=2.0, step=h, x0=np.array([1.0]), record_points=11),
        )
        errors[h] = abs(float(result.x[-1, 0]) - math.exp(-2.0))
    ratio = errors[0.2] / errors[0.1]
    assert 12.0 <= ratio <= 20.0
    report("integrator order", ratio=round(ratio, 2))
