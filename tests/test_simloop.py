"""Integrator and metric tests for the closed-loop simulation module."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from coverobs import simloop
from coverobs.coverage import solve
from coverobs.gains import (
    ControllerGains, design_controller_microgrid, invariant_set_report, synthesize,
)
from coverobs.netgraph import NetworkPair, star_pair
from coverobs.plant import BlockPlant, build_microgrid
from coverobs.simloop import (
    SimConfig,
    SimError,
    SimResult,
    performance_index,
    run_centralized,
    run_distributed,
    suggest_step,
    theta_sweep,
)


def scalar_plant(a: float) -> BlockPlant:
    return BlockPlant(
        N=1, n=1, m=1, p=1,
        A_blocks={(1, 1): np.array([[a]])},
        B_blocks={1: np.array([[0.0]])},
        C_blocks={1: np.array([[1.0]])},
    )


def two_node_setup():
    pair = NetworkPair(2, [[1, 2], [2, 1]], [(1, 2)])
    assignment = solve(pair)
    a11 = np.array([[0.0, 1.0], [-2.0, -3.0]])
    a22 = np.array([[0.0, 1.0], [-1.0, -2.0]])
    a12 = np.array([[0.0, 0.0], [0.3, 0.0]])
    a21 = np.array([[0.0, 0.0], [0.5, 0.0]])
    plant = BlockPlant(
        N=2, n=2, m=1, p=1,
        A_blocks={(1, 1): a11, (2, 2): a22, (1, 2): a12, (2, 1): a21},
        B_blocks={1: np.array([[0.0], [1.0]]), 2: np.array([[0.0], [1.0]])},
        C_blocks={1: np.array([[1.0, 0.0]]), 2: np.array([[1.0, 0.0]])},
    )
    gains = ControllerGains(K_blocks={
        (1, 1): np.array([[-1.0, -1.0]]),
        (2, 2): np.array([[-1.0, -1.0]]),
        (1, 2): np.array([[0.3, 0.0]]),
        (2, 1): np.array([[0.5, 0.0]]),
    })
    design = synthesize(
        plant, assignment, pair, 3.0, gains,
        gamma=40.0, policy="fixed", poles=(-4.0, -9.0),
    )
    return pair, plant, gains, assignment, design


# ------------------------------------------------------------- centralized

def test_scalar_decay_matches_closed_form():
    plant = scalar_plant(-1.0)
    cfg = SimConfig(horizon=1.0, step=0.01, x0=np.array([1.0]))
    res = run_centralized(plant, ControllerGains(K_blocks={}), cfg)
    assert abs(res.x[-1, 0] - np.exp(-1.0)) <= 1e-9


def test_zero_start_stays_zero():
    plant = scalar_plant(-1.0)
    cfg = SimConfig(horizon=1.0, x0=np.array([0.0]))
    res = run_centralized(plant, ControllerGains(K_blocks={}), cfg)
    assert np.all(res.x == 0.0)
    assert res.I_x == 0.0
    assert res.steady_state_error == 0.0


def test_step_halving_shows_fourth_order():
    # criterion rehearsal: error ratio under h -> h/2 near the theoretical 16
    plant = scalar_plant(-1.0)
    x0 = np.array([1.0])
    exact = np.exp(-2.0)
    errs = []
    for h in (0.2, 0.1):
        cfg = SimConfig(horizon=2.0, step=h, x0=x0)
        res = run_centralized(plant, ControllerGains(K_blocks={}), cfg)
        errs.append(abs(res.x[-1, 0] - exact))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_matrix_exponential_oracle_small_system():
    pair, plant, gains, assignment, design = two_node_setup()
    x0 = np.array([0.4, -0.2, 0.7, 0.1])
    cfg = SimConfig(horizon=5.0, x0=x0)
    res = run_centralized(plant, gains, cfg)
    from coverobs.plant import assemble
    A, B, _ = assemble(plant)
    acl = (A + B @ gains.assemble_K(plant)).toarray()
    for k in (0, len(res.t) // 2, len(res.t) - 1):
        want = expm(acl * res.t[k]) @ x0
        np.testing.assert_allclose(res.x[k], want, rtol=1e-7, atol=1e-10)


def test_uniform_grid_lands_on_horizon():
    plant = scalar_plant(-1.0)
    cfg = SimConfig(horizon=1.0, step=0.3, x0=np.array([1.0]), record_points=5)
    res = run_centralized(plant, ControllerGains(K_blocks={}), cfg)
    assert res.t[-1] == pytest.approx(1.0)
    gaps = np.diff(res.t)
    np.testing.assert_allclose(gaps, gaps[0])
    assert res.h * res.steps == pytest.approx(1.0)
    assert res.h <= 0.3


def test_suggest_step_uses_spectral_radius():
    assert suggest_step(np.array([[-2.0]]), 10.0) == pytest.approx(
        0.7 * 2.785 / 2.0
    )
    assert suggest_step(np.zeros((2, 2)), 10.0) == pytest.approx(0.1)


# -------------------------------------------------------------- index I_x

def test_zero_start_on_an_unstable_plant_stays_zero():
    # the record fill's powers of R stop before one that overflows (R^2048
    # here): its infinities times the zero state would read as a blow-up
    plant = scalar_plant(1.0)
    cfg = SimConfig(horizon=5000.0, x0=np.array([0.0]))
    res = run_centralized(plant, ControllerGains(K_blocks={}), cfg)
    assert np.all(res.x == 0.0)


def test_index_of_constant_trajectory():
    plant = scalar_plant(0.0)
    cfg = SimConfig(horizon=1.0, x0=np.array([3.0]))
    res = run_centralized(plant, ControllerGains(K_blocks={}), cfg)
    assert res.I_x == pytest.approx(9.0, rel=1e-9)


def test_index_of_exponential_decay():
    # quadrature runs on the record grid, so it must be fine enough for 1e-6
    plant = scalar_plant(-1.0)
    cfg = SimConfig(
        horizon=10.0, step=0.001, x0=np.array([1.0]), record_points=10001
    )
    res = run_centralized(plant, ControllerGains(K_blocks={}), cfg)
    assert res.I_x == pytest.approx((1.0 - np.exp(-20.0)) / 2.0, abs=1e-6)
    assert performance_index(res) == res.I_x


# ------------------------------------------------------------- distributed

def test_distributed_converges_and_checks_identity():
    pair, plant, gains, assignment, design = two_node_setup()
    cfg = SimConfig(horizon=8.0, seed=3)
    res = run_distributed(plant, assignment, pair, design, gains, cfg)
    assert res.err_norm[0] > 1.0
    assert res.err_norm[-1] < 1e-3
    assert res.group_identity_max_rel <= 1e-12
    assert res.max_input_mismatch > 0.0


def test_distributed_is_deterministic():
    pair, plant, gains, assignment, design = two_node_setup()
    cfg = SimConfig(horizon=4.0, seed=5)
    a = run_distributed(plant, assignment, pair, design, gains, cfg)
    b = run_distributed(plant, assignment, pair, design, gains, cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.err_norm, b.err_norm)
    assert a.I_x == b.I_x


def test_saturation_inactive_matches_linear_flow():
    pair, plant, gains, assignment, design = two_node_setup()
    big = SimConfig(horizon=4.0, seed=7, sat_level=1e7)
    huge = SimConfig(horizon=4.0, seed=7, sat_level=1e9)
    ra = run_distributed(plant, assignment, pair, design, gains, big)
    rb = run_distributed(plant, assignment, pair, design, gains, huge)
    assert ra.sat_steps == 0 and rb.sat_steps == 0
    assert np.array_equal(ra.x, rb.x)

    # a clamp tight enough to engage must change the trajectory
    tight = SimConfig(horizon=4.0, seed=7, sat_level=0.5)
    rc = run_distributed(plant, assignment, pair, design, gains, tight)
    assert rc.sat_steps > 0
    assert not np.array_equal(ra.x, rc.x)


def test_refuses_gamma_below_threshold_unless_forced():
    pair, plant, gains, assignment, _ = two_node_setup()
    weak = synthesize(
        plant, assignment, pair, 3.0, gains,
        gamma=0.01, policy="fixed", poles=(-4.0, -9.0),
    )
    assert weak.gamma <= weak.gamma_bound
    cfg = SimConfig(horizon=1.0, seed=1)
    with pytest.raises(SimError, match="threshold"):
        run_distributed(plant, assignment, pair, weak, gains, cfg)
    forced = SimConfig(horizon=1.0, seed=1, force=True)
    res = run_distributed(plant, assignment, pair, weak, gains, forced)
    assert np.all(np.isfinite(res.x))


def diverging_setup():
    # node 2 is open-loop unstable; with a near-zero coupling gain the copy
    # of node 2 on agent 1 has no injection and no effective consensus, so
    # it grows until the blow-up guard trips
    pair = NetworkPair(2, [[2, 1]], [(1, 2)])
    assignment = solve(pair)
    plant = BlockPlant(
        N=2, n=2, m=1, p=1,
        A_blocks={
            (1, 1): np.array([[0.0, 1.0], [-2.0, -3.0]]),
            (2, 2): np.array([[0.0, 1.0], [3.0, 0.0]]),
            (1, 2): np.array([[0.0, 0.0], [0.2, 0.0]]),
        },
        B_blocks={1: np.array([[0.0], [1.0]]), 2: np.array([[0.0], [1.0]])},
        C_blocks={1: np.array([[1.0, 0.0]]), 2: np.array([[1.0, 0.0]])},
    )
    gains = ControllerGains(K_blocks={
        (1, 1): np.array([[-1.0, -1.0]]),
        (2, 2): np.array([[-4.0, -4.0]]),
        (1, 2): np.array([[0.2, 0.0]]),
    })
    weak = synthesize(
        plant, assignment, pair, 2.0, gains,
        gamma=1e-4, policy="fixed", poles=(-4.0, -9.0),
    )
    return plant, assignment, pair, weak, gains


def test_divergence_reports_diagnostics():
    cfg = SimConfig(horizon=40.0, seed=2, force=True)
    with pytest.raises(SimError, match="diverged"):
        run_distributed(*diverging_setup(), cfg)


def test_step_pick_runs_once_per_run(monkeypatch):
    calls = []

    def counted(M, horizon):
        calls.append(horizon)
        return suggest_step(M, horizon)

    monkeypatch.setattr(simloop, "suggest_step", counted)
    setup = diverging_setup()
    for step in (None, 0.01):
        calls.clear()
        cfg = SimConfig(horizon=40.0, step=step, seed=2, force=True)
        with pytest.raises(SimError, match="suggested"):
            run_distributed(*setup, cfg)
        assert len(calls) == 1
    # with the step given, a run that does not diverge never picks one
    calls.clear()
    cfg = SimConfig(horizon=1.0, step=0.01, seed=2, force=True)
    run_distributed(*setup, cfg)
    assert calls == []


# ------------------------------------------------------------------ sweep

def test_theta_sweep_single_row_shape():
    pair, plant, gains, assignment, _ = two_node_setup()
    design = synthesize(
        plant, assignment, pair, 3.0, gains, gamma=40.0, policy="fixed", poles=(-4.0, -9.0)
    )
    rows = theta_sweep(
        plant, assignment, pair, [design], repeats=1, seed=11,
        controller=gains, horizon=4.0,
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["theta"] == 3.0
    assert row["mean_gap"] == row["min_gap"] == row["max_gap"]
    assert np.isfinite(row["mean_gap"])


def test_theta_sweep_rejects_a_negative_seed():
    # numpy's generator raised ValueError for it
    pair, plant, gains, assignment, design = two_node_setup()
    with pytest.raises(SimError, match="seed must be a non-negative integer, got -1"):
        theta_sweep(plant, assignment, pair, [design], repeats=1, seed=-1, controller=gains)


def test_theta_sweep_gap_shrinks_with_theta(recovery_benchmark):
    # observers start at zero, so the distributed loop under-actuates until
    # the estimates settle; faster observers should shrink that penalty
    pair, assignment, plant, gains = recovery_benchmark
    designs = [
        synthesize(
            plant, assignment, pair, theta, gains,
            gamma=500.0, policy="fixed", poles=(-8.0, -16.0),
        )
        for theta in (2.0, 8.0)
    ]
    rows = theta_sweep(
        plant, assignment, pair, designs, repeats=1, seed=0,
        controller=gains, observer_init=0.0, force=True,
    )
    assert rows[0]["mean_gap"] > 0.0
    assert rows[1]["mean_gap"] < 0.25 * rows[0]["mean_gap"]


def assert_same_result(got: SimResult, want: SimResult) -> None:
    for field in dataclasses.fields(SimResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("controlled", [False, True], ids=["star9-free", "star5-controlled"])
def test_theta_sweep_equals_single_runs(controlled):
    # the sweep builds the centralized loop once and each theta's distributed
    # loop once, and runs every start on them: every run equals
    # run_centralized or run_distributed for its start, bit for bit, and so
    # do the rows
    pair = star_pair(5 if controlled else 9)
    plant = build_microgrid(pair, seed=1, coupling_scale=2.5e8)
    controller = (
        design_controller_microgrid(plant) if controlled else ControllerGains(K_blocks={})
    )
    assignment = solve(pair)
    # the controller's fast poles take h to ~1e-6 s
    thetas, repeats, seed, poles = [4.0, 6.0], 3, 5, (-4.0, -9.0)
    horizon = 2e-3 if controlled else 1.0
    designs = [
        synthesize(plant, assignment, pair, theta, controller, poles=poles) for theta in thetas
    ]
    rows = theta_sweep(
        plant, assignment, pair, designs, repeats, seed, controller,
        horizon=horizon,
    )
    rng = np.random.default_rng(seed)
    cfgs = [
        SimConfig(horizon=horizon, x0=rng.uniform(0.0, 1.0, size=plant.state_dim),
                  record_points=1001)
        for _ in range(repeats)
    ]
    central = [run_centralized(plant, controller, cfg) for cfg in cfgs]
    shared = simloop._Centralized(plant, controller, cfgs[0])
    for cfg, want in zip(cfgs, central):
        assert_same_result(shared.run(cfg), want)
    for theta, design, row in zip(thetas, designs, rows):
        loop = simloop._Distributed(plant, assignment, pair, design, controller, cfgs[0])
        assert loop.linear is not controlled
        # a controller-free loop builds no controller columns
        assert (loop.BK is None) is not controlled
        gaps = []
        for cfg, ref in zip(cfgs, central):
            want = run_distributed(plant, assignment, pair, design, controller, cfg)
            assert_same_result(loop.run(cfg), want)
            gaps.append(want.I_x - ref.I_x)
            if controlled:
                # the clamp level is the start's, not the loop's
                tight = dataclasses.replace(cfg, sat_level=0.5)
                want = run_distributed(plant, assignment, pair, design, controller, tight)
                assert want.sat_steps > 0
                assert_same_result(loop.run(tight), want)
        assert row == {
            "theta": theta,
            "mean_gap": float(np.mean(gaps)),
            "min_gap": float(np.min(gaps)),
            "max_gap": float(np.max(gaps)),
        }


# --------------------------------------------------------- invariant sets

def test_invariant_report_fields_and_containment():
    pair, plant, gains, assignment, design = two_node_setup()
    cfg = SimConfig(horizon=8.0, seed=3)
    res = run_distributed(plant, assignment, pair, design, gains, cfg)
    rep = invariant_set_report(design, gains, plant, res)
    assert rep["c_theta"] > 0.0
    assert 0.0 < rep["omega_e_radius"] < np.inf
    assert 0.0 < rep["omega_x_radius"] < np.inf
    assert rep["c_K"] == res.max_input_mismatch
    assert rep["W_T1"] >= res.steady_state_error
    assert rep["within_omega_x"] is True


def test_invariant_radius_drops_as_theta_grows():
    pair, plant, gains, assignment, _ = two_node_setup()
    radii = []
    for theta in (5.0, 10.0):
        design = synthesize(
            plant, assignment, pair, theta, gains,
            gamma=100.0 * theta * theta, policy="fixed", poles=(-4.0, -9.0),
        )
        cfg = SimConfig(horizon=6.0, seed=9)
        res = run_distributed(plant, assignment, pair, design, gains, cfg)
        radii.append(invariant_set_report(design, gains, plant, res)["omega_x_radius"])
    assert radii[1] < radii[0]
