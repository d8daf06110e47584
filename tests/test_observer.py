from __future__ import annotations

import numpy as np
import pytest

from coverobs.coverage import CoverAssignment, CoverSet, solve
from coverobs.gains import ControllerGains, ObserverDesign, design_controller_microgrid, synthesize
from coverobs.netgraph import NetworkPair, star_pair
from coverobs.observer import ObserverError, build_observer_matrices
from coverobs.plant import BlockPlant, build_microgrid
from observer_oracle import (
    BankLayout,
    ObserverBank,
    control_applied,
    control_cross,
    control_self,
    error_groupings,
    fuse,
    observer_rhs,
    saturate,
)


def two_node_system():
    pair = NetworkPair.from_edges(2, [(1, 2), (2, 1)], [(1, 2)])
    a11 = np.array([[0.0, 1.0], [-2.0, -3.0]])
    a22 = np.array([[0.0, 1.0], [-5.0, -4.0]])
    a12 = np.array([[0.0, 0.0], [0.7, 0.1]])
    a21 = np.array([[0.0, 0.0], [-0.4, 0.2]])
    plant = BlockPlant(
        N=2, n=2, m=1, p=1,
        A_blocks={(1, 1): a11, (2, 2): a22, (1, 2): a12, (2, 1): a21},
        B_blocks={1: np.array([[0.0], [1.0]]), 2: np.array([[0.0], [1.0]])},
        C_blocks={1: np.array([[1.0, 0.0]]), 2: np.array([[1.0, 0.0]])},
    )
    gains = ControllerGains(
        K_blocks={
            (1, 1): np.array([[-1.0, -2.0]]),
            (1, 2): np.array([[0.3, 0.0]]),
            (2, 2): np.array([[-2.0, -1.0]]),
            (2, 1): np.array([[-0.2, 0.1]]),
        }
    )
    assignment = solve(pair)
    design = synthesize(
        plant, assignment, pair, theta=3.0, controller=gains,
        gamma=4.0, policy="fixed", poles=(-4.0, -9.0),
    )
    layout = BankLayout.build(assignment, 2)
    return pair, plant, gains, assignment, design, layout


def microgrid_system(n_nodes=6, theta=6.0):
    pair = star_pair(n_nodes)
    plant = build_microgrid(pair, seed=1, coupling_scale=2.5e8)
    gains = design_controller_microgrid(plant)
    assignment = solve(pair)
    design = synthesize(
        plant, assignment, pair, theta, gains, poles=(-4.0, -9.0)
    )
    layout = BankLayout.build(assignment, 2)
    return pair, plant, gains, assignment, design, layout


# ------------------------------------------------------------------ layout

def test_layout_slot_order(two_cluster_pair):
    assignment = solve(two_cluster_pair)
    layout = BankLayout.build(assignment, 2)
    # agent 3 belongs to sets 1 and 3; its slots are contiguous and ordered
    agent3 = [s for s in layout.slots if s[0] == 3]
    assert agent3 == [(3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 3, 3), (3, 3, 4)]
    lo, hi = layout.agent_span[3]
    assert layout.slots[lo:hi] == tuple(agent3)
    # total scalar count matches the load bookkeeping
    assert layout.dim == 2 * assignment.total_load()


def test_layout_missing_slot_raises(star9):
    assignment = solve(star9)
    layout = BankLayout.build(assignment, 2)
    with pytest.raises(ObserverError):
        layout.offset(2, 1, 5)  # leaf 2 never estimates leaf 5


# ---------------------------------------------------------- fuse, saturate

def test_saturate_values():
    v = np.array([-3.0, 0.5, 2.0])
    np.testing.assert_array_equal(saturate(v, 1.0), [-1.0, 0.5, 1.0])
    np.testing.assert_array_equal(saturate(v, 10.0), v)
    with pytest.raises(ObserverError):
        saturate(v, 0.0)


def test_saturate_matches_clamp_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.normal(scale=5.0, size=8)
        m = float(rng.uniform(0.1, 4.0))
        want = np.array([min(max(c, -m), m) for c in v])
        np.testing.assert_array_equal(saturate(v, m), want)


def test_fuse_single_and_mean(two_cluster_pair):
    assignment = solve(two_cluster_pair)
    layout = BankLayout.build(assignment, 2)
    xi = np.zeros(layout.dim)
    # node 3 sits in sets 1 and 3; plant node 3's value differs per set
    k1 = layout.offset(3, 1, 3)
    k3 = layout.offset(3, 3, 3)
    xi[k1 : k1 + 2] = [1.0, 2.0]
    xi[k3 : k3 + 2] = [3.0, 6.0]
    np.testing.assert_allclose(fuse(layout, assignment, xi, 3, 3), [2.0, 4.0])
    # node 1 appears once for agent 3
    k = layout.offset(3, 1, 1)
    xi[k : k + 2] = [5.0, 7.0]
    np.testing.assert_allclose(fuse(layout, assignment, xi, 3, 1), [5.0, 7.0])
    with pytest.raises(ObserverError):
        fuse(layout, assignment, xi, 3, 6)


def test_bank_constant_init(star9):
    assignment = solve(star9)
    layout = BankLayout.build(assignment, 2)
    bank = ObserverBank.constant(layout, assignment, 2.0)
    assert bank.xi.shape == (layout.dim,)
    assert np.all(bank.xi == 2.0)
    np.testing.assert_allclose(bank.fused(1, 4), [2.0, 2.0])


# ------------------------------------------------------------ control laws

def test_control_self_equals_true_input_at_zero_error():
    pair, plant, gains, assignment, design, layout = two_node_system()
    rng = np.random.default_rng(5)
    x = rng.normal(size=4)
    xi = np.zeros(layout.dim)
    for slot_no, (l, p, i) in enumerate(layout.slots):
        xi[slot_no * 2 : slot_no * 2 + 2] = x[(i - 1) * 2 : i * 2]
    for i in (1, 2):
        u_true = np.zeros(1)
        for j in (1, 2):
            u_true += gains.K_blocks[(i, j)] @ x[(j - 1) * 2 : j * 2]
        got = control_self(plant, gains, layout, assignment, pair, xi, i)
        np.testing.assert_allclose(got, u_true, atol=1e-14)
        # cross law drops the self gain term
        cross = control_cross(plant, gains, layout, assignment, pair, xi, 3 - i, i)
        want = u_true - gains.K_blocks[(i, i)] @ x[(i - 1) * 2 : i * 2]
        np.testing.assert_allclose(cross, want, atol=1e-14)


def test_control_self_error_bound():
    pair, plant, gains, assignment, design, layout = microgrid_system()
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = rng.normal(size=plant.state_dim)
        xi = rng.normal(size=layout.dim)
        groups = error_groupings(layout, xi, x)
        for i in range(1, plant.N + 1):
            u_true = np.zeros(1)
            for j in sorted(pair.phys_neighbors(i) | {i}):
                u_true += gains.K_block(i, j, 1, 2) @ x[(j - 1) * 2 : j * 2]
            got = control_self(plant, gains, layout, assignment, pair, xi, i)
            lhs = np.linalg.norm(got - u_true)
            rhs = np.sqrt(2.0) * gains.row_norm(i) * np.linalg.norm(
                groups["e_by_agent"][i]
            )
            assert lhs <= rhs + 1e-12


def test_control_applied_is_clamped_self():
    pair, plant, gains, assignment, design, layout = two_node_system()
    rng = np.random.default_rng(11)
    xi = rng.normal(scale=10.0, size=layout.dim)
    level = 2.0
    for i in (1, 2):
        want = np.zeros(1)
        for j in (1, 2):
            want += gains.K_blocks[(i, j)] @ saturate(
                fuse(layout, assignment, xi, i, j), level
            )
        got = control_applied(plant, gains, layout, assignment, pair, xi, i, level)
        np.testing.assert_allclose(got, want, atol=1e-14)
    big = control_self(plant, gains, layout, assignment, pair, xi, 1)
    assert not np.allclose(
        big, control_applied(plant, gains, layout, assignment, pair, xi, 1, level)
    )


# ------------------------------------------------------- dynamics, longhand

def test_rhs_matches_longhand_two_agent():
    pair, plant, gains, assignment, design, layout = two_node_system()
    rng = np.random.default_rng(13)
    x = rng.normal(size=4)
    xi = rng.normal(size=layout.dim)
    y = np.array([x[0], x[2]])

    a11, a12 = plant.A_blocks[(1, 1)], plant.A_blocks[(1, 2)]
    a21, a22 = plant.A_blocks[(2, 1)], plant.A_blocks[(2, 2)]
    b = np.array([[0.0], [1.0]])
    k11, k12 = gains.K_blocks[(1, 1)], gains.K_blocks[(1, 2)]
    k21, k22 = gains.K_blocks[(2, 1)], gains.K_blocks[(2, 2)]
    g1, g2 = design.injection_gain(1), design.injection_gain(2)
    w1, w2 = design.consensus_weight(1), design.consensus_weight(2)
    stiff = design.stiff_scale

    h = {}
    for l, p, i in layout.slots:
        k = layout.offset(l, p, i)
        h[(l, i)] = xi[k : k + 2]

    want = np.concatenate([
        # agent 1, own state: injection, coupling, input estimate, consensus
        a11 @ h[(1, 1)] + a12 @ h[(1, 2)]
        + g1 @ (y[0:1] - h[(1, 1)][0:1])
        + (b @ (k11 @ h[(1, 1)] + k12 @ h[(1, 2)])).ravel()
        + w1 @ (h[(2, 1)] - h[(1, 1)]),
        # agent 1 estimating agent 2: truncated input, raw consensus
        a22 @ h[(1, 2)] + a21 @ h[(1, 1)]
        + (b @ (k21 @ h[(1, 1)])).ravel()
        + stiff * (h[(2, 2)] - h[(1, 2)]),
        # agent 2 estimating agent 1
        a11 @ h[(2, 1)] + a12 @ h[(2, 2)]
        + (b @ (k12 @ h[(2, 2)])).ravel()
        + stiff * (h[(1, 1)] - h[(2, 1)]),
        # agent 2, own state
        a22 @ h[(2, 2)] + a21 @ h[(2, 1)]
        + g2 @ (y[1:2] - h[(2, 2)][0:1])
        + (b @ (k21 @ h[(2, 1)] + k22 @ h[(2, 2)])).ravel()
        + w2 @ (h[(1, 2)] - h[(2, 2)]),
    ])
    got = observer_rhs(plant, pair, assignment, design, gains, layout, xi, y)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_rhs_single_agent_is_plain_luenberger():
    pair = NetworkPair.from_edges(1, [], [])
    plant = BlockPlant(
        N=1, n=2, m=1, p=1,
        A_blocks={(1, 1): np.array([[0.0, 1.0], [-1.0, -2.0]])},
        B_blocks={1: np.array([[0.0], [1.0]])},
        C_blocks={1: np.array([[1.0, 0.0]])},
    )
    gains = ControllerGains(K_blocks={(1, 1): np.array([[-0.5, -0.5]])})
    assignment = solve(pair)
    design = synthesize(
        plant, assignment, pair, 4.0, gains, gamma=2.0, policy="fixed",
        poles=(-4.0, -9.0),
    )
    layout = BankLayout.build(assignment, 2)
    rng = np.random.default_rng(17)
    xh = rng.normal(size=2)
    x = rng.normal(size=2)
    y = np.array([x[0]])
    got = observer_rhs(plant, pair, assignment, design, gains, layout, xh, y)
    want = (
        plant.A_blocks[(1, 1)] @ xh
        + design.injection_gain(1) @ (y - xh[0:1])
        + (plant.B_blocks[1] @ (gains.K_blocks[(1, 1)] @ xh)).ravel()
    )
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_rhs_flags_broken_assignment():
    pair, plant, gains, _, design, _ = two_node_system()
    broken = CoverAssignment.from_sets(2, [CoverSet(1, (1,)), CoverSet(2, (2,))])
    layout = BankLayout.build(broken, 2)
    with pytest.raises(ObserverError, match="neighbors"):
        observer_rhs(
            plant, pair, broken, design, gains, layout,
            np.zeros(layout.dim), np.zeros(2),
        )


# ------------------------------------------------------------- matrix form

def test_matrices_reproduce_rhs():
    rng = np.random.default_rng(19)
    for system in (two_node_system(), microgrid_system()):
        pair, plant, gains, assignment, design, layout = system
        mats = build_observer_matrices(plant, pair, assignment, design, gains, layout)
        C = __import__("coverobs.plant", fromlist=["assemble"]).assemble(plant)[2].toarray()
        for _ in range(5):
            x = rng.normal(size=plant.state_dim)
            xi = rng.normal(size=layout.dim)
            y = C @ x
            want = observer_rhs(
                plant, pair, assignment, design, gains, layout, xi, y
            )
            got = mats.A_obs @ xi + mats.L_x @ x
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_matrices_applied_control_pipeline():
    pair, plant, gains, assignment, design, layout = microgrid_system()
    mats = build_observer_matrices(plant, pair, assignment, design, gains, layout)
    rng = np.random.default_rng(23)
    xi = rng.normal(scale=8.0, size=layout.dim)
    level = 3.0
    fused = mats.Phi @ xi
    got = mats.K_sel @ np.clip(fused, -level, level)
    for i in range(1, plant.N + 1):
        want = control_applied(
            plant, gains, layout, assignment, pair, xi, i, level
        )
        np.testing.assert_allclose(got[i - 1 : i], want, rtol=1e-10, atol=1e-12)


def test_consensus_block_is_grounded_laplacian_action():
    # zero plant, zero gains, unit weights: the bank reduces to per-set
    # consensus, so the stacked derivative for one target must equal
    # -(stiffness) * (set Laplacian x identity) on the stacked estimates
    pair = NetworkPair.from_edges(3, [], [(1, 2), (2, 3), (1, 3)])
    plant = BlockPlant(
        N=3, n=2, m=1, p=1,
        A_blocks={(i, i): np.zeros((2, 2)) for i in range(1, 4)},
        B_blocks={i: np.zeros((2, 1)) for i in range(1, 4)},
        C_blocks={i: np.array([[1.0, 0.0]]) for i in range(1, 4)},
    )
    gains = ControllerGains(K_blocks={})
    assignment = CoverAssignment.from_sets(3, [CoverSet(1, (1, 2, 3))])
    eye = np.eye(2)
    # theta = 1 keeps the high-gain scaling at identity so P = I makes the
    # anchor weight equal the raw stiffness
    design = ObserverDesign(
        theta=1.0, gamma=1.5, n=2, poles=(-1.0, -2.0), policy="fixed",
        Hbar={i: np.zeros((2, 1)) for i in range(1, 4)},
        P={i: eye.copy() for i in range(1, 4)},
        lambda_min_cover=1.0, lambda_A=0.0, lambda_P=1.0, lambda_bar=3.0,
        rho=0.0, norm_A=0.0, norm_B=0.0, gamma_bound=0.0,
    )
    layout = BankLayout.build(assignment, 2)
    mats = build_observer_matrices(plant, pair, assignment, design, gains, layout)
    rng = np.random.default_rng(29)
    xi = rng.normal(size=layout.dim)
    dxi = mats.A_obs @ xi
    lap = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    stiff = design.stiff_scale
    for target in (1, 2, 3):
        stack = np.concatenate(
            [layout.estimate(xi, l, 1, target) for l in (1, 2, 3)]
        )
        want = -stiff * np.kron(lap, eye) @ stack
        got = np.concatenate(
            [
                dxi[layout.offset(l, 1, target) : layout.offset(l, 1, target) + 2]
                for l in (1, 2, 3)
            ]
        )
        # with P = I the target's own row weight equals the raw stiffness
        np.testing.assert_allclose(got, want, rtol=1e-12)


# ----------------------------------------------------------- error algebra

def test_grouping_identity_exact(star9):
    assignment = solve(star9)
    layout = BankLayout.build(assignment, 2)
    rng = np.random.default_rng(31)
    for _ in range(10):
        xi = rng.normal(size=layout.dim)
        x = rng.normal(size=18)
        g = error_groupings(layout, xi, x)
        assert g["sumsq_by_agent"] == pytest.approx(g["total"] ** 2, rel=1e-13)
        assert g["sumsq_by_target"] == pytest.approx(g["total"] ** 2, rel=1e-13)


def test_group_norm_sum_bound_and_counterexample():
    pair = star_pair(4)
    assignment = solve(pair)
    layout = BankLayout.build(assignment, 2)
    x = np.zeros(8)
    rng = np.random.default_rng(37)
    # general bound: sum of group norms <= sqrt(group count) * flat norm
    for _ in range(20):
        xi = rng.normal(size=layout.dim)
        g = error_groupings(layout, xi, x)
        norms = [np.linalg.norm(v) for v in g["e_star_by_target"].values()]
        assert sum(norms) <= np.sqrt(len(norms)) * g["total"] + 1e-12

    # sqrt(2) does not bound the sum once three or more groups are active:
    # three unit-norm groups give sum 3 > sqrt(2)*sqrt(3)
    xi = np.zeros(layout.dim)
    for l, p, i in [(1, 1, 1), (1, 2, 3), (1, 3, 4)]:
        xi[layout.offset(l, p, i)] = 1.0
    g = error_groupings(layout, xi, x)
    norms = [np.linalg.norm(v) for v in g["e_star_by_target"].values()]
    assert sum(norms) == pytest.approx(3.0)
    assert sum(norms) > np.sqrt(2.0) * g["total"]
