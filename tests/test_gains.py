from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

import coverobs
import gains_oracle
from coverobs import gains
from coverobs.coverage import solve
from coverobs.gains import (
    DESIGN_CONSTANTS,
    ControllerGains,
    GainsError,
    check_poles,
    design_controller_microgrid,
    design_observer_gain,
    gamma_lower_bound,
    gamma_scaling,
    load_controller,
    load_design,
    save_controller,
    save_design,
    solve_weight,
    spectral_abscissa,
    synthesize,
    transform_block,
)
from coverobs.netgraph import NetworkPair, gen_random_pair, star_pair
from coverobs.plant import BlockPlant, assemble, build_microgrid

TUNED_POLES = (-4.0, -9.0)


def single_node_setup():
    pair = NetworkPair.from_edges(1, [], [])
    plant = BlockPlant(
        N=1, n=2, m=1, p=1,
        A_blocks={(1, 1): np.array([[0.0, 1.0], [-1.0, -2.0]])},
        B_blocks={1: np.array([[0.0], [1.0]])},
        C_blocks={1: np.array([[1.0, 0.0]])},
    )
    controller = ControllerGains(K_blocks={(1, 1): np.array([[-1.0, -1.0]])})
    return pair, plant, controller


# ----------------------------------------------------------------- scaling

def test_gamma_scaling_values():
    np.testing.assert_array_equal(gamma_scaling(2, 10.0), np.diag([10.0, 1.0]))
    np.testing.assert_array_equal(gamma_scaling(3, 2.0), np.diag([4.0, 2.0, 1.0]))
    np.testing.assert_array_equal(gamma_scaling(2, 1.0), np.eye(2))
    with pytest.raises(GainsError):
        gamma_scaling(2, 0.5)


def test_transform_identity_at_theta_one():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    c = rng.normal(size=(1, 3))
    abar, cbar = transform_block(a, c, 1.0)
    np.testing.assert_allclose(abar, a)
    np.testing.assert_allclose(cbar, c)


def test_transform_matches_hand_formula_n2():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.normal(size=(2, 2))
        c = rng.normal(size=(1, 2))
        theta = float(rng.uniform(1.0, 20.0))
        abar, cbar = transform_block(a, c, theta)
        want_a = np.array(
            [
                [a[0, 0] / theta, a[0, 1]],
                [a[1, 0] / theta**2, a[1, 1] / theta],
            ]
        )
        want_c = np.array([[c[0, 0] / theta, c[0, 1]]])
        np.testing.assert_allclose(abar, want_a, rtol=1e-12)
        np.testing.assert_allclose(cbar, want_c, rtol=1e-12)


# --------------------------------------------------------------- injection

def test_observer_gain_places_poles():
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    c = np.array([[1.0, 0.0]])
    for theta in (1.0, 6.0):
        hbar = design_observer_gain(a, c, theta, (-1.0, -2.0))
        abar, cbar = transform_block(a, c, theta)
        eigs = sorted(np.linalg.eigvals(abar - hbar @ cbar).real)
        np.testing.assert_allclose(eigs, [-2.0, -1.0], atol=1e-9)


def test_observer_gain_rejects_bad_input():
    a = np.diag([-1.0, -2.0])
    c_blind = np.array([[1.0, 0.0]])  # second mode invisible
    with pytest.raises(GainsError, match="observable"):
        design_observer_gain(a, c_blind, 2.0, (-1.0, -2.0))
    good_a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    with pytest.raises(GainsError, match="poles"):
        design_observer_gain(good_a, c_blind, 2.0, (-1.0,))
    with pytest.raises(GainsError, match="negative"):
        design_observer_gain(good_a, c_blind, 2.0, (1.0, -2.0))


def test_check_poles_rejects_repeated_poles():
    assert check_poles((-4, -9), 2) == [-4.0, -9.0]
    with pytest.raises(GainsError, match="distinct"):
        check_poles((-4.0, -4.0), 2)
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    with pytest.raises(GainsError, match="distinct"):
        design_observer_gain(a, np.array([[1.0, 0.0]]), 6.0, (-4.0, -4.0))


# --------------------------------------------------------------- placement

def _scipy_gain(a, b, poles):
    return scipy.signal.place_poles(a, b, poles).gain_matrix


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 6.0),
    data=st.data(),
)
def test_placement_matches_scipy_bit_for_bit(n, seed, log_scale, data):
    poles = data.draw(st.lists(
        st.floats(-1e3, -1e-3), min_size=n, max_size=n, unique=True
    ))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) * 10.0**log_scale
    b = rng.normal(size=(n, 1))
    try:
        want = _scipy_gain(a, b, poles)
    except ValueError:
        with pytest.raises(ValueError):
            gains._place_poles(a, b, poles)
        return
    assert np.array_equal(gains._place_poles(a, b, poles), want, equal_nan=True)


@pytest.mark.filterwarnings("ignore:Convergence was not reached")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 6.0),
    data=st.data(),
)
def test_stacked_placement_matches_scipy_slice_by_slice(n, k, seed, log_scale, data):
    # a stack mixes ranks of B: rank one is placed stacked, rank n by least
    # squares and anything between by scipy itself.  One block may be given a
    # rank that cannot be placed: zero, or one with several input columns.
    m = data.draw(st.integers(1, n))
    low = 1 if m == 1 else 2
    ranks = data.draw(st.lists(st.integers(low, m), min_size=k, max_size=k))
    bad = data.draw(st.integers(-3 * k, k - 1))
    if bad >= 0:
        ranks[bad] = low - 1
    poles = data.draw(st.lists(
        st.floats(-1e3, -1e-3), min_size=n, max_size=n, unique=True
    ))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, n, n)) * 10.0**log_scale
    b = np.stack([rng.normal(size=(n, r)) @ rng.normal(size=(r, m)) for r in ranks])
    want, failed = [], []
    for j in range(k):
        try:
            want.append(_scipy_gain(a[j], b[j], poles))
        except ValueError:
            failed.append(j)
    if failed:
        with pytest.raises(GainsError, match=f"^agent {failed[0] + 1}: "):
            gains._place_poles(a, b, poles)
        return
    got = gains._place_poles(a, b, poles)
    assert got.shape == (k, m, n)
    for j in range(k):
        assert np.array_equal(got[j], want[j], equal_nan=True)


@pytest.fixture(scope="module")
def pair800():
    return gen_random_pair(800, 3.0, 0.85, seed=0, tol=0.08)


@pytest.fixture(scope="module")
def plant800(pair800):
    return build_microgrid(pair800, seed=0)


@pytest.fixture(scope="module")
def cover800(pair800):
    return solve(pair800)


@pytest.mark.parametrize("theta", [1.0, 6.0])
def test_stacked_synthesis_matches_per_agent_oracle_bit_for_bit(
    pair800, plant800, cover800, theta
):
    controller = ControllerGains(K_blocks={})
    design = synthesize(plant800, cover800, pair800, theta, controller, poles=TUNED_POLES)
    hbar, weights, constants = gains_oracle.synthesize(
        plant800, cover800, pair800, theta, controller, TUNED_POLES
    )
    assert set(constants) == set(DESIGN_CONSTANTS)
    for name in DESIGN_CONSTANTS:
        assert getattr(design, name) == constants[name], name
    assert design.gamma == 1.1 * constants["gamma_bound"]
    for i in range(1, plant800.N + 1):
        assert np.array_equal(design.Hbar[i], hbar[i])
        assert np.array_equal(design.P[i], weights[i])


def test_gamma_bound_stays_below_its_dense_assembly_peak(pair800, plant800, cover800):
    # the plant assembled as CSR from its blocks: the traced peak of the
    # N=800 bound is 2.4 MB, against 41.1 MB when A, B and C were dense
    controller = ControllerGains(K_blocks={})
    tracemalloc.start()
    try:
        gamma_lower_bound(plant800, cover800, pair800, 6.0, controller, TUNED_POLES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_placement_matches_scipy_on_every_block_of_a_large_plant(plant800):
    for i in range(1, plant800.N + 1):
        a = plant800.A_blocks[(i, i)]
        for theta in (1.0, 6.0):
            abar, cbar = transform_block(a, plant800.C_blocks[i], theta)
            assert np.array_equal(
                gains._place_poles(abar.T, cbar.T, TUNED_POLES),
                _scipy_gain(abar.T, cbar.T, TUNED_POLES),
            )
        # the controller's local placement of the same block
        b = plant800.B_blocks[i]
        assert np.array_equal(
            gains._place_poles(a, b, [-3.0, -4.0]), _scipy_gain(a, b, [-3.0, -4.0])
        )


def test_controller_blocks_match_scipy(star9):
    plant = build_microgrid(star9, seed=1)
    controller = design_controller_microgrid(plant)
    for i in range(1, plant.N + 1):
        want = _scipy_gain(plant.A_blocks[(i, i)], plant.B_blocks[i], [-3.0, -4.0])
        assert np.array_equal(-controller.K_blocks[(i, i)], want)


def test_placement_with_two_of_three_inputs_defers_to_scipy(monkeypatch):
    # 1 < rank(B) < n leaves scipy's YT iteration something to optimise
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 2))
    poles = [-1.0, -2.0, -3.0]
    want = _scipy_gain(a, b, poles)
    calls = []
    place = scipy.signal.place_poles

    def counted(*args, **kwargs):
        calls.append(args)
        return place(*args, **kwargs)

    monkeypatch.setattr(scipy.signal, "place_poles", counted)
    got = gains._place_poles(a, b, poles)
    assert len(calls) == 1
    assert np.array_equal(got, want)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvals(a - b @ got).real), [-3.0, -2.0, -1.0], rtol=1e-8
    )


def test_cli_import_leaves_scipy_signal_unloaded():
    probe = (
        "import sys, coverobs.cli; "
        "print(' '.join(m for m in ('scipy.signal', 'scipy.stats', "
        "'scipy.interpolate', 'scipy.optimize') if m in sys.modules))"
    )
    src = str(Path(coverobs.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == ""


# ------------------------------------------------------------------ weight

def test_weight_scalar_closed_form():
    p = solve_weight(np.array([[-2.0]]), 3.0)
    np.testing.assert_allclose(p, [[1.5]], rtol=1e-12)


def test_weight_diagonal_closed_form():
    p = solve_weight(np.diag([-1.0, -2.0]), 1.0)
    np.testing.assert_allclose(p, np.diag([1.0, 0.5]), atol=1e-12)


def test_weight_matches_kronecker_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = 4
        f = rng.normal(size=(n, n)) - 3.0 * np.eye(n)
        assert spectral_abscissa(f) < 0
        gamma = float(rng.uniform(0.5, 5.0))
        p = solve_weight(f, gamma)
        lhs = np.kron(np.eye(n), f.T) + np.kron(f.T, np.eye(n))
        rhs = (-2.0 * gamma * np.eye(n)).flatten(order="F")
        want = np.linalg.solve(lhs, rhs).reshape((n, n), order="F")
        np.testing.assert_allclose(p, 0.5 * (want + want.T), rtol=1e-8)
        assert np.min(np.linalg.eigvalsh(p)) > 0


def test_weight_residual_tolerance_scales_with_gamma():
    # at gamma ~ 1e8 the refined solution's absolute residual is ~5e-8, pure
    # round-off against a right-hand side of norm ~3e8
    plant = build_microgrid(star_pair(9), seed=1, coupling_scale=2.5e8)
    a, c = plant.A_blocks[(5, 5)], plant.C_blocks[5]
    hbar = design_observer_gain(a, c, 6.0, TUNED_POLES)
    abar, cbar = transform_block(a, c, 6.0)
    f = abar - hbar @ cbar
    gamma = 1.1e8
    p = solve_weight(f, gamma)
    rhs = -2.0 * gamma * np.eye(2)
    rel = np.linalg.norm(f.T @ p + p @ f - rhs) / np.linalg.norm(rhs)
    assert rel <= 1e-15
    np.testing.assert_allclose(p, gamma * solve_weight(f, 1.0), rtol=1e-10)


def test_weight_scales_linearly_in_gamma():
    f = np.array([[0.0, 1.0], [-5.0, -4.0]])
    p1 = solve_weight(f, 1.0)
    p7 = solve_weight(f, 7.0)
    np.testing.assert_allclose(p7, 7.0 * p1, rtol=1e-10)


def test_weight_rejects_unstable():
    with pytest.raises(GainsError, match="Hurwitz"):
        solve_weight(np.array([[1.0]]), 1.0)
    with pytest.raises(GainsError, match="gamma"):
        solve_weight(np.array([[-1.0]]), 0.0)


def _assert_lyapunov_is_scipys(f: np.ndarray, q: np.ndarray) -> None:
    want = scipy.linalg.solve_continuous_lyapunov(f.mT, q)
    assert np.array_equal(gains._lyapunov(f.mT, q), want)
    # the refinement's right-hand side: a stack, not one broadcast matrix
    residual = f.mT @ want + want @ f - q
    assert np.array_equal(
        gains._lyapunov(f.mT, residual),
        scipy.linalg.solve_continuous_lyapunov(f.mT, residual),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lapack_weight_solve_is_scipys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        f = rng.normal(size=(30, n, n)) - 2.5 * np.eye(n)
        f = f[spectral_abscissa(f) < 0]
        _assert_lyapunov_is_scipys(f, -2.0 * float(rng.uniform(0.1, 1e8)) * np.eye(n))
        _assert_lyapunov_is_scipys(f[0], -2.0 * np.eye(n))


def test_lapack_weight_solve_is_scipys_on_the_800_node_bound_stack(pair800):
    plant = build_microgrid(pair800, seed=1, coupling_scale=2.5e8)
    a = gains._diagonal_blocks(plant)
    c = np.stack([plant.C_blocks[i] for i in range(1, 801)])
    closed = gains._place_scaled(*transform_block(a, c, 6.0), list(TUNED_POLES))[1]
    _assert_lyapunov_is_scipys(closed, -2.0 * np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lapack_weight_solve_rejects_non_finite_input(bad):
    f = np.stack([np.diag([-1.0, -2.0])] * 3)
    f[1, 0, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        gains._lyapunov(f, -np.eye(2))
    with pytest.raises(ValueError, match="infs or NaNs"):
        gains._lyapunov(f[0], np.full((2, 2), bad))


# ------------------------------------------------------------------- bound

def test_bound_single_node_formula():
    pair, plant, controller = single_node_setup()
    assignment = solve(pair)
    theta = 3.0
    got = gamma_lower_bound(plant, assignment, pair, theta, controller, TUNED_POLES)

    # independent arithmetic: singleton cover grounds the consensus floor at 1
    a = plant.A_blocks[(1, 1)]
    lam_a = max(abs(np.linalg.eigvalsh(a + a.T)))
    hbar = design_observer_gain(a, plant.C_blocks[1], theta, TUNED_POLES)
    abar, cbar = transform_block(a, plant.C_blocks[1], theta)
    lam_p = np.linalg.norm(solve_weight(abar - hbar @ cbar, 1.0), 2)
    rho = np.sqrt(2.0) * np.linalg.norm([[-1.0, -1.0]], 2)
    norm_a = np.linalg.norm(a, 2)
    want = (lam_a + 2 * lam_p * 1.0 * (norm_a + rho * 1.0)) / (2 * theta * 1.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_bound_decreases_in_theta():
    pair = star_pair(5)
    plant = build_microgrid(pair, seed=0)
    controller = design_controller_microgrid(plant)
    assignment = solve(pair)
    bounds = [
        gamma_lower_bound(plant, assignment, pair, t, controller, TUNED_POLES)
        for t in (2.0, 4.0, 8.0)
    ]
    assert bounds[0] > bounds[1] > bounds[2] > 0


def test_bound_requires_nonempty_assignment():
    pair, plant, controller = single_node_setup()
    from coverobs.coverage import CoverAssignment

    empty = CoverAssignment(n=1, sets=(), membership={1: ()})
    with pytest.raises(GainsError, match="nonempty"):
        gamma_lower_bound(plant, empty, pair, 2.0, controller)


# -------------------------------------------------------------- controller

def test_controller_places_local_poles():
    plant = build_microgrid(star_pair(6), seed=4)
    gains = design_controller_microgrid(plant, poles=(-3.0, -4.0))
    for i in range(1, 7):
        closed = plant.A_blocks[(i, i)] + plant.B_blocks[i] @ gains.K_blocks[(i, i)]
        eigs = sorted(np.linalg.eigvals(closed).real)
        np.testing.assert_allclose(eigs, [-4.0, -3.0], atol=1e-9)


def test_controller_coupling_rows():
    pair = star_pair(4)
    plant = build_microgrid(pair, seed=7, coupling_scale=5e7)
    gains = design_controller_microgrid(plant)
    for i in pair.nodes():
        for j in pair.phys_neighbors(i):
            np.testing.assert_allclose(
                gains.K_blocks[(i, j)],
                [[plant.A_blocks[(i, j)][1, 0], 0.0]],
                rtol=1e-12,
            )
    A, B, _ = assemble(plant)
    assert spectral_abscissa((A + B @ gains.assemble_K(plant)).toarray()) < 0


def test_controller_rejects_foreign_plant():
    plant = BlockPlant(
        N=1, n=2, m=1, p=1,
        A_blocks={(1, 1): np.zeros((2, 2))},
        B_blocks={1: np.zeros((2, 1))},
        C_blocks={1: np.array([[1.0, 0.0]])},
    )
    with pytest.raises(GainsError, match="microgrid"):
        design_controller_microgrid(plant)


# --------------------------------------------------------------- synthesis

def test_synthesize_auto_policy(star9):
    plant = build_microgrid(star9, seed=1)
    controller = design_controller_microgrid(plant)
    assignment = solve(star9)
    design = synthesize(
        plant, assignment, star9, theta=6.0, controller=controller,
        poles=TUNED_POLES,
    )
    assert design.gamma == pytest.approx(1.1 * design.gamma_bound)
    assert design.gamma > design.gamma_bound
    # weight equation residual, checked per agent
    for i in range(1, 10):
        abar, cbar = transform_block(
            plant.A_blocks[(i, i)], plant.C_blocks[i], design.theta
        )
        f = abar - design.Hbar[i] @ cbar
        res = f.T @ design.P[i] + design.P[i] @ f + 2 * design.gamma * np.eye(2)
        assert np.linalg.norm(res) <= 1e-8
        assert np.min(np.linalg.eigvalsh(design.P[i])) > 0
        g = design.gamma_theta
        np.testing.assert_allclose(
            design.Ptilde[i], g @ design.P[i] @ g, rtol=1e-12
        )
        # congruence keeps the weight symmetric positive definite
        np.testing.assert_allclose(design.Ptilde[i], design.Ptilde[i].T)
        assert np.min(np.linalg.eigvalsh(design.Ptilde[i])) > 0


def test_synthesize_policies(star9):
    plant = build_microgrid(star9, seed=1)
    controller = design_controller_microgrid(plant)
    assignment = solve(star9)
    paper = synthesize(
        plant, assignment, star9, 6.0, controller, policy="paper", poles=TUNED_POLES
    )
    assert paper.gamma == pytest.approx(3600.0)
    fixed = synthesize(
        plant, assignment, star9, 6.0, controller, gamma=123.0, policy="fixed",
        poles=TUNED_POLES,
    )
    assert fixed.gamma == 123.0
    with pytest.raises(GainsError, match="explicit gamma"):
        synthesize(plant, assignment, star9, 6.0, controller, policy="fixed")
    with pytest.raises(GainsError, match="policy"):
        synthesize(plant, assignment, star9, 6.0, controller, policy="best")


def test_injection_gain_shape_and_scale():
    pair, plant, controller = single_node_setup()
    assignment = solve(pair)
    design = synthesize(
        plant, assignment, pair, 5.0, controller, poles=TUNED_POLES
    )
    g = design.injection_gain(1)
    # ladder: first row gains theta^(n-1)/theta^(n-1)=1, last row theta^(n-1)
    np.testing.assert_allclose(g[0], design.Hbar[1][0])
    np.testing.assert_allclose(g[1], 5.0 * design.Hbar[1][1])
    assert design.stiff_scale == pytest.approx(design.gamma * 5.0)


def _with_block(plant: BlockPlant, i: int, a: np.ndarray) -> BlockPlant:
    return dataclasses.replace(plant, A_blocks={**plant.A_blocks, (i, i): a})


def test_stacked_failures_name_the_first_failing_agent(monkeypatch, star9):
    plant = build_microgrid(star9, seed=1)
    assignment = solve(star9)
    controller = ControllerGains(K_blocks={})

    def fails(p, message):
        with pytest.raises(GainsError) as err:
            synthesize(p, assignment, star9, 6.0, controller, poles=TUNED_POLES)
        assert str(err.value).startswith(f"agent 5: {message}")
        assert "\n" not in str(err.value)

    # agent 5 measures only its first state, which nothing feeds
    fails(_with_block(plant, 5, np.diag([-1.0, -2.0])), "block is not observable")
    # a placement that leaves agent 5's unstable block as it is
    place = gains._place_poles

    def skip_agent_5(a, b, poles):
        gain = place(a, b, poles)
        gain[4] = 0.0
        return gain

    monkeypatch.setattr("coverobs.gains._place_poles", skip_agent_5)
    unstable = np.array([[0.0, 1.0], [1.0, 0.0]])
    fails(_with_block(plant, 5, unstable), "placement failed to produce a Hurwitz block")
    monkeypatch.undo()

    good = np.array([[-1.0, 1.0], [0.0, -2.0]])
    stack = np.stack([good] * 7)
    # agents 4 and 6 are Hurwitz but so far from normal that round-off
    # swamps the weight equation
    stack[3] = stack[5] = [[-1.0, 1e10], [0.0, -1.0]]
    with pytest.raises(GainsError, match=r"^agent 4: weight residual \S+ exceeds tolerance$"):
        solve_weight(stack, 1.0)
    lyapunov = gains._lyapunov

    def flip_agent_4(a, q):
        x = lyapunov(a, q)
        x[3] *= -1.0
        return x

    monkeypatch.setattr("coverobs.gains._lyapunov", flip_agent_4)
    monkeypatch.setattr("coverobs.gains.LYAPUNOV_RESIDUAL_TOL", np.inf)
    with pytest.raises(GainsError, match="^agent 4: weight matrix is not positive definite$"):
        solve_weight(np.stack([good] * 7), 1.0)


# ------------------------------------------------------------------ file io

def test_design_round_trip(tmp_path, star9):
    plant = build_microgrid(star9, seed=2)
    controller = design_controller_microgrid(plant)
    design = synthesize(
        plant, solve(star9), star9, 4.0, controller, gamma=500.0, policy="fixed",
        poles=TUNED_POLES,
    )
    path = tmp_path / "design.json"
    save_design(design, path)
    loaded = load_design(path, plant)
    assert loaded.theta == design.theta
    assert loaded.gamma == design.gamma
    assert loaded.gamma_bound == design.gamma_bound
    for i in design.Hbar:
        np.testing.assert_array_equal(loaded.Hbar[i], design.Hbar[i])
        np.testing.assert_array_equal(loaded.P[i], design.P[i])
    with pytest.raises(GainsError):
        load_design(tmp_path / "missing.json", plant)
    # the poles must be the n valid ones the gains were placed for
    doc = json.loads(path.read_text())
    for poles, message in (
        ([], "need 2 observer poles, one per block state, got 0"),
        ([-4.0], "need 2 observer poles"),
        ([-4.0, -9.0, -12.0], "need 2 observer poles"),
        ([-4.0, 0.0], "strictly negative"),
        ([-4.0, -4.0], "distinct"),
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "poles": poles}))
        with pytest.raises(GainsError, match=message) as err:
            load_design(bad, plant)
        assert str(err.value).count(str(bad)) == 1 and "\n" not in str(err.value)


def test_controller_round_trip(tmp_path):
    pair = star_pair(4)
    plant = build_microgrid(pair, seed=3)
    gains = design_controller_microgrid(plant)
    path = tmp_path / "gains.json"
    save_controller(gains, path)
    loaded = load_controller(path, plant, pair)
    for key, blk in gains.K_blocks.items():
        np.testing.assert_array_equal(loaded.K_blocks[key], blk)


def test_controller_file_with_sat_level_still_loads(tmp_path):
    # controller files once carried a clamp level; the run config owns it now
    path = tmp_path / "old.json"
    path.write_text('{"K": {"1,1": [[-1.0, -2.0]]}, "sat_level": 25.0}\n')
    pair = star_pair(4)
    loaded = load_controller(path, build_microgrid(pair, seed=3), pair)
    assert list(loaded.K_blocks) == [(1, 1)]
    np.testing.assert_array_equal(loaded.K_blocks[(1, 1)], [[-1.0, -2.0]])


def test_synthesize_places_each_agents_poles_once(monkeypatch, star9):
    plant = build_microgrid(star9, seed=1)
    controller = design_controller_microgrid(plant)
    assignment = solve(star9)
    placed = []
    place = gains._place_poles

    def counted(a, b, poles):
        placed.append(len(a) if a.ndim == 3 else 1)
        return place(a, b, poles)

    monkeypatch.setattr("coverobs.gains._place_poles", counted)
    design = synthesize(
        plant, assignment, star9, 6.0, controller, poles=TUNED_POLES
    )
    assert sum(placed) == plant.N
    placed.clear()
    bound = gamma_lower_bound(plant, assignment, star9, 6.0, controller, TUNED_POLES)
    assert sum(placed) == plant.N
    monkeypatch.undo()
    # the gains, weights and threshold of one placement per agent per pass
    assert design.gamma_bound == bound
    for i in range(1, plant.N + 1):
        hbar = design_observer_gain(
            plant.A_blocks[(i, i)], plant.C_blocks[i], 6.0, TUNED_POLES
        )
        np.testing.assert_array_equal(design.Hbar[i], hbar)
        abar, cbar = transform_block(plant.A_blocks[(i, i)], plant.C_blocks[i], 6.0)
        np.testing.assert_array_equal(
            design.P[i], solve_weight(abar - hbar @ cbar, design.gamma)
        )


def test_synthesize_scales_each_agents_block_once(monkeypatch, star9):
    plant = build_microgrid(star9, seed=1)
    controller = design_controller_microgrid(plant)
    assignment = solve(star9)
    scaled = []

    def counted(a, c, theta):
        scaled.append(len(a) if a.ndim == 3 else 1)
        return transform_block(a, c, theta)

    monkeypatch.setattr("coverobs.gains.transform_block", counted)
    design = synthesize(plant, assignment, star9, 6.0, controller, poles=TUNED_POLES)
    assert sum(scaled) == plant.N
    scaled.clear()
    bound = gamma_lower_bound(plant, assignment, star9, 6.0, controller, TUNED_POLES)
    assert sum(scaled) == plant.N
    assert bound == design.gamma_bound
