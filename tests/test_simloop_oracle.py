"""Block-stepped distributed loop against the per-step reference loop.

Step size, step count and every saturation decision must be identical; the
trajectory and error norms may differ only by round-off from the block
arithmetic and, above the CSR threshold, from sparse operator products.
"""

import numpy as np
import pytest

from coverobs import plant, simloop
from coverobs.coverage import solve
from coverobs.gains import ControllerGains, synthesize
from coverobs.netgraph import gen_random_pair, star_pair
from coverobs.plant import build_microgrid
from coverobs.simloop import SimConfig, SimError, run_distributed

from simloop_oracle import reference_run_distributed
from test_simloop import diverging_setup, two_node_setup

REL = 1e-12


def microgrid_setup(pair):
    assignment = solve(pair)
    plant = build_microgrid(pair, seed=1, coupling_scale=2.5e8)
    controller = ControllerGains(K_blocks={})
    design = synthesize(
        plant, assignment, pair, 6.0, controller,
        policy="auto", poles=(-4.0, -9.0),
    )
    return pair, plant, controller, assignment, design


def assert_matches_reference(setup, cfg):
    pair, plant, gains, assignment, design = setup
    got = run_distributed(plant, assignment, pair, design, gains, cfg)
    want = reference_run_distributed(plant, assignment, pair, design, gains, cfg)
    assert got.steps == want.steps
    assert got.h == want.h
    assert got.sat_steps == want.sat_steps
    assert np.array_equal(got.sat_flags, want.sat_flags)
    for name in ("x", "err_norm", "err_by_agent"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.max(np.abs(a - b)) <= REL * np.max(np.abs(b)), name
    assert got.group_identity_max_rel <= REL
    return got, want


def test_clamp_engaging_mid_run_matches_reference():
    setup = two_node_setup()
    cfg = SimConfig(horizon=4.0, seed=7, sat_level=0.5, observer_init=0.0)
    _, want = assert_matches_reference(setup, cfg)
    assert not want.sat_flags[0]
    assert 0 < want.sat_steps < want.steps


def test_first_step_saturated_matches_reference():
    setup = two_node_setup()
    cfg = SimConfig(horizon=4.0, seed=7, sat_level=0.5)
    _, want = assert_matches_reference(setup, cfg)
    assert want.sat_flags[0]


def test_unsaturated_run_matches_reference():
    setup = two_node_setup()
    cfg = SimConfig(horizon=4.0, seed=7, sat_level=1e9)
    _, want = assert_matches_reference(setup, cfg)
    assert want.sat_steps == 0


def test_star9_microgrid_matches_reference():
    cfg = SimConfig(horizon=1.0, seed=0)
    _, want = assert_matches_reference(microgrid_setup(star_pair(9)), cfg)
    assert not want.sat_flags[0]
    assert want.sat_steps > 0


def test_stride_one_and_coarse_grids_match_reference():
    setup = two_node_setup()
    base = dict(horizon=1.0, step=0.001, seed=3, sat_level=0.5)
    fine, _ = assert_matches_reference(setup, SimConfig(**base, record_points=1001))
    coarse, _ = assert_matches_reference(setup, SimConfig(**base, record_points=11))
    assert fine.steps == coarse.steps == 1000
    # the record grid only samples the trajectory; it never changes a step
    assert np.array_equal(coarse.x, fine.x[::100])
    assert np.array_equal(coarse.sat_flags, fine.sat_flags[::100])


def test_divergence_reported_at_the_reference_record():
    # blocks run past record points; the blow-up must still be reported at
    # the first recorded point the per-step loop reports
    setup = diverging_setup()
    cfg = SimConfig(horizon=40.0, seed=2, force=True)
    with pytest.raises(SimError) as got:
        run_distributed(*setup, cfg)
    with pytest.raises(SimError) as want:
        reference_run_distributed(*setup, cfg)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("sat_level", [None, 0.9])
def test_sparse_operator_run_matches_reference(sat_level):
    # 546 states: past SPARSE_MIN_ENTRIES, so R, M0 and Phi_z are CSR
    setup = microgrid_setup(gen_random_pair(24, 3.0, 0.85, seed=0))
    cfg = SimConfig(horizon=2e-4, seed=0, sat_level=sat_level)
    _, want = assert_matches_reference(setup, cfg)
    assert (want.sat_steps > 0) == (sat_level is not None)


def test_storage_rule_and_sparse_rk4_operator():
    rng = np.random.default_rng(0)
    small = rng.standard_normal((50, 50))
    assert isinstance(plant.stored(small), np.ndarray)
    side = 400
    big = np.zeros((side, side))
    big[rng.integers(0, side, 2000), rng.integers(0, side, 2000)] = 1.0
    assert side * side > plant.SPARSE_MIN_ENTRIES
    csr = plant.stored(big)
    assert not isinstance(csr, np.ndarray)
    assert isinstance(plant.stored(big + 1.0), np.ndarray)
    h = 0.01
    dense_R = simloop._rk4_operator(big, h)
    sparse_R = simloop._rk4_operator(csr, h)
    assert np.max(np.abs(sparse_R.toarray() - dense_R)) <= 1e-14 * np.max(np.abs(dense_R))
