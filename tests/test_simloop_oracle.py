"""Block-stepped distributed loop against the per-step reference loop.

Step size, step count and every saturation decision must be identical; the
trajectory and error norms may differ only by round-off from the block
arithmetic and, above the CSR threshold, from the four RK4 stages that step
a CSR operator in place of the formed R.  Those stages are also checked
against a longdouble evaluation of the exact RK4 map.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from coverobs import plant, simloop
from coverobs.coverage import solve
from coverobs.gains import ControllerGains, design_controller_microgrid, synthesize
from coverobs.netgraph import NetworkPair, gen_random_pair, star_pair
from coverobs.observer import BankLayout
from coverobs.plant import BlockPlant, assemble, build_microgrid
from coverobs.simloop import SimConfig, SimError, run_distributed

from simloop_oracle import longdouble_rk4_records, reference_run_distributed
from test_simloop import diverging_setup, two_node_setup

REL = 1e-12


def microgrid_setup(pair, with_controller=False):
    assignment = solve(pair)
    plant = build_microgrid(pair, seed=1, coupling_scale=2.5e8)
    controller = (
        design_controller_microgrid(plant)
        if with_controller
        else ControllerGains(K_blocks={})
    )
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
    # without a controller the clamp cannot act and no step takes the
    # clamped four-stage form; the oracle still counts band exits
    _, B, _ = assemble(plant)
    if np.any((B @ gains.assemble_K(plant)).toarray()):
        assert got.sat_steps == want.sat_steps
    else:
        assert got.sat_steps == 0
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
    stages = simloop._Stages(csr, h)
    assert stages.entries == 4 * (csr.nnz + side)
    eye = np.eye(side)
    scale = np.max(np.abs(dense_R))
    assert np.max(np.abs(stages @ eye - dense_R)) <= 1e-14 * scale
    # at 400 states a CSR operator is still stepped by the dense R, formed
    # from its stages
    assert side * side <= simloop.STAGE_MIN_ENTRIES
    assert np.array_equal(simloop._step_operator(csr, h), stages @ eye)
    assert np.max(np.abs(stages.minus_identity() + eye - dense_R)) <= 1e-14 * scale
    z = rng.standard_normal(side)
    assert np.max(np.abs(stages @ z - dense_R @ z)) <= 1e-14 * np.max(np.abs(dense_R @ z))
    # past STAGE_MIN_ENTRIES a thin CSR operator is stepped by its stages,
    # one more than 5 % full by R
    side = 600
    assert side * side > simloop.STAGE_MIN_ENTRIES
    for nnz, want in ((3000, simloop._Stages), (30000, np.ndarray)):
        M = sparse.random(side, side, density=nnz / side**2, random_state=0, format="csr")
        assert isinstance(plant.stored(M), sparse.csr_matrix)
        assert isinstance(simloop._step_operator(M, h), want)


def oscillator_setup():
    # two lightly damped, strongly coupled oscillators: the fused estimates
    # swing across the clamp band again and again, and the step operator is
    # far from normal (its top block power has 2-norm ~11 at spectral
    # radius ~0.98)
    pair = NetworkPair.from_edges(2, [[1, 2], [2, 1]], [(1, 2)])
    assignment = solve(pair)
    plant = BlockPlant(
        N=2, n=2, m=1, p=1,
        A_blocks={
            (1, 1): np.array([[0.0, 1.0], [-25.0, -0.5]]),
            (2, 2): np.array([[0.0, 1.0], [-16.0, -0.4]]),
            (1, 2): np.array([[0.0, 0.0], [4.0, 0.0]]),
            (2, 1): np.array([[0.0, 0.0], [-3.0, 0.0]]),
        },
        B_blocks={1: np.array([[0.0], [1.0]]), 2: np.array([[0.0], [1.0]])},
        C_blocks={1: np.array([[1.0, 0.0]]), 2: np.array([[1.0, 0.0]])},
    )
    gains = ControllerGains(K_blocks={
        (1, 1): np.array([[-1.0, -0.3]]),
        (2, 2): np.array([[-1.0, -0.3]]),
    })
    design = synthesize(
        plant, assignment, pair, 3.0, gains, policy="auto", poles=(-4.0, -9.0)
    )
    return pair, plant, gains, assignment, design


def _first_row(view: np.ndarray) -> int:
    """Row of the loop's state buffer where a basic slice of it starts."""
    offset = view.__array_interface__["data"][0] - view.base.__array_interface__["data"][0]
    return offset // view.strides[0]


def traced_run(setup, cfg, monkeypatch):
    """``run_distributed`` with its blocks recorded.

    Each block is (first buffer row, size, chunks, fused values of the band
    check), each chunk (power, first row written, rows).  The band check is
    the first ``_rows`` call after a block's chunks.
    """
    pair, plant, gains, assignment, design = setup
    chunks, blocks, buffers, busy = [], [], [], []
    advance, rows = simloop._advance, simloop._rows

    def spy_advance(power, Z, out):
        chunks.append((power, _first_row(out), len(out)))
        buffers.append(out.base.shape[0])
        busy.append(True)  # a CSR product goes through _rows too
        advance(power, Z, out)
        busy.pop()

    def spy_rows(op, Z):
        fused = rows(op, Z)
        if chunks and not busy:
            blocks.append((_first_row(Z), len(Z), chunks[:], fused))
            chunks.clear()
        return fused

    monkeypatch.setattr(simloop, "_advance", spy_advance)
    monkeypatch.setattr(simloop, "_rows", spy_rows)
    result = run_distributed(plant, assignment, pair, design, gains, cfg)
    monkeypatch.undo()
    return result, blocks, max(buffers)


def test_clamp_inside_a_chunk_matches_reference(monkeypatch):
    setup = oscillator_setup()
    cfg = SimConfig(
        horizon=20.0, seed=7, sat_level=1.0, observer_init=0.0, record_points=101
    )
    got, blocks, buf_rows = traced_run(setup, cfg, monkeypatch)
    _, want = assert_matches_reference(setup, cfg)
    assert got.sat_steps > 0 and not want.sat_flags.all()

    band = simloop.CLAMP_MARGIN * cfg.sat_level
    max_block = buf_rows // 2
    stride = got.steps // (cfg.record_points - 1)
    inside = 0
    for start, size, block_chunks, fused in blocks:
        out = np.max(np.abs(fused), axis=1) > band
        if not out.any():
            continue
        row = start + int(np.argmax(out))
        # states after the first out-of-band one in its chunk are dropped
        inside += any(
            first <= row < first + n - 1 for _, first, n in block_chunks if n > 1
        )
    assert inside > 0
    # blocks run over record points, and the buffer is flushed many times
    assert max(size for _, size, _, _ in blocks) > stride > 1
    assert got.steps > 4 * max_block
    # non-normal: some power grows states although every mode decays
    powers = {id(p): p for _, _, block_chunks, _ in blocks for p, _, _ in block_chunks}
    assert len(powers) == int(np.log2(max_block)) + 1
    grows = max(powers.values(), key=lambda p: np.linalg.norm(p, 2))
    assert np.max(np.abs(np.linalg.eigvals(grows))) < 1.0 < np.linalg.norm(grows, 2)


def test_sparse_operator_with_controller_chains_single_products(monkeypatch):
    # 546 states, CSR: J = 0, so every chunk is one state advanced by the
    # four RK4 stages; the controller makes the clamp change the trajectory
    setup = microgrid_setup(gen_random_pair(24, 3.0, 0.85, seed=0), with_controller=True)
    cfg = SimConfig(horizon=5e-4, seed=0, sat_level=0.5, observer_init=0.0)
    formed = []
    rk4 = simloop._rk4_operator
    monkeypatch.setattr(
        simloop, "_rk4_operator", lambda M, h: formed.append(h) or rk4(M, h)
    )
    got, blocks, _ = traced_run(setup, cfg, monkeypatch)
    assert formed == []
    _, want = assert_matches_reference(setup, cfg)
    assert 0 < want.sat_steps < want.steps
    powers = {id(p) for _, _, block_chunks, _ in blocks for p, _, _ in block_chunks}
    assert len(powers) == 1
    assert all(
        isinstance(p, simloop._Stages) and n == 1
        for _, _, block_chunks, _ in blocks
        for p, _, n in block_chunks
    )
    assert max(size for _, size, _, _ in blocks) > 1


@pytest.mark.parametrize("dim, megabytes", [(82, 0.44), (300, 4.4)])
def test_dense_step_powers_and_their_memory(dim, megabytes):
    rng = np.random.default_rng(dim)
    M = rng.standard_normal((dim, dim)) / np.sqrt(dim) - 2.0 * np.eye(dim)
    R = simloop._rk4_operator(M, 0.01)
    assert isinstance(plant.stored(R), np.ndarray)
    max_block = simloop._block_cap(dim)
    powers = simloop._step_powers(R, max_block)
    J = len(powers) - 1
    assert 2**J <= max_block < 2 ** (J + 1)
    # the bound of the _step_powers docstring
    assert sum(p.nbytes for p in powers) == (J + 1) * 8 * dim * dim <= megabytes * 1e6
    want = np.eye(dim)
    for j, p in enumerate(powers):
        want = R if j == 0 else want @ want
        assert np.max(np.abs(p.T - want)) <= 1e-13 * np.max(np.abs(want))


class _Captured(Exception):
    pass


@pytest.mark.parametrize("n_agents, with_controller", [(24, False), (47, False), (47, True)])
def test_sparse_step_pick_matches_dense_eigenvalues(monkeypatch, n_agents, with_controller):
    pair, plant_, gains, assignment, design = microgrid_setup(
        gen_random_pair(n_agents, 3.0, 0.85, seed=0), with_controller
    )
    seen = []

    def capture(M, horizon):
        seen.append(M)
        raise _Captured

    monkeypatch.setattr(simloop, "suggest_step", capture)
    with pytest.raises(_Captured):
        run_distributed(plant_, assignment, pair, design, gains, SimConfig(horizon=1.0))
    monkeypatch.undo()
    M = seen[0]
    assert sparse.issparse(M)
    radius = float(np.max(np.abs(np.linalg.eigvals(M.toarray()))))
    for horizon in (0.003, 10.0):
        h_dense = min(horizon, simloop.STEP_SAFETY * simloop.RK4_REAL_AXIS_LIMIT / radius)
        h = simloop.suggest_step(M, horizon)
        assert abs(h - h_dense) <= 1e-13 * h_dense
        assert simloop._grid(horizon, h, 2001) == simloop._grid(horizon, h_dense, 2001)


# ------------------------------------------------- controller-free runs

def spied_run(setup, cfg, monkeypatch):
    """``run_distributed`` with its RK4 step and record powers captured.

    Returns the result, ``(M, h, rk4)`` of the one RK4 step the run built
    (the matrix R for a dense M, :class:`simloop._Stages` for a CSR one),
    the strides of every ``R^stride`` it built and the number of times it
    formed a matrix R.
    """
    pair, plant_, gains, assignment, design = setup
    operators, powers, formed = [], [], []
    step_operator, rk4 = simloop._step_operator, simloop._rk4_operator
    stride_power = simloop._stride_power

    def spy_step(M, h):
        op = step_operator(M, h)
        operators.append((M, h, op))
        return op

    def spy_rk4(M, h):
        formed.append(h)
        return rk4(M, h)

    def spy_power(F, stride):
        powers.append(stride)
        return stride_power(F, stride)

    monkeypatch.setattr(simloop, "_step_operator", spy_step)
    monkeypatch.setattr(simloop, "_rk4_operator", spy_rk4)
    monkeypatch.setattr(simloop, "_stride_power", spy_power)
    result = run_distributed(plant_, assignment, pair, design, gains, cfg)
    monkeypatch.undo()
    assert len(operators) == 1
    return result, operators[0], powers, len(formed)


def start_state(setup, cfg, dim):
    plant_ = setup[1]
    z0 = np.full(dim, float(cfg.observer_init))
    z0[: plant_.state_dim] = cfg.resolve_x0(plant_.state_dim)
    return z0


def assert_records_match(setup, result, Z, rel):
    """The run's ``x`` and ``err_norm`` against the record states ``Z``."""
    plant_, assignment = setup[1], setup[3]
    nN, n = plant_.state_dim, plant_.n
    layout = BankLayout.build(assignment, n)
    targets = np.array([i for (_, _, i) in layout.slots])
    gather = np.repeat((targets - 1) * n, n) + np.tile(np.arange(n), len(layout.slots))
    want_err = np.sqrt(np.sum((Z[:, nN:] - Z[:, gather]) ** 2, axis=1))
    for got, want in ((result.x, Z[:, :nN]), (result.err_norm, want_err)):
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def test_star9_linear_run_matches_longdouble_chain(monkeypatch):
    setup = microgrid_setup(star_pair(9))
    cfg = SimConfig(horizon=10.0, seed=0)
    got, (_, _, R), powers, formed = spied_run(setup, cfg, monkeypatch)
    stride = got.steps // (len(got.t) - 1)
    # the cost rule builds the record power for the small dense operator
    assert isinstance(R, np.ndarray) and powers == [stride] and stride > 1
    assert formed == 1
    assert got.steps == 60000 and got.sat_steps == 0
    R_ld = R.astype(np.longdouble)
    z = start_state(setup, cfg, R.shape[0]).astype(np.longdouble)
    Z = np.empty((len(got.t), len(z)), dtype=np.longdouble)
    Z[0] = z
    for rec in range(1, len(got.t)):
        for _ in range(stride):
            z = R_ld @ z
        Z[rec] = z
    assert_records_match(setup, got, Z.astype(float), REL)
    assert got.group_identity_max_rel <= REL


def test_controller_free_divergence_reported_at_the_reference_record(monkeypatch):
    plant_, assignment, pair, _, _ = diverging_setup()
    free = ControllerGains(K_blocks={})
    design = synthesize(
        plant_, assignment, pair, 2.0, free,
        gamma=1e-4, policy="fixed", poles=(-4.0, -9.0),
    )
    powers = []
    stride_power = simloop._stride_power
    monkeypatch.setattr(
        simloop, "_stride_power", lambda F, s: powers.append(s) or stride_power(F, s)
    )
    # stride 1 chains single products; stride 10 jumps by R^10
    for record_points, built in ((2001, []), (101, [10])):
        cfg = SimConfig(horizon=40.0, seed=2, force=True, record_points=record_points)
        powers.clear()
        with pytest.raises(SimError) as got:
            run_distributed(plant_, assignment, pair, design, free, cfg)
        assert powers == built
        with pytest.raises(SimError) as want:
            reference_run_distributed(plant_, assignment, pair, design, free, cfg)
        assert str(got.value) == str(want.value)


@pytest.fixture(scope="module")
def random24_setup():
    # 546 states, past SPARSE_MIN_ENTRIES: M is CSR
    return microgrid_setup(gen_random_pair(24, 3.0, 0.85, seed=0))


@pytest.fixture(scope="module")
def paper47_setup():
    # the paper's network at N=47, as in the paper47-run benchmark workload
    return microgrid_setup(gen_random_pair(47, 3.0, 0.85, seed=0))


def test_paper47_short_run_chains_the_csr_operator(monkeypatch, paper47_setup):
    got, (_, _, rk4), powers, formed = spied_run(
        paper47_setup, SimConfig(horizon=0.003, seed=0), monkeypatch
    )
    assert isinstance(rk4, simloop._Stages) and got.steps == 6000
    assert powers == [] and formed == 0


def test_paper47_ten_seconds_matches_matrix_exponential(monkeypatch, paper47_setup):
    cfg = SimConfig(horizon=10.0, seed=0)
    got, (M, h, rk4), powers, formed = spied_run(paper47_setup, cfg, monkeypatch)
    stride = got.steps // (len(got.t) - 1)
    # E = R^stride is built from the stages, without forming R itself
    assert isinstance(rk4, simloop._Stages) and powers == [stride] and formed == 0
    assert got.steps == 15144000
    E = expm(stride * h * M.toarray())
    z = start_state(paper47_setup, cfg, rk4.shape[0])
    Z = np.empty((len(got.t), len(z)))
    Z[0] = z
    for rec in range(1, len(got.t)):
        Z[rec] = z = E @ z
    assert_records_match(paper47_setup, got, Z, 1e-8)
    assert got.group_identity_max_rel <= 1e-12


@pytest.mark.parametrize("with_controller", [False, True], ids=["linear", "controlled"])
def test_mid_size_csr_operator_is_stepped_by_dense_r(monkeypatch, with_controller):
    # 348 states: M is kept CSR, but below STAGE_MIN_ENTRIES one product
    # with the dense R beats the four stages, and R gets the record power
    # and the block loop's power doubling; R comes from the stages
    setup = microgrid_setup(gen_random_pair(20, 3.0, 0.85, seed=0), with_controller)
    cfg = SimConfig(horizon=1e-3 if with_controller else 0.01, seed=0)
    got, (M, _, R), powers, formed = spied_run(setup, cfg, monkeypatch)
    assert sparse.issparse(M) and M.shape[0] ** 2 <= simloop.STAGE_MIN_ENTRIES
    assert isinstance(R, np.ndarray) and formed == 0
    stride = got.steps // (len(got.t) - 1)
    assert powers == [] if with_controller else powers == [stride] and stride > 1
    assert_matches_reference(setup, cfg)


@pytest.mark.parametrize("fixture", ["random24_setup", "paper47_setup"])
def test_csr_stages_match_longdouble_rk4_map(monkeypatch, request, fixture):
    # the exact RK4 map of the run's own M and h, by Horner's rule in
    # longdouble; the per-step oracle, a chain of products with the formed
    # R, is itself 4.9e-13 from it after the 6000 steps at N=47, the stages
    # 7.0e-15
    setup = request.getfixturevalue(fixture)
    cfg = SimConfig(horizon=0.003 if fixture == "paper47_setup" else 2e-4, seed=0)
    got, (M, h, rk4), _, formed = spied_run(setup, cfg, monkeypatch)
    assert isinstance(rk4, simloop._Stages) and formed == 0
    stride = got.steps // (len(got.t) - 1)
    Z = longdouble_rk4_records(M, h, start_state(setup, cfg, M.shape[0]), stride, len(got.t))
    assert_records_match(setup, got, Z.astype(float), REL)


def test_paper47_run_stays_below_its_dense_assembly_peak(paper47_setup):
    # assembling the 918-state operators from sparse blocks: the traced peak
    # is 14.1 MB, against 28.0 MB when M0, BK Phi_z and their sum were dense
    pair, plant_, gains, assignment, design = paper47_setup
    tracemalloc.start()
    try:
        run_distributed(
            plant_, assignment, pair, design, gains, SimConfig(horizon=0.003, seed=0)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
