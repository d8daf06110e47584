"""Fixed-step closed-loop simulation and performance metrics.

This module only simulates: a design runs unforced when
``ObserverDesign.certified``, and the invariant-set radii of a run are
reported by :mod:`coverobs.gains`, beside the threshold they share terms with.

Both loops integrate with classical RK4.  RK4 on a linear system z' = Mz
maps a state z to R z, where R is the degree-4 Taylor polynomial of exp(hM),
by Horner's rule in four stages ``v <- z + (hM/k) v``, k = 4, 3, 2, 1
(:class:`_Stages`).  A CSR M past ``STAGE_MIN_ENTRIES`` (480 states) and at
most 5 % full is stepped by the stages, each a product with M's own
nonzeros; R fills in (71,294 nonzeros against M's 5,031 at the paper's
N=47), so it is never formed.  Any other M, dense or CSR, is stepped by one
product with the dense R, the stages applied to the identity.

One method, :meth:`_Run.advance`, advances every run.  It fills a state
buffer chunk by chunk with :func:`_fill` and hands each chunk to the run's
``account``.  A unit of a fill is ``gap`` steps, taken by an operator P; a
fill of s units by the powers P, P^2, ..., P^(2^J) writes 1, 2, 4, ...
states per product, about log2(s) products instead of s, and with J = 0 it
is a plain loop of 1-D products.

Without a controller (no ``BK`` is built) the clamp cannot change the
trajectory and the loop is linear: a unit is one record, so only the
recorded states are computed and booked (checked for blow-up in order,
entered into the group-error identity and observed).  P is ``E =
R^stride`` where a cost model of measured per-call and per-entry times says
it is cheaper (:func:`_record_operator`, :func:`_fill_depth`), else a chain
of ``stride`` steps.

With a controller the only nonlinearity is the clamp on fused estimates,
acting through the controller columns ``BK``.  A unit is one step and P is
R, or the stages with J = 0, as the powers of R fill in.  The run advances
in speculative blocks: the band ``max|Phi_z z| <= CLAMP_MARGIN * level`` is
checked on the state before every step of a block in one vectorized pass,
steps up to the first state outside it are kept, and from that state one
four-stage step with the clamp applied per stage is taken instead.  A
clean block doubles the next block's length, up to what half of
``BUFFER_BYTES`` holds; a fallback resets it to one step.  Kept states are
booked in batches: the group-error identity is checked on every one of
them, and the recorded points among them are checked for blow-up and
observed together.

Everything but the start is set up once per loop and shared by every start
run on it (:class:`_Centralized`, :class:`_Distributed`): the observer
matrices, the operators, the error groupings, the step (one
:func:`suggest_step`), ``rk4`` and the fill operators.  A run from one start
owns only its state, clamp level, buffer and records (:class:`_Records`).
:func:`theta_sweep` builds the centralized loop once and the distributed
loop of each design it is given once, and runs all its repeats on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, eigs

from .artifact import is_finite, is_int
from .coverage import CoverAssignment
from .gains import ControllerGains, ObserverDesign
from .netgraph import NetworkPair
from .observer import BankLayout, build_observer_matrices
from .plant import BlockPlant, arpack_start, assemble, stored

RK4_REAL_AXIS_LIMIT = 2.785
STEP_SAFETY = 0.7
CLAMP_MARGIN = 0.98
BLOWUP_NORM = 1e9
# Size of the distributed loop's state buffer.  It caps the speculative
# block at half the states that fit (199 steps at 82 states, 17 at 918).
# Measured on a 60000-step star9 run (82 states, one thread, best of 7):
# 0.10 s and +1.6 MB peak RSS at 256 KiB, 0.09 s and +3.9 MB at 1 MiB (the
# batched bookkeeping's temporaries grow with the block).
BUFFER_BYTES = 1 << 18
# A CSR operator is stepped by its four RK4 stages only past this size and
# at most 5 % full; otherwise R is formed dense from it.  A stage step costs
# ~12 us of call overhead plus ~2 ns per nonzero of M, and a dense product
# with R ~0.1 ns per entry while R fits the 2 MiB L2 cache, ~0.22 ns past
# it (one thread, OpenBLAS 0.3.31, scipy 1.17, Xeon).  One step, random M:
# 400 states at 0.6 % fill, stages 14.3 us against dense 11.6; 500 states
# at 0.6 %, 16.3 against 37.3; 500 states at 8 %, 48.3 against 23.6; 600
# states at 8 %, 64.4 against 75.5.  A dense R also gets the block loop's
# power doubling.  1 ms runs of the microgrid network with its controller,
# dense R against stages: 348 states 0.055 s against 0.066, 444 states
# 0.181 against 0.193, 546 states 0.299 against 0.238, 918 states 0.679
# against 0.202.  Without a controller a dense R won at 348 and 444 states
# by more (0.01 s runs: 0.048 s against 0.184, 0.086 against 0.383),
# because _record_operator picks the record power E for it.
STAGE_MIN_ENTRIES = 480 * 480
# Working set cap for a dense record power E = R^stride: building it holds
# three dim x dim arrays (at 918 states 20 MB; the cap is reached at about
# 3300).  Above it the records are chained, however cheap E would be.
POWER_BYTES = 1 << 28
# Cap on the powers a doubled record fill keeps (:func:`_fill_depth`): 4 MiB
# holds four powers at 348 states and two up to 512, so past 512 states (a
# 918-state E is 6.7 MB) E is applied record by record and adds no array.
FILL_BYTES = 1 << 22
# Modeled costs behind the choice of how a linear run reaches its records
# (one thread, OpenBLAS 0.3.31, scipy 1.17, Xeon).  A product on rows of
# states costs CALL_S of call and Python overhead, a dense matrix-vector
# product DENSE_ENTRY_S per matrix entry and a dense matrix-matrix product
# MADD_S per multiply-add (0.03-0.05 ns measured from 82 to 918 states).
# A four-stage step costs STAGE_CALL_S of overhead plus SPARSE_ENTRY_S per
# entry it reads (:attr:`_Stages.entries`), and so does each column of a
# stage product on a dense block.
CALL_S = 3e-6
DENSE_ENTRY_S = 0.22e-9
MADD_S = 0.04e-9
STAGE_CALL_S = 12e-6
SPARSE_ENTRY_S = 0.5e-9
# Most steps a run may take: past 2**53 the step times k * h are not exact.
MAX_STEPS = 2**53


class SimError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimConfig:
    horizon: float = 10.0
    step: float | None = None
    x0: np.ndarray | None = None
    observer_init: float = 2.0
    sat_level: float | None = None
    seed: int = 0
    force: bool = False
    record_points: int = 2001

    def __post_init__(self):
        # every number a finite int or float, not a bool or a string; NaN fails
        if not (is_finite(self.horizon) and self.horizon > 0):
            raise SimError(f"horizon must be positive and finite, got {self.horizon!r}")
        if self.step is not None and not (
            is_finite(self.step) and 0 < self.step <= self.horizon <= MAX_STEPS * self.step
        ):
            raise SimError("step must lie in (0, horizon], at most 2**53 steps to the horizon")
        if not is_int(self.record_points) or self.record_points < 2:
            raise SimError(
                f"record_points must be an integer >= 2, got {self.record_points!r}"
            )
        if not is_int(self.seed) or self.seed < 0:
            raise SimError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not is_finite(self.observer_init):
            raise SimError(f"observer_init must be finite, got {self.observer_init!r}")
        if self.sat_level is not None and not (is_finite(self.sat_level) and self.sat_level > 0):
            raise SimError(f"sat_level must be positive and finite, got {self.sat_level!r}")
        if not isinstance(self.force, bool):
            raise SimError(f"force must be true or false, got {self.force!r}")
        if self.x0 is not None and not all(map(is_finite, self.x0)):
            raise SimError("x0 must hold finite numbers")

    def resolve_x0(self, dim: int) -> np.ndarray:
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (dim,):
                raise SimError(f"x0 has shape {x0.shape}, expected ({dim},)")
            return x0.copy()
        return np.random.default_rng(self.seed).uniform(0.0, 1.0, size=dim)

    def resolve_sat(self, x0: np.ndarray) -> float:
        if self.sat_level is not None:
            return float(self.sat_level)
        return 10.0 * max(1.0, float(np.max(np.abs(x0))))


@dataclass(frozen=True)
class SimResult:
    """A simulated run on its recorded grid.

    ``sat_steps`` counts the integration steps taken with the clamped
    four-stage step, from a state whose fused estimates left the clamp
    band; it is 0 when no controller column reads the fused estimates (an
    empty ``K_blocks``), where the clamp cannot change the trajectory and
    no band is checked between records.  ``sat_flags`` marks recorded
    points whose fused estimates lie outside the clamp level, with or
    without a controller.  ``group_identity_max_rel`` is the worst relative
    gap of the group-error identity over every state the loop computed:
    every step with a controller, every record point without one.
    """

    t: np.ndarray
    x: np.ndarray
    err_norm: np.ndarray
    I_x: float
    steady_state_error: float
    sat_flags: np.ndarray
    sat_steps: int
    group_identity_max_rel: float
    max_input_mismatch: float
    h: float
    steps: int


def suggest_step(M, horizon: float) -> float:
    """Largest-eigenvalue heuristic with the RK4 stability margin.

    Where the storage rule keeps ``M`` sparse, the spectral radius comes
    from ARPACK (one eigenvalue of largest magnitude, to machine precision,
    from the fixed start vector of :func:`plant.arpack_start`), which agrees
    with the dense eigenvalues to round-off; otherwise, or when ARPACK does
    not converge, from dense ``eigvals``.
    """
    M = stored(M)
    radius = 0.0
    if sparse.issparse(M) and M.nnz:
        try:
            top = eigs(
                M, k=1, which="LM", tol=0, v0=arpack_start(M.shape[0]),
                return_eigenvectors=False,
            )
            radius = float(np.abs(top[0]))
        except ArpackNoConvergence:
            M = M.toarray()
    if not sparse.issparse(M):
        radius = float(np.max(np.abs(np.linalg.eigvals(M))))
    if radius == 0.0:
        return horizon / 100.0
    return min(horizon, STEP_SAFETY * RK4_REAL_AXIS_LIMIT / radius)


def _grid(horizon: float, h_wanted: float, record_points: int):
    """Uniform step and record grids; the recorded grid stays uniform too."""
    if not horizon <= MAX_STEPS * h_wanted:
        raise SimError(f"horizon {horizon:g} at step {h_wanted:.3g} takes more than 2**53 steps")
    steps = max(1, int(np.ceil(horizon / h_wanted)))
    n_rec = min(record_points, steps + 1)
    stride = int(np.ceil(steps / (n_rec - 1)))
    steps = stride * (n_rec - 1)
    return horizon / steps, steps, stride, n_rec


class _Stages:
    """One RK4 step of z' = Mz, by Horner's rule on M.

    R z = z + hM (z + hM/2 (z + hM/3 (z + hM/4 z))), so ``stages @ z`` is
    four products ``v <- z + (hM/k) v``, k = 4, 3, 2, 1, with the scaled
    copies of M kept here, and R is never formed.  It acts on a vector or
    on the columns of a matrix, as R would.  At the paper's N=47 a step
    reads 4 nnz(M) = 20,124 stored entries instead of R's 71,294, and after
    6000 steps the plant states lie 7.0e-15 (relative) from a longdouble
    evaluation of the same polynomial, where a chain of products with the
    formed CSR R puts them 2.6e-13 from it.
    """

    def __init__(self, M, h: float):
        hm = h * M
        self.ops = [hm / k for k in (4.0, 3.0, 2.0)] + [hm]
        self.shape = M.shape

    @property
    def entries(self) -> int:
        """Entries a step of a CSR M reads: four products and four vector sums."""
        return 4 * (self.ops[-1].nnz + self.shape[0])

    def __matmul__(self, z):
        v = z
        for op in self.ops:
            v = z + op @ v
        return v

    def minus_identity(self) -> np.ndarray:
        """``R - I``, dense: the stages applied to the identity, without the
        last ``+ I``, so the near-one diagonal of R loses no low bits."""
        eye = np.eye(self.shape[0])
        v = eye
        for op in self.ops[:-1]:
            v = op @ v
            v += eye
        return self.ops[-1] @ v


def _step_operator(M, h: float):
    """One RK4 step of z' = Mz: :class:`_Stages` for a CSR ``M`` past
    ``STAGE_MIN_ENTRIES`` and at most 5 % full, else the dense matrix R,
    the stages applied to the identity."""
    stages = _Stages(M, h)
    size = M.shape[0] * M.shape[1]
    if sparse.issparse(M) and size > STAGE_MIN_ENTRIES and 20 * M.nnz <= size:
        return stages
    return stages.minus_identity() + np.eye(M.shape[0])


class _Chain:
    """``reps`` steps of ``op`` as one operator on a state."""

    def __init__(self, op, reps: int):
        self.op, self.reps = op, reps

    def __matmul__(self, z):
        for _ in range(self.reps):
            z = self.op @ z
        return z


def _rows(op, Z: np.ndarray) -> np.ndarray:
    """``op`` applied to each row of ``Z``, one result row per row."""
    return (op @ Z.T).T


def _block_cap(dim: int) -> int:
    """Longest speculative block: half the states ``BUFFER_BYTES`` holds."""
    return max(1, (BUFFER_BYTES // (8 * dim) - 1) // 2)


def _step_powers(R, max_block: int) -> list:
    """The operators that fill a buffer: R^(2^j) for j = 0..J, 2^J <=
    max_block, where R is the step or the record power E.

    Dense powers are kept transposed, for products on rows of states, and
    take (J + 1) * 8 * dim^2 bytes: 0.43 MB at 82 states (J = 7 under the
    cap of :func:`_block_cap`) and 4.3 MB at 300 (J = 5).  They are squared
    as F <- 2F + F^2 with R^(2^j) = I + F: a small step leaves R close to
    the identity, and squaring R itself rounds away the low bits of its
    near-one diagonal.  Over 6000 steps of the star9 fixture, squaring R
    put the states 6.9e-13 (relative) from the exact propagation of R, this
    way 8.1e-15, and one product per step 3.5e-13.  The :class:`_Stages` of
    a CSR M get J = 0 and are kept as they are: the powers of R fill in, so
    their block is a chain of single steps.  The powers stop before one
    that overflows: its infinities times a state's exact zeros would be NaN
    where the state itself stays finite.  A lone power, J = 0, is kept
    untransposed, for the 1-D products of :func:`_fill`.
    """
    if not isinstance(R, np.ndarray) or max_block < 2:
        return [R]
    powers = [np.ascontiguousarray(R.T)]
    eye = np.eye(R.shape[0])
    F = powers[0] - eye
    while 2 << (len(powers) - 1) <= max_block:
        with np.errstate(over="ignore", invalid="ignore"):
            F = 2.0 * F + F @ F
        if not np.isfinite(F).all():
            break
        powers.append(F + eye)
    return powers if len(powers) > 1 else [R]


def _advance(power: np.ndarray, Z: np.ndarray, out: np.ndarray) -> None:
    """``out[k]`` = the state ``Z[k]`` advanced by a transposed power of
    :func:`_step_powers` (``Z`` and ``out`` are rows of states)."""
    np.matmul(Z, power, out=out)


def _fill(powers: list, buf: np.ndarray, start: int, end: int) -> None:
    """Fill ``buf[start:end]`` with the states after ``buf[start - 1]``.

    One operator (a dense matrix, stages or a chain) is a plain loop of 1-D
    products, a state each.  Of several, chunk j writes the next 2^j states
    as the 2^j states before them advanced by ``powers[j]`` (1, 2, 4, ...
    states, each chunk one product on rows of states), and past the top
    power every further chunk writes 2^top states from the 2^top before
    them.
    """
    top = len(powers) - 1
    if not top:
        op, z = powers[0], buf[start - 1]
        for k in range(start, end):
            z = op @ z
            buf[k] = z
        return
    filled, j = start, 0
    while filled < end:
        m = 1 << j
        rows = min(m, end - filled)
        _advance(powers[j], buf[filled - m : filled - m + rows], buf[filled : filled + rows])
        filled += rows
        j = min(j + 1, top)


def _stride_power(F: np.ndarray, stride: int) -> np.ndarray:
    """``R^stride`` for ``R = I + F``, dense, by binary powering in the
    ``I + F`` form; ``F`` is overwritten.

    With R^(2^j) = I + F_j, squaring is F <- 2F + F^2 as in
    :func:`_step_powers`, and a set bit of ``stride`` multiplies F_j into
    the product I + G as G <- G + F_j + G F_j; powers of R commute, so the
    order of the factors does not matter.  Carrying F and G instead of the
    powers themselves keeps the low bits of the near-one diagonal.  Every
    product goes to one spare array, so F, G and it are all the build
    holds.
    """
    diag = np.arange(F.shape[0])
    G = None
    spare = np.empty_like(F)
    while True:
        if stride & 1:
            if G is None:
                G = F.copy()
            else:
                np.matmul(G, F, out=spare)
                G += F
                G += spare
        stride >>= 1
        if not stride:
            break
        np.matmul(F, F, out=spare)
        F *= 2.0
        F += spare
    G[diag, diag] += 1.0
    return G


def _fill_cost(dim: int, n: int, J: int) -> float:
    """Modeled seconds to fill ``n`` records by a dense ``dim``-state matrix:
    a chain of single products for J = 0, else the doubled fill of
    :func:`_fill` with the top power R^(2^J), counting the J squarings that
    build its powers."""
    if J == 0:
        return n * (CALL_S + dim * dim * DENSE_ENTRY_S)
    return J * dim**3 * MADD_S + (n / 2**J + J) * CALL_S + n * dim * dim * MADD_S


def _fill_depth(dim: int, rows: int, n: int) -> int:
    """Top power J of the cheapest record fill by :func:`_fill_cost`, with
    2^J no longer than a buffer chunk of ``rows`` records and the J + 1
    powers within ``FILL_BYTES``; 0 keeps the chain of single products."""
    depths = [0]
    while (2 << depths[-1]) <= rows and (depths[-1] + 2) * 8 * dim * dim <= FILL_BYTES:
        depths.append(depths[-1] + 1)
    return min(depths, key=lambda J: _fill_cost(dim, n, J))


def _record_operator(R, stride: int, n_rec: int, rows: int):
    """The dense matrix that takes a linear run from record to record, or
    None when a chain of ``stride`` steps of ``R`` is the cheaper way.

    ``R`` is a step of :func:`_step_operator`; a dense R at stride 1 is that
    matrix itself.  Otherwise it is ``E = R^stride``, built from ``R - I``
    (for stages, their action on the identity) by :func:`_stride_power`
    while its working set stays under ``POWER_BYTES``, where the modeled
    seconds of building E and filling the records by it (at the depth of
    :func:`_fill_depth`) undercut those of the chain.  Controller-free runs
    stepped by stages, chained against E: 0.01 s at 546 states 1.19 s
    against 0.29, at 750 states 1.38 against 0.65 (E is taken); 3 ms at 918
    states 0.48 against 0.91 (the chain is kept).
    """
    dim = R.shape[0]
    dense = isinstance(R, np.ndarray)
    if dense and stride == 1:
        return R
    if 3 * 8 * dim * dim > POWER_BYTES:
        return None
    if dense:
        step, build = CALL_S + R.size * DENSE_ENTRY_S, R.size * DENSE_ENTRY_S
    else:
        step = STAGE_CALL_S + R.entries * SPARSE_ENTRY_S
        build = dim * R.entries * SPARSE_ENTRY_S
    products = stride.bit_length() + stride.bit_count() - 2
    build += products * dim**3 * MADD_S
    n = n_rec - 1
    fill = _fill_cost(dim, n, _fill_depth(dim, rows, n))
    if build + fill < stride * n * step:
        return _stride_power(R - np.eye(dim) if dense else R.minus_identity(), stride)
    return None


def _error_groupings(layout: BankLayout):
    """``(gather, segment_sums)``: ``Z[:, gather]`` is the true state behind
    each observer entry of the states ``Z``, and ``segment_sums(sq)`` sums each
    row of ``sq`` over each (set, target) group, as one segment sum over the
    columns sorted by group."""
    n, order = layout.n, np.argsort(layout.group, kind="stable")
    starts = n * np.flatnonzero(np.diff(layout.group[order], prepend=-1))
    gather = ((layout.target - 1)[:, None] * n + np.arange(n)).ravel()
    by_group = (order[:, None] * n + np.arange(n)).ravel()
    return gather, lambda sq: np.add.reduceat(sq[:, by_group], starts, axis=1)


def _first_blown(Z: np.ndarray) -> int:
    """Index of the first row of ``Z`` past ``BLOWUP_NORM`` (or NaN), else -1."""
    # a NaN norm fails the comparison too
    blown = ~(np.linalg.norm(Z, axis=1) <= BLOWUP_NORM)
    return int(np.argmax(blown)) if blown.any() else -1


def performance_index(result: SimResult) -> float:
    """Time integral of the squared state norm over the recorded grid.

    Only ``result.t`` and ``result.x`` are read.
    """
    return float(np.trapezoid(np.sum(result.x * result.x, axis=1), result.t))


class _Run:
    """The step, record grid and fill operators of z' = Mz, shared by every
    start run on them.

    ``M`` comes stored by the rule of ``plant.stored``, and ``rk4`` is one
    RK4 step of it, from :func:`_step_operator`.  The automatic step is
    :func:`suggest_step` of ``M``; with ``cap`` it is also no coarser than
    the record spacing.  The first ``nN`` entries of a state are the plant
    state.  ``why(run)`` completes the blow-up message.

    :meth:`advance` takes ``gap`` steps per unit and at most ``chunk``
    units per fill, by the operators ``fill``: for a ``linear`` run one
    record per unit, what ``BUFFER_BYTES`` holds and the powers of E (or a
    chain of ``stride`` steps); for a controlled one a step per unit, the
    block cap of :func:`_block_cap` and the powers of R.
    """

    def __init__(
        self, label: str, M, config: SimConfig, nN: int, cap: bool = False,
        why=None, linear: bool = True,
    ):
        self.label, self.why, self.horizon, self.nN = label, why, config.horizon, nN
        self.h_pick = None
        h_wanted = config.step
        if h_wanted is None:
            self.h_pick = h_wanted = suggest_step(M, config.horizon)
            if cap:
                h_wanted = min(h_wanted, config.horizon / (config.record_points - 1))
        self.h, self.steps, self.stride, n_rec = _grid(
            config.horizon, h_wanted, config.record_points
        )
        self.rk4 = _step_operator(M, self.h)
        self.t = np.linspace(0.0, config.horizon, n_rec)
        dim = M.shape[0]
        if not linear:
            self.gap, self.chunk = 1, _block_cap(dim)
            self.fill = _step_powers(self.rk4, self.chunk)
            return
        self.gap, self.chunk = self.stride, max(1, BUFFER_BYTES // (8 * dim))
        E = _record_operator(self.rk4, self.stride, n_rec, self.chunk)
        if E is None:
            self.fill = [_Chain(self.rk4, self.stride)]
        else:
            self.fill = _step_powers(E, 1 << _fill_depth(dim, self.chunk, n_rec - 1))

    def advance(self, z0: np.ndarray, account, clamp=None) -> int:
        """Advance a run from ``z0`` to the horizon, handing its states to
        ``account(Z, first_step, gap)``; returns the number of clamped steps.

        ``Z`` holds the states after steps ``first_step``, ``first_step +
        gap``, ...: a view of one buffer, overwritten once ``account``
        returns.  A fill may run past a blow-up, so overflow in it is not
        reported: :meth:`_Records.book` checks the records in order.

        A linear run fills and hands on one chunk of records at a time.  A
        controlled run passes ``clamp`` and advances in speculative blocks:
        ``clamp(Z)`` gets a block's states, from the one before its first
        step on, and returns the index of the first state before a step
        that lies outside the band, with the clamped step from it written to
        the row after it, or -1.  The states after that row are dropped and
        the next block is one step; a clean block doubles the next, up to
        ``chunk`` steps.  Kept states are handed on once ``chunk`` of them
        are waiting.
        """
        chunk, gap = self.chunk, self.gap
        units = self.steps // gap
        # buf[pos] is the current state and buf[1 : pos + 1] the states not
        # yet handed on; a block fills the states behind buf[pos]
        buf = np.empty((chunk + 1 if clamp is None else 2 * chunk + 1, len(z0)))
        buf[0] = z0
        done = pos = clamped = 0
        block = chunk if clamp is None else 1
        while done < units:
            size = min(block, units - done)
            with np.errstate(over="ignore", invalid="ignore"):
                _fill(self.fill, buf, pos + 1, pos + size + 1)
            block = min(2 * block, chunk)
            out = -1 if clamp is None else clamp(buf[pos : pos + size + 1])
            if out >= 0:
                size, block = out + 1, 1
                clamped += 1
            done += size
            pos += size
            if pos >= chunk or done == units:
                account(buf[1 : pos + 1], (done - pos + 1) * gap, gap)
                buf[0] = buf[pos]
                pos = 0
        return clamped


class _Records:
    """The recorded plant states of one start on a :class:`_Run`."""

    def __init__(self, run: _Run):
        self.run, self.t = run, run.t
        self.x = np.empty((len(run.t), run.nN))

    def book(self, Z: np.ndarray, first_step: int, gap: int = 1):
        """Keep the records among the states after steps first_step,
        first_step + gap, ... (``gap`` divides the stride).

        Records after step 0 are checked for blow-up, in order.  Returns the
        slice of ``Z``'s rows that are records and the slice of records they
        fill.
        """
        run = self.run
        stride = run.stride
        skip = (-first_step % stride) // gap
        first_rec = (first_step + skip * gap) // stride
        rows = slice(skip, None, stride // gap)
        Zr = Z[rows]
        if first_step > 0 and len(Zr):
            bad = _first_blown(Zr)
            if bad >= 0:
                rec = first_rec + bad
                why = run.why(run) if run.why else ""
                raise SimError(
                    f"{run.label} run diverged by step {rec * stride} "
                    f"(t={self.t[rec]:.4g}){why}"
                )
        recs = slice(first_rec, first_rec + len(Zr))
        self.x[recs] = Zr[:, : run.nN]
        return rows, recs

    def result(self, **observed) -> SimResult:
        norms = np.linalg.norm(self.x, axis=1)
        tail = self.t >= 0.9 * self.run.horizon
        return SimResult(
            t=self.t.copy(),
            x=self.x,
            I_x=performance_index(self),
            steady_state_error=float(np.max(norms[tail])),
            h=self.run.h,
            steps=self.run.steps,
            **observed,
        )


class _Centralized:
    """The centralized closed loop x' = (A + BK) x on one grid, shared by
    every start."""

    def __init__(self, plant: BlockPlant, gains: ControllerGains, config: SimConfig):
        A, B, _ = assemble(plant)
        # auto-stepping may not be coarser than the record grid, otherwise the
        # quadrature of I_x degrades and index gaps become grid artifacts
        self.loop = _Run(
            "centralized", stored(A + B @ gains.assemble_K(plant)), config,
            plant.state_dim, cap=True,
        )

    def run(self, config: SimConfig) -> SimResult:
        """The run from the start of ``config``."""
        x0 = config.resolve_x0(self.loop.nN)
        records = _Records(self.loop)
        records.book(x0[None], 0)
        self.loop.advance(x0, records.book)
        zeros = np.zeros(len(records.t))
        return records.result(
            err_norm=zeros, sat_flags=zeros > 0, sat_steps=0,
            group_identity_max_rel=0.0, max_input_mismatch=0.0,
        )


def run_centralized(
    plant: BlockPlant, gains: ControllerGains, config: SimConfig
) -> SimResult:
    return _Centralized(plant, gains, config).run(config)


class _Distributed:
    """The distributed closed loop of one design on one grid: the observer
    matrices, the operators, the error groupings, the step and the fill
    operators, built once and shared by every start."""

    def __init__(
        self, plant: BlockPlant, assignment: CoverAssignment, pair: NetworkPair,
        design: ObserverDesign, gains: ControllerGains, config: SimConfig,
    ):
        if not design.certified and not config.force:
            raise SimError(
                f"gamma {design.gamma:.6g} does not exceed the threshold "
                f"{design.gamma_bound:.6g}; pass force=True to run anyway"
            )

        A, B, _ = assemble(plant)
        layout = BankLayout.build(assignment, plant.n)
        mats = build_observer_matrices(plant, pair, assignment, design, gains, layout)

        self.nN = nN = plant.state_dim
        self.dim = nN + layout.dim
        # the operators are assembled from the CSR observer matrices and
        # stored once, so no dense dim x dim array is allocated for a CSR
        # operator stepped by stages; with every block CSR, zero blocks
        # too, bmat stacks them directly instead of through COO
        A_obs, L_x, Phi, K_sel = mats.A_obs_csr, mats.L_x_csr, mats.Phi_csr, mats.K_sel_csr
        BK_x = B @ K_sel
        # no controller column reads the fused estimates: the loop is linear, with no BK
        self.linear = not BK_x.nnz
        n_fused = Phi.shape[0]
        self.M0 = stored(sparse.bmat([[A, sparse.csr_matrix((nN, layout.dim))], [L_x, A_obs]]))
        M_lin, self.BK = self.M0, None
        if not self.linear:
            M_lin = stored(sparse.bmat([[A, BK_x @ Phi], [L_x, A_obs]]))
            self.BK = stored(sparse.bmat([[BK_x], [sparse.csr_matrix((layout.dim, n_fused))]]))
        self.Phi_z = stored(sparse.bmat([[sparse.csr_matrix((n_fused, nN)), Phi]]))
        self.K_sel, self.K = stored(K_sel), stored(gains.assemble_K(plant))

        self.gather, self.segment_sums = _error_groupings(layout)

        self.loop = _Run(
            "distributed", M_lin, config, nN,
            why=lambda run: (
                f": gamma={design.gamma:.4g} vs threshold {design.gamma_bound:.4g}, "
                f"h={run.h:.3g} vs suggested "
                f"{run.h_pick or suggest_step(M_lin, config.horizon):.3g}"
            ),
            linear=self.linear,
        )

    def run(self, config: SimConfig) -> SimResult:
        """The run from the start, observer start and clamp level of ``config``."""
        nN, n_rec = self.nN, len(self.loop.t)
        gather, segment_sums = self.gather, self.segment_sums
        Phi_z, K_sel, K = self.Phi_z, self.K_sel, self.K
        x0 = config.resolve_x0(nN)
        level = config.resolve_sat(x0)
        records = _Records(self.loop)
        err_norm = np.empty(n_rec)
        sat_flags = np.zeros(n_rec, dtype=bool)
        ident_max = 0.0
        mismatch = 0.0

        def account(Z: np.ndarray, first_step: int, gap: int = 1) -> None:
            """Book the states after steps first_step, first_step + gap, ...

            Every state enters the group-error identity; the recorded ones are
            observed.
            """
            nonlocal ident_max, mismatch
            sq = (Z[:, nN:] - Z[:, gather]) ** 2
            rows, recs = records.book(Z, first_step, gap)

            flat = np.sum(sq, axis=1)
            grouped = np.sum(segment_sums(sq), axis=1)
            # rows with a zero (or NaN) error norm give NaN, which fmax skips
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.abs(grouped - flat) / flat
            ident_max = float(np.fmax.reduce(rel, initial=ident_max))

            Zr = Z[rows]
            if not len(Zr):
                return
            X = Zr[:, :nN]
            sq = sq[rows]
            err_norm[recs] = np.sqrt(np.sum(sq, axis=1))
            fused = _rows(Phi_z, Zr)
            sat_flags[recs] = np.max(np.abs(fused), axis=1) > level
            u_gap = _rows(K_sel, np.clip(fused, -level, level)) - _rows(K, X)
            mismatch = max(mismatch, float(np.max(np.linalg.norm(u_gap, axis=1))))

        h, M0, BK, band = self.loop.h, self.M0, self.BK, CLAMP_MARGIN * level

        def rhs(v: np.ndarray) -> np.ndarray:
            return M0 @ v + BK @ np.clip(Phi_z @ v, -level, level)

        def clamp(Z: np.ndarray) -> int:
            """The first state of ``Z[:-1]`` outside the band, with the
            four-stage step from it, clamped per stage, written to the next
            row; -1 when every one lies inside."""
            inside = np.max(np.abs(_rows(Phi_z, Z[:-1])), axis=1) <= band
            if inside.all():
                return -1
            k = int(np.argmin(inside))
            v = Z[k]
            k1 = rhs(v)
            k2 = rhs(v + 0.5 * h * k1)
            k3 = rhs(v + 0.5 * h * k2)
            k4 = rhs(v + h * k3)
            Z[k + 1] = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            return k

        z0 = np.empty(self.dim)
        z0[:nN] = x0
        z0[nN:] = float(config.observer_init)
        account(z0[None], 0)
        sat_steps = self.loop.advance(z0, account, None if self.linear else clamp)
        return records.result(
            err_norm=err_norm,
            sat_flags=sat_flags,
            sat_steps=sat_steps,
            group_identity_max_rel=ident_max,
            max_input_mismatch=mismatch,
        )


def run_distributed(
    plant: BlockPlant,
    assignment: CoverAssignment,
    pair: NetworkPair,
    design: ObserverDesign,
    gains: ControllerGains,
    config: SimConfig,
) -> SimResult:
    return _Distributed(plant, assignment, pair, design, gains, config).run(config)


# ------------------------------------------------------------------- sweep

def theta_sweep(
    plant: BlockPlant,
    assignment: CoverAssignment,
    pair: NetworkPair,
    designs: list[ObserverDesign],
    repeats: int,
    seed: int,
    controller: ControllerGains,
    horizon: float = 10.0,
    force: bool = False,
    observer_init: float = 2.0,
) -> list[dict]:
    """Index gap between the two closed loops, one row per design in order.

    Each repeat draws one initial state used by every design and by the
    centralized reference, so rows differ only through the observer speed;
    a row's ``theta`` is its design's.  The centralized loop is built once
    and each design's distributed loop once, and every start runs on them.
    """
    if repeats < 1:
        raise SimError("repeats must be >= 1")
    if not is_int(seed) or seed < 0:
        raise SimError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    starts = [rng.uniform(0.0, 1.0, size=plant.state_dim) for _ in range(repeats)]

    def cfg(x0: np.ndarray) -> SimConfig:
        return SimConfig(
            horizon=horizon,
            x0=x0,
            observer_init=observer_init,
            force=force,
            record_points=1001,
        )

    def costs(loop) -> np.ndarray:
        # the loop is dropped once its starts have run, before the next is built
        return np.array([loop.run(cfg(x0)).I_x for x0 in starts])

    centralized = costs(_Centralized(plant, controller, cfg(starts[0])))
    rows = []
    for design in designs:
        gaps = costs(
            _Distributed(plant, assignment, pair, design, controller, cfg(starts[0]))
        ) - centralized
        rows.append(
            {
                "theta": design.theta,
                "mean_gap": float(np.mean(gaps)),
                "min_gap": float(np.min(gaps)),
                "max_gap": float(np.max(gaps)),
            }
        )
    return rows

