"""Observer and controller gain synthesis.

The observer side follows the high-gain recipe: scale each diagonal block by
the gain ladder diag(theta^{n-1}, ..., theta, 1), place output-injection
poles on the scaled pair, and solve one Lyapunov equation per agent for the
consensus weighting matrix.  The controller side covers the inverter-network
benchmark: per-block pole placement plus the printed coupling-compensation
rows.

The coupling-gain threshold deserves a note.  The weight matrices scale
linearly with the coupling gain, so a threshold quoted in terms of their
norms would reference the quantity being chosen.  We evaluate the threshold
with the weights solved at unit coupling gain, which makes it a fixed number
that the chosen gain can be compared against.

Pole placement is done in house by :func:`_place_poles`, a replay of
``scipy.signal.place_poles`` (Kautsky, Nichols & Van Dooren, "Robust pole
assignment in linear state feedback", 1985) for the two cases where its YT
iteration has nothing to optimise: one independent input column, as in every
single-output observer block and every microgrid controller block, and a
full-rank square input; only blocks with ``1 < rank(B) < n`` still go to
``scipy.signal``, whose import costs about a second of start-up.

Every per-agent step (scaling, observability rank, placement, Hurwitz check,
weight solve, the norms behind ``lambda_A`` and ``lambda_P``) runs once on
(N, n, n) stacks of all agents' blocks.  numpy's stacked routines make the
same LAPACK or BLAS call per matrix that a loop over agents makes, so the
results are that loop's bit for bit; ``tests/gains_oracle.py`` keeps it.
The weight equations (Bartels & Stewart 1972) have no stacked routine:
:func:`_lyapunov` calls LAPACK per block in scipy's order, without scipy's
per-matrix validation layer, which costs four times the arithmetic on
2 x 2 blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.linalg import svds

from .artifact import FilePath, read_json, write_json
from .coverage import CoverAssignment
from .netgraph import (
    NetworkPair,
    grounded_min_eig,
    grounded_min_eig_bounds,
    subgraph_laplacian,
)
from .plant import (
    BlockPlant, arpack_start, assemble, block_csr, finite_block, numerical_rank, stored,
)

# Bound on the weight equation's Frobenius residual, relative to the norm of
# its right-hand side 2*gamma*I once that norm exceeds one: at gamma ~ 1e8
# round-off alone leaves an absolute residual of ~5e-8.
LYAPUNOV_RESIDUAL_TOL = 1e-8


class GainsError(ValueError):
    pass


def spectral_abscissa(m: np.ndarray):
    """Largest real part of m's eigenvalues; one per matrix of a stack."""
    return np.linalg.eigvals(m).real.max(axis=-1)


def _reject(bad, text: str, value=0.0) -> None:
    """Raise :class:`GainsError` where ``bad`` holds; over a stack, naming the
    first failing agent (slice k + 1) and formatting its ``value`` in."""
    bad = np.asarray(bad)
    if bad.any():
        k = int(np.argmax(bad))
        text = text.format(np.broadcast_to(value, bad.shape).flat[k])
        raise GainsError(f"agent {k + 1}: {text}" if bad.ndim else text)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Each matrix's Frobenius norm, shaped (..., 1, 1), as np.linalg.norm
    computes it: sqrt(v . v) of the matrix as a row v."""
    v = m.reshape(*m.shape[:-2], 1, -1)
    return np.sqrt(v @ v.mT)


def check_theta(theta: float) -> None:
    """Raise :class:`GainsError` unless 1 <= theta < inf (NaN included)."""
    if not 1.0 <= theta < np.inf:
        raise GainsError(f"theta must be >= 1 and finite, got {theta:g}")


def check_poles(poles, n: int) -> list[float]:
    """The n requested observer poles as floats; raise :class:`GainsError`
    unless there are exactly n of them, all strictly negative and distinct
    (a single-output block cannot take a pole twice)."""
    poles = [float(p) for p in poles]
    if len(poles) != n:
        raise GainsError(f"need {n} observer poles, one per block state, got {len(poles)}")
    if any(not p < 0 for p in poles):
        raise GainsError(f"observer poles must be strictly negative, got {poles}")
    if len(set(poles)) != n:
        raise GainsError(f"observer poles must be distinct, got {poles}")
    return poles


def gamma_scaling(n: int, theta: float) -> np.ndarray:
    """Gain ladder diag(theta^{n-1}, ..., theta, 1)."""
    check_theta(theta)
    return np.diag([theta ** (n - 1 - k) for k in range(n)])


def transform_block(A_ii: np.ndarray, C_i: np.ndarray, theta: float):
    """Similarity-scale a block, or each of a stack: (G A G^-1 / theta^(n-1), C G^-1)."""
    n = A_ii.shape[-1]
    g = gamma_scaling(n, theta)
    g_inv = np.diag(1.0 / np.diag(g))
    return g @ A_ii @ g_inv / theta ** (n - 1), C_i @ g_inv


def design_observer_gain(A_ii: np.ndarray, C_i: np.ndarray, theta: float, poles):
    """Output-injection gain placing the scaled block's poles as requested;
    one per block of a stack."""
    poles = check_poles(poles, A_ii.shape[-1])
    return _place_scaled(*transform_block(A_ii, C_i, theta), poles)[0]


def _place_scaled(abar: np.ndarray, cbar: np.ndarray, poles: list[float]):
    """Output-injection gains ``hbar`` placing ``poles`` on already scaled
    blocks, and the closed blocks ``abar - hbar cbar``; one block or a stack."""
    n = abar.shape[-1]
    obs = np.concatenate([cbar @ np.linalg.matrix_power(abar, k) for k in range(n)], -2)
    _reject(numerical_rank(obs) < n, "block is not observable; cannot place poles")
    hbar = _place_poles(abar.mT, cbar.mT, poles).mT
    closed = abar - hbar @ cbar
    _reject(spectral_abscissa(closed) >= 0, "placement failed to produce a Hurwitz block")
    return hbar, closed


def _place_poles(A: np.ndarray, B: np.ndarray, poles) -> np.ndarray:
    """State-feedback gain K with eig(A - B K) at the real ``poles``; for a
    stack of blocks A (k, n, n) and B (k, n, m), one gain per block.

    Replays ``scipy.signal.place_poles`` (scipy 1.17, Kautsky, Nichols &
    Van Dooren 1985) where its YT iteration has nothing to optimise:
    ``rank(B) == n`` (least squares) and ``rank(B) == 1``.  Each primitive
    runs on the same operands in the same order, so the gain is scipy's bit
    for bit; only the input checks that cannot fire here and the unused
    ``computed_poles`` eigendecomposition are left out.  A stack's
    ``rank(B) == 1`` blocks are placed together by numpy's stacked QR,
    products and solves; ``1 < rank(B) < n`` goes to scipy itself.  Raises
    :class:`GainsError` where scipy raises ``ValueError``, naming a stack's
    first block that cannot be placed as agent k + 1.
    """
    if A.ndim == 2:
        try:
            return _place_stack(A[np.newaxis], B[np.newaxis], poles)[0]
        except ValueError as exc:  # a singular transfer matrix's LinAlgError too
            raise GainsError(f"pole placement failed: {exc}") from exc
    try:
        return _place_stack(A, B, poles)
    except ValueError:
        for k in range(len(A)):  # the first block that cannot be placed
            try:
                _place_poles(A[k], B[k], poles)
            except GainsError as exc:
                raise GainsError(f"agent {k + 1}: {exc}") from exc
        raise


def _place_stack(A: np.ndarray, B: np.ndarray, poles) -> np.ndarray:
    """:func:`_place_poles` on stacks, raising ``ValueError`` for the whole stack."""
    n = A.shape[-1]
    poles = np.sort(np.asarray(poles, dtype=float))
    if len(poles) != n:
        raise ValueError(f"number of poles is {len(poles)} but you should provide {n}")
    rank = np.linalg.matrix_rank(B)
    if any(np.sum(p == poles) > rank.min() for p in poles):
        raise ValueError("at least one of the requested pole is repeated more than rank(B) times")
    gain = np.empty((len(A), B.shape[-1], n))
    one = (rank == 1) & (n > 1)
    for k in np.flatnonzero(~one):
        if rank[k] == n:
            gain[k] = np.real(-np.linalg.lstsq(B[k], np.diag(poles) - A[k], rcond=-1)[0])
        else:
            from scipy.signal import place_poles

            gain[k] = place_poles(A[k], B[k], poles).gain_matrix
    if not one.any():
        return gain
    A = A[one]
    u, z = np.linalg.qr(B[one], mode="complete")
    u0, u1, z = u[..., :1], u[..., 1:], z[..., :1, :]
    columns = []
    for p in poles:
        # the pole's admissible eigenvector space, summed into one unit column
        pole_space = (u1.mT @ (A - p * np.eye(n))).mT
        q = np.linalg.qr(pole_space, mode="complete")[0]
        column = np.sum(q[..., n - 1:], axis=-1)[..., np.newaxis]
        columns.append(column / _frobenius(column))
    transfer = np.concatenate(columns, axis=-1).astype(complex)
    m = np.linalg.solve(transfer.mT, np.diag(poles) @ transfer.mT).mT
    gain[one] = np.real(-np.linalg.solve(z, u0.mT @ (m - A)))
    return gain


def _no_sort(re, im):
    """``dgees``'s eigenvalue selector, never called without sorting."""
    return None


def _lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """X with a X + X a' = q, for one matrix ``a`` or each of a stack; ``q``
    broadcasts against ``a``.

    Each matrix is solved as ``scipy.linalg.solve_continuous_lyapunov``
    (scipy 1.17) solves it, with the same LAPACK and BLAS calls on the same
    operands, so X is scipy's bit for bit: the Schur form ``a = u r u'`` by
    ``dgees``, ``dtrsyl`` on ``(r, r, u'(q u))``, the scaling, ``u y u'``.
    The finite-input check and the workspace query, whose answer depends
    only on the order, are made once per stack.  As in scipy, non-finite
    input raises ``ValueError`` and a perturbed ``dtrsyl`` solve warns.
    """
    a = np.asarray_chkfinite(a, dtype=float)
    q = np.broadcast_to(np.asarray_chkfinite(q, dtype=float), a.shape)
    stack = a.reshape(-1, *a.shape[-2:])
    out = np.empty(stack.shape)
    lwork = int(lapack.dgees(_no_sort, stack[0], lwork=-1)[-2][0].real)
    for k, (ak, qk) in enumerate(zip(stack, q.reshape(stack.shape))):
        r, _, _, _, u, _, info = lapack.dgees(_no_sort, ak, lwork=lwork)
        if info > 0:
            raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
        y, scale, info = lapack.dtrsyl(r, r, u.T.dot(qk.dot(u)), tranb="T")
        if info < 0:
            raise ValueError(f"?TRSYL: illegal value in argument number {-info}")
        if info == 1:
            warnings.warn(
                'Input "a" has an eigenvalue pair whose sum is very close to or '
                "exactly zero. The solution is obtained via perturbing the coefficients.",
                RuntimeWarning, stacklevel=2,
            )
        y *= scale
        out[k] = u.dot(y).dot(u.T)
    return out.reshape(a.shape)


def solve_weight(F: np.ndarray, gamma: float) -> np.ndarray:
    """Symmetric positive definite P with F'P + PF = -2*gamma*I; one per
    matrix of a stack."""
    if gamma <= 0:
        raise GainsError(f"gamma must be positive, got {gamma}")
    _reject(spectral_abscissa(F) >= 0, "weight equation needs a Hurwitz matrix")
    rhs = -2.0 * gamma * np.eye(F.shape[-1])
    P = _lyapunov(F.mT, rhs)
    # one refinement pass keeps the residual near round-off even when the
    # solution norm is large
    residual = F.mT @ P + P @ F - rhs
    P = P - _lyapunov(F.mT, residual)
    P = 0.5 * (P + P.mT)
    res_norm = _frobenius(F.mT @ P + P @ F - rhs)[..., 0, 0]
    limit = LYAPUNOV_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(rhs)))
    _reject(res_norm > limit, "weight residual {:.3e} exceeds tolerance", res_norm)
    _reject(np.linalg.eigvalsh(P).min(axis=-1) <= 0, "weight matrix is not positive definite")
    return P


@dataclass(frozen=True)
class ControllerGains:
    """Static feedback blocks K_ij; the clamp level is SimConfig.sat_level."""

    K_blocks: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        checked = {}
        for key, blk in self.K_blocks.items():
            b = np.asarray(blk, dtype=float).copy()
            b.setflags(write=False)
            checked[key] = b
        object.__setattr__(self, "K_blocks", checked)

    def K_block(self, i: int, j: int, m: int, n: int) -> np.ndarray:
        blk = self.K_blocks.get((i, j))
        return np.zeros((m, n)) if blk is None else blk

    def assemble_K(self, plant: BlockPlant) -> sparse.csr_matrix:
        """CSR K with block (i, j) at rows of i, columns of j."""
        return block_csr(
            self.K_blocks, plant.m, plant.n, (plant.m * plant.N, plant.n * plant.N)
        )

    def row_norm(self, i: int) -> float:
        """Norm of agent i's stacked feedback row."""
        rows = [blk for (di, _), blk in self.K_blocks.items() if di == i]
        if not rows:
            return 0.0
        return float(np.linalg.norm(np.hstack(rows), 2))


def design_controller_microgrid(
    plant: BlockPlant, poles=(-3.0, -4.0)
) -> ControllerGains:
    """Benchmark feedback: local pole placement plus coupling rows.

    The off-diagonal rows repeat the coupling strength with positive sign
    rather than cancelling it; at the benchmark's default coupling magnitudes
    the distinction is far below solver precision.  The assembled closed loop
    is verified Hurwitz either way.
    """
    if plant.meta.get("kind") != "microgrid":
        raise GainsError("controller recipe is specific to the microgrid family")
    b = np.stack([plant.B_blocks[i] for i in range(1, plant.N + 1)])
    local = -_place_poles(_diagonal_blocks(plant), b, [float(p) for p in poles])
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for i in range(1, plant.N + 1):
        blocks[(i, i)] = local[i - 1]
        for j in plant.coupling_sources(i):
            blocks[(i, j)] = np.array([[plant.A_blocks[(i, j)][1, 0], 0.0]])
    gains = ControllerGains(K_blocks=blocks)
    A, B, _ = assemble(plant)
    if spectral_abscissa((A + B @ gains.assemble_K(plant)).toarray()) >= 0:
        raise GainsError("assembled closed loop is not Hurwitz")
    return gains


# -------------------------------------------------------- spectral constants

def _cover_spectrum_floor(assignment: CoverAssignment, pair: NetworkPair) -> float:
    """Worst grounded consensus eigenvalue over all sets and anchor choices.

    Screen, then confirm.  Each set's Laplacian is built, and its
    connectivity checked, once, and :func:`grounded_min_eig_bounds` gives a
    lower bound for every anchor from one eigendecomposition per set.  The
    exact :func:`grounded_min_eig` then runs in ascending bound order until
    the next bound exceeds the smallest exact value so far; anchors skipped
    that way cannot hold the minimum, so the floor is bit-identical to
    taking the minimum over every anchor's exact value.

    The bounds are rigorous up to round-off.  With ``lap = Q diag(lam) Q'``
    and ``z = Q[k, :]**2``, the smallest eigenvalue of ``lap + e_k e_k'``
    lies in ``[lam_1, min(lam_2, lam_1 + 1)]`` (interlacing for the rank-one
    update, Weyl for its unit norm) and is the root there of
    ``1 + sum_j z_j / (lam_j - mu)``, which increases strictly between the
    poles ``lam_1`` and ``lam_2`` (Golub 1973; Bunch, Nielsen & Sorensen
    1978).  Bisection keeps its left end where the function is negative,
    below the root.  Round-off enters three ways: ``eigh`` and ``eigvalsh``
    are exact for matrices within about ``n * eps * norm`` of theirs, with
    ``norm <= 1 + 2 * max degree``, and the function's value near the root
    moves the root by at most ``2 * n * eps``, because its slope there is
    at least ``z_1 / (mu - lam_1)**2``, with ``z_1 = 1/n`` from the constant
    vector.  The subtracted margin, ``1e4 * n * eps * (1 + 2 * max degree)``,
    exceeds their sum more than 3000 times, so no bound exceeds the exact
    value that ``eigvalsh`` returns for its anchor.
    """
    laps = [
        subgraph_laplacian(pair, s.members) for s in assignment.sets if s.members
    ]
    if not laps:
        raise GainsError("assignment has no nonempty cover sets")
    bounds = grounded_min_eig_bounds(laps)
    anchors = [(lap, pos) for lap in laps for pos in range(lap.shape[0])]
    floor = np.inf
    for k in np.argsort(bounds, kind="stable"):
        if bounds[k] > floor:
            break
        floor = min(floor, grounded_min_eig(*anchors[k]))
    return float(floor)


def _norm2(m) -> float:
    """Spectral norm; by ARPACK, from the fixed start vector of
    :func:`plant.arpack_start`, when the operator storage rule keeps ``m``
    sparse, which agrees with the dense SVD to round-off.
    """
    m = stored(m)
    if not sparse.issparse(m):
        return float(np.linalg.norm(m, 2))
    if not m.nnz:
        return 0.0
    v0 = arpack_start(min(m.shape))
    return float(svds(m, k=1, tol=0, v0=v0, return_singular_vectors=False)[0])


def _diagonal_blocks(plant: BlockPlant) -> np.ndarray:
    """The blocks A_ii of agents 1..N as one (N, n, n) stack."""
    return np.stack([plant.A_blocks[(i, i)] for i in range(1, plant.N + 1)])


def _unit_design(
    plant: BlockPlant, assignment: CoverAssignment, pair: NetworkPair, theta: float,
    controller: ControllerGains, poles,
):
    """The checked poles, every agent's output-injection gain ``Hbar_i`` and
    scaled error dynamics ``Abar_i - Hbar_i Cbar_i`` as (N, n, p) and
    (N, n, n) stacks, and the design constants with ``gamma_bound``."""
    if poles is None:
        poles = [-(k + 1.0) for k in range(plant.n)]
    poles = check_poles(poles, plant.n)
    agents = range(1, plant.N + 1)
    a = _diagonal_blocks(plant)
    outputs = np.stack([plant.C_blocks[i] for i in agents])
    hbar, closed = _place_scaled(*transform_block(a, outputs, theta), poles)
    c = {  # the cover floor first: it rejects an assignment without sets
        "lambda_min_cover": _cover_spectrum_floor(assignment, pair),
        "lambda_A": float(np.linalg.norm(a + a.mT, 2, axis=(-2, -1)).max()),
        "lambda_P": float(np.linalg.norm(solve_weight(closed, 1.0), 2, axis=(-2, -1)).max()),
        "lambda_bar": float(max(
            len(assignment.sets_of(i))
            * max(len(assignment.set_by_id(p).members) for p in assignment.sets_of(i))
            for i in agents
        )),
        "rho": float(np.sqrt(2.0) * max(controller.row_norm(i) for i in agents)),
    }
    A, B, _ = assemble(plant)
    c.update(norm_A=_norm2(A), norm_B=_norm2(B))
    drive = c["lambda_A"] + 2.0 * c["lambda_P"] * c["lambda_bar"] * (
        c["norm_A"] + c["rho"] * c["norm_B"]
    )
    c["gamma_bound"] = drive / (2.0 * theta ** (plant.n - 1) * c["lambda_min_cover"])
    return poles, hbar, closed, c


def gamma_lower_bound(
    plant: BlockPlant,
    assignment: CoverAssignment,
    pair: NetworkPair,
    theta: float,
    controller: ControllerGains,
    poles=None,
) -> float:
    """Coupling-gain threshold, evaluated with unit-gain weight matrices."""
    return _unit_design(plant, assignment, pair, theta, controller, poles)[3]["gamma_bound"]


# ------------------------------------------------------------ full design

@dataclass(frozen=True)
class ObserverDesign:
    """Everything the observer bank needs at run time."""

    theta: float
    gamma: float
    n: int
    poles: tuple[float, ...]
    policy: str
    Hbar: dict[int, np.ndarray]
    P: dict[int, np.ndarray]
    lambda_min_cover: float
    lambda_A: float
    lambda_P: float
    lambda_bar: float
    rho: float
    norm_A: float
    norm_B: float
    gamma_bound: float
    gamma_theta: np.ndarray = field(init=False, repr=False)
    Ptilde: dict[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        g = gamma_scaling(self.n, self.theta)
        g.setflags(write=False)
        object.__setattr__(self, "gamma_theta", g)
        # Ptilde is the error weight pulled back to unscaled coordinates:
        # the certificate uses eps' P eps with eps = gamma_theta @ e, so the
        # weight on e is the congruence below.  A similarity transform here
        # loses symmetry and, with it, closed-loop stability at large theta.
        ptilde = {}
        for i, p in self.P.items():
            m = g @ p @ g
            m.setflags(write=False)
            ptilde[i] = m
        object.__setattr__(self, "Ptilde", ptilde)

    @property
    def stiff_scale(self) -> float:
        """gamma * theta^(n-1), the consensus-term magnitude."""
        return self.gamma * self.theta ** (self.n - 1)

    def injection_gain(self, i: int) -> np.ndarray:
        """Output-injection matrix applied to (y_i - C_i xhat)."""
        g_inv = np.diag(1.0 / np.diag(self.gamma_theta))
        return self.theta ** (self.n - 1) * g_inv @ self.Hbar[i]

    def consensus_weight(self, i: int) -> np.ndarray:
        """Self-estimate consensus coefficient gamma*theta^(n-1)*inv(Ptilde)."""
        return self.stiff_scale * np.linalg.inv(self.Ptilde[i])


def synthesize(
    plant: BlockPlant,
    assignment: CoverAssignment,
    pair: NetworkPair,
    theta: float,
    controller: ControllerGains,
    gamma: float | None = None,
    policy: str = "auto",
    poles=None,
) -> ObserverDesign:
    """Design the full observer parameter set for one theta.

    Policies: "auto" picks gamma = max(1.1 * bound, requested); "paper" uses
    the fixed schedule 100 * theta^2; "fixed" takes the request verbatim
    (the simulator then insists on --force when it sits below the bound).
    """
    poles, hbar, closed, constants = _unit_design(plant, assignment, pair, theta, controller, poles)
    bound = constants["gamma_bound"]
    if policy == "auto":
        gamma_val = max(1.1 * bound, gamma if gamma is not None else 0.0)
    elif policy == "paper":
        gamma_val = 100.0 * theta * theta
    elif policy == "fixed":
        if gamma is None:
            raise GainsError("fixed policy needs an explicit gamma")
        gamma_val = float(gamma)
    else:
        raise GainsError(f"unknown gamma policy {policy!r}")

    weights = solve_weight(closed, gamma_val)

    return ObserverDesign(
        theta=float(theta),
        gamma=float(gamma_val),
        n=plant.n,
        poles=tuple(poles),
        policy=policy,
        Hbar={i: hbar[i - 1] for i in range(1, plant.N + 1)},
        P={i: weights[i - 1] for i in range(1, plant.N + 1)},
        **constants,
    )


# ------------------------------------------------------------------ file io

# the scalars of a design that its file keeps under "constants"
DESIGN_CONSTANTS = (
    "lambda_min_cover", "lambda_A", "lambda_P", "lambda_bar",
    "rho", "norm_A", "norm_B", "gamma_bound",
)


def save_design(design: ObserverDesign, path: FilePath, manifest_hash: str | None = None) -> None:
    doc = {
        "theta": design.theta,
        "gamma": design.gamma,
        "n": design.n,
        "poles": list(design.poles),
        "policy": design.policy,
        "Hbar": {str(i): m.tolist() for i, m in design.Hbar.items()},
        "P": {str(i): m.tolist() for i, m in design.P.items()},
        "constants": {k: getattr(design, k) for k in DESIGN_CONSTANTS},
        "weight_transform": "congruence",
    }
    write_json(path, doc, manifest_hash)


def load_design(path: FilePath, plant: BlockPlant) -> ObserverDesign:
    """Read a design file and check that it is for ``plant``: its order, n
    valid poles, finite scalars, and one finite n x p gain Hbar_i and n x n
    weight P_i per agent."""

    def parse(doc) -> ObserverDesign:
        n = int(doc["n"])
        hbar = {int(i): m for i, m in doc["Hbar"].items()}
        weights = {int(i): m for i, m in doc["P"].items()}
        agents = set(range(1, plant.N + 1))
        if n != plant.n or set(hbar) != agents or set(weights) != agents:
            raise GainsError(
                f"is for {len(hbar)} agents of order {n}, "
                f"the plant has {plant.N} of order {plant.n}"
            )
        scalars = {k: float(doc[k]) for k in ("theta", "gamma")}
        scalars.update((k, float(doc["constants"][k])) for k in DESIGN_CONSTANTS)
        if not np.isfinite(list(scalars.values())).all():
            raise GainsError("theta, gamma and the constants must be finite")
        return ObserverDesign(
            n=n,
            poles=tuple(check_poles(doc["poles"], n)),
            policy=str(doc["policy"]),
            Hbar={i: finite_block(m, n, plant.p, f"Hbar {i}") for i, m in hbar.items()},
            P={i: finite_block(m, n, n, f"P {i}") for i, m in weights.items()},
            **scalars,
        )

    return read_json(path, GainsError, parse)


def save_controller(
    gains: ControllerGains, path: FilePath, manifest_hash: str | None = None
) -> None:
    doc = {"K": {f"{i},{j}": blk.tolist() for (i, j), blk in gains.K_blocks.items()}}
    write_json(path, doc, manifest_hash)


def load_controller(path: FilePath, plant: BlockPlant, pair: NetworkPair) -> ControllerGains:
    """Read a controller file and check it against ``plant`` and ``pair``:
    finite m x n blocks K_ij, with j agent i or a physical in-neighbour of i,
    the only estimates agent i's observer feeds to its input.  A
    ``sat_level`` key, which older files carry, is ignored."""

    def parse(doc) -> ControllerGains:
        blocks = {}
        for key, blk in doc["K"].items():
            i, j = (int(t) for t in key.split(","))
            if not 1 <= i <= plant.N:
                raise GainsError(f"K block ({key}): no agent {i} among 1..{plant.N}")
            if j != i and j not in pair.phys_neighbors(i):
                raise GainsError(f"K block ({key}): {j} is not a physical in-neighbour of {i}")
            blocks[(i, j)] = finite_block(blk, plant.m, plant.n, f"K block ({key})")
        return ControllerGains(K_blocks=blocks)

    return read_json(path, GainsError, parse)
