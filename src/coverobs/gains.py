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
full-rank square input.  It calls the same ``scipy.linalg.qr``,
``matrix_rank``, normalised column sum, complex cast and two solves, on the
same operands and in the same order, so its gains are scipy's bit for bit;
only blocks with ``1 < rank(B) < n`` still go to ``scipy.signal``.  Importing
``scipy.signal`` pulls in ``scipy.stats``, ``interpolate`` and ``optimize``,
about a second of every process's start-up, which the package no longer pays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import qr, solve_continuous_lyapunov
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
    BlockPlant, arpack_start, assemble, finite_block, numerical_rank, stored,
)

# Bound on the weight equation's Frobenius residual, relative to the norm of
# its right-hand side 2*gamma*I once that norm exceeds one: at gamma ~ 1e8
# round-off alone leaves an absolute residual of ~5e-8.
LYAPUNOV_RESIDUAL_TOL = 1e-8


class GainsError(ValueError):
    pass


def spectral_abscissa(m: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(m).real))


def check_theta(theta: float) -> None:
    """Raise :class:`GainsError` unless theta >= 1 (NaN included)."""
    if not theta >= 1.0:
        raise GainsError(f"theta must be >= 1, got {theta:g}")


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


def transform_block(
    A_ii: np.ndarray, C_i: np.ndarray, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Similarity-scale a block: (G A G^-1 / theta^(n-1), C G^-1)."""
    n = A_ii.shape[0]
    g = gamma_scaling(n, theta)
    g_inv = np.diag(1.0 / np.diag(g))
    return g @ A_ii @ g_inv / theta ** (n - 1), C_i @ g_inv


def design_observer_gain(
    A_ii: np.ndarray, C_i: np.ndarray, theta: float, poles
) -> np.ndarray:
    """Output-injection gain placing the scaled block's poles as requested."""
    poles = check_poles(poles, A_ii.shape[0])
    return _place_scaled(*transform_block(A_ii, C_i, theta), poles)


def _place_scaled(abar: np.ndarray, cbar: np.ndarray, poles: list[float]) -> np.ndarray:
    """Output-injection gain placing ``poles`` on an already scaled block."""
    n = abar.shape[0]
    obs = np.vstack([cbar @ np.linalg.matrix_power(abar, k) for k in range(n)])
    if numerical_rank(obs) < n:
        raise GainsError("block is not observable; cannot place poles")
    try:
        hbar = _place_poles(abar.T, cbar.T, poles).T
    except ValueError as exc:
        raise GainsError(f"pole placement failed: {exc}") from exc
    if spectral_abscissa(abar - hbar @ cbar) >= 0:
        raise GainsError("placement failed to produce a Hurwitz block")
    return hbar


def _place_poles(A: np.ndarray, B: np.ndarray, poles) -> np.ndarray:
    """State-feedback gain K with eig(A - B K) at the real ``poles``.

    Replays ``scipy.signal.place_poles`` (scipy 1.17, Kautsky, Nichols &
    Van Dooren 1985) where its YT iteration has nothing to optimise:
    ``rank(B) == n`` (least squares) and ``rank(B) == 1``.  Each primitive
    runs on the same operands in the same order, so the gain is scipy's bit
    for bit; only the input checks that cannot fire here and the unused
    ``computed_poles`` eigendecomposition are left out.  For
    ``1 < rank(B) < n`` the call goes to scipy itself.  Raises
    ``ValueError`` where scipy does.
    """
    n = A.shape[0]
    poles = np.sort(np.asarray(poles, dtype=float))
    if len(poles) != n:
        raise ValueError(f"number of poles is {len(poles)} but you should provide {n}")
    rank = np.linalg.matrix_rank(B)
    if any(np.sum(p == poles) > rank for p in poles):
        raise ValueError(
            "at least one of the requested pole is repeated more than rank(B) times"
        )
    if 1 < rank < n:
        from scipy.signal import place_poles

        return place_poles(A, B, poles).gain_matrix
    u, z = qr(B, mode="full")
    if rank == n:
        gain = np.linalg.lstsq(B, np.diag(poles) - A, rcond=-1)[0]
        return np.real(-gain)
    u0, u1, z = u[:, :rank], u[:, rank:], z[:rank, :]
    columns = []
    for p in poles:
        # the pole's admissible eigenvector space, summed into one unit column
        pole_space = np.dot(u1.T, A - p * np.eye(n)).T
        q, _ = qr(pole_space, mode="full")
        column = np.sum(q[:, pole_space.shape[1]:], axis=1)[:, np.newaxis]
        columns.append(column / np.linalg.norm(column))
    transfer = np.hstack(columns).astype(complex)
    try:
        m = np.linalg.solve(transfer.T, np.dot(np.diag(poles), transfer.T)).T
        gain = np.linalg.solve(z, np.dot(u0.T, m - A))
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "The poles you've chosen can't be placed. Check the controllability "
            "matrix and try another set of poles"
        ) from exc
    return np.real(-gain)


def solve_weight(F: np.ndarray, gamma: float) -> np.ndarray:
    """Symmetric positive definite P with F'P + PF = -2*gamma*I."""
    if gamma <= 0:
        raise GainsError(f"gamma must be positive, got {gamma}")
    if spectral_abscissa(F) >= 0:
        raise GainsError("weight equation needs a Hurwitz matrix")
    n = F.shape[0]
    rhs = -2.0 * gamma * np.eye(n)
    P = solve_continuous_lyapunov(F.T, rhs)
    # one refinement pass keeps the residual near round-off even when the
    # solution norm is large
    residual = F.T @ P + P @ F - rhs
    P = P - solve_continuous_lyapunov(F.T, residual)
    P = 0.5 * (P + P.T)
    res_norm = float(np.linalg.norm(F.T @ P + P @ F - rhs))
    if res_norm > LYAPUNOV_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(rhs))):
        raise GainsError(f"weight residual {res_norm:.3e} exceeds tolerance")
    if np.min(np.linalg.eigvalsh(P)) <= 0:
        raise GainsError("weight matrix is not positive definite")
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

    def assemble_K(self, plant: BlockPlant) -> np.ndarray:
        K = np.zeros((plant.m * plant.N, plant.n * plant.N))
        for (i, j), blk in self.K_blocks.items():
            K[(i - 1) * plant.m : i * plant.m, (j - 1) * plant.n : j * plant.n] = blk
        return K

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
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for i in range(1, plant.N + 1):
        a = plant.A_blocks[(i, i)]
        b = plant.B_blocks[i]
        try:
            blocks[(i, i)] = -_place_poles(a, b, [float(p) for p in poles])
        except ValueError as exc:
            raise GainsError(f"pole placement failed for block {i}: {exc}") from exc
        for j in plant.coupling_sources(i):
            blocks[(i, j)] = np.array([[plant.A_blocks[(i, j)][1, 0], 0.0]])
    gains = ControllerGains(K_blocks=blocks)
    A, B, _ = assemble(plant)
    if spectral_abscissa(A + B @ gains.assemble_K(plant)) >= 0:
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


def _norm2(m: np.ndarray) -> float:
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


def _observer_gains(
    plant: BlockPlant, theta: float, poles
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Every agent's output-injection gain ``Hbar_i`` and scaled error
    dynamics ``Abar_i - Hbar_i Cbar_i``, one block scaling and one pole
    placement per agent."""
    poles = check_poles(poles, plant.n)
    hbar, closed = {}, {}
    for i in range(1, plant.N + 1):
        abar, cbar = transform_block(plant.A_blocks[(i, i)], plant.C_blocks[i], theta)
        hbar[i] = _place_scaled(abar, cbar, poles)
        closed[i] = abar - hbar[i] @ cbar
    return hbar, closed


def _spectral_constants(
    plant: BlockPlant,
    assignment: CoverAssignment,
    pair: NetworkPair,
    controller: ControllerGains,
    closed: dict[int, np.ndarray],
) -> dict[str, float]:
    lam_floor = _cover_spectrum_floor(assignment, pair)
    lam_A = max(
        float(np.linalg.norm(plant.A_blocks[(i, i)] + plant.A_blocks[(i, i)].T, 2))
        for i in range(1, plant.N + 1)
    )
    lam_P = 0.0
    for f in closed.values():
        lam_P = max(lam_P, float(np.linalg.norm(solve_weight(f, 1.0), 2)))
    lam_bar = max(
        len(assignment.sets_of(i))
        * max(len(assignment.set_by_id(p).members) for p in assignment.sets_of(i))
        for i in range(1, plant.N + 1)
    )
    rho = np.sqrt(2.0) * max(
        controller.row_norm(i) for i in range(1, plant.N + 1)
    )
    A, B, _ = assemble(plant)
    return {
        "lambda_min_cover": lam_floor,
        "lambda_A": lam_A,
        "lambda_P": lam_P,
        "lambda_bar": float(lam_bar),
        "rho": float(rho),
        "norm_A": _norm2(A),
        "norm_B": _norm2(B),
    }


def _bound_from_constants(c: dict[str, float], theta: float, n: int) -> float:
    drive = c["lambda_A"] + 2.0 * c["lambda_P"] * c["lambda_bar"] * (
        c["norm_A"] + c["rho"] * c["norm_B"]
    )
    return drive / (2.0 * theta ** (n - 1) * c["lambda_min_cover"])


def gamma_lower_bound(
    plant: BlockPlant,
    assignment: CoverAssignment,
    pair: NetworkPair,
    theta: float,
    controller: ControllerGains,
    poles=None,
) -> float:
    """Coupling-gain threshold, evaluated with unit-gain weight matrices."""
    n = plant.n
    poles = poles if poles is not None else [-(k + 1.0) for k in range(n)]
    _, closed = _observer_gains(plant, theta, poles)
    constants = _spectral_constants(plant, assignment, pair, controller, closed)
    return _bound_from_constants(constants, theta, n)


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
    n = plant.n
    pole_list = tuple(
        float(p) for p in (poles if poles is not None else [-(k + 1.0) for k in range(n)])
    )
    hbar, closed = _observer_gains(plant, theta, pole_list)
    constants = _spectral_constants(plant, assignment, pair, controller, closed)
    bound = _bound_from_constants(constants, theta, n)

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

    weights = {i: solve_weight(f, gamma_val) for i, f in closed.items()}

    return ObserverDesign(
        theta=float(theta),
        gamma=float(gamma_val),
        n=n,
        poles=pole_list,
        policy=policy,
        Hbar=hbar,
        P=weights,
        gamma_bound=bound,
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
    """Read a design file and check that it is for ``plant``: its order, finite
    scalars, and one finite n x p gain Hbar_i and n x n weight P_i per agent."""

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
            poles=tuple(float(p) for p in doc["poles"]),
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
