"""Per-agent reference for the stacked observer synthesis in ``gains``.

This is the observer design written agent by agent: scale one block, check
its observability, place its poles with ``scipy.signal.place_poles``, check
the closed block is Hurwitz, and solve its weight equation.  The package
runs the same steps on stacked ``(N, n, n)`` arrays; the tests check that
its gains, weights and constants equal these bit for bit.
:func:`design_observer_gain` is the package's own placement for one block,
which only the tests call.
"""

from __future__ import annotations

import numpy as np
import scipy.signal
from scipy.linalg import solve_continuous_lyapunov

from coverobs import gains
from coverobs.coverage import CoverAssignment
from coverobs.gains import GainsError, LYAPUNOV_RESIDUAL_TOL, ControllerGains
from coverobs.netgraph import NetworkPair
from coverobs.plant import BlockPlant, numerical_rank

from plant_oracle import dense_assemble


def spectral_abscissa(m: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(m).real))


def transform_block(a: np.ndarray, c: np.ndarray, theta: float):
    """(G A G^-1 / theta^(n-1), C G^-1) with G = diag(theta^{n-1}, ..., 1)."""
    n = a.shape[0]
    g = np.diag([theta ** (n - 1 - k) for k in range(n)])
    g_inv = np.diag(1.0 / np.diag(g))
    return g @ a @ g_inv / theta ** (n - 1), c @ g_inv


def design_observer_gain(A_ii: np.ndarray, C_i: np.ndarray, theta: float, poles):
    """The package's output-injection gain for one block, or each of a
    stack: its pole checks, its scaling and its in-house placement, as
    ``synthesize`` runs them on all agents at once."""
    poles = gains.check_poles(poles, A_ii.shape[-1])
    return gains._place_scaled(*gains.transform_block(A_ii, C_i, theta), poles)[0]


def observer_block(a: np.ndarray, c: np.ndarray, theta: float, poles):
    """One agent's ``(Hbar_i, Abar_i - Hbar_i Cbar_i)``, placed by scipy."""
    abar, cbar = transform_block(a, c, theta)
    n = abar.shape[0]
    obs = np.vstack([cbar @ np.linalg.matrix_power(abar, k) for k in range(n)])
    if numerical_rank(obs) < n:
        raise GainsError("block is not observable; cannot place poles")
    hbar = scipy.signal.place_poles(abar.T, cbar.T, poles).gain_matrix.T
    closed = abar - hbar @ cbar
    if spectral_abscissa(closed) >= 0:
        raise GainsError("placement failed to produce a Hurwitz block")
    return hbar, closed


def solve_weight(F: np.ndarray, gamma: float) -> np.ndarray:
    """Symmetric positive definite P with F'P + PF = -2*gamma*I, refined once."""
    if spectral_abscissa(F) >= 0:
        raise GainsError("weight equation needs a Hurwitz matrix")
    rhs = -2.0 * gamma * np.eye(F.shape[0])
    P = solve_continuous_lyapunov(F.T, rhs)
    residual = F.T @ P + P @ F - rhs
    P = P - solve_continuous_lyapunov(F.T, residual)
    P = 0.5 * (P + P.T)
    res_norm = float(np.linalg.norm(F.T @ P + P @ F - rhs))
    if res_norm > LYAPUNOV_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(rhs))):
        raise GainsError(f"weight residual {res_norm:.3e} exceeds tolerance")
    if np.min(np.linalg.eigvalsh(P)) <= 0:
        raise GainsError("weight matrix is not positive definite")
    return P


def synthesize(
    plant: BlockPlant,
    assignment: CoverAssignment,
    pair: NetworkPair,
    theta: float,
    controller: ControllerGains,
    poles,
) -> tuple[dict, dict, dict[str, float]]:
    """``Hbar``, ``P`` and the constants of the "auto" policy's design, one
    agent at a time; the cover floor and the two ARPACK norms come from the
    package, which computes them once for the whole plant, and the bound is
    the paper's formula written out again."""
    agents = range(1, plant.N + 1)
    hbar, closed = {}, {}
    for i in agents:
        hbar[i], closed[i] = observer_block(
            plant.A_blocks[(i, i)], plant.C_blocks[i], theta, poles
        )
    lam_P = 0.0
    for f in closed.values():
        lam_P = max(lam_P, float(np.linalg.norm(solve_weight(f, 1.0), 2)))
    A, B, _ = dense_assemble(plant)
    constants = {
        "lambda_min_cover": gains._cover_spectrum_floor(assignment, pair),
        "lambda_A": max(
            float(np.linalg.norm(plant.A_blocks[(i, i)] + plant.A_blocks[(i, i)].T, 2))
            for i in agents
        ),
        "lambda_P": lam_P,
        "lambda_bar": float(max(
            len(assignment.sets_of(i))
            * max(len(assignment.set_by_id(p).members) for p in assignment.sets_of(i))
            for i in agents
        )),
        "rho": float(np.sqrt(2.0) * max(controller.row_norm(i) for i in agents)),
        "norm_A": gains._norm2(A),
        "norm_B": gains._norm2(B),
    }
    c = constants
    drive = c["lambda_A"] + 2.0 * c["lambda_P"] * c["lambda_bar"] * (
        c["norm_A"] + c["rho"] * c["norm_B"]
    )
    bound = drive / (2.0 * theta ** (plant.n - 1) * c["lambda_min_cover"])
    constants["gamma_bound"] = bound
    weights = {i: solve_weight(f, 1.1 * bound) for i, f in closed.items()}
    return hbar, weights, constants
