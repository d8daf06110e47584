"""Per-step reference for ``simloop.run_distributed``.

This is the distributed loop as it was before block stepping: one clamp
check, one step and one group-identity check per integration step, and one
``observe`` per recorded point, all on dense operators.  The tests compare
the block-stepped loop against it.

Its chain of products with the formed R drifts from the exact RK4 map by
round-off (4.9e-13 relative after 6000 steps at N=47), so linear runs are
also checked against :func:`longdouble_rk4_records`, that map evaluated in
longdouble.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import sparse

from coverobs.coverage import CoverAssignment
from coverobs.gains import ControllerGains, ObserverDesign
from coverobs.netgraph import NetworkPair
from coverobs.observer import BankLayout, build_observer_matrices
from coverobs.plant import BlockPlant
from coverobs.simloop import (
    BLOWUP_NORM,
    CLAMP_MARGIN,
    SimConfig,
    SimError,
    SimResult,
    _grid,
    performance_index,
    suggest_step,
)

from plant_oracle import dense_assemble


def _dense_rk4_operator(M: np.ndarray, h: float) -> np.ndarray:
    hm = h * M
    eye = np.eye(M.shape[0])
    acc = eye + hm / 4.0
    for k in (3.0, 2.0):
        acc = eye + hm @ acc / k
    return eye + hm @ acc


def longdouble_rk4_records(M, h: float, z0: np.ndarray, stride: int, n_rec: int):
    """The records ``R^(k stride) z0``, k = 0..n_rec-1, of z' = Mz, where R
    is the exact RK4 map, the degree-4 Taylor polynomial of exp(hM).

    R is applied by Horner's rule, z + hM (z + hM/2 (z + hM/3 (z + hM/4 z))),
    in longdouble with M kept sparse, so a step costs four sparse products
    and, where longdouble is x86's 80-bit format, rounds 2^11 times finer
    than in double.
    """
    hm = np.longdouble(h) * sparse.csr_matrix(M, dtype=np.longdouble)
    ops = [hm / np.longdouble(k) for k in (4, 3, 2)] + [hm]
    z = np.asarray(z0, dtype=np.longdouble)
    Z = np.empty((n_rec, len(z)), dtype=np.longdouble)
    Z[0] = z
    for rec in range(1, n_rec):
        for _ in range(stride):
            v = z
            for op in ops:
                v = z + op @ v
            z = v
        Z[rec] = z
    return Z


def reference_run_distributed(
    plant: BlockPlant,
    assignment: CoverAssignment,
    pair: NetworkPair,
    design: ObserverDesign,
    gains: ControllerGains,
    config: SimConfig,
) -> SimResult:
    if design.gamma <= design.gamma_bound and not config.force:
        raise SimError(
            f"gamma {design.gamma:.6g} does not exceed the threshold "
            f"{design.gamma_bound:.6g}; pass force=True to run anyway"
        )

    A, B, C = dense_assemble(plant)
    K = gains.assemble_K(plant).toarray()
    layout = BankLayout.build(assignment, plant.n)
    mats = build_observer_matrices(plant, pair, assignment, design, gains, layout)

    nN = plant.state_dim
    dim = nN + layout.dim
    M0 = np.zeros((dim, dim))
    M0[:nN, :nN] = A
    M0[nN:, :nN] = mats.L_x
    M0[nN:, nN:] = mats.A_obs
    BK = np.zeros((dim, mats.K_sel.shape[1]))
    BK[:nN] = B @ mats.K_sel
    Phi_z = np.hstack([np.zeros((mats.Phi.shape[0], nN)), mats.Phi])
    M_lin = M0 + BK @ Phi_z

    x0 = config.resolve_x0(nN)
    level = config.resolve_sat(x0)
    z = np.concatenate([x0, np.full(layout.dim, float(config.observer_init))])

    h, steps, stride, n_rec = _grid(
        config.horizon,
        config.step
        if config.step is not None
        else suggest_step(M_lin, config.horizon),
        config.record_points,
    )
    R = _dense_rk4_operator(M_lin, h)

    # index plumbing for the per-step error groupings
    n = plant.n
    slot_targets = np.array([i for (_, _, i) in layout.slots])
    gather = (
        np.repeat((slot_targets - 1) * n, n)
        + np.tile(np.arange(n), len(layout.slots))
    )
    order = sorted(range(len(layout.slots)), key=lambda k: (layout.slots[k][1], layout.slots[k][2]))
    perm = np.concatenate([np.arange(k * n, (k + 1) * n) for k in order])
    group_sizes = {}
    for k in order:
        _, p, i = layout.slots[k]
        group_sizes[(p, i)] = group_sizes.get((p, i), 0) + n
    bounds = np.cumsum([0] + list(group_sizes.values()))[:-1]
    agent_bounds = np.array(
        [layout.agent_span[l][0] * n for l in range(1, assignment.n + 1)]
    )

    t = np.linspace(0.0, config.horizon, n_rec)
    xs = np.empty((n_rec, nN))
    err_norm = np.empty(n_rec)
    err_agent = np.empty((n_rec, assignment.n))
    sat_flags = np.zeros(n_rec, dtype=bool)
    sat_steps = 0
    ident_max = 0.0
    mismatch = 0.0

    def observe(rec: int) -> None:
        nonlocal mismatch
        xs[rec] = z[:nN]
        sq = (z[nN:] - z[:nN][gather]) ** 2
        err_norm[rec] = np.sqrt(np.sum(sq))
        err_agent[rec] = np.sqrt(
            np.add.reduceat(sq, agent_bounds) if len(agent_bounds) else sq
        )
        fused = Phi_z @ z
        sat_flags[rec] = bool(np.max(np.abs(fused)) > level)
        u_bar = mats.K_sel @ np.clip(fused, -level, level)
        mismatch = max(mismatch, float(np.linalg.norm(u_bar - K @ z[:nN])))

    def check_identity(sq: np.ndarray) -> None:
        nonlocal ident_max
        flat = float(np.sum(sq))
        grouped = float(np.sum(np.add.reduceat(sq[perm], bounds)))
        if flat > 0.0:
            ident_max = max(ident_max, abs(grouped - flat) / flat)

    def rhs(v: np.ndarray) -> np.ndarray:
        return M0 @ v + BK @ np.clip(Phi_z @ v, -level, level)

    observe(0)
    check_identity((z[nN:] - z[:nN][gather]) ** 2)
    band = CLAMP_MARGIN * level
    for rec in range(1, n_rec):
        for _ in range(stride):
            fused = Phi_z @ z
            if np.max(np.abs(fused)) <= band:
                z = R @ z
            else:
                sat_steps += 1
                k1 = rhs(z)
                k2 = rhs(z + 0.5 * h * k1)
                k3 = rhs(z + 0.5 * h * k2)
                k4 = rhs(z + h * k3)
                z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            check_identity((z[nN:] - z[:nN][gather]) ** 2)
        if not np.all(np.isfinite(z)) or np.linalg.norm(z) > BLOWUP_NORM:
            raise SimError(
                f"distributed run diverged by step {rec * stride} "
                f"(t={t[rec]:.4g}): gamma={design.gamma:.4g} vs "
                f"threshold {design.gamma_bound:.4g}, h={h:.3g} vs "
                f"suggested {suggest_step(M_lin, config.horizon):.3g}"
            )
        observe(rec)

    norms = np.linalg.norm(xs, axis=1)
    tail = t >= 0.9 * config.horizon
    result = SimResult(
        t=t,
        x=xs,
        err_norm=err_norm,
        err_by_agent=err_agent,
        I_x=0.0,
        steady_state_error=float(np.max(norms[tail])),
        sat_flags=sat_flags,
        sat_steps=sat_steps,
        group_identity_max_rel=ident_max,
        max_input_mismatch=mismatch,
        h=h,
        steps=steps,
    )
    return dataclasses.replace(result, I_x=performance_index(result))
