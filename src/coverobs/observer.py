"""Cover-based distributed observer bank.

Each agent runs one consensus observer per cover set it belongs to, holding
an estimate of every member's subsystem state.  Slot order is agent-major,
then set id ascending, then target ascending; all flat vectors in this
module follow it.  Estimates exchanged between agents are the raw per-set
values; fusion (the arithmetic mean over an agent's sets containing the
target) only feeds couplings and control laws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coverage import CoverAssignment
from .gains import ControllerGains, ObserverDesign
from .netgraph import NetworkPair
from .plant import BlockPlant


class ObserverError(ValueError):
    pass


@dataclass(frozen=True)
class BankLayout:
    """Slot bookkeeping for the stacked observer vector."""

    n: int
    slots: tuple[tuple[int, int, int], ...]  # (agent, set id, target)
    agent_span: dict[int, tuple[int, int]] = field(repr=False)

    @classmethod
    def build(cls, assignment: CoverAssignment, n: int) -> "BankLayout":
        slots = []
        span = {}
        for l in range(1, assignment.n + 1):
            start = len(slots)
            for p in assignment.sets_of(l):
                slots.extend((l, p, i) for i in assignment.set_by_id(p).members)
            span[l] = (start, len(slots))
        return cls(n=n, slots=tuple(slots), agent_span=span)

    @property
    def dim(self) -> int:
        return self.n * len(self.slots)


@dataclass(frozen=True)
class ObserverMatrices:
    """Linear realization of the bank plus the applied-control pipeline.

    xi' = A_obs xi + L_x x;  fused stack f = Phi xi;  applied input
    u = K_sel clamp(f).  Everything except the clamp is exactly linear, so
    these four matrices reproduce the per-slot law of
    ``tests/observer_oracle.py`` to round-off.
    """

    A_obs: np.ndarray
    L_x: np.ndarray
    Phi: np.ndarray
    K_sel: np.ndarray


def _dense_from_blocks(rows, cols, vals: np.ndarray, shape) -> np.ndarray:
    """The dense ``shape`` matrix with block ``vals[k]`` added at block row
    ``rows[k]`` and block column ``cols[k]``: one COO of all the blocks,
    summed into zeros entry by entry in the order the blocks come."""
    _, h, w = vals.shape
    r = rows[:, None, None] * h + np.arange(h)[:, None]
    c = cols[:, None, None] * w + np.arange(w)
    out = np.zeros(shape)
    np.add.at(out.reshape(-1), (r * shape[1] + c).ravel(), vals.ravel())
    return out


def _matches(keys: np.ndarray, want: np.ndarray):
    """Every slot whose key is ``want[k]``, for each k, in slot order.

    Returns ``(k repeated once per match, the matching slots, the match
    count of each k)``.
    """
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    lo = np.searchsorted(ranked, want)
    count = np.searchsorted(ranked, want, "right") - lo
    which = np.repeat(np.arange(len(want)), count)
    within = np.arange(len(which)) - np.repeat(np.cumsum(count) - count, count)
    return which, order[lo[which] + within], count


def build_observer_matrices(
    plant: BlockPlant,
    pair: NetworkPair,
    assignment: CoverAssignment,
    design: ObserverDesign,
    gains: ControllerGains,
    layout: BankLayout,
) -> ObserverMatrices:
    """The bank's four matrices, each one COO of its n x n blocks.

    A slot's row of ``A_obs`` sums, in this order: the plant's diagonal
    block on its own estimate; the fused couplings A_ij and inputs
    B_i K_ij, each divided over the sets fusion averages; the output
    injection (own slots); the consensus terms.  The blocks are listed by
    kind in that order, so where several land on one entry they are summed
    as the per-slot law of ``tests/observer_oracle.py`` sums them, and the
    matrices equal its loop-built ones bit for bit.
    """
    n, m, N = layout.n, plant.m, plant.N
    for l in range(1, assignment.n + 1):
        if not pair.phys_neighbors(l) <= assignment.covered(l):
            raise ObserverError(f"agent {l} lacks estimates of its neighbors")

    L, P, I = np.array(layout.slots, dtype=np.intp).reshape(-1, 3).T
    slot = np.arange(len(L))
    own = L == I
    # nbr[i, j]: j influences i; cov[l, j]: agent l estimates j (1-based)
    nbr = np.zeros((N + 1, N + 1), dtype=bool)
    for i in range(1, N + 1):
        nbr[i, list(pair.phys_neighbors(i))] = True
    cov = np.zeros_like(nbr)
    cov[L, I] = True

    def per_pair(i, j, block, shape) -> np.ndarray:
        """``block(i, j)`` for each pair, evaluated once per distinct pair."""
        keys, back = np.unique(i * (N + 1) + j, return_inverse=True)
        found = [block(int(k) // (N + 1), int(k) % (N + 1)) for k in keys]
        return np.array(found, dtype=float).reshape(-1, *shape)[back]

    def fused(holder, target, coeff):
        """Rows, columns and blocks adding ``coeff[k] / sets`` on each of
        agent ``holder[k]``'s estimates of ``target[k]``."""
        which, cols, count = _matches(L * (N + 1) + I, holder * (N + 1) + target)
        if not count.all():
            k = int(np.argmin(count))
            raise ObserverError(
                f"agent {holder[k]} tracks no cover set containing {target[k]}"
            )
        return which, cols, coeff[which] / count[which, None, None]

    def applied(i, j):
        return plant.B_blocks[i] @ gains.K_block(i, j, m, n)

    # fused couplings over agent l's estimates of i's neighbours; own slots
    # also fuse i's own input
    mask = cov[L] & nbr[I]
    a_slot, a_j = np.nonzero(mask)
    mask[slot[own], I[own]] = True
    k_slot, k_j = np.nonzero(mask)
    a_which, a_cols, a_vals = fused(L[a_slot], a_j, per_pair(I[a_slot], a_j, plant.A_block, (n, n)))
    k_which, k_cols, k_vals = fused(L[k_slot], k_j, per_pair(I[k_slot], k_j, applied, (n, n)))

    mine = slot[own]
    inject = per_pair(
        I[mine], I[mine],
        lambda i, _: design.injection_gain(i) @ plant.C_blocks[i], (n, n),
    )
    # consensus with every other holder of the same (set, target) that
    # agent l hears: the design's weight on own slots, the stiffness elsewhere
    src, dst, _ = _matches(P * (N + 1) + I, P * (N + 1) + I)
    talk = (L[src] != L[dst]) & pair.comm_adj[L[src] - 1, L[dst] - 1].astype(bool)
    src, dst = src[talk], dst[talk]
    weight = np.broadcast_to(design.stiff_scale * np.eye(n), (len(L), n, n)).copy()
    weight[mine] = per_pair(
        I[mine], I[mine], lambda i, _: design.consensus_weight(i), (n, n)
    )

    A_obs = _dense_from_blocks(
        np.concatenate([slot, a_slot[a_which], mine, k_slot[k_which], src, src]),
        np.concatenate([slot, a_cols, mine, k_cols, dst, src]),
        np.concatenate([
            per_pair(I, I, plant.A_block, (n, n)), a_vals, -inject, k_vals,
            weight[src], -weight[src],
        ]),
        (layout.dim, layout.dim),
    )
    L_x = _dense_from_blocks(mine, I[mine] - 1, inject, (layout.dim, plant.state_dim))

    # gain blocks (i, j): agent i's fused estimate of j, j = i or a neighbour
    gain = nbr.copy()
    gain[np.arange(1, N + 1), np.arange(1, N + 1)] = True
    g_i, g_j = np.nonzero(gain)
    eye = np.broadcast_to(np.eye(n), (len(g_i), n, n))
    p_which, p_cols, p_vals = fused(g_i, g_j, eye)
    Phi = _dense_from_blocks(p_which, p_cols, p_vals, (n * len(g_i), layout.dim))
    K_sel = _dense_from_blocks(
        g_i - 1, np.arange(len(g_i)),
        per_pair(g_i, g_j, lambda i, j: gains.K_block(i, j, m, n), (m, n)),
        (m * N, n * len(g_i)),
    )
    return ObserverMatrices(A_obs=A_obs, L_x=L_x, Phi=Phi, K_sel=K_sel)
