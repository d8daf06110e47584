"""Cover-based distributed observer bank.

Each agent runs one consensus observer per cover set it belongs to, holding
an estimate of every member's subsystem state.  Slot order is agent-major,
then set id ascending, then target ascending; all flat vectors in this
module follow it, and :class:`BankLayout` owns the slot arrays.  Estimates
exchanged between agents are the raw per-set values; fusion (the arithmetic
mean over an agent's sets containing the target) only feeds couplings and
control laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .coverage import CoverAssignment
from .gains import ControllerGains, ObserverDesign
from .netgraph import NetworkPair
from .plant import BlockPlant, stacked_csr


class ObserverError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class BankLayout:
    """Slot bookkeeping for the stacked observer vector: per slot, in slot
    order, its ``agent``, ``target`` and ``group``, the index of its (set
    id, target) group in order of first appearance."""

    n: int
    agent: np.ndarray
    target: np.ndarray
    group: np.ndarray

    @classmethod
    def build(cls, assignment: CoverAssignment, n: int) -> "BankLayout":
        slots = [
            (l, p, i)
            for l in range(1, assignment.n + 1)
            for p in assignment.sets_of(l)
            for i in assignment.set_by_id(p).members
        ]
        groups: dict[tuple[int, int], int] = {}
        group = [groups.setdefault((p, i), len(groups)) for _, p, i in slots]
        agent, _, target = np.array(slots, dtype=np.intp).reshape(-1, 3).T
        return cls(n, agent, target, np.array(group, dtype=np.intp))

    @property
    def dim(self) -> int:
        return self.n * len(self.agent)


def _dense_view(m: sparse.csr_matrix) -> np.ndarray:
    out = m.toarray()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ObserverMatrices:
    """Linear realization of the bank plus the applied-control pipeline, as
    canonical CSR with no stored zeros.

    xi' = A_obs xi + L_x x;  fused stack f = Phi xi;  applied input
    u = K_sel clamp(f).  Everything except the clamp is exactly linear, so
    these four matrices reproduce the per-slot law of
    ``tests/observer_oracle.py`` to round-off.  ``A_obs``, ``L_x``, ``Phi``
    and ``K_sel`` are read-only dense copies made on each access, for
    callers that read dense arrays; the package itself reads the CSR.
    """

    A_obs_csr: sparse.csr_matrix
    L_x_csr: sparse.csr_matrix
    Phi_csr: sparse.csr_matrix
    K_sel_csr: sparse.csr_matrix

    A_obs = property(lambda self: _dense_view(self.A_obs_csr))
    L_x = property(lambda self: _dense_view(self.L_x_csr))
    Phi = property(lambda self: _dense_view(self.Phi_csr))
    K_sel = property(lambda self: _dense_view(self.K_sel_csr))


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
    """The bank's four matrices, each built by ``plant.stacked_csr`` from
    the stack of its blocks.

    A slot's row of ``A_obs`` sums, in this order: the plant's diagonal
    block on its own estimate; the fused couplings A_ij and inputs
    B_i K_ij, each divided over the sets fusion averages; the output
    injection (own slots); the consensus terms.  The blocks are listed by
    kind in that order, so where several land on one entry they are summed
    as the per-slot law of ``tests/observer_oracle.py`` sums them, and the
    matrices equal its loop-built dense ones bit for bit.
    """
    n, m, N = layout.n, plant.m, plant.N
    L, I = layout.agent, layout.target
    slot = np.arange(len(L))
    own = L == I
    # nbr[i, j]: j influences i; hears[l, k]: l and k share a communication
    # link; cov[l, j]: agent l estimates j (1-based)
    nbr = np.zeros((N + 1, N + 1), dtype=bool)
    s, d = np.array(pair.phys_edges, dtype=np.intp).reshape(-1, 2).T
    nbr[d, s] = True
    hears = np.zeros_like(nbr)
    a, b = np.array(pair.comm_edges, dtype=np.intp).reshape(-1, 2).T
    hears[a, b] = hears[b, a] = True
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
    src, dst, _ = _matches(layout.group, layout.group)
    talk = hears[L[src], L[dst]]  # no self-loops: never an agent with itself
    src, dst = src[talk], dst[talk]
    weight = np.broadcast_to(design.stiff_scale * np.eye(n), (len(L), n, n)).copy()
    weight[mine] = per_pair(
        I[mine], I[mine], lambda i, _: design.consensus_weight(i), (n, n)
    )

    A_obs = stacked_csr(
        np.concatenate([slot, a_slot[a_which], mine, k_slot[k_which], src, src]),
        np.concatenate([slot, a_cols, mine, k_cols, dst, src]),
        np.concatenate([
            per_pair(I, I, plant.A_block, (n, n)), a_vals, -inject, k_vals,
            weight[src], -weight[src],
        ]),
        (layout.dim, layout.dim),
    )
    L_x = stacked_csr(mine, I[mine] - 1, inject, (layout.dim, plant.state_dim))

    # gain blocks (i, j): agent i's fused estimate of j, j = i or a neighbour
    gain = nbr.copy()
    gain[np.arange(1, N + 1), np.arange(1, N + 1)] = True
    g_i, g_j = np.nonzero(gain)
    eye = np.broadcast_to(np.eye(n), (len(g_i), n, n))
    p_which, p_cols, p_vals = fused(g_i, g_j, eye)
    Phi = stacked_csr(p_which, p_cols, p_vals, (n * len(g_i), layout.dim))
    K_sel = stacked_csr(
        g_i - 1, np.arange(len(g_i)),
        per_pair(g_i, g_j, lambda i, j: gains.K_block(i, j, m, n), (m, n)),
        (m * N, n * len(g_i)),
    )
    return ObserverMatrices(A_obs, L_x, Phi, K_sel)
