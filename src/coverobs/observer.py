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
    index: dict[tuple[int, int, int], int] = field(repr=False)
    agent_span: dict[int, tuple[int, int]] = field(repr=False)

    @classmethod
    def build(cls, assignment: CoverAssignment, n: int) -> "BankLayout":
        slots = []
        index = {}
        span = {}
        for l in range(1, assignment.n + 1):
            start = len(slots)
            for p in assignment.sets_of(l):
                for i in assignment.set_by_id(p).members:
                    index[(l, p, i)] = len(slots)
                    slots.append((l, p, i))
            span[l] = (start, len(slots))
        return cls(n=n, slots=tuple(slots), index=index, agent_span=span)

    @property
    def dim(self) -> int:
        return self.n * len(self.slots)

    def offset(self, l: int, p: int, i: int) -> int:
        key = (l, p, i)
        if key not in self.index:
            raise ObserverError(f"agent {l} holds no estimate of {i} in set {p}")
        return self.n * self.index[key]

    def tracking_sets(self, assignment: CoverAssignment, l: int, j: int) -> tuple[int, ...]:
        """Agent l's cover sets containing j, whose estimates fusion averages."""
        sets = tuple(
            p
            for p in assignment.sets_of(l)
            if j in assignment.set_by_id(p).members
        )
        if not sets:
            raise ObserverError(f"agent {l} tracks no cover set containing {j}")
        return sets


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


def build_observer_matrices(
    plant: BlockPlant,
    pair: NetworkPair,
    assignment: CoverAssignment,
    design: ObserverDesign,
    gains: ControllerGains,
    layout: BankLayout,
) -> ObserverMatrices:
    n = layout.n
    dim = layout.dim
    nN = plant.state_dim
    A_obs = np.zeros((dim, dim))
    L_x = np.zeros((dim, nN))
    stiff = design.stiff_scale

    for l in range(1, assignment.n + 1):
        if not pair.phys_neighbors(l) <= assignment.covered(l):
            raise ObserverError(f"agent {l} lacks estimates of its neighbors")

    def add_fused(rows: slice, coeff: np.ndarray, l: int, j: int) -> None:
        sets = layout.tracking_sets(assignment, l, j)
        w = coeff / len(sets)
        for p in sets:
            k = layout.offset(l, p, j)
            A_obs[rows, k : k + n] += w

    for slot_no, (l, p, i) in enumerate(layout.slots):
        rows = slice(slot_no * n, (slot_no + 1) * n)
        members = assignment.set_by_id(p).members
        k_self = layout.offset(l, p, i)
        A_obs[rows, k_self : k_self + n] += plant.A_blocks[(i, i)]
        if l == i:
            for j in sorted(pair.phys_neighbors(i)):
                add_fused(rows, plant.A_block(i, j), i, j)
            g = design.injection_gain(i)
            L_x[rows, (i - 1) * n : i * n] += g @ plant.C_blocks[i]
            A_obs[rows, k_self : k_self + n] -= g @ plant.C_blocks[i]
            b = plant.B_blocks[i]
            for j in sorted(pair.phys_neighbors(i) | {i}):
                add_fused(rows, b @ gains.K_block(i, j, plant.m, plant.n), i, j)
            w = design.consensus_weight(i)
            for j in members:
                if j != l and pair.comm_adj[l - 1, j - 1]:
                    kj = layout.offset(j, p, i)
                    A_obs[rows, kj : kj + n] += w
                    A_obs[rows, k_self : k_self + n] -= w
        else:
            for j in sorted(assignment.covered(l) & pair.phys_neighbors(i)):
                add_fused(rows, plant.A_block(i, j), l, j)
            b = plant.B_blocks[i]
            for j in sorted(assignment.covered(l) & pair.phys_neighbors(i)):
                add_fused(rows, b @ gains.K_block(i, j, plant.m, plant.n), l, j)
            eye = stiff * np.eye(n)
            for j in members:
                if j != l and pair.comm_adj[l - 1, j - 1]:
                    kj = layout.offset(j, p, i)
                    A_obs[rows, kj : kj + n] += eye
                    A_obs[rows, k_self : k_self + n] -= eye

    gain_blocks = []
    for i in range(1, plant.N + 1):
        for j in sorted(pair.phys_neighbors(i) | {i}):
            gain_blocks.append((i, j))
    Phi = np.zeros((n * len(gain_blocks), dim))
    K_sel = np.zeros((plant.m * plant.N, n * len(gain_blocks)))
    for row_no, (i, j) in enumerate(gain_blocks):
        sets = layout.tracking_sets(assignment, i, j)
        rows = slice(row_no * n, (row_no + 1) * n)
        for p in sets:
            k = layout.offset(i, p, j)
            Phi[rows, k : k + n] += np.eye(n) / len(sets)
        K_sel[(i - 1) * plant.m : i * plant.m, rows] = gains.K_block(
            i, j, plant.m, plant.n
        )
    return ObserverMatrices(A_obs=A_obs, L_x=L_x, Phi=Phi, K_sel=K_sel)

