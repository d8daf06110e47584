"""Per-slot reference for ``observer.build_observer_matrices``.

This is the observer bank written loop by loop, one estimate at a time:
fusion, the three control laws, the stacked derivative and the error
groupings.  The package realizes the same law as one linear operator; the
tests check that operator against these functions, and against
:func:`loop_observer_matrices`, the same matrices built block by block in
the per-slot order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import sparse

from coverobs import observer
from coverobs.coverage import CoverAssignment
from coverobs.gains import ControllerGains, ObserverDesign
from coverobs.netgraph import NetworkPair
from coverobs.observer import ObserverError
from coverobs.plant import BlockPlant

from cover_oracle import dense_adjacency


@dataclass(frozen=True, eq=False)
class BankLayout(observer.BankLayout):
    """The package layout plus the assignment it was built from, and slot
    lookups by (agent, set id, target)."""

    assignment: CoverAssignment | None = None

    @classmethod
    def build(cls, assignment: CoverAssignment, n: int) -> "BankLayout":
        return replace(super().build(assignment, n), assignment=assignment)

    @cached_property
    def slots(self) -> tuple[tuple[int, int, int], ...]:
        """The (agent, set id, target) of each slot, in slot order, read
        from the assignment: agent-major, then set id, then target."""
        a = self.assignment
        return tuple(
            (l, p, i)
            for l in range(1, a.n + 1)
            for p in a.sets_of(l)
            for i in a.set_by_id(p).members
        )

    @cached_property
    def index(self) -> dict[tuple[int, int, int], int]:
        return {slot: k for k, slot in enumerate(self.slots)}

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

    def estimate(self, xi: np.ndarray, l: int, p: int, i: int) -> np.ndarray:
        k = self.offset(l, p, i)
        return xi[k : k + self.n]


def saturate(v: np.ndarray, level: float) -> np.ndarray:
    """Componentwise clamp to [-level, level]."""
    if level <= 0:
        raise ObserverError("saturation level must be positive")
    return np.clip(v, -level, level)


def fuse(
    layout: BankLayout, assignment: CoverAssignment, xi: np.ndarray, l: int, j: int
) -> np.ndarray:
    """Arithmetic mean of agent l's per-set estimates of subsystem j."""
    sets = layout.tracking_sets(assignment, l, j)
    acc = np.zeros(layout.n)
    for p in sets:
        acc += layout.estimate(xi, l, p, j)
    return acc / len(sets)


@dataclass
class ObserverBank:
    """Convenience wrapper pairing a layout with one stacked state vector."""

    layout: BankLayout
    assignment: CoverAssignment
    xi: np.ndarray

    @classmethod
    def constant(
        cls, layout: BankLayout, assignment: CoverAssignment, value: float = 2.0
    ) -> "ObserverBank":
        return cls(layout, assignment, np.full(layout.dim, float(value)))

    def estimate(self, l: int, p: int, i: int) -> np.ndarray:
        return self.layout.estimate(self.xi, l, p, i)

    def fused(self, l: int, j: int) -> np.ndarray:
        return fuse(self.layout, self.assignment, self.xi, l, j)


# ------------------------------------------------------------ control laws

def control_self(
    plant: BlockPlant,
    gains: ControllerGains,
    layout: BankLayout,
    assignment: CoverAssignment,
    pair: NetworkPair,
    xi: np.ndarray,
    i: int,
) -> np.ndarray:
    """Agent i's reconstruction of its own input from fused estimates."""
    acc = np.zeros(plant.m)
    for j in sorted(pair.phys_neighbors(i) | {i}):
        k = gains.K_block(i, j, plant.m, plant.n)
        acc += k @ fuse(layout, assignment, xi, i, j)
    return acc


def control_cross(
    plant: BlockPlant,
    gains: ControllerGains,
    layout: BankLayout,
    assignment: CoverAssignment,
    pair: NetworkPair,
    xi: np.ndarray,
    l: int,
    i: int,
) -> np.ndarray:
    """Agent l's truncated reconstruction of agent i's input.

    The sum runs over the estimates agent l actually holds among i's
    neighbors; the self term K_ii is deliberately absent.
    """
    acc = np.zeros(plant.m)
    for j in sorted(assignment.covered(l) & pair.phys_neighbors(i)):
        k = gains.K_block(i, j, plant.m, plant.n)
        acc += k @ fuse(layout, assignment, xi, l, j)
    return acc


def control_applied(
    plant: BlockPlant,
    gains: ControllerGains,
    layout: BankLayout,
    assignment: CoverAssignment,
    pair: NetworkPair,
    xi: np.ndarray,
    i: int,
    level: float,
) -> np.ndarray:
    """The input actually driving subsystem i: fused estimates, clamped."""
    acc = np.zeros(plant.m)
    for j in sorted(pair.phys_neighbors(i) | {i}):
        k = gains.K_block(i, j, plant.m, plant.n)
        acc += k @ saturate(fuse(layout, assignment, xi, i, j), level)
    return acc


# ------------------------------------------------------- reference dynamics

def observer_rhs(
    plant: BlockPlant,
    pair: NetworkPair,
    assignment: CoverAssignment,
    design: ObserverDesign,
    gains: ControllerGains,
    layout: BankLayout,
    xi: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Stacked derivative of every per-set estimate.

    Self estimates get output injection plus weighted consensus; estimates of
    other members get the truncated input reconstruction plus raw consensus.
    Consensus reads only communication neighbors inside the same set.
    """
    n = layout.n
    dxi = np.zeros_like(xi)
    stiff = design.stiff_scale
    comm = dense_adjacency(pair)[1]
    for l in range(1, assignment.n + 1):
        if not pair.phys_neighbors(l) <= assignment.covered(l):
            raise ObserverError(f"agent {l} lacks estimates of its neighbors")
    for slot_no, (l, p, i) in enumerate(layout.slots):
        members = assignment.set_by_id(p).members
        est = layout.estimate(xi, l, p, i)
        d = plant.A_blocks[(i, i)] @ est
        if l == i:
            for j in sorted(pair.phys_neighbors(i)):
                d += plant.A_block(i, j) @ fuse(layout, assignment, xi, i, j)
            resid = y[(i - 1) * plant.p : i * plant.p] - plant.C_blocks[i] @ est
            d += design.injection_gain(i) @ resid
            d += plant.B_blocks[i] @ control_self(
                plant, gains, layout, assignment, pair, xi, i
            )
            acc = np.zeros(n)
            for j in members:
                if j != l and comm[l - 1, j - 1]:
                    acc += layout.estimate(xi, j, p, i) - est
            d += design.consensus_weight(i) @ acc
        else:
            for j in sorted(assignment.covered(l) & pair.phys_neighbors(i)):
                d += plant.A_block(i, j) @ fuse(layout, assignment, xi, l, j)
            d += plant.B_blocks[i] @ control_cross(
                plant, gains, layout, assignment, pair, xi, l, i
            )
            acc = np.zeros(n)
            for j in members:
                if j != l and comm[l - 1, j - 1]:
                    acc += layout.estimate(xi, j, p, i) - est
            d += stiff * acc
        dxi[slot_no * n : (slot_no + 1) * n] = d
    return dxi


# ---------------------------------------------------------- error grouping

def error_groupings(
    layout: BankLayout, xi: np.ndarray, x: np.ndarray
) -> dict:
    """Estimate-minus-truth errors under both stackings.

    Grouping by estimating agent and grouping by (set, target) enumerate the
    same scalars, so their sums of squares agree to round-off; both are
    returned along with the flat norm.
    """
    n = layout.n
    by_agent: dict[int, list[np.ndarray]] = {}
    by_target: dict[tuple[int, int], list[np.ndarray]] = {}
    flat_sq = 0.0
    for slot_no, (l, p, i) in enumerate(layout.slots):
        err = xi[slot_no * n : (slot_no + 1) * n] - x[(i - 1) * n : i * n]
        by_agent.setdefault(l, []).append(err)
        by_target.setdefault((p, i), []).append(err)
        flat_sq += float(err @ err)
    e_by_agent = {l: np.concatenate(v) for l, v in by_agent.items()}
    e_star_by_target = {k: np.concatenate(v) for k, v in by_target.items()}
    return {
        "e_by_agent": e_by_agent,
        "e_star_by_target": e_star_by_target,
        "total": float(np.sqrt(flat_sq)),
        "sumsq_by_agent": float(
            sum(float(v @ v) for v in e_by_agent.values())
        ),
        "sumsq_by_target": float(
            sum(float(v @ v) for v in e_star_by_target.values())
        ),
    }


def group_matrix(layout: BankLayout) -> np.ndarray:
    """The dim x groups 0/1 matrix whose column g sums the observer entries
    of the g-th (set, target) group, groups in order of first appearance:
    ``sq @ group_matrix(layout)`` is the group-by-group sum of ``sq``."""
    groups: dict[tuple[int, int], int] = {}
    for _, p, i in layout.slots:
        groups.setdefault((p, i), len(groups))
    out = np.zeros((layout.dim, len(groups)))
    for slot_no, (_, p, i) in enumerate(layout.slots):
        out[slot_no * layout.n : (slot_no + 1) * layout.n, groups[(p, i)]] = 1.0
    return out


# ------------------------------------------------------------ matrix form

def loop_observer_matrices(
    plant: BlockPlant,
    pair: NetworkPair,
    assignment: CoverAssignment,
    design: ObserverDesign,
    gains: ControllerGains,
    layout: BankLayout,
) -> observer.ObserverMatrices:
    """The bank's matrices added up slot by slot, block by block, in the
    order of the per-slot law, then stored as ``sparse.csr_matrix`` makes
    them; the package builds them from the stack of the same blocks and must
    match this bit for bit, in the dense values and in the CSR arrays."""
    n = layout.n
    dim = layout.dim
    nN = plant.state_dim
    A_obs = np.zeros((dim, dim))
    L_x = np.zeros((dim, nN))
    stiff = design.stiff_scale
    comm = dense_adjacency(pair)[1]

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
                if j != l and comm[l - 1, j - 1]:
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
                if j != l and comm[l - 1, j - 1]:
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
    return observer.ObserverMatrices(*map(sparse.csr_matrix, (A_obs, L_x, Phi, K_sel)))
