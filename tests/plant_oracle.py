"""Dense references for ``plant``: the block embedding and the structure checks.

The package assembles the plant as CSR straight from its blocks.  Here the
same matrices are written into dense arrays one block slice at a time, and
the rank checks that need them dense (per-block observability and the
compact controllability of ``(A, B)``) run on those arrays.  The checks'
Krylov matrix is ``dim x (m N dim)``, which is why they live in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coverobs.plant import BlockPlant, numerical_rank


def dense_assemble(plant: BlockPlant) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (A, B, C) with block (i, j) at rows of i, columns of j."""
    n, m, p, N = plant.n, plant.m, plant.p, plant.N
    A = np.zeros((n * N, n * N))
    B = np.zeros((n * N, m * N))
    C = np.zeros((p * N, n * N))
    for (i, j), blk in plant.A_blocks.items():
        A[(i - 1) * n : i * n, (j - 1) * n : j * n] = blk
    for i in range(1, N + 1):
        B[(i - 1) * n : i * n, (i - 1) * m : i * m] = plant.B_blocks[i]
        C[(i - 1) * p : i * p, (i - 1) * n : i * n] = plant.C_blocks[i]
    return A, B, C


@dataclass(frozen=True)
class StructureReport:
    observable_pairs: dict[int, bool]
    controllable: bool

    @property
    def ok(self) -> bool:
        return self.controllable and all(self.observable_pairs.values())


def check_structure(plant: BlockPlant) -> StructureReport:
    """Per-block observability and compact controllability by numerical rank."""
    observable = {}
    for i in range(1, plant.N + 1):
        a = plant.A_blocks[(i, i)]
        c = plant.C_blocks[i]
        rows = [c]
        for _ in range(plant.n - 1):
            rows.append(rows[-1] @ a)
        observable[i] = numerical_rank(np.vstack(rows)) == plant.n

    A, B, _ = dense_assemble(plant)
    # Krylov blocks renormalized each power; A^k B overflows for fast plants
    # long before k reaches the state dimension
    dim = plant.state_dim
    cur = B.copy()
    norm = np.linalg.norm(cur)
    blocks = []
    if norm > 0:
        cur /= norm
        blocks.append(cur)
        for _ in range(dim - 1):
            cur = A @ cur
            norm = np.linalg.norm(cur)
            if norm == 0:
                break
            cur = cur / norm
            blocks.append(cur)
    controllable = bool(blocks) and numerical_rank(np.hstack(blocks)) == dim
    return StructureReport(observable_pairs=observable, controllable=controllable)
