"""Block-sparse LTI plant models.

A plant is a collection of N subsystems of common state order n, coupled
through the physical graph: the (i, j) coupling block may be nonzero only
when j influences i.  The module assembles the compact dense matrices,
generates the inverter-network benchmark family, and runs structural rank
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .artifact import FilePath, read_json, write_json
from .netgraph import NetworkPair

MICROGRID_TAU_RANGE = (0.012, 0.018)
MICROGRID_GAIN_RANGE = (1e-15, 1e-14)
MICROGRID_VOLTAGE = 110.0
# Operators with more entries than this are stored CSR when at most a
# quarter of their entries are nonzero, and dense otherwise.  Measured with
# single-threaded OpenBLAS 0.3.31 and scipy 1.17: up to about 300 states a
# dense matvec is faster at any fill (a CSR product costs ~4 us per call),
# and beyond that CSR wins below roughly 25 % fill (900 states at 8 % fill:
# 46 us against 280 us).  An RK4 step of a CSR operator is four such
# products (simloop._Stages), against one dense product with R, so for
# stepping this crossover does not hold: the stages lose to a dense R up
# to about 480 states (microgrid networks of up to about 22 agents) and
# above that at more than 5 % fill.  simloop.STAGE_MIN_ENTRIES therefore
# forms a dense R for such CSR operators; this rule also picks ARPACK for
# the step pick and the gain bound's norms, and stays at 300 states.
SPARSE_MIN_ENTRIES = 300 * 300


class PlantError(ValueError):
    pass


def stored(m):
    """``m`` as CSR if it is large and at most a quarter full, else dense.

    The one storage rule for assembled operators: the simulator's step
    operators and the gain bound's matrix norms both follow it.
    """
    size = m.shape[0] * m.shape[1]
    nnz = m.nnz if sparse.issparse(m) else np.count_nonzero(m)
    if size > SPARSE_MIN_ENTRIES and 4 * nnz <= size:
        return sparse.csr_matrix(m)
    return m.toarray() if sparse.issparse(m) else m


def arpack_start(n: int) -> np.ndarray:
    """The ARPACK start vector for operators that :func:`stored` keeps CSR.

    It is fixed, so every call gives the same bits.  It is not the ones
    vector: operators whose rows sum to zero (diffusive coupling) map that
    to exactly zero, which ARPACK rejects.
    """
    return np.random.default_rng(0).uniform(0.5, 1.5, n)


def finite_block(value, rows: int, cols: int, label: str) -> np.ndarray:
    """``value`` as a read-only finite ``rows x cols`` float matrix."""
    m = np.asarray(value, dtype=float)
    if m.shape != (rows, cols):
        raise PlantError(f"{label} has shape {m.shape}, expected {(rows, cols)}")
    if not np.isfinite(m).all():
        raise PlantError(f"{label} has entries that are not finite")
    out = m.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BlockPlant:
    """Immutable block decomposition of x' = Ax + Bu, y = Cx."""

    N: int
    n: int
    m: int
    p: int
    A_blocks: dict[tuple[int, int], np.ndarray]
    B_blocks: dict[int, np.ndarray]
    C_blocks: dict[int, np.ndarray]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.N < 1 or self.n < 1 or self.m < 1 or self.p < 1:
            raise PlantError("N, n, m, p must all be positive")
        valid = range(1, self.N + 1)
        checked_a = {}
        for (i, j), blk in self.A_blocks.items():
            if i not in valid or j not in valid:
                raise PlantError(f"A block ({i},{j}) outside 1..{self.N}")
            checked_a[(i, j)] = finite_block(blk, self.n, self.n, f"A block ({i},{j})")
        for i in valid:
            if (i, i) not in checked_a:
                raise PlantError(f"diagonal A block ({i},{i}) missing")
        checked_b = {}
        checked_c = {}
        for i in valid:
            if i not in self.B_blocks:
                raise PlantError(f"B block {i} missing")
            if i not in self.C_blocks:
                raise PlantError(f"C block {i} missing")
            checked_b[i] = finite_block(self.B_blocks[i], self.n, self.m, f"B block {i}")
            checked_c[i] = finite_block(self.C_blocks[i], self.p, self.n, f"C block {i}")
        object.__setattr__(self, "A_blocks", checked_a)
        object.__setattr__(self, "B_blocks", checked_b)
        object.__setattr__(self, "C_blocks", checked_c)

    @property
    def state_dim(self) -> int:
        return self.n * self.N

    def A_block(self, i: int, j: int) -> np.ndarray:
        blk = self.A_blocks.get((i, j))
        if blk is None:
            return np.zeros((self.n, self.n))
        return blk

    def coupling_sources(self, i: int) -> set[int]:
        """Subsystems j whose state enters subsystem i's dynamics."""
        return {
            j
            for (di, j), blk in self.A_blocks.items()
            if di == i and j != i and np.any(blk)
        }


def pattern_matches(plant: BlockPlant, pair: NetworkPair) -> bool:
    """True when every nonzero off-diagonal block sits on a physical edge."""
    if plant.N != pair.n:
        return False
    return all(
        plant.coupling_sources(i) <= pair.phys_neighbors(i)
        for i in range(1, plant.N + 1)
    )


def assemble(plant: BlockPlant) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def build_microgrid(
    pair: NetworkPair, seed: int, coupling_scale: float = 1.0
) -> BlockPlant:
    """Linearized inverter-frequency model on the given physical graph.

    Per node: states (voltage angle, frequency deviation), one input, the
    angle measured.  Droop time constants and power-coupling gains are drawn
    uniformly from the benchmark ranges, deterministically per seed.  The
    default gain range makes couplings of order 1e-9; coupling_scale
    multiplies them so strong-coupling studies stay in the same family.
    """
    rng = np.random.default_rng(seed)
    tau = rng.uniform(*MICROGRID_TAU_RANGE, size=pair.n)
    kp = rng.uniform(*MICROGRID_GAIN_RANGE, size=pair.n)
    v2 = MICROGRID_VOLTAGE * MICROGRID_VOLTAGE

    a_blocks: dict[tuple[int, int], np.ndarray] = {}
    for i in range(1, pair.n + 1):
        strength = coupling_scale * kp[i - 1] / tau[i - 1] * v2
        nbrs = sorted(pair.phys_neighbors(i))
        a_blocks[(i, i)] = np.array(
            [[0.0, 1.0], [-strength * len(nbrs), -1.0 / tau[i - 1]]]
        )
        for j in nbrs:
            a_blocks[(i, j)] = np.array([[0.0, 0.0], [strength, 0.0]])

    return BlockPlant(
        N=pair.n,
        n=2,
        m=1,
        p=1,
        A_blocks=a_blocks,
        B_blocks={i: np.array([[0.0], [1.0]]) for i in range(1, pair.n + 1)},
        C_blocks={i: np.array([[1.0, 0.0]]) for i in range(1, pair.n + 1)},
        meta={"kind": "microgrid", "seed": seed, "coupling_scale": coupling_scale},
    )


def numerical_rank(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-9 * s[0]))


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

    A, B, _ = assemble(plant)
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


# ------------------------------------------------------------------ file io

def save_plant(plant: BlockPlant, path: FilePath, manifest_hash: str | None = None) -> None:
    if plant.meta.get("kind") == "microgrid":
        doc = {
            "microgrid": {
                "seed": plant.meta["seed"],
                "coupling_scale": plant.meta["coupling_scale"],
            }
        }
    else:
        doc = {
            "N": plant.N,
            "n": plant.n,
            "m": plant.m,
            "p": plant.p,
            "A": {f"{i},{j}": blk.tolist() for (i, j), blk in plant.A_blocks.items()},
            "B": {str(i): blk.tolist() for i, blk in plant.B_blocks.items()},
            "C": {str(i): blk.tolist() for i, blk in plant.C_blocks.items()},
        }
    write_json(path, doc, manifest_hash)


def load_plant(path: FilePath, pair: NetworkPair | None = None) -> BlockPlant:
    """Read a plant file.  Given the network ``pair``, the plant must have
    one agent per node and couple agents only along physical edges; the
    microgrid shorthand is built from ``pair`` and cannot be read without it."""

    def parse(doc) -> BlockPlant:
        if "microgrid" in doc:
            if pair is None:
                raise PlantError("microgrid shorthand needs the network pair")
            shorthand = doc["microgrid"]
            return build_microgrid(
                pair, int(shorthand["seed"]), float(shorthand.get("coupling_scale", 1.0))
            )
        plant = BlockPlant(
            N=int(doc["N"]),
            n=int(doc["n"]),
            m=int(doc["m"]),
            p=int(doc["p"]),
            A_blocks={tuple(int(t) for t in k.split(",")): b for k, b in doc["A"].items()},
            B_blocks={int(i): b for i, b in doc["B"].items()},
            C_blocks={int(i): b for i, b in doc["C"].items()},
        )
        if pair is not None and plant.N != pair.n:
            raise PlantError(f"does not fit the network: {plant.N} agents, {pair.n} nodes")
        if pair is not None and not pattern_matches(plant, pair):
            raise PlantError("does not fit the network: it couples agents off the physical edges")
        return plant

    return read_json(path, PlantError, parse)
