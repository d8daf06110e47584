"""Block-sparse LTI plant models.

A plant is a collection of N subsystems of common state order n, coupled
through the physical graph: the (i, j) coupling block may be nonzero only
when j influences i.  A plant checks its A, B and C blocks as one stack of
each kind and keeps them as read-only views into those stacks; at N=800
that replaces 4,800 per-block checks with three.  The module assembles the
compact matrices as CSR straight from their blocks, generates the
inverter-network benchmark family (building its block stack in one
pass), and holds the one storage rule for assembled operators.
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
    operators and the gain bound's matrix norms both follow it.  It counts
    true nonzeros, and its CSR is canonical with no stored zeros, so a
    sparse ``m`` and its dense twin give the same storage and arrays.
    """
    size = m.shape[0] * m.shape[1]
    if not sparse.issparse(m):
        if size > SPARSE_MIN_ENTRIES and 4 * np.count_nonzero(m) <= size:
            return sparse.csr_matrix(m)
        return m
    m = sparse.csr_matrix(m, copy=True)
    m.sum_duplicates()
    m.eliminate_zeros()
    return m if size > SPARSE_MIN_ENTRIES and 4 * m.nnz <= size else m.toarray()


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


def _finite_stack(blocks: list, rows: int, cols: int) -> np.ndarray | None:
    """``blocks`` as one read-only finite (k, rows, cols) float stack; None
    unless every block is such a matrix."""
    try:
        stack = np.array(blocks, dtype=float)
    except (TypeError, ValueError):
        return None
    if stack.shape[1:] != (rows, cols) or not np.isfinite(stack).all():
        return None
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class BlockPlant:
    """Immutable block decomposition of x' = Ax + Bu, y = Cx.

    The blocks are checked as three stacks, one each of A, B and C, and kept
    as read-only views into them.  When a stack does not check, the blocks
    are checked one at a time in reading order (the A blocks, then B and C
    agent by agent), so the error names the first failing block.
    """

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
        agents = range(1, self.N + 1)
        a = _finite_stack(list(self.A_blocks.values()), self.n, self.n)
        b = _finite_stack([self.B_blocks.get(i) for i in agents], self.n, self.m)
        c = _finite_stack([self.C_blocks.get(i) for i in agents], self.p, self.n)
        if (
            a is None or b is None or c is None
            or not all(i in agents and j in agents for i, j in self.A_blocks)
            or not all((i, i) in self.A_blocks for i in agents)
        ):
            checked = self._check_each_block()
        else:
            checked = (dict(zip(self.A_blocks, a)), dict(zip(agents, b)), dict(zip(agents, c)))
        for name, blocks in zip(("A_blocks", "B_blocks", "C_blocks"), checked):
            object.__setattr__(self, name, blocks)

    def _check_each_block(self) -> tuple[dict, dict, dict]:
        """The A, B and C blocks, each checked by :func:`finite_block`."""
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
        return checked_a, checked_b, checked_c

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


def block_csr(blocks: dict, rows: int, cols: int, shape) -> sparse.csr_matrix:
    """The ``shape`` matrix with each ``rows x cols`` block (i, j) of
    ``blocks`` at the rows of i and the columns of j (1-based), as canonical
    CSR with no stored zeros: the arrays ``sparse.csr_matrix`` makes of the
    dense embedding, from one COO of the stacked blocks."""
    keys = np.array(list(blocks), dtype=np.intp).reshape(-1, 2) - 1
    vals = np.array(list(blocks.values()), dtype=float).reshape(-1, rows, cols)
    r = np.broadcast_to(keys[:, :1, None] * rows + np.arange(rows)[:, None], vals.shape)
    c = np.broadcast_to(keys[:, 1:, None] * cols + np.arange(cols), vals.shape)
    keep = vals != 0
    return sparse.csr_matrix((vals[keep], (r[keep], c[keep])), shape=shape)


def assemble(plant: BlockPlant) -> tuple[sparse.csr_matrix, ...]:
    """CSR (A, B, C) with block (i, j) at rows of i, columns of j."""
    n, m, p, N = plant.n, plant.m, plant.p, plant.N
    agents = range(1, N + 1)
    return (
        block_csr(plant.A_blocks, n, n, (n * N, n * N)),
        block_csr({(i, i): plant.B_blocks[i] for i in agents}, n, m, (n * N, m * N)),
        block_csr({(i, i): plant.C_blocks[i] for i in agents}, p, n, (p * N, n * N)),
    )


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
    strength = coupling_scale * kp / tau * v2
    degree = np.array([len(nbrs) for nbrs in pair.phys_nbrs])
    # per agent i: its diagonal block, then one coupling block per physical
    # in-neighbour j, ascending
    keys = [
        key for i, nbrs in enumerate(pair.phys_nbrs, 1)
        for key in [(i, i), *((i, j + 1) for j in nbrs)]
    ]
    diag = np.cumsum(degree + 1) - degree - 1
    blocks = np.zeros((len(keys), 2, 2))
    blocks[:, 1, 0] = np.repeat(strength, degree + 1)
    blocks[diag, 0, 1] = 1.0
    blocks[diag, 1, 0] = -strength * degree
    blocks[diag, 1, 1] = -1.0 / tau
    agents = range(1, pair.n + 1)
    return BlockPlant(
        N=pair.n,
        n=2,
        m=1,
        p=1,
        A_blocks=dict(zip(keys, blocks)),
        B_blocks=dict.fromkeys(agents, np.array([[0.0], [1.0]])),
        C_blocks=dict.fromkeys(agents, np.array([[1.0, 0.0]])),
        meta={"kind": "microgrid", "seed": seed, "coupling_scale": coupling_scale},
    )


def numerical_rank(m: np.ndarray):
    """Rank at relative tolerance 1e-9; one rank per matrix of a stack."""
    s = np.linalg.svd(m, compute_uv=False)
    rank = np.sum(s > 1e-9 * s[..., :1], axis=-1)
    return rank if rank.ndim else int(rank)


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
