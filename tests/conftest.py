from __future__ import annotations

import numpy as np
import pytest

from coverobs.coverage import solve
from coverobs.gains import ControllerGains
from coverobs.netgraph import NetworkPair, gen_random_pair, star_pair
from coverobs.plant import BlockPlant


@pytest.fixture
def star9() -> NetworkPair:
    return star_pair(9)


@pytest.fixture(scope="session")
def recovery_benchmark():
    """12-node double-integrator network for performance-recovery sweeps.

    Diagonal blocks are well damped, couplings act position-to-acceleration,
    and the controller uses position-only self gains plus exact cancellation
    of every coupling, so the target loop is block-diagonal by construction.
    Position-only feedback keeps the velocity-estimate transient out of the
    input channel, which would otherwise grow with the observer speed and
    drown the index gap at fast settings.
    """
    pair = gen_random_pair(12, 3.0, 0.85, seed=7)
    assignment = solve(pair)
    rng = np.random.default_rng(42)
    A_blocks = {}
    for i in range(1, 13):
        a = rng.uniform(0.8, 1.2)
        b = rng.uniform(2.5, 3.5)
        A_blocks[(i, i)] = np.array([[0.0, 1.0], [-a, -b]])
    for i in range(1, 13):
        for j in sorted(pair.phys_neighbors(i)):
            c = rng.uniform(-0.4, 0.4)
            A_blocks[(i, j)] = np.array([[0.0, 0.0], [c, 0.0]])
    plant = BlockPlant(
        N=12, n=2, m=1, p=1,
        A_blocks=A_blocks,
        B_blocks={i: np.array([[0.0], [1.0]]) for i in range(1, 13)},
        C_blocks={i: np.array([[1.0, 0.0]]) for i in range(1, 13)},
    )
    K_blocks = {}
    for i in range(1, 13):
        K_blocks[(i, i)] = np.array([[-3.0, 0.0]])
    for (i, j), blk in A_blocks.items():
        if i != j:
            K_blocks[(i, j)] = np.array([[-blk[1, 0], 0.0]])
    return pair, assignment, plant, ControllerGains(K_blocks=K_blocks)


@pytest.fixture
def two_cluster_pair() -> NetworkPair:
    # Two triangles bridged by edge 3-4; layers identical.  Node 3 has
    # physical in-neighbors {1, 2, 4}.
    edges = [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)]
    both = edges + [(b, a) for a, b in edges]
    return NetworkPair(6, both, edges)


@pytest.fixture
def chain_cluster_pair() -> NetworkPair:
    # Communication: two 4-node chains joined by edge 3-5.  Physical influence
    # is sparse and partly remote (1<->4, 3<->5, 5<->8), so path collection
    # has to walk multiple communication hops.
    comm = [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (6, 7), (7, 8)]
    phys = [(1, 4), (4, 1), (3, 5), (5, 3), (5, 8), (8, 5)]
    return NetworkPair(8, phys, comm)


def random_pairs(count: int, max_n: int, seed: int, min_n: int = 4):
    """Deterministic stream of random pairs for fuzz tests."""
    rng = np.random.default_rng(seed)
    out = []
    k = 0
    while len(out) < count:
        n = int(rng.integers(min_n, max_n + 1))
        deg = float(rng.uniform(1.5, min(4.0, n - 1)))
        sim = float(rng.uniform(0.55, 0.95))
        try:
            out.append(gen_random_pair(n, deg, sim, seed=seed * 100003 + k, tol=0.08))
        except Exception:
            pass
        k += 1
        if k > 20 * count:
            raise RuntimeError("random pair stream starved")
    return out
