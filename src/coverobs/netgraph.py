"""Paired physical/communication network topologies.

A :class:`NetworkPair` couples two graphs over the same node set 1..n: a
(possibly directed) physical influence graph, where an edge j -> i means the
state of node j enters the dynamics of node i, and an undirected communication
graph over which nodes exchange estimates.  The communication graph must be
connected.

Node identifiers are 1-based everywhere in this module, matching the on-disk
format.  A pair is its edge lists, sorted and without repeats: physical
edges as directed (source, destination) pairs, communication edges as
(a, b) with a < b.  They are what a pair file holds, and they decide
equality and hashing.  The neighbor index is derived from them once per
pair: for every node the ascending 0-based ids of its communication
neighbors (``comm_nbrs``) and of its physical in-neighbors (``phys_nbrs``),
and the in-neighbors as a 1-based frozenset, which the cover passes ask for
more than once per node.  Neighbor queries, degrees, subgraph Laplacians
and every breadth-first search (connectivity, :func:`distances_to`,
:func:`shortest_path`) read the index, so one search costs O(n + edges).

The generator draws edges from pools of node pairs kept as "all pairs in
lexicographic order minus a sorted exclusion list" (:class:`_PairPool`): the
k-th remaining pair is found by bisection, so every draw sees the same pool
length and the same element as a materialized list would, without building
or shrinking an O(n^2) list.  The three pools of a try nest: the pairs
outside the physical graph, from which the communication graph draws, are
what the physical graph's pool leaves, and the fresh pairs of the
similarity tuning are what the communication graph then leaves.  So one
pool serves the whole try, its exclusions growing with each draw.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .artifact import FilePath, is_int, read_json, write_json

GEN_TRIES = 200  # draws of a whole pair before the generator gives up


class GraphError(Exception):
    """Raised for malformed, disconnected, or otherwise unusable graphs."""


def _edge(e: Sequence[int], n: int, kind: str) -> tuple[int, int]:
    """``e`` as a pair of int node ids of 1..n, distinct."""
    a, b = e
    if not (1 <= a <= n and 1 <= b <= n) or a == b or not (is_int(a) and is_int(b)):
        raise GraphError(f"bad {kind} edge [{a}, {b}] for n={n}")
    return int(a), int(b)


def _neighbours(n: int, edges: Iterable[tuple[int, int]], both: bool = True) -> list[list[int]]:
    """0-based neighbour lists of 1-based ``edges`` (a, b): b lists a, and
    with ``both`` a lists b too.  Sorted edges give ascending lists."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[b - 1].append(a - 1)
        if both:
            nbrs[a - 1].append(b - 1)
    return nbrs


def _reach(nbrs: Sequence[Sequence[int]], start: int, inside: set[int]) -> set[int]:
    """The 0-based nodes that ``start`` reaches through nodes of ``inside``."""
    seen = {start}
    stack = [start]
    while stack:
        for v in nbrs[stack.pop()]:
            if v in inside and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _connected(nbrs: Sequence[Sequence[int]], nodes: Iterable[int]) -> bool:
    """Whether ``nodes`` (0-based) induce a connected subgraph."""
    inside = set(nodes)
    return not inside or len(_reach(nbrs, min(inside), inside)) == len(inside)


def _hops(nbrs: Sequence[Sequence[int]], src: int, stop: int | None = None) -> list[int]:
    """Breadth-first hop counts from 0-based ``src`` (-1 where unreachable).

    With ``stop``, the search ends as soon as that node is reached: every
    node closer to ``src`` than ``stop`` is then labeled, the rest read -1.
    """
    dist = [-1] * len(nbrs)
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if dist[v] < 0:
                    dist[v] = d
                    if v == stop:
                        return dist
                    nxt.append(v)
        frontier = nxt
    return dist


@dataclass(frozen=True)
class NetworkPair:
    """Physical and communication edges over a common 1-based node set.

    ``phys_edges`` holds (s, d) when node s's state enters node d's
    dynamics (s is a physical in-neighbor of d); ``comm_edges`` holds each
    communication link once as (a, b), a < b.  The constructor takes any
    iterables of 1-based id pairs, communication links in either order and
    repeats allowed, and stores both lists sorted and without repeats.  It
    rejects ids that are not integers of 1..n, self-loops and a
    disconnected communication graph.
    """

    n: int
    phys_edges: tuple[tuple[int, int], ...]
    comm_edges: tuple[tuple[int, int], ...]
    # neighbor index: comm_nbrs[i-1] / phys_nbrs[i-1] are the ascending
    # 0-based ids of node i's communication neighbors / physical in-neighbors
    comm_nbrs: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    phys_nbrs: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # phys_sets[i-1]: node i's physical in-neighbors, 1-based
    _phys_sets: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_int(self.n) or self.n < 1:
            raise GraphError(f"node count must be a positive integer, got {self.n!r}")
        n = int(self.n)
        phys = sorted({_edge(e, n, "physical") for e in self.phys_edges})
        comm = sorted({
            (a, b) if a < b else (b, a)
            for a, b in (_edge(e, n, "communication") for e in self.comm_edges)
        })
        # fewer links than a tree cannot connect the nodes: no index is built
        if len(comm) < n - 1 or -1 in _hops(comm_nbrs := _neighbours(n, comm), 0):
            raise GraphError("communication graph is disconnected")
        phys_nbrs = _neighbours(n, phys, both=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "phys_edges", tuple(phys))
        object.__setattr__(self, "comm_edges", tuple(comm))
        object.__setattr__(self, "comm_nbrs", tuple(map(tuple, comm_nbrs)))
        object.__setattr__(self, "phys_nbrs", tuple(map(tuple, phys_nbrs)))
        phys_sets = tuple(frozenset(j + 1 for j in js) for js in phys_nbrs)
        object.__setattr__(self, "_phys_sets", phys_sets)

    def nodes(self) -> range:
        return range(1, self.n + 1)

    def phys_neighbors(self, i: int) -> frozenset[int]:
        """In-neighbors of i in the physical graph (nodes influencing i)."""
        self._check_node(i)
        return self._phys_sets[i - 1]

    def _check_node(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise GraphError(f"node id {i} outside 1..{self.n}")


def distances_to(pair: NetworkPair, b: int) -> np.ndarray:
    """Hop counts from every node to b over the communication graph (-1 if cut off)."""
    pair._check_node(b)
    return np.array(_hops(pair.comm_nbrs, b - 1), dtype=int)


def shortest_path(pair: NetworkPair, a: int, b: int) -> list[int]:
    """Shortest communication path from a to b, inclusive of both endpoints.

    Among equally short paths the lexicographically smallest node sequence is
    returned, so the result is unique and reproducible.  The search from b
    stops at a, having labeled every node the descent can visit.
    Raises :class:`GraphError` if b is unreachable from a.
    """
    pair._check_node(a)
    pair._check_node(b)
    if a == b:
        return [a]
    dist = _hops(pair.comm_nbrs, b - 1, stop=a - 1)
    if dist[a - 1] < 0:
        raise GraphError(f"no communication path from {a} to {b}")
    # Greedy descent on distance-to-target; taking the smallest admissible
    # next node (the first in the ascending neighbor list) at each hop yields
    # the lexicographic minimum.
    path = [a]
    cur = a - 1
    for want in range(dist[cur] - 1, -1, -1):
        for cur in pair.comm_nbrs[cur]:
            if dist[cur] == want:
                break
        path.append(cur + 1)
    return path


def similarity(pair: NetworkPair) -> float:
    """Edge-set overlap between the two graphs in [0, 1].

    The physical graph is collapsed to undirected edges first.  Defined as
    twice the shared edge count over the sum of both edge counts; raises if
    both graphs are empty.
    """
    phys = {(s, d) if s < d else (d, s) for s, d in pair.phys_edges}
    if not phys and not pair.comm_edges:
        raise GraphError("similarity undefined: both graphs have no edges")
    return _edge_set_similarity(phys, set(pair.comm_edges))


def _checked_nodes(pair: NetworkPair, nodes: Sequence[int]) -> tuple[int, ...]:
    nodes = tuple(int(v) for v in nodes)
    if len(set(nodes)) != len(nodes) or not nodes:
        raise GraphError(f"nodes must be nonempty and distinct, got {nodes}")
    for v in nodes:
        pair._check_node(v)
    return nodes


def subgraph_laplacian(pair: NetworkPair, nodes: Sequence[int]) -> np.ndarray:
    """Laplacian of the communication subgraph induced by ``nodes``, rows
    and columns in the order given; raises :class:`GraphError` unless the
    nodes are distinct node ids inducing a connected subgraph."""
    nodes = _checked_nodes(pair, nodes)
    pos = {v - 1: k for k, v in enumerate(nodes)}
    if not _connected(pair.comm_nbrs, pos):
        raise GraphError(f"induced communication subgraph on {nodes} is disconnected")
    rows, cols = [], []
    for v, k in pos.items():
        for u in pair.comm_nbrs[v]:
            if u in pos:
                rows.append(k)
                cols.append(pos[u])
    lap = np.zeros((len(pos), len(pos)))
    lap[rows, cols] = -1.0
    np.fill_diagonal(lap, np.bincount(rows, minlength=len(pos)))
    return lap


def grounded_spectrum(pair: NetworkPair, nodes: Sequence[int], anchor: int) -> float:
    """Smallest eigenvalue of L + S on an induced communication subgraph.

    L is the Laplacian of the subgraph induced by ``nodes``; S is zero except
    for a single 1 at the anchor's diagonal position.  The induced subgraph
    must be connected, which makes the smallest eigenvalue strictly positive.
    """
    nodes = _checked_nodes(pair, nodes)
    if anchor not in nodes:
        raise GraphError(f"anchor {anchor} not among nodes {nodes}")
    return grounded_min_eig(subgraph_laplacian(pair, nodes), nodes.index(anchor))


def grounded_min_eig(lap: np.ndarray, pos: int) -> float:
    """Smallest eigenvalue of ``lap`` with 1 added at diagonal position ``pos``."""
    grounded = lap.copy()
    grounded[pos, pos] += 1.0
    return float(np.linalg.eigvalsh(grounded)[0])


# The screen's round-off margin, in units of n * eps * (1 + 2 * max degree):
# that product bounds the backward error of a symmetric eigensolver on a
# grounded n-node Laplacian, whose 2-norm is at most 1 + 2 * max degree.
SCREEN_MARGIN = 1e4
# Padded entries per working array of one bisection batch (512 kB), unless
# one Laplacian alone has more: keeps the screen's transient memory near that
# of the largest set's own eigendecomposition.
SCREEN_BATCH_ENTRIES = 1 << 16


def grounded_min_eig_bounds(laps: Sequence[np.ndarray]) -> np.ndarray:
    """Lower bounds on :func:`grounded_min_eig` for every Laplacian and position.

    The result is flat: the bounds for ``laps[0]`` at positions 0, 1, ...,
    then those for ``laps[1]``, and so on.  Each Laplacian must be that of a
    connected graph.  One ``eigh`` per Laplacian serves all its positions:
    with ``lap = Q diag(lam) Q'`` and ``z = Q[k, :]**2``, the bound for
    position k is the left end of a bisection bracket of the root of
    ``1 + sum_j z_j / (lam_j - mu)`` on ``[lam_1, min(lam_2, lam_1 + 1)]``,
    narrowed to the margin, minus the margin ``SCREEN_MARGIN * n * eps *
    (1 + 2 * max degree)``.  ``gains._cover_spectrum_floor`` gives the
    argument.

    Laplacians are grouped by power-of-two bucket of their widths and
    bisected together, one vectorized pass per batch of a bucket.
    """
    widths = [1 << (lap.shape[0] - 1).bit_length() for lap in laps]
    parts: list[np.ndarray] = [np.empty(0)] * len(laps)
    for width in sorted(set(widths)):
        members = [k for k, w in enumerate(widths) if w == width]
        # each member has at most `width` positions
        step = max(1, SCREEN_BATCH_ENTRIES // (width * width))
        for b in range(0, len(members), step):
            batch = members[b : b + step]
            for k, part in zip(batch, _secular_bounds([laps[k] for k in batch], width)):
                parts[k] = part
    return np.concatenate(parts) if parts else np.empty(0)


def _secular_bounds(laps: list[np.ndarray], width: int) -> list[np.ndarray]:
    """The bounds of :func:`grounded_min_eig_bounds` for Laplacians of at
    most ``width`` nodes, one array per Laplacian.  Every row is padded to
    ``width`` with weight 0 at eigenvalue +inf, which adds exactly 0 to the
    secular sum."""
    eps = np.finfo(float).eps
    sizes = [lap.shape[0] for lap in laps]
    lam = np.full((sum(sizes), width), np.inf)
    z = np.zeros_like(lam)
    margin = np.empty(len(lam))
    r = 0
    for lap, n in zip(laps, sizes):
        w, q = np.linalg.eigh(lap)
        lam[r : r + n, :n] = w
        np.square(q, out=z[r : r + n, :n])
        margin[r : r + n] = SCREEN_MARGIN * n * eps * (1.0 + 2.0 * lap.diagonal().max())
        r += n
    lo = lam[:, 0].copy()
    hi = lo + 1.0 if width == 1 else np.minimum(lam[:, 1], lo + 1.0)
    mid = np.empty_like(lo)
    terms = np.empty_like(lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        while np.any(hi - lo > margin):
            np.add(lo, hi, out=mid)
            mid *= 0.5
            np.subtract(lam, mid[:, None], out=terms)
            np.divide(z, terms, out=terms)
            # a NaN sum moves hi down, which keeps lo a lower bound
            below = terms.sum(axis=1) < -1.0
            np.copyto(lo, mid, where=below)
            np.copyto(hi, mid, where=~below)
    lo -= margin
    return np.split(lo, np.cumsum(sizes)[:-1])


def check_node_count(n: int) -> None:
    """Raise :class:`GraphError` unless n leaves room for an edge (n >= 2)."""
    if n < 2:
        raise GraphError(f"need at least 2 nodes, got {n}")


def star_pair(n: int) -> NetworkPair:
    """Star on n nodes with node 1 at the center, identical on both layers."""
    check_node_count(n)
    edges = [(1, k) for k in range(2, n + 1)]
    both = edges + [(k, 1) for k in range(2, n + 1)]
    return NetworkPair(n, both, edges)


def _spanning_tree_edges(rng: np.random.Generator, n: int) -> set[tuple[int, int]]:
    """A random tree: the k-th node of a random order (k = 1..n-1) attaches
    to one of the k before it.  The n - 1 attachment draws are one
    ``integers`` call with the bounds 1..n-1; numpy draws each element of
    such a call as it draws a scalar, so the stream is that of n - 1 scalar
    calls."""
    order = rng.permutation(n) + 1
    attach = order[rng.integers(0, np.arange(1, n))]
    return {(a, b) if a < b else (b, a) for a, b in zip(order[1:].tolist(), attach.tolist())}


def _pick(rng: np.random.Generator, pool: list) -> object:
    return pool[int(rng.integers(0, len(pool)))]


class _PairPool:
    """Node pairs (i, j), i < j, of 1..n in lexicographic order, minus a
    sorted list of excluded lexicographic indices."""

    def __init__(self, n: int, exclude: Iterable[tuple[int, int]] = ()) -> None:
        self.n = n
        # lexicographic index of each row's first pair (i, i + 1), i = 1..n-1
        self.starts = [(i - 1) * (2 * n - i) // 2 for i in range(1, n)]
        self.total = n * (n - 1) // 2
        self.excluded = sorted(self.index(e) for e in exclude)

    def index(self, e: tuple[int, int]) -> int:
        i, j = e
        return (i - 1) * (2 * self.n - i) // 2 + j - i - 1

    def pair(self, k: int) -> tuple[int, int]:
        i = bisect_right(self.starts, k)
        return i, k - self.starts[i - 1] + i + 1

    def __len__(self) -> int:
        return self.total - len(self.excluded)

    def take(self, rng: np.random.Generator) -> tuple[int, int]:
        """Remove and return the pair ``_pick`` draws from the pool as a list."""
        ex = self.excluded
        k = int(rng.integers(0, self.total - len(ex)))
        # the k-th remaining index is k + t, where t counts the excluded
        # indices below it: the first t with excluded[t] - t > k
        lo, hi = 0, len(ex)
        while lo < hi:
            mid = (lo + hi) // 2
            if ex[mid] - mid <= k:
                lo = mid + 1
            else:
                hi = mid
        ex.insert(lo, k + lo)
        return self.pair(k + lo)

    def exclude(self, e: tuple[int, int]) -> None:
        """Remove a pair that is still in the pool."""
        insort(self.excluded, self.index(e))

    def release(self, e: tuple[int, int]) -> None:
        """Return an excluded pair to the pool."""
        ex = self.excluded
        del ex[bisect_right(ex, self.index(e)) - 1]


def check_generator(
    n: int,
    avg_phys_degree: float,
    target_similarity: float,
    seed: int,
    tol: float = 0.05,
) -> None:
    """Raise :class:`GraphError` unless :func:`gen_random_pair` can start
    drawing with these parameters."""
    check_node_count(n)
    if not is_int(seed) or seed < 0:
        raise GraphError(f"seed must be a non-negative integer, got {seed!r}")
    if not 0.0 <= avg_phys_degree < np.inf:
        raise GraphError(f"average degree must be finite and >= 0, got {avg_phys_degree}")
    if not 0.0 <= target_similarity <= 1.0:
        raise GraphError(f"target similarity {target_similarity} outside [0, 1]")
    if not 0.0 <= tol < np.inf:
        raise GraphError(f"similarity tolerance must be finite and >= 0, got {tol}")


def gen_random_pair(
    n: int,
    avg_phys_degree: float,
    target_similarity: float,
    seed: int,
    tol: float = 0.05,
) -> NetworkPair:
    """Sample a random pair with a requested edge-set overlap.

    The physical graph is undirected with roughly ``n * avg_phys_degree / 2``
    edges (connected whenever the budget allows a spanning tree).  The
    communication graph reuses a fraction of the physical edges to land the
    similarity within ``tol`` of the target, then is repaired to be connected.
    Deterministic in ``seed``; raises :class:`GraphError` for parameters
    :func:`check_generator` rejects, before any draw, and when the target
    cannot be met within ``GEN_TRIES`` attempts.  Each try draws all its
    pairs from one :class:`_PairPool`, as the module docstring explains.
    """
    check_generator(n, avg_phys_degree, target_similarity, seed, tol)
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    m = int(round(n * avg_phys_degree / 2.0))
    m = max(1, min(m, total))
    lo, hi = target_similarity - tol, target_similarity + tol
    best_gap = np.inf

    for _ in range(GEN_TRIES):
        if m >= n - 1:
            phys = _spanning_tree_edges(rng, n)
            pool = _PairPool(n, phys)
            while len(phys) < m and len(pool):
                phys.add(pool.take(rng))
        else:
            idx = sorted(rng.choice(total, size=m, replace=False).tolist())
            pool = _PairPool(n)
            phys = {pool.pair(k) for k in idx}
            pool.excluded = idx  # the drawn pairs' own lexicographic indices

        shared_n = int(round(target_similarity * m))
        phys_list = sorted(phys)
        keep = rng.choice(len(phys_list), size=min(shared_n, m), replace=False)
        comm = {phys_list[k] for k in sorted(keep.tolist())}
        while len(comm) < m and len(pool):
            comm.add(pool.take(rng))

        _repair_connectivity(rng, n, comm, phys, pool)
        _tune_similarity(rng, n, comm, phys, target_similarity, pool)
        sim = _edge_set_similarity(phys, comm)
        gap = abs(sim - target_similarity)
        if lo - 1e-12 <= sim <= hi + 1e-12:
            phys_dir = [(a, b) for a, b in phys] + [(b, a) for a, b in phys]
            return NetworkPair(n, phys_dir, comm)
        best_gap = min(best_gap, gap)

    raise GraphError(
        f"could not reach similarity {target_similarity}±{tol} for n={n}, "
        f"avg degree {avg_phys_degree} (best gap {best_gap:.3f})"
    )


def _edge_set_similarity(phys: set, comm: set) -> float:
    if not phys and not comm:
        return 0.0
    return 2.0 * len(phys & comm) / (len(phys) + len(comm))


def _components(n: int, edges: set[tuple[int, int]]) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest node."""
    nbrs, left, comps = _neighbours(n, edges), set(range(n)), []
    for start in range(n):
        if start in left:
            comp = _reach(nbrs, start, left)
            left -= comp
            comps.append(sorted(v + 1 for v in comp))
    return comps


def _repair_connectivity(
    rng: np.random.Generator, n: int, comm: set, phys: set, pool: _PairPool
) -> None:
    """Join the component of node 1 to the next component by smallest node,
    one edge at a time, preferring physical edges across the cut; ``comm``
    grows in place.  ``pool`` excludes the pairs of ``phys`` and ``comm``,
    and a joining edge outside ``phys`` is excluded too.

    Adding an edge between the first two components leaves the others
    untouched, so the components are found once and folded in order.
    """
    comps = _components(n, comm)
    if len(comps) == 1:
        return
    phys_nbrs = _neighbours(n, phys)
    joined = comps[0]
    inside = set(joined)
    for other in comps[1:]:
        # crossing pairs in the order (a in joined, b in other), both ascending
        phys_crossing = sorted(
            (a + 1, b) for b in other for a in phys_nbrs[b - 1] if a + 1 in inside
        )
        if phys_crossing:
            a, b = _pick(rng, phys_crossing)
            comm.add((min(a, b), max(a, b)))
        else:
            k = int(rng.integers(0, len(joined) * len(other)))
            a, b = joined[k // len(other)], other[k % len(other)]
            # in neither graph: no physical edge crosses, no communication edge can
            pool.exclude((min(a, b), max(a, b)))
            comm.add((min(a, b), max(a, b)))
        joined = sorted(joined + other)
        inside.update(other)


def _non_bridges(n: int, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Edges whose removal leaves the graph on 1..n connected.

    One iterative Tarjan pass: a tree edge (p, u) is a bridge when nothing
    below u reaches above it (low[u] > disc[p]).  Empty when the graph is
    disconnected, since no removal can connect it.
    """
    nbrs = _neighbours(n, edges)
    disc = [0] * n
    low = [0] * n
    bridges = set()
    clock = 1
    disc[0] = low[0] = clock
    stack = [(0, -1, iter(nbrs[0]))]
    while stack:
        u, parent, rest = stack[-1]
        for v in rest:
            if v == parent:
                continue
            if disc[v]:
                low[u] = min(low[u], disc[v])
            else:
                clock += 1
                disc[v] = low[v] = clock
                stack.append((v, u, iter(nbrs[v])))
                break
        else:
            stack.pop()
            if parent >= 0:
                low[parent] = min(low[parent], low[u])
                if low[u] > disc[parent]:
                    bridges.add((min(u, parent) + 1, max(u, parent) + 1))
    if clock < n:
        return set()
    return set(edges) - bridges


def _tune_similarity(
    rng: np.random.Generator, n: int, comm: set, phys: set, target: float,
    fresh: _PairPool,
) -> None:
    """Hill-climb single edge edits of ``comm``, in place, until no move gets
    the overlap closer.

    Candidate moves only shift the shared/total edge counts, so their effect
    on the similarity is evaluated arithmetically before touching the sets.
    The counts are kept current across moves, as is the pool of ``fresh``
    pairs (in neither graph).
    """
    m = len(phys)
    k = len(comm & phys)
    mc = len(comm)
    for _ in range(2 * (m + mc) + 16):
        cur = 2.0 * k / (m + mc) if (m + mc) else 0.0
        gap = abs(cur - target)
        options: list[tuple[str, float]] = []
        if k < m:
            options.append(("add_phys", 2.0 * (k + 1) / (m + mc + 1)))
        if len(fresh) > 0:
            options.append(("add_fresh", 2.0 * k / (m + mc + 1)))
        if mc > k:
            options.append(("drop", 2.0 * k / (m + mc - 1) if m + mc > 1 else 0.0))
        options.sort(key=lambda opt: abs(opt[1] - target))
        moved = False
        for kind, value in options:
            if abs(value - target) >= gap - 1e-12:
                break
            if kind == "add_phys":
                comm.add(_pick(rng, sorted(phys - comm)))
                k += 1
                mc += 1
            elif kind == "add_fresh":
                comm.add(fresh.take(rng))
                mc += 1
            else:
                droppable = sorted((comm - phys) & _non_bridges(n, comm))
                if not droppable:
                    continue
                e = _pick(rng, droppable)
                comm.remove(e)
                fresh.release(e)
                mc -= 1
            moved = True
            break
        if not moved:
            break


def save_pair(pair: NetworkPair, path: FilePath, manifest_hash: str | None = None) -> None:
    """Write a pair as JSON: its node count and its two edge lists."""
    doc = {
        "n": pair.n,
        "phys_edges": [list(e) for e in pair.phys_edges],
        "comm_edges": [list(e) for e in pair.comm_edges],
    }
    write_json(path, doc, manifest_hash)


def load_pair(path: FilePath) -> NetworkPair:
    return read_json(
        path,
        GraphError,
        lambda doc: NetworkPair(doc["n"], doc["phys_edges"], doc["comm_edges"]),
    )
