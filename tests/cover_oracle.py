"""Reference graph generator, cover solver and spectrum floor.

This is the generator, the establish/merge passes, the validation and the
cover spectrum floor as they were before the neighbor index: pools held as
materialized lists shrunk with ``list.remove``, connectivity re-checked per
candidate edge, breadth-first search over dense boolean rows (built here
from the pair's edge lists, see :func:`dense_adjacency`), loads rescanned
over every set, and one grounded eigen-solve (connectivity check included)
per anchor.  The tests compare the package against it byte for byte.
``runtime_scaling`` times the package's ``solve`` for the smoke test.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from coverobs.coverage import (
    CAPPED_GROUP_SIZE,
    FULL_ENUMERATION_LIMIT,
    CoverAssignment,
    CoverSet,
    ValidationReport,
    solve,
)
from coverobs.netgraph import GraphError, NetworkPair, gen_random_pair


# ------------------------------------------------------------------ graphs

def dense_adjacency(pair: NetworkPair) -> tuple[np.ndarray, np.ndarray]:
    """The pair's graphs as boolean matrices indexed by ``id - 1``, built
    from its edge lists alone: ``phys[d - 1, s - 1]`` for each physical edge
    (s, d), and ``comm`` symmetric."""
    phys = np.zeros((pair.n, pair.n), dtype=bool)
    comm = np.zeros((pair.n, pair.n), dtype=bool)
    for s, d in pair.phys_edges:
        phys[d - 1, s - 1] = True
    for a, b in pair.comm_edges:
        comm[a - 1, b - 1] = comm[b - 1, a - 1] = True
    return phys, comm


def _is_connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    if n <= 1:
        return True
    seen = np.zeros(n, dtype=bool)
    queue = deque([0])
    seen[0] = True
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(adj[u]):
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return bool(seen.all())


def distances_to(comm: np.ndarray, b: int) -> np.ndarray:
    dist = np.full(len(comm), -1, dtype=int)
    dist[b - 1] = 0
    queue = deque([b - 1])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(comm[u]):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def shortest_path(comm: np.ndarray, a: int, b: int, dist: np.ndarray) -> list[int]:
    if a == b:
        return [a]
    if dist[a - 1] < 0:
        raise GraphError(f"no communication path from {a} to {b}")
    path = [a]
    cur = a - 1
    while cur != b - 1:
        nxt = min(
            v for v in np.flatnonzero(comm[cur]) if dist[v] == dist[cur] - 1
        )
        path.append(int(nxt) + 1)
        cur = int(nxt)
    return path


def grounded_min_eig(comm: np.ndarray, nodes: Sequence[int], anchor: int) -> float:
    nodes = tuple(int(v) for v in nodes)
    idx = np.array([v - 1 for v in nodes])
    sub = comm[np.ix_(idx, idx)].astype(float)
    if not _is_connected(sub.astype(bool)):
        raise GraphError(f"induced communication subgraph on {nodes} is disconnected")
    lap = np.diag(sub.sum(axis=1)) - sub
    grounded = lap.copy()
    grounded[nodes.index(anchor), nodes.index(anchor)] += 1.0
    return float(np.linalg.eigvalsh(grounded)[0])


def _spanning_tree_edges(rng: np.random.Generator, n: int) -> set[tuple[int, int]]:
    order = rng.permutation(n) + 1
    edges = set()
    for k in range(1, n):
        attach = order[rng.integers(0, k)]
        a, b = int(order[k]), int(attach)
        edges.add((min(a, b), max(a, b)))
    return edges


def _pick(rng: np.random.Generator, pool: list) -> object:
    return pool[int(rng.integers(0, len(pool)))]


def reference_gen_random_pair(
    n: int,
    avg_phys_degree: float,
    target_similarity: float,
    seed: int,
    tol: float = 0.05,
    max_tries: int = 200,
) -> NetworkPair:
    if n < 2:
        raise GraphError("need n >= 2 to generate a pair")
    if not 0.0 <= target_similarity <= 1.0:
        raise GraphError(f"target similarity {target_similarity} outside [0, 1]")
    rng = np.random.default_rng(seed)
    all_pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    m = int(round(n * avg_phys_degree / 2.0))
    m = max(1, min(m, len(all_pairs)))
    lo, hi = target_similarity - tol, target_similarity + tol
    best_gap = np.inf

    for _ in range(max_tries):
        if m >= n - 1:
            phys = _spanning_tree_edges(rng, n)
            extra_pool = [e for e in all_pairs if e not in phys]
            while len(phys) < m and extra_pool:
                e = _pick(rng, extra_pool)
                extra_pool.remove(e)
                phys.add(e)
        else:
            idx = rng.choice(len(all_pairs), size=m, replace=False)
            phys = {all_pairs[int(k)] for k in sorted(idx)}

        shared_n = int(round(target_similarity * m))
        phys_list = sorted(phys)
        keep = rng.choice(len(phys_list), size=min(shared_n, m), replace=False)
        comm = {phys_list[int(k)] for k in sorted(keep)}
        nonphys = [e for e in all_pairs if e not in phys]
        while len(comm) < m and nonphys:
            e = _pick(rng, nonphys)
            nonphys.remove(e)
            comm.add(e)

        comm = _repair_connectivity(rng, n, comm, phys)
        comm = _tune_similarity(rng, n, comm, phys, target_similarity)
        sim = _edge_set_similarity(phys, comm)
        gap = abs(sim - target_similarity)
        if lo - 1e-12 <= sim <= hi + 1e-12:
            phys_dir = [(a, b) for a, b in phys] + [(b, a) for a, b in phys]
            return NetworkPair(n, phys_dir, sorted(comm))
        best_gap = min(best_gap, gap)

    raise GraphError(
        f"could not reach similarity {target_similarity}±{tol} for n={n}, "
        f"avg degree {avg_phys_degree} (best gap {best_gap:.3f})"
    )


def _edge_set_similarity(phys: set, comm: set) -> float:
    if not phys and not comm:
        return 0.0
    return 2.0 * len(phys & comm) / (len(phys) + len(comm))


def _components(n: int, edges: set[tuple[int, int]]) -> list[set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    comps, seen = [], set()
    for start in range(1, n + 1):
        if start in seen:
            continue
        comp, queue = {start}, deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
        comps.append(comp)
    return comps


def _repair_connectivity(
    rng: np.random.Generator, n: int, comm: set, phys: set
) -> set:
    comm = set(comm)
    while True:
        comps = _components(n, comm)
        if len(comps) == 1:
            return comm
        a_comp = sorted(comps[0])
        b_comp = sorted(comps[1])
        crossing = [
            (min(a, b), max(a, b)) for a in a_comp for b in b_comp
        ]
        phys_crossing = [e for e in crossing if e in phys]
        pool = phys_crossing if phys_crossing else crossing
        comm.add(_pick(rng, pool))


def _tune_similarity(
    rng: np.random.Generator, n: int, comm: set, phys: set, target: float
) -> set:
    comm = set(comm)
    m = len(phys)
    total_pairs = n * (n - 1) // 2
    for _ in range(2 * (m + len(comm)) + 16):
        k = len(comm & phys)
        mc = len(comm)
        cur = 2.0 * k / (m + mc) if (m + mc) else 0.0
        gap = abs(cur - target)
        fresh_count = total_pairs - (mc + m - k)
        options: list[tuple[str, float]] = []
        if phys - comm:
            options.append(("add_phys", 2.0 * (k + 1) / (m + mc + 1)))
        if fresh_count > 0:
            options.append(("add_fresh", 2.0 * k / (m + mc + 1)))
        if comm - phys:
            options.append(("drop", 2.0 * k / (m + mc - 1) if m + mc > 1 else 0.0))
        options.sort(key=lambda opt: abs(opt[1] - target))
        moved = False
        for kind, value in options:
            if abs(value - target) >= gap - 1e-12:
                break
            if kind == "add_phys":
                comm.add(_pick(rng, sorted(phys - comm)))
                moved = True
            elif kind == "add_fresh":
                fresh = sorted(
                    e for e in _all_pairs(n) if e not in comm and e not in phys
                )
                comm.add(_pick(rng, fresh))
                moved = True
            else:
                droppable = [
                    e for e in sorted(comm - phys)
                    if len(_components(n, comm - {e})) == 1
                ]
                if not droppable:
                    continue
                comm.remove(_pick(rng, droppable))
                moved = True
            break
        if not moved:
            break
    return comm


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


# ------------------------------------------------------------------ covers

def _from_sets(n: int, sets: Iterable[tuple[int, Iterable[int]]]) -> CoverAssignment:
    """The assignment of the (id, members) pairs whose members are not empty."""
    return CoverAssignment(n, [CoverSet(p, tuple(mem)) for p, mem in sets if mem])


def occurrence(assignment: CoverAssignment, j: int, i: int) -> int:
    """How many of node i's sets contain node j."""
    return sum(1 for p in assignment.sets_of(i) if j in assignment.set_by_id(p).members)


def _order_nodes(phys: np.ndarray, comm: np.ndarray, phase: str) -> list[int]:
    comm = comm.sum(axis=1)
    phys = phys.sum(axis=1)
    sign = 1 if phase == "establish" else -1
    return sorted(range(1, len(comm) + 1), key=lambda i: (sign * comm[i - 1], -phys[i - 1], i))


def _phys_in(phys: np.ndarray, i: int) -> frozenset[int]:
    return frozenset(int(j) + 1 for j in np.flatnonzero(phys[i - 1]))


def reference_establish(pair: NetworkPair) -> CoverAssignment:
    phys, comm = dense_adjacency(pair)
    sets: list[CoverSet] = []
    covered: dict[int, set[int]] = {i: set() for i in pair.nodes()}
    dist_cache: dict[int, np.ndarray] = {}
    next_id = 1

    for i in _order_nodes(phys, comm, "establish"):
        missing = sorted(_phys_in(phys, i) - covered[i])
        if not missing:
            continue
        new_members: set[int] = set()
        for j in missing:
            if j not in dist_cache:
                dist_cache[j] = distances_to(comm, j)
            new_members.update(shortest_path(comm, i, j, dist_cache[j]))
        sets.append(CoverSet(next_id, tuple(new_members)))
        next_id += 1
        for k in new_members:
            covered[k].update(new_members)

    in_some = set().union(*(s.members for s in sets)) if sets else set()
    for i in pair.nodes():
        if i not in in_some:
            sets.append(CoverSet(next_id, (i,)))
            next_id += 1
    return CoverAssignment(pair.n, sets)


def reference_candidate_groups(
    pi: tuple[int, ...], members: dict[int, set[int]]
) -> list[tuple[int, ...]]:
    """Every group of ``pi`` with a shared core of >= 2, by itertools."""
    max_size = len(pi) if len(pi) <= FULL_ENUMERATION_LIMIT else CAPPED_GROUP_SIZE
    out: list[tuple[int, ...]] = []
    for size in range(2, max_size + 1):
        for combo in itertools.combinations(pi, size):
            core = set(members[combo[0]])
            for p in combo[1:]:
                core &= members[p]
                if len(core) < 2:
                    break
            if len(core) >= 2:
                out.append(combo)
    return out


def _loads_from(members: dict[int, set[int]], nodes: Iterable[int]) -> dict[int, int]:
    out = {}
    for l in nodes:
        out[l] = sum(len(mem) for mem in members.values() if l in mem)
    return out


def reference_merge(assignment: CoverAssignment, pair: NetworkPair) -> CoverAssignment:
    members: dict[int, set[int]] = {s.id: set(s.members) for s in assignment.sets}
    holder: dict[int, set[int]] = {i: set() for i in pair.nodes()}
    for s in assignment.sets:
        for v in s.members:
            holder[v].add(s.id)

    for i in _order_nodes(*dense_adjacency(pair), "merge"):
        for combo in reference_candidate_groups(tuple(sorted(holder[i])), members):
            union: set[int] = set().union(*(members[p] for p in combo))
            surviving = sum(1 for p in combo if members[p])
            if not union or surviving <= 1:
                continue
            d_star = len(union)
            load = _loads_from(members, union)
            ok_balance = all(
                d_star - load[l] <= load[i] - d_star for l in union if l != i
            )
            ok_total = d_star * d_star <= sum(load[l] for l in union)
            if ok_balance and ok_total:
                members[combo[0]] = union
                for v in union:
                    holder[v].add(combo[0])
                for p in combo[1:]:
                    for v in members[p]:
                        holder[v].discard(p)
                    members[p] = set()
    return _from_sets(assignment.n, sorted(members.items()))


def reference_validate(assignment: CoverAssignment, pair: NetworkPair) -> ValidationReport:
    v: list[str] = []
    if assignment.n != pair.n:
        return ValidationReport((f"assignment covers {assignment.n} nodes, graph has {pair.n}",))
    by_id = {s.id: s for s in assignment.sets}
    phys, comm = dense_adjacency(pair)

    for i in pair.nodes():
        derived = tuple(s.id for s in assignment.sets if i in s.members)
        if not derived:
            v.append(f"node {i}: not in any cover set")
        covered = set().union(*(by_id[p].members for p in derived)) if derived else set()
        missing = sorted(_phys_in(phys, i) - covered)
        if missing:
            v.append(f"node {i}: physical neighbors {missing} not covered")

    for s in assignment.sets:
        try:
            if not all(1 <= u <= pair.n for u in s.members):
                raise GraphError("node outside the graph")
            grounded_min_eig(comm, s.members, anchor=s.members[0])
        except GraphError:
            v.append(f"set {s.id}: members {list(s.members)} induce a disconnected communication subgraph")
    return ValidationReport(tuple(v))


def reference_solve(pair: NetworkPair) -> CoverAssignment:
    return reference_merge(reference_establish(pair), pair)


def reference_spectrum_floor(assignment: CoverAssignment, pair: NetworkPair) -> float:
    comm = dense_adjacency(pair)[1]
    floor = np.inf
    for s in assignment.sets:
        for anchor in s.members:
            floor = min(floor, grounded_min_eig(comm, s.members, anchor))
    return float(floor)


# ------------------------------------------------------------------ timing

def runtime_scaling(
    sizes: Sequence[int],
    seed: int = 0,
    avg_phys_degree: float = 3.0,
    target_similarity: float = 0.85,
    repeats: int = 2,
) -> list[dict]:
    """Time the package's ``solve`` on generated pairs of growing size (best of repeats)."""
    rows = []
    for n in sizes:
        pair = gen_random_pair(
            n, avg_phys_degree, target_similarity, seed=seed * 1009 + n
        )
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            assignment = solve(pair)
            best = min(best, time.perf_counter() - t0)
        rows.append(
            {"n": n, "seconds": float(best), "total_load": assignment.total_load()}
        )
    return rows
