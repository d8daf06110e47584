from __future__ import annotations

import json
import math
import re
import tracemalloc
from collections import deque
from itertools import permutations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from coverobs import netgraph
from coverobs.netgraph import (
    GraphError,
    NetworkPair,
    gen_random_pair,
    grounded_spectrum,
    load_pair,
    save_pair,
    shortest_path,
    similarity,
    star_pair,
    subgraph_laplacian,
)

from conftest import random_pairs
from cover_oracle import dense_adjacency


# ---------------------------------------------------------------- oracles

def comm_neighbors(pair: NetworkPair, u: int) -> list[int]:
    """Communication neighbors of u, ascending, read from the edge list."""
    edges = pair.comm_edges
    return sorted([b for a, b in edges if a == u] + [a for a, b in edges if b == u])


def bfs_distance(pair: NetworkPair, a: int, b: int) -> int:
    """Plain queue BFS, written independently of the library implementation."""
    if a == b:
        return 0
    seen = {a}
    frontier = deque([(a, 0)])
    while frontier:
        u, d = frontier.popleft()
        for v in comm_neighbors(pair, u):
            if v == b:
                return d + 1
            if v not in seen:
                seen.add(v)
                frontier.append((v, d + 1))
    return -1


def all_shortest_paths(pair: NetworkPair, a: int, b: int) -> list[list[int]]:
    """Exhaustive enumeration of shortest paths (small graphs only)."""
    target = bfs_distance(pair, a, b)
    if target < 0:
        return []
    found: list[list[int]] = []

    def extend(path: list[int]) -> None:
        u = path[-1]
        if u == b:
            if len(path) - 1 == target:
                found.append(list(path))
            return
        if len(path) - 1 >= target:
            return
        for v in comm_neighbors(pair, u):
            if v not in path:
                path.append(v)
                extend(path)
                path.pop()

    extend([a])
    return found


# ------------------------------------------------------------ construction

def test_rejects_disconnected_comm():
    with pytest.raises(GraphError, match="disconnected"):
        NetworkPair(4, [], [(1, 2), (3, 4)])
    # as many links as a tree, none of them reaching node 4
    with pytest.raises(GraphError, match="disconnected"):
        NetworkPair(4, [], [(1, 2), (2, 3), (1, 3)])


def test_too_few_links_are_refused_before_the_index_is_built():
    # a billion nodes without a link once built their neighbour lists and
    # frozensets before the connectivity check, and were killed at 7.7 GB
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="communication graph is disconnected"):
            NetworkPair(10**9, [], [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_comm_edges_are_symmetric_in_either_order():
    # a communication link is undirected: either order, or both, gives the
    # same pair, and repeated edges of either graph are stored once
    one = NetworkPair(3, [(1, 2)], [(1, 2), (2, 3)])
    other = NetworkPair(3, [(1, 2), (1, 2)], [(3, 2), (2, 1), (1, 2)])
    assert one == other and hash(one) == hash(other)
    assert other.comm_edges == ((1, 2), (2, 3))
    assert other.phys_edges == ((1, 2),)
    assert other.comm_nbrs == ((1,), (0, 2), (1,))
    assert one != NetworkPair(3, [(2, 1)], [(1, 2), (2, 3)])


@pytest.mark.parametrize("n, phys, comm, message", [
    (3, [(2, 2)], [(1, 2), (2, 3)], "bad physical edge [2, 2] for n=3"),
    (3, [], [(1, 2), (3, 3)], "bad communication edge [3, 3] for n=3"),
    (3, [(1, 4)], [(1, 2), (2, 3)], "bad physical edge [1, 4] for n=3"),
    (3, [], [(0, 1), (1, 2), (2, 3)], "bad communication edge [0, 1] for n=3"),
    (3, [(1.5, 2)], [(1, 2), (2, 3)], "bad physical edge [1.5, 2] for n=3"),
    (3, [], [(1, 2), (2, 3.0)], "bad communication edge [2, 3.0] for n=3"),
    (3, [(True, 2)], [(1, 2), (2, 3)], "bad physical edge [True, 2] for n=3"),
    (5.7, [], [(1, 2)], "node count must be a positive integer, got 5.7"),
    (3.0, [], [(1, 2), (2, 3)], "node count must be a positive integer, got 3.0"),
    (0, [], [], "node count must be a positive integer, got 0"),
], ids=[
    "phys-self-loop", "comm-self-loop", "phys-id-above-n", "comm-id-zero", "phys-float-id",
    "comm-float-id", "phys-bool-id", "fractional-n", "float-n", "zero-n",
])
def test_rejects_self_loops_and_bad_ids(n, phys, comm, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        NetworkPair(n, phys, comm)


def test_numpy_ids_are_stored_as_ints():
    pair = NetworkPair(np.int64(2), [(np.int32(2), np.int64(1))], np.array([[2, 1]]))
    assert pair == NetworkPair(2, [(2, 1)], [(1, 2)])
    assert all(type(v) is int for e in pair.phys_edges + pair.comm_edges for v in e)
    assert type(pair.n) is int


def test_phys_edges_are_directed_as_written():
    comm = [(1, 2)]
    pair = NetworkPair(2, [(2, 1)], comm)
    assert pair.phys_neighbors(1) == {2}
    assert pair.phys_neighbors(2) == frozenset()


def test_single_node_pair_is_fine():
    pair = NetworkPair(1, [], [])
    assert pair.comm_nbrs == ((),) and pair.phys_neighbors(1) == frozenset()


# ----------------------------------------------------------- shortest path

def test_path_on_five_cycle():
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    pair = NetworkPair(5, [], edges)
    assert shortest_path(pair, 1, 3) == [1, 2, 3]


def test_path_tie_break_prefers_smaller_nodes():
    # 1-2-4 and 1-3-4 are both shortest; the lexicographically smaller wins.
    edges = [(1, 2), (1, 3), (2, 4), (3, 4)]
    pair = NetworkPair(4, [], edges)
    assert shortest_path(pair, 1, 4) == [1, 2, 4]


def test_path_on_chain(chain_cluster_pair):
    assert shortest_path(chain_cluster_pair, 1, 4) == [1, 2, 3, 4]
    assert shortest_path(chain_cluster_pair, 8, 5) == [8, 7, 6, 5]
    assert shortest_path(chain_cluster_pair, 5, 3) == [5, 3]


def test_path_endpoints_and_trivial_case(star9):
    assert shortest_path(star9, 4, 4) == [4]
    assert shortest_path(star9, 2, 9) == [2, 1, 9]
    with pytest.raises(GraphError, match="outside"):
        shortest_path(star9, 0, 3)


def test_path_matches_bfs_and_lex_oracle():
    for pair in random_pairs(25, max_n=8, seed=11):
        for a in pair.nodes():
            for b in pair.nodes():
                path = shortest_path(pair, a, b)
                assert path[0] == a and path[-1] == b
                assert len(path) - 1 == bfs_distance(pair, a, b)
                candidates = all_shortest_paths(pair, a, b)
                assert path == min(candidates)


# -------------------------------------------------------------- similarity

def test_similarity_hand_values():
    pair = NetworkPair(3, [(1, 2), (2, 1), (2, 3), (3, 2)], [(2, 3), (1, 3)])
    # undirected physical edges {12, 23}; comm {23, 13}; one shared
    assert similarity(pair) == pytest.approx(0.5)

    same = NetworkPair(3, [(1, 2), (2, 1), (2, 3), (3, 2)], [(1, 2), (2, 3)])
    assert similarity(same) == pytest.approx(1.0)

    disjoint = NetworkPair(3, [(1, 3), (3, 1)], [(1, 2), (2, 3)])
    assert similarity(disjoint) == pytest.approx(0.0)


def test_similarity_rejects_empty_graphs():
    pair = NetworkPair(1, [], [])
    with pytest.raises(GraphError, match="undefined"):
        similarity(pair)


def test_similarity_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    for pair in random_pairs(10, max_n=7, seed=23):
        base = similarity(pair)
        label = dict(zip(pair.nodes(), (rng.permutation(pair.n) + 1).tolist()))
        phys = [(label[s], label[d]) for s, d in pair.phys_edges]
        comm = [(label[a], label[b]) for a, b in pair.comm_edges]
        assert similarity(NetworkPair(pair.n, phys, comm)) == pytest.approx(base)


# ------------------------------------------------------- grounded spectrum

def test_grounded_two_node_closed_form():
    pair = NetworkPair(2, [], [(1, 2)])
    spectrum = grounded_spectrum(pair, [1, 2], anchor=1)
    assert spectrum == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0)
    # anchoring the other node gives the same value by symmetry here
    spectrum2 = grounded_spectrum(pair, [1, 2], anchor=2)
    assert spectrum2 == pytest.approx(spectrum)


def test_grounded_positive_and_matches_networkx():
    for pair in random_pairs(12, max_n=8, seed=31):
        g = nx.Graph()
        g.add_nodes_from(pair.nodes())
        g.add_edges_from(pair.comm_edges)
        nodes = sorted(pair.nodes())[: max(2, pair.n - 2)]
        sub = g.subgraph(nodes)
        if not nx.is_connected(sub):
            with pytest.raises(GraphError, match="disconnected"):
                grounded_spectrum(pair, nodes, anchor=nodes[0])
            continue
        for anchor in nodes:
            spectrum = grounded_spectrum(pair, nodes, anchor=anchor)
            lap = nx.laplacian_matrix(sub, nodelist=nodes).toarray().astype(float)
            lap[nodes.index(anchor), nodes.index(anchor)] += 1.0
            oracle = float(np.linalg.eigvalsh(lap)[0])
            assert spectrum == pytest.approx(oracle, abs=1e-12)
            assert spectrum > 0.0


def test_grounded_input_validation(star9):
    with pytest.raises(GraphError, match="anchor"):
        grounded_spectrum(star9, [1, 2], anchor=3)
    with pytest.raises(GraphError, match="distinct"):
        grounded_spectrum(star9, [1, 1, 2], anchor=1)
    with pytest.raises(GraphError, match="disconnected"):
        grounded_spectrum(star9, [2, 3], anchor=2)


# ---------------------------------------------------------------- generator

def test_generator_deterministic():
    a = gen_random_pair(12, 3.0, 0.8, seed=42)
    b = gen_random_pair(12, 3.0, 0.8, seed=42)
    assert a == b and hash(a) == hash(b)
    c = gen_random_pair(12, 3.0, 0.8, seed=43)
    assert a != c


@pytest.mark.parametrize("n,deg,target", [
    (8, 2.0, 0.7),
    (12, 3.0, 0.85),
    (20, 3.0, 0.8),
    (47, 3.0, 0.85),
    (30, 4.0, 0.6),
])
def test_generator_hits_target(n, deg, target):
    pair = gen_random_pair(n, deg, target, seed=5)
    assert abs(similarity(pair) - target) <= 0.05
    phys, _ = dense_adjacency(pair)
    assert np.array_equal(phys, phys.T)
    mean_deg = phys.sum() / n
    assert abs(mean_deg - deg) <= 1.2


@pytest.mark.parametrize("change, message", [
    ({"seed": -3}, "seed must be a non-negative integer"),
    ({"seed": 1.5}, "seed must be a non-negative integer"),
    ({"avg_phys_degree": math.nan}, "average degree must be finite"),
    ({"avg_phys_degree": math.inf}, "average degree must be finite"),
    ({"avg_phys_degree": -2.0}, "average degree must be finite and >= 0"),
    ({"tol": -1.0}, "tolerance must be finite and >= 0"),
    ({"tol": math.nan}, "tolerance must be finite"),
    ({"target_similarity": math.nan}, "outside [0, 1]"),
    ({"target_similarity": 1.5}, "outside [0, 1]"),
    ({"n": 1}, "at least 2 nodes"),
])
def test_generator_rejects_bad_parameters_before_drawing(monkeypatch, change, message):
    def no_draws(*args):
        raise AssertionError("drew before checking its parameters")

    monkeypatch.setattr(netgraph.np.random, "default_rng", no_draws)
    params = dict(n=5, avg_phys_degree=2.0, target_similarity=0.8, seed=0, tol=0.05)
    with pytest.raises(GraphError, match=re.escape(message)):
        gen_random_pair(**{**params, **change})


def test_spanning_tree_draws_equal_scalar_draws():
    # the tree's attachment draws are one integers() call with an array of
    # bounds; they must be the draws, and leave the stream where, the n - 1
    # scalar calls they replace would
    batched, scalar = np.random.default_rng(7), np.random.default_rng(7)
    for n in [*range(2, 41), 47, 100, 400, 800, 1600]:
        order = scalar.permutation(n) + 1
        want = set()
        for k in range(1, n):
            a, b = int(order[k]), int(order[scalar.integers(0, k)])
            want.add((min(a, b), max(a, b)))
        assert netgraph._spanning_tree_edges(batched, n) == want
    assert batched.integers(0, 2**62) == scalar.integers(0, 2**62)


def test_generator_similarity_one_copies_graph():
    pair = gen_random_pair(9, 2.5, 1.0, seed=3)
    assert similarity(pair) == pytest.approx(1.0)
    phys, comm = dense_adjacency(pair)
    assert np.array_equal(phys, comm)


def test_star_pair_shape():
    pair = star_pair(9)
    assert pair.phys_neighbors(1) == set(range(2, 10))
    assert pair.comm_edges == tuple((1, k) for k in range(2, 10))
    assert similarity(pair) == pytest.approx(1.0)


# ----------------------------------------------------------------- file io

def test_round_trip(tmp_path, chain_cluster_pair):
    p = tmp_path / "pair.json"
    save_pair(chain_cluster_pair, p)
    loaded = load_pair(p)
    assert loaded == chain_cluster_pair
    for got, want in zip(dense_adjacency(loaded), dense_adjacency(chain_cluster_pair)):
        assert np.array_equal(got, want)
    doc = json.loads(p.read_text())
    assert set(doc) == {"n", "phys_edges", "comm_edges"}


def test_round_trip_preserves_direction(tmp_path):
    pair = NetworkPair(3, [(3, 1)], [(1, 2), (2, 3)])
    p = tmp_path / "pair.json"
    save_pair(pair, p)
    loaded = load_pair(p)
    assert loaded.phys_neighbors(1) == {3}
    assert loaded.phys_neighbors(3) == frozenset()


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GraphError, match="JSON"):
        load_pair(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(GraphError, match="keys"):
        load_pair(empty)


# ------------------------------------------------- a pair is its edge lists

@st.composite
def hand_made_edges(draw):
    """Raw edge lists: a communication spanning tree plus extra links, some
    repeated and some written in both orders, and directed physical edges
    with repeats, each list in random order."""
    n = draw(st.integers(1, 10))
    order = draw(st.permutations(range(1, n + 1)))
    comm = [(order[k], order[draw(st.integers(0, k - 1))]) for k in range(1, n)]
    node_pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    phys = []
    if node_pairs:
        comm += draw(st.lists(st.sampled_from(node_pairs), max_size=2 * n))
        comm += [(b, a) for a, b in draw(st.lists(st.sampled_from(comm), max_size=n))]
        phys = draw(st.lists(st.sampled_from(node_pairs), max_size=3 * n))
    return n, draw(st.permutations(phys)), draw(st.permutations(comm))


@st.composite
def generated_edges(draw):
    """The edge lists of a generated pair, on the recipe of random_pairs."""
    n = draw(st.integers(4, 30))
    deg = draw(st.floats(1.5, min(4.0, n - 1)))
    sim = draw(st.floats(0.55, 0.95))
    try:
        pair = gen_random_pair(n, deg, sim, seed=draw(st.integers(0, 10**6)), tol=0.08)
    except GraphError:
        assume(False)
    return pair.n, list(pair.phys_edges), list(pair.comm_edges)


def dense_reference(n, phys_edges, comm_edges):
    """Boolean matrices of raw edge lists, and the pair file a pair held as
    those matrices was saved as: the physical edges as the sorted
    (column + 1, row + 1) of the nonzeros, the communication edges as the
    nonzeros of the upper triangle."""
    phys = np.zeros((n, n), dtype=bool)
    comm = np.zeros((n, n), dtype=bool)
    for s, d in phys_edges:
        phys[d - 1, s - 1] = True
    for a, b in comm_edges:
        comm[a - 1, b - 1] = comm[b - 1, a - 1] = True
    rows, cols = np.nonzero(phys)
    upper_rows, upper_cols = np.nonzero(np.triu(comm))
    doc = {
        "n": n,
        "phys_edges": sorted([int(c) + 1, int(r) + 1] for r, c in zip(rows, cols)),
        "comm_edges": [[int(a) + 1, int(b) + 1] for a, b in zip(upper_rows, upper_cols)],
    }
    return phys, comm, json.dumps(doc, indent=2, sort_keys=True) + "\n"


def bfs_order(comm: np.ndarray, start: int) -> list[int]:
    """1-based nodes in breadth-first order from ``start``: every prefix
    induces a connected subgraph."""
    seen, queue = [start], deque([start])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(comm[u - 1]) + 1:
            if v not in seen:
                seen.append(int(v))
                queue.append(int(v))
    return seen


@settings(
    max_examples=80, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.one_of(hand_made_edges(), generated_edges()), st.data())
def test_pair_is_its_edges(tmp_path, edges, data):
    n, phys_edges, comm_edges = edges
    pair = NetworkPair(n, phys_edges, comm_edges)
    phys, comm, want = dense_reference(n, phys_edges, comm_edges)
    path = tmp_path / "pair.json"
    save_pair(pair, path)
    assert path.read_text() == want
    loaded = load_pair(path)
    assert loaded == pair and hash(loaded) == hash(pair) and len({loaded, pair}) == 1

    undirected = np.triu(phys | phys.T)
    total = int(undirected.sum() + np.triu(comm).sum())
    if total:
        assert similarity(pair) == 2.0 * int((undirected & comm).sum()) / total
    else:
        with pytest.raises(GraphError, match="undefined"):
            similarity(pair)

    order = bfs_order(comm, data.draw(st.sampled_from(range(1, n + 1))))
    for nodes in (order[: data.draw(st.integers(1, n))], data.draw(st.permutations(order))):
        idx = np.array(nodes) - 1
        sub = comm[np.ix_(idx, idx)].astype(float)
        assert np.array_equal(subgraph_laplacian(pair, nodes), np.diag(sub.sum(axis=1)) - sub)
