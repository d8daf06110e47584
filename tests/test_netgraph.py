from __future__ import annotations

import json
import math
import re
from collections import deque
from itertools import permutations

import networkx as nx
import numpy as np
import pytest

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
)

from conftest import random_pairs


# ---------------------------------------------------------------- oracles

def bfs_distance(pair: NetworkPair, a: int, b: int) -> int:
    """Plain queue BFS, written independently of the library implementation."""
    if a == b:
        return 0
    seen = {a}
    frontier = deque([(a, 0)])
    while frontier:
        u, d = frontier.popleft()
        for v in sorted(pair.comm_neighbors(u)):
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
        for v in sorted(pair.comm_neighbors(u)):
            if v not in path:
                path.append(v)
                extend(path)
                path.pop()

    extend([a])
    return found


# ------------------------------------------------------------ construction

def test_rejects_disconnected_comm():
    comm = np.zeros((4, 4), dtype=bool)
    comm[0, 1] = comm[1, 0] = True
    comm[2, 3] = comm[3, 2] = True
    with pytest.raises(GraphError, match="disconnected"):
        NetworkPair(4, np.zeros((4, 4), dtype=bool), comm)


def test_rejects_asymmetric_comm():
    comm = np.zeros((3, 3), dtype=bool)
    comm[0, 1] = comm[1, 0] = True
    comm[1, 2] = True
    with pytest.raises(GraphError, match="symmetric"):
        NetworkPair(3, np.zeros((3, 3), dtype=bool), comm)


def test_rejects_self_loops_and_bad_shapes():
    comm = np.zeros((3, 3), dtype=bool)
    comm[0, 1] = comm[1, 0] = True
    comm[1, 2] = comm[2, 1] = True
    phys = np.zeros((3, 3), dtype=bool)
    phys[1, 1] = True
    with pytest.raises(GraphError, match="diagonal"):
        NetworkPair(3, phys, comm)
    with pytest.raises(GraphError, match="shape"):
        NetworkPair(3, np.zeros((2, 2), dtype=bool), comm)


def test_phys_edges_are_directed_as_written():
    comm = [(1, 2)]
    pair = NetworkPair.from_edges(2, [(2, 1)], comm)
    assert pair.phys_neighbors(1) == {2}
    assert pair.phys_neighbors(2) == frozenset()


def test_single_node_pair_is_fine():
    pair = NetworkPair(1, np.zeros((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool))
    assert pair.comm_neighbors(1) == frozenset()


# ----------------------------------------------------------- shortest path

def test_path_on_five_cycle():
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    pair = NetworkPair.from_edges(5, [], edges)
    assert shortest_path(pair, 1, 3) == [1, 2, 3]


def test_path_tie_break_prefers_smaller_nodes():
    # 1-2-4 and 1-3-4 are both shortest; the lexicographically smaller wins.
    edges = [(1, 2), (1, 3), (2, 4), (3, 4)]
    pair = NetworkPair.from_edges(4, [], edges)
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
    pair = NetworkPair.from_edges(3, [(1, 2), (2, 1), (2, 3), (3, 2)], [(2, 3), (1, 3)])
    # undirected physical edges {12, 23}; comm {23, 13}; one shared
    assert similarity(pair) == pytest.approx(0.5)

    same = NetworkPair.from_edges(3, [(1, 2), (2, 1), (2, 3), (3, 2)], [(1, 2), (2, 3)])
    assert similarity(same) == pytest.approx(1.0)

    disjoint = NetworkPair.from_edges(3, [(1, 3), (3, 1)], [(1, 2), (2, 3)])
    assert similarity(disjoint) == pytest.approx(0.0)


def test_similarity_rejects_empty_graphs():
    pair = NetworkPair(1, np.zeros((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool))
    with pytest.raises(GraphError, match="undefined"):
        similarity(pair)


def test_similarity_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    for pair in random_pairs(10, max_n=7, seed=23):
        base = similarity(pair)
        perm = rng.permutation(pair.n)
        phys = pair.phys_adj[np.ix_(perm, perm)]
        comm = pair.comm_adj[np.ix_(perm, perm)]
        assert similarity(NetworkPair(pair.n, phys, comm)) == pytest.approx(base)


# ------------------------------------------------------- grounded spectrum

def test_grounded_two_node_closed_form():
    pair = NetworkPair.from_edges(2, [], [(1, 2)])
    spectrum = grounded_spectrum(pair, [1, 2], anchor=1)
    assert spectrum.grounded_min_eig == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0)
    # anchoring the other node gives the same value by symmetry here
    spectrum2 = grounded_spectrum(pair, [1, 2], anchor=2)
    assert spectrum2.grounded_min_eig == pytest.approx(spectrum.grounded_min_eig)


def test_grounded_positive_and_matches_networkx():
    for pair in random_pairs(12, max_n=8, seed=31):
        g = nx.Graph()
        g.add_nodes_from(pair.nodes())
        for a in pair.nodes():
            for b in pair.comm_neighbors(a):
                g.add_edge(a, b)
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
            assert spectrum.grounded_min_eig == pytest.approx(oracle, abs=1e-12)
            assert spectrum.grounded_min_eig > 0.0


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
    assert np.array_equal(a.phys_adj, b.phys_adj)
    assert np.array_equal(a.comm_adj, b.comm_adj)
    c = gen_random_pair(12, 3.0, 0.8, seed=43)
    assert not (
        np.array_equal(a.phys_adj, c.phys_adj)
        and np.array_equal(a.comm_adj, c.comm_adj)
    )


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
    assert np.array_equal(pair.phys_adj, pair.phys_adj.T)
    mean_deg = pair.phys_adj.sum() / n
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
    ({"max_tries": 0}, "max_tries must be >= 1"),
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
    assert np.array_equal(pair.phys_adj, pair.comm_adj)


def test_star_pair_shape():
    pair = star_pair(9)
    assert pair.phys_neighbors(1) == set(range(2, 10))
    assert pair.comm_neighbors(5) == {1}
    assert similarity(pair) == pytest.approx(1.0)


# ----------------------------------------------------------------- file io

def test_round_trip(tmp_path, chain_cluster_pair):
    p = tmp_path / "pair.json"
    save_pair(chain_cluster_pair, p)
    loaded = load_pair(p)
    assert np.array_equal(loaded.phys_adj, chain_cluster_pair.phys_adj)
    assert np.array_equal(loaded.comm_adj, chain_cluster_pair.comm_adj)
    doc = json.loads(p.read_text())
    assert set(doc) == {"n", "phys_edges", "comm_edges"}


def test_round_trip_preserves_direction(tmp_path):
    pair = NetworkPair.from_edges(3, [(3, 1)], [(1, 2), (2, 3)])
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
