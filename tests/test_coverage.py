from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from coverobs.coverage import (
    CoverAssignment,
    CoverSet,
    CoverageError,
    dimension_stats,
    establish,
    load_cover,
    merge,
    merge_candidates,
    order_nodes,
    pareto_local_audit,
    save_cover,
    solve,
    validate,
)
from coverobs.netgraph import NetworkPair, star_pair

from conftest import random_pairs
from cover_oracle import occurrence, runtime_scaling


# ---------------------------------------------------------------- oracle

def cover_ok(assignment: CoverAssignment, pair: NetworkPair) -> bool:
    """Validity re-implemented from scratch: containment checks via raw sets,
    connectivity via networkx."""
    live = {s.id: set(s.members) for s in assignment.sets}
    for i in pair.nodes():
        owned = {p for p, m in live.items() if i in m}
        if not owned:
            return False
        if set(assignment.sets_of(i)) != owned:
            return False
        covered = set().union(*(live[p] for p in owned))
        if not pair.phys_neighbors(i) <= covered:
            return False
    g = nx.Graph()
    g.add_nodes_from(pair.nodes())
    for a in pair.nodes():
        for b in pair.comm_neighbors(a):
            g.add_edge(a, b)
    return all(nx.is_connected(g.subgraph(m)) for m in live.values())


def members_of(assignment: CoverAssignment) -> set[tuple[int, ...]]:
    return {s.members for s in assignment.sets}


# ---------------------------------------------------------- node ordering

def test_order_star(star9):
    # establish: leaves first (low comm degree), hub last
    assert order_nodes(star9, "establish") == [2, 3, 4, 5, 6, 7, 8, 9, 1]
    assert order_nodes(star9, "merge") == [1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_order_breaks_ties_by_phys_degree_then_id():
    # comm: path 1-2-3-4; phys: node 3 has two in-neighbors, node 2 has one
    comm = [(1, 2), (2, 3), (3, 4)]
    phys = [(2, 3), (4, 3), (1, 2)]
    pair = NetworkPair.from_edges(4, phys, comm)
    # comm degrees: 1,4 -> 1; 2,3 -> 2.  phys in-degrees: 3 -> 2, 2 -> 1.
    assert order_nodes(pair, "establish") == [1, 4, 3, 2]
    assert order_nodes(pair, "merge") == [3, 2, 1, 4]

    with pytest.raises(ValueError):
        order_nodes(pair, "later")


# -------------------------------------------------------------- establish

def test_establish_star_exact(star9):
    assignment = establish(star9)
    assert members_of(assignment) == {(1, k) for k in range(2, 10)}
    # leaves processed in id order, so ids follow the leaf order
    assert [s.members for s in assignment.sets] == [(1, k) for k in range(2, 10)]
    assert assignment.sets_of(1) == tuple(range(1, 9))
    assert assignment.sets_of(5) == (4,)


def test_establish_two_cluster_exact(two_cluster_pair):
    assignment = establish(two_cluster_pair)
    assert [s.members for s in assignment.sets] == [(1, 2, 3), (4, 5, 6), (3, 4)]
    assert assignment.covered(3) >= {1, 2, 4}


def test_establish_chain_cluster_exact(chain_cluster_pair):
    assignment = establish(chain_cluster_pair)
    assert [s.members for s in assignment.sets] == [
        (1, 2, 3, 4),
        (5, 6, 7, 8),
        (3, 5),
    ]
    assert assignment.load(3) == 6 and assignment.load(5) == 6
    assert assignment.total_load() == 36


def test_establish_gives_neighbor_coverage_on_fuzz():
    for pair in random_pairs(40, max_n=14, seed=5):
        assignment = establish(pair)
        for i in pair.nodes():
            assert pair.phys_neighbors(i) <= assignment.covered(i)


def test_isolated_node_gets_singleton():
    # node 1 exchanges messages but influences/depends on nobody, and lies on
    # no collection path
    pair = NetworkPair.from_edges(3, [(2, 3), (3, 2)], [(1, 2), (2, 3)])
    assignment = establish(pair)
    assert (1,) in members_of(assignment)
    assert validate(assignment, pair).ok


def test_relay_node_needs_no_singleton():
    # node 1 relays the only communication route between 2 and 3, so the path
    # set {2,1,3} already contains it
    pair = NetworkPair.from_edges(3, [(2, 3), (3, 2)], [(2, 1), (1, 3)])
    assignment = establish(pair)
    assert members_of(assignment) == {(1, 2, 3)}


# --------------------------------------------------------- candidate groups

def _manual(n: int, members: list[tuple[int, ...]]) -> CoverAssignment:
    return CoverAssignment(n, [CoverSet(k + 1, m) for k, m in enumerate(members)])


def test_candidates_need_shared_core_of_two():
    a = _manual(5, [(1, 2, 3), (1, 4), (1, 2, 5)])
    # sets 1 and 3 share {1,2}; set 2 shares only node 1 with either
    assert merge_candidates(a, 1) == [(1, 3)]
    assert merge_candidates(a, 4) == []


def test_candidates_enumeration_order():
    a = _manual(5, [(1, 2, 3), (1, 2, 4), (1, 2, 5)])
    assert merge_candidates(a, 1) == [(1, 2), (1, 3), (2, 3), (1, 2, 3)]


def test_candidates_capped_beyond_limit():
    many = [tuple(sorted({1, 2, 3 + k})) for k in range(21)]
    a = _manual(30, many)
    combos = merge_candidates(a, 1)
    assert max(len(c) for c in combos) == 3
    assert len(combos) == 21 * 20 // 2 + 21 * 20 * 19 // 6


# ------------------------------------------------------------------- merge

def line_pair(n: int, phys_edges=()) -> NetworkPair:
    comm = [(k, k + 1) for k in range(1, n)]
    return NetworkPair.from_edges(n, phys_edges, comm)


def test_merge_absorbs_contained_set():
    pair = NetworkPair.from_edges(3, [], [(1, 2), (2, 3), (1, 3)])
    a = _manual(3, [(1, 2, 3), (2, 3)])
    merged = merge(a, pair)
    assert [s.members for s in merged.sets] == [(1, 2, 3)]
    assert merged.sets_of(2) == (1,)
    assert merged.sets_of(3) == (1,)


def test_merge_fires_on_exact_tie():
    # overlap {3,4}; fused size 5; load sum over the union is exactly 25 and
    # the balance margin is exactly met, and ties are allowed to fire
    pair = line_pair(5)
    a = _manual(5, [(1, 2, 3, 4), (3, 4, 5)])
    merged = merge(a, pair)
    assert [s.members for s in merged.sets] == [(1, 2, 3, 4, 5)]


def test_merge_blocked_by_load_budget():
    # fused size 6 but the union's loads only sum to 32 < 36
    pair = line_pair(6)
    a = _manual(6, [(1, 2, 3, 4), (3, 4, 5, 6)])
    merged = merge(a, pair)
    assert members_of(merged) == {(1, 2, 3, 4), (3, 4, 5, 6)}


def test_merge_blocked_by_imbalance():
    # node 7 carries load 3; fusing to size 7 would cost it 4 while the host
    # only has 2 to spare
    pair = line_pair(7)
    a = _manual(7, [(1, 2, 3, 4, 5, 6), (5, 6, 7)])
    merged = merge(a, pair)
    assert members_of(merged) == {(1, 2, 3, 4, 5, 6), (5, 6, 7)}


def test_merge_skips_groups_emptied_by_earlier_fuse():
    pair = NetworkPair.from_edges(3, [], [(1, 2), (2, 3), (1, 3)])
    a = _manual(3, [(1, 2, 3), (1, 2, 3), (1, 2, 3)])
    merged = merge(a, pair)
    assert [s.members for s in merged.sets] == [(1, 2, 3)]


def test_merge_keeps_star_cover(star9):
    before = establish(star9)
    after = merge(before, star9)
    assert members_of(after) == members_of(before)


def test_merge_preserves_validity_and_ids_on_fuzz():
    for pair in random_pairs(40, max_n=14, seed=9):
        first = establish(pair)
        second = merge(first, pair)
        # the survivors keep their ids, in establish's order
        ids = iter(s.id for s in first.sets)
        assert all(s.id in ids for s in second.sets)
        assert cover_ok(second, pair)


def test_merge_can_trade_total_load_for_balance():
    # the load-budget test compares the fused size against node loads, which
    # count overlapping sets once per membership, so a fuse that balances
    # loads may still raise the global sum.  Pin one such instance.
    grew = [
        (establish(p).total_load(), merge(establish(p), p).total_load(), p)
        for p in random_pairs(40, max_n=14, seed=9)
    ]
    growth_cases = [(b, a) for b, a, p in grew if a > b]
    assert growth_cases, "corpus no longer exercises the growth path"
    assert (104, 114) in growth_cases


# ------------------------------------------------------------------- solve

def test_solve_star_exact(star9):
    assignment = solve(star9)
    assert members_of(assignment) == {(1, k) for k in range(2, 10)}


def test_solve_two_cluster(two_cluster_pair):
    assignment = solve(two_cluster_pair)
    assert members_of(assignment) == {(1, 2, 3), (4, 5, 6), (3, 4)}
    assert assignment.total_load() == 22


def test_solve_chain_cluster(chain_cluster_pair):
    assignment = solve(chain_cluster_pair)
    assert members_of(assignment) == {(1, 2, 3, 4), (5, 6, 7, 8), (3, 5)}
    assert assignment.total_load() == 36


def test_solve_valid_and_deterministic_on_fuzz():
    for pair in random_pairs(60, max_n=16, seed=17):
        a = solve(pair)
        b = solve(pair)
        assert [(s.id, s.members) for s in a.sets] == [(s.id, s.members) for s in b.sets]
        assert a.membership == b.membership
        assert cover_ok(a, pair)
        assert validate(a, pair).ok


def test_load_bookkeeping_identity():
    # summing loads over nodes equals summing squared sizes over sets
    for pair in random_pairs(25, max_n=14, seed=21):
        a = solve(pair)
        assert a.total_load() == sum(len(s.members) ** 2 for s in a.sets)


def test_occurrence_counts(two_cluster_pair):
    a = solve(two_cluster_pair)
    assert occurrence(a, 3, 3) == 2  # node 3 appears in both of its sets
    assert occurrence(a, 4, 3) == 1
    assert occurrence(a, 1, 4) == 0


# ---------------------------------------------------------------- validate

def test_validate_flags_uncovered_neighbor():
    pair = NetworkPair.from_edges(3, [(3, 1)], [(1, 2), (2, 3)])
    a = _manual(3, [(1, 2), (3,)])
    report = validate(a, pair)
    assert not report.ok
    assert any("neighbors [3] not covered" in v for v in report.violations)


def test_validate_flags_nodeless():
    pair = NetworkPair.from_edges(3, [], [(1, 2), (2, 3)])
    a = _manual(3, [(1, 2)])
    report = validate(a, pair)
    assert any("node 3: not in any cover set" in v for v in report.violations)


def test_validate_flags_disconnected_set():
    pair = NetworkPair.from_edges(4, [], [(1, 2), (2, 3), (3, 4)])
    a = _manual(4, [(1, 4), (2,), (3,)])
    report = validate(a, pair)
    assert any("disconnected" in v for v in report.violations)


# ------------------------------------------------------------------- stats

def test_dimension_stats_star(star9):
    stats = dimension_stats(solve(star9), block_order=2)
    assert stats.max_dim == 32  # the hub tracks all 8 pair sets
    assert stats.min_dim == 4
    assert stats.mean_dim == pytest.approx(64.0 / 9.0)
    assert stats.mean_reduction == pytest.approx(1.0 - (64.0 / 9.0) / 18.0)
    assert stats.max_reduction < 0  # hub exceeds the full-state dimension


# ------------------------------------------------------------------- audit

def test_audit_accepts_fixture_covers(star9, two_cluster_pair, chain_cluster_pair):
    for pair in (star9, two_cluster_pair, chain_cluster_pair):
        ok, why = pareto_local_audit(solve(pair), pair)
        assert ok, why


def test_audit_rejects_duplicate_set():
    pair = NetworkPair.from_edges(2, [(1, 2), (2, 1)], [(1, 2)])
    a = _manual(2, [(1, 2), (1, 2)])
    ok, why = pareto_local_audit(a, pair)
    assert not ok
    assert why


def test_audit_rejects_padded_set():
    # node 3 rides along in {1,2,3} although nothing requires it there
    pair = NetworkPair.from_edges(3, [(1, 2), (2, 1)], [(1, 2), (2, 3)])
    a = _manual(3, [(1, 2, 3), (3,)])
    ok, why = pareto_local_audit(a, pair)
    assert not ok
    assert "drop node 3" in why


def test_audit_finds_merge_induced_redundancy():
    # a fuse can retroactively make an earlier path set redundant for its
    # owner; nothing in the pipeline prunes it, and the audit must say so.
    # Here node 1 builds {1,3} to see neighbor 3, then the fuse at node 7
    # grows node 1's other set to {1,2,3,4,6,7}, covering 3 twice.
    phys = [
        (3, 1), (7, 1), (4, 2), (6, 2), (7, 2), (1, 3), (4, 3), (5, 3),
        (6, 3), (2, 4), (3, 4), (5, 4), (8, 4), (3, 5), (4, 5), (2, 6),
        (3, 6), (1, 7), (2, 7), (4, 8),
    ]
    comm = [
        (1, 3), (1, 4), (1, 7), (2, 6), (3, 4), (3, 5), (3, 7), (4, 5),
        (4, 8), (6, 7),
    ]
    pair = NetworkPair.from_edges(8, phys, comm)
    a = solve(pair)
    assert [s.members for s in a.sets] == [
        (1, 2, 3, 4, 6, 7),
        (4, 8),
        (3, 4, 5),
        (1, 3),
    ]
    ok, why = pareto_local_audit(a, pair)
    assert not ok
    assert why == "drop node 1 from set 5"


# ----------------------------------------------------------------- timing

def test_runtime_scaling_smoke():
    rows = runtime_scaling([20, 40], seed=3)
    assert [r["n"] for r in rows] == [20, 40]
    assert all(r["seconds"] > 0 for r in rows)
    assert all(r["total_load"] > 0 for r in rows)


# ---------------------------------------------------------------- file io

def test_cover_round_trip(tmp_path, two_cluster_pair):
    a = solve(two_cluster_pair)
    p = tmp_path / "cover.json"
    save_cover(a, p, manifest_hash="abc123")
    loaded = load_cover(p, two_cluster_pair)
    assert members_of(loaded) == members_of(a)
    assert loaded.membership == a.membership
    assert loaded.loads() == a.loads()


def test_cover_load_rejects_tampered_membership(tmp_path, two_cluster_pair):
    import json

    a = solve(two_cluster_pair)
    p = tmp_path / "cover.json"
    save_cover(a, p)
    doc = json.loads(p.read_text())
    doc["membership"]["1"] = []
    p.write_text(json.dumps(doc))
    with pytest.raises(CoverageError, match="membership"):
        load_cover(p, two_cluster_pair)
