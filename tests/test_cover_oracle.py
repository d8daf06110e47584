"""Indexed generator, cover solver and spectrum floor against the reference.

The package's generator, ``solve``, ``validate`` and cover spectrum floor
must reproduce ``cover_oracle`` exactly: the same saved bytes, the same
validation messages and the same floating-point floor.  The floor's screen
must bound every anchor's exact grounded eigenvalue from below.  Pairs too large for
the reference to generate in test time are pinned by SHA-256 digests of the
saved bytes, recorded with the reference implementation.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverobs import coverage, gains
from coverobs.coverage import (
    CAPPED_GROUP_SIZE,
    FULL_ENUMERATION_LIMIT,
    CoverAssignment,
    CoverSet,
    save_cover,
    solve,
    validate,
)
from coverobs.netgraph import (
    GraphError,
    NetworkPair,
    gen_random_pair,
    grounded_min_eig,
    grounded_min_eig_bounds,
    save_pair,
    star_pair,
    subgraph_laplacian,
)
from coverobs.plant import assemble, build_microgrid, stored

import cover_oracle as oracle
from conftest import random_pairs


@pytest.fixture
def saved_bytes(tmp_path):
    def dump(obj) -> bytes:
        path = tmp_path / "artifact.json"
        if isinstance(obj, NetworkPair):
            save_pair(obj, path)
        else:
            save_cover(obj, path)
        return path.read_bytes()

    return dump


def assert_matches_reference(pair: NetworkPair, saved_bytes) -> CoverAssignment:
    got = solve(pair)
    want = oracle.reference_solve(pair)
    assert saved_bytes(got) == saved_bytes(want)
    assert gains._cover_spectrum_floor(got, pair) == oracle.reference_spectrum_floor(
        want, pair
    )
    return got


def generate_both(n, deg, sim, seed, tol):
    out = []
    for gen in (gen_random_pair, oracle.reference_gen_random_pair):
        try:
            out.append(gen(n, deg, sim, seed=seed, tol=tol))
        except GraphError as exc:
            out.append(str(exc))
    return out


# ------------------------------------------------------ generator and solver

def test_gate1_recipe_pairs_and_covers_match_reference(saved_bytes):
    # the spec stream of acceptance gate 1 (tests/conftest.py::random_pairs,
    # seed 11), rejected specs included
    rng = np.random.default_rng(11)
    compared = rejected = 0
    for k in range(320):
        n = int(rng.integers(4, 41))
        deg = float(rng.uniform(1.5, min(4.0, n - 1)))
        sim = float(rng.uniform(0.55, 0.95))
        got, want = generate_both(n, deg, sim, 11 * 100003 + k, 0.08)
        if isinstance(want, str):
            assert got == want
            rejected += 1
            continue
        assert saved_bytes(got) == saved_bytes(want)
        assert_matches_reference(got, saved_bytes)
        compared += 1
    assert compared >= 300
    assert rejected > 0


@pytest.mark.parametrize("seed", range(10))
def test_paper_scale_pairs_and_covers_match_reference(seed, saved_bytes):
    got, want = generate_both(47, 3.0, 0.85, seed, 0.05)
    assert saved_bytes(got) == saved_bytes(want)
    assert_matches_reference(got, saved_bytes)


def test_n400_pair_and_cover_match_reference(saved_bytes):
    got, want = generate_both(400, 3.0, 0.85, 1, 0.08)
    assert saved_bytes(got) == saved_bytes(want)
    assert_matches_reference(got, saved_bytes)


# recorded with the reference implementation: sha256 of the save_pair and
# save_cover bytes of gen_random_pair(n, 3.0, 0.85, seed, tol=0.08) and its
# cover.  The spectrum floor is compared with the reference in process, since
# its last bits depend on the BLAS thread count; at N=1600 the reference
# floor takes too long to run here.
RECORDED = {
    (800, 0): (
        "31a3172f353261f446ebecf549a00904a0f9248d7e8bf9ddb76b2eae6f8962a9",
        "39797931e99433537b6a794c9c9b59add19177f4ca3ec09e4f669df32b1d0895",
    ),
    (1600, 1): (
        "92f372e8526b3c119944b63cbaafa2fb6fd55cb064c98c7601a5e91e1a2a8faf",
        "8df25a62ddcb6bd9ff9d212a921344f5fa81bdc9908329777c437f7e5f6c27ab",
    ),
}


@pytest.mark.parametrize("n,seed", sorted(RECORDED))
def test_large_pairs_and_covers_match_recorded_digests(n, seed, saved_bytes):
    pair_sha, cover_sha = RECORDED[(n, seed)]
    pair = gen_random_pair(n, 3.0, 0.85, seed=seed, tol=0.08)
    assert hashlib.sha256(saved_bytes(pair)).hexdigest() == pair_sha
    cover = solve(pair)
    assert hashlib.sha256(saved_bytes(cover)).hexdigest() == cover_sha
    if n <= 800:
        assert gains._cover_spectrum_floor(cover, pair) == oracle.reference_spectrum_floor(
            cover, pair
        )


@st.composite
def small_pairs(draw):
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(1, n + 1)))
    # a random spanning tree keeps the communication graph connected
    comm = {
        tuple(sorted((order[k], order[draw(st.integers(0, k - 1))])))
        for k in range(1, n)
    }
    node_pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    comm |= {tuple(sorted(e)) for e in draw(st.lists(st.sampled_from(node_pairs), max_size=2 * n))}
    phys = draw(st.lists(st.sampled_from(node_pairs), max_size=3 * n))
    return NetworkPair(n, phys, sorted(comm))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_pairs())
def test_solve_matches_reference_on_random_small_pairs(pair):
    got = solve(pair)
    want = oracle.reference_solve(pair)
    assert got.sets == want.sets
    assert got.membership == want.membership
    assert got.loads() == want.loads()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_pairs())
def test_solved_cover_is_its_sets_on_random_small_pairs(pair):
    # no set is empty, and membership names only sets the cover holds
    cover = solve(pair)
    assert all(s.members for s in cover.sets)
    ids = {s.id for s in cover.sets}
    assert all(set(held) <= ids for held in cover.membership.values())


# ----------------------------------------------------------- spectrum screen

def assert_screen_exact(cover: CoverAssignment, pair: NetworkPair) -> np.ndarray:
    """Every screen bound sits below its anchor's exact value, and the floor
    is the reference floor bit for bit; returns exact minus bound."""
    laps = [subgraph_laplacian(pair, s.members) for s in cover.sets]
    bounds = grounded_min_eig_bounds(laps)
    exact = np.array([grounded_min_eig(lap, pos) for lap in laps for pos in range(len(lap))])
    assert bounds.shape == exact.shape
    assert np.all(bounds <= exact)
    assert gains._cover_spectrum_floor(cover, pair) == oracle.reference_spectrum_floor(
        cover, pair
    )
    return exact - bounds


def one_set(pair: NetworkPair) -> CoverAssignment:
    return CoverAssignment(pair.n, [CoverSet(1, tuple(pair.nodes()))])


def path_pair(n: int) -> NetworkPair:
    edges = [(k, k + 1) for k in range(1, n)]
    return NetworkPair(n, edges, edges)


def complete_pair(n: int) -> NetworkPair:
    edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    return NetworkPair(n, edges, edges)


@pytest.fixture
def count_exact_solves(monkeypatch):
    calls = []

    def counted(lap, pos):
        calls.append(pos)
        return grounded_min_eig(lap, pos)

    monkeypatch.setattr(gains, "grounded_min_eig", counted)
    return calls


def test_screen_on_odd_path_anchored_at_its_middle():
    # the Fiedler vector of an odd path vanishes at the middle node, so that
    # anchor's secular function has no pole at lam_2
    pair = path_pair(7)
    lap = subgraph_laplacian(pair, tuple(pair.nodes()))
    fiedler = np.linalg.eigh(lap)[1][:, 1]
    assert abs(fiedler[3]) < 1e-12
    gap = assert_screen_exact(one_set(pair), pair)
    assert np.all(gap < 1e-6)


def test_screen_on_complete_graph_with_repeated_eigenvalues():
    pair = complete_pair(6)
    lam = np.linalg.eigvalsh(subgraph_laplacian(pair, tuple(pair.nodes())))
    assert np.allclose(lam[1:], 6.0)
    gap = assert_screen_exact(one_set(pair), pair)
    assert np.all(gap < 1e-6)


@pytest.mark.parametrize("n", [2, 3, 9, 21])
def test_screen_confirms_every_tied_star_leaf(n, count_exact_solves):
    # all leaves share the smallest grounded eigenvalue; each is confirmed
    pair = star_pair(n)
    assert_screen_exact(one_set(pair), pair)
    count_exact_solves.clear()
    gains._cover_spectrum_floor(one_set(pair), pair)
    assert set(range(1, n)) <= set(count_exact_solves)


def test_screen_on_singleton_and_two_node_sets():
    pair = path_pair(4)
    cover = CoverAssignment(4, [CoverSet(1, (1,)), CoverSet(3, (2, 3)), CoverSet(4, (4,))])
    gap = assert_screen_exact(cover, pair)
    assert np.all(gap < 1e-6)
    # a singleton grounds to exactly 1; a connected pair to (3 - sqrt 5) / 2
    assert gains._cover_spectrum_floor(cover, pair) == pytest.approx((3 - np.sqrt(5)) / 2)


def test_floor_rejects_a_cover_without_nonempty_sets():
    pair = path_pair(3)
    cover = CoverAssignment(3, ())
    with pytest.raises(gains.GainsError, match="no nonempty cover sets"):
        gains._cover_spectrum_floor(cover, pair)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_pairs())
def test_screen_bounds_and_floor_on_random_small_pairs(pair):
    assert_screen_exact(solve(pair), pair)


def test_screen_leaves_few_exact_solves_at_n800(count_exact_solves):
    # 1541 anchors over 347 sets; only those whose bound reaches the best
    # exact value are solved exactly
    pair = gen_random_pair(800, 3.0, 0.85, seed=0, tol=0.08)
    cover = solve(pair)
    assert sum(len(s.members) for s in cover.sets) == 1541
    assert gains._cover_spectrum_floor(cover, pair) > 0
    assert 1 <= len(count_exact_solves) <= 5


# ---------------------------------------------------------------- validation

def edited_covers(assignment: CoverAssignment, rng: np.random.Generator):
    """Valid and invalid variants of a cover, each with its description."""
    sets = assignment.sets
    n = assignment.n
    for _ in range(6):
        s = sets[int(rng.integers(0, len(sets)))]
        others = [t for t in sets if t.id != s.id]
        victim = s.members[int(rng.integers(0, len(s.members)))]
        rest = tuple(v for v in s.members if v != victim)
        yield "drop node", CoverAssignment(n, others + ([CoverSet(s.id, rest)] if rest else []))
        extra = int(rng.integers(1, n + 1))
        grown = CoverSet(s.id, tuple(set(s.members) | {extra}))
        yield "add node", CoverAssignment(n, others + [grown])
        yield "delete set", CoverAssignment(n, others)
    outside = [*sets, CoverSet(max(s.id for s in sets) + 1, (1, n + 5))]
    yield "node outside", CoverAssignment(n, outside)


def test_validate_matches_reference_on_edited_covers():
    rng = np.random.default_rng(5)
    seen_invalid = 0
    for pair in random_pairs(40, 25, seed=3):
        for what, edited in edited_covers(solve(pair), rng):
            got = validate(edited, pair)
            assert got == oracle.reference_validate(edited, pair), what
            seen_invalid += not got.ok
    assert seen_invalid > 50


# ------------------------------------------------------- merge-group enumeration

def membership_family(rng: np.random.Generator, count: int, universe: int, size: int):
    pi = tuple(sorted(int(p) for p in rng.choice(1000, size=count, replace=False)))
    members = {
        p: set(int(v) for v in rng.choice(universe, size=int(rng.integers(1, size + 1)), replace=False))
        for p in pi
    }
    return pi, members


@pytest.mark.parametrize(
    "count",
    [0, 1, 2, 5, 9, 14, FULL_ENUMERATION_LIMIT, FULL_ENUMERATION_LIMIT + 1, 30],
)
def test_levelwise_groups_match_itertools_enumeration(count):
    rng = np.random.default_rng(count)
    trials = 1 if count >= FULL_ENUMERATION_LIMIT else 40
    found = 0
    for _ in range(trials):
        # a small universe makes shared cores of two or more common
        pi, members = membership_family(rng, count, universe=8, size=6)
        got = coverage._candidate_groups(pi, members)
        assert got == oracle.reference_candidate_groups(pi, members)
        if count > FULL_ENUMERATION_LIMIT:
            assert all(len(g) <= CAPPED_GROUP_SIZE for g in got)
        found += len(got)
    assert found > 0 or count < 2


def test_hub_in_twenty_sets_enumerates_no_groups():
    # each set around the hub shares only the hub, so no pair qualifies and
    # the level-wise search stops after the pairs
    pi = tuple(range(1, FULL_ENUMERATION_LIMIT + 1))
    members = {p: {0, p} for p in pi}
    assert coverage._candidate_groups(pi, members) == []


# -------------------------------------------------------------- matrix norms

@pytest.mark.parametrize("n_agents", [47, 200])
def test_plant_norms_agree_with_dense_two_norm(n_agents):
    pair = gen_random_pair(n_agents, 3.0, 0.85, seed=0, tol=0.08)
    plant = build_microgrid(pair, seed=1, coupling_scale=2.5e8)
    A, B, _ = (m.toarray() for m in assemble(plant))
    for m in (A, B):
        got = gains._norm2(m)
        assert gains._norm2(m) == got
        dense = float(np.linalg.norm(m, 2))
        if isinstance(stored(m), np.ndarray):
            assert got == dense
        else:
            assert abs(got - dense) <= 1e-12 * dense


def test_sparse_norm_of_zero_row_sum_operator():
    # diffusive coupling: every row sums to exactly zero, so the ones vector
    # is in the kernel
    rng = np.random.default_rng(3)
    side = 400
    m = np.zeros((side, side))
    for k in range(side):
        for j in rng.integers(0, side, 3):
            if j != k:
                m[k, j] -= 1.0
                m[k, k] += 1.0
    assert not isinstance(stored(m), np.ndarray)
    assert not np.any(m @ np.ones(side))
    dense = float(np.linalg.norm(m, 2))
    assert abs(gains._norm2(m) - dense) <= 1e-12 * dense
    assert gains._norm2(np.zeros((side, side))) == 0.0
