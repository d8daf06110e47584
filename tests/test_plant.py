from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from coverobs.netgraph import NetworkPair, star_pair
from coverobs.plant import (
    BlockPlant,
    PlantError,
    assemble,
    build_microgrid,
    load_plant,
    save_plant,
    stored,
)

from conftest import random_pairs
from plant_oracle import check_structure, dense_assemble


def random_plant(rng: np.random.Generator, N: int, n: int = 2) -> BlockPlant:
    a = {}
    for i in range(1, N + 1):
        a[(i, i)] = rng.normal(size=(n, n))
        for j in range(1, N + 1):
            if j != i and rng.random() < 0.4:
                a[(i, j)] = rng.normal(size=(n, n))
    return BlockPlant(
        N=N,
        n=n,
        m=1,
        p=1,
        A_blocks=a,
        B_blocks={i: rng.normal(size=(n, 1)) for i in range(1, N + 1)},
        C_blocks={i: rng.normal(size=(1, n)) for i in range(1, N + 1)},
    )


# ---------------------------------------------------------------- assembly

def test_assemble_single_block():
    a11 = np.array([[0.0, 1.0], [-2.0, -3.0]])
    plant = BlockPlant(
        N=1, n=2, m=1, p=1,
        A_blocks={(1, 1): a11},
        B_blocks={1: np.array([[0.0], [1.0]])},
        C_blocks={1: np.array([[1.0, 0.0]])},
    )
    A, B, C = (m.toarray() for m in assemble(plant))
    np.testing.assert_array_equal(A, a11)
    np.testing.assert_array_equal(B, [[0.0], [1.0]])
    np.testing.assert_array_equal(C, [[1.0, 0.0]])


def test_assemble_places_offdiagonal_block():
    a12 = np.array([[1.0, 2.0], [3.0, 4.0]])
    plant = BlockPlant(
        N=2, n=2, m=1, p=1,
        A_blocks={(1, 1): np.zeros((2, 2)), (2, 2): np.zeros((2, 2)), (1, 2): a12},
        B_blocks={1: np.zeros((2, 1)), 2: np.zeros((2, 1))},
        C_blocks={1: np.zeros((1, 2)), 2: np.zeros((1, 2))},
    )
    A = assemble(plant)[0].toarray()
    np.testing.assert_array_equal(A[0:2, 2:4], a12)
    assert not A[2:4, 0:2].any()


def test_assemble_matches_embedding_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        N, n = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        plant = random_plant(rng, N, n)
        A, B, C = (m.toarray() for m in assemble(plant))
        # oracle: sum of blocks embedded one at a time
        want = np.zeros_like(A)
        for (i, j), blk in plant.A_blocks.items():
            e = np.zeros_like(A)
            e[(i - 1) * n : i * n, (j - 1) * n : j * n] = blk
            want += e
        np.testing.assert_array_equal(A, want)
        for i in range(1, N + 1):
            np.testing.assert_array_equal(B[(i - 1) * n : i * n, i - 1 : i], plant.B_blocks[i])
            np.testing.assert_array_equal(C[i - 1 : i, (i - 1) * n : i * n], plant.C_blocks[i])


def test_bad_block_shape_names_block():
    with pytest.raises(PlantError, match=r"A block \(1,2\)"):
        BlockPlant(
            N=2, n=2, m=1, p=1,
            A_blocks={
                (1, 1): np.zeros((2, 2)),
                (2, 2): np.zeros((2, 2)),
                (1, 2): np.zeros((2, 3)),
            },
            B_blocks={1: np.zeros((2, 1)), 2: np.zeros((2, 1))},
            C_blocks={1: np.zeros((1, 2)), 2: np.zeros((1, 2))},
        )
    with pytest.raises(PlantError, match="B block 2"):
        BlockPlant(
            N=2, n=2, m=1, p=1,
            A_blocks={(1, 1): np.zeros((2, 2)), (2, 2): np.zeros((2, 2))},
            B_blocks={1: np.zeros((2, 1)), 2: np.zeros((3, 1))},
            C_blocks={1: np.zeros((1, 2)), 2: np.zeros((1, 2))},
        )
    with pytest.raises(PlantError, match=r"\(2,2\) missing"):
        BlockPlant(
            N=2, n=2, m=1, p=1,
            A_blocks={(1, 1): np.zeros((2, 2))},
            B_blocks={1: np.zeros((2, 1)), 2: np.zeros((2, 1))},
            C_blocks={1: np.zeros((1, 2)), 2: np.zeros((1, 2))},
        )


@pytest.mark.parametrize("fault", ["not finite", "shape"])
@pytest.mark.parametrize("kind", ["A", "B", "C"])
def test_stacked_check_names_the_first_failing_block(kind, fault):
    good = random_plant(np.random.default_rng(1), 5)
    parts = {"A_blocks": good.A_blocks, "B_blocks": good.B_blocks, "C_blocks": good.C_blocks}
    blocks = dict(parts[f"{kind}_blocks"])
    keys = list(blocks)
    for key in (keys[3], keys[1]):
        blocks[key] = np.full_like(blocks[key], np.nan) if fault == "not finite" else np.zeros((3, 3))
    parts[f"{kind}_blocks"] = blocks
    first = keys[1]
    name = f"A block ({first[0]},{first[1]})" if kind == "A" else f"{kind} block {first}"
    text = "has entries that are not finite" if fault == "not finite" else "has shape (3, 3)"
    with pytest.raises(PlantError, match=f"^{re.escape(name)} {re.escape(text)}"):
        BlockPlant(N=5, n=2, m=1, p=1, **parts)


def test_checked_blocks_are_read_only_copies():
    rng = np.random.default_rng(2)
    source = random_plant(rng, 4)
    a = {k: v.copy() for k, v in source.A_blocks.items()}
    plant = BlockPlant(N=4, n=2, m=1, p=1, A_blocks=a, B_blocks=source.B_blocks,
                       C_blocks=source.C_blocks)
    a[(1, 1)][0, 0] += 1.0
    assert plant.A_blocks[(1, 1)][0, 0] == source.A_blocks[(1, 1)][0, 0]
    for blocks in (plant.A_blocks, plant.B_blocks, plant.C_blocks):
        assert all(not blk.flags.writeable for blk in blocks.values())


# --------------------------------------------------------------- microgrid

def test_microgrid_parameter_ranges():
    for seed in range(20):
        plant = build_microgrid(star_pair(6), seed=seed)
        for i in range(1, 7):
            a = plant.A_blocks[(i, i)]
            assert a[0, 0] == 0.0 and a[0, 1] == 1.0
            tau = -1.0 / a[1, 1]
            assert 0.012 <= tau <= 0.018
            deg = len(plant.coupling_sources(i)) or 1
            for j in plant.coupling_sources(i):
                k = plant.A_blocks[(i, j)][1, 0] * tau / 110.0**2
                assert 1e-15 <= k <= 1e-14


def test_microgrid_row_consistency_and_pattern():
    for pair in random_pairs(10, max_n=12, seed=3):
        plant = build_microgrid(pair, seed=11, coupling_scale=5e7)
        for i in pair.nodes():
            off = sum(
                plant.A_blocks[(i, j)][1, 0] for j in plant.coupling_sources(i)
            )
            assert plant.A_blocks[(i, i)][1, 0] == pytest.approx(-off, rel=1e-12)
            assert plant.coupling_sources(i) == pair.phys_neighbors(i)


def test_microgrid_zero_degree_block():
    pair = NetworkPair(2, [], [(1, 2)])
    plant = build_microgrid(pair, seed=0)
    for i in (1, 2):
        assert plant.A_blocks[(i, i)][1, 0] == 0.0


def test_microgrid_deterministic():
    pair = star_pair(5)
    a = build_microgrid(pair, seed=42)
    b = build_microgrid(pair, seed=42)
    for key in a.A_blocks:
        np.testing.assert_array_equal(a.A_blocks[key], b.A_blocks[key])
    c = build_microgrid(pair, seed=43)
    assert a.A_blocks[(1, 1)][1, 1] != c.A_blocks[(1, 1)][1, 1]


@pytest.mark.parametrize(
    "seed, scale, message",
    [
        (-1, 1.0, "seed must be a non-negative integer, got -1"),
        (1.5, 1.0, "seed must be a non-negative integer, got 1.5"),
        (0, float("nan"), "coupling scale must be finite, got nan"),
        (0, float("inf"), "coupling scale must be finite, got inf"),
    ],
)
def test_microgrid_rejects_bad_seed_and_scale(seed, scale, message):
    # a negative seed ended in numpy's ValueError; a NaN scale was only
    # caught by the block check, as non-finite entries
    with pytest.raises(PlantError, match=re.escape(message)):
        build_microgrid(star_pair(3), seed=seed, coupling_scale=scale)


def test_coupling_scale_multiplies_offdiagonals():
    pair = star_pair(4)
    base = build_microgrid(pair, seed=1, coupling_scale=1.0)
    scaled = build_microgrid(pair, seed=1, coupling_scale=1000.0)
    for i in pair.nodes():
        for j in pair.phys_neighbors(i):
            assert scaled.A_blocks[(i, j)][1, 0] == pytest.approx(
                1000.0 * base.A_blocks[(i, j)][1, 0], rel=1e-12
            )
        # time constants must not change with the scale
        assert scaled.A_blocks[(i, i)][1, 1] == base.A_blocks[(i, i)][1, 1]


def sparse_block(draw, rows: int, cols: int) -> np.ndarray:
    """A block that is all zeros, or random with about half its entries zero."""
    if draw(st.booleans()):
        return np.zeros((rows, cols))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.5)


@st.composite
def block_plants(draw) -> BlockPlant:
    N = draw(st.integers(1, 5))
    n, m, p = (draw(st.integers(1, 3)) for _ in range(3))
    a = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j or draw(st.booleans()):
                a[(i, j)] = sparse_block(draw, n, n)
    return BlockPlant(
        N=N, n=n, m=m, p=p, A_blocks=a,
        B_blocks={i: sparse_block(draw, n, m) for i in range(1, N + 1)},
        C_blocks={i: sparse_block(draw, p, n) for i in range(1, N + 1)},
    )


def assert_same_storage(got, want):
    assert type(got) is type(want)
    if sparse.issparse(want):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == getattr(want, name).dtype
    else:
        assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(block_plants())
def test_sparse_assembly_is_the_dense_embedding(plant):
    for got, want in zip(assemble(plant), dense_assemble(plant)):
        assert isinstance(got, sparse.csr_matrix)
        assert got.has_canonical_format
        assert np.all(got.data != 0)
        assert np.array_equal(got.toarray(), want)
        assert_same_storage(stored(got), stored(want))


def test_stored_counts_true_nonzeros():
    # a CSR holding explicit zeros: by its stored entries it would be kept
    # dense, by its true nonzeros it is CSR, as its dense twin is
    rng = np.random.default_rng(5)
    side = 400
    dense = np.zeros((side, side))
    dense[rng.integers(0, side, 4000), rng.integers(0, side, 4000)] = 1.0
    r, c = np.nonzero(dense + (rng.random((side, side)) < 0.3))
    padded = sparse.csr_matrix((dense[r, c], (r, c)), shape=dense.shape)
    assert padded.has_canonical_format
    assert 4 * padded.nnz > side * side >= 4 * np.count_nonzero(dense)
    assert np.array_equal(padded.toarray(), dense)
    for m in (padded, padded.tocoo(), sparse.csr_matrix(dense)):
        assert_same_storage(stored(m), stored(dense))
    assert isinstance(stored(dense), sparse.csr_matrix)
    # small or full, the sparse input comes back dense
    assert_same_storage(stored(padded[:100, :100]), dense[:100, :100])
    full = sparse.csr_matrix(np.ones((side, side)))
    assert_same_storage(stored(full), np.ones((side, side)))


# --------------------------------------------------------------- structure

def pbh_controllable(A: np.ndarray, B: np.ndarray) -> bool:
    dim = A.shape[0]
    for lam in np.linalg.eigvals(A):
        m = np.hstack([lam * np.eye(dim) - A, B])
        if np.linalg.matrix_rank(m, tol=1e-9 * max(1.0, np.linalg.norm(m, 2))) < dim:
            return False
    return True


def test_microgrid_structure_ok():
    for seed in range(5):
        plant = build_microgrid(star_pair(9), seed=seed)
        report = check_structure(plant)
        assert report.ok
        assert all(report.observable_pairs.values())


def test_zero_input_not_controllable():
    plant = BlockPlant(
        N=1, n=2, m=1, p=1,
        A_blocks={(1, 1): np.array([[0.0, 1.0], [-1.0, -1.0]])},
        B_blocks={1: np.zeros((2, 1))},
        C_blocks={1: np.array([[1.0, 0.0]])},
    )
    report = check_structure(plant)
    assert not report.controllable
    assert report.observable_pairs[1]


def test_unobservable_block_flagged():
    plant = BlockPlant(
        N=1, n=2, m=1, p=1,
        # measurement aligned with an invariant eigendirection
        A_blocks={(1, 1): np.diag([-1.0, -2.0])},
        B_blocks={1: np.ones((2, 1))},
        C_blocks={1: np.array([[1.0, 0.0]])},
    )
    assert not check_structure(plant).observable_pairs[1]


def test_controllability_matches_pbh_oracle():
    rng = np.random.default_rng(19)
    agree = 0
    for _ in range(20):
        plant = random_plant(rng, int(rng.integers(2, 5)), n=2)
        A, B, _ = (m.toarray() for m in assemble(plant))
        assert check_structure(plant).controllable == pbh_controllable(A, B)
        agree += 1
    assert agree == 20


def test_structure_survives_stiff_scales():
    # powers of the assembled matrix overflow float range near k ~ 90 if the
    # Krylov iteration skips renormalization
    plant = build_microgrid(star_pair(40), seed=2)
    assert check_structure(plant).controllable


# ------------------------------------------------------------------ file io

def test_explicit_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    plant = random_plant(rng, 3, n=2)
    path = tmp_path / "plant.json"
    save_plant(plant, path)
    loaded = load_plant(path)
    assert loaded.N == plant.N and loaded.n == plant.n
    for key, blk in plant.A_blocks.items():
        np.testing.assert_array_equal(loaded.A_blocks[key], blk)


def test_microgrid_shorthand_round_trip(tmp_path):
    pair = star_pair(5)
    plant = build_microgrid(pair, seed=9, coupling_scale=2.0)
    path = tmp_path / "plant.json"
    save_plant(plant, path)
    loaded = load_plant(path, pair=pair)
    for key, blk in plant.A_blocks.items():
        np.testing.assert_array_equal(loaded.A_blocks[key], blk)
    with pytest.raises(PlantError, match="pair"):
        load_plant(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(PlantError):
        load_plant(path)
    path.write_text('{"N": 2}')
    with pytest.raises(PlantError):
        load_plant(path)
