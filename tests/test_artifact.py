"""Save -> load round trips of every JSON artifact, and the shared reader.

Each property saves a random artifact, loads it back with the context its
loader checks it against, and requires the same object.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coverobs.artifact import read_json, write_json
from coverobs.coverage import load_cover, save_cover, solve
from coverobs.gains import (
    DESIGN_CONSTANTS,
    ControllerGains,
    GainsError,
    ObserverDesign,
    load_controller,
    load_design,
    save_controller,
    save_design,
)
from coverobs.netgraph import load_pair, save_pair
from coverobs.plant import BlockPlant, build_microgrid, load_plant, save_plant

from test_cover_oracle import small_pairs

ROUND_TRIP = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
values = st.floats(-1e6, 1e6, allow_nan=False)


def matrices(draw, rows: int, cols: int) -> np.ndarray:
    entries = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    return np.array(entries).reshape(rows, cols)


def assert_blocks_equal(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, blk in want.items():
        np.testing.assert_array_equal(got[key], blk)


@st.composite
def full_plants(draw):
    """A pair and a full-form plant coupled along its physical edges."""
    pair = draw(small_pairs())
    n, m, p = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    agents = range(1, pair.n + 1)
    a = {(i, i): matrices(draw, n, n) for i in agents}
    for i in agents:
        for j in sorted(pair.phys_neighbors(i)):
            if draw(st.booleans()):
                a[(i, j)] = matrices(draw, n, n)
    plant = BlockPlant(
        N=pair.n, n=n, m=m, p=p, A_blocks=a,
        B_blocks={i: matrices(draw, n, m) for i in agents},
        C_blocks={i: matrices(draw, p, n) for i in agents},
    )
    return pair, plant


@ROUND_TRIP
@given(small_pairs())
def test_pair_round_trip(tmp_path, pair):
    save_pair(pair, tmp_path / "pair.json", manifest_hash="abc")
    loaded = load_pair(tmp_path / "pair.json")
    assert loaded.n == pair.n
    np.testing.assert_array_equal(loaded.phys_adj, pair.phys_adj)
    np.testing.assert_array_equal(loaded.comm_adj, pair.comm_adj)


@ROUND_TRIP
@given(small_pairs())
def test_cover_round_trip(tmp_path, pair):
    cover = solve(pair)
    save_cover(cover, tmp_path / "cover.json")
    loaded = load_cover(tmp_path / "cover.json", pair)
    assert loaded.n == cover.n
    assert loaded.nonempty_sets() == cover.nonempty_sets()
    assert loaded.membership == cover.membership


@ROUND_TRIP
@given(full_plants())
def test_full_plant_round_trip(tmp_path, pair_and_plant):
    pair, plant = pair_and_plant
    save_plant(plant, tmp_path / "plant.json")
    loaded = load_plant(tmp_path / "plant.json", pair)
    assert (loaded.N, loaded.n, loaded.m, loaded.p) == (plant.N, plant.n, plant.m, plant.p)
    assert_blocks_equal(loaded.A_blocks, plant.A_blocks)
    assert_blocks_equal(loaded.B_blocks, plant.B_blocks)
    assert_blocks_equal(loaded.C_blocks, plant.C_blocks)


@ROUND_TRIP
@given(small_pairs(), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e9))
def test_microgrid_plant_round_trip(tmp_path, pair, seed, scale):
    plant = build_microgrid(pair, seed, scale)
    save_plant(plant, tmp_path / "plant.json")
    loaded = load_plant(tmp_path / "plant.json", pair)
    assert loaded.meta == plant.meta
    assert_blocks_equal(loaded.A_blocks, plant.A_blocks)
    assert_blocks_equal(loaded.B_blocks, plant.B_blocks)


@ROUND_TRIP
@given(full_plants(), st.data())
def test_design_round_trip(tmp_path, pair_and_plant, data):
    plant = pair_and_plant[1]
    n, agents = plant.n, range(1, plant.N + 1)
    design = ObserverDesign(
        theta=data.draw(st.floats(1.0, 20.0)),
        gamma=data.draw(values),
        n=n,
        poles=tuple(data.draw(st.lists(
            st.floats(-1e6, -1e-6), min_size=n, max_size=n, unique=True
        ))),
        policy=data.draw(st.sampled_from(["auto", "paper", "fixed"])),
        Hbar={i: matrices(data.draw, n, plant.p) for i in agents},
        P={i: matrices(data.draw, n, n) for i in agents},
        **{k: data.draw(values) for k in DESIGN_CONSTANTS},
    )
    save_design(design, tmp_path / "design.json", manifest_hash="abc")
    loaded = load_design(tmp_path / "design.json", plant)
    for name in ("theta", "gamma", "n", "poles", "policy", *DESIGN_CONSTANTS):
        assert getattr(loaded, name) == getattr(design, name)
    assert_blocks_equal(loaded.Hbar, design.Hbar)
    assert_blocks_equal(loaded.P, design.P)


@ROUND_TRIP
@given(full_plants(), st.data())
def test_controller_round_trip(tmp_path, pair_and_plant, data):
    pair, plant = pair_and_plant
    keys = [(i, j) for i in range(1, plant.N + 1) for j in [i, *pair.phys_neighbors(i)]]
    chosen = data.draw(st.sets(st.sampled_from(keys)))
    gains = ControllerGains(K_blocks={k: matrices(data.draw, plant.m, plant.n) for k in chosen})
    save_controller(gains, tmp_path / "k.json")
    loaded = load_controller(tmp_path / "k.json", plant, pair)
    assert_blocks_equal(loaded.K_blocks, gains.K_blocks)


# ------------------------------------------------------------------ reader

def test_write_json_is_sorted_indented_and_newline_terminated(tmp_path):
    write_json(tmp_path / "a.json", {"b": 1, "a": [1, 2]}, manifest_hash="h")
    assert (tmp_path / "a.json").read_text() == (
        '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1,\n  "manifest_hash": "h"\n}\n'
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "not valid JSON"),
        ("{}", "missing required keys: 'x'"),
        ('{"x": 1e999}', "cannot convert float infinity to integer"),
        ('{"x": "a"}', "invalid literal"),
        ('{"x": [1]}', "int() argument must be"),
        (None, "Is a directory"),
    ],
)
def test_read_json_failures_are_one_line_naming_the_file_once(tmp_path, text, message):
    path = tmp_path / "f.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    with pytest.raises(GainsError) as err:
        read_json(path, GainsError, lambda doc: int(doc["x"]))
    assert message in str(err.value)
    assert str(err.value).count(str(path)) == 1 and "\n" not in str(err.value)
