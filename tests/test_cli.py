"""End-to-end checks of the command line front end.

Commands run in-process through cli.main so exit codes and stdio are
observable without spawning subprocesses; only the closed-pipe check runs
the module as a process, since it needs a real stdout.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import coverobs
from coverobs.cli import main
from coverobs.coverage import load_cover, solve
from coverobs.gains import ControllerGains, save_controller, synthesize, save_design
from coverobs.netgraph import NetworkPair, load_pair, save_pair, similarity, star_pair
from coverobs.plant import BlockPlant, save_plant

from test_simloop import two_node_setup


def _write_two_node(tmp_path):
    pair, plant, gains, assignment, design = two_node_setup()
    paths = {
        "pair": tmp_path / "pair.json",
        "plant": tmp_path / "plant.json",
        "cover": tmp_path / "cover.json",
        "controller": tmp_path / "k.json",
        "design": tmp_path / "design.json",
    }
    save_pair(pair, paths["pair"])
    save_plant(plant, paths["plant"])
    from coverobs.coverage import save_cover

    save_cover(assignment, paths["cover"])
    save_controller(gains, paths["controller"])
    save_design(design, paths["design"])
    return plant, paths


# ----------------------------------------------------------------------- net

def test_net_gen_star_prints_similarity_and_embeds_hash(tmp_path, capsys):
    out = tmp_path / "pair.json"
    assert main(["net", "gen", "-n", "9", "--star", "--out", str(out)]) == 0
    assert "S_pc=1.0000" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    manifest = json.loads((tmp_path / "pair.json.manifest.json").read_text())
    assert doc["manifest_hash"] == manifest["hash"]
    assert load_pair(out).n == 9


def test_net_gen_same_seed_same_bytes(tmp_path):
    # the manifest covers the output path, so reproducibility is defined
    # for identical invocations, not merely identical seeds
    out = tmp_path / "a.json"
    args = ["net", "gen", "-n", "12", "--similarity", "0.8", "--seed", "5",
            "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_net_gen_hits_similarity_target(tmp_path):
    out = tmp_path / "pair.json"
    assert main([
        "net", "gen", "-n", "30", "--similarity", "0.85",
        "--seed", "7", "--out", str(out),
    ]) == 0
    assert abs(similarity(load_pair(out)) - 0.85) <= 0.05 + 1e-12


def test_net_gen_one_node_is_exit_2(tmp_path, capsys):
    out = tmp_path / "pair.json"
    assert main(["net", "gen", "-n", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2 nodes" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_net_gen_unreachable_similarity_is_exit_1(tmp_path, capsys):
    # four nodes at degree 3 make the complete graph, whose overlaps with a
    # subgraph of it are 0.5 and 0.667, never 0.58 +- 0.05
    out = tmp_path / "pair.json"
    argv = ["net", "gen", "-n", "4", "--avg-degree", "3", "--similarity", "0.58"]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "could not reach similarity 0.58" in err and err.count("\n") == 1
    assert not out.exists()


def test_net_info_reports_counts(tmp_path, capsys):
    out = tmp_path / "pair.json"
    main(["net", "gen", "-n", "9", "--star", "--out", str(out)])
    capsys.readouterr()
    assert main(["net", "info", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["nodes"] == 9
    assert doc["comm_edges"] == 8
    assert doc["similarity"] == 1.0


# --------------------------------------------------------------------- cover

def test_cover_solve_star_lists_eight_sets(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    cover_file = tmp_path / "cover.json"
    main(["net", "gen", "-n", "9", "--star", "--out", str(pair_file)])
    capsys.readouterr()
    assert main([
        "cover", "solve", "--pair", str(pair_file),
        "--out", str(cover_file), "--block-order", "2",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sets"] == 8
    for key in ("max_dim", "min_dim", "mean_dim", "mean_reduction"):
        assert key in doc
    assert load_cover(cover_file, load_pair(pair_file)).n == 9


def test_cover_solve_rejects_garbage_with_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    rc = main(["cover", "solve", "--pair", str(bad), "--out", str(tmp_path / "c.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_missing_input_file_is_exit_2(tmp_path, capsys):
    rc = main(["net", "info", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "missing" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_cover_audit_small_graph_clean(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    main(["net", "gen", "-n", "6", "--star", "--out", str(pair_file)])
    capsys.readouterr()
    assert main(["cover", "audit", "--pair", str(pair_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pareto_local"] is True
    assert doc["counterexample"] is None


def test_cover_audit_refuses_large_graphs(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    main(["net", "gen", "-n", "14", "--star", "--out", str(pair_file)])
    capsys.readouterr()
    rc = main(["cover", "audit", "--pair", str(pair_file)])
    assert rc == 2
    assert "exceeds 12" in capsys.readouterr().err
    # `cover solve --audit` once wrote the cover and its manifest first
    rc = main(["cover", "solve", "--pair", str(pair_file), "--audit",
               "--out", str(tmp_path / "cover.json")])
    assert rc == 2
    assert "exceeds 12" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.json", "pair.json.manifest.json"]


def test_cover_solve_audits_small_graphs(tmp_path, capsys):
    pair_file, cover_file = tmp_path / "pair.json", tmp_path / "cover.json"
    main(["net", "gen", "-n", "9", "--star", "--out", str(pair_file)])
    capsys.readouterr()
    rc = main(["cover", "solve", "--pair", str(pair_file), "--audit", "--out", str(cover_file)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pareto_local"] is True and doc["counterexample"] is None and doc["sets"] == 8
    assert load_cover(cover_file, load_pair(pair_file)).sets == solve(star_pair(9)).sets


def test_cover_stats_accepts_saved_cover(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    cover_file = tmp_path / "cover.json"
    main(["net", "gen", "-n", "9", "--star", "--out", str(pair_file)])
    main(["cover", "solve", "--pair", str(pair_file), "--out", str(cover_file)])
    capsys.readouterr()
    assert main([
        "cover", "stats", "--pair", str(pair_file),
        "--cover", str(cover_file), "--block-order", "2",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["block_order"] == 2
    assert doc["max_dim"] % 2 == 0


@pytest.mark.parametrize(
    "command, block_order", [("stats", "0"), ("stats", "-1"), ("solve", "0")]
)
def test_cover_block_order_below_one_is_exit_2(tmp_path, capsys, command, block_order):
    # stats and solve once ended in a ZeroDivisionError traceback at 0, solve
    # after writing its cover, and -1 printed negative dimensions with exit 0
    pair_file = tmp_path / "pair.json"
    main(["net", "gen", "-n", "9", "--star", "--out", str(pair_file)])
    capsys.readouterr()
    out = tmp_path / "cover.json"
    rc = main([
        "cover", command, "--pair", str(pair_file), f"--block-order={block_order}",
        *(["--out", str(out)] if command == "solve" else []),
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (
        f"error: block order must be a positive integer, got {block_order}\n"
    )
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.json", "pair.json.manifest.json"]


# --------------------------------------------------------------------- gains

def test_gains_synth_writes_design_with_hash(tmp_path, capsys):
    _, paths = _write_two_node(tmp_path)
    out = tmp_path / "design_cli.json"
    rc = main([
        "gains", "synth", "--pair", str(paths["pair"]),
        "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
        "--controller", str(paths["controller"]),
        "--theta", "3", "--policy", "fixed", "--gamma", "40",
        "--poles=-4,-9", "--out", str(out),
    ])
    assert rc == 0
    assert "certified=" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["weight_transform"] == "congruence"
    manifest = json.loads((tmp_path / "design_cli.json.manifest.json").read_text())
    assert doc["manifest_hash"] == manifest["hash"]
    assert manifest["config"]["theta"] == 3.0


def test_gains_synth_paper_gamma_warns_when_stiff(tmp_path, capsys):
    _, paths = _write_two_node(tmp_path)
    out = tmp_path / "d15.json"
    rc = main([
        "gains", "synth", "--pair", str(paths["pair"]),
        "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
        "--theta", "15", "--policy", "paper", "--poles=-4,-9", "--out", str(out),
    ])
    assert rc == 0
    assert "stiffness" in capsys.readouterr().err


def test_gains_synth_fixed_without_gamma_is_input_error(tmp_path, capsys):
    _, paths = _write_two_node(tmp_path)
    out = tmp_path / "d.json"
    rc = main([
        "gains", "synth", "--pair", str(paths["pair"]),
        "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
        "--theta", "3", "--policy", "fixed",
        "--out", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: fixed policy needs an explicit gamma\n"
    assert not out.exists()


def test_gains_synth_paper_policy_takes_no_gamma(tmp_path, capsys):
    # --policy paper once ignored --gamma and wrote gamma = 100*theta^2
    _, paths = _write_two_node(tmp_path)
    out = tmp_path / "d.json"
    rc = main([
        "gains", "synth", "--pair", str(paths["pair"]),
        "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
        "--theta", "6", "--policy", "paper", "--gamma", "5", "--poles=-4,-9",
        "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: paper policy sets gamma to 100*theta^2 and takes no gamma\n"
    assert not out.exists()


def test_paper_gamma_flag_is_gone(tmp_path, capsys):
    # --paper-gamma once overrode --policy fixed --gamma 5 without a word
    _, paths = _write_two_node(tmp_path)
    out = tmp_path / "d.json"
    with pytest.raises(SystemExit) as exc:
        main([
            "gains", "synth", "--pair", str(paths["pair"]),
            "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
            "--theta", "6", "--policy", "fixed", "--gamma", "5", "--paper-gamma",
            "--poles=-4,-9", "--out", str(out),
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments: --paper-gamma" in capsys.readouterr().err
    assert not out.exists()


# the gammas of the choice table, and whether each policy takes them
CHOICE_GAMMAS = {
    "none": (None, {"auto", "paper"}),
    "negative": (-3.0, set()),
    "zero": (0.0, set()),
    "nan": (float("nan"), set()),
    "infinite": (float("inf"), set()),
    "bool": (True, set()),
    "string": ("5", set()),
    "five": (5, {"auto", "fixed"}),
}


@pytest.mark.parametrize("policy", ["auto", "paper", "fixed"])
@pytest.mark.parametrize("name", list(CHOICE_GAMMAS))
def test_library_refuses_the_choices_the_cli_refuses(
    tmp_path, capsys, monkeypatch, policy, name
):
    # synthesize once returned gamma = 3600 for paper with gamma 5 and took
    # a negative, a bool or a string gamma under auto; it now refuses every
    # choice before any placement, as gains synth does, with one message
    gamma, takes = CHOICE_GAMMAS[name]
    pair, plant, gains, assignment, _ = two_node_setup()
    unit_designs = []
    unit_design = coverobs.gains._unit_design
    monkeypatch.setattr(
        "coverobs.gains._unit_design", lambda *a: unit_designs.append(a) or unit_design(*a)
    )
    args = (plant, assignment, pair, 3.0, gains)
    if policy in takes:
        synthesize(*args, gamma=gamma, policy=policy, poles=(-4.0, -9.0))
        assert len(unit_designs) == 1
        message = None
    else:
        with pytest.raises(coverobs.gains.GainsError) as exc:
            synthesize(*args, gamma=gamma, policy=policy, poles=(-4.0, -9.0))
        assert unit_designs == []
        message = str(exc.value)
    if isinstance(gamma, (bool, str)):
        return  # no --gamma flag parses to a bool or a string
    monkeypatch.undo()
    _, paths = _write_two_node(tmp_path)
    out = tmp_path / "d.json"
    rc = main([
        "gains", "synth", "--pair", str(paths["pair"]),
        "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
        "--theta", "3", "--policy", policy, "--poles=-4,-9", "--out", str(out),
        *([] if gamma is None else [f"--gamma={gamma}"]),
    ])
    err = capsys.readouterr().err
    if message is None:
        assert (rc, err) == (0, "")
    else:
        assert (rc, err) == (2, f"error: {message}\n")
        assert not out.exists()


def test_gamma_at_its_bound_is_not_certified(tmp_path, capsys):
    # the certificate is strict: gains synth once printed certified=True for
    # a gamma equal to its bound, which sim run then refused with exit 1
    _, paths = _write_two_node(tmp_path)
    files = [
        "--pair", str(paths["pair"]), "--cover", str(paths["cover"]),
        "--plant", str(paths["plant"]),
    ]
    auto = tmp_path / "auto.json"
    rc = main(["gains", "synth", *files, "--theta", "3", "--poles=-4,-9", "--out", str(auto)])
    assert rc == 0
    bound = json.loads(auto.read_text())["constants"]["gamma_bound"]
    at_bound = tmp_path / "at-bound.json"
    assert main([
        "gains", "synth", *files, "--theta", "3", "--poles=-4,-9",
        "--policy", "fixed", f"--gamma={bound!r}", "--out", str(at_bound),
    ]) == 0
    out = capsys.readouterr().out
    assert f"gamma={bound:.6g}  bound={bound:.6g}  certified=False" in out
    assert json.loads(at_bound.read_text())["gamma"] == bound
    result = tmp_path / "result.csv"
    rc = main(["sim", "run", *files, "--design", str(at_bound), "--out", str(result)])
    assert rc == 1
    assert "does not exceed the threshold" in capsys.readouterr().err
    assert not result.exists()


def test_gains_synth_theta_below_one_is_exit_2(tmp_path, capsys):
    _, paths = _write_two_node(tmp_path)
    rc = main([
        "gains", "synth", "--pair", str(paths["pair"]),
        "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
        "--theta", "0.5", "--poles=-4,-9", "--out", str(tmp_path / "d.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "theta must be >= 1" in err and err.count("\n") == 1
    assert not (tmp_path / "d.json").exists()


def test_gains_synth_infinite_theta_is_exit_2(tmp_path, capsys):
    # theta = inf once reached the placement and ended in an SVD traceback
    _, paths = _write_two_node(tmp_path)
    rc = main([
        "gains", "synth", "--pair", str(paths["pair"]),
        "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
        "--theta", "inf", "--poles=-4,-9", "--out", str(tmp_path / "d.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "theta must be >= 1 and finite, got inf" in err and err.count("\n") == 1
    assert not (tmp_path / "d.json").exists()


def test_sim_sweep_infinite_theta_is_exit_2(tmp_path, capsys):
    _, paths = _write_two_node(tmp_path)
    rc = main([
        "sim", "sweep", "--pair", str(paths["pair"]),
        "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
        "--thetas", "2,inf", "--repeats", "1", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "theta must be >= 1 and finite, got inf" in err and err.count("\n") == 1
    assert not (tmp_path / "s.csv").exists()


def test_gains_synth_wrong_pole_count_is_exit_2(tmp_path, capsys):
    _, paths = _write_two_node(tmp_path)
    for poles, message in (("-4,-9,-12", "need 2 observer poles"), ("-4,9", "strictly negative")):
        rc = main([
            "gains", "synth", "--pair", str(paths["pair"]),
            "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
            "--theta", "3", f"--poles={poles}", "--out", str(tmp_path / "d.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "d.json").exists()


def test_gains_synth_repeated_poles_is_exit_2(tmp_path, capsys):
    # a single-output block cannot take a pole twice; this once escaped as a
    # ValueError traceback from the placement
    _, paths = _write_two_node(tmp_path)
    rc = main([
        "gains", "synth", "--pair", str(paths["pair"]),
        "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
        "--theta", "6", "--poles=-4,-4", "--out", str(tmp_path / "d.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "distinct" in err and err.count("\n") == 1
    assert not (tmp_path / "d.json").exists()


# ----------------------------------------------------------------------- sim

def test_sim_run_emits_csv_with_hash_header(tmp_path, capsys):
    plant, paths = _write_two_node(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "horizon": 2.0, "step": 0.001, "record_points": 201,
        "seed": 3, "force": True,
    }))
    out = tmp_path / "result.csv"
    rc = main([
        "sim", "run", "--pair", str(paths["pair"]),
        "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
        "--design", str(paths["design"]),
        "--controller", str(paths["controller"]),
        "--config", str(cfg), "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    manifest = json.loads((tmp_path / "result.csv.manifest.json").read_text())
    assert lines[0] == f"# manifest_hash={manifest['hash']}"
    header = lines[1].split(",")
    assert header == ["t"] + [f"x{k}" for k in range(1, plant.state_dim + 1)] + [
        "err_norm", "sat_flag"
    ]
    body = list(csv.reader(lines[2:]))
    assert len(body) == 201
    assert float(body[0][0]) == 0.0
    assert float(body[-1][0]) == 2.0
    assert manifest["config"]["sat_level"] == 10.0


def test_sim_run_unknown_config_key_is_exit_2(tmp_path, capsys):
    _, paths = _write_two_node(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizons": 2.0}))
    rc = main([
        "sim", "run", "--pair", str(paths["pair"]),
        "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
        "--design", str(paths["design"]), "--config", str(cfg),
        "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 2
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("sim run", {"horizon": -1}, "horizon must be positive"),
        ("sim run", {"horizon": float("nan")}, "horizon must be positive"),
        ("sim run", {"observer_init": float("inf")}, "observer_init must be finite"),
        ("sim run", {"sat_level": -1}, "sat_level must be positive"),
        ("sim sweep", ["--horizon", "-1"], "horizon must be positive"),
        ("sim sweep", ["--repeats", "0"], "repeats must be >= 1"),
        ("pipeline", ["--repeats", "0"], "stage sweep: repeats must be >= 1"),
        ("pipeline", ["--horizon", "nan"], "stage sim: bad simulation config"),
        ("pipeline", ["--horizon", "-1"], "stage sim: bad simulation config"),
        ("sim run", {"record_points": float("nan")}, "record_points must be an integer"),
        ("sim run", {"record_points": 2.5}, "record_points must be an integer"),
        ("sim run", {"seed": 1.5}, "seed must be a non-negative integer"),
        ("sim run", {"seed": -1}, "seed must be a non-negative integer"),
        ("sim run", {"x0": [1, 2]}, "x0 has shape (2,), expected (4,)"),
        ("sim run", {"force": "false"}, "force must be true or false, got 'false'"),
        ("sim run", {"horizon": True}, "horizon must be positive and finite, got True"),
        ("sim run", {"x0": ["1", "2", "3", "4"]}, "x0 must hold finite numbers"),
        ("sim run", {"horizon": 10, "step": 5e-324}, "at most 2**53 steps to the horizon"),
        ("sim sweep", ["--thetas", "2,x"], "bad theta list '2,x'"),
        ("sim sweep", ["--thetas", ","], "theta list is empty"),
        ("gains synth", ["--theta", "6", "--poles=-4,x"], "bad pole list '-4,x'"),
        ("net gen", ["--seed", "-3"], "seed must be a non-negative integer"),
        ("pipeline random", ["--seed", "-1"],
         "stage network: seed must be a non-negative integer"),
        ("pipeline", ["--seed", "-1"],
         "stage sim: bad simulation config: seed must be a non-negative integer"),
        ("pipeline", ["--plant-seed", "-1"], "stage plant: seed must be a non-negative integer"),
        ("pipeline", ["--coupling-scale", "nan"], "stage plant: coupling scale must be finite"),
        ("sim sweep", ["--seed", "-1"], "seed must be a non-negative integer"),
        ("net gen", ["--avg-degree", "nan"], "average degree must be finite and >= 0"),
        ("net gen", ["--avg-degree", "inf"], "average degree must be finite and >= 0"),
        ("net gen", ["--avg-degree", "-2"], "average degree must be finite and >= 0"),
        ("net gen", ["--tol", "-1"], "similarity tolerance must be finite and >= 0"),
        ("net gen", ["--tol", "nan"], "similarity tolerance must be finite and >= 0"),
        ("net gen", ["--similarity", "nan"], "target similarity nan outside [0, 1]"),
        ("pipeline", ["--theta", "0.5"], "stage gains: theta must be >= 1 and finite"),
        ("pipeline", ["--theta", "6", "--poles=-4,-4"],
         "stage gains: observer poles must be distinct"),
        ("pipeline", ["--poles=-4"], "stage gains: need 2 observer poles"),
        ("pipeline", ["--controller", "nothere.json"],
         "stage gains: missing controller file: nothere.json"),
        *(
            (command, [*theta, "--policy", "fixed", "--gamma", gamma],
             f"{stage}gamma must be positive and finite, got {float(gamma)!r}")
            for command, theta, stage in (
                ("gains synth", ["--theta", "6"], ""), ("sim sweep", [], ""),
                ("pipeline", [], "stage gains: "),
            )
            for gamma in ("nan", "inf", "0", "-1")
        ),
    ],
    ids=[
        "run-negative-horizon", "run-nan-horizon", "run-infinite-observer-init",
        "run-negative-sat-level", "sweep-negative-horizon", "sweep-zero-repeats",
        "pipeline-zero-repeats", "pipeline-nan-horizon", "pipeline-negative-horizon",
        "run-nan-record-points",
        "run-fractional-record-points", "run-fractional-seed", "run-negative-seed",
        "run-short-x0", "run-string-force", "run-bool-horizon", "run-string-x0",
        "run-step-count-past-2**53", "sweep-bad-theta-list", "sweep-empty-theta-list",
        "synth-bad-pole-list",
        "gen-negative-seed", "pipeline-negative-seed",
        "pipeline-star-negative-seed", "pipeline-negative-plant-seed",
        "pipeline-nan-coupling-scale", "sweep-negative-seed", "gen-nan-degree",
        "gen-infinite-degree", "gen-negative-degree", "gen-negative-tol", "gen-nan-tol",
        "gen-nan-similarity", "pipeline-small-theta", "pipeline-repeated-poles",
        "pipeline-one-pole", "pipeline-missing-controller",
        *(
            f"{command}-{gamma}-gamma"
            for command in ("synth", "sweep", "pipeline")
            for gamma in ("nan", "infinite", "zero", "negative")
        ),
    ],
)
def test_sim_run_config_validation_is_exit_2(tmp_path, capsys, command, flags, message):
    # a NaN horizon once crashed in int() with a traceback; an infinite
    # observer start, a negative sat_level and the sweep's horizon and
    # repeats were only rejected inside the run, as numeric failures (exit 1);
    # so were non-integer record counts and seeds (tracebacks) and an x0 of
    # the wrong length; a negative or non-finite generator parameter ended in
    # a traceback, or in 200 tries and exit 1; a negative sweep or plant seed
    # ended in a traceback, and a pipeline wrote files before it rejected a
    # negative seed or a NaN coupling scale, a theta below 1, a bad pole
    # list or a missing controller file; a fixed gamma that is not finite
    # ended in a traceback, and a zero or negative one exited 1; a config's
    # "force": "false" forced the run, "horizon": true ran for 1 s and an x0
    # of strings ran; a step of 5e-324 ended in an OverflowError traceback
    _, paths = _write_two_node(tmp_path)
    cfg = tmp_path / "cfg.json"
    if isinstance(flags, dict):
        cfg.write_text(json.dumps(flags))
        flags = ["--design", str(paths["design"]), "--config", str(cfg)]
    if command == "pipeline":
        argv = ["pipeline", "-n", "9", "--star", "--outdir", str(tmp_path / "run")]
    elif command == "pipeline random":
        argv = ["pipeline", "-n", "9", "--outdir", str(tmp_path / "run")]
    elif command == "net gen":
        argv = ["net", "gen", "-n", "5", "--out", str(tmp_path / "pair.json")]
    else:
        argv = [
            *command.split(), "--pair", str(paths["pair"]),
            "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
            "--out", str(tmp_path / "out"),
        ]
    rc = main([*argv, *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and err.count("\n") == 1
    assert err.count(str(cfg)) == cfg.exists()  # a config file is named once
    # the flags are checked before any file is written
    assert not (tmp_path / "run").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("sim run", {"horizon": 1e308}, "horizon 1e+308 at step 0.012 takes more than 2**53"),
        ("sim sweep", ["--horizon", "1e308", "--thetas", "6", "--repeats", "1"],
         "takes more than 2**53 steps"),
        # a record grid no host can hold: 7.11 PiB
        ("sim run", {"horizon": 10, "step": 1e-14, "record_points": 10**15},
         "Unable to allocate"),
        ("gains synth", ["--theta", "1e308"], "agent 1: placed block overflows"),
        ("gains synth", ["--theta", "6", "--poles=-1e308,-1"], "agent 1: placed block overflows"),
        ("gains synth", ["--theta", "6", "--policy", "fixed", "--gamma", "1e308"],
         "agent 1: weight equation overflows"),
    ],
    ids=[
        "run-huge-horizon", "sweep-huge-horizon", "run-huge-record-grid", "synth-huge-theta",
        "synth-huge-pole", "synth-huge-gamma",
    ],
)
def test_finite_inputs_that_overflow_are_exit_1(tmp_path, capsys, command, flags, message):
    # each ended in a traceback: an OverflowError from the step count, a
    # MemoryError from the record grid, a LinAlgError or a ValueError from
    # the synthesis
    _, paths = _write_two_node(tmp_path)
    if isinstance(flags, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags))
        flags = ["--design", str(paths["design"]), "--config", str(cfg)]
    rc = main([
        *command.split(), "--pair", str(paths["pair"]), "--cover", str(paths["cover"]),
        "--plant", str(paths["plant"]), *flags, "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_sim_run_design_for_other_plant_is_exit_2(tmp_path, capsys):
    from coverobs.coverage import save_cover
    from coverobs.plant import build_microgrid

    small = star_pair(9)
    small_plant = build_microgrid(small, seed=1, coupling_scale=2.5e8)
    design = synthesize(
        small_plant, solve(small), small, 6.0, ControllerGains(K_blocks={}),
        policy="auto", poles=(-4.0, -9.0),
    )
    save_design(design, tmp_path / "d.json")
    big = star_pair(12)
    save_pair(big, tmp_path / "p.json")
    save_cover(solve(big), tmp_path / "c.json")
    save_plant(build_microgrid(big, seed=1, coupling_scale=2.5e8), tmp_path / "pl.json")
    rc = main([
        "sim", "run", "--pair", str(tmp_path / "p.json"),
        "--cover", str(tmp_path / "c.json"), "--plant", str(tmp_path / "pl.json"),
        "--design", str(tmp_path / "d.json"), "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "is for 9 agents" in err and "the plant has 12" in err


@pytest.mark.parametrize(
    "command",
    ["cover audit", "cover stats", "gains synth", "sim run", "sim report", "sim sweep"],
)
def test_cover_of_another_network_is_exit_2(tmp_path, capsys, command):
    # a 9-node star cover with the 12-node star's pair, plant and design
    # once failed inside the observer build ("agent 2 lacks estimates of
    # its neighbors", exit 1)
    from coverobs.coverage import save_cover
    from coverobs.plant import build_microgrid

    big = star_pair(12)
    big_plant = build_microgrid(big, seed=1, coupling_scale=2.5e8)
    save_pair(big, tmp_path / "p.json")
    save_plant(big_plant, tmp_path / "pl.json")
    save_design(
        synthesize(
            big_plant, solve(big), big, 6.0, ControllerGains(K_blocks={}),
            policy="auto", poles=(-4.0, -9.0),
        ),
        tmp_path / "d.json",
    )
    save_cover(solve(star_pair(9)), tmp_path / "c.json")
    files = ["--pair", str(tmp_path / "p.json"), "--cover", str(tmp_path / "c.json")]
    if not command.startswith("cover"):
        files += ["--plant", str(tmp_path / "pl.json")]
    extra = {
        "gains synth": ["--theta", "6", "--poles=-4,-9"],
        "sim run": ["--design", str(tmp_path / "d.json")],
        "sim report": ["--design", str(tmp_path / "d.json")],
        "sim sweep": ["--thetas", "6", "--repeats", "1"],
        "cover audit": [],
        "cover stats": [],
    }[command]
    out = [] if command in ("cover audit", "cover stats", "sim report") else [
        "--out", str(tmp_path / "out")
    ]
    rc = main([*command.split(), *files, *extra, *out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "does not fit the network" in err and "9 nodes" in err and "12" in err


@pytest.fixture(scope="module")
def star9_files(tmp_path_factory):
    """The README's 9-node star: pair, cover, microgrid plant and design."""
    from coverobs.plant import build_microgrid

    d = tmp_path_factory.mktemp("star9")
    files = {k: d / f"{k}.json" for k in ("pair", "cover", "plant", "design")}
    main(["net", "gen", "-n", "9", "--star", "--out", str(files["pair"])])
    main(["cover", "solve", "--pair", str(files["pair"]), "--out", str(files["cover"])])
    save_plant(build_microgrid(star_pair(9), seed=1, coupling_scale=2.5e8), files["plant"])
    main([
        "gains", "synth", *(f"--{k}={files[k]}" for k in ("pair", "cover", "plant")),
        "--theta", "6", "--poles=-4,-9", "--out", str(files["design"]),
    ])
    return files


def _set(path, value):
    """An edit of a JSON document: ``doc[path[0]][path[1]]... = value``."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _full_plant(N: int, couplings: list) -> dict:
    """A full-form plant document of N damped agents, with the couplings
    (i, j) where j drives i."""
    agents = [str(i) for i in range(1, N + 1)]
    keys = [f"{i},{i}" for i in agents] + [f"{i},{j}" for i, j in couplings]
    return {
        "N": N, "n": 2, "m": 1, "p": 1,
        "A": {k: [[-1, 0], [0, -1]] for k in keys},
        "B": {i: [[0], [1]] for i in agents},
        "C": {i: [[1, 0]] for i in agents},
    }


def _shift_first_set(delta):
    """An edit of a cover document adding ``delta`` to each member of its
    first set."""
    def edit(doc):
        first = doc["sets"][0]
        first["members"] = [v + delta for v in first["members"]]
    return edit


INF = "__1e999__"  # written as the JSON number 1e999, which parses to inf
NOT_AN_OBJECT = "'list' object has no attribute"


@pytest.mark.parametrize(
    "kind, change, message",
    [
        ("pair", _set(["n"], INF), "node count must be a positive integer, got inf"),
        ("pair", _set(["phys_edges", 0], ["a", "b"]), "not supported between"),
        ("cover", _set(["node_count"], INF), "node_count must be an integer, got inf"),
        ("plant", {"microgrid": {"seed": INF}}, "seed must be a non-negative integer, got inf"),
        ("plant", _full_plant(2, []), "does not fit the network: 2 agents, 9 nodes"),
        ("plant", _full_plant(9, [(2, 3)]), "couples agents off the physical edges"),
        ("design", _set(["n"], INF), "is for 9 agents of order inf, the plant has 9 of order 2"),
        ("design", _set(["Hbar", "1"], [[1, 2, 3]]), "Hbar 1 has shape (1, 3), expected (2, 1)"),
        ("design", _set(["P", "1", 0, 0], INF), "P 1 has entries that are not finite"),
        ("design", _set(["P", "1"], [[1.0]]), "P 1 has shape (1, 1), expected (2, 2)"),
        ("design", _set(["gamma"], INF), "theta, gamma and the constants must be finite"),
        ("design", _set(["gamma"], -1.0), "gamma must be positive and finite, got -1.0"),
        ("design", _set(["poles"], []), "need 2 observer poles, one per block state, got 0"),
        ("design", _set(["poles"], [-4, -9, -12]), "need 2 observer poles"),
        ("design", _set(["poles"], [-4, 0]), "observer poles must be strictly negative"),
        ("design", _set(["poles"], [-4, -4]), "observer poles must be distinct"),
        ("controller", {"K": {"1,1": [[1, 2, 3]]}}, "(1,1) has shape (1, 3), expected (1, 2)"),
        ("controller", {"K": {"1,1": [[INF, 2]]}}, "(1,1) has entries that are not finite"),
        ("controller", {"K": {"99,1": [[1, 2]]}}, "no agent 99 among 1..9"),
        ("controller", {"K": {"2,3": [[-1, 0]]}}, "3 is not a physical in-neighbour of 2"),
        ("cover", _set(["sets", 0, "members"], []), "set 1 has no members"),
        ("cover", _set(["membership"], []), NOT_AN_OBJECT),
        ("plant", {**_full_plant(9, []), "A": []}, NOT_AN_OBJECT),
        ("design", _set(["Hbar"], []), NOT_AN_OBJECT),
        ("design", _set(["P"], []), NOT_AN_OBJECT),
        ("controller", {"K": []}, NOT_AN_OBJECT),
        ("pair", _set(["n"], 5.7), "node count must be a positive integer, got 5.7"),
        ("cover", _set(["node_count"], 5.7), "node_count must be an integer, got 5.7"),
        ("cover", _set(["sets", 0, "id"], 1.5), "set 1.5 has a non-integer id or member"),
        ("cover", _shift_first_set(0.4), "set 1 has a non-integer id or member: (1.4, 2.4)"),
        ("plant", {"microgrid": {"seed": 1.5}}, "seed must be a non-negative integer, got 1.5"),
        ("plant", {"microgrid": {"seed": 1, "coupling_scale": "2.5e8"}},
         "coupling scale must be finite, got '2.5e8'"),
        ("plant", {"microgrid": {"seed": 1, "coupling_scale": True}},
         "coupling scale must be finite, got True"),
        ("plant", {"microgrid": {"seed": 1, "coupling-scale": 2.5e8}},
         "microgrid shorthand has unknown keys: ['coupling-scale']"),
        ("plant", {**_full_plant(9, []), "N": True},
         "N, n, m, p must be positive integers, got (True, 2, 1, 1)"),
        ("plant", _full_plant(9, [("1_0", 1)]),
         "A key '1_0,1' is not a pair of agent numbers"),
        ("design", _set(["n"], 2.5), "is for 9 agents of order 2.5, the plant has 9 of order 2"),
        ("design", _set(["theta"], "6"), "theta, gamma and the constants must be finite numbers"),
        ("design", _set(["poles"], ["-4", "-9"]),
         "observer poles must be finite numbers, got ['-4', '-9']"),
        ("design", _set(["policy"], 5), "unknown gamma policy 5"),
        ("design", _set(["Hbar", "01"], [[0.0], [0.0]]),
         "Hbar key '01' is not an agent number"),
        ("controller", {"K": {"1,1": [[-1, -1]], "01,1": [[1, 2]]}},
         "K key '01,1' is not a pair of agent numbers"),
        ("controller", {"K": {" 2,2": [[-1, -1]]}},
         "K key ' 2,2' is not a pair of agent numbers"),
        ("controller", {"K": {"1,1": [["-1", "-1"]]}},
         "K block (1,1) has entries that are not finite numbers"),
        ("controller", {"K": {"1,1": [[True, False]]}},
         "K block (1,1) has entries that are not finite numbers"),
        ("controller", {"K": {"1,1": [[1, True]]}},
         "K block (1,1) has entries that are not finite numbers"),
        ("design", _set(["P", "1", 0, 0], True), "P 1 has entries that are not finite numbers"),
        ("plant", {**_full_plant(9, []), "C": {**_full_plant(9, [])["C"], "3": [[1, "0"]]}},
         "C block 3 has entries that are not finite numbers"),
    ],
    ids=[
        "pair-infinite-n", "pair-string-edge", "cover-infinite-node-count",
        "plant-infinite-seed", "plant-two-agents", "plant-coupling-off-edges",
        "design-infinite-n", "design-wide-hbar", "design-infinite-p",
        "design-small-p", "design-infinite-gamma", "design-negative-gamma", "design-no-poles",
        "design-three-poles", "design-zero-pole", "design-repeated-poles", "controller-wide-block",
        "controller-infinite-block",
        "controller-agent-99", "controller-not-in-neighbour", "cover-empty-set",
        "cover-membership-list", "plant-a-list", "design-hbar-list", "design-p-list",
        "controller-k-list", "pair-fractional-n", "cover-fractional-node-count",
        "cover-fractional-set-id", "cover-fractional-members",
        "plant-fractional-seed", "plant-string-coupling-scale", "plant-bool-coupling-scale",
        "plant-misspelt-coupling-scale", "plant-bool-n", "plant-underscored-key",
        "design-fractional-n", "design-string-theta", "design-string-poles",
        "design-number-policy", "design-padded-hbar-key", "controller-padded-key",
        "controller-spaced-key", "controller-string-entries", "controller-bool-entries",
        "controller-int-and-bool-entries", "design-bool-p-entry", "plant-string-c-entry",
    ],
)
def test_artifact_that_does_not_fit_is_exit_2(
    tmp_path, capsys, star9_files, kind, change, message
):
    # each once ended in a traceback (exit 1), was accepted silently, or
    # named its file twice (a list where an object belongs raised
    # AttributeError); a controller block that the observer bank has
    # no estimate for was dropped by the distributed loop but not by
    # assemble_K; the loaders' int() and float() read a fractional seed or
    # order, a string theta or coupling scale and a bool count as numbers,
    # and a padded, spaced or underscored block key as some block
    files = {k: str(p) for k, p in star9_files.items()}
    bad = tmp_path / f"bad-{kind}.json"
    if isinstance(change, dict):
        doc = change
    else:
        doc = json.loads(Path(files[kind]).read_text())
        change(doc)
    bad.write_text(json.dumps(doc).replace(f'"{INF}"', "1e999"))
    files[kind] = str(bad)
    if kind in ("design", "controller"):
        argv = ["sim", "run", "--design", files["design"]]
    else:
        argv = ["gains", "synth", "--theta", "6", "--poles=-4,-9"]
    if kind == "controller":
        argv += ["--controller", files["controller"]]
    rc = main([*argv, *(f"--{k}={files[k]}" for k in ("pair", "cover", "plant")),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and err.count("\n") == 1 and err.count(str(bad)) == 1
    assert not (tmp_path / "out").exists()


def test_sim_run_divergence_is_exit_1(tmp_path, capsys):
    # open-loop unstable second node plus a useless gamma: the blow-up
    # guard inside the integrator must surface as a numeric failure
    pair = NetworkPair(2, [[2, 1]], [(1, 2)])
    assignment = solve(pair)
    plant = BlockPlant(
        N=2, n=2, m=1, p=1,
        A_blocks={
            (1, 1): np.array([[0.0, 1.0], [-2.0, -3.0]]),
            (2, 2): np.array([[0.0, 1.0], [3.0, 0.0]]),
            (1, 2): np.array([[0.0, 0.0], [0.2, 0.0]]),
        },
        B_blocks={1: np.array([[0.0], [1.0]]), 2: np.array([[0.0], [1.0]])},
        C_blocks={1: np.array([[1.0, 0.0]]), 2: np.array([[1.0, 0.0]])},
    )
    gains = ControllerGains(K_blocks={
        (1, 1): np.array([[-1.0, -1.0]]),
        (2, 2): np.array([[-4.0, -4.0]]),
        (1, 2): np.array([[0.2, 0.0]]),
    })
    design = synthesize(
        plant, assignment, pair, 2.0, gains,
        gamma=1e-4, policy="fixed", poles=(-4.0, -9.0),
    )
    from coverobs.coverage import save_cover

    save_pair(pair, tmp_path / "p.json")
    save_plant(plant, tmp_path / "pl.json")
    save_cover(assignment, tmp_path / "c.json")
    save_controller(gains, tmp_path / "k.json")
    save_design(design, tmp_path / "d.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 40.0, "seed": 2, "force": True}))
    rc = main([
        "sim", "run", "--pair", str(tmp_path / "p.json"),
        "--cover", str(tmp_path / "c.json"), "--plant", str(tmp_path / "pl.json"),
        "--design", str(tmp_path / "d.json"),
        "--controller", str(tmp_path / "k.json"),
        "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 1
    assert "diverged" in capsys.readouterr().err


def test_sim_sweep_csv_rows_decrease(tmp_path, capsys, recovery_benchmark):
    pair, assignment, plant, gains = recovery_benchmark
    from coverobs.coverage import save_cover

    save_pair(pair, tmp_path / "p.json")
    save_plant(plant, tmp_path / "pl.json")
    save_cover(assignment, tmp_path / "c.json")
    save_controller(gains, tmp_path / "k.json")
    out = tmp_path / "sweep.csv"
    rc = main([
        "sim", "sweep", "--pair", str(tmp_path / "p.json"),
        "--cover", str(tmp_path / "c.json"),
        "--plant", str(tmp_path / "pl.json"),
        "--controller", str(tmp_path / "k.json"),
        "--thetas", "2,8", "--repeats", "1", "--seed", "0",
        "--policy", "fixed", "--gamma", "500", "--poles=-8,-16",
        "--observer-init", "0", "--force", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest_hash=")
    assert lines[1] == "theta,mean_gap,min_gap,max_gap"
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert len(rows) == 2
    assert rows[0][1] > rows[1][1] > 0.0


def test_sim_report_emits_radii(tmp_path, capsys):
    _, paths = _write_two_node(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 6.0, "seed": 3}))
    out = tmp_path / "report.json"
    rc = main([
        "sim", "report", "--pair", str(paths["pair"]),
        "--cover", str(paths["cover"]), "--plant", str(paths["plant"]),
        "--design", str(paths["design"]),
        "--controller", str(paths["controller"]),
        "--config", str(cfg), "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    for key in ("c_theta", "omega_e_radius", "omega_x_radius",
                "within_omega_x", "I_x", "manifest_hash"):
        assert key in doc
    assert doc["c_theta"] > 0.0


def test_sim_report_without_controller_is_quiet(tmp_path, capsys):
    # the report once solved a Lyapunov equation for the open loop, whose zero
    # eigenvalue made scipy warn on stderr, for a radius that ||K|| = 0 zeroed
    from coverobs.coverage import save_cover
    from coverobs.plant import build_microgrid

    pair = star_pair(9)
    plant = build_microgrid(pair, seed=1, coupling_scale=2.5e8)
    assignment = solve(pair)
    design = synthesize(
        plant, assignment, pair, 6.0, ControllerGains(K_blocks={}),
        poles=(-4.0, -9.0),
    )
    save_pair(pair, tmp_path / "p.json")
    save_plant(plant, tmp_path / "pl.json")
    save_cover(assignment, tmp_path / "c.json")
    save_design(design, tmp_path / "d.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 1.0}))
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main([
            "sim", "report", "--pair", str(tmp_path / "p.json"),
            "--cover", str(tmp_path / "c.json"), "--plant", str(tmp_path / "pl.json"),
            "--design", str(tmp_path / "d.json"), "--config", str(cfg),
            "--out", str(out),
        ])
    assert rc == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(out.read_text())
    assert doc["c_theta"] > 0.0
    assert doc["omega_x_radius"] == 0.0


# ------------------------------------------------------------------ pipeline

def test_pipeline_links_every_artifact_to_one_manifest(tmp_path, capsys):
    outdir = tmp_path / "run"
    rc = main([
        "pipeline", "-n", "9", "--star", "--coupling-scale", "2.5e8",
        "--theta", "6", "--poles=-4,-9", "--horizon", "3",
        "--repeats", "1", "--outdir", str(outdir),
    ])
    assert rc == 0
    digest = json.loads((outdir / "manifest.json").read_text())["hash"]
    for name in ("pair.json", "cover.json", "plant.json", "design.json"):
        assert json.loads((outdir / name).read_text())["manifest_hash"] == digest
    for name in ("result.csv", "sweep.csv"):
        first = (outdir / name).read_text().splitlines()[0]
        assert first == f"# manifest_hash={digest}"


def test_pipeline_names_failing_stage(tmp_path, capsys):
    rc = main([
        "pipeline", "-n", "5", "--star",
        "--controller", str(tmp_path / "nope.json"),
        "--outdir", str(tmp_path / "run"),
    ])
    assert rc == 2
    assert "stage gains" in capsys.readouterr().err


def test_pipeline_repeated_poles_is_exit_2(tmp_path, capsys):
    rc = main([
        "pipeline", "-n", "9", "--star", "--theta", "6", "--poles=-4,-4",
        "--outdir", str(tmp_path / "run"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage gains" in err and "distinct" in err and err.count("\n") == 1
    assert not (tmp_path / "run" / "design.json").exists()


def test_pipeline_warns_once_per_theta(tmp_path, capsys):
    # the sweep reuses the gains stage's design at theta 12, which once
    # printed its stiffness warning a second time
    assert main([
        "pipeline", "-n", "9", "--star", "--coupling-scale", "2.5e8", "--theta", "12",
        "--thetas", "10,12", "--policy", "paper", "--poles=-4,-9", "--horizon", "0.05",
        "--outdir", str(tmp_path / "run"),
    ]) == 0
    err = capsys.readouterr().err
    assert err.count("stiffness") == 2
    assert err.count("theta=10 ") == 1 and err.count("theta=12 ") == 1


@pytest.mark.parametrize("paper", [False, True], ids=["auto", "paper"])
def test_pipeline_matches_subcommand_chain(tmp_path, capsys, paper):
    # pipeline composes the subcommands' stages: the same files and the same
    # warnings as the chain net gen -> cover solve -> gains synth -> sim run
    # -> sim sweep (the paper schedule warns at theta >= 10 in two stages)
    pipe, chain = tmp_path / "pipe", tmp_path / "chain"
    policy = ["--policy", "paper", "--poles=-4,-9"] if paper else ["--poles=-4,-9"]
    force = ["--force"] if paper else []
    gains_flags = ["--theta", "10" if paper else "6", *policy]
    sweep_flags = ["--thetas", "4,12", "--repeats", "1", "--seed", "2", "--horizon", "1"]
    assert main([
        "pipeline", "-n", "9", "--star", "--coupling-scale", "2.5e8",
        *gains_flags, *sweep_flags, *force, "--outdir", str(pipe),
    ]) == 0
    pipe_err = capsys.readouterr().err
    chain.mkdir()
    (chain / "cfg.json").write_text(json.dumps({"horizon": 1.0, "seed": 2}))
    files = ["--pair", str(chain / "pair.json"), "--cover", str(chain / "cover.json"),
             "--plant", str(pipe / "plant.json")]
    chain_err = ""
    for argv in (
        ["net", "gen", "-n", "9", "--star", "--out", str(chain / "pair.json")],
        ["cover", "solve", "--pair", str(chain / "pair.json"),
         "--out", str(chain / "cover.json")],
        ["gains", "synth", *files, *gains_flags, "--out", str(chain / "design.json")],
        ["sim", "run", *files, "--design", str(chain / "design.json"), *force,
         "--config", str(chain / "cfg.json"), "--out", str(chain / "result.csv")],
        ["sim", "sweep", *files, *sweep_flags, *policy, *force,
         "--out", str(chain / "sweep.csv")],
    ):
        assert main(argv) == 0
        chain_err += capsys.readouterr().err
    assert pipe_err == chain_err
    assert pipe_err.count("stiffness") == (2 if paper else 0)

    def doc(path):
        return {k: v for k, v in json.loads(path.read_text()).items() if k != "manifest_hash"}

    for name in ("pair.json", "cover.json", "design.json"):
        assert doc(pipe / name) == doc(chain / name)
    for name in ("result.csv", "sweep.csv"):
        rows = [(d / name).read_text().splitlines()[1:] for d in (pipe, chain)]
        assert rows[0] == rows[1] and len(rows[0]) > 2


def test_pipeline_sweep_reuses_the_pipeline_design(tmp_path, capsys, monkeypatch):
    # the sweep takes the design the pipeline built for its own theta and
    # synthesizes only the others; its rows equal those of `sim sweep`,
    # which synthesizes every theta afresh
    from coverobs import cli

    thetas = []

    def counted(*args, **kwargs):
        thetas.append(args[3])
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(cli, "synthesize", counted)
    pipe = tmp_path / "pipe"
    flags = ["--thetas", "4,6", "--repeats", "2", "--horizon", "1", "--poles=-4,-9"]
    assert main([
        "pipeline", "-n", "9", "--star", "--coupling-scale", "2.5e8", "--theta", "6",
        *flags, "--outdir", str(pipe),
    ]) == 0
    assert thetas == [6.0, 4.0]
    files = [f"--{name}={pipe / name}.json" for name in ("pair", "cover", "plant")]
    assert main(["sim", "sweep", *files, *flags, "--out", str(tmp_path / "sweep.csv")]) == 0
    assert thetas == [6.0, 4.0, 4.0, 6.0]
    rows = [p.read_text().splitlines()[1:] for p in (pipe / "sweep.csv", tmp_path / "sweep.csv")]
    assert rows[0] == rows[1] and len(rows[0]) == 3


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_exit_0(tmp_path, buffered):
    # `cover stats ... | head -1` once ended in a BrokenPipeError traceback
    # with exit 1, the code for numeric failure
    save_pair(star_pair(9), tmp_path / "pair.json")
    src = str(Path(coverobs.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "coverobs.cli", "cover", "stats",
         "--pair", str(tmp_path / "pair.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # no reader is left before the first line is written
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# -------------------------------------------------------------- output paths

def _writing_commands(tmp_path) -> dict:
    """Every command that writes a file, as argv up to its output path."""
    _, paths = _write_two_node(tmp_path)
    files = [
        "--pair", str(paths["pair"]), "--cover", str(paths["cover"]),
        "--plant", str(paths["plant"]), "--controller", str(paths["controller"]),
    ]
    run = [*files, "--design", str(paths["design"])]
    return {
        "net gen": ["net", "gen", "-n", "5", "--out"],
        "cover solve": ["cover", "solve", "--pair", str(paths["pair"]), "--out"],
        "gains synth": ["gains", "synth", *files, "--theta", "3", "--out"],
        "sim run": ["sim", "run", *run, "--out"],
        "sim sweep": ["sim", "sweep", *files, "--thetas", "3", "--repeats", "1", "--out"],
        "sim report": ["sim", "report", *run, "--out"],
        "pipeline": ["pipeline", "-n", "5", "--star", "--outdir"],
    }


def _tree(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*")}


@pytest.mark.parametrize("kind", ["taken", "orphan"])
@pytest.mark.parametrize(
    "command",
    ["net gen", "cover solve", "gains synth", "sim run", "sim sweep", "sim report", "pipeline"],
)
def test_unwritable_output_path_is_exit_2_and_writes_nothing(tmp_path, capsys, command, kind):
    # "taken": a directory where a file goes, or a file where the pipeline's
    # directory goes; "orphan": its directory is missing, or a file
    argv = _writing_commands(tmp_path)[command]
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    if command == "pipeline":
        out = tmp_path / ("afile" if kind == "taken" else "afile/run")
    else:
        out = tmp_path / ("adir" if kind == "taken" else "missing/out.json")
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main([*argv, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert _tree(tmp_path) == before


def test_output_to_a_device_writes_no_manifest(tmp_path, capsys):
    # the run goes to /dev/null through a link; its side manifest would go
    # beside the link, and is written only beside a regular file
    argv = _writing_commands(tmp_path)["sim run"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 0.5}))
    sink = tmp_path / "sink.csv"
    sink.symlink_to(os.devnull)
    before = _tree(tmp_path)
    assert main([*argv[:-1], "--config", str(cfg), "--out", str(sink)]) == 0
    assert _tree(tmp_path) == before
