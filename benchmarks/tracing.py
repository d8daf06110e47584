"""Spans around the public functions of each coverobs layer, installed from outside.

Nothing in ``src/`` is edited.  :meth:`Tracer.install` rebinds every module
attribute in the ``coverobs`` package that refers to one of the functions in
:data:`TARGETS`, so calls made between layers (``simloop`` calling
``gains.synthesize``, ``cli`` calling ``coverage.solve``) pass through a
wrapper that records one span.  A name that no longer exists is reported as
missing instead of failing, so later refactors stay measurable.

A span is ``[name, layer, start, end, parent, pass_id, raised]``.  Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

LAYERS = ("netgraph", "coverage", "plant", "gains", "observer", "simloop", "cli")

# (home module, function name).  A span is named "<module>.<function>" and
# charged to the home module's layer.
TARGETS = (
    ("netgraph", "gen_random_pair"),
    ("netgraph", "star_pair"),
    ("netgraph", "distances_to"),
    ("netgraph", "shortest_path"),
    ("netgraph", "grounded_spectrum"),
    ("netgraph", "save_pair"),
    ("coverage", "solve"),
    ("coverage", "establish"),
    ("coverage", "merge"),
    ("coverage", "validate"),
    ("coverage", "dimension_stats"),
    ("coverage", "save_cover"),
    ("plant", "build_microgrid"),
    ("plant", "assemble"),
    ("plant", "save_plant"),
    ("gains", "synthesize"),
    ("gains", "gamma_lower_bound"),
    ("gains", "save_design"),
    ("observer", "build_observer_matrices"),
    ("simloop", "suggest_step"),
    ("simloop", "run_distributed"),
    ("simloop", "run_centralized"),
    ("simloop", "theta_sweep"),
    ("cli", "main"),
)

SAVE_FUNCTIONS = {
    "netgraph.save_pair",
    "coverage.save_cover",
    "plant.save_plant",
    "gains.save_design",
}

# Per-layer metrics as (name, unit, better), in the order BENCHMARK.json
# lists them.  Every traced run reports all of them; a layer the workload
# never calls reads 0.
METRICS = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("netgraph.gen_s", "s", "lower"),
        ("netgraph.gen_calls", "count", "lower"),
        ("coverage.establish_s", "s", "lower"),
        ("coverage.merge_s", "s", "lower"),
        ("coverage.validate_s", "s", "lower"),
        ("coverage.solve_calls", "count", "lower"),
        ("coverage.bfs_calls", "count", "lower"),
        ("coverage.total_load", "count", "lower"),
        ("coverage.sets", "count", "lower"),
        ("gains.synthesize_s", "s", "lower"),
        ("gains.synthesize_calls", "count", "lower"),
        ("gains.synthesize_failed", "count", "lower"),
        ("gains.gamma_bound_s", "s", "lower"),
        ("gains.grounded_spectrum_calls", "count", "lower"),
        ("gains.grounded_spectrum_s", "s", "lower"),
        ("observer.build_s", "s", "lower"),
        ("observer.dim", "count", "lower"),
        ("observer.nnz", "count", "lower"),
        ("observer.dense_bytes", "bytes", "lower"),
        ("simloop.suggest_step_s", "s", "lower"),
        ("simloop.suggest_step_calls", "count", "lower"),
        ("simloop.integrate_s", "s", "lower"),
        ("simloop.steps", "count", "lower"),
        ("simloop.sat_steps", "count", "lower"),
        ("simloop.sat_ratio", "ratio", "lower"),
        ("simloop.h", "s", "higher"),
        ("simloop.steps_per_s", "1/s", "higher"),
        ("simloop.bytes_per_step", "bytes", "lower"),
        ("simloop.centralized_s", "s", "lower"),
        ("simloop.sweep_self_s", "s", "lower"),
        ("cli.save_s", "s", "lower"),
        ("cli.bytes_written", "bytes", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.missing", "count", "lower"),
    ]
)


class Tracer:
    """Records spans while ``enabled``; wrappers cost one flag test otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.root = 0  # index of the current pass's root span
        self.pass_id = -1
        self.enabled = False
        self.missing: list[str] = []
        # (span name, returned object) for the names in NOTES
        self.outputs: list[tuple[str, object]] = []

    # --------------------------------------------------------- installation

    def install(self) -> None:
        for home, attr in TARGETS:
            module = importlib.import_module(f"coverobs.{home}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"coverobs.{home}.{attr}")
                continue
            wrapper = self._wrap(f"{home}.{attr}", home, original)
            rebind(original, wrapper)

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        keep = name in NOTES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, tracer.stack[-1], tracer.pass_id, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[3] = perf_counter()
                span[6] = True
                tracer.stack.pop()
                raise
            span[3] = perf_counter()
            tracer.stack.pop()
            if keep:
                tracer.outputs.append((name, out))
            return out

        return wrapper

    # --------------------------------------------------------------- passes

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.root = len(self.spans)
        self.stack = [self.root]
        self.spans.append(["pass", "bench", perf_counter(), 0.0, -1, pass_id, False])
        self.enabled = True

    def end_pass(self) -> float:
        self.enabled = False
        root = self.spans[self.root]
        root[3] = perf_counter()
        return root[3] - root[2]

    def dump(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "pass", "raised")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": keys, "spans": self.spans, "missing": self.missing}, fh)

    # -------------------------------------------------------------- metrics

    def pass_metrics(self, extra: dict) -> dict:
        """Per-layer metrics of the pass that ended last."""
        first = self.root
        spans = self.spans[first:]
        dur = [s[3] - s[2] for s in spans]
        child = [0.0] * len(spans)
        for k, s in enumerate(spans):
            if s[4] >= 0:
                child[s[4] - first] += dur[k]
        selfs = [d - c for d, c in zip(dur, child)]

        def total(names, use=dur, parent_layer=None):
            out = 0.0
            for k, s in enumerate(spans):
                if s[0] in names and (
                    parent_layer is None or spans[s[4] - first][1] == parent_layer
                ):
                    out += use[k]
            return out

        def count(names, parent_layer=None, raised=None):
            return sum(
                1
                for s in spans
                if s[0] in names
                and (parent_layer is None or spans[s[4] - first][1] == parent_layer)
                and (raised is None or s[6] == raised)
            )

        res: dict = {}
        for name, out in self.outputs:
            NOTES[name](res, out)
        self.outputs = []
        m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for k, s in enumerate(spans):
            if s[1] in LAYERS:
                m[f"{s[1]}.self_s"] += selfs[k]
        gen = {"netgraph.gen_random_pair", "netgraph.star_pair"}
        spectrum = {"netgraph.grounded_spectrum"}
        integrate_s = total({"simloop.run_distributed"}, selfs)
        steps = res.get("steps", 0)
        dim, rows = res.get("operator_dim", 0), res.get("fused_rows", 0)
        m.update(
            {
                "netgraph.gen_s": total(gen),
                "netgraph.gen_calls": count(gen),
                "coverage.establish_s": total({"coverage.establish"}),
                "coverage.merge_s": total({"coverage.merge"}),
                "coverage.validate_s": total({"coverage.validate"}),
                "coverage.solve_calls": count({"coverage.solve"}),
                "coverage.bfs_calls": count(
                    {"netgraph.distances_to", "netgraph.shortest_path"}
                ),
                "coverage.total_load": res.get("total_load", 0),
                "coverage.sets": res.get("sets", 0),
                "gains.synthesize_s": total({"gains.synthesize"}),
                "gains.synthesize_calls": count({"gains.synthesize"}),
                "gains.synthesize_failed": count({"gains.synthesize"}, raised=True),
                "gains.gamma_bound_s": total({"gains.gamma_lower_bound"}),
                "gains.grounded_spectrum_calls": count(spectrum, parent_layer="gains"),
                "gains.grounded_spectrum_s": total(spectrum, parent_layer="gains"),
                "observer.build_s": total({"observer.build_observer_matrices"}),
                "observer.dim": res.get("observer_dim", 0),
                "observer.nnz": res.get("observer_nnz", 0),
                "observer.dense_bytes": res.get("observer_bytes", 0),
                "simloop.suggest_step_s": total({"simloop.suggest_step"}),
                "simloop.suggest_step_calls": count({"simloop.suggest_step"}),
                "simloop.integrate_s": integrate_s,
                "simloop.steps": steps,
                "simloop.sat_steps": res.get("sat_steps", 0),
                "simloop.sat_ratio": res.get("sat_steps", 0) / steps if steps else 0.0,
                "simloop.h": res.get("h", 0.0),
                "simloop.steps_per_s": steps / integrate_s if integrate_s > 0 else 0.0,
                # computed, not measured: one dense R@z and one Phi_z@z per step
                "simloop.bytes_per_step": 8 * (dim * dim + rows * dim),
                "simloop.centralized_s": total({"simloop.run_centralized"}),
                "simloop.sweep_self_s": total({"simloop.theta_sweep"}, selfs),
                "cli.save_s": total(SAVE_FUNCTIONS, parent_layer="cli"),
                "trace.wall_s": dur[0],
                "trace.unattributed_s": selfs[0],
                "trace.spans": len(spans) - 1,
                "trace.missing": len(self.missing),
            }
        )
        m.update(extra)
        return m


def rebind(original, replacement) -> None:
    """Point every ``coverobs`` module attribute holding ``original`` elsewhere."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "coverobs" and not mod_name.startswith("coverobs."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# Outputs read from returned objects once the pass has ended, so reading
# them is charged to no layer and to no pass.

def _note_solve(res: dict, cover) -> None:
    res["total_load"] = res.get("total_load", 0) + cover.total_load()
    res["sets"] = res.get("sets", 0) + len(cover.nonempty_sets())


def _note_observer(res: dict, mats) -> None:
    import numpy as np

    parts = (mats.A_obs, mats.L_x, mats.Phi, mats.K_sel)
    res["observer_dim"] = int(mats.A_obs.shape[0])
    res["observer_nnz"] = int(sum(np.count_nonzero(p) for p in parts))
    res["observer_bytes"] = int(sum(p.nbytes for p in parts))
    res["operator_dim"] = int(mats.A_obs.shape[0] + mats.L_x.shape[1])
    res["fused_rows"] = int(mats.Phi.shape[0])


def _note_sim(res: dict, result) -> None:
    res["steps"] = res.get("steps", 0) + int(result.steps)
    res["sat_steps"] = res.get("sat_steps", 0) + int(result.sat_steps)
    res["h"] = float(result.h)


NOTES = {
    "coverage.solve": _note_solve,
    "observer.build_observer_matrices": _note_observer,
    "simloop.run_distributed": _note_sim,
}
