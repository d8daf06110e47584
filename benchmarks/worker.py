"""One benchmark process: import coverobs, build inputs, run timed passes.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and the thread counts pinned; writes its measurements as JSON to ``--out``.
With ``--setup-only`` it stops where the first timed call would start, so
the caller can time interpreter start, imports and input building again.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

# the mean of at least two passes is reported, see run.py
MIN_PASSES = 2


def host_versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import coverobs

    if not Path(coverobs.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"coverobs imported from {coverobs.__file__}, not {args.src}")
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    refs = json.loads((Path(__file__).parent / "references.json").read_text())[wl.name]
    out_path = Path(args.out)
    ctx = workloads.Context(tmp=out_path.parent)
    inputs = wl.make_inputs(args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()
    if args.setup_only:
        out_path.write_text(json.dumps({"ready": ready}))
        return 0

    want_fixed = refs["fixed"]
    want_variant = refs["variants"][str(inputs["variant"])]
    walls = {False: [], True: []}
    layer: list[dict] = []
    extras: list[dict] = []  # PassResult.extra of each checked untraced pass
    attempted = failed = 0
    problems: list[str] = []
    start = perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            tracer.begin_pass(k)
        t0 = perf_counter()
        try:
            res = wl.run_pass(inputs, ctx)
        except Exception:  # one failed pass is counted, the run goes on
            wall = perf_counter() - t0
            if traced:
                tracer.end_pass()
            problems.append(traceback.format_exc(limit=3))
            res = None
        else:
            wall = tracer.end_pass() if traced else perf_counter() - t0
        walls[traced].append(wall)
        if traced:
            written = res.extra.get("bytes_written", 0) if res is not None else 0
            layer.append(tracer.pass_metrics({"cli.bytes_written": written}))
        attempted += wl.ops
        if res is None:
            failed += wl.ops
        else:
            fixed, variant, found = wl.summary(res.outputs, ctx)
            found += workloads.compare(fixed, want_fixed, wl.rtol)
            found += workloads.compare(variant, want_variant, wl.rtol)
            problems += found
            failed += res.failed + (1 if found else 0)
            if not traced:
                extras.append(res.extra)
        k += 1
        # whole passes only: stop when the next one would end past --seconds,
        # once there are MIN_PASSES untraced passes, or one of each kind
        elapsed = perf_counter() - start
        typical = statistics.median(walls[False] + walls[True])
        if args.trace:
            enough = walls[False] and walls[True]
        else:
            enough = len(walls[False]) >= MIN_PASSES
        if enough and elapsed + typical > args.seconds:
            break

    doc = {
        "ready": ready,
        "walls": walls[False],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": host_versions(),
        "extra": {
            "ops_per_s": wl.ops / statistics.fmean(walls[False]),
            **{key: statistics.median(e[key] for e in extras) for key in (extras or [{}])[0]},
        },
    }
    if tracer is not None:
        # the fastest traced pass, compared with the fastest untraced one; its
        # layer self times add up to its wall time
        metrics = dict(min(layer, key=lambda m: m["trace.wall_s"]))
        metrics["trace.untraced_wall_s"] = min(walls[False])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        if wl.name == "cover-scale":
            probe = workloads.defect_probe(ctx)
            metrics["gains.synthesize_failed"] = probe.get("failed", 0)
            doc["probe"] = probe
        doc["layer"] = metrics
        doc["missing"] = tracer.missing
        spans_dir = Path(".benchmarks_out")
        spans_dir.mkdir(exist_ok=True)
        tracer.dump(spans_dir / f"spans-{wl.name}-seed{args.seed}.json")
    out_path.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
