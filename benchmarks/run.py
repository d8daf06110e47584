"""coverobs benchmark: three workloads, end-to-end metrics or per-layer spans.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload paper47-run --seed 0 --seconds 36 --trace 0

Workloads (one process each, single-threaded, closed loop: each pass starts
when the previous one has finished and been checked):

* ``paper47-run``: the paper's scale.  ``gen_random_pair(47, 3.0, 0.85,
  seed=0)`` (mean observer dim 17.53), ``solve``, ``build_microgrid(seed=1,
  coupling_scale=2.5e8)``, ``synthesize(theta=6, policy="auto",
  poles=(-4, -9))`` and one ``run_distributed`` over a 3 ms horizon.
* ``star9-pipeline``: the README example through ``coverobs.cli.main``:
  ``pipeline -n 9 --star --coupling-scale 2.5e8 --theta 6 --poles=-4,-9``.
* ``cover-scale``: (a) ``gen_random_pair(800, 3.0, 0.85, seed=0,
  tol=0.08)``, ``solve``, ``dimension_stats`` and ``gamma_lower_bound`` at
  theta 6; (b) 500 random pairs of 4-40 nodes by the recipe of acceptance
  gate 1, each generated, solved and validated.  The ``extra`` line gives
  ``design_s``, the time of (a), and ``covers_per_s`` of (b).

``--seed`` picks one of 16 input variants (``seed % 16``); ``workloads.py``
says what it varies.  Default seed 0; held-out seed 13.

With ``--trace 0`` the last line holds the end-to-end metrics: ``wall_s``
(the mean pass of the run, its measured time over its pass count; median,
fastest, slowest and pass count are on the ``extra`` line), ``setup_s``
(median over three processes of interpreter start to the first timed call:
imports and input building) and ``peak_rss_mb``.
With ``--trace 1`` untraced and traced passes alternate and the last line
holds the per-layer metrics of the traced ones; the spans are written to
``.benchmarks_out/``.  Every pass is checked against ``references.json``; a
failed check counts in ``failed``.  The ``host`` line records the machine,
library versions and thread settings; BLAS, OpenMP and ``COVEROBS_THREADS``
are pinned to :data:`THREADS`.

Why long runs and the mean pass: on a shared host other tenants slow this
process by up to 30 %, in CPU time as much as in wall time, and the slowdown
drifts over seconds to minutes.  Identical ``star9-pipeline`` passes in one
process took 5.5-9.4 s over 8 minutes, and a 0.3 s calibration loop run
between them varied threefold without tracking them, so neither the fastest
pass nor a calibration removes the drift.  What narrows the spread between
runs is averaging over as much of each run as possible: the mean of all
passes, in runs as long as the time limit for all runs allows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import METRICS

WORKLOADS = ("paper47-run", "star9-pipeline", "cover-scale")
DEFAULT_SEED = 0
THREADS = 1
SETUP_PROBES = 2
DEADLINE_S = 170.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def host_record(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "coverobs").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": THREADS,
    }


def spawn(worker_args: list[str], env: dict, root: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return its start time and its JSON result."""
    out = Path(worker_args[worker_args.index("--out") + 1])
    started = time.monotonic()
    # the worker's own stdout (the CLI prints a summary) goes to stderr so
    # that the result stays the last line of ours
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), *worker_args],
        env=env, cwd=root, stdout=sys.stderr, check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return started, json.loads(out.read_text())


def main() -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "coverobs" / "__init__.py").is_file():
        print(f"error: no coverobs sources under {src}", file=sys.stderr)
        return 1
    if THREADS > (os.cpu_count() or 1):
        print(f"error: THREADS={THREADS} exceeds nproc", file=sys.stderr)
        return 1
    tmp = root / ".benchmarks_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        {
            "PYTHONPATH": str(src),
            "OPENBLAS_NUM_THREADS": str(THREADS),
            "OMP_NUM_THREADS": str(THREADS),
            "MKL_NUM_THREADS": str(THREADS),
            "COVEROBS_THREADS": str(THREADS),
            "TMPDIR": str(tmp),
        }
    )
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", str(src),
    ]
    deadline = t_start + DEADLINE_S
    setups = []
    try:
        if not args.trace:
            for k in range(SETUP_PROBES):
                started, probe = spawn(
                    [*common, "--out", str(tmp / f"setup{k}.json"), "--setup-only"],
                    env, root, deadline,
                )
                setups.append(probe["ready"] - started)
        started, doc = spawn([*common, "--out", str(tmp / "result.json")], env, root, deadline)
        setups.append(doc["ready"] - started)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    host = {**host_record(root), **doc["host"]}
    print("host " + json.dumps(host, sort_keys=True))
    for problem in doc["problems"]:
        print(f"check failed: {problem.strip()}")
    extra = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(doc["walls"]),
        "wall_s_median": statistics.median(doc["walls"]),
        "wall_s_min": min(doc["walls"]),
        "wall_s_max": max(doc["walls"]),
        "setup_samples": len(setups),
        "fail_ratio": doc["failed"] / doc["attempted"],
        **doc["extra"],
    }
    if args.trace:
        values = {name: doc["layer"].get(name, 0) for name, _, _ in METRICS}
        units = {name: unit for name, unit, _ in METRICS}
        extra["missing"] = doc["missing"]
        if "probe" in doc:
            extra["synthesize_probe"] = doc["probe"]
    else:
        values = {
            "wall_s": statistics.fmean(doc["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        units = END_TO_END
    for name, value in values.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print("extra " + json.dumps(extra, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": doc["failed"] == 0,
                "attempted": doc["attempted"],
                "failed": doc["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
