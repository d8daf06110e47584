"""Run every workload over several seeds, print all metrics, write a BENCH record.

From the root of a checkout::

    python3 benchmarks/baseline.py --seeds 0-9 --out benchmarks/BENCH_<tag>.json

Each workload runs untraced once per seed and traced once, on the first
seed.  Printed: every end-to-end metric of every run (with ``fail_ratio``,
and ``design_s`` and ``covers_per_s`` on ``cover-scale``),
every per-layer metric of the traced run with the sum of its layer self
times against the traced pass, and per workload and metric the median,
quartiles and quartile spread over the seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS
from tracing import LAYERS

# headline numbers of the two parts of cover-scale under their own names
ALIASES = {"cover-scale": (("design_s", "s"), ("covers_per_s", "1/s"))}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    got = subprocess.run(
        [
            sys.executable, str(Path(__file__).with_name("run.py")),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True, text=True, check=True,
    )
    lines = got.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        for tag in ("host", "extra"):
            if line.startswith(tag + " "):
                out[tag] = json.loads(line[len(tag) + 1 :])
    return out


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=[0], help="e.g. 0-9")
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    record = {"seconds": args.seconds, "seeds": args.seeds, "runs": []}
    summary = []
    for workload in args.workload or WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed, trace in [(s, 0) for s in args.seeds] + [(args.seeds[0], 1)]:
            res = run_one(workload, seed, args.seconds, trace)
            record["host"] = res.pop("host")
            res.update(workload=workload, seed=seed, trace=trace)
            record["runs"].append(res)
            extra = res["extra"]
            shown = dict(res["metrics"])
            if not trace:
                shown["fail_ratio"] = {"value": extra["fail_ratio"], "unit": "ratio"}
                for name, unit in ALIASES.get(workload, ()):
                    shown[name] = {"value": extra[name], "unit": unit}
                for name, m in shown.items():
                    values.setdefault(f"{name} [{m['unit']}]", []).append(m["value"])
            for name, m in shown.items():
                print(f"{workload:15s} seed={seed:<3d} trace={trace} "
                      f"{name:32s} {m['value']:.6g} {m['unit']}", flush=True)
            if trace:
                v = {k: m["value"] for k, m in res["metrics"].items()}
                layers = sum(v[f"{layer}.self_s"] for layer in LAYERS)
                print(f"{workload:15s} layer self sum {layers:.4f} s, traced wall "
                      f"{v['trace.wall_s']:.4f} s, gap {v['trace.wall_s'] - layers:.4f} s, "
                      f"tracing overhead {v['trace.overhead_s']:.4f} s", flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary.append(
                {"workload": workload, "metric": name, "n": len(vals), "median": med,
                 "q1": q1, "q3": q3, "spread": spread}
            )
    for row in summary:
        print(f"{row['workload']:15s} {row['metric']:24s} n={row['n']:<3d} "
              f"median {row['median']:.6g}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
              f"spread {row['spread']:.4f}")
    record["summary"] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
