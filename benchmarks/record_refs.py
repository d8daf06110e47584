"""Record the reference outputs that every benchmark pass is checked against.

Run once, at the commit that defines the benchmark, from the checkout root::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 benchmarks/record_refs.py

It runs each workload's pass for every input variant and writes the fixed
and per-variant summaries to ``benchmarks/references.json``.  Re-recording
later would make the checks compare a commit with itself; a change whose
outputs move on purpose says so and re-records in its own commit.
"""

from __future__ import annotations

import argparse
import json
import shutil
from pathlib import Path

import workloads

REFS = Path(__file__).with_name("references.json")


def record(name: str, tmp: Path) -> dict:
    wl = workloads.WORKLOADS[name]
    fixed, variants = None, {}
    for v in range(workloads.VARIANTS):
        ctx = workloads.Context(tmp=tmp)
        outputs = wl.run_pass(wl.make_inputs(v), ctx).outputs
        f, var, problems = wl.summary(outputs, ctx)
        if problems:
            raise SystemExit(f"{name} variant {v}: {problems}")
        if fixed is not None and workloads.compare(f, fixed, wl.rtol):
            raise SystemExit(f"{name} variant {v}: fixed outputs moved {f} vs {fixed}")
        fixed = f
        variants[str(v)] = var
        print(name, v, var, flush=True)
    return {"fixed": fixed, "variants": variants}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    refs = json.loads(REFS.read_text()) if REFS.exists() else {}
    tmp = Path(".benchmarks_tmp") / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workload or sorted(workloads.WORKLOADS):
            refs[name] = record(name, tmp)
            REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
