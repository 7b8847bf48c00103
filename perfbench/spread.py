"""Run a workload several times with different seeds and report the spread.

    python3 perfbench/spread.py --workload herafc-full --runs 10 --seconds 30

Each run is a separate ``run.py --trace 0`` process, one after another,
with seeds 1 to ``--runs``.  For every
metric it prints the median and the quartiles of the runs (Python's
``statistics.quantiles(values, n=4)``) and the distance between the
quartiles as a share of the median, which is the spread that each
end-to-end metric's bound in BENCHMARK.json must cover.  ``--save`` stores
the summary under ``spread`` in expected.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--save", action="store_true")
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    seeds = list(range(1, args.runs + 1))
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            print(f"error: seed {seed} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            if k in ("run_s", "setup_s", "decide_ms_p50")),
            flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1,
                         "q3": q3, "iqr_share": share}
        print(f"{name:40s} median {med:12.6g} {units[name]:6s} "
              f"IQR/median {share:.4f}")
    if args.save:
        path = HERE / "expected.json"
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.setdefault("spread", {})[args.workload] = {
            "runs": args.runs, "seeds": seeds, "seconds": args.seconds,
            "nproc": os.cpu_count(), "metrics": summary}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
