"""Record the output hash of every benchmark input in expected.json.

    python3 perfbench/record.py [--workload NAME]

Runs each workload once per input (the ten tuning seeds of a simulation
workload, the one instance block of the oracle sweep, and each held-out
input) and stores the sha256 of its output.  Run it only when a change is
meant to alter fogsched's outputs, and say so where the change is
described; a change that keeps outputs must leave expected.json alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import harness


def inputs(name: str) -> list[tuple[int, bool]]:
    """(seed, heldout) pairs that cover every input of a workload."""
    seeds = range(harness.SIM_SEED_COUNT) if name != "oracle-sweep" else [0]
    return [(seed, False) for seed in seeds] + [(0, True)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS,
                        action="append", help="default: every workload")
    args = parser.parse_args(argv)
    with open(harness.EXPECTED_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    for name in args.workload or harness.WORKLOADS:
        hashes = {}
        for seed, heldout in inputs(name):
            rep = harness.run_rep(name, seed, heldout, tag="record")
            errors = [e for e in rep.errors if "hash" not in e]
            if errors:
                print(f"error: {name} input {rep.input_id}: {errors}",
                      file=sys.stderr)
                return 1
            hashes[str(rep.input_id)] = rep.digest
            print(f"{name} input {rep.input_id}: {rep.digest} "
                  f"({rep.run_s:.1f} s)", flush=True)
        doc["hashes"][name] = hashes
    doc["host"] = {"python": platform.python_version(), "nproc": os.cpu_count()}
    with open(harness.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
