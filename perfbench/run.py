"""Run one fogsched benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload herafc-full --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload is run, untraced, in as many whole passes
as fit in ``--seconds`` (at least one), and the last line of stdout
holds the end-to-end metrics: medians over the passes, the median
decision time over every decision of every pass, and the median of
several timed set-ups.  With ``--trace 1`` one untraced pass is followed by
one traced pass, and the line holds the per-layer metrics of the traced
pass; its spans are written to ``.perfbench_out/<workload>/spans.csv``.

Every pass must reproduce the output hash recorded in
``perfbench/expected.json``; otherwise the result says ``"correct": false``,
every operation of the run counts as failed, and the exit code is 1.
Exit code 2 means the benchmark could not start (bad flags, or no fogsched
sources next to it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true",
                        help="run the held-out input instead of the tuning inputs")
    return parser.parse_args(argv)


def _log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def _result(correct: bool, reps, metrics: dict) -> dict:
    attempted = max(1, sum(rep.ops for rep in reps))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": (sum(rep.tally["refused"] for rep in reps) if correct
                   else attempted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def measure(harness, args) -> tuple[list, dict]:
    """Untraced passes for `args.seconds`, plus extra timed set-ups."""
    reps = []
    started = time.perf_counter()
    while True:
        rep = harness.run_rep(args.workload, args.seed, args.heldout,
                              tag=f"rep{len(reps)}")
        _log(f"{args.workload} pass {len(reps)}: {rep.run_s:.3f} s, "
             f"{'ok' if rep.ok else '; '.join(rep.errors)}")
        reps.append(rep)
        # Whole passes only: stop unless one more is expected to end in time.
        per_pass = (time.perf_counter() - started) / len(reps)
        if per_pass * (len(reps) + 1) > args.seconds:
            break
    setups = [rep.setup_s for rep in reps]
    input_id = reps[0].input_id
    while (len(setups) < harness.SETUP_SAMPLES
           or sum(setups) < harness.SETUP_MIN_S):
        setups.append(harness.setup_once(args.workload, input_id, args.seed))
    return reps, harness.end_to_end(reps, setups)


def trace(harness, args) -> tuple[list, dict]:
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    from spans import Tracer

    plain = harness.run_rep(args.workload, args.seed, args.heldout, tag="plain")
    run_id = f"{args.workload}:{args.seed}:{plain.input_id}"
    tracer = Tracer(run_id)
    traced = harness.run_rep(args.workload, args.seed, args.heldout,
                             tracer=tracer, tag="traced")
    if traced.outcomes != plain.outcomes:
        traced.errors.append("traced and untraced outcomes differ")
    for label, rep in (("untraced", plain), ("traced", traced)):
        _log(f"{args.workload} {label} pass: {rep.run_s:.3f} s, "
             f"{'ok' if rep.ok else '; '.join(rep.errors)}")
    tracer.write_csv(str(harness.WORK_DIR / args.workload / "spans.csv"))
    return [plain, traced], harness.per_layer(traced, plain, tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import harness
    except ImportError as exc:
        _log(f"error: cannot load fogsched: {exc}")
        return 2
    if args.workload not in harness.WORKLOADS:
        _log(f"error: unknown workload {args.workload!r}; "
             f"expected one of {', '.join(harness.WORKLOADS)}")
        return 2
    reps, metrics = (trace if args.trace else measure)(harness, args)
    correct = all(rep.ok for rep in reps)
    if not args.trace:
        _log("  ".join(f"{name}={value:.6g}{unit}"
                       for name, (value, unit) in metrics.items()))
    _log(f"decisions per pass: {statistics.mean(r.ops for r in reps):.0f}; "
         f"output sha256 {reps[0].digest[:16]}")
    print(json.dumps(_result(correct, reps, metrics)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
