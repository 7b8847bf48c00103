"""Command-line interface: run experiments, invoke the oracle, reshape CSVs.

Exit codes: 0 success, 2 invalid configuration/flags, 3 I/O failure,
4 oracle instance above the exhaustive-search limits, 5 internal invariant
failure (a mid-run SimError or PlacementError).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import io
import json
import logging
import math
import os
import sys

from . import __version__
from .ordering import OrderingError, Weights
from .oracle import OracleLimits, OracleSizeError, compare_with_heuristic, exhaustive_place
from .placement import PlacementError, ResourceMatrix
from .simkit import (ALGORITHMS, ExperimentConfig, FluctuationConfig,
                     MetricsReport, SimError, run_experiment)
from .topology import EnvConfig, GraphConfigError, build_graph
from .workload import WorkloadConfig, WorkloadError, load_application

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ORACLE_SIZE = 4
EXIT_INTERNAL = 5

FIGURE_FAMILIES = ("util-fog", "util-cloud", "latency-by-priority",
                   "share-by-priority", "order-ablation", "timing")

CSV_HEADER = ["metric", "tier", "priority", "app_count", "value", "seed"]


class CliConfigError(ValueError):
    pass


def _finite_float(text: str) -> float:
    """argparse type for float flags: a number that is neither NaN nor inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    return value


def _scaled(count: int, scale: float) -> int:
    scaled = count * scale
    if not math.isfinite(scaled):
        raise CliConfigError(f"--scale {scale} overflows the preset's counts")
    return max(1, round(scaled))


def preset_config(name: str, scale: float = 1.0) -> tuple[EnvConfig, WorkloadConfig]:
    if name != "large-default":
        raise CliConfigError(f"unknown preset {name!r}")
    env = EnvConfig(fns=_scaled(500, scale), fcis=_scaled(200, scale))
    workload = WorkloadConfig(app_count=_scaled(10000, scale),
                              max_total_tasks=_scaled(100000, scale))
    return env, workload


def _parse_weights(text: str) -> Weights:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliConfigError("--weights requires three comma-separated values")
    try:
        w = [float(p) for p in parts]
    except ValueError:
        raise CliConfigError(f"--weights values must be numbers: {text!r}") from None
    total = sum(w)
    if abs(total - 1.0) > 1e-6:
        raise CliConfigError(f"--weights must sum to 1 (got {total})")
    w = [x / total for x in w]
    return Weights(w1=w[0], w2=w[1], w3=w[2])


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an int over 4300 digits
            raise CliConfigError(f"{path}: {exc}") from None


def _config_dict(cfg: ExperimentConfig) -> dict:
    doc = {
        "env": {k: list(v) if isinstance(v, tuple) else v
                for k, v in cfg.env.__dict__.items()},
        "workload": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in cfg.workload.__dict__.items()},
        "algorithm": cfg.algorithm,
        "weights": dict(cfg.weights.__dict__),
        "delta": cfg.delta,
        "big_delta": cfg.big_delta,
        "fluctuation": ({"interval_s": cfg.fluctuation.interval_s,
                         "availability_range": list(cfg.fluctuation.availability_range)}
                        if cfg.fluctuation else None),
        "seed": cfg.seed,
        "replications": cfg.replications,
        "admission_interval_ms": cfg.admission_interval_ms,
    }
    return doc


def config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row(metric, tier, priority, app_count, value, seed):
    return [metric, tier, str(priority), str(app_count), _fmt(value), str(seed)]


def report_rows(report: MetricsReport) -> list[list[str]]:
    """Flatten a MetricsReport into metrics.csv rows.

    Only deterministic simulation outputs belong here: re-running with the
    same manifest must reproduce this file byte for byte.  Wall-clock
    timings go to timing_rows() instead.
    """
    rows: list[list[str]] = []
    add = lambda *a: rows.append(_row(*a))  # noqa: E731
    for rep in report.replications:
        n = rep.app_count
        s = rep.seed
        for res in ("cpu", "mem", "bw", "cpu_peak", "mem_peak", "bw_peak"):
            add(f"{res}_util", "fog", "", n, rep.fog_util[res], s)
            add(f"{res}_util", "cloud", "", n, rep.cloud_util[res], s)
        add("computing_util", report.algorithm, "", n, rep.fog_util["cpu"], s)
        for p in sorted(rep.latency_by_priority):
            entry = rep.latency_by_priority[p]
            for tier in ("fog", "cloud"):
                value = entry[f"{tier}_avg_ms"]
                if value is not None:
                    add("latency_ms", tier, p, n, value, s)
        for p in sorted(rep.fog_share_by_priority):
            add("share_pct", "fog", p, n, rep.fog_share_by_priority[p], s)
            add("share_pct", "cloud", p, n, rep.cloud_share_by_priority[p], s)
        for code in sorted(rep.violation_counts):
            add(f"violations_{code}", "", "", n, rep.violation_counts[code], s)
        add("rejected", "", "", n, rep.rejected_count, s)
        add("revocations", "", "", n, rep.revocation_count, s)
        add("task_count", "", "", n, rep.task_count, s)
    return rows


def timing_rows(report: MetricsReport) -> list[list[str]]:
    """Wall-clock timing rows (timings.csv); not covered by determinism."""
    rows: list[list[str]] = []
    for rep in report.replications:
        for key, value in rep.timings.items():
            rows.append(_row(key, "", "", rep.app_count, value, rep.seed))
    return rows


def write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _atomic_json(path: str, doc: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _build_run_config(args) -> ExperimentConfig:
    if args.preset:
        env, workload = preset_config(args.preset, args.scale)
    else:
        if not args.env or not args.workload:
            raise CliConfigError(
                "either --preset or both --env and --workload are required")
        env = EnvConfig.from_dict(_load_json(args.env))
        workload = WorkloadConfig.from_dict(_load_json(args.workload))
    if args.env and args.preset:
        env = EnvConfig.from_dict(_load_json(args.env))
    if args.workload and args.preset:
        workload = WorkloadConfig.from_dict(_load_json(args.workload))
    weights = _parse_weights(args.weights) if args.weights else Weights()
    fluctuation = None
    if args.fluctuate_interval is not None or args.fluctuate_range is not None:
        if args.fluctuate_interval is None or args.fluctuate_range is None:
            raise CliConfigError(
                "--fluctuate-interval and --fluctuate-range must be given together")
        try:
            lo, hi = (float(x) for x in args.fluctuate_range.split(","))
        except ValueError:
            raise CliConfigError(
                f"--fluctuate-range must be LO,HI: {args.fluctuate_range!r}") from None
        fluctuation = FluctuationConfig(interval_s=args.fluctuate_interval,
                                        availability_range=(lo, hi))
    return ExperimentConfig(
        env=env, workload=workload, algorithm=args.algo, weights=weights,
        delta=args.delta, big_delta=args.big_delta,
        fluctuation=fluctuation, seed=args.seed, replications=args.replications,
        admission_interval_ms=args.admission_interval,
        emit_objective=args.emit_objective)


def cmd_run(args) -> int:
    try:
        cfg = _build_run_config(args)
    except OSError as exc:
        print(f"error reading config: {exc}", file=sys.stderr)
        return EXIT_IO
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        report = run_experiment(cfg)
    except (SimError, PlacementError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    doc = _config_dict(cfg)
    try:
        os.makedirs(args.out, exist_ok=True)
        csv_path = os.path.join(args.out, "metrics.csv")
        write_csv(csv_path, CSV_HEADER, report_rows(report))
        timings_path = os.path.join(args.out, "timings.csv")
        write_csv(timings_path, CSV_HEADER, timing_rows(report))
        summary_path = os.path.join(args.out, "summary.json")
        _atomic_json(summary_path, report.to_dict())
        outputs = [csv_path, timings_path, summary_path]
        if cfg.emit_objective:
            objective_path = os.path.join(args.out, "objective.json")
            _atomic_json(objective_path, {
                "replications": [
                    {"seed": rep.seed, **(rep.objective or {})}
                    for rep in report.replications]})
            outputs.append(objective_path)
        manifest = {
            "config": doc,
            "config_hash": config_hash(doc),
            "seed": cfg.seed,
            "version": __version__,
            "started_at": started,
            "finished_at": finished,
            "outputs": [os.path.basename(p) for p in outputs],
        }
        _atomic_json(os.path.join(args.out, "manifest.json"), manifest)
    except OSError as exc:
        print(f"error writing outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        if args.preset:
            env, _ = preset_config(args.preset, args.scale)
        elif args.env:
            env = EnvConfig.from_dict(_load_json(args.env))
        else:
            raise CliConfigError("--env or --preset is required")
        app = load_application(_load_json(args.app))
    except (CliConfigError, GraphConfigError, WorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error reading input: {exc}", file=sys.stderr)
        return EXIT_IO
    graph = build_graph(env, args.seed)
    if app.home_fn not in graph.fn_by_id:
        print(f"error: home_fn {app.home_fn} not present in the environment",
              file=sys.stderr)
        return EXIT_CONFIG
    rm = ResourceMatrix.from_graph(graph)
    limits = OracleLimits(max_tasks=args.max_tasks, max_nodes=args.max_nodes)
    try:
        if args.compare_herafc:
            result = compare_with_heuristic(app, graph, rm, limits)
        else:
            result = exhaustive_place(app, graph, rm, limits)
    except OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_SIZE
    except (SimError, PlacementError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    payload = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"error writing output: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        print(payload)
    return EXIT_OK


def _read_metric_rows(paths) -> list[dict]:
    """Every row of the CSVs, each with all six fields and its value parsed
    to a float; a malformed file raises CliConfigError naming the line."""
    rows = []
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise CliConfigError(f"{path}:{line}: not UTF-8: {exc}") from None
        reader = csv.DictReader(io.StringIO(text, newline=""))
        try:
            if reader.fieldnames != CSV_HEADER:
                raise CliConfigError(
                    f"{path}: unexpected CSV header {reader.fieldnames}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if None in row or None in row.values():
                    raise CliConfigError(
                        f"{where}: expected {len(CSV_HEADER)} fields")
                try:
                    value = float(row["value"])
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise CliConfigError(f"{where}: value {row['value']!r} "
                                         "is not a finite number")
                row["value"] = value
                rows.append(row)
        except csv.Error as exc:
            # DictReader.line_num lags its reader's until a row is returned.
            raise CliConfigError(
                f"{path}:{reader.reader.line_num}: {exc}") from None
    return rows


def _avg_by(rows, key_fields):
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        key = tuple(row[f] for f in key_fields)
        groups.setdefault(key, []).append(row["value"])
    return {k: sum(v) / len(v) for k, v in sorted(groups.items())}


def cmd_plotdata(args) -> int:
    try:
        rows = _read_metric_rows(args.input)
    except CliConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error reading input: {exc}", file=sys.stderr)
        return EXIT_IO
    fig = args.fig
    out_rows: list[list[str]] = []
    if fig in ("util-fog", "util-cloud"):
        tier = "fog" if fig == "util-fog" else "cloud"
        subset = [r for r in rows if r["tier"] == tier
                  and r["metric"].endswith("_util")
                  and r["metric"] != "computing_util"]
        if not subset:
            print(f"error: input contains no {tier} utilization rows",
                  file=sys.stderr)
            return EXIT_CONFIG
        header = ["app_count", "resource", "util_pct"]
        for (count, metric), value in _avg_by(
                subset, ("app_count", "metric")).items():
            out_rows.append([count, metric.removesuffix("_util"), _fmt(value)])
    elif fig == "latency-by-priority":
        subset = [r for r in rows if r["metric"] == "latency_ms"]
        header = ["app_count", "tier", "priority", "latency_ms"]
        for (count, tier, p), value in _avg_by(
                subset, ("app_count", "tier", "priority")).items():
            out_rows.append([count, tier, p, _fmt(value)])
    elif fig == "share-by-priority":
        subset = [r for r in rows if r["metric"] == "share_pct"]
        header = ["app_count", "priority", "fog_pct", "cloud_pct"]
        fog = _avg_by([r for r in subset if r["tier"] == "fog"],
                      ("app_count", "priority"))
        cloud = _avg_by([r for r in subset if r["tier"] == "cloud"],
                        ("app_count", "priority"))
        for key, value in fog.items():
            out_rows.append([key[0], key[1], _fmt(value),
                             _fmt(cloud.get(key, 0.0))])
    elif fig == "order-ablation":
        subset = [r for r in rows if r["metric"] == "computing_util"]
        header = ["app_count", "algorithm", "computing_util_pct"]
        for (count, algo), value in _avg_by(
                subset, ("app_count", "tier")).items():
            out_rows.append([count, algo, _fmt(value)])
    elif fig == "timing":
        subset = [r for r in rows if r["metric"] in
                  ("order_total_s", "place_total_s", "per_app_avg_ms")]
        header = ["app_count", "metric", "value"]
        for (count, metric), value in _avg_by(
                subset, ("app_count", "metric")).items():
            out_rows.append([count, metric, _fmt(value)])
    else:
        print(f"error: unknown figure family {fig!r}; expected one of "
              f"{FIGURE_FAMILIES}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(args.out, exist_ok=True)
        write_csv(os.path.join(args.out, f"{fig}.csv"), header, out_rows)
    except OSError as exc:
        print(f"error writing output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogsched",
        description="Deterministic multi-fog/cloud scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write metrics")
    run.add_argument("--env", help="environment config JSON")
    run.add_argument("--workload", help="workload config JSON")
    run.add_argument("--preset", choices=["large-default"],
                     help="named default configuration")
    run.add_argument("--scale", type=_finite_float, default=1.0,
                     help="uniform entity-count scale for the preset")
    run.add_argument("--algo", default="herafc", choices=list(ALGORITHMS))
    run.add_argument("--weights", help="three comma-separated ordering weights")
    run.add_argument("--delta", type=_finite_float, default=0.001,
                     help="out-degree smoothing constant")
    run.add_argument("--big-delta", type=_finite_float, default=0.5,
                     help="fog-preference constant in (0,1)")
    run.add_argument("--fluctuate-interval", type=_finite_float, default=None,
                     help="availability fluctuation interval (simulated s)")
    run.add_argument("--fluctuate-range", default=None,
                     help="availability multiplier range LO,HI")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--replications", type=int, default=1)
    run.add_argument("--admission-interval", type=_finite_float, default=1.0,
                     help="simulated ms between app admissions")
    run.add_argument("--out", required=False, help="output directory")
    run.add_argument("--emit-objective", action="store_true",
                     help="also write aggregate objective scores")
    run.set_defaults(func=cmd_run)

    oracle = sub.add_parser("oracle", help="exhaustive optimum on a tiny instance")
    oracle.add_argument("--app", required=True, help="application JSON file")
    oracle.add_argument("--env", help="environment config JSON")
    oracle.add_argument("--preset", choices=["large-default"])
    oracle.add_argument("--scale", type=_finite_float, default=1.0)
    oracle.add_argument("--seed", type=int, default=42)
    oracle.add_argument("--max-tasks", type=int, default=6)
    oracle.add_argument("--max-nodes", type=int, default=5)
    oracle.add_argument("--compare-herafc", action="store_true")
    oracle.add_argument("--out", help="output JSON file (default stdout)")
    oracle.set_defaults(func=cmd_oracle)

    plot = sub.add_parser("plotdata", help="reshape metrics.csv per figure family")
    plot.add_argument("--input", action="append", required=True,
                      help="metrics.csv from a run (repeatable)")
    plot.add_argument("--fig", required=True,
                      help=f"figure family: {', '.join(FIGURE_FAMILIES)}")
    plot.add_argument("--out", required=True, help="output directory")
    plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("FOGSCHED_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"error: FOGSCHED_LOG {level!r} is not a log level; expected "
              "DEBUG, INFO, WARNING, ERROR or CRITICAL", file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and not args.out:
        print("error: --out is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (CliConfigError, GraphConfigError, WorkloadError, OrderingError,
            SimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
