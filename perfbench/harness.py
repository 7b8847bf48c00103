"""Workloads, measurement and output checks of the fogsched benchmark.

Three workloads, each one closed batch loop in a single process: every
application (or oracle instance) is decided only after the previous one.

- ``herafc-full``: ``fogsched run --preset large-default --scale 1.0 --algo
  herafc``, one replication (10k apps, about 80k tasks).  Time is spread over
  ordering, candidate-stage search, residual bookkeeping, routing and the
  constraint check.
- ``cloudfirst-fluct``: the same preset at scale 0.3 with ``--algo
  cloud-first`` and availability fluctuation every 0.1 simulated s in
  [0.3, 0.9].  Mostly routing (failed path searches), and fluctuation
  rewrites capacities and link latencies while the run reads them.
- ``oracle-sweep``: ``compare_with_heuristic`` on the 200 instances of
  acceptance criterion 5 (instance seeds 1-200).  Only the exhaustive oracle.

Inputs.  For the simulation workloads ``--seed n`` runs the simulator with
seed ``40 + n % 10`` (the reference seed 42 is one of these ten); seed 7 is
held out for checking later claims.  The oracle sweep always decides the
same 200 instances, because their cost and mean gap differ widely from one
block of 200 to the next; ``--seed`` sets only the order in which they are
decided.  Instances 201-400 are held out.  ``heldout=True`` selects the
held-out input.

Each workload's output has a recorded sha256 per input in
``expected.json``: the ``metrics.csv`` bytes for a simulation, the sorted
per-instance oracle records for the sweep.  Every run, traced or not, must
reproduce it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_out"
EXPECTED_PATH = HERE / "expected.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import fogsched  # noqa: E402
from fogsched import (cli, objective, oracle, ordering, placement,  # noqa: E402
                      simkit, topology, workload)

if Path(fogsched.__file__).resolve().parent != SRC / "fogsched":
    raise ImportError(f"fogsched was imported from {fogsched.__file__}, "
                      f"not from {SRC}")

from spans import Patcher, Tracer, fogsched_modules  # noqa: E402

SIM_ARGS = {
    "herafc-full": ["--preset", "large-default", "--scale", "1.0",
                    "--algo", "herafc"],
    "cloudfirst-fluct": ["--preset", "large-default", "--scale", "0.3",
                         "--algo", "cloud-first", "--fluctuate-interval",
                         "0.1", "--fluctuate-range", "0.3,0.9"],
}
WORKLOADS = ("herafc-full", "cloudfirst-fluct", "oracle-sweep")

SIM_SEED_BASE = 40
SIM_SEED_COUNT = 10
SIM_HELDOUT_SEED = 7

ORACLE_BLOCK_SIZE = 200
ORACLE_BLOCK = 1            # instance seeds 1-200
ORACLE_HELDOUT_BLOCK = 2    # instance seeds 201-400
ORACLE_ENV = dict(fns=4, fcis=2, cpu=(4, 8), mem_mb=(1000, 2000),
                  fci_link_probability=0.5)
ORACLE_WL = dict(app_count=1, tasks_per_app=(2, 6), cpu=(1, 3),
                 mem_mb=(100, 500), makespan_ms=(500, 1000),
                 link_probability=0.3, edge_bandwidth_mbps=(5, 20),
                 max_total_tasks=10)

# Set-up is timed at least this many times per run (the passes' own set-ups
# included), and until this many seconds of set-up have been timed, then
# reported as the median.  The second rule only adds samples for the oracle
# sweep, whose 200 tiny set-ups take about 0.05 s together.
SETUP_SAMPLES = 3
SETUP_MIN_S = 1.0

MODULES = ("cli", "objective", "oracle", "ordering", "placement", "simkit",
           "topology", "workload")


def input_for(workload_name: str, seed: int, heldout: bool = False) -> int:
    """The simulator seed (simulations) or instance block (oracle) to run."""
    if workload_name == "oracle-sweep":
        return ORACLE_HELDOUT_BLOCK if heldout else ORACLE_BLOCK
    if heldout:
        return SIM_HELDOUT_SEED
    return SIM_SEED_BASE + seed % SIM_SEED_COUNT


def expected_digest(workload_name: str, input_id: int) -> str | None:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["hashes"].get(workload_name, {}).get(str(input_id))


def namespace_fingerprint() -> dict:
    """Identity of every attribute of fogsched's modules and classes."""
    out = {}
    for mod in fogsched_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, f"{name}.{attr}")] = id(member)
    return out


@dataclass
class Probe:
    """Light wrappers for the timed runs: set-up time, per-app decision time,
    and what each returned Placement did."""

    setup_s: float = 0.0
    decide_ms: list = field(default_factory=list)
    tally: Counter = field(default_factory=Counter)
    _pending_s: float = 0.0

    def setup(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.setup_s += time.perf_counter() - t0
            return result
        return wrapper

    def order(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self._pending_s = time.perf_counter() - t0
            return result
        return wrapper

    def decide(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0 + self._pending_s
            self._pending_s = 0.0
            self.decide_ms.append(1000.0 * elapsed)
            self.record(result)
            return result
        return wrapper

    def capture(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.record(result)
            return result
        return wrapper

    def record(self, plc) -> None:
        tally = self.tally
        located = plc.task_locations.values()
        fog = sum(1 for node in located if node.tier != topology.CLOUD)
        remote = sum(1 for path in plc.edge_paths.values()
                     if len(path.nodes) > 1)
        tally["decisions"] += 1
        tally["fog"] += fog
        tally["cloud"] += len(plc.task_locations) - fog
        tally["remote"] += remote
        tally["colocated"] += len(plc.edge_paths) - remote
        tally["unmapped"] += len(plc.unmapped)
        tally["refused"] += 1 if plc.rejected else 0
        tally["pinned"] += 1 if plc.pinned_task is not None else 0


@dataclass
class Rep:
    """One whole pass over a workload's input."""

    input_id: int
    run_s: float
    setup_s: float
    ops: int
    decide_ms: list
    tally: Counter
    digest: str
    outcomes: dict
    errors: list

    @property
    def ok(self) -> bool:
        return not self.errors


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def _placement_outcomes(tally: Counter) -> dict:
    return {
        "fog_share_pct": _pct(tally["fog"], tally["fog"] + tally["cloud"]),
        "unmapped_edge_pct": _pct(tally["unmapped"],
                                  tally["unmapped"] + tally["remote"]),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def install_trace(patcher: Patcher, tracer: Tracer) -> None:
    """Spans around every layer entry point, counts on the hottest calls."""
    counts = tracer.counts
    span, count, wrap = tracer.span, tracer.count, patcher.function

    def on_workload(apps, _s):
        counts["workload.tasks"] += sum(len(a.tasks) for a in apps)
        counts["workload.edges"] += sum(len(a.edges) for a in apps)

    def on_path(result, seconds):
        if isinstance(result, topology.NoPath):
            counts["topology.shortest_path.nopath"] += 1
            counts["topology.shortest_path.nopath_s"] += seconds

    def on_deploy(node):
        if node is not None:
            counts["placement.try_deploy.hits"] += 1

    def on_constraints(violations, _s):
        counts["objective.edge_latency_violations"] += sum(
            1 for code, _, _ in violations if code == "edge-latency")

    def on_oracle(result, _s):
        counts["oracle.enumerated"] += result.enumerated_count

    wrap(topology, "build_graph", span("topology.build_graph"))
    wrap(workload, "generate_workload",
         span("workload.generate_workload", on_workload))
    patcher.method(placement.ResourceMatrix, "from_graph",
                   span("placement.ResourceMatrix.from_graph"))
    wrap(topology, "shortest_path", span("topology.shortest_path", on_path))
    wrap(topology, "nodes_within_hops", span("topology.nodes_within_hops"))
    wrap(topology, "hop_distance", count("topology.hop_distance.calls"))
    wrap(ordering, "order_tasks", span("ordering.order_tasks"))
    wrap(placement, "herafc_place", span("placement.herafc_place"))
    wrap(placement, "try_deploy", count("placement.try_deploy.calls", on_deploy))
    wrap(placement, "reset_rm", span("placement.reset_rm"))
    patcher.method(placement.ResourceMatrix, "snapshot",
                   span("placement.ResourceMatrix.snapshot"))
    patcher.method(placement.ResourceMatrix, "clone",
                   span("placement.ResourceMatrix.clone"))
    wrap(placement, "map_level_edges", span("placement.map_level_edges"))
    wrap(objective, "check_constraints",
         span("objective.check_constraints", on_constraints))
    wrap(oracle, "exhaustive_place", span("oracle.exhaustive_place", on_oracle))
    wrap(oracle, "compare_with_heuristic", span("oracle.compare_with_heuristic"))
    wrap(simkit, "run_replication", span("simkit.run_replication"))
    wrap(simkit, "baseline_cloud_first", span("simkit.baseline_cloud_first"))
    wrap(simkit, "apply_fluctuation", span("simkit.apply_fluctuation"))
    wrap(cli, "report_rows", span("cli.report_rows"))
    wrap(cli, "write_csv", span("cli.write_csv"))


def _simulation_rep(name: str, input_id: int, out_dir: Path,
                    tracer: Tracer | None) -> Rep:
    probe = Probe()
    argv = ["run", *SIM_ARGS[name], "--seed", str(input_id),
            "--out", str(out_dir)]
    with Patcher() as patcher:
        if tracer is not None:
            install_trace(patcher, tracer)
        patcher.function(simkit, "build_graph", probe.setup)
        patcher.function(simkit, "generate_workload", probe.setup)
        patcher.function(simkit, "order_tasks", probe.order)
        patcher.function(simkit, "herafc_place", probe.decide)
        patcher.function(simkit, "baseline_cloud_first", probe.decide)
        t0 = time.perf_counter()
        code = cli.main(argv)
        run_s = time.perf_counter() - t0
    errors = []
    if code != 0:
        errors.append(f"fogsched run exited with {code}")
        return Rep(input_id, run_s, probe.setup_s, 0, probe.decide_ms,
                   probe.tally, "", {}, errors)
    digest = _sha256((out_dir / "metrics.csv").read_bytes())
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)["replications"][0]
    tally = probe.tally
    if (summary["placed_fog"], summary["placed_cloud"]) != (tally["fog"],
                                                           tally["cloud"]):
        errors.append("placed task counts in summary.json differ from the "
                      "returned placements")
    if summary["app_count"] != tally["decisions"]:
        errors.append(f"{tally['decisions']} decisions for "
                      f"{summary['app_count']} apps")
    outcomes = {"fog_cpu_util_pct": summary["fog_util"]["cpu"],
                **_placement_outcomes(tally)}
    return Rep(input_id, run_s, probe.setup_s, summary["app_count"],
               probe.decide_ms, tally, digest, outcomes, errors)


def _oracle_setup(instance_seed: int):
    env = topology.EnvConfig(**ORACLE_ENV)
    wl = workload.WorkloadConfig(**ORACLE_WL)
    graph = topology.build_graph(env, instance_seed)
    (app,) = workload.generate_workload(wl, graph, f"{instance_seed}:wl")
    return app, graph, placement.ResourceMatrix.from_graph(graph)


def oracle_instances(block: int, seed: int) -> list[int]:
    """The block's instance seeds, in the order set by the benchmark seed."""
    first = (block - 1) * ORACLE_BLOCK_SIZE + 1
    seeds = list(range(first, first + ORACLE_BLOCK_SIZE))
    random.Random(seed).shuffle(seeds)
    return seeds


def _oracle_record(instance_seed: int, result) -> list:
    best = result.best_placement
    assignment = (sorted((t, str(n)) for t, n in best.task_locations.items())
                  if best is not None else None)
    return [instance_seed, result.feasible, repr(result.best_score),
            assignment, result.enumerated_count, result.heuristic_feasible,
            repr(result.heuristic_score), repr(result.heuristic_gap)]


def _oracle_rep(block: int, seed: int, tracer: Tracer | None) -> Rep:
    probe = Probe()
    records = []
    with Patcher() as patcher:
        if tracer is not None:
            install_trace(patcher, tracer)
        patcher.function(placement, "herafc_place", probe.capture)
        clock = time.perf_counter
        t_start = clock()
        for instance_seed in oracle_instances(block, seed):
            t0 = clock()
            app, graph, rm = _oracle_setup(instance_seed)
            t1 = clock()
            result = oracle.compare_with_heuristic(app, graph, rm)
            t2 = clock()
            probe.setup_s += t1 - t0
            probe.decide_ms.append(1000.0 * (t2 - t1))
            records.append(_oracle_record(instance_seed, result))
        run_s = clock() - t_start
    records.sort()
    digest = _sha256(json.dumps(records, separators=(",", ":")).encode())
    gaps = [float(r[7]) for r in records if r[7] != "None"]
    agree = sum(1 for r in records if r[1] == r[5])
    errors = []
    if probe.tally["decisions"] != len(records):
        errors.append(f"{probe.tally['decisions']} heuristic placements for "
                      f"{len(records)} instances")
    outcomes = {"heuristic_gap_mean": statistics.fmean(gaps) if gaps else 0.0,
                "oracle_agree_pct": _pct(agree, len(records)),
                **_placement_outcomes(probe.tally)}
    return Rep(block, run_s, probe.setup_s, len(records),
               probe.decide_ms, probe.tally, digest, outcomes, errors)


def run_rep(name: str, seed: int, heldout: bool = False,
            tracer: Tracer | None = None, tag: str = "rep") -> Rep:
    """Run one whole pass of a workload and check its output."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    input_id = input_for(name, seed, heldout)
    before = namespace_fingerprint()
    os.makedirs(WORK_DIR / name, exist_ok=True)
    if name == "oracle-sweep":
        rep = _oracle_rep(input_id, seed, tracer)
    else:
        out_dir = WORK_DIR / name / tag
        shutil.rmtree(out_dir, ignore_errors=True)
        rep = _simulation_rep(name, input_id, out_dir, tracer)
    if namespace_fingerprint() != before:
        rep.errors.append("a wrapped fogsched attribute was not restored")
    want = expected_digest(name, input_id)
    if want is None:
        rep.errors.append(f"no recorded output hash for {name} input {input_id}")
    elif rep.digest != want:
        rep.errors.append(f"output hash {rep.digest[:16]} differs from the "
                          f"recorded {want[:16]} for {name} input {input_id}")
    return rep


def setup_once(name: str, input_id: int, seed: int) -> float:
    """Seconds for one untraced set-up of the workload's inputs."""
    clock = time.perf_counter
    if name == "oracle-sweep":
        t0 = clock()
        for instance_seed in oracle_instances(input_id, seed):
            _oracle_setup(instance_seed)
        return clock() - t0
    argv = SIM_ARGS[name]
    env, wl = cli.preset_config("large-default", float(argv[argv.index("--scale") + 1]))
    t0 = clock()
    graph = topology.build_graph(env, input_id)
    workload.generate_workload(wl, graph, f"{input_id}:workload")
    return clock() - t0


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps: list[Rep], setup_samples: list[float]) -> dict:
    """The end-to-end metrics of a set of untraced passes."""
    samples = [ms for rep in reps for ms in rep.decide_ms]
    return {
        "run_s": (statistics.median(r.run_s for r in reps), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "apps_per_s": (statistics.median(r.ops / (r.run_s - r.setup_s)
                                         for r in reps), "1/s"),
        "decide_ms_p50": (statistics.median(samples), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "fog_share_pct": (reps[0].outcomes["fog_share_pct"], "%"),
    }


def src_lines() -> dict:
    out = {}
    for mod in MODULES:
        path = SRC / "fogsched" / f"{mod}.py"
        out[f"{mod}.lines"] = (len(path.read_text(encoding="utf-8").splitlines()),
                               "count")
    out["src.lines"] = (sum(len(p.read_text(encoding="utf-8").splitlines())
                            for p in sorted((SRC / "fogsched").glob("*.py"))),
                        "count")
    return out


# Span names and the span totals reported for each ("s" inclusive seconds,
# "self_s" seconds outside child spans, "calls").
SPAN_METRICS = (
    ("topology.build_graph", ("s",)),
    ("workload.generate_workload", ("s",)),
    ("placement.ResourceMatrix.from_graph", ("s",)),
    ("topology.shortest_path", ("s", "calls")),
    ("topology.nodes_within_hops", ("s", "calls")),
    ("ordering.order_tasks", ("s", "calls")),
    ("placement.herafc_place", ("s", "self_s", "calls")),
    ("placement.reset_rm", ("s", "calls")),
    ("placement.ResourceMatrix.snapshot", ("s", "calls")),
    ("placement.ResourceMatrix.clone", ("s", "calls")),
    ("placement.map_level_edges", ("s", "self_s", "calls")),
    ("objective.check_constraints", ("s", "calls")),
    ("oracle.compare_with_heuristic", ("s",)),
    ("oracle.exhaustive_place", ("s", "self_s", "calls")),
    ("simkit.run_replication", ("s", "self_s")),
    ("simkit.baseline_cloud_first", ("s", "calls")),
    ("simkit.apply_fluctuation", ("s", "calls")),
    ("cli.report_rows", ("s",)),
    ("cli.write_csv", ("s",)),
)


def per_layer(traced: Rep, plain: Rep, tracer: Tracer) -> dict:
    """The per-layer metrics of a traced pass, next to its untraced twin."""
    layers = tracer.layers()
    out = {}
    for name, keys in SPAN_METRICS:
        totals = layers.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for key in keys:
            out[f"{name}.{key}"] = (totals[key],
                                    "count" if key == "calls" else "s")
    counts, tally = tracer.counts, traced.tally
    for name in ("topology.shortest_path.nopath", "topology.hop_distance.calls",
                 "placement.try_deploy.calls", "placement.try_deploy.hits",
                 "workload.tasks", "workload.edges",
                 "objective.edge_latency_violations", "oracle.enumerated"):
        out[name] = (counts[name], "count")
    deploys = counts["placement.try_deploy.calls"]
    out.update({
        "topology.shortest_path.nopath_s": (
            counts["topology.shortest_path.nopath_s"], "s"),
        "placement.pin_reruns": (tally["pinned"], "count"),
        "placement.try_deploy.hit_ratio": (
            counts["placement.try_deploy.hits"] / deploys if deploys else 0.0,
            "ratio"),
        "placement.edges.mapped": (tally["remote"], "count"),
        "placement.edges.unmapped": (tally["unmapped"], "count"),
        "placement.edges.colocated": (tally["colocated"], "count"),
        "placement.unmapped_edge_pct": (traced.outcomes["unmapped_edge_pct"], "%"),
        "oracle.heuristic.s": (out["oracle.compare_with_heuristic.s"][0]
                               - out["oracle.exhaustive_place.s"][0], "s"),
        "oracle.heuristic_gap_mean": (
            traced.outcomes.get("heuristic_gap_mean", 0.0), "ratio"),
        "oracle.agree_pct": (traced.outcomes.get("oracle_agree_pct", 0.0), "%"),
        "simkit.fog_cpu_util_pct": (
            traced.outcomes.get("fog_cpu_util_pct", 0.0), "%"),
        # Not an end-to-end metric: on herafc-full the apps at the 95th
        # percentile are the memory-bound routing ones, and its run-to-run
        # spread (0.13-0.30 of the median over 10 runs) is wider than the
        # 0.25 bound of the other host-time metrics.
        "decide_ms_p95": (percentile(plain.decide_ms, 95), "ms"),
        "trace.run_s": (traced.run_s, "s"),
        "trace.overhead_s": (traced.run_s - plain.run_s, "s"),
        "trace.spans": (len(tracer.start), "count"),
    })
    out.update(src_lines())
    return out

