"""Experiment runner: FCFS batch placement on a live resource matrix.

Applications are admitted in FCFS order at simulated times k * admission
interval. Each app is placed on the live residual matrix, which placement
leaves exactly as it found it; because an app's levels run sequentially, the
app then holds its envelope, the per-node peak over levels (the most any
single level occupies), until its completion time, when the hold is
released. Availability fluctuation rescales effective capacities at fixed
simulated intervals, clamped so active holds are never revoked.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass, field

from .ordering import DEFAULT_DELTA, ProcessQueue, Weights, order_tasks, task_levels
from .placement import (Envelope, Placement, ResourceMatrix, herafc_place,
                        place_levels)
from .objective import DEFAULT_BIG_DELTA, check_constraints, eval_mfc
from .topology import CLOUD, FOG, FCI, EnvConfig, ResourceGraph, build_graph
from .workload import Application, WorkloadConfig, generate_workload

ALGORITHMS = ("herafc", "order-priority", "order-random", "cloud-first")


class SimError(ValueError):
    pass


@dataclass
class FluctuationConfig:
    interval_s: float
    availability_range: tuple[float, float]

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise SimError("fluctuation interval_s must be > 0")
        lo, hi = self.availability_range
        if not (0.0 < lo <= hi <= 1.0):
            raise SimError("availability_range must satisfy 0 < lo <= hi <= 1")
        self.availability_range = (float(lo), float(hi))


@dataclass
class ExperimentConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    algorithm: str = "herafc"
    weights: Weights = field(default_factory=Weights)
    delta: float = DEFAULT_DELTA
    big_delta: float = DEFAULT_BIG_DELTA
    fluctuation: FluctuationConfig | None = None
    seed: int = 42
    replications: int = 1
    admission_interval_ms: float = 1.0
    emit_objective: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise SimError(f"unknown algorithm {self.algorithm!r}; "
                           f"expected one of {ALGORITHMS}")
        if self.replications < 1:
            raise SimError("replications must be >= 1")
        if self.delta <= 0:
            raise SimError("delta must be > 0")
        if not 0.0 < self.big_delta < 1.0:
            raise SimError("big_delta must lie strictly in (0, 1)")
        if self.admission_interval_ms < 0:
            raise SimError("admission_interval_ms must be >= 0")


def baseline_order(app: Application, kind: str, seed) -> ProcessQueue:
    """Precedence levels with a non-WMD within-level order.

    The queue's score field encodes the intended consumption rank (placement
    consumes descending): raw priority for kind="priority", a seeded shuffle
    for kind="random".
    """
    levels = task_levels(app)
    if kind == "priority":
        score = {t.id: float(t.priority) for t in app.tasks}
    elif kind == "random":
        rng = random.Random(seed)
        ids = sorted(t.id for t in app.tasks)
        rng.shuffle(ids)
        score = {tid: float(len(ids) - i) for i, tid in enumerate(ids)}
    else:
        raise SimError(f"unknown baseline order kind {kind!r}")
    for level in levels:
        level.sort(key=lambda t: (score[t], t))
    return ProcessQueue(levels=levels, mcv=score)


def baseline_cloud_first(app: Application, graph: ResourceGraph,
                         rm: ResourceMatrix) -> Placement:
    """Naive baseline: home FN if the task fits there, otherwise the cloud.

    The shared placement loop over one level in task-id order, with the
    cloud as the only stage after the home FN.
    """
    return place_levels(app, graph, rm, [sorted(t.id for t in app.tasks)],
                        ((graph.cloud.id,),))


def apply_fluctuation(rm: ResourceMatrix, fluctuation: FluctuationConfig,
                      rng: random.Random, graph: ResourceGraph | None = None,
                      env: EnvConfig | None = None) -> ResourceMatrix:
    """Rescale effective capacities by fresh availability multipliers.

    Clamp rule: an effective capacity never drops below the amount currently
    held, so reservations are never revoked. When a graph and env config are
    supplied, link latencies are re-sampled within their configured ranges.
    """
    lo, hi = fluctuation.availability_range
    for node in sorted(rm.capacity_cpu):
        m = rng.uniform(lo, hi)
        rm.effective_cpu[node] = max(rm.capacity_cpu[node] * m,
                                     rm.held_cpu[node])
        rm.effective_mem[node] = max(rm.capacity_mem[node] * m,
                                     rm.held_mem[node])
    for key in sorted(rm.capacity_bw):
        m = rng.uniform(lo, hi)
        rm.effective_bw[key] = max(rm.capacity_bw[key] * m, rm.held_bw[key])
    if graph is not None and env is not None:
        for link in graph.links:
            a, b = link.endpoints
            tiers = {a.tier, b.tier}
            if tiers == {FOG, FCI}:
                lat_range = env.lat_fn_fci_ms
            elif tiers == {FCI}:
                lat_range = env.lat_fci_fci_ms
            elif tiers == {FCI, CLOUD}:
                lat_range = env.lat_fci_cloud_ms
            else:
                lat_range = env.lat_fn_cloud_ms
            link.latency = rng.uniform(*lat_range)
    return rm


@dataclass
class ReplicationReport:
    seed: int
    app_count: int
    task_count: int
    fog_util: dict
    cloud_util: dict
    latency_by_priority: dict
    fog_share_by_priority: dict
    cloud_share_by_priority: dict
    timings: dict
    violation_counts: dict
    rejected_count: int
    revocation_count: int
    placed_fog: int
    placed_cloud: int
    objective: dict | None = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class MetricsReport:
    algorithm: str
    app_count: int
    replications: list[ReplicationReport]

    @property
    def fog_util(self) -> dict:
        return _avg_dicts([r.fog_util for r in self.replications])

    @property
    def cloud_util(self) -> dict:
        return _avg_dicts([r.cloud_util for r in self.replications])

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "app_count": self.app_count,
            "fog_util": self.fog_util,
            "cloud_util": self.cloud_util,
            "replications": [r.to_dict() for r in self.replications],
        }


def _avg_dicts(dicts: list[dict]) -> dict:
    if not dicts:
        return {}
    keys = dicts[0].keys()
    return {k: sum(d[k] for d in dicts) / len(dicts) for k in keys}


def _check_conservation(rm: ResourceMatrix, envelopes) -> None:
    """Every held amount must equal the sum of the active envelopes."""
    for kind in ("cpu", "mem", "bw"):
        total: dict = {}
        for envelope in envelopes:
            for key, amt in getattr(envelope, kind).items():
                total[key] = total.get(key, 0.0) + amt
        for key, held in getattr(rm, f"held_{kind}").items():
            if abs(held - total.get(key, 0.0)) > 1e-6:
                raise SimError(f"conservation violated on {key} {kind}: held "
                               f"{held} vs active envelopes "
                               f"{total.get(key, 0.0)}")


def run_replication(cfg: ExperimentConfig, seed: int,
                    conservation_check_every: int = 200) -> ReplicationReport:
    graph = build_graph(cfg.env, seed)
    apps = generate_workload(cfg.workload, graph, f"{seed}:workload")
    live = ResourceMatrix.from_graph(graph)
    # Conservation audit: the envelope of every app still holding resources.
    active: dict[int, Envelope] = {}
    fluct_rng = random.Random(f"{seed}:fluctuation")
    order_rng_seed = f"{seed}:order"

    releases: list[tuple[float, int]] = []
    release_counter = 0
    sim_time = 0.0
    next_boundary = (cfg.fluctuation.interval_s * 1000.0
                     if cfg.fluctuation else math.inf)

    fog_nodes = sorted(graph.fn_by_id)
    cloud_id = graph.cloud.id
    fog_cap_cpu = sum(live.capacity_cpu[n] for n in fog_nodes)
    fog_cap_mem = sum(live.capacity_mem[n] for n in fog_nodes)
    cloud_cap_cpu = live.capacity_cpu[cloud_id]
    cloud_cap_mem = live.capacity_mem[cloud_id]
    fog_links = [k for k in live.capacity_bw if k[0].tier != CLOUD
                 and k[1].tier != CLOUD]
    cloud_links = [k for k in live.capacity_bw if k[0].tier == CLOUD
                   or k[1].tier == CLOUD]
    fog_cap_bw = sum(live.capacity_bw[k] for k in fog_links)
    cloud_cap_bw = sum(live.capacity_bw[k] for k in cloud_links)

    held = {"fog_cpu": 0.0, "fog_mem": 0.0, "fog_bw": 0.0,
            "cloud_cpu": 0.0, "cloud_mem": 0.0, "cloud_bw": 0.0}
    peak = dict(held)
    area = dict(held)
    last_time = 0.0

    def elapse(to: float) -> None:
        """Accumulate held-resource area up to the new simulated time."""
        nonlocal last_time
        if to > last_time:
            dt = to - last_time
            for k in area:
                area[k] += held[k] * dt
            last_time = to

    def apply_hold(envelope: Envelope, sign: float) -> None:
        for node, amt in envelope.cpu.items():
            bucket = "cloud_cpu" if node.tier == CLOUD else "fog_cpu"
            held[bucket] += sign * amt
        for node, amt in envelope.mem.items():
            bucket = "cloud_mem" if node.tier == CLOUD else "fog_mem"
            held[bucket] += sign * amt
        for key, amt in envelope.bw.items():
            bucket = "cloud_bw" if (key[0].tier == CLOUD
                                    or key[1].tier == CLOUD) else "fog_bw"
            held[bucket] += sign * amt
        if sign > 0:
            for k in peak:
                peak[k] = max(peak[k], held[k])

    def advance(until: float) -> None:
        nonlocal sim_time, next_boundary
        while True:
            release_time = releases[0][0] if releases else math.inf
            boundary = next_boundary
            nxt = min(release_time, boundary)
            if nxt > until:
                break
            if release_time <= boundary:
                t, handle = heapq.heappop(releases)
                envelope = active.pop(handle)
                live.release(envelope)
                elapse(t)
                apply_hold(envelope, -1.0)
                sim_time = t
            else:
                elapse(boundary)
                sim_time = boundary
                apply_fluctuation(live, cfg.fluctuation, fluct_rng,
                                  graph=graph, env=cfg.env)
                next_boundary += cfg.fluctuation.interval_s * 1000.0
        if until > sim_time:
            elapse(until)
            sim_time = until

    violation_counts: dict[str, int] = {}
    rejected_count = 0
    placed_fog = 0
    placed_cloud = 0
    latencies: dict[tuple[int, str], list[float]] = {}
    share_counts: dict[int, dict[str, int]] = {
        p: {"fog": 0, "cloud": 0} for p in range(1, 6)}
    order_seconds = 0.0
    place_seconds = 0.0
    objective_totals = {"task_terms": 0.0, "edge_latency_terms": 0.0,
                        "edge_bandwidth_terms": 0.0, "total": 0.0,
                        "apps_scored": 0}

    for k, app in enumerate(apps):
        advance(k * cfg.admission_interval_ms)

        queue = None
        if cfg.algorithm != "cloud-first":
            t0 = time.perf_counter()
            if cfg.algorithm == "herafc":
                queue = order_tasks(app, graph, cfg.weights, cfg.delta)
            else:
                kind = cfg.algorithm.split("-", 1)[1]
                queue = baseline_order(app, kind, f"{order_rng_seed}:{app.id}")
            order_seconds += time.perf_counter() - t0

        t0 = time.perf_counter()
        if cfg.algorithm == "cloud-first":
            placement = baseline_cloud_first(app, graph, live)
        else:
            placement = herafc_place(app, graph, live, queue)
        place_seconds += time.perf_counter() - t0

        for code, entity, detail in check_constraints(placement, app, graph, "mfc"):
            violation_counts[code] = violation_counts.get(code, 0) + 1
        rejected_count += len(placement.rejected)

        if cfg.emit_objective and not placement.rejected and not placement.unmapped:
            breakdown = eval_mfc(placement, graph, live, big_delta=cfg.big_delta)
            objective_totals["task_terms"] += sum(breakdown.task_terms.values())
            objective_totals["edge_latency_terms"] += sum(
                breakdown.edge_latency_terms.values())
            objective_totals["edge_bandwidth_terms"] += sum(
                breakdown.edge_bandwidth_terms.values())
            objective_totals["total"] += breakdown.total
            objective_totals["apps_scored"] += 1

        live.hold(placement.envelope)
        release_counter += 1
        active[release_counter] = placement.envelope
        apply_hold(placement.envelope, 1.0)
        completion = sim_time + sum(placement.level_durations)
        heapq.heappush(releases, (completion, release_counter))

        children = app.children()
        for task in app.tasks:
            node = placement.task_locations.get(task.id)
            if node is None:
                continue
            tier = "cloud" if node.tier == CLOUD else "fog"
            share_counts[task.priority][tier] += 1
            if tier == "fog":
                placed_fog += 1
            else:
                placed_cloud += 1
            outgoing = [placement.edge_paths[(task.id, child)].total_latency
                        for child in children[task.id]
                        if (task.id, child) in placement.edge_paths]
            if outgoing:
                latencies.setdefault((task.priority, tier), []).append(
                    sum(outgoing))

        if (k + 1) % conservation_check_every == 0:
            _check_conservation(live, active.values())

    while releases:
        advance(releases[0][0])
    _check_conservation(live, active.values())
    for node, amount in live.held_cpu.items():
        if abs(amount) > 1e-6:
            raise SimError(f"hold not fully released on {node}")

    horizon = last_time

    def pct(x: float, cap: float) -> float:
        return 100.0 * x / cap if cap > 0 else 0.0

    def avg_pct(bucket: str, cap: float) -> float:
        if cap <= 0 or horizon <= 0:
            return 0.0
        return 100.0 * (area[bucket] / horizon) / cap

    # Utilization is the time average of held resources over the whole run;
    # peaks are reported alongside as *_peak.
    fog_util = {"cpu": avg_pct("fog_cpu", fog_cap_cpu),
                "mem": avg_pct("fog_mem", fog_cap_mem),
                "bw": avg_pct("fog_bw", fog_cap_bw),
                "cpu_peak": pct(peak["fog_cpu"], fog_cap_cpu),
                "mem_peak": pct(peak["fog_mem"], fog_cap_mem),
                "bw_peak": pct(peak["fog_bw"], fog_cap_bw)}
    cloud_util = {"cpu": avg_pct("cloud_cpu", cloud_cap_cpu),
                  "mem": avg_pct("cloud_mem", cloud_cap_mem),
                  "bw": avg_pct("cloud_bw", cloud_cap_bw),
                  "cpu_peak": pct(peak["cloud_cpu"], cloud_cap_cpu),
                  "mem_peak": pct(peak["cloud_mem"], cloud_cap_mem),
                  "bw_peak": pct(peak["cloud_bw"], cloud_cap_bw)}
    latency_by_priority = {}
    for p in range(1, 6):
        entry = {}
        for tier in ("fog", "cloud"):
            samples = latencies.get((p, tier))
            entry[f"{tier}_avg_ms"] = (sum(samples) / len(samples)
                                       if samples else None)
            entry[f"{tier}_n"] = len(samples) if samples else 0
        latency_by_priority[p] = entry
    fog_share = {}
    cloud_share = {}
    for p in range(1, 6):
        total = share_counts[p]["fog"] + share_counts[p]["cloud"]
        fog_share[p] = 100.0 * share_counts[p]["fog"] / total if total else 0.0
        cloud_share[p] = 100.0 - fog_share[p] if total else 0.0
    task_count = sum(len(a.tasks) for a in apps)
    timings = {
        "order_total_s": order_seconds,
        "place_total_s": place_seconds,
        "per_app_avg_ms": (1000.0 * (order_seconds + place_seconds) / len(apps)
                           if apps else 0.0),
    }
    return ReplicationReport(
        seed=seed, app_count=len(apps), task_count=task_count,
        fog_util=fog_util, cloud_util=cloud_util,
        latency_by_priority=latency_by_priority,
        fog_share_by_priority=fog_share,
        cloud_share_by_priority=cloud_share,
        timings=timings, violation_counts=violation_counts,
        rejected_count=rejected_count, revocation_count=0,
        placed_fog=placed_fog, placed_cloud=placed_cloud,
        objective=objective_totals if cfg.emit_objective else None)


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Run all replications (seeds seed, seed+1, ...) and aggregate."""
    reports = [run_replication(cfg, cfg.seed + r)
               for r in range(cfg.replications)]
    return MetricsReport(algorithm=cfg.algorithm,
                         app_count=cfg.workload.app_count,
                         replications=reports)


def time_algorithms(cfg: ExperimentConfig,
                    app_counts=(1000, 2000, 4000)) -> list[dict]:
    """Wall-clock ordering vs placement totals across an app-count sweep."""
    records = []
    for count in app_counts:
        sweep_cfg = ExperimentConfig(
            env=cfg.env,
            workload=WorkloadConfig(**{**cfg.workload.__dict__,
                                       "app_count": count,
                                       "max_total_tasks": max(
                                           cfg.workload.max_total_tasks,
                                           count * cfg.workload.tasks_per_app[1])}),
            algorithm=cfg.algorithm, weights=cfg.weights, delta=cfg.delta,
            big_delta=cfg.big_delta, seed=cfg.seed,
            admission_interval_ms=cfg.admission_interval_ms)
        report = run_replication(sweep_cfg, cfg.seed)
        records.append({"app_count": count, **report.timings})
    return records
