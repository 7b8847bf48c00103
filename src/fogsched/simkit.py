"""Experiment runner: FCFS batch placement on a live resource matrix.

Apps are admitted in FCFS order at simulated times k * admission interval
and placed on the live matrix, which placement leaves as it found it. As its
levels run in sequence, an app then holds its envelope (the per-node peak
over levels) until completion. `_Usage` owns the one simulated clock and the
held, peak and time-integrated cpu/mem/bw of fog and cloud. Fluctuation
rescales effective capacities at fixed intervals, clamped so no active hold
is revoked; a hold still above its capacity afterwards counts as revoked.

A replication runs with the cyclic garbage collector paused: its apps,
placements, envelopes and heap entries form no reference cycles, so
reference counting frees each of them, and the collector's passes over the
whole live workload would find nothing.
"""

from __future__ import annotations

import gc
import heapq
import logging
import math
import random
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .ordering import (DEFAULT_DELTA, ProcessQueue, Weights, order_tasks,
                       placing_queue, task_levels)
from .placement import (Envelope, Placement, ResourceMatrix, herafc_place,
                        place_levels)
from .objective import DEFAULT_BIG_DELTA, check_constraints, eval_mfc
from .topology import CLOUD, FOG, FCI, EnvConfig, ResourceGraph, build_graph
from .workload import Application, WorkloadConfig, generate_workload

ALGORITHMS = ("herafc", "order-priority", "order-random", "cloud-first")
# run_replication logs its progress at INFO every this many admitted apps.
PROGRESS_EVERY = 1000

log = logging.getLogger(__name__)


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
    """HeRAFC's precedence levels, each ranked by a non-WMD score instead:
    raw priority for kind="priority", a seeded shuffle for kind="random"."""
    if kind == "priority":
        score = {t.id: float(t.priority) for t in app.tasks}
    elif kind == "random":
        rng = random.Random(seed)
        ids = sorted(t.id for t in app.tasks)
        rng.shuffle(ids)
        score = {tid: float(len(ids) - i) for i, tid in enumerate(ids)}
    else:
        raise SimError(f"unknown baseline order kind {kind!r}")
    return placing_queue(task_levels(app), score)


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
    capacity, effective, held = rm.capacity, rm.effective, rm.held
    for node in sorted(capacity.cpu):
        m = rng.uniform(lo, hi)
        effective.cpu[node] = max(capacity.cpu[node] * m, held.cpu[node])
        effective.mem[node] = max(capacity.mem[node] * m, held.mem[node])
    for key in sorted(capacity.bw):
        m = rng.uniform(lo, hi)
        effective.bw[key] = max(capacity.bw[key] * m, held.bw[key])
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


_RESOURCES = ("cpu", "mem", "bw")


class _Usage:
    """Capacity, held amount, peak and time integral of cpu, mem and bw in
    each tier, on the run's one simulated clock. A link touching the cloud
    counts as cloud; every other node and link counts as fog. `active` is
    the running per-key total of the held envelopes, for the audit."""

    def __init__(self, rm: ResourceMatrix) -> None:
        self.now = 0.0
        self.capacity = {(tier, kind): 0.0 for tier in (FOG, CLOUD)
                         for kind in _RESOURCES}
        # Per resource, in Envelope.parts() order: each key's (tier, kind).
        self._buckets: list[dict] = []
        for kind, capacities in zip(_RESOURCES, rm.capacity.parts()):
            buckets = {}
            for key, cap in capacities.items():
                ends = key if kind == "bw" else (key,)
                tier = CLOUD if any(n.tier == CLOUD for n in ends) else FOG
                buckets[key] = (tier, kind)
                self.capacity[tier, kind] += cap
            self._buckets.append(buckets)
        self.held = dict.fromkeys(self.capacity, 0.0)
        self.peak = dict(self.held)
        self.area = dict(self.held)
        self.active = Envelope()

    def elapse(self, to: float) -> None:
        """Move the clock forward to `to`, integrating the held amounts."""
        if to > self.now:
            dt = to - self.now
            for key in self.area:
                self.area[key] += self.held[key] * dt
            self.now = to

    def apply(self, envelope: Envelope, sign: float) -> None:
        """Add (sign 1.0) or remove (sign -1.0) an app's hold."""
        for buckets, amounts, active in zip(self._buckets, envelope.parts(),
                                            self.active.parts()):
            for key, amt in amounts.items():
                self.held[buckets[key]] += sign * amt
                active[key] = active.get(key, 0.0) + sign * amt
        if sign > 0:
            for key, amount in self.held.items():
                self.peak[key] = max(self.peak[key], amount)

    def util(self, tier: str) -> dict:
        """Percent of the tier's capacity held on average over the run, then
        at its peak (as *_peak)."""
        average, peak = {}, {}
        for kind in _RESOURCES:
            cap = self.capacity[tier, kind]
            average[kind] = (100.0 * (self.area[tier, kind] / self.now) / cap
                             if cap > 0 and self.now > 0 else 0.0)
            peak[f"{kind}_peak"] = (100.0 * self.peak[tier, kind] / cap
                                    if cap > 0 else 0.0)
        return {**average, **peak}


def _check_conservation(rm: ResourceMatrix, total: Envelope) -> None:
    """Every held amount must equal the running total of the active
    envelopes, kept apart from ResourceMatrix.hold and release."""
    for kind, held_amounts, sums in zip(_RESOURCES, rm.held.parts(),
                                        total.parts()):
        for key, held in held_amounts.items():
            if abs(held - sums.get(key, 0.0)) > 1e-6:
                raise SimError(f"conservation violated on {key} {kind}: held "
                               f"{held} vs active envelopes "
                               f"{sums.get(key, 0.0)}")


def _overdrawn(rm: ResourceMatrix) -> int:
    """Holds above effective capacity: one per node or link and resource."""
    return sum(held > effective[key] + 1e-9
               for held_amounts, effective in zip(rm.held.parts(),
                                                  rm.effective.parts())
               for key, held in held_amounts.items())


@contextmanager
def _gc_paused():
    """Disable the cyclic garbage collector for the block and re-enable it
    on exit, also on an exception; a collector already off stays off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_gc_paused()
def run_replication(cfg: ExperimentConfig, seed: int,
                    conservation_check_every: int = 200) -> ReplicationReport:
    started = time.perf_counter()
    log.info("replication seed %s: %s starts", seed, cfg.algorithm)
    graph = build_graph(cfg.env, seed)
    # Each app is popped when admitted and nothing keeps it once decided.
    pending = deque(generate_workload(cfg.workload, graph, f"{seed}:workload"))
    live = ResourceMatrix.from_graph(graph)
    usage = _Usage(live)
    fluct_rng = random.Random(f"{seed}:fluctuation")
    interval_ms = (cfg.fluctuation.interval_s * 1000.0
                   if cfg.fluctuation else math.inf)
    next_boundary = interval_ms
    revocations = 0
    # (completion time, admission index, envelope) of each app still holding.
    releases: list[tuple[float, int, Envelope]] = []

    def advance(until: float) -> None:
        """Release and fluctuate in time order up to `until`; clock to it."""
        nonlocal next_boundary, revocations
        while True:
            release_time = releases[0][0] if releases else math.inf
            if min(release_time, next_boundary) > until:
                break
            if release_time <= next_boundary:
                envelope = heapq.heappop(releases)[2]
                live.release(envelope)
                usage.elapse(release_time)
                usage.apply(envelope, -1.0)
            else:
                usage.elapse(next_boundary)
                apply_fluctuation(live, cfg.fluctuation, fluct_rng,
                                  graph=graph, env=cfg.env)
                revocations += _overdrawn(live)
                next_boundary += interval_ms
        usage.elapse(until)

    violation_counts: dict[str, int] = {}
    rejected_count = task_count = 0
    # Per (priority, tier): sample count and sum, added in order from 0.0 as
    # Python 3.11's sum() adds (3.12's sum() compensates, so would differ).
    latency_n = {(p, tier): 0 for p in range(1, 6) for tier in (FOG, CLOUD)}
    latency_sum = dict.fromkeys(latency_n, 0.0)
    share_counts = {p: {FOG: 0, CLOUD: 0} for p in range(1, 6)}
    order_seconds = place_seconds = 0.0
    objective_totals = {"task_terms": 0.0, "edge_latency_terms": 0.0,
                        "edge_bandwidth_terms": 0.0, "total": 0.0,
                        "apps_scored": 0}

    app_count = len(pending)
    for k in range(app_count):
        app = pending.popleft()
        task_count += len(app.tasks)
        advance(k * cfg.admission_interval_ms)

        if cfg.algorithm != "cloud-first":
            t0 = time.perf_counter()
            if cfg.algorithm == "herafc":
                queue = order_tasks(app, graph, cfg.weights, cfg.delta)
            else:
                kind = cfg.algorithm.split("-", 1)[1]
                queue = baseline_order(app, kind, f"{seed}:order:{app.id}")
            order_seconds += time.perf_counter() - t0

        t0 = time.perf_counter()
        if cfg.algorithm == "cloud-first":
            placement = baseline_cloud_first(app, graph, live)
        else:
            placement = herafc_place(app, graph, live, queue)
        place_seconds += time.perf_counter() - t0

        for code, _, _ in check_constraints(placement, app, graph):
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
        usage.apply(placement.envelope, 1.0)
        heapq.heappush(releases, (usage.now + sum(placement.level_durations),
                                  k, placement.envelope))

        # A located task's latency sample: its mapped outgoing edges' sum.
        outgoing: dict[str, float] = {}
        for edge in app.edges:
            src = edge.src
            path = placement.edge_paths.get((src, edge.dst))
            if path is not None:
                outgoing[src] = outgoing.get(src, 0) + path.total_latency
        for task in app.tasks:
            node = placement.task_locations.get(task.id)
            if node is None:
                continue
            tier = CLOUD if node.tier == CLOUD else FOG
            share_counts[task.priority][tier] += 1
            if task.id in outgoing:
                latency_sum[task.priority, tier] += outgoing[task.id]
                latency_n[task.priority, tier] += 1

        if (k + 1) % conservation_check_every == 0:
            _check_conservation(live, usage.active)
        if (k + 1) % PROGRESS_EVERY == 0:
            log.info("replication seed %s: %d of %d apps admitted", seed,
                     k + 1, app_count)

    while releases:
        advance(releases[0][0])
    _check_conservation(live, usage.active)

    latency_by_priority = {}
    for p in range(1, 6):
        entry = latency_by_priority[p] = {}
        for tier in (FOG, CLOUD):
            n = latency_n[p, tier]
            entry[f"{tier}_avg_ms"] = latency_sum[p, tier] / n if n else None
            entry[f"{tier}_n"] = n
    fog_share, cloud_share = {}, {}
    for p, counts in share_counts.items():
        total = counts[FOG] + counts[CLOUD]
        fog_share[p] = 100.0 * counts[FOG] / total if total else 0.0
        cloud_share[p] = 100.0 - fog_share[p] if total else 0.0
    timings = {"order_total_s": order_seconds, "place_total_s": place_seconds,
               "per_app_avg_ms": (1000.0 * (order_seconds + place_seconds)
                                  / app_count if app_count else 0.0)}
    log.info("replication seed %s: %d apps, %d tasks in %.3f s", seed,
             app_count, task_count, time.perf_counter() - started)
    return ReplicationReport(
        seed=seed, app_count=app_count, task_count=task_count,
        fog_util=usage.util(FOG), cloud_util=usage.util(CLOUD),
        latency_by_priority=latency_by_priority,
        fog_share_by_priority=fog_share,
        cloud_share_by_priority=cloud_share,
        timings=timings, violation_counts=violation_counts,
        rejected_count=rejected_count, revocation_count=revocations,
        placed_fog=sum(c[FOG] for c in share_counts.values()),
        placed_cloud=sum(c[CLOUD] for c in share_counts.values()),
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
        workload = replace(cfg.workload, app_count=count, max_total_tasks=max(
            cfg.workload.max_total_tasks,
            count * cfg.workload.tasks_per_app[1]))
        report = run_replication(replace(cfg, workload=workload), cfg.seed)
        records.append({"app_count": count, **report.timings})
    return records
