"""Multi-hop location selection and task-edge path mapping.

Levels are consumed root-first (LIFO over the level queue), tasks within a
level in descending mean-critical-value order. Each task is first-fit against
the app's home fog node, then the fog nodes 1 hop from it, then those 2 hops
from it, and finally the cloud, in one pass per app. Each edge is mapped
once, at the later of its endpoints' levels, on a latency-shortest
bandwidth-feasible path.

Each level debits the live resource matrix and records a level log: the
amount debited per node and link, and the exact held value each key's first
debit overwrote. Consecutive levels run sequentially, never concurrently, so
they may reuse the same capacity: after a level its log is undone by putting
those held values back, and the next level starts from the admission state.
The placement's envelope, the per-key maximum of the level amounts, is what
the app holds until it completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ordering import ProcessQueue
from .topology import (FOG, NoPath, NodeId, PhysicalPath, ResourceGraph,
                       nodes_within_hops, shortest_path)
from .workload import Application, Task, TaskEdge


class PlacementError(ValueError):
    pass


class _BwView:
    """Residual-bandwidth lookup for shortest_path over a ResourceMatrix."""

    __slots__ = ("_rm",)

    def __init__(self, rm: "ResourceMatrix"):
        self._rm = rm

    def get(self, key, default=None):
        eff = self._rm.effective_bw.get(key)
        if eff is None:
            return default
        return eff - self._rm.held_bw[key]


@dataclass
class Envelope:
    """Amounts per node (cpu, mem) and per link (bw)."""

    cpu: dict[NodeId, float] = field(default_factory=dict)
    mem: dict[NodeId, float] = field(default_factory=dict)
    bw: dict[tuple[NodeId, NodeId], float] = field(default_factory=dict)

    def raise_to(self, level: "Envelope") -> None:
        """Raise each amount to the level's. New keys go last, so the key
        order is the first-seen order across levels."""
        for mine, theirs in ((self.cpu, level.cpu), (self.mem, level.mem),
                             (self.bw, level.bw)):
            for key, amt in theirs.items():
                mine[key] = max(mine.get(key, 0.0), amt)


@dataclass
class LevelLog(Envelope):
    """One level's debits on a live matrix, and what undoes them.

    The amounts are summed from 0.0 in debit order. `prior_*` keeps the exact
    held value that each key's first debit overwrote: undo puts it back
    rather than subtracting, because x + a - a != x in floating point.
    """

    prior_cpu: dict[NodeId, float] = field(default_factory=dict)
    prior_mem: dict[NodeId, float] = field(default_factory=dict)
    prior_bw: dict[tuple[NodeId, NodeId], float] = field(default_factory=dict)


@dataclass
class ResourceMatrix:
    """Residual cpu/mem per location and residual bandwidth per link.

    Holdings and effective capacities are tracked separately so availability
    fluctuation can shrink capacity without ever revoking an existing hold.
    """

    capacity_cpu: dict[NodeId, float]
    capacity_mem: dict[NodeId, float]
    capacity_bw: dict[tuple[NodeId, NodeId], float]
    effective_cpu: dict[NodeId, float] = field(default_factory=dict)
    effective_mem: dict[NodeId, float] = field(default_factory=dict)
    effective_bw: dict[tuple[NodeId, NodeId], float] = field(default_factory=dict)
    held_cpu: dict[NodeId, float] = field(default_factory=dict)
    held_mem: dict[NodeId, float] = field(default_factory=dict)
    held_bw: dict[tuple[NodeId, NodeId], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.effective_cpu:
            self.effective_cpu = dict(self.capacity_cpu)
            self.effective_mem = dict(self.capacity_mem)
            self.effective_bw = dict(self.capacity_bw)
        if not self.held_cpu:
            self.held_cpu = {n: 0.0 for n in self.capacity_cpu}
            self.held_mem = {n: 0.0 for n in self.capacity_mem}
            self.held_bw = {k: 0.0 for k in self.capacity_bw}

    @classmethod
    def from_graph(cls, graph: ResourceGraph) -> "ResourceMatrix":
        cpu = {n: float(c) for n, c in graph.capacity_cpu.items()}
        mem = {n: float(c) for n, c in graph.capacity_mem.items()}
        bw = {link.key: float(link.bandwidth_capacity) for link in graph.links}
        return cls(capacity_cpu=cpu, capacity_mem=mem, capacity_bw=bw)

    def residual_cpu(self, node: NodeId) -> float:
        return self.effective_cpu[node] - self.held_cpu[node]

    def residual_mem(self, node: NodeId) -> float:
        return self.effective_mem[node] - self.held_mem[node]

    def residual_bw(self, key) -> float:
        return self.effective_bw[key] - self.held_bw[key]

    def bw_view(self) -> _BwView:
        return _BwView(self)

    def fits(self, task: Task, node: NodeId) -> bool:
        return (self.residual_cpu(node) >= task.cpu_demand
                and self.residual_mem(node) >= task.mem_demand)

    def debit_task(self, task: Task, node: NodeId, log: LevelLog) -> None:
        if not self.fits(task, node):
            raise PlacementError(
                f"debit would overdraw {node}: task {task.id} demands "
                f"({task.cpu_demand}, {task.mem_demand})")
        if node not in log.prior_cpu:
            log.prior_cpu[node] = self.held_cpu[node]
            log.prior_mem[node] = self.held_mem[node]
        self.held_cpu[node] += task.cpu_demand
        self.held_mem[node] += task.mem_demand
        log.cpu[node] = log.cpu.get(node, 0.0) + task.cpu_demand
        log.mem[node] = log.mem.get(node, 0.0) + task.mem_demand

    def debit_link(self, key, amount: float, log: LevelLog) -> None:
        if self.residual_bw(key) < amount - 1e-9:
            raise PlacementError(f"bandwidth debit would overdraw link {key}")
        if key not in log.prior_bw:
            log.prior_bw[key] = self.held_bw[key]
        self.held_bw[key] += amount
        log.bw[key] = log.bw.get(key, 0.0) + amount

    def _by_kind(self, envelope: Envelope):
        return ((self.held_cpu, self.effective_cpu, envelope.cpu),
                (self.held_mem, self.effective_mem, envelope.mem),
                (self.held_bw, self.effective_bw, envelope.bw))

    def hold(self, envelope: Envelope) -> None:
        """Add an app's envelope to the held amounts; refuse any overdraw."""
        for held, effective, amounts in self._by_kind(envelope):
            for key, amt in amounts.items():
                if effective[key] - held[key] < amt - 1e-9:
                    raise PlacementError(f"hold would overdraw {key}")
                held[key] += amt

    def release(self, envelope: Envelope) -> None:
        for held, _, amounts in self._by_kind(envelope):
            for key, amt in amounts.items():
                held[key] = max(0.0, held[key] - amt)

    def snapshot(self) -> LevelLog:
        """An empty level log: debits recorded in it are undone by reset_rm."""
        return LevelLog()

    def clone(self) -> "ResourceMatrix":
        return ResourceMatrix(
            capacity_cpu=self.capacity_cpu,
            capacity_mem=self.capacity_mem,
            capacity_bw=self.capacity_bw,
            effective_cpu=dict(self.effective_cpu),
            effective_mem=dict(self.effective_mem),
            effective_bw=dict(self.effective_bw),
            held_cpu=dict(self.held_cpu),
            held_mem=dict(self.held_mem),
            held_bw=dict(self.held_bw),
        )


def reset_rm(rm: ResourceMatrix, log: LevelLog) -> None:
    """Undo a level log: put back every held value its debits overwrote."""
    rm.held_cpu.update(log.prior_cpu)
    rm.held_mem.update(log.prior_mem)
    rm.held_bw.update(log.prior_bw)


@dataclass
class Placement:
    app_id: str
    home_fn: NodeId
    task_locations: dict[str, NodeId] = field(default_factory=dict)
    edge_paths: dict[tuple[str, str], PhysicalPath] = field(default_factory=dict)
    unmapped: dict[tuple[str, str], str] = field(default_factory=dict)
    ignored: set = field(default_factory=set)
    rejected: list = field(default_factory=list)
    level_order: list[list[str]] = field(default_factory=list)
    envelope: Envelope = field(default_factory=Envelope)
    level_durations: list[float] = field(default_factory=list)
    # Always None: no task is ever pinned. perfbench/harness.py's
    # Probe.record is its only reader.
    pinned_task: str | None = None
    home_pin_infeasible: bool = False

    def to_dict(self) -> dict:
        return {
            "app_id": self.app_id,
            "home_fn": str(self.home_fn),
            "locations": {t: str(n) for t, n in sorted(self.task_locations.items())},
            "paths": {f"{s}->{d}": [str(n) for n in p.nodes]
                      for (s, d), p in sorted(self.edge_paths.items())},
            "unmapped": {f"{s}->{d}": reason
                         for (s, d), reason in sorted(self.unmapped.items())},
            "ignored": sorted(f"{s}->{d}" for s, d in self.ignored),
            "rejected": [[t, reason] for t, reason in self.rejected],
        }


def try_deploy(task: Task, candidates, rm: ResourceMatrix):
    """First candidate (in the given order) whose cpu AND mem residual fit."""
    for node in candidates:
        if rm.fits(task, node):
            return node
    return None


def _candidate_stages(graph: ResourceGraph, home: NodeId):
    """Candidate stages after an app's home FN: the fog nodes 1 hop from it,
    those 2 hops from it, then the cloud. Memoised per home FN."""
    stages = graph._stages_cache.get(home)
    if stages is None:
        one_hop = tuple(n for n in sorted(nodes_within_hops(graph, (home,), 1))
                        if n.tier == FOG)
        near = set(one_hop)
        two_hop = tuple(n for n in sorted(nodes_within_hops(graph, (home,), 2))
                        if n.tier == FOG and n not in near)
        stages = (one_hop, two_hop, (graph.cloud.id,))
        graph._stages_cache[home] = stages
    return stages


def edges_by_level(app: Application, levels) -> list[list[TaskEdge]]:
    """Each task edge at the later of its endpoints' levels in placing order.

    `levels` holds every task of the app once. Each level's edges are sorted
    by descending bandwidth demand, then key: the order they are mapped in.
    """
    level_of = {t: k for k, level in enumerate(levels) for t in level}
    by_level: list[list[TaskEdge]] = [[] for _ in levels]
    for edge in app.edges:
        by_level[max(level_of[edge.src], level_of[edge.dst])].append(edge)
    for edges in by_level:
        edges.sort(key=lambda e: (-e.bandwidth_demand, e.key))
    return by_level


def map_level_edges(edges, placement: Placement, graph: ResourceGraph,
                    rm: ResourceMatrix, log: LevelLog) -> None:
    """Map one level's edges (see edges_by_level) in the given order.

    By then each endpoint is either located or rejected, so an edge with an
    unlocated endpoint is recorded as ignored. Every other edge gets its
    latency-shortest path with enough residual bandwidth, or is recorded as
    unmapped. Bandwidth is debited from `rm` into `log`.
    """
    locations = placement.task_locations
    residual_bw = rm.bw_view()
    for edge in edges:
        src_loc = locations.get(edge.src)
        dst_loc = locations.get(edge.dst)
        if src_loc is None or dst_loc is None:
            placement.ignored.add(edge.key)
            continue
        if src_loc == dst_loc:
            placement.edge_paths[edge.key] = PhysicalPath(
                nodes=(src_loc,), total_latency=0.0,
                min_bandwidth=math.inf, hop_count=0)
            continue
        path = shortest_path(graph, src_loc, dst_loc, edge.bandwidth_demand,
                             residual_bw=residual_bw)
        if isinstance(path, NoPath):
            placement.unmapped[edge.key] = (
                f"no path with residual bandwidth >= {edge.bandwidth_demand:.3f}")
            continue
        for key in path.links:
            rm.debit_link(key, edge.bandwidth_demand, log)
        placement.edge_paths[edge.key] = path


def place_levels(app: Application, graph: ResourceGraph, rm: ResourceMatrix,
                 levels, stages) -> Placement:
    """The placement loop every algorithm shares, one pass per app.

    Levels are placed in the given order, the tasks of each in the given
    order. Each level is placed on the live `rm` and undone before the next,
    so `rm` ends exactly as it was passed. Every task is first-fit against
    the app's home FN, then against `stages`, a sequence of candidate-location
    sequences tried in order. `levels` holds every task of the app once; each
    task edge is mapped at the later of its endpoints' levels.
    """
    placement = Placement(app_id=app.id, home_fn=app.home_fn)
    stages = ((app.home_fn,), *stages)
    for level, edges in zip(levels, edges_by_level(app, levels)):
        log = rm.snapshot()
        for tid in level:
            task = app.task_by_id[tid]
            for stage in stages:
                node = try_deploy(task, stage, rm)
                if node is not None:
                    break
            if node is None:
                placement.rejected.append(
                    (tid, "no candidate location has capacity"))
                continue
            rm.debit_task(task, node, log)
            placement.task_locations[tid] = node
        map_level_edges(edges, placement, graph, rm, log)
        reset_rm(rm, log)
        placement.envelope.raise_to(log)
        placement.level_order.append(list(level))
        placement.level_durations.append(
            max((app.task_by_id[t].makespan for t in level), default=0.0))
    # Every level starts from the admission state and tries the home FN
    # first, so an unused home FN means no task of the app fits there.
    placement.home_pin_infeasible = (
        app.home_fn not in placement.task_locations.values())
    return placement


def herafc_place(app: Application, graph: ResourceGraph, rm: ResourceMatrix,
                 queue: ProcessQueue) -> Placement:
    """Place one application root level first, each level in descending
    mean-critical-value order, against the home FN, the 1-hop and 2-hop fog
    nodes, then the cloud."""
    levels = [sorted(level, key=lambda t: (-queue.mcv[t], t))
              for level in reversed(queue.levels)]
    return place_levels(app, graph, rm, levels,
                        _candidate_stages(graph, app.home_fn))
