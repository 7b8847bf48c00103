"""Multi-hop location selection and task-edge path mapping.

Levels and their tasks are placed in the order the caller gives (HeRAFC: its
process queue, see ordering). Each task is first-fit against the app's home
fog node, then the fog nodes 1 hop from it, then those 2 hops from it, and
finally the cloud, in one pass per app. Each edge is mapped once, at the
later of its endpoints' levels, on a latency-shortest bandwidth-feasible path.

Each level debits the live resource matrix and records a level log: the
amount debited per node and link, and the exact held value each key's first
debit overwrote. Consecutive levels run sequentially, never concurrently, so
they may reuse the same capacity: after a level its log is undone by putting
those held values back, and the next level starts from the admission state.
The placement's envelope, the per-key maximum of the level amounts, is what
the app holds until it completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ordering import ProcessQueue
from .topology import (FOG, NoPath, NodeId, PhysicalPath, ResourceGraph,
                       nodes_within_hops, shortest_path)
from .workload import Application, Task, TaskEdge


class PlacementError(ValueError):
    pass


@dataclass(slots=True)
class Envelope:
    """Amounts per node (cpu, mem) and per link (bw)."""

    cpu: dict[NodeId, float] = field(default_factory=dict)
    mem: dict[NodeId, float] = field(default_factory=dict)
    bw: dict[tuple[NodeId, NodeId], float] = field(default_factory=dict)

    def parts(self) -> tuple[dict, dict, dict]:
        return self.cpu, self.mem, self.bw

    def copy(self) -> "Envelope":
        return Envelope(dict(self.cpu), dict(self.mem), dict(self.bw))

    def raise_to(self, level: "Envelope") -> None:
        """Raise each amount to the level's. New keys go last, so the key
        order is the first-seen order across levels."""
        for mine, theirs in ((self.cpu, level.cpu), (self.mem, level.mem),
                             (self.bw, level.bw)):
            for key, amt in theirs.items():
                old = mine.get(key)
                if old is None or amt > old:
                    mine[key] = amt


@dataclass(slots=True)
class LevelLog(Envelope):
    """One level's debits on a live matrix, and what undoes them.

    The amounts are summed from 0.0 in debit order. `prior` keeps the exact
    held value that each key's first debit overwrote: undo puts it back
    rather than subtracting, because x + a - a != x in floating point.
    """

    prior: Envelope = field(default_factory=Envelope)


@dataclass(slots=True)
class ResourceMatrix:
    """Residual cpu/mem per location and residual bandwidth per link, kept
    as three Envelopes: the graph's capacity, the effective capacity and the
    held amounts.

    Holdings and effective capacities are tracked separately so availability
    fluctuation can shrink capacity without ever revoking an existing hold.
    """

    capacity: Envelope
    effective: Envelope
    held: Envelope

    @classmethod
    def from_graph(cls, graph: ResourceGraph) -> "ResourceMatrix":
        cpu = {n: float(c) for n, c in graph.capacity_cpu.items()}
        mem = {n: float(c) for n, c in graph.capacity_mem.items()}
        bw = {key: float(link.bandwidth_capacity)
              for key, link in graph.link_by_key.items()}
        capacity = Envelope(cpu, mem, bw)
        held = Envelope(dict.fromkeys(cpu, 0.0), dict.fromkeys(mem, 0.0),
                        dict.fromkeys(bw, 0.0))
        return cls(capacity, capacity.copy(), held)

    def residual_cpu(self, node: NodeId) -> float:
        return self.effective.cpu[node] - self.held.cpu[node]

    def residual_mem(self, node: NodeId) -> float:
        return self.effective.mem[node] - self.held.mem[node]

    def residual_bw(self, key) -> float:
        return self.effective.bw[key] - self.held.bw[key]

    def fits(self, task: Task, node: NodeId) -> bool:
        effective, held = self.effective, self.held
        return (effective.cpu[node] - held.cpu[node] >= task.cpu_demand
                and effective.mem[node] - held.mem[node] >= task.mem_demand)

    def debit_task(self, task: Task, node: NodeId, log: LevelLog) -> None:
        if not self.fits(task, node):
            raise PlacementError(
                f"debit would overdraw {node}: task {task.id} demands "
                f"({task.cpu_demand}, {task.mem_demand})")
        held, prior = self.held, log.prior
        if node not in prior.cpu:
            prior.cpu[node] = held.cpu[node]
            prior.mem[node] = held.mem[node]
        held.cpu[node] += task.cpu_demand
        held.mem[node] += task.mem_demand
        log.cpu[node] = log.cpu.get(node, 0.0) + task.cpu_demand
        log.mem[node] = log.mem.get(node, 0.0) + task.mem_demand

    def debit_link(self, key, amount: float, log: LevelLog) -> None:
        if self.residual_bw(key) < amount - 1e-9:
            raise PlacementError(f"bandwidth debit would overdraw link {key}")
        held = self.held.bw
        if key not in log.prior.bw:
            log.prior.bw[key] = held[key]
        held[key] += amount
        log.bw[key] = log.bw.get(key, 0.0) + amount

    def hold(self, envelope: Envelope) -> None:
        """Add an app's envelope to the held amounts; refuse any overdraw."""
        for held, effective, amounts in zip(self.held.parts(),
                                            self.effective.parts(),
                                            envelope.parts()):
            for key, amt in amounts.items():
                if effective[key] - held[key] < amt - 1e-9:
                    raise PlacementError(f"hold would overdraw {key}")
                held[key] += amt

    def release(self, envelope: Envelope) -> None:
        for held, amounts in zip(self.held.parts(), envelope.parts()):
            for key, amt in amounts.items():
                held[key] = max(0.0, held[key] - amt)

    def snapshot(self) -> LevelLog:
        """An empty level log: debits recorded in it are undone by reset_rm."""
        return LevelLog()

    def clone(self) -> "ResourceMatrix":
        return ResourceMatrix(self.capacity, self.effective.copy(),
                              self.held.copy())


def reset_rm(rm: ResourceMatrix, log: LevelLog) -> None:
    """Undo a level log: put back every held value its debits overwrote."""
    # Part by part rather than a zip over parts(): this and raise_to run
    # once per level, and the zips made each placement about 5% slower.
    held, prior = rm.held, log.prior
    held.cpu.update(prior.cpu)
    held.mem.update(prior.mem)
    held.bw.update(prior.bw)


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
    by descending bandwidth demand, then (src, dst): the order of mapping.
    The app's edges are sorted once by that key, which orders any two edges
    but duplicates, and then dealt out to their levels.
    """
    level_of = {t: k for k, level in enumerate(levels) for t in level}
    by_level: list[list[TaskEdge]] = [[] for _ in levels]
    for edge in sorted(app.edges,
                       key=lambda e: (-e.bandwidth_demand, e.src, e.dst)):
        src, dst = level_of[edge.src], level_of[edge.dst]
        by_level[src if src > dst else dst].append(edge)
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
    edge_paths = placement.edge_paths
    for edge in edges:
        src, dst = edge.src, edge.dst
        src_loc = locations.get(src)
        dst_loc = locations.get(dst)
        if src_loc is None or dst_loc is None:
            placement.ignored.add((src, dst))
            continue
        if src_loc == dst_loc:
            edge_paths[src, dst] = graph.colocated_path(src_loc)
            continue
        path = shortest_path(graph, src_loc, dst_loc, edge.bandwidth_demand, rm)
        if isinstance(path, NoPath):
            placement.unmapped[src, dst] = (
                f"no path with residual bandwidth >= {edge.bandwidth_demand:.3f}")
            continue
        for key in path.links:
            rm.debit_link(key, edge.bandwidth_demand, log)
        edge_paths[src, dst] = path


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
    task_by_id = app.task_by_id()
    locations = placement.task_locations
    for level, edges in zip(levels, edges_by_level(app, levels)):
        log = rm.snapshot()
        # A level lasts as long as its longest task, placed or rejected
        # (makespans are positive, see workload.validate_dag).
        duration = 0.0
        for tid in level:
            task = task_by_id[tid]
            if task.makespan > duration:
                duration = task.makespan
            for stage in stages:
                node = try_deploy(task, stage, rm)
                if node is not None:
                    break
            if node is None:
                placement.rejected.append(
                    (tid, "no candidate location has capacity"))
                continue
            rm.debit_task(task, node, log)
            locations[tid] = node
        if edges:
            map_level_edges(edges, placement, graph, rm, log)
        reset_rm(rm, log)
        placement.envelope.raise_to(log)
        placement.level_order.append(list(level))
        placement.level_durations.append(duration)
    # Every level starts from the admission state and tries the home FN
    # first, so an unused home FN means no task of the app fits there.
    placement.home_pin_infeasible = (
        app.home_fn not in locations.values())
    return placement


def herafc_place(app: Application, graph: ResourceGraph, rm: ResourceMatrix,
                 queue: ProcessQueue) -> Placement:
    """Place one application in the queue's placing order against the home
    FN, the 1-hop and 2-hop fog nodes, then the cloud."""
    return place_levels(app, graph, rm, queue.levels,
                        _candidate_stages(graph, app.home_fn))
