"""Exhaustive small-instance optimizer: ground truth for the heuristic.

Enumerates every task-to-location assignment on tiny instances, filters by
per-level capacity and the home-FN constraint, maps each edge on its
latency-shortest bandwidth-feasible path, and returns the minimum-score
placement (deterministic lexicographic tie-break on the assignment vector).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .ordering import order_tasks, task_levels
from .placement import (Placement, ResourceMatrix, edges_by_level,
                        herafc_place, map_level_edges, reset_rm)
from .objective import DEFAULT_BIG_DELTA, eval_mfc
from .topology import (NoPath, NodeId, PhysicalPath, ResourceGraph, ordered_sum,
                       shortest_path)
from .workload import Application


class OracleSizeError(ValueError):
    """Instance exceeds the exhaustive-search limits."""


@dataclass
class OracleLimits:
    max_tasks: int = 6
    max_nodes: int = 5


@dataclass
class OracleResult:
    feasible: bool
    best_placement: Placement | None
    best_score: float | None
    enumerated_count: int
    heuristic_gap: float | None = None
    heuristic_score: float | None = None
    heuristic_feasible: bool | None = None

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "best_score": self.best_score,
            "enumerated_count": self.enumerated_count,
            "best_placement": (self.best_placement.to_dict()
                               if self.best_placement else None),
            "heuristic_gap": self.heuristic_gap,
            "heuristic_score": self.heuristic_score,
            "heuristic_feasible": self.heuristic_feasible,
        }


def map_assignment_edges(app: Application, graph: ResourceGraph,
                         rm: ResourceMatrix, assignment: dict[str, NodeId],
                         levels: list[list[str]]):
    """Map a fixed assignment's edges as the heuristic does, on `rm`.

    `levels` are root first, as task_levels gives them, and every edge is
    mapped at the later of its endpoints' levels, after that level's tasks
    are located. Each level is undone before the next. Returns the edge
    paths, or None if some edge has no bandwidth-feasible path. `rm` ends
    as passed.
    """
    placement = Placement(app_id=app.id, home_fn=app.home_fn)
    for level, edges in zip(levels, edges_by_level(app, levels)):
        placement.task_locations.update((t, assignment[t]) for t in level)
        log = rm.snapshot()
        map_level_edges(edges, placement, graph, rm, log)
        reset_rm(rm, log)
        if placement.unmapped:
            return None
    return placement.edge_paths


def exhaustive_place(app: Application, graph: ResourceGraph, rm: ResourceMatrix,
                     limits: OracleLimits | None = None,
                     big_delta: float = DEFAULT_BIG_DELTA) -> OracleResult:
    """The minimum-score placement over every task-to-location vector, in
    itertools.product order; of scores within 1e-12, the first one wins."""
    limits = limits or OracleLimits()
    locations = graph.locations()
    if len(app.tasks) > limits.max_tasks:
        raise OracleSizeError(
            f"instance has {len(app.tasks)} tasks, limit is {limits.max_tasks}")
    if len(locations) > limits.max_nodes:
        raise OracleSizeError(
            f"instance has {len(locations)} locations, limit is {limits.max_nodes}")
    tasks = sorted(app.tasks, key=lambda t: t.id)
    task_ids = [t.id for t in tasks]
    levels = task_levels(app)
    # Each level's (vector index, task) pairs, in task-id order.
    level_tasks = [[(i, t) for i, t in enumerate(tasks) if t.id in level]
                   for level in levels]

    home = app.home_fn
    home_required = any(rm.fits(t, home) for t in tasks)

    residual_cpu = {n: rm.residual_cpu(n) for n in locations}
    residual_mem = {n: rm.residual_mem(n) for n in locations}
    # A task's score term depends on its location only; a location without
    # residual CPU has none.
    task_term = {n: (big_delta if n == home else 1.0) / residual
                 for n, residual in residual_cpu.items() if residual > 0}

    def edge_term(path: PhysicalPath) -> float:
        score = path.total_latency + path.hop_count
        for key in path.links:
            score += 1.0 / rm.residual_bw(key)
        return score

    # If no link could ever be oversubscribed by the whole app's edges at
    # once, paths are contention-free: one route and term per location pair.
    demands = [e.bandwidth_demand for e in app.edges]
    min_link_bw = min((rm.residual_bw(k) for k in rm.capacity.bw), default=math.inf)
    contention_free = ordered_sum(demands) <= min_link_bw
    routes: dict = {}
    if contention_free and demands:
        max_demand = max(demands)
        for a in locations:
            for b in locations:
                path = shortest_path(graph, a, b, max_demand, rm)
                if not isinstance(path, NoPath):
                    routes[a, b] = (path, edge_term(path))

    def overcommits(vector) -> bool:
        """Levels run one after another, so demands add up within a level."""
        for pairs in level_tasks:
            used_cpu: dict = {}
            used_mem: dict = {}
            for i, t in pairs:
                node = vector[i]
                used_cpu[node] = used_cpu.get(node, 0.0) + t.cpu_demand
                used_mem[node] = used_mem.get(node, 0.0) + t.mem_demand
            for node, used in used_cpu.items():
                if used > residual_cpu[node] or used_mem[node] > residual_mem[node]:
                    return True
        return False

    best_score = math.inf
    best = None
    for vector in itertools.product(locations, repeat=len(tasks)):
        if home_required and home not in vector or overcommits(vector):
            continue
        terms = [task_term.get(node) for node in vector]
        if None in terms:
            continue
        assignment = dict(zip(task_ids, vector))
        if contention_free:
            hops = [routes.get((assignment[e.src], assignment[e.dst]))
                    for e in app.edges]
            if None in hops:
                continue
            paths = {(e.src, e.dst): path
                     for e, (path, _) in zip(app.edges, hops)}
            terms += [term for _, term in hops]
        else:
            paths = map_assignment_edges(app, graph, rm, assignment, levels)
            if paths is None:
                continue
            terms += [edge_term(path) for path in paths.values()]
        score = ordered_sum(terms)
        if score < best_score - 1e-12:
            best_score = score
            best = assignment, paths

    total = len(locations) ** len(tasks)
    if best is None:
        return OracleResult(feasible=False, best_placement=None,
                            best_score=None, enumerated_count=total)
    assignment, paths = best
    placement = Placement(
        app_id=app.id, home_fn=home, task_locations=assignment,
        edge_paths=paths, level_order=[sorted(level) for level in levels],
        home_pin_infeasible=not home_required,
    )
    return OracleResult(feasible=True, best_placement=placement,
                        best_score=best_score, enumerated_count=total)


def compare_with_heuristic(app: Application, graph: ResourceGraph,
                           rm: ResourceMatrix,
                           limits: OracleLimits | None = None,
                           big_delta: float = DEFAULT_BIG_DELTA) -> OracleResult:
    """Oracle result augmented with the heuristic's score and optimality gap."""
    result = exhaustive_place(app, graph, rm, limits, big_delta)
    queue = order_tasks(app, graph)
    heuristic = herafc_place(app, graph, rm, queue)
    clean = not heuristic.rejected and not heuristic.unmapped
    result.heuristic_feasible = clean
    if clean:
        result.heuristic_score = eval_mfc(heuristic, graph, rm,
                                          big_delta=big_delta).total
        if result.feasible and result.best_score:
            result.heuristic_gap = result.heuristic_score / result.best_score
    return result
