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
from .topology import NoPath, NodeId, PhysicalPath, ResourceGraph, shortest_path
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
    level_of = {t: k for k, level in enumerate(levels) for t in level}

    home = app.home_fn
    home_required = any(rm.fits(t, home) for t in tasks)

    # If no link could ever be oversubscribed by the whole app's edges at
    # once, paths are contention-free and can be precomputed per node pair.
    total_demand = sum(e.bandwidth_demand for e in app.edges)
    max_demand = max((e.bandwidth_demand for e in app.edges), default=0.0)
    min_link_bw = min((rm.residual_bw(k) for k in rm.capacity.bw), default=math.inf)
    contention_free = total_demand <= min_link_bw
    path_table: dict = {}
    if contention_free and app.edges:
        for a in locations:
            for b in locations:
                path_table[(a, b)] = (
                    graph.colocated_path(a) if a == b
                    else shortest_path(graph, a, b, max_demand, rm))

    # Score tables: task term per (task, node) and edge term per node pair.
    task_term: list[dict[NodeId, float]] = []
    for t in tasks:
        row = {}
        for node in locations:
            residual = rm.residual_cpu(node)
            if residual > 0:
                factor = big_delta if node == home else 1.0
                row[node] = factor / residual
        task_term.append(row)

    def edge_score(path: PhysicalPath) -> float:
        score = path.total_latency + path.hop_count
        for key in path.links:
            score += 1.0 / rm.residual_bw(key)
        return score

    edge_term_table: dict = {}
    if contention_free:
        for pair, path in path_table.items():
            if not isinstance(path, NoPath):
                edge_term_table[pair] = edge_score(path)

    residual_cpu = {n: rm.residual_cpu(n) for n in locations}
    residual_mem = {n: rm.residual_mem(n) for n in locations}
    depth = len(levels)

    best_score = math.inf
    best_assignment = None
    best_paths = None
    enumerated = 0
    for vector in itertools.product(locations, repeat=len(tasks)):
        enumerated += 1
        assignment = dict(zip(task_ids, vector))
        if home_required and home not in vector:
            continue
        # Per-level capacity: levels run sequentially, so demand sums bind
        # within each level only.
        feasible = True
        for level_idx in range(depth):
            used_cpu: dict = {}
            used_mem: dict = {}
            for t, node in zip(tasks, vector):
                if level_of[t.id] != level_idx:
                    continue
                used_cpu[node] = used_cpu.get(node, 0.0) + t.cpu_demand
                used_mem[node] = used_mem.get(node, 0.0) + t.mem_demand
            for node, used in used_cpu.items():
                if used > residual_cpu[node] or used_mem[node] > residual_mem[node]:
                    feasible = False
                    break
            if not feasible:
                break
        if not feasible:
            continue
        score = 0.0
        for row, node in zip(task_term, vector):
            term = row.get(node)
            if term is None:
                feasible = False
                break
            score += term
        if not feasible:
            continue
        paths = None
        if contention_free:
            for edge in app.edges:
                pair = (assignment[edge.src], assignment[edge.dst])
                term = edge_term_table.get(pair)
                if term is None:
                    feasible = False
                    break
                score += term
        else:
            paths = map_assignment_edges(app, graph, rm, assignment, levels)
            if paths is None:
                feasible = False
            else:
                for path in paths.values():
                    score += edge_score(path)
        if not feasible:
            continue
        if score < best_score - 1e-12:
            best_score = score
            best_assignment = assignment
            best_paths = paths

    total = len(locations) ** len(tasks)
    assert enumerated == total
    if best_assignment is None:
        return OracleResult(feasible=False, best_placement=None,
                            best_score=None, enumerated_count=total)
    if best_paths is None:
        best_paths = {}
        for edge in app.edges:
            src, dst = edge.src, edge.dst
            best_paths[src, dst] = path_table[(best_assignment[src],
                                               best_assignment[dst])]
    placement = Placement(
        app_id=app.id, home_fn=home,
        task_locations=dict(best_assignment),
        edge_paths=best_paths,
        level_order=[sorted(level) for level in levels],
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
