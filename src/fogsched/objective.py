"""Objective evaluators and constraint checkers for placements.

Two formulations are scored: a single-fog/single-cloud model at server
granularity, and the multi-fog/cloud model at FN/cloud granularity. Both
produce an ObjectiveBreakdown whose total is the sum of per-task load terms,
per-edge latency terms, and per-edge bandwidth terms.

Note: the scores mix units on purpose (milliseconds added to 1/Mbps and to
hop counts). They are unitless comparators for ranking placements, not
physical quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .placement import Placement, ResourceMatrix
from .topology import CLOUD, FOG, ResourceGraph, ordered_sum
from .workload import Application

DEFAULT_BIG_DELTA = 0.5


class EvaluationError(ValueError):
    pass


@dataclass
class ObjectiveBreakdown:
    task_terms: dict = field(default_factory=dict)
    edge_latency_terms: dict = field(default_factory=dict)
    edge_bandwidth_terms: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return (ordered_sum(self.task_terms.values())
                + ordered_sum(self.edge_latency_terms.values())
                + ordered_sum(self.edge_bandwidth_terms.values()))

    def to_dict(self) -> dict:
        def strkeys(d):
            return {k if isinstance(k, str) else f"{k[0]}->{k[1]}": v
                    for k, v in d.items()}
        return {
            "task_terms": strkeys(self.task_terms),
            "edge_latency_terms": strkeys(self.edge_latency_terms),
            "edge_bandwidth_terms": strkeys(self.edge_bandwidth_terms),
            "total": self.total,
        }


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class SingleFogModel:
    """Server-level model: one cloud server pool and one fog server pool.

    `cloud_residual` / `fog_residual` map server ids to residual capacity;
    `alpha` / `beta` map unordered server pairs to bandwidth (Mbps) and
    latency (ms). Cross-tier latency is the constant kappa, which must exceed
    every intra-tier latency.
    """

    cloud_residual: dict[str, float]
    fog_residual: dict[str, float]
    alpha: dict[tuple[str, str], float]
    beta: dict[tuple[str, str], float]
    kappa: float | None = None
    big_delta: float = DEFAULT_BIG_DELTA

    def __post_init__(self) -> None:
        if not 0.0 < self.big_delta < 1.0:
            raise EvaluationError("big_delta must lie strictly in (0, 1)")
        overlap = set(self.cloud_residual) & set(self.fog_residual)
        if overlap:
            raise EvaluationError(f"servers in both tiers: {sorted(overlap)}")
        floor = kappa_floor(self)
        if self.kappa is None:
            self.kappa = floor + 1.0
        elif self.kappa <= floor:
            raise EvaluationError(
                f"kappa {self.kappa} must exceed every intra-tier latency ({floor})")

    def tier(self, server: str) -> str:
        if server in self.cloud_residual:
            return CLOUD
        if server in self.fog_residual:
            return FOG
        raise EvaluationError(f"unknown server {server}")

    def residual(self, server: str) -> float:
        return (self.cloud_residual.get(server)
                if server in self.cloud_residual else self.fog_residual[server])


@dataclass
class ServerAssignment:
    """Input to the single-fog evaluator: tasks on servers, edges by endpoints."""
    task_locations: dict[str, str]
    edges: list[tuple[str, str]]


def kappa_floor(model: SingleFogModel) -> float:
    """Smallest latency bound kappa must strictly exceed (max intra-tier beta)."""
    floor = 0.0
    for (a, b), latency in model.beta.items():
        try:
            same_tier = model.tier(a) == model.tier(b)
        except EvaluationError:
            continue
        if same_tier:
            floor = max(floor, latency)
    return floor


def eval_single_fog(assignment: ServerAssignment,
                    model: SingleFogModel) -> ObjectiveBreakdown:
    """Score a server-level placement.

    Task term: 1/residual for cloud servers, big_delta/residual for fog
    servers (the constant rewards fog hosting). Edge term: inter-server
    latency (kappa when crossing tiers) plus 1/bandwidth; co-located
    endpoints contribute nothing.
    """
    out = ObjectiveBreakdown()
    for task, server in assignment.task_locations.items():
        tier = model.tier(server)
        residual = model.residual(server)
        if residual <= 0:
            raise EvaluationError(f"server {server} has no residual capacity")
        factor = model.big_delta if tier == FOG else 1.0
        out.task_terms[task] = factor / residual
    for src, dst in assignment.edges:
        for end in (src, dst):
            if end not in assignment.task_locations:
                raise EvaluationError(f"edge endpoint {end} is unassigned")
        s1 = assignment.task_locations[src]
        s2 = assignment.task_locations[dst]
        key = (src, dst)
        if s1 == s2:
            out.edge_latency_terms[key] = 0.0
            out.edge_bandwidth_terms[key] = 0.0
            continue
        if model.tier(s1) != model.tier(s2):
            latency = model.kappa
        else:
            latency = model.beta.get(_pair(s1, s2))
            if latency is None:
                raise EvaluationError(f"no latency defined for {s1}, {s2}")
        bandwidth = model.alpha.get(_pair(s1, s2))
        if bandwidth is None or bandwidth <= 0:
            raise EvaluationError(f"no bandwidth defined for {s1}, {s2}")
        out.edge_latency_terms[key] = latency
        out.edge_bandwidth_terms[key] = 1.0 / bandwidth
    return out


def eval_mfc(placement: Placement, graph: ResourceGraph, rm: ResourceMatrix,
             big_delta: float = DEFAULT_BIG_DELTA) -> ObjectiveBreakdown:
    """Score a multi-fog/cloud placement against the given residuals.

    Task term: 1/R for the cloud or a remote FN, big_delta/R for the app's
    home FN, where R is the node's residual cpu. Edge latency term: mapped
    path latency plus its hop count. Edge bandwidth term: sum of
    1/residual-bandwidth over the path's links.
    """
    if not 0.0 < big_delta < 1.0:
        raise EvaluationError("big_delta must lie strictly in (0, 1)")
    if placement.rejected:
        raise EvaluationError(
            f"placement has rejected tasks: {[t for t, _ in placement.rejected]}")
    if placement.unmapped:
        raise EvaluationError(
            f"placement has unmapped edges: {sorted(placement.unmapped)}")
    out = ObjectiveBreakdown()
    for task, node in placement.task_locations.items():
        residual = rm.residual_cpu(node)
        if residual <= 0:
            raise EvaluationError(f"node {node} has no residual capacity")
        factor = big_delta if node == placement.home_fn else 1.0
        out.task_terms[task] = factor / residual
    for key, path in placement.edge_paths.items():
        out.edge_latency_terms[key] = path.total_latency + path.hop_count
        bw_term = 0.0
        for link_key in path.links:
            residual_bw = rm.residual_bw(link_key)
            if residual_bw <= 0:
                raise EvaluationError(f"link {link_key} has no residual bandwidth")
            bw_term += 1.0 / residual_bw
        out.edge_bandwidth_terms[key] = bw_term
    return out


def check_constraints(placement: Placement, app: Application,
                      graph: ResourceGraph) -> list[tuple[str, str, str]]:
    """Report every violated multi-fog/cloud constraint (empty = feasible).

    Codes: one-location (a task must sit on exactly one location),
    capacity (per-level demand within node capacity), bandwidth (mapped paths
    had enough residual bandwidth), edge-latency (path latency exceeds the
    edge's demand; reported, never enforced), home-fn (at least one task on
    the app's home FN unless none could fit there).
    """
    violations: list[tuple[str, str, str]] = []
    rejected = {t for t, _ in placement.rejected}
    for task in app.tasks:
        locs = placement.task_locations.get(task.id)
        if locs is None:
            count = 0
        # A NodeId is itself a tuple: only a list or set names several.
        elif isinstance(locs, (list, set)):
            count = len(locs)
        else:
            count = 1
        if task.id in rejected:
            if count != 0:
                violations.append(("one-location", task.id,
                                   "task is both rejected and located"))
            continue
        if count != 1:
            violations.append(("one-location", task.id,
                               f"task mapped to {count} locations"))
    # Capacity binds per level: consecutive levels run sequentially and may
    # reuse the same capacity, so sum demands within each level only.
    levels = placement.level_order or [sorted(placement.task_locations)]
    task_by_id = app.task_by_id()
    for level in levels:
        used_cpu: dict = {}
        used_mem: dict = {}
        for tid in level:
            node = placement.task_locations.get(tid)
            if node is None or isinstance(node, (list, set)):
                continue
            task = task_by_id[tid]
            used_cpu[node] = used_cpu.get(node, 0.0) + task.cpu_demand
            used_mem[node] = used_mem.get(node, 0.0) + task.mem_demand
        for node, used in used_cpu.items():
            if used > graph.capacity_cpu[node] + 1e-9:
                violations.append(("capacity", str(node),
                                   f"level cpu demand {used} exceeds capacity "
                                   f"{graph.capacity_cpu[node]}"))
        for node, used in used_mem.items():
            if used > graph.capacity_mem[node] + 1e-9:
                violations.append(("capacity", str(node),
                                   f"level mem demand {used} exceeds capacity "
                                   f"{graph.capacity_mem[node]}"))
    for edge in app.edges:
        src, dst = edge.src, edge.dst
        path = placement.edge_paths.get((src, dst))
        if path is None:
            continue
        if path.min_bandwidth < edge.bandwidth_demand - 1e-9:
            violations.append(
                ("bandwidth", f"{src}->{dst}",
                 f"path min bandwidth {path.min_bandwidth:.3f} below demand "
                 f"{edge.bandwidth_demand:.3f}"))
        if path.total_latency > edge.max_latency:
            violations.append(
                ("edge-latency", f"{src}->{dst}",
                 f"path latency {path.total_latency:.3f} ms exceeds demand "
                 f"{edge.max_latency:.3f} ms"))
    located = {n for n in placement.task_locations.values()
               if not isinstance(n, (list, set))}
    if (placement.home_fn not in located
            and not placement.home_pin_infeasible):
        violations.append(("home-fn", str(placement.home_fn),
                           "no task placed on the home fog node"))
    return violations


def check_single_fog(assignment: ServerAssignment, app: Application,
                     model: SingleFogModel) -> list[tuple[str, str, str]]:
    """Report every violated server-level constraint (empty = feasible):
    one-location, capacity (cpu within residual) and home-fn (at least one
    task on a fog server)."""
    violations: list[tuple[str, str, str]] = []
    for task in app.tasks:
        loc = assignment.task_locations.get(task.id)
        if loc is None:
            violations.append(("one-location", task.id, "task is unassigned"))
        elif isinstance(loc, (list, tuple, set)) and len(loc) != 1:
            violations.append(("one-location", task.id,
                               f"task mapped to {len(loc)} servers"))
    used: dict[str, float] = {}
    task_by_id = app.task_by_id()
    for tid, server in assignment.task_locations.items():
        if isinstance(server, (list, tuple, set)):
            continue
        used[server] = used.get(server, 0.0) + task_by_id[tid].cpu_demand
    for server, demand in used.items():
        if demand > model.residual(server) + 1e-9:
            violations.append(("capacity", server,
                               f"demand {demand} exceeds residual "
                               f"{model.residual(server)}"))
    fog_used = any(model.tier(s) == FOG for s in assignment.task_locations.values()
                   if not isinstance(s, (list, tuple, set)))
    if assignment.task_locations and not fog_used:
        violations.append(("home-fn", "-", "no task placed on any fog server"))
    return violations
