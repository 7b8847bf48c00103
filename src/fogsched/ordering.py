"""Task-order selection: normalized scores, critical values, level queue.

Each task gets a weighted multi-dimensional critical value WV — the product of
weighted normalized makespan, priority, and resource demand — and a mean
critical value MCV = WV / (out_degree + delta). Tasks are grouped into
precedence levels (leaves at level 0, a parent strictly above all its
children) and each level is stored sorted ascending by MCV.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import ResourceGraph
from .workload import Application

DEFAULT_DELTA = 0.001


class OrderingError(ValueError):
    pass


@dataclass(frozen=True)
class Weights:
    w1: float = 1.0 / 3.0
    w2: float = 1.0 / 3.0
    w3: float = 1.0 / 3.0
    omega_c: float = 0.5
    omega_m: float = 0.5

    def __post_init__(self) -> None:
        for name in ("w1", "w2", "w3", "omega_c", "omega_m"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise OrderingError(f"weight {name}={v} must lie strictly in (0, 1)")
        if abs(self.w1 + self.w2 + self.w3 - 1.0) > 1e-9:
            raise OrderingError("w1 + w2 + w3 must equal 1")
        if abs(self.omega_c + self.omega_m - 1.0) > 1e-9:
            raise OrderingError("omega_c + omega_m must equal 1")


@dataclass
class ProcessQueue:
    """Levels of task ids; level 0 holds the leaves, roots sit on top."""
    levels: list[list[str]]
    mcv: dict[str, float]

    def level_of(self) -> dict[str, int]:
        return {t: k for k, level in enumerate(self.levels) for t in level}


def normalize_makespan(app: Application) -> dict[str, float]:
    if not app.tasks:
        raise OrderingError("application has no tasks")
    peak = max(t.makespan for t in app.tasks)
    return {t.id: t.makespan / peak for t in app.tasks}


def normalize_priority(app: Application) -> dict[str, float]:
    if not app.tasks:
        raise OrderingError("application has no tasks")
    peak = max(t.priority for t in app.tasks)
    return {t.id: t.priority / peak for t in app.tasks}


def normalize_resource(app: Application, graph: ResourceGraph,
                       weights: Weights) -> dict[str, float]:
    """Blend of cpu and mem demand, each normalized by the largest capacity.

    Only fog-node capacities set the normalizer, since the effectively
    infinite cloud would crush every score toward zero; a graph without fog
    nodes falls back to the cloud's.
    """
    if not app.tasks:
        raise OrderingError("application has no tasks")
    max_cpu, max_mem = graph.max_fn_cpu, graph.max_fn_mem
    if not graph.fns:
        max_cpu = max(max_cpu, graph.cloud.cpu_capacity)
        max_mem = max(max_mem, graph.cloud.mem_capacity)
    if max_cpu <= 0 or max_mem <= 0:
        raise OrderingError("graph has no positive capacity to normalize against")
    out = {}
    for t in app.tasks:
        r_cpu = t.cpu_demand / max_cpu
        r_mem = t.mem_demand / max_mem
        out[t.id] = (weights.omega_c * r_cpu + weights.omega_m * r_mem) / 2.0
    return out


def critical_value(m_hat: float, p_hat: float, r_hat: float,
                   weights: Weights) -> float:
    """WV: volume of the weighted (makespan, priority, resource) box."""
    return (weights.w1 * m_hat) * (weights.w2 * p_hat) * (weights.w3 * r_hat)


def mean_critical_value(wv: float, out_degree: int,
                        delta: float = DEFAULT_DELTA) -> float:
    if out_degree < 0:
        raise OrderingError("out_degree must be non-negative")
    if delta <= 0:
        raise OrderingError("delta must be strictly positive")
    return wv / (out_degree + delta)


def task_levels(app: Application) -> list[list[str]]:
    """Precedence levels: leaves at level 0, parent = 1 + max child level."""
    return _levels(app, app.children())


def _levels(app: Application, children: dict[str, list[str]]) -> list[list[str]]:
    """task_levels over child lists built by the caller."""
    level: dict[str, int] = {}
    remaining = {t.id: len(children[t.id]) for t in app.tasks}
    parents: dict[str, list[str]] = {t: [] for t in remaining}
    for t in remaining:
        for child in children[t]:
            parents.setdefault(child, []).append(t)
    frontier = sorted(t for t, d in remaining.items() if d == 0)
    for t in frontier:
        level[t] = 0
    pending = list(frontier)
    while pending:
        cur = pending.pop()
        for parent in parents[cur]:
            remaining[parent] -= 1
            if remaining[parent] == 0:
                level[parent] = 1 + max(level[c] for c in children[parent])
                pending.append(parent)
    if len(level) != len(app.tasks):
        raise OrderingError("application DAG contains a cycle")
    depth = max(level.values(), default=-1) + 1
    levels: list[list[str]] = [[] for _ in range(depth)]
    for t in app.tasks:
        levels[level[t.id]].append(t.id)
    return levels


def order_tasks(app: Application, graph: ResourceGraph,
                weights: Weights | None = None,
                delta: float = DEFAULT_DELTA) -> ProcessQueue:
    """Group tasks into levels and sort each level ascending by MCV."""
    weights = weights or Weights()
    m_hat = normalize_makespan(app)
    p_hat = normalize_priority(app)
    r_hat = normalize_resource(app, graph, weights)
    wv = {t.id: critical_value(m_hat[t.id], p_hat[t.id], r_hat[t.id], weights)
          for t in app.tasks}
    children = app.children()
    mcv = {t: mean_critical_value(wv[t], len(children[t]), delta)
           for t in wv}
    levels = _levels(app, children)
    for level in levels:
        level.sort(key=lambda t: (mcv[t], t))
    return ProcessQueue(levels=levels, mcv=mcv)
