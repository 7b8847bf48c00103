"""Task-order selection: normalized scores, critical values, level queue.

Each task gets a weighted multi-dimensional critical value WV — the product of
weighted normalized makespan, priority, and resource demand — and a mean
critical value MCV = WV / (out_degree + delta). Tasks are grouped into
precedence levels (leaves at level 0, a parent strictly above all its
children), listed root first, each level sorted once by (-score, task id).
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
    """Levels of task ids in placing order (see placing_queue)."""
    levels: list[list[str]]
    mcv: dict[str, float]


def placing_queue(levels: list[list[str]], score: dict) -> ProcessQueue:
    """The queue of root-first `levels`, each sorted in place by (-score, id)."""
    for level in levels:
        level.sort(key=lambda t: (-score[t], t))
    return ProcessQueue(levels=levels, mcv=score)


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
    max_cpu, max_mem = _resource_peaks(graph)
    out = {}
    for t in app.tasks:
        r_cpu = t.cpu_demand / max_cpu
        r_mem = t.mem_demand / max_mem
        out[t.id] = (weights.omega_c * r_cpu + weights.omega_m * r_mem) / 2.0
    return out


def _resource_peaks(graph: ResourceGraph) -> tuple[float, float]:
    """The (cpu, mem) normalizers of normalize_resource."""
    max_cpu, max_mem = graph.max_fn_cpu, graph.max_fn_mem
    if not graph.fns:
        max_cpu = max(max_cpu, graph.cloud.cpu_capacity)
        max_mem = max(max_mem, graph.cloud.mem_capacity)
    if max_cpu <= 0 or max_mem <= 0:
        raise OrderingError("graph has no positive capacity to normalize against")
    return max_cpu, max_mem


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
    """Precedence levels, root first: leaves are level 0, a parent 1 + its
    highest child's level; each level's tasks in app task order."""
    return _levels(app, app.children())


def _levels(app: Application, children: dict[str, list[str]]) -> list[list[str]]:
    """task_levels over child lists built by the caller.

    One iterative depth-first pass from the last task back. A generated app
    lists its tasks parents first, so each task's children are levelled when
    the pass reaches it; a task met out of that order is walked down first.
    """
    level: dict[str, int] = {}
    get = level.get
    ids = None
    for task in reversed(app.tasks):
        tid = task.id
        if tid in level:
            continue
        high = -1
        for child in children[tid]:
            lc = get(child)
            if lc is None:
                if ids is None:
                    ids = {t.id for t in app.tasks}
                _walk(tid, children, ids, level)
                break
            if lc > high:
                high = lc
        else:
            level[tid] = high + 1
    if len(level) != len(children):
        edge = next(e for e in app.edges if e.src not in level)
        raise OrderingError(f"task edge {edge.src} -> {edge.dst} names a "
                            f"task outside the application")
    if len(level) != len(app.tasks):
        raise OrderingError("application lists a task id twice")
    depth = max(level.values(), default=-1) + 1
    levels: list[list[str]] = [[] for _ in range(depth)]
    for t in app.tasks:
        levels[depth - 1 - level[t.id]].append(t.id)
    return levels


def _walk(root: str, children: dict[str, list[str]], ids: set[str],
          level: dict[str, int]) -> None:
    """Level `root` and every unlevelled task below it, children first
    (depth-first post-order on an explicit stack). A task on the stack is
    marked -1 until its children are levelled; meeting it again is a cycle.
    `ids` holds the app's task ids."""
    level[root] = -1
    stack = [(root, iter(children[root]))]
    while stack:
        tid, pending = stack[-1]
        for child in pending:
            lc = level.get(child)
            if lc is None:
                if child not in ids:
                    raise OrderingError(f"task edge {tid} -> {child} names a "
                                        f"task outside the application")
                level[child] = -1
                stack.append((child, iter(children[child])))
                break
            if lc < 0:
                raise OrderingError("application DAG contains a cycle")
        else:
            stack.pop()
            level[tid] = 1 + max((level[c] for c in children[tid]), default=-1)


def order_tasks(app: Application, graph: ResourceGraph,
                weights: Weights | None = None,
                delta: float = DEFAULT_DELTA) -> ProcessQueue:
    """HeRAFC's placing order: levels root first, each by descending MCV.

    One loop scores every task with the float expressions, in the operand
    order, of normalize_*, critical_value and mean_critical_value.
    """
    weights = weights or Weights()
    tasks = app.tasks
    if not tasks:
        raise OrderingError("application has no tasks")
    max_cpu, max_mem = _resource_peaks(graph)
    if delta <= 0:
        raise OrderingError("delta must be strictly positive")
    peak_m = max(t.makespan for t in tasks)
    peak_p = max(t.priority for t in tasks)
    w1, w2, w3 = weights.w1, weights.w2, weights.w3
    oc, om = weights.omega_c, weights.omega_m
    children = app.children()
    mcv = {}
    for t in tasks:
        r = (oc * (t.cpu_demand / max_cpu) + om * (t.mem_demand / max_mem)) / 2.0
        wv = (w1 * (t.makespan / peak_m)) * (w2 * (t.priority / peak_p)) * (w3 * r)
        mcv[t.id] = wv / (len(children[t.id]) + delta)
    return placing_queue(_levels(app, children), mcv)
