"""DAG applications and the synthetic workload generator.

An application is a DAG of tasks with per-task compute demands and per-edge
bandwidth/latency demands, anchored to the user's home fog node. Generated
DAGs sample edges i->j only for i earlier than j in a random topological
labeling, which guarantees acyclicity by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .topology import FOG, NodeId, ResourceGraph


class WorkloadError(ValueError):
    """Raised for invalid workload configs or application documents."""


@dataclass(slots=True)
class Task:
    id: str
    cpu_demand: int
    mem_demand: int
    makespan: float
    priority: int


@dataclass(slots=True)
class TaskEdge:
    src: str
    dst: str
    bandwidth_demand: float
    max_latency: float

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)


@dataclass(slots=True)
class Application:
    id: str
    tasks: list[Task]
    edges: list[TaskEdge]
    home_fn: NodeId
    task_by_id: dict[str, Task] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.task_by_id = {t.id: t for t in self.tasks}

    def children(self) -> dict[str, list[str]]:
        """Each task's children in edge order, keyed in task order. Built per
        call and not kept: a run holds every app until it ends."""
        children: dict[str, list[str]] = {t.id: [] for t in self.tasks}
        for edge in self.edges:
            children.setdefault(edge.src, []).append(edge.dst)
        return children


@dataclass
class WorkloadConfig:
    app_count: int = 10000
    tasks_per_app: tuple[int, int] = (4, 12)
    cpu: tuple[int, int] = (1, 4)
    mem_mb: tuple[int, int] = (100, 1000)
    makespan_ms: tuple[float, float] = (10, 1000)
    priority: tuple[int, int] = (1, 5)
    edge_bandwidth_mbps: tuple[float, float] = (100, 200)
    edge_latency_ms: tuple[float, float] = (10, 50)
    link_probability: float = 0.6
    max_total_tasks: int = 100000

    def __post_init__(self) -> None:
        if self.app_count < 0:
            raise WorkloadError("app_count must be non-negative")
        for name in ("tasks_per_app", "cpu", "mem_mb", "makespan_ms",
                     "priority", "edge_bandwidth_mbps", "edge_latency_ms"):
            try:
                lo, hi = getattr(self, name)
            except (TypeError, ValueError):
                raise WorkloadError(f"{name} must be a [min, max] pair") from None
            if lo > hi:
                raise WorkloadError(f"{name} range has min > max")
            if lo <= 0:
                raise WorkloadError(f"{name} must be strictly positive")
        if self.priority[0] < 1 or self.priority[1] > 5:
            raise WorkloadError("priority range must lie within [1, 5]")
        if not 0.0 <= self.link_probability <= 1.0:
            raise WorkloadError("link_probability must lie in [0, 1]")
        if self.app_count * self.tasks_per_app[0] > self.max_total_tasks:
            raise WorkloadError(
                f"app_count {self.app_count} x min tasks {self.tasks_per_app[0]} "
                f"exceeds max_total_tasks {self.max_total_tasks}")

    @classmethod
    def from_dict(cls, doc: dict) -> "WorkloadConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise WorkloadError(f"unknown workload config keys: {sorted(unknown)}")
        return cls(**doc)


def _sample_edge_slots(n_pairs: int, probability: float, rng: random.Random):
    """Indices of Bernoulli successes over n_pairs trials via geometric gaps."""
    if probability <= 0.0 or n_pairs <= 0:
        return
    if probability >= 1.0:
        yield from range(n_pairs)
        return
    log_q = math.log1p(-probability)
    pos = -1
    while True:
        u = rng.random()
        gap = int(math.log(1.0 - u) / log_q) + 1
        pos += gap
        if pos >= n_pairs:
            return
        yield pos


def _pair_from_slot(slot: int) -> tuple[int, int]:
    """Invert the linearization of pairs (i, j), i < j, ordered by j then i."""
    j = int((1 + math.isqrt(1 + 8 * slot)) // 2)
    while j * (j - 1) // 2 > slot:
        j -= 1
    while (j + 1) * j // 2 <= slot:
        j += 1
    i = slot - j * (j - 1) // 2
    return i, j


def generate_workload(cfg: WorkloadConfig, graph: ResourceGraph,
                      seed) -> list[Application]:
    """Generate a deterministic batch of applications for the given graph."""
    if not graph.fns:
        raise WorkloadError("workload generation requires at least one fog node")
    rng = random.Random(seed)
    fn_ids = sorted(graph.fn_by_id)
    apps: list[Application] = []
    total_tasks = 0
    for a in range(cfg.app_count):
        n = rng.randint(*cfg.tasks_per_app)
        if total_tasks + n > cfg.max_total_tasks:
            break
        total_tasks += n
        app_id = f"app-{a}"
        # Random topological labeling: task ids are shuffled, edges only go
        # from earlier to later labels.
        order = list(range(n))
        rng.shuffle(order)
        tasks = [Task(
            id=f"{app_id}/t{order[i]}",
            cpu_demand=rng.randint(*cfg.cpu),
            mem_demand=rng.randint(*cfg.mem_mb),
            makespan=rng.uniform(*cfg.makespan_ms),
            priority=rng.randint(*cfg.priority),
        ) for i in range(n)]
        n_pairs = n * (n - 1) // 2
        edge_pairs = [_pair_from_slot(s) for s in
                      _sample_edge_slots(n_pairs, cfg.link_probability, rng)]
        edge_pairs.sort()
        degree = [0] * n
        for i, j in edge_pairs:
            degree[i] += 1
            degree[j] += 1
        if n > 1:
            for i in range(n):
                if degree[i] == 0:
                    other = rng.randrange(i) if i > 0 else 1 + rng.randrange(n - 1)
                    src, dst = (other, i) if other < i else (i, other)
                    edge_pairs.append((src, dst))
                    degree[src] += 1
                    degree[dst] += 1
        edge_pairs.sort()
        edges = [TaskEdge(
            src=tasks[i].id,
            dst=tasks[j].id,
            bandwidth_demand=rng.uniform(*cfg.edge_bandwidth_mbps),
            max_latency=rng.uniform(*cfg.edge_latency_ms),
        ) for i, j in edge_pairs]
        home = fn_ids[rng.randrange(len(fn_ids))]
        apps.append(Application(id=app_id, tasks=tasks, edges=edges, home_fn=home))
    return apps


def validate_dag(app: Application) -> list[str]:
    """Return every violated application invariant (empty list = valid)."""
    violations: list[str] = []
    seen_tasks = set()
    for task in app.tasks:
        if task.id in seen_tasks:
            violations.append(f"duplicate task id {task.id}")
        seen_tasks.add(task.id)
        if task.cpu_demand < 1:
            violations.append(f"task {task.id}: cpu_demand must be >= 1")
        if task.mem_demand <= 0:
            violations.append(f"task {task.id}: mem_demand must be > 0")
        if task.makespan <= 0:
            violations.append(f"task {task.id}: makespan must be > 0")
        if not 1 <= task.priority <= 5:
            violations.append(f"task {task.id}: priority must be in [1, 5]")
    seen_pairs = set()
    for edge in app.edges:
        if edge.src == edge.dst:
            violations.append(f"edge {edge.src}->{edge.dst}: src must differ from dst")
        unordered = frozenset((edge.src, edge.dst))
        if unordered in seen_pairs:
            violations.append(
                f"edge {edge.src}->{edge.dst}: at most one edge per task pair")
        seen_pairs.add(unordered)
        for end in (edge.src, edge.dst):
            if end not in seen_tasks:
                violations.append(f"edge references unknown task {end}")
        if edge.bandwidth_demand <= 0:
            violations.append(f"edge {edge.src}->{edge.dst}: bandwidth must be > 0")
        if edge.max_latency <= 0:
            violations.append(f"edge {edge.src}->{edge.dst}: max_latency must be > 0")
    if len(app.tasks) > 1:
        connected = {e.src for e in app.edges} | {e.dst for e in app.edges}
        for task in app.tasks:
            if task.id not in connected:
                violations.append(f"task {task.id} is isolated")
    # Kahn's algorithm on the valid edges; leftover tasks indicate a cycle.
    indegree = {t.id: 0 for t in app.tasks}
    children: dict[str, list[str]] = {t.id: [] for t in app.tasks}
    for edge in app.edges:
        if edge.src in indegree and edge.dst in indegree and edge.src != edge.dst:
            indegree[edge.dst] += 1
            children[edge.src].append(edge.dst)
    frontier = [t for t, d in indegree.items() if d == 0]
    visited = 0
    while frontier:
        cur = frontier.pop()
        visited += 1
        for child in children[cur]:
            indegree[child] -= 1
            if indegree[child] == 0:
                frontier.append(child)
    if visited != len(app.tasks):
        violations.append("edge relation contains a cycle")
    return violations


def _number(raw: dict, name: str, owner: str) -> int | float:
    """A numeric document field: an int or a finite float, never a bool."""
    value = raw[name]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not math.isfinite(value)):
        raise WorkloadError(f"{owner}: {name} must be a finite number, "
                            f"not {value!r}")
    return value


def load_application(doc: dict) -> Application:
    """Parse and validate an application document (already-decoded JSON)."""
    if not isinstance(doc, dict):
        raise WorkloadError("application document must be a JSON object")
    allowed = {"id", "home_fn", "tasks", "edges"}
    unknown = set(doc) - allowed
    if unknown:
        raise WorkloadError(f"unknown application fields: {sorted(unknown)}")
    missing = allowed - set(doc)
    if missing:
        raise WorkloadError(f"missing application fields: {sorted(missing)}")
    task_fields = {"id", "cpu", "mem_mb", "makespan_ms", "priority"}
    tasks = []
    for raw in doc["tasks"]:
        extra = set(raw) - task_fields
        if extra:
            raise WorkloadError(f"unknown task fields: {sorted(extra)}")
        missing = task_fields - set(raw)
        if missing:
            raise WorkloadError(f"missing task fields: {sorted(missing)}")
        owner = f"task {raw['id']}"
        tasks.append(Task(id=str(raw["id"]),
                          cpu_demand=_number(raw, "cpu", owner),
                          mem_demand=_number(raw, "mem_mb", owner),
                          makespan=_number(raw, "makespan_ms", owner),
                          priority=_number(raw, "priority", owner)))
    edge_fields = {"src", "dst", "bandwidth_mbps", "max_latency_ms"}
    edges = []
    for raw in doc["edges"]:
        extra = set(raw) - edge_fields
        if extra:
            raise WorkloadError(f"unknown edge fields: {sorted(extra)}")
        missing = edge_fields - set(raw)
        if missing:
            raise WorkloadError(f"missing edge fields: {sorted(missing)}")
        owner = f"edge {raw['src']}->{raw['dst']}"
        edges.append(TaskEdge(src=str(raw["src"]), dst=str(raw["dst"]),
                              bandwidth_demand=_number(raw, "bandwidth_mbps", owner),
                              max_latency=_number(raw, "max_latency_ms", owner)))
    home = doc["home_fn"]
    try:
        home_id = NodeId.parse(home) if isinstance(home, str) else NodeId(FOG, int(home))
    except ValueError:
        raise WorkloadError(f"home_fn {home!r} is not a node id") from None
    app = Application(id=str(doc["id"]), tasks=tasks, edges=edges, home_fn=home_id)
    violations = validate_dag(app)
    if violations:
        raise WorkloadError("invalid application: " + "; ".join(violations))
    return app


def application_to_dict(app: Application) -> dict:
    return {
        "id": app.id,
        "home_fn": str(app.home_fn),
        "tasks": [{"id": t.id, "cpu": t.cpu_demand, "mem_mb": t.mem_demand,
                   "makespan_ms": t.makespan, "priority": t.priority}
                  for t in app.tasks],
        "edges": [{"src": e.src, "dst": e.dst,
                   "bandwidth_mbps": e.bandwidth_demand,
                   "max_latency_ms": e.max_latency} for e in app.edges],
    }
