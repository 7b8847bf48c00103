"""DAG applications and the synthetic workload generator.

An application is a DAG of tasks with per-task compute demands and per-edge
bandwidth/latency demands, anchored to the user's home fog node. Generated
DAGs sample edges i->j only for i earlier than j in a random topological
labeling, which guarantees acyclicity by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .topology import FOG, NodeId, ResourceGraph, config_number, config_range


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


@dataclass(slots=True)
class Application:
    id: str
    tasks: list[Task]
    edges: list[TaskEdge]
    home_fn: NodeId

    def task_by_id(self) -> dict[str, Task]:
        """Each task by its id, built per call and not kept (as children())."""
        return {t.id: t for t in self.tasks}

    def children(self) -> dict[str, list[str]]:
        """Each task's children in edge order, keyed in task order. Built per
        call and not kept."""
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
        err = WorkloadError
        self.app_count = config_number(self.app_count, "app_count", err,
                                       integral=True)
        self.max_total_tasks = config_number(self.max_total_tasks,
                                             "max_total_tasks", err, integral=True)
        if self.app_count < 0:
            raise WorkloadError("app_count must be non-negative")
        for name, integral in (("tasks_per_app", True), ("cpu", True),
                               ("mem_mb", True), ("makespan_ms", False),
                               ("priority", True), ("edge_bandwidth_mbps", False),
                               ("edge_latency_ms", False)):
            lo_hi = config_range(getattr(self, name), name, err, integral)
            if lo_hi[0] <= 0:
                raise WorkloadError(f"{name} must be strictly positive")
            setattr(self, name, lo_hi)
        if self.priority[0] < 1 or self.priority[1] > 5:
            raise WorkloadError("priority range must lie within [1, 5]")
        if not 0.0 <= config_number(self.link_probability, "link_probability",
                                    err) <= 1.0:
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


def generate_workload(cfg: WorkloadConfig, graph: ResourceGraph,
                      seed) -> list[Application]:
    """Generate a deterministic batch of applications for the given graph.

    Every draw takes from one `random.Random(seed)` stream exactly what
    `randint`, `randrange` and `uniform` would take, and gives what they
    would give: integers by CPython's `_randbelow` over `getrandbits`,
    uniforms as `lo + (hi - lo) * random()`. Task edges are Bernoulli
    trials over the pairs (i, j), i < j, ordered by j then i, sampled by
    geometric gaps.
    """
    if not graph.fns:
        raise WorkloadError("workload generation requires at least one fog node")
    rng = random.Random(seed)
    getrandbits, random_ = rng.getrandbits, rng.random

    def draw(lo: int, n: int) -> int:
        """lo + a uniform int in [0, n), as randrange(lo, lo + n) draws it."""
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r

    fn_ids = sorted(graph.fn_by_id)
    n_fns = len(fn_ids)
    n_lo, n_hi = cfg.tasks_per_app
    cpu_lo, cpu_hi = cfg.cpu
    mem_lo, mem_hi = cfg.mem_mb
    pr_lo, pr_hi = cfg.priority
    n_span, cpu_span = n_hi - n_lo + 1, cpu_hi - cpu_lo + 1
    mem_span, pr_span = mem_hi - mem_lo + 1, pr_hi - pr_lo + 1
    ms_lo, ms_hi = cfg.makespan_ms
    bw_lo, bw_hi = cfg.edge_bandwidth_mbps
    lat_lo, lat_hi = cfg.edge_latency_ms
    ms_w, bw_w, lat_w = ms_hi - ms_lo, bw_hi - bw_lo, lat_hi - lat_lo
    p = cfg.link_probability
    log_q = math.log1p(-p) if 0.0 < p < 1.0 else 0.0
    log = math.log
    max_total = cfg.max_total_tasks
    apps: list[Application] = []
    total_tasks = 0
    for a in range(cfg.app_count):
        n = draw(n_lo, n_span)
        if total_tasks + n > max_total:
            break
        total_tasks += n
        app_id = f"app-{a}"
        # Random topological labeling: task ids are shuffled, edges only go
        # from earlier to later labels.
        order = list(range(n))
        rng.shuffle(order)
        tasks = [Task(f"{app_id}/t{order[i]}", draw(cpu_lo, cpu_span),
                      draw(mem_lo, mem_span), ms_lo + ms_w * random_(),
                      draw(pr_lo, pr_span))
                 for i in range(n)]
        n_pairs = n * (n - 1) // 2
        if p >= 1.0:
            edge_pairs = [(i, j) for j in range(n) for i in range(j)]
        else:
            edge_pairs = []
            if p > 0.0 and n_pairs:
                # Slots ascend, so the pair (i, j) of slot pos is found by
                # stepping j up past each slot block [j(j-1)/2, j(j+1)/2).
                # A gap that jumps past the last slot ends the walk before
                # int() sees it: with a subnormal p it can be infinite.
                pos, j, base, last = -1, 1, 0, n_pairs - 1
                while True:
                    gap = log(1.0 - random_()) / log_q
                    if gap >= last - pos:
                        break
                    pos += int(gap) + 1
                    while pos >= base + j:
                        base += j
                        j += 1
                    edge_pairs.append((pos - base, j))
        if n > 1:
            degree = [0] * n
            for i, j in edge_pairs:
                degree[i] += 1
                degree[j] += 1
            for i in range(n):
                if degree[i] == 0:
                    other = draw(0, i) if i > 0 else draw(1, n - 1)
                    src, dst = (other, i) if other < i else (i, other)
                    edge_pairs.append((src, dst))
                    degree[src] += 1
                    degree[dst] += 1
        edge_pairs.sort()
        edges = [TaskEdge(tasks[i].id, tasks[j].id, bw_lo + bw_w * random_(),
                          lat_lo + lat_w * random_())
                 for i, j in edge_pairs]
        apps.append(Application(id=app_id, tasks=tasks, edges=edges,
                                home_fn=fn_ids[draw(0, n_fns)]))
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


def _objects(doc: dict, part: str) -> list[dict]:
    """The application's `part` ("tasks" or "edges"): a list of JSON objects."""
    entries = doc[part]
    if not isinstance(entries, list):
        raise WorkloadError(f"{part} must be a list of objects, not {entries!r}")
    for k, raw in enumerate(entries):
        if not isinstance(raw, dict):
            raise WorkloadError(f"{part}[{k}] must be an object, not {raw!r}")
    return entries


def _number(raw: dict, name: str, owner: str) -> int | float:
    return config_number(raw[name], f"{owner}: {name}", WorkloadError)


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
    raw_tasks, raw_edges = _objects(doc, "tasks"), _objects(doc, "edges")
    task_fields = {"id", "cpu", "mem_mb", "makespan_ms", "priority"}
    tasks = []
    for raw in raw_tasks:
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
    for raw in raw_edges:
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
        home_id = (NodeId.parse(home) if isinstance(home, str) else
                   NodeId(FOG, config_number(home, "home_fn", ValueError, True)))
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
