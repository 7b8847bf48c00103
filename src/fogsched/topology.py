"""Physical multi-fog/cloud infrastructure graph.

The infrastructure is a three-tier graph: fog nodes (FNs, finite capacity pools)
attach to exactly one fog-cloud interface (FCI); FCIs interconnect and bridge to
a single aggregate cloud node. Links carry bandwidth capacity (Mbps) and latency
(ms). Hop distance between hosting locations counts the FCIs traversed.
"""

from __future__ import annotations

import math
import heapq
import random
import sys
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

FOG = "fog"
FCI = "fci"
CLOUD = "cloud"
_FLOAT_MAX = sys.float_info.max


class GraphConfigError(ValueError):
    """Raised when an environment config cannot produce a valid graph."""


class NodeId(NamedTuple):
    """A node's tier and index. A plain tuple underneath, so hashing,
    equality and ordering run in C: hash(NodeId("fog", 3)) == hash(("fog", 3))
    and ids sort by tier name, then index."""

    tier: str
    index: int

    def __str__(self) -> str:
        return f"{self.tier}-{self.index}"

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        tier, _, idx = text.rpartition("-")
        if tier not in (FOG, FCI, CLOUD):
            raise ValueError(f"unknown node tier in {text!r}")
        return cls(tier, int(idx))


@dataclass
class FogNode:
    id: NodeId
    cpu_capacity: int
    mem_capacity: int
    attached_fci: NodeId


@dataclass
class CloudNode:
    id: NodeId
    cpu_capacity: int
    mem_capacity: int


@dataclass
class Link:
    endpoints: tuple[NodeId, NodeId]
    bandwidth_capacity: float
    latency: float

    @property
    def key(self) -> tuple[NodeId, NodeId]:
        a, b = self.endpoints
        return (a, b) if a <= b else (b, a)


def config_number(value, name: str, error: type[ValueError],
                  integral: bool = False):
    """A config or document field: an int within the float range or a finite
    float, never a bool. An integral field also takes an integral float and
    returns it as an int (4.0 is read as 4); anything else raises `error`."""
    kind = type(value)
    if kind is int:
        if -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return value
        raise error(f"{name} must lie within the float range")
    if kind is float and math.isfinite(value):
        if not integral:
            return value
        if value.is_integer():
            return int(value)
    raise error(f"{name} must be {'an integer' if integral else 'a finite number'}"
                f", not {value!r}")


def config_range(value, name: str, error: type[ValueError],
                 integral: bool = False) -> tuple:
    """A [min, max] config pair of `config_number` fields, as a tuple."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise error(f"{name} must be a [min, max] pair") from None
    if (type(lo) is not int or type(hi) is not int
            or lo < -_FLOAT_MAX or hi > _FLOAT_MAX):
        lo = config_number(lo, name, error, integral)
        hi = config_number(hi, name, error, integral)
    if lo > hi:
        raise error(f"{name} range has min > max: {value}")
    return (lo, hi)


@dataclass
class EnvConfig:
    """Environment generator parameters (counts plus [min, max] ranges)."""

    fns: int = 500
    fcis: int = 200
    cpu: tuple[int, int] = (50, 100)
    mem_mb: tuple[int, int] = (200000, 400000)
    mips: tuple[int, int] = (3000, 5000)
    bw_fn_fci_mbps: tuple[float, float] = (300, 400)
    bw_fci_fci_mbps: tuple[float, float] = (400, 1000)
    bw_fci_cloud_mbps: tuple[float, float] = (400, 1000)
    bw_fn_cloud_mbps: tuple[float, float] = (400, 1000)
    lat_fn_fci_ms: tuple[float, float] = (50, 100)
    lat_fci_fci_ms: tuple[float, float] = (101, 200)
    lat_fci_cloud_ms: tuple[float, float] = (101, 200)
    lat_fn_cloud_ms: tuple[float, float] = (101, 200)
    fci_link_probability: float = 0.15
    fn_cloud_link_probability: float = 0.0
    cloud_cpu: int | None = None
    cloud_mem_mb: int | None = None
    cloud_scale: float = 10.0

    def __post_init__(self) -> None:
        err = GraphConfigError
        self.fns = config_number(self.fns, "fns", err, integral=True)
        self.fcis = config_number(self.fcis, "fcis", err, integral=True)
        if self.fns < 0 or self.fcis < 0:
            raise GraphConfigError("node counts must be non-negative")
        if self.fns > 0 and self.fcis == 0:
            raise GraphConfigError("fog nodes require at least one FCI to attach to")
        self.cpu = config_range(self.cpu, "cpu", err, integral=True)
        self.mem_mb = config_range(self.mem_mb, "mem_mb", err, integral=True)
        self.mips = config_range(self.mips, "mips", err, integral=True)
        if self.cpu[0] <= 0 or self.mem_mb[0] <= 0 or self.mips[0] <= 0:
            raise GraphConfigError("capacity ranges must be strictly positive")
        for name in ("bw_fn_fci_mbps", "bw_fci_fci_mbps", "bw_fci_cloud_mbps",
                     "bw_fn_cloud_mbps", "lat_fn_fci_ms", "lat_fci_fci_ms",
                     "lat_fci_cloud_ms", "lat_fn_cloud_ms"):
            lo, hi = config_range(getattr(self, name), name, err)
            if lo <= 0:
                raise GraphConfigError(f"{name} must be strictly positive")
            setattr(self, name, (float(lo), float(hi)))
        for name in ("fci_link_probability", "fn_cloud_link_probability"):
            if not 0.0 <= config_number(getattr(self, name), name, err) <= 1.0:
                raise GraphConfigError(f"{name} must lie in [0, 1]")
        for name in ("cloud_cpu", "cloud_mem_mb"):
            if getattr(self, name) is not None:
                setattr(self, name, config_number(getattr(self, name), name,
                                                  err, integral=True))
        config_number(self.cloud_scale, "cloud_scale", err)
        # Access links must be strictly faster than the backbone: the generated
        # graph guarantees max FN-FCI latency < min FCI-FCI / FCI-cloud latency.
        backbone_min = min(self.lat_fci_fci_ms[0], self.lat_fci_cloud_ms[0])
        if self.fn_cloud_link_probability > 0:
            backbone_min = min(backbone_min, self.lat_fn_cloud_ms[0])
        if self.fns > 0 and self.lat_fn_fci_ms[1] >= backbone_min:
            raise GraphConfigError(
                "latency ordering violated: max FN-FCI latency "
                f"{self.lat_fn_fci_ms[1]} must be < min backbone latency {backbone_min}")

    @classmethod
    def from_dict(cls, doc: dict) -> "EnvConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise GraphConfigError(f"unknown environment config keys: {sorted(unknown)}")
        return cls(**doc)


@dataclass(frozen=True)
class PhysicalPath:
    nodes: tuple[NodeId, ...]
    total_latency: float
    min_bandwidth: float
    hop_count: int

    @property
    def links(self) -> list[tuple[NodeId, NodeId]]:
        return [_pair_key(a, b) for a, b in zip(self.nodes, self.nodes[1:])]


@dataclass
class NoPath:
    src: NodeId
    dst: NodeId
    required_bandwidth: float


def _pair_key(a: NodeId, b: NodeId) -> tuple[NodeId, NodeId]:
    return (a, b) if a <= b else (b, a)


@dataclass
class ResourceGraph:
    fns: list[FogNode]
    fcis: list[NodeId]
    cloud: CloudNode
    links: list[Link]

    def __post_init__(self) -> None:
        self.fn_by_id: dict[NodeId, FogNode] = {fn.id: fn for fn in self.fns}
        self.capacity_cpu: dict[NodeId, int] = {fn.id: fn.cpu_capacity for fn in self.fns}
        self.capacity_mem: dict[NodeId, int] = {fn.id: fn.mem_capacity for fn in self.fns}
        self.capacity_cpu[self.cloud.id] = self.cloud.cpu_capacity
        self.capacity_mem[self.cloud.id] = self.cloud.mem_capacity
        # The largest FN capacities (0 without FNs): ordering's normalizers.
        self.max_fn_cpu: int = max((fn.cpu_capacity for fn in self.fns), default=0)
        self.max_fn_mem: int = max((fn.mem_capacity for fn in self.fns), default=0)
        # Each node's (neighbor, link, link key), sorted by neighbor.
        self.adjacency: dict[NodeId, list[tuple[NodeId, Link, tuple]]] = {}
        self.link_by_key: dict[tuple[NodeId, NodeId], Link] = {}
        for link in self.links:
            a, b = link.endpoints
            key = link.key
            if key in self.link_by_key:
                raise GraphConfigError(f"duplicate link between {a} and {b}")
            self.link_by_key[key] = link
            self.adjacency.setdefault(a, []).append((b, link, key))
            self.adjacency.setdefault(b, []).append((a, link, key))
        for neighbors in self.adjacency.values():
            neighbors.sort(key=lambda entry: entry[0])
        self.fci_of: dict[NodeId, NodeId] = {fn.id: fn.attached_fci for fn in self.fns}
        self.fns_by_fci: dict[NodeId, list[NodeId]] = {f: [] for f in self.fcis}
        for fn in self.fns:
            self.fns_by_fci[fn.attached_fci].append(fn.id)
        self.fci_adjacency: dict[NodeId, set[NodeId]] = {f: set() for f in self.fcis}
        self.cloud_linked_fcis: set[NodeId] = set()
        self.fn_cloud_linked: set[NodeId] = set()
        for link in self.links:
            a, b = link.endpoints
            if a.tier == FCI and b.tier == FCI:
                self.fci_adjacency[a].add(b)
                self.fci_adjacency[b].add(a)
            elif {a.tier, b.tier} == {FCI, CLOUD}:
                fci = a if a.tier == FCI else b
                self.cloud_linked_fcis.add(fci)
            elif {a.tier, b.tier} == {FOG, CLOUD}:
                fn = a if a.tier == FOG else b
                self.fn_cloud_linked.add(fn)
        self._fci_dist_cache: dict[NodeId, dict[NodeId, int]] = {}
        self._cloud_fci_dist: dict[NodeId, int] | None = None
        self._stages_cache: dict[NodeId, tuple] = {}
        self._colocated_cache: dict[NodeId, PhysicalPath] = {}

    def colocated_path(self, node: NodeId) -> PhysicalPath:
        """The path of an edge whose two tasks sit on `node`: one shared,
        frozen path per node."""
        path = self._colocated_cache.get(node)
        if path is None:
            path = self._colocated_cache[node] = PhysicalPath(
                nodes=(node,), total_latency=0.0, min_bandwidth=math.inf,
                hop_count=0)
        return path

    def locations(self) -> list[NodeId]:
        """Hosting locations: all FNs plus the cloud, in id order."""
        return sorted(self.fn_by_id) + [self.cloud.id]

    # FCI-subgraph breadth-first distances (number of FCI-FCI links); the cloud
    # never appears as a transit element here, matching the hop definitions.
    def _fci_distances(self, source: NodeId) -> dict[NodeId, int]:
        cached = self._fci_dist_cache.get(source)
        if cached is not None:
            return cached
        dist = {source: 0}
        queue = deque([source])
        while queue:
            cur = queue.popleft()
            for nxt in self.fci_adjacency[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        self._fci_dist_cache[source] = dist
        return dist

    def _cloud_fci_distances(self) -> dict[NodeId, int]:
        """Multi-source BFS distance from any cloud-linked FCI."""
        if self._cloud_fci_dist is None:
            dist = {f: 0 for f in self.cloud_linked_fcis}
            queue = deque(sorted(dist))
            while queue:
                cur = queue.popleft()
                for nxt in self.fci_adjacency[cur]:
                    if nxt not in dist:
                        dist[nxt] = dist[cur] + 1
                        queue.append(nxt)
            self._cloud_fci_dist = dist
        return self._cloud_fci_dist


def build_graph(env: EnvConfig, seed) -> ResourceGraph:
    """Generate a deterministic infrastructure graph from (config, seed)."""
    rng = random.Random(seed)
    fcis = [NodeId(FCI, i) for i in range(env.fcis)]
    cloud_id = NodeId(CLOUD, 0)

    fns: list[FogNode] = []
    for i in range(env.fns):
        attached = fcis[rng.randrange(env.fcis)]
        cpu = rng.randint(*env.cpu)
        mem = rng.randint(*env.mem_mb)
        rng.randint(*env.mips)  # unread; drawn to keep the seeded stream
        fns.append(FogNode(id=NodeId(FOG, i), cpu_capacity=cpu,
                           mem_capacity=mem, attached_fci=attached))

    fn_cpu_sum = sum(fn.cpu_capacity for fn in fns)
    fn_mem_sum = sum(fn.mem_capacity for fn in fns)
    cloud_cpu = env.cloud_cpu
    if cloud_cpu is None:
        cloud_cpu = max(10 ** 6, math.ceil(env.cloud_scale * fn_cpu_sum))
    cloud_mem = env.cloud_mem_mb
    if cloud_mem is None:
        cloud_mem = max(10 ** 9, math.ceil(env.cloud_scale * fn_mem_sum))
    cloud = CloudNode(id=cloud_id, cpu_capacity=cloud_cpu, mem_capacity=cloud_mem)

    links: list[Link] = []
    for fn in fns:
        links.append(Link((fn.id, fn.attached_fci),
                          rng.uniform(*env.bw_fn_fci_mbps),
                          rng.uniform(*env.lat_fn_fci_ms)))
    for i in range(env.fcis):
        for j in range(i + 1, env.fcis):
            if rng.random() < env.fci_link_probability:
                links.append(Link((fcis[i], fcis[j]),
                                  rng.uniform(*env.bw_fci_fci_mbps),
                                  rng.uniform(*env.lat_fci_fci_ms)))
    for fci in fcis:
        links.append(Link((fci, cloud_id),
                          rng.uniform(*env.bw_fci_cloud_mbps),
                          rng.uniform(*env.lat_fci_cloud_ms)))
    if env.fn_cloud_link_probability > 0:
        for fn in fns:
            if rng.random() < env.fn_cloud_link_probability:
                links.append(Link((fn.id, cloud_id),
                                  rng.uniform(*env.bw_fn_cloud_mbps),
                                  rng.uniform(*env.lat_fn_cloud_ms)))
    return ResourceGraph(fns=fns, fcis=fcis, cloud=cloud, links=links)


def hop_distance(g: ResourceGraph, a: NodeId, b: NodeId):
    """Minimum number of FCIs on a physical path between two hosting locations.

    Returns 0 iff a == b, and None when the pair is unreachable. Paths between
    two fog nodes never transit the cloud (a route through the cloud is cloud
    offloading, not a multi-hop fog path).
    """
    for node in (a, b):
        if node.tier == FCI:
            raise ValueError(f"{node} is not a hosting location")
        if node.tier == FOG and node not in g.fn_by_id:
            raise ValueError(f"unknown fog node {node}")
    if a == b:
        return 0
    if a.tier == CLOUD or b.tier == CLOUD:
        fn = b if a.tier == CLOUD else a
        best = None
        fci = g.fci_of[fn]
        reach = g._cloud_fci_distances().get(fci)
        if reach is not None:
            best = reach + 1
        if fn in g.fn_cloud_linked:
            # Direct FN-cloud link involves no FCI; floor at 1 to keep the
            # "0 iff identical" contract.
            best = 1
        return best
    fa, fb = g.fci_of[a], g.fci_of[b]
    if fa == fb:
        return 1
    dist = g._fci_distances(fa).get(fb)
    return None if dist is None else dist + 1


def nodes_within_hops(g: ResourceGraph, origins, h: int) -> set[NodeId]:
    """All FN/cloud locations within h hops of any origin, excluding origins.

    From a fog origin, an FN is within h hops when its FCI is within h - 1
    FCI-FCI links of the origin's FCI: that FCI, or (h = 2) a neighbor of it.
    """
    if h not in (1, 2):
        raise ValueError("h must be 1 or 2")
    origins = set(origins)
    if not origins:
        raise ValueError("origins must be nonempty")
    result: set[NodeId] = set()
    cloud = g.cloud.id
    for origin in origins:
        if origin.tier == CLOUD:
            for candidate in g.locations():
                d = hop_distance(g, origin, candidate)
                if d is not None and d <= h:
                    result.add(candidate)
            continue
        # Raises for an FCI origin and for an unknown fog node.
        d = hop_distance(g, origin, cloud)
        if d is not None and d <= h:
            result.add(cloud)
        fci = g.fci_of[origin]
        for near in (fci, *g.fci_adjacency[fci]) if h == 2 else (fci,):
            result.update(g.fns_by_fci[near])
    return result - origins


def shortest_path(g: ResourceGraph, a: NodeId, b: NodeId,
                  required_bandwidth: float, rm=None):
    """Latency-minimal path whose every link has residual bandwidth >= demand.

    A link's residual is read from the ResourceMatrix `rm` (effective minus
    held bandwidth), or is its capacity when `rm` is None. Ties break on
    fewer links, then the lexicographically smallest node sequence. Returns
    a NoPath result when no feasible route exists.
    """
    if a == b:
        return g.colocated_path(a)
    if rm is not None:
        effective, held = rm.effective.bw, rm.held.bw
    else:
        effective = {key: link.bandwidth_capacity
                     for key, link in g.link_by_key.items()}
        held = dict.fromkeys(effective, 0)
    # A route must leave a and enter b over a feasible link. Most failed
    # searches fail here, and this check costs a few links, not the search.
    for end in (a, b):
        for _, _, key in g.adjacency.get(end, ()):
            if effective[key] - held[key] >= required_bandwidth:
                break
        else:
            return NoPath(src=a, dst=b, required_bandwidth=required_bandwidth)
    best_seen: dict[NodeId, tuple] = {}
    heap = [(0.0, 0, (a,))]
    while heap:
        latency, nlinks, path = heapq.heappop(heap)
        node = path[-1]
        seen = best_seen.get(node)
        if seen is not None and seen < (latency, nlinks, path):
            continue
        if node == b:
            min_bw = math.inf
            for u, v in zip(path, path[1:]):
                key = _pair_key(u, v)
                min_bw = min(min_bw, effective[key] - held[key])
            return PhysicalPath(
                nodes=path,
                total_latency=latency,
                min_bandwidth=min_bw,
                hop_count=sum(1 for n in path if n.tier == FCI),
            )
        for neighbor, link, key in g.adjacency.get(node, ()):
            if neighbor in path:
                continue
            if effective[key] - held[key] < required_bandwidth:
                continue
            cand = (latency + link.latency, nlinks + 1, path + (neighbor,))
            prev = best_seen.get(neighbor)
            if prev is None or cand < prev:
                best_seen[neighbor] = cand
                heapq.heappush(heap, cand)
    return NoPath(src=a, dst=b, required_bandwidth=required_bandwidth)
