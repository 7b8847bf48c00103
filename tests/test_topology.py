"""Infrastructure graph: hop distances, neighborhoods, routing, generation."""

import itertools
import math
import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched.placement import ResourceMatrix
from fogsched.topology import (CloudNode, EnvConfig, FogNode, GraphConfigError,
                               Link, NoPath, NodeId, ResourceGraph, _pair_key,
                               build_graph, hop_distance, nodes_within_hops,
                               shortest_path)

from conftest import CLOUD_ID, fci, fn, make_graph


SMALL_ENV = dict(fns=8, fcis=3, cpu=(4, 8), mem_mb=(500, 1000),
                 fci_link_probability=0.5)


class TestHopDistance:
    def test_same_node_is_zero(self, two_cluster_graph):
        assert hop_distance(two_cluster_graph, fn(0), fn(0)) == 0

    def test_same_cluster_is_one(self, two_cluster_graph):
        assert hop_distance(two_cluster_graph, fn(0), fn(1)) == 1

    def test_linked_clusters_are_two(self, two_cluster_graph):
        assert hop_distance(two_cluster_graph, fn(0), fn(2)) == 2

    def test_cloud_via_linked_fci(self, two_cluster_graph):
        assert hop_distance(two_cluster_graph, fn(0), CLOUD_ID) == 1

    def test_unlinked_clusters_unreachable(self):
        g = make_graph(fn_caps=[(8, 800), (8, 800)], clusters=[0, 1],
                       fci_links=[], cloud_fcis=[0])
        assert hop_distance(g, fn(0), fn(1)) is None
        assert hop_distance(g, fn(1), CLOUD_ID) is None

    def test_fci_is_not_a_location(self, two_cluster_graph):
        with pytest.raises(ValueError):
            hop_distance(two_cluster_graph, fn(0), NodeId("fci", 0))

    def test_symmetry_and_triangle_on_generated_graph(self):
        g = build_graph(EnvConfig(**SMALL_ENV), seed=7)
        locations = [f.id for f in g.fns]
        for a, b in itertools.combinations(locations, 2):
            assert hop_distance(g, a, b) == hop_distance(g, b, a)
        inf = math.inf
        for a, b, c in itertools.permutations(locations, 3):
            ab = hop_distance(g, a, b)
            bc = hop_distance(g, b, c)
            ac = hop_distance(g, a, c)
            lhs = inf if ac is None else ac
            rhs = (inf if ab is None else ab) + (inf if bc is None else bc)
            assert lhs <= rhs


class TestNodesWithinHops:
    def test_one_hop_is_cluster_plus_cloud(self, two_cluster_graph):
        got = nodes_within_hops(two_cluster_graph, {fn(0)}, 1)
        assert got == {fn(1), CLOUD_ID}

    def test_two_hops_reaches_linked_cluster(self, two_cluster_graph):
        got = nodes_within_hops(two_cluster_graph, {fn(0)}, 2)
        assert got == {fn(1), fn(2), fn(3), CLOUD_ID}

    def test_origins_excluded(self, two_cluster_graph):
        got = nodes_within_hops(two_cluster_graph, {fn(0), fn(1)}, 2)
        assert fn(0) not in got and fn(1) not in got

    def test_consistent_with_hop_distance(self):
        g = build_graph(EnvConfig(**SMALL_ENV), seed=3)
        for origin in g.locations():
            for h in (1, 2):
                got = nodes_within_hops(g, {origin}, h)
                want = {c for c in g.locations() if c != origin
                        and (d := hop_distance(g, origin, c)) is not None
                        and d <= h}
                assert got == want

    def test_empty_origins_rejected(self, two_cluster_graph):
        with pytest.raises(ValueError):
            nodes_within_hops(two_cluster_graph, set(), 1)


@st.composite
def hop_graphs(draw):
    """Small hand-built graphs: any FCI-FCI links, a subset of FCIs linked to
    the cloud, a subset of FNs linked to it directly, possibly empty FCIs."""
    n_fcis = draw(st.integers(1, 5))
    n_fns = draw(st.integers(1, 7))
    fcis = [fci(i) for i in range(n_fcis)]
    clusters = draw(st.lists(st.integers(0, n_fcis - 1),
                             min_size=n_fns, max_size=n_fns))
    fns = [FogNode(id=fn(i), cpu_capacity=8, mem_capacity=800,
                   attached_fci=fcis[c]) for i, c in enumerate(clusters)]
    links = [Link((node.id, node.attached_fci), 350.0, 60.0) for node in fns]
    pairs = list(itertools.combinations(range(n_fcis), 2))
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)
                     if pairs else st.just([])):
        links.append(Link((fcis[i], fcis[j]), 500.0, 120.0))
    for i in draw(st.sets(st.integers(0, n_fcis - 1))):
        links.append(Link((fcis[i], CLOUD_ID), 800.0, 150.0))
    for i in draw(st.sets(st.integers(0, n_fns - 1))):
        links.append(Link((fn(i), CLOUD_ID), 800.0, 150.0))
    cloud = CloudNode(id=CLOUD_ID, cpu_capacity=10**6, mem_capacity=10**9)
    return ResourceGraph(fns=fns, fcis=fcis, cloud=cloud, links=links)


@given(g=hop_graphs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_nodes_within_hops_matches_brute_force(g, data):
    """The FCI-graph derivation against hop_distance over every location,
    for single FN, cloud and multi-origin sets."""
    locations = g.locations()
    origin_sets = [{fn(0)}, {CLOUD_ID},
                   data.draw(st.sets(st.sampled_from(locations),
                                     min_size=2, max_size=4))]
    for origins in origin_sets:
        for h in (1, 2):
            want = {c for c in locations if c not in origins
                    and any((d := hop_distance(g, o, c)) is not None and d <= h
                            for o in origins)}
            assert nodes_within_hops(g, origins, h) == want
    for bad in (fci(0), fn(len(g.fns))):
        for origins in ({bad}, {fn(0), bad}, {CLOUD_ID, bad}):
            with pytest.raises(ValueError):
                nodes_within_hops(g, origins, data.draw(st.sampled_from([1, 2])))


def _all_simple_paths(g, a, b, required_bw):
    out = []

    def walk(path, latency):
        node = path[-1]
        if node == b:
            out.append((latency, len(path) - 1, tuple(path)))
            return
        for neighbor, link, _ in g.adjacency.get(node, ()):
            if neighbor in path or link.bandwidth_capacity < required_bw:
                continue
            walk(path + [neighbor], latency + link.latency)

    walk([a], 0.0)
    return out


class TestShortestPath:
    def test_same_node_zero_path(self, two_cluster_graph):
        path = shortest_path(two_cluster_graph, fn(0), fn(0), 10.0)
        assert path.total_latency == 0.0
        assert path.nodes == (fn(0),)
        assert path.hop_count == 0

    def test_picks_lower_latency_route(self):
        # Two clusters joined both directly (cheap) and via the cloud
        # (expensive): the direct backbone route must win.
        g = make_graph(fn_caps=[(8, 800), (8, 800)], clusters=[0, 1],
                       fci_links=[(0, 1)], fci_fci_latency=120.0,
                       fci_cloud_latency=75.0)
        path = shortest_path(g, fn(0), fn(1), 10.0)
        assert path.total_latency == pytest.approx(60.0 + 120.0 + 60.0)
        assert CLOUD_ID not in path.nodes

    def test_infeasible_bandwidth_is_no_path(self, two_cluster_graph):
        result = shortest_path(two_cluster_graph, fn(0), fn(1), 10_000.0)
        assert isinstance(result, NoPath)
        assert result.required_bandwidth == 10_000.0

    def test_matches_exhaustive_enumeration(self):
        g = build_graph(EnvConfig(fns=4, fcis=3, cpu=(4, 8),
                                  mem_mb=(500, 1000),
                                  fci_link_probability=0.7), seed=11)
        rm = ResourceMatrix.from_graph(g)
        for a, b in itertools.permutations(g.locations(), 2):
            demand = 100.0
            got = shortest_path(g, a, b, demand)
            # An untouched matrix reads every residual as its capacity.
            assert shortest_path(g, a, b, demand, rm) == got
            want = _all_simple_paths(g, a, b, demand)
            if not want:
                assert isinstance(got, NoPath)
                continue
            best = min(want)
            assert got.total_latency == pytest.approx(best[0])
            assert (got.total_latency, len(got.nodes) - 1, got.nodes) == best

    def test_respects_residual_bandwidth_override(self, two_cluster_graph):
        g = two_cluster_graph
        direct = shortest_path(g, fn(0), fn(1), 100.0)
        key = direct.links[0]
        starved = ResourceMatrix.from_graph(g)
        starved.held.bw[key] = starved.effective.bw[key] - 50.0
        rerouted = shortest_path(g, fn(0), fn(1), 100.0, starved)
        assert isinstance(rerouted, NoPath) or key not in rerouted.links


def _reachable(g, rm, a, b, demand):
    """BFS from a over the links whose residual bandwidth meets the demand."""
    seen = {a}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        for neighbor, link, _ in g.adjacency.get(node, ()):
            if neighbor not in seen and rm.residual_bw(link.key) >= demand:
                seen.add(neighbor)
                queue.append(neighbor)
    return b in seen


@given(seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=40, deadline=None)
def test_nopath_iff_no_feasible_route(seed, data):
    """Against a BFS over the links with enough residual: NoPath exactly when
    b is unreachable from a, and a returned path meets the demand on every
    link. One node may have every link drained to residual 0."""
    g = build_graph(EnvConfig(fns=data.draw(st.integers(2, 6)),
                              fcis=data.draw(st.integers(1, 3)),
                              fci_link_probability=0.5,
                              fn_cloud_link_probability=0.3), seed=seed)
    rm = ResourceMatrix.from_graph(g)
    for key, cap in rm.capacity.bw.items():
        rm.held.bw[key] = cap * data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9]))
    nodes = sorted(g.adjacency)
    drained = data.draw(st.sampled_from([None] + nodes))
    if drained is not None:
        for _, link, _ in g.adjacency[drained]:
            rm.held.bw[link.key] = rm.effective.bw[link.key]
    residuals = sorted({rm.residual_bw(k) for k in rm.capacity.bw} - {0.0})
    # An exact residual as the demand puts some links right at the boundary.
    demand = data.draw(st.floats(1.0, 1200.0) | st.sampled_from(residuals or [1.0]))
    for a, b in itertools.permutations(nodes, 2):
        got = shortest_path(g, a, b, demand, rm)
        if isinstance(got, NoPath):
            assert not _reachable(g, rm, a, b, demand), (a, b)
        else:
            assert got.nodes[0] == a and got.nodes[-1] == b
            assert all(rm.residual_bw(k) >= demand for k in got.links)
        if drained in (a, b):
            assert isinstance(got, NoPath)


class TestEndpointPrecheck:
    def test_endpoint_without_feasible_link(self, two_cluster_graph):
        g = two_cluster_graph
        rm = ResourceMatrix.from_graph(g)
        (_, link, _), = g.adjacency[fn(3)]
        rm.held.bw[link.key] = rm.effective.bw[link.key] - 99.0
        for a, b in ((fn(0), fn(3)), (fn(3), fn(0))):
            assert isinstance(shortest_path(g, a, b, 100.0, rm), NoPath)
            assert not isinstance(shortest_path(g, a, b, 99.0, rm), NoPath)

    def test_endpoint_without_links(self):
        # fci-1 has no fog node, no backbone link and no cloud link.
        g = make_graph(fn_caps=[(8, 800), (8, 800)], clusters=[0, 2],
                       fci_links=[(0, 2)], cloud_fcis=[0, 2])
        assert fci(1) not in g.adjacency
        for a, b in ((fci(1), fn(0)), (fn(0), fci(1)), (fn(99), CLOUD_ID)):
            result = shortest_path(g, a, b, 1.0)
            assert isinstance(result, NoPath)
            assert (result.src, result.dst) == (a, b)


class TestBuildGraph:
    def test_deterministic_in_config_and_seed(self):
        env = EnvConfig(**SMALL_ENV)
        g1 = build_graph(env, seed=5)
        g2 = build_graph(EnvConfig(**SMALL_ENV), seed=5)
        assert [(f.id, f.cpu_capacity, f.mem_capacity, f.attached_fci)
                for f in g1.fns] == \
               [(f.id, f.cpu_capacity, f.mem_capacity, f.attached_fci)
                for f in g2.fns]
        assert [(l.key, l.bandwidth_capacity, l.latency) for l in g1.links] == \
               [(l.key, l.bandwidth_capacity, l.latency) for l in g2.links]

    def test_seed_changes_graph(self):
        env = EnvConfig(**SMALL_ENV)
        g1 = build_graph(env, seed=5)
        g2 = build_graph(env, seed=6)
        assert [(l.key, l.latency) for l in g1.links] != \
               [(l.key, l.latency) for l in g2.links]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_access_links_faster_than_backbone(self, seed):
        g = build_graph(EnvConfig(**SMALL_ENV), seed)
        access = [l.latency for l in g.links
                  if {l.endpoints[0].tier, l.endpoints[1].tier} == {"fog", "fci"}]
        backbone = [l.latency for l in g.links
                    if l.endpoints[0].tier != "fog" and l.endpoints[1].tier != "fog"]
        assert max(access) < min(backbone)

    def test_adjacency_carries_each_link_key(self):
        g = build_graph(EnvConfig(**SMALL_ENV, fn_cloud_link_probability=0.5),
                        seed=3)
        entries = [(node, *entry) for node, neighbors in g.adjacency.items()
                   for entry in neighbors]
        assert len(entries) == 2 * len(g.links)
        for node, neighbor, link, key in entries:
            assert key == link.key == _pair_key(node, neighbor)
            assert g.link_by_key[key] is link

    def test_every_fci_reaches_cloud(self):
        g = build_graph(EnvConfig(**SMALL_ENV), seed=2)
        assert g.cloud_linked_fcis == set(g.fcis)

    def test_cloud_capacity_dominates_fog(self):
        g = build_graph(EnvConfig(**SMALL_ENV), seed=2)
        assert g.cloud.cpu_capacity >= sum(f.cpu_capacity for f in g.fns)
        assert g.cloud.mem_capacity >= sum(f.mem_capacity for f in g.fns)


class TestEnvConfig:
    def test_latency_ordering_enforced(self):
        with pytest.raises(GraphConfigError):
            EnvConfig(fns=2, fcis=1, lat_fn_fci_ms=(50, 300),
                      lat_fci_fci_ms=(101, 200))

    def test_unknown_key_rejected(self):
        with pytest.raises(GraphConfigError):
            EnvConfig.from_dict({"fns": 2, "fcis": 1, "bogus": 3})

    def test_inverted_range_rejected(self):
        with pytest.raises(GraphConfigError):
            EnvConfig(fns=2, fcis=1, cpu=(10, 5))

    def test_fns_require_an_fci(self):
        with pytest.raises(GraphConfigError):
            EnvConfig(fns=2, fcis=0)

    def test_integral_floats_read_as_ints(self):
        env = EnvConfig(fns=4.0, fcis=2.0, cpu=(4.0, 8), cloud_cpu=100.0)
        assert (env.fns, env.fcis, env.cpu, env.cloud_cpu) == (4, 2, (4, 8), 100)
        assert all(type(v) is int for v in (env.fns, env.fcis, *env.cpu,
                                            env.cloud_cpu))

    @pytest.mark.parametrize("field,value", [
        ("fns", "x"), ("fns", True), ("fcis", False), ("fns", 2.5),
        ("cloud_cpu", "x"), ("cloud_mem_mb", 1.5), ("cpu", (4, "8")),
        ("mips", (3000.5, 5000)), ("bw_fn_fci_mbps", (300, float("nan"))),
        ("lat_fci_fci_ms", (True, 200)), ("fci_link_probability", True),
        ("cloud_scale", float("inf")), ("cloud_scale", None),
        ("bw_fn_fci_mbps", (1, 10**400)), ("lat_fci_cloud_ms", (-10**400, 300)),
        ("cpu", (1, 10**400)), ("cloud_cpu", 10**400),
        ("cloud_scale", -10**400)])
    def test_mistyped_field_rejected(self, field, value):
        with pytest.raises(GraphConfigError, match=field):
            EnvConfig(**{"fns": 2, "fcis": 1, field: value})

    def test_int_at_float_max_accepted(self):
        top = int(sys.float_info.max)
        env = EnvConfig(fns=2, fcis=1, bw_fn_fci_mbps=(1, top))
        assert env.bw_fn_fci_mbps == (1.0, sys.float_info.max)


class TestNodeId:
    def test_parse_round_trip(self):
        for node in (fn(3), NodeId("fci", 7), CLOUD_ID):
            assert NodeId.parse(str(node)) == node

    def test_parse_rejects_unknown_tier(self):
        with pytest.raises(ValueError):
            NodeId.parse("mist-1")

    def test_hash_order_and_repr_match_the_plain_tuple(self):
        assert hash(NodeId("fog", 3)) == hash(("fog", 3))
        assert repr(NodeId("fog", 3)) == "NodeId(tier='fog', index=3)"
        mixed = [fn(10), NodeId("fci", 1), CLOUD_ID, fn(2), NodeId("fci", 0)]
        assert sorted(mixed) == [CLOUD_ID, NodeId("fci", 0), NodeId("fci", 1),
                                 fn(2), fn(10)]
        assert fn(2) < fn(10) and NodeId("fci", 9) < fn(0)
        assert str(fn(10)) == "fog-10"
