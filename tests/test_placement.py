"""Placement: multi-hop location search, edge mapping, level accounting."""

import dataclasses
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fogsched.objective import check_constraints
from fogsched.ordering import order_tasks
from fogsched import placement as placement_module
from fogsched.placement import (Envelope, Placement, ResourceMatrix,
                                _candidate_stages, edges_by_level,
                                herafc_place, map_level_edges, place_levels,
                                reset_rm, try_deploy)
from fogsched.simkit import (FluctuationConfig, apply_fluctuation,
                             baseline_cloud_first)
from fogsched.topology import (CLOUD, EnvConfig, NoPath, PhysicalPath,
                               build_graph, hop_distance, shortest_path)
from fogsched.workload import WorkloadConfig, generate_workload

from conftest import (CLOUD_ID, fn, make_app, make_edge, make_graph,
                      make_task, matrix_state)


def place(app, graph, rm=None):
    rm = rm or ResourceMatrix.from_graph(graph)
    return herafc_place(app, graph, rm, order_tasks(app, graph))


class TestSingleTaskRouting:
    def test_home_fn_preferred(self, two_cluster_graph):
        app = make_app([make_task("a", cpu=2, mem=200)], home=fn(0))
        got = place(app, two_cluster_graph)
        assert got.task_locations == {"a": fn(0)}
        assert got.rejected == []

    def test_full_home_spills_to_sibling(self):
        g = make_graph(fn_caps=[(2, 200), (8, 800)], clusters=[0, 0])
        app = make_app([make_task("a", cpu=4, mem=300)], home=fn(0))
        got = place(app, g)
        assert got.task_locations == {"a": fn(1)}
        assert got.home_pin_infeasible  # nothing could ever fit the home FN

    def test_oversized_task_goes_to_cloud(self, two_cluster_graph):
        app = make_app([make_task("a", cpu=500, mem=200)], home=fn(0))
        got = place(app, two_cluster_graph)
        assert got.task_locations == {"a": CLOUD_ID}

    def test_two_hop_fog_beats_cloud(self):
        # home cluster full; the only capacity is in the linked cluster
        g = make_graph(fn_caps=[(1, 100), (1, 100), (8, 800)],
                       clusters=[0, 0, 1], fci_links=[(0, 1)])
        app = make_app([make_task("a", cpu=4, mem=300)], home=fn(0))
        got = place(app, g)
        assert got.task_locations == {"a": fn(2)}

    def test_unreachable_cluster_not_used(self):
        g = make_graph(fn_caps=[(1, 100), (8, 800)], clusters=[0, 1],
                       fci_links=[])
        app = make_app([make_task("a", cpu=4, mem=300)], home=fn(0))
        got = place(app, g)
        assert got.task_locations == {"a": CLOUD_ID}


@pytest.mark.parametrize("seed,fn_cloud", [(1, 0.0), (2, 0.0), (3, 0.5)])
def test_candidate_stages_follow_hop_distance(seed, fn_cloud):
    """The fog nodes 1 hop from the home FN, those 2 hops from it, the cloud;
    place_levels tries the home FN itself before them."""
    graph = build_graph(EnvConfig(fns=12, fcis=4, fci_link_probability=0.4,
                                  fn_cloud_link_probability=fn_cloud), seed)
    fog = sorted(graph.fn_by_id)
    two_hop_seen = False
    for home in fog:
        stages = _candidate_stages(graph, home)
        assert len(stages) == 3
        for h in (1, 2):
            assert list(stages[h - 1]) == [n for n in fog
                                           if hop_distance(graph, home, n) == h]
        assert stages[2] == (graph.cloud.id,)
        flat = [n for stage in stages for n in stage]
        assert len(flat) == len(set(flat))
        assert home not in flat
        assert _candidate_stages(graph, home) is stages
        two_hop_seen = two_hop_seen or bool(stages[1])
    assert two_hop_seen


class TestTryDeploy:
    def test_first_fit_skips_small_residuals(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        rm.hold(Envelope(cpu={fn(1): 7.0}))  # leaves (1, 800)
        task = make_task("a", cpu=2, mem=300)
        assert try_deploy(task, [fn(1), fn(2)], rm) == fn(2)

    def test_fit_requires_cpu_and_mem(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        rm.hold(Envelope(mem={fn(1): 700.0}))  # leaves (8, 100)
        task = make_task("a", cpu=2, mem=300)
        assert try_deploy(task, [fn(1)], rm) is None

    def test_empty_candidates(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        assert try_deploy(make_task("a"), [], rm) is None


class TestMapLevelEdges:
    def app_on(self, graph, locations, bw=150.0):
        tasks = [make_task(t, cpu=1, mem=100) for t in locations]
        edges = [make_edge("a", "b", bw=bw)]
        app = make_app(tasks, edges, home=fn(0))
        placement = Placement(app_id=app.id, home_fn=app.home_fn,
                              task_locations=dict(locations))
        return app, placement

    def test_same_node_zero_path_no_debit(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        before = dict(rm.held.bw)
        app, placement = self.app_on(two_cluster_graph,
                                     {"a": fn(0), "b": fn(0)})
        map_level_edges(app.edges, placement, two_cluster_graph, rm,
                        rm.snapshot())
        path = placement.edge_paths[("a", "b")]
        assert path.total_latency == 0.0
        assert path.nodes == (fn(0),)
        assert rm.held.bw == before

    def test_two_link_path_debits_each_link(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        app, placement = self.app_on(two_cluster_graph,
                                     {"a": fn(0), "b": fn(1)}, bw=150.0)
        map_level_edges(app.edges, placement, two_cluster_graph, rm,
                        rm.snapshot())
        path = placement.edge_paths[("a", "b")]
        assert len(path.links) == 2  # via the shared FCI
        for key in path.links:
            assert rm.held.bw[key] == pytest.approx(150.0)

    def test_infeasible_bandwidth_marked_unmapped(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        app, placement = self.app_on(two_cluster_graph,
                                     {"a": fn(0), "b": fn(1)}, bw=10_000.0)
        map_level_edges(app.edges, placement, two_cluster_graph, rm,
                        rm.snapshot())
        assert ("a", "b") in placement.unmapped
        assert "bandwidth" in placement.unmapped[("a", "b")]
        assert ("a", "b") not in placement.edge_paths

    def test_over_latency_path_reported_not_blocked(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        app, placement = self.app_on(two_cluster_graph,
                                     {"a": fn(0), "b": fn(1)})
        app.edges[0].max_latency = 1.0  # path costs 120 ms
        map_level_edges(app.edges, placement, two_cluster_graph, rm,
                        rm.snapshot())
        assert ("a", "b") in placement.edge_paths
        assert [(code, entity) for code, entity, _ in check_constraints(
            placement, app, two_cluster_graph)] == [("edge-latency", "a->b")]

    def test_rejected_endpoint_ignored(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        app, placement = self.app_on(two_cluster_graph, {"a": fn(0), "b": fn(1)})
        del placement.task_locations["b"]
        placement.rejected.append(("b", "no capacity"))
        map_level_edges(app.edges, placement, two_cluster_graph, rm,
                        rm.snapshot())
        assert ("a", "b") in placement.ignored
        assert ("a", "b") not in placement.unmapped

    def test_colocated_edges_share_one_frozen_path(self, two_cluster_graph):
        g = two_cluster_graph
        rm = ResourceMatrix.from_graph(g)
        first = place(make_app([make_task(t) for t in "abc"],
                               [make_edge("a", "b"), make_edge("a", "c")],
                               app_id="app-1"), g, rm)
        second = place(make_app([make_task(t) for t in "xy"],
                                [make_edge("x", "y")], app_id="app-2"), g, rm)
        assert set(first.task_locations.values()) == {fn(0)}
        assert set(second.task_locations.values()) == {fn(0)}
        path = first.edge_paths[("a", "b")]
        assert first.edge_paths[("a", "c")] is path
        assert second.edge_paths[("x", "y")] is path
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.total_latency = 1.0


class TestResetRm:
    def loaded(self, graph):
        """A matrix whose held values are not round: 0.1 + 2 - 2 != 0.1."""
        rm = ResourceMatrix.from_graph(graph)
        link = next(iter(rm.capacity.bw))
        rm.hold(Envelope(cpu={fn(0): 0.1}, mem={fn(0): 0.1}, bw={link: 0.1}))
        return rm, link

    def test_reset_restores_snapshot(self, two_cluster_graph):
        rm, link = self.loaded(two_cluster_graph)
        before = (dict(rm.held.cpu), dict(rm.held.mem), dict(rm.held.bw))
        log = rm.snapshot()
        rm.debit_task(make_task("a", cpu=2, mem=100), fn(0), log)
        rm.debit_link(link, 50.0, log)
        assert (log.cpu, log.mem, log.bw) == ({fn(0): 2.0}, {fn(0): 100.0},
                                              {link: 50.0})
        reset_rm(rm, log)
        assert rm.held.cpu == before[0]
        assert rm.held.mem == before[1]
        assert rm.held.bw == before[2]

    def test_reset_idempotent(self, two_cluster_graph):
        rm, _ = self.loaded(two_cluster_graph)
        log = rm.snapshot()
        rm.debit_task(make_task("a", cpu=2, mem=100), fn(0), log)
        reset_rm(rm, log)
        once = (dict(rm.held.cpu), dict(rm.effective.cpu))
        reset_rm(rm, log)
        assert (dict(rm.held.cpu), dict(rm.effective.cpu)) == once

    def test_specific_node_returns_to_snapshot_value(self, two_cluster_graph):
        rm, _ = self.loaded(two_cluster_graph)
        log = rm.snapshot()
        before = rm.residual_cpu(fn(2))
        rm.debit_task(make_task("a", cpu=2, mem=100), fn(2), log)
        assert rm.residual_cpu(fn(2)) == before - 2.0
        reset_rm(rm, log)
        assert rm.residual_cpu(fn(2)) == before


class TestResourceMatrix:
    def test_overdraw_rejected(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        with pytest.raises(Exception):
            rm.hold(Envelope(cpu={fn(1): 9.0}))  # capacity is 8

    def test_clone_is_independent(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        copy = rm.clone()
        copy.hold(Envelope(cpu={fn(0): 5.0}))
        assert rm.residual_cpu(fn(0)) == 100.0


class TestHerafcPlace:
    def diamond_app(self):
        return make_app(
            [make_task("a", cpu=2, mem=100), make_task("b", cpu=2, mem=100),
             make_task("c", cpu=2, mem=100), make_task("d", cpu=2, mem=100)],
            [make_edge("a", "b"), make_edge("a", "c"),
             make_edge("b", "d"), make_edge("c", "d")],
            home=fn(0))

    def test_deterministic(self, two_cluster_graph):
        app = self.diamond_app()
        a = place(app, two_cluster_graph).to_dict()
        b = place(app, two_cluster_graph).to_dict()
        assert a == b

    def test_does_not_mutate_input_matrix(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        before = dict(rm.held.cpu)
        place(self.diamond_app(), two_cluster_graph, rm)
        assert rm.held.cpu == before

    def test_levels_consumed_root_first(self, two_cluster_graph):
        app = self.diamond_app()
        q = order_tasks(app, two_cluster_graph)
        got = herafc_place(app, two_cluster_graph,
                           ResourceMatrix.from_graph(two_cluster_graph), q)
        assert got.level_order == q.levels == [["a"], ["b", "c"], ["d"]]

    def test_constraint_clean_on_feasible_instance(self, two_cluster_graph):
        app = self.diamond_app()
        got = place(app, two_cluster_graph)
        assert got.rejected == []
        violations = check_constraints(got, app, two_cluster_graph)
        assert violations == []

    def test_home_gets_a_task_when_it_fits(self, two_cluster_graph):
        app = self.diamond_app()
        got = place(app, two_cluster_graph)
        assert fn(0) in got.task_locations.values()

    def test_home_takes_the_task_that_fits_it(self):
        # tiny home FN fits only the small leaf task: the root goes to the
        # bigger sibling, and first-fit puts the leaf on the home FN in the
        # one pass there is
        g = make_graph(fn_caps=[(1, 100), (50, 5000)], clusters=[0, 0])
        app = make_app(
            [make_task("big", cpu=5, mem=500), make_task("small", cpu=1, mem=50)],
            [make_edge("big", "small")], home=fn(0))
        got = place(app, g)
        assert got.task_locations == {"big": fn(1), "small": fn(0)}
        assert fn(0) in got.task_locations.values()
        assert not got.home_pin_infeasible
        assert check_constraints(got, app, g) == []

    def test_level_durations_are_level_maxima(self, two_cluster_graph):
        app = make_app(
            [make_task("a", makespan=900.0), make_task("b", makespan=100.0),
             make_task("c", makespan=400.0)],
            [make_edge("a", "b"), make_edge("a", "c")], home=fn(0))
        got = place(app, two_cluster_graph)
        # root level first (a), then the leaf level (b, c)
        assert got.level_durations == [900.0, 400.0]

    def test_level_duration_counts_rejected_tasks(self):
        g = make_graph(fn_caps=[(2, 200)], clusters=[0], cloud_cpu=1,
                       cloud_mem=100)
        app = make_app([make_task("big", cpu=4, mem=400, makespan=900.0),
                        make_task("small", makespan=100.0)], home=fn(0))
        got = place(app, g)
        assert [t for t, _ in got.rejected] == ["big"]
        assert got.level_durations == [900.0]

    def test_rejection_only_when_even_cloud_is_full(self):
        g = make_graph(fn_caps=[(2, 200)], clusters=[0], cloud_cpu=1,
                       cloud_mem=100)
        app = make_app([make_task("a", cpu=4, mem=400)], home=fn(0))
        got = place(app, g)
        assert got.task_locations == {}
        assert [t for t, _ in got.rejected] == ["a"]


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_placement_invariants_on_generated_instances(seed):
    graph = build_graph(EnvConfig(fns=6, fcis=2, cpu=(4, 8),
                                  mem_mb=(500, 1000),
                                  fci_link_probability=0.5), seed=1)
    cfg = WorkloadConfig(app_count=3, tasks_per_app=(2, 8),
                         cpu=(1, 6), mem_mb=(100, 600),
                         edge_bandwidth_mbps=(10, 60),
                         link_probability=0.4, max_total_tasks=100)
    rm = ResourceMatrix.from_graph(graph)
    for app in generate_workload(cfg, graph, seed):
        got = herafc_place(app, graph, rm, order_tasks(app, graph))
        rejected = {t for t, _ in got.rejected}
        located = set(got.task_locations)
        assert located.isdisjoint(rejected)
        assert located | rejected == {t.id for t in app.tasks}
        for key, path in got.edge_paths.items():
            assert key[0] in located and key[1] in located
            src, dst = got.task_locations[key[0]], got.task_locations[key[1]]
            assert path.nodes[0] == src and path.nodes[-1] == dst
        codes = {c for c, _, _ in check_constraints(got, app, graph)}
        assert "one-location" not in codes
        assert "capacity" not in codes
        assert "bandwidth" not in codes
        assert "home-fn" not in codes


class LoggingMatrix(ResourceMatrix):
    """Keeps every level log that placement opens on it."""

    def snapshot(self):
        log = super().snapshot()
        self.logs.append(log)
        return log


def loaded_matrix(graph, rng):
    """Overlapping holds under fluctuated capacities: no held value is round."""
    rm = LoggingMatrix.from_graph(graph)
    rm.logs = []
    nodes = sorted(graph.fn_by_id) + [graph.cloud.id]
    links = sorted(rm.capacity.bw)
    for _ in range(4):
        rm.hold(Envelope(
            cpu={n: rng.uniform(0.1, 0.9) for n in rng.sample(nodes, 3)},
            mem={n: rng.uniform(10.0, 90.0) for n in rng.sample(nodes, 3)},
            bw={k: rng.uniform(1.0, 9.0) for k in rng.sample(links, 3)}))
    apply_fluctuation(rm, FluctuationConfig(interval_s=1.0,
                                            availability_range=(0.5, 0.9)), rng)
    return rm


def level_amounts(got, app, level):
    """Per-node demands of one level's located tasks, summed from 0.0 in
    placement order."""
    cpu, mem = {}, {}
    task_by_id = app.task_by_id()
    for tid in level:
        node = got.task_locations.get(tid)
        if node is not None:
            task = task_by_id[tid]
            cpu[node] = cpu.get(node, 0.0) + task.cpu_demand
            mem[node] = mem.get(node, 0.0) + task.mem_demand
    return cpu, mem


def peak(dicts):
    out = {}
    for d in dicts:
        for key, amt in d.items():
            out[key] = max(out.get(key, 0.0), amt)
    return list(out.items())


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_placement_undoes_every_level_exactly(seed):
    graph = build_graph(EnvConfig(fns=6, fcis=2, cpu=(4, 8),
                                  mem_mb=(500, 1000),
                                  fci_link_probability=0.5), seed=1)
    cfg = WorkloadConfig(app_count=3, tasks_per_app=(2, 8),
                         cpu=(1, 3), mem_mb=(100, 400),
                         edge_bandwidth_mbps=(10, 60),
                         link_probability=0.4, max_total_tasks=100)
    rm = loaded_matrix(graph, random.Random(seed))
    for app in generate_workload(cfg, graph, seed):
        for algorithm in (
                lambda: herafc_place(app, graph, rm, order_tasks(app, graph)),
                lambda: baseline_cloud_first(app, graph, rm)):
            before = matrix_state(rm)
            rm.logs.clear()
            got = algorithm()
            assert matrix_state(rm) == before
            logs = rm.logs[len(rm.logs) - len(got.level_order):]
            for level, log in zip(got.level_order, logs):
                cpu, mem = level_amounts(got, app, level)
                assert list(log.cpu.items()) == list(cpu.items())
                assert list(log.mem.items()) == list(mem.items())
            assert list(got.envelope.cpu.items()) == peak(l.cpu for l in logs)
            assert list(got.envelope.mem.items()) == peak(l.mem for l in logs)
            assert list(got.envelope.bw.items()) == peak(l.bw for l in logs)
            rm.hold(got.envelope)


def reference_map_level_edges(level_tasks, app, placement, graph, rm, log):
    """The per-level scan map_level_edges replaced, kept as a reference: at
    every level, scan all of the app's edges for those adjacent to the level
    and not yet mapped, unmapped or ignored, and map those whose endpoints
    are both located."""
    level_set = set(level_tasks)
    rejected = {t for t, _ in placement.rejected}
    adjacent = [e for e in app.edges
                if (e.src in level_set or e.dst in level_set)
                and (e.src, e.dst) not in placement.edge_paths
                and (e.src, e.dst) not in placement.unmapped
                and (e.src, e.dst) not in placement.ignored]
    adjacent.sort(key=lambda e: (-e.bandwidth_demand, (e.src, e.dst)))
    for edge in adjacent:
        src_loc = placement.task_locations.get(edge.src)
        dst_loc = placement.task_locations.get(edge.dst)
        if src_loc is None or dst_loc is None:
            if edge.src in rejected or edge.dst in rejected:
                placement.ignored.add((edge.src, edge.dst))
            continue
        if src_loc == dst_loc:
            placement.edge_paths[edge.src, edge.dst] = PhysicalPath(
                nodes=(src_loc,), total_latency=0.0,
                min_bandwidth=math.inf, hop_count=0)
            continue
        path = shortest_path(graph, src_loc, dst_loc, edge.bandwidth_demand,
                             rm)
        if isinstance(path, NoPath):
            placement.unmapped[edge.src, edge.dst] = (
                f"no path with residual bandwidth >= {edge.bandwidth_demand:.3f}")
            continue
        for key in path.links:
            rm.debit_link(key, edge.bandwidth_demand, log)
        placement.edge_paths[edge.src, edge.dst] = path


def placement_record(got):
    return (list(got.task_locations.items()),
            [(key, path.nodes, path.total_latency, path.min_bandwidth,
              path.hop_count) for key, path in got.edge_paths.items()],
            list(got.unmapped.items()), sorted(got.ignored), got.rejected,
            got.level_order, got.pinned_task, got.home_pin_infeasible,
            [list(d.items()) for d in (got.envelope.cpu, got.envelope.mem,
                                       got.envelope.bw)])


def test_level_edge_lists_match_the_per_level_scan(monkeypatch):
    """place_levels with each edge mapped once at its later level gives what
    the per-level scan gave, key order included, on tight capacities.

    Stages: HeRAFC's and cloud-first's. Each app's envelope is held while
    the next two apps are placed. Rejections, unmapped and ignored edges all
    occur."""
    seen = dict(rejected=0, unmapped=0, ignored=0, mapped=0)
    for seed in range(10):
        graph = build_graph(EnvConfig(fns=6, fcis=3, cpu=(3, 6),
                                      mem_mb=(300, 900),
                                      bw_fn_fci_mbps=(60, 120),
                                      bw_fci_fci_mbps=(60, 120),
                                      bw_fci_cloud_mbps=(60, 120),
                                      fci_link_probability=0.5,
                                      cloud_cpu=12, cloud_mem_mb=3000), seed)
        cfg = WorkloadConfig(app_count=8, tasks_per_app=(3, 8), cpu=(1, 4),
                             mem_mb=(100, 500), edge_bandwidth_mbps=(20, 70),
                             link_probability=0.5, max_total_tasks=100)
        rm_new = loaded_matrix(graph, random.Random(seed))
        rm_ref = loaded_matrix(graph, random.Random(seed))
        held = []
        for app in generate_workload(cfg, graph, seed):
            queue = order_tasks(app, graph)
            runs = ((queue.levels, _candidate_stages(graph, app.home_fn)),
                    ([sorted(t.id for t in app.tasks)], ((graph.cloud.id,),)))
            for levels, stages in runs:
                got = place_levels(app, graph, rm_new, levels, stages)

                def scan(edges, placement, graph_, rm_, log):
                    level = levels[len(placement.level_order)]
                    reference_map_level_edges(level, app, placement, graph_,
                                              rm_, log)

                with monkeypatch.context() as m:
                    m.setattr(placement_module, "map_level_edges", scan)
                    want = place_levels(app, graph, rm_ref, levels, stages)
                assert placement_record(got) == placement_record(want)
                assert matrix_state(rm_new) == matrix_state(rm_ref)
                seen["rejected"] += len(got.rejected)
                seen["unmapped"] += len(got.unmapped)
                seen["ignored"] += len(got.ignored)
                seen["mapped"] += sum(len(p.nodes) > 1
                                      for p in got.edge_paths.values())
            rm_new.hold(got.envelope)
            rm_ref.hold(want.envelope)
            held.append((got.envelope, want.envelope))
            if len(held) > 2:
                old_new, old_ref = held.pop(0)
                rm_new.release(old_new)
                rm_ref.release(old_ref)
            assert matrix_state(rm_new) == matrix_state(rm_ref)
    assert all(seen.values()), seen


def per_level_sorted_edges(app, levels):
    """Test-only copy of edges_by_level as it was: deal the edges out in app
    order, then sort each level's list by (-bandwidth, src, dst)."""
    level_of = {t: k for k, level in enumerate(levels) for t in level}
    by_level = [[] for _ in levels]
    for edge in app.edges:
        by_level[max(level_of[edge.src], level_of[edge.dst])].append(edge)
    for edges in by_level:
        edges.sort(key=lambda e: (-e.bandwidth_demand, e.src, e.dst))
    return by_level


def test_one_edge_sort_matches_the_per_level_sorts():
    graph = build_graph(EnvConfig(fns=6, fcis=2, fci_link_probability=0.5),
                        seed=1)
    cfg = WorkloadConfig(app_count=40, tasks_per_app=(2, 12),
                         link_probability=0.5, max_total_tasks=1000)
    tied = make_app(
        [make_task(t) for t in "abcde"],
        [make_edge(s, d, bw=80.0) for s, d in
         [("c", "e"), ("a", "d"), ("b", "e"), ("a", "c"), ("b", "d"),
          ("a", "b")]] + [make_edge("c", "d", bw=90.0)])
    for app in [tied, *generate_workload(cfg, graph, 7)]:
        levels = order_tasks(app, graph).levels
        got = edges_by_level(app, levels)
        assert got == per_level_sorted_edges(app, levels)
    # ties on bandwidth are broken by (src, dst)
    levels = order_tasks(tied, graph).levels
    assert levels == [["a"], ["b", "c"], ["d", "e"]]
    assert [[(e.src, e.dst) for e in edges]
            for edges in edges_by_level(tied, levels)] == [
        [], [("a", "b"), ("a", "c")],
        [("c", "d"), ("a", "d"), ("b", "d"), ("b", "e"), ("c", "e")]]
