"""Task ordering: normalized scores, critical values, level construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched.ordering import (OrderingError, Weights, critical_value,
                               mean_critical_value, normalize_makespan,
                               normalize_priority, normalize_resource,
                               order_tasks, task_levels)

from conftest import make_app, make_edge, make_task


THIRDS = Weights()


class TestNormalizeMakespan:
    def test_hand_values(self):
        app = make_app([make_task("a", makespan=10.0),
                        make_task("b", makespan=500.0),
                        make_task("c", makespan=1000.0)])
        assert normalize_makespan(app) == pytest.approx(
            {"a": 0.01, "b": 0.5, "c": 1.0})

    def test_single_task_maps_to_one(self):
        app = make_app([make_task("a", makespan=42.0)])
        assert normalize_makespan(app) == {"a": 1.0}

    def test_all_equal_map_to_one(self):
        app = make_app([make_task(t, makespan=77.0) for t in "abc"])
        assert set(normalize_makespan(app).values()) == {1.0}

    def test_empty_app_rejected(self):
        with pytest.raises(OrderingError):
            normalize_makespan(make_app([]))

    @given(scale=st.floats(0.001, 1000.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, scale):
        spans = [10.0, 250.0, 999.0]
        base = make_app([make_task(f"t{i}", makespan=m)
                         for i, m in enumerate(spans)])
        scaled = make_app([make_task(f"t{i}", makespan=m * scale)
                           for i, m in enumerate(spans)])
        a = normalize_makespan(base)
        b = normalize_makespan(scaled)
        for t in a:
            assert a[t] == pytest.approx(b[t])


class TestNormalizePriority:
    def test_full_range(self):
        app = make_app([make_task(f"t{p}", priority=p) for p in range(1, 6)])
        got = normalize_priority(app)
        assert got == pytest.approx(
            {f"t{p}": p / 5.0 for p in range(1, 6)})

    def test_all_same_priority(self):
        app = make_app([make_task(t, priority=5) for t in "ab"])
        assert set(normalize_priority(app).values()) == {1.0}

    def test_single_low_priority_task_maps_to_one(self):
        app = make_app([make_task("a", priority=1)])
        assert normalize_priority(app) == {"a": 1.0}


class TestNormalizeResource:
    def test_hand_value(self, two_cluster_graph):
        # biggest fog node: 100 cpu, 1000 mem
        app = make_app([make_task("a", cpu=4, mem=500)])
        got = normalize_resource(app, two_cluster_graph, THIRDS)
        assert got["a"] == pytest.approx((0.5 * 0.04 + 0.5 * 0.5) / 2)

    def test_demand_at_capacity_scores_half(self, two_cluster_graph):
        app = make_app([make_task("a", cpu=100, mem=1000)])
        got = normalize_resource(app, two_cluster_graph, THIRDS)
        assert got["a"] == pytest.approx(0.5)

    def test_cloud_excluded_by_default(self, two_cluster_graph):
        app = make_app([make_task("a", cpu=4, mem=500)])
        fog_only = normalize_resource(app, two_cluster_graph, THIRDS)
        with_cloud = normalize_resource(app, two_cluster_graph, THIRDS,
                                        include_cloud=True)
        assert with_cloud["a"] < fog_only["a"]

    def test_outputs_in_unit_interval(self, two_cluster_graph):
        app = make_app([make_task(f"t{i}", cpu=1 + i, mem=100 * (i + 1))
                        for i in range(5)])
        for v in normalize_resource(app, two_cluster_graph, THIRDS).values():
            assert 0.0 < v <= 1.0


class TestCriticalValue:
    def test_equal_thirds_unit_inputs(self):
        assert critical_value(1.0, 1.0, 1.0, THIRDS) == pytest.approx(1 / 27)

    def test_hand_value(self):
        w = Weights(w1=0.5, w2=0.3, w3=0.2)
        assert critical_value(0.5, 0.6, 1.0, w) == pytest.approx(
            0.25 * 0.18 * 0.2)

    @given(m=st.floats(0.01, 1.0), p=st.floats(0.01, 1.0),
           r=st.floats(0.01, 1.0), bump=st.floats(1.01, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_factor(self, m, p, r, bump):
        base = critical_value(m, p, r, THIRDS)
        assert critical_value(min(m * bump, 1e6), p, r, THIRDS) > base
        assert critical_value(m, min(p * bump, 1e6), r, THIRDS) > base
        assert critical_value(m, p, min(r * bump, 1e6), THIRDS) > base


class TestMeanCriticalValue:
    def test_hand_value(self):
        assert mean_critical_value(0.009, 2, 0.001) == pytest.approx(
            0.009 / 2.001)

    def test_leaf_divides_by_delta_only(self):
        assert mean_critical_value(0.009, 0, 0.001) == pytest.approx(9.0)

    def test_zero_volume_is_zero(self):
        assert mean_critical_value(0.0, 5, 0.001) == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(OrderingError):
            mean_critical_value(1.0, -1, 0.001)
        with pytest.raises(OrderingError):
            mean_critical_value(1.0, 0, 0.0)


class TestWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(OrderingError):
            Weights(w1=0.5, w2=0.5, w3=0.5)

    def test_zero_weight_rejected(self):
        with pytest.raises(OrderingError):
            Weights(w1=0.0, w2=0.5, w3=0.5)

    def test_omega_must_sum_to_one(self):
        with pytest.raises(OrderingError):
            Weights(omega_c=0.2, omega_m=0.2)


class TestTaskLevels:
    def test_chain(self):
        app = make_app([make_task("a"), make_task("b"), make_task("c")],
                       [make_edge("a", "b"), make_edge("b", "c")])
        assert task_levels(app) == [["c"], ["b"], ["a"]]

    def test_single_task(self):
        assert task_levels(make_app([make_task("a")])) == [["a"]]

    def test_diamond(self):
        app = make_app([make_task(t) for t in "abcd"],
                       [make_edge("a", "b"), make_edge("a", "c"),
                        make_edge("b", "d"), make_edge("c", "d")])
        assert task_levels(app) == [["d"], ["b", "c"], ["a"]]

    def test_parent_above_highest_child(self):
        # a feeds both a leaf and a chain: a must sit above the whole chain
        app = make_app([make_task(t) for t in "abcd"],
                       [make_edge("a", "b"), make_edge("a", "d"),
                        make_edge("b", "c")])
        levels = task_levels(app)
        level_of = {t: k for k, level in enumerate(levels) for t in level}
        assert level_of["a"] == 2
        assert level_of["d"] == 0


class TestOrderTasks:
    def test_chain_levels_and_queue_shape(self, two_cluster_graph):
        app = make_app([make_task("a"), make_task("b"), make_task("c")],
                       [make_edge("a", "b"), make_edge("b", "c")])
        q = order_tasks(app, two_cluster_graph)
        assert q.levels == [["c"], ["b"], ["a"]]

    def test_diamond_tie_broken_by_id(self, two_cluster_graph):
        app = make_app([make_task(t) for t in "abcd"],
                       [make_edge("a", "b"), make_edge("a", "c"),
                        make_edge("b", "d"), make_edge("c", "d")])
        q = order_tasks(app, two_cluster_graph)
        assert q.levels == [["d"], ["b", "c"], ["a"]]

    def test_within_level_ascending_mcv(self, two_cluster_graph):
        app = make_app(
            [make_task("a", priority=1), make_task("b", priority=5),
             make_task("c", priority=3), make_task("root")],
            [make_edge("root", "a"), make_edge("root", "b"),
             make_edge("root", "c")])
        q = order_tasks(app, two_cluster_graph)
        leaves = q.levels[0]
        assert leaves == ["a", "c", "b"]  # ascending by priority-driven MCV
        mcvs = [q.mcv[t] for t in leaves]
        assert mcvs == sorted(mcvs)

    def test_every_task_exactly_once(self, two_cluster_graph):
        app = make_app([make_task(f"t{i}") for i in range(6)],
                       [make_edge("t0", "t1"), make_edge("t0", "t2"),
                        make_edge("t1", "t3"), make_edge("t2", "t3"),
                        make_edge("t3", "t4"), make_edge("t4", "t5")])
        q = order_tasks(app, two_cluster_graph)
        flat = [t for level in q.levels for t in level]
        assert sorted(flat) == sorted(t.id for t in app.tasks)

    def test_precedence_parent_strictly_above_child(self, two_cluster_graph):
        app = make_app([make_task(f"t{i}") for i in range(5)],
                       [make_edge("t0", "t1"), make_edge("t1", "t2"),
                        make_edge("t0", "t3"), make_edge("t3", "t4")])
        q = order_tasks(app, two_cluster_graph)
        level_of = q.level_of()
        for e in app.edges:
            assert level_of[e.src] > level_of[e.dst]

    def test_cycle_rejected(self, two_cluster_graph):
        app = make_app([make_task("a"), make_task("b")],
                       [make_edge("a", "b"), make_edge("b", "a")])
        with pytest.raises(OrderingError):
            task_levels(app)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_generated_apps_keep_ordering_invariants(seed):
    from conftest import make_graph
    from fogsched.workload import WorkloadConfig, generate_workload
    graph = make_graph(fn_caps=[(100, 1000), (8, 800), (8, 800), (8, 800)],
                       clusters=[0, 0, 1, 1], fci_links=[(0, 1)])
    cfg = WorkloadConfig(app_count=3, tasks_per_app=(2, 10),
                         link_probability=0.4, max_total_tasks=100)
    for app in generate_workload(cfg, graph, seed):
        q = order_tasks(app, graph)
        flat = [t for level in q.levels for t in level]
        assert sorted(flat) == sorted(t.id for t in app.tasks)
        level_of = q.level_of()
        for e in app.edges:
            assert level_of[e.src] > level_of[e.dst]
        for level in q.levels:
            mcvs = [q.mcv[t] for t in level]
            assert mcvs == sorted(mcvs)
        for t, wv in q.wv.items():
            assert wv > 0.0
