"""Application DAGs: generation ranges, acyclicity, validation, JSON round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched.ordering import task_levels
from fogsched.topology import EnvConfig, build_graph
from fogsched.workload import (Application, WorkloadConfig, WorkloadError,
                               application_to_dict, generate_workload,
                               load_application, validate_dag)

from conftest import fn, make_app, make_edge, make_task


@pytest.fixture(scope="module")
def graph():
    return build_graph(EnvConfig(fns=6, fcis=2, cpu=(4, 8),
                                 mem_mb=(500, 1000)), seed=1)


class TestGenerateWorkload:
    def test_fields_within_configured_ranges(self, graph):
        cfg = WorkloadConfig(app_count=50, tasks_per_app=(4, 12),
                             cpu=(2, 5), mem_mb=(300, 700),
                             makespan_ms=(100, 900), priority=(2, 4),
                             edge_bandwidth_mbps=(20, 80),
                             edge_latency_ms=(15, 45), link_probability=0.4,
                             max_total_tasks=1000)
        apps = generate_workload(cfg, graph, seed="s")
        assert len(apps) == 50
        for app in apps:
            assert 4 <= len(app.tasks) <= 12
            assert app.home_fn in graph.fn_by_id
            for t in app.tasks:
                assert 2 <= t.cpu_demand <= 5
                assert 300 <= t.mem_demand <= 700
                assert 100 <= t.makespan <= 900
                assert 2 <= t.priority <= 4
            for e in app.edges:
                assert 20 <= e.bandwidth_demand <= 80
                assert 15 <= e.max_latency <= 45

    def test_all_generated_apps_are_valid_dags(self, graph):
        cfg = WorkloadConfig(app_count=100, tasks_per_app=(4, 12),
                             link_probability=0.6, max_total_tasks=2000)
        for app in generate_workload(cfg, graph, seed=9):
            assert validate_dag(app) == []

    def test_deterministic_in_config_graph_seed(self, graph):
        cfg = WorkloadConfig(app_count=20, max_total_tasks=400)
        a = [application_to_dict(x) for x in generate_workload(cfg, graph, 4)]
        b = [application_to_dict(x) for x in generate_workload(cfg, graph, 4)]
        assert a == b

    def test_seed_changes_workload(self, graph):
        cfg = WorkloadConfig(app_count=20, max_total_tasks=400)
        a = [application_to_dict(x) for x in generate_workload(cfg, graph, 4)]
        b = [application_to_dict(x) for x in generate_workload(cfg, graph, 5)]
        assert a != b

    def test_single_task_app_has_no_edges(self, graph):
        cfg = WorkloadConfig(app_count=1, tasks_per_app=(1, 1),
                             max_total_tasks=10)
        (app,) = generate_workload(cfg, graph, seed=0)
        assert len(app.tasks) == 1
        assert app.edges == []

    def test_full_link_probability_gives_complete_dag(self, graph):
        cfg = WorkloadConfig(app_count=10, tasks_per_app=(3, 3),
                             link_probability=1.0, max_total_tasks=100)
        for app in generate_workload(cfg, graph, seed=0):
            assert len(app.edges) == 3  # C(3,2)

    def test_truncates_at_last_complete_app(self, graph):
        cfg = WorkloadConfig(app_count=10, tasks_per_app=(2, 8),
                             max_total_tasks=25)
        apps = generate_workload(cfg, graph, seed=0)
        assert len(apps) < 10
        assert sum(len(a.tasks) for a in apps) <= 25

    def test_oversized_config_rejected_upfront(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(app_count=100, tasks_per_app=(4, 4),
                           max_total_tasks=10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_no_isolated_tasks_at_any_seed(self, graph, seed):
        cfg = WorkloadConfig(app_count=5, tasks_per_app=(2, 8),
                             link_probability=0.05, max_total_tasks=100)
        for app in generate_workload(cfg, graph, seed):
            connected = {e.src for e in app.edges} | {e.dst for e in app.edges}
            assert connected == {t.id for t in app.tasks}


class TestValidateDag:
    def test_valid_chain(self):
        app = make_app([make_task("a"), make_task("b"), make_task("c")],
                       [make_edge("a", "b"), make_edge("b", "c")])
        assert validate_dag(app) == []

    def test_self_loop_reported(self):
        app = make_app([make_task("a"), make_task("b")],
                       [make_edge("a", "a"), make_edge("a", "b")])
        assert any("src must differ" in v for v in validate_dag(app))

    def test_isolated_task_reported(self):
        app = make_app([make_task("a"), make_task("b"), make_task("c")],
                       [make_edge("a", "b")])
        assert any("isolated" in v for v in validate_dag(app))

    def test_opposite_edges_reported_once_as_pair_violation(self):
        app = make_app([make_task("a"), make_task("b")],
                       [make_edge("a", "b"), make_edge("b", "a")])
        assert any("one edge per task pair" in v for v in validate_dag(app))

    def test_cycle_reported(self):
        app = make_app([make_task("a"), make_task("b"), make_task("c")],
                       [make_edge("a", "b"), make_edge("b", "c"),
                        make_edge("c", "a")])
        assert any("cycle" in v for v in validate_dag(app))

    def test_priority_out_of_range_reported(self):
        app = make_app([make_task("a", priority=6)])
        assert any("priority" in v for v in validate_dag(app))

    def test_all_violations_reported_not_just_first(self):
        app = make_app([make_task("a", priority=9), make_task("b"),
                        make_task("c")],
                       [make_edge("a", "b")])
        got = validate_dag(app)
        assert len(got) >= 2  # bad priority and isolated task


class TestLoadApplication:
    def doc(self):
        return {
            "id": "demo", "home_fn": "fog-0",
            "tasks": [
                {"id": "v1", "cpu": 2, "mem_mb": 300, "makespan_ms": 400.0,
                 "priority": 5},
                {"id": "v2", "cpu": 1, "mem_mb": 200, "makespan_ms": 300.0,
                 "priority": 1},
            ],
            "edges": [{"src": "v1", "dst": "v2", "bandwidth_mbps": 120.0,
                       "max_latency_ms": 40.0}],
        }

    def test_round_trip(self):
        app = load_application(self.doc())
        assert app.home_fn == fn(0)
        assert application_to_dict(app) == self.doc()

    def test_unknown_top_level_field_rejected(self):
        doc = self.doc()
        doc["color"] = "blue"
        with pytest.raises(WorkloadError):
            load_application(doc)

    def test_unknown_task_field_rejected(self):
        doc = self.doc()
        doc["tasks"][0]["gpu"] = 1
        with pytest.raises(WorkloadError):
            load_application(doc)

    def test_missing_task_field_rejected(self):
        doc = self.doc()
        del doc["tasks"][0]["cpu"]
        with pytest.raises(WorkloadError, match="missing task fields"):
            load_application(doc)

    def test_missing_edge_field_rejected(self):
        doc = self.doc()
        del doc["edges"][0]["max_latency_ms"]
        with pytest.raises(WorkloadError, match="missing edge fields"):
            load_application(doc)

    @pytest.mark.parametrize("home", ["fog-x", "node-1"])
    def test_unparseable_home_fn_rejected(self, home):
        doc = self.doc()
        doc["home_fn"] = home
        with pytest.raises(WorkloadError, match="not a node id"):
            load_application(doc)

    def test_invalid_dag_rejected(self):
        doc = self.doc()
        doc["edges"].append({"src": "v2", "dst": "v1",
                             "bandwidth_mbps": 10.0, "max_latency_ms": 10.0})
        with pytest.raises(WorkloadError):
            load_application(doc)

    @pytest.mark.parametrize("part,field,value", [
        ("tasks", "cpu", "1"), ("tasks", "cpu", True),
        ("tasks", "mem_mb", None), ("tasks", "makespan_ms", float("nan")),
        ("tasks", "priority", [3]), ("edges", "bandwidth_mbps", float("inf")),
        ("edges", "max_latency_ms", False)])
    def test_non_number_field_rejected(self, part, field, value):
        doc = self.doc()
        doc[part][0][field] = value
        with pytest.raises(WorkloadError,
                           match=f"{field} must be a finite number"):
            load_application(doc)

    def test_out_of_range_priority_rejected(self):
        doc = self.doc()
        doc["tasks"][0]["priority"] = 6
        with pytest.raises(WorkloadError):
            load_application(doc)


class TestApplicationDerivedState:
    def test_degrees_and_adjacency(self):
        app = make_app([make_task("a"), make_task("b"), make_task("c")],
                       [make_edge("a", "b"), make_edge("a", "c")])
        children = app.children()
        assert {t: len(c) for t, c in children.items()} == {"a": 2, "b": 0, "c": 0}
        assert sorted(children["a"]) == ["b", "c"]
        assert [t for t, c in children.items() if "b" in c] == ["a"]
        assert task_levels(app) == [["b", "c"], ["a"]]

    def test_config_range_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(priority=(0, 5))
        with pytest.raises(WorkloadError):
            WorkloadConfig(cpu=(4, 2))
        with pytest.raises(WorkloadError):
            WorkloadConfig(link_probability=1.5)

    def test_from_dict_unknown_key_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig.from_dict({"app_count": 1, "bogus": 2,
                                      "max_total_tasks": 100})
