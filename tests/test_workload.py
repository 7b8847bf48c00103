"""Application DAGs: generation ranges, acyclicity, validation, JSON round-trip."""

import math
import random
import warnings
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched.ordering import task_levels
from fogsched.topology import EnvConfig, build_graph
from fogsched.workload import (Application, Task, TaskEdge, WorkloadConfig,
                               WorkloadError, application_to_dict,
                               generate_workload, load_application,
                               validate_dag)

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

    @pytest.mark.parametrize("home", ["fog-x", "node-1", None, [0], True, 1.5])
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

    @pytest.mark.parametrize("part,value,message", [
        ("tasks", [1], r"tasks\[0\] must be an object, not 1"),
        ("tasks", 5, "tasks must be a list of objects, not 5"),
        ("edges", ["x"], r"edges\[0\] must be an object, not 'x'"),
        ("edges", {"src": "v1"}, "edges must be a list of objects")])
    def test_malformed_shape_rejected(self, part, value, message):
        doc = self.doc()
        doc[part] = value
        with pytest.raises(WorkloadError, match=message):
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
        assert task_levels(app) == [["a"], ["b", "c"]]

    def test_config_range_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(priority=(0, 5))
        with pytest.raises(WorkloadError):
            WorkloadConfig(cpu=(4, 2))
        with pytest.raises(WorkloadError):
            WorkloadConfig(link_probability=1.5)

    def test_integral_floats_read_as_ints(self):
        cfg = WorkloadConfig(app_count=4.0, cpu=(1.0, 4.0), priority=(2, 5.0),
                             max_total_tasks=100.0)
        assert (cfg.app_count, cfg.cpu, cfg.priority, cfg.max_total_tasks) == \
               (4, (1, 4), (2, 5), 100)
        assert all(type(v) is int for v in (cfg.app_count, *cfg.cpu,
                                            *cfg.priority, cfg.max_total_tasks))

    @pytest.mark.parametrize("field,value", [
        ("app_count", "5"), ("app_count", True), ("app_count", 2.5),
        ("max_total_tasks", None), ("cpu", (1.5, 4)), ("mem_mb", (100, "900")),
        ("tasks_per_app", (False, 3)), ("priority", (1, float("nan"))),
        ("makespan_ms", (True, 5)), ("edge_latency_ms", (1, float("inf"))),
        ("link_probability", True), ("link_probability", float("nan"))])
    def test_mistyped_field_rejected(self, field, value):
        with pytest.raises(WorkloadError, match=field):
            WorkloadConfig(**{field: value})

    def test_from_dict_unknown_key_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig.from_dict({"app_count": 1, "bogus": 2,
                                      "max_total_tasks": 100})


def reference_generate_workload(cfg, graph, seed):
    """The generator as it was before draws bypassed `random.Random`'s
    methods, kept verbatim (with its two slot helpers) as the reference."""

    def _sample_edge_slots(n_pairs, probability, rng):
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

    def _pair_from_slot(slot):
        """Invert the linearization of pairs (i, j), i < j, ordered by j then i."""
        j = int((1 + math.isqrt(1 + 8 * slot)) // 2)
        while j * (j - 1) // 2 > slot:
            j -= 1
        while (j + 1) * j // 2 <= slot:
            j += 1
        i = slot - j * (j - 1) // 2
        return i, j

    if not graph.fns:
        raise WorkloadError("workload generation requires at least one fog node")
    rng = random.Random(seed)
    fn_ids = sorted(graph.fn_by_id)
    apps = []
    total_tasks = 0
    for a in range(cfg.app_count):
        n = rng.randint(*cfg.tasks_per_app)
        if total_tasks + n > cfg.max_total_tasks:
            break
        total_tasks += n
        app_id = f"app-{a}"
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


GRAPHS = {"one-fn": build_graph(EnvConfig(fns=1, fcis=1), seed=3),
          "six-fns": build_graph(EnvConfig(fns=6, fcis=2, cpu=(4, 8),
                                           mem_mb=(500, 1000)), seed=1)}


def _int_range(lo_min, lo_max, hi_max):
    return st.integers(lo_min, lo_max).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo, hi_max)))


def _float_range():
    return st.tuples(st.floats(0.5, 500.0),
                     st.just(0.0) | st.floats(0.0, 500.0)).map(
        lambda t: (t[0], t[0] + t[1]))


def _as_written(pair, integral_floats):
    return (float(pair[0]), float(pair[1])) if integral_floats else pair


@st.composite
def workload_kwargs(draw):
    """Bounded generator configs. Integral ranges may be written as integral
    floats; max_total_tasks may cut the stream after any app."""
    tasks = draw(st.sampled_from([(1, 1), (2, 2)]) | _int_range(1, 6, 8))
    app_count = draw(st.integers(0, 12))
    floats = st.booleans()
    return dict(
        app_count=app_count,
        tasks_per_app=_as_written(tasks, draw(floats)),
        cpu=_as_written(draw(_int_range(1, 4, 6)), draw(floats)),
        mem_mb=_as_written(draw(_int_range(1, 1000, 1200)), draw(floats)),
        priority=_as_written(draw(_int_range(1, 5, 5)), draw(floats)),
        makespan_ms=draw(_float_range()),
        edge_bandwidth_mbps=draw(_float_range()),
        edge_latency_ms=draw(_float_range()),
        # Below about 2e-307 the reference raises OverflowError (see
        # test_subnormal_link_probability); the generator does not.
        link_probability=draw(st.sampled_from([0.0, 1.0])
                              | st.floats(1e-300, 1.0)),
        max_total_tasks=draw(st.integers(app_count * tasks[0],
                                         app_count * tasks[1] + 3)))


class TestMatchesReferenceGenerator:
    """generate_workload draws the same stream as the reference, so every
    config, graph and seed gives the same applications."""

    @staticmethod
    def assert_same_apps(kwargs, graph, seed):
        got = generate_workload(WorkloadConfig(**kwargs), graph, seed)
        with warnings.catch_warnings():
            # randint() on integral floats: deprecated, but it reads them
            # as ints, which WorkloadConfig now does up front.
            warnings.simplefilter("ignore", DeprecationWarning)
            want = reference_generate_workload(
                SimpleNamespace(**{**vars(WorkloadConfig()), **kwargs}),
                graph, seed)
        assert ([application_to_dict(a) for a in got]
                == [application_to_dict(a) for a in want])
        return got

    @given(kwargs=workload_kwargs(), graph=st.sampled_from(sorted(GRAPHS)),
           seed=st.integers(0, 2 ** 32) | st.text(max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_any_bounded_config(self, kwargs, graph, seed):
        self.assert_same_apps(kwargs, GRAPHS[graph], seed)

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("changes", [
        dict(link_probability=0.0), dict(link_probability=1.0),
        dict(link_probability=0.03), dict(tasks_per_app=(1, 1)),
        dict(tasks_per_app=(2, 2)), dict(cpu=(3, 3), makespan_ms=(7, 7)),
        dict(cpu=(1.0, 4.0), mem_mb=(100.0, 1000.0), tasks_per_app=(4.0, 12.0))])
    def test_named_cases(self, graph, changes):
        kwargs = dict(app_count=40, max_total_tasks=10_000, **changes)
        assert len(self.assert_same_apps(kwargs, GRAPHS[graph], 7)) == 40

    def test_cut_mid_stream(self):
        kwargs = dict(app_count=40, tasks_per_app=(4, 12), max_total_tasks=200)
        apps = self.assert_same_apps(kwargs, GRAPHS["six-fns"], 7)
        assert 200 // 12 <= len(apps) < 40

    def test_subnormal_link_probability(self):
        """The reference's geometric gap overflows int() here; the generator
        ends the walk first and, like p = 0, adds only the edges that keep
        every task connected."""
        kwargs = dict(app_count=30, max_total_tasks=10_000)
        graph = GRAPHS["six-fns"]
        with pytest.raises(OverflowError):
            reference_generate_workload(
                SimpleNamespace(**{**vars(WorkloadConfig()), **kwargs,
                                   "link_probability": 5e-324}), graph, 7)
        apps = generate_workload(
            WorkloadConfig(**kwargs, link_probability=5e-324), graph, 7)
        assert len(apps) == 30
        for app in apps:
            assert validate_dag(app) == []
            assert len(app.edges) < len(app.tasks)
