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


def placing_position(levels):
    """Each task's level index in placing order (0 = placed first)."""
    return {t: k for k, level in enumerate(levels) for t in level}


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
        assert task_levels(app) == [["a"], ["b"], ["c"]]

    def test_single_task(self):
        assert task_levels(make_app([make_task("a")])) == [["a"]]

    def test_diamond(self):
        app = make_app([make_task(t) for t in "abcd"],
                       [make_edge("a", "b"), make_edge("a", "c"),
                        make_edge("b", "d"), make_edge("c", "d")])
        assert task_levels(app) == [["a"], ["b", "c"], ["d"]]

    def test_parent_above_highest_child(self):
        # a feeds both a leaf and a chain: a must sit above the whole chain,
        # so a is level 2 (listed first) and the leaf d is level 0 (last)
        app = make_app([make_task(t) for t in "abcd"],
                       [make_edge("a", "b"), make_edge("a", "d"),
                        make_edge("b", "c")])
        assert task_levels(app) == [["a"], ["b"], ["c", "d"]]

    def test_edge_from_unknown_task_rejected(self):
        app = make_app([make_task("a"), make_task("b")],
                       [make_edge("ghost", "a"), make_edge("a", "b")])
        with pytest.raises(OrderingError, match="ghost -> a"):
            task_levels(app)

    @pytest.mark.parametrize("edges", [[("a", "b"), ("a", "ghost")],
                                       [("a", "ghost"), ("ghost", "b")]])
    def test_edge_to_unknown_task_rejected(self, edges):
        app = make_app([make_task("a"), make_task("b")],
                       [make_edge(s, d) for s, d in edges])
        with pytest.raises(OrderingError, match="a -> ghost"):
            task_levels(app)

    def test_task_listed_twice_rejected(self):
        app = make_app([make_task("a"), make_task("b"), make_task("a")],
                       [make_edge("a", "b")])
        with pytest.raises(OrderingError):
            task_levels(app)


class TestOrderTasks:
    def test_chain_levels_and_queue_shape(self, two_cluster_graph):
        app = make_app([make_task("a"), make_task("b"), make_task("c")],
                       [make_edge("a", "b"), make_edge("b", "c")])
        q = order_tasks(app, two_cluster_graph)
        assert q.levels == [["a"], ["b"], ["c"]]

    def test_diamond_tie_broken_by_id(self, two_cluster_graph):
        app = make_app([make_task(t) for t in "abcd"],
                       [make_edge("a", "b"), make_edge("a", "c"),
                        make_edge("b", "d"), make_edge("c", "d")])
        q = order_tasks(app, two_cluster_graph)
        assert q.mcv["b"] == q.mcv["c"]
        assert q.levels == [["a"], ["b", "c"], ["d"]]

    def test_within_level_descending_mcv(self, two_cluster_graph):
        app = make_app(
            [make_task("a", priority=1), make_task("b", priority=5),
             make_task("c", priority=3), make_task("root")],
            [make_edge("root", "a"), make_edge("root", "b"),
             make_edge("root", "c")])
        q = order_tasks(app, two_cluster_graph)
        leaves = q.levels[-1]
        assert leaves == ["b", "c", "a"]  # descending by priority-driven MCV
        mcvs = [q.mcv[t] for t in leaves]
        assert mcvs == sorted(mcvs, reverse=True)

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
        position = placing_position(q.levels)
        for e in app.edges:
            assert position[e.src] < position[e.dst]

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
        position = placing_position(q.levels)
        for e in app.edges:
            assert position[e.src] < position[e.dst]
        for level in q.levels:
            keys = [(-q.mcv[t], t) for t in level]
            assert keys == sorted(keys)
        for t, mcv in q.mcv.items():
            assert mcv > 0.0


def two_step_placing_order(app, score):
    """Test-only copy of the order placement used to rebuild: levels leaf
    first, each sorted ascending by (score, id); then the levels reversed
    and each sorted again by (-score, id)."""
    level = {t.id: 0 for t in app.tasks}
    for _ in app.tasks:
        for e in app.edges:
            level[e.src] = max(level[e.src], level[e.dst] + 1)
    leaf_first = [[t.id for t in app.tasks if level[t.id] == k]
                  for k in range(max(level.values()) + 1)]
    for lv in leaf_first:
        lv.sort(key=lambda t: (score[t], t))
    return [sorted(lv, key=lambda t: (-score[t], t))
            for lv in reversed(leaf_first)]


def tied_app():
    """A root over five identical leaves, listed out of id order: every
    leaf's MCV and priority tie, so only the task id orders them."""
    leaves = [f"t{i}" for i in (3, 1, 4, 0, 2)]
    return make_app([make_task("root")] + [make_task(t) for t in leaves],
                    [make_edge("root", t) for t in leaves])


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_placing_order_matches_the_two_step_reference(seed):
    from conftest import make_graph
    from fogsched.simkit import baseline_order
    from fogsched.workload import WorkloadConfig, generate_workload
    graph = make_graph(fn_caps=[(100, 1000), (8, 800), (8, 800), (8, 800)],
                       clusters=[0, 0, 1, 1], fci_links=[(0, 1)])
    cfg = WorkloadConfig(app_count=4, tasks_per_app=(2, 12),
                         link_probability=0.4, max_total_tasks=100)
    for app in [tied_app(), *generate_workload(cfg, graph, seed)]:
        for q in (order_tasks(app, graph),
                  baseline_order(app, "priority", seed),
                  baseline_order(app, "random", seed)):
            assert q.levels == two_step_placing_order(app, q.mcv)


def test_tied_scores_refuse_reversing_an_ascending_level(two_cluster_graph):
    # Reversing a level sorted by (mcv, id) breaks ties by descending id;
    # the placing order breaks them by ascending id.
    app = tied_app()
    q = order_tasks(app, two_cluster_graph)
    assert q.levels == [["root"], ["t0", "t1", "t2", "t3", "t4"]]
    reversed_ascending = [sorted(lv, key=lambda t: (q.mcv[t], t))[::-1]
                          for lv in q.levels]
    assert reversed_ascending != two_step_placing_order(app, q.mcv)


def kahn_levels(app):
    """Test-only copy of the Kahn levelling task_levels used to run: parent
    lists, remaining child counts and a sorted frontier of leaves."""
    children = app.children()
    level = {}
    remaining = {t.id: len(children[t.id]) for t in app.tasks}
    parents = {t: [] for t in remaining}
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
    levels = [[] for _ in range(depth)]
    for t in app.tasks:
        levels[depth - 1 - level[t.id]].append(t.id)
    return levels


@st.composite
def shuffled_dags(draw):
    """A DAG on tasks t0..t{n-1}, edges only from lower to higher index,
    with its task and edge lists shuffled."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [pair for pair in pairs if draw(st.booleans())]
    order = draw(st.permutations(range(n)))
    edges = draw(st.permutations(edges))
    return (make_app([make_task(f"t{i}") for i in order],
                     [make_edge(f"t{i}", f"t{j}") for i, j in edges]), edges)


@given(dag=shuffled_dags(), back=st.integers(0, 1_000))
@settings(max_examples=200, deadline=None)
def test_levels_match_kahn_in_any_task_order(dag, back):
    app, edges = dag
    assert task_levels(app) == kahn_levels(app)
    if edges:
        # reverse a path i -> ... -> j by adding j -> i: a cycle
        i, j = edges[back % len(edges)]
        app.edges.append(make_edge(f"t{j}", f"t{i}"))
        with pytest.raises(OrderingError, match="cycle"):
            task_levels(app)


@pytest.mark.parametrize("listed", ["parents first", "children first"])
def test_long_chain_needs_no_recursion(listed):
    ids = [f"t{i}" for i in range(5_000)]
    tasks = [make_task(t) for t in ids]
    if listed == "children first":
        tasks.reverse()
    app = make_app(tasks, [make_edge(a, b) for a, b in zip(ids, ids[1:])])
    assert task_levels(app) == [[t] for t in ids]


@pytest.mark.parametrize("weights,delta", [
    (THIRDS, 0.001),
    (Weights(w1=0.2, w2=0.3, w3=0.5, omega_c=0.3, omega_m=0.7), 0.01)])
def test_scoring_loop_matches_the_helpers(weights, delta):
    """order_tasks scores each task bit for bit as the exported helpers do,
    and levels it as placing_queue over task_levels does."""
    import dataclasses
    from fogsched.cli import preset_config
    from fogsched.ordering import placing_queue
    from fogsched.topology import build_graph
    from fogsched.workload import generate_workload
    env, wl = preset_config("large-default")
    graph = build_graph(env, 42)
    apps = generate_workload(dataclasses.replace(wl, app_count=300), graph, 42)
    assert len(apps) == 300
    for app in apps:
        q = order_tasks(app, graph, weights, delta)
        m_hat = normalize_makespan(app)
        p_hat = normalize_priority(app)
        r_hat = normalize_resource(app, graph, weights)
        children = app.children()
        want = {t.id: mean_critical_value(
                    critical_value(m_hat[t.id], p_hat[t.id], r_hat[t.id],
                                   weights),
                    len(children[t.id]), delta)
                for t in app.tasks}
        assert list(q.mcv.items()) == list(want.items())
        assert q.levels == placing_queue(task_levels(app), want).levels
