"""Placement scoring and constraint checking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsched.objective import (EvaluationError, ObjectiveBreakdown,
                                ServerAssignment, SingleFogModel,
                                check_constraints, check_single_fog,
                                eval_mfc, eval_single_fog, kappa_floor)
from fogsched.ordering import order_tasks
from fogsched.placement import (Envelope, Placement, ResourceMatrix,
                                herafc_place)
from fogsched.topology import PhysicalPath

from conftest import CLOUD_ID, fn, make_app, make_edge, make_graph, make_task


def model(kappa=None):
    return SingleFogModel(
        cloud_residual={"c1": 50.0, "c2": 80.0},
        fog_residual={"f1": 50.0, "f2": 20.0},
        alpha={("c1", "c2"): 900.0, ("f1", "f2"): 350.0,
               ("c1", "f1"): 500.0},
        beta={("c1", "c2"): 5.0, ("f1", "f2"): 100.0},
        kappa=kappa,
    )


class TestKappaFloor:
    def test_max_intra_tier_latency(self):
        assert kappa_floor(model(kappa=101.0)) == 100.0

    def test_no_intra_pairs_floor_zero(self):
        m = SingleFogModel(cloud_residual={"c": 10.0},
                           fog_residual={"f": 10.0}, alpha={}, beta={})
        assert kappa_floor(m) == 0.0

    def test_default_kappa_just_above_floor(self):
        assert model().kappa == 101.0

    def test_kappa_at_or_below_floor_rejected(self):
        with pytest.raises(EvaluationError):
            model(kappa=100.0)


class TestEvalSingleFog:
    def test_fog_task_term(self):
        got = eval_single_fog(ServerAssignment({"t": "f1"}, []), model())
        assert got.task_terms["t"] == pytest.approx(0.5 / 50.0)

    def test_fog_costs_delta_times_cloud(self):
        m = model()
        fog = eval_single_fog(ServerAssignment({"t": "f1"}, []), m)
        cloud = eval_single_fog(ServerAssignment({"t": "c1"}, []), m)
        assert fog.total == pytest.approx(m.big_delta * cloud.total)

    def test_intra_fog_edge_term(self):
        got = eval_single_fog(
            ServerAssignment({"a": "f1", "b": "f2"}, [("a", "b")]), model())
        assert got.edge_latency_terms[("a", "b")] == pytest.approx(100.0)
        assert got.edge_bandwidth_terms[("a", "b")] == pytest.approx(1 / 350.0)

    def test_cross_tier_edge_uses_kappa(self):
        got = eval_single_fog(
            ServerAssignment({"a": "c1", "b": "f1"}, [("a", "b")]), model())
        assert got.edge_latency_terms[("a", "b")] == pytest.approx(101.0)

    def test_colocated_edge_costs_nothing(self):
        got = eval_single_fog(
            ServerAssignment({"a": "f1", "b": "f1"}, [("a", "b")]), model())
        assert got.edge_latency_terms[("a", "b")] == 0.0
        assert got.edge_bandwidth_terms[("a", "b")] == 0.0

    def test_unassigned_endpoint_rejected(self):
        with pytest.raises(EvaluationError):
            eval_single_fog(ServerAssignment({"a": "f1"}, [("a", "b")]), model())


class TestEvalMfc:
    def make_placement(self, graph, locations, paths=None):
        return Placement(app_id="x", home_fn=fn(0),
                         task_locations=dict(locations),
                         edge_paths=dict(paths or {}))

    def residuals(self, graph, cpu):
        rm = ResourceMatrix.from_graph(graph)
        for node, value in cpu.items():
            rm.hold(Envelope(cpu={node: rm.residual_cpu(node) - value}))
        return rm

    def test_home_vs_remote_task_terms(self, two_cluster_graph):
        rm = self.residuals(two_cluster_graph, {fn(0): 50.0, fn(2): 50.0})
        home = eval_mfc(self.make_placement(two_cluster_graph, {"t": fn(0)}),
                        two_cluster_graph, rm)
        remote = eval_mfc(self.make_placement(two_cluster_graph, {"t": fn(2)}),
                          two_cluster_graph, rm)
        assert home.task_terms["t"] == pytest.approx(0.01)
        assert remote.task_terms["t"] == pytest.approx(0.02)

    def test_edge_latency_adds_hops(self, two_cluster_graph):
        path = PhysicalPath(nodes=(fn(0), fn(0).__class__("fci", 0), fn(1)),
                            total_latency=225.0, min_bandwidth=350.0,
                            hop_count=1)
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        got = eval_mfc(self.make_placement(
            two_cluster_graph, {"a": fn(0), "b": fn(1)},
            {("a", "b"): path}), two_cluster_graph, rm)
        assert got.edge_latency_terms[("a", "b")] == pytest.approx(226.0)

    def test_same_node_edge_costs_nothing(self, two_cluster_graph):
        path = PhysicalPath(nodes=(fn(0),), total_latency=0.0,
                            min_bandwidth=float("inf"), hop_count=0)
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        got = eval_mfc(self.make_placement(
            two_cluster_graph, {"a": fn(0), "b": fn(0)},
            {("a", "b"): path}), two_cluster_graph, rm)
        assert got.edge_latency_terms[("a", "b")] == 0.0
        assert got.edge_bandwidth_terms[("a", "b")] == 0.0

    def test_rejected_or_unmapped_placement_not_scorable(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        bad = self.make_placement(two_cluster_graph, {})
        bad.rejected.append(("t", "full"))
        with pytest.raises(EvaluationError):
            eval_mfc(bad, two_cluster_graph, rm)

    def test_lower_residual_costs_more(self, two_cluster_graph):
        fat = self.residuals(two_cluster_graph, {fn(0): 80.0})
        thin = self.residuals(two_cluster_graph, {fn(0): 10.0})
        p = self.make_placement(two_cluster_graph, {"t": fn(0)})
        assert eval_mfc(p, two_cluster_graph, thin).total > \
               eval_mfc(p, two_cluster_graph, fat).total


class TestObjectiveBreakdown:
    @given(task=st.lists(st.floats(0.0, 10.0), max_size=6),
           lat=st.lists(st.floats(0.0, 500.0), max_size=6),
           bw=st.lists(st.floats(0.0, 1.0), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_total_is_sum_of_parts(self, task, lat, bw):
        b = ObjectiveBreakdown(
            task_terms={f"t{i}": v for i, v in enumerate(task)},
            edge_latency_terms={(f"a{i}", f"b{i}"): v
                                for i, v in enumerate(lat)},
            edge_bandwidth_terms={(f"c{i}", f"d{i}"): v
                                  for i, v in enumerate(bw)})
        assert b.total == pytest.approx(sum(task) + sum(lat) + sum(bw),
                                        abs=1e-9)


class TestCheckConstraints:
    def clean_run(self, two_cluster_graph):
        app = make_app(
            [make_task("a", cpu=2, mem=100), make_task("b", cpu=2, mem=100)],
            [make_edge("a", "b")], home=fn(0))
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        return app, herafc_place(app, two_cluster_graph, rm,
                                 order_tasks(app, two_cluster_graph))

    def test_heuristic_output_is_clean(self, two_cluster_graph):
        app, placement = self.clean_run(two_cluster_graph)
        assert check_constraints(placement, app, two_cluster_graph) == []

    def test_multiple_locations_flagged(self, two_cluster_graph):
        app, placement = self.clean_run(two_cluster_graph)
        placement.task_locations["a"] = [fn(0), fn(1)]
        codes = [c for c, _, _ in
                 check_constraints(placement, app, two_cluster_graph)]
        assert "one-location" in codes

    def test_node_id_is_one_location_list_is_two(self, two_cluster_graph):
        app, placement = self.clean_run(two_cluster_graph)
        placement.task_locations["a"] = fn(1)
        assert not any(c == "one-location" for c, _, _ in
                       check_constraints(placement, app, two_cluster_graph))
        placement.task_locations["a"] = [fn(0), fn(1)]
        assert ("one-location", "a", "task mapped to 2 locations") in \
            check_constraints(placement, app, two_cluster_graph)

    def test_missing_task_flagged(self, two_cluster_graph):
        app, placement = self.clean_run(two_cluster_graph)
        del placement.task_locations["b"]
        codes = [c for c, _, _ in
                 check_constraints(placement, app, two_cluster_graph)]
        assert "one-location" in codes

    def test_all_cloud_flags_home_rule(self, two_cluster_graph):
        app, placement = self.clean_run(two_cluster_graph)
        for t in placement.task_locations:
            placement.task_locations[t] = CLOUD_ID
        codes = [c for c, _, _ in
                 check_constraints(placement, app, two_cluster_graph)]
        assert "home-fn" in codes

    def test_home_rule_waived_when_infeasible(self, two_cluster_graph):
        app, placement = self.clean_run(two_cluster_graph)
        for t in placement.task_locations:
            placement.task_locations[t] = CLOUD_ID
        placement.home_pin_infeasible = True
        codes = [c for c, _, _ in
                 check_constraints(placement, app, two_cluster_graph)]
        assert "home-fn" not in codes

    def test_per_level_capacity_overflow_flagged(self):
        g = make_graph(fn_caps=[(3, 300)], clusters=[0])
        app = make_app(
            [make_task("a", cpu=2, mem=100), make_task("b", cpu=2, mem=100)],
            [make_edge("a", "b")], home=fn(0))
        placement = Placement(app_id=app.id, home_fn=fn(0),
                              task_locations={"a": fn(0), "b": fn(0)},
                              level_order=[["a", "b"]])
        codes = [c for c, _, _ in check_constraints(placement, app, g)]
        assert "capacity" in codes

    def test_sequential_levels_may_reuse_capacity(self):
        g = make_graph(fn_caps=[(3, 300)], clusters=[0])
        app = make_app(
            [make_task("a", cpu=2, mem=100), make_task("b", cpu=2, mem=100)],
            [make_edge("a", "b")], home=fn(0))
        placement = Placement(app_id=app.id, home_fn=fn(0),
                              task_locations={"a": fn(0), "b": fn(0)},
                              level_order=[["a"], ["b"]])
        placement.edge_paths[("a", "b")] = PhysicalPath(
            nodes=(fn(0),), total_latency=0.0, min_bandwidth=float("inf"),
            hop_count=0)
        assert check_constraints(placement, app, g) == []

    def test_latency_violation_reported_not_fatal(self, two_cluster_graph):
        app, placement = self.clean_run(two_cluster_graph)
        app.edges[0].max_latency = 0.001
        if placement.task_locations["a"] == placement.task_locations["b"]:
            placement.task_locations["b"] = fn(1)
            placement.edge_paths[("a", "b")] = PhysicalPath(
                nodes=(fn(0), fn(0).__class__("fci", 0), fn(1)),
                total_latency=120.0, min_bandwidth=350.0, hop_count=1)
        got = check_constraints(placement, app, two_cluster_graph)
        assert [c for c, _, _ in got] == ["edge-latency"]

    def test_single_fog_mode_unassigned_task(self):
        app = make_app([make_task("a")])
        got = check_single_fog(ServerAssignment({}, []), app, model())
        assert [c for c, _, _ in got] == ["one-location"]
