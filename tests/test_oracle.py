"""Exhaustive small-instance optimizer vs the greedy heuristic."""

import hashlib
import json

import pytest

from fogsched import oracle
from fogsched.objective import eval_mfc
from fogsched.oracle import (OracleLimits, OracleSizeError,
                             compare_with_heuristic, exhaustive_place,
                             map_assignment_edges)
from fogsched.ordering import order_tasks, task_levels
from fogsched.placement import Envelope, ResourceMatrix, herafc_place
from fogsched.topology import EnvConfig, build_graph
from fogsched.workload import WorkloadConfig, generate_workload

from conftest import (fn, make_app, make_edge, make_graph, make_task,
                      matrix_state)


def tiny_graph(**kw):
    return make_graph(fn_caps=[(8, 800), (8, 800)], clusters=[0, 0], **kw)


class TestEnumeration:
    def test_one_task_three_locations(self):
        g = tiny_graph()
        app = make_app([make_task("a", cpu=2, mem=100)], home=fn(0))
        got = exhaustive_place(app, g, ResourceMatrix.from_graph(g))
        assert got.enumerated_count == 3
        assert got.feasible

    def test_two_tasks_nine_assignments(self):
        g = tiny_graph()
        app = make_app(
            [make_task("a", cpu=2, mem=100), make_task("b", cpu=2, mem=100)],
            [make_edge("a", "b")], home=fn(0))
        got = exhaustive_place(app, g, ResourceMatrix.from_graph(g))
        assert got.enumerated_count == 9

    def test_oversize_task_count_refused(self):
        g = tiny_graph()
        app = make_app([make_task(f"t{i}") for i in range(7)],
                       [make_edge(f"t{i}", f"t{i+1}") for i in range(6)],
                       home=fn(0))
        with pytest.raises(OracleSizeError):
            exhaustive_place(app, g, ResourceMatrix.from_graph(g))

    def test_oversize_node_count_refused(self):
        g = make_graph(fn_caps=[(8, 800)] * 6, clusters=[0] * 6)
        app = make_app([make_task("a")], home=fn(0))
        with pytest.raises(OracleSizeError):
            exhaustive_place(app, g, ResourceMatrix.from_graph(g))

    def test_limits_override(self):
        g = make_graph(fn_caps=[(8, 800)] * 6, clusters=[0] * 6)
        app = make_app([make_task("a", cpu=1, mem=50)], home=fn(0))
        got = exhaustive_place(app, g, ResourceMatrix.from_graph(g),
                               OracleLimits(max_tasks=6, max_nodes=7))
        assert got.enumerated_count == 7


class TestFeasibility:
    def test_capped_cloud_makes_infeasibility_reachable(self):
        g = tiny_graph(cloud_cpu=1, cloud_mem=100)
        app = make_app([make_task("a", cpu=50, mem=100)], home=fn(0))
        got = compare_with_heuristic(app, g, ResourceMatrix.from_graph(g))
        assert not got.feasible
        assert got.heuristic_feasible is False  # agreement on rejection

    def test_best_score_matches_reevaluation(self):
        g = tiny_graph()
        app = make_app(
            [make_task("a", cpu=2, mem=100), make_task("b", cpu=3, mem=200)],
            [make_edge("a", "b", bw=20.0)], home=fn(0))
        rm = ResourceMatrix.from_graph(g)
        got = exhaustive_place(app, g, rm)
        assert got.feasible
        rescored = eval_mfc(got.best_placement, g, rm)
        assert rescored.total == pytest.approx(got.best_score)

    def test_optimum_never_above_heuristic(self):
        g = tiny_graph()
        app = make_app(
            [make_task("a", cpu=2, mem=100, priority=5),
             make_task("b", cpu=3, mem=200, priority=1),
             make_task("c", cpu=1, mem=100, priority=3)],
            [make_edge("a", "b", bw=15.0), make_edge("a", "c", bw=10.0)],
            home=fn(0))
        got = compare_with_heuristic(app, g, ResourceMatrix.from_graph(g))
        assert got.feasible and got.heuristic_feasible
        assert got.heuristic_gap >= 1.0

    def test_deterministic(self):
        g = tiny_graph()
        app = make_app(
            [make_task("a", cpu=2, mem=100), make_task("b", cpu=3, mem=200)],
            [make_edge("a", "b", bw=20.0)], home=fn(0))
        rm = ResourceMatrix.from_graph(g)
        a = exhaustive_place(app, g, rm).to_dict()
        b = exhaustive_place(app, g, rm).to_dict()
        assert a == b


def heuristic_paths_remapped(app, graph, rm):
    """The heuristic's edge paths, and its assignment's edges mapped again."""
    heuristic = herafc_place(app, graph, rm, order_tasks(app, graph))
    remapped = map_assignment_edges(app, graph, rm, heuristic.task_locations,
                                    task_levels(app))
    return heuristic, remapped


class TestContendedEdgeMapping:
    """Link bandwidth below the app's total edge demand: the oracle maps each
    assignment's edges level by level on the caller's matrix."""

    def instance(self):
        # Every FN-FCI link carries 30 Mbps; each edge wants 20. Only the
        # root a fits the home FN, so the heuristic puts b and c on the
        # sibling. a->b is then mapped at b's level and a->c at c's: mapped
        # together, at a's level, they would not fit fog-0's one link.
        g = make_graph(fn_caps=[(2, 200), (8, 800)], clusters=[0, 0],
                       fn_fci_bw=30.0)
        app = make_app(
            [make_task("a", cpu=2, mem=100), make_task("b", cpu=3, mem=100),
             make_task("c", cpu=3, mem=100)],
            [make_edge("a", "b", bw=20.0), make_edge("b", "c", bw=20.0),
             make_edge("a", "c", bw=20.0)],
            home=fn(0))
        rm = ResourceMatrix.from_graph(g)
        # held values that are not round: 0.1 + 20 - 20 != 0.1
        rm.hold(Envelope(bw={key: 0.1 for key in rm.capacity.bw}))
        return g, app, rm

    def test_branch_taken_and_matrix_unchanged(self, monkeypatch):
        g, app, rm = self.instance()
        results = []

        def spy(*args):
            results.append(map_assignment_edges(*args))
            return results[-1]

        monkeypatch.setattr(oracle, "map_assignment_edges", spy)
        before = matrix_state(rm)
        got = compare_with_heuristic(app, g, rm)
        assert matrix_state(rm) == before
        assert any(r is None for r in results)      # some vector has no path
        assert any(r is not None for r in results)
        assert got.feasible and got.heuristic_feasible
        assert got.heuristic_gap >= 1.0 - 1e-9  # sums differ only in order

    def test_heuristic_assignment_maps_to_its_own_paths(self):
        g, app, rm = self.instance()
        heuristic, remapped = heuristic_paths_remapped(app, g, rm)
        assert not heuristic.rejected and not heuristic.unmapped
        assert any(len(p.nodes) > 1 for p in heuristic.edge_paths.values())
        assert list(remapped.items()) == list(heuristic.edge_paths.items())

    def test_generated_contended_instances(self):
        outcomes = set()
        for seed in range(1, 9):
            env = EnvConfig(fns=4, fcis=2, cpu=(2, 4), mem_mb=(1000, 2000),
                            bw_fn_fci_mbps=(20, 30), fci_link_probability=0.5)
            graph = build_graph(env, seed)
            cfg = WorkloadConfig(app_count=1, tasks_per_app=(3, 4),
                                 cpu=(1, 3), mem_mb=(100, 500),
                                 link_probability=0.6,
                                 edge_bandwidth_mbps=(10, 20),
                                 max_total_tasks=10)
            (app,) = generate_workload(cfg, graph, f"{seed}:wl")
            rm = ResourceMatrix.from_graph(graph)
            if (sum(e.bandwidth_demand for e in app.edges)
                    <= min(rm.residual_bw(k) for k in rm.capacity.bw)):
                continue
            before = matrix_state(rm)
            compare_with_heuristic(app, graph, rm)
            assert matrix_state(rm) == before
            heuristic, remapped = heuristic_paths_remapped(app, graph, rm)
            assert not heuristic.rejected
            if heuristic.unmapped:
                assert remapped is None
                outcomes.add("unmapped")
            else:
                assert list(remapped.items()) == \
                    list(heuristic.edge_paths.items())
                if any(len(p.nodes) > 1 for p in remapped.values()):
                    outcomes.add("routed")
        assert outcomes == {"unmapped", "routed"}


def criterion5_instance(seed):
    """Acceptance criterion 5's instance `seed`: app, graph and matrix."""
    env = EnvConfig(fns=4, fcis=2, cpu=(4, 8), mem_mb=(1000, 2000),
                    fci_link_probability=0.5)
    graph = build_graph(env, seed)
    cfg = WorkloadConfig(app_count=1, tasks_per_app=(2, 6), cpu=(1, 3),
                         mem_mb=(100, 500), makespan_ms=(500, 1000),
                         link_probability=0.3,
                         edge_bandwidth_mbps=(5, 20), max_total_tasks=10)
    (app,) = generate_workload(cfg, graph, f"{seed}:wl")
    return app, graph, ResourceMatrix.from_graph(graph)


def test_agreement_on_generated_instances():
    agreements = 0
    gaps = []
    for seed in range(1, 31):
        got = compare_with_heuristic(*criterion5_instance(seed))
        if got.feasible == got.heuristic_feasible:
            agreements += 1
        if got.heuristic_gap is not None:
            gaps.append(got.heuristic_gap)
    assert agreements == 30
    assert all(g >= 1.0 - 1e-9 for g in gaps)


def test_outcomes_pinned():
    """Scores, assignments and counts on criterion-5 instances 1-40 and on a
    contended instance, hashed; any change to the search's arithmetic or
    tie-break changes the hash."""
    instances = [(seed, *criterion5_instance(seed)) for seed in range(1, 41)]
    graph, app, rm = TestContendedEdgeMapping().instance()
    instances.append(("contended", app, graph, rm))
    records = []
    for label, app, graph, rm in instances:
        got = exhaustive_place(app, graph, rm)
        best = got.best_placement
        assignment = (None if best is None else
                      sorted((t, str(n)) for t, n in best.task_locations.items()))
        records.append([label, got.feasible, repr(got.best_score), assignment,
                        got.enumerated_count])
    digest = hashlib.sha256(
        json.dumps(records, separators=(",", ":")).encode()).hexdigest()
    # Recorded from the product-loop search; a search that replaces it must
    # reproduce these bytes.
    assert digest == ("9c1100923cbb2792543aa27185f71078"
                      "a0f400ca67949439c7344f66039534c3")
