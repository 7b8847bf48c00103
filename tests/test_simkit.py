"""Experiment runner: admission/release accounting, baselines, fluctuation."""

import gc
import logging
import random

import pytest

from fogsched import simkit
from fogsched.ordering import order_tasks, task_levels
from fogsched.placement import Envelope, ResourceMatrix, herafc_place
from fogsched.simkit import (ALGORITHMS, ExperimentConfig, FluctuationConfig,
                             SimError, apply_fluctuation, baseline_cloud_first,
                             baseline_order, run_experiment, run_replication,
                             time_algorithms)
from fogsched.topology import EnvConfig, build_graph
from fogsched.workload import Application, WorkloadConfig, generate_workload

from conftest import CLOUD_ID, fn, make_app, make_edge, make_graph, make_task


SMALL_ENV = dict(fns=6, fcis=2, cpu=(4, 8), mem_mb=(500, 1000),
                 fci_link_probability=0.5)
SMALL_WL = dict(app_count=40, tasks_per_app=(2, 8), cpu=(1, 3),
                mem_mb=(100, 400), makespan_ms=(100, 500),
                link_probability=0.3, max_total_tasks=400)


def small_cfg(**overrides):
    params = dict(env=EnvConfig(**SMALL_ENV), workload=WorkloadConfig(**SMALL_WL),
                  algorithm="herafc", admission_interval_ms=50.0, seed=7)
    params.update(overrides)
    return ExperimentConfig(**params)


class TestRunExperiment:
    def test_deterministic(self):
        a = run_experiment(small_cfg()).to_dict()
        b = run_experiment(small_cfg()).to_dict()
        for report in (a, b):  # wall-clock timings legitimately vary
            for rep in report["replications"]:
                rep.pop("timings")
        assert a == b

    def test_zero_apps_zero_utilization(self):
        cfg = small_cfg(workload=WorkloadConfig(
            **{**SMALL_WL, "app_count": 0}))
        report = run_experiment(cfg)
        assert report.fog_util == {k: 0.0 for k in report.fog_util}
        assert report.cloud_util == {k: 0.0 for k in report.cloud_util}
        (rep,) = report.replications
        assert rep.timings["per_app_avg_ms"] == 0.0

    def test_percentages_bounded_and_shares_sum_to_100(self):
        (rep,) = run_experiment(small_cfg()).replications
        for bucket in (rep.fog_util, rep.cloud_util):
            for value in bucket.values():
                assert 0.0 <= value <= 100.0
        for p in range(1, 6):
            total = rep.fog_share_by_priority[p] + rep.cloud_share_by_priority[p]
            assert total == pytest.approx(100.0) or total == 0.0

    def test_replications_use_distinct_seeds(self):
        report = run_experiment(small_cfg(replications=3))
        seeds = [rep.seed for rep in report.replications]
        assert seeds == [7, 8, 9]
        utils = {round(rep.fog_util["cpu"], 6) for rep in report.replications}
        assert len(utils) > 1

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SimError):
            small_cfg(algorithm="round-robin")

    def test_every_algorithm_runs(self):
        for algo in ALGORITHMS:
            report = run_experiment(small_cfg(algorithm=algo))
            assert report.replications[0].revocation_count == 0

    def test_conservation_checked_every_app(self):
        # stricter cadence exercises the double-entry audit at every instant
        run_replication(small_cfg(), seed=7, conservation_check_every=1)

    def test_conservation_audit_catches_a_dropped_release(self, monkeypatch):
        release, dropped = ResourceMatrix.release, []

        def drop_one(rm, envelope):
            if dropped or not any(envelope.parts()):
                release(rm, envelope)
            else:
                dropped.append(envelope)

        monkeypatch.setattr(ResourceMatrix, "release", drop_one)
        with pytest.raises(SimError, match="conservation violated") as info:
            run_replication(small_cfg(), seed=7, conservation_check_every=1)
        assert gc.isenabled()  # the paused collector is back on
        (envelope,) = dropped
        assert any(f" on {key} {kind}: " in str(info.value)
                   for kind, amounts in zip(("cpu", "mem", "bw"),
                                            envelope.parts())
                   for key in amounts)

    def test_conservation_audit_catches_a_skipped_hold(self, monkeypatch):
        hold, skipped = ResourceMatrix.hold, []

        def skip_one(rm, envelope):
            if skipped or not any(envelope.parts()):
                hold(rm, envelope)
            else:
                skipped.append(envelope)

        monkeypatch.setattr(ResourceMatrix, "hold", skip_one)
        with pytest.raises(SimError, match="conservation violated") as info:
            run_replication(small_cfg(), seed=7, conservation_check_every=1)
        (envelope,) = skipped
        assert any(f" on {key} {kind}: " in str(info.value)
                   for kind, amounts in zip(("cpu", "mem", "bw"),
                                            envelope.parts())
                   for key in amounts)

    def test_each_app_is_freed_once_decided(self, monkeypatch):
        # At the k-th decision (from 0) only the app being decided and the
        # N - k - 1 still pending are alive: nothing keeps a decided app.
        place, alive = simkit.herafc_place, []

        def applications():
            return sum(isinstance(o, Application) for o in gc.get_objects())

        def counting(*args):
            alive.append(applications() - before)
            return place(*args)

        monkeypatch.setattr(simkit, "herafc_place", counting)
        cfg = small_cfg(workload=WorkloadConfig(**{**SMALL_WL,
                                                   "app_count": 30}))
        gc.collect()
        before = applications()
        run_replication(cfg, seed=7)
        assert alive == [30 - k for k in range(30)]

    @pytest.mark.parametrize("fluctuation", [None, (0.1, (0.3, 0.9))],
                             ids=["steady", "fluctuating"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_replication_leaves_no_cyclic_garbage(self, algorithm,
                                                  fluctuation, monkeypatch,
                                                  caplog):
        # run_replication pauses the cyclic collector, which is sound only
        # while nothing a replication makes (progress logging included)
        # forms a reference cycle: reference counting must free it all.
        monkeypatch.setattr(simkit, "PROGRESS_EVERY", 10)
        caplog.set_level(logging.INFO, logger="fogsched.simkit")
        cfg = small_cfg(algorithm=algorithm, emit_objective=True,
                        fluctuation=fluctuation and FluctuationConfig(
                            *fluctuation))
        gc.collect()
        gc.disable()
        try:
            run_replication(cfg, seed=7)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert any("apps admitted" in r.getMessage() for r in caplog.records)

    def test_collector_paused_for_the_whole_replication(self, monkeypatch):
        seen = []

        def recording(fn):
            def wrapper(*args):
                seen.append(gc.isenabled())
                return fn(*args)
            return wrapper

        for name in ("generate_workload", "herafc_place"):
            monkeypatch.setattr(simkit, name, recording(getattr(simkit, name)))
        assert gc.isenabled()
        run_replication(small_cfg(), seed=7)
        assert gc.isenabled()
        assert len(seen) == 1 + SMALL_WL["app_count"] and not any(seen)
        gc.disable()  # a caller's disabled collector stays disabled
        try:
            run_replication(small_cfg(), seed=7)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_logs_progress_every_interval(self, monkeypatch, caplog):
        monkeypatch.setattr(simkit, "PROGRESS_EVERY", 10)
        caplog.set_level(logging.INFO, logger="fogsched.simkit")
        cfg = small_cfg(workload=WorkloadConfig(**{**SMALL_WL,
                                                   "app_count": 30}))
        run_replication(cfg, seed=7)
        progress = [r for r in caplog.records if "admitted" in r.msg]
        assert [r.args for r in progress] == [(7, k, 30) for k in (10, 20, 30)]
        assert [r.getMessage() for r in progress] == [
            f"replication seed 7: {k} of 30 apps admitted" for k in (10, 20, 30)]

    def test_run_builds_no_fci_distance_maps(self, monkeypatch):
        graphs = []

        def capture(env, seed):
            graphs.append(build_graph(env, seed))
            return graphs[-1]

        monkeypatch.setattr(simkit, "build_graph", capture)
        run_replication(small_cfg(), seed=7)
        (graph,) = graphs
        assert graph._stages_cache
        assert graph._fci_dist_cache == {}

    def test_per_tier_utilization_is_exact(self, monkeypatch):
        # app-0 holds 4 cpu on fog-0 and 100 on the cloud for 0-400 ms, and
        # 50 Mbps on fog-0's FCI link (fog) and that FCI's cloud link
        # (cloud); app-1 holds 2 cpu on fog-1 for 100-300 ms.
        graph = make_graph(fn_caps=[(10, 1000), (10, 1000)], clusters=[0, 1],
                           fci_links=[(0, 1)])
        apps = [make_app([make_task("a", cpu=4, makespan=100.0),
                          make_task("b", cpu=100, makespan=300.0)],
                         [make_edge("a", "b", bw=50.0)], home=fn(0),
                         app_id="app-0"),
                make_app([make_task("c", cpu=2, makespan=200.0)], home=fn(1),
                         app_id="app-1")]
        monkeypatch.setattr(simkit, "build_graph", lambda env, seed: graph)
        monkeypatch.setattr(simkit, "generate_workload",
                            lambda cfg, graph, seed: apps)
        rep = run_replication(small_cfg(admission_interval_ms=100.0), seed=7)
        assert (rep.placed_fog, rep.placed_cloud) == (2, 1)
        assert list(rep.fog_util) == list(rep.cloud_util) == [
            "cpu", "mem", "bw", "cpu_peak", "mem_peak", "bw_peak"]
        # fog: cpu 20, mem 2000, bw 350 + 350 + 500; cloud: cpu 10**6,
        # mem 10**9, bw 800 + 800.
        assert rep.fog_util == pytest.approx(
            {"cpu": 25.0, "mem": 7.5, "bw": 100.0 * 50 / 1200,
             "cpu_peak": 30.0, "mem_peak": 10.0, "bw_peak": 100.0 * 50 / 1200},
            rel=1e-12)
        assert rep.cloud_util == pytest.approx(
            {"cpu": 0.01, "mem": 1e-5, "bw": 3.125,
             "cpu_peak": 0.01, "mem_peak": 1e-5, "bw_peak": 3.125}, rel=1e-12)

    def test_latency_entries_expose_sample_counts(self):
        (rep,) = run_experiment(small_cfg()).replications
        for entry in rep.latency_by_priority.values():
            for tier in ("fog", "cloud"):
                if entry[f"{tier}_avg_ms"] is None:
                    assert entry[f"{tier}_n"] == 0
                else:
                    assert entry[f"{tier}_n"] > 0


class TestBaselineOrder:
    def leveled_app(self):
        return make_app(
            [make_task("a", priority=1), make_task("b", priority=5),
             make_task("c", priority=3), make_task("root", priority=2)],
            [make_edge("root", "a"), make_edge("root", "b"),
             make_edge("root", "c")], home=fn(0))

    def test_priority_kind_consumes_high_priority_first(self):
        app = self.leveled_app()
        q = baseline_order(app, "priority", seed=1)
        assert q.levels[0] == ["root"]
        # stored in placing order: highest priority first
        task_by_id = app.task_by_id()
        assert [task_by_id[t].priority for t in q.levels[1]] == [5, 3, 1]

    def test_level_structure_matches_precedence(self):
        app = self.leveled_app()
        q = baseline_order(app, "random", seed=1)
        assert [sorted(l) for l in q.levels] == \
               [sorted(l) for l in task_levels(app)]

    def test_random_kind_reproducible(self):
        app = self.leveled_app()
        assert baseline_order(app, "random", seed=9).levels == \
               baseline_order(app, "random", seed=9).levels

    def test_random_kind_varies_with_seed(self):
        app = make_app([make_task(f"t{i}") for i in range(8)],
                       [make_edge("t0", f"t{i}") for i in range(1, 8)],
                       home=fn(0))
        perms = {tuple(baseline_order(app, "random", seed=s).levels[1])
                 for s in range(10)}
        assert len(perms) > 1
        assert all(baseline_order(app, "random", seed=s).levels[0] == ["t0"]
                   for s in range(10))

    def test_single_task_level_unchanged(self):
        app = make_app([make_task("only")], home=fn(0))
        for kind in ("priority", "random"):
            assert baseline_order(app, kind, seed=3).levels == [["only"]]

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimError):
            baseline_order(self.leveled_app(), "fifo", seed=1)


class TestBaselineCloudFirst:
    def test_home_first_then_cloud(self):
        g = make_graph(fn_caps=[(3, 300), (50, 5000)], clusters=[0, 0])
        app = make_app(
            [make_task("a", cpu=2, mem=100), make_task("b", cpu=2, mem=100)],
            [make_edge("a", "b", bw=20.0)], home=fn(0))
        got = baseline_cloud_first(app, g, ResourceMatrix.from_graph(g))
        locs = set(got.task_locations.values())
        assert locs == {fn(0), CLOUD_ID}  # never the sibling FN

    def test_full_home_sends_everything_to_cloud(self):
        g = make_graph(fn_caps=[(3, 300)], clusters=[0])
        rm = ResourceMatrix.from_graph(g)
        rm.hold(Envelope(cpu={fn(0): 3.0}, mem={fn(0): 300.0}))
        app = make_app(
            [make_task("a", cpu=1, mem=50), make_task("b", cpu=1, mem=50)],
            [make_edge("a", "b", bw=20.0)], home=fn(0))
        got = baseline_cloud_first(app, g, rm)
        assert set(got.task_locations.values()) == {CLOUD_ID}

    def test_deterministic(self):
        g = make_graph(fn_caps=[(3, 300), (8, 800)], clusters=[0, 0])
        app = make_app(
            [make_task("a", cpu=2, mem=100), make_task("b", cpu=2, mem=100)],
            [make_edge("a", "b", bw=20.0)], home=fn(0))
        rm = ResourceMatrix.from_graph(g)
        assert baseline_cloud_first(app, g, rm).to_dict() == \
               baseline_cloud_first(app, g, rm).to_dict()


def test_home_fn_unused_exactly_when_nothing_fits_it():
    # The home FN is every task's first candidate and each level starts from
    # the matrix as passed, so one pass leaves it unused exactly when no task
    # of the app fits it there; home_pin_infeasible records that.
    graph = build_graph(EnvConfig(**SMALL_ENV), seed=1)
    algorithms = {
        "herafc": lambda app, rm: herafc_place(app, graph, rm,
                                               order_tasks(app, graph)),
        "cloud-first": lambda app, rm: baseline_cloud_first(app, graph, rm)}
    for name, place in algorithms.items():
        rm = ResourceMatrix.from_graph(graph)
        outcomes = set()
        for app in generate_workload(WorkloadConfig(**SMALL_WL), graph, 3):
            fits_home = any(rm.fits(t, app.home_fn) for t in app.tasks)
            got = place(app, rm)
            assert got.pinned_task is None
            home_used = app.home_fn in got.task_locations.values()
            assert got.home_pin_infeasible == (not home_used), name
            assert home_used == fits_home, name
            outcomes.add(home_used)
            rm.hold(got.envelope)  # never released: the home FNs fill up
        assert outcomes == {True, False}, name


class TestApplyFluctuation:
    def test_identity_range_is_noop(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        before = dict(rm.effective.cpu)
        apply_fluctuation(rm,
                          FluctuationConfig(interval_s=1.0,
                                            availability_range=(1.0, 1.0)),
                          random.Random(1))
        assert rm.effective.cpu == before

    def test_samples_within_range(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        fluct = FluctuationConfig(interval_s=1.0,
                                  availability_range=(0.3, 0.7))
        rng = random.Random(2)
        for _ in range(50):
            apply_fluctuation(rm, fluct, rng)
            for node, cap in rm.capacity.cpu.items():
                assert 0.3 * cap - 1e-9 <= rm.effective.cpu[node] <= 0.7 * cap + 1e-9

    def test_holds_never_revoked(self, two_cluster_graph):
        rm = ResourceMatrix.from_graph(two_cluster_graph)
        rm.hold(Envelope(cpu={fn(0): 40.0}, mem={fn(0): 400.0}))
        fluct = FluctuationConfig(interval_s=1.0,
                                  availability_range=(0.01, 0.2))
        rng = random.Random(3)
        for _ in range(50):
            apply_fluctuation(rm, fluct, rng)
            assert rm.effective.cpu[fn(0)] >= 40.0
            assert rm.effective.mem[fn(0)] >= 400.0
            assert rm.residual_cpu(fn(0)) >= 0.0

    def test_invalid_range_rejected(self):
        with pytest.raises(SimError):
            FluctuationConfig(interval_s=1.0, availability_range=(0.0, 0.5))
        with pytest.raises(SimError):
            FluctuationConfig(interval_s=0.0, availability_range=(0.5, 0.9))

    def test_fluctuating_run_has_zero_revocations(self):
        cfg = small_cfg(fluctuation=FluctuationConfig(
            interval_s=0.2, availability_range=(0.3, 0.9)))
        (rep,) = run_experiment(cfg).replications
        assert rep.revocation_count == 0

    def test_hold_above_capacity_after_fluctuation_is_counted(self,
                                                              monkeypatch):
        real = simkit.apply_fluctuation
        squeezed = []

        def squeeze(rm, *args, **kwargs):
            # Shrink one held node's cpu below its hold, as a fluctuation
            # without the clamp would.
            real(rm, *args, **kwargs)
            for node, held in rm.held.cpu.items():
                if held > 0:
                    rm.effective.cpu[node] = held / 2
                    squeezed.append(node)
                    break
            return rm

        monkeypatch.setattr(simkit, "apply_fluctuation", squeeze)
        cfg = small_cfg(fluctuation=FluctuationConfig(
            interval_s=0.2, availability_range=(0.3, 0.9)))
        rep = run_replication(cfg, seed=7)
        assert squeezed
        assert rep.revocation_count == len(squeezed)


class TestTimeAlgorithms:
    def test_sweep_counts_and_ratio_sanity(self):
        cfg = small_cfg(workload=WorkloadConfig(
            **{**SMALL_WL, "app_count": 20, "tasks_per_app": (4, 4),
               "max_total_tasks": 2000}))
        records = time_algorithms(cfg, app_counts=(20, 40))
        assert [r["app_count"] for r in records] == [20, 40]
        for r in records:
            assert r["place_total_s"] > r["order_total_s"] > 0.0

    def test_zero_apps_zero_totals(self):
        cfg = small_cfg(workload=WorkloadConfig(
            **{**SMALL_WL, "app_count": 0}))
        (record,) = time_algorithms(cfg, app_counts=(0,))
        assert record["order_total_s"] == 0.0
        assert record["place_total_s"] == 0.0
