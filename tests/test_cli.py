"""Command-line interface: exit codes, output files, CSV reshaping."""

import csv
import json
from pathlib import Path

import pytest

from fogsched.cli import (CSV_HEADER, config_hash, main, preset_config,
                          _parse_weights)
from fogsched.workload import application_to_dict

from conftest import fn, make_app, make_edge, make_task


ENV_DOC = {"fns": 6, "fcis": 2, "cpu": [4, 8], "mem_mb": [500, 1000],
           "fci_link_probability": 0.5}
WL_DOC = {"app_count": 15, "tasks_per_app": [2, 6], "cpu": [1, 3],
          "mem_mb": [100, 400], "makespan_ms": [100, 500],
          "link_probability": 0.3, "max_total_tasks": 200}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def configs(tmp_path):
    return (write_json(tmp_path / "env.json", ENV_DOC),
            write_json(tmp_path / "wl.json", WL_DOC))


def run_args(configs, out, *extra):
    env, wl = configs
    return ["run", "--env", env, "--workload", wl, "--out", str(out),
            "--admission-interval", "50", *extra]


class TestRun:
    def test_writes_all_outputs(self, configs, tmp_path):
        out = tmp_path / "out"
        assert main(run_args(configs, out)) == 0
        with open(out / "metrics.csv", newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == CSV_HEADER
            assert len(list(reader)) > 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["replications"]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(manifest["config"])
        assert manifest["seed"] == 42
        assert sorted(manifest["outputs"]) == \
               ["metrics.csv", "summary.json", "timings.csv"]

    def test_missing_out_flag(self, configs):
        env, wl = configs
        assert main(["run", "--env", env, "--workload", wl]) == 2

    def test_bad_config_value(self, configs, tmp_path):
        env = write_json(tmp_path / "bad.json", {**ENV_DOC, "fns": -1})
        assert main(["run", "--env", env, "--workload", configs[1],
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("value", [[3], [1, 2, 3], 3])
    def test_range_not_a_pair(self, value, configs, tmp_path, capsys):
        wl = write_json(tmp_path / "bad.json", {**WL_DOC, "tasks_per_app": value})
        assert main(["run", "--env", configs[0], "--workload", wl,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "[min, max] pair" in err and "Traceback" not in err

    def test_unknown_config_key(self, configs, tmp_path):
        env = write_json(tmp_path / "bad.json", {**ENV_DOC, "nodes": 5})
        assert main(["run", "--env", env, "--workload", configs[1],
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, configs, tmp_path):
        assert main(["run", "--env", str(tmp_path / "absent.json"),
                     "--workload", configs[1],
                     "--out", str(tmp_path / "o")]) == 3

    def test_reruns_are_byte_identical(self, configs, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(run_args(configs, a)) == 0
        assert main(run_args(configs, b)) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_emit_objective(self, configs, tmp_path):
        out = tmp_path / "out"
        assert main(run_args(configs, out, "--emit-objective")) == 0
        doc = json.loads((out / "objective.json").read_text())
        assert doc["replications"][0]["seed"] == 42

    def test_bad_weights(self, configs, tmp_path):
        assert main(run_args(configs, tmp_path / "o",
                             "--weights", "0.5,0.5,0.5")) == 2


RUN_FLOAT_FLAGS = ("--scale", "--delta", "--big-delta", "--fluctuate-interval",
                   "--admission-interval")


class TestNonFiniteFloatFlags:
    """Every float flag refuses NaN and +-inf at parse time: exit code 2,
    an argparse message and no traceback. So does a finite --scale whose
    preset counts overflow."""

    def assert_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", RUN_FLOAT_FLAGS)
    def test_run_flags(self, flag, value, tmp_path, capsys):
        self.assert_refused(["run", "--preset", "large-default",
                             f"{flag}={value}", "--out", str(tmp_path / "o")],
                            capsys)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_oracle_scale(self, value, tmp_path, capsys):
        self.assert_refused(["oracle", "--app", str(tmp_path / "app.json"),
                             "--preset", "large-default", f"--scale={value}"],
                            capsys)

    def test_overflowing_scale_refused(self, tmp_path, capsys):
        assert main(["run", "--preset", "large-default", "--scale", "1e308",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "overflows" in err and "Traceback" not in err

    def test_non_number_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "large-default", "--scale", "big",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not a number" in err and "Traceback" not in err


class TestOracle:
    def app_doc(self, tmp_path, n_tasks=2):
        tasks = [make_task(f"t{i}", cpu=1, mem=100) for i in range(n_tasks)]
        edges = [make_edge("t0", f"t{i}", bw=5.0) for i in range(1, n_tasks)]
        app = make_app(tasks, edges, home=fn(0))
        return write_json(tmp_path / "app.json", application_to_dict(app))

    def env_file(self, tmp_path):
        return write_json(tmp_path / "env.json",
                          {"fns": 4, "fcis": 2, "cpu": [4, 8],
                           "mem_mb": [1000, 2000],
                           "fci_link_probability": 0.5})

    def test_compare_reports_gap_at_least_one(self, tmp_path, capsys):
        code = main(["oracle", "--app", self.app_doc(tmp_path),
                     "--env", self.env_file(tmp_path), "--seed", "1",
                     "--compare-herafc"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is True
        assert doc["heuristic_gap"] >= 1.0

    def test_out_file(self, tmp_path):
        out = tmp_path / "oracle.json"
        code = main(["oracle", "--app", self.app_doc(tmp_path),
                     "--env", self.env_file(tmp_path), "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["feasible"] is True

    @pytest.mark.parametrize("part,field", [("tasks", "cpu"),
                                            ("edges", "max_latency_ms")])
    def test_missing_field_exit_code(self, part, field, tmp_path, capsys):
        app = tmp_path / "app.json"
        doc = json.loads(Path(self.app_doc(tmp_path)).read_text())
        del doc[part][0][field]
        write_json(app, doc)
        code = main(["oracle", "--app", str(app),
                     "--env", self.env_file(tmp_path), "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"missing {part[:-1]} fields" in err and "Traceback" not in err

    def test_oversize_instance_exit_code(self, tmp_path):
        code = main(["oracle", "--app", self.app_doc(tmp_path, n_tasks=8),
                     "--env", self.env_file(tmp_path), "--seed", "1"])
        assert code == 4

    def test_limit_flags_lift_refusal(self, tmp_path):
        code = main(["oracle", "--app", self.app_doc(tmp_path, n_tasks=8),
                     "--env", self.env_file(tmp_path), "--seed", "1",
                     "--max-tasks", "8", "--max-nodes", "7",
                     "--out", str(tmp_path / "o.json")])
        assert code == 0

    def test_home_fn_absent_from_env(self, tmp_path):
        env = write_json(tmp_path / "tiny.json",
                         {"fns": 1, "fcis": 1, "cpu": [4, 8],
                          "mem_mb": [1000, 2000]})
        app = make_app([make_task("a")], home=fn(3))
        doc = write_json(tmp_path / "app.json", application_to_dict(app))
        assert main(["oracle", "--app", doc, "--env", env]) == 2


class TestPlotdata:
    @pytest.fixture
    def metrics(self, configs, tmp_path):
        out = tmp_path / "run"
        assert main(run_args(configs, out)) == 0
        return str(out / "metrics.csv")

    def read(self, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            return next(reader), list(reader)

    def test_share_by_priority(self, metrics, tmp_path):
        out = tmp_path / "fig"
        assert main(["plotdata", "--input", metrics,
                     "--fig", "share-by-priority", "--out", str(out)]) == 0
        header, rows = self.read(out / "share-by-priority.csv")
        assert header == ["app_count", "priority", "fog_pct", "cloud_pct"]
        for row in rows:
            assert 0.0 <= float(row[2]) <= 100.0
            assert float(row[2]) + float(row[3]) == pytest.approx(100.0)

    def test_util_fog(self, metrics, tmp_path):
        out = tmp_path / "fig"
        assert main(["plotdata", "--input", metrics, "--fig", "util-fog",
                     "--out", str(out)]) == 0
        header, rows = self.read(out / "util-fog.csv")
        assert header == ["app_count", "resource", "util_pct"]
        assert {r[1] for r in rows} == \
               {"cpu", "mem", "bw", "cpu_peak", "mem_peak", "bw_peak"}

    def test_timing_family_reads_timings_csv(self, metrics, tmp_path):
        timings = metrics.replace("metrics.csv", "timings.csv")
        # averaging a file with itself must equal the single-file average
        doubled, single = tmp_path / "doubled", tmp_path / "single"
        assert main(["plotdata", "--input", timings, "--input", timings,
                     "--fig", "timing", "--out", str(doubled)]) == 0
        assert main(["plotdata", "--input", timings, "--fig", "timing",
                     "--out", str(single)]) == 0
        assert (doubled / "timing.csv").read_bytes() == \
               (single / "timing.csv").read_bytes()
        header, rows = self.read(single / "timing.csv")
        assert header == ["app_count", "metric", "value"]
        assert {r[1] for r in rows} == \
               {"order_total_s", "place_total_s", "per_app_avg_ms"}

    def test_unknown_figure(self, metrics, tmp_path):
        assert main(["plotdata", "--input", metrics, "--fig", "heatmap",
                     "--out", str(tmp_path / "fig")]) == 2

    def test_wrong_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["plotdata", "--input", str(bad), "--fig", "util-fog",
                     "--out", str(tmp_path / "fig")]) == 2

    def test_no_matching_rows_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_HEADER) + "\n")
        assert main(["plotdata", "--input", str(empty), "--fig", "util-fog",
                     "--out", str(tmp_path / "fig")]) == 2

    def test_order_ablation_carries_algorithm(self, metrics, tmp_path):
        out = tmp_path / "fig"
        assert main(["plotdata", "--input", metrics, "--fig",
                     "order-ablation", "--out", str(out)]) == 0
        header, rows = self.read(out / "order-ablation.csv")
        assert header == ["app_count", "algorithm", "computing_util_pct"]
        assert rows[0][1] == "herafc"


class TestHelpers:
    def test_config_hash_key_order_invariant(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == \
               config_hash({"b": [2, 3], "a": 1})

    def test_config_hash_value_sensitive(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_parse_weights(self):
        w = _parse_weights("0.5,0.3,0.2")
        assert (w.w1, w.w2, w.w3) == (0.5, 0.3, 0.2)

    def test_parse_weights_rejections(self):
        from fogsched.cli import CliConfigError
        for text in ("0.5,0.5", "0.9,0.2,0.2", "a,b,c"):
            with pytest.raises(CliConfigError):
                _parse_weights(text)

    def test_preset_scaling(self):
        env, wl = preset_config("large-default", scale=0.01)
        assert env.fns == 5 and env.fcis == 2
        assert wl.app_count == 100

    def test_unknown_preset(self):
        from fogsched.cli import CliConfigError
        with pytest.raises(CliConfigError):
            preset_config("table9")
