"""Command-line interface: exit codes, output files, CSV reshaping."""

import contextlib
import csv
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fogsched
from fogsched import cli
from fogsched.cli import (CSV_HEADER, config_hash, main, preset_config,
                          _parse_weights)
from fogsched.placement import PlacementError, ResourceMatrix
from fogsched.topology import EnvConfig, GraphConfigError
from fogsched.workload import (WorkloadConfig, application_to_dict,
                               load_application)

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

    @pytest.mark.parametrize("doc,field,value", [
        ("workload", "app_count", "5"), ("workload", "app_count", True),
        ("workload", "cpu", [1.5, 4]), ("env", "fns", "x"),
        ("env", "cloud_cpu", "x"), ("env", "fns", True),
        ("env", "fcis", False)])
    def test_mistyped_config_field(self, doc, field, value, tmp_path, capsys):
        env = {**ENV_DOC, field: value} if doc == "env" else ENV_DOC
        wl = {**WL_DOC, field: value} if doc == "workload" else WL_DOC
        assert main(["run", "--env", write_json(tmp_path / "env.json", env),
                     "--workload", write_json(tmp_path / "wl.json", wl),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("doc,field", [
        ("env", "bw_fn_fci_mbps"), ("env", "cpu"),
        ("workload", "makespan_ms"), ("workload", "cpu")])
    def test_range_int_beyond_float_refused(self, doc, field, tmp_path, capsys):
        # 10**400 has no float: it would overflow wherever it meets one
        value = [1, 10**400]
        env = {**ENV_DOC, field: value} if doc == "env" else ENV_DOC
        wl = {**WL_DOC, field: value} if doc == "workload" else WL_DOC
        assert main(["run", "--env", write_json(tmp_path / "env.json", env),
                     "--workload", write_json(tmp_path / "wl.json", wl),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"error: {field} must lie within the float range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        b'{"fns": 4, "fcis": 2, "cpu": [1, 1' + b"0" * 5000 + b"]}",
        b'{"fns": 4, "fcis": 2, "bw_fn_fci_mbps": [1, 2]',
        b'{"fns": "\xff"}'])
    def test_unreadable_config_json_refused(self, text, configs, tmp_path,
                                            capsys):
        # an int of over 4300 digits and bad UTF-8 raise ValueError, not
        # JSONDecodeError, inside json.load
        env = tmp_path / "env.json"
        env.write_bytes(text)
        assert main(["run", "--env", str(env), "--workload", configs[1],
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"error: {env}: " in err and "Traceback" not in err

    def test_integral_float_range_writes_same_metrics(self, configs, tmp_path):
        metrics = []
        for name, cpu in (("ints", [1, 4]), ("floats", [1.0, 4.0])):
            wl = write_json(tmp_path / f"{name}.json", {**WL_DOC, "cpu": cpu})
            assert main(run_args((configs[0], wl), tmp_path / name)) == 0
            metrics.append((tmp_path / name / "metrics.csv").read_bytes())
        assert metrics[0] == metrics[1]

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

    def test_metrics_identical_across_hash_seeds(self, tmp_path):
        # Node ids hash strings, so set order differs between the two
        # processes: no set iteration may reach an output.
        env = write_json(tmp_path / "env.json",
                         {**ENV_DOC, "fns": 12, "fcis": 5,
                          "fci_link_probability": 0.6})
        configs = (env, write_json(tmp_path / "wl.json", WL_DOC))
        src = str(Path(fogsched.__file__).resolve().parents[1])

        def metrics(hash_seed, out):
            subprocess.run(
                [sys.executable, "-m", "fogsched.cli",
                 *run_args(configs, out, "--fluctuate-interval", "0.1",
                           "--fluctuate-range", "0.3,0.9")],
                check=True, capture_output=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": hash_seed})
            return (out / "metrics.csv").read_bytes()

        assert metrics("0", tmp_path / "a") == metrics("1", tmp_path / "b")

    def test_logs_each_replication_start_and_end(self, configs, tmp_path,
                                                 caplog):
        caplog.set_level(logging.INFO, logger="fogsched.simkit")
        assert main(run_args(configs, tmp_path / "o",
                             "--replications", "2")) == 0
        records = [r.getMessage() for r in caplog.records
                   if r.name == "fogsched.simkit"]
        assert len(records) == 4
        assert records[0] == "replication seed 42: herafc starts"
        assert records[1].startswith("replication seed 42: 15 apps, ")
        assert records[2] == "replication seed 43: herafc starts"
        assert records[3].startswith("replication seed 43: 15 apps, ")

    def test_info_logging_leaves_metrics_unchanged(self, configs, tmp_path,
                                                   monkeypatch, caplog):
        assert main(run_args(configs, tmp_path / "quiet")) == 0
        monkeypatch.setenv("FOGSCHED_LOG", "INFO")
        caplog.set_level(logging.INFO, logger="fogsched.simkit")
        assert main(run_args(configs, tmp_path / "info")) == 0
        assert any(r.name == "fogsched.simkit" for r in caplog.records)
        assert ((tmp_path / "info" / "metrics.csv").read_bytes()
                == (tmp_path / "quiet" / "metrics.csv").read_bytes())

    @pytest.mark.parametrize("level", ["bogus", ""])
    def test_unknown_log_level_exits_2(self, level, configs, tmp_path):
        # A subprocess: under pytest the root logger already has handlers,
        # so basicConfig would not look at the level in-process.
        src = str(Path(fogsched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "fogsched.cli",
             *run_args(configs, tmp_path / "o")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "FOGSCHED_LOG": level})
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: FOGSCHED_LOG {level!r} ")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_emit_objective(self, configs, tmp_path):
        out = tmp_path / "out"
        assert main(run_args(configs, out, "--emit-objective")) == 0
        doc = json.loads((out / "objective.json").read_text())
        assert doc["replications"][0]["seed"] == 42

    def test_bad_weights(self, configs, tmp_path):
        assert main(run_args(configs, tmp_path / "o",
                             "--weights", "0.5,0.5,0.5")) == 2

    def test_config_error_printed_once(self, configs, tmp_path):
        # A child process: there, as in a shell, a log record would reach
        # the same stderr as the printed message.
        bad = {**ENV_DOC, "fns": -1}
        with pytest.raises(GraphConfigError) as info:
            EnvConfig.from_dict(bad)
        src = str(Path(fogsched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "fogsched.cli", "run",
             "--env", write_json(tmp_path / "bad.json", bad),
             "--workload", configs[1], "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr.count(str(info.value)) == 1
        assert "Traceback" not in proc.stderr

    def test_internal_invariant_failure_exits_5(self, configs, tmp_path,
                                                capsys, monkeypatch):
        # Held amounts never released fail the end-of-run conservation audit.
        monkeypatch.setattr(ResourceMatrix, "release",
                            lambda self, envelope: None)
        assert main(run_args(configs, tmp_path / "o")) == 5
        err = capsys.readouterr().err
        assert "internal error: conservation violated" in err
        assert "Traceback" not in err


RUN_FLOAT_FLAGS = ("--scale", "--delta", "--big-delta", "--fluctuate-interval",
                   "--admission-interval")


# Values that do not belong in a config field: wrong types, negatives, and
# ints beyond the float range. A count within the float range but huge
# (fns = 2**40) is valid input that runs for as long as it asks to.
_JUNK = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                  st.lists(st.integers(-3, 3), max_size=3),
                  st.integers(-10**6, -1), st.just(10**400))
_FLAG_VALUES = {
    "--scale": ["0.5", "0", "-2", "1e308", "nan", "x"],
    "--seed": ["-7", str(2**70), "1.5", "x"],
    "--fluctuate-range": ["1,0.5", "0,1", "-1,2", "nan,1", "0.5", "a,b", ""],
}
_VALID_FLAGS = {"--scale": "1", "--seed": "0", "--fluctuate-range": "0.5,1"}


@st.composite
def _one_change(draw):
    """The tiny valid run with one change: a config document field dropped
    or given a junk value, or one flag given an odd value."""
    env, wl, flags = dict(ENV_DOC), dict(WL_DOC), dict(_VALID_FLAGS)
    target = draw(st.sampled_from(["env", "workload", *flags]))
    if target in flags:
        flags[target] = draw(st.sampled_from(_FLAG_VALUES[target]))
        return env, wl, flags
    doc, cls = (env, EnvConfig) if target == "env" else (wl, WorkloadConfig)
    name = draw(st.sampled_from(sorted(set(doc) | set(cls.__dataclass_fields__))))
    if draw(st.booleans()):
        doc.pop(name, None)
    else:
        doc[name] = draw(_JUNK)
    return env, wl, flags


@given(case=_one_change())
@example(case=(ENV_DOC, WL_DOC, _VALID_FLAGS))
@settings(max_examples=50, deadline=None)
def test_malformed_input_exits_with_a_documented_code(case):
    """In-process runs of mutated config documents and flag values end in
    a documented exit code, never in an exception."""
    env, wl, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = ["run", "--env", write_json(tmp / "env.json", env),
                "--workload", write_json(tmp / "wl.json", wl),
                "--out", str(tmp / "out"), "--fluctuate-interval", "1"]
        for flag, value in flags.items():
            argv.append(f"{flag}={value}")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()


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

    def test_placement_error_exits_5(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise PlacementError("hold would overdraw fog-0")

        monkeypatch.setattr(cli, "exhaustive_place", broken)
        code = main(["oracle", "--app", self.app_doc(tmp_path),
                     "--env", self.env_file(tmp_path), "--seed", "1"])
        assert code == 5
        err = capsys.readouterr().err
        assert "internal error: hold would overdraw" in err
        assert "Traceback" not in err

    def test_readme_example_app_loads_and_runs(self, tmp_path, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8").split("Application JSON:")[1]
        doc = json.loads(text.split("```json")[1].split("```")[0])
        app = load_application(doc)
        assert [t.id for t in app.tasks] == ["a", "b"]
        code = main(["oracle", "--app", write_json(tmp_path / "app.json", doc),
                     "--env", self.env_file(tmp_path), "--seed", "1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is True

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

    @pytest.mark.parametrize("part,field,value", [
        ("tasks", "cpu", "1"), ("tasks", "cpu", True),
        ("tasks", "makespan_ms", float("nan")),
        ("edges", "bandwidth_mbps", "fast")])
    def test_non_number_field_exit_code(self, part, field, value, tmp_path,
                                        capsys):
        app = tmp_path / "app.json"
        doc = json.loads(Path(self.app_doc(tmp_path)).read_text())
        doc[part][0][field] = value
        write_json(app, doc)
        code = main(["oracle", "--app", str(app),
                     "--env", self.env_file(tmp_path), "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert (f"{field} must be a finite number" in err
                and "Traceback" not in err)

    @pytest.mark.parametrize("part,value,message", [
        ("tasks", [1], "tasks[0] must be an object"),
        ("tasks", 5, "tasks must be a list of objects"),
        ("edges", ["x"], "edges[0] must be an object")])
    def test_malformed_shape_exit_code(self, part, value, message, tmp_path,
                                       capsys):
        doc = json.loads(Path(self.app_doc(tmp_path)).read_text())
        doc[part] = value
        code = main(["oracle", "--app", write_json(tmp_path / "bad.json", doc),
                     "--env", self.env_file(tmp_path), "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

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

    @pytest.mark.parametrize("row, message", [
        (b"cpu_util,fog,,10,abc,1", "value 'abc' is not a finite number"),
        (b"cpu_util,fog,,10,nan,1", "value 'nan' is not a finite number"),
        (b"cpu_util,fog,,10", "expected 6 fields"),
        (b"cpu_util,fog,,10,\xff\xfe,1", "not UTF-8"),
        (b"cpu_util,fog,,10," + b"1" * 200_000 + b",1", "field limit"),
    ], ids=["non-numeric", "nan", "short", "not-utf8", "huge-field"])
    def test_malformed_row_exits_2(self, row, message, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(",".join(CSV_HEADER).encode() + b"\n"
                        + b"cpu_util,fog,,10,1.5,1\n" + row + b"\n")
        assert main(["plotdata", "--input", str(bad), "--fig", "util-fog",
                     "--out", str(tmp_path / "fig")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:3: ")
        assert message in err
        assert "Traceback" not in err

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
