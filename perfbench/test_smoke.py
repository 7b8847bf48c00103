"""Smoke test of the benchmark harness on tiny inputs.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

The workloads are shrunk (preset scale 0.01/0.02, 4 oracle instances) and
their output hashes recorded on the fly, so the test checks the harness,
not fogsched's numbers.
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import run
from spans import Patcher, Tracer

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
_RECORDED: dict = {}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload; record its output hashes once per test run."""
    monkeypatch.setitem(harness.SIM_ARGS, "herafc-full",
                        ["--preset", "large-default", "--scale", "0.01",
                         "--algo", "herafc"])
    monkeypatch.setitem(harness.SIM_ARGS, "cloudfirst-fluct",
                        ["--preset", "large-default", "--scale", "0.02",
                         "--algo", "cloud-first", "--fluctuate-interval",
                         "0.01", "--fluctuate-range", "0.3,0.9"])
    monkeypatch.setattr(harness, "ORACLE_BLOCK_SIZE", 4)
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0.0)
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path)
    if not _RECORDED:
        monkeypatch.setattr(harness, "expected_digest", lambda *key: None)
        for name in harness.WORKLOADS:
            rep = harness.run_rep(name, seed=2, tag="record")
            _RECORDED[(name, rep.input_id)] = rep.digest
    recorded = dict(_RECORDED)
    monkeypatch.setattr(harness, "expected_digest",
                        lambda name, input_id: recorded.get((name, input_id)))
    return recorded


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_traced_and_untraced_outputs_hash_the_same(tiny, name):
    plain = harness.run_rep(name, seed=2, tag="plain")
    tracer = Tracer("smoke")
    traced = harness.run_rep(name, seed=2, tracer=tracer, tag="traced")
    assert plain.errors == [] and traced.errors == []
    assert plain.digest == traced.digest == tiny[(name, plain.input_id)]
    assert plain.outcomes == traced.outcomes
    assert len(tracer.start) > 0


def test_output_change_fails_every_operation(tiny, monkeypatch, capsys):
    key = next(k for k in tiny if k[0] == "cloudfirst-fluct")
    tiny[key] = "0" * 64
    code = run.main(["--workload", "cloudfirst-fluct", "--seed", "2",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_patched_attributes_are_restored(tiny):
    before = harness.namespace_fingerprint()
    harness.run_rep("herafc-full", seed=2, tracer=Tracer("smoke"), tag="t")
    assert harness.namespace_fingerprint() == before

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    from fogsched import placement, simkit
    original = placement.herafc_place
    with pytest.raises(RuntimeError):
        with Patcher() as patcher:
            patcher.function(placement, "herafc_place", lambda fn: boom)
            patcher.method(placement.ResourceMatrix, "from_graph",
                           lambda fn: boom)
            assert simkit.herafc_place is boom
            simkit.herafc_place()
    assert simkit.herafc_place is original is placement.herafc_place
    assert harness.namespace_fingerprint() == before


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed_with_its_unit(tiny, capsys, trace,
                                                          section):
    for name in harness.WORKLOADS:
        code = run.main(["--workload", name, "--seed", "2", "--seconds", "0",
                         "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0 and result["correct"] is True
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1 and result["failed"] == 0
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())


def test_fails_without_fogsched_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "herafc-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
