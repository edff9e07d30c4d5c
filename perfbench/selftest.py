"""Self-test of the benchmark, at tiny sizes.

Run from the checkout root (takes about 20 seconds)::

    python3 -m pytest -q perfbench/selftest.py

Checks that every workload prints each metric ``BENCHMARK.json`` names,
with its unit, in both modes; that a deliberately corrupted program
output is counted as a failure; and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import common, run  # noqa: E402  (needs src on the path)
from perfbench.inputs import CrowdShape, FaninShape  # noqa: E402
from perfbench.workloads import crowd_stream, paper_eval, sensor_fanin  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = "0.1"


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink every workload's inputs; the metric set stays the same."""
    monkeypatch.setattr(paper_eval, "SCALE", 0.25)
    monkeypatch.setattr(paper_eval, "SETUP_REPEATS", 2)
    monkeypatch.setattr(
        crowd_stream,
        "SHAPE",
        CrowdShape(population=120, unknown_pool=30, active_known=30,
                   active_unknown=10, windows=3, training_segments=2),
    )
    monkeypatch.setattr(
        sensor_fanin, "SHAPE", FaninShape(frames_per_sensor=3000, span_s=60.0)
    )


def run_benchmark(capsys, workload: str, trace: int) -> dict:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", TINY_SECONDS,
         "--trace", str(trace)]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    result = run_benchmark(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, metric["name"]
    if trace and workload != "sensor-fanin":
        # Layer self times plus the unaccounted remainder are the wall time.
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(
            v for k, v in metrics.items()
            if k.endswith("_s") and not k.startswith("trace.")
        )
        round_s = metrics["trace.round_s"]
        unaccounted = metrics["trace.unaccounted_share"] * round_s
        assert layers + unaccounted == pytest.approx(round_s, rel=1e-6)


def _corrupt_child(original, mutate):
    def corrupted(ctx, spec):
        result = original(ctx, spec)
        mutate(result["rounds"][-1])
        return result

    return corrupted


def _wrong_cell(round_result):
    round_result["cells"]["interarrival"][0] += 1e-9


def _wrong_window(round_result):
    window = sorted(round_result["digests"])[0]
    round_result["digests"][window] = "0" * 64


@pytest.mark.parametrize(
    "module, mutate",
    [(paper_eval, _wrong_cell), (crowd_stream, _wrong_window)],
    ids=["paper-eval", "crowd-stream"],
)
def test_corrupted_output_is_a_failure(capsys, monkeypatch, module, mutate):
    monkeypatch.setattr(
        module, "run_child", _corrupt_child(common.run_child, mutate)
    )
    workload = module.__name__.rpartition(".")[2].replace("_", "-")
    result = run_benchmark(capsys, workload, 0)
    assert result["failed"] >= 1 and result["correct"] is False
    assert result["metrics"]["success_ratio"]["value"] < 1.0


def test_corrupted_store_is_a_failure(capsys, monkeypatch):
    import repro.persistence

    original = repro.persistence.load_database

    def drop_one_device(path):
        loaded = original(path)
        loaded.database.remove(loaded.database.devices[0])
        return loaded

    monkeypatch.setattr(repro.persistence, "load_database", drop_one_device)
    result = run_benchmark(capsys, "sensor-fanin", 0)
    assert result["failed"] >= 1 and result["correct"] is False
    assert result["metrics"]["success_ratio"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "paper-eval", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
