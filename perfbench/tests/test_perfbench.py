"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``).

Smoke runs shrink each pinned workload to a short horizon; they exercise
the real child processes, checks and metric tables.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def short(name: str):
    """The pinned workload at a smoke-test size."""
    w = WORKLOADS[name]
    if w.kind == "serve":
        return dataclasses.replace(
            w, horizon=400.0, train_duration=200.0, requests=150
        )
    return dataclasses.replace(w, horizon=40.0, train_duration=200.0)


@pytest.fixture
def two_repeats(monkeypatch):
    """Two repeats of one input: the second must repeat the first."""
    monkeypatch.setattr(run, "INPUTS_PER_RUN", 1)
    monkeypatch.setattr(run, "MIN_REPEATS", 2)


def test_spec_matches_the_harness():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert metric["unit"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_reports_every_end_to_end_metric(name, tmp_path, two_repeats):
    result = run.measure(short(name), 5, 0.0, tmp_path)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == 2
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_reports_every_layer_metric(name, tmp_path):
    result = run.traced(short(name), 5, tmp_path)
    assert result["failed"] == 0, result["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["telemetry.emits"] == 0
    assert m["events.fired"] > 0
    if WORKLOADS[name].kind == "serve":
        assert m["serving.submit_calls"] == short(name).requests
    else:
        assert m["serving.submit_calls"] == 0


def test_broken_conservation_count_fails_the_run(tmp_path, two_repeats,
                                                 monkeypatch):
    read = run.read_result

    def drop_one_completion(path):
        result = read(path)
        app = next(iter(result["counters"]))
        result["counters"][app]["completed"] -= 1
        return result

    monkeypatch.setattr(run, "read_result", drop_one_completion)
    result = run.measure(short("corun-mixed-smiless"), 5, 0.0, tmp_path)
    assert result["failed"] == result["attempted"] == 2
    assert "conservation broken" in result["failures"][0]
    assert result["metrics"] == {}


def test_rescale_uses_the_units_around_each_block():
    ref = speed.REF_UNIT_S
    clock = {"block": 2, "units": [ref, 2 * ref, 2 * ref], "paused": 0.0}
    # Block 0 by unit 0; block 1 by units 0 and 1; block 2 by units 1, 2.
    assert speed.rescale([1.0, 1.0, 3.0, 3.0, 4.0], clock) == pytest.approx(
        [1.0, 1.0, 2.0, 2.0, 2.0]
    )
    assert speed.factor([ref / 2, ref / 2]) == pytest.approx(2.0)


def test_stability_guard():
    run.check_stable([3, 5, 4, 6])
    run.check_stable([40, 90, 80, 60])
    run.check_stable([44, 37, 46, 94])  # drift swing on a stable co-run
    with pytest.raises(run.CheckFailed, match="grow"):
        run.check_stable([10, 50, 400, 3000])


def test_cli_refuses_a_tree_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "corun-mixed-smiless", "--seed", "1",
                     "--seconds", "1"]) == 2
