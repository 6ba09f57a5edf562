"""Tests of the benchmark itself; run with `python3 -m pytest perfbench`."""
from __future__ import annotations

import copy
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PINS = json.loads((HERE / "pins.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_workload_counts_match_pins(name):
    summary = run.run(name, seed=0, seconds=0, trace=False, smoke=True)["summary"]
    assert summary["attempted_cases"] >= 1
    assert summary["failed_cases"] == 0


def test_every_case_is_pinned_or_refused_at_the_seed():
    unpinned = {entry["case"] for entry in PINS["unpinned"]}
    for name in workloads.WORKLOADS:
        for smoke in (False, True):
            for command in workloads.build_commands(name, random.Random(0), PINS, smoke):
                for key in command["cases"]:
                    assert key in PINS["counts"] or (
                        key in unpinned and command.get("status") == "refused"
                    ), key


def test_seed_fixes_the_order():
    first = workloads.build_commands("aut-heavy", random.Random(7), PINS)
    assert first == workloads.build_commands("aut-heavy", random.Random(7), PINS)
    assert first != workloads.build_commands("aut-heavy", random.Random(8), PINS)


def test_corrupted_pin_lands_in_failed_cases():
    pins = copy.deepcopy(PINS)
    (group,) = workloads.SMOKE_AUT
    key = workloads.case_key(pins["canonical"][group], 2)
    pins["counts"][key]["count"] = str(int(pins["counts"][key]["count"]) + 1)
    summary = run.run("aut-heavy", seed=0, seconds=0, trace=False, smoke=True,
                      pins=pins)["summary"]
    assert summary["failed_cases"] == summary["attempted_cases"] >= 1
    assert summary["reach_cases"] == 0


def test_refusal_lands_in_refused_cases_not_failed():
    summary = run.run("reach", seed=0, seconds=0, trace=False, smoke=True)["summary"]
    refused = sum(status == "refused" for *_, status in workloads.SMOKE_REACH)
    assert summary["refused_cases"] == refused >= 1
    assert summary["failed_cases"] == 0
    assert summary["reach_cases"] == len(workloads.SMOKE_REACH) - refused


def test_case_killed_at_deadline_is_neither_reached_nor_failed(monkeypatch):
    monkeypatch.setattr(run, "REACH_KILL_S", 0.2)
    command = workloads._count(PINS, "C12", 40)  # over 2 s at the seed
    command["status"] = "slow"
    result = run.run_pass("reach", [command], PINS, False, None, 0, time.monotonic())
    assert result["children"][0]["killed"]
    assert [case["status"] for case in result["cases"]] == ["killed"]
    summary = run.summarize("reach", [result])
    assert summary["reach_cases"] == 0
    assert summary["failed_cases"] == 0


def test_times_are_scaled_by_the_childs_calibration():
    commands = workloads.build_commands("cyclic-long-n", random.Random(0), PINS, smoke=True)
    result = run.run_pass("cyclic-long-n", commands, PINS, False, None, 0, time.monotonic())
    (child,) = result["children"]
    assert len(child["cal_s"]) == len(commands) + 1  # before the first command, after each
    scale = run.CAL_REF_S / statistics.median(child["cal_s"])
    assert result["wall_s"] == pytest.approx(result["raw_wall_s"] * scale)


def test_reach_rounds_repeat_only_cases_reached_at_the_seed():
    summary = run.run("reach", seed=0, seconds=3, trace=False, smoke=True)["summary"]
    reached = sum(status == "reached" for *_, status in workloads.SMOKE_REACH)
    assert summary["passes"] > 1
    assert summary["attempted_cases"] == len(workloads.SMOKE_REACH) + reached * (
        summary["passes"] - 1)
    assert summary["refused_cases"] == len(workloads.SMOKE_REACH) - reached
    assert summary["reach_cases"] == reached
    assert summary["failed_cases"] == 0


def test_untraced_result_line_has_every_end_to_end_metric():
    proc = _bench("--workload", "cyclic-long-n", "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
    for name in ("failed_cases", "refused_cases", "reach_cases", "wall_s", "raw_wall_s",
                 "raw_setup_s"):
        assert any(line.startswith(f"{name} ") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("name", ["oracle-scan", "reach"])
def test_traced_pass_reports_every_per_layer_metric(name, tmp_path):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1",
                  "--smoke", "--spans", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    metrics = _last_json(proc.stdout)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["cli.main.self_s"]["value"] > 0
    spans = [json.loads(line) for path in tmp_path.iterdir()
             for line in path.read_text().splitlines()]
    assert {"cli.main", "abelian.enumerate_automorphisms"} <= {s[0] for s in spans}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "reach", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
