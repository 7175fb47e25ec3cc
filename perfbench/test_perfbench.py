"""Determinism, isolation and tracing checks of the flow benchmark.

Run from the repository root with ``python3 -m pytest perfbench`` (a few
minutes on two cores: every workload runs twice end to end).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from run import critical_work_s, waves
from spans import ROOT, SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SHM = "/dev/shm"

with open(os.path.join(REPO, "BENCHMARK.json")) as _f:
    WORKLOADS = [workload["name"] for workload in json.load(_f)["workloads"]]


def _session(sid: int) -> list:
    """Pids of the live processes in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    stat = f.read().rpartition(")")[2].split()
            except OSError:
                continue
            if int(stat[3]) == sid:
                members.append(int(entry))
    return members


def _run(workload: str, seed: int, cwd: str = REPO, check: bool = True):
    """Run the benchmark in a session of its own; every process it
    started must be gone when it exits."""
    args = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", "0"]
    with subprocess.Popen(args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        out, err = proc.communicate(timeout=600)
    assert _session(proc.pid) == []
    if check and proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, args, out, err)
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def _segments() -> set:
    if not os.path.isdir(SHM):
        return set()
    return {name for name in os.listdir(SHM) if name.startswith("repro_")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quality_is_bit_identical_and_runs_are_isolated(workload):
    top_level = set(os.listdir(REPO))
    segments = _segments()
    runs = []
    for _ in range(2):
        lines = [json.loads(line) for line in _run(workload, 5).stdout.splitlines()]
        result = lines[-1]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        runs.append(lines[-2]["quality"])
        assert result["metrics"]["hpwl"]["value"] == runs[-1]["hpwl"]
        assert result["metrics"]["routed_wl"]["value"] == runs[-1]["routed_wl"]
    # JSON floats round-trip exactly, so equality here is bit identity
    # (hpwl, routed_wl, hof, vof and best_loss).
    assert runs[0] == runs[1]
    # No artifact cache or prior store appears, and no shared-memory
    # segment or process outlives the run.
    assert set(os.listdir(REPO)) == top_level
    assert _segments() <= segments


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("flow_ct_top", 0, cwd=str(tmp_path), check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _Layer:
    def outer(self, inner):
        time.sleep(0.01)
        return inner()

    def inner(self):
        time.sleep(0.02)
        return None


def test_self_time_subtracts_wrapped_children():
    recorder = SpanRecorder([
        (_Layer, "outer", "core.outer", None),
        (_Layer, "inner", "router.inner",
         lambda counts, result: counts.__setitem__("found", result is not None)),
    ])
    original = vars(_Layer)["outer"]
    layer = _Layer()
    with recorder.installed():
        with recorder.span(ROOT):
            layer.outer(layer.inner)
    assert vars(_Layer)["outer"] is original
    per_name, per_layer, root_total = recorder.self_times()
    assert per_name["core.outer"][1] == per_name["router.inner"][1] == 1
    assert 0.008 < per_name["core.outer"][0] < 0.018
    assert 0.018 < per_name["router.inner"][0] < 0.03
    total = sum(per_layer.values())
    assert total == pytest.approx(root_total)
    assert per_layer["op"] < 0.005
    assert recorder.counts["found"] is False
    rows = recorder.to_records()
    assert [row[0] for row in rows] == [ROOT, "core.outer", "router.inner"]
    assert [row[3] for row in rows] == [-1, 0, 1]


class _Job:
    def __init__(self, submitted, started, finished, work):
        self.submitted_at = submitted
        self.started_at = started
        self.finished_at = finished
        self.result = {"place_seconds": work, "route": {"runtime": 0.5}}


class _Explore:
    def __init__(self, batch, traced):
        self.explorations = [(10.0, batch, traced)]


def test_critical_work_is_the_last_job_of_each_traced_wave():
    batch = [
        _Job(0.0, 0.0, 2.0, 1.0), _Job(0.0, 0.1, 3.0, 2.0),
        _Job(3.0, None, 4.0, 9.0),  # coalesced: never ran
        _Job(3.0, 3.0, 4.0, 3.0),
    ]
    assert [len(wave) for wave in waves(batch)] == [2, 2]
    assert critical_work_s(_Explore(batch, traced=True)) == 2.5 + 3.5
    assert critical_work_s(_Explore(batch, traced=False)) == 0.0
