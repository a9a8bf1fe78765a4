"""Tests of the benchmark itself, on tiny problem sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

import layers
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(capsys, workload: str, trace: int, seconds: float = 0.3):
    code = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", str(seconds), "--trace", str(trace)],
        size="tiny",
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_spec_matches_the_program():
    assert SPEC["workloads"] and {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.LAYER_METRICS


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_and_prints_every_metric_with_its_unit(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1 + trace
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for name, unit in run.PRINTED_ONLY.items():
            assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines)
    assert any(line.startswith("failed_frac = 0 ") for line in lines)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_layer_self_times_account_for_the_operation(workload):
    wl = workloads.WORKLOADS[workload](5, "tiny")
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        wl.setup()
        wl.prepare()
        result, root = tracer.root("op", wl.op)
        warm, warm_root = tracer.root("warm", wl.warm, result)
    finally:
        tracer.uninstall()
        wl.cleanup()
    assert wl.check(result, warm) == []
    main = threading.get_ident()
    covered = 0.0
    for r in (root, warm_root):
        layer_self = sum(s.self_s for s in r.spans if s.thread == main)
        assert all(s.self_s >= 0.0 for s in r.spans)
        assert layer_self + r.self_s == pytest.approx(r.wall, rel=1e-9)
        covered += layer_self
    assert covered >= 0.95 * (root.wall + warm_root.wall)


def test_tracer_is_removed_after_a_traced_run(capsys):
    from repro.operators.fmmp import Fmmp
    from repro.service import pool

    before = (Fmmp.matvec, pool.execute_job)
    _run(capsys, "pi-fmmp-nu20", 1)
    assert (Fmmp.matvec, pool.execute_job) == before


def test_corrupted_result_counts_as_failed(capsys, monkeypatch):
    solve = workloads.PiFmmp.op

    def corrupted(self):
        result = solve(self)
        result.eigenvalue *= 1.0 + 1e-6
        return result

    monkeypatch.setattr(workloads.PiFmmp, "op", corrupted)
    code, lines, result = _run(capsys, "pi-fmmp-nu20", 0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("failed_frac = 1 ") for line in lines)


def test_raising_operation_counts_as_failed(capsys, monkeypatch):
    def broken(self):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.BlockPower, "op", broken)
    code, _, result = _run(capsys, "block-nu18-b16", 0)
    assert code != 0
    assert result["failed"] == result["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    bench = os.path.join(ROOT, "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "pi-fmmp-nu20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_names_its_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (
        3.0, "max of 3 (fewer than 11 samples: no percentile has 10 beyond it)"
    )
    value, label = run.tail([float(i) for i in range(30)])
    assert value == 19.0 and sum(1 for i in range(30) if i > value) == 10
    assert label.startswith("p66.7 of 30")
