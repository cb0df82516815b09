"""Tests of the benchmark itself, at the tiny scale.

    python -m pytest perfbench

Each workload must pass on the unmodified library, and must count a
failure when an expected value is wrong or a netlist is faulty.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(tmp_path: Path, workload: str, trace: bool = False, lib_hook=None) -> dict:
    return run.run_workload(workload, seed=7, seconds=0, trace=trace, workdir=tmp_path,
                            scale="tiny", lib_hook=lib_hook)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_passes_and_reports_every_end_to_end_metric(tmp_path, workload):
    record = _tiny(tmp_path, workload)
    assert record["failures"] == []
    line = run.result_line(record)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(line["metrics"]) == names
    for m in BENCHMARK["end_to_end"]:
        reported = line["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert reported["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    record = _tiny(tmp_path, workload, trace=True)
    line = run.result_line(record)
    assert line["correct"]
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: metric["unit"] for name, metric in line["metrics"].items()
    }
    assert record["lists"]["traced"] >= 1 and record["lists"]["untraced"] >= 1


def test_traced_counts_are_exact(tmp_path):
    sweep = _tiny(tmp_path / "s", "sweep", trace=True)["metrics"]
    # compare: 4 archs x 2^9 cases; two probes and the mutant: 2^9 each.
    assert sweep["verify.cases"]["value"] == 7 * 2**9
    assert sweep["netlist.eval_calls"]["value"] == 7
    analyze = _tiny(tmp_path / "a", "analyze", trace=True)["metrics"]
    assert analyze["netlist.eval_calls"]["value"] == 0
    assert analyze["netlist.timing_passes"]["value"] == 2 * 3  # two per delay_report
    assert analyze["builders.gates"]["value"] == 2 * (68 + 61 + 80)  # analyze and build


@pytest.mark.parametrize("workload,op,field", [
    ("sweep", "compare", "stdout"),
    ("random", "verify_rca", "cases"),
    ("analyze", "analyze_cla", "delay"),
    ("analyze", "build_rca", "json_sha256"),
])
def test_wrong_expected_value_counts_as_failure(tmp_path, monkeypatch, workload, op, field):
    monkeypatch.setitem(workloads.EXPECTED["tiny"][op], field, "wrong")
    record = _tiny(tmp_path, workload)
    assert record["fail_rate"] > 0
    assert not run.result_line(record)["correct"]
    assert any(f.startswith(f"{op}: {field}: expected 'wrong'") for f in record["failures"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fault_injected_netlist_counts_as_failure(tmp_path, workload):
    def inject(lib):
        build_rca = lib.builders.build_rca
        lib.builders.build_rca = lambda width, **kw: build_rca(width, **kw).with_gate_kind(
            1, lib.GateKind.XOR)

    record = _tiny(tmp_path, workload, lib_hook=inject)
    assert record["fail_rate"] > 0
    assert any("rca" in f for f in record["failures"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0]) == (90.0, 3.0)
    samples = [float(i) for i in range(1, 201)]
    assert run.tail(samples) == (95.0, 190.0)


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
