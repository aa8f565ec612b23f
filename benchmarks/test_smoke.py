"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest benchmarks/test_smoke.py

Not part of the tier-1 suite, which collects only tests/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMON = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "failed_share": "ratio"}
WORKLOAD_METRICS = {
    "group-law": {"compose_per_s": "1/s", "compose_p50_ms": "ms", "compose_p99_ms": "ms"},
    "coset-orders": {"cosets_per_s": "1/s"},
    "certify-sweep": {"triples_per_s": "1/s", "triple_p50_ms": "ms", "triple_p99_ms": "ms"},
}


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, trace: int, root: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _parse(stdout: str):
    head, last = stdout.rstrip().rsplit("\n", 1)
    return json.loads(head), json.loads(last)


@pytest.mark.parametrize("workload", sorted(WORKLOAD_METRICS))
def test_end_to_end_metrics_and_hash(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    report, summary = _parse(proc.stdout)
    assert summary["correct"] is True
    assert report["digest_check"] == "match"
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in _bench()["end_to_end"]
    }
    for name, unit in {**COMMON, **WORKLOAD_METRICS[workload]}.items():
        assert report["metrics"][name]["unit"] == unit, name
    assert report["provenance"]["loop"] == "single process, one thread, closed loop"


@pytest.mark.parametrize("workload", sorted(WORKLOAD_METRICS))
def test_per_layer_metrics(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    report, summary = _parse(proc.stdout)
    assert summary["correct"] is True
    assert report["digest_check"] == "match"
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in _bench()["per_layer"]
    }


def test_failures_are_tail_step_limit_failures():
    report, summary = _parse(_run("certify-sweep", 0).stdout)
    assert summary["correct"] is True
    assert set(report["failures"]) <= {"RuntimeError"}
    assert summary["failed"] == report["inputs"]["tail_failed"] * report["passes"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("coset-orders", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
