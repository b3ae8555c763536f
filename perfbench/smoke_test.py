"""Smoke test of the benchmark at its smallest size (2 points per job).

Run from the root of a source checkout, in about a minute::

    python3 perfbench/smoke_test.py          # or: python3 -m pytest perfbench/smoke_test.py

It checks that every workload runs with and without tracing and passes its
correctness gate and wrapper coverage check.  It checks that the result
line names exactly the metrics of BENCHMARK.json, with their units.  It
also checks that the benchmark fails without a result in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "all", "--seed", "3", "--seconds", "1"]
    return subprocess.run(
        cmd + ["--trace", str(trace), "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def _check_result(trace: int, section: str):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    want = {
        f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[section]
    }
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, sorted(set(got) ^ set(want))


def test_end_to_end_metrics():
    _check_result(0, "end_to_end")


def test_per_layer_metrics_and_coverage():
    _check_result(1, "per_layer")


def test_bare_directory_fails_without_result():
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
