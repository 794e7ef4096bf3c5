"""Smoke test: every workload runs briefly, traced and untraced, checks its
outcomes and prints the result line ``BENCHMARK.json`` promises.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
Takes about a minute, mostly the HTTP workload's server set-ups.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload: str, trace: int) -> None:
    done = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    *_, details, last = done.stdout.strip().splitlines()
    meta = json.loads(details)["meta"]
    assert {"python", "cryptography", "nproc", "git_rev", "seed"} <= set(meta)
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_units_match_spec() -> None:
    assert tracing.LAYER_UNITS == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_fails_without_toolkit_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "post-signon", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_children() -> None:
    # parent 0..10 ms holds children 1..3 ms and 4..8 ms
    ms = 1_000_000
    spans = [
        ("outer", 0, 10 * ms, -1, 0, 0),
        ("inner", 1 * ms, 3 * ms, 0, 0, 0),
        ("inner", 4 * ms, 8 * ms, 0, 0, 0),
    ]
    table = tracing.SpanTable(spans)
    assert table.p50_self("outer") == pytest.approx(4.0)
    assert table.p50_total("outer") == pytest.approx(10.0)
    assert table.calls("inner") == 2
