"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root: ``python3 -m pytest benchmarks/test_smoke.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from run import WORKLOADS

RUN = Path(__file__).with_name("run.py")
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_prints_every_metric(trace, kind):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--scale", "tiny",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0
    printed = [line.split() for line in lines if line.startswith("  ")]
    names = {words[0] for words in printed}
    for metric in SPEC[kind]:
        assert metric["name"] in names
        for workload in WORKLOADS:
            entry = result["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float)), (workload, metric)
    assert "failed_share" in names
