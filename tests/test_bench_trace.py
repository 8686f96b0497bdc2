"""The benchmark's traced round reads every per-layer metric.

bench/spans.py reads functions and memo tables of the engine by name.  A
refactor that renames or unwraps one of them leaves its metric null, and
the traced run then ends without a full result.  Installing the tracer
resolves every span and gauge in all modules; each workload then checks
that the metrics its round computes read as numbers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    with open(ROOT / "BENCHMARK.json") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("workload", _workloads())
def test_traced_round_reads_every_per_layer_metric(workload):
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]
                 if m["name"] != "trace.overhead_s"]
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", workload, "--seed", "1", "--trace",
           "--metrics", ",".join(names)]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0, out["errors"]
    assert out["missing"] == {}
    assert sorted(out["layers"]) == sorted(names)
    for name, value in out["layers"].items():
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, value)
