"""The benchmark's layer tracer still sees the grid contractions.

perfbench/tracing.py wraps fixed module attributes, such as
spans.gadget_signature for the grid contraction boundary.  A traced pass
that never enters a boundary it expects leaves that boundary's metrics
out and names them in its `missing` list, so contracting under a name
the tracer does not wrap would silently drop the contraction metrics.
Each test runs one traced worker pass, as perfbench/run.py does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["closed-invariance", "counterexample-spans"])
def test_traced_pass_keeps_every_contraction_metric(tmp_path, workload):
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    spans_path = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", workload, "1", "1", str(spans_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["missing"] == []
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    contract = [m["name"] for m in metrics if m["name"].startswith("grids.contract.")]
    assert len(contract) == 4
    assert all(name in out["layers"] for name in contract)
    assert out["layers"]["grids.contract.calls"] > 0
    assert spans_path.stat().st_size > 0
