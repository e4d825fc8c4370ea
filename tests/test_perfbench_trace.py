"""The benchmark's layer tracer still sees the layers each workload runs.

perfbench/tracing.py wraps fixed module attributes, such as
spans.gadget_signature for the grid contraction boundary or
simsim.build_paired_algebra for the paired algebra.  A traced pass that
never enters a boundary it expects leaves that boundary's metrics out and
names them in its `missing` list, so calling a layer under a name the
tracer does not wrap would silently drop its metrics.  Each test runs one
traced worker pass, as perfbench/run.py does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def traced_pass(tmp_path, workload) -> dict:
    """The layer metrics of one traced pass, checked to miss none."""
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    spans_path = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", workload, "1", "1", str(spans_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["missing"] == []
    assert spans_path.stat().st_size > 0
    return out["layers"]


def declared_metrics(prefix) -> list[str]:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return [m["name"] for m in metrics if m["name"].startswith(prefix)]


@pytest.mark.parametrize("workload", ["closed-invariance", "counterexample-spans"])
def test_traced_pass_keeps_every_contraction_metric(tmp_path, workload):
    layers = traced_pass(tmp_path, workload)
    contract = declared_metrics("grids.contract.")
    assert len(contract) == 4
    assert all(name in layers for name in contract)
    assert layers["grids.contract.calls"] > 0


def test_traced_pass_keeps_every_simsim_metric(tmp_path):
    # trace words, closure, nonvanishing, paired algebra and recovery
    layers = traced_pass(tmp_path, "simsim-recovery")
    simsim = declared_metrics("simsim.")
    assert len(simsim) == 7
    assert all(name in layers for name in simsim)
    assert layers["simsim.closure.calls"] > 0
    assert layers["simsim.trace_words.words"] > 0


def test_traced_hom_census_keeps_every_homgraphs_metric(tmp_path):
    # hom counts contract through homgraphs.holant_eval_contracted, the
    # name the tracer wraps as their contraction boundary
    layers = traced_pass(tmp_path, "hom-census")
    homgraphs = declared_metrics("homgraphs.")
    assert len(homgraphs) == 5
    assert all(name in layers for name in homgraphs)
    assert layers["grids.contract.calls"] > 0
