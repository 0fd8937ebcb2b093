"""The benchmark's traced run still finds every package function it wraps.

``benchmarks/traced_run.py`` wraps functions by name and leaves a metric out,
with a note, when a name is gone; this test turns such a rename into a
failure. It only reads ``benchmarks/`` and ``BENCHMARK.json``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

from conftest import synthetic_config
from test_pipeline import yaml_mapping

ROOT = Path(__file__).resolve().parents[1]
# Computed by benchmarks/run.py across runs, never by one traced run.
RUNNER_ONLY = {"trace.overhead_ratio", "machine.calibration_s"}


def test_traced_run_reports_every_per_layer_metric(synth_root, tmp_path):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(yaml_mapping(synthetic_config(synth_root, tmp_path))))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])}
    subprocess.run([sys.executable, str(ROOT / "benchmarks" / "traced_run.py"),
                    "--config", str(cfg_path), "--out", str(tmp_path / "metrics.json"),
                    "--spans", str(tmp_path / "spans.jsonl")],
                   env=env, cwd=tmp_path, check=True, timeout=300)
    result = json.loads((tmp_path / "metrics.json").read_text())
    assert result["notes"] == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in spec["per_layer"]} - RUNNER_ONLY
    assert sorted(expected - set(result["metrics"])) == []
