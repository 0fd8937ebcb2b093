"""The benchmark's traced run still finds every package function it wraps.

``benchmarks/traced_run.py`` wraps functions by name and leaves a metric out,
with a note, when a name is gone; these tests turn such a rename, a stage the
benchmark does not request, or a hook the yearly update bypasses into a
failure. They only read ``benchmarks/`` and ``BENCHMARK.json``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

from filingsignal import market_data, pipeline
from filingsignal.corpus import CorpusStore
from filingsignal.pipeline import run_pipeline

from conftest import synthetic_config
from test_pipeline import corpus_copy, yaml_mapping

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


def test_benchmark_runs_every_stage_after_ingest():
    """A new stage fails here, not in the benchmark's set-up run."""
    tree = ast.parse((ROOT / "benchmarks" / "run.py").read_text(encoding="utf-8"))
    stages, = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["STAGES"]]
    assert stages == [s.name for s in pipeline.STAGES if s.name != "ingest"]


def test_traced_price_load_runs_on_the_yearly_update(synth_root, tmp_path, monkeypatch):
    """A yearly update still loads every price row through ``load_price_dir``,
    so its traced time measures the update's real price load."""
    corpus = corpus_copy(synth_root, tmp_path / "corpus",
                         lambda record: record["filing_date"] < "2020")
    config = synthetic_config(synth_root, tmp_path / "out")
    config.corpus_dir = str(corpus)
    loads, load = [], market_data.load_price_dir

    def counted_load(*args):
        result = load(*args)
        loads.append((sorted(result), sum(len(s.dates) for s in result.values())))
        return result

    monkeypatch.setattr(market_data, "load_price_dir", counted_load)
    run_pipeline(config, ["returns"])
    full = CorpusStore(synth_root / "corpus")
    appended = max(set(full.keys()) - set(CorpusStore(corpus).keys()))
    CorpusStore(corpus).add(full.load(appended))
    run_pipeline(config, ["returns"])
    assert len(loads) == 2 and loads[1] == loads[0]
    assert loads[0][1] > 0
