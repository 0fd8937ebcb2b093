"""One traced pipeline run: ``run_pipeline`` in-process, with timing wrappers.

Usage (from the repository root, with ``PYTHONPATH=src``):

    python3 benchmarks/traced_run.py --config CONFIG --out METRICS.json \
        --spans SPANS.jsonl [--stages embed score ...]

Installs the tracer's wrappers around the public functions of each layer,
runs the stages, and writes the per-layer metrics plus the spans.
"""

from __future__ import annotations

import argparse
import json
import logging
import time
from pathlib import Path

from run import STAGES
from tracer import Tracer, percentile, summarize


def _count_texts(tracer, args, result):
    tracer.count("embed_texts", len(args[1]))


def _count_rows(tracer, args, result):
    tracer.count("index_rows", len(result))


def _count_cache(tracer, args, result):
    tracer.count("cache_misses" if result is None else "cache_hits")


def _count_prices(tracer, args, result):
    tracer.count("price_rows", sum(len(series.dates) for series in result.values()))


def _count_skipped(tracer, args, result):
    tracer.count("windows_skipped", len(result[1]))


def _provider_classes(module, method: str) -> list[type]:
    """Concrete classes of ``module`` that define ``method`` themselves."""
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and method in vars(obj) and not getattr(obj, "_is_protocol", False)]


def install(tracer: Tracer) -> None:
    from filingsignal import (backtest, corpus, embed_index, labeling,
                              llm_scoring, market_data, pipeline)

    wrap = tracer.wrap
    wrap(pipeline, "run_pipeline", "pipeline.run_pipeline")
    wrap(corpus.CorpusStore, "load_all", "corpus.load_all")
    wrap(pipeline, "chunk_filing", "corpus.chunk_filing")
    for cls in _provider_classes(embed_index, "embed_batch"):
        wrap(cls, "embed_batch", "embed_index.embed_batch", _count_texts)
    wrap(embed_index.VectorIndex, "top_k", "embed_index.top_k")
    wrap(embed_index.VectorIndex, "load", "embed_index.load", _count_rows)
    wrap(embed_index.VectorIndex, "save", "embed_index.save")
    wrap(pipeline, "score_filing", "llm_scoring.score_filing")
    wrap(llm_scoring, "embed_text", "llm_scoring.embed_text")
    for cls in _provider_classes(llm_scoring, "complete"):
        wrap(cls, "complete", "llm_scoring.provider")
    wrap(llm_scoring.ScoreCache, "__init__", "llm_scoring.cache_load")
    wrap(llm_scoring.ScoreCache, "get", "llm_scoring.cache_get", _count_cache)
    wrap(llm_scoring.ScoreCache, "put", "llm_scoring.cache_put")
    wrap(market_data, "load_price_dir", "market_data.load_price_dir", _count_prices)
    wrap(market_data, "window_returns", "market_data.window_returns")
    wrap(market_data, "compute_return_records", "market_data.compute_return_records",
         _count_skipped)
    wrap(labeling, "make_labels", "labeling.make_labels")
    wrap(pipeline, "fit_nnls", "regression.fit_nnls")
    wrap(backtest, "run_backtest", "backtest.run_backtest")
    wrap(backtest, "k_sweep", "backtest.k_sweep")


def layer_metrics(table: dict, c: dict, before: dict, after: dict) -> dict[str, float]:
    """Per-layer metrics from the span table, the counters and the manifest.

    A metric whose hook is missing is left out (see ``Tracer.notes``).
    """
    m: dict[str, float] = {}

    def span(name, calls=None, total=None, self_=None, p50=None, p99=None):
        row = table.get(name)
        if row is None:
            return
        if calls:
            m[calls] = row["calls"]
        if total:
            m[total] = row["total_s"]
        if self_:
            m[self_] = row["self_s"]
        if p50:
            m[p50] = percentile(row["durations_ms"], 50)
        if p99:
            m[p99] = percentile(row["durations_ms"], 99)

    span("corpus.load_all", total="corpus.load_all_s")
    span("corpus.chunk_filing", total="corpus.chunk_filing_s")
    span("embed_index.embed_batch", calls="embed_index.embed_batch_calls",
         total="embed_index.embed_batch_s")
    if "embed_index.embed_batch" in table:
        m["embed_index.embed_texts"] = c["embed_texts"]
    span("embed_index.top_k", calls="embed_index.top_k_calls",
         total="embed_index.top_k_s", p50="embed_index.top_k_p50_ms",
         p99="embed_index.top_k_p99_ms")
    span("embed_index.load", total="embed_index.load_s")
    span("embed_index.save", total="embed_index.save_s")
    if "embed_index.load" in table:
        m["embed_index.index_rows"] = c["index_rows"]
    span("llm_scoring.score_filing", total="llm_scoring.score_filing_s",
         p50="llm_scoring.score_filing_p50_ms", p99="llm_scoring.score_filing_p99_ms")
    span("llm_scoring.embed_text", calls="llm_scoring.embed_text_calls")
    span("llm_scoring.provider", calls="llm_scoring.provider_calls",
         total="llm_scoring.provider_wait_s", p50="llm_scoring.provider_p50_ms")
    if "llm_scoring.provider" in table:
        m["llm_scoring.retries"] = c["llm_scoring.provider.errors"]
    span("llm_scoring.cache_load", total="llm_scoring.cache_load_s")
    span("llm_scoring.cache_put", total="llm_scoring.cache_put_s")
    if "llm_scoring.cache_get" in table:
        lookups = c["cache_hits"] + c["cache_misses"]
        m["llm_scoring.cache_hits"] = c["cache_hits"]
        m["llm_scoring.cache_misses"] = c["cache_misses"]
        m["llm_scoring.cache_hit_ratio"] = c["cache_hits"] / lookups if lookups else 0.0
    span("market_data.load_price_dir", total="market_data.load_price_dir_s")
    if "market_data.load_price_dir" in table:
        m["market_data.price_rows"] = c["price_rows"]
    span("market_data.window_returns", calls="market_data.window_returns_calls",
         total="market_data.window_returns_s")
    if "market_data.compute_return_records" in table:
        m["market_data.windows_skipped"] = c["windows_skipped"]
    span("labeling.make_labels", total="labeling.make_labels_s")
    span("regression.fit_nnls", total="regression.fit_nnls_s")
    span("backtest.run_backtest", calls="backtest.run_backtest_calls",
         total="backtest.run_backtest_s")
    span("backtest.k_sweep", total="backtest.k_sweep_s")

    ran = [s for s in STAGES if s in after and after[s] != before.get(s)]
    for stage in STAGES:
        m[f"pipeline.stage_{stage}_s"] = after[stage]["wall_time_s"] if stage in ran else 0.0
    m["pipeline.stages_run"] = len(ran)
    m["pipeline.stages_skipped"] = len(STAGES) - len(ran)
    if "pipeline.run_pipeline" in table:
        run_s = table["pipeline.run_pipeline"]["total_s"]
        stage_s = sum(after[s]["wall_time_s"] for s in ran)
        m["pipeline.run_s"] = run_s
        m["pipeline.overhead_s"] = run_s - stage_s
        top_k_self = table.get("embed_index.top_k", {}).get("self_s")
        score_s = m["pipeline.stage_score_s"]
        if top_k_self is not None and score_s > 0:
            m["embed_index.top_k_score_share"] = top_k_self / score_s
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True, help="per-layer metrics JSON")
    parser.add_argument("--spans", required=True, help="span JSONL")
    parser.add_argument("--stages", nargs="*", default=STAGES)
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING)

    from filingsignal import pipeline

    tracer = Tracer()
    install(tracer)
    config = pipeline.PipelineConfig.from_yaml(args.config)
    manifest_path = Path(config.out_dir) / pipeline.MANIFEST_FILE
    before = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    t0 = time.perf_counter()
    after = pipeline.run_pipeline(config, args.stages)
    wall = time.perf_counter() - t0
    tracer.write(args.spans)
    table = summarize(tracer.spans)
    Path(args.out).write_text(json.dumps({
        "metrics": layer_metrics(table, tracer.counters, before, after),
        "self_s": {name: row["self_s"] for name, row in table.items()},
        "run_s": wall,
        "notes": tracer.notes,
    }, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
