"""Pipeline orchestration: staged execution with content-hash skipping.

Every stage is declared once in STAGES: its function, the config fields it
hashes, the files it reads and the files it writes. A manifest records input
and output hashes plus wall time. Re-running skips a stage whose inputs are
unchanged and whose outputs still match their recorded hashes, so interrupted
runs resume where they left off. Per-item failures (one filing, one price
series, one window) never abort a stage; they accumulate in an error report.
The embed stage builds the vector index once; the score stage chunks each
filing as it scores it, and refuses a filing whose chunk count differs from
its rows in the index.

The manifest is replaced whole after each stage. A stage refuses an input
whose producing stage is not requested in the same run and has changed
config or inputs since it ran.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import MISSING, dataclass, field, fields
from datetime import date
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import backtest as bt
from . import labeling
from . import market_data as md
from .corpus import CorpusStore, TickerUniverse, chunk_filing, write_atomic
from .edgar import EdgarClient, EdgarSubmissionsResolver, fetch_filing
from .embed_index import (HashEmbeddingProvider, HTTPEmbeddingProvider,
                          VectorIndex, normalize)
from .errors import PipelineError, RowScoringError, StageInputError
from .llm_scoring import (ConstantLLM, HTTPChatLLM, KeywordLLM, QuestionSet,
                          ScoreCache, embed_questions, read_features_csv,
                          score_filing, write_features_csv)
from .regression import DesignMatrix, NNLSModel, fit_nnls

logger = logging.getLogger(__name__)

MANIFEST_FILE = "pipeline_manifest.json"


@dataclass
class PipelineConfig:
    corpus_dir: str
    index_dir: str
    out_dir: str
    prices_dir: str
    embedding_provider: dict
    llm_provider: dict
    universe_csv: str = ""
    questions_file: str = ""  # empty -> packaged default question set
    benchmark_symbol: str = "SPX"
    year_from: int = 2002
    year_to: int = 2023
    chunk_chars: int = 2048
    overlap_chars: int = 256
    chunks_per_question: int = 4
    label_target: str = "12m"  # 12m | max
    bins: int = 5
    train_years: tuple[int, int] = (2002, 2017)
    test_years: tuple[int, int] = (2018, 2023)
    k: int = 5
    basis: str = "12m"
    k_values: list[int] = field(default_factory=lambda: [1, 2, 3, 5, 8])

    @classmethod
    def from_yaml(cls, path: str | Path) -> "PipelineConfig":
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise PipelineError(f"{path}: config must be a mapping of keys to values")
        names = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
        if unknown := sorted(set(data) - names):
            raise PipelineError(f"{path}: unknown config keys {unknown}")
        if missing := sorted(required - set(data)):
            raise PipelineError(f"{path}: missing config keys {missing}")
        if "train_years" in data:
            data["train_years"] = tuple(data["train_years"])
        if "test_years" in data:
            data["test_years"] = tuple(data["test_years"])
        config = cls(**data)
        if not 0 <= config.overlap_chars < config.chunk_chars:
            raise PipelineError(f"{path}: overlap_chars ({config.overlap_chars}) must be "
                                f"at least 0 and below chunk_chars ({config.chunk_chars})")
        if config.k < 1:
            raise PipelineError(f"{path}: k ({config.k}) must be at least 1")
        if not config.k_values or min(config.k_values) < 1:
            raise PipelineError(f"{path}: k_values ({config.k_values}) must be a "
                                "non-empty list of values at least 1")
        return config

    # paths ------------------------------------------------------------------

    @property
    def corpus_manifest(self) -> Path:
        return Path(self.corpus_dir) / "manifest.jsonl"

    @property
    def index_files(self) -> list[Path]:
        return [Path(self.index_dir) / "vectors.bin", Path(self.index_dir) / "refs.jsonl"]

    def out(self, name: str) -> Path:
        return Path(self.out_dir) / name


def _required(cfg: dict, key: str, section: str):
    """``cfg[key]``, or a PipelineError naming the key the provider needs."""
    if not isinstance(cfg, dict):
        raise PipelineError(f"{section} must be a mapping with a 'name', not {cfg!r}")
    if key not in cfg:
        named = f" {cfg['name']!r}" if "name" in cfg else ""
        raise PipelineError(f"{section}{named} needs the key {key!r}")
    return cfg[key]


def build_embedding_provider(cfg: dict):
    name = _required(cfg, "name", "embedding_provider")
    if name == "stub":
        return HashEmbeddingProvider(dimension=cfg.get("dimension", 64),
                                     seed=cfg.get("seed", 0))
    if name == "http":
        import os
        return HTTPEmbeddingProvider(
            endpoint=_required(cfg, "endpoint", "embedding_provider"),
            model=_required(cfg, "model", "embedding_provider"),
            api_key=os.environ.get(cfg.get("api_key_env", "EMBEDDING_API_KEY")),
        )
    raise PipelineError(f"unknown embedding_provider name {name!r}")


def build_llm_provider(cfg: dict):
    name = _required(cfg, "name", "llm_provider")
    if name == "constant-stub":
        return ConstantLLM(score=cfg.get("score", 50))
    if name == "keyword-stub":
        return KeywordLLM(
            phrase=_required(cfg, "phrase", "llm_provider"),
            hit_score=cfg.get("hit_score", 90),
            miss_score=cfg.get("miss_score", 10),
            per_occurrence=cfg.get("per_occurrence", 0),
        )
    if name == "http":
        import os
        return HTTPChatLLM(
            endpoint=_required(cfg, "endpoint", "llm_provider"),
            model=_required(cfg, "model", "llm_provider"),
            api_key=os.environ.get(cfg.get("api_key_env", "LLM_API_KEY")),
        )
    raise PipelineError(f"unknown llm_provider name {name!r}")


def load_questions(config: PipelineConfig) -> QuestionSet:
    if config.questions_file:
        return QuestionSet.from_json_file(config.questions_file)
    return QuestionSet.default()


class ErrorReport:
    def __init__(self, path: Path):
        self.path = path
        self.count = 0
        if path.exists():
            path.unlink()

    def record(self, item: str, error: str) -> None:
        self.count += 1
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps({"item": item, "error": error}) + "\n")


# --- stage implementations ----------------------------------------------------


def stage_ingest(config: PipelineConfig) -> None:
    universe = TickerUniverse.from_csv(config.universe_csv)
    client = EdgarClient()
    resolver = EdgarSubmissionsResolver(client)
    store = CorpusStore(config.corpus_dir)
    report = ErrorReport(config.out("ingest_errors.jsonl"))
    entries, warnings = resolver.resolve(universe, config.year_from, config.year_to)
    for w in warnings:
        report.record(w.ticker, w.reason)
    for entry in entries:
        key = (entry.ticker, entry.filing_date.isoformat())
        if key in store:
            continue
        try:
            store.add(fetch_filing(entry, client))
        except PipelineError as exc:
            report.record(f"{entry.ticker} {entry.filing_date}", str(exc))


def stage_embed(config: PipelineConfig) -> None:
    provider = build_embedding_provider(config.embedding_provider)
    store = CorpusStore(config.corpus_dir)
    refs, units = [], []
    for filing in store.load_all():
        chunks = chunk_filing(filing, config.chunk_chars, config.overlap_chars)
        vectors = provider.embed_batch([c.text for c in chunks])
        if len(vectors) != len(chunks):
            raise PipelineError(
                f"{provider.provider_id} returned {len(vectors)} vectors for the "
                f"{len(chunks)} chunks of filing {filing.ticker} {filing.filing_date}"
            )
        refs += [(*chunk.filing_key, chunk.chunk_index) for chunk in chunks]
        units += map(normalize, vectors)
    if not refs:
        raise PipelineError("corpus is empty, nothing to embed")
    VectorIndex(provider.provider_id, refs, units).save(config.index_dir)


def stage_score(config: PipelineConfig) -> None:
    store = CorpusStore(config.corpus_dir)
    index = VectorIndex.load(config.index_dir)
    qs = load_questions(config)
    llm = build_llm_provider(config.llm_provider)
    embedder = build_embedding_provider(config.embedding_provider)
    if index.provider_id != embedder.provider_id:
        raise PipelineError(
            f"index in {config.index_dir} was embedded by {index.provider_id!r} "
            f"but the configured embedding provider is {embedder.provider_id!r}: "
            "run stage 'embed' first"
        )
    queries = embed_questions(qs, embedder)
    cache = ScoreCache(config.out("score_cache.jsonl"))
    report = ErrorReport(config.out("score_errors.jsonl"))
    rows = []
    for filing in store.load_all():
        chunks = chunk_filing(filing, config.chunk_chars, config.overlap_chars)
        if (indexed := index.rows_of(filing.key)) not in (0, len(chunks)):
            raise StageInputError(
                f"filing {filing.ticker} {filing.filing_date} has {len(chunks)} chunks "
                f"but {indexed} rows in the index in {config.index_dir}", "embed")
        try:
            rows.append(score_filing(filing, chunks, qs, queries, index, llm, cache,
                                     config.chunks_per_question))
        except RowScoringError as exc:
            report.record(f"{filing.ticker} {filing.filing_date}", str(exc))
    write_features_csv(config.out("features.csv"), rows, qs)


def stage_returns(config: PipelineConfig) -> None:
    store = CorpusStore(config.corpus_dir)
    rejected: dict[str, str] = {}
    prices = md.load_price_dir(config.prices_dir, rejected)
    if config.benchmark_symbol in rejected:
        raise PipelineError(f"benchmark series unusable: {rejected[config.benchmark_symbol]}")
    if config.benchmark_symbol not in prices:
        raise PipelineError(
            f"benchmark symbol {config.benchmark_symbol!r} not in price data"
        )
    filing_dates: dict[str, list[date]] = {}
    for ticker, iso in store.keys():
        filing_dates.setdefault(ticker, []).append(date.fromisoformat(iso))
    records, warnings = md.compute_return_records(
        filing_dates, prices, prices[config.benchmark_symbol]
    )
    report = ErrorReport(config.out("returns_errors.jsonl"))
    for symbol in sorted(rejected):
        report.record("series", rejected[symbol])
    for w in warnings:
        report.record("window", w)
    md.write_returns_csv(config.out("returns.csv"), records)


def stage_label(config: PipelineConfig) -> None:
    records = md.read_returns_csv(config.out("returns.csv"))
    if not records:
        raise PipelineError(f"{config.out('returns.csv')} holds no return windows; "
                            f"{config.out('returns_errors.jsonl')} says why each was skipped")
    source = "target_12m" if config.label_target == "12m" else "target_max"
    examples = labeling.make_labels(records, source, config.bins)
    labeling.write_labels_csv(config.out("labels.csv"), examples)


def stage_train(config: PipelineConfig) -> None:
    qcols, feature_rows = read_features_csv(config.out("features.csv"))
    labels = labeling.read_labels_csv(config.out("labels.csv"))
    label_by_key = {(e.ticker, e.filing_date.isoformat()): e.label for e in labels}
    lo, hi = config.train_years
    joined = [
        (row, label_by_key[row.filing_key])
        for row in feature_rows
        if row.filing_key in label_by_key and lo <= int(row.filing_date[:4]) <= hi
    ]
    if not joined:
        raise PipelineError("no training rows in the configured train years")
    X = np.array([row.scores for row, _ in joined], dtype=float)
    y = np.array([label for _, label in joined])
    model = fit_nnls(DesignMatrix(X, y, qcols))
    model.save(config.out("model.json"), extra={"train_years": list(config.train_years)})


def stage_backtest(config: PipelineConfig) -> None:
    model = NNLSModel.load(config.out("model.json"))
    _, feature_rows = read_features_csv(config.out("features.csv"))
    records = md.read_returns_csv(config.out("returns.csv"))
    split = bt.SplitSpec(config.train_years, config.test_years)
    report = bt.run_backtest(model, feature_rows, records, split,
                             config.k, config.basis)
    if not report.per_year:
        raise PipelineError(f"no filing in test_years {list(config.test_years)} "
                            "has both features and a return window")
    config.out("report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    bt.write_cumulative_csv(config.out("cumulative.csv"), report)
    table = bt.k_sweep(model, feature_rows, records, split,
                       config.k_values, config.basis)
    bt.write_ksweep_csv(config.out("ksweep.csv"), table)


# --- orchestration ------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """Everything the runner knows about one stage, declared in one place.

    ``inputs`` lists every file the stage reads and ``outputs`` every file it
    writes; both are hashed into the manifest, together with the config
    fields named in ``config_keys``.
    """

    name: str
    run: Callable[[PipelineConfig], None]
    config_keys: tuple[str, ...]
    inputs: Callable[[PipelineConfig], list[Path]]
    outputs: Callable[[PipelineConfig], list[Path]]


STAGES = [
    Stage("ingest", stage_ingest, ("universe_csv", "year_from", "year_to"),
          lambda c: [Path(c.universe_csv)] if c.universe_csv else [],
          lambda c: [c.corpus_manifest]),
    Stage("embed", stage_embed, ("chunk_chars", "overlap_chars", "embedding_provider"),
          lambda c: [c.corpus_manifest],
          lambda c: c.index_files),
    Stage("score", stage_score,
          ("llm_provider", "chunks_per_question", "chunk_chars", "overlap_chars"),
          lambda c: [c.corpus_manifest, *c.index_files,
                     *([Path(c.questions_file)] if c.questions_file else [])],
          lambda c: [c.out("features.csv")]),
    Stage("returns", stage_returns, ("benchmark_symbol",),
          lambda c: [c.corpus_manifest, *md.price_files(c.prices_dir)],
          lambda c: [c.out("returns.csv")]),
    Stage("label", stage_label, ("label_target", "bins"),
          lambda c: [c.out("returns.csv")],
          lambda c: [c.out("labels.csv")]),
    Stage("train", stage_train, ("train_years",),
          lambda c: [c.out("features.csv"), c.out("labels.csv")],
          lambda c: [c.out("model.json")]),
    Stage("backtest", stage_backtest, ("test_years", "k", "basis", "k_values"),
          lambda c: [c.out("model.json"), c.out("features.csv"), c.out("returns.csv")],
          lambda c: [c.out("report.json"), c.out("cumulative.csv"), c.out("ksweep.csv")]),
]


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            h.update(chunk)
    return h.hexdigest()


def _producer(config: PipelineConfig, path: Path) -> Stage | None:
    return next((s for s in STAGES if path in s.outputs(config)), None)


def _input_hashes(config: PipelineConfig, stage: Stage) -> dict[str, str]:
    subset = {key: getattr(config, key) for key in stage.config_keys}
    hashes = {"config": hashlib.sha256(
        json.dumps(subset, sort_keys=True).encode()
    ).hexdigest()}
    for path in stage.inputs(config):
        if not path.exists():
            if producer := _producer(config, path):
                raise StageInputError(f"missing input {str(path)!r}", producer.name)
            raise PipelineError(f"missing input file {path}")
        hashes[str(path)] = _sha256_file(path)
    return hashes


def _check_producers(config: PipelineConfig, stage: Stage, requested: list[str],
                     manifest: dict) -> None:
    """Refuse inputs written by an unrequested stage whose own inputs changed."""
    for path in stage.inputs(config):
        producer = _producer(config, path)
        if producer and producer.name not in requested and producer.name in manifest \
                and manifest[producer.name]["inputs"] != _input_hashes(config, producer):
            raise StageInputError(
                f"input {str(path)!r} is stale: the config or inputs of stage "
                f"{producer.name!r} changed since it ran", producer.name)


def _output_hashes(config: PipelineConfig, stage: Stage) -> dict[str, str]:
    return {str(p): _sha256_file(p) for p in stage.outputs(config)}


def run_pipeline(config: PipelineConfig, stages: list[str] | None = None) -> dict:
    """Execute the requested stages in dependency order; skip unchanged ones.

    A stage is skipped only when its inputs hash as recorded and its outputs
    still match their recorded hashes. A stage whose input was written by a
    stage not requested here, and whose config or inputs have changed since,
    is refused with a StageInputError naming that stage. The manifest is
    replaced whole after each stage (see ``write_atomic``). Returns the
    updated pipeline manifest.
    """
    names = [s.name for s in STAGES]
    requested = stages or names
    unknown = set(requested) - set(names)
    if unknown:
        raise ValueError(f"unknown stages: {sorted(unknown)}")

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / MANIFEST_FILE
    manifest = {}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

    for stage in (s for s in STAGES if s.name in requested):
        inputs = _input_hashes(config, stage)
        _check_producers(config, stage, requested, manifest)
        prior = manifest.get(stage.name)
        if prior and prior["inputs"] == inputs and \
                all(p.exists() for p in stage.outputs(config)) and \
                prior["outputs"] == _output_hashes(config, stage):
            logger.info("stage %s: inputs and outputs unchanged, skipped", stage.name)
            continue
        logger.info("stage %s: running", stage.name)
        t0 = time.monotonic()
        stage.run(config)
        manifest[stage.name] = {
            "inputs": inputs,
            "outputs": _output_hashes(config, stage),
            "wall_time_s": round(time.monotonic() - t0, 3),
        }
        write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
