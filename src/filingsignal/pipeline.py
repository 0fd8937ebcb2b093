"""Pipeline orchestration: staged execution with content-hash skipping.

Every stage is declared once in STAGES: its function, the config fields it
hashes, the files it reads and the files it writes. A manifest records input
and output hashes plus wall time. Re-running skips a stage whose inputs are
unchanged and whose outputs still match their recorded hashes, so interrupted
runs resume where they left off.
A failed item (one filing, one price series, one window) never aborts a
stage: the stage records it in a ``Failures`` and goes on. Only a final HTTP
status, which every item would get, stops the stage, from ``Failures.record``.
The runner writes the items to ``<stage>_errors.jsonl`` and counts those whose
cause may pass, such as a provider outage, as the manifest's ``retry_items``;
while that count is above 0 the stage runs again on the next run. A stage
that failed items and kept none is refused, naming the first failure.
The embed stage builds the vector index, one file, embedding only the chunk
texts the previous index does not hold; a filing it cannot embed is left out.
The score stage chunks each filing as it scores it, and refuses a filing whose
chunk texts differ from its rows in the index; a filing whose row inputs are
unchanged gets its row from the score cache without retrieval.
The score stage plans each filing's calls and ends the filings in corpus
order, on its own thread. For a chat provider that waits on the network it
makes the calls on MAX_WORKERS threads and plans the next filings while
earlier ones are in flight, until those after the oldest hold 2 asks per
worker. Each filing asks its own uncached prompts, so two filings in flight
at once may both ask one prompt; the score cache keeps its first answer, and
it and the features hold the same bytes as when every call is made one by
one. The embed stage makes its calls one by one.
An ingest run made only to retry the tickers its last run left out, which
its manifest record keeps, resolves only those tickers.

Every declared output and the manifest are replaced whole through
``write_atomic``, the manifest after each stage, so a run killed at any point
is recovered by the next. A stage refuses an input whose producing stage is
not requested in the same run and has changed config or inputs since it ran.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import logging
import time
from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from datetime import date
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import backtest as bt
from . import labeling
from . import market_data as md
from .corpus import (MANIFEST_NAME, CorpusStore, TickerUniverse, chunk_filing, read_records,
                     write_atomic, write_records)
from .embed_index import (INDEX_FILE, HashEmbeddingProvider, HTTPEmbeddingProvider,
                          VectorIndex, embed_item)
from .errors import Failures, PipelineError, StageInputError
from .llm_scoring import (ConstantLLM, HTTPChatLLM, KeywordLLM, QuestionSet, RowInputs,
                          ScoreCache, embed_questions, read_features_csv, score_filing,
                          write_features_csv)
from .net import MAX_WORKERS, Calls, close_connections
from .regression import DesignMatrix, NNLSModel, fit_nnls

logger = logging.getLogger(__name__)

MANIFEST_FILE = "pipeline_manifest.json"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# By annotation, of a PipelineConfig field or a provider constructor's
# parameter: a test of its YAML value, and what the test asks for.
_YAML_TYPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an integer"),
    "tuple[int, int]": (lambda v: isinstance(v, list) and len(v) == 2
                        and all(map(_is_int, v)), "two integers"),
    "list[int]": (lambda v: isinstance(v, list) and all(map(_is_int, v)),
                  "a list of integers"),
}


def _check_types(where: str, values: dict, annotations: dict[str, str]) -> None:
    """Refuse a value whose annotation ``_YAML_TYPES`` holds and whose test it fails."""
    for key, value in values.items():
        fits, kind = _YAML_TYPES.get(annotations.get(key), (lambda v: True, ""))
        if not fits(value):
            raise PipelineError(f"{where}: {key} ({value!r}) must be {kind}")


@dataclass
class PipelineConfig:
    corpus_dir: str
    index_dir: str
    out_dir: str
    prices_dir: str
    embedding_provider: dict
    llm_provider: dict
    universe_csv: str = ""
    questions_file: str = ""  # empty -> the packaged default (see questions_path)
    benchmark_symbol: str = "SPX"
    year_from: int = 2002
    year_to: int = 2023
    chunk_chars: int = 2048
    overlap_chars: int = 256
    chunks_per_question: int = 4
    label_target: str = "12m"  # a key of market_data.BASIS_FIELDS
    bins: int = 5
    train_years: tuple[int, int] = (2002, 2017)
    test_years: tuple[int, int] = (2018, 2023)
    k: int = 5
    basis: str = "12m"
    k_values: list[int] = field(default_factory=lambda: [1, 2, 3, 5, 8])

    @classmethod
    def from_yaml(cls, path: str | Path) -> "PipelineConfig":
        try:
            data = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            raise PipelineError(f"{path}: not valid YAML: {exc}") from exc
        if not isinstance(data, dict):
            raise PipelineError(f"{path}: config must be a mapping of keys to values")
        names = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
        if unknown := sorted(set(data) - names):
            raise PipelineError(f"{path}: unknown config keys {unknown}")
        if missing := sorted(required - set(data)):
            raise PipelineError(f"{path}: missing config keys {missing}")
        _check_types(str(path), data, {f.name: f.type for f in fields(cls)})
        for key in ("train_years", "test_years"):
            if key in data:
                data[key] = tuple(data[key])
        config = cls(**data)
        if not 0 <= config.overlap_chars < config.chunk_chars:
            raise PipelineError(f"{path}: overlap_chars ({config.overlap_chars}) must be "
                                f"at least 0 and below chunk_chars ({config.chunk_chars})")
        for key in ("k", "chunks_per_question"):
            if getattr(config, key) < 1:
                raise PipelineError(f"{path}: {key} ({getattr(config, key)}) must be at least 1")
        if config.year_from > config.year_to:
            raise PipelineError(f"{path}: year_from ({config.year_from}) must not be "
                                f"after year_to ({config.year_to})")
        if not config.k_values or min(config.k_values) < 1:
            raise PipelineError(f"{path}: k_values ({config.k_values}) must be a "
                                "non-empty list of values at least 1")
        for key in ("label_target", "basis"):
            if getattr(config, key) not in md.BASIS_FIELDS:
                raise PipelineError(f"{path}: {key} ({getattr(config, key)!r}) must be "
                                    f"one of {sorted(md.BASIS_FIELDS)}")
        if config.bins < 2:
            raise PipelineError(f"{path}: bins ({config.bins}) must be at least 2")
        try:
            bt.SplitSpec(config.train_years, config.test_years)
        except ValueError as exc:
            raise PipelineError(f"{path}: train_years {list(config.train_years)} and "
                                f"test_years {list(config.test_years)}: {exc}") from exc
        build_embedding_provider(config.embedding_provider)  # to check; stages build their own
        build_llm_provider(config.llm_provider)
        load_questions(config)
        return config

    # paths ------------------------------------------------------------------

    @property
    def corpus_manifest(self) -> Path:
        return Path(self.corpus_dir) / MANIFEST_NAME

    @property
    def index_file(self) -> Path:
        return Path(self.index_dir) / INDEX_FILE

    def out(self, name: str) -> Path:
        return Path(self.out_dir) / name

    def errors_file(self, stage: str) -> Path:  # the items a run of the stage left out
        return self.out(f"{stage}_errors.jsonl")


def _build(section: str, providers: dict[str, type], cfg):
    """The provider ``cfg["name"]`` names, built from the other keys of ``cfg``; its
    constructor declares each setting and its default. A mistake is a PipelineError."""
    if not isinstance(cfg, dict):
        raise PipelineError(f"{section} must be a mapping with a 'name', not {cfg!r}")
    if "name" not in cfg:
        raise PipelineError(f"{section} needs the key 'name'")
    settings = dict(cfg)
    name = settings.pop("name")
    if not isinstance(name, str) or name not in providers:
        raise PipelineError(f"unknown {section} name {name!r}; known: {sorted(providers)}")
    where, params = f"{section} {name!r}", inspect.signature(providers[name]).parameters
    if unknown := sorted(set(settings) - set(params)):
        raise PipelineError(f"{where}: unknown keys {unknown}; it takes {list(params)}")
    if missing := [k for k, p in params.items() if p.default is p.empty and k not in settings]:
        raise PipelineError(f"{where}: missing keys {missing}")
    _check_types(where, settings, {key: p.annotation for key, p in params.items()})
    try:
        return providers[name](**settings)
    except ValueError as exc:
        raise PipelineError(f"{where}: {exc}") from exc


def build_embedding_provider(cfg: dict):
    return _build("embedding_provider", {"stub": HashEmbeddingProvider,
                                         "http": HTTPEmbeddingProvider}, cfg)


def build_llm_provider(cfg: dict):
    return _build("llm_provider", {"constant-stub": ConstantLLM, "keyword-stub": KeywordLLM,
                                   "http": HTTPChatLLM}, cfg)


def questions_path(config: PipelineConfig) -> Path:
    """The question file that score reads: ``questions_file``, or the packaged default."""
    return Path(config.questions_file or Path(__file__).parent / "data/questions_default.json")


def load_questions(config: PipelineConfig) -> QuestionSet:
    path = questions_path(config)
    try:
        return QuestionSet.from_json_file(path)
    except ValueError as exc:
        raise PipelineError(f"questions_file {path}: {exc}") from exc


# --- stage implementations ----------------------------------------------------


def stage_ingest(config: PipelineConfig, failures: Failures, inputs, outputs,
                 retry_of: list[str] | None) -> None:
    """Fetch and store every ticker's 10-Ks in the configured years; with
    ``retry_of``, the items of a last run made with the same inputs, resolve
    only the tickers those items name."""
    from .edgar import EdgarClient, fetch_filing, resolve_filings  # only ingest fetches

    if not inputs:
        raise PipelineError("stage 'ingest' needs universe_csv: the tickers and CIKs to fetch")
    (universe_csv,) = inputs
    universe = TickerUniverse.from_csv(universe_csv)
    if retry_of is not None:  # the tickers of `TICKER` and `TICKER DATE` items
        named = {name for item in retry_of for name in (item, item.rsplit(" ", 1)[0])}
        universe = TickerUniverse([e for e in universe.entries if e.ticker in named])
    client = EdgarClient()
    store = CorpusStore(config.corpus_dir)
    entries = resolve_filings(client, universe, config.year_from, config.year_to, failures)
    if failures.items and not entries and retry_of is None:  # a retry keeps the rest
        raise failures.refusal("no ticker resolved to a filing")
    for entry in entries:
        key = (entry.ticker, entry.filing_date.isoformat())
        if key in store:
            continue
        try:
            store.add(fetch_filing(entry, client))
        except PipelineError as exc:
            failures.record(f"{entry.ticker} {entry.filing_date}", exc)
    if failures.items and not store:
        raise failures.refusal("no filing could be fetched")


def _reusable_vectors(index_dir: str, provider_id: str) -> dict[str, np.ndarray]:
    """The previous index's float32 rows in ``index_dir`` by chunk-text sha256.

    Empty when there is no index or another provider embedded it. An index
    that cannot be read, say one of an older index version, is treated as
    absent with a warning.
    """
    if not (Path(index_dir) / INDEX_FILE).exists():
        return {}
    try:
        previous = VectorIndex.load(index_dir)
    except (ValueError, OSError) as exc:
        logger.warning("previous index in %s is unreadable, embedding every chunk: %s",
                       index_dir, exc)
        return {}
    if previous.provider_id != provider_id:
        logger.info("previous index in %s was embedded by %r, embedding every chunk",
                    index_dir, previous.provider_id)
        return {}
    return dict(zip(previous.hashes, previous.vectors))


def stage_embed(config: PipelineConfig, failures: Failures, inputs, outputs) -> None:
    provider = build_embedding_provider(config.embedding_provider)
    reusable = _reusable_vectors(config.index_dir, provider.provider_id)
    store = CorpusStore(config.corpus_dir)
    refs, hashes, units = [], [], []
    for filing in store.load_all():
        chunks = chunk_filing(filing, config.chunk_chars, config.overlap_chars)
        keys = [chunk.sha256 for chunk in chunks]
        new = [c.text for c, key in zip(chunks, keys) if key not in reusable]
        try:
            fresh = iter(embed_item(provider, new, f"filing {filing.ticker} {filing.filing_date}",
                                    len(units[0]) if units else None) if new else [])
        except PipelineError as exc:  # left out of the index; score records it as failed
            failures.record(f"{filing.ticker} {filing.filing_date}", exc)
            continue
        units += [reusable[key] if key in reusable else np.float32(next(fresh)) for key in keys]
        refs += [(*chunk.filing_key, chunk.chunk_index) for chunk in chunks]
        hashes += keys
    if failures.items and not refs:
        raise failures.refusal("no filing was embedded")
    if not refs:
        raise PipelineError("corpus is empty, nothing to embed")
    VectorIndex(provider.provider_id, refs, hashes, units).save(config.index_dir)


def stage_score(config: PipelineConfig, failures: Failures, inputs, outputs) -> None:
    (features_csv,) = outputs
    store = CorpusStore(config.corpus_dir)
    try:
        index = VectorIndex.load(config.index_dir)
    except ValueError as exc:
        # An unchanged corpus and config would skip 'embed' and keep this index.
        raise StageInputError(f"cannot read the index in {config.index_dir} ({exc}); "
                              f"remove {config.index_dir}", "embed") from exc
    qs = load_questions(config)
    llm = build_llm_provider(config.llm_provider)
    embedder = build_embedding_provider(config.embedding_provider)
    if index.provider_id != embedder.provider_id:
        raise PipelineError(
            f"index in {config.index_dir} was embedded by {index.provider_id!r} "
            f"but the configured embedding provider is {embedder.provider_id!r}: "
            "run stage 'embed' first"
        )
    cache = ScoreCache(config.out("score_cache.jsonl"))
    inputs = RowInputs(qs, embed_questions(qs, embedder, cache), llm, config.chunks_per_question)
    started: deque = deque()  # (filing, its end, the asks it submitted or 1), oldest first
    rows = []

    def end_oldest():
        filing, end, _ = started.popleft()
        try:
            rows.append(end())
        except PipelineError as exc:
            failures.record(f"{filing.ticker} {filing.filing_date}", exc)

    # Only a provider that waits on the network gains from overlapping its
    # calls; the in-process stubs would add hand-offs under the GIL. With 0
    # workers each filing ends before the next is planned.
    with Calls(MAX_WORKERS if isinstance(llm, HTTPChatLLM) else 0) as calls:
        try:
            for filing in store.load_all():  # each text is hash-checked as it is read
                chunks = chunk_filing(filing, config.chunk_chars, config.overlap_chars)
                indexed = index.hashes_of(filing.key)
                if indexed and indexed != [chunk.sha256 for chunk in chunks]:
                    raise StageInputError(
                        f"filing {filing.ticker} {filing.filing_date} has {len(chunks)} "
                        f"chunks unlike its {len(indexed)} rows in the index in "
                        f"{config.index_dir}", "embed")
                end, asks = score_filing(filing, chunks, inputs, index, cache, calls)
                started.append((filing, end, max(1, asks)))
                # The oldest ends once the filings after it hold 2 asks per worker,
                # so no worker idles while this thread waits for it.
                while started and (sum(weight for *_, weight in started) - started[0][2]
                                   >= 2 * calls.workers):
                    end_oldest()
        except Exception:  # raised once the filings started before it have ended
            while started:
                end_oldest()
            raise
        while started:
            end_oldest()
    if failures.items and not rows:
        raise failures.refusal("no filing was scored")
    write_features_csv(features_csv, rows, qs)


def stage_returns(config: PipelineConfig, failures: Failures, inputs, outputs) -> None:
    (_, *price_files), (returns_csv,) = inputs, outputs
    store = CorpusStore(config.corpus_dir)
    filing_dates: dict[str, list[date]] = {}
    for ticker, iso in store.keys():
        filing_dates.setdefault(ticker, []).append(date.fromisoformat(iso))
    rejected: dict[str, str] = {}
    prices = md.load_price_dir(price_files, {*filing_dates, config.benchmark_symbol}, rejected)
    if config.benchmark_symbol in rejected:
        raise PipelineError(f"benchmark series unusable: {rejected[config.benchmark_symbol]}")
    if config.benchmark_symbol not in prices:
        raise PipelineError(
            f"benchmark symbol {config.benchmark_symbol!r} not in price data"
        )
    # A rejected series is recorded once, with its reason, and none of its windows.
    records, skipped = md.compute_return_records(
        {t: dates for t, dates in filing_dates.items() if t not in rejected},
        prices, prices[config.benchmark_symbol]
    )
    for item, reason in [*sorted(rejected.items()), *skipped]:
        failures.record(item, reason)
    if failures.items and not records:
        raise failures.refusal("no return window was computed")
    write_records(returns_csv, md.ReturnRecord, records)


def stage_label(config: PipelineConfig, failures: Failures, inputs, outputs) -> None:
    (returns_csv,), (labels_csv,) = inputs, outputs
    records = read_records(returns_csv, md.ReturnRecord)
    if not records:
        raise PipelineError(f"{returns_csv} holds no return windows; "
                            f"{config.errors_file('returns')} says why each was skipped")
    source, _ = md.BASIS_FIELDS[config.label_target]
    examples = labeling.make_labels(records, source, config.bins)
    write_records(labels_csv, labeling.LabeledExample, examples)


def stage_train(config: PipelineConfig, failures: Failures, inputs, outputs) -> None:
    (features_csv, labels_csv), (model_json,) = inputs, outputs
    qcols, feature_rows = read_features_csv(features_csv)
    labels = read_records(labels_csv, labeling.LabeledExample)
    label_by_key = {(e.ticker, e.filing_date.isoformat()): e.label for e in labels}
    lo, hi = config.train_years
    joined = [
        (row, label_by_key[row.filing_key])
        for row in feature_rows
        if row.filing_key in label_by_key and lo <= int(row.filing_key[1][:4]) <= hi
    ]
    if not joined:
        raise PipelineError("no training rows in the configured train years")
    X = np.array([row.scores for row, _ in joined], dtype=float)
    y = np.array([label for _, label in joined])
    model = fit_nnls(DesignMatrix(X, y, qcols))
    model.save(model_json, extra={"train_years": list(config.train_years)})


def stage_backtest(config: PipelineConfig, failures: Failures, inputs, outputs) -> None:
    (model_json, features_csv, returns_csv), (report_json, cumulative_csv, ksweep_csv) = \
        inputs, outputs
    model = NNLSModel.load(model_json)
    _, feature_rows = read_features_csv(features_csv)
    records = read_records(returns_csv, md.ReturnRecord)
    ranked = bt.rank_test_years(model, feature_rows, records,
                                bt.SplitSpec(config.train_years, config.test_years))
    report = bt.run_backtest(ranked, config.k, config.basis)
    if not report.per_year:
        raise PipelineError(f"no filing in test_years {list(config.test_years)} "
                            "has both features and a return window")
    write_atomic(report_json, report.to_json() + "\n")
    bt.write_cumulative_csv(cumulative_csv, report)
    bt.write_ksweep_csv(ksweep_csv, bt.k_sweep(ranked, config.k_values, config.basis))


# --- orchestration ------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """Everything the runner knows about one stage, declared in one place.

    ``inputs`` lists every file the stage reads and ``outputs`` every file it
    writes; both are hashed into the manifest, together with the config
    fields named in ``config_keys``. The runner resolves both once per run
    and gives them to ``run``. It opens no other file but the corpus, the
    score cache and, in embed, the previous index. It records each item
    it leaves out (a filing, a price series, a window) in its ``Failures``
    and goes on; a stage that kept no item raises ``Failures.refusal``.

    A stage with ``narrows_retries`` is given a fifth argument: on a run made
    only for its retry items, with its inputs and outputs unchanged, the
    items its last run left out, which its manifest record keeps as
    ``retry_of``; on any other run, None.
    """

    name: str
    run: Callable[..., None]  # (config, failures, inputs, outputs[, retry_of])
    config_keys: tuple[str, ...]
    inputs: Callable[[PipelineConfig], list[Path]]
    outputs: Callable[[PipelineConfig], list[Path]]
    narrows_retries: bool = False


STAGES = [
    Stage("ingest", stage_ingest, ("universe_csv", "year_from", "year_to"),
          lambda c: [Path(c.universe_csv)] if c.universe_csv else [],
          lambda c: [c.corpus_manifest], narrows_retries=True),
    Stage("embed", stage_embed, ("chunk_chars", "overlap_chars", "embedding_provider"),
          lambda c: [c.corpus_manifest],
          lambda c: [c.index_file]),
    Stage("score", stage_score,
          ("llm_provider", "chunks_per_question", "chunk_chars", "overlap_chars"),
          lambda c: [c.corpus_manifest, c.index_file, questions_path(c)],
          lambda c: [c.out("features.csv")]),
    Stage("returns", stage_returns, ("benchmark_symbol",),
          lambda c: [c.corpus_manifest, *sorted(Path(c.prices_dir).glob("*.csv"))],
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


def _file_hashes(paths: list[Path]) -> dict[str, str]:
    return {str(p): _sha256_file(p) for p in paths}


def _input_hashes(config: PipelineConfig, stage: Stage, inputs: list[Path],
                  producers: dict[Path, Stage]) -> dict[str, str]:
    for path in inputs:
        if not path.exists():
            if path in producers:
                raise StageInputError(f"missing input {str(path)!r}", producers[path].name)
            raise PipelineError(f"missing input file {path}")
    subset = {key: getattr(config, key) for key in stage.config_keys}
    return {"config": hashlib.sha256(json.dumps(subset, sort_keys=True).encode()).hexdigest(),
            **_file_hashes(inputs)}


def _check_producers(config: PipelineConfig, inputs: list[Path], requested: list[str],
                     manifest: dict, producers: dict[Path, Stage]) -> None:
    """Refuse inputs written by an unrequested stage whose own inputs changed."""
    for path in inputs:
        producer = producers.get(path)
        if producer and producer.name not in requested and producer.name in manifest \
                and manifest[producer.name]["inputs"] != _input_hashes(
                    config, producer, producer.inputs(config), producers):
            raise StageInputError(
                f"input {str(path)!r} is stale: the config or inputs of stage "
                f"{producer.name!r} changed since it ran", producer.name)


def _read_manifest(path: Path) -> dict:
    """The pipeline manifest at ``path``, or {} if there is none. A PipelineError
    names it unless it is a JSON object of stage records, each with an object
    of input hashes and one of output hashes."""
    if not path.exists():
        return {}
    problem = f"{path} is not a pipeline manifest; remove it to run every stage again"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError
        raise PipelineError(f"{problem} ({exc})") from exc
    if not (isinstance(manifest, dict) and all(
            isinstance(record, dict) and isinstance(record.get("inputs"), dict)
            and isinstance(record.get("outputs"), dict) for record in manifest.values())):
        raise PipelineError(problem)
    return manifest


def run_pipeline(config: PipelineConfig, stages: list[str] | None = None) -> dict:
    """Execute the requested stages in dependency order; skip unchanged ones.

    A stage is skipped only when its inputs hash as recorded, its outputs
    still match their recorded hashes and its last run left no item to
    retry. Each stage run writes the items it left out to
    ``<stage>_errors.jsonl``, or removes that file when it left none out,
    also when the stage raises. A stage whose input was written by a stage
    not requested here, and whose config or inputs have changed since, is
    refused with a StageInputError naming that stage. The manifest is
    replaced whole after each stage (see ``write_atomic``). Returns the
    updated pipeline manifest. ``stages`` None runs every stage; an empty
    list is refused. Every kept-alive HTTP connection is closed as it ends.
    """
    names = [s.name for s in STAGES]
    requested = names if stages is None else stages
    if not requested:
        raise ValueError(f"no stages: name one or more of {names}, or None for all")
    unknown = set(requested) - set(names)
    if unknown:
        raise ValueError(f"unknown stages: {sorted(unknown)}")

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / MANIFEST_FILE
    manifest = _read_manifest(manifest_path)
    producers = {path: s for s in STAGES for path in s.outputs(config)}

    try:
        for stage in (s for s in STAGES if s.name in requested):
            inputs, outputs = stage.inputs(config), stage.outputs(config)
            input_hashes = _input_hashes(config, stage, inputs, producers)
            _check_producers(config, inputs, requested, manifest, producers)
            prior = manifest.get(stage.name)
            unchanged = bool(prior) and prior["inputs"] == input_hashes and \
                all(p.exists() for p in outputs) and prior["outputs"] == _file_hashes(outputs)
            if unchanged and not prior.get("retry_items"):
                logger.info("stage %s: inputs and outputs unchanged, skipped", stage.name)
                continue
            if prior and prior.get("retry_items"):
                logger.info("stage %s: %d items of its last run to retry", stage.name,
                            prior["retry_items"])
            logger.info("stage %s: running", stage.name)
            t0 = time.monotonic()
            failures = Failures(config.errors_file(stage.name))
            retry_of = (prior.get("retry_of") if unchanged else None,) \
                if stage.narrows_retries else ()
            try:
                stage.run(config, failures, inputs, outputs, *retry_of)
            finally:
                if failures.items:
                    write_atomic(failures.path, "".join(
                        json.dumps({"item": item, "error": str(error)}) + "\n"
                        for item, error in failures.items))
                else:
                    failures.path.unlink(missing_ok=True)
            if failures.items:
                logger.warning("stage %s: %d left out, each recorded in %s; %d of them "
                               "for a cause that may pass, which the next run tries again",
                               stage.name, len(failures.items), failures.path,
                               failures.retriable)
            manifest[stage.name] = {
                "inputs": input_hashes,
                "outputs": _file_hashes(outputs),
                "retry_items": failures.retriable,
                "wall_time_s": round(time.monotonic() - t0, 3),
            }
            if stage.narrows_retries:
                manifest[stage.name]["retry_of"] = [item for item, _ in failures.items]
            write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    finally:
        close_connections()
    return manifest
