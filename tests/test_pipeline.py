import dataclasses
import hashlib
import importlib.machinery
import json
import os
import random
import shutil
import sys
import threading
import time
import tracemalloc
from datetime import date
from pathlib import Path

import numpy as np
import pytest
import yaml

from filingsignal import cli, corpus, edgar, llm_scoring, pipeline
from filingsignal.corpus import CorpusStore, chunk_filing, write_records
from filingsignal.embed_index import HashEmbeddingProvider, VectorIndex
from filingsignal.errors import (Failures, FinalStatusError, PipelineError, RetriableError,
                                 StageInputError)
from filingsignal.labeling import LabeledExample, make_labels
from filingsignal.llm_scoring import HTTPChatLLM, KeywordLLM, ScoreCache, read_features_csv
from filingsignal.market_data import ReturnRecord
from filingsignal.net import MAX_ATTEMPTS, MAX_WORKERS
from filingsignal.pipeline import PipelineConfig, run_pipeline
from filingsignal.regression import NNLSModel
from filingsignal.synthetic import PLANTED_PHRASE, make_workspace

from conftest import (ChatServer, assert_cache_holds, default_questions, json_reply,
                      kept_alive, loopback, synthetic_config)

SYNTH_STAGES = [s.name for s in pipeline.STAGES if s.name != "ingest"]

# Every file the synthetic stages write, relative to the out_dir of a
# ``synthetic_config``, which holds the index too.
ARTIFACTS = [str(path.relative_to("out")) for s in pipeline.STAGES if s.name in SYNTH_STAGES
             for path in s.outputs(synthetic_config(Path("root"), Path("out")))]


def yaml_mapping(config):
    """Every field of ``config`` as a mapping for ``yaml.safe_dump`` (tuples as lists)."""
    return json.loads(json.dumps(dataclasses.asdict(config)))


class CountingEmbedder(HashEmbeddingProvider):
    """The stub embedder, recording every text it is asked to embed."""

    def __init__(self, dimension, seed):
        super().__init__(dimension, seed)
        self.texts = []

    def embed_batch(self, texts):
        self.texts.extend(texts)
        return super().embed_batch(texts)


def count_embedded(monkeypatch):
    """The CountingEmbedders the pipeline builds from here on, in build order."""
    embedders = []

    def build(cfg):
        embedders.append(CountingEmbedder(cfg["dimension"], cfg["seed"]))
        return embedders[-1]

    monkeypatch.setattr(pipeline, "build_embedding_provider", build)
    return embedders


def embed_down_for_one_filing(synth_root, config, monkeypatch):
    """Make the pipeline's embedder refuse every batch holding a chunk of one
    filing of the synthetic corpus, as an outage would; returns its key and
    the list of refused batches."""
    store = CorpusStore(synth_root / "corpus")
    down = store.keys()[3]
    down_texts = {c.text for c in chunk_filing(store.load(down), config.chunk_chars,
                                               config.overlap_chars)}
    refused = []

    class DownForOneFiling(HashEmbeddingProvider):
        def embed_batch(self, texts):
            if down_texts & set(texts):
                refused.append(texts)
                raise RetriableError("HTTP 503")
            return super().embed_batch(texts)

    monkeypatch.setattr(pipeline, "build_embedding_provider",
                        lambda cfg: DownForOneFiling(cfg["dimension"], cfg["seed"]))
    return down, refused


def chunk_texts_of(config, keys):
    """The set of chunk texts of the stored filings with these keys."""
    store = CorpusStore(config.corpus_dir)
    return {c.text for key in keys
            for c in chunk_filing(store.load(key), config.chunk_chars, config.overlap_chars)}


def write_config(synth_root, tmp_path, **change):
    """A config file for the synthetic workspace, writing to ``tmp_path / "out"``."""
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({
        **yaml_mapping(synthetic_config(synth_root, tmp_path / "out")), **change}))
    return path


def corpus_copy(synth_root, dest, keep=lambda record: True):
    """A copy of the synthetic corpus with the filings whose manifest record ``keep`` accepts."""
    shutil.copytree(synth_root / "corpus", dest)
    manifest = dest / "manifest.jsonl"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines if keep(json.loads(line))))
    return dest


def chunk_texts(config):
    """The text of every chunk of the configured corpus, in corpus order."""
    return [chunk.text for filing in CorpusStore(config.corpus_dir).load_all()
            for chunk in chunk_filing(filing, config.chunk_chars, config.overlap_chars)]


def index_bytes(config):
    return (Path(config.index_dir) / "vectors.bin").read_bytes()


def append_to_filing(corpus_dir):
    """Add a sentence to one stored filing, as a re-ingest would; returns the edited filing."""
    store = CorpusStore(corpus_dir)
    filing = store.load(store.keys()[5])
    filing.clean_text += " The auditor restated the final quarter."
    (store.filings_dir / f"{filing.ticker}_{filing.filing_date}.txt").write_text(
        filing.clean_text)
    records = [json.loads(line) for line in store.manifest_path.read_text().splitlines()]
    for rec in records:
        if (rec["ticker"], rec["filing_date"]) == filing.key:
            rec["sha256"] = hashlib.sha256(filing.clean_text.encode()).hexdigest()
    store.manifest_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return filing


class Killed(Exception):
    pass


def route_writes(monkeypatch, before_write):
    """Call ``before_write(path)`` ahead of every ``write_atomic`` the package makes."""
    real = corpus.write_atomic

    def write(path, data):
        before_write(Path(path))
        real(path, data)

    for name, module in list(sys.modules.items()):
        if name.startswith("filingsignal") and getattr(module, "write_atomic", None) is real:
            monkeypatch.setattr(module, "write_atomic", write)


def before_2019(record):
    return record["filing_date"] < "2019"  # 4 of the 6 filing years


class TestRunPipeline:
    def test_full_synthetic_run_produces_report(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, SYNTH_STAGES)
        for name in ARTIFACTS:
            assert (tmp_path / name).exists(), name
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["strategy_wealth"][0] == 1.0
        assert len(report["per_year"]) == 3  # test years 2018-2020

    def test_second_run_skips_all_stages(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, SYNTH_STAGES)
        manifest_before = json.loads(
            (tmp_path / "pipeline_manifest.json").read_text())
        mtimes = {name: (tmp_path / name).stat().st_mtime_ns for name in ARTIFACTS}
        run_pipeline(config, SYNTH_STAGES)
        manifest_after = json.loads(
            (tmp_path / "pipeline_manifest.json").read_text())
        assert manifest_after == manifest_before
        for name in ARTIFACTS:
            assert (tmp_path / name).stat().st_mtime_ns == mtimes[name], name

    def test_changed_config_reruns_downstream(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, SYNTH_STAGES)
        before = (tmp_path / "report.json").stat().st_mtime_ns
        config.k = config.k + 1
        run_pipeline(config, ["backtest"])
        assert (tmp_path / "report.json").stat().st_mtime_ns != before

    def test_missing_input_names_producing_stage(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        with pytest.raises(StageInputError, match="train"):
            run_pipeline(config, ["backtest"])

    def test_unknown_stage_rejected(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        with pytest.raises(ValueError, match="unknown stages"):
            run_pipeline(config, ["frobnicate"])

    def test_empty_stage_list_rejected(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        with pytest.raises(ValueError, match="^no stages: name one or more of "):
            run_pipeline(config, [])

    def test_determinism_byte_identical_artifacts(self, synth_root, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(synthetic_config(synth_root, out_a), SYNTH_STAGES)
        run_pipeline(synthetic_config(synth_root, out_b), SYNTH_STAGES)
        for name in ["features.csv", "labels.csv", "model.json", "report.json"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_planted_signal_beats_benchmark(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, SYNTH_STAGES)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["strategy_wealth"][-1] > report["benchmark_wealth"][-1]

    def test_edited_prices_rerun_returns(self, tmp_path):
        root = make_workspace(tmp_path / "ws", seed=0)
        config = synthetic_config(root, tmp_path / "out")
        run_pipeline(config, ["returns"])
        returns_csv = tmp_path / "out" / "returns.csv"
        before = returns_csv.read_bytes()
        prices = root / "prices" / "prices.csv"
        text = prices.read_text()
        row = next(line for line in text.splitlines()
                   if line.startswith("ALFA,2016-06-01,"))
        prices.write_text(text.replace(row, "ALFA,2016-06-01,1000.0"))
        run_pipeline(config, ["returns"])
        assert returns_csv.read_bytes() != before

    def test_label_target_chooses_the_labels_field(self, tmp_path):
        """Returns whose 12-month and maximum windows rank in opposite orders
        get other labels under each ``label_target``: those of ``make_labels``
        on its own field."""
        config = synthetic_config(tmp_path, tmp_path)
        records = [ReturnRecord(f"T{i}", date(2019, 3, 1), date(2020, 3, 1), 0.1 * i,
                                1.0 - 0.1 * i, -0.1, 0.04, 0.06) for i in range(6)]
        write_records(config.out("returns.csv"), ReturnRecord, records)
        labels = {}
        for target, field in [("12m", "target_12m"), ("max", "target_max")]:
            config.label_target = target
            run_pipeline(config, ["label"])
            labels[target] = config.out("labels.csv").read_bytes()
            write_records(tmp_path / "expected.csv", LabeledExample,
                          make_labels(records, field, config.bins))
            assert labels[target] == (tmp_path / "expected.csv").read_bytes()
        assert labels["12m"] != labels["max"]

    def test_edited_text_stops_score_after_the_filings_before_it(self, synth_root,
                                                                 tmp_path):
        """Score ends the filings read before a text that fails its hash check,
        and keeps their rows in the cache, then stops with the check's error."""
        config = synthetic_config(synth_root, tmp_path / "out")
        config.corpus_dir = str(corpus_copy(synth_root, tmp_path / "corpus"))
        run_pipeline(config, ["embed"])
        keys = CorpusStore(config.corpus_dir).keys()
        edited = Path(config.corpus_dir) / "filings" / f"{keys[2][0]}_{keys[2][1]}.txt"
        edited.write_text(edited.read_text() + " The auditor restated the final quarter.")
        with pytest.raises(PipelineError, match=f"^{edited} was changed after ingest"):
            run_pipeline(config, ["score"])
        records = config.out("score_cache.jsonl").read_text().splitlines()
        rows = [record["filing_key"] for record in map(json.loads, records)
                if "row_sha256" in record]
        assert rows == [list(key) for key in keys[:2]]

    def test_column_parse_keeps_returns_bytes(self, tmp_path, monkeypatch):
        root = make_workspace(tmp_path / "ws", seed=0)
        prices = root / "prices" / "prices.csv"

        def edit_row(prefix, close):
            text = prices.read_text()
            row = next(line for line in text.splitlines() if line.startswith(prefix))
            prices.write_text(text.replace(row, prefix + close))

        def returns_bytes(whole):
            parse = pipeline.md._parse_columns
            monkeypatch.setattr(pipeline.md, "_parse_columns",
                                lambda *args: parse(*args) if whole else None)
            out = tmp_path / f"out-{whole}"
            shutil.rmtree(out, ignore_errors=True)
            run_pipeline(synthetic_config(root, out), ["returns"])
            monkeypatch.undo()
            return [(out / name).read_bytes() for name in ["returns.csv", "returns_errors.jsonl"]]

        edit_row("GOLF,2016-03-01,", "0.0")  # a series that fails its checks
        assert b"GOLF: bad price 0.0" in returns_bytes(whole=True)[1]
        assert returns_bytes(whole=True) == returns_bytes(whole=False)
        edit_row("HTEL,2016-03-01,", "n/a")  # a row that does not parse
        assert b"HTEL: " + str(prices).encode() + b" line" in returns_bytes(whole=True)[1]
        assert returns_bytes(whole=True) == returns_bytes(whole=False)

    def test_edited_questions_file_reruns_score(self, synth_root, tmp_path):
        questions = tmp_path / "questions.json"

        def write_questions(qid):
            questions.write_text(json.dumps({"version": "v1", "questions": [
                {"id": qid, "text": "Is revenue growing?"}]}))

        config = synthetic_config(synth_root, tmp_path)
        config.questions_file = str(questions)
        write_questions("first")
        run_pipeline(config, ["embed", "score"])
        write_questions("second")
        run_pipeline(config, ["embed", "score"])
        header = (tmp_path / "features.csv").read_text().splitlines()[0]
        assert header == "ticker,filing_date,q_second"

    def test_edited_output_restored(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, SYNTH_STAGES)
        features = tmp_path / "features.csv"
        original = features.read_text()
        *rows, last = original.splitlines()
        features.write_text("\n".join([*rows, last.rsplit(",", 1)[0] + ",99"]) + "\n")
        run_pipeline(config, SYNTH_STAGES)
        assert features.read_text() == original

    def test_torn_cache_line_dropped_and_rescored(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, ["embed", "score"])
        cache_path = tmp_path / "score_cache.jsonl"
        original = cache_path.read_bytes()
        cache_path.write_bytes(original[:-10])  # tear the last record
        (tmp_path / "features.csv").unlink()
        run_pipeline(config, ["embed", "score"])
        assert cache_path.read_bytes() == original
        assert_cache_holds(ScoreCache(cache_path), original.decode())

    @pytest.mark.parametrize("key, value", [
        ("chunks_per_question", 1), ("chunk_chars", 300),
        ("llm_provider", {"name": "keyword-stub", "phrase": "restated",
                          "hit_score": 30, "miss_score": 10, "per_occurrence": 8})])
    def test_changed_retrieval_not_answered_from_cache(self, synth_root, tmp_path,
                                                       key, value):
        def config(out):  # chunks small enough that a filing has several
            c = synthetic_config(synth_root, tmp_path / out)
            c.chunk_chars, c.overlap_chars = 400, 32
            return c

        rerun = config("rerun")
        run_pipeline(rerun, ["embed", "score"])
        before = (tmp_path / "rerun" / "features.csv").read_bytes()
        setattr(rerun, key, value)
        run_pipeline(rerun, ["embed", "score"])
        fresh = config("fresh")
        setattr(fresh, key, value)
        run_pipeline(fresh, ["embed", "score"])
        expected = (tmp_path / "fresh" / "features.csv").read_bytes()
        assert expected != before  # the change alters the retrieved context
        assert (tmp_path / "rerun" / "features.csv").read_bytes() == expected

    def test_each_question_embedded_once_per_stage(self, synth_root, tmp_path,
                                                   monkeypatch):
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, ["embed"])
        embedders = count_embedded(monkeypatch)
        run_pipeline(config, ["score"])
        texts = [q.text for q in pipeline.load_questions(config).questions]
        assert sorted(embedders[-1].texts) == sorted(texts)
        # A warm rerun takes every question vector from the score cache.
        (tmp_path / "features.csv").unlink()
        run_pipeline(config, ["score"])
        assert len(embedders) == 2 and embedders[-1].texts == []

    def test_cache_without_vectors_gains_them_once(self, synth_root, tmp_path,
                                                   monkeypatch):
        """A cache written before question vectors were kept keeps its rows; the
        first score run embeds the questions and keeps their vectors, though
        every row comes from the cache, and the next run embeds none."""
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, ["embed", "score"])
        cache_path = Path(config.out("score_cache.jsonl"))
        cold = cache_path.read_text().splitlines(keepends=True)
        cache_path.write_text("".join(line for line in cold if "vector_sha256" not in line))
        embedders = count_embedded(monkeypatch)
        calls = count_top_k(monkeypatch)
        for _ in range(2):
            Path(config.out("features.csv")).unlink()
            run_pipeline(config, ["score"])
        texts = [q.text for q in pipeline.load_questions(config).questions]
        assert [embedder.texts for embedder in embedders] == [texts, []]
        assert calls == []
        assert sorted(cache_path.read_text().splitlines(keepends=True)) == sorted(cold)

    def test_short_embedding_batch_names_filing(self, synth_root, tmp_path,
                                                monkeypatch):
        class ShortBatch(HashEmbeddingProvider):
            def embed_batch(self, texts):
                return super().embed_batch(texts)[:-1]

        config = synthetic_config(synth_root, tmp_path)
        config.chunk_chars, config.overlap_chars = 400, 32  # a short batch is not empty
        monkeypatch.setattr(pipeline, "build_embedding_provider",
                            lambda cfg: ShortBatch(64, 0))
        first = pipeline.CorpusStore(config.corpus_dir).keys()[0]
        with pytest.raises(PipelineError, match=f"of filing {first[0]} {first[1]}"):
            run_pipeline(config, ["embed"])

    def test_embed_retries_a_transient_error(self, synth_root, tmp_path, monkeypatch):
        class FailsFirstCall(HashEmbeddingProvider):
            calls = 0

            def embed_batch(self, texts):
                FailsFirstCall.calls += 1
                if FailsFirstCall.calls == 1:
                    raise RetriableError("HTTP 503")
                return super().embed_batch(texts)

        healthy = synthetic_config(synth_root, tmp_path / "healthy")
        run_pipeline(healthy, ["embed"])
        config = synthetic_config(synth_root, tmp_path / "flaky")
        monkeypatch.setattr(pipeline, "build_embedding_provider",
                            lambda cfg: FailsFirstCall(64, 0))
        run_pipeline(config, ["embed"])
        assert FailsFirstCall.calls > 1
        assert index_bytes(config) == index_bytes(healthy)

    @pytest.mark.parametrize("body", [{}, {"embeddings": None}, ValueError("not JSON")])
    def test_malformed_embedding_response_retried(self, synth_root, tmp_path, body):
        stub = HashEmbeddingProvider(64, 0)
        posts = []

        def post(data, headers):
            posts.append(json.loads(data))
            if len(posts) == 1:
                if isinstance(body, Exception):
                    return 200, str(body).encode(), "application/json"
                return json_reply(body)
            return json_reply({"embeddings": stub.embed_batch(posts[-1]["texts"])})

        def config(out):
            c = synthetic_config(synth_root, tmp_path / out)
            c.embedding_provider = {"name": "http", "endpoint": url + "/v1", "model": "m"}
            return c

        with loopback(post) as url:
            retried, healthy = config("retried"), config("healthy")
            run_pipeline(retried, ["embed"])
            assert posts[0] == posts[1]  # the first filing's batch was asked again
            run_pipeline(healthy, ["embed"])
        assert index_bytes(retried) == index_bytes(healthy)

    def test_final_status_stops_embed_after_one_call(self, synth_root, tmp_path, capsys):
        posts = []

        def post(data, headers):
            posts.append(data)
            return json_reply({"error": "invalid key"}, status=401)

        with loopback(post) as url:
            cfg_path = write_config(synth_root, tmp_path, embedding_provider={
                "name": "http", "endpoint": url + "/v1", "model": "m"})
            rc = cli.main(["pipeline", "--config", str(cfg_path), "--stages", "embed"])
        assert rc == 1 and len(posts) == 1
        assert capsys.readouterr().err == f"error: HTTP 401 from the embedding endpoint {url}/v1\n"
        assert not (tmp_path / "out" / "embed_errors.jsonl").exists()

    def test_vectors_of_another_length_in_one_reply_asked_again(self, synth_root, tmp_path,
                                                                monkeypatch):
        class LongerOnce(HashEmbeddingProvider):
            calls = 0

            def embed_batch(self, texts):
                LongerOnce.calls += 1
                vectors = super().embed_batch(texts)
                return [v + [1.0] for v in vectors] if LongerOnce.calls == 5 else vectors

        healthy = synthetic_config(synth_root, tmp_path / "healthy")
        run_pipeline(healthy, ["embed"])
        config = synthetic_config(synth_root, tmp_path / "longer")
        monkeypatch.setattr(pipeline, "build_embedding_provider",
                            lambda cfg: LongerOnce(cfg["dimension"], cfg["seed"]))
        assert run_pipeline(config, ["embed"])["embed"]["retry_items"] == 0
        assert index_bytes(config) == index_bytes(healthy)
        assert not (tmp_path / "longer" / "embed_errors.jsonl").exists()

    def test_embed_gives_up_after_max_attempts(self, synth_root, tmp_path, monkeypatch):
        class Down(HashEmbeddingProvider):
            calls = 0

            def embed_batch(self, texts):
                Down.calls += 1
                raise RetriableError("HTTP 503")

        config = synthetic_config(synth_root, tmp_path)
        monkeypatch.setattr(pipeline, "build_embedding_provider", lambda cfg: Down(64, 0))
        keys = CorpusStore(config.corpus_dir).keys()
        with pytest.raises(PipelineError, match=(
                f"no filing was embedded: {len(keys)} failed, each recorded in "
                f".*embed_errors.jsonl; the first: {keys[0][0]} {keys[0][1]}: embedding of "
                f"filing {keys[0][0]} {keys[0][1]} failed {MAX_ATTEMPTS} times")):
            run_pipeline(config, ["embed"])
        assert Down.calls == MAX_ATTEMPTS * len(keys)
        records = [json.loads(line)
                   for line in (tmp_path / "embed_errors.jsonl").read_text().splitlines()]
        assert [r["item"] for r in records] == [f"{t} {d}" for t, d in keys]
        assert not (Path(config.index_dir) / "vectors.bin").exists()

    def test_filing_that_cannot_be_embedded_is_recorded(self, synth_root, tmp_path,
                                                        monkeypatch, caplog):
        config = synthetic_config(synth_root, tmp_path / "down")
        down, _ = embed_down_for_one_filing(synth_root, config, monkeypatch)
        with caplog.at_level("WARNING", logger="filingsignal.pipeline"):
            run_pipeline(config, ["embed", "score"])
        assert [r.getMessage() for r in caplog.records if r.name == "filingsignal.pipeline"] \
            == [f"stage {stage}: 1 left out, each recorded in "
                f"{tmp_path / 'down' / f'{stage}_errors.jsonl'}; {retriable} of them for a "
                "cause that may pass, which the next run tries again"
                for stage, retriable in [("embed", 1), ("score", 0)]]
        monkeypatch.undo()
        without = synthetic_config(synth_root, tmp_path / "without")
        without.corpus_dir = str(corpus_copy(
            synth_root, tmp_path / "corpus",
            lambda rec: (rec["ticker"], rec["filing_date"]) != down))
        run_pipeline(without, ["embed"])
        assert index_bytes(config) == index_bytes(without)
        for name, error in [("embed_errors.jsonl", f"failed {MAX_ATTEMPTS} times: HTTP 503"),
                            ("score_errors.jsonl", "no indexed chunks")]:
            records = [json.loads(line)
                       for line in (tmp_path / "down" / name).read_text().splitlines()]
            assert [r["item"] for r in records] == [f"{down[0]} {down[1]}"], name
            assert error in records[0]["error"], name

    def test_left_out_filing_tried_again_on_the_next_run(self, synth_root, tmp_path,
                                                         monkeypatch):
        config = synthetic_config(synth_root, tmp_path / "out")
        down, refused = embed_down_for_one_filing(synth_root, config, monkeypatch)
        first = run_pipeline(config, ["embed", "score"])
        assert first["embed"]["retry_items"] == 1 and len(refused) == MAX_ATTEMPTS
        again = run_pipeline(config, ["embed", "score"])  # still down: embed runs, score skips
        assert again["embed"]["retry_items"] == 1 and len(refused) == 2 * MAX_ATTEMPTS
        assert again["score"] == first["score"]
        monkeypatch.undo()
        embedders = count_embedded(monkeypatch)
        healed = run_pipeline(config, ["embed", "score"])
        down_chunks = chunk_filing(CorpusStore(config.corpus_dir).load(down),
                                   config.chunk_chars, config.overlap_chars)
        assert embedders[0].texts == [c.text for c in down_chunks]
        assert healed["embed"]["retry_items"] == 0
        assert not (tmp_path / "out" / "embed_errors.jsonl").exists()
        assert not (tmp_path / "out" / "score_errors.jsonl").exists()
        cold = synthetic_config(synth_root, tmp_path / "cold")
        run_pipeline(cold, ["embed", "score"])
        assert index_bytes(config) == index_bytes(cold)
        assert (tmp_path / "out" / "features.csv").read_bytes() == \
            (tmp_path / "cold" / "features.csv").read_bytes()
        embedders.clear()
        run_pipeline(config, ["embed", "score"])
        assert embedders == []  # embed skipped: nothing left to retry

    @pytest.mark.parametrize("bad", [float("nan"), "x", "longer"])
    def test_unusable_vector_recorded_and_left_out(self, synth_root, tmp_path, monkeypatch,
                                                   bad):
        config = synthetic_config(synth_root, tmp_path / "out")
        keys = CorpusStore(config.corpus_dir).keys()
        down_texts = chunk_texts_of(config, [keys[3]])
        asked = []

        class Unusable(HashEmbeddingProvider):
            def embed_batch(self, texts):
                vectors = super().embed_batch(texts)
                if down_texts & set(texts):
                    asked.append(texts)
                    if bad == "longer":  # unlike the vectors of the other filings
                        return [v + [1.0] for v in vectors]
                    vectors[0][0] = bad
                return vectors

        monkeypatch.setattr(pipeline, "build_embedding_provider",
                            lambda cfg: Unusable(cfg["dimension"], cfg["seed"]))
        manifest = run_pipeline(config, ["embed"])
        assert len(asked) == MAX_ATTEMPTS and manifest["embed"]["retry_items"] == 0
        [record] = [json.loads(line) for line in
                    (tmp_path / "out" / "embed_errors.jsonl").read_text().splitlines()]
        assert record["item"] == f"{keys[3][0]} {keys[3][1]}"
        assert f"failed {MAX_ATTEMPTS} times" in record["error"]
        index = VectorIndex.load(config.index_dir)
        assert index.hashes_of(keys[3]) == [] and index.hashes_of(keys[4]) != []

    def test_lasting_embed_failure_not_rerun(self, synth_root, tmp_path, monkeypatch):
        config = synthetic_config(synth_root, tmp_path / "out")
        keys = CorpusStore(config.corpus_dir).keys()
        zeroed = [key for key in keys if key[0] == keys[0][0]]
        zero_texts = chunk_texts_of(config, zeroed)
        batches = []

        class ZeroForOneTicker(HashEmbeddingProvider):
            def embed_batch(self, texts):
                batches.append(texts)
                return [[0.0] * self.dimension if text in zero_texts else vector
                        for text, vector in zip(texts, super().embed_batch(texts))]

        monkeypatch.setattr(pipeline, "build_embedding_provider",
                            lambda cfg: ZeroForOneTicker(cfg["dimension"], cfg["seed"]))
        first = run_pipeline(config, ["embed"])
        assert first["embed"]["retry_items"] == 0
        errors = (tmp_path / "out" / "embed_errors.jsonl").read_text().splitlines()
        assert [json.loads(line)["item"] for line in errors] == [f"{t} {d}" for t, d in zeroed]
        batches.clear()
        assert run_pipeline(config, ["embed"])["embed"] == first["embed"]
        assert batches == []  # skipped: nothing a rerun could mend

    def test_row_failed_by_an_outage_scored_on_the_next_run(self, synth_root, tmp_path,
                                                            monkeypatch):
        config = synthetic_config(synth_root, tmp_path / "out")
        store = CorpusStore(config.corpus_dir)
        down = store.keys()[3]
        down_texts = [c.text for c in chunk_filing(store.load(down), config.chunk_chars,
                                                   config.overlap_chars)]
        asked = []  # per provider call: was it a prompt of the down filing?

        class DownForOneFiling(KeywordLLM):
            outage = True

            def complete(self, system_prompt, user_prompt):
                asked.append(any(text in user_prompt for text in down_texts))
                if asked[-1] and self.outage:
                    raise RetriableError("HTTP 503")
                return super().complete(system_prompt, user_prompt)

        llm = DownForOneFiling(PLANTED_PHRASE, 30, 10, 8)
        monkeypatch.setattr(pipeline, "build_llm_provider", lambda cfg: llm)
        first = run_pipeline(config, ["embed", "score"])
        assert first["score"]["retry_items"] == 1
        assert asked.count(True) == MAX_ATTEMPTS
        llm.outage = False
        asked.clear()
        healed = run_pipeline(config, ["embed", "score"])
        assert healed["score"]["retry_items"] == 0
        assert asked and all(asked)  # only the down filing's questions are asked
        assert not (tmp_path / "out" / "score_errors.jsonl").exists()
        asked.clear()
        run_pipeline(config, ["embed", "score"])
        assert asked == []  # score skipped: nothing left to retry
        monkeypatch.undo()
        cold = synthetic_config(synth_root, tmp_path / "cold")
        run_pipeline(cold, ["embed", "score"])
        assert (tmp_path / "out" / "features.csv").read_bytes() == \
            (tmp_path / "cold" / "features.csv").read_bytes()

    def test_unparseable_row_not_retried(self, synth_root, tmp_path, monkeypatch):
        """An answer without a score is a lasting cause, unlike an outage. (So
        is a filing left out of the index; see
        test_left_out_filing_tried_again_on_the_next_run.)"""
        config = synthetic_config(synth_root, tmp_path / "out")
        down = CorpusStore(config.corpus_dir).keys()[3]
        down_texts = chunk_texts_of(config, [down])
        complete = KeywordLLM.complete
        monkeypatch.setattr(KeywordLLM, "complete", lambda self, system, user: (
            "no score" if any(text in user for text in down_texts)
            else complete(self, system, user)))
        first = run_pipeline(config, ["embed", "score"])
        [error] = [json.loads(line) for line in
                   (tmp_path / "out" / "score_errors.jsonl").read_text().splitlines()]
        assert error["item"] == f"{down[0]} {down[1]}"
        assert first["score"]["retry_items"] == 0

    def test_no_filing_scored_is_an_error(self, synth_root, tmp_path, monkeypatch):
        config = synthetic_config(synth_root, tmp_path)
        monkeypatch.setattr(KeywordLLM, "complete", lambda self, system, user: "no score")
        keys = CorpusStore(config.corpus_dir).keys()
        with pytest.raises(PipelineError, match=(
                f"no filing was scored: {len(keys)} failed, each recorded in "
                f".*score_errors.jsonl; the first: {keys[0][0]} {keys[0][1]}: .*"
                "no parseable score in response: 'no score'")):
            run_pipeline(config, ["embed", "score"])
        assert len((tmp_path / "score_errors.jsonl").read_text().splitlines()) == len(keys)
        assert not (tmp_path / "features.csv").exists()
        assert "score" not in json.loads((tmp_path / pipeline.MANIFEST_FILE).read_text())

    @pytest.mark.parametrize("reply", [json_reply({}, status=503),
                                       json_reply({"embeddings": []})])
    def test_question_embedding_retried_then_named(self, synth_root, tmp_path, reply):
        stub = HashEmbeddingProvider(64, 0)
        failing = []  # how many more requests get ``reply``; -1: every one

        def post(data, headers):
            if failing and failing[0]:
                failing[0] -= 1
                return reply
            return json_reply({"embeddings": stub.embed_batch(json.loads(data)["texts"])})

        def config(out):
            c = synthetic_config(synth_root, tmp_path / out)
            c.embedding_provider = {"name": "http", "endpoint": url + "/v1", "model": "m"}
            return c

        [first, *_] = pipeline.load_questions(synthetic_config(synth_root, tmp_path)).questions
        with loopback(post) as url:
            for out in ("retried", "healthy", "down"):
                run_pipeline(config(out), ["embed"])
            failing[:] = [1]  # the first question's first request
            run_pipeline(config("retried"), ["score"])
            run_pipeline(config("healthy"), ["score"])
            failing[:] = [-1]
            with pytest.raises(PipelineError,
                               match=f"question {first.question_id} failed {MAX_ATTEMPTS} times"):
                run_pipeline(config("down"), ["score"])
        assert (tmp_path / "retried" / "features.csv").read_bytes() == \
            (tmp_path / "healthy" / "features.csv").read_bytes()

    def test_index_from_other_embedder_rejected(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, ["embed"])
        config.embedding_provider = {**config.embedding_provider, "seed": 1}
        with pytest.raises(StageInputError, match="run stage 'embed' first"):
            run_pipeline(config, ["score"])
        # Without the manifest, only the index itself records its provider.
        (tmp_path / "pipeline_manifest.json").unlink()
        with pytest.raises(PipelineError, match="hash-stub-d64-s0.*hash-stub-d64-s1"):
            run_pipeline(config, ["score"])

    @pytest.mark.parametrize("before, after", [(256, 400), (400, 300)])
    def test_stale_producer_refused(self, synth_root, tmp_path, before, after):
        config = synthetic_config(synth_root, tmp_path)
        config.chunk_chars, config.overlap_chars = before, 32
        run_pipeline(config, ["embed", "score"])
        features = (tmp_path / "features.csv").read_bytes()
        config.chunk_chars = after  # the index no longer matches the chunks
        with pytest.raises(StageInputError, match="stale.*run stage 'embed' first"):
            run_pipeline(config, ["score"])
        assert (tmp_path / "features.csv").read_bytes() == features
        run_pipeline(config, ["embed", "score"])
        assert (tmp_path / "features.csv").read_bytes() != features

    @pytest.mark.parametrize("after", [300, 200])  # fewer chunks, more chunks
    def test_chunking_unlike_the_index_refused(self, synth_root, tmp_path, after):
        config = synthetic_config(synth_root, tmp_path)
        config.chunk_chars, config.overlap_chars = 256, 32
        run_pipeline(config, ["embed", "score"])
        (tmp_path / pipeline.MANIFEST_FILE).unlink()  # only the index is left to tell
        config.chunk_chars = after
        with pytest.raises(StageInputError, match="rows in the index.*run stage 'embed'"):
            run_pipeline(config, ["score"])

    def test_shifted_chunks_unlike_the_index_refused(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        config.chunk_chars, config.overlap_chars = 400, 32
        run_pipeline(config, ["embed", "score"])
        features = (tmp_path / "features.csv").read_bytes()
        (tmp_path / pipeline.MANIFEST_FILE).unlink()  # only the index is left to tell
        filings = list(CorpusStore(config.corpus_dir).load_all())
        config.overlap_chars = 48  # chunk boundaries move, no filing's chunk count changes
        assert [len(chunk_filing(f, 400, 48)) for f in filings] == \
            [len(chunk_filing(f, 400, 32)) for f in filings]
        with pytest.raises(StageInputError, match="rows in the index.*run stage 'embed'"):
            run_pipeline(config, ["score"])
        assert (tmp_path / "features.csv").read_bytes() == features

    def test_interrupted_manifest_write_keeps_previous(self, synth_root, tmp_path,
                                                       monkeypatch):
        write_bytes = Path.write_bytes

        def killed_mid_manifest(path, data):
            if not path.name.startswith(pipeline.MANIFEST_FILE):
                return write_bytes(path, data)
            write_bytes(path, data[:len(data) // 2])
            raise Killed

        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, ["embed"])
        manifest_path = tmp_path / pipeline.MANIFEST_FILE
        before = json.loads(manifest_path.read_text())
        with monkeypatch.context() as m:
            m.setattr(Path, "write_bytes", killed_mid_manifest)
            with pytest.raises(Killed):
                run_pipeline(config, ["embed", "score"])
        assert json.loads(manifest_path.read_text()) == before
        after = run_pipeline(config, ["embed", "score"])
        assert after["embed"] == before["embed"] and "score" in after

    def test_bad_price_series_skipped_and_recorded(self, tmp_path):
        root = make_workspace(tmp_path / "ws", seed=0)
        clean = synthetic_config(root, tmp_path / "clean")
        run_pipeline(clean, ["returns"])
        prices = root / "prices" / "prices.csv"
        prices.write_text(prices.read_text().replace("HTEL,2015-01-02,100.0",
                                                     "HTEL,2015-01-02,0.0"))
        config = synthetic_config(root, tmp_path / "out")
        run_pipeline(config, ["returns"])
        rows = (tmp_path / "clean" / "returns.csv").read_text().splitlines()
        kept = [row for row in rows if not row.startswith("HTEL,")]
        assert len(kept) < len(rows)
        assert (tmp_path / "out" / "returns.csv").read_text().splitlines() == kept
        errors = (tmp_path / "out" / "returns_errors.jsonl").read_text()
        assert "HTEL: bad price 0.0 on 2015-01-02" in errors

    def test_no_return_window_is_refused(self, tmp_path):
        root = make_workspace(tmp_path / "ws", seed=0)
        prices = root / "prices" / "prices.csv"
        prices.write_text("".join(row for row in prices.read_text().splitlines(keepends=True)
                                  if row.startswith(("symbol,", "SPX,"))))
        config = synthetic_config(root, tmp_path / "out")
        with pytest.raises(PipelineError, match=(
                "no return window was computed: 8 failed, each recorded in "
                ".*returns_errors.jsonl; the first: ")):
            run_pipeline(config, ["returns"])
        assert not (tmp_path / "out" / "returns.csv").exists()
        assert not (tmp_path / "out" / pipeline.MANIFEST_FILE).exists()
        errors = (tmp_path / "out" / "returns_errors.jsonl").read_text().splitlines()
        assert len(errors) == 8

    def test_bad_benchmark_series_is_an_error_line(self, tmp_path, capsys):
        root = make_workspace(tmp_path / "ws", seed=0)
        prices = root / "prices" / "prices.csv"
        prices.write_text(prices.read_text().replace("SPX,2015-01-02,100.0",
                                                     "SPX,2015-01-02,-1.0"))
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(yaml_mapping(synthetic_config(root, tmp_path))))
        rc = cli.main(["pipeline", "--config", str(cfg_path), "--stages", "returns"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: benchmark series unusable: SPX")

    def test_price_csv_without_a_column_is_an_error_line(self, tmp_path, capsys):
        root = make_workspace(tmp_path / "ws", seed=0)
        extra = root / "prices" / "extra.csv"
        extra.write_text("symbol,date,close\nXTRA,2015-01-02,10.0\n")
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(yaml_mapping(synthetic_config(root, tmp_path))))
        rc = cli.main(["pipeline", "--config", str(cfg_path), "--stages", "returns"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {extra}: ") and "no column adjusted_close" in err
        assert not (tmp_path / "returns.csv").exists()

    @pytest.mark.parametrize("bad_row, named", [
        ("HTEL,2015-01-05,n/a", "'HTEL,2015-01-05,n/a': could not convert"),
        ("HTEL,2015-13-05,100.0", "'HTEL,2015-13-05,100.0': month must be"),
        ("HTEL,2015-01-05", "'HTEL,2015-01-05': list index out of range"),
    ])
    def test_unparseable_price_row_skipped_and_recorded(self, tmp_path, bad_row, named):
        root = make_workspace(tmp_path / "ws", seed=0)
        clean = synthetic_config(root, tmp_path / "clean")
        run_pipeline(clean, ["returns"])
        prices = root / "prices" / "prices.csv"
        lines = prices.read_text().splitlines()
        line = next(i for i, row in enumerate(lines) if row.startswith("HTEL,2015-01-05,"))
        lines[line] = bad_row
        prices.write_text("\n".join(lines) + "\n")
        config = synthetic_config(root, tmp_path / "out")
        run_pipeline(config, ["returns"])
        rows = (tmp_path / "clean" / "returns.csv").read_text().splitlines()
        kept = [row for row in rows if not row.startswith("HTEL,")]
        assert len(kept) < len(rows)
        assert (tmp_path / "out" / "returns.csv").read_text().splitlines() == kept
        errors = [json.loads(rec) for rec in
                  (tmp_path / "out" / "returns_errors.jsonl").read_text().splitlines()]
        series, = [rec["error"] for rec in errors if rec["item"].startswith("HTEL")]
        assert series.startswith(f"HTEL: {prices} line {line + 1}: {named}")

    def test_unneeded_symbol_not_read_but_its_edit_reruns_returns(self, tmp_path,
                                                                   monkeypatch):
        root = make_workspace(tmp_path / "ws", seed=0)
        run_pipeline(synthetic_config(root, tmp_path / "clean"), ["returns"])
        prices = root / "prices" / "prices.csv"
        extra = [f"XTRA,2015-01-{day:02d},{10 + day}.0" for day in range(2, 10)]
        extra[3] = "XTRA,2015-01-05,n/a"  # a row that does not parse
        prices.write_bytes(prices.read_bytes() + "\n".join(extra + [""]).encode())
        loads, load = [], pipeline.md.load_price_dir
        monkeypatch.setattr(pipeline.md, "load_price_dir",
                            lambda *args: loads.append(args) or load(*args))
        out = tmp_path / "out"
        config = synthetic_config(root, out)
        run_pipeline(config, ["returns"])
        errors = out / "returns_errors.jsonl"
        assert not errors.exists() or b"XTRA" not in errors.read_bytes()
        assert (out / "returns.csv").read_bytes() == \
            (tmp_path / "clean" / "returns.csv").read_bytes()
        run_pipeline(config, ["returns"])
        assert len(loads) == 1  # unchanged prices: the stage is skipped
        prices.write_bytes(prices.read_bytes().replace(b"XTRA,2015-01-06,16.0",
                                                       b"XTRA,2015-01-06,17.0"))
        run_pipeline(config, ["returns"])
        assert len(loads) == 2  # the input hash covers every symbol's rows

    def test_unparseable_benchmark_row_is_an_error_line(self, tmp_path, capsys):
        root = make_workspace(tmp_path / "ws", seed=0)
        prices = root / "prices" / "prices.csv"
        prices.write_text(prices.read_text().replace("SPX,2015-01-05,100.04011",
                                                     "SPX,2015-01-05,"))
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(yaml_mapping(synthetic_config(root, tmp_path))))
        rc = cli.main(["pipeline", "--config", str(cfg_path), "--stages", "returns"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: benchmark series unusable: SPX: {prices} line ")
        assert not (tmp_path / "returns.csv").exists()

    def test_test_years_without_filings_refused(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        config.test_years = (2030, 2031)
        with pytest.raises(PipelineError, match=r"test_years \[2030, 2031\]"):
            run_pipeline(config, SYNTH_STAGES)
        assert not (tmp_path / "report.json").exists()

    def test_label_without_windows_refused(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        (tmp_path / "returns.csv").write_text(
            "ticker,filing_date,next_filing_date,target_12m,target_max,target_min,"
            "sp500_12m,sp500_max,flags\n")
        with pytest.raises(PipelineError, match="no return windows.*returns_errors.jsonl"):
            run_pipeline(config, ["label"])

    def test_ksweep_weakly_decreasing(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, SYNTH_STAGES)
        lines = (tmp_path / "ksweep.csv").read_text().strip().splitlines()[1:]
        means = [float(line.split(",")[1]) for line in lines]
        assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))

    def test_backtest_predicts_each_test_row_once(self, synth_root, tmp_path, monkeypatch):
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, SYNTH_STAGES[:-1])
        _, rows = read_features_csv(tmp_path / "features.csv")
        lo, hi = config.test_years
        test_rows = [row for row in rows if lo <= int(row.filing_key[1][:4]) <= hi]
        calls = []
        predict = NNLSModel.predict
        monkeypatch.setattr(NNLSModel, "predict",
                            lambda model, scores: calls.append(1) or predict(model, scores))
        run_pipeline(config, ["backtest"])
        assert len(calls) == len(test_rows) == 24


def submissions(filing_date, doc):
    return json.dumps({"filings": {"recent": {
        "form": ["10-K"], "filingDate": [filing_date],
        "accessionNumber": ["0000000002-20-000001"], "primaryDocument": [doc]}}})


@pytest.fixture
def edgar_transport(monkeypatch):
    """Installs a fake in place of EDGAR's HTTP transport, with EDGAR_CONTACT
    set, as a client on the default transport requires."""
    monkeypatch.setenv(edgar.CONTACT_ENV_VAR, "Research Bot research@example.com")
    return lambda transport: monkeypatch.setattr(edgar, "_http_transport", transport)


def fake_edgar(aaa_reply, html, calls=None):
    """EDGAR answering AAA's submissions (cik 1) with ``aaa_reply``; BBB (cik 2)
    has one 10-K, and any document but a ``10k.htm`` is missing. Appends each
    URL asked to ``calls``."""
    def reply(url):
        if "CIK0000000001" in url:
            return aaa_reply
        if "CIK0000000002" in url:
            return 200, submissions("2020-02-14", "bbb10k.htm")
        if url.endswith("10k.htm"):
            return 200, html
        return 404, "not found"

    def transport(url):
        if calls is not None:
            calls.append(url)
        return (*reply(url), {})
    return transport


class TestIngest:
    def config(self, tmp_path):
        (tmp_path / "universe.csv").write_text("ticker,cik\nAAA,1\nBBB,2\n")
        return dataclasses.replace(synthetic_config(tmp_path, tmp_path / "out"),
                                   year_from=2020, year_to=2020)

    @pytest.mark.parametrize("reply, named", [
        ((500, "boom"), f"submissions for AAA failed {MAX_ATTEMPTS} times: HTTP 500"),
        ((200, "<html>not json</html>"), "Expecting value"),
    ])
    def test_one_ticker_failure_is_recorded(self, tmp_path, edgar_transport,
                                            sample_10k_html, reply, named):
        edgar_transport(fake_edgar(reply, sample_10k_html))
        config = self.config(tmp_path)
        run_pipeline(config, ["ingest"])
        assert ("BBB", "2020-02-14") in CorpusStore(config.corpus_dir)
        errors = [json.loads(line) for line in
                  (tmp_path / "out" / "ingest_errors.jsonl").read_text().splitlines()]
        assert [e["item"] for e in errors] == ["AAA"]
        assert named in errors[0]["error"]

    def test_failed_ticker_fetched_on_the_next_run(self, tmp_path, edgar_transport,
                                                   sample_10k_html):
        config = self.config(tmp_path)
        edgar_transport(fake_edgar((500, "boom"), sample_10k_html))
        assert run_pipeline(config, ["ingest"])["ingest"]["retry_items"] == 1
        edgar_transport(fake_edgar(
            (200, submissions("2020-02-14", "aaa10k.htm")), sample_10k_html))
        assert run_pipeline(config, ["ingest"])["ingest"]["retry_items"] == 0
        assert ("AAA", "2020-02-14") in CorpusStore(config.corpus_dir)

    def test_retry_run_asks_only_for_the_failed_tickers(self, tmp_path, edgar_transport,
                                                        sample_10k_html):
        calls = []
        edgar_transport(fake_edgar((500, "boom"), sample_10k_html, calls))
        config = self.config(tmp_path)
        assert run_pipeline(config, ["ingest"])["ingest"]["retry_items"] == 1
        aaa, bbb = (edgar.SUBMISSIONS_URL.format(cik=f"000000000{n}") for n in (1, 2))
        calls.clear()
        assert run_pipeline(config, ["ingest"])["ingest"]["retry_items"] == 1
        assert calls == [aaa] * MAX_ATTEMPTS  # BBB's stored filing is not resolved again
        errors = [json.loads(line) for line in
                  (tmp_path / "out" / "ingest_errors.jsonl").read_text().splitlines()]
        assert [e["item"] for e in errors] == ["AAA"]
        assert ("BBB", "2020-02-14") in CorpusStore(config.corpus_dir)
        calls.clear()
        config.year_from = 2019  # other years: every ticker is resolved again
        assert run_pipeline(config, ["ingest"])["ingest"]["retry_items"] == 1
        assert sorted(set(calls)) == [aaa, bbb]

    def test_stopped_retry_run_keeps_every_ticker_to_retry(self, tmp_path, edgar_transport,
                                                           sample_10k_html):
        """A retry run stopped after one of its tickers leaves the errors file
        naming that one alone; the next run still retries them all."""
        config = self.config(tmp_path)
        (tmp_path / "universe.csv").write_text("ticker,cik\nAAA,1\nBBB,2\nCCC,3\n")
        ccc_reply, calls = [(500, "boom")], []
        aaa = fake_edgar((500, "boom"), sample_10k_html)

        def transport(url):
            calls.append(url)
            return (*ccc_reply[0], {}) if "CIK0000000003" in url else aaa(url)
        edgar_transport(transport)
        assert run_pipeline(config, ["ingest"])["ingest"]["retry_items"] == 2
        ccc_reply[0] = (403, "forbidden")  # AAA is recorded again, then CCC stops the run
        with pytest.raises(FinalStatusError):
            run_pipeline(config, ["ingest"])
        errors = [json.loads(line) for line in
                  (tmp_path / "out" / "ingest_errors.jsonl").read_text().splitlines()]
        assert [e["item"] for e in errors] == ["AAA"]
        ccc_reply[0] = (200, submissions("2020-02-14", "ccc10k.htm"))
        calls.clear()
        assert run_pipeline(config, ["ingest"])["ingest"]["retry_items"] == 1
        assert edgar.SUBMISSIONS_URL.format(cik="0000000003") in calls
        assert ("CCC", "2020-02-14") in CorpusStore(config.corpus_dir)

    @pytest.mark.parametrize("text, named", [
        ("ticker\nAAA\n", "no column ['cik']"),
        ("ticker,cik\nAAA,12x\n", "cik must be 10 digits, got '12x' for AAA"),
        ("ticker,cik\nAAA\n", "cik must be 10 digits, got '' for AAA"),
        ("ticker,cik\nAAA,1\nAAA,2\n", "duplicate tickers in universe: ['AAA']"),
    ], ids=["no-cik-column", "bad-cik", "no-cik", "repeated-ticker"])
    def test_universe_mistake_is_an_error_line(self, tmp_path, capsys, text, named):
        config = self.config(tmp_path)
        (tmp_path / "universe.csv").write_text(text)
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(yaml_mapping(config)))
        assert cli.main(["pipeline", "--config", str(cfg_path), "--stages", "ingest"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'universe.csv'}: ") and named in err

    def test_no_ticker_resolved_is_an_error(self, tmp_path, edgar_transport):
        edgar_transport(lambda url: (404, "not found", {}))
        with pytest.raises(PipelineError, match="no ticker resolved.*ingest_errors.jsonl.*"
                                                "AAA: HTTP 404 from https://data.sec.gov/"
                                                r"submissions/CIK0000000001\.json"):
            run_pipeline(self.config(tmp_path), ["ingest"])

    def test_missing_contact_is_an_error_line(self, tmp_path, monkeypatch, capsys, slept):
        monkeypatch.delenv(edgar.CONTACT_ENV_VAR, raising=False)  # refused before any request
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(yaml_mapping(self.config(tmp_path))))
        assert cli.main(["pipeline", "--config", str(cfg_path), "--stages", "ingest"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: refusing to contact EDGAR without {edgar.CONTACT_ENV_VAR}")
        assert slept == [] and not (tmp_path / "out" / "ingest_errors.jsonl").exists()

    def test_missing_document_recorded_and_not_retried(self, tmp_path, edgar_transport,
                                                       sample_10k_html, slept):
        calls = []
        edgar_transport(fake_edgar(
            (200, submissions("2020-02-14", "gone.htm")), sample_10k_html, calls))
        config = self.config(tmp_path)
        assert run_pipeline(config, ["ingest"])["ingest"]["retry_items"] == 0
        assert [url.rsplit("/", 1)[1] for url in calls].count("gone.htm") == 1
        assert ("BBB", "2020-02-14") in CorpusStore(config.corpus_dir)
        [error] = [json.loads(line) for line in
                   (tmp_path / "out" / "ingest_errors.jsonl").read_text().splitlines()]
        assert error["item"] == "AAA 2020-02-14" and "HTTP 404" in error["error"]
        calls.clear()
        run_pipeline(config, ["ingest"])
        assert calls == [] and slept == []  # skipped: nothing a rerun could mend

    def test_no_filing_fetched_is_an_error(self, tmp_path, edgar_transport, sample_10k_html):
        config = self.config(tmp_path)
        (tmp_path / "universe.csv").write_text("ticker,cik\nAAA,1\n")
        edgar_transport(fake_edgar(
            (200, submissions("2020-02-14", "gone.htm")), sample_10k_html))
        with pytest.raises(PipelineError, match=(
                "no filing could be fetched: 1 failed, each recorded in "
                ".*ingest_errors.jsonl; "
                "the first: AAA 2020-02-14: HTTP 404 from https://")):
            run_pipeline(config, ["ingest"])

    def test_final_status_other_than_404_stops_ingest(self, tmp_path, edgar_transport,
                                                      sample_10k_html):
        edgar_transport(fake_edgar((403, "forbidden"), sample_10k_html))
        with pytest.raises(FinalStatusError, match="HTTP 403 from https://"):
            run_pipeline(self.config(tmp_path), ["ingest"])

    def test_ingest_without_universe_csv_is_an_error_line(self, tmp_path, capsys):
        mapping = yaml_mapping(self.config(tmp_path))
        del mapping["universe_csv"]
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(mapping))
        assert cli.main(["pipeline", "--config", str(cfg_path), "--stages", "ingest"]) == 1
        assert capsys.readouterr().err.startswith("error: stage 'ingest' needs universe_csv")


def caused(error, cause):
    """``error`` as ``raise error from cause`` leaves it."""
    error.__cause__ = cause
    return error


# While a stage runs under ``reads_by_stage``, the set its reads are added to.
_stage_reads: list[set[str]] = []
MODULE_SUFFIXES = tuple(importlib.machinery.all_suffixes())


def _record_read(event, args):
    """An audit hook: adds each file opened for reading to the running stage's set."""
    if event == "open" and _stage_reads and not isinstance(args[0], int) \
            and args[2] & os.O_ACCMODE != os.O_WRONLY:
        _stage_reads[-1].add(os.fsdecode(args[0]))


def reads_by_stage(monkeypatch):
    """The files each stage run from here on opens for reading, by stage name,
    as the ``open`` audit event reports them. An audit hook cannot be
    removed, so one hook is added once, and it records only while a stage runs."""
    if not getattr(_record_read, "added", False):
        sys.addaudithook(_record_read)
        _record_read.added = True
    reads = {}

    def audited(stage):
        def run(*args):
            _stage_reads.append(reads.setdefault(stage.name, set()))
            try:
                stage.run(*args)
            finally:
                _stage_reads.pop()
        return dataclasses.replace(stage, run=run)

    monkeypatch.setattr(pipeline, "STAGES", [audited(s) for s in pipeline.STAGES])
    return reads


def undeclared_reads(config, reads):
    """Of ``reads``, by stage, each file other than a module that is none of
    these: a declared input of the stage, a corpus filing, the score cache,
    the index that embed reuses, or the corpus manifest that ingest adds to."""
    filings = CorpusStore(config.corpus_dir).filings_dir.resolve()
    kept = {"ingest": [config.corpus_manifest], "embed": [config.index_file],
            "score": [Path(config.out("score_cache.jsonl"))]}
    stages = {s.name: s for s in pipeline.STAGES}
    undeclared = {}
    for name, paths in reads.items():
        allowed = {p.resolve() for p in [*stages[name].inputs(config), *kept.get(name, [])]}
        undeclared[name] = sorted(
            path for path in map(Path, paths) if not path.name.endswith(MODULE_SUFFIXES)
            and path.resolve() not in allowed and path.resolve().parent != filings)
    return undeclared


class TestDeclaredFiles:
    def test_stages_read_only_declared_files(self, synth_root, tmp_path, monkeypatch):
        """Cold and as a yearly update, every synthetic stage runs and reads only
        the files ``undeclared_reads`` allows."""
        config = synthetic_config(synth_root, tmp_path / "out")
        older = corpus_copy(synth_root, tmp_path / "corpus",
                            lambda record: record["filing_date"] < "2020")
        for corpus in [older, synth_root / "corpus"]:
            config.corpus_dir = str(corpus)
            with monkeypatch.context() as m:
                reads = reads_by_stage(m)
                run_pipeline(config, SYNTH_STAGES)
            assert sorted(reads) == sorted(SYNTH_STAGES)
            assert undeclared_reads(config, reads) == {name: [] for name in SYNTH_STAGES}

    def test_ingest_reads_only_declared_files(self, tmp_path, monkeypatch, edgar_transport,
                                              sample_10k_html):
        edgar_transport(fake_edgar((200, submissions("2019-02-14", "aaa10k.htm")),
                                   sample_10k_html))
        (tmp_path / "universe.csv").write_text("ticker,cik\nAAA,1\nBBB,2\n")
        config = synthetic_config(tmp_path, tmp_path / "out")
        config.year_from = 2019
        for year_to in [2019, 2020]:  # cold, then a yearly update
            config.year_to = year_to
            with monkeypatch.context() as m:
                reads = reads_by_stage(m)
                run_pipeline(config, ["ingest"])
            assert undeclared_reads(config, reads) == {"ingest": []}
        assert len(CorpusStore(config.corpus_dir)) == 2

    def test_edited_packaged_questions_rerun_score(self, synth_root, tmp_path, monkeypatch):
        config = synthetic_config(synth_root, tmp_path)
        before = run_pipeline(config, SYNTH_STAGES)
        features = features_bytes(config)
        data = json.loads(pipeline.questions_path(config).read_text())
        data["questions"][0]["id"] = "renamed"
        edited = tmp_path / "questions_default.json"
        edited.write_text(json.dumps(data))
        monkeypatch.setattr(pipeline, "questions_path", lambda config: edited)
        after = run_pipeline(config, SYNTH_STAGES)
        assert after["score"]["inputs"] != before["score"]["inputs"]
        assert features_bytes(config) != features
        assert features_bytes(config).startswith(b"ticker,filing_date,q_renamed,")

    def test_first_run_after_upgrade_reruns_only_score(self, synth_root, tmp_path,
                                                       monkeypatch):
        """A manifest written before the packaged question file was an input of
        score reruns score once, from its cache, and no other stage."""
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, SYNTH_STAGES)
        path = tmp_path / pipeline.MANIFEST_FILE
        older = json.loads(path.read_text())
        del older["score"]["inputs"][str(pipeline.questions_path(config))]
        path.write_text(json.dumps(older))
        embedders = count_embedded(monkeypatch)
        asked, complete = [], KeywordLLM.complete
        monkeypatch.setattr(KeywordLLM, "complete",
                            lambda llm, *prompts: asked.append(prompts) or complete(llm, *prompts))
        after = run_pipeline(config, SYNTH_STAGES)
        assert [s for s in SYNTH_STAGES if after[s] != older[s]] == ["score"]
        assert asked == [] and [e.texts for e in embedders] == [[]]


class TestFailures:
    @pytest.mark.parametrize("error, retriable", [
        (RetriableError("HTTP 503 from the LLM endpoint", 503), 1),
        (caused(PipelineError("embedding of filing AAA 2020-02-14 failed 3 times: "
                              "2 vectors for 3 texts"), ValueError("2 vectors")), 0),
        (caused(RetriableError("question q failed 3 times: HTTP 503"),
                RetriableError("HTTP 503", 503)), 1),
        (caused(PipelineError("question q failed 3 times: no parseable score in "
                              "response: 'no score'"),
                ValueError("no parseable score in response: 'no score'")), 0),
        (PipelineError("HTTP 404 from https://www.sec.gov/x"), 0),
        (PipelineError("document is empty after cleaning"), 0),
        ("no price series, skipped", 0),
    ], ids=["retriable", "unusable-reply", "row-after-outage", "row-unparseable",
            "missing-404", "empty-document", "reason"])
    def test_retry_rule(self, tmp_path, error, retriable):
        failures = Failures(tmp_path / "x_errors.jsonl")
        failures.record("AAA 2020-02-14", error)
        assert failures.retriable == retriable

    def test_final_status_is_raised_and_not_recorded(self, tmp_path):
        failures = Failures(tmp_path / "x_errors.jsonl")
        error = FinalStatusError("HTTP 401 from the LLM endpoint http://127.0.0.1/v1")
        with pytest.raises(FinalStatusError) as exc:
            failures.record("AAA 2020-02-14", error)
        assert exc.value is error and failures.items == []

    def test_one_item_failing_in_each_stage(self, synth_root, tmp_path, monkeypatch,
                                            edgar_transport):
        """Each stage that leaves items out writes them in one schema; the
        manifest counts the retriable ones; a clean rerun removes each file."""
        corpus = corpus_copy(synth_root, tmp_path / "corpus")
        prices = shutil.copytree(synth_root / "prices", tmp_path / "prices") / "prices.csv"
        clean_prices = prices.read_text()
        prices.write_text(clean_prices.replace("HTEL,2015-01-02,100.0", "HTEL,2015-01-02,0.0"))
        keys = CorpusStore(corpus).keys()
        filed = {ticker: day for ticker, day in keys if day.startswith("2020")}
        resolving, outage = sorted(filed)[:2]
        (tmp_path / "universe.csv").write_text(f"ticker,cik\n{outage},1\n{resolving},2\n")
        config = dataclasses.replace(
            synthetic_config(synth_root, tmp_path / "out"), corpus_dir=str(corpus),
            prices_dir=str(prices.parent), universe_csv=str(tmp_path / "universe.csv"),
            year_from=2020, year_to=2020)
        down = [True]

        def transport(url):  # both tickers' 2020 10-K is stored: no document is fetched
            if down and "CIK0000000001" in url:
                return 500, "boom", {}
            ticker = outage if "CIK0000000001" in url else resolving
            return 200, submissions(filed[ticker], "10k.htm"), {}

        unembedded = chunk_texts_of(config, [keys[3]])
        unscored = chunk_texts_of(config, [keys[5]])

        class Embedder(HashEmbeddingProvider):
            def embed_batch(self, texts):
                if down and unembedded & set(texts):
                    raise RetriableError("HTTP 503")
                return super().embed_batch(texts)

        complete = KeywordLLM.complete

        def llm(self, system, user):
            if down and any(text in user for text in unscored):
                raise RetriableError("HTTP 503")
            return complete(self, system, user)

        edgar_transport(transport)
        monkeypatch.setattr(pipeline, "build_embedding_provider",
                            lambda cfg: Embedder(cfg["dimension"], cfg["seed"]))
        monkeypatch.setattr(KeywordLLM, "complete", llm)
        stages = ["ingest", "embed", "score", "returns"]
        manifest = run_pipeline(config, stages)
        items = {}
        for stage in stages:
            records = [json.loads(line) for line in
                       (tmp_path / "out" / f"{stage}_errors.jsonl").read_text().splitlines()]
            assert all(sorted(r) == ["error", "item"] and isinstance(r["item"], str)
                       and isinstance(r["error"], str) for r in records), stage
            items[stage] = [r["item"] for r in records]
            assert manifest[stage]["retry_items"] == \
                sum("HTTP 50" in r["error"] for r in records), stage
        assert items == {"ingest": [outage],
                         "embed": [" ".join(keys[3])],
                         "score": [" ".join(keys[3]), " ".join(keys[5])],
                         "returns": ["HTEL"]}
        assert [manifest[stage]["retry_items"] for stage in stages] == [1, 1, 1, 0]
        down.clear()
        prices.write_text(clean_prices)
        manifest = run_pipeline(config, stages)
        for stage in stages:
            assert manifest[stage]["retry_items"] == 0
            assert not (tmp_path / "out" / f"{stage}_errors.jsonl").exists(), stage


class TestIncrementalEmbed:
    @pytest.mark.parametrize("chunking", [(4096, 256), (400, 32)])
    def test_grown_corpus_embeds_new_filings_to_cold_bytes(self, synth_root, tmp_path,
                                                           monkeypatch, caplog, chunking):
        config = synthetic_config(synth_root, tmp_path / "grown")
        cold = synthetic_config(synth_root, tmp_path / "cold")
        for c in (config, cold):
            c.chunk_chars, c.overlap_chars = chunking
        config.corpus_dir = str(corpus_copy(synth_root, tmp_path / "corpus", before_2019))
        run_pipeline(config, ["embed"])
        old_texts = chunk_texts(config)
        config.corpus_dir = cold.corpus_dir
        embedders = count_embedded(monkeypatch)
        run_pipeline(config, ["embed"])
        assert embedders[0].texts == [t for t in chunk_texts(config) if t not in old_texts]
        assert len(embedders[0].texts) < len(chunk_texts(config))
        monkeypatch.undo()
        run_pipeline(cold, ["embed"])
        assert index_bytes(config) == index_bytes(cold)
        assert "WARNING" not in [r.levelname for r in caplog.records]  # no index is no fault

    def test_edited_filing_reembeds_only_its_changed_chunks(self, synth_root, tmp_path,
                                                            monkeypatch):
        config = synthetic_config(synth_root, tmp_path / "edited")
        config.chunk_chars, config.overlap_chars = 400, 32
        config.corpus_dir = str(corpus_copy(synth_root, tmp_path / "corpus"))
        run_pipeline(config, ["embed"])
        old_texts = chunk_texts(config)
        filing = append_to_filing(config.corpus_dir)
        embedders = count_embedded(monkeypatch)
        run_pipeline(config, ["embed"])
        edited = [c.text for c in chunk_filing(filing, 400, 32)]
        assert embedders[0].texts == [t for t in edited if t not in old_texts]
        assert 0 < len(embedders[0].texts) < len(edited)
        monkeypatch.undo()
        cold = dataclasses.replace(config, index_dir=str(tmp_path / "cold" / "index"),
                                   out_dir=str(tmp_path / "cold"))
        run_pipeline(cold, ["embed"])
        assert index_bytes(config) == index_bytes(cold)

    def test_changed_provider_seed_reembeds_everything(self, synth_root, tmp_path,
                                                       monkeypatch):
        config = synthetic_config(synth_root, tmp_path / "reseeded")
        run_pipeline(config, ["embed"])
        config.embedding_provider = {**config.embedding_provider, "seed": 1}
        embedders = count_embedded(monkeypatch)
        run_pipeline(config, ["embed"])
        assert embedders[0].texts == chunk_texts(config)
        monkeypatch.undo()
        cold = synthetic_config(synth_root, tmp_path / "cold")
        cold.embedding_provider = config.embedding_provider
        run_pipeline(cold, ["embed"])
        assert index_bytes(config) == index_bytes(cold)

    def test_save_cut_before_its_rename_keeps_previous_index(self, synth_root, tmp_path,
                                                             monkeypatch, caplog):
        def killed_at_replace(src, dst):
            raise Killed

        config = synthetic_config(synth_root, tmp_path / "cut")
        config.corpus_dir = str(corpus_copy(synth_root, tmp_path / "corpus"))
        run_pipeline(config, ["embed"])
        previous = index_bytes(config)
        old_texts = chunk_texts(config)
        append_to_filing(config.corpus_dir)  # one vector changes, the row count does not
        with monkeypatch.context() as m:
            m.setattr(os, "replace", killed_at_replace)
            with pytest.raises(Killed):
                run_pipeline(config, ["embed"])
        assert index_bytes(config) == previous
        assert len(VectorIndex.load(config.index_dir)) == len(old_texts)
        caplog.clear()
        embedders = count_embedded(monkeypatch)
        run_pipeline(config, ["embed"])
        assert "WARNING" not in [r.levelname for r in caplog.records]
        assert embedders[0].texts == [t for t in chunk_texts(config) if t not in old_texts]
        assert 0 < len(embedders[0].texts) < len(old_texts)
        monkeypatch.undo()
        cold = dataclasses.replace(config, index_dir=str(tmp_path / "cold" / "index"),
                                   out_dir=str(tmp_path / "cold"))
        run_pipeline(cold, ["embed"])
        assert index_bytes(config) == index_bytes(cold)


def count_top_k(monkeypatch):
    """The filing key of every ``VectorIndex.top_k`` call from here on."""
    calls = []
    real = VectorIndex.top_k

    def top_k(self, query, k, filing_key):
        calls.append(filing_key)
        return real(self, query, k, filing_key)

    monkeypatch.setattr(VectorIndex, "top_k", top_k)
    return calls


def answers_and_rows(cache_path):
    """The answer and row records of a ``score_cache.jsonl``, in file order."""
    return [rec for rec in map(json.loads, Path(cache_path).read_text().splitlines())
            if "vector_sha256" not in rec]


def features_bytes(config):
    return Path(config.out("features.csv")).read_bytes()


class TestRowMemo:
    def test_yearly_update_retrieves_only_for_new_filings(self, synth_root, tmp_path,
                                                          monkeypatch):
        config = synthetic_config(synth_root, tmp_path / "grown")
        config.corpus_dir = str(corpus_copy(synth_root, tmp_path / "corpus",
                                            lambda record: record["filing_date"] < "2020"))
        run_pipeline(config, ["embed", "score"])
        config.corpus_dir = str(synth_root / "corpus")
        calls = count_top_k(monkeypatch)
        embedders = count_embedded(monkeypatch)
        run_pipeline(config, SYNTH_STAGES)
        new = [key for key in CorpusStore(config.corpus_dir).keys() if key[1] >= "2020"]
        assert sorted(set(calls)) == new
        assert len(calls) == len(pipeline.load_questions(config)) * len(new)
        # The score stage takes every question vector from the score cache.
        assert len(embedders) == 2 and embedders[1].texts == []
        monkeypatch.undo()
        cold = synthetic_config(synth_root, tmp_path / "cold")
        run_pipeline(cold, SYNTH_STAGES)
        for name in ARTIFACTS:
            assert Path(config.out(name)).read_bytes() == Path(cold.out(name)).read_bytes(), name
        assert index_bytes(config) == index_bytes(cold)

    @pytest.mark.parametrize("change", ["chunks_per_question", "question_text",
                                        "system_prompt", "edited_filing", "llm_id",
                                        "embedder_seed"])
    def test_change_recomputes_only_the_rows_it_affects(self, synth_root, tmp_path,
                                                        monkeypatch, change):
        questions = tmp_path / "questions.json"
        questions.write_text(json.dumps({"questions": [
            {"id": q.question_id, "text": q.text}
            for q in default_questions().questions]}))
        config = synthetic_config(synth_root, tmp_path / "rerun")
        config.chunk_chars, config.overlap_chars = 400, 32  # several chunks per filing
        config.corpus_dir = str(corpus_copy(synth_root, tmp_path / "corpus"))
        config.questions_file = str(questions)
        run_pipeline(config, ["embed", "score"])
        affected = CorpusStore(config.corpus_dir).keys()
        if change == "chunks_per_question":
            config.chunks_per_question = 1
        elif change == "question_text":
            data = json.loads(questions.read_text())
            data["questions"][0]["text"] += " Answer for the last fiscal year."
            questions.write_text(json.dumps(data))
        elif change == "system_prompt":
            monkeypatch.setattr(llm_scoring, "SYSTEM_PROMPT",
                                llm_scoring.SYSTEM_PROMPT + " Be brief.")
        elif change == "edited_filing":
            affected = [append_to_filing(config.corpus_dir).key]
        elif change == "llm_id":
            config.llm_provider = {**config.llm_provider, "hit_score": 31}
        else:
            config.embedding_provider = {**config.embedding_provider, "seed": 1}
        # Code is not a stage input, so only a changed output makes the stage
        # run again for a changed SYSTEM_PROMPT; the other changes need none.
        Path(config.out("features.csv")).unlink()
        calls = count_top_k(monkeypatch)
        embedders = count_embedded(monkeypatch)
        run_pipeline(config, ["embed", "score"])
        assert sorted(set(calls)) == affected
        texts = [q.text for q in pipeline.load_questions(config).questions]
        assert len(calls) == len(texts) * len(affected)
        # Only a question text or an embedder not seen before is embedded.
        expected = {"question_text": texts[:1], "embedder_seed": texts}.get(change, [])
        assert embedders[-1].texts == expected
        cold = dataclasses.replace(config, index_dir=str(tmp_path / "cold" / "index"),
                                   out_dir=str(tmp_path / "cold"))
        run_pipeline(cold, ["embed", "score"])
        assert features_bytes(config) == features_bytes(cold)


class TestCrashSafeWrites:
    def test_run_killed_at_any_write_recovers_the_same_bytes(self, synth_root, tmp_path,
                                                             monkeypatch):
        def artifacts(config):
            return [(Path(config.out_dir) / name).read_bytes() for name in ARTIFACTS]

        clean = synthetic_config(synth_root, tmp_path / "clean")
        written = []
        with monkeypatch.context() as m:
            route_writes(m, written.append)
            run_pipeline(clean, SYNTH_STAGES)
        # Each declared output once, the manifest once per stage: nothing is
        # written around write_atomic.
        outputs = [p for s in pipeline.STAGES if s.name in SYNTH_STAGES for p in s.outputs(clean)]
        manifest = Path(clean.out_dir) / pipeline.MANIFEST_FILE
        assert sorted(map(str, written)) == \
            sorted(map(str, outputs + [manifest] * len(SYNTH_STAGES)))
        expected = artifacts(clean)
        for n in range(1, len(written) + 1):
            config = synthetic_config(synth_root, tmp_path / f"killed{n}")
            calls = []

            def killed_at_nth_write(path):
                calls.append(path)
                if len(calls) == n:
                    raise Killed

            with monkeypatch.context() as m:
                route_writes(m, killed_at_nth_write)
                with pytest.raises(Killed):
                    run_pipeline(config, SYNTH_STAGES)
            run_pipeline(config, SYNTH_STAGES)
            assert artifacts(config) == expected, f"killed at write {n}, {calls[-1]}"


class TestConfigFile:
    def test_yaml_round_trip(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path / "out")
        raw = {
            "corpus_dir": config.corpus_dir,
            "index_dir": config.index_dir,
            "out_dir": config.out_dir,
            "prices_dir": config.prices_dir,
            "universe_csv": config.universe_csv,
            "chunk_chars": config.chunk_chars,
            "embedding_provider": config.embedding_provider,
            "llm_provider": config.llm_provider,
            "train_years": [2015, 2017],
            "test_years": [2018, 2020],
            "k": 3,
        }
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(raw))
        loaded = PipelineConfig.from_yaml(path)
        assert loaded.train_years == (2015, 2017)
        assert loaded.k == 3
        assert loaded.llm_provider == config.llm_provider

    @pytest.mark.parametrize("key, change", [("sample_train", "add"),
                                             ("prices_dir", "drop")])
    def test_bad_key_named(self, synth_root, tmp_path, key, change):
        config = synthetic_config(synth_root, tmp_path)
        raw = {"corpus_dir": config.corpus_dir, "index_dir": config.index_dir,
               "out_dir": config.out_dir, "prices_dir": config.prices_dir,
               "embedding_provider": config.embedding_provider,
               "llm_provider": config.llm_provider}
        if change == "add":
            raw[key] = 100
        else:
            del raw[key]
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(PipelineError, match=key):
            PipelineConfig.from_yaml(path)

    @pytest.mark.parametrize("build, cfg, provider_id", [
        ("build_embedding_provider", {"name": "stub"}, "hash-stub-d64-s0"),
        ("build_embedding_provider", {"name": "stub", "dimension": 8, "seed": 3},
         "hash-stub-d8-s3"),
        ("build_embedding_provider", {"name": "http", "endpoint": "http://h/v1", "model": "e"},
         "http:e"),
        ("build_llm_provider", {"name": "constant-stub"}, "constant-stub-50"),
        ("build_llm_provider", {"name": "keyword-stub", "phrase": "Record Growth"},
         "keyword-stub-90-10-0:record growth"),
        ("build_llm_provider", {"name": "http", "endpoint": "http://h/v1", "model": "c"},
         "http:c"),
    ])
    def test_provider_defaults_keep_their_ids(self, build, cfg, provider_id):
        assert getattr(pipeline, build)(cfg).provider_id == provider_id

    @pytest.mark.parametrize("build", ["build_embedding_provider", "build_llm_provider"])
    def test_http_provider_reads_the_named_key_variable(self, monkeypatch, build):
        monkeypatch.setenv("PROVIDER_TEST_KEY", "sk-2")
        provider = getattr(pipeline, build)({"name": "http", "endpoint": "http://h/v1",
                                             "model": "m", "api_key_env": "PROVIDER_TEST_KEY"})
        assert provider.api_key == "sk-2"


class TestCli:
    def test_pipeline_subcommand(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path / "out")
        raw = {
            "corpus_dir": config.corpus_dir,
            "index_dir": config.index_dir,
            "out_dir": config.out_dir,
            "prices_dir": config.prices_dir,
            "embedding_provider": config.embedding_provider,
            "llm_provider": config.llm_provider,
            "train_years": [2015, 2017],
            "test_years": [2018, 2020],
            "k": 3,
        }
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        rc = cli.main(["pipeline", "--config", str(cfg_path),
                       "--stages", *SYNTH_STAGES])
        assert rc == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_missing_model_exits_nonzero(self, synth_root, tmp_path, capsys):
        config = synthetic_config(synth_root, tmp_path / "out")
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "corpus_dir": config.corpus_dir,
            "index_dir": config.index_dir,
            "out_dir": config.out_dir,
            "prices_dir": config.prices_dir,
            "embedding_provider": config.embedding_provider,
            "llm_provider": config.llm_provider,
        }))
        rc = cli.main(["pipeline", "--config", str(cfg_path),
                       "--stages", "backtest"])
        assert rc == 1
        assert "train" in capsys.readouterr().err

    def test_synth_subcommand(self, tmp_path):
        rc = cli.main(["synth", "--dir", str(tmp_path / "fix"), "--seed", "0"])
        assert rc == 0
        assert (tmp_path / "fix" / "universe.csv").exists()
        assert (tmp_path / "fix" / "corpus" / "manifest.jsonl").exists()

    def test_missing_config_file_exits_nonzero(self, tmp_path, capsys):
        rc = cli.main(["pipeline", "--config", str(tmp_path / "absent.yaml")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.yaml" in err

    @pytest.mark.parametrize("key, stage", [("questions_file", "score"),
                                            ("universe_csv", "ingest")])
    def test_config_path_naming_a_directory_is_an_error_line(self, synth_root, tmp_path,
                                                             capsys, key, stage):
        mapping = yaml_mapping(synthetic_config(synth_root, tmp_path / "out"))
        mapping[key] = str(tmp_path)
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(mapping))
        assert cli.main(["pipeline", "--config", str(cfg_path), "--stages", stage]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and f"{tmp_path}'" in err

    def test_config_not_yaml_is_an_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text("corpus_dir: [unclosed\n")
        rc = cli.main(["pipeline", "--config", str(cfg_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: not valid YAML")

    @pytest.mark.parametrize("change, stages, named, code", [
        ({"llm_provider": {"name": "keyword-stub"}}, ["embed", "score"], "'phrase'", 1),
        ({"llm_provider": {"name": "gpt-x"}}, ["embed", "score"], "'gpt-x'", 1),
        ({"embedding_provider": {"name": "http"}}, ["embed"], "'endpoint'", 1),
        ({"chunk_chars": 256, "overlap_chars": 256}, ["embed"], "overlap_chars", 1),
        ({}, ["frobnicate"], "'frobnicate'", 2),  # an argparse usage error
        ({"k": 0}, ["embed"], "k (0)", 1),
        ({"chunks_per_question": 0}, ["embed"], "chunks_per_question (0) must be at least 1", 1),
        ({"chunks_per_question": -1}, ["embed"], "chunks_per_question (-1)", 1),
        ({"year_from": 2021, "year_to": 2020}, ["embed"],
         "year_from (2021) must not be after year_to (2020)", 1),
        ({}, [], "argument --stages: expected at least one argument", 2),
        ({"k_values": [3, 0]}, ["embed"], "k_values ([3, 0])", 1),
        ({"llm_provider": {"score": 50}}, ["embed", "score"],
         "llm_provider needs the key 'name'", 1),
        ({"embedding_provider": {"dimension": 64}}, ["embed"],
         "embedding_provider needs the key 'name'", 1),
        ({"llm_provider": None}, ["embed", "score"], "llm_provider must be a mapping", 1),
        ({"label_target": "12M"}, ["embed"], "label_target ('12M')", 1),
        ({"basis": "12M"}, ["embed"], "basis ('12M')", 1),
        ({"bins": 1}, ["embed"], "bins (1)", 1),
        ({"train_years": [2015, 2018], "test_years": [2018, 2020]}, ["embed"],
         "train_years [2015, 2018] and test_years [2018, 2020]", 1),
        ({"llm_provider": {"name": "http", "endpoint": "api.example.com/v1", "model": "m"}},
         ["embed", "score"], "llm_provider 'http': endpoint ('api.example.com/v1') must be "
         "an http or https URL with a host", 1),
        ({"embedding_provider": {"name": "http", "endpoint": "http:///v1", "model": "m"}},
         ["embed"], "embedding_provider 'http': endpoint ('http:///v1') must be", 1),
        ({"llm_provider": {"name": "constant-stub", "score": 150}}, ["embed", "score"],
         "llm_provider 'constant-stub': score (150) must be from 0 to 100", 1),
        ({"llm_provider": {"name": "keyword-stub", "phrase": "x", "hit_score": 101}},
         ["embed", "score"], "hit_score (101) must be from 0 to 100", 1),
        ({"llm_provider": {"name": "keyword-stub", "phrase": "x", "miss_score": -1}},
         ["embed", "score"], "miss_score (-1) must be from 0 to 100", 1),
        ({"llm_provider": {"name": "keyword-stub", "phrase": "x", "per_occurrence": -2}},
         ["embed", "score"], "per_occurrence (-2) must not be negative", 1),
        ({"train_years": [2015]}, ["embed"], "train_years ([2015]) must be two integers", 1),
        ({"test_years": [2018, "2020"]}, ["embed"], "test_years ([2018, '2020'])", 1),
        ({"train_years": 2015}, ["embed"], "train_years (2015)", 1),
        ({"k": "3"}, ["embed"], "k ('3') must be an integer", 1),
        ({"k": True}, ["embed"], "k (True)", 1),
        ({"bins": 5.0}, ["embed"], "bins (5.0)", 1),
        ({"year_from": "2002"}, ["embed"], "year_from ('2002')", 1),
        ({"year_to": None}, ["embed"], "year_to (None)", 1),
        ({"chunk_chars": "4096"}, ["embed"], "chunk_chars ('4096')", 1),
        ({"overlap_chars": 1.5}, ["embed"], "overlap_chars (1.5)", 1),
        ({"chunks_per_question": "4"}, ["embed"], "chunks_per_question ('4')", 1),
        ({"k_values": [1, "2"]}, ["embed"], "k_values ([1, '2']) must be a list of integers", 1),
        ({"k_values": 3}, ["embed"], "k_values (3)", 1),
        ({"corpus_dir": 5}, ["embed"], "corpus_dir (5) must be a string", 1),
        ({"embedding_provider": {"name": "stub", "dimension": 0}}, ["embed"],
         "dimension (0) must be a positive integer", 1),
        ({"embedding_provider": {"name": "stub", "dimesion": 32}}, ["embed"], "'dimesion'", 1),
        ({"llm_provider": {"name": "keyword-stub", "phrase": 5}}, ["embed", "score"],
         "phrase (5) must be a string", 1),
        ({"llm_provider": {"name": "keyword-stub", "phrase": "x", "hit_score": "90"}},
         ["embed", "score"], "hit_score ('90') must be an integer", 1),
        ({"llm_provider": {"name": "keyword-stub", "phrase": ""}}, ["embed", "score"],
         "llm_provider 'keyword-stub': phrase must not be empty", 1),
        ({"llm_provider": {"name": "keyword-stub", "phrase": " \t"}}, ["embed", "score"],
         "llm_provider 'keyword-stub': phrase must not be empty or only whitespace", 1),
    ])
    def test_config_mistake_is_an_error_line(self, synth_root, tmp_path, capsys,
                                             change, stages, named, code):
        config = synthetic_config(synth_root, tmp_path / "out")
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "corpus_dir": config.corpus_dir,
            "index_dir": config.index_dir,
            "out_dir": config.out_dir,
            "prices_dir": config.prices_dir,
            "embedding_provider": config.embedding_provider,
            "llm_provider": config.llm_provider,
            **change,
        }))
        try:
            rc = cli.main(["pipeline", "--config", str(cfg_path), "--stages", *stages])
        except SystemExit as exc:
            rc = exc.code
        assert rc == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") or "error: argument --stages" in err
        assert named in err

    @pytest.mark.parametrize("name, stages, bad, problem", [
        ("corpus/manifest.jsonl", ["embed"], b"{torn", "is not JSON: "),
        ("out/score_cache.jsonl", ["embed", "score"], b"{torn", "is not JSON: "),
        ("corpus/manifest.jsonl", ["embed"], b'{"ticker": "A"}',
         "is not a record of the string fields accession_id, cik, filing_date, path, "
         "sha256, ticker"),
        ("out/score_cache.jsonl", ["embed", "score"], b"\xff\xfe{}", "is not UTF-8: "),
    ], ids=["corpus-manifest", "score-cache", "corpus-manifest-part-record",
            "score-cache-not-utf8"])
    def test_unreadable_jsonl_line_is_an_error_line(self, synth_root, tmp_path, capsys,
                                                    name, stages, bad, problem):
        corpus = corpus_copy(synth_root, tmp_path / "corpus")
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        first, *rest = (path.read_bytes().splitlines(keepends=True) if path.exists() else
                        [b'{"row_sha256": "0", "filing_key": ["X", "2020-01-01"], '
                         b'"scores": [1]}\n'])
        path.write_bytes(first + bad + b"\n" + b"".join(rest))
        cfg_path = write_config(synth_root, tmp_path, corpus_dir=str(corpus))
        assert cli.main(["pipeline", "--config", str(cfg_path), "--stages", *stages]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: line 2 {problem}")

    @pytest.mark.parametrize("spoil", [
        lambda text: text[:len(text) // 2],
        lambda text: json.dumps({name: {k: v for k, v in record.items() if k != "inputs"}
                                 for name, record in json.loads(text).items()}),
    ], ids=["truncated", "record-without-inputs"])
    def test_unreadable_pipeline_manifest_is_an_error_line(self, synth_root, tmp_path,
                                                           capsys, spoil):
        run_pipeline(synthetic_config(synth_root, tmp_path / "out"), ["embed"])
        path = tmp_path / "out" / pipeline.MANIFEST_FILE
        path.write_text(spoil(path.read_text()))
        cfg_path = write_config(synth_root, tmp_path)
        assert cli.main(["pipeline", "--config", str(cfg_path), "--stages", "embed"]) == 1
        [error] = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("error:")]
        assert error.startswith(f"error: {path} is not a pipeline manifest; "
                                "remove it to run every stage again")

    @pytest.mark.parametrize("key, provider, named", [
        ("llm_provider", {"name": "keyword-stub"}, "llm_provider 'keyword-stub': "
         "missing keys ['phrase']"),
        ("llm_provider", {"name": "keyword-stub", "phrase": "x", "hit_scor": 90},
         "llm_provider 'keyword-stub': unknown keys ['hit_scor']; it takes ['phrase', "
         "'hit_score', 'miss_score', 'per_occurrence']"),
        ("llm_provider", {"name": "constant-stub", "score": 1.5},
         "llm_provider 'constant-stub': score (1.5) must be an integer"),
        ("llm_provider", {"name": "gpt-x"}, "unknown llm_provider name 'gpt-x'; known: "
         "['constant-stub', 'http', 'keyword-stub']"),
        ("llm_provider", {"name": ["http"]}, "unknown llm_provider name ['http']"),
        ("llm_provider", {"name": "http", "endpoint": "http://127.0.0.1:9/v1", "model": "m",
                          "api_key_env": 1},
         "llm_provider 'http': api_key_env (1) must be a string"),
        ("embedding_provider", {"name": "stub", "dimension": 0},
         "embedding_provider 'stub': dimension (0) must be a positive integer"),
        ("embedding_provider", {"name": "http", "model": "m"},
         "embedding_provider 'http': missing keys ['endpoint']"),
        ("llm_provider", {"name": "http", "endpoint": "api.example.com/v1", "model": "m"},
         "llm_provider 'http': endpoint ('api.example.com/v1') must be an http or https "
         "URL with a host"),
    ], ids=["missing-key", "unknown-key", "mistyped", "unknown-name", "list-name",
            "mistyped-key-variable", "dimension-0", "http-missing-key", "http-no-scheme"])
    def test_provider_mistake_runs_no_stage(self, synth_root, tmp_path, capsys, key,
                                            provider, named):
        cfg_path = write_config(synth_root, tmp_path, **{key: provider})
        rc = cli.main(["pipeline", "--config", str(cfg_path), "--stages", "embed", "score"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {named}")
        assert not (tmp_path / "out" / pipeline.MANIFEST_FILE).exists()
        assert not (tmp_path / "out" / "index").exists()

    @pytest.mark.parametrize("text, named", [
        ('{"questions": [{"id": "a"}]}', "KeyError('text')"),
        ("[1]", "not of the form"),
        ('{"questions": [1]}', "not of the form"),
        ('{"questions": [{"id": "a", "text": "x"}, {"id": "a", "text": "y"}]}',
         "question 'a' is repeated"),
        ('{"questions": [{"id": "a", "text": "x"}, {"id": "b", "text": "x"}]}',
         "question 'b' repeats the text of an earlier question"),
        ('{"questions": [{"id": "a", "text": ""}]}', "question 'a': the id and the text"),
        ('{"questions": [{"id": 1, "text": "x"}]}', "question 1: the id and the text"),
        ('{"questions": []}', "there are no questions"),
        ("{", "Expecting property name"),
    ], ids=["no-text", "list", "number", "repeated-id", "repeated-text", "empty-text",
            "number-id", "none", "not-json"])
    def test_questions_file_mistake_runs_no_stage(self, synth_root, tmp_path, capsys, text,
                                                  named):
        questions = tmp_path / "questions.json"
        questions.write_text(text)
        cfg_path = write_config(synth_root, tmp_path, questions_file=str(questions))
        rc = cli.main(["pipeline", "--config", str(cfg_path), "--stages", "embed", "score"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: questions_file {questions}: ")
        assert named in err
        assert not (tmp_path / "out" / pipeline.MANIFEST_FILE).exists()

    @pytest.mark.parametrize("key", ["llm_provider", "embedding_provider"])
    def test_config_without_provider_is_an_error_line(self, synth_root, tmp_path,
                                                       capsys, key):
        raw = yaml_mapping(synthetic_config(synth_root, tmp_path))
        del raw[key]
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        rc = cli.main(["pipeline", "--config", str(cfg_path), "--stages", "embed"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"missing config keys ['{key}']" in err

    @pytest.mark.parametrize("damage, named", [
        (lambda data: b"NOPE" + data[4:], "magic b'NOPE'"),
        (lambda data: data[:4] + (1).to_bytes(4, "little") + data[8:], "index version 1"),
        (lambda data: data[:-10], "(12288 bytes), read 12278 bytes"),
    ], ids=["not-an-index", "version-1", "truncated"])
    def test_unreadable_index_is_an_error_line(self, synth_root, tmp_path, capsys,
                                               damage, named):
        config = synthetic_config(synth_root, tmp_path)
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(yaml_mapping(config)))
        assert cli.main(["pipeline", "--config", str(cfg_path), "--stages", "embed"]) == 0
        vectors = Path(config.index_dir) / "vectors.bin"
        vectors.write_bytes(damage(vectors.read_bytes()))
        capsys.readouterr()
        rc = cli.main(["pipeline", "--config", str(cfg_path), "--stages", "score"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read the index in {config.index_dir}")
        assert named in err and "run stage 'embed'" in err
        shutil.rmtree(config.index_dir)  # what the error asks for
        assert cli.main(["pipeline", "--config", str(cfg_path),
                         "--stages", "embed", "score"]) == 0

    def test_edited_filing_text_is_an_error_line(self, synth_root, tmp_path, capsys):
        """A filing text edited after ingest stops the first stage that reads it
        with an error naming the file, not with a `run stage 'embed'` error
        that the skipped embed stage could not mend."""
        corpus = corpus_copy(synth_root, tmp_path / "corpus")
        cfg_path = write_config(synth_root, tmp_path, corpus_dir=str(corpus))
        assert cli.main(["pipeline", "--config", str(cfg_path), "--stages", "embed",
                         "score"]) == 0
        edited = corpus / "filings" / "ALFA_2015-02-03.txt"
        text = edited.read_text()
        words = text.split(" ")[:5]
        edited.write_text(text.replace(" ".join(words), " ".join(reversed(words)), 1))
        cfg_path = write_config(synth_root, tmp_path, corpus_dir=str(corpus),
                                chunks_per_question=3)
        capsys.readouterr()
        assert cli.main(["pipeline", "--config", str(cfg_path), "--stages", "embed",
                         "score"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edited} was changed after ingest stored it")
        assert "run stage 'ingest'" in err

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0


class TestScorePool:
    """The score stage asks an HTTP provider the misses of several filings
    through a pool, and ends each filing in corpus order."""

    @staticmethod
    def http_config(synth_root, tmp_path, out, filings, url):
        """A config over the first ``filings`` filings of the synthetic corpus."""
        corpus = tmp_path / "corpus"
        if not corpus.exists():
            store = CorpusStore(corpus)
            for filing in list(CorpusStore(synth_root / "corpus").load_all())[:filings]:
                store.add(filing)
        config = synthetic_config(synth_root, tmp_path / out)
        config.corpus_dir = str(corpus)
        config.llm_provider = {"name": "http", "endpoint": url + "/v1", "model": "m"}
        return config

    @staticmethod
    def stored_twice(synth_root, tmp_path):
        """A corpus of one synthetic filing's text stored under two dates."""
        filing = list(CorpusStore(synth_root / "corpus").load_all())[0]
        store = CorpusStore(tmp_path / "corpus")
        store.add(filing)
        store.add(dataclasses.replace(filing, filing_date=filing.filing_date.replace(month=12)))
        return store

    def test_bytes_do_not_depend_on_worker_count(self, synth_root, tmp_path,
                                                 monkeypatch):
        questions = pipeline.load_questions(synthetic_config(synth_root, tmp_path))
        count = len(questions)
        for workers in (1, 2, 8):
            rng = random.Random(workers)
            server = ChatServer(questions.questions, lambda i: rng.uniform(0, 0.004))
            monkeypatch.setattr(pipeline, "MAX_WORKERS", workers)
            with loopback(server) as url:
                config = self.http_config(synth_root, tmp_path, f"w{workers}",
                                          filings=4, url=url)
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)  # switch threads often, to shake out races
                try:
                    run_pipeline(config, ["embed", "score"])
                finally:
                    sys.setswitchinterval(interval)
            assert server.calls == 4 * count
            assert server.peak <= workers
            if workers == 8:  # the answers come back out of order
                assert server.finished != list(range(count)) * 4
        for name in ["score_cache.jsonl", "features.csv"]:
            serial = (tmp_path / "w1" / name).read_bytes()
            for workers in (2, 8):
                assert (tmp_path / f"w{workers}" / name).read_bytes() == serial, \
                    (name, workers)
        stub = synthetic_config(synth_root, tmp_path / "stub")
        stub.corpus_dir = str(tmp_path / "corpus")
        run_pipeline(stub, ["embed", "score"])
        assert (tmp_path / "stub" / "features.csv").read_bytes() == \
            (tmp_path / "w8" / "features.csv").read_bytes()

    def test_filings_planned_ahead_by_the_worker_count(self, synth_root, tmp_path,
                                                        monkeypatch):
        """The order in which the stage plans ("P") and ends ("E") each filing:
        a stub ends each before planning the next; with 2 workers the oldest
        ends once the filings after it hold 4 asks, a memo hit counting as one."""
        questions = pipeline.load_questions(synthetic_config(synth_root, tmp_path))
        events = []
        score_filing = pipeline.score_filing

        def logged(filing, *args):
            number = numbers[filing.key]
            events.append(f"P{number}")
            end, asks = score_filing(filing, *args)

            def logged_end():
                events.append(f"E{number}")
                return end()
            return logged_end, asks

        monkeypatch.setattr(pipeline, "score_filing", logged)
        monkeypatch.setattr(pipeline, "MAX_WORKERS", 2)
        server = ChatServer(questions.questions, lambda i: 0.0)
        with loopback(server) as url:
            config = self.http_config(synth_root, tmp_path, "http", filings=6, url=url)
            numbers = {key: n for n, key in enumerate(CorpusStore(config.corpus_dir).keys(), 1)}
            run_pipeline(config, ["embed", "score"])
            assert server.calls == 6 * len(questions)  # every question a miss
            assert " ".join(events) == "P1 P2 E1 P3 E2 P4 E3 P5 E4 P6 E5 E6"
            events.clear()
            (tmp_path / "http" / "features.csv").unlink()
            run_pipeline(config, ["score"])  # every filing a row memo hit
            assert server.calls == 6 * len(questions)
            assert " ".join(events) == "P1 P2 P3 P4 P5 E1 P6 E2 E3 E4 E5 E6"
        events.clear()
        stub = synthetic_config(synth_root, tmp_path / "stub")
        stub.corpus_dir = config.corpus_dir
        run_pipeline(stub, ["embed", "score"])
        assert " ".join(events) == " ".join(f"P{n} E{n}" for n in range(1, 7))

    def test_filings_in_flight_each_ask_a_shared_prompt(self, synth_root, tmp_path,
                                                        monkeypatch):
        """Two filings of one text: with workers both are in flight and each asks
        every prompt; without, the second reads the first's answers. The cache
        keeps one answer per prompt, so the bytes are the same either way."""
        questions = pipeline.load_questions(synthetic_config(synth_root, tmp_path))
        count = len(questions)
        first, second = self.stored_twice(synth_root, tmp_path).keys()
        for workers, calls in [(0, count), (1, 2 * count), (8, 2 * count)]:
            server = ChatServer(questions.questions, lambda i: 0.001)
            monkeypatch.setattr(pipeline, "MAX_WORKERS", workers)
            with loopback(server) as url:
                config = self.http_config(synth_root, tmp_path, f"w{workers}", filings=0,
                                          url=url)
                run_pipeline(config, ["embed", "score"])
            assert server.calls == calls
            records = answers_and_rows(tmp_path / f"w{workers}" / "score_cache.jsonl")
            assert [tuple(r["filing_key"]) for r in records] == \
                [first] * count + [first, second]
            assert len({r["prompt_sha256"] for r in records[:count]}) == count
            _, rows = read_features_csv(tmp_path / f"w{workers}" / "features.csv")
            assert [row.filing_key for row in rows] == [first, second]
            assert rows[0].scores == rows[1].scores
        for name in ["score_cache.jsonl", "features.csv"]:
            serial = (tmp_path / "w0" / name).read_bytes()
            assert (tmp_path / "w1" / name).read_bytes() == serial, name
            assert (tmp_path / "w8" / name).read_bytes() == serial, name

    def test_refused_prompt_is_asked_only_on_provider_threads(self, synth_root, tmp_path,
                                                              monkeypatch):
        """Two filings of one text, the first question refused 3 times: every
        chat call, a retry too, is made by a pool worker, none by the stage."""
        questions = pipeline.load_questions(synthetic_config(synth_root, tmp_path))
        self.stored_twice(synth_root, tmp_path)
        threads = []
        complete = HTTPChatLLM.complete

        def recorded(llm, system_prompt, user_prompt):
            threads.append(threading.current_thread().name)
            return complete(llm, system_prompt, user_prompt)

        monkeypatch.setattr(HTTPChatLLM, "complete", recorded)
        server = ChatServer(questions.questions, lambda i: 0.001,
                            status=lambda position, asked: 503 if position == 0 and
                            asked < MAX_ATTEMPTS else 200)
        with loopback(server) as url:
            config = self.http_config(synth_root, tmp_path, "out", filings=0, url=url)
            run_pipeline(config, ["embed", "score"])
        assert len(threads) == server.calls > len(questions)
        assert [name for name in threads if not name.startswith("provider")] == []

    def test_filings_before_a_refused_one_are_ended_first(self, synth_root, tmp_path):
        """A filing whose chunks differ from the index stops the stage, as when
        the filings are scored one by one: after the earlier ones' rows are put."""
        questions = pipeline.load_questions(synthetic_config(synth_root, tmp_path))
        server = ChatServer(questions.questions, lambda i: 0.001)
        with loopback(server) as url:
            config = self.http_config(synth_root, tmp_path, "out", filings=4, url=url)
            run_pipeline(config, ["embed"])
            store = CorpusStore(config.corpus_dir)
            edited = store.load(store.keys()[2])
            edited.clean_text += " The auditor restated the final quarter."
            (tmp_path / "corpus" / "manifest.jsonl").unlink()
            shutil.rmtree(store.filings_dir)
            store = CorpusStore(config.corpus_dir)
            for filing in list(CorpusStore(synth_root / "corpus").load_all())[:4]:
                store.add(edited if filing.key == edited.key else filing)
            # Else the stale-producer check refuses the run before the stage.
            (tmp_path / "out" / pipeline.MANIFEST_FILE).unlink()
            with pytest.raises(StageInputError, match=f"filing {edited.ticker} "):
                run_pipeline(config, ["score"])
        rows = [json.loads(line)["filing_key"] for line in
                (tmp_path / "out" / "score_cache.jsonl").read_text().splitlines()
                if "row_sha256" in line]
        assert rows == [list(key) for key in store.keys()[:2]]

    def test_outage_bounded_per_row_and_row_failed(self, synth_root, tmp_path):
        questions = pipeline.load_questions(synthetic_config(synth_root, tmp_path))
        assert len(questions) == 27
        server = ChatServer(questions.questions, lambda i: 0.002, status=503)
        with loopback(server) as url:
            config = self.http_config(synth_root, tmp_path, "out", filings=1, url=url)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads often, to shake out races
            try:
                with pytest.raises(PipelineError, match="no filing was scored: 1 failed"):
                    run_pipeline(config, ["embed", "score"])
            finally:
                sys.setswitchinterval(interval)
        assert MAX_ATTEMPTS <= server.calls <= MAX_ATTEMPTS * MAX_WORKERS
        assert server.peak <= MAX_WORKERS
        [error] = [json.loads(line) for line in
                   (tmp_path / "out" / "score_errors.jsonl").read_text().splitlines()]
        # The row fails on its first question, as it does when asked serially.
        assert f"question {questions.questions[0].question_id} failed" in error["error"]
        assert not (tmp_path / "out" / "features.csv").exists()

    def test_final_status_stops_the_stage_after_one_call_per_worker(self, synth_root,
                                                                     tmp_path, capsys):
        questions = pipeline.load_questions(synthetic_config(synth_root, tmp_path))
        # The first question answers last, so the other workers meet a 401 first.
        server = ChatServer(questions.questions, lambda i: 0.0 if i else 0.05, status=401)
        with loopback(server) as url:
            config = self.http_config(synth_root, tmp_path, "out", filings=3, url=url)
            cfg_path = tmp_path / "config.yaml"
            cfg_path.write_text(yaml.safe_dump(yaml_mapping(config)))
            rc = cli.main(["pipeline", "--config", str(cfg_path), "--stages", "embed",
                           "score"])
        assert rc == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: HTTP 401 from the LLM endpoint {url}/v1"]
        assert 1 <= server.calls <= MAX_WORKERS
        assert not (tmp_path / "out" / "score_errors.jsonl").exists()
        assert "score" not in json.loads((tmp_path / "out" / pipeline.MANIFEST_FILE).read_text())

    def test_run_holds_a_connection_per_worker_and_closes_them(self, synth_root,
                                                               tmp_path):
        questions = pipeline.load_questions(synthetic_config(synth_root, tmp_path))
        server = ChatServer(questions.questions, lambda i: 0.001)
        with kept_alive(server) as http:
            config = self.http_config(synth_root, tmp_path, "out", filings=3,
                                      url=http.url)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads often, to shake out races
            try:
                run_pipeline(config, ["embed", "score"])
            finally:
                sys.setswitchinterval(interval)
            assert server.calls == 3 * len(questions)  # no connection handed out twice
            assert 1 <= http.accepted <= MAX_WORKERS
            deadline = time.monotonic() + 10  # the server sees each close a moment later
            while http.open and time.monotonic() < deadline:
                time.sleep(0.01)
            assert http.open == 0

    def test_pool_threads_end_with_the_stage(self, synth_root, tmp_path):
        questions = pipeline.load_questions(synthetic_config(synth_root, tmp_path))
        server = ChatServer(questions.questions, lambda i: 0.0)
        before = threading.active_count()
        with loopback(server) as url:  # leaving it joins the server's own threads
            config = self.http_config(synth_root, tmp_path, "out", filings=1, url=url)
            run_pipeline(config, ["embed"])
            run_pipeline(config, ["score"])
        assert server.calls == len(questions)
        assert threading.active_count() == before


class TestStageMemory:
    """Embed and score hold a small multiple of the float32 index, not float64
    copies of it, and not every filing's text."""

    @staticmethod
    def traced_growth(synth_root, root, filings):
        """The traced peak of ``stage_embed`` and of ``stage_score``, each above
        what was traced as it started, and the size of ``vectors.bin``, over a
        corpus of ``filings`` synthetic texts, each 12 times over, under new
        tickers, in chunks of 1,024 characters."""
        synth = list(CorpusStore(synth_root / "corpus").load_all())
        store = CorpusStore(root / "corpus")
        for i in range(filings):
            filing = synth[i % len(synth)]
            store.add(dataclasses.replace(filing, ticker=f"T{i}",
                                          clean_text=(filing.clean_text + "\n") * 12))
        config = synthetic_config(synth_root, root / "out")
        config.corpus_dir = str(store.root)
        config.chunk_chars, config.overlap_chars = 1024, 64
        config.embedding_provider["dimension"] = 256
        peaks = []
        tracemalloc.start()
        try:
            for stage in ("embed", "score"):
                (declared,) = [s for s in pipeline.STAGES if s.name == stage]
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                declared.run(config, Failures(config.errors_file(stage)),
                             declared.inputs(config), declared.outputs(config))
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        return peaks, Path(config.index_file).stat().st_size

    def test_peaks_grow_with_the_float32_index(self, synth_root, tmp_path):
        (embed, score), size = self.traced_growth(synth_root, tmp_path / "n", 16)
        (embed4, score4), size4 = self.traced_growth(synth_root, tmp_path / "4n", 64)
        assert (score4 - score) / (size4 - size) <= 2
        assert (embed4 - embed) / (size4 - size) <= 4.5

    def test_loaded_vectors_are_the_files_float32_bytes(self, synth_root, tmp_path):
        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, ["embed"])
        vectors = VectorIndex.load(config.index_dir).vectors
        assert vectors.dtype == np.float32 and not vectors.flags.writeable
        owner = vectors
        while isinstance(owner, np.ndarray):
            owner = owner.base
        assert owner == index_bytes(config)
        assert np.shares_memory(vectors, np.frombuffer(owner, dtype=np.uint8))
