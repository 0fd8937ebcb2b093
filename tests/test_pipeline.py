import dataclasses
import hashlib
import json
import os
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest
import yaml

from filingsignal import cli, corpus, edgar, pipeline
from filingsignal.corpus import CorpusStore, chunk_filing
from filingsignal.embed_index import HashEmbeddingProvider, VectorIndex
from filingsignal.errors import PipelineError, RetriableError, StageInputError
from filingsignal.llm_scoring import (MAX_ATTEMPTS, MAX_WORKERS, KeywordLLM, ScoreCache,
                                      read_features_csv)
from filingsignal.pipeline import PipelineConfig, run_pipeline
from filingsignal.regression import NNLSModel
from filingsignal.synthetic import PLANTED_PHRASE, make_workspace

from conftest import json_reply, loopback, synthetic_config

SYNTH_STAGES = ["embed", "score", "returns", "label", "train", "backtest"]

ARTIFACTS = ["features.csv", "labels.csv", "model.json", "report.json",
             "cumulative.csv", "ksweep.csv", "returns.csv"]


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
        cache = ScoreCache(cache_path)
        for line in original.splitlines():
            rec = json.loads(line)
            assert cache.get(rec["prompt_sha256"]) == rec["score"]

    @pytest.mark.parametrize("key, value", [("chunks_per_question", 1),
                                            ("chunk_chars", 300)])
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
        # A warm rerun still retrieves, because the cache is keyed on the prompt.
        (tmp_path / "features.csv").unlink()
        run_pipeline(config, ["score"])
        assert len(embedders) == 2 and sorted(embedders[-1].texts) == sorted(texts)

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
                f".*embed_errors.jsonl; the first: embedding of filing {keys[0][0]} "
                f"{keys[0][1]} failed {MAX_ATTEMPTS} times")):
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
            == ["filings that could not be embedded and are left out of the index: 1, each "
                f"recorded in {tmp_path / 'down' / 'embed_errors.jsonl'}; the next run tries "
                "them again"]
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
        monkeypatch.setattr(KeywordLLM, "complete", lambda self, system, user: "no score")
        first = run_pipeline(config, ["embed", "score"])
        assert (tmp_path / "out" / "score_errors.jsonl").exists()
        assert first["score"]["retry_items"] == 0

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
        filings = CorpusStore(config.corpus_dir).load_all()
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
        [series] = [rec["error"] for rec in errors if rec["item"] == "series"]
        assert series.startswith(f"HTEL: {prices} line {line + 1}: {named}")

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


def fake_edgar(aaa_reply, html):
    """EDGAR answering AAA's submissions (cik 1) with ``aaa_reply``; BBB (cik 2)
    has one 10-K."""
    def transport(url):
        if "CIK0000000001" in url:
            return aaa_reply
        if "CIK0000000002" in url:
            return 200, submissions("2020-02-14", "bbb10k.htm")
        if url.endswith("10k.htm"):
            return 200, html
        return 404, "not found"
    return transport


class TestIngest:
    def config(self, tmp_path):
        (tmp_path / "universe.csv").write_text("ticker,cik\nAAA,1\nBBB,2\n")
        return dataclasses.replace(synthetic_config(tmp_path, tmp_path / "out"),
                                   year_from=2020, year_to=2020)

    @pytest.mark.parametrize("reply, named", [
        ((500, "boom"), "HTTP 500 for submissions for AAA"),
        ((200, "<html>not json</html>"), "Expecting value"),
    ])
    def test_one_ticker_failure_is_recorded(self, tmp_path, monkeypatch,
                                            sample_10k_html, reply, named):
        monkeypatch.setattr(edgar, "_http_transport", fake_edgar(reply, sample_10k_html))
        config = self.config(tmp_path)
        run_pipeline(config, ["ingest"])
        assert ("BBB", "2020-02-14") in CorpusStore(config.corpus_dir)
        errors = [json.loads(line) for line in
                  (tmp_path / "out" / "ingest_errors.jsonl").read_text().splitlines()]
        assert [e["item"] for e in errors] == ["AAA"]
        assert named in errors[0]["error"]

    def test_failed_ticker_fetched_on_the_next_run(self, tmp_path, monkeypatch,
                                                   sample_10k_html):
        config = self.config(tmp_path)
        monkeypatch.setattr(edgar, "_http_transport",
                            fake_edgar((500, "boom"), sample_10k_html))
        assert run_pipeline(config, ["ingest"])["ingest"]["retry_items"] == 1
        monkeypatch.setattr(edgar, "_http_transport", fake_edgar(
            (200, submissions("2020-02-14", "aaa10k.htm")), sample_10k_html))
        assert run_pipeline(config, ["ingest"])["ingest"]["retry_items"] == 0
        assert ("AAA", "2020-02-14") in CorpusStore(config.corpus_dir)

    def test_no_ticker_resolved_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv(edgar.CONTACT_ENV_VAR, raising=False)  # refused before any request
        with pytest.raises(PipelineError, match=f"ingest_errors.jsonl.*{edgar.CONTACT_ENV_VAR}"):
            run_pipeline(self.config(tmp_path), ["ingest"])


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


class TestCrashSafeWrites:
    def test_run_killed_at_any_write_recovers_the_same_bytes(self, synth_root, tmp_path,
                                                             monkeypatch):
        def artifacts(config):
            return [index_bytes(config)] + [(Path(config.out_dir) / name).read_bytes()
                                             for name in ARTIFACTS]

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
         ["embed", "score"], "cannot request 'api.example.com/v1'", 1),
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

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0


class ChatServer:
    """A ``loopback`` chat endpoint that HTTPChatLLM talks to in place of a network.

    Each call sleeps ``delay_s(question position)`` and then answers as the
    synthetic workspace's keyword stub would, or with ``status`` when that is
    not 200. It counts the calls, the most in flight at once and the order in
    which questions finish.
    """

    def __init__(self, questions, delay_s, status=200):
        self.position = {q.text: i for i, q in enumerate(questions)}
        self.delay_s = delay_s
        self.status = status
        self.llm = KeywordLLM(PLANTED_PHRASE, 30, 10, 8)
        self.lock = threading.Lock()
        self.calls = 0
        self.in_flight = 0
        self.peak = 0
        self.finished: list[int] = []

    def __call__(self, body, headers):
        system, user = (m["content"] for m in json.loads(body)["messages"])
        position = self.position[user.rsplit("Question: ", 1)[1]]
        with self.lock:
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        time.sleep(self.delay_s(position))
        with self.lock:
            self.in_flight -= 1
            self.finished.append(position)
        if self.status != 200:
            return json_reply({"error": "overloaded"}, self.status)
        return json_reply({"choices": [{"message": {
            "content": self.llm.complete(system, user)}}]})


class TestScorePool:
    """The score stage asks an HTTP provider a filing's misses through a pool."""

    @staticmethod
    def http_config(synth_root, tmp_path, out, filings, url):
        """A config over the first ``filings`` filings of the synthetic corpus."""
        corpus = tmp_path / "corpus"
        if not corpus.exists():
            store = CorpusStore(corpus)
            for filing in CorpusStore(synth_root / "corpus").load_all()[:filings]:
                store.add(filing)
        config = synthetic_config(synth_root, tmp_path / out)
        config.corpus_dir = str(corpus)
        config.llm_provider = {"name": "http", "endpoint": url + "/v1", "model": "m"}
        return config

    def test_bytes_do_not_depend_on_worker_count(self, synth_root, tmp_path,
                                                 monkeypatch):
        questions = pipeline.load_questions(synthetic_config(synth_root, tmp_path))
        count = len(questions)
        for workers in (1, 2, 8):
            # Later questions answer sooner, so with workers they finish first.
            server = ChatServer(questions.questions,
                                lambda i: (count - i) * 0.001)
            monkeypatch.setattr(pipeline, "MAX_WORKERS", workers)
            with loopback(server) as url:
                config = self.http_config(synth_root, tmp_path, f"w{workers}",
                                          filings=2, url=url)
                run_pipeline(config, ["embed", "score"])
            assert server.calls == 2 * count
            assert server.peak <= workers
            if workers == 8:
                assert server.finished[:8] != sorted(server.finished[:8])
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

    def test_outage_bounded_per_row_and_row_failed(self, synth_root, tmp_path):
        questions = pipeline.load_questions(synthetic_config(synth_root, tmp_path))
        assert len(questions) == 27
        server = ChatServer(questions.questions, lambda i: 0.002, status=503)
        with loopback(server) as url:
            config = self.http_config(synth_root, tmp_path, "out", filings=1, url=url)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads often, to shake out races
            try:
                run_pipeline(config, ["embed", "score"])
            finally:
                sys.setswitchinterval(interval)
        assert MAX_ATTEMPTS <= server.calls <= MAX_ATTEMPTS * MAX_WORKERS
        assert server.peak <= MAX_WORKERS
        [error] = [json.loads(line) for line in
                   (tmp_path / "out" / "score_errors.jsonl").read_text().splitlines()]
        # The row fails on its first question, as it does when asked serially.
        assert f"question {questions.questions[0].question_id} failed" in error["error"]
        assert (tmp_path / "out" / "features.csv").read_text().count("\n") == 1

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
