import dataclasses
import json
from pathlib import Path

import pytest
import yaml

from filingsignal import cli, pipeline
from filingsignal.embed_index import HashEmbeddingProvider
from filingsignal.errors import PipelineError, StageInputError
from filingsignal.llm_scoring import ScoreCache
from filingsignal.pipeline import PipelineConfig, run_pipeline
from filingsignal.synthetic import make_workspace

from conftest import synthetic_config

SYNTH_STAGES = ["embed", "score", "returns", "label", "train", "backtest"]

ARTIFACTS = ["features.csv", "labels.csv", "model.json", "report.json",
             "cumulative.csv", "ksweep.csv", "returns.csv"]


def yaml_mapping(config):
    """Every field of ``config`` as a mapping for ``yaml.safe_dump`` (tuples as lists)."""
    return json.loads(json.dumps(dataclasses.asdict(config)))


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
        class CountingEmbedder(HashEmbeddingProvider):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.texts = []

            def embed_batch(self, texts):
                self.texts.extend(texts)
                return super().embed_batch(texts)

        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, ["embed"])
        embedders = []

        def build(cfg):
            embedders.append(CountingEmbedder(dimension=cfg["dimension"],
                                              seed=cfg["seed"]))
            return embedders[-1]

        monkeypatch.setattr(pipeline, "build_embedding_provider", build)
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

    def test_interrupted_manifest_write_keeps_previous(self, synth_root, tmp_path,
                                                       monkeypatch):
        class Killed(Exception):
            pass

        write_text = Path.write_text

        def killed_mid_manifest(path, text, *args, **kwargs):
            if not path.name.startswith(pipeline.MANIFEST_FILE):
                return write_text(path, text, *args, **kwargs)
            write_text(path, text[:len(text) // 2], *args, **kwargs)
            raise Killed

        config = synthetic_config(synth_root, tmp_path)
        run_pipeline(config, ["embed"])
        manifest_path = tmp_path / pipeline.MANIFEST_FILE
        before = json.loads(manifest_path.read_text())
        with monkeypatch.context() as m:
            m.setattr(Path, "write_text", killed_mid_manifest)
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

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
