import hashlib
import json
from datetime import date

import pytest

from filingsignal.corpus import Chunk, Filing, chunk_filing
from filingsignal.embed_index import HashEmbeddingProvider, VectorIndex, embed_text
from filingsignal.errors import RowScoringError, UnparseableScoreError
from filingsignal.llm_scoring import (ConstantLLM, HTTPChatLLM, KeywordLLM, Question,
                                      QuestionSet, RowInputs, ScoreCache, ScoredAnswer,
                                      build_prompt,
                                      embed_questions, parse_score, read_features_csv,
                                      score_filing, write_features_csv)
from filingsignal.net import MAX_ATTEMPTS

from conftest import assert_cache_holds, json_reply, loopback

GROWTH_QUESTION = ("Does the company have a clear strategy for growth and "
                   "innovation? Are there any recent strategic initiatives "
                   "or partnerships?")


def make_chunk(text, idx=0, ticker="TEST"):
    return Chunk((ticker, "2020-02-01"), idx, text, (0, len(text)))


def small_questionset():
    return QuestionSet(
        questions=[Question("growth", GROWTH_QUESTION),
                   Question("risk", "Are the disclosed risk factors routine?")],
    )


def indexed_filing(text, ticker="TEST"):
    """One filing chunked and embedded with the stub provider."""
    filing = Filing(ticker, "0000000001", "A-1", date(2020, 2, 1), "x", text)
    chunks = chunk_filing(filing, chunk_chars=256, overlap_chars=32)
    embedder = HashEmbeddingProvider(64, 0)
    index = VectorIndex(embedder.provider_id,
                        [(*c.filing_key, c.chunk_index) for c in chunks],
                        [c.sha256 for c in chunks],
                        [embed_text(embedder, c.text, "test") for c in chunks])
    return filing, chunks, index, embedder


def score(indexed, qs, llm, cache):
    """score_filing on an ``indexed_filing``, four chunks per question, asked serially."""
    filing, chunks, index, embedder = indexed
    return score_filing(filing, chunks, RowInputs(qs, embed_questions(qs, embedder), llm, 4),
                        index, cache, map)


class TestQuestionSet:
    def test_default_has_27_questions(self):
        qs = QuestionSet.default()
        assert len(qs) == 27

    def test_default_contains_growth_question(self):
        qs = QuestionSet.default()
        assert any("clear strategy for growth and innovation" in q.text
                   for q in qs.questions)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            QuestionSet([Question("a", "x"), Question("a", "y")])

    def test_json_round_trip(self, tmp_path):
        p = tmp_path / "qs.json"
        p.write_text('{"version": "v9", "questions": [{"id": "q1", "text": "T?"}]}')
        qs = QuestionSet.from_json_file(p)
        assert qs.questions == [Question("q1", "T?")]


class TestBuildPrompt:
    def test_chunk_before_question(self):
        _, user = build_prompt("Is revenue growing?", [make_chunk("chunk body")])
        assert user.index("chunk body") < user.index("Is revenue growing?")

    def test_two_chunks_labeled_once_each(self):
        _, user = build_prompt("Q?", [make_chunk("first"), make_chunk("second", 1)])
        assert user.count("[Context 1]") == 1
        assert user.count("[Context 2]") == 1

    def test_growth_question_verbatim(self):
        _, user = build_prompt(GROWTH_QUESTION, [make_chunk("ctx")])
        assert "Does the company have a clear strategy for growth and innovation?" in user

    def test_system_prompt_contract(self):
        system, _ = build_prompt("Q?", [make_chunk("ctx")])
        assert "SCORE:" in system
        assert "0" in system and "100" in system

    def test_requires_context(self):
        with pytest.raises(ValueError):
            build_prompt("Q?", [])


class TestParseScore:
    def test_marker(self):
        assert parse_score("SCORE: 85") == 85

    def test_marker_with_surrounding_text(self):
        assert parse_score("Based on the context...\nSCORE: 7\nthanks") == 7

    def test_first_standalone_integer(self):
        assert parse_score("The outlook is strong. 72/100 confidence.") == 72

    def test_no_number_is_error(self):
        with pytest.raises(UnparseableScoreError):
            parse_score("cannot determine")

    def test_marker_out_of_range_is_error(self):
        with pytest.raises(UnparseableScoreError):
            parse_score("SCORE: 150")

    def test_out_of_range_standalone_skipped(self):
        assert parse_score("rating 400 is absurd, call it 60") == 60

    @pytest.mark.parametrize("n", [0, 100])
    def test_bounds_accepted(self, n):
        assert parse_score(f"SCORE: {n}") == n


class TestScoreFiling:
    def test_constant_stub_gives_all_50s(self, tmp_path):
        row = score(indexed_filing("plain filing text here"), small_questionset(),
                    ConstantLLM(50), ScoreCache(tmp_path / "cache.jsonl"))
        assert row.scores == [50, 50]
        assert row.filing_key == ("TEST", "2020-02-01")

    def test_keyword_stub_scores_planted_phrase(self, tmp_path):
        text = ("The company achieved record revenue growth this year "
                "through new strategic initiatives and partnerships. "
                "Risk factors are described elsewhere in this report.")
        llm = KeywordLLM("record revenue growth", 90, 10, 0)
        row = score(indexed_filing(text), small_questionset(), llm,
                    ScoreCache(tmp_path / "cache.jsonl"))
        growth_score = row.scores[0]  # question order defines column order
        assert growth_score == 90

    def test_keyword_stub_miss(self, tmp_path):
        llm = KeywordLLM("record revenue growth", 90, 10, 0)
        row = score(indexed_filing("nothing notable at all"), small_questionset(), llm,
                    ScoreCache(tmp_path / "cache.jsonl"))
        assert row.scores == [10, 10]

    def test_warm_cache_makes_zero_calls(self, tmp_path):
        indexed = indexed_filing("some filing text")
        qs = small_questionset()
        llm = ConstantLLM(50)
        first = score(indexed, qs, llm, ScoreCache(tmp_path / "cache.jsonl"))
        assert llm.call_count == len(qs)

        llm2 = ConstantLLM(50)  # same provider_id, fresh counter
        second = score(indexed, qs, llm2, ScoreCache(tmp_path / "cache.jsonl"))
        assert llm2.call_count == 0
        assert second.scores == first.scores

    def test_bad_line_before_the_last_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        score(indexed_filing("some filing text"), small_questionset(), ConstantLLM(50),
              ScoreCache(path))
        path.write_bytes(b"{torn\n" + path.read_bytes())
        with pytest.raises(json.JSONDecodeError):
            ScoreCache(path)

    def test_unkeyed_records_dropped_from_file_once(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        score(indexed_filing("some filing text"), small_questionset(), ConstantLLM(50),
              ScoreCache(path))
        keyed = path.read_text()
        unkeyed = json.dumps({"filing_key": ["TEST", "2020-02-01"],
                              "question_id": "growth", "score": 50})
        path.write_text(unkeyed + "\n" + keyed + unkeyed + "\n")
        with caplog.at_level("WARNING"):
            ScoreCache(path)
        assert "dropping 2 records without prompt_sha256" in caplog.text
        assert path.read_text() == keyed
        caplog.clear()
        with caplog.at_level("WARNING"):
            cache = ScoreCache(path)
        assert caplog.text == ""
        assert_cache_holds(cache, keyed)

    def test_cache_reader_equals_parsing_every_line(self, tmp_path, caplog):
        def key(n):
            return hashlib.sha256(b"%d" % n).hexdigest()

        decoy = f'"prompt_sha256": "{key(99)}", "score": 7, "raw_response": "x"'
        responses = ["SCORE: 40", f"{decoy} and a \\{decoy}\\ \\\" SCORE: 41",
                     "très bien, 日本 SCORE: 42"]
        path = tmp_path / "cache.jsonl"
        writer = ScoreCache(path)
        for n, raw in enumerate(responses):
            writer.put(key(n), ScoredAnswer(("TEST", "2020-02-01"), f"q{n}", 40 + n, raw,
                                            [("TEST", "2020-02-01", n)]))
        writer.put_row(key(10), ("TEST", "2020-02-01"), [40, 41, 42])
        writer.flush()
        kept = path.read_text(encoding="utf-8") + "\n".join([
            json.dumps({"raw_response": decoy,  # not as put writes it
                        "prompt_sha256": key(3), "score": 43}),
            json.dumps({"filing_key": ["TEST", "2020-02-01"], "question_id": "q4",
                        "prompt_sha256": key(4), "score": 44, "raw_response": "日本 44"},
                       ensure_ascii=False),
            json.dumps({"score": 45, "prompt_sha256": key(5)}),
            json.dumps({"row_sha256": key(11), "scores": [1, 2, 3]}), ""])
        legacy = json.dumps({"filing_key": ["TEST", "2020-02-01"], "question_id": "q0",
                             "score": 50}) + "\n"
        torn = f'{{"prompt_sha256": "{key(6)}", "score": 46'
        path.write_text(legacy + kept + torn, encoding="utf-8")
        with caplog.at_level("WARNING"):
            cache = ScoreCache(path)
        assert "dropping torn final line" in caplog.text
        assert "dropping 1 records without prompt_sha256" in caplog.text
        assert path.read_text(encoding="utf-8") == kept
        records = [json.loads(line) for line in kept.splitlines()]
        answers = {r["prompt_sha256"]: r["score"] for r in records if "prompt_sha256" in r}
        rows = {r["row_sha256"]: r["scores"] for r in records if "row_sha256" in r}
        assert sorted(answers) == sorted(key(n) for n in range(6))
        assert {k: cache.get(k) for k in answers} == answers
        assert all(type(cache.get(k)) is int for k in answers)
        assert {k: cache.get_row(k) for k in rows} == rows
        assert cache.get(key(99)) is None and cache.get(key(6)) is None
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert_cache_holds(ScoreCache(path), kept)
        assert caplog.text == ""

    def test_failed_row_keeps_earlier_answers(self, tmp_path):
        class FailsLastQuestion:
            provider_id = "fails-last"

            def complete(self, s, u):
                return "no idea" if "routine?" in u else "SCORE: 70"

        path = tmp_path / "cache.jsonl"
        with pytest.raises(RowScoringError, match="risk"):
            score(indexed_filing("some filing text"), small_questionset(),
                  FailsLastQuestion(), ScoreCache(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(r["question_id"], r["score"]) for r in records] == [("growth", 70)]

    def test_cache_bytes_match_per_answer_appends(self, tmp_path):
        class PerAnswerCache(ScoreCache):
            def put(self, *args):
                held = super().put(*args)
                self.flush()
                return held

        qs = small_questionset()
        filings = [indexed_filing("first filing text", "AAA"),
                   indexed_filing("second filing text", "BBB")]
        for cache in (ScoreCache(tmp_path / "a.jsonl"),
                      PerAnswerCache(tmp_path / "b.jsonl")):
            for indexed in filings:
                score(indexed, qs, ConstantLLM(50), cache)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        records = [json.loads(line) for line in (tmp_path / "a.jsonl").read_text().splitlines()]
        assert sum("prompt_sha256" in r for r in records) == 2 * len(qs)
        assert [r["scores"] for r in records if "row_sha256" in r] == [[50, 50], [50, 50]]

    def test_repeated_prompt_scored_from_its_first_answer(self, tmp_path):
        class Counting:
            provider_id = "counting"
            calls = 0

            def complete(self, s, u):
                Counting.calls += 1
                return f"SCORE: {Counting.calls}"

        qs = QuestionSet([Question("a", GROWTH_QUESTION), Question("b", GROWTH_QUESTION)])
        indexed = indexed_filing("some filing text")
        cold = score(indexed, qs, Counting(), ScoreCache(tmp_path / "cache.jsonl"))
        warm = score(indexed, qs, Counting(), ScoreCache(tmp_path / "cache.jsonl"))
        assert cold.scores == warm.scores == [1, 1]

    def test_unparseable_fails_whole_row(self, tmp_path):
        class Garbage:
            provider_id = "garbage"

            def complete(self, s, u):
                return "no idea"

        with pytest.raises(RowScoringError):
            score(indexed_filing("text"), small_questionset(), Garbage(),
                  ScoreCache(tmp_path / "cache.jsonl"))

    @pytest.mark.parametrize("body", [{}, {"choices": []},
                                      {"choices": [{"message": {"content": None}}]}])
    def test_http_response_without_content_retried_then_row_failed(self, tmp_path, body):
        posts = []

        def post(data, headers):
            posts.append(json.loads(data))
            return json_reply(body)

        with loopback(post) as url, pytest.raises(RowScoringError, match="choices|content"):
            score(indexed_filing("text"), small_questionset(),
                  HTTPChatLLM(url + "/v1", "m"), ScoreCache(tmp_path / "cache.jsonl"))
        assert len(posts) == MAX_ATTEMPTS

    def test_transient_errors_retried(self, tmp_path):
        from filingsignal.errors import RetriableError

        class Flaky:
            provider_id = "flaky"

            def __init__(self):
                self.calls = 0

            def complete(self, s, u):
                self.calls += 1
                if self.calls % 2 == 1:
                    raise RetriableError("blip")
                return "SCORE: 42"

        row = score(indexed_filing("text"), small_questionset(), Flaky(),
                    ScoreCache(tmp_path / "cache.jsonl"))
        assert row.scores == [42, 42]


class TestFeaturesCsv:
    def test_round_trip_and_header(self, tmp_path):
        qs = small_questionset()
        row = score(indexed_filing("text"), qs, ConstantLLM(33),
                    ScoreCache(tmp_path / "cache.jsonl"))
        path = tmp_path / "features.csv"
        write_features_csv(path, [row], qs)
        header = path.read_text().splitlines()[0]
        assert header == "ticker,filing_date,q_growth,q_risk"
        qcols, rows = read_features_csv(path)
        assert qcols == ["growth", "risk"]
        assert rows[0].scores == [33, 33]
        assert rows[0].filing_key == ("TEST", "2020-02-01")

    def test_deterministic_bytes(self, tmp_path):
        qs = small_questionset()
        row = score(indexed_filing("text"), qs, ConstantLLM(33),
                    ScoreCache(tmp_path / "cache.jsonl"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_features_csv(a, [row], qs)
        write_features_csv(b, [row], qs)
        assert a.read_bytes() == b.read_bytes()
