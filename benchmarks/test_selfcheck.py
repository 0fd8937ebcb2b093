"""Self-tests of the benchmark's own parts: generator, chat stub, tracer.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks/test_selfcheck.py``.
"""

from __future__ import annotations

import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest
import requests

import run
from chat_stub import FAIL_ONE_IN
from tracer import Span, Tracer, percentile, self_times, summarize
from workspace import KEYWORD_LLM, PLANTED_PHRASE, WorkspaceSpec, make_workspace

from filingsignal.errors import RetriableError
from filingsignal.llm_scoring import SYSTEM_PROMPT, HTTPChatLLM, KeywordLLM

BENCH_DIR = Path(__file__).resolve().parent
SMALL = WorkspaceSpec(tickers=3, years=(2018, 2019), text_chars=3000,
                      price_start=date(2018, 1, 2), price_end=date(2020, 6, 30),
                      extra_symbols=2)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_same_seed_same_bytes(tmp_path):
    a = _tree(make_workspace(tmp_path / "a", SMALL, seed=7))
    b = _tree(make_workspace(tmp_path / "b", SMALL, seed=7))
    assert a == b
    assert sum(1 for name in a if name.startswith("corpus/filings/")) == SMALL.filings


def test_generator_other_seed_same_sizes(tmp_path):
    a = _tree(make_workspace(tmp_path / "a", SMALL, seed=1))
    b = _tree(make_workspace(tmp_path / "b", SMALL, seed=2))
    assert len(a) == len(b)
    assert a != b
    price_rows = [t["prices/prices.csv"].count(b"\n") for t in (a, b)]
    assert price_rows[0] == price_rows[1]


PROMPT = f"[Context 1]\n{PLANTED_PHRASE.upper()} twice: {PLANTED_PHRASE}, {PLANTED_PHRASE}"


def _refused_prompts(llm: HTTPChatLLM, prompts: list[str]) -> list[int]:
    refused = []
    for i, user in enumerate(prompts):
        try:
            llm.complete(SYSTEM_PROMPT, user)
        except RetriableError:
            refused.append(i)
    return refused


def test_stub_server_refuses_first_attempt_of_every_nth_prompt():
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "chat_stub.py")],
                            env=run._child_env(), stdout=subprocess.PIPE, text=True)
    try:
        port = int(proc.stdout.readline().split()[1])
        url = f"http://127.0.0.1:{port}"
        llm = HTTPChatLLM(url + "/v1/chat/completions", "stub")
        prompts = [f"{PROMPT}\n\nQuestion {i}?" for i in range(FAIL_ONE_IN)]
        assert _refused_prompts(llm, prompts) == [FAIL_ONE_IN - 1]
        # The retry is answered, scored as the in-process keyword stub scores it.
        assert llm.complete(SYSTEM_PROMPT, prompts[-1]) == KeywordLLM(
            PLANTED_PHRASE, **KEYWORD_LLM).complete(SYSTEM_PROMPT, prompts[-1])
        assert _refused_prompts(llm, prompts) == []  # seen prompts pass
        stats = requests.get(url + "/stats", timeout=5).json()
        assert stats == {"requests": 2 * FAIL_ONE_IN + 1}
        requests.post(url + "/reset", data=b"{}", timeout=5)
        assert requests.get(url + "/stats", timeout=5).json() == {"requests": 0}
        assert _refused_prompts(llm, prompts) == [FAIL_ONE_IN - 1]  # reset forgets
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def _span(name, start, end, parent=None):
    s = Span(name, start, parent)
    s.end = end
    return s


def test_self_time_on_toy_tree():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    a1 = _span("a1", 2.0, 3.0, a)
    b = _span("b", 5.0, 9.0, root)
    b1 = _span("b1", 5.0, 6.0, b)
    b2 = _span("b2", 6.0, 7.5, b)
    spans = [root, a, a1, b, b1, b2]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    table = summarize(spans)
    assert table["root"]["self_s"] == pytest.approx(3.0)
    assert table["b"]["total_s"] == pytest.approx(4.0)


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile([3.0], 99) == 3.0
    assert percentile([], 50) == 0.0


def test_scaled_median_scales_cpu_bound_workloads_only():
    from speed import REFERENCE_S

    # Three runs between four calibrations; the machine is twice as slow as
    # the reference around the first two runs and as fast around the third.
    calibrations = [2 * REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    walls = [(6.0, 0), (8.0, 1), (3.0, 2)]
    assert run.scaled_median(walls, calibrations, run.WORKLOADS["cold-scale"]) == pytest.approx(3.0)
    assert run.scaled_median(walls, calibrations, run.WORKLOADS["slow-provider"]) == pytest.approx(6.0)


class _Thing:
    def work(self, x):
        return x * 2

    @classmethod
    def make(cls, x):
        return cls() if x else None


def test_tracer_wraps_methods_and_notes_missing_hooks():
    tracer = Tracer()
    saved = dict(vars(_Thing))
    try:
        assert tracer.wrap(_Thing, "work", "thing.work",
                           lambda t, args, result: t.count("doubled", result))
        assert tracer.wrap(_Thing, "make", "thing.make")
        assert not tracer.wrap(_Thing, "absent", "thing.absent")
        assert _Thing.make(1).work(21) == 42
        assert [s.name for s in tracer.spans] == ["thing.make", "thing.work"]
        assert tracer.counters["doubled"] == 42
        assert len(tracer.notes) == 1 and "thing.absent" in tracer.notes[0]
    finally:
        for name in ("work", "make"):
            setattr(_Thing, name, saved[name])

