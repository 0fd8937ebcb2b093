"""Pipeline benchmark: end-to-end and per-layer metrics on synthetic workloads.

Usage, from the repository root:

    python3 benchmarks/run.py --workload cold-scale --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

Each workload builds a seeded workspace (``workspace.py``), then times fresh
``python -m filingsignal.cli pipeline`` processes (``PYTHONPATH=src``, tracing
off) until ``--seconds`` have passed, and reports medians. On CPU-bound
workloads each time is first scaled to a reference machine speed, measured by
a fixed job (``speed.py``) run between the timed processes; see
``scaled_median``. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` also runs ``traced_run.py``,
which calls ``run_pipeline`` in-process with timing wrappers, and prints the
per-layer metrics. Every pipeline run's outputs are checked. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Spans of the latest traced run are kept under
``.bench_out/``; everything else is written under ``.bench_work/`` and removed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

STAGES = ["embed", "score", "returns", "label", "train", "backtest"]
ARTIFACTS = ["features.csv", "returns.csv", "labels.csv", "model.json",
             "report.json", "cumulative.csv", "ksweep.csv"]
# setup_s is the median of several set-ups. Set-up that only generates the
# workspace (and starts the stub) takes well under a second, so it is repeated
# before every timed run: its samples then span the same seconds, and the same
# CPU-speed phases, as the timed runs. append-year's set-up includes a cold
# pre-state run of several seconds and is done SETUP_REPEATS times up front.
SETUP_REPEATS = 2
MIN_SAMPLES = 3
RUN_DEADLINE_S = 170  # a benchmark run ends within 180 s; late processes are killed

# The metric names and units are those of the contract file.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tickers: int
    years: tuple[int, ...]
    text_chars: int
    price_end: date
    train_years: tuple[int, int]
    test_years: tuple[int, int]
    k: int
    k_values: tuple[int, ...]
    extra_symbols: int = 0
    http_llm: bool = False  # score through the HTTP provider against chat_stub.py
    append: bool = False  # set-up runs all but the final year; the timed run appends it

    @property
    def cpu_bound(self) -> bool:
        """True unless the LLM is the HTTP stub: its fixed delay makes up much
        of the time and does not scale with CPU speed, so scaling the time by
        the calibrations would add noise rather than remove it."""
        return not self.http_llm

    def spec(self):
        from workspace import WorkspaceSpec
        return WorkspaceSpec(self.tickers, self.years, self.text_chars,
                             date(self.years[0], 1, 2), self.price_end,
                             self.extra_symbols)


WORKLOADS = {w.name: w for w in [
    Workload(
        "cold-scale",
        "first research run from cold: 72 filings of 27 KB, 1,944 retrieval queries; "
        "retrieval (top_k) and scoring sit on the critical path",
        tickers=12, years=tuple(range(2015, 2021)), text_chars=27_000,
        price_end=date(2021, 6, 30), train_years=(2015, 2017),
        test_years=(2018, 2020), k=5, k_values=(1, 2, 3, 5, 8)),
    Workload(
        "slow-provider",
        "LLM over HTTP to a stub answering after 5 ms, 1 prompt in 20 refused "
        "once with 503: provider latency and retries bound the run",
        tickers=3, years=tuple(range(2015, 2021)), text_chars=9_000,
        price_end=date(2021, 6, 30), train_years=(2015, 2017),
        test_years=(2018, 2020), k=2, k_values=(1, 2, 3), http_llm=True),
    Workload(
        "append-year",
        "yearly update: one new year of filings on a 19-year scored state; "
        "score cache mostly hits, price loading and return windows dominate",
        tickers=12, years=tuple(range(2004, 2024)), text_chars=1_500,
        price_end=date(2025, 6, 30), extra_symbols=36, train_years=(2004, 2016),
        test_years=(2017, 2023), k=5, k_values=(1, 2, 3, 5, 8), append=True),
]}


@dataclass
class Outcome:
    """Result of checking one pipeline run's outputs."""
    attempted: int
    failed: int
    rows: int = 0  # feature rows written
    errors: list[str] = field(default_factory=list)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                     if env.get("PYTHONPATH") else "")
    return env


def timed_process(cmd: list[str], log: Path, deadline: float) -> tuple[int, float, float]:
    """Run ``cmd`` until it exits, killing it at ``deadline`` (perf_counter).

    Returns (exit code, wall s, peak RSS MB of that process alone).
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Bench:
    """One benchmark run of one workload: workspace, stub server, checks."""

    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float):
        from workspace import KEYWORD_LLM, PLANTED_PHRASE

        self.w = workload
        self.seed = seed
        self.deadline = deadline
        self.spec = workload.spec()
        self.work = work
        self.ws = work / "ws"
        self.pre = work / "pre"
        self.config = self.ws / "config.yaml"
        self.stub: subprocess.Popen | None = None
        self.stub_url = ""
        self.reference: bytes | None = None
        self.first_digests: dict[str, str] | None = None
        self.runs = 0
        self.keyword_llm = {"name": "keyword-stub", "phrase": PLANTED_PHRASE, **KEYWORD_LLM}

    # --- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """Build the workspace (and stub, and pre-state); returns seconds."""
        from workspace import make_workspace

        t0 = time.perf_counter()
        shutil.rmtree(self.ws, ignore_errors=True)
        shutil.rmtree(self.pre, ignore_errors=True)
        years = self.w.years[:-1] if self.w.append else self.w.years
        make_workspace(self.ws, self.spec, self.seed, years)
        if self.w.http_llm:
            self.stop_stub()
            self.start_stub()
        self.write_config(self.config, self.ws / "index", self.ws / "out",
                          self.llm_provider())
        if self.w.append:
            code, _, _ = timed_process(self.cli_command(self.config),
                                       self.work / "pre-state.log", self.deadline)
            if code != 0:
                raise RuntimeError(f"pre-state run failed, see {self.work}/pre-state.log")
            for name in ("corpus", "index", "out"):
                shutil.copytree(self.ws / name, self.pre / name)
        return time.perf_counter() - t0

    def start_stub(self) -> None:
        self.stub = subprocess.Popen([sys.executable, str(BENCH_DIR / "chat_stub.py")],
                                     cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                                     text=True)
        line = self.stub.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"chat stub did not start: {line!r}")
        self.stub_url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stop_stub(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            self.stub.wait(timeout=10)
            self.stub.stdout.close()
            self.stub = None

    def stub_call(self, path: str, post: bool = False) -> dict:
        req = urllib.request.Request(self.stub_url + path, data=b"{}" if post else None,
                                     method="POST" if post else "GET")
        with urllib.request.urlopen(req, timeout=10) as resp:
            return json.loads(resp.read())

    def llm_provider(self) -> dict:
        if self.w.http_llm:
            return {"name": "http", "endpoint": self.stub_url + "/v1/chat/completions",
                    "model": "bench-keyword-stub"}
        return self.keyword_llm

    def write_config(self, path: Path, index_dir: Path, out_dir: Path,
                     llm: dict) -> None:
        config = {
            "corpus_dir": str(self.ws / "corpus"), "index_dir": str(index_dir),
            "prices_dir": str(self.ws / "prices"), "out_dir": str(out_dir),
            "benchmark_symbol": "SPX", "chunk_chars": 2048, "overlap_chars": 256,
            "embedding_provider": {"name": "stub", "dimension": 64, "seed": 0},
            "llm_provider": llm, "chunks_per_question": 4,
            "train_years": list(self.w.train_years),
            "test_years": list(self.w.test_years),
            "k": self.w.k, "k_values": list(self.w.k_values),
        }
        # JSON is valid YAML, so the CLI's YAML loader reads this unchanged.
        path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")

    # --- runs -----------------------------------------------------------------

    def prepare(self) -> None:
        """Reset the workspace to the state every timed run starts from."""
        from filingsignal.corpus import CorpusStore
        from workspace import add_filings

        if self.w.append:
            for name in ("corpus", "index", "out"):
                shutil.rmtree(self.ws / name, ignore_errors=True)
                shutil.copytree(self.pre / name, self.ws / name)
            add_filings(CorpusStore(self.ws / "corpus"), self.spec, self.seed,
                        self.w.years[-1:])
        else:
            shutil.rmtree(self.ws / "index", ignore_errors=True)
            shutil.rmtree(self.ws / "out", ignore_errors=True)
        if self.w.http_llm:
            self.stub_call("/reset", post=True)

    @staticmethod
    def cli_command(config: Path) -> list[str]:
        return [sys.executable, "-m", "filingsignal.cli", "pipeline",
                "--config", str(config), "--stages", *STAGES]

    def run_untraced(self) -> tuple[Outcome, float, float]:
        """One timed CLI run; returns (checks, wall s, peak RSS MB)."""
        self.prepare()
        self.runs += 1
        code, wall, rss = timed_process(self.cli_command(self.config),
                                        self.work / f"run{self.runs}.log", self.deadline)
        return self.check(code), wall, rss

    def run_traced(self) -> tuple[Outcome, float, dict]:
        """One traced in-process run; returns (checks, wall s, traced metrics)."""
        self.prepare()
        self.runs += 1
        OUT_ROOT.mkdir(exist_ok=True)
        out = self.work / f"traced{self.runs}.json"
        cmd = [sys.executable, str(BENCH_DIR / "traced_run.py"),
               "--config", str(self.config), "--out", str(out),
               "--spans", str(OUT_ROOT / f"spans-{self.w.name}.jsonl"),
               "--stages", *STAGES]
        code, wall, _ = timed_process(cmd, self.work / f"traced{self.runs}.log",
                                      self.deadline)
        traced = (json.loads(out.read_text()) if code == 0
                  else {"metrics": {}, "self_s": {}, "notes": []})
        return self.check(code), wall, traced

    def stub_requests(self) -> int:
        return self.stub_call("/stats")["requests"]

    # --- checks ---------------------------------------------------------------

    def reference_features(self) -> bytes:
        """features.csv of an in-process keyword-stub run on the same corpus."""
        if self.reference is None:
            ref = self.work / "reference"
            config = ref / "config.yaml"
            ref.mkdir(parents=True, exist_ok=True)
            self.write_config(config, ref / "index", ref / "out", self.keyword_llm)
            code, _, _ = timed_process(
                [sys.executable, "-m", "filingsignal.cli", "pipeline", "--config",
                 str(config), "--stages", "embed", "score"], ref / "run.log", self.deadline)
            path = ref / "out" / "features.csv"
            self.reference = path.read_bytes() if code == 0 and path.exists() else b""
        return self.reference

    def check(self, exit_code: int) -> Outcome:
        """Check one run's artifacts against the workload's invariants."""
        filings = self.spec.filings
        outcome = Outcome(attempted=2 * filings, failed=0)
        errors = outcome.errors
        out = self.ws / "out"
        missing = [a for a in ARTIFACTS if not (out / a).exists()]
        if exit_code != 0 or missing:
            errors.append(f"pipeline exited {exit_code}, missing {missing}")
            outcome.failed = outcome.attempted
            return outcome

        keys = set(_filing_keys(self.ws / "corpus"))
        with open(out / "features.csv", newline="", encoding="utf-8") as f:
            header, *rows = list(csv.reader(f))
        row_keys = {(r[0], r[1]) for r in rows}
        outcome.rows = len(rows)
        outcome.failed += len(keys - row_keys)  # feature rows dropped
        if len(rows) != len(row_keys) or row_keys - keys:
            errors.append("features.csv has duplicate or unknown rows")
        if len(header) < 3 or any(
                len(r) != len(header) or not all(v.isdigit() and 0 <= int(v) <= 100
                                                 for v in r[2:]) for r in rows):
            errors.append("features.csv has a partial row or a score outside 0-100")

        with open(out / "returns.csv", newline="", encoding="utf-8") as f:
            returns = {(r["ticker"], r["filing_date"]) for r in csv.DictReader(f)}
        outcome.failed += len(keys - returns)  # return windows skipped
        with open(out / "labels.csv", newline="", encoding="utf-8") as f:
            labels = [(r["ticker"], r["filing_date"]) for r in csv.DictReader(f)]
        if sorted(labels) != sorted(returns):
            errors.append("labels.csv does not hold one label per return window")

        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if not report["strategy_wealth"][-1] > report["benchmark_wealth"][-1]:
            errors.append("strategy final wealth is not above the benchmark's")
        if self.w.http_llm and (out / "features.csv").read_bytes() != self.reference_features():
            errors.append("features.csv differs from the in-process keyword-stub run")

        digests = {a: _sha256(out / a) for a in ARTIFACTS}
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            changed = [a for a in ARTIFACTS if digests[a] != self.first_digests[a]]
            errors.append(f"artifact digests changed between runs: {changed}")
        outcome.failed += len(errors)
        return outcome


def _filing_keys(corpus: Path) -> list[tuple[str, str]]:
    with open(corpus / "manifest.jsonl", encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    return [(r["ticker"], r["filing_date"]) for r in records]


def _fmt(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def scaled_median(samples: list[tuple[float, int]], calibrations: list[float],
                  workload: Workload) -> float:
    """Median of timed samples, each at the reference speed if CPU-bound.

    A sample is (seconds, i): it ran between calibrations i and i + 1, and is
    multiplied by REFERENCE_S / their mean, the machine's speed around it.
    The median then drops a sample or a calibration caught by a short stall.
    """
    from speed import REFERENCE_S

    if not workload.cpu_bound:
        return _median([seconds for seconds, _ in samples])
    return _median([seconds * REFERENCE_S / ((calibrations[i] + calibrations[i + 1]) / 2)
                    for seconds, i in samples])


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, work, deadline)
    outcomes: list[Outcome] = []
    from speed import calibrate

    cpus = os.sched_getaffinity(0)
    # The vCPUs of a shared VM change speed independently of each other, so
    # the calibrations measure the speed the timed processes got only when
    # all of them run on the same CPU. Child processes inherit this. Every
    # workload runs this way, so all of them see one CPU.
    os.sched_setaffinity(0, {min(cpus)})
    try:
        # Set-ups and timed runs are (seconds, i): each ran after calibration
        # i and before calibration i + 1.
        calibrations = [calibrate()]
        setups = [(bench.setup(), 0)]
        while not trace and workload.append and len(setups) < SETUP_REPEATS:
            calibrations.append(calibrate())
            setups.append((bench.setup(), len(calibrations) - 1))
        walls, rss, stub_counts, traced_walls, traced = [], [], [], [], []
        t0 = time.perf_counter()
        while ((len(walls) < (1 if trace else MIN_SAMPLES)
                or time.perf_counter() - t0 < seconds)
               and time.perf_counter() < deadline):
            calibrations.append(calibrate())
            if walls and not trace and not workload.append:
                setups.append((bench.setup(), len(calibrations) - 1))
            outcome, wall, peak = bench.run_untraced()
            outcomes.append(outcome)
            walls.append((wall, len(calibrations) - 1))
            rss.append(peak)
            if workload.http_llm:
                stub_counts.append(bench.stub_requests())
            if trace:  # alternate traced and untraced runs
                outcome, wall, result = bench.run_traced()
                outcomes.append(outcome)
                traced_walls.append(wall)
                traced.append(result)
        calibrations.append(calibrate())
        if not trace:  # one traced run counts provider calls and embedded texts
            outcome, _, result = bench.run_traced()
            outcomes.append(outcome)
            traced.append(result)
        if workload.http_llm:
            stub_counts.append(bench.stub_requests())
            if len(set(stub_counts)) != 1:
                outcomes[-1].errors.append(f"stub request counts differ: {stub_counts}")
                outcomes[-1].failed += 1
    finally:
        bench.stop_stub()
        shutil.rmtree(work, ignore_errors=True)
        os.sched_setaffinity(0, cpus)

    raw_walls = [seconds for seconds, _ in walls]
    print(f"{workload.name}: unscaled setup_s {_fmt([s for s, _ in setups])}; "
          f"pipeline_s {_fmt(raw_walls)}; calibration_s {_fmt(calibrations)}"
          + (f"; traced_s {_fmt(traced_walls)}" if trace else ""), file=sys.stderr)
    for note in traced[0]["notes"] if traced else []:
        print(f"note: {note}", file=sys.stderr)
    if trace and traced:
        top = sorted(traced[0]["self_s"].items(), key=lambda kv: -kv[1])[:8]
        print("self time: " + ", ".join(f"{n} {v:.3f}s" for n, v in top), file=sys.stderr)
    for o in outcomes:
        for e in o.errors:
            print(f"check failed: {e}", file=sys.stderr)
    if bench.first_digests:
        for name, digest in bench.first_digests.items():
            print(f"digest {workload.name} {name} {digest}")

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    values: dict[str, float] = {}
    if trace:
        for name in PER_LAYER:
            samples = [t["metrics"][name] for t in traced if name in t["metrics"]]
            if samples:
                values[name] = _median(samples)
        # Each traced run directly follows an untraced one, so their ratio is
        # taken at nearly the same machine speed.
        values["trace.overhead_ratio"] = _median(
            [t / u for t, u in zip(traced_walls, raw_walls)])
        values["machine.calibration_s"] = statistics.fmean(calibrations)
        units = PER_LAYER
    else:
        layers = traced[0]["metrics"] if traced else {}
        pipeline_s = scaled_median(walls, calibrations, workload)
        values = {
            "pipeline_s": pipeline_s,
            "filings_per_s": outcomes[0].rows / pipeline_s,
            "setup_s": scaled_median(setups, calibrations, workload),
            "peak_rss_mb": _median(rss),
            "llm_calls": (stub_counts[0] if workload.http_llm
                          else layers.get("llm_scoring.provider_calls", 0)),
            "embed_texts": layers.get("embed_index.embed_texts", 0),
            "success_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
    return {
        "correct": all(not o.errors for o in outcomes) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "filingsignal" / "pipeline.py").exists():
        print(f"error: {SRC}/filingsignal not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # On SIGTERM, unwind through the finally blocks that stop child processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result = run_workload(workload, args.seed, args.seconds, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                print(f"{workload.name:14s} {name:36s} {metric['value']:14.6g} {metric['unit']}")
                combined["metrics"][f"{workload.name}/{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
