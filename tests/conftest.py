import json
import ssl
import threading
import time
from collections import Counter
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from filingsignal import net
from filingsignal.llm_scoring import KeywordLLM
from filingsignal.synthetic import PLANTED_PHRASE, make_workspace

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


def synthetic_config(root, out_dir):
    from filingsignal.pipeline import PipelineConfig

    return PipelineConfig(
        corpus_dir=str(root / "corpus"),
        index_dir=str(out_dir / "index"),
        out_dir=str(out_dir),
        prices_dir=str(root / "prices"),
        universe_csv=str(root / "universe.csv"),
        benchmark_symbol="SPX",
        chunk_chars=4096,
        overlap_chars=256,
        embedding_provider={"name": "stub", "dimension": 64, "seed": 0},
        llm_provider={"name": "keyword-stub", "phrase": PLANTED_PHRASE,
                      "hit_score": 30, "miss_score": 10, "per_occurrence": 8},
        train_years=(2015, 2017),
        test_years=(2018, 2020),
        k=3,
        basis="12m",
        k_values=[1, 2, 3, 5, 8],
    )


def default_questions():
    """The packaged question set, which a config without ``questions_file`` reads."""
    from filingsignal.pipeline import load_questions

    return load_questions(synthetic_config(Path(), Path()))


def assert_cache_holds(cache, text):
    """Every record of a ``score_cache.jsonl`` text is what ``cache`` looks up."""
    for rec in map(json.loads, text.splitlines()):
        if "prompt_sha256" in rec:
            assert cache.get(rec["prompt_sha256"]) == rec["score"]
        elif "vector_sha256" in rec:
            assert cache.get_vector(rec["vector_sha256"]).tolist() == rec["vector"]
        else:
            assert cache.get_row(rec["row_sha256"]) == rec["scores"]


def json_reply(obj, status=200):
    """A ``loopback`` reply carrying ``obj`` as JSON."""
    return status, json.dumps(obj).encode(), "application/json"


class ChatServer:
    """A ``loopback`` chat endpoint that HTTPChatLLM talks to in place of a network.

    Each call sleeps ``delay_s(question position)`` and then answers as the
    synthetic workspace's keyword stub would, with the status that ``status``
    gives: a number, or a function of the question's position and how often
    its prompt was asked before. It counts the calls, the most in flight at
    once and the order in which questions finish.
    """

    def __init__(self, questions, delay_s, status=200):
        self.position = {q.text: i for i, q in enumerate(questions)}
        self.delay_s = delay_s
        self.status = status if callable(status) else lambda position, asked: status
        self.llm = KeywordLLM(PLANTED_PHRASE, 30, 10, 8)
        self.lock = threading.Lock()
        self.calls = 0
        self.in_flight = 0
        self.peak = 0
        self.finished: list[int] = []
        self.asked: Counter = Counter()  # by prompt

    def __call__(self, body, headers):
        system, user = (m["content"] for m in json.loads(body)["messages"])
        position = self.position[user.rsplit("Question: ", 1)[1]]
        with self.lock:
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            status = self.status(position, self.asked[system, user])
            self.asked[system, user] += 1
        time.sleep(self.delay_s(position))
        with self.lock:
            self.in_flight -= 1
            self.finished.append(position)
        if status != 200:
            return json_reply({"error": "overloaded"}, status)
        return json_reply({"choices": [{"message": {
            "content": self.llm.complete(system, user)}}]})


class _Server(ThreadingHTTPServer):
    # The default backlog of 5 is below the score stage's 8 workers; a connect
    # that overflows it waits about 1 s for a TCP retransmission.
    request_queue_size = 64

    def __init__(self, handler, tls):
        super().__init__(("127.0.0.1", 0), handler)
        self.url = f"http{'s' * tls}://127.0.0.1:{self.server_address[1]}"
        if tls:
            context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
            context.load_cert_chain(f"{FIXTURES}/loopback_cert.pem",
                                    f"{FIXTURES}/loopback_key.pem")
            self.socket = context.wrap_socket(self.socket, server_side=True)
        self.lock = threading.Lock()
        self.accepted = 0  # connections, each handled in its own thread
        self.open = 0  # of them, not yet closed

    def process_request(self, request, client_address):
        with self.lock:
            self.accepted += 1
            self.open += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.lock:
            self.open -= 1


@contextmanager
def _serve(reply, protocol, requests_per_connection=None, tls=False):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = protocol
        handled = 0

        def log_message(self, *_):
            pass

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            status, data, content_type, *more = reply(body, self.headers)
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            for name, value in dict(*more).items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            self.handled += 1
            if self.handled == requests_per_connection:
                self.close_connection = True  # without a word, as an idle timeout does

        do_GET = do_POST

    server = _Server(Handler, tls)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@contextmanager
def loopback(reply):
    """Serve ``reply(body, headers) -> (status, body, content type)`` on 127.0.0.1.

    A reply may add a fourth item, a dict of more headers to send, such as
    ``{"Retry-After": "2"}``. Yields the server's URL. Every request, GET or
    POST, is answered in its own thread, over HTTP/1.0, so the client closes
    each connection; leaving the block stops the server and joins those
    threads.
    """
    with _serve(reply, "HTTP/1.0") as server:
        yield server.url


@contextmanager
def kept_alive(reply, requests_per_connection=None, scheme="http"):
    """``loopback`` over HTTP/1.1: a connection serves requests until the client
    closes it, or until it has answered ``requests_per_connection``. Yields the
    server, whose ``url``, ``accepted`` and ``open`` count its connections.

    With ``scheme`` "https", the server presents ``fixtures/loopback_cert.pem``,
    which the client trusts in place of the system CA store while the block
    runs. Leaving the block first closes the client's idle connections as
    ``run_pipeline`` does, since the server joins the thread of each one.
    """
    tls = scheme == "https"
    with _serve(reply, "HTTP/1.1", requests_per_connection, tls) as server, \
            pytest.MonkeyPatch.context() as patch:
        if tls:
            patch.setattr(net, "_tls_context", ssl.create_default_context(
                cafile=f"{FIXTURES}/loopback_cert.pem"))
        try:
            yield server
        finally:
            net.close_connections()


@pytest.fixture(autouse=True)
def slept(monkeypatch):
    """The seconds of every wait between retries, in order, in place of waiting."""
    waits = []
    monkeypatch.setattr(net, "sleep", waits.append)
    return waits


@pytest.fixture(scope="session")
def synth_root(tmp_path_factory):
    return make_workspace(tmp_path_factory.mktemp("synth"), seed=0)


@pytest.fixture
def sample_10k_html():
    with open(f"{FIXTURES}/sample_10k.html", encoding="utf-8") as f:
        return f.read()
