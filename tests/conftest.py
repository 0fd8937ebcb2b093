import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

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


def json_reply(obj, status=200):
    """A ``loopback`` reply carrying ``obj`` as JSON."""
    return status, json.dumps(obj).encode(), "application/json"


class _Server(ThreadingHTTPServer):
    # The default backlog of 5 is below the score stage's 8 workers; a connect
    # that overflows it waits about 1 s for a TCP retransmission.
    request_queue_size = 64


@contextmanager
def loopback(reply):
    """Serve ``reply(body, headers) -> (status, body, content type)`` on 127.0.0.1.

    Yields the server's URL. Every request, GET or POST, is answered in its
    own thread; leaving the block stops the server and joins those threads.
    """
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *_):
            pass

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            status, data, content_type = reply(body, self.headers)
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        do_GET = do_POST

    server = _Server(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture(scope="session")
def synth_root(tmp_path_factory):
    return make_workspace(tmp_path_factory.mktemp("synth"), seed=0)


@pytest.fixture
def sample_10k_html():
    with open(f"{FIXTURES}/sample_10k.html", encoding="utf-8") as f:
        return f.read()
