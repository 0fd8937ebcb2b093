"""The HTTP path and retry policy that the chat, embedding and EDGAR clients
share, on loopback."""

import json
import os
import socket
import ssl
import subprocess
import sys
import time

import pytest
import yaml

from filingsignal import edgar, net
from filingsignal.embed_index import HTTPEmbeddingProvider
from filingsignal.errors import FinalStatusError, PipelineError, RetriableError
from filingsignal.llm_scoring import HTTPChatLLM

from conftest import json_reply, kept_alive, loopback, synthetic_config
from test_pipeline import SYNTH_STAGES, yaml_mapping


def closed_port():
    """A loopback port that was free a moment ago."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


CHAT = (HTTPChatLLM, lambda p: p.complete("system", "user"),
        {"choices": [{"message": {"content": "SCORE: 7"}}]}, "SCORE: 7")
EMBED = (HTTPEmbeddingProvider, lambda p: p.embed_batch(["a", "b"]),
         {"embeddings": [[1.0], [2.0]]}, [[1.0], [2.0]])
PROVIDERS = pytest.mark.parametrize("make, call, answer, expected", [CHAT, EMBED],
                                    ids=["chat", "embed"])


@PROVIDERS
def test_200_with_json_is_answered(monkeypatch, make, call, answer, expected):
    monkeypatch.setenv("PROVIDER_TEST_KEY", "sk-1")
    seen = []

    def reply(body, headers):
        seen.append((json.loads(body), dict(headers)))
        return json_reply(answer)

    with loopback(reply) as url:
        assert call(make(url + "/v1", "m", api_key_env="PROVIDER_TEST_KEY")) == expected
    [(payload, headers)] = seen
    assert payload["model"] == "m"
    # urllib's headers, without its Connection: close
    assert headers == {"Host": url.removeprefix("http://"), "Accept-Encoding": "identity",
                       "Content-Length": headers["Content-Length"],
                       "User-Agent": "Python-urllib/%d.%d" % sys.version_info[:2],
                       "Content-Type": "application/json", "Authorization": "Bearer sk-1"}


@PROVIDERS
@pytest.mark.parametrize("status", [408, 429, 500, 503])
def test_status_that_may_pass_is_retriable_and_named(make, call, answer, expected,
                                                     status):
    with loopback(lambda body, headers: json_reply(answer, status)) as url:
        with pytest.raises(RetriableError, match=f"HTTP {status} from the .* endpoint"):
            call(make(url, "m"))


@PROVIDERS
@pytest.mark.parametrize("status", [201, 302, 400, 401, 404])
def test_other_status_is_final_and_asked_once(make, call, answer, expected, status, slept):
    posts = []

    def reply(body, headers):
        posts.append(body)
        return (*json_reply(answer, status), {"Location": "/v1"})  # not followed

    with loopback(reply) as url:
        with pytest.raises(FinalStatusError, match=f"HTTP {status} from the .* endpoint"):
            net.with_retries(lambda: call(make(url, "m")), "item")
    assert len(posts) == 1 and slept == []


@PROVIDERS
@pytest.mark.parametrize("first, waits", [
    ((503, {}), []),  # the first retry after a 5xx is at once
    ((408, {}), []),
    ((429, {}), [1.0]),
    ((429, {"Retry-After": "2"}), [2.0]),
    ((503, {"Retry-After": "2"}), [2.0]),
    ((429, {"Retry-After": "86400"}), [net.MAX_RETRY_AFTER_S]),
    ((429, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}), [1.0]),  # not an integer
], ids=["503", "408", "429", "retry-after", "503-retry-after", "capped", "date"])
def test_refused_once_then_answered(make, call, answer, expected, slept, first, waits):
    posts = []

    def reply(body, headers):
        posts.append(body)
        status, more = first if len(posts) == 1 else (200, {})
        return (*json_reply(answer, status), more)

    with loopback(reply) as url:
        assert net.with_retries(lambda: call(make(url, "m")), "item") == expected
    assert len(posts) == 2 and slept == waits


@PROVIDERS
def test_refused_every_time_gives_up_as_retriable(make, call, answer, expected, slept):
    with loopback(lambda body, headers: json_reply(answer, 503)) as url:
        with pytest.raises(RetriableError, match=(f"item failed {net.MAX_ATTEMPTS} times: "
                                                  "HTTP 503")) as exc:
            net.with_retries(lambda: call(make(url, "m")), "item")
    assert isinstance(exc.value.__cause__, RetriableError)
    assert slept == [2.0]  # retry 1 at once, retry 2 after 2 s


def test_unusable_reply_retried_at_once_and_not_retriable(slept):
    calls = []

    def call():
        calls.append(1)
        raise ValueError("bad vector")

    with pytest.raises(PipelineError, match=f"item failed {net.MAX_ATTEMPTS} times: "
                                            "bad vector") as exc:
        net.with_retries(call, "item", (ValueError,))
    assert len(calls) == net.MAX_ATTEMPTS and slept == []
    assert not isinstance(exc.value, RetriableError)  # a later run would get it again


@pytest.mark.parametrize("endpoint", ["api.example.com/v1", "ftp://example.com/v1",
                                      "http:///v1", "localhost:8080/v1"])
@pytest.mark.parametrize("make", [HTTPChatLLM, HTTPEmbeddingProvider],
                         ids=["chat", "embed"])
def test_endpoint_without_http_scheme_and_host_refused(make, endpoint):
    with pytest.raises(ValueError, match="must be an http or https URL with a host"):
        make(endpoint, "m")


@PROVIDERS
def test_body_that_is_not_json_is_retriable(make, call, answer, expected):
    with loopback(lambda body, headers: (200, b"<html>busy</html>", "text/html")) as url:
        with pytest.raises(RetriableError, match="JSONDecodeError"):
            call(make(url, "m"))


@PROVIDERS
def test_closed_port_is_retriable(make, call, answer, expected):
    with pytest.raises(RetriableError, match="no response from"):
        call(make(f"http://127.0.0.1:{closed_port()}/v1", "m"))


def test_https_requests_share_one_tls_context(monkeypatch):
    """A TLS context loads the CA store, tens of ms of CPU; an http request builds none."""
    built = []
    new = ssl.SSLContext.__new__

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ssl.SSLContext, "__new__", counted)
    monkeypatch.setattr(net, "_tls_context", None)  # as in a new process
    port = closed_port()
    with pytest.raises(RetriableError, match="no response from"):
        net.request(f"http://127.0.0.1:{port}/", {}, None, 5.0)
    assert built == []
    for _ in range(2):
        with pytest.raises(RetriableError, match="no response from"):
            net.request(f"https://127.0.0.1:{port}/", {}, None, 5.0)
    assert len(built) == 1


@PROVIDERS
@pytest.mark.parametrize("scheme", ["http", "https"])
def test_serial_calls_share_one_connection(make, call, answer, expected, scheme):
    with kept_alive(lambda body, headers: json_reply(answer), scheme=scheme) as server:
        provider = make(server.url + "/v1", "m")
        for _ in range(20):
            assert call(provider) == expected
        assert server.accepted == 1


def test_serial_edgar_requests_share_one_connection(monkeypatch):
    monkeypatch.setenv(edgar.CONTACT_ENV_VAR, "Research Bot research@example.com")
    client = edgar.EdgarClient(limiter=edgar.RateLimiter(sleep=lambda s: None))
    with kept_alive(lambda body, headers: (200, b"ok", "text/plain")) as server:
        for _ in range(20):
            assert client.get(server.url + "/doc.htm") == "ok"
        assert server.accepted == 1


@pytest.mark.parametrize("scheme", ["http", "https"])
def test_connection_closed_while_idle_is_replaced(slept, scheme):
    answers = iter(["SCORE: 1", "SCORE: 2"])
    requests = []

    def reply(body, headers):
        requests.append(body)
        return json_reply({"choices": [{"message": {"content": next(answers)}}]})

    with kept_alive(reply, requests_per_connection=1, scheme=scheme) as server:
        llm = HTTPChatLLM(server.url + "/v1", "m")
        assert llm.complete("system", "first") == "SCORE: 1"
        assert llm.complete("system", "second") == "SCORE: 2"
        assert server.accepted == 2
    assert [json.loads(body)["messages"][1]["content"] for body in requests] == \
        ["first", "second"]
    assert slept == []


def test_each_request_keeps_its_own_timeout():
    def reply(body, headers):
        time.sleep(0.3 if body == b"slow" else 0.0)
        return 200, b"ok", "text/plain"

    with kept_alive(reply) as server:
        assert net.request(server.url, {}, b"fast", 5.0)[:2] == (200, b"ok")
        with pytest.raises(RetriableError, match="no response from .*timed out"):
            net.request(server.url, {}, b"slow", 0.1)  # on the same connection
        assert server.accepted == 1


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="Linux only")
def test_reply_sent_in_two_parts_is_not_held_by_a_delayed_ack():
    """The loopback handler writes headers and body in two sends, Nagle's
    algorithm on, as ``benchmarks/chat_stub.py`` does. Were the headers' ACK
    delayed, the body would wait for it, about 40 ms a call."""
    answer = json_reply({"choices": [{"message": {"content": "SCORE: 7"}}]})
    with kept_alive(lambda body, headers: answer) as server:
        llm = HTTPChatLLM(server.url + "/v1", "m")
        start = time.monotonic()
        for _ in range(20):
            assert llm.complete("system", "user") == "SCORE: 7"
        elapsed = time.monotonic() - start
        assert server.accepted == 1
    assert elapsed < 0.5


@pytest.mark.parametrize("content_type, data, text", [
    ("text/html", b"it\x92s", "it\x92s"),  # ISO-8859-1, not cp1252's quote
    ("application/json", '{"name": "Société"}'.encode(), '{"name": "Société"}'),
    ("text/html; charset=utf-8", "naïve".encode(), "naïve"),
    ("text/html; charset=no-such-codec", b"ok \xff", "ok \ufffd"),
], ids=["latin-1", "json", "charset", "unknown-charset"])
def test_edgar_client_decodes_as_requests_did(monkeypatch, content_type, data, text):
    monkeypatch.setenv(edgar.CONTACT_ENV_VAR, "Research Bot research@example.com")
    agents = []

    def reply(body, headers):
        agents.append(headers["User-Agent"])
        return 200, data, content_type

    with loopback(reply) as url:
        assert edgar.EdgarClient().get(url + "/doc.htm") == text
    assert agents == ["Research Bot research@example.com"]


def test_edgar_client_backs_off_on_a_bad_status(monkeypatch, slept):
    monkeypatch.setenv(edgar.CONTACT_ENV_VAR, "Research Bot research@example.com")
    calls = []

    def reply(body, headers):
        calls.append(body)
        return 429, b"slow down", "text/plain"

    with loopback(reply) as url:
        with pytest.raises(RetriableError, match="HTTP 429"):
            edgar.EdgarClient().get(url)
    assert len(calls) == net.MAX_ATTEMPTS
    assert slept == [1.0, 2.0]


def test_edgar_client_obeys_retry_after(monkeypatch, slept):
    monkeypatch.setenv(edgar.CONTACT_ENV_VAR, "Research Bot research@example.com")
    calls = []

    def reply(body, headers):
        calls.append(body)
        if len(calls) == 1:
            return 429, b"slow down", "text/plain", {"Retry-After": "2"}
        return 200, b"ok", "text/plain"

    with loopback(reply) as url:
        assert edgar.EdgarClient().get(url) == "ok"
    assert slept == [2.0]


def test_stub_run_loads_no_http_client(synth_root, tmp_path):
    """urllib.request loads ssl, which would raise a stub run's peak memory."""
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(yaml_mapping(synthetic_config(synth_root, tmp_path))))
    argv = ["pipeline", "--config", str(cfg_path), "--stages", *SYNTH_STAGES]
    script = ("import sys\nfrom filingsignal import cli\n"
              f"assert cli.main({argv!r}) == 0\n"
              "print(sorted({'urllib.request', 'ssl'} & set(sys.modules)))\n"
              "print('http.client' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300, env=env, check=True).stdout
    assert out.splitlines()[-2] == "[]"
    assert out.splitlines()[-1] == "False"


def test_stub_stage_run_loads_no_ingest_demo_or_pool_code(synth_root, tmp_path):
    """A stage run with the stub providers neither fetches filings, builds the
    demo workspace nor makes calls on a pool, so it loads none of their code."""
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(yaml_mapping(synthetic_config(synth_root, tmp_path))))
    argv = ["pipeline", "--config", str(cfg_path), "--stages", "embed", "score"]
    unused = ["concurrent.futures", "filingsignal.edgar", "filingsignal.synthetic"]
    script = ("import sys\nfrom filingsignal import cli\n"
              f"assert cli.main({argv!r}) == 0\n"
              f"print(sorted(set({unused!r}) & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300, env=env, check=True).stdout
    assert out.splitlines()[-1] == "[]"
