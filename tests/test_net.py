"""The HTTP path that the chat, embedding and EDGAR clients share, on loopback."""

import json
import os
import socket
import subprocess
import sys

import pytest
import yaml

from filingsignal import edgar
from filingsignal.embed_index import HTTPEmbeddingProvider
from filingsignal.errors import RetriableError
from filingsignal.llm_scoring import HTTPChatLLM

from conftest import json_reply, loopback, synthetic_config
from test_pipeline import SYNTH_STAGES, yaml_mapping

CHAT = (HTTPChatLLM, lambda p: p.complete("system", "user"),
        {"choices": [{"message": {"content": "SCORE: 7"}}]}, "SCORE: 7")
EMBED = (HTTPEmbeddingProvider, lambda p: p.embed_batch(["a", "b"]),
         {"embeddings": [[1.0], [2.0]]}, [[1.0], [2.0]])
PROVIDERS = pytest.mark.parametrize("make, call, answer, expected", [CHAT, EMBED],
                                    ids=["chat", "embed"])


@PROVIDERS
def test_200_with_json_is_answered(make, call, answer, expected):
    seen = []

    def reply(body, headers):
        seen.append((json.loads(body), headers["Content-Type"], headers["Authorization"]))
        return json_reply(answer)

    with loopback(reply) as url:
        assert call(make(url + "/v1", "m", api_key="sk-1")) == expected
    [(payload, content_type, auth)] = seen
    assert payload["model"] == "m"
    assert (content_type, auth) == ("application/json", "Bearer sk-1")


@PROVIDERS
@pytest.mark.parametrize("status", [503, 201])
def test_status_other_than_200_is_retriable_and_named(make, call, answer, expected,
                                                      status):
    with loopback(lambda body, headers: json_reply(answer, status)) as url:
        with pytest.raises(RetriableError, match=f"HTTP {status}"):
            call(make(url, "m"))


@PROVIDERS
def test_body_that_is_not_json_is_retriable(make, call, answer, expected):
    with loopback(lambda body, headers: (200, b"<html>busy</html>", "text/html")) as url:
        with pytest.raises(RetriableError, match="JSONDecodeError"):
            call(make(url, "m"))


@PROVIDERS
def test_closed_port_is_retriable(make, call, answer, expected):
    with socket.socket() as s:  # a port that was free a moment ago
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    with pytest.raises(RetriableError, match="no response from"):
        call(make(f"http://127.0.0.1:{port}/v1", "m"))


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


def test_edgar_client_backs_off_on_a_bad_status(monkeypatch):
    monkeypatch.setenv(edgar.CONTACT_ENV_VAR, "Research Bot research@example.com")
    calls = []

    def reply(body, headers):
        calls.append(body)
        return 429, b"slow down", "text/plain"

    with loopback(reply) as url:
        with pytest.raises(RetriableError, match="HTTP 429"):
            edgar.EdgarClient(sleep=lambda s: None).get(url)
    assert len(calls) == edgar.MAX_RETRIES


def test_stub_run_loads_no_http_client(synth_root, tmp_path):
    """urllib.request loads ssl, which would raise a stub run's peak memory."""
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(yaml_mapping(synthetic_config(synth_root, tmp_path))))
    argv = ["pipeline", "--config", str(cfg_path), "--stages", *SYNTH_STAGES]
    script = ("import sys\nfrom filingsignal import cli\n"
              f"assert cli.main({argv!r}) == 0\n"
              "print(sorted({'urllib.request', 'ssl'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300, env=env, check=True).stdout
    assert out.splitlines()[-1] == "[]"
