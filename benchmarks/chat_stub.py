"""Slow chat-completion provider stub for the slow-provider workload.

Usage (with ``PYTHONPATH=src``): python3 benchmarks/chat_stub.py

Serves the chat contract that ``HTTPChatLLM`` speaks on 127.0.0.1 and prints
``PORT <n>`` once it listens. Every answer waits ``DELAY_MS`` and comes from
the in-process keyword stub with the benchmark's settings, so it scores
exactly as that stub does. Prompts are told apart by digest; the first
attempt of every ``FAIL_ONE_IN``-th distinct prompt gets HTTP 503, so the
client's retry path runs and the number of retries is the same for every
corpus and any request order. ``GET /stats`` returns the request count, and
``POST /reset`` zeroes it and forgets the prompts seen, so every run sees the
same requests.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from filingsignal.llm_scoring import KeywordLLM
from workspace import KEYWORD_LLM, PLANTED_PHRASE

DELAY_MS = 5.0
FAIL_ONE_IN = 20


def prompt_digest(system_prompt: str, user_prompt: str) -> bytes:
    return hashlib.sha256(f"{system_prompt}\0{user_prompt}".encode()).digest()


class StubState:
    def __init__(self):
        self.llm = KeywordLLM(PLANTED_PHRASE, **KEYWORD_LLM)
        self.lock = threading.Lock()
        self.requests = 0
        self.seen: set[bytes] = set()

    def reset(self) -> None:
        with self.lock:
            self.requests = 0
            self.seen.clear()

    def admit(self, system_prompt: str, user_prompt: str) -> bool:
        """Count one request; False if it is a first attempt to refuse."""
        digest = prompt_digest(system_prompt, user_prompt)
        with self.lock:
            self.requests += 1
            if digest in self.seen:
                return True
            self.seen.add(digest)
            return len(self.seen) % FAIL_ONE_IN != 0


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, so clients may reuse a connection

        def log_message(self, *_):
            pass

        def _reply(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                with state.lock:
                    self._reply(200, {"requests": state.requests})
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                state.reset()
                self._reply(200, {"requests": 0})
                return
            messages = json.loads(body)["messages"]
            system = next(m["content"] for m in messages if m["role"] == "system")
            user = next(m["content"] for m in messages if m["role"] == "user")
            admitted = state.admit(system, user)
            time.sleep(DELAY_MS / 1000.0)
            if not admitted:
                self._reply(503, {"error": "transient overload"})
                return
            answer = state.llm.complete(system, user)
            self._reply(200, {"choices": [{"message": {"role": "assistant",
                                                       "content": answer}}]})

    return Handler


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(StubState()))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
