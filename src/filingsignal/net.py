"""HTTP requests through the standard library, and the retry policy of every client.

Requests go through ``http.client`` on kept-alive connections. A request
takes an idle connection to its origin (scheme and host:port) from one free
list, or opens a new one, and puts it back once the whole reply is read
unless the server closed it. So N threads asking one endpoint hold at most N
connections to it, and ``close_connections``, which every ``run_pipeline``
calls as it ends, closes them all. After sending, a request sets
TCP_QUICKACK where the platform has it: a server that writes headers and
body in two sends with Nagle's algorithm on holds the body until the client
ACKs the headers, which a delayed ACK puts off by about 40 ms.

``Calls`` is where a stage makes its provider calls: on a pool of threads
for a provider that waits on the network, or one by one on the stage's own
thread, and in either case a final status stops every call not yet started.

``http.client`` loads ``ssl``, so it is imported on the first request: a run
with the offline stub providers never pays for it. HTTPS is verified against
the system CA store, through one TLS context that the process builds on its
first https request and every later one shares. Redirects are not followed,
and no proxy is used.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import time
from typing import Callable, Mapping, TypeVar
from urllib.parse import urlsplit

from .errors import FinalStatusError, PipelineError, RetriableError

logger = logging.getLogger(__name__)

# Calls made for one item (an EDGAR document, a filing's chunks, a question,
# a prompt) before its failure is final; the longest Retry-After obeyed.
MAX_ATTEMPTS = 3
MAX_RETRY_AFTER_S = 60.0
# Provider calls in flight at once when a stage overlaps them. It changes no
# output, so no config field or stage hash holds it.
MAX_WORKERS = 8
sleep = time.sleep  # every wait between attempts goes through it

# The User-Agent of a request whose caller names none, as urllib sends it.
USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]

_lock = threading.Lock()
_idle: dict[tuple[str, str], list] = {}  # (scheme, host:port) -> idle connections
_tls_context = None  # built by the first https request

T = TypeVar("T")


def check_endpoint(url: str) -> str:
    """``url`` if it is an http or https URL with a host; ValueError otherwise."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"endpoint ({url!r}) must be an http or https URL with a host")
    return url


def request(url: str, headers: dict[str, str], body: bytes | None,
            timeout: float) -> tuple[int, bytes, Mapping[str, str]]:
    """GET ``url``, or POST ``body`` to it; returns (status, body, reply headers).

    Any status, a 3xx, 4xx or 5xx too, is returned like a 200. No response at
    all (refused, reset, timed out, cut short) raises RetriableError. A kept-
    alive connection that the server closed while it was idle ends before any
    reply byte; the request is then sent once more, on a new connection.
    """
    import http.client
    import ssl

    parts = urlsplit(url)
    origin = (parts.scheme, parts.netloc)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    send = ("GET" if body is None else "POST", target, body,
            {"User-Agent": USER_AGENT, **headers})
    conn = _idle_connection(origin, timeout)
    try:
        reply = None
        if conn is not None:
            try:
                reply = _send(conn, *send)
            except (ConnectionResetError, BrokenPipeError, ssl.SSLEOFError):
                conn.close()  # closed while idle (RemoteDisconnected is a reset too)
        if reply is None:
            conn = _new_connection(origin, timeout)
            reply = _send(conn, *send)
        data = reply.read()
    except (OSError, http.client.HTTPException) as exc:
        if conn is not None:
            conn.close()
        raise RetriableError(f"no response from {url}: {exc}") from exc
    if reply.will_close:
        conn.close()
    else:
        with _lock:
            _idle.setdefault(origin, []).append(conn)
    return reply.status, data, reply.headers


def _send(conn, method: str, target: str, body: bytes | None, headers: dict[str, str]):
    """Send one request on ``conn`` and return its reply, headers read."""
    import socket

    conn.request(method, target, body, headers)
    if hasattr(socket, "TCP_QUICKACK"):  # Linux: ACK the reply's first send at once
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
    return conn.getresponse()


def _idle_connection(origin: tuple[str, str], timeout: float):
    """The idle connection to ``origin`` used last, set to ``timeout``; or None."""
    with _lock:
        idle = _idle.get(origin)
        conn = idle.pop() if idle else None
    if conn is not None:
        conn.sock.settimeout(timeout)
    return conn


def _new_connection(origin: tuple[str, str], timeout: float):
    """An unopened connection to ``origin``: the first request opens it."""
    import http.client

    scheme, netloc = origin
    if scheme == "https":
        return http.client.HTTPSConnection(netloc, timeout=timeout, context=_tls())
    return http.client.HTTPConnection(netloc, timeout=timeout)


def _tls():
    """The TLS context of every https connection, built on first use: it loads
    the CA store, tens of ms of CPU."""
    global _tls_context
    with _lock:
        if _tls_context is None:
            import ssl

            _tls_context = ssl.create_default_context()
            _tls_context.set_alpn_protocols(["http/1.1"])  # as http.client's own
        return _tls_context


def close_connections() -> None:
    """Close every idle connection; a later request opens new ones."""
    with _lock:
        conns = [conn for idle in _idle.values() for conn in idle]
        _idle.clear()
    for conn in conns:
        conn.close()


def check_status(status: int, headers: Mapping[str, str], source: str) -> None:
    """Raise unless ``status`` is 200: RetriableError for 408, 429 and 5xx, with
    an integer Retry-After's seconds, and FinalStatusError for any other."""
    if status == 200:
        return
    message = f"HTTP {status} from {source}"
    if status not in (408, 429) and status // 100 != 5:
        raise FinalStatusError(message)
    after = (headers.get("Retry-After") or "").strip()
    raise RetriableError(message, status, int(after) if after.isdecimal() else None)


def post_json(url: str, payload: dict, api_key: str | None, timeout: float,
              service: str) -> bytes:
    """POST ``payload`` as JSON with an optional Bearer key; the body of a 200.

    Any other status raises as ``check_status`` says, naming ``service``.
    """
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    status, body, reply = request(url, headers, json.dumps(payload).encode(), timeout)
    check_status(status, reply, f"the {service} endpoint {url}")
    return body


def _wait_s(retry: int, error: Exception) -> float:
    """Seconds to wait before retry number ``retry`` (from 1) after ``error``."""
    if not isinstance(error, RetriableError):  # an unusable reply: no sign of load
        return 0.0
    if error.retry_after is not None:
        return min(float(error.retry_after), MAX_RETRY_AFTER_S)
    return 0.0 if retry == 1 and error.status != 429 else 2.0 ** (retry - 1)


def with_retries(call: Callable[[], T], item: str,
                 unusable: tuple[type[Exception], ...] = (),
                 stop: Callable[[], bool] = lambda: False) -> T:
    """``call()``, made up to MAX_ATTEMPTS times while ``stop()`` is false and it
    raises RetriableError or one of ``unusable`` (a reply the caller cannot use).

    Retry n waits 2^(n-1) s, or a Retry-After's seconds up to MAX_RETRY_AFTER_S;
    the first after no response, a 408 or a 5xx, and any after an unusable
    reply, is at once. Giving up raises an error naming ``item`` and caused by
    the last one; a RetriableError if that was one, as a later run may succeed.
    """
    error: Exception | None = None
    made = 0
    while made < MAX_ATTEMPTS:
        if made:
            wait = _wait_s(made, error)
            logger.warning("%s: %s; retrying%s", item, error, f" in {wait:g} s" if wait else "")
            if wait:
                sleep(wait)
        if stop():  # asked after the wait, in which another item may have failed
            break
        made += 1
        try:
            return call()
        except (RetriableError, *unusable) as exc:
            error = exc
    failure = RetriableError if isinstance(error, RetriableError) else PipelineError
    raise failure(f"{item} failed {made} times: {error}") from error


class Calls:
    """Where one stage makes its provider calls: on ``workers`` threads, or with
    0 on the caller's thread as each call is submitted. ``workers`` is kept,
    since the stage sizes how far it plans ahead by it. Use it as a context
    manager; leaving it drops the calls not yet started and waits for the rest.

    Once a call has raised FinalStatusError, every call that has not yet
    started raises it too, without a request, since every item would get it.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = None
        if workers:  # a stub's stage run makes its calls inline and loads no pool
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(workers, thread_name_prefix="provider")
        self._final: FinalStatusError | None = None

    def __enter__(self) -> "Calls":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def submit(self, fn: Callable[..., T], *args) -> Callable[[], T]:
        """Start ``_call(fn, *args)``; returns the function that returns its value
        or raises its error, waiting for it on a worker. Without workers the
        call is made here and now, and no future is made for it."""
        if self._pool is not None:
            return self._pool.submit(self._call, fn, *args).result
        try:
            value = self._call(fn, *args)
        except Exception as exc:
            error = exc

            def failed() -> T:
                raise error
            return failed
        return lambda: value

    def _call(self, fn: Callable[..., T], *args) -> T:
        """``fn(*args)`` on this thread, unless a call has raised FinalStatusError."""
        if self._final is not None:
            raise FinalStatusError(str(self._final))
        try:
            return fn(*args)
        except FinalStatusError as exc:
            self._final = exc
            raise
