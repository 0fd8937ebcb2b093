"""HTTP requests through the standard library, and the retry policy of every client.

``urllib.request`` loads ``ssl``, so it is imported on the first request:
a run with the offline stub providers never pays for it. HTTPS is verified
against the system CA store, through one TLS context that the process builds
on its first https request and every later one shares.
"""

from __future__ import annotations

import json
import logging
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
sleep = time.sleep  # every wait between attempts goes through it

_https_opener = None  # built by the first https request, under _https_lock
_https_lock = threading.Lock()

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

    A 4xx or 5xx is returned like any other status. No response at all
    (refused, reset, timed out, cut short) raises RetriableError.
    """
    import http.client
    import urllib.error
    import urllib.request

    req = urllib.request.Request(url, data=body, headers=headers)
    open_url = _https().open if req.type == "https" else urllib.request.urlopen
    try:
        try:
            resp = open_url(req, timeout=timeout)
        except urllib.error.HTTPError as exc:
            resp = exc  # a bad status still carries its body and headers
        with resp:
            return resp.status, resp.read(), resp.headers
    except (OSError, http.client.HTTPException) as exc:
        raise RetriableError(f"no response from {url}: {exc}") from exc


def _https():
    """The opener of every https request, whose one TLS context is built on
    first use: left to itself, urllib builds a context per connection."""
    global _https_opener
    with _https_lock:
        if _https_opener is None:
            import ssl
            import urllib.request

            context = ssl.create_default_context()
            context.set_alpn_protocols(["http/1.1"])  # as urllib's own contexts
            _https_opener = urllib.request.build_opener(
                urllib.request.HTTPSHandler(context=context))
        return _https_opener


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
