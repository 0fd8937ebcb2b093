"""HTTP requests through the standard library, for the EDGAR and provider clients.

``urllib.request`` loads ``ssl``, so it is imported on the first request:
a run with the offline stub providers never pays for it. HTTPS is verified
against the system CA store.
"""

from __future__ import annotations

import json

from .errors import PipelineError, RetriableError


def request(url: str, headers: dict[str, str], body: bytes | None,
            timeout: float) -> tuple[int, bytes, str]:
    """GET ``url``, or POST ``body`` to it; returns (status, body, content type).

    A 4xx or 5xx is returned like any other status. No response at all
    (refused, reset, timed out, cut short) raises RetriableError, and a
    malformed URL raises PipelineError.
    """
    import http.client
    import urllib.error
    import urllib.request

    try:
        req = urllib.request.Request(url, data=body, headers=headers)
    except ValueError as exc:  # not a URL, e.g. no scheme: retrying cannot help
        raise PipelineError(f"cannot request {url!r}: {exc}") from exc
    try:
        try:
            resp = urllib.request.urlopen(req, timeout=timeout)
        except urllib.error.HTTPError as exc:
            resp = exc  # a bad status still carries its body and headers
        with resp:
            return resp.status, resp.read(), resp.headers.get("Content-Type", "")
    except (OSError, http.client.HTTPException) as exc:
        raise RetriableError(f"no response from {url}: {exc}") from exc


def post_json(url: str, payload: dict, api_key: str | None, timeout: float,
              service: str) -> bytes:
    """POST ``payload`` as JSON with an optional Bearer key; the body of a 200.

    Any other status raises RetriableError naming ``service`` and the status.
    """
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    status, body, _ = request(url, headers, json.dumps(payload).encode(), timeout)
    if status != 200:
        raise RetriableError(f"{service} endpoint returned HTTP {status}")
    return body
