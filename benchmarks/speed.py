"""Fixed calibration job that measures how fast this machine runs right now.

The CPU speed of a shared VM shifts by up to 1.6x, in phases that last from
seconds to many minutes, so raw wall times of the same code spread by about
a fifth between runs made minutes apart. ``calibrate`` times a fixed job of
the kinds of work the pipeline does (token hashing as in the hash embedder,
a matrix-vector product and a keyed sort as in ``VectorIndex.top_k``, dict
counting). It is the benchmark's own code and never changes with the
program, so the ratio ``REFERENCE_S / calibration seconds`` is the machine's
speed relative to a reference, and a CPU-bound wall time multiplied by it
reads as seconds at that reference speed.
"""

from __future__ import annotations

import hashlib
import random
import time

import numpy as np

# Seconds the job takes at the reference speed; about its median on a
# 2-vCPU Intel Xeon (family 6 model 207) VM, where it reads 0.26-0.52 s.
REFERENCE_S = 0.30
_REPEATS = 20

_rng = random.Random(0)
_TOKENS = [f"tok{_rng.randrange(5000)}" for _ in range(6000)]
_MATRIX = np.random.default_rng(0).standard_normal((1200, 64))
_QUERY = np.ones(64)


def _job() -> None:
    vec = [0.0] * 64
    for token in _TOKENS:
        digest = hashlib.sha256(token.encode()).digest()
        vec[int.from_bytes(digest[:4], "little") % 64] += 1.0 if digest[4] % 2 == 0 else -1.0
    for _ in range(12):
        sims = _MATRIX @ _QUERY
        sorted(range(len(sims)), key=lambda i: (-sims[i], i))
    counts: dict[str, int] = {}
    for token in _TOKENS * 3:
        counts[token] = counts.get(token, 0) + 1


def calibrate() -> float:
    """Seconds the fixed job takes now."""
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        _job()
    return time.perf_counter() - t0
