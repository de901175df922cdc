"""Shared pieces of the benchmark: statistics, provenance, digests, HTTP.

Nothing here imports the program under test, so the entry point can check
that the program's sources exist before anything touches them.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import platform
import resource
import socket
import statistics
import time
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

#: A tail percentile is only reported when at least this many samples lie
#: beyond it.
TAIL_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); NaN when empty."""
    data = sorted(values)
    if not data:
        return float("nan")
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return float(data[low] + (data[high] - data[low]) * (rank - low))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def timing_summary(seconds: Sequence[float], tail_q: float) -> Dict[str, Any]:
    """Median and ``tail_q`` percentile in ms, with the sample counts behind them."""
    count = len(seconds)
    tail = percentile(seconds, tail_q)
    beyond = sum(1 for value in seconds if value > tail)
    return {
        "n": count,
        "p50_ms": percentile(seconds, 50.0) * 1e3,
        "tail_q": tail_q,
        f"p{tail_q:g}_ms": tail * 1e3,
        "samples_beyond_tail": beyond,
        "tail_supported": beyond >= TAIL_SAMPLES_BEYOND,
    }


def histogram(values: Iterable[int]) -> Dict[str, int]:
    counts: Dict[int, int] = {}
    for value in values:
        counts[int(value)] = counts.get(int(value), 0) + 1
    return {str(key): counts[key] for key in sorted(counts)}


class Digest:
    """Order-sensitive SHA-256 over the raw bytes of output arrays."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def update(self, *arrays: Any) -> None:
        for array in arrays:
            self._hash.update(array.tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran.

    Not a metric of the program; recorded before and after each run so that
    a shift of the host's speed can be told apart from a regression.
    """
    timings = []
    for _ in range(9):
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        timings.append(time.perf_counter() - start)
    return percentile(timings, 50.0) * 1e3


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: str, workload: str, seed: int, config: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "config": config,
    }


class Client:
    """One keep-alive HTTP/1.1 connection with Nagle disabled."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        host_port = url.split("://", 1)[1]
        host, port = host_port.rsplit(":", 1)
        self._conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
        self._conn.connect()
        self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, bytes, float]:
        """Returns ``(status, raw body, latency seconds)``."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        started = time.perf_counter()
        self._conn.request(method, path, body=data, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        return int(response.status), raw, time.perf_counter() - started

    def close(self) -> None:
        self._conn.close()
