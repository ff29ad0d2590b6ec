"""Closed-loop HTTP client and daemon lifecycle for ``serve_mixed``.

The load model is a closed loop: each keep-alive connection sends its
next request only after the previous reply arrived, and all connections
live in this one asyncio process.  The daemon is the real
``python -m repro.cli serve`` in a subprocess of its own, bound to an
ephemeral port, always stopped on the way out (``POST /shutdown`` first,
``kill`` after a timeout) and always waited for.
"""

from __future__ import annotations

import asyncio
import json
import re
import resource
import subprocess
import sys
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from surface import SERVE_COMMAND

__all__ = ["Daemon", "Reply", "fetch", "run_closed_loop", "run_burst"]

_BANNER = re.compile(r"http://([\d.]+):(\d+)")

#: ``(kind, path)`` — the kind only labels the latency sample.
Request = Tuple[str, str]
#: ``(kind, path, status, payload, t0, t1)``; status 0 = transport failure.
Reply = Tuple[str, str, int, Dict[str, object], float, float]


class Daemon:
    """``repro serve`` as a subprocess: start, find the port, stop, reap."""

    def __init__(self, arguments: Sequence[str], log_path: str) -> None:
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        # Inherits this process's environment: run.py already put ``src`` on
        # PYTHONPATH and pinned the BLAS thread counts for the whole tree.
        self.process = subprocess.Popen(
            [sys.executable, *SERVE_COMMAND, *arguments],
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.host = ""
        self.port = 0

    def wait_for_banner(self, timeout: float) -> None:
        """Block until the daemon printed its ``http://host:port`` line."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, "r", encoding="utf-8") as handle:
                match = _BANNER.search(handle.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"daemon never announced its port; see {self.log_path}")

    async def wait_until_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, _ = await fetch(self.host, self.port, "/health")
            except OSError:
                status = 0
            if status == 200:
                return
            await asyncio.sleep(0.01)
        raise RuntimeError("daemon did not answer 200 on /health")

    def stop(self, timeout: float = 20.0) -> Optional[int]:
        """Shut the daemon down and reap it; returns its exit code."""
        try:
            if self.process.poll() is None and self.port:
                try:
                    asyncio.run(fetch(self.host, self.port, "/shutdown", method="POST"))
                except (OSError, asyncio.IncompleteReadError, ValueError):
                    pass
            try:
                return self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                return self.process.wait()
        finally:
            self._log.close()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the reaped daemon (call after :meth:`stop`): the
        largest waited-for child of this process, which has no other."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


async def _exchange(reader, writer, path: str, method: str) -> Tuple[int, Dict[str, object]]:
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: e2e\r\n\r\n".encode("ascii"))
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("daemon closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


async def fetch(host: str, port: int, path: str, method: str = "GET"):
    """One request on a connection of its own; ``(status, payload)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await _exchange(reader, writer, path, method)
    finally:
        writer.close()
        await writer.wait_closed()


async def run_closed_loop(
    host: str, port: int, requests: Sequence[Request], connections: int
) -> Tuple[List[Reply], float]:
    """Drain ``requests`` through ``connections`` keep-alive connections.

    Returns every reply with its client-side ``perf_counter`` interval and
    the seconds from first send to last reply.  A transport error is a
    reply with status 0; the connection is reopened and the loop goes on.
    """
    queue: Deque[Request] = deque(requests)
    replies: List[Reply] = []

    async def connection() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while queue:
                kind, path = queue.popleft()
                t0 = time.perf_counter()
                try:
                    status, payload = await _exchange(reader, writer, path, "GET")
                except (OSError, asyncio.IncompleteReadError, ValueError) as error:
                    status, payload = 0, {"error": repr(error)}
                    writer.close()
                    reader, writer = await asyncio.open_connection(host, port)
                replies.append((kind, path, status, payload, t0, time.perf_counter()))
        finally:
            writer.close()
            await writer.wait_closed()

    started = time.perf_counter()
    await asyncio.gather(*(connection() for _ in range(connections)))
    return replies, time.perf_counter() - started


async def run_burst(host: str, port: int, paths: Sequence[str]) -> List[int]:
    """Fire every path at once, one connection each; the reply statuses."""

    async def one(path: str) -> int:
        try:
            status, _ = await fetch(host, port, path)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            status = 0
        return status

    return list(await asyncio.gather(*(one(path) for path in paths)))

