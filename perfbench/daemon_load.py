"""The analysis daemon as shipped, and an open-loop client for it.

:class:`ServerProcess` starts ``python -m repro.frontends.server`` over TCP
with two worker processes and stops it with SIGTERM (graceful drain),
waiting for the server and every worker it forked.  :func:`drive` sweeps
the corpus in closed loop, then sends a request stream over one
connection on a fixed schedule, whether or not earlier requests were
answered, and times each request from the moment it was due.  While the
daemon is idle during the stream, it times round trips through an
``EchoChain``, from which every daemon time is rescaled to a reference
host speed.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from echo_chain import EchoChain
from hostspeed import SpeedProbe

#: Pool workers of the served daemon.
WORKERS = 2
#: Live-node budget of the session pool.  A 64-program corpus pools about
#: 300k live nodes when nothing is evicted, so the least-recently-used tail
#: is evicted and later re-solved cold: about 15% of the stream.  A warm
#: request sent while its worker solves waits for the solve.  With 22% cold
#: (150k nodes) only about half the stream was neither cold nor waiting, so
#: the median latency sat at the edge of that half and doubled whenever the
#: host slowed the cold solves; with 8% (250k) the 95th percentile rested
#: on too few cold solves to repeat from run to run.
MEMORY_BUDGET_NODES = 200_000
#: Timed closed-loop sweeps over the corpus before the open-loop stream.
SWEEPS = 3
#: A host-speed probe (the pure-Python probe, then one round trip through
#: an ``EchoChain``: about 2 ms) runs only this long after the last answer,
#: with nothing in flight (the server and workers finish up after
#: answering) ...
IDLE_AFTER_S = 0.005
#: ... and at least this long before the next request is due.
PROBE_ROOM_S = 0.005
#: The sender wakes this long before a request is due, then yields until it is.
SEND_EARLY_S = 0.0015
#: Seconds allowed for the server to drain, and for the tail to be answered.
STOP_TIMEOUT = 30.0
ANSWER_TIMEOUT = 60.0


def _children(pid: int) -> List[int]:
    """Direct child processes of ``pid`` (from /proc)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """One ``repro.frontends.server`` process serving TCP on an ephemeral port."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.frontends.server", "--port", "0",
             "--workers", str(WORKERS), "--memory-budget", str(MEMORY_BUDGET_NODES)],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = 0
        self.workers: List[int] = []

    def wait_ready(self) -> None:
        """Block until the server listens (its workers are spawned by then)."""
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self.workers = _children(self.process.pid)

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the server and its workers."""
        pids = [self.process.pid] + _children(self.process.pid)
        return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGTERM (drain), then wait for the server and its workers to end."""
        workers = set(self.workers) | set(_children(self.process.pid))
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT
        for pid in workers:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.01)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


@dataclass
class StreamResult:
    """Per-request timings (perf_counter seconds) and responses of one stream."""

    due: List[float]
    sent: List[float]
    answered: List[Optional[float]]
    responses: List[Optional[Dict[str, object]]]
    #: ``(name, response)`` of the closed-loop requests before the stream.
    warmup: List[Tuple[str, Optional[Dict[str, object]]]] = field(default_factory=list)
    #: Wall seconds of each timed closed-loop sweep over the corpus.
    sweep_walls: List[float] = field(default_factory=list)
    #: The ``metrics`` op's answer after the sweeps and after the stream.
    metrics_before: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Host-speed probes taken during the stream while the daemon was idle.
    probe: Optional[SpeedProbe] = None


async def _request(reader, writer, request: Dict[str, object]) -> Optional[Dict[str, object]]:
    """One closed-loop request (nothing else may be in flight)."""
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=ANSWER_TIMEOUT)
    return json.loads(line) if line else None


async def _drive(port: int, sources: Dict[str, str], stream: List[str], rate: float,
                 target: str, chain: EchoChain) -> StreamResult:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
    # Closed-loop sweeps over the corpus in a fixed order.  The first is
    # the warm-up: each program's first touch, so that the open-loop stream
    # sees the pool in its steady state (cold solves then come from
    # evictions).  The pool cannot hold the whole corpus and evicts the least
    # recently used program first, so in a cyclic order each program has
    # been evicted before its turn comes again: the
    # later sweeps, which are timed, solve every program cold.
    warmup = []
    sweep_walls = []
    for sweep in range(1 + SWEEPS):
        started = time.perf_counter()
        for index, name in enumerate(sources):
            response = await _request(reader, writer, {
                "op": "query", "id": f"sweep-{sweep}-{index}", "name": name,
                "program": sources[name], "target": target})
            warmup.append((name, response))
        if sweep:
            sweep_walls.append(time.perf_counter() - started)
    metrics_before = await _request(reader, writer, {"op": "metrics", "id": "metrics"}) or {}
    count = len(stream)
    start = time.perf_counter() + 0.05
    due = [start + index / rate for index in range(count)]
    sent = [0.0] * count
    answered: List[Optional[float]] = [None] * count
    responses: List[Optional[Dict[str, object]]] = [None] * count
    metrics_reply: "asyncio.Future[Dict[str, object]]" = asyncio.get_running_loop().create_future()
    # Index of the next request to send, requests in flight, last answer time.
    progress = {"next": 0, "in_flight": 0, "answered_at": 0.0}

    def idle() -> bool:
        """Whether the server and its workers have had nothing to do for a while."""
        now = time.perf_counter()
        upcoming = progress["next"]
        return (progress["in_flight"] == 0
                and now - progress["answered_at"] >= IDLE_AFTER_S
                and (upcoming >= count or due[upcoming] - now >= PROBE_ROOM_S))

    async def send() -> None:
        for index, name in enumerate(stream):
            # The event loop's timers wake up to a millisecond late, which
            # would add to every latency; so sleep until shortly before the
            # request is due and yield to the loop (answers keep arriving)
            # until it is.
            delay = due[index] - time.perf_counter()
            if delay > SEND_EARLY_S:
                await asyncio.sleep(delay - SEND_EARLY_S)
            while time.perf_counter() < due[index]:
                await asyncio.sleep(0)
            sent[index] = time.perf_counter()
            progress["in_flight"] += 1
            progress["next"] = index + 1
            request = {"op": "query", "id": index, "name": name,
                       "program": sources[name], "target": target}
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()

    async def receive() -> None:
        pending = count
        while pending or not metrics_reply.done():
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            now = time.perf_counter()
            response = json.loads(line)
            if response.get("op") == "metrics":
                metrics_reply.set_result(response)
                continue
            index = response["id"]
            answered[index] = now
            responses[index] = response
            progress["in_flight"] -= 1
            progress["answered_at"] = now
            pending -= 1
            if not pending:
                writer.write(json.dumps({"op": "metrics", "id": "metrics"}).encode() + b"\n")
                await writer.drain()

    # Requests still unanswered when the server closes the connection or
    # the answer timeout expires are left as None: the caller counts them
    # as failed.
    receiver = asyncio.ensure_future(receive())
    probe = SpeedProbe(when=idle, chain=chain)
    try:
        with probe:
            await send()
            await asyncio.wait_for(asyncio.shield(receiver), timeout=ANSWER_TIMEOUT)
    except (asyncio.TimeoutError, ConnectionError):
        pass
    finally:
        if not receiver.done():
            receiver.cancel()
        try:
            await receiver
        except (asyncio.CancelledError, ConnectionError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    metrics = metrics_reply.result() if metrics_reply.done() else {}
    return StreamResult(due, sent, answered, responses, warmup, sweep_walls,
                        metrics_before, metrics, probe)


def drive(port: int, corpus: List[Tuple[str, str]], stream: List[str], rate: float,
          target: str) -> StreamResult:
    """Warm up, then send ``stream`` at ``rate`` requests/s; collect the answers."""
    with EchoChain() as chain:
        return asyncio.run(_drive(port, dict(corpus), stream, rate, target, chain))
