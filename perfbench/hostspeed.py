"""Host-speed probe: rescale wall times to a reference speed of the host.

The benchmark was defined on a shared 2-core host where the same pass of
work takes anything from 1x to 2x its fastest time.  The slow spells last
seconds, the kernel reports no steal time, and CPU time rises with wall
time: the process keeps its core, but the core runs it slower.  Medians
over a 20-second run do not average such spells out, so a wall time
measured in one run says more about the neighbours than about the program.

:class:`SpeedProbe` runs a fixed pure-Python task (:func:`probe_task`,
dict inserts and lookups like the BDD kernel's cache traffic) every
``INTERVAL_S`` seconds from a ``SIGALRM`` handler, while the measured work
runs.  :meth:`SpeedProbe.scaled` divides a measured interval by the mean
slowdown of the probes that ran inside it, relative to
``REFERENCE_PROBE_S``: it is the wall time the interval would have taken
with the probe running at its reference time.

The probe runs in the measured process and interrupts its work: while it
runs, the program runs nowhere, so the program's CPU use cannot slow it.
It shares no code with the program, only the caches and the allocator; a
slowdown injected into the kernel, of either CPU or memory traffic, moved
rescaled pass times at least as much as raw ones (``perfbench/README.md``).
Where the program runs in other processes beside the probe (the daemon),
a tick runs the probe only while the program is idle (``when``): no
request in flight, none about to be sent, and the last answer some
milliseconds old.  There each probe also times a round trip through
helper processes (``echo_chain.EchoChain``): the daemon's request
latencies are mostly process hops and system calls, which a busy host
slows far more than it slows the pure-Python probe.  A fresh set-up
process calls :func:`median_probe` once before it imports anything of
the program.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Callable, List, Optional, Tuple

from echo_chain import EchoChain

#: Probe period while sampling (seconds).
INTERVAL_S = 0.05
#: Mean probe time on an uncontended core of the host the benchmark was
#: defined on (2-core x86-64 VM at 2.1 GHz, CPython 3.11), with the probe
#: interleaved with kernel work as it is here.
REFERENCE_PROBE_S = 0.00075
#: Median time of one ``EchoChain.round_trip`` in the quietest daemon runs
#: on the same host (the chain shares the daemon's idle moments).
REFERENCE_CHAIN_S = 0.00115
#: Probes needed around an interval; a shorter interval borrows probes
#: from before and after it.
MIN_PROBES = 3


def probe_task() -> int:
    table: dict = {}
    mixed = 0
    for index in range(3000):
        key = (index * 2654435761) & 0xFFFFF
        table[key] = table.get(key, 0) + index
        mixed ^= key
    return mixed


def median_probe(runs: int) -> float:
    """Median time of ``runs`` back-to-back probe runs (seconds)."""
    durations = []
    for _ in range(runs):
        started = time.perf_counter()
        probe_task()
        durations.append(time.perf_counter() - started)
    return statistics.median(durations)


class SpeedProbe:
    """Samples the probe on a timer while active (a context manager).

    With ``when``, a timer tick runs the probe only if ``when()`` is true.
    With ``chain``, each probe also times one round trip through it.
    """

    def __init__(self, when: Optional[Callable[[], bool]] = None,
                 chain: Optional[EchoChain] = None) -> None:
        #: ``(start, duration)`` of every probe run, perf_counter seconds.
        self.samples: List[Tuple[float, float]] = []
        #: ``(start, duration)`` of every round trip through ``chain``.
        self.chain_samples: List[Tuple[float, float]] = []
        self._previous = None
        self._when = when
        self._chain = chain

    def _sample(self, signum=None, frame=None) -> None:
        if self._when is not None and not self._when():
            return
        # A cyclic collection set off by the probe's one allocation would
        # cost time in proportion to the program's heap, so none may run.
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            probe_task()
            self.samples.append((started, time.perf_counter() - started))
            if self._chain is not None:
                started = time.perf_counter()
                self._chain.round_trip()
                self.chain_samples.append((started, time.perf_counter() - started))
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time around ``[start, end]`` over the reference time."""
        margin = 0.0
        while True:
            inside = [duration for at, duration in self.samples
                      if start - margin <= at <= end + margin]
            if len(inside) >= MIN_PROBES or margin > 2.0 or len(inside) == len(self.samples):
                break
            margin += INTERVAL_S
        if not inside:
            return 1.0
        return statistics.fmean(inside) / REFERENCE_PROBE_S

    def median_slowdown(self) -> float:
        """Median probe time of every sample over the reference time."""
        if not self.samples:
            return 1.0
        return statistics.median(d for _, d in self.samples) / REFERENCE_PROBE_S

    def median_chain_slowdown(self) -> float:
        """Median round trip through the chain over ``REFERENCE_CHAIN_S``."""
        if not self.chain_samples:
            return 1.0
        return statistics.median(d for _, d in self.chain_samples) / REFERENCE_CHAIN_S

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` rescaled to the reference host speed."""
        return (end - start) / self.slowdown(start, end)
