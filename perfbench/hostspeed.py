"""Host time rescaled to one fixed reference speed.

The small shared VMs this benchmark runs on change speed by up to 2x
within seconds (each vCPU flips between a fast and a slow state), so
plain host seconds of the same code spread past any useful bound. A
`SpeedClock` keeps measuring how fast the host is right now and counts
time at a fixed reference speed instead:

- every `PERIOD_S` a SIGALRM handler runs two fixed probes that use
  nothing of diamlab, so a change to diamlab cannot move them:
  `interpreter_probe` (heap, dict, small objects, struct packing) and
  `MemoryProbe` (a pointer chase through a table larger than L2, since
  diamlab's run time follows the host's speed less than a pure
  interpreter loop does, the more so the larger its working set);
- the host's slowness is the mean of the two probe times, each divided
  by its reference time, and the host time since the previous tick is
  divided by the median slowness of the last three ticks (one probe the
  OS interrupted does not count alone);
- the probes' own time is left out of the clock.

A reading of `now()` is thus in "seconds at the speed where the probes
take their reference times". On a host of steady speed it is plain host
time times a constant, so a program change that saves host time saves
the same share of it.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import struct
import time
from array import array
from collections import deque

PERIOD_S = 0.1
INTERPRETER_STEPS = 2000
MEMORY_STEPS = 20000
MEMORY_SLOTS = 1 << 19  # 8-byte slots: 4 MiB, twice the L2 of a core
# Each probe's time on the 2-core x86-64 VM the benchmark was defined on,
# in the faster of its two states, between diamlab repetitions.
REF_INTERPRETER_S = 0.0026
REF_MEMORY_S = 0.0026


class _Item:
    __slots__ = ("key", "refs")

    def __init__(self, key: int):
        self.key = key
        self.refs = [key]


def interpreter_probe(steps: int = INTERPRETER_STEPS) -> float:
    """Host time of a fixed interpreter-bound loop."""
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    live: dict[int, _Item] = {}
    acc = 0
    for i in range(steps):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        live[i] = _Item(i)
        if len(heap) > 64:
            _, j = heapq.heappop(heap)
            acc += live.pop(j).key
        acc ^= struct.pack(">IHB", i, i & 0xFFFF, i & 0xFF)[1]
    return time.perf_counter() - start


class MemoryProbe:
    """Host time of a chase through one cycle over every slot of a table.

    Slot i holds (i * 0x5DEECE65 + 1) mod slots: an LCG of full period
    (odd increment, multiplier 1 mod 4), so the chase visits all slots
    in an order no prefetcher follows.
    """

    def __init__(self, slots: int = MEMORY_SLOTS):
        mask = slots - 1
        self.table = array("q", ((i * 0x5DEECE65 + 1) & mask for i in range(slots)))
        self.at = 0

    def __call__(self, steps: int = MEMORY_STEPS) -> float:
        table = self.table
        at = self.at
        start = time.perf_counter()
        for _ in range(steps):
            at = table[at]
        elapsed = time.perf_counter() - start
        self.at = at  # go on where this chase stopped: no slot stays hot
        return elapsed


class SpeedClock:
    """A clock in reference-speed seconds; see the module docstring."""

    def __init__(self) -> None:
        self.memory_probe = MemoryProbe()
        self.slowness: list[float] = []  # per tick, for reporting
        self._recent: deque[float] = deque(maxlen=3)
        self._acc = 0.0
        self._scale = 1.0
        self._since = 0.0
        self._ticks = 0  # probes taken since start; lets now() see a tick
        self._in_tick = False
        self._previous_handler = None

    def _measure(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        interp = interpreter_probe()
        memory = self.memory_probe()
        if enabled:
            gc.enable()
        slowness = (interp / REF_INTERPRETER_S + memory / REF_MEMORY_S) / 2
        self.slowness.append(slowness)
        self._recent.append(slowness)
        self._scale = 1 / statistics.median(self._recent)

    def _tick(self, _signum, _frame) -> None:
        if self._in_tick:  # a probe that overran the period
            return
        self._in_tick = True
        self._acc += (time.perf_counter() - self._since) * self._scale
        self._measure()
        self._since = time.perf_counter()
        self._ticks += 1
        self._in_tick = False

    def start(self) -> None:
        for _ in range(3):
            self._measure()
        self._since = time.perf_counter()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def now(self) -> float:
        while True:
            ticks = self._ticks
            value = self._acc + (time.perf_counter() - self._since) * self._scale
            if ticks == self._ticks:  # no probe ran while this was read
                return value

    def speed_factors(self) -> list[float]:
        """Per tick: host speed relative to the reference (1.0 = as fast)."""
        return [1 / s for s in self.slowness]
