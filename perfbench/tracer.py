"""Outside-in layer tracing: wrap diamlab's public functions from here.

Nothing in `src/` knows about this module. A `Tracer` replaces each
named function or method with a wrapper that keeps a span stack, and
puts the originals back on `uninstall`. Per wrapped name it records

- `calls` and extra counters (deterministic: they depend only on the
  simulated run, never on the host clock);
- `self_s` (span time minus the time of wrapped spans inside it,
  their wrappers' bookkeeping included) and `incl_s` (whole span time);
- optionally each call's inclusive duration, for percentiles.

Module-level functions are replaced in every loaded `diamlab` module
that bound them by `from .x import name`, so calls from any layer are
seen; methods are replaced on the class that defines them.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

@dataclass(frozen=True)
class Target:
    """One wrapped function, named `<module>.<qualname>` inside diamlab."""

    name: str
    counts: tuple[str, ...] = ()  # extra counters, reported even when zero
    means: tuple[str, ...] = ()  # counters summed per call, reported per call
    # observe(counts, args, result, before) updates `counts` after a call
    # returns; `before(args)` is evaluated just before the call.
    observe: Optional[Callable] = None
    before: Optional[Callable] = None
    inclusive: bool = False  # report incl_s as well
    percentiles: bool = False  # report p50_us and p99_us of incl per call


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self, targets: list[Target], clock: Callable[[], float] = time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.top_level_s = 0.0  # time covered by spans with no wrapped parent
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._restore: list[tuple[object, str, object]] = []
        # targets the program no longer defines; they report zeros
        self.missing: list[str] = []

    def reset(self) -> None:
        self.stats = {
            t.name: SpanStats(counts={c: 0 for c in t.counts}) for t in self.targets
        }
        self.top_level_s = 0.0
        self._stack.clear()

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        self.reset()
        self.missing = []
        for target in self.targets:
            module_name, _, qualname = target.name.partition(".")
            owner = sys.modules.get(f"diamlab.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(target.name)
            elif path:
                self._wrap_method(owner, attr, target)
            else:
                self._wrap_function(owner, attr, target)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap_function(self, module, attr: str, target: Target) -> None:
        original = vars(module)[attr]
        wrapper = self._wrapper(original, target)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "diamlab" or mod_name.startswith("diamlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _wrap_method(self, cls, attr: str, target: Target) -> None:
        descriptor = cls.__dict__[attr]
        self._restore.append((cls, attr, descriptor))
        if isinstance(descriptor, classmethod):
            setattr(cls, attr, classmethod(self._wrapper(descriptor.__func__, target)))
        else:
            setattr(cls, attr, self._wrapper(descriptor, target))

    def _wrapper(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        stack = self._stack
        name = target.name
        observe, before = target.observe, target.before
        keep = target.percentiles
        clock = self.clock

        def traced(*args, **kwargs):
            entered = clock()
            pre = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                duration = clock() - start
                stack.pop()
                stats = tracer.stats[name]
                stats.calls += 1
                stats.incl_s += duration
                stats.self_s += duration - frame[0]
                if keep:
                    stats.durations.append(duration)
                if returned and observe is not None:
                    observe(stats.counts, args, result, pre)
                if stack:
                    # the parent's self time excludes this wrapper's bookkeeping too
                    stack[-1][0] += clock() - entered
                else:
                    tracer.top_level_s += duration
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reporting ------------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """The deterministic part: calls and counters per wrapped name."""
        out: dict[str, float] = {}
        for target in self.targets:
            stats = self.stats[target.name]
            out[f"{target.name}.calls"] = stats.calls
            for key, value in stats.counts.items():
                if key in target.means:
                    value = value / stats.calls if stats.calls else 0.0
                out[f"{target.name}.{key}"] = value
        return out

    def times(self) -> dict[str, float]:
        """The host-time part: self time, inclusive time, percentiles."""
        out: dict[str, float] = {}
        for target in self.targets:
            stats = self.stats[target.name]
            out[f"{target.name}.self_s"] = stats.self_s
            if target.inclusive:
                out[f"{target.name}.incl_s"] = stats.incl_s
            if target.percentiles:
                out[f"{target.name}.p50_us"] = _percentile_us(stats.durations, 0.50)
                out[f"{target.name}.p99_us"] = _percentile_us(stats.durations, 0.99)
        return out


def _percentile_us(durations: list[float], q: float) -> float:
    """Nearest-rank percentile in microseconds; 0 when there were no calls."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, math.ceil(len(ordered) * q))
    return ordered[rank - 1] * 1e6
