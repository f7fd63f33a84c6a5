"""Deterministic discrete-event network: clock, links, taps, delivery.

The clock is an integer count of simulated microseconds. Events run in
(timestamp, scheduling order) order, so a given (topology, seed,
scripted inputs) triple always replays to the same schedule, the same
loss draws, and byte-identical tap streams. The single random source is
Python's Mersenne Twister (`random.Random`), seeded once per simulation.

The event set is a calendar keyed by timestamp: a heap of the distinct
times that have events due, and for each such time one list of its
events in the order they were scheduled. Timestamps coincide often
(round rates and latencies), so most events cost a list append and no
heap entry, and the heap orders plain ints. `run_until` takes a time's
whole list before it runs it: an event scheduled for that same time
while the list runs opens a new list, which runs next. An event that calls
`halt()` ends the running `run_until` once its microsecond's lists have run.

A payload is wire bytes or a `codec.Message`. Elements send the Message
value itself, built by `codec.build_message` and so standing for its own
encoding: it travels as itself, and neither end pays for an encode and a
decode that would give it back unchanged, unless a tap records the
traversal. Then it is encoded once, and those bytes are both the capture
record and what the receiver gets.

A timer is the callable it fires: `schedule_timer(at, fire)` queues it,
and when its time comes the loop calls `fire(at)`. A timer that needs data
binds it first (`functools.partial`, or a bound method), so the loop makes
one plain call per timer. Node handlers see only deliveries, one
`on_message(src, payload, now)` call each.

Links are point-to-point and bidirectional. Each direction of a link is
one `Route`, built once with the simulation: the link's one `Link` record
(which counts what crosses it and holds its taps), the direction's `src`
and `dst`, and the handler registered for `dst`. A sender takes its route
once (`Simulation.route`) and sends on it (`send(route, payload)`), so a
send looks nothing up. The calendar's entries are `(route, payload)` for
a delivery and `(None, fire)` for a timer, and a delivery calls
`route.handler.on_message(route.src, payload, now)`; `due_events` lists
them in a public shape that names the link and both ends.
`Simulation.stats` sums the link counters on demand. A link with
protected=True models an encrypted or trusted transport: traffic still
flows, but taps on it capture nothing. A tap on an unprotected link sees
every traversal from the moment it is attached.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

from .codec import Message, encode_message

US_PER_MS = 1_000
US_PER_S = 1_000_000


class NoSuchLinkError(ValueError):
    """route/attach_tap named a node pair with no link between them."""


@dataclass(frozen=True)
class NodeId:
    id: int
    label: str


@dataclass(frozen=True)
class CaptureRecord:
    at: int  # microseconds
    src: NodeId
    dst: NodeId
    data: bytes


@dataclass
class Tap:
    """Passive capture stream attached to one link."""

    records: list[CaptureRecord] = field(default_factory=list)


@dataclass(slots=True, eq=False)
class Link:
    """The one runtime record of a link: its ends, its parameters, what crossed it, its taps."""

    a: NodeId
    b: NodeId
    latency_us: int
    loss_probability: float
    protected: bool
    attempted: int = 0
    delivered: int = 0
    lost: int = 0
    taps: list[Tap] = field(default_factory=list)

    @property
    def key(self) -> tuple[int, int]:
        return (self.a.id, self.b.id) if self.a.id <= self.b.id else (self.b.id, self.a.id)


@dataclass(slots=True, eq=False)
class Route:
    """One direction of a link, built once with its simulation: a send on it
    goes from `src` to `dst` over `link`, and is delivered to `handler`
    (the object `register_handler` bound to `dst`; None drops it)."""

    link: Link
    src: NodeId
    dst: NodeId
    handler: object = None


@dataclass(frozen=True)
class SimStats:
    """A snapshot: the events run so far, and the link counters summed."""

    events_processed: int
    delivered: int
    lost: int
    sends: int


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    latency_ms: float = 10.0
    loss_probability: float = 0.0
    protected: bool = False

    def __post_init__(self) -> None:
        if not self.latency_ms >= 0:
            raise ValueError("latency must be >= 0")
        if not math.isfinite(self.latency_ms * US_PER_MS):
            raise ValueError("latency is too large")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")


@dataclass(frozen=True)
class TopologySpec:
    nodes: tuple[str, ...] = ()  # labels; a node's id is its index
    links: tuple[LinkSpec, ...] = ()


class Simulation:
    """Single-threaded event loop over a fixed topology."""

    def __init__(self, nodes: list[NodeId], links: list[Link], seed: int):
        self.nodes = list(nodes)
        self.links: dict[tuple[int, int], Link] = {l.key: l for l in links}
        self.rng = random.Random(seed)
        self.clock: int = 0
        self.events_processed = 0
        # _due[at] holds the events due at `at`, in scheduling order:
        #   delivery: (Route, payload)
        #   timer:    (None, fire)
        # and _times is a heap of the keys of _due, each once.
        self._times: list[int] = []
        self._due: dict[int, list[tuple]] = {}
        self._running = False
        self._until = 0  # the running run_until's last time: its t, or the halted time
        # (src.id, dst.id) -> the route from src to dst, both directions of each link
        self._routes: dict[tuple[int, int], Route] = {}
        for link in links:
            self._routes[(link.a.id, link.b.id)] = Route(link, link.a, link.b)
            self._routes[(link.b.id, link.a.id)] = Route(link, link.b, link.a)

    # -- wiring ------------------------------------------------------------

    def register_handler(self, node: NodeId, handler: object) -> None:
        """handler must expose on_message(src, payload, now).

        It is bound into every route that ends at `node`, those already
        taken by a sender too; the loop reads `handler.on_message` per
        delivery, so an `on_message` set on the instance later is the one
        called. `payload` is what the sender passed to `send`: bytes, or a
        Message when no tap recorded the traversal. A handler that needs
        the simulation holds it itself. Timers do not go through the
        handler: each calls the function it was scheduled with.
        """
        for route in self._routes.values():
            if route.dst.id == node.id:
                route.handler = handler

    def route(self, src: NodeId, dst: NodeId) -> Route:
        """The route from `src` to `dst`, to send on; NoSuchLinkError if they are not linked."""
        route = self._routes.get((src.id, dst.id))
        if route is None:
            raise NoSuchLinkError(f"no link between {src.label!r} and {dst.label!r}")
        return route

    def link_between(self, a: NodeId, b: NodeId) -> Optional[Link]:
        route = self._routes.get((a.id, b.id))
        return None if route is None else route.link

    @property
    def stats(self) -> SimStats:
        links = self.links.values()
        return SimStats(
            events_processed=self.events_processed,
            delivered=sum(l.delivered for l in links),
            lost=sum(l.lost for l in links),
            sends=sum(l.attempted for l in links),
        )

    # -- scheduling ----------------------------------------------------------

    def schedule_timer(self, at: int, fire: Callable[[int], object]) -> None:
        """Call `fire(at)` once the clock reaches `at`."""
        if at < self.clock:
            raise ValueError(f"cannot schedule into the past ({at} < {self.clock})")
        bucket = self._due.get(at)
        if bucket is None:
            self._due[at] = [(None, fire)]
            heapq.heappush(self._times, at)
        else:
            bucket.append((None, fire))

    def send(self, route: Route, payload: Union[bytes, Message]) -> None:
        """Offer a payload to the route's link; taps see every traversal, loss is drawn after.

        A Message is encoded only when a capture record needs its bytes (an
        unprotected link with a tap); it then travels as those bytes.
        """
        link = route.link
        link.attempted += 1
        if link.taps and not link.protected:
            if isinstance(payload, Message):
                payload = encode_message(payload)
            record = CaptureRecord(at=self.clock, src=route.src, dst=route.dst, data=bytes(payload))
            for tap in link.taps:
                tap.records.append(record)
        if link.loss_probability > 0.0 and self.rng.random() < link.loss_probability:
            link.lost += 1
            return
        at = self.clock + link.latency_us
        bucket = self._due.get(at)
        if bucket is None:
            self._due[at] = [(route, payload)]
            heapq.heappush(self._times, at)
        else:
            bucket.append((route, payload))

    def attach_tap(self, a: NodeId, b: NodeId) -> Tap:
        tap = Tap()
        self.route(a, b).link.taps.append(tap)
        return tap

    # -- execution -----------------------------------------------------------

    # The reads below are refused from inside an event, as run_until is:
    # the rest of the running time's list is out of the queue then.
    def _check_idle(self) -> None:
        if self._running:
            raise ValueError("the event queue cannot be read from inside an event")

    def next_event_at(self) -> Optional[int]:
        self._check_idle()
        return self._times[0] if self._times else None

    def due_events(self) -> Iterator[tuple]:
        """Every event still due, in the order it will run: (at, link, dst,
        src, payload) for a delivery, (at, None, fire, None, None) for a timer."""
        self._check_idle()
        return (
            (at, None, item, None, None)
            if route is None
            else (at, route.link, route.dst, route.src, item)
            for at in sorted(self._times)
            for route, item in self._due[at]
        )

    def queued_deliveries(self, link: Optional[Link] = None) -> int:
        """Deliveries still queued: on `link`, or on every link."""
        return sum(
            1 for e in self.due_events() if e[1] is not None and (link is None or e[1] is link)
        )

    def events_scheduled(self) -> int:
        """Deliveries and timers scheduled so far: each has run or is still due."""
        return self.events_processed + sum(1 for _ in self.due_events())

    # `events_processed` takes this call's events when it returns, so a
    # handler reads the count as of the call. An event that raises is
    # counted, and the exception propagates with the clock at that event;
    # the events due after it stay due, in their order.
    # A call from inside an event is refused: it would run later times
    # before the rest of the current one.
    def run_until(self, t: int) -> None:
        """Process every event with timestamp <= t; the clock ends exactly at t,
        or at the microsecond an event called `halt` in."""
        if self._running:
            raise ValueError("run_until cannot be called from inside an event")
        if t < self.clock:
            raise ValueError(f"cannot run backwards ({t} < {self.clock})")
        times, due, pop = self._times, self._due, heapq.heappop
        processed = 0  # added to events_processed once, when the loop ends
        self._until = t
        self._running = True
        try:
            while times and times[0] <= self._until:
                at = pop(times)
                bucket = due.pop(at)
                self.clock = at
                processed += len(bucket)
                events = iter(bucket)
                try:
                    for route, item in events:
                        if route is None:  # a timer: item is the function it fires
                            item(at)
                            continue
                        route.link.delivered += 1
                        handler = route.handler
                        if handler is not None:
                            handler.on_message(route.src, item, at)
                except BaseException:
                    # Put the rest of the bucket back, ahead of any events
                    # scheduled for `at` while it ran.
                    rest = list(events)
                    processed -= len(rest)
                    if rest:
                        later = due.get(at)
                        if later is None:
                            heapq.heappush(times, at)
                        else:
                            rest += later
                        due[at] = rest
                    raise
        finally:
            self.events_processed += processed
            self._running = False
        self.clock = self._until

    def halt(self) -> None:
        """End the running `run_until` once the current microsecond's events
        have run, those scheduled into it meanwhile too; the clock stays there.

        Called from inside an event; ValueError anywhere else.
        """
        if not self._running:
            raise ValueError("halt can only be called from inside an event")
        self._until = self.clock


def build_topology(spec: TopologySpec, seed: int = 0) -> Simulation:
    """Materialize a simulation at clock 0 from a declarative description.

    The spec is trusted: its labels are distinct and its links join two
    different declared nodes, at most once per pair, as the config parser
    checks (with the line of each fault) before any spec reaches here.
    """
    nodes = [NodeId(id=i, label=label) for i, label in enumerate(spec.nodes)]
    by_label = {n.label: n for n in nodes}
    links = [
        Link(
            a=by_label[ls.a],
            b=by_label[ls.b],
            latency_us=int(round(ls.latency_ms * US_PER_MS)),
            loss_probability=ls.loss_probability,
            protected=ls.protected,
        )
        for ls in spec.links
    ]
    return Simulation(nodes=nodes, links=links, seed=seed)
