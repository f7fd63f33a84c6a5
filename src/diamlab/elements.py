"""Simulated core elements: target server, HSS, MME, PCRF, attack box.

Every element is one simulation node handler whose one method,
`Element.on_message`, runs the same pipeline: decode strictly and validate
requests against the dictionary. Then base-protocol messages (CER/CEA,
DWR/DWA, DPR/DPA) and timers feed the peer state machine, and application
messages take the direct path, built into no event or action, where
`on_message` states the rule of `peer.deliverable` inline: a delivered
request goes to the capacity model before the element-specific command
handler runs, and anything else counts an FSM drop. An answer of either
kind that matches a pending entry pops it and goes to the entry's
`on_answer`, a base-protocol one before the FSM.
Elements send on the route each `PeerLink` holds, and they send the
Message value itself (see `simnet`): every Message they send comes from
`build_message`, `build_answer` or `replace_ids`, which run the
encoder's checks, so it stands for its own encoding and the receiver
skips the decode. Bytes (fuzz cases, raw requests, tapped
traffic) always take the decoder.

The capacity model is a token-rate server (service_rate tokens per
second, burst of one) in front of a bounded FIFO queue. The bucket is one
integer, the theoretical arrival time of the next token (the virtual-
scheduling form of the GCRA, ITU-T I.371), so an admission and a drain
each test one compare, and a drain serves one request. A 1 Hz sampler
watches the queue: once it has been non-empty at every sample for
failure_threshold_s consecutive seconds the element fails and answers
nothing for the rest of the run. That makes overload and failure directly
observable and checkable against a fluid model, and exactly against the
discrete reference model in the tests. A command handler that raises
fails its element the same way, through `Element.fail`, and keeps the
exception as the element's `crash`, and the request it raised on as
`crashed_on`, before it propagates.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import is_not
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from . import dictionary as dct
from .codec import (
    U32_MAX,
    UNSUPPORTED_MANDATORY_AVP,
    Avp,
    Message,
    ParseError,
    build_answer,
    build_message,
    decode_message,
    first_avp,
    replace_ids,
    validate_message,
)
from .peer import (
    CONN_ACK,
    DROP_MESSAGE,
    OPEN,
    RCV_CEA,
    RCV_CER,
    RCV_DPA,
    RCV_DPR,
    RCV_DWA,
    RCV_DWR,
    SEND_ACTIONS,
    START,
    WATCHDOG_TIMER,
    AnswerCallback,
    PeerAction,
    PeerConfig,
    PeerEvent,
    PeerState,
    PendingEntry,
    handle_event,
    register_request,
    result_code_avp,
)
from .simnet import NodeId, Route, Simulation, US_PER_S, build_topology

if TYPE_CHECKING:
    from .config import CampaignConfig

TPS_PER_MILLION_SUBSCRIBERS = 235_000
DEFAULT_QOS_CLASS = 9
SAMPLE_INTERVAL_US = US_PER_S  # overload sampling runs at 1 Hz
ECHO_PROBES = 3  # background echoes in a lab with no core to attach against


def required_tps(subscribers: int) -> Fraction:
    """Signaling transactions per second needed for a subscriber base.

    Linear model: 235,000 TPS per million subscribers. Returns an exact
    rational so that required_tps(a + b) == required_tps(a) + required_tps(b)
    holds without floating-point slack.
    """
    if subscribers < 0:
        raise ValueError("subscriber count must be >= 0")
    return Fraction(TPS_PER_MILLION_SUBSCRIBERS * subscribers, 1_000_000)


class ElementKind(Enum):
    TARGET_SERVER = "TargetServer"
    HSS = "HSS"
    MME = "MME"
    PCRF = "PCRF"
    ATTACK_BOX = "AttackBox"


# Read per node and per link while a lab is built and brought up, so bound
# once as module names: see the note above peer.Phase.
TARGET_SERVER, HSS, MME, PCRF, ATTACK_BOX = ElementKind


def first_of_kind(kinds: Mapping[str, ElementKind], kind: ElementKind) -> Optional[str]:
    """The label of the node that plays `kind`'s role in a lab: the first node
    of that kind in node order (`kinds` maps labels to kinds in that order)."""
    return next((label for label, k in kinds.items() if k is kind), None)


# Lower value opens the peer connection on a link. Keyed by each kind's
# `_value_`, the member's plain attribute, as is every table read per node or
# link: a dict keyed by the member calls the Python-level Enum.__hash__, and on
# CPython 3.11 `.value` is a Python-level property.
_INITIATOR_PRIORITY = {
    ATTACK_BOX.value: 0,
    MME.value: 1,
    TARGET_SERVER.value: 2,
    HSS.value: 3,
    PCRF.value: 4,
}


@dataclass(frozen=True)
class ElementCapacity:
    service_rate: float = 1000.0  # transactions per second
    queue_capacity: int = 100
    failure_threshold_s: float = 3600.0

    def __post_init__(self) -> None:
        if not self.service_rate > 0:
            raise ValueError("service_rate must be > 0")
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")
        if self.failure_threshold_s <= 0:
            raise ValueError("failure_threshold_s must be > 0")
        # The drain timer and the flood's horizon turn these into whole microseconds.
        if not math.isfinite(US_PER_S / self.service_rate):
            raise ValueError("service_rate is too small: one request takes too long to serve")
        try:
            drain_us = self.drain_us
        except OverflowError:  # a queue_capacity too large for a float
            drain_us = math.inf
        if not math.isfinite(drain_us):
            raise ValueError(
                "queue_capacity / service_rate is too large: a full queue takes too long to drain"
            )

    @property
    def drain_us(self) -> float:
        """Microseconds to serve a full queue at the service rate."""
        return self.queue_capacity / self.service_rate * US_PER_S


@dataclass
class SubscriberRecord:
    subscriber_id: str
    location: str
    profile: dict[str, str] = field(default_factory=dict)


@dataclass
class PolicyRule:
    rule_id: str
    subscriber_id: str
    qos_class: int = DEFAULT_QOS_CLASS


class Admission(Enum):
    ACCEPTED = "accepted"
    QUEUED = "queued"
    DROPPED = "dropped"


# Read per request, so bound once as module names: see the note above peer.Phase.
ACCEPTED = Admission.ACCEPTED
QUEUED = Admission.QUEUED
DROPPED = Admission.DROPPED


class ElementFailedError(RuntimeError):
    """Admission was asked of an element that already marked itself failed."""


@dataclass
class PeerLink:
    """One end of a peer connection: FSM state plus what changes per request.

    `route` is the simulation's route to the neighbor (`route.dst`), taken
    once by `Element.add_link`: everything this end sends, requests and
    answers alike, goes on it. `pending` maps the hop-by-hop id of each
    outstanding request to the pair `(sent_at, on_answer)`
    (`peer.register_request`); it is empty whenever the phase is not Open.
    `next_hop_by_hop` is the id the next request sent on this link
    carries, wrapping within 32 bits.
    """

    route: Route
    state: PeerState = field(default_factory=PeerState)
    pending: dict[int, PendingEntry] = field(default_factory=dict)
    next_hop_by_hop: int = 1


def _error_answer(req: Message, result_code: int) -> Message:
    return build_answer(req, [result_code_avp(result_code)], result_code >= 3000)


# Read per answer through module names: `result_code_avp` is an lru_cache
# wrapper, and neither a call of one nor a method read on a class
# (`int.from_bytes`) is specialized by CPython 3.11.
_SUCCESS_AVP = result_code_avp(dct.RESULT_SUCCESS)
_int_from_bytes = int.from_bytes


def result_code_of(msg: Message) -> Optional[int]:
    avp = first_avp(msg, dct.AVP_RESULT_CODE)
    if avp is None or len(avp.data) != 4:
        return None
    return _int_from_bytes(avp.data, "big")


# Base-protocol command code -> (request event, answer event); every other
# command is application traffic, which `Element.on_message` takes directly.
_BASE_EVENT_KINDS = {
    dct.CMD_CAPABILITIES_EXCHANGE: (RCV_CER, RCV_CEA),
    dct.CMD_DEVICE_WATCHDOG: (RCV_DWR, RCV_DWA),
    dct.CMD_DISCONNECT_PEER: (RCV_DPR, RCV_DPA),
}


class Element:
    """Base node behavior: codec front line, peer FSM, capacity model."""

    kind = TARGET_SERVER

    def __init__(
        self,
        node: NodeId,
        sim: Simulation,
        capacity: ElementCapacity,
        peer_config: PeerConfig,
    ):
        self.node = node
        self.sim = sim
        self.capacity = capacity
        self.peer_config = peer_config
        self.links: dict[int, PeerLink] = {}
        # Read per request and fixed for the element's life, so read once here.
        # CPython 3.11 specializes reading an instance's attributes only while
        # it has at most 29 of them: an MmeElement has 29, an AttackBoxElement
        # 26 and every other element 27 (a TargetServerElement once it has
        # answered an echo, its `_echo` memo), the token bucket's one integer
        # and the bound drain timer among them. The test
        # test_every_element_keeps_at_most_29_attributes checks this.
        self._queue_capacity = capacity.queue_capacity
        # The AVP tuple of the last request that validated clean (on_message).
        self._clean_avps: Optional[tuple[Avp, ...]] = None

        # Token-rate service state, in exact integer credit: a token is
        # `_token` credit and a microsecond earns `_rate` (their ratio is
        # service_rate per microsecond, exactly), so fractions of a token
        # never add up to a hair under a whole one. The bucket is one
        # integer, in the virtual-scheduling form of the GCRA (ITU-T I.371):
        # `_tat`, the theoretical arrival time of the next token in credit
        # units (microseconds times `_rate`). A token is there exactly when
        # `_rate * now >= _tat`, and taking it sets `_tat = _rate * now +
        # _token`; 0 is a full token (a burst of one) at time 0. The bucket
        # of credit and last accrual it replaces has X = `_rate * last -
        # credit`: its accrual is X = max(X, `_rate * now - _token`), its
        # take X += `_token`, and `_tat` = X + `_token`.
        self._rate, per_token = capacity.service_rate.as_integer_ratio()
        self._token = per_token * US_PER_S
        self._tat = 0
        self.queue: deque[tuple[PeerLink, Message]] = deque()  # (the link it came in on, request)
        # The drain timer, bound once: `self._drain` read per drain scheduled
        # would make a bound method each time, a read 3.11 does not specialize.
        self._drain_timer = self._drain

        # failure state: only `fail` writes `failed_at`, only `_serve` writes `crash`
        # and the request its handler raised on, `crashed_on`
        self.failed_at: Optional[int] = None
        self.crash: Optional[Exception] = None
        self.crashed_on: Optional[Message] = None
        self._overload_streak = 0

        # counters
        self.parse_drops = 0
        self.fsm_drops = 0
        self.offered = 0
        self.direct_served = 0
        self.drained_served = 0
        self.dropped_overflow = 0
        self.dropped_at_failure = 0
        self.dropped_failed_inbound = 0  # application messages a failed element drops
        self.dropped_failed_base = 0  # and base-protocol ones (CER, DWR, DPR and answers)
        self.stray_answers = 0

    # -- wiring --------------------------------------------------------------

    def add_link(self, neighbor: NodeId) -> None:
        self.links[neighbor.id] = PeerLink(self.sim.route(self.node, neighbor))

    def peer_link(self, neighbor: NodeId) -> PeerLink:
        return self.links[neighbor.id]

    def start_sampler(self) -> None:
        self.sim.schedule_timer(self.sim.clock + SAMPLE_INTERVAL_US, self._sample)

    # -- peer FSM driving ------------------------------------------------------

    def feed_event(self, peer: NodeId, event: PeerEvent, now: int) -> None:
        """Advance the link to `peer` by a base-protocol or timer `event`;
        `on_message` delivers application messages itself instead."""
        link = self.links[peer.id]
        prev_deadline = link.state.watchdog_deadline
        new_state, actions = handle_event(link.state, event, now, self.peer_config)
        link.state = new_state
        if new_state.phase is not OPEN and link.pending:
            link.pending.clear()
        for action in actions:
            self._execute(link, action, now)
        state = link.state
        if state.phase is OPEN and state.watchdog_deadline != prev_deadline:
            self.sim.schedule_timer(state.watchdog_deadline, partial(self._watchdog, peer))

    def _watchdog(self, peer: NodeId, now: int) -> None:
        if self.failed_at is None:  # per timer: see on_message
            self.feed_event(peer, PeerEvent(WATCHDOG_TIMER), now)

    def _execute(self, link: PeerLink, action: PeerAction, now: int) -> None:
        kind = action.kind
        if kind in SEND_ACTIONS:
            msg = action.message
            if msg.request:
                hbh = self._alloc_hop_by_hop(link)
                msg = replace_ids(msg, hbh, hbh)
            self.sim.send(link.route, msg)
        elif kind is DROP_MESSAGE:
            self.fsm_drops += 1
        # CloseLink: the transport is modeled as always up; nothing to tear down.

    # -- simnet handler protocol -----------------------------------------------

    def on_message(self, src: NodeId, payload: bytes | Message, now: int) -> None:
        """Deliver one inbound message. A failed element drops it, bytes take
        the strict decoder, and a request is validated, unless its AVP tuple
        is the one the last clean request carried. A base-protocol message
        then feeds the peer FSM. Application traffic is delivered here, with
        no event built, by `peer.deliverable`'s rule, stated inline (the
        test TestDirectDeliveryAgreesWithTheTable holds the two equal): a
        request goes to admission.
        Undelivered traffic counts an FSM drop, and the peer state never
        changes. An answer of either kind that matches a pending entry pops
        it and goes to its `on_answer`, a base-protocol one before the FSM."""
        # Per message, so the test reads the field: a property call costs ~10x as much.
        if self.failed_at is not None:
            if isinstance(payload, Message):
                code = payload.command_code
            else:  # wire bytes: the command code is header bytes 5 to 7
                code = int.from_bytes(payload[5:8], "big")
            if code in _BASE_EVENT_KINDS:
                self.dropped_failed_base += 1
            else:
                self.dropped_failed_inbound += 1
            return
        # A carried Message is its own strict decode; bytes take the decoder.
        if isinstance(payload, Message):
            msg = payload
        else:
            msg = decode_message(payload)
            if isinstance(msg, ParseError):
                self.parse_drops += 1
                return
        request = msg.request
        # Validation reads only the AVP tuple, and its result for a tuple
        # never changes: Avp and Message are frozen, and every builder passes
        # bytes data. The memo keeps its tuple alive, so no other tuple can
        # take its id; a tuple with a violation is never kept.
        if request and msg.avps is not self._clean_avps:
            violations = validate_message(msg, dct.BUILTIN_DICTIONARY)
            if violations:
                if any(v.kind is UNSUPPORTED_MANDATORY_AVP for v in violations):
                    code = dct.RESULT_UNSUPPORTED_MANDATORY_AVP
                else:
                    code = dct.RESULT_INVALID_AVP_LENGTH
                # Its own read of the link: the one below runs for every element
                # class and stays unspecialized, so it is not moved up here.
                self.sim.send(self.links[src.id].route, _error_answer(msg, code))
                return
            self._clean_avps = msg.avps
        link = self.links[src.id]
        kinds = _BASE_EVENT_KINDS.get(msg.command_code)
        if kinds is not None:
            # Only send_raw_request registers a base-protocol request (a fuzz
            # case): the FSM's own CER, DWR and DPR never enter the table.
            if request or msg.hop_by_hop_id not in link.pending:
                self.feed_event(src, PeerEvent(kinds[0] if request else kinds[1], msg), now)
                return
        elif not (link.state.phase is OPEN and (request or msg.hop_by_hop_id in link.pending)):
            self.fsm_drops += 1
            return
        elif request:
            if self.admit(link, msg, now) is ACCEPTED:
                self.direct_served += 1
                self._serve(link, msg, now)
            return
        sent_at, on_answer = link.pending.pop(msg.hop_by_hop_id)
        if on_answer is None:
            self.stray_answers += 1
        else:
            on_answer(sent_at, msg, now)
        if kinds is not None:  # a base-protocol answer, matched: now the FSM
            self.feed_event(src, PeerEvent(kinds[1], msg), now)

    # -- capacity model ----------------------------------------------------------

    def admit(self, link: PeerLink, request: Message, now: int) -> Admission:
        """Admission at `now` of `request`, come in on `link`: take a token,
        else join the bounded queue as `(link, request)`, else drop."""
        if self.failed_at is not None:  # per request: see on_message
            raise ElementFailedError(f"{self.node.label} has failed; it admits nothing")
        self.offered += 1
        # Only at an empty queue does a request take a token itself: while
        # requests wait, their drain takes each token as it comes.
        if not self.queue:
            credit = self._rate * now
            if credit >= self._tat:
                self._tat = credit + self._token
                return ACCEPTED
        if len(self.queue) < self._queue_capacity:
            # A drain is due exactly while the queue is non-empty: joining an
            # empty queue schedules it, and a drain leaving requests the next.
            if not self.queue:
                self._schedule_drain()
            self.queue.append((link, request))
            return QUEUED
        self.dropped_overflow += 1
        return DROPPED

    def _schedule_drain(self) -> None:
        """Schedule the drain at the microsecond the next token is there,
        ceil(`_tat / _rate`). Both callers find no token at the time they
        run (`_rate * now < _tat`), so that microsecond is after it."""
        self.sim.schedule_timer(-(-self._tat // self._rate), self._drain_timer)

    def _drain(self, now: int) -> None:
        """Serve the request at the head of the queue if a token is there, and
        schedule the next drain while requests wait. The burst is one token,
        so one drain serves one request at most."""
        credit = self._rate * now
        if credit >= self._tat and self.queue:
            self._tat = credit + self._token
            link, msg = self.queue.popleft()
            self.drained_served += 1
            self._serve(link, msg, now)
        if self.queue:
            self._schedule_drain()

    def _sample(self, now: int) -> None:
        if self.failed_at is not None:  # per sample: see on_message
            return
        if self.queue:
            self._overload_streak += 1
        else:
            self._overload_streak = 0
        # For an integer streak, streak >= ceil(threshold) exactly when streak >= threshold.
        if self._overload_streak >= self.capacity.failure_threshold_s:
            self.fail(now)
            return
        self.sim.schedule_timer(now + SAMPLE_INTERVAL_US, self._sample)

    @property
    def failed(self) -> bool:
        return self.failed_at is not None

    def fail(self, now: int) -> None:
        """Fail the element at `now`, the one place a failure is written: it
        answers nothing from then on, and its queued requests are dropped
        (`dropped_at_failure`). The sampler's overload rule and a crashing
        handler (see `_serve`) both end here."""
        self.failed_at = now
        self.dropped_at_failure += len(self.queue)
        self.queue.clear()

    def _serve(self, link: PeerLink, msg: Message, now: int) -> None:
        """Answer an admitted request, direct or drained, on the link it came
        in on. A handler that raises is the element's own crash: it is
        recorded with the request, the element fails, and the exception
        propagates."""
        try:
            answer = self.handle_app_request(msg, now)
        except Exception as exc:
            self.crash, self.crashed_on = exc, msg
            self.fail(now)
            raise
        self.sim.send(link.route, answer)

    # -- application layer ---------------------------------------------------------

    def handle_app_request(self, msg: Message, now: int) -> Message:
        """The answer to send back; every request gets one. It is sent as the
        value itself, so it comes from `build_answer` or `build_message`."""
        return _error_answer(msg, dct.RESULT_COMMAND_UNSUPPORTED)

    # -- client-side sending ----------------------------------------------------------

    def _alloc_hop_by_hop(self, link: PeerLink) -> int:
        """Take the link's next hop-by-hop id. `send_app_request`, run per
        request, takes it the same way inline."""
        hbh = link.next_hop_by_hop
        link.next_hop_by_hop = (hbh + 1) & U32_MAX
        return hbh

    def alloc_hop_by_hop(self, dst: NodeId) -> int:
        return self._alloc_hop_by_hop(self.links[dst.id])

    def send_app_request(
        self,
        dst: NodeId,
        request: Message,
        on_answer: Optional[AnswerCallback],
        now: int,
    ) -> Optional[int]:
        """Send `request` with the link's next hop-by-hop id as both its ids, and
        register it; the id, or None if the link is not Open.

        `request` comes from `build_message`, which checked every field, so
        only the new ids are checked (`replace_ids`); one request value can
        be sent any number of times, each send a transaction of its own. A
        message whose request flag is clear raises ValueError before an id
        is taken. `on_answer(sent_at, msg, now)` gets the answer, `sent_at`
        being `now` here; with None the answer is counted in `stray_answers`.
        """
        if not request.request:
            raise ValueError(f"send_app_request: command {request.command_code} is not a request")
        link = self.links[dst.id]
        if link.state.phase is not OPEN:
            return None
        hbh = link.next_hop_by_hop  # see _alloc_hop_by_hop
        link.next_hop_by_hop = (hbh + 1) & U32_MAX
        msg = replace_ids(request, hbh, hbh)
        register_request(link, hbh, now, on_answer)
        self.sim.send(link.route, msg)
        return hbh

    def send_raw_request(
        self,
        dst: NodeId,
        data: bytes,
        hop_by_hop_id: int,
        on_answer: Optional[AnswerCallback],
        now: int,
    ) -> bool:
        """Send pre-encoded (possibly malformed) bytes, still tracked as pending."""
        link = self.links[dst.id]
        if link.state.phase is not OPEN:
            return False
        register_request(link, hop_by_hop_id, now, on_answer)
        self.sim.send(link.route, data)
        return True

    def forget_pending_many(self, dst: NodeId, hop_by_hop_ids) -> int:
        """Reclaim abandoned pending entries; returns how many existed."""
        # Popped and counted in C: a missing entry pops None, and no entry is
        # None. The count tests identity: `==` would call each entry's __eq__.
        popped = map(self.links[dst.id].pending.pop, hop_by_hop_ids, repeat(None))
        return sum(map(is_not, popped, repeat(None)))


class TargetServerElement(Element):
    """The standalone fuzzing and flooding target."""

    kind = TARGET_SERVER

    # (request AVPs, answer AVPs) of the last echo answered. The answer's
    # AVPs depend only on the request's tuple, which never changes (Avp and
    # Message are frozen, and every builder passes bytes data); the memo
    # keeps that tuple alive, so no other tuple can take its id. A class
    # default, not an __init__ write: the first echo makes it the
    # instance's own.
    _echo: tuple[Optional[tuple[Avp, ...]], tuple[Avp, ...]] = (None, ())

    def handle_app_request(self, msg: Message, now: int) -> Message:
        if msg.command_code == dct.CMD_ECHO:
            request_avps, answer_avps = self._echo
            if request_avps is not msg.avps:
                # A loop, not a comprehension: CPython 3.11 runs one in a frame of its own.
                answer = [_SUCCESS_AVP]
                for a in msg.avps:
                    if a.code == dct.AVP_ECHO_PAYLOAD:
                        answer.append(a)
                answer_avps = tuple(answer)
                self._echo = (msg.avps, answer_avps)
            # build_answer keeps a tuple as it is, so every answer shares this one.
            return build_answer(msg, answer_avps)
        return super().handle_app_request(msg, now)


class HssElement(Element):
    """Subscriber store: profile queries and location updates."""

    kind = HSS

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.store: dict[str, SubscriberRecord] = {}

    def seed_subscribers(self, subscribers: Iterable[SubscriberRecord]) -> None:
        for sub in subscribers:
            self.store[sub.subscriber_id] = SubscriberRecord(
                subscriber_id=sub.subscriber_id,
                location=sub.location,
                profile=dict(sub.profile),
            )

    def handle_app_request(self, msg: Message, now: int) -> Message:
        """A location update needs the subscriber and location AVPs, a profile
        query the subscriber's; either names a subscriber in the store."""
        update = msg.command_code == dct.CMD_LOCATION_UPDATE
        if not update and msg.command_code != dct.CMD_PROFILE_QUERY:
            return super().handle_app_request(msg, now)
        sid_avp = first_avp(msg, dct.AVP_SUBSCRIBER_ID)
        loc_avp = first_avp(msg, dct.AVP_LOCATION) if update else None
        if sid_avp is None or (update and loc_avp is None):
            return _error_answer(msg, dct.RESULT_MISSING_AVP)
        rec = self.store.get(sid_avp.data.decode("utf-8", "replace"))
        if rec is None:
            return _error_answer(msg, dct.RESULT_USER_UNKNOWN)
        if update:
            rec.location = loc_avp.data.decode("utf-8", "replace")
            return build_answer(msg, avps=[_SUCCESS_AVP])
        avps = [
            _SUCCESS_AVP,
            Avp(code=dct.AVP_SUBSCRIBER_ID, data=rec.subscriber_id.encode(), mandatory=True),
            Avp(code=dct.AVP_LOCATION, data=rec.location.encode(), mandatory=True),
        ]
        for key, value in sorted(rec.profile.items()):
            avps.append(Avp(code=dct.AVP_PROFILE_ATTRIBUTE, data=f"{key}={value}".encode()))
        return build_answer(msg, avps=avps)


class PcrfElement(Element):
    """Policy rule store: install-once semantics per rule id."""

    kind = PCRF

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rules: dict[str, PolicyRule] = {}

    def seed_rules(self, rules: Iterable[PolicyRule]) -> None:
        for rule in rules:
            self.rules[rule.rule_id] = PolicyRule(rule.rule_id, rule.subscriber_id, rule.qos_class)

    def handle_app_request(self, msg: Message, now: int) -> Message:
        if msg.command_code != dct.CMD_POLICY_INSTALL:
            return super().handle_app_request(msg, now)
        rule_avp = first_avp(msg, dct.AVP_RULE_ID)
        sid_avp = first_avp(msg, dct.AVP_SUBSCRIBER_ID)
        qos_avp = first_avp(msg, dct.AVP_QOS_CLASS)
        if rule_avp is None or sid_avp is None or qos_avp is None:
            return _error_answer(msg, dct.RESULT_MISSING_AVP)
        rule_id = rule_avp.data.decode("utf-8", "replace")
        if rule_id in self.rules:
            return _error_answer(msg, dct.RESULT_DUPLICATE_RULE)
        self.rules[rule_id] = PolicyRule(
            rule_id=rule_id,
            subscriber_id=sid_avp.data.decode("utf-8", "replace"),
            qos_class=int.from_bytes(qos_avp.data, "big"),
        )
        return build_answer(msg, avps=[_SUCCESS_AVP])


def attach_request(step: int, subscriber_id: str, location: str, rule_id: str) -> Message:
    """The request of attach step `step` (see `MmeElement._STEPS`), with ids 0:
    0 updates the subscriber's location, 1 queries its profile, 2 installs
    its policy rule `rule_id` with the default QoS class."""
    sid = Avp(code=dct.AVP_SUBSCRIBER_ID, data=subscriber_id.encode(), mandatory=True)
    if step == 0:
        loc = Avp(code=dct.AVP_LOCATION, data=location.encode(), mandatory=True)
        cmd, avps = dct.CMD_LOCATION_UPDATE, (sid, loc)
    elif step == 1:
        cmd, avps = dct.CMD_PROFILE_QUERY, (sid,)
    else:
        rule = Avp(code=dct.AVP_RULE_ID, data=rule_id.encode(), mandatory=True)
        qos = Avp(code=dct.AVP_QOS_CLASS, data=DEFAULT_QOS_CLASS.to_bytes(4, "big"), mandatory=True)
        cmd, avps = dct.CMD_POLICY_INSTALL, (rule, sid, qos)
    return build_message(cmd, avps, 0, 0, 0, True)


@dataclass
class AttachResult:
    subscriber_id: str
    location: str  # the tracking area the subscriber attaches at
    success: Optional[bool] = None  # None while in progress
    reason: str = ""
    started_at: int = 0
    finished_at: Optional[int] = None
    steps_completed: int = 0


class MmeElement(Element):
    """Attach coordinator: drives HSS and PCRF through the scripted flow.

    Each attach is its own `AttachResult`, which each step's answer callback
    and timeout hold; the MME keeps no table of runs.
    """

    kind = MME

    _STEPS = ("location-update", "profile-query", "policy-install")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Lab.build wires these from the config.
        self.hss_node: Optional[NodeId] = None
        self.pcrf_node: Optional[NodeId] = None
        self.request_timeout_us: int

    def start_attach(self, subscriber: SubscriberRecord, now: int) -> AttachResult:
        if self.hss_node is None or self.pcrf_node is None:
            raise ValueError("attach requires HSS and PCRF in the topology")
        run = AttachResult(subscriber.subscriber_id, subscriber.location, started_at=now)
        self._send_step(run, now)
        return run

    def _send_step(self, run: AttachResult, now: int) -> None:
        """Send the run's current step, built by `attach_request`, and queue its timeout."""
        step = run.steps_completed
        sid = run.subscriber_id
        request = attach_request(step, sid, run.location, f"attach-{sid}")
        dst = self.pcrf_node if request.command_code == dct.CMD_POLICY_INSTALL else self.hss_node
        hbh = self.send_app_request(dst, request, partial(self._attach_answer, run), now)
        if hbh is None:
            self._finish(run, False, "link-not-open", now)
            return
        self.sim.schedule_timer(
            now + self.request_timeout_us, partial(self._attach_timeout, run, step, dst, hbh)
        )

    def _finish(self, run: AttachResult, success: bool, reason: str, now: int) -> None:
        run.success = success
        run.reason = reason
        run.finished_at = now

    def _attach_answer(
        self, run: AttachResult, sent_at: int, msg: Message, now: int
    ) -> None:
        """The answer to the run's current step: a step that timed out has no
        pending entry left, so its late answer never gets here."""
        code = result_code_of(msg)
        if code == dct.RESULT_SUCCESS:
            run.steps_completed += 1
            if run.steps_completed == len(self._STEPS):
                self._finish(run, True, "", now)
            else:
                self._send_step(run, now)
        else:
            name = dct.RESULT_NAMES.get(code, str(code))
            self._finish(run, False, name, now)

    def _attach_timeout(
        self, run: AttachResult, step: int, dst: NodeId, hbh: int, now: int
    ) -> None:
        """Give up on the step's request, unless it was answered: a late answer
        then finds no pending entry, and `on_message` drops it as unmatched."""
        if run.success is None and run.steps_completed == step:
            self.forget_pending_many(dst, (hbh,))
            self._finish(run, False, "timeout", now)


class AttackBoxElement(Element):
    """Attack traffic source.

    An attack drives it by scheduling its own timers and by giving each
    request it sends the callback that consumes the answer. A fuzz case
    is such a request whatever its command: an answer to a mutated
    base-protocol request comes back as a CEA, DWA or DPA, which reaches
    the case's `on_answer` before the peer FSM (see `Element.on_message`).
    """

    kind = ATTACK_BOX


# Keyed by each kind's `_value_`: see _INITIATOR_PRIORITY.
_ELEMENT_CLASSES: dict[str, type[Element]] = {
    cls.kind.value: cls
    for cls in (TargetServerElement, HssElement, MmeElement, PcrfElement, AttackBoxElement)
}


class LabError(RuntimeError):
    """The lab could not be built or brought to a runnable state."""


class Lab:
    """A running testbed: the simulation and the elements its config wires onto it."""

    def __init__(self, config: CampaignConfig, sim: Simulation, elements: dict[str, Element]):
        self.config = config
        self.sim = sim
        self.elements = elements

    @classmethod
    def build(cls, config: CampaignConfig) -> Lab:
        sim = build_topology(config.topology, seed=config.seed)
        elements: dict[str, Element] = {}
        for node in sim.nodes:
            elem = _ELEMENT_CLASSES[config.kinds[node.label]._value_](
                node,
                sim,
                capacity=config.capacities[node.label],
                peer_config=PeerConfig(f"{node.label}.lab", config.watchdog_interval_us),
            )
            elements[node.label] = elem
            sim.register_handler(node, elem)
        for link in sim.links.values():
            elements[link.a.label].add_link(link.b)
            elements[link.b.label].add_link(link.a)
        lab = cls(config, sim, elements)
        hss = lab._role(HSS)
        pcrf = lab._role(PCRF)
        mme = lab._role(MME)
        if hss is not None:
            hss.seed_subscribers(config.subscribers)
        if pcrf is not None:
            pcrf.seed_rules(config.rules)
        if mme is not None:
            mme.hss_node = hss.node if hss is not None else None
            mme.pcrf_node = pcrf.node if pcrf is not None else None
            mme.request_timeout_us = config.request_timeout_us
        for elem in elements.values():
            elem.start_sampler()
        return lab

    # -- lookups ------------------------------------------------------------

    def element(self, label: str) -> Element:
        try:
            return self.elements[label]
        except KeyError:
            raise LabError(f"no element labeled {label!r}") from None

    def node(self, label: str) -> NodeId:
        return self.element(label).node

    def _role(self, kind: ElementKind) -> Optional[Element]:
        """The element that plays `kind`'s role (see `first_of_kind`), or None if there is none.

        The roles: the attack box, the MME and the HSS and PCRF it attaches
        through, and the target server that echo probes go to.
        """
        label = first_of_kind(self.config.kinds, kind)
        return None if label is None else self.elements[label]

    def attack_box(self) -> AttackBoxElement:
        elem = self._role(ATTACK_BOX)
        if elem is None:
            raise LabError("topology has no AttackBox element")
        return elem

    def max_latency_us(self) -> int:
        if not self.sim.links:
            return 0
        return max(l.latency_us for l in self.sim.links.values())

    def round_trip_us(self) -> int:
        """How long to run for one exchange on the slowest link: twice its
        latency plus 10 ms."""
        return 2 * self.max_latency_us() + 10_000

    # -- lifecycle ------------------------------------------------------------

    def bring_links_open(self) -> None:
        """Run capabilities exchange on every link; abort if any fails to open."""
        sim = self.sim
        for key in sorted(self.sim.links):
            link = self.sim.links[key]
            ea, eb = self.elements[link.a.label], self.elements[link.b.label]
            initiator = min(
                (ea, eb), key=lambda e: (_INITIATOR_PRIORITY[e.kind._value_], e.node.id)
            )
            responder = eb if initiator is ea else ea
            initiator.feed_event(responder.node, PeerEvent(START), sim.clock)
            initiator.feed_event(responder.node, PeerEvent(CONN_ACK), sim.clock)
        sim.run_until(sim.clock + self.round_trip_us())
        for key in sorted(self.sim.links):
            link = self.sim.links[key]
            for end, other in ((link.a, link.b), (link.b, link.a)):
                state = self.elements[end.label].peer_link(other).state
                if state.phase is not OPEN:
                    raise LabError(
                        f"peer link {link.a.label}<->{link.b.label} failed to open "
                        f"({end.label} side is {state.phase.value})"
                    )

    # -- scenario traffic ----------------------------------------------------------

    def attach_subscriber(self, subscriber: SubscriberRecord) -> AttachResult:
        mme = self._role(MME)
        if mme is None:
            raise LabError("attach scenario requires an MME element")
        sim = self.sim
        run = mme.start_attach(subscriber, sim.clock)
        # Each step sent has its own timeout queued, so the run always ends.
        while run.success is None:
            sim.run_until(sim.next_event_at())
        return run

    def attach_all(self) -> list[AttachResult]:
        return [self.attach_subscriber(sub) for sub in self.config.subscribers]

    def echo_probes(self) -> None:
        """Minimal background traffic when there is no core to attach against:
        the first AttackBox echoes the first TargetServer, if they are linked."""
        ab = self._role(ATTACK_BOX)
        target = self._role(TARGET_SERVER)
        if ab is None or target is None or self.sim.link_between(ab.node, target.node) is None:
            return
        sim = self.sim
        rtt = self.round_trip_us()
        for i in range(ECHO_PROBES):
            payload = Avp(code=dct.AVP_ECHO_PAYLOAD, data=f"probe-{i}".encode())
            request = build_message(dct.CMD_ECHO, (payload,), 0, 0, 0, True)
            ab.send_app_request(target.node, request, None, sim.clock)
            sim.run_until(sim.clock + rtt)

    def scenario_traffic(self) -> None:
        if self._role(MME) is not None and self.config.subscribers:
            self.attach_all()
        else:
            self.echo_probes()
