"""Peer link lifecycle: capabilities exchange, watchdog, disconnect, correlation.

One PeerState per link endpoint, advanced exclusively through
`handle_event`, a pure function over the full phase x event table (see
TRANSITION_MATRIX; the same table appears in the README). Application
traffic never changes the state: `deliverable` states the rule for it
(RFC 6733 section 5.6), and is its reference. `handle_event`'s two
application rows call it, and stay as the table's executable statement
of the rule, answering with a `DeliverToApp` that carries the message
only. The element builds no event or action for an application message:
`elements.Element.on_message` states the same rule inline, one call
fewer per message, and the test TestDirectDeliveryAgreesWithTheTable
holds the two equal in every phase. Undeliverable traffic is dropped,
never an error.

The table of outstanding requests and the hop-by-hop counter belong to
the link that owns this state (`elements.PeerLink`), which changes them
in place. The rule only reads the table, to decide whether an answer in
Open matches a request; the link pops the entry it delivers and empties
the table whenever the phase leaves Open. Requests the state machine
builds (CER, DWR, DPR) carry hop-by-hop id 0 until the link stamps them
with its next id.

Timestamps are simulation microseconds throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from . import dictionary as dct
from .codec import Avp, Message, build_answer, build_message, slot_init
from .simnet import US_PER_S


# Every member that a per-event path reads (`handle_event`, `register_request`,
# the element's delivery rule and FSM driving) is bound once to a module name
# of its own, in definition order: on CPython < 3.12 EnumType defines
# __getattr__, so every `Phase.OPEN` read goes through a Python-level slot
# hook (~120-160 ns, against ~15 ns for a module global). The test
# test_every_member_is_bound_under_its_name holds each name to its member.


class Phase(Enum):
    CLOSED = "Closed"
    WAIT_CONN_ACK = "WaitConnAck"
    WAIT_CEA = "WaitCEA"
    OPEN = "Open"
    CLOSING = "Closing"


CLOSED, WAIT_CONN_ACK, WAIT_CEA, OPEN, CLOSING = Phase


class EventKind(Enum):
    START = "Start"
    CONN_ACK = "ConnAck"
    RCV_CER = "RcvCER"
    RCV_CEA = "RcvCEA"
    RCV_DWR = "RcvDWR"
    RCV_DWA = "RcvDWA"
    RCV_DPR = "RcvDPR"
    RCV_DPA = "RcvDPA"
    RCV_REQUEST = "RcvRequest"
    RCV_ANSWER = "RcvAnswer"
    WATCHDOG_TIMER = "WatchdogTimer"
    STOP = "Stop"


(
    START, CONN_ACK, RCV_CER, RCV_CEA, RCV_DWR, RCV_DWA, RCV_DPR, RCV_DPA, RCV_REQUEST,
    RCV_ANSWER, WATCHDOG_TIMER, STOP,
) = EventKind


# The events that carry a message. A tuple, like SEND_ACTIONS below, so that
# PeerEvent's check compares identities instead of calling Enum.__hash__.
MESSAGE_EVENTS = (
    RCV_CER, RCV_CEA, RCV_DWR, RCV_DWA, RCV_DPR, RCV_DPA, RCV_REQUEST, RCV_ANSWER,
)


class ActionKind(Enum):
    SEND_CER = "SendCER"
    SEND_CEA = "SendCEA"
    SEND_DWR = "SendDWR"
    SEND_DWA = "SendDWA"
    SEND_DPR = "SendDPR"
    SEND_DPA = "SendDPA"
    DELIVER_TO_APP = "DeliverToApp"
    DROP_MESSAGE = "DropMessage"
    CLOSE_LINK = "CloseLink"


(
    SEND_CER, SEND_CEA, SEND_DWR, SEND_DWA, SEND_DPR, SEND_DPA, DELIVER_TO_APP, DROP_MESSAGE,
    CLOSE_LINK,
) = ActionKind


# The actions that put a base-protocol message on the link. A tuple, so
# that `in` compares identities instead of calling Enum.__hash__.
SEND_ACTIONS = (SEND_CER, SEND_CEA, SEND_DWR, SEND_DWA, SEND_DPR, SEND_DPA)


@dataclass(frozen=True, slots=True)
class PeerEvent:
    kind: EventKind
    message: Optional[Message] = None

    def __post_init__(self) -> None:
        if (self.message is not None) != (self.kind in MESSAGE_EVENTS):
            raise ValueError(f"event {self.kind.value} message presence mismatch")


# A pending entry is the pair (sent_at, on_answer), keyed in the link's table
# by the request's hop-by-hop id. `on_answer(sent_at, msg, now)` consumes the
# matching answer; None means nobody waits for it.
AnswerCallback = Callable[[int, Message, int], None]
PendingEntry = tuple[int, Optional[AnswerCallback]]


# Built for every base-protocol message and timer, so it takes the positional
# constructor of codec.slot_init, called through the module name below.
@slot_init
@dataclass(frozen=True, slots=True, init=False)
class PeerAction:
    kind: ActionKind
    message: Optional[Message] = None


new_peer_action = PeerAction.__new__  # see codec.slot_init


# What every peer advertises in its CER, and how many watchdog periods in a
# row may pass without a DWA before it closes the link.
APPLICATION_IDS = (0,)
MISSED_DWA_LIMIT = 2


@dataclass(frozen=True)
class PeerConfig:
    identity: str = "peer.lab"
    watchdog_interval_us: int = 30 * US_PER_S


DEFAULT_CONFIG = PeerConfig()


# Slotted: `phase` is read per request, and CPython 3.11 does not specialize
# reading a field whose class-level default is an Enum member unless it is a slot.
# Built at every transition that changes it, so it takes slot_init's positional
# constructor, as PeerAction does: each transition states every field.
@slot_init
@dataclass(frozen=True, slots=True, init=False)
class PeerState:
    phase: Phase = CLOSED
    watchdog_deadline: int = 0
    dwr_outstanding: bool = False
    missed_dwas: int = 0


new_peer_state = PeerState.__new__  # see codec.slot_init


_NO_PENDING: Mapping[int, PendingEntry] = MappingProxyType({})


# --- message constructors -------------------------------------------------


def _origin(identity: str) -> Avp:
    if not identity:
        raise ValueError("identity must be non-empty")
    return Avp(code=dct.AVP_ORIGIN_HOST, data=identity.encode(), mandatory=True)


@cache
def result_code_avp(code: int) -> Avp:
    """The Result-Code AVP for `code`: one shared value per code (an Avp is frozen)."""
    return Avp(code=dct.AVP_RESULT_CODE, data=code.to_bytes(4, "big"), mandatory=True)


def build_cer(identity: str, application_ids: list[int] | tuple[int, ...]) -> Message:
    """A CER with ids 0, as are the DWR and DPR: the sending link stamps its own (`replace_ids`)."""
    avps = [_origin(identity)] + [
        Avp(code=dct.AVP_AUTH_APPLICATION_ID, data=a.to_bytes(4, "big"), mandatory=True)
        for a in application_ids
    ]
    return build_message(dct.CMD_CAPABILITIES_EXCHANGE, request=True, avps=avps)


def build_dwr(identity: str) -> Message:
    return build_message(dct.CMD_DEVICE_WATCHDOG, request=True, avps=[_origin(identity)])


def build_dpr(identity: str) -> Message:
    cause = Avp(code=dct.AVP_DISCONNECT_CAUSE, data=bytes(4), mandatory=True)  # REBOOTING (0)
    return build_message(dct.CMD_DISCONNECT_PEER, request=True, avps=[_origin(identity), cause])


def build_base_answer(
    req: Message, identity: str, result_code: int = dct.RESULT_SUCCESS
) -> Message:
    """The CEA, DWA or DPA to a CER, DWR or DPR: result code and origin host."""
    return build_answer(req, avps=[result_code_avp(result_code), _origin(identity)])


# --- correlation ----------------------------------------------------------


def register_request(
    link, hbh: int, sent_at: int, on_answer: Optional[AnswerCallback]
) -> None:
    """Record the request with hop-by-hop id `hbh`, sent at `sent_at`, in
    `link.pending` as the pair `(sent_at, on_answer)`, in place.

    `link` is any holder of a `state: PeerState` and a mutable `pending`
    dict keyed by hop-by-hop id (`elements.PeerLink`). Only legal while Open.
    """
    if link.state.phase is not OPEN:
        raise ValueError("pending entries are only allowed in the Open phase")
    table = link.pending
    if hbh in table:
        raise ValueError(f"duplicate outstanding hop-by-hop id {hbh}")
    table[hbh] = (sent_at, on_answer)


# --- the transition function ----------------------------------------------


def deliverable(phase: Phase, message: Message, pending: Mapping[int, PendingEntry]) -> bool:
    """Whether application traffic reaches the application: only in Open,
    and an answer only with the pending entry its hop-by-hop id matches.

    The reference statement of the rule; `Element.on_message` states it
    inline (see the module docstring)."""
    return phase is OPEN and (message.request or message.hop_by_hop_id in pending)


def _drop(state: PeerState, event: PeerEvent) -> tuple[PeerState, list[PeerAction]]:
    return state, [new_peer_action(PeerAction, DROP_MESSAGE, event.message)]


def _ignore(state: PeerState, _event: PeerEvent) -> tuple[PeerState, list[PeerAction]]:
    return state, []


def _opened(now: int, config: PeerConfig) -> PeerState:
    """A link that is Open as of `now`: no DWR outstanding, none missed."""
    return new_peer_state(PeerState, OPEN, now + config.watchdog_interval_us, False, 0)


def _moved(state: PeerState, phase: Phase) -> PeerState:
    """`state` in `phase`, its watchdog fields kept."""
    return new_peer_state(
        PeerState, phase, state.watchdog_deadline, state.dwr_outstanding, state.missed_dwas
    )


def handle_event(
    state: PeerState,
    event: PeerEvent,
    now: int,
    config: PeerConfig = DEFAULT_CONFIG,
    pending: Mapping[int, PendingEntry] = _NO_PENDING,
) -> tuple[PeerState, list[PeerAction]]:
    """Advance one peer link by one event.

    Total over the phase x event table: unexpected events drop or close,
    they never raise. `pending` is the link's table of outstanding
    requests, read and never changed (see `deliverable`).
    """
    phase, kind = state.phase, event.kind

    if kind is RCV_REQUEST or kind is RCV_ANSWER:
        if not deliverable(phase, event.message, pending):
            return _drop(state, event)
        return state, [new_peer_action(PeerAction, DELIVER_TO_APP, event.message)]

    if kind is START:
        if phase is CLOSED:
            return _moved(state, WAIT_CONN_ACK), []
        return _ignore(state, event)

    if kind is CONN_ACK:
        if phase is WAIT_CONN_ACK:
            cer = build_cer(config.identity, APPLICATION_IDS)
            return _moved(state, WAIT_CEA), [new_peer_action(PeerAction, SEND_CER, cer)]
        return _ignore(state, event)

    if kind is RCV_CER:
        if phase is CLOSED:
            cea = build_base_answer(event.message, config.identity)
            return _opened(now, config), [new_peer_action(PeerAction, SEND_CEA, cea)]
        return _drop(state, event)

    if kind is RCV_CEA:
        if phase is WAIT_CEA:
            return _opened(now, config), []
        return _drop(state, event)

    if kind is RCV_DWR:
        if phase is OPEN:
            dwa = build_base_answer(event.message, config.identity)
            return state, [new_peer_action(PeerAction, SEND_DWA, dwa)]
        return _drop(state, event)

    if kind is RCV_DWA:
        if phase is OPEN:
            return _opened(now, config), []
        return _drop(state, event)

    if kind is RCV_DPR:
        if phase is WAIT_CEA or phase is OPEN or phase is CLOSING:
            dpa = build_base_answer(event.message, config.identity)
            return _moved(state, CLOSING), [new_peer_action(PeerAction, SEND_DPA, dpa)]
        return _drop(state, event)

    if kind is RCV_DPA:
        if phase is CLOSING:
            return _moved(state, CLOSED), [new_peer_action(PeerAction, CLOSE_LINK)]
        return _drop(state, event)

    if kind is WATCHDOG_TIMER:
        if phase is not OPEN:
            return _ignore(state, event)
        if now < state.watchdog_deadline:
            return _ignore(state, event)  # stale timer from a renewed deadline
        if state.dwr_outstanding:
            missed = state.missed_dwas + 1
            if missed >= MISSED_DWA_LIMIT:
                new = new_peer_state(
                    PeerState, CLOSED, state.watchdog_deadline, False, state.missed_dwas
                )
                return new, [new_peer_action(PeerAction, CLOSE_LINK)]
        else:
            missed = state.missed_dwas
        dwr = build_dwr(config.identity)
        new = new_peer_state(PeerState, OPEN, now + config.watchdog_interval_us, True, missed)
        return new, [new_peer_action(PeerAction, SEND_DWR, dwr)]

    if kind is STOP:
        if phase is OPEN:
            dpr = build_dpr(config.identity)
            return _moved(state, CLOSING), [new_peer_action(PeerAction, SEND_DPR, dpr)]
        if phase is WAIT_CONN_ACK or phase is WAIT_CEA or phase is CLOSING:
            return _moved(state, CLOSED), [new_peer_action(PeerAction, CLOSE_LINK)]
        return _ignore(state, event)

    raise AssertionError(f"unreachable: {kind}")  # pragma: no cover


# Published phase x event matrix. Cell values: (next phase, action kinds);
# "=" means the phase does not change. Dynamic cells (Open/RcvAnswer,
# Open/WatchdogTimer) list their quiescent-path outcome and are covered by
# dedicated scenario tests.
TRANSITION_MATRIX: dict[tuple[Phase, EventKind], tuple[str, tuple[str, ...]]] = {
    (Phase.CLOSED, EventKind.START): ("WaitConnAck", ()),
    (Phase.CLOSED, EventKind.CONN_ACK): ("=", ()),
    (Phase.CLOSED, EventKind.RCV_CER): ("Open", ("SendCEA",)),
    (Phase.CLOSED, EventKind.RCV_CEA): ("=", ("DropMessage",)),
    (Phase.CLOSED, EventKind.RCV_DWR): ("=", ("DropMessage",)),
    (Phase.CLOSED, EventKind.RCV_DWA): ("=", ("DropMessage",)),
    (Phase.CLOSED, EventKind.RCV_DPR): ("=", ("DropMessage",)),
    (Phase.CLOSED, EventKind.RCV_DPA): ("=", ("DropMessage",)),
    (Phase.CLOSED, EventKind.RCV_REQUEST): ("=", ("DropMessage",)),
    (Phase.CLOSED, EventKind.RCV_ANSWER): ("=", ("DropMessage",)),
    (Phase.CLOSED, EventKind.WATCHDOG_TIMER): ("=", ()),
    (Phase.CLOSED, EventKind.STOP): ("=", ()),
    (Phase.WAIT_CONN_ACK, EventKind.START): ("=", ()),
    (Phase.WAIT_CONN_ACK, EventKind.CONN_ACK): ("WaitCEA", ("SendCER",)),
    (Phase.WAIT_CONN_ACK, EventKind.RCV_CER): ("=", ("DropMessage",)),
    (Phase.WAIT_CONN_ACK, EventKind.RCV_CEA): ("=", ("DropMessage",)),
    (Phase.WAIT_CONN_ACK, EventKind.RCV_DWR): ("=", ("DropMessage",)),
    (Phase.WAIT_CONN_ACK, EventKind.RCV_DWA): ("=", ("DropMessage",)),
    (Phase.WAIT_CONN_ACK, EventKind.RCV_DPR): ("=", ("DropMessage",)),
    (Phase.WAIT_CONN_ACK, EventKind.RCV_DPA): ("=", ("DropMessage",)),
    (Phase.WAIT_CONN_ACK, EventKind.RCV_REQUEST): ("=", ("DropMessage",)),
    (Phase.WAIT_CONN_ACK, EventKind.RCV_ANSWER): ("=", ("DropMessage",)),
    (Phase.WAIT_CONN_ACK, EventKind.WATCHDOG_TIMER): ("=", ()),
    (Phase.WAIT_CONN_ACK, EventKind.STOP): ("Closed", ("CloseLink",)),
    (Phase.WAIT_CEA, EventKind.START): ("=", ()),
    (Phase.WAIT_CEA, EventKind.CONN_ACK): ("=", ()),
    (Phase.WAIT_CEA, EventKind.RCV_CER): ("=", ("DropMessage",)),
    (Phase.WAIT_CEA, EventKind.RCV_CEA): ("Open", ()),
    (Phase.WAIT_CEA, EventKind.RCV_DWR): ("=", ("DropMessage",)),
    (Phase.WAIT_CEA, EventKind.RCV_DWA): ("=", ("DropMessage",)),
    (Phase.WAIT_CEA, EventKind.RCV_DPR): ("Closing", ("SendDPA",)),
    (Phase.WAIT_CEA, EventKind.RCV_DPA): ("=", ("DropMessage",)),
    (Phase.WAIT_CEA, EventKind.RCV_REQUEST): ("=", ("DropMessage",)),
    (Phase.WAIT_CEA, EventKind.RCV_ANSWER): ("=", ("DropMessage",)),
    (Phase.WAIT_CEA, EventKind.WATCHDOG_TIMER): ("=", ()),
    (Phase.WAIT_CEA, EventKind.STOP): ("Closed", ("CloseLink",)),
    (Phase.OPEN, EventKind.START): ("=", ()),
    (Phase.OPEN, EventKind.CONN_ACK): ("=", ()),
    (Phase.OPEN, EventKind.RCV_CER): ("=", ("DropMessage",)),
    (Phase.OPEN, EventKind.RCV_CEA): ("=", ("DropMessage",)),
    (Phase.OPEN, EventKind.RCV_DWR): ("=", ("SendDWA",)),
    (Phase.OPEN, EventKind.RCV_DWA): ("=", ()),
    (Phase.OPEN, EventKind.RCV_DPR): ("Closing", ("SendDPA",)),
    (Phase.OPEN, EventKind.RCV_DPA): ("=", ("DropMessage",)),
    (Phase.OPEN, EventKind.RCV_REQUEST): ("=", ("DeliverToApp",)),
    (Phase.OPEN, EventKind.RCV_ANSWER): ("=", ("DropMessage",)),  # no pending match
    (Phase.OPEN, EventKind.WATCHDOG_TIMER): ("=", ()),  # before the deadline
    (Phase.OPEN, EventKind.STOP): ("Closing", ("SendDPR",)),
    (Phase.CLOSING, EventKind.START): ("=", ()),
    (Phase.CLOSING, EventKind.CONN_ACK): ("=", ()),
    (Phase.CLOSING, EventKind.RCV_CER): ("=", ("DropMessage",)),
    (Phase.CLOSING, EventKind.RCV_CEA): ("=", ("DropMessage",)),
    (Phase.CLOSING, EventKind.RCV_DWR): ("=", ("DropMessage",)),
    (Phase.CLOSING, EventKind.RCV_DWA): ("=", ("DropMessage",)),
    (Phase.CLOSING, EventKind.RCV_DPR): ("=", ("SendDPA",)),
    (Phase.CLOSING, EventKind.RCV_DPA): ("Closed", ("CloseLink",)),
    (Phase.CLOSING, EventKind.RCV_REQUEST): ("=", ("DropMessage",)),
    (Phase.CLOSING, EventKind.RCV_ANSWER): ("=", ("DropMessage",)),
    (Phase.CLOSING, EventKind.WATCHDOG_TIMER): ("=", ()),
    (Phase.CLOSING, EventKind.STOP): ("Closed", ("CloseLink",)),
}
