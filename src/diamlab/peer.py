"""Peer link lifecycle: capabilities exchange, watchdog, disconnect, correlation.

One PeerState per link endpoint, advanced exclusively through
`handle_event`, a pure function over the full phase x event table (see
TRANSITION_MATRIX; the same table appears in the README). Application
traffic never changes the state: `deliverable` is the one rule for it
(RFC 6733 section 5.6). The element applies it to each application
message directly, building no event or action; `handle_event`'s two
application rows call it too, and stay as the table's executable
statement of the rule, answering with a `DeliverToApp` that carries the
message only. Undeliverable traffic is dropped, never an error.

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

from dataclasses import dataclass, replace
from enum import Enum
from functools import cache
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from . import dictionary as dct
from .codec import Avp, Message, build_answer, build_message, slot_init
from .simnet import US_PER_S


# The per-message path (`deliverable`, `register_request`) reads
# `Phase.OPEN` through the module name OPEN: on CPython < 3.12 EnumType
# defines __getattr__, so every `Phase.OPEN` read goes through a
# Python-level slot hook (~100 ns, against ~7 ns for a module global).


class Phase(Enum):
    CLOSED = "Closed"
    WAIT_CONN_ACK = "WaitConnAck"
    WAIT_CEA = "WaitCEA"
    OPEN = "Open"
    CLOSING = "Closing"


OPEN = Phase.OPEN


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


MESSAGE_EVENTS = frozenset(
    {
        EventKind.RCV_CER,
        EventKind.RCV_CEA,
        EventKind.RCV_DWR,
        EventKind.RCV_DWA,
        EventKind.RCV_DPR,
        EventKind.RCV_DPA,
        EventKind.RCV_REQUEST,
        EventKind.RCV_ANSWER,
    }
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


# The actions that put a base-protocol message on the link. A tuple, so
# that `in` compares identities instead of calling Enum.__hash__.
SEND_ACTIONS = (
    ActionKind.SEND_CER,
    ActionKind.SEND_CEA,
    ActionKind.SEND_DWR,
    ActionKind.SEND_DWA,
    ActionKind.SEND_DPR,
    ActionKind.SEND_DPA,
)


@dataclass(frozen=True, slots=True)
class PeerEvent:
    kind: EventKind
    message: Optional[Message] = None

    def __post_init__(self) -> None:
        if (self.message is not None) != (self.kind in MESSAGE_EVENTS):
            raise ValueError(f"event {self.kind.value} message presence mismatch")


# Built once per application request, so like codec.Avp it takes the
# positional constructor of codec.slot_init instead of the generated __init__.
@slot_init
@dataclass(frozen=True, slots=True, init=False)
class PendingRequest:
    """Metadata kept for one outstanding application request.

    `on_answer(pending, msg, now)` consumes the matching answer; None
    means nobody waits for it.
    """

    hop_by_hop_id: int
    sent_at: int
    on_answer: Optional[AnswerCallback] = None


AnswerCallback = Callable[[PendingRequest, Message, int], None]


@dataclass(frozen=True, slots=True)
class PeerAction:
    kind: ActionKind
    message: Optional[Message] = None


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
@dataclass(frozen=True, slots=True)
class PeerState:
    phase: Phase = Phase.CLOSED
    watchdog_deadline: int = 0
    dwr_outstanding: bool = False
    missed_dwas: int = 0


_NO_PENDING: Mapping[int, PendingRequest] = MappingProxyType({})


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


def register_request(link, pending: PendingRequest) -> None:
    """Record an outstanding application request in `link.pending`, in place.

    `link` is any holder of a `state: PeerState` and a mutable `pending`
    dict keyed by hop-by-hop id (`elements.PeerLink`). Only legal while Open.
    """
    if link.state.phase is not OPEN:
        raise ValueError("pending entries are only allowed in the Open phase")
    table = link.pending
    hbh = pending.hop_by_hop_id
    if hbh in table:
        raise ValueError(f"duplicate outstanding hop-by-hop id {hbh}")
    table[hbh] = pending


# --- the transition function ----------------------------------------------


def deliverable(phase: Phase, message: Message, pending: Mapping[int, PendingRequest]) -> bool:
    """Whether application traffic reaches the application: only in Open,
    and an answer only with the pending entry its hop-by-hop id matches."""
    return phase is OPEN and (
        message.header.request or message.header.hop_by_hop_id in pending
    )


def _drop(state: PeerState, event: PeerEvent) -> tuple[PeerState, list[PeerAction]]:
    return state, [PeerAction(ActionKind.DROP_MESSAGE, event.message)]


def _ignore(state: PeerState, _event: PeerEvent) -> tuple[PeerState, list[PeerAction]]:
    return state, []


def _opened(now: int, config: PeerConfig) -> PeerState:
    """A link that is Open as of `now`: no DWR outstanding, none missed."""
    return PeerState(OPEN, now + config.watchdog_interval_us)


def handle_event(
    state: PeerState,
    event: PeerEvent,
    now: int,
    config: PeerConfig = DEFAULT_CONFIG,
    pending: Mapping[int, PendingRequest] = _NO_PENDING,
) -> tuple[PeerState, list[PeerAction]]:
    """Advance one peer link by one event.

    Total over the phase x event table: unexpected events drop or close,
    they never raise. `pending` is the link's table of outstanding
    requests, read and never changed (see `deliverable`).
    """
    phase, kind = state.phase, event.kind

    if kind is EventKind.RCV_REQUEST or kind is EventKind.RCV_ANSWER:
        if not deliverable(phase, event.message, pending):
            return _drop(state, event)
        return state, [PeerAction(ActionKind.DELIVER_TO_APP, event.message)]

    if kind is EventKind.START:
        if phase is Phase.CLOSED:
            return replace(state, phase=Phase.WAIT_CONN_ACK), []
        return _ignore(state, event)

    if kind is EventKind.CONN_ACK:
        if phase is Phase.WAIT_CONN_ACK:
            cer = build_cer(config.identity, APPLICATION_IDS)
            new = replace(state, phase=Phase.WAIT_CEA)
            return new, [PeerAction(ActionKind.SEND_CER, message=cer)]
        return _ignore(state, event)

    if kind is EventKind.RCV_CER:
        if phase is Phase.CLOSED:
            cea = build_base_answer(event.message, config.identity)
            return _opened(now, config), [PeerAction(ActionKind.SEND_CEA, message=cea)]
        return _drop(state, event)

    if kind is EventKind.RCV_CEA:
        if phase is Phase.WAIT_CEA:
            return _opened(now, config), []
        return _drop(state, event)

    if kind is EventKind.RCV_DWR:
        if phase is Phase.OPEN:
            dwa = build_base_answer(event.message, config.identity)
            return state, [PeerAction(ActionKind.SEND_DWA, message=dwa)]
        return _drop(state, event)

    if kind is EventKind.RCV_DWA:
        if phase is Phase.OPEN:
            return _opened(now, config), []
        return _drop(state, event)

    if kind is EventKind.RCV_DPR:
        if phase in (Phase.WAIT_CEA, Phase.OPEN, Phase.CLOSING):
            dpa = build_base_answer(event.message, config.identity)
            new = replace(state, phase=Phase.CLOSING)
            return new, [PeerAction(ActionKind.SEND_DPA, message=dpa)]
        return _drop(state, event)

    if kind is EventKind.RCV_DPA:
        if phase is Phase.CLOSING:
            return replace(state, phase=Phase.CLOSED), [PeerAction(ActionKind.CLOSE_LINK)]
        return _drop(state, event)

    if kind is EventKind.WATCHDOG_TIMER:
        if phase is not Phase.OPEN:
            return _ignore(state, event)
        if now < state.watchdog_deadline:
            return _ignore(state, event)  # stale timer from a renewed deadline
        if state.dwr_outstanding:
            missed = state.missed_dwas + 1
            if missed >= MISSED_DWA_LIMIT:
                new = replace(state, phase=Phase.CLOSED, dwr_outstanding=False)
                return new, [PeerAction(ActionKind.CLOSE_LINK)]
        else:
            missed = state.missed_dwas
        dwr = build_dwr(config.identity)
        new = replace(
            state,
            dwr_outstanding=True,
            missed_dwas=missed,
            watchdog_deadline=now + config.watchdog_interval_us,
        )
        return new, [PeerAction(ActionKind.SEND_DWR, message=dwr)]

    if kind is EventKind.STOP:
        if phase is Phase.OPEN:
            dpr = build_dpr(config.identity)
            new = replace(state, phase=Phase.CLOSING)
            return new, [PeerAction(ActionKind.SEND_DPR, message=dpr)]
        if phase in (Phase.WAIT_CONN_ACK, Phase.WAIT_CEA, Phase.CLOSING):
            return replace(state, phase=Phase.CLOSED), [
                PeerAction(ActionKind.CLOSE_LINK)
            ]
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
