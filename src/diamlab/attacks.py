"""Attack engine: transaction flooding, passive interception, mutation fuzzing.

Each runner takes a built Lab and an attack spec, drives the simulation,
and returns a structured result plus zero or more Findings. A runner
labels each finding with its taxonomy cell where it decides the finding's
severity; the campaign layer only numbers findings and reports them.

Fuzzing is mutation-based over a seed corpus of the testbed's own valid
messages. Mutations are deterministic functions of (bytes, op, draw),
so a fuzz run is fully reproducible from its seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, Optional

from . import dictionary as dct
from .codec import (
    FLAG_ERROR,
    FLAG_PROXIABLE,
    FLAG_REQUEST,
    FLAG_RETRANSMIT,
    Avp,
    Message,
    ParseError,
    build_message,
    decode_message,
    encode_avp,
    encode_message,
    new_message,
    stamp_ids,
)
from .elements import Element, Lab, attach_request, result_code_of
from .peer import APPLICATION_IDS, build_cer, build_dwr
from .simnet import CaptureRecord, US_PER_S
from .taxonomy import Impact, Origin, TaxonomyLabel, Technique


class Severity(Enum):
    INFO = "info"
    DEGRADED = "degraded"
    OUTAGE = "outage"
    EXPOSURE = "exposure"


@dataclass
class Finding:
    attack_kind: str  # the `kind` of the spec that produced it
    severity: Severity
    taxonomy: TaxonomyLabel
    evidence: dict
    id: int = 0  # the campaign numbers its findings

    def __post_init__(self) -> None:
        if not self.evidence:
            raise ValueError("a finding must carry evidence")


# --- attack specs -----------------------------------------------------------


@dataclass(frozen=True)
class FloodSpec:
    kind: ClassVar[str] = "flood"
    target: str
    rate_tps: float
    duration_s: float
    degraded_answer_ratio: float = 0.95

    def __post_init__(self) -> None:
        if self.rate_tps <= 0:
            raise ValueError("flood rate must be > 0")
        if self.duration_s <= 0:
            raise ValueError("flood duration must be > 0")
        # run_flood turns these into whole requests and microseconds
        if not math.isfinite(self.rate_tps * self.duration_s):
            raise ValueError("flood size rate_tps * duration_s is too large")
        if not math.isfinite(self.duration_s * US_PER_S):
            raise ValueError("flood duration is too large")
        if not math.isfinite(US_PER_S / self.rate_tps):
            raise ValueError("flood rate is too small")
        if self.count == 0:
            raise ValueError("flood size rate_tps * duration_s rounds to zero requests")
        if not 0 <= self.degraded_answer_ratio <= 1:
            raise ValueError("flood degraded threshold must be in [0, 1]")

    @property
    def count(self) -> int:
        """How many requests the flood sends."""
        return round(self.rate_tps * self.duration_s)


@dataclass(frozen=True)
class InterceptSpec:
    kind: ClassVar[str] = "intercept"
    link: tuple[str, str]
    avp_codes: tuple[int, ...]


class MutationOp(Enum):
    FLIP_FLAG = "flip_flag"
    SET_MANDATORY_UNKNOWN_AVP = "set_mandatory_unknown_avp"
    TRUNCATE = "truncate"
    INFLATE_LENGTH = "inflate_length"
    CORRUPT_VERSION = "corrupt_version"
    SHUFFLE_AVPS = "shuffle_avps"
    ZERO_LENGTH_AVP = "zero_length_avp"


ALL_MUTATION_OPS = tuple(MutationOp)


@dataclass(frozen=True)
class FuzzSpec:
    kind: ClassVar[str] = "fuzz"
    target: str
    case_count: int
    ops: tuple[MutationOp, ...] = ALL_MUTATION_OPS
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.case_count <= 0:
            raise ValueError("fuzz case count must be > 0")
        if not self.ops:
            raise ValueError("fuzz op set must be non-empty")
        for i, op in enumerate(self.ops):
            if op in self.ops[:i]:
                raise ValueError(f"fuzz op {op.value!r} is listed twice")


AttackSpec = FloodSpec | InterceptSpec | FuzzSpec


# --- mutation operators ------------------------------------------------------

_HEADER_FLAG_BITS = (FLAG_REQUEST, FLAG_PROXIABLE, FLAG_ERROR, FLAG_RETRANSMIT)
_UNKNOWN_AVP_CODE_BASE = 900_000


def _patch_declared_length(data: bytearray, delta: int) -> bool:
    if len(data) < 4:
        return False
    declared = int.from_bytes(data[1:4], "big") + delta
    if not 0 <= declared <= 0xFFFFFF:
        return False
    data[1:4] = declared.to_bytes(3, "big")
    return True


def _mut_flip_flag(data: bytes, draw: int) -> bytes:
    if len(data) < 5:
        return data
    out = bytearray(data)
    out[4] ^= _HEADER_FLAG_BITS[draw % 4]
    return bytes(out)


def _mut_corrupt_version(data: bytes, draw: int) -> bytes:
    if not data:
        return data
    out = bytearray(data)
    out[0] = 2 + draw % 254  # anything but 0 and 1
    return bytes(out)


def _mut_truncate(data: bytes, draw: int) -> bytes:
    if len(data) <= 1:
        return data
    cut = 1 + draw % min(len(data) - 1, 8)
    return data[: len(data) - cut]


def _mut_inflate_length(data: bytes, draw: int) -> bytes:
    out = bytearray(data)
    if not _patch_declared_length(out, 4 * (1 + draw % 4)):
        return data
    return bytes(out)


def _append_avp(data: bytes, avp: bytes) -> bytes:
    """`data` with `avp` appended and its declared length grown to match."""
    out = bytearray(data)
    if not _patch_declared_length(out, len(avp)):
        return data
    return bytes(out) + avp


def _mut_set_mandatory_unknown_avp(data: bytes, draw: int) -> bytes:
    code = _UNKNOWN_AVP_CODE_BASE + draw % 100_000
    avp = encode_avp(Avp(code, (draw & 0xFFFFFFFF).to_bytes(4, "big"), mandatory=True))
    return _append_avp(data, avp)


def _mut_zero_length_avp(data: bytes, draw: int) -> bytes:
    avp = (draw & 0xFFFFFFFF).to_bytes(4, "big") + b"\x00" + (0).to_bytes(3, "big")
    return _append_avp(data, avp)


def _mut_shuffle_avps(data: bytes, draw: int) -> bytes:
    msg = decode_message(data)
    if isinstance(msg, ParseError) or len(msg.avps) < 2:
        return data
    order = list(msg.avps)
    random.Random(draw).shuffle(order)
    shuffled = new_message(
        Message, msg.command_code, tuple(order), msg.application_id, msg.hop_by_hop_id,
        msg.end_to_end_id, msg.request, msg.proxiable, msg.error, msg.retransmit,
    )
    return encode_message(shuffled)


# Keyed by each op's `_value_`, the member's plain attribute, and read once
# per case: a dict keyed by the member calls the Python-level Enum.__hash__,
# and on CPython 3.11 `.value` is a Python-level property.
_MUTATORS: dict[str, Callable[[bytes, int], bytes]] = {
    MutationOp.FLIP_FLAG.value: _mut_flip_flag,
    MutationOp.SET_MANDATORY_UNKNOWN_AVP.value: _mut_set_mandatory_unknown_avp,
    MutationOp.TRUNCATE.value: _mut_truncate,
    MutationOp.INFLATE_LENGTH.value: _mut_inflate_length,
    MutationOp.CORRUPT_VERSION.value: _mut_corrupt_version,
    MutationOp.SHUFFLE_AVPS.value: _mut_shuffle_avps,
    MutationOp.ZERO_LENGTH_AVP.value: _mut_zero_length_avp,
}


def mutate(data: bytes, op: MutationOp, draw: int) -> bytes:
    """Apply one mutation operator. Deterministic in (data, op, draw).

    Returns the input unchanged when the operator is a no-op on this
    structure; callers detect that by comparison.
    """
    return _MUTATORS[op._value_](data, draw)


# --- flooding -----------------------------------------------------------------


@dataclass
class FloodResult:
    target: str
    rate_tps: float
    duration_s: float
    offered: int
    sent: int
    answered: int
    dropped: int
    in_flight: int
    element_failed: bool
    answer_ratio: float
    latency_min_us: Optional[int]
    latency_mean_us: Optional[int]
    latency_max_us: Optional[int]
    result_code_counts: dict[str, int]

    def to_dict(self) -> dict:
        """The benchmark's digest input; equal to the report's `campaign.to_json(self)`."""
        return dict(self.__dict__)


def _render_result_codes(tally: dict[Optional[int], int]) -> dict[str, int]:
    """A tally of answers by result code (None: no code), as a result keeps
    it: keyed by the code's text ("none" for None), in order of that text.
    A run tallies by the int and renders the text once, here."""
    return dict(sorted(("none" if code is None else str(code), n) for code, n in tally.items()))


class _FloodDriver:
    """Sends one flood's requests on schedule and counts their answers.

    Every request is the one echo request built and checked when the flood
    starts (a 4-byte zero Echo-Payload); `send_app_request` gives each send
    the link's next hop-by-hop id as both ids, so each is a transaction of
    its own with the same AVPs. It counts the sends it offers and those the
    attack box refuses, which happens only while the link is not Open; the
    rest were sent, so a send that goes out counts nothing more.

    An answer counts only when it lands within `timeout_us` of its send
    (`_count_answer`); a later one is ignored, whenever it lands. The
    driver keeps no table of its own: its requests stay in the link's
    pending table until answered or until the flood ends (`pending_ids`).
    """

    def __init__(
        self,
        ab: Element,
        target: Element,
        count: int,
        start: int,
        rate_tps: float,
        timeout_us: int,
    ):
        self.ab = ab
        self.sim = ab.sim
        self.target = target
        self.count = count
        self.start = start
        self.rate_tps = rate_tps
        self.timeout_us = timeout_us
        self.offered = 0
        self.refused = 0
        self.latencies: list[int] = []
        self.result_codes: dict[Optional[int], int] = {}
        # (answer AVPs, their result code) of the last answer counted. The
        # code depends only on the tuple, which never changes (Avp and
        # Message are frozen, and every builder passes bytes data); the memo
        # keeps it alive, so no other tuple can take its id. The target
        # shares one answer tuple across the flood's echoes.
        self._answer_code: tuple[Optional[tuple[Avp, ...]], Optional[int]] = (None, None)
        self.request = build_message(
            dct.CMD_ECHO, (Avp(dct.AVP_ECHO_PAYLOAD, bytes(4)),), 0, 0, 0, True
        )
        # One callback object for the whole flood, stored in every pending
        # entry it sends: `self._count_answer` read per send would make a new
        # bound method each time (~16k held at once by an overloaded target),
        # and `pending_ids` can match the flood's entries by identity.
        self.on_answer = self._count_answer
        # The send timer, bound once for the same reason: each send schedules it.
        self._send = self.send

    def send(self, now: int) -> None:
        """Send the flood's next request, number `offered`, and schedule the one after."""
        i = self.offered
        self.offered = i + 1
        if self.ab.send_app_request(self.target.node, self.request, self.on_answer, now) is None:
            self.refused += 1
        if i + 1 < self.count:
            # Rounded from the exact schedule, so the error never adds up over the flood.
            at = self.start + round((i + 1) * US_PER_S / self.rate_tps)
            self.sim.schedule_timer(at, self._send)

    def pending_ids(self) -> list[int]:
        """Hop-by-hop ids of this flood's requests still unanswered on the link.

        Entries of other senders (a probe, a fuzz case) are skipped.
        """
        mine = self.on_answer
        pending = self.ab.peer_link(self.target.node).pending
        return [hbh for hbh, (_, on_answer) in pending.items() if on_answer is mine]

    def _count_answer(self, sent_at, msg, now) -> None:
        latency = now - sent_at
        if latency > self.timeout_us:
            return  # too late: the request counts as dropped
        self.latencies.append(latency)
        avps, code = self._answer_code
        if avps is not msg.avps:
            code = result_code_of(msg)
            self._answer_code = (msg.avps, code)
        self.result_codes[code] = self.result_codes.get(code, 0) + 1


# How long a flood's run settles after the last send and the target's drain time.
SETTLE_GRACE_US = 2 * US_PER_S


def run_flood(lab: Lab, spec: FloodSpec) -> tuple[FloodResult, list[Finding]]:
    """Well-formed echo requests at a constant rate against one element.

    Each is the flood's one request, built and checked once, sent with the
    link's next ids (see `_FloodDriver`).

    The run settles for a grace period after the last send so queued
    requests drain. An answer counts only when it lands within the lab's
    `request_timeout_us` of its send, so no reported latency exceeds the
    timeout; every request not answered in time is counted as dropped, and
    the pending entries still unanswered at the end are reclaimed.
    """
    sim = lab.sim
    ab = lab.attack_box()
    target = lab.element(spec.target)
    driver = _FloodDriver(
        ab, target, spec.count, sim.clock, spec.rate_tps, lab.config.request_timeout_us
    )
    sim.schedule_timer(sim.clock, driver.send)
    horizon = (
        sim.clock
        + int(round(spec.duration_s * US_PER_S))
        + int(target.capacity.drain_us)
        + SETTLE_GRACE_US
        + 2 * lab.max_latency_us()
    )
    sim.run_until(horizon)  # past the last send, so no send timer outlives the run

    # Reconcile: anything still pending can no longer be answered.
    ab.forget_pending_many(target.node, driver.pending_ids())
    lat = driver.latencies
    answered = len(lat)  # one latency per answer counted
    ratio = answered / driver.offered if driver.offered else 1.0
    result = FloodResult(
        target=spec.target,
        rate_tps=spec.rate_tps,
        duration_s=spec.duration_s,
        offered=driver.offered,
        sent=driver.offered - driver.refused,
        answered=answered,
        dropped=driver.offered - answered,
        in_flight=0,
        element_failed=target.failed,
        answer_ratio=ratio,
        latency_min_us=min(lat) if lat else None,
        latency_mean_us=round(sum(lat) / len(lat)) if lat else None,
        latency_max_us=max(lat) if lat else None,
        result_code_counts=_render_result_codes(driver.result_codes),
    )
    findings: list[Finding] = []
    if target.failed or ratio < spec.degraded_answer_ratio:
        severity = Severity.OUTAGE if target.failed else Severity.DEGRADED
        findings.append(
            Finding(
                attack_kind=spec.kind,
                severity=severity,
                taxonomy=TaxonomyLabel(
                    Origin.EXTERNAL_INTERCONNECT, Technique.FLOODING, Impact.AVAILABILITY
                ),
                evidence={
                    "target": spec.target,
                    "rate_tps": spec.rate_tps,
                    "duration_s": spec.duration_s,
                    "service_rate_tps": target.capacity.service_rate,
                    "offered": result.offered,
                    "answered": result.answered,
                    "dropped": result.dropped,
                    "answer_ratio": result.answer_ratio,
                    "element_failed": target.failed,
                },
            )
        )
    return result, findings


# --- interception ----------------------------------------------------------------


@dataclass
class InterceptResult:
    link: tuple[str, str]
    avp_codes: tuple[int, ...]
    records_captured: int
    records_decoded: int
    inventory: list[dict]  # {"avp_code", "value_hex", "value_text"}


def run_intercept(
    lab: Lab, spec: InterceptSpec
) -> tuple[InterceptResult, list[Finding], list[CaptureRecord]]:
    """Tap one link, let scenario traffic run, inventory interesting AVPs.

    On a protected link the tap stays silent, the inventory stays empty,
    and no finding is emitted. The tap comes off the link when the
    traffic ends, so later traffic on it is neither recorded nor encoded.
    The captured records are returned so the campaign can persist them
    as a capture file.
    """
    sim = lab.sim
    a, b = lab.node(spec.link[0]), lab.node(spec.link[1])
    tap = sim.attach_tap(a, b)
    try:
        lab.scenario_traffic()
    finally:
        sim.link_between(a, b).taps.remove(tap)
    records = tap.records
    wanted = set(spec.avp_codes)
    seen: dict[tuple[int, bytes], None] = {}
    decoded = 0
    for rec in records:
        msg = decode_message(rec.data)
        if isinstance(msg, ParseError):
            continue
        decoded += 1
        for avp in msg.avps:
            if avp.code in wanted:
                seen.setdefault((avp.code, avp.data), None)
    inventory = [
        {
            "avp_code": code,
            "value_hex": value.hex(),
            "value_text": as_text(value),
        }
        for (code, value) in seen
    ]
    result = InterceptResult(
        link=spec.link,
        avp_codes=spec.avp_codes,
        records_captured=len(records),
        records_decoded=decoded,
        inventory=inventory,
    )
    findings: list[Finding] = []
    if inventory:
        findings.append(
            Finding(
                attack_kind=spec.kind,
                severity=Severity.EXPOSURE,
                taxonomy=TaxonomyLabel(
                    Origin.EXTERNAL_INTERCONNECT, Technique.INTERCEPTION, Impact.CONFIDENTIALITY
                ),
                evidence={
                    "link": f"{spec.link[0]}<->{spec.link[1]}",
                    "records_captured": len(records),
                    "extracted": inventory,
                },
            )
        )
    return result, findings, records


def as_text(value: bytes) -> Optional[str]:
    """`value` as text if it is printable UTF-8, else None."""
    try:
        text = value.decode("utf-8")
    except UnicodeDecodeError:
        return None
    return text if text.isprintable() else None


# --- fuzzing --------------------------------------------------------------------

DISPOSITION_ANSWERED_ERROR = "answered-error"
DISPOSITION_ANSWERED_SUCCESS = "answered-success"
DISPOSITION_DROPPED = "dropped"
DISPOSITION_NO_RESPONSE = "no-response-timeout"
DISPOSITION_CRASH = "crash"

# The severity and taxonomy cell of each fuzz finding, built once: run_fuzz
# reads no member through its Enum class (see the note above peer.Phase).
_CRASH_FINDING = (
    Severity.OUTAGE,
    TaxonomyLabel(Origin.EXTERNAL_INTERCONNECT, Technique.MALFORMED_MESSAGE, Impact.AVAILABILITY),
)
_ACCEPTED_INVALID_FINDING = (
    Severity.INFO,
    TaxonomyLabel(Origin.EXTERNAL_INTERCONNECT, Technique.MALFORMED_MESSAGE, Impact.INTEGRITY),
)


@dataclass
class FuzzResult:
    target: str
    seed: int
    case_count: int
    ops: list[str]
    no_op_cases: int
    crash_cases: int
    accepted_invalid_cases: int
    tallies: dict[str, dict[str, int]]  # op -> disposition -> count
    result_codes: dict[str, dict[str, int]]  # op -> result code -> count


def seed_corpus(identity: str = "attacker.lab") -> list[tuple[str, Message]]:
    """Valid messages of the testbed's own protocol surface, each named; the
    attach templates are the MME's own `attach_request`s, named by command."""
    attach = [
        attach_request(step, "imsi-001001000000001", "tracking-area-1", "seed-rule")
        for step in (1, 0, 2)
    ]
    return [
        (
            "echo",
            build_message(
                dct.CMD_ECHO,
                request=True,
                avps=[Avp(code=dct.AVP_ECHO_PAYLOAD, data=b"seed-corpus")],
            ),
        ),
        ("echo-empty", build_message(dct.CMD_ECHO, request=True)),
        *[(dct.COMMAND_NAMES[msg.command_code], msg) for msg in attach],
        ("cer", build_cer(identity, APPLICATION_IDS)),
        ("dwr", build_dwr(identity)),
    ]


def run_fuzz(lab: Lab, spec: FuzzSpec) -> tuple[FuzzResult, list[Finding]]:
    """Mutation fuzz campaign against one target element, one case at a time.

    Each case is a pending request of the attack box's, whose answer, a
    base-protocol one too, reaches the case's `on_answer` (see
    `Element.on_message`): it keeps the answer and halts the case's run at
    that microsecond, or else the run ends at the timeout. The case's entry
    is then popped, so no answer to it can halt a later run, and the case
    is judged from its answer and the target's own drop counters (the
    testbed is omniscient about its elements) into one record, in case
    order: its op name and disposition, plus its bytes while it is
    unanswered. The tallies are counted from the records after the last case.

    A crash is the exception the target recorded as its own `crash` when its
    handler raised (see `Element._serve`), which also failed it; that one is
    a finding. It names the unanswered case the handler raised on, which may
    have waited in the target's queue past its own timeout: that record
    becomes the crash, and the judged case's, which the failed target drops,
    dropped. Any other exception is a fault of the testbed and propagates.
    """
    if spec.seed is None:
        raise ValueError("fuzz runs need an explicit seed")
    sim = lab.sim
    ab = lab.attack_box()
    target = lab.element(spec.target)
    pending = ab.peer_link(target.node).pending
    rng = random.Random(spec.seed)
    # Each template is encoded once; a case stamps its ids into the bytes.
    corpus = [encode_message(m) for _, m in seed_corpus(identity=ab.peer_config.identity)]
    answer: Optional[Message] = None  # the judged case's, once it arrives

    def on_answer(sent_at: int, msg: Message, now: int) -> None:
        # Every case's entry is gone before the next case is sent, so only
        # the judged case's answer gets here.
        nonlocal answer
        answer = msg
        sim.halt()  # the case is answered: its run ends with this microsecond

    def target_drops() -> int:
        failed = target.dropped_failed_inbound + target.dropped_failed_base
        return target.parse_drops + target.fsm_drops + target.dropped_overflow + failed

    ops = [op.value for op in spec.ops]  # the names, by the index a case draws
    # Drawn with choice: on CPython 3.11 it draws _randbelow(len(seq)), as
    # randrange(len(seq)) does, in fewer steps.
    named_ops = list(zip(spec.ops, ops))
    result_codes: dict[str, dict[Optional[int], int]] = {op: {} for op in ops}
    no_op_cases = 0
    findings: list[Finding] = []
    # (op name, disposition, its bytes or None once answered) of each case, in case order
    records: list[tuple[str, str, Optional[bytes]]] = []
    index_of: dict[int, int] = {}  # hop-by-hop -> case index, of each case not answered

    for i in range(spec.case_count):
        template = rng.choice(corpus)
        op, op_name = rng.choice(named_ops)
        draw = rng.getrandbits(32)
        hbh = ab.alloc_hop_by_hop(target.node)
        base = stamp_ids(template, hbh, hbh)
        case = mutate(base, op, draw)
        if case == base:
            no_op_cases += 1
        answer = None
        drops_before = target_drops()
        crashed = False
        if ab.send_raw_request(target.node, case, hbh, on_answer, sim.clock):
            try:
                sim.run_until(sim.clock + lab.config.request_timeout_us)
            except Exception as exc:
                if exc is not target.crash:
                    raise
                crashed = True
            finally:
                if answer is None:  # an answer reaches on_answer only after the pop
                    pending.pop(hbh, None)
        if crashed:
            disposition = DISPOSITION_CRASH
        elif answer is not None:
            code = result_code_of(answer)
            codes = result_codes[op_name]
            codes[code] = codes.get(code, 0) + 1
            disposition = DISPOSITION_ANSWERED_ERROR
            if code == dct.RESULT_SUCCESS:
                disposition = DISPOSITION_ANSWERED_SUCCESS
                if isinstance(decode_message(case), ParseError):
                    evidence = {"finding_type": "accepted-invalid"}
                    evidence.update(case_index=i, mutation_op=op_name, case_hex=case.hex())
                    findings.append(Finding(spec.kind, *_ACCEPTED_INVALID_FINDING, evidence))
        elif target_drops() != drops_before:
            disposition = DISPOSITION_DROPPED
        else:
            disposition = DISPOSITION_NO_RESPONSE
        if answer is None:  # a later crash can name only an unanswered case
            index_of[hbh] = i
        records.append((op_name, disposition, case if answer is None else None))
        if not crashed:
            continue
        exc = target.crash
        evidence = {"finding_type": "crash", "exception": f"{type(exc).__name__}: {exc}"}
        # the case may have been queued before this one; None: an earlier attack's request
        named = index_of.get(target.crashed_on.hop_by_hop_id)
        if named is not None:
            named_op, _, named_case = records[named]
            # The judged case is dropped, as the failed target drops it, and the named
            # case is the crash: written second, so a case that names itself stays it.
            records[i] = (op_name, DISPOSITION_DROPPED, records[i][2])
            records[named] = (named_op, DISPOSITION_CRASH, named_case)
            evidence.update(case_index=named, mutation_op=named_op, case_hex=named_case.hex())
        findings.append(Finding(spec.kind, *_CRASH_FINDING, evidence))

    tallies: dict[str, dict[str, int]] = {op: {} for op in ops}
    for op_name, disposition, _ in records:
        per_op = tallies[op_name]
        per_op[disposition] = per_op.get(disposition, 0) + 1
    result = FuzzResult(
        target=spec.target,
        seed=spec.seed,
        case_count=spec.case_count,
        ops=ops,
        no_op_cases=no_op_cases,
        crash_cases=sum(t.get(DISPOSITION_CRASH, 0) for t in tallies.values()),
        accepted_invalid_cases=sum(
            f.evidence["finding_type"] == "accepted-invalid" for f in findings
        ),
        tallies={op: dict(sorted(t.items())) for op, t in tallies.items()},
        result_codes={op: _render_result_codes(t) for op, t in result_codes.items()},
    )
    return result, findings
