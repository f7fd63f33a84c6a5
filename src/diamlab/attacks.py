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
from .elements import AttackBoxElement, Element, Lab, attach_request, result_code_of
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


AttackSpec = FloodSpec | InterceptSpec | FuzzSpec


# --- mutation operators ------------------------------------------------------

_HEADER_FLAG_BITS = (0x80, 0x40, 0x20, 0x10)
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


# Sends between sweeps of expired pending entries. A module name: CPython 3.11
# does not specialize reading a class attribute through an instance.
_REAP_EVERY = 1024


class _FloodDriver:
    """Sends one flood's requests on schedule and counts their answers.

    Every request is the one echo request built and checked when the flood
    starts (a 4-byte zero Echo-Payload); `send_app_request` gives each send
    the link's next hop-by-hop id as both ids, so each is a transaction of
    its own with the same AVPs. It counts the sends it offers and those the
    attack box refuses, which happens only while the link is not Open; the
    rest were sent, so a send that goes out counts nothing more.
    """

    def __init__(
        self,
        ab: AttackBoxElement,
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
        # and `sent_before` can match the flood's entries by identity.
        self.on_answer = self._count_answer
        # The send timer, bound once for the same reason: each send schedules it.
        self._send = self.send

    def send(self, now: int) -> None:
        """Send the flood's next request, number `offered`, and schedule the one after."""
        i = self.offered
        self.offered = i + 1
        if self.ab.send_app_request(self.target.node, self.request, self.on_answer, now) is None:
            self.refused += 1
        if i % _REAP_EVERY == 0:
            self.reap(now)
        if i + 1 < self.count:
            # Rounded from the exact schedule, so the error never adds up over the flood.
            at = self.start + round((i + 1) * US_PER_S / self.rate_tps)
            self.sim.schedule_timer(at, self._send)

    def sent_before(self, cutoff: int) -> list[int]:
        """Hop-by-hop ids of this flood's unanswered requests sent before `cutoff`.

        The link's pending table is in send order and answers have already
        left it, so they are at its front. Entries of other senders (a probe,
        a fuzz case) are skipped.
        """
        mine = self.on_answer
        ids = []
        for hbh, (sent_at, on_answer) in self.ab.peer_link(self.target.node).pending.items():
            if sent_at >= cutoff:
                break
            if on_answer is mine:
                ids.append(hbh)
        return ids

    def reap(self, now: int) -> None:
        """Give up on requests past the answer timeout; keeps the pending table small."""
        dead = self.sent_before(now - self.timeout_us)
        if dead:
            self.ab.forget_pending_many(self.target.node, dead)

    def _count_answer(self, sent_at, msg, now) -> None:
        self.latencies.append(now - sent_at)
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
    requests drain; whatever is still unanswered then is counted as
    dropped and its pending entries are reclaimed.
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

    # Reconcile: anything still pending can no longer be answered. An int
    # cutoff past every send: the compare with each entry's sent_at stays
    # specialized, as it is for the reaps, where math.inf would undo that.
    ab.forget_pending_many(target.node, driver.sent_before(sim.clock + 1))
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
    """Valid messages of the testbed's own protocol surface; the attach
    templates are the MME's own `attach_request`s."""

    def attach_step(name: str, step: int) -> tuple[str, Message]:
        return name, attach_request(step, "imsi-001001000000001", "tracking-area-1", "seed-rule")

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
        attach_step("profile-query", 1),
        attach_step("location-update", 0),
        attach_step("policy-install", 2),
        ("cer", build_cer(identity, APPLICATION_IDS)),
        ("dwr", build_dwr(identity)),
    ]


def run_fuzz(lab: Lab, spec: FuzzSpec) -> tuple[FuzzResult, list[Finding]]:
    """Mutation fuzz campaign against one target element, one case at a time.

    Dispositions are judged from the attacker's answers plus the
    target's own drop counters (the testbed is omniscient about its
    elements). A crash is the exception the target recorded as its own
    `crash` when its handler raised (see `Element._serve`), which also
    failed it; that one is a finding, and it names the case the handler
    raised on, which may have waited in the target's queue past its own
    timeout. The tallies count that case as the crash and the case being
    judged, which the failed target drops, as dropped. Any other exception
    is a fault of the testbed and propagates.

    Each case is a pending request of the attack box's: its answer, a
    base-protocol one too, reaches the run through the case's entry (see
    `Element.on_message`).
    """
    if spec.seed is None:
        raise ValueError("fuzz runs need an explicit seed")
    sim = lab.sim
    ab = lab.attack_box()
    target = lab.element(spec.target)
    rng = random.Random(spec.seed)
    # Each template is encoded once; a case stamps its ids into the bytes.
    corpus = [encode_message(m) for _, m in seed_corpus(identity=ab.peer_config.identity)]
    answers: dict[int, Optional[int]] = {}  # hop-by-hop -> result code, of each case answered

    def on_answer(sent_at: int, msg: Message, now: int) -> None:
        # Every case's entry is gone before the next case is sent, so only
        # the judged case's answer gets here.
        answers[msg.hop_by_hop_id] = result_code_of(msg)
        sim.halt()  # the case is answered: its run ends with this microsecond

    def target_drops() -> int:
        failed = target.dropped_failed_inbound + target.dropped_failed_base
        return target.parse_drops + target.fsm_drops + target.dropped_overflow + failed

    def judge(case: bytes, hbh: int, codes: dict[Optional[int], int]) -> str:
        """Send one case and run until it is answered, dropped, crashes the
        target or times out; an answer's result code is tallied in `codes`.
        The run ends at the answer's microsecond (the case's `on_answer`
        halts it), or at the timeout. The case's pending entry is forgotten
        however the run ends, unless its answer popped it, so no answer to
        it can halt a later run."""
        drops_before = target_drops()
        if not ab.send_raw_request(target.node, case, hbh, on_answer, sim.clock):
            return DISPOSITION_NO_RESPONSE
        try:
            sim.run_until(sim.clock + lab.config.request_timeout_us)
        except Exception as exc:
            if exc is target.crash:
                return DISPOSITION_CRASH
            raise
        finally:
            if hbh not in answers:  # an answer reaches on_answer only after the pop
                ab.forget_pending_many(target.node, (hbh,))
        if hbh not in answers:
            if target_drops() != drops_before:
                return DISPOSITION_DROPPED
            return DISPOSITION_NO_RESPONSE
        code = answers[hbh]
        codes[code] = codes.get(code, 0) + 1
        if code == dct.RESULT_SUCCESS:
            return DISPOSITION_ANSWERED_SUCCESS
        return DISPOSITION_ANSWERED_ERROR

    ops = [op.value for op in spec.ops]  # the names, by the index a case draws
    # Drawn with choice: on CPython 3.11 it draws _randbelow(len(seq)), as
    # randrange(len(seq)) does, in fewer steps.
    named_ops = list(zip(spec.ops, ops))
    tallies: dict[str, dict[str, int]] = {op: {} for op in ops}
    result_codes: dict[str, dict[Optional[int], int]] = {op: {} for op in ops}
    no_op_cases = 0
    findings: list[Finding] = []
    unanswered: dict[int, tuple[int, MutationOp, bytes]] = {}  # hop-by-hop -> (index, op, case)
    dispositions: list[str] = []  # of each case, in case order

    for i in range(spec.case_count):
        template = rng.choice(corpus)
        op, op_name = rng.choice(named_ops)
        draw = rng.getrandbits(32)
        hbh = ab.alloc_hop_by_hop(target.node)
        base = stamp_ids(template, hbh, hbh)
        case = mutate(base, op, draw)
        if case == base:
            no_op_cases += 1
        unanswered[hbh] = (i, op, case)
        disposition = judge(case, hbh, result_codes[op_name])
        if hbh in answers:
            del unanswered[hbh]

        evidence: Optional[dict] = None
        if disposition == DISPOSITION_CRASH:
            exc = target.crash
            severity, label = _CRASH_FINDING
            evidence = {"finding_type": "crash", "exception": f"{type(exc).__name__}: {exc}"}
            # the case may have been queued before this one; None: an earlier attack's request
            named = unanswered.get(target.crashed_on.hop_by_hop_id)
            if named is not None and named[0] != i:
                # That case is tallied crash, and this one dropped: the failed
                # target drops it, queued or arriving later.
                index, named_op, _ = named
                earlier = tallies[named_op.value]
                earlier[dispositions[index]] -= 1
                earlier[DISPOSITION_CRASH] = earlier.get(DISPOSITION_CRASH, 0) + 1
                disposition = DISPOSITION_DROPPED
        elif disposition == DISPOSITION_ANSWERED_SUCCESS and isinstance(
            decode_message(case), ParseError
        ):
            severity, label = _ACCEPTED_INVALID_FINDING
            evidence, named = {"finding_type": "accepted-invalid"}, (i, op, case)
        per_op = tallies[op_name]
        per_op[disposition] = per_op.get(disposition, 0) + 1
        dispositions.append(disposition)
        if evidence is None:
            continue
        if named is not None:
            index, named_op, named_case = named
            evidence.update(
                case_index=index, mutation_op=named_op.value, case_hex=named_case.hex()
            )
        findings.append(Finding(spec.kind, severity, label, evidence))
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
        tallies={op: {d: n for d, n in sorted(t.items()) if n} for op, t in tallies.items()},
        result_codes={op: _render_result_codes(t) for op, t in result_codes.items()},
    )
    return result, findings
