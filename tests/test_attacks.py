"""Attack engine: mutation operators, flood/intercept/fuzz runners."""

import cProfile
import heapq
import itertools
import math
import pstats
import sys
from collections import Counter, deque
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamlab import attacks, codec
from diamlab import dictionary as dct
from diamlab.attacks import (
    ALL_MUTATION_OPS,
    DISPOSITION_ANSWERED_ERROR,
    DISPOSITION_ANSWERED_SUCCESS,
    DISPOSITION_CRASH,
    DISPOSITION_DROPPED,
    FloodSpec,
    FuzzResult,
    FuzzSpec,
    InterceptSpec,
    MutationOp,
    Severity,
    _FloodDriver,
    _render_result_codes,
    as_text,
    mutate,
    run_flood,
    run_fuzz,
    run_intercept,
    seed_corpus,
)
from diamlab.campaign import broken_identities
from diamlab.codec import (
    Avp,
    Message,
    ParseError,
    ParseErrorKind,
    build_answer,
    build_message,
    decode_message,
    encode_message,
    validate_message,
    ViolationKind,
)
from diamlab.elements import result_code_of
from diamlab.peer import PeerAction, PeerState, Phase, result_code_avp
from diamlab.simnet import US_PER_S

from tests.labs import core_lab_text, duo_lab_text, make_lab


def sample_bytes(n_avps=2) -> bytes:
    avps = [Avp(code=dct.AVP_ECHO_PAYLOAD, data=bytes([i] * 5)) for i in range(n_avps)]
    return encode_message(
        build_message(dct.CMD_ECHO, request=True, hop_by_hop_id=5, end_to_end_id=5, avps=avps)
    )


def fluid_drops(rate: float, capacity: float, queue: int, duration: float) -> float:
    """Independent closed-form oracle for constant-rate overload."""
    return max(0.0, (rate - capacity) * duration - queue)


class TestMutationOps:
    @pytest.mark.parametrize("op", ALL_MUTATION_OPS)
    @given(draw=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, op, draw):
        data = sample_bytes()
        assert mutate(data, op, draw) == mutate(data, op, draw)

    @given(draw=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_corrupt_version_forces_bad_version(self, draw):
        out = decode_message(mutate(sample_bytes(), MutationOp.CORRUPT_VERSION, draw))
        assert out == ParseError(ParseErrorKind.BAD_VERSION, 0)

    @given(draw=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_truncate_forces_truncated(self, draw):
        out = decode_message(mutate(sample_bytes(), MutationOp.TRUNCATE, draw))
        assert isinstance(out, ParseError)
        assert out.kind is ParseErrorKind.TRUNCATED

    def test_truncate_minimal_header_only_message(self):
        data = encode_message(build_message(dct.CMD_ECHO, request=True))
        assert len(data) == 20
        out = decode_message(mutate(data, MutationOp.TRUNCATE, 0))
        assert out.kind is ParseErrorKind.TRUNCATED

    @given(draw=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_inflate_length_forces_truncated(self, draw):
        out = decode_message(mutate(sample_bytes(), MutationOp.INFLATE_LENGTH, draw))
        assert isinstance(out, ParseError)
        assert out.kind is ParseErrorKind.TRUNCATED

    @given(draw=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_zero_length_avp_forces_bad_length(self, draw):
        out = decode_message(mutate(sample_bytes(), MutationOp.ZERO_LENGTH_AVP, draw))
        assert isinstance(out, ParseError)
        assert out.kind is ParseErrorKind.BAD_LENGTH

    @given(draw=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_set_mandatory_unknown_avp_stays_decodable(self, draw):
        mutated = mutate(sample_bytes(), MutationOp.SET_MANDATORY_UNKNOWN_AVP, draw)
        msg = decode_message(mutated)
        assert isinstance(msg, Message)
        violations = validate_message(msg, dct.BUILTIN_DICTIONARY)
        assert any(v.kind is ViolationKind.UNSUPPORTED_MANDATORY_AVP for v in violations)

    @pytest.mark.parametrize("draw", [0, 1, 99_999, 100_000, 123_456_789, 2**32 - 1])
    def test_set_mandatory_unknown_avp_appends_these_bytes(self, draw):
        base = sample_bytes()
        code = 900_000 + draw % 100_000
        avp = code.to_bytes(4, "big") + b"\x40" + (12).to_bytes(3, "big") + draw.to_bytes(4, "big")
        length = (int.from_bytes(base[1:4], "big") + 12).to_bytes(3, "big")
        expected = base[:1] + length + base[4:] + avp
        assert mutate(base, MutationOp.SET_MANDATORY_UNKNOWN_AVP, draw) == expected

    @given(draw=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_flip_flag_touches_exactly_one_defined_bit(self, draw):
        data = sample_bytes()
        mutated = mutate(data, MutationOp.FLIP_FLAG, draw)
        assert mutated != data
        diff = data[4] ^ mutated[4]
        assert diff in (0x80, 0x40, 0x20, 0x10)
        assert data[:4] == mutated[:4] and data[5:] == mutated[5:]

    @given(draw=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_shuffle_preserves_avps_as_multiset(self, draw):
        data = sample_bytes(n_avps=4)
        mutated = mutate(data, MutationOp.SHUFFLE_AVPS, draw)
        original, shuffled = decode_message(data), decode_message(mutated)
        assert isinstance(shuffled, Message)
        assert sorted(a.data for a in original.avps) == sorted(a.data for a in shuffled.avps)
        assert replace(original, avps=shuffled.avps) == shuffled

    def test_shuffle_single_avp_is_noop(self):
        data = sample_bytes(n_avps=1)
        assert mutate(data, MutationOp.SHUFFLE_AVPS, 3) == data

    def test_ops_are_noops_on_tiny_inputs_not_errors(self):
        for op in ALL_MUTATION_OPS:
            out = mutate(b"", op, 17)
            assert isinstance(out, bytes)

    def test_seed_corpus_is_valid_and_clean(self):
        d = dct.BUILTIN_DICTIONARY
        for name, msg in seed_corpus():
            encoded = encode_message(msg)
            decoded = decode_message(encoded)
            assert decoded == msg, name
            assert validate_message(decoded, d) == [], name

    def test_seed_corpus_bytes_are_pinned(self):
        encoded = [(name, encode_message(msg).hex()) for name, msg in seed_corpus()]
        assert encoded == list(SEED_CORPUS_HEX.items())


SEED_CORPUS_HEX = {
    "echo": "01000028800002bc000000000000000000000000000007d500000013736565642d636f7270757300",
    "echo-empty": "01000014800002bc000000000000000000000000",
    "profile-query": (
        "01000030800002bd000000000000000000000000000007d04000001c696d73692d30303130303130"
        "3030303030303031"
    ),
    "location-update": (
        "01000048800002be000000000000000000000000000007d04000001c696d73692d30303130303130"
        "3030303030303031000007d140000017747261636b696e672d617265612d3100"
    ),
    "policy-install": (
        "01000050800002bf000000000000000000000000000007d340000011736565642d72756c65000000"
        "000007d04000001c696d73692d303031303031303030303030303031000007d44000000c00000009"
    ),
    "cer": (
        "0100003480000101000000000000000000000000000001084000001461747461636b65722e6c6162"
        "000001024000000c00000000"
    ),
    "dwr": "0100002880000118000000000000000000000000000001084000001461747461636b65722e6c6162",
}


class TestFlood:
    def test_fluid_model_agreement(self):
        _, lab = make_lab(duo_lab_text(service_rate=1000, queue_capacity=100))
        result, findings = run_flood(
            lab, FloodSpec(target="target", rate_tps=2000, duration_s=10)
        )
        expected = fluid_drops(2000, 1000, 100, 10)
        tolerance = max(0.02 * expected, 10)
        assert abs(result.dropped - expected) <= tolerance
        assert result.offered == 20000
        assert not result.element_failed
        assert findings and findings[0].severity is Severity.DEGRADED

    @pytest.mark.parametrize(
        "rate,capacity,queue,duration",
        [(300, 100, 20, 4), (150, 100, 10, 4), (80, 100, 10, 4)],
    )
    def test_fluid_model_across_operating_points(self, rate, capacity, queue, duration):
        _, lab = make_lab(duo_lab_text(service_rate=capacity, queue_capacity=queue))
        result, _ = run_flood(
            lab, FloodSpec(target="target", rate_tps=rate, duration_s=duration)
        )
        expected = fluid_drops(rate, capacity, queue, duration)
        assert abs(result.dropped - expected) <= max(0.02 * expected, 10)

    def test_under_capacity_no_findings(self):
        _, lab = make_lab(duo_lab_text(service_rate=1000, queue_capacity=100))
        result, findings = run_flood(
            lab, FloodSpec(target="target", rate_tps=500, duration_s=10)
        )
        assert findings == []
        assert result.answer_ratio > 0.99
        assert not result.element_failed

    def test_failure_threshold_produces_outage(self):
        _, lab = make_lab(
            duo_lab_text(service_rate=1000, queue_capacity=100, failure_threshold_s=5)
        )
        start = lab.sim.clock
        result, findings = run_flood(
            lab, FloodSpec(target="target", rate_tps=2000, duration_s=10)
        )
        target = lab.element("target")
        assert result.element_failed and target.failed
        fail_at_s = (target.failed_at - start) / 1_000_000
        assert 4.0 <= fail_at_s <= 6.5
        assert [f.severity for f in findings] == [Severity.OUTAGE]
        assert findings[0].evidence["element_failed"] is True

    def test_conservation(self):
        cases = [
            (dict(service_rate=200, queue_capacity=20), 400, 5),
            # fails after 2 s and outlasts a watchdog interval: the DWRs the
            # failed target drops are not flood requests
            (dict(service_rate=100, queue_capacity=10, failure_threshold_s=2), 200, 70),
            # the target drops nothing, but its 10 s deep queue answers
            # 1,201 requests after the 2 s timeout, and the flood does not
            # count those answers
            (dict(service_rate=100, queue_capacity=1000), 300, 5),
            # a 10 s deep queue again, under 1,024 sends and over them
            (dict(service_rate=10, queue_capacity=100), 50, 5),
            (dict(service_rate=10, queue_capacity=100), 210, 5),
        ]
        splits = []
        for capacity, rate_tps, duration_s in cases:
            _, lab = make_lab(duo_lab_text(**capacity))
            ab, target = lab.attack_box(), lab.element("target")
            fsm_drops = ab.fsm_drops
            spec = FloodSpec(target="target", rate_tps=rate_tps, duration_s=duration_s)
            result, _ = run_flood(lab, spec)
            assert result.offered == result.answered + result.dropped + result.in_flight
            element_side = (
                target.dropped_overflow + target.dropped_at_failure + target.dropped_failed_inbound
            )
            # loss-free link: the element dropped the request, or served it
            # and its answer came too late to count
            late = target.direct_served + target.drained_served - result.answered
            assert result.dropped == element_side + late
            assert ab.fsm_drops == fsm_drops  # a late answer still finds its request
            assert result.latency_max_us <= lab.config.request_timeout_us
            splits.append((element_side, late))
        assert splits == [(980, 0), (13802, 0), (0, 1201), (100, 125), (900, 129)]

    def test_send_timers_left_by_a_flood_do_not_feed_the_next(self, monkeypatch):
        _, lab = make_lab(duo_lab_text(queue_capacity=0, latency_ms=0.1))
        # 1,500 sends within 1 ms and no settling time: the run ends just after the last
        monkeypatch.setattr(attacks, "SETTLE_GRACE_US", 0)
        first = FloodSpec(target="target", rate_tps=1.5e6, duration_s=0.001)
        result, _ = run_flood(lab, first)
        assert result.offered == 1500
        second, _ = run_flood(lab, FloodSpec(target="target", rate_tps=100, duration_s=0.05))
        assert second.offered == 5 and second.sent == 5

    def test_a_flood_on_a_link_that_is_not_open_refuses_every_send(self):
        # The attack box refuses a send while its link is not Open: no
        # pending entry, nothing on the wire, and every request is dropped.
        _, lab = make_lab(duo_lab_text(), open_links=False)
        link = lab.attack_box().peer_link(lab.node("target"))
        assert link.state.phase is not Phase.OPEN
        attempted = link.route.link.attempted
        spec = FloodSpec(target="target", rate_tps=1000, duration_s=0.05)
        result, _ = run_flood(lab, spec)
        assert result.offered == spec.count == 50
        assert (result.sent, result.answered, result.dropped) == (0, 0, result.offered)
        assert link.pending == {} and link.route.link.attempted == attempted
        assert lab.element("target").offered == 0

    @pytest.mark.parametrize("rate", [235_000, 600_000])
    def test_sends_keep_the_configured_rate(self, rate, monkeypatch):
        # neither rate is a whole number of microseconds apart: 4.26 us and 1.67 us
        _, lab = make_lab(duo_lab_text())
        ab = lab.attack_box()
        sent_at = []
        send = ab.send_app_request

        def record(dst, request, on_answer, now):
            sent_at.append(now)
            return send(dst, request, on_answer, now)

        monkeypatch.setattr(ab, "send_app_request", record)
        start = lab.sim.clock
        spec = FloodSpec(target="target", rate_tps=rate, duration_s=0.01)
        result, _ = run_flood(lab, spec)
        assert len(sent_at) == result.offered == spec.count
        assert sent_at[0] == start
        assert sent_at[-1] == start + round((spec.count - 1) * 10**6 / rate)

    @given(
        count=st.integers(1, 1500),
        rate=st.floats(0.5, 2e6),
        slack=st.floats(-0.49, 0.49),
        grace=st.sampled_from([0, attacks.SETTLE_GRACE_US]),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_send_timer_outlives_the_flood(self, count, rate, slack, grace):
        # the tightest horizon: no queue to drain, no latency, optionally no settling
        _, lab = make_lab(duo_lab_text(queue_capacity=0, latency_ms=0))
        spec = FloodSpec(target="target", rate_tps=rate, duration_s=(count + slack) / rate)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(attacks, "SETTLE_GRACE_US", grace)
            result, _ = run_flood(lab, spec)
        assert result.offered == spec.count
        timers = [e[2] for e in lab.sim.due_events() if e[1] is None]
        assert [t for t in timers if getattr(t, "__func__", None) is _FloodDriver.send] == []

    def test_a_flood_sends_one_request_with_each_sends_own_ids(self, monkeypatch):
        # overloaded, so the target also drops requests on its full queue
        _, lab = make_lab(duo_lab_text(service_rate=500, queue_capacity=100, latency_ms=5))
        target = lab.element("target")
        received = []
        on_message = target.on_message

        def record(src, payload, now):
            if isinstance(payload, Message) and payload.command_code == dct.CMD_ECHO:
                received.append(payload)
            on_message(src, payload, now)

        monkeypatch.setattr(target, "on_message", record)
        calls = count_codec_calls(monkeypatch)
        result, _ = run_flood(lab, FloodSpec(target="target", rate_tps=1000, duration_s=0.5))
        assert calls["build_message"] == 1
        assert len(received) == result.offered == 500 and target.dropped_overflow > 0
        assert received[0].avps == (Avp(dct.AVP_ECHO_PAYLOAD, bytes(4)),)
        assert all(m.request and m.avps is received[0].avps for m in received)
        assert all(m.hop_by_hop_id == m.end_to_end_id for m in received)
        assert len({m.hop_by_hop_id for m in received}) == len(received)

    def test_no_false_outage(self):
        _, lab = make_lab(duo_lab_text(service_rate=1000, queue_capacity=100))
        _, findings = run_flood(lab, FloodSpec(target="target", rate_tps=1500, duration_s=5))
        for finding in findings:
            if finding.severity is Severity.OUTAGE:
                assert lab.element("target").failed


# Simulated work per flood request, as exact counts over the flood's offered
# requests: a change to any of them shows here, and the change that makes it
# says why. Each case floods the duo lab for 1 s at `rate` TPS over
# `latency_ms` links. "served" has a capacity of the rate and a queue of
# 1,000, "overloaded" half the rate and a queue of 100. "idle" sends 10
# requests to a capacity of 0.001 TPS: the sampler and watchdog timers of its
# long drain outweigh the requests (with the two events that open the link,
# the lab processes 104,591).
# The last four counts are the frozen values built, as cProfile rows of
# each class's generated __new__. The flood builds its one request, one Avp
# and one Message, when it starts. Then an answered echo request builds two
# Messages (its send's copy with the link's ids, and its answer), a request
# dropped on a full queue one. Nothing else is built per request: the
# pending entry is a plain pair. Only the idle case's watchdogs build
# PeerActions and PeerStates, and more Avps and Messages.
_COST_CASES = {
    # id: (rate, latency_ms, service_rate, queue_capacity,
    #      (offered, events, events scheduled, messages built by build_message,
    #       build_answer or replace_ids, encode_message, decode_message,
    #       Avp, Message, PeerAction and PeerState values built))
    "500-served": (500, 5, 500, 1000, (500, 1510, 1510, 1001, 0, 0, 1, 1001, 0, 0)),
    "500-overloaded": (500, 5, 250, 100, (500, 1705, 1705, 851, 0, 0, 1, 851, 0, 0)),
    "2000-served": (2000, 5, 2000, 1000, (2000, 6006, 6006, 4001, 0, 0, 1, 4001, 0, 0)),
    "2000-overloaded": (2000, 5, 1000, 100, (2000, 6205, 6205, 3101, 0, 0, 1, 3101, 0, 0)),
    "8000-served": (8000, 5, 8000, 1000, (8000, 24006, 24006, 16001, 0, 0, 1, 16001, 0, 0)),
    "8000-overloaded": (8000, 5, 4000, 100, (8000, 24205, 24205, 12101, 0, 0, 1, 12101, 0, 0)),
    # sends 31 or 32 us apart against a token every 31.25 us: each request
    # also waits for a drain timer
    "32000-served": (
        32000, 5, 32000, 1000, (32000, 128005, 128005, 64001, 0, 0, 1, 64001, 0, 0)
    ),
    "32000-overloaded": (
        32000, 5, 16000, 100, (32000, 95951, 95951, 47974, 0, 0, 1, 47974, 0, 0)
    ),
    "8000-served-1ms": (8000, 1, 8000, 1000, (8000, 24006, 24006, 16001, 0, 0, 1, 16001, 0, 0)),
    "8000-served-100ms": (
        8000, 100, 8000, 1000, (8000, 24006, 24006, 16001, 0, 0, 1, 16001, 0, 0)
    ),
    "8000-served-1000ms": (
        8000, 1000, 8000, 1000, (8000, 24010, 24010, 16001, 0, 0, 1, 16001, 0, 0)
    ),
    "idle": (10, 5, 0.001, 100, (10, 104589, 104586, 733, 0, 0, 479, 733, 479, 479)),
}

# The filenames the generated __new__ of each codec.slot_init class is
# compiled under, in the order of the table's last four counts; the
# generated codec.replace_ids is compiled under Message's.
_SLOT_INIT_FILES = [
    f"<{cls.__module__}.{cls.__qualname__}>" for cls in (Avp, Message, PeerAction, PeerState)
]


def count_codec_calls(monkeypatch) -> Counter:
    """Calls of build_message, build_answer, replace_ids, encode_message and
    decode_message from here on, from every diamlab module that bound them
    by name."""
    calls = Counter()
    names = ("build_message", "build_answer", "replace_ids", "encode_message", "decode_message")
    for name in names:
        function = getattr(codec, name)

        def counted(*args, _name=name, _function=function, **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("diamlab") and getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("case", list(_COST_CASES))
def test_cost_per_request(case, monkeypatch):
    rate, latency_ms, service_rate, queue_capacity, expected = _COST_CASES[case]
    _, lab = make_lab(
        duo_lab_text(service_rate=service_rate, queue_capacity=queue_capacity, latency_ms=latency_ms)
    )
    calls = count_codec_calls(monkeypatch)
    sim = lab.sim
    events, scheduled = sim.events_processed, sim.events_scheduled()
    profile = cProfile.Profile()
    profile.enable()
    result, _ = run_flood(lab, FloodSpec(target="target", rate_tps=rate, duration_s=1))
    profile.disable()
    # as test_profilers_keep_each_generated_new_apart reads them; a Message
    # is also built by replace_ids, generated under Message's filename
    built = Counter()
    for (filename, _, name), (_, n, *_) in pstats.Stats(profile).stats.items():
        if name in ("__new__", "replace_ids") and filename.startswith("<diamlab."):
            built[filename] += n
    assert set(built) <= set(_SLOT_INIT_FILES)  # no other value type is built
    assert (
        result.offered,
        sim.events_processed - events,
        sim.events_scheduled() - scheduled,
        calls["build_message"] + calls["build_answer"] + calls["replace_ids"],
        calls["encode_message"],
        calls["decode_message"],
        *(built.get(filename, 0) for filename in _SLOT_INIT_FILES),
    ) == expected


def reference_flood(start, count, rate, latency, service_rate, queue_capacity, threshold_s,
                    timeout, horizon):
    """The capacity model from its definition, in exact rationals.

    A flood of `count` requests from `start` at `rate` per second meets a
    token bucket (`service_rate` tokens per second, burst of one) in front
    of a FIFO of `queue_capacity`, drained by a timer due at the ceil of
    the time the missing token takes. A 1 Hz sample on the lab's grid
    fails the element after ceil(`threshold_s`) non-empty samples in a
    row. Answers come back after `latency`; the flood counts those that
    land by `horizon` and at most `timeout` after their request's send.
    Due events run in the order they were scheduled. Returns (sent,
    answered, failed_at, target counters).
    """
    events, seq = [], itertools.count()

    def at(t, kind, i=None):
        heapq.heappush(events, (t, next(seq), kind, i))

    per_us = Fraction(service_rate) / 1_000_000
    tokens, last, queue, drain_due, streak, failed_at = Fraction(1), 0, deque(), False, 0, None
    n = Counter(offered=0, accepted=0, queued=0, overflow=0, drained=0, at_failure=0)
    sent_at, answered = [], 0
    at(1_000_000, "sample")  # the samplers start when the lab is built
    at(start, "send", 0)
    while events and events[0][0] <= horizon:
        now, _, kind, i = heapq.heappop(events)
        if kind == "send":
            sent_at.append(now)
            at(now + latency, "arrive", i)
            if i + 1 < count:
                at(start + round((i + 1) * 1_000_000 / rate), "send", i + 1)
            continue
        if kind == "answer":
            answered += now - sent_at[i] <= timeout
            continue
        if failed_at is not None:
            continue
        tokens, last = min(1, tokens + per_us * (now - last)), now
        if kind == "arrive":
            n["offered"] += 1
            if tokens >= 1 and not queue:
                tokens -= 1
                n["accepted"] += 1
                at(now + latency, "answer", i)
            elif len(queue) < queue_capacity:
                queue.append(i)
                n["queued"] += 1
            else:
                n["overflow"] += 1
        elif kind == "drain":
            drain_due = False
            while tokens >= 1 and queue:
                tokens -= 1
                n["drained"] += 1
                at(now + latency, "answer", queue.popleft())
        else:
            streak = streak + 1 if queue else 0
            if streak >= math.ceil(threshold_s):
                failed_at, n["at_failure"] = now, len(queue)
                queue.clear()
                continue
            at(now + 1_000_000, "sample")
        if queue and not drain_due:
            at(now + max(1, math.ceil((1 - tokens) / per_us)), "drain")
            drain_due = True
    return len(sent_at), answered, failed_at, dict(n)


class TestCapacityOracle:
    """The flood against `reference_flood`: equal counts, not a tolerance."""

    @given(
        rate=st.floats(5, 4000),
        duration=st.floats(0.2, 4),
        service_rate=st.one_of(st.integers(5, 2000), st.floats(5, 2000)),
        queue_capacity=st.integers(0, 200),
        latency_ms=st.one_of(st.integers(0, 50), st.floats(0, 50)),
        threshold=st.one_of(st.floats(0.5, 6), st.just(3600)),
    )
    # an answer that lands after the timeout
    @example(rate=500, duration=4, service_rate=5, queue_capacity=200, latency_ms=5, threshold=3600)
    # token fractions that sum to exactly one (0.884 + 0.116), which floats missed
    @example(rate=3109, duration=0.3943250152677322, service_rate=1000, queue_capacity=200,
             latency_ms=41.49264518294957, threshold=3.7086012170026716)
    @settings(max_examples=50, deadline=None)
    def test_flood_equals_the_reference_model(
        self, rate, duration, service_rate, queue_capacity, latency_ms, threshold
    ):
        _, lab = make_lab(
            duo_lab_text(
                service_rate=service_rate,
                queue_capacity=queue_capacity,
                failure_threshold_s=threshold,
                latency_ms=latency_ms,
            )
        )
        spec = FloodSpec(target="target", rate_tps=rate, duration_s=min(duration, 2000 / rate))
        start = lab.sim.clock
        result, _ = run_flood(lab, spec)
        target = lab.element("target")
        expected = reference_flood(
            start,
            spec.count,
            rate,
            lab.max_latency_us(),
            target.capacity.service_rate,
            queue_capacity,
            threshold,
            lab.config.request_timeout_us,
            horizon=lab.sim.clock,  # run_flood runs the clock to its horizon
        )
        sent, answered, failed_at, counters = expected
        assert (result.offered, result.answered, result.dropped) == (
            sent, answered, sent - answered
        )
        assert (result.element_failed, target.failed_at) == (failed_at is not None, failed_at)
        timeout = lab.config.request_timeout_us
        assert result.latency_max_us is None or result.latency_max_us <= timeout
        assert {
            "offered": target.offered,
            "accepted": target.direct_served,
            # every queued request is drained, dropped at the failure or still queued
            "queued": target.drained_served + target.dropped_at_failure + len(target.queue),
            "overflow": target.dropped_overflow,
            "drained": target.drained_served,
            "at_failure": target.dropped_at_failure,
        } == counters


# A request of another sender than the flood.
_ECHO_REQUEST = build_message(dct.CMD_ECHO, request=True)


class _StubBox:
    """Just enough of an attack box and a simulation to drive a _FloodDriver:
    one pending table, kept in send order like `Element`'s."""

    node = None

    def __init__(self):
        self.sim = self
        self.next_id = 1
        self.pending = {}

    def peer_link(self, dst):
        return self

    def send_app_request(self, dst, request, on_answer, now):
        hbh, self.next_id = self.next_id, self.next_id + 1
        self.pending[hbh] = (now, on_answer)
        return hbh

    def answer(self, hbh, now):
        sent_at, on_answer = self.pending.pop(hbh)
        if on_answer is not None:
            on_answer(sent_at, build_message(dct.CMD_ECHO), now)

    def forget_pending_many(self, dst, hop_by_hop_ids):
        return sum(self.pending.pop(hbh, None) is not None for hbh in hop_by_hop_ids)

    def schedule_timer(self, at, fire):
        pass


class TestFloodReconcile:
    def test_reconcile_forgets_every_flood_entry_and_only_those(self):
        box = _StubBox()
        driver = _FloodDriver(box, box, 10, start=0, rate_tps=1e6, timeout_us=10**9)
        for now in (1, 2, 3):
            driver.send(now)
        foreign = box.send_app_request(None, _ECHO_REQUEST, None, 4)
        driver.send(5)
        box.answer(2, 6)
        assert driver.pending_ids() == [1, 3, 5]
        box.forget_pending_many(None, driver.pending_ids())
        assert list(box.pending) == [foreign]


class TestFloodCallback:
    def test_a_flood_stores_one_answer_callback(self):
        box = _StubBox()
        driver = _FloodDriver(box, box, 10, start=0, rate_tps=1e6, timeout_us=10**9)
        for now in (1, 2, 3, 4):
            driver.send(now)
        callbacks = [on_answer for _, on_answer in box.pending.values()]
        assert len(callbacks) == 4
        assert all(c is driver.on_answer for c in callbacks)
        box.answer(2, 7)
        assert driver.latencies == [5]

    def test_an_answer_counts_only_within_the_timeout(self):
        box = _StubBox()
        driver = _FloodDriver(box, box, 10, start=0, rate_tps=1e6, timeout_us=5)
        for now in (1, 2):
            driver.send(now)
        box.answer(1, 6)  # after exactly the timeout
        box.answer(2, 8)  # one microsecond past it
        assert driver.latencies == [5]
        assert driver.result_codes == {None: 1}

    def test_result_code_counts_equal_a_tally_of_every_answer(self, monkeypatch):
        # The driver reads an answer's result code once per AVP tuple. Here
        # the target mixes its shared echo answer tuple with error answers
        # that each have a tuple of their own and bare answers that share
        # the empty tuple; the reference reads the code of every answer.
        _, lab = make_lab(duo_lab_text(service_rate=500, queue_capacity=100, latency_ms=5))
        ab, target = lab.attack_box(), lab.element("target")
        pending = ab.peer_link(target.node).pending
        handle_request, on_message = target.app.handle_request, ab.on_message
        served = itertools.count()
        reference = Counter()

        def mixed(msg, now):
            n = next(served)
            if n % 5 == 0:
                return build_answer(msg)
            if n % 3 == 0:
                return build_answer(msg, [result_code_avp(dct.RESULT_COMMAND_UNSUPPORTED)], True)
            return handle_request(msg, now)

        def tally(src, msg, now):
            if not msg.request and msg.hop_by_hop_id in pending:
                reference[result_code_of(msg)] += 1
            on_message(src, msg, now)

        monkeypatch.setattr(target.app, "handle_request", mixed)
        monkeypatch.setattr(ab, "on_message", tally)
        result, _ = run_flood(lab, FloodSpec(target="target", rate_tps=1000, duration_s=0.5))
        assert result.result_code_counts == _render_result_codes(reference)
        assert set(reference) == {None, dct.RESULT_SUCCESS, dct.RESULT_COMMAND_UNSUPPORTED}
        assert sum(reference.values()) == result.answered

    def test_latencies_are_each_answers_time_less_its_requests_send_time(self, monkeypatch):
        # overloaded, so requests wait in the target's queue for different times
        _, lab = make_lab(duo_lab_text(service_rate=500, queue_capacity=100, latency_ms=5))
        ab, target = lab.attack_box(), lab.element("target")
        pending = ab.peer_link(target.node).pending
        drivers, sent_at, answered_at = [], {}, []

        class Driver(_FloodDriver):
            def __init__(self, *args):
                super().__init__(*args)
                drivers.append(self)

        send_app_request, on_message = ab.send_app_request, ab.on_message

        def record_send(dst, request, on_answer, now):
            hbh = send_app_request(dst, request, on_answer, now)
            if hbh is not None:
                sent_at[hbh] = now
            return hbh

        def record_answer(src, msg, now):
            if not msg.request and msg.hop_by_hop_id in pending:
                answered_at.append((msg.hop_by_hop_id, now))
            on_message(src, msg, now)

        monkeypatch.setattr(attacks, "_FloodDriver", Driver)
        monkeypatch.setattr(ab, "send_app_request", record_send)
        monkeypatch.setattr(ab, "on_message", record_answer)
        result, _ = run_flood(lab, FloodSpec(target="target", rate_tps=1000, duration_s=0.5))
        [driver] = drivers
        assert driver.latencies == [now - sent_at[hbh] for hbh, now in answered_at]
        assert len(driver.latencies) == result.answered > 0
        assert len(set(driver.latencies)) > 1


class TestIntercept:
    def test_attach_scenario_inventories_locations(self):
        _, lab = make_lab(core_lab_text())
        spec = InterceptSpec(link=("mme", "hss"), avp_codes=(dct.AVP_LOCATION,))
        result, findings, records = run_intercept(lab, spec)
        values = {(e["avp_code"], e["value_text"]) for e in result.inventory}
        assert values == {
            (dct.AVP_LOCATION, "tracking-area-7"),
            (dct.AVP_LOCATION, "tracking-area-12"),
            (dct.AVP_LOCATION, "tracking-area-9"),
        }
        assert len(findings) == 1
        assert findings[0].severity is Severity.EXPOSURE

    def test_protected_link_yields_nothing(self):
        _, lab = make_lab(core_lab_text(hss_protected="true"))
        spec = InterceptSpec(link=("mme", "hss"), avp_codes=(dct.AVP_LOCATION,))
        result, findings, records = run_intercept(lab, spec)
        assert result.inventory == []
        assert findings == []
        assert records == []

    @pytest.mark.parametrize(
        "text, link",
        [
            (duo_lab_text().replace("kind = AttackBox", "kind = TargetServer"), ("attacker", "target")),
            (
                duo_lab_text().replace(
                    "[link attacker target]", "[node t2]\nkind = TargetServer\n\n[link t2 target]"
                ),
                ("t2", "target"),
            ),
        ],
        ids=["no-attack-box", "target-not-linked-to-attack-box"],
    )
    def test_no_echo_path_means_no_traffic_to_see(self, text, link):
        _, lab = make_lab(text)
        spec = InterceptSpec(link=link, avp_codes=(dct.AVP_LOCATION,))
        result, findings, records = run_intercept(lab, spec)
        assert (result.records_captured, findings, records) == (0, [], [])

    def test_soundness_every_value_appears_in_some_record(self):
        _, lab = make_lab(core_lab_text())
        spec = InterceptSpec(link=("mme", "hss"), avp_codes=(dct.AVP_LOCATION, dct.AVP_SUBSCRIBER_ID))
        result, _, records = run_intercept(lab, spec)
        for entry in result.inventory:
            value = bytes.fromhex(entry["value_hex"])
            assert any(value in rec.data for rec in records)

    def test_completeness_every_matching_avp_is_inventoried(self):
        _, lab = make_lab(core_lab_text())
        spec = InterceptSpec(link=("mme", "hss"), avp_codes=(dct.AVP_LOCATION,))
        result, _, records = run_intercept(lab, spec)
        inventoried = {bytes.fromhex(e["value_hex"]) for e in result.inventory}
        for rec in records:
            msg = decode_message(rec.data)
            if isinstance(msg, ParseError):
                continue
            for avp in msg.avps:
                if avp.code == dct.AVP_LOCATION:
                    assert avp.data in inventoried

    def test_tap_comes_off_the_link_when_the_intercept_returns(self, monkeypatch):
        _, lab = make_lab(duo_lab_text())
        link = lab.sim.link_between(lab.node("attacker"), lab.node("target"))
        spec = InterceptSpec(link=("attacker", "target"), avp_codes=(dct.AVP_ECHO_PAYLOAD,))
        result, findings, records = run_intercept(lab, spec)
        assert link.taps == []
        # three echo probes and their answers
        assert result.records_captured == result.records_decoded == len(records) == 6
        assert [e["value_text"] for e in result.inventory] == ["probe-0", "probe-1", "probe-2"]
        assert len(findings) == 1

        target = lab.element("target")
        received = Counter()
        on_message = target.on_message

        def spy(src, payload, now):
            received[type(payload).__name__] += 1
            on_message(src, payload, now)

        monkeypatch.setattr(target, "on_message", spy)
        flood, _ = run_flood(lab, FloodSpec(target="target", rate_tps=1000, duration_s=0.05))
        assert received == {"Message": flood.offered}
        assert len(records) == 6

    def test_echo_traffic_fallback_without_core(self):
        _, lab = make_lab(duo_lab_text())
        spec = InterceptSpec(link=("attacker", "target"), avp_codes=(dct.AVP_ECHO_PAYLOAD,))
        result, findings, _ = run_intercept(lab, spec)
        assert result.records_captured > 0
        assert findings and findings[0].attack_kind == "intercept"


class TestFuzz:
    def test_reference_target_never_crashes(self):
        _, lab = make_lab(duo_lab_text())
        result, findings = run_fuzz(lab, FuzzSpec(target="target", case_count=300, seed=5))
        assert result.crash_cases == 0
        assert all(f.evidence.get("finding_type") != "crash" for f in findings)
        assert result.case_count == 300
        assert broken_identities(lab, [result]) == []

    def test_mandatory_unknown_cases_all_answer_5001(self):
        _, lab = make_lab(duo_lab_text())
        result, _ = run_fuzz(lab, FuzzSpec(target="target", case_count=300, seed=5))
        op = MutationOp.SET_MANDATORY_UNKNOWN_AVP.value
        tally = result.tallies[op]
        assert set(tally) == {DISPOSITION_ANSWERED_ERROR}
        codes = result.result_codes[op]
        assert set(codes) == {str(dct.RESULT_UNSUPPORTED_MANDATORY_AVP)}
        assert sum(codes.values()) == sum(tally.values()) > 0

    def test_same_seed_same_tallies(self):
        _, lab1 = make_lab(duo_lab_text())
        _, lab2 = make_lab(duo_lab_text())
        r1, _ = run_fuzz(lab1, FuzzSpec(target="target", case_count=200, seed=77))
        r2, _ = run_fuzz(lab2, FuzzSpec(target="target", case_count=200, seed=77))
        assert r1.tallies == r2.tallies
        assert r1.result_codes == r2.result_codes
        assert r1.no_op_cases == r2.no_op_cases

    def test_different_seeds_usually_differ(self):
        _, lab1 = make_lab(duo_lab_text())
        _, lab2 = make_lab(duo_lab_text())
        r1, _ = run_fuzz(lab1, FuzzSpec(target="target", case_count=200, seed=1))
        r2, _ = run_fuzz(lab2, FuzzSpec(target="target", case_count=200, seed=2))
        assert r1.tallies != r2.tallies

    def test_crash_disposition_is_caught_and_reported(self):
        _, lab = make_lab(duo_lab_text())
        target = lab.element("target")

        def explode(msg, now):
            raise RuntimeError("rigged parser bug")

        target.app.handle_request = explode
        result, findings = run_fuzz(
            lab,
            FuzzSpec(
                target="target",
                case_count=10,
                ops=(MutationOp.FLIP_FLAG,),
                seed=3,
            ),
        )
        assert result.crash_cases >= 1
        crash_findings = [f for f in findings if f.evidence.get("finding_type") == "crash"]
        assert crash_findings
        assert crash_findings[0].severity is Severity.OUTAGE
        assert target.failed  # a crashed element is a failed element

    def test_a_fault_in_the_attack_box_propagates_and_leaves_the_target_up(self):
        _, lab = make_lab(duo_lab_text())
        target = lab.element("target")

        def on_message(src, payload, now):
            raise KeyError("attack box bug")

        lab.attack_box().on_message = on_message
        with pytest.raises(KeyError, match="attack box bug"):
            run_fuzz(lab, FuzzSpec(target="target", case_count=5, seed=3))
        assert target.failed_at is None and target.crash is None

    def test_a_testbed_fault_in_a_cases_run_leaves_no_pending_entry(self, monkeypatch):
        # An entry left behind would halt a later run when an answer to it came.
        _, lab = make_lab(duo_lab_text())
        ab, target = lab.attack_box(), lab.element("target")
        on_message, deliveries = ab.on_message, []

        def fail_first(src, payload, now):
            deliveries.append(payload)
            if len(deliveries) == 1:
                raise RuntimeError("attack box bug")
            on_message(src, payload, now)

        monkeypatch.setattr(ab, "on_message", fail_first)
        with pytest.raises(RuntimeError, match="attack box bug"):
            run_fuzz(lab, FuzzSpec(target="target", case_count=5, seed=3))
        assert ab.peer_link(target.node).pending == {}
        clock = lab.sim.clock
        lab.sim.run_until(clock + US_PER_S)
        assert lab.sim.clock == clock + US_PER_S

    def test_a_case_dropped_on_a_full_queue_is_judged_dropped(self):
        # no queue and a token every 5 s: a case that finds no token is dropped
        _, lab = make_lab(duo_lab_text(service_rate=0.2, queue_capacity=0))
        target = lab.element("target")
        result, _ = run_fuzz(
            lab, FuzzSpec(target="target", case_count=6, ops=(MutationOp.FLIP_FLAG,), seed=3)
        )
        assert target.dropped_overflow == 2
        assert result.tallies == {
            MutationOp.FLIP_FLAG.value: {DISPOSITION_ANSWERED_ERROR: 1, DISPOSITION_DROPPED: 5}
        }

    def _run_with_a_request_queued_at_the_crash(self):
        """12 flip_flag cases on a slow target whose handler raises `bug` on
        its second call; (lab, bug, result, finding, called, sent), where
        `called` and `sent` hold the (time, hop-by-hop id) of each handler
        call and of each case in case order."""
        _, lab = make_lab(duo_lab_text(service_rate=0.2, queue_capacity=10))
        ab, target = lab.attack_box(), lab.element("target")
        serve, send_raw_request = target.app.handle_request, ab.send_raw_request
        bug, called, sent = RuntimeError("rigged handler bug"), [], []

        def handler(msg, now):
            called.append((now, msg.hop_by_hop_id))
            if len(called) == 2:
                raise bug
            return serve(msg, now)

        def record(dst, data, hop_by_hop_id, on_answer, now):
            sent.append((now, hop_by_hop_id))
            return send_raw_request(dst, data, hop_by_hop_id, on_answer, now)

        target.app.handle_request, ab.send_raw_request = handler, record
        result, (finding,) = run_fuzz(
            lab, FuzzSpec(target="target", case_count=12, ops=(MutationOp.FLIP_FLAG,), seed=3)
        )
        return lab, bug, result, finding, called, sent

    def test_a_crash_with_a_request_queued_fails_the_target_through_fail(self):
        lab, bug, result, finding, called, sent = self._run_with_a_request_queued_at_the_crash()
        target = lab.element("target")
        assert result.crash_cases == 1
        assert target.crash is bug
        crashed_at, raised_on = called[1]
        assert target.failed_at == crashed_at
        assert not target.queue and target.dropped_at_failure == 1
        assert broken_identities(lab, [result]) == []
        # The handler raised on a case that had waited in the queue past its
        # timeout, while a later case was being judged: the evidence names it.
        judged = [hbh for at, hbh in sent if at < crashed_at][-1]
        assert (raised_on, judged) == (4, 6)
        case = bytes.fromhex(finding.evidence["case_hex"])
        assert int.from_bytes(case[12:16], "big") == raised_on
        assert sent[finding.evidence["case_index"]][1] == raised_on
        assert finding.evidence["mutation_op"] == "flip_flag"

    def test_a_crash_is_tallied_under_the_case_it_names(self):
        # Case 2 crashed the target while case 4 was judged: case 2 is the
        # crash, and case 4, which the failed target dropped, is dropped.
        _, _, result, finding, _, sent = self._run_with_a_request_queued_at_the_crash()
        assert finding.evidence["case_index"] == 2 and sent[4][1] == 6
        assert result.tallies == {
            MutationOp.FLIP_FLAG.value: {
                DISPOSITION_ANSWERED_ERROR: 1, DISPOSITION_CRASH: 1, DISPOSITION_DROPPED: 10
            }
        }
        assert result.crash_cases == 1

    def test_a_crash_on_an_earlier_runs_request_names_no_case(self):
        _, lab = make_lab(duo_lab_text(service_rate=0.2, queue_capacity=10))
        target = lab.element("target")
        spec = FuzzSpec(target="target", case_count=4, ops=(MutationOp.FLIP_FLAG,), seed=3)
        run_fuzz(lab, spec)
        ((_, stale),) = target.queue  # a case the first run gave up on

        def explode(msg, now):
            raise RuntimeError("rigged handler bug")

        target.app.handle_request = explode
        result, (finding,) = run_fuzz(lab, FuzzSpec(target="target", case_count=1, seed=4))
        assert result.crash_cases == 1 and target.crashed_on is stale
        # the judged case keeps the crash, as no case of this run is named
        assert [t for t in result.tallies.values() if t] == [{DISPOSITION_CRASH: 1}]
        assert finding.evidence == {
            "finding_type": "crash", "exception": "RuntimeError: rigged handler bug"
        }

    def test_accepted_invalid_is_each_case_the_decoder_rejects(self, monkeypatch):
        # A target that answers success to every case, bytes it cannot parse
        # included: exactly the cases decode_message rejects are accepted-invalid.
        _, lab = make_lab(duo_lab_text())
        ab, target = lab.attack_box(), lab.element("target")
        sent = []  # (hop-by-hop id, bytes) of each case, in case order
        send_raw_request, on_message = ab.send_raw_request, target.on_message

        def record(dst, data, hop_by_hop_id, on_answer, now):
            sent.append((hop_by_hop_id, data))
            return send_raw_request(dst, data, hop_by_hop_id, on_answer, now)

        def answer_success(src, payload, now):
            if isinstance(payload, Message):  # the lab's own traffic
                return on_message(src, payload, now)
            hbh = sent[-1][0]
            avps = [result_code_avp(dct.RESULT_SUCCESS)]
            lab.sim.send(lab.sim.route(target.node, src), build_message(
                dct.CMD_ECHO, hop_by_hop_id=hbh, end_to_end_id=hbh, avps=avps
            ))

        monkeypatch.setattr(ab, "send_raw_request", record)
        monkeypatch.setattr(target, "on_message", answer_success)
        result, findings = run_fuzz(lab, FuzzSpec(target="target", case_count=200, seed=5))

        assert len(sent) == 200
        assert sum(t.get(DISPOSITION_ANSWERED_SUCCESS, 0) for t in result.tallies.values()) == 200
        rejected = [i for i, (_, case) in enumerate(sent)
                    if isinstance(decode_message(case), ParseError)]
        assert 0 < len(rejected) < 200
        assert result.accepted_invalid_cases == len(rejected)
        assert [f.evidence["finding_type"] for f in findings] == ["accepted-invalid"] * len(rejected)
        assert [f.evidence["case_index"] for f in findings] == rejected
        assert [f.evidence["case_hex"] for f in findings] == [sent[i][1].hex() for i in rejected]
        assert all(f.severity is Severity.INFO for f in findings)

    # Fuzz runs of every op on the duo lab, each pinned as the fuzz computed
    # it when a case's run still stepped event time by event time: its
    # FuzzResult's tallies, result codes, no-op, crash and accepted-invalid
    # counts, then the final clock and the events processed. Between them
    # they hold every disposition: "answered" times 2 cases out, "full-queue"
    # drops 5 on the full queue (a queue of 0 and a token every 5 s), and
    # "crash" has a target whose handler raises on its second call, with a
    # queue of 10.
    _PINNED_FUZZ_RUNS = {
        "answered": (
            dict(), 300, 5, None,
            {
                "flip_flag": {
                    "answered-error": 18, "answered-success": 15, "dropped": 8,
                    "no-response-timeout": 2,
                },
                "set_mandatory_unknown_avp": {"answered-error": 42},
                "truncate": {"dropped": 39},
                "inflate_length": {"dropped": 51},
                "corrupt_version": {"dropped": 41},
                "shuffle_avps": {"answered-error": 23, "answered-success": 24, "dropped": 8},
                "zero_length_avp": {"dropped": 29},
            },
            {
                "flip_flag": {"2001": 15, "3001": 18},
                "set_mandatory_unknown_avp": {"5001": 42},
                "shuffle_avps": {"2001": 24, "3001": 23},
            },
            (42, 0, 0), 357_240_000, 1221,
        ),
        "full-queue": (
            dict(service_rate=0.2, queue_capacity=0), 40, 3, None,
            {
                "flip_flag": {"answered-error": 1, "answered-success": 2, "dropped": 1},
                "set_mandatory_unknown_avp": {"answered-error": 5},
                "truncate": {"dropped": 5},
                "inflate_length": {"dropped": 5},
                "corrupt_version": {"dropped": 8},
                "shuffle_avps": {"answered-error": 2, "answered-success": 1, "dropped": 5},
                "zero_length_avp": {"dropped": 5},
            },
            {
                "flip_flag": {"2001": 2, "3001": 1},
                "set_mandatory_unknown_avp": {"5001": 5},
                "shuffle_avps": {"2001": 1, "3001": 2},
            },
            (5, 0, 0), 58_130_000, 177,
        ),
        "crash": (
            dict(service_rate=0.2, queue_capacity=10), 40, 3, 2,
            {
                "flip_flag": {"answered-error": 1, "dropped": 3},
                "set_mandatory_unknown_avp": {"dropped": 5},
                "truncate": {"dropped": 5},
                "inflate_length": {"dropped": 5},
                "corrupt_version": {"dropped": 8},
                "shuffle_avps": {"crash": 1, "dropped": 7},
                "zero_length_avp": {"dropped": 5},
            },
            {"flip_flag": {"3001": 1}},
            (5, 1, 0), 77_025_000, 138,
        ),
    }

    @pytest.mark.parametrize("name", list(_PINNED_FUZZ_RUNS))
    def test_a_fuzz_run_ends_where_it_did_when_each_event_time_was_stepped(self, name):
        lab_args, cases, seed, crash_on, tallies, codes, counts, clock, events = (
            self._PINNED_FUZZ_RUNS[name]
        )
        _, lab = make_lab(duo_lab_text(**lab_args))
        target = lab.element("target")
        if crash_on is not None:
            serve, calls = target.app.handle_request, []

            def handler(msg, now):
                calls.append(now)
                if len(calls) == crash_on:
                    raise RuntimeError("rigged handler bug")
                return serve(msg, now)

            target.app.handle_request = handler
        result, _ = run_fuzz(lab, FuzzSpec(target="target", case_count=cases, seed=seed))
        ops = [op.value for op in ALL_MUTATION_OPS]
        assert result == FuzzResult(
            "target", seed, cases, ops, *counts, tallies, {op: codes.get(op, {}) for op in ops}
        )
        assert (lab.sim.clock, lab.sim.events_processed) == (clock, events)
        if name == "full-queue":
            assert target.dropped_overflow == 5

    def test_fuzz_requires_seed(self):
        _, lab = make_lab(duo_lab_text())
        with pytest.raises(ValueError, match="seed"):
            run_fuzz(lab, FuzzSpec(target="target", case_count=10))

    @pytest.mark.parametrize(
        "value, text",
        [
            (b"area-1", "area-1"),
            ("zoné".encode(), "zoné"),
            (b"\xff\xfe", None),
            (b"tab\there", None),
            (b"", ""),
        ],
        ids=["ascii", "utf8", "not-utf8", "control", "empty"],
    )
    def test_as_text_keeps_only_printable_utf8(self, value, text):
        assert as_text(value) == text

    def test_result_codes_are_tallied_by_their_text(self):
        tally = Counter([2001, None, 2001, 5001, None, None])
        assert _render_result_codes(tally) == {"2001": 2, "none": 3, "5001": 1}

    def test_result_codes_are_rendered_in_the_order_of_their_text(self):
        # 5012 < 10001 as ints, "10001" < "5012" as text; "none" sorts last
        rendered = _render_result_codes({None: 1, 5012: 2, 10001: 3})
        assert list(rendered.items()) == [("10001", 3), ("5012", 2), ("none", 1)]
        assert _render_result_codes({}) == {}

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            FuzzSpec(target="t", case_count=0)
        # a repeat would weigh its op double in the draw and list it twice in FuzzResult.ops
        flip, cut = MutationOp.FLIP_FLAG, MutationOp.TRUNCATE
        for ops, repeated in (((flip, flip, cut), flip), ((cut, flip, cut), cut)):
            with pytest.raises(ValueError, match=rf"^fuzz op '{repeated.value}' is listed twice$"):
                FuzzSpec(target="t", case_count=1, ops=ops)
        with pytest.raises(ValueError):
            FloodSpec(target="t", rate_tps=0, duration_s=1)
        with pytest.raises(ValueError, match="rounds to zero requests"):
            FloodSpec(target="t", rate_tps=0.4, duration_s=1)
        assert FloodSpec(target="t", rate_tps=0.6, duration_s=1).count == 1
