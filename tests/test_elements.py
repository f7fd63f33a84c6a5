"""Element behaviors: sizing model, capacity/failure, HSS/PCRF/MME/target logic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamlab import dictionary as dct
from diamlab import attacks, elements
from diamlab.campaign import broken_identities, build_lab
from diamlab.codec import (
    Avp,
    Message,
    build_message,
    decode_message,
    encode_message,
    first_avp,
    replace_ids,
)
from diamlab.config import load_config
from diamlab.elements import (
    Admission,
    ElementCapacity,
    ElementFailedError,
    PeerLink,
    SubscriberRecord,
    required_tps,
    result_code_of,
)
from diamlab.peer import (
    ActionKind,
    EventKind,
    PeerEvent,
    Phase,
    build_base_answer,
    build_dpr,
    build_dwr,
    handle_event,
    register_request,
    result_code_avp,
)

from diamlab.simnet import US_PER_S
from tests.labs import core_lab_text, duo_lab_text, make_lab
from tests.test_peer import event_sequences, state_in


class TestRequiredTps:
    def test_one_million_subscribers(self):
        assert required_tps(1_000_000) == 235_000

    def test_zero(self):
        assert required_tps(0) == 0

    def test_five_million_subscribers(self):
        assert required_tps(5_000_000) == 1_175_000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            required_tps(-1)

    def test_fractional_result_is_exact(self):
        assert required_tps(1) == Fraction(47, 200)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=300)
    def test_linear(self, a, b):
        assert required_tps(a + b) == required_tps(a) + required_tps(b)


class TestCapacityInvariants:
    def test_zero_service_rate_rejected(self):
        with pytest.raises(ValueError):
            ElementCapacity(service_rate=0)

    def test_negative_queue_rejected(self):
        with pytest.raises(ValueError):
            ElementCapacity(queue_capacity=-1)

    def test_zero_failure_threshold_rejected(self):
        with pytest.raises(ValueError):
            ElementCapacity(failure_threshold_s=0)

    @pytest.mark.parametrize(
        "kwargs, text",
        [
            ({"service_rate": 1e-303}, "service_rate is too small"),
            ({"service_rate": 1e-320}, "service_rate is too small"),
            ({"service_rate": float("nan")}, "service_rate must be > 0"),
            ({"service_rate": 1e-300, "queue_capacity": 1000}, "queue_capacity / service_rate"),
            ({"queue_capacity": 10**400}, "queue_capacity / service_rate"),
        ],
    )
    def test_capacity_whose_times_overflow_a_float_rejected(self, kwargs, text):
        with pytest.raises(ValueError, match=text):
            ElementCapacity(**kwargs)

    def test_slowest_capacity_with_finite_times_accepted(self):
        capacity = ElementCapacity(service_rate=1e-300, queue_capacity=100)
        assert math.isfinite(capacity.drain_us)


def _probe(command=dct.CMD_ECHO, avps=(), hbh=1):
    return build_message(command, request=True, hop_by_hop_id=hbh, end_to_end_id=hbh, avps=list(avps))


class TestAdmission:
    def test_first_request_accepted(self):
        _, lab = make_lab(duo_lab_text())
        target = lab.element("target")
        assert target.admit("x", None, lab.sim.clock) is Admission.ACCEPTED

    def test_queue_then_drop(self):
        _, lab = make_lab(duo_lab_text(service_rate=1, queue_capacity=2))
        target = lab.element("target")
        now = lab.sim.clock
        outcomes = [target.admit("x", i, now) for i in range(5)]
        assert outcomes == [
            Admission.ACCEPTED,
            Admission.QUEUED,
            Admission.QUEUED,
            Admission.DROPPED,
            Admission.DROPPED,
        ]
        assert target.dropped_overflow == 2

    def test_failed_element_raises(self):
        _, lab = make_lab(duo_lab_text())
        target = lab.element("target")
        target.fail(lab.sim.clock)
        with pytest.raises(ElementFailedError):
            target.admit("x", None, lab.sim.clock)

    def test_tokens_refill_at_service_rate(self):
        _, lab = make_lab(duo_lab_text(service_rate=1000))
        target = lab.element("target")
        now = lab.sim.clock
        assert target.admit("a", 0, now) is Admission.ACCEPTED
        # 1 ms later exactly one token has accrued
        assert target.admit("b", 1, now + 1_000) is Admission.ACCEPTED
        assert target.admit("c", 2, now + 1_000) is Admission.QUEUED

    def test_a_burst_after_a_long_idle_gap_finds_one_token_and_a_full_queue(self):
        _, lab = make_lab(duo_lab_text(service_rate=1000, queue_capacity=2))
        target, sim = lab.element("target"), lab.sim
        sender = target.peer_link(lab.node("attacker"))  # the link the requests came in on
        assert target.admit(sender, _probe(hbh=1), sim.clock) is Admission.ACCEPTED
        sim.run_until(sim.clock + 10_000_000)  # 10 s idle: credit stops at one token
        burst = sim.clock
        outcomes = [target.admit(sender, _probe(hbh=i), burst) for i in range(2, 7)]
        assert outcomes == [
            Admission.ACCEPTED,
            Admission.QUEUED,
            Admission.QUEUED,
            Admission.DROPPED,
            Admission.DROPPED,
        ]
        # the drain takes one request per token, as each token accrues
        served = []
        for t in (999, 1_000, 1_999, 2_000):
            sim.run_until(burst + t)
            served.append(target.drained_served)
        assert served == [0, 1, 1, 2]
        assert target.admit(sender, _probe(hbh=7), burst + 2_000) is Admission.QUEUED
        sim.run_until(burst + 3_000)
        assert target.drained_served == 3 and not target.queue


    def test_only_a_queued_request_is_held_and_it_is_answered_on_its_link(self, monkeypatch):
        # an accepted or dropped request leaves nothing in the queue
        _, lab = make_lab(duo_lab_text(service_rate=1000, queue_capacity=0))
        target = lab.element("target")
        link = target.peer_link(lab.node("attacker"))
        assert target.admit(link, _probe(hbh=1), lab.sim.clock) is Admission.ACCEPTED
        assert not target.queue
        assert target.admit(link, _probe(hbh=2), lab.sim.clock) is Admission.DROPPED
        assert not target.queue
        # a queued one is held with the link it came in on, and its answer goes on that route
        _, lab = make_lab(duo_lab_text(service_rate=1000, queue_capacity=1))
        target, sim = lab.element("target"), lab.sim
        link = target.peer_link(lab.node("attacker"))
        sent = []
        send = sim.send

        def record(route, payload):
            sent.append((route, payload))
            send(route, payload)

        monkeypatch.setattr(sim, "send", record)
        now = sim.clock
        assert target.admit(link, _probe(hbh=1), now) is Admission.ACCEPTED
        queued = _probe(hbh=2)
        assert target.admit(link, queued, now) is Admission.QUEUED
        assert list(target.queue) == [(link, queued)]
        sim.run_until(now + 1_000)
        assert target.drained_served == 1 and not target.queue
        answers = [(route, m.hop_by_hop_id, m.request) for route, m in sent]
        assert answers == [(link.route, 2, False)]

def _queue_lengths_checking_drains(sim, target, until):
    """Run `sim` one event time at a time up to `until`, checking after each
    that the target has one drain timer due while its queue is non-empty and
    none while it is empty; the queue lengths seen, in order."""
    lengths = []
    while sim.next_event_at() <= until:
        sim.run_until(sim.next_event_at())
        drains = sum(1 for event in sim.due_events() if event[2] == target._drain)
        assert drains == (1 if target.queue else 0), (sim.clock, len(target.queue))
        lengths.append(len(target.queue))
    return lengths


class TestDrainTimer:
    def test_an_overloaded_flood_keeps_one_drain_due(self):
        _, lab = make_lab(duo_lab_text(service_rate=1000, queue_capacity=20))
        target, sim = lab.element("target"), lab.sim
        driver = attacks._FloodDriver(
            lab.attack_box(), target, 400, sim.clock, 4000, lab.config.request_timeout_us
        )
        sim.schedule_timer(sim.clock, driver.send)
        lengths = _queue_lengths_checking_drains(sim, target, sim.clock + 500_000)
        assert max(lengths) == 20 and lengths[-1] == 0
        assert target.dropped_overflow > 0 and not target.failed

    def test_a_queue_that_empties_and_refills(self):
        _, lab = make_lab(duo_lab_text(service_rate=1000, queue_capacity=10))
        target, sim = lab.element("target"), lab.sim
        ab = lab.attack_box()

        def burst(now):
            for _ in range(5):
                ab.send_app_request(target.node, _probe(), None, now)

        start = sim.clock
        for k in range(3):  # 5 requests take 4 ms to drain; the bursts are 20 ms apart
            sim.schedule_timer(start + k * 20_000, burst)
        lengths = _queue_lengths_checking_drains(sim, target, start + 100_000)
        refills = sum(1 for a, b in zip(lengths, lengths[1:]) if a == 0 and b > 0)
        assert refills == 3 and lengths[-1] == 0
        assert target.drained_served == 12 and target.dropped_overflow == 0


class _CreditBucket:
    """Admission as Element kept it before `_tat`: the credit and the
    microsecond it was last brought up to date, with a queue of
    `queue_capacity` that the drain serves; the reference for `_tat`. It
    records each admission's outcome and the microsecond each drain it
    schedules is due."""

    def __init__(self, service_rate, queue_capacity):
        self.rate, per_token = service_rate.as_integer_ratio()
        self.token = per_token * US_PER_S
        self.credit, self.last = self.token, 0  # a burst of one
        self.queue_capacity, self.queued, self.served = queue_capacity, 0, 0
        self.due = None  # the drain due, if any
        self.drains = []

    def accrue(self, now):
        if now > self.last:
            self.credit = min(self.token, self.credit + self.rate * (now - self.last))
            self.last = now

    def admit(self, now):
        if not self.queued:
            self.accrue(now)
            if self.credit >= self.token:
                self.credit -= self.token
                return Admission.ACCEPTED
        if self.queued < self.queue_capacity:
            if not self.queued:
                self.schedule_drain(now)
            self.queued += 1
            return Admission.QUEUED
        return Admission.DROPPED

    def schedule_drain(self, now):
        self.due = now + max(1, -(-(self.token - self.credit) // self.rate))
        self.drains.append(self.due)

    def run_until(self, t):
        while self.due is not None and self.due <= t:
            now, self.due = self.due, None
            self.accrue(now)
            while self.credit >= self.token and self.queued:
                self.credit -= self.token
                self.queued -= 1
                self.served += 1
            if self.queued:
                self.schedule_drain(now)


class TestAdmissionAgreesWithTheCreditBucket:
    @given(
        # 32,000 TPS is 31.25 us a token, and 0.1's integer ratio is
        # 3602879701896397 / 36028797018963968
        service_rate=st.one_of(
            st.sampled_from([32000, 0.1, 1000]),
            st.integers(1, 50_000),
            st.floats(0.05, 50_000),
        ),
        queue_capacity=st.integers(0, 5),
        # gaps between arrivals, in tokens' worth of time: whole ones meet
        # the microsecond a token comes exactly
        gaps=st.lists(st.one_of(st.integers(0, 3), st.floats(0, 3)), min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_outcomes_and_drain_times_agree(self, service_rate, queue_capacity, gaps):
        _, lab = make_lab(duo_lab_text(service_rate=service_rate, queue_capacity=queue_capacity))
        target, sim = lab.element("target"), lab.sim
        link = target.peer_link(lab.node("attacker"))
        model = _CreditBucket(target.capacity.service_rate, queue_capacity)
        drains = []
        schedule_timer = sim.schedule_timer

        def record(at, fire):
            if fire == target._drain:
                drains.append(at)
            schedule_timer(at, fire)

        sim.schedule_timer = record
        us_per_token = US_PER_S / target.capacity.service_rate
        now = sim.clock
        for i, gap in enumerate(gaps):
            now += round(gap * us_per_token)
            sim.run_until(now)
            model.run_until(now)
            outcome = target.admit(link, _probe(hbh=i + 1), now)
            assert (outcome, target.drained_served) == (model.admit(now), model.served)
            assert drains == model.drains
        if model.due is not None:
            model.run_until(math.inf)
            sim.run_until(model.drains[-1])
        assert drains == model.drains
        assert (target.drained_served, len(target.queue)) == (model.served, 0)


class TestTargetServer:
    def _ask(self, lab, msg_bytes):
        """Send raw bytes from the attack box; return the answer seen on the wire."""
        sim = lab.sim
        ab, target = lab.element("attacker"), lab.element("target")
        tap = sim.attach_tap(ab.node, target.node)
        sim.send(sim.route(ab.node, target.node), msg_bytes)
        sim.run_until(sim.clock + 100_000)
        answers = [r for r in tap.records if r.src.id == target.node.id]
        if not answers:
            return None
        decoded = decode_message(answers[-1].data)
        assert isinstance(decoded, Message)
        return decoded

    def test_echo_returns_payload(self):
        _, lab = make_lab(duo_lab_text())
        from diamlab.codec import encode_message

        msg = _probe(avps=[Avp(code=dct.AVP_ECHO_PAYLOAD, data=b"abc")])
        answer = self._ask(lab, encode_message(msg))
        assert result_code_of(answer) == dct.RESULT_SUCCESS
        assert first_avp(answer, dct.AVP_ECHO_PAYLOAD).data == b"abc"

    def test_undecodable_bytes_dropped_and_counted(self):
        _, lab = make_lab(duo_lab_text())
        target = lab.element("target")
        before = target.parse_drops
        assert self._ask(lab, b"\xfe\xff\x00\x01") is None
        assert target.parse_drops == before + 1

    def test_unknown_mandatory_avp_answered_5001(self):
        _, lab = make_lab(duo_lab_text())
        from diamlab.codec import encode_message

        msg = _probe(avps=[Avp(code=dct.AVP_ECHO_PAYLOAD, data=b"x"),
                           Avp(code=999_999, data=b"??", mandatory=True)])
        answer = self._ask(lab, encode_message(msg))
        assert result_code_of(answer) == dct.RESULT_UNSUPPORTED_MANDATORY_AVP

    def test_bad_avp_length_answered_5014(self):
        _, lab = make_lab(duo_lab_text())
        from diamlab.codec import encode_message

        msg = _probe(avps=[Avp(code=dct.AVP_RESULT_CODE, data=b"\x01")])
        answer = self._ask(lab, encode_message(msg))
        assert result_code_of(answer) == dct.RESULT_INVALID_AVP_LENGTH

    def test_unknown_command_answered_3001(self):
        _, lab = make_lab(duo_lab_text())
        from diamlab.codec import encode_message

        answer = self._ask(lab, encode_message(_probe(command=9999)))
        assert result_code_of(answer) == dct.RESULT_COMMAND_UNSUPPORTED
        assert answer.error  # protocol-level error answers carry the E flag


class TestMemosByAvpTuple:
    """The target validates a request's AVP tuple, and builds an echo answer's
    AVPs, once per tuple: a request that carries the last tuple again skips
    the work, and every other request gets exactly the answer it got before."""

    CLEAN = build_message(
        dct.CMD_ECHO, (Avp(code=dct.AVP_ECHO_PAYLOAD, data=b"one"),), request=True
    )
    UNKNOWN_MANDATORY = build_message(
        dct.CMD_ECHO,
        (Avp(code=dct.AVP_ECHO_PAYLOAD, data=b"one"), Avp(code=999_999, data=b"??", mandatory=True)),
        request=True,
    )

    @staticmethod
    def exchange(*requests):
        """Send each request value from the attack box to the target, one at a
        time (no tap, so each travels as itself, AVP tuple included); (the
        answers, in order, and the AVP tuples the target validated)."""
        _, lab = make_lab(duo_lab_text())
        sim, ab, target = lab.sim, lab.element("attacker"), lab.element("target")
        answers = []
        with pytest.MonkeyPatch.context() as patch:
            validated = []
            validate = elements.validate_message

            def counted(msg, dictionary):
                validated.append(msg.avps)
                return validate(msg, dictionary)

            patch.setattr(elements, "validate_message", counted)
            for request in requests:
                on_answer = lambda sent_at, msg, now: answers.append(msg)
                assert ab.send_app_request(target.node, request, on_answer, sim.clock)
                sim.run_until(sim.clock + 100_000)
        assert len(answers) == len(requests)
        return answers, validated

    def test_a_clean_tuple_sent_twice_is_validated_once(self):
        answers, validated = self.exchange(self.CLEAN, self.CLEAN)
        assert [result_code_of(a) for a in answers] == [dct.RESULT_SUCCESS] * 2
        assert validated == [self.CLEAN.avps]

    def test_another_tuple_right_after_a_clean_one_is_still_validated(self):
        answers, validated = self.exchange(self.CLEAN, self.UNKNOWN_MANDATORY)
        codes = [result_code_of(a) for a in answers]
        assert codes == [dct.RESULT_SUCCESS, dct.RESULT_UNSUPPORTED_MANDATORY_AVP]
        assert validated == [self.CLEAN.avps, self.UNKNOWN_MANDATORY.avps]

    def test_a_tuple_with_a_violation_is_validated_and_refused_each_time(self):
        answers, validated = self.exchange(self.UNKNOWN_MANDATORY, self.UNKNOWN_MANDATORY)
        codes = [result_code_of(a) for a in answers]
        assert codes == [dct.RESULT_UNSUPPORTED_MANDATORY_AVP] * 2
        assert validated == [self.UNKNOWN_MANDATORY.avps] * 2

    def test_each_echo_payload_tuple_gets_its_own_payload_back(self):
        other = build_message(
            dct.CMD_ECHO, (Avp(code=dct.AVP_ECHO_PAYLOAD, data=b"two"),), request=True
        )
        answers, _ = self.exchange(self.CLEAN, other, self.CLEAN, self.CLEAN)
        assert [first_avp(a, dct.AVP_ECHO_PAYLOAD).data for a in answers] == [
            b"one", b"two", b"one", b"one"
        ]
        assert all(result_code_of(a) == dct.RESULT_SUCCESS for a in answers)
        # answers to one request tuple, one after the other, share one AVP tuple
        assert answers[2].avps is answers[3].avps


class TestHss:
    def _hss(self):
        _, lab = make_lab(core_lab_text(), open_links=False)
        return lab.element("hss")

    def test_profile_query_returns_location(self):
        hss = self._hss()
        msg = _probe(
            command=dct.CMD_PROFILE_QUERY,
            avps=[Avp(code=dct.AVP_SUBSCRIBER_ID, data=b"imsi-001001000000001", mandatory=True)],
        )
        answer = hss.handle_app_request(msg, 0)
        assert result_code_of(answer) == dct.RESULT_SUCCESS
        assert first_avp(answer, dct.AVP_LOCATION).data == b"tracking-area-7"

    def test_unknown_subscriber_user_unknown(self):
        hss = self._hss()
        msg = _probe(
            command=dct.CMD_PROFILE_QUERY,
            avps=[Avp(code=dct.AVP_SUBSCRIBER_ID, data=b"imsi-ghost", mandatory=True)],
        )
        assert result_code_of(hss.handle_app_request(msg, 0)) == dct.RESULT_USER_UNKNOWN

    def test_location_update_read_your_writes(self):
        hss = self._hss()
        sid = Avp(code=dct.AVP_SUBSCRIBER_ID, data=b"imsi-001001000000001", mandatory=True)
        update = _probe(
            command=dct.CMD_LOCATION_UPDATE,
            avps=[sid, Avp(code=dct.AVP_LOCATION, data=b"tracking-area-99", mandatory=True)],
        )
        assert result_code_of(hss.handle_app_request(update, 0)) == dct.RESULT_SUCCESS
        query = _probe(command=dct.CMD_PROFILE_QUERY, avps=[sid])
        answer = hss.handle_app_request(query, 1)
        assert first_avp(answer, dct.AVP_LOCATION).data == b"tracking-area-99"

    def test_success_answers_lead_with_the_success_result_code(self):
        # an update's answer is the Result-Code alone; a query's puts it first
        hss = self._hss()
        sid = Avp(code=dct.AVP_SUBSCRIBER_ID, data=b"imsi-001001000000001", mandatory=True)
        update = _probe(
            command=dct.CMD_LOCATION_UPDATE,
            avps=[sid, Avp(code=dct.AVP_LOCATION, data=b"tracking-area-99", mandatory=True)],
        )
        success = result_code_avp(dct.RESULT_SUCCESS)
        assert hss.handle_app_request(update, 0).avps == (success,)
        query = _probe(command=dct.CMD_PROFILE_QUERY, avps=[sid])
        assert hss.handle_app_request(query, 1).avps == (
            success,
            sid,
            Avp(code=dct.AVP_LOCATION, data=b"tracking-area-99", mandatory=True),
        )

    def test_update_unknown_subscriber(self):
        hss = self._hss()
        update = _probe(
            command=dct.CMD_LOCATION_UPDATE,
            avps=[
                Avp(code=dct.AVP_SUBSCRIBER_ID, data=b"imsi-ghost", mandatory=True),
                Avp(code=dct.AVP_LOCATION, data=b"anywhere", mandatory=True),
            ],
        )
        assert result_code_of(hss.handle_app_request(update, 0)) == dct.RESULT_USER_UNKNOWN

    def test_update_without_location_is_missing_avp_before_the_lookup(self):
        hss = self._hss()
        update = _probe(
            command=dct.CMD_LOCATION_UPDATE,
            avps=[Avp(code=dct.AVP_SUBSCRIBER_ID, data=b"imsi-ghost", mandatory=True)],
        )
        assert result_code_of(hss.handle_app_request(update, 0)) == dct.RESULT_MISSING_AVP

    def test_missing_subscriber_avp(self):
        hss = self._hss()
        assert (
            result_code_of(hss.handle_app_request(_probe(command=dct.CMD_PROFILE_QUERY), 0))
            == dct.RESULT_MISSING_AVP
        )

    def test_unsupported_command(self):
        hss = self._hss()
        assert (
            result_code_of(hss.handle_app_request(_probe(command=dct.CMD_POLICY_INSTALL), 0))
            == dct.RESULT_COMMAND_UNSUPPORTED
        )


class TestPcrf:
    def _pcrf(self):
        _, lab = make_lab(core_lab_text(), open_links=False)
        return lab.element("pcrf")

    def _install(self, rule_id=b"r1", qos=True):
        avps = [
            Avp(code=dct.AVP_RULE_ID, data=rule_id, mandatory=True),
            Avp(code=dct.AVP_SUBSCRIBER_ID, data=b"imsi-001001000000001", mandatory=True),
        ]
        if qos:
            avps.append(Avp(code=dct.AVP_QOS_CLASS, data=(9).to_bytes(4, "big"), mandatory=True))
        return _probe(command=dct.CMD_POLICY_INSTALL, avps=avps)

    def test_first_install_succeeds(self):
        pcrf = self._pcrf()
        assert result_code_of(pcrf.handle_app_request(self._install(), 0)) == dct.RESULT_SUCCESS
        assert pcrf.rules["r1"].qos_class == 9

    def test_install_answer_is_the_success_result_code_alone(self):
        pcrf = self._pcrf()
        answer = pcrf.handle_app_request(self._install(), 0)
        assert answer.avps == (result_code_avp(dct.RESULT_SUCCESS),)

    def test_duplicate_rule_rejected(self):
        pcrf = self._pcrf()
        pcrf.handle_app_request(self._install(), 0)
        assert (
            result_code_of(pcrf.handle_app_request(self._install(), 1))
            == dct.RESULT_DUPLICATE_RULE
        )

    def test_missing_qos_avp(self):
        pcrf = self._pcrf()
        assert (
            result_code_of(pcrf.handle_app_request(self._install(qos=False), 0))
            == dct.RESULT_MISSING_AVP
        )

    def test_unsupported_command(self):
        pcrf = self._pcrf()
        assert (
            result_code_of(pcrf.handle_app_request(_probe(command=dct.CMD_ECHO), 0))
            == dct.RESULT_COMMAND_UNSUPPORTED
        )


# (at, destination, bytes) of each request the MME sends for phase2's first subscriber
PHASE2_FIRST_ATTACH_REQUESTS = [
    (
        30000,
        "hss",
        "01000048800002be000000000000000200000002000007d04000001c696d73692d30303130303130"
        "3030303030303031000007d140000017747261636b696e672d617265612d3700",
    ),
    (
        50000,
        "hss",
        "01000030800002bd000000000000000300000003000007d04000001c696d73692d30303130303130"
        "3030303030303031",
    ),
    (
        70000,
        "pcrf",
        "01000060800002bf000000000000000200000002000007d3400000236174746163682d696d73692d"
        "30303130303130303030303030303100000007d04000001c696d73692d3030313030313030303030"
        "30303031000007d44000000c00000009",
    ),
]


class TestAttachFlow:
    def test_healthy_attach_succeeds_in_three_steps(self):
        _, lab = make_lab(core_lab_text())
        results = lab.attach_all()
        assert len(results) == 3
        assert all(r.success for r in results)
        assert all(r.steps_completed == 3 for r in results)
        pcrf = lab.element("pcrf")
        assert set(pcrf.rules) == {
            "attach-imsi-001001000000001",
            "attach-imsi-001001000000002",
            "attach-imsi-001001000000003",
        }

    @pytest.mark.parametrize("silent, step", [("hss", 0), ("pcrf", 2)])
    def test_silent_element_times_out_the_attach_at_its_step(self, silent, step):
        config, lab = make_lab(core_lab_text())
        lab.element(silent).fail(lab.sim.clock)  # a failed element answers nothing
        tap = lab.sim.attach_tap(lab.node("mme"), lab.node(silent))
        result = lab.attach_subscriber(config.subscribers[0])
        [request] = tap.records  # the silent step's request, and no answer
        assert request.src == lab.node("mme")
        assert result.success is False
        assert result.reason == "timeout"
        assert result.steps_completed == step
        assert result.finished_at == request.at + config.request_timeout_us

    def test_phase2_first_attach_sends_the_pinned_requests(self):
        config = load_config("phase2")
        lab = build_lab(config)
        lab.bring_links_open()
        mme = lab.node("mme")
        taps = [lab.sim.attach_tap(mme, lab.node(label)) for label in ("hss", "pcrf")]
        assert lab.attach_subscriber(config.subscribers[0]).success
        sent = [(r.at, r.dst.label, r.data.hex()) for t in taps for r in t.records if r.src == mme]
        assert sent == PHASE2_FIRST_ATTACH_REQUESTS

    def test_only_the_mme_holds_the_request_timeout(self):
        text = core_lab_text().replace("seed = 11\n", "seed = 11\nrequest_timeout_s = 0.015\n")
        config, lab = make_lab(text)
        assert lab.element("mme").request_timeout_us == config.request_timeout_us == 15_000
        holders = [e for e in lab.elements.values() if hasattr(e, "request_timeout_us")]
        assert holders == [lab.element("mme")]

    def test_timed_out_step_leaves_no_pending_entry(self):
        text = core_lab_text().replace(
            "[node hss]\nkind = HSS\n",
            "[node hss]\nkind = HSS\nservice_rate = 0.001\nqueue_capacity = 0\n",
        )
        _, lab = make_lab(text)
        assert [r.reason for r in lab.attach_all()] == ["timeout"] * 3
        assert lab.element("mme").peer_link(lab.node("hss")).pending == {}

    @pytest.mark.parametrize(
        "timeout_s",
        [
            0.015,  # the answer comes 5 ms late
            0.020,  # both due at the same microsecond: the timeout was scheduled first
        ],
    )
    def test_late_answer_after_a_timeout_is_dropped_as_unmatched(self, timeout_s):
        # 10 ms each way on the HSS link: the answer is due 20 ms after the request
        text = core_lab_text(subscribers=1).replace(
            "seed = 11\n", f"seed = 11\nrequest_timeout_s = {timeout_s}\n"
        )
        _, lab = make_lab(text)
        mme = lab.element("mme")
        drops = mme.fsm_drops
        (result,) = lab.attach_all()
        assert (result.reason, result.steps_completed) == ("timeout", 0)
        assert result.finished_at - result.started_at == round(timeout_s * 1_000_000)
        assert mme.peer_link(lab.node("hss")).pending == {}
        finished = (result.success, result.reason, result.steps_completed, result.finished_at)
        lab.sim.run_until(lab.sim.clock + 100_000)
        assert (mme.fsm_drops, mme.stray_answers) == (drops + 1, 0)
        assert (result.success, result.reason, result.steps_completed, result.finished_at) == finished

    def test_unknown_subscriber_fails_with_user_unknown(self):
        _, lab = make_lab(core_lab_text())
        ghost = SubscriberRecord("imsi-ghost", "nowhere")
        result = lab.attach_subscriber(ghost)
        assert result.success is False
        assert result.reason == "user-unknown"

    def test_attach_requires_core(self):
        _, lab = make_lab(duo_lab_text())
        with pytest.raises(Exception, match="MME"):
            lab.attach_subscriber(SubscriberRecord("imsi-x", "somewhere"))


class TestLinkBringup:
    def test_all_links_open(self):
        _, lab = make_lab(core_lab_text())
        for link in lab.sim.links.values():
            for end, other in ((link.a, link.b), (link.b, link.a)):
                assert lab.elements[end.label].peer_link(other).state.phase is Phase.OPEN

    def test_each_peer_link_sends_on_its_route_to_the_neighbor_element(self):
        _, lab = make_lab(core_lab_text(), open_links=False)
        for elem in lab.elements.values():
            for link in elem.links.values():
                route = link.route
                assert route is lab.sim.route(elem.node, route.dst)
                assert route.src == elem.node and route.handler is lab.elements[route.dst.label]

    def test_bring_up_runs_one_round_trip_of_the_slowest_link(self):
        # the core lab's slowest links, mme-hss and mme-pcrf, take 10 ms
        _, lab = make_lab(core_lab_text(), open_links=False)
        assert lab.round_trip_us() == 2 * 10_000 + 10_000
        lab.bring_links_open()
        assert lab.sim.clock == lab.round_trip_us()

    def test_lossy_link_aborts_bringup(self):
        text = duo_lab_text().replace("protected = false", "protected = false\nloss = 1.0")
        from diamlab.elements import LabError

        with pytest.raises(LabError, match="failed to open"):
            make_lab(text)


class TestFailureModel:
    def test_failure_after_threshold_of_continuous_overload(self):
        _, lab = make_lab(duo_lab_text(service_rate=10, queue_capacity=5, failure_threshold_s=3))
        target = lab.element("target")
        sim = lab.sim
        start = sim.clock
        # 50 tps against capacity 10: queue fills immediately and stays full
        from diamlab.codec import encode_message

        for i in range(200):
            sim.send(sim.route(lab.element("attacker").node, target.node),
                     encode_message(_probe(hbh=i + 10)))
            sim.run_until(sim.clock + 20_000)
        assert target.failed
        fail_after_s = (target.failed_at - start) / 1_000_000
        assert 2.5 <= fail_after_s <= 4.5

    def test_failed_element_answers_nothing(self):
        _, lab = make_lab(duo_lab_text())
        target = lab.element("target")
        target.fail(lab.sim.clock)
        served_before = target.direct_served + target.drained_served
        from diamlab.codec import encode_message

        sim = lab.sim
        for i in range(10):
            sim.send(sim.route(lab.element("attacker").node, target.node),
                     encode_message(_probe(hbh=100 + i)))
        sim.run_until(sim.clock + 1_000_000)
        assert target.direct_served + target.drained_served == served_before
        assert target.dropped_failed_inbound >= 10

    def test_conservation_identity(self):
        _, lab = make_lab(duo_lab_text(service_rate=50, queue_capacity=10))
        target = lab.element("target")
        sim = lab.sim
        from diamlab.codec import encode_message

        for i in range(300):
            sim.send(sim.route(lab.element("attacker").node, target.node),
                     encode_message(_probe(hbh=i + 10)))
            sim.run_until(sim.clock + 2_000)
        sim.run_until(sim.clock + 3_000_000)
        assert target.drained_served > 0 and target.dropped_overflow > 0
        assert broken_identities(lab, []) == []


class _Answers:
    """An on_answer callback that records every answer delivered with its
    request's send time."""

    def __init__(self):
        self.delivered = []

    def __call__(self, sent_at, msg, now):
        self.delivered.append((sent_at, msg.hop_by_hop_id))


class TestPendingTable:
    """The link owns the table of outstanding requests; the FSM only reads it."""

    def _open_duo(self):
        _, lab = make_lab(duo_lab_text())
        ab, target = lab.element("attacker"), lab.element("target")
        self.answers = _Answers()
        return lab, ab, target, ab.peer_link(target.node)

    def _echo(self, lab, ab, target):
        return ab.send_app_request(target.node, _probe(), self.answers, lab.sim.clock)

    def _feed_answer(self, lab, ab, target, hbh):
        answer = build_message(dct.CMD_ECHO, hop_by_hop_id=hbh)
        ab.on_message(target.node, answer, lab.sim.clock)

    @pytest.mark.parametrize("how", ["stop", "rcv-dpr", "missed-dwas"])
    def test_leaving_open_clears_pending(self, how):
        lab, ab, target, link = self._open_duo()
        sim = lab.sim
        for i in range(3):
            self._echo(lab, ab, target)
        assert len(link.pending) == 3
        if how == "stop":
            ab.feed_event(target.node, PeerEvent(EventKind.STOP), sim.clock)
        elif how == "rcv-dpr":
            dpr = PeerEvent(EventKind.RCV_DPR, build_dpr("target.lab"))
            ab.feed_event(target.node, dpr, sim.clock)
        else:  # no DWA ever arrives: DWR, DWR, then the link closes
            for _ in range(3):
                deadline = link.state.watchdog_deadline
                ab.feed_event(target.node, PeerEvent(EventKind.WATCHDOG_TIMER), deadline)
        assert link.state.phase is not Phase.OPEN
        assert link.pending == {}

    def test_matching_answer_pops_entry(self):
        lab, ab, target, link = self._open_duo()
        sent = lab.sim.clock
        hbh = self._echo(lab, ab, target)
        assert link.pending[hbh] == (sent, self.answers)
        self._feed_answer(lab, ab, target, hbh)
        assert self.answers.delivered == [(sent, hbh)]
        assert link.pending == {}

    def test_an_answer_is_refused_before_an_id_is_taken(self):
        lab, ab, target, link = self._open_duo()
        next_id, sends = link.next_hop_by_hop, lab.sim.stats.sends
        answer = build_message(dct.CMD_ECHO)
        with pytest.raises(ValueError, match="not a request"):
            ab.send_app_request(target.node, answer, self.answers, lab.sim.clock)
        assert (link.next_hop_by_hop, lab.sim.stats.sends, link.pending) == (next_id, sends, {})

    def test_unknown_id_is_no_match(self):
        lab, ab, target, link = self._open_duo()
        hbh = self._echo(lab, ab, target)
        before, drops = dict(link.pending), ab.fsm_drops
        self._feed_answer(lab, ab, target, hbh + 1)
        assert self.answers.delivered == []
        assert ab.fsm_drops == drops + 1
        assert link.pending == before

    def test_second_answer_with_same_id_is_no_match(self):
        lab, ab, target, link = self._open_duo()
        hbh = self._echo(lab, ab, target)
        self._feed_answer(lab, ab, target, hbh)
        drops = ab.fsm_drops
        self._feed_answer(lab, ab, target, hbh)
        assert len(self.answers.delivered) == 1
        assert ab.fsm_drops == drops + 1

    def test_request_with_a_pending_id_does_not_consume_it(self):
        lab, ab, target, link = self._open_duo()
        hbh = self._echo(lab, ab, target)
        offered = ab.offered
        ab.on_message(target.node, _probe(hbh=hbh), lab.sim.clock)
        assert ab.offered == offered + 1  # delivered as a request
        assert self.answers.delivered == []
        assert hbh in link.pending

    def test_register_outside_open_rejected(self):
        lab, ab, target, _ = self._open_duo()
        with pytest.raises(ValueError):
            register_request(PeerLink(lab.sim.route(ab.node, target.node)), 1, 0, None)

    def test_duplicate_registration_rejected(self):
        lab, ab, target, link = self._open_duo()
        register_request(link, 1, 0, None)
        with pytest.raises(ValueError):
            register_request(link, 1, 0, None)

    def test_answer_event_delivers_with_pending(self):
        lab, ab, target, link = self._open_duo()
        sent = lab.sim.clock
        hbh = self._echo(lab, ab, target)
        lab.sim.run_until(lab.sim.clock + 100_000)  # the target answers over the link
        [(sent_at, answered)] = self.answers.delivered
        assert answered == hbh and sent_at == sent
        assert link.pending == {}

    @pytest.mark.parametrize("raw", [False, True], ids=["send_app_request", "send_raw_request"])
    def test_a_sent_request_is_kept_as_its_send_time_and_callback(self, raw):
        lab, ab, target, link = self._open_duo()
        now = lab.sim.clock
        if raw:
            hbh = 41
            assert ab.send_raw_request(target.node, b"\x01", hbh, self.answers, now)
        else:
            hbh = self._echo(lab, ab, target)
        entry = link.pending[hbh]
        assert type(entry) is tuple and entry == (now, self.answers)
        assert entry[1] is self.answers

    def test_an_answer_gets_its_requests_send_time_and_its_own_time(self):
        lab, ab, target, link = self._open_duo()
        calls = []
        register_request(link, 41, 123, lambda *call: calls.append(call))
        answer = build_message(dct.CMD_ECHO, hop_by_hop_id=41)
        ab.on_message(target.node, answer, 456)
        assert calls == [(123, answer, 456)]
        assert 41 not in link.pending

    def test_a_base_protocol_answer_goes_to_its_entry_before_the_peer_fsm(self):
        # A DWR sent with send_raw_request, as a fuzz case is, and the same
        # bytes sent with no entry: the target's DWA reaches the entry's
        # callback, and the attack box's FSM sees it the same either way.
        unmatched = build_base_answer(replace_ids(build_dwr("target.lab"), 999, 999), "target.lab")
        states = []
        for registered in (True, False):
            lab, ab, target, link = self._open_duo()
            tap = lab.sim.attach_tap(ab.node, target.node)
            hbh, sent = ab.alloc_hop_by_hop(target.node), lab.sim.clock
            dwr = encode_message(replace_ids(build_dwr("attacker.lab"), hbh, hbh))
            calls = []
            if registered:
                assert ab.send_raw_request(target.node, dwr, hbh, lambda *c: calls.append(c), sent)
            else:
                lab.sim.send(lab.sim.route(ab.node, target.node), dwr)
            lab.sim.run_until(sent + lab.round_trip_us())
            _, answered = tap.records
            dwa = decode_message(answered.data)
            assert (dwa.command_code, dwa.request) == (dct.CMD_DEVICE_WATCHDOG, False)
            expected = [(sent, dwa, answered.at + lab.max_latency_us())] if registered else []
            assert calls == expected
            assert link.pending == {}
            states.append(link.state)
            register_request(link, 998, lab.sim.clock, lambda *c: calls.append(c))
            entry = link.pending[998]
            ab.on_message(target.node, unmatched, lab.sim.clock)
            assert calls == expected and link.pending == {998: entry}
            states.append(link.state)
        assert states[:2] == states[2:]

    def test_send_raw_request_refuses_an_outstanding_id(self):
        lab, ab, target, link = self._open_duo()
        hbh = self._echo(lab, ab, target)
        with pytest.raises(ValueError, match="duplicate"):
            ab.send_raw_request(target.node, b"\x01", hbh, None, lab.sim.clock)
        assert link.pending[hbh] == (lab.sim.clock, self.answers)

    def test_forget_pending_many_counts_entries_nobody_waits_for(self):
        # an entry is a pair even with no callback, so it is never None
        lab, ab, target, link = self._open_duo()
        ids = [ab.send_app_request(target.node, _probe(), None, 0) for _ in range(2)]
        assert ab.forget_pending_many(target.node, [*ids, 999]) == 2
        assert link.pending == {}

    def test_forget_pending_many_counts_what_existed(self):
        lab, ab, target, link = self._open_duo()
        ids = [self._echo(lab, ab, target) for _ in range(3)]
        assert ab.forget_pending_many(target.node, [ids[0], ids[2], ids[2], 999]) == 2
        assert list(link.pending) == [ids[1]]

    def test_hop_by_hop_wraps_within_32_bits(self):
        lab, ab, target, link = self._open_duo()
        link.next_hop_by_hop = 2**32 - 1
        ids = [self._echo(lab, ab, target) for _ in range(3)]
        assert ids == [2**32 - 1, 0, 1]
        lab.sim.run_until(lab.sim.clock + 100_000)
        assert sorted(answered for _, answered in self.answers.delivered) == [0, 1, 2**32 - 1]
        assert link.pending == {}

    def test_state_machine_requests_take_the_link_ids(self):
        lab, ab, target, link = self._open_duo()
        tap = lab.sim.attach_tap(ab.node, target.node)
        hbh = self._echo(lab, ab, target)
        deadline = link.state.watchdog_deadline
        ab.feed_event(target.node, PeerEvent(EventKind.WATCHDOG_TIMER), deadline)
        lab.sim.run_until(lab.sim.clock + 1)
        sent = [decode_message(r.data) for r in tap.records if r.src.id == ab.node.id]
        assert [(m.command_code, m.hop_by_hop_id) for m in sent] == [
            (dct.CMD_ECHO, hbh),
            (dct.CMD_DEVICE_WATCHDOG, hbh + 1),
        ]

    @given(event_sequences(), st.lists(st.booleans(), min_size=30, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_pending_empty_outside_open(self, events, sends):
        _, lab = make_lab(duo_lab_text(), open_links=False)
        ab, target = lab.element("attacker"), lab.element("target")
        link = ab.peer_link(target.node)
        now = 0
        for event, send in zip(events, sends):
            now += 1000
            if send:
                ab.send_app_request(target.node, _probe(), None, now)
            ab.feed_event(target.node, event, now)
            if link.state.phase is not Phase.OPEN:
                assert link.pending == {}


class TestDirectDeliveryAgreesWithTheTable:
    """`Element.on_message` takes application messages past the peer state
    machine: it must reach the outcome `handle_event` gives the same message."""

    HBH = 77

    @pytest.mark.parametrize(
        "case", ["request", "matched-answer", "matched-answer-nobody-waits", "unmatched-answer"]
    )
    @pytest.mark.parametrize("phase", list(Phase))
    def test_on_message_delivers_exactly_when_handle_event_does(self, phase, case):
        _, lab = make_lab(duo_lab_text())
        target, ab = lab.element("target"), lab.element("attacker")
        link = target.peer_link(ab.node)
        link.state = state = state_in(phase)
        answers = _Answers()
        if case != "unmatched-answer":  # a request finds an entry too, and must leave it
            on_answer = None if case == "matched-answer-nobody-waits" else answers
            link.pending[self.HBH] = (0, on_answer)
        if case == "request":
            kind, msg = EventKind.RCV_REQUEST, _probe(hbh=self.HBH)
        else:
            hbh = self.HBH + 1 if case == "unmatched-answer" else self.HBH
            kind, msg = EventKind.RCV_ANSWER, build_message(dct.CMD_ECHO, hop_by_hop_id=hbh)
        now = lab.sim.clock

        def tally():
            return target.offered, len(answers.delivered), target.stray_answers, target.fsm_drops

        consumed = 0
        for _ in range(2):  # a second copy of an answer finds its entry gone
            pending = dict(link.pending)
            _, actions = handle_event(state, PeerEvent(kind, msg), now, target.peer_config, pending)
            outcome = [a.kind for a in actions]
            assert outcome in ([ActionKind.DELIVER_TO_APP], [ActionKind.DROP_MESSAGE])
            before = tally()
            target.on_message(ab.node, msg, now)
            admitted, answered, strays, drops = (a - b for a, b in zip(tally(), before))
            delivered = admitted + answered + strays
            assert delivered == (outcome == [ActionKind.DELIVER_TO_APP])
            assert drops == (outcome == [ActionKind.DROP_MESSAGE])
            popped = {hbh: entry for hbh, entry in pending.items() if hbh not in link.pending}
            answer_delivered = delivered and not msg.request
            assert popped == ({self.HBH: pending[self.HBH]} if answer_delivered else {})
            consumed += len(popped)
            assert link.state is state
        assert consumed <= 1
        assert answers.delivered in ([], [(0, self.HBH)])
