"""Simulator: determinism, taps, loss accounting, the DCAP capture format."""

import dataclasses
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamlab import dictionary as dct
from diamlab.capture import (
    MAGIC,
    CaptureFormatError,
    decode_capture,
    encode_capture,
    read_capture,
    write_capture,
)
from diamlab.simnet import (
    CaptureRecord,
    LinkSpec,
    NodeId,
    NoSuchLinkError,
    TopologySpec,
    build_topology,
)
from diamlab.codec import (
    U32_MAX,
    Avp,
    CodecError,
    build_message,
    decode_message,
    encode_message,
)
from diamlab.elements import result_code_of

from tests.labs import duo_lab_text, make_lab


class Recorder:
    """Node handler that remembers every delivery, and every timer it is given to fire."""

    def __init__(self):
        self.messages = []
        self.timers = []

    def on_message(self, sim, src, data, now):
        self.messages.append((now, src.label, data))

    def fire(self, now, tag):
        self.timers.append((now, tag))


def two_node_sim(latency_ms=10.0, loss=0.0, protected=False, seed=0):
    spec = TopologySpec(
        nodes=("a", "b"),
        links=(LinkSpec("a", "b", latency_ms=latency_ms, loss_probability=loss, protected=protected),),
    )
    sim = build_topology(spec, seed=seed)
    rec_a, rec_b = Recorder(), Recorder()
    a, b = sim.nodes
    sim.register_handler(a, rec_a)
    sim.register_handler(b, rec_b)
    return sim, rec_a, rec_b


def chain_sim(seed=3):
    """a --3 ms-- b --7.25 ms, 30% loss-- c, with a Recorder on every node."""
    spec = TopologySpec(
        nodes=("a", "b", "c"),
        links=(
            LinkSpec("a", "b", latency_ms=3.0),
            LinkSpec("b", "c", latency_ms=7.25, loss_probability=0.3),
        ),
    )
    sim = build_topology(spec, seed=seed)
    recorders = {}
    for node in sim.nodes:
        recorders[node.label] = Recorder()
        sim.register_handler(node, recorders[node.label])
    return sim, recorders


class OrderLog:
    """Node handler that logs messages and the timers it fires in one list, in firing order."""

    def __init__(self):
        self.log = []

    def on_message(self, sim, src, data, now):
        self.log.append(("message", data))

    def fire(self, now, tag):
        self.log.append(("timer", tag))


class TestTopology:
    def test_two_node_build(self):
        sim, _, _ = two_node_sim()
        assert len(sim.nodes) == 2
        assert len(sim.links) == 1
        assert sim.clock == 0

    def test_five_node_build(self):
        labels = ("attacker", "target", "hss", "mme", "pcrf")
        spec = TopologySpec(
            nodes=labels,
            links=(LinkSpec("attacker", "target"), LinkSpec("mme", "hss"), LinkSpec("mme", "pcrf")),
        )
        sim = build_topology(spec, seed=1)
        assert [n.label for n in sim.nodes] == list(labels)
        assert len(sim.links) == 3

    def test_empty_spec_runs_immediately(self):
        sim = build_topology(TopologySpec(), seed=0)
        sim.run_until(10_000_000)
        stats = sim.stats
        assert stats.events_processed == 0
        assert sim.clock == 10_000_000

    @pytest.mark.parametrize(
        "kwargs, text",
        [
            ({"latency_ms": -1}, "latency must be >= 0"),
            ({"latency_ms": float("nan")}, "latency must be >= 0"),
            ({"latency_ms": 1e306}, "latency is too large"),
            ({"loss_probability": 1.5}, "in \\[0, 1\\]"),
        ],
    )
    def test_link_spec_checks_its_parameters(self, kwargs, text):
        with pytest.raises(ValueError, match=text):
            LinkSpec("x", "y", **kwargs)

    def test_node_ids_unique_and_ordered(self):
        sim, _, _ = two_node_sim()
        assert [n.id for n in sim.nodes] == [0, 1]


class TestDelivery:
    def test_latency_10ms_delivers_at_t_plus_10ms(self):
        sim, _, rec_b = two_node_sim(latency_ms=10)
        a, b = sim.nodes
        sim.send(a, b, b"hello")
        sim.run_until(1_000_000)
        assert rec_b.messages == [(10_000, "a", b"hello")]

    def test_three_sends_loss_free_all_delivered(self):
        sim, _, _ = two_node_sim()
        a, b = sim.nodes
        for _ in range(3):
            sim.send(a, b, b"x")
        sim.run_until(1_000_000)
        stats = sim.stats
        assert stats.delivered == 3 and stats.lost == 0

    def test_loss_probability_one_never_delivers(self):
        sim, _, rec_b = two_node_sim(loss=1.0)
        a, b = sim.nodes
        for _ in range(50):
            sim.send(a, b, b"x")
        sim.run_until(1_000_000)
        stats = sim.stats
        assert rec_b.messages == []
        assert stats.lost == 50 and stats.delivered == 0

    def test_no_such_link(self):
        spec = TopologySpec(nodes=("a", "b", "c"),
                            links=(LinkSpec("a", "b"),))
        sim = build_topology(spec)
        a, _, c = sim.nodes
        with pytest.raises(NoSuchLinkError):
            sim.send(a, c, b"x")

    def test_bidirectional(self):
        sim, rec_a, rec_b = two_node_sim()
        a, b = sim.nodes
        sim.send(a, b, b"fwd")
        sim.send(b, a, b"rev")
        sim.run_until(1_000_000)
        assert rec_b.messages[0][2] == b"fwd"
        assert rec_a.messages[0][2] == b"rev"

    def test_fifo_tie_break(self):
        sim, _, rec_b = two_node_sim(latency_ms=5)
        a, b = sim.nodes
        for i in range(4):
            sim.send(a, b, bytes([i]))  # all delivered at the same instant
        sim.run_until(1_000_000)
        assert [m[2] for m in rec_b.messages] == [b"\x00", b"\x01", b"\x02", b"\x03"]

    def test_timer_and_delivery_due_together_fire_in_scheduling_order(self):
        sim, _, _ = two_node_sim(latency_ms=5)
        a, b = sim.nodes
        order = OrderLog()
        sim.register_handler(b, order)
        expected = []
        for i in range(20):
            if i % 2:
                sim.send(a, b, bytes([i]))
                expected.append(("message", bytes([i])))
            else:
                # dicts and None cannot be ordered: a comparison would raise TypeError
                tag = None if i % 4 == 0 else {"i": i}
                sim.schedule_timer(5_000, order.fire, tag)
                expected.append(("timer", tag))
        sim.run_until(5_000)
        assert order.log == expected

    def test_timers_fire_in_order(self):
        sim, rec_a, _ = two_node_sim()
        sim.schedule_timer(500, rec_a.fire, "late")
        sim.schedule_timer(100, rec_a.fire, "early")
        sim.run_until(1000)
        assert rec_a.timers == [(100, "early"), (500, "late")]

    def test_timer_calls_its_function_with_the_time_and_its_arguments(self):
        sim = build_topology(TopologySpec(), seed=0)
        calls = []
        sim.schedule_timer(300, lambda now, *args: calls.append((now, args)), "x", 2)
        sim.schedule_timer(200, lambda now: calls.append((now, ())))
        sim.run_until(1000)
        stats = sim.stats
        assert calls == [(200, ()), (300, ("x", 2))]
        assert stats.events_processed == 2 and stats.delivered == 0

    def test_a_timer_that_raises_is_counted_with_the_clock_at_it(self):
        sim = build_topology(TopologySpec(), seed=0)
        bug = RuntimeError("timer bug")
        fired = []

        def explode(now):
            raise bug

        sim.schedule_timer(100, fired.append)
        sim.schedule_timer(300, explode)
        sim.schedule_timer(500, fired.append)
        with pytest.raises(RuntimeError) as raised:
            sim.run_until(1000)
        assert raised.value is bug
        assert (fired, sim.events_processed, sim.clock) == ([100], 2, 300)
        sim.run_until(1000)  # the events after it are still queued
        assert (fired, sim.events_processed, sim.clock) == ([100, 500], 3, 1000)

    def test_events_scheduled_for_the_current_time_run_after_those_already_due(self):
        sim = build_topology(TopologySpec(), seed=0)
        log = []

        def fire(now, tag, *later):
            log.append((now, tag))
            for child in later:
                sim.schedule_timer(sim.clock, fire, child)

        sim.schedule_timer(100, fire, "a", "d", "e")
        sim.schedule_timer(100, fire, "b", "f")
        sim.schedule_timer(100, fire, "c")
        sim.schedule_timer(101, fire, "g")
        sim.run_until(100)
        assert log == [(100, tag) for tag in "abcdef"]
        assert (sim.events_processed, sim.next_event_at()) == (6, 101)

    def test_zero_latency_deliveries_run_at_the_time_they_are_sent(self):
        sim, _, _ = two_node_sim(latency_ms=0)
        a, b = sim.nodes
        log = []

        class Echo:
            def on_message(self, sim, src, data, now):
                log.append((now, data))
                if len(data) < 4:
                    sim.send(sim.nodes[1 - src.id], src, data + b"x")

        sim.register_handler(a, Echo())
        sim.register_handler(b, Echo())
        sim.run_until(250)
        sim.send(a, b, b"x")
        sim.schedule_timer(250, lambda now: log.append((now, "timer")))
        sim.run_until(250)
        assert log == [(250, b"x"), (250, "timer"), (250, b"xx"), (250, b"xxx"), (250, b"xxxx")]
        assert sim.events_processed == 5 and sim.next_event_at() is None

    @pytest.mark.parametrize("schedules_now", [False, True])
    def test_an_event_that_raises_mid_bucket_leaves_the_rest_due_in_order(self, schedules_now):
        sim = build_topology(TopologySpec(), seed=0)
        bug = RuntimeError("timer bug")
        fired = []

        def explode(now):
            if schedules_now:
                sim.schedule_timer(now, fired.append)
            raise bug

        for fire in (fired.append, explode, fired.append, fired.append):
            sim.schedule_timer(300, fire)
        with pytest.raises(RuntimeError) as raised:
            sim.run_until(1000)
        assert raised.value is bug
        assert (fired, sim.events_processed, sim.clock, sim.next_event_at()) == ([300], 2, 300, 300)
        assert len(list(sim.due_events())) == (3 if schedules_now else 2)
        sim.run_until(1000)
        assert fired == [300] * (4 if schedules_now else 3)
        assert sim.events_processed == (5 if schedules_now else 4)

    def test_the_events_left_due_by_a_raise_run_before_those_scheduled_at_it(self):
        sim = build_topology(TopologySpec(), seed=0)
        log = []

        def note(now, tag):
            log.append(tag)

        def explode(now):
            sim.schedule_timer(now, note, "scheduled by the raise")
            raise RuntimeError

        sim.schedule_timer(5, explode)
        sim.schedule_timer(5, note, "due before the raise")
        with pytest.raises(RuntimeError):
            sim.run_until(5)
        assert list(sim.due_events()) == [
            (5, None, note, None, ("due before the raise",)),
            (5, None, note, None, ("scheduled by the raise",)),
        ]
        sim.run_until(5)
        assert log == ["due before the raise", "scheduled by the raise"]

    @pytest.mark.parametrize(
        "call",
        [
            lambda sim: sim.run_until(sim.clock),
            lambda sim: sim.next_event_at(),
            lambda sim: sim.due_events(),
            lambda sim: sim.queued_deliveries(),
            lambda sim: sim.events_scheduled(),
        ],
        ids=["run_until", "next_event_at", "due_events", "queued_deliveries", "events_scheduled"],
    )
    def test_run_until_and_queue_reads_are_refused_from_inside_an_event(self, call):
        # The rest of the running time's list is out of the queue then: a
        # nested run would run later times first, and a read would miss
        # the event after this one.
        sim = build_topology(TopologySpec(), seed=0)
        fired = []
        sim.schedule_timer(10, lambda now: call(sim))
        sim.schedule_timer(10, fired.append)
        with pytest.raises(ValueError, match="inside an event"):
            sim.run_until(20)
        assert (sim.events_processed, sim.clock, sim.next_event_at(), fired) == (1, 10, 10, [])
        assert sim.events_scheduled() == 2
        sim.run_until(20)  # the refusal leaves the loop usable
        assert (sim.events_processed, sim.clock, fired) == (2, 20, [10])

    @given(
        roots=st.lists(st.integers(0, 4), min_size=1, max_size=8),
        delays=st.lists(st.lists(st.integers(0, 2), max_size=3), min_size=1, max_size=8),
        horizons=st.lists(st.integers(0, 12), max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_events_run_in_time_then_scheduling_order(self, roots, delays, horizons):
        # Event n, when it fires, schedules one event per delay in
        # delays[n % len(delays)], n counting schedulings. The reference is
        # a heap ordered by (time, n).
        limit = 60
        sim = build_topology(TopologySpec(), seed=0)
        order, count = [], [0]

        def fire(now, n):
            order.append((now, n))
            for delay in delays[n % len(delays)]:
                if count[0] < limit:
                    sim.schedule_timer(now + delay, fire, count[0])
                    count[0] += 1

        for at in roots:
            sim.schedule_timer(at, fire, count[0])
            count[0] += 1
        for t in sorted(horizons) + [limit * 2 + 4]:  # the last event's latest time
            sim.run_until(max(t, sim.clock))

        heap, expected, n = [], [], 0
        for at in roots:
            heapq.heappush(heap, (at, n))
            n += 1
        while heap:
            now, m = heapq.heappop(heap)
            expected.append((now, m))
            for delay in delays[m % len(delays)]:
                if n < limit:
                    heapq.heappush(heap, (now + delay, n))
                    n += 1
        assert order == expected
        assert sim.events_processed == len(expected)

    def test_cannot_schedule_into_past(self):
        sim, _, _ = two_node_sim()
        sim.run_until(1000)
        with pytest.raises(ValueError, match="past"):
            sim.schedule_timer(500, print)

    def test_cannot_run_backwards(self):
        sim, _, _ = two_node_sim()
        sim.run_until(1000)
        with pytest.raises(ValueError):
            sim.run_until(500)


class TestHalt:
    """`halt()`, called from inside an event, ends the running `run_until`
    once the events of the current microsecond have run."""

    @staticmethod
    def halting_sim():
        """A sim whose timer at 100 halts and schedules one more event at
        100; (sim, log, note), where `note(now, tag)` logs (now, tag)."""
        sim = build_topology(TopologySpec(), seed=0)
        log = []

        def note(now, tag):
            log.append((now, tag))

        def stop(now):
            note(now, "halt")
            sim.halt()
            sim.schedule_timer(now, note, "scheduled after the halt")

        sim.schedule_timer(100, stop)
        sim.schedule_timer(100, note, "due with the halt")
        sim.schedule_timer(200, note, "at 200")
        sim.schedule_timer(101, note, "at 101")
        return sim, log, note

    def test_it_finishes_the_current_microsecond(self):
        sim, log, _ = self.halting_sim()
        sim.run_until(1000)
        assert log == [(100, "halt"), (100, "due with the halt"), (100, "scheduled after the halt")]

    def test_later_events_stay_due_in_order(self):
        sim, _, note = self.halting_sim()
        sim.run_until(1000)
        assert list(sim.due_events()) == [
            (101, None, note, None, ("at 101",)),
            (200, None, note, None, ("at 200",)),
        ]

    def test_the_clock_stays_at_the_halted_microsecond(self):
        sim, _, _ = self.halting_sim()
        sim.run_until(1000)
        assert (sim.clock, sim.events_processed) == (100, 3)

    def test_the_next_run_until_runs_to_its_own_time(self):
        sim, log, _ = self.halting_sim()
        sim.run_until(1000)
        sim.run_until(150)
        assert (sim.clock, sim.events_processed, log[-1]) == (150, 4, (101, "at 101"))
        sim.run_until(1000)
        assert (sim.clock, sim.events_processed, log[-1]) == (1000, 5, (200, "at 200"))

    def test_it_is_refused_outside_run_until(self):
        sim = build_topology(TopologySpec(), seed=0)
        with pytest.raises(ValueError, match="inside an event"):
            sim.halt()
        sim.schedule_timer(10, lambda now: None)
        sim.run_until(20)
        with pytest.raises(ValueError, match="inside an event"):
            sim.halt()
        assert (sim.clock, sim.events_processed) == (20, 1)

    def test_an_event_that_raises_after_a_halt_propagates_and_leaves_the_rest_due(self):
        sim = build_topology(TopologySpec(), seed=0)
        bug = RuntimeError("timer bug")
        fired = []

        def explode(now):
            raise bug

        for fire in (lambda now: sim.halt(), explode, fired.append):
            sim.schedule_timer(300, fire)
        sim.schedule_timer(400, fired.append)
        with pytest.raises(RuntimeError) as raised:
            sim.run_until(1000)
        assert raised.value is bug
        assert (fired, sim.clock, sim.events_processed) == ([], 300, 2)
        assert [event[0] for event in sim.due_events()] == [300, 400]
        sim.run_until(1000)
        assert (fired, sim.clock, sim.events_processed) == ([300, 400], 1000, 4)


class TestDeterminism:
    def _run(self, seed):
        sim, _, rec_b = two_node_sim(loss=0.5, seed=seed)
        a, b = sim.nodes
        for _ in range(1000):
            sim.send(a, b, b"probe")
        sim.run_until(10_000_000)
        stats = sim.stats
        return stats.delivered, stats.lost, len(rec_b.messages)

    def test_same_seed_same_schedule(self):
        assert self._run(42) == self._run(42)

    def test_conservation_under_loss(self):
        delivered, lost, received = self._run(7)
        assert delivered + lost == 1000
        assert received == delivered

    def test_per_link_conservation(self):
        sim, _, _ = two_node_sim(loss=0.3, seed=5)
        a, b = sim.nodes
        for _ in range(500):
            sim.send(a, b, b"x")
        sim.run_until(60_000_000)
        link = sim.link_between(a, b)
        assert link is sim.link_between(b, a)
        assert link.attempted == 500
        assert link.delivered + link.lost == link.attempted

    def test_per_link_conservation_during_and_after_the_run(self):
        sim, _ = chain_sim()
        a, b, c = sim.nodes
        ab, bc = sim.link_between(a, b), sim.link_between(b, c)
        most_queued = 0
        for _ in range(200):
            sim.send(a, b, b"x")
            sim.send(c, b, b"y")
            sim.send(b, c, b"z")
            sim.run_until(sim.clock + 2_500)
            for link in (ab, bc):
                queued = sim.queued_deliveries(link)
                assert link.attempted == link.delivered + link.lost + queued
                most_queued = max(most_queued, queued)
        assert most_queued > 0
        sim.run_until(sim.clock + 1_000_000)
        assert (ab.attempted, bc.attempted) == (200, 400)
        assert ab.lost == 0 and bc.lost > 0
        for link in (ab, bc):
            assert link.attempted == link.delivered + link.lost
        assert sim.queued_deliveries() == 0
        stats = sim.stats
        assert stats.sends == ab.attempted + bc.attempted
        assert stats.delivered == ab.delivered + bc.delivered
        assert stats.lost == ab.lost + bc.lost

    def test_different_seeds_diverge(self):
        # not guaranteed in principle, overwhelmingly likely at n=1000
        assert self._run(1) != self._run(2)


class TestMultiLink:
    def test_each_direction_of_each_link_delivers_at_its_own_latency(self):
        sim, recorders = chain_sim()
        a, b, c = sim.nodes
        for step in range(40):
            for src, dst in ((a, b), (b, a), (b, c), (c, b)):
                sim.send(src, dst, step.to_bytes(2, "big"))
            sim.run_until(sim.clock + 1_000)
        sim.run_until(sim.clock + 1_000_000)
        delays = {}
        for dst_label, recorder in recorders.items():
            for now, src_label, data in recorder.messages:
                sent_at = int.from_bytes(data, "big") * 1_000
                delays.setdefault((src_label, dst_label), set()).add(now - sent_at)
        assert delays == {
            ("a", "b"): {3_000},
            ("b", "a"): {3_000},
            ("b", "c"): {7_250},
            ("c", "b"): {7_250},
        }

    def test_unknown_pair_names_both_labels(self):
        sim, _ = chain_sim()
        a, _, c = sim.nodes
        with pytest.raises(NoSuchLinkError, match="no link between 'c' and 'a'"):
            sim.send(c, a, b"x")

    def test_tap_attached_mid_run_sees_later_traversals_of_its_own_link(self):
        sim, _ = chain_sim()
        a, b, c = sim.nodes

        def traffic(phase):
            for src, dst in ((a, b), (b, a), (b, c), (c, b)):
                sim.send(src, dst, phase + src.label.encode() + dst.label.encode())
            sim.run_until(sim.clock + 20_000)

        traffic(b"early:")
        tap = sim.attach_tap(c, b)
        traffic(b"late:")
        traffic(b"later:")
        # lost frames included: the tap sees the wire, loss is drawn after
        assert [(r.src.label, r.dst.label, r.data) for r in tap.records] == [
            ("b", "c", b"late:bc"),
            ("c", "b", b"late:cb"),
            ("b", "c", b"later:bc"),
            ("c", "b", b"later:cb"),
        ]
        assert [r.at for r in tap.records] == [20_000, 20_000, 40_000, 40_000]


class TestTaps:
    def test_tap_sees_every_traversal(self):
        sim, _, _ = two_node_sim()
        a, b = sim.nodes
        tap = sim.attach_tap(a, b)
        for i in range(7):
            sim.send(a, b, bytes([i]))
        sim.run_until(1_000_000)
        assert len(tap.records) == 7
        assert [r.data for r in tap.records] == [bytes([i]) for i in range(7)]

    def test_tap_sees_lost_messages_too(self):
        sim, _, _ = two_node_sim(loss=1.0)
        a, b = sim.nodes
        tap = sim.attach_tap(a, b)
        for _ in range(7):
            sim.send(a, b, b"x")
        assert len(tap.records) == 7  # offered to the wire, lost downstream

    def test_protected_link_yields_nothing(self):
        sim, _, rec_b = two_node_sim(protected=True)
        a, b = sim.nodes
        tap = sim.attach_tap(a, b)
        for _ in range(7):
            sim.send(a, b, b"x")
        sim.run_until(1_000_000)
        assert tap.records == []
        assert len(rec_b.messages) == 7  # traffic still flows

    def test_two_taps_identical_streams(self):
        sim, _, _ = two_node_sim()
        a, b = sim.nodes
        tap1, tap2 = sim.attach_tap(a, b), sim.attach_tap(b, a)
        sim.send(a, b, b"one")
        sim.send(b, a, b"two")
        assert tap1.records == tap2.records

    def test_tap_on_missing_link(self):
        sim, _, _ = two_node_sim()
        with pytest.raises(NoSuchLinkError):
            sim.attach_tap(sim.nodes[0], NodeId(id=9, label="ghost"))

    def test_record_carries_exact_bytes_and_time(self):
        sim, _, _ = two_node_sim()
        a, b = sim.nodes
        tap = sim.attach_tap(a, b)
        sim.run_until(12_345)
        sim.send(a, b, b"\x01\x02")
        rec = tap.records[0]
        assert rec == CaptureRecord(at=12_345, src=a, dst=b, data=b"\x01\x02")


def _echo(hbh=1):
    return build_message(
        dct.CMD_ECHO,
        request=True,
        hop_by_hop_id=hbh,
        end_to_end_id=hbh,
        avps=[Avp(code=dct.AVP_ECHO_PAYLOAD, data=b"carried")],
    )


class TestCarriedMessages:
    """A Message payload travels as itself unless a tap needs its bytes."""

    def test_untapped_link_delivers_the_message_itself(self):
        sim, _, rec_b = two_node_sim()
        a, b = sim.nodes
        msg = _echo()
        sim.send(a, b, msg)
        sim.run_until(1_000_000)
        assert [data for _, _, data in rec_b.messages] == [msg]
        assert rec_b.messages[0][2] is msg

    def test_tapped_link_records_and_delivers_the_encoding(self):
        msg = _echo()
        streams = []
        for payload in (encode_message(msg), msg):  # bytes as before, then the Message
            sim, _, rec_b = two_node_sim()
            a, b = sim.nodes
            tap = sim.attach_tap(a, b)
            sim.send(a, b, payload)
            sim.run_until(1_000_000)
            streams.append((tap.records, rec_b.messages))
        assert streams[0] == streams[1]
        records, delivered = streams[1]
        assert records == [CaptureRecord(at=0, src=a, dst=b, data=encode_message(msg))]
        assert delivered == [(10_000, "a", encode_message(msg))]

    def test_protected_tapped_link_records_nothing_and_delivers(self):
        sim, _, rec_b = two_node_sim(protected=True)
        a, b = sim.nodes
        tap = sim.attach_tap(a, b)
        msg = _echo()
        sim.send(a, b, msg)
        sim.run_until(1_000_000)
        assert tap.records == []
        assert rec_b.messages == [(10_000, "a", msg)]

    def test_lost_message_is_still_recorded(self):
        sim, _, rec_b = two_node_sim(loss=1.0)
        a, b = sim.nodes
        tap = sim.attach_tap(a, b)
        sim.send(a, b, _echo())
        sim.run_until(1_000_000)
        assert [r.data for r in tap.records] == [encode_message(_echo())]
        assert rec_b.messages == [] and sim.stats.lost == 1

    def test_elements_carry_requests_and_answers(self, carry_guard):
        _, lab = make_lab(duo_lab_text())
        ab, target = lab.element("attacker"), lab.element("target")
        before = dict(carry_guard)
        ab.send_app_request(target.node, _echo(), None, lab.sim.clock)
        lab.sim.run_until(lab.sim.clock + 100_000)
        assert carry_guard["message"] - before.get("message", 0) == 2  # request and answer
        assert carry_guard["bytes"] == before.get("bytes", 0)
        served = target.direct_served + target.drained_served
        assert served == 1 and ab.stray_answers == 1  # nobody waits for the answer
        assert target.parse_drops == 0

    def test_out_of_range_hop_by_hop_id_raises_codec_error(self, carry_guard):
        _, lab = make_lab(duo_lab_text())
        ab, target = lab.element("attacker"), lab.element("target")
        ab.peer_link(target.node).next_hop_by_hop = U32_MAX + 1
        sends = lab.sim.stats.sends
        with pytest.raises(CodecError, match="^hop-by-hop id 4294967296 out of range"):
            ab.send_app_request(target.node, _echo(), None, lab.sim.clock)
        assert lab.sim.stats.sends == sends

    @pytest.mark.parametrize(
        "change, text",
        [
            ({"application_id": 2**32}, "application id 4294967296 out of range"),
            ({"end_to_end_id": -1}, "end-to-end id -1 out of range"),
        ],
        ids=["application-id", "end-to-end-id"],
    )
    def test_hand_built_answer_out_of_range_is_caught(self, change, text, carry_guard, monkeypatch):
        # a handler that skips build_answer can still hand send an int the wire cannot carry
        _, lab = make_lab(duo_lab_text())
        ab, target = lab.element("attacker"), lab.element("target")
        answer_of = target.handle_app_request

        def skewed(msg, now):
            answer = answer_of(msg, now)
            return dataclasses.replace(answer, **change)

        monkeypatch.setattr(target, "handle_app_request", skewed)
        ab.send_app_request(target.node, _echo(), None, lab.sim.clock)
        with pytest.raises(CodecError, match="^" + text):
            lab.sim.run_until(lab.sim.clock + 100_000)

    def test_tapped_element_link_carries_bytes(self, monkeypatch):
        _, lab = make_lab(duo_lab_text())
        ab, target = lab.element("attacker"), lab.element("target")
        tap = lab.sim.attach_tap(ab.node, target.node)
        received = []
        for elem in (ab, target):
            handler = elem.on_message

            def recording(sim, src, payload, now, handler=handler):
                received.append(payload)
                handler(sim, src, payload, now)

            monkeypatch.setattr(elem, "on_message", recording)
        hbh = ab.send_app_request(target.node, _echo(), None, lab.sim.clock)
        lab.sim.run_until(lab.sim.clock + 100_000)
        assert received == [r.data for r in tap.records] and len(received) == 2
        request, answer = (decode_message(data) for data in received)
        assert request.request and request.hop_by_hop_id == hbh
        assert result_code_of(answer) == dct.RESULT_SUCCESS


node_ids = st.builds(NodeId, id=st.integers(0, 2**32 - 1), label=st.just("n"))


@st.composite
def capture_blobs(draw):
    """Half random bytes, half valid captures, maybe with bit flips, a cut or a tail."""
    if draw(st.booleans()):
        return draw(st.one_of(st.binary(max_size=96), st.binary(max_size=92).map(MAGIC.__add__)))
    records = draw(
        st.lists(
            st.builds(
                CaptureRecord,
                at=st.integers(0, 2**64 - 1),
                src=node_ids,
                dst=node_ids,
                data=st.binary(max_size=12),
            ),
            max_size=4,
        )
    )
    blob = bytearray(encode_capture(records))
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] ^= 1 << draw(st.integers(0, 7))
    cut = draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    return bytes(blob[:cut]) + draw(st.one_of(st.just(b""), st.binary(max_size=8)))


class TestCaptureFile:
    def _records(self):
        a, b = NodeId(0, "a"), NodeId(1, "b")
        return [
            CaptureRecord(at=1_000, src=a, dst=b, data=b"hello"),
            CaptureRecord(at=2_000, src=b, dst=a, data=b""),
            CaptureRecord(at=3_000, src=a, dst=b, data=b"12345678"),
        ]

    def test_layout_oracle(self):
        # one record, hand-assembled: magic, u64 ts, u32 src, u32 dst, u32 len, data, pad
        rec = CaptureRecord(at=0x0102030405060708, src=NodeId(3, "s"), dst=NodeId(4, "d"), data=b"ab")
        blob = encode_capture([rec])
        expected = (
            b"DCAP"
            + bytes([1, 2, 3, 4, 5, 6, 7, 8])
            + bytes([0, 0, 0, 3])
            + bytes([0, 0, 0, 4])
            + bytes([0, 0, 0, 2])
            + b"ab"
            + b"\x00\x00"
        )
        assert blob == expected

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.dcap"
        records = self._records()
        write_capture(path, records)
        back = read_capture(path, labels={0: "a", 1: "b"})
        assert [(r.at, r.src.id, r.dst.id, r.data) for r in back] == [
            (r.at, r.src.id, r.dst.id, r.data) for r in records
        ]
        assert back[0].src.label == "a"

    def test_total_length_multiple_of_four(self):
        blob = encode_capture(self._records())
        assert (len(blob) - len(MAGIC)) % 4 == 0

    def test_bad_magic_rejected(self):
        with pytest.raises(CaptureFormatError, match="magic"):
            decode_capture(b"PCAP" + b"\x00" * 20)

    def test_truncated_record_rejected(self):
        blob = encode_capture(self._records())
        with pytest.raises(CaptureFormatError, match="truncated"):
            decode_capture(blob[:-3])

    def test_round_trip_over_every_pad_length(self):
        a, b = NodeId(0, "node-0"), NodeId(1, "node-1")
        records = [CaptureRecord(at=n, src=a, dst=b, data=bytes(range(n))) for n in range(9)]
        assert decode_capture(encode_capture(records)) == records

    def test_missing_padding_rejected_with_record_offset(self):
        blob = encode_capture(self._records()[:1])  # b"hello": 3 pad bytes, record at 4
        for cut in (1, 3):
            with pytest.raises(CaptureFormatError, match="padding in record at offset 4$"):
                decode_capture(blob[:-cut])

    def test_nonzero_padding_rejected_with_record_offset(self):
        # b"12345678" (no pad) then b"hello", whose record starts at 4 + 20 + 8
        a, b = NodeId(0, "a"), NodeId(1, "b")
        records = [CaptureRecord(1, a, b, b"12345678"), CaptureRecord(2, b, a, b"hello")]
        blob = bytearray(encode_capture(records))
        blob[-2] = 0x01
        with pytest.raises(CaptureFormatError, match="padding in record at offset 32$"):
            decode_capture(bytes(blob))

    @given(data=capture_blobs())
    @settings(max_examples=500, deadline=None)
    def test_decode_is_total(self, data):
        """Random and structure-mutated bytes give records or CaptureFormatError, nothing else."""
        try:
            records = decode_capture(data)
        except CaptureFormatError:
            return
        assert all(isinstance(r, CaptureRecord) for r in records)
        assert encode_capture(records) == data  # decode accepts only what encode writes

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.dcap"
        write_capture(path, [])
        assert read_capture(path) == []
        assert path.read_bytes() == MAGIC
