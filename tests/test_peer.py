"""Peer FSM: the full transition matrix, watchdog liveness, correlation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamlab import dictionary as dct
from diamlab.codec import decode_message, encode_message, first_avp, replace_ids
from diamlab.peer import (
    DEFAULT_CONFIG,
    MESSAGE_EVENTS,
    TRANSITION_MATRIX,
    ActionKind,
    EventKind,
    PeerEvent,
    PeerState,
    PendingRequest,
    Phase,
    build_base_answer,
    build_cer,
    build_dpr,
    build_dwr,
    handle_event,
)
from diamlab.codec import build_message

WD = DEFAULT_CONFIG.watchdog_interval_us


def message_for(kind: EventKind):
    """A plausible inbound message for each Rcv* event kind."""
    if kind is EventKind.RCV_CER:
        return build_cer("peer.example", [0])
    if kind is EventKind.RCV_CEA:
        return build_base_answer(build_cer("peer.example", [0]), "other.example")
    if kind is EventKind.RCV_DWR:
        return build_dwr("peer.example")
    if kind is EventKind.RCV_DWA:
        return build_base_answer(build_dwr("peer.example"), "other.example")
    if kind is EventKind.RCV_DPR:
        return build_dpr("peer.example")
    if kind is EventKind.RCV_DPA:
        return build_base_answer(build_dpr("peer.example"), "other.example")
    if kind is EventKind.RCV_REQUEST:
        return build_message(dct.CMD_ECHO, request=True, hop_by_hop_id=9)
    if kind is EventKind.RCV_ANSWER:
        return build_message(dct.CMD_ECHO, hop_by_hop_id=12345)  # unknown id
    return None


def state_in(phase: Phase) -> PeerState:
    # Open states get a future watchdog deadline, as a live link would have.
    if phase is Phase.OPEN:
        return PeerState(phase=phase, watchdog_deadline=WD)
    return PeerState(phase=phase)


class TestTransitionMatrix:
    def test_matrix_is_exhaustive(self):
        pairs = {(phase, kind) for phase in Phase for kind in EventKind}
        assert set(TRANSITION_MATRIX) == pairs
        assert len(TRANSITION_MATRIX) == 60

    @pytest.mark.parametrize("phase", list(Phase))
    @pytest.mark.parametrize("kind", list(EventKind))
    def test_every_cell_behaves_as_published(self, phase, kind):
        state = state_in(phase)
        event = PeerEvent(kind, message_for(kind))
        new_state, actions = handle_event(state, event, now=0)
        expected_phase, expected_actions = TRANSITION_MATRIX[(phase, kind)]
        want = state.phase.value if expected_phase == "=" else expected_phase
        assert new_state.phase.value == want
        assert tuple(a.kind.value for a in actions) == expected_actions

    @pytest.mark.parametrize("phase", list(Phase))
    @pytest.mark.parametrize("kind", list(EventKind))
    def test_inputs_are_never_mutated(self, phase, kind):
        state = state_in(phase)
        # an entry the RcvAnswer message matches, so Open/RcvAnswer delivers
        pending = {12345: PendingRequest(12345, 0)}
        before = (state.phase, state.watchdog_deadline, dict(pending))
        handle_event(state, PeerEvent(kind, message_for(kind)), 0, DEFAULT_CONFIG, pending)
        assert (state.phase, state.watchdog_deadline, pending) == before


class TestLifecycleScenarios:
    def test_initiator_happy_path(self):
        s = PeerState()
        s, actions = handle_event(s, PeerEvent(EventKind.START), 0)
        assert s.phase is Phase.WAIT_CONN_ACK and actions == []
        s, actions = handle_event(s, PeerEvent(EventKind.CONN_ACK), 0)
        assert s.phase is Phase.WAIT_CEA
        assert [a.kind for a in actions] == [ActionKind.SEND_CER]
        cer = actions[0].message
        assert cer.header.command_code == dct.CMD_CAPABILITIES_EXCHANGE
        assert cer.header.request
        s, actions = handle_event(s, PeerEvent(EventKind.RCV_CEA, build_base_answer(cer, "b")), 10)
        assert s.phase is Phase.OPEN and actions == []
        assert s.watchdog_deadline == 10 + WD

    def test_responder_happy_path(self):
        cer = replace_ids(build_cer("a.lab", [0]), 3, 3)
        s, actions = handle_event(PeerState(), PeerEvent(EventKind.RCV_CER, cer), 5)
        assert s.phase is Phase.OPEN
        assert [a.kind for a in actions] == [ActionKind.SEND_CEA]
        cea = actions[0].message
        assert cea.header.hop_by_hop_id == 3  # answer echoes the request id
        assert not cea.header.request

    def test_request_in_wait_cea_is_dropped(self):
        s = PeerState(phase=Phase.WAIT_CEA)
        msg = build_message(dct.CMD_ECHO, request=True)
        s2, actions = handle_event(s, PeerEvent(EventKind.RCV_REQUEST, msg), 0)
        assert s2.phase is Phase.WAIT_CEA
        assert [a.kind for a in actions] == [ActionKind.DROP_MESSAGE]

    def test_dwr_echo_in_open(self):
        s = state_in(Phase.OPEN)
        dwr = replace_ids(build_dwr("peer.example"), 44, 0)
        s2, actions = handle_event(s, PeerEvent(EventKind.RCV_DWR, dwr), 0)
        assert s2.phase is Phase.OPEN
        assert [a.kind for a in actions] == [ActionKind.SEND_DWA]
        assert actions[0].message.header.hop_by_hop_id == 44

    def test_dpr_in_open_answers_and_closes(self):
        s = state_in(Phase.OPEN)
        dpr = build_dpr("peer.example")
        s2, actions = handle_event(s, PeerEvent(EventKind.RCV_DPR, dpr), 0)
        assert s2.phase is Phase.CLOSING
        assert [a.kind for a in actions] == [ActionKind.SEND_DPA]

    def test_stop_in_open_sends_dpr_then_dpa_closes(self):
        s = state_in(Phase.OPEN)
        s, actions = handle_event(s, PeerEvent(EventKind.STOP), 0)
        assert s.phase is Phase.CLOSING
        dpr = actions[0].message
        assert dpr.header.command_code == dct.CMD_DISCONNECT_PEER
        dpa = build_base_answer(dpr, "peer.example")
        s, actions = handle_event(s, PeerEvent(EventKind.RCV_DPA, dpa), 0)
        assert s.phase is Phase.CLOSED
        assert [a.kind for a in actions] == [ActionKind.CLOSE_LINK]

    def test_fsm_requests_leave_the_id_to_the_link(self):
        _, cer = handle_event(state_in(Phase.WAIT_CONN_ACK), PeerEvent(EventKind.CONN_ACK), 0)
        s, dwr = handle_event(state_in(Phase.OPEN), PeerEvent(EventKind.WATCHDOG_TIMER), WD)
        _, dpr = handle_event(s, PeerEvent(EventKind.STOP), WD)
        for action in cer + dwr + dpr:
            assert action.message.header.request
            assert action.message.header.hop_by_hop_id == 0


class TestWatchdog:
    def test_timer_before_deadline_is_stale(self):
        s = state_in(Phase.OPEN)
        s2, actions = handle_event(s, PeerEvent(EventKind.WATCHDOG_TIMER), WD - 1)
        assert actions == [] and s2 == s

    def test_fire_sends_dwr_and_renews(self):
        s = state_in(Phase.OPEN)
        s2, actions = handle_event(s, PeerEvent(EventKind.WATCHDOG_TIMER), WD)
        assert [a.kind for a in actions] == [ActionKind.SEND_DWR]
        assert s2.dwr_outstanding
        assert s2.watchdog_deadline == WD + WD

    def test_dwa_clears_outstanding(self):
        s = state_in(Phase.OPEN)
        s, _ = handle_event(s, PeerEvent(EventKind.WATCHDOG_TIMER), WD)
        dwa = build_base_answer(build_dwr("x"), "peer.example")
        s, actions = handle_event(s, PeerEvent(EventKind.RCV_DWA, dwa), WD + 5)
        assert actions == []
        assert not s.dwr_outstanding and s.missed_dwas == 0
        assert s.watchdog_deadline == WD + 5 + WD

    def test_two_missed_dwas_close_the_link(self):
        s = state_in(Phase.OPEN)
        s, a1 = handle_event(s, PeerEvent(EventKind.WATCHDOG_TIMER), WD)
        s, a2 = handle_event(s, PeerEvent(EventKind.WATCHDOG_TIMER), 2 * WD)
        assert [a.kind for a in a2] == [ActionKind.SEND_DWR]
        assert s.missed_dwas == 1
        s, a3 = handle_event(s, PeerEvent(EventKind.WATCHDOG_TIMER), 3 * WD)
        assert s.phase is Phase.CLOSED
        assert [a.kind for a in a3] == [ActionKind.CLOSE_LINK]

    def test_quiet_link_alternates_dwr_and_renewal(self):
        # traffic-free Open link: timer -> DWR, DWA -> renewal, repeatedly
        s = state_in(Phase.OPEN)
        now = 0
        for _ in range(4):
            now = s.watchdog_deadline
            s, actions = handle_event(s, PeerEvent(EventKind.WATCHDOG_TIMER), now)
            assert [a.kind for a in actions] == [ActionKind.SEND_DWR]
            dwa = build_base_answer(actions[0].message, "peer.example")
            s, actions = handle_event(s, PeerEvent(EventKind.RCV_DWA, dwa), now + 100)
            assert actions == []
            assert s.phase is Phase.OPEN and s.missed_dwas == 0


class TestCorrelation:
    """The FSM side of correlation: it reads the link's table, never changes it.

    Registering, popping and reclaiming entries are tested with the table's
    owner in tests/test_elements.py (TestPendingTable).
    """

    def test_answer_matching_the_table_is_delivered_and_leaves_the_table(self):
        entry = PendingRequest(21, 5, on_answer=lambda pending, msg, now: None)
        pending = {21: entry}
        answer = build_message(dct.CMD_ECHO, hop_by_hop_id=21)
        s = state_in(Phase.OPEN)
        event = PeerEvent(EventKind.RCV_ANSWER, answer)
        s2, actions = handle_event(s, event, 10, DEFAULT_CONFIG, pending)
        assert [a.kind for a in actions] == [ActionKind.DELIVER_TO_APP]
        assert s2 == s and pending == {21: entry}

    def test_answer_outside_open_is_dropped_even_when_it_matches(self):
        pending = {21: PendingRequest(21, 5)}
        event = PeerEvent(EventKind.RCV_ANSWER, build_message(dct.CMD_ECHO, hop_by_hop_id=21))
        for phase in Phase:
            if phase is Phase.OPEN:
                continue
            _, actions = handle_event(state_in(phase), event, 10, DEFAULT_CONFIG, pending)
            assert [a.kind for a in actions] == [ActionKind.DROP_MESSAGE]


class TestBuilders:
    def test_cer_carries_identity_and_applications(self):
        cer = build_cer("attacker.lab", [0, 5])
        decoded = decode_message(encode_message(cer))
        assert decoded.header.command_code == dct.CMD_CAPABILITIES_EXCHANGE
        assert decoded.header.request
        origin = first_avp(decoded, dct.AVP_ORIGIN_HOST)
        assert origin.data == b"attacker.lab"
        apps = [a for a in decoded.avps if a.code == dct.AVP_AUTH_APPLICATION_ID]
        assert [int.from_bytes(a.data, "big") for a in apps] == [0, 5]

    def test_cea_echoes_hop_by_hop(self):
        cer = replace_ids(build_cer("a.lab", [0]), 99, 98)
        cea = build_base_answer(cer, "b.lab")
        assert cea.header.hop_by_hop_id == 99
        assert cea.header.end_to_end_id == 98
        assert first_avp(cea, dct.AVP_RESULT_CODE).data == (2001).to_bytes(4, "big")

    def test_empty_identity_rejected(self):
        for builder in (build_cer, build_dwr, build_dpr):
            with pytest.raises(ValueError, match="identity must be non-empty"):
                builder("", [0]) if builder is build_cer else builder("")
        for request in (build_cer("a.lab", [0]), build_dwr("a.lab"), build_dpr("a.lab")):
            with pytest.raises(ValueError, match="identity must be non-empty"):
                build_base_answer(request, "")

    def test_event_message_presence_invariant(self):
        with pytest.raises(ValueError):
            PeerEvent(EventKind.START, message=build_message(700))
        with pytest.raises(ValueError):
            PeerEvent(EventKind.RCV_CER)

    @pytest.mark.parametrize("with_message", [False, True], ids=["bare", "with-message"])
    @pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.value)
    def test_every_kind_checks_message_presence(self, kind, with_message):
        """Raises exactly when the message's presence disagrees with MESSAGE_EVENTS."""
        message = build_message(700) if with_message else None
        if with_message != (kind in MESSAGE_EVENTS):
            with pytest.raises(ValueError, match=f"^event {kind.value} message presence mismatch$"):
                PeerEvent(kind, message)
        else:
            event = PeerEvent(kind, message)
            assert (event.kind, event.message) == (kind, message)


@st.composite
def event_sequences(draw):
    kinds = draw(st.lists(st.sampled_from(list(EventKind)), min_size=1, max_size=30))
    return [PeerEvent(k, message_for(k)) for k in kinds]


class TestSequenceProperties:
    @given(event_sequences())
    @settings(max_examples=200, deadline=None)
    def test_app_delivery_only_in_open(self, events):
        s = PeerState()
        now = 0
        for event in events:
            now += 1000
            pre_phase = s.phase
            s, actions = handle_event(s, event, now)
            for action in actions:
                if action.kind is ActionKind.DELIVER_TO_APP:
                    assert pre_phase is Phase.OPEN
