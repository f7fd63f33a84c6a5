"""Wire codec tests: byte-exact layout oracles, parse errors, round trips."""

import copy
import dataclasses
import inspect
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamlab.codec import (
    Avp,
    CodecError,
    Dictionary,
    DictEntry,
    Message,
    MessageHeader,
    ParseError,
    ParseErrorKind,
    U32_MAX,
    Violation,
    ViolationKind,
    _checked_length,
    _decode_avps,
    build_answer,
    build_message,
    decode_message,
    encode_avp,
    encode_message,
    replace_ids,
    stamp_ids,
    validate_message,
)

from diamlab import dictionary as dct
from diamlab.attacks import seed_corpus
from diamlab.dictionary import BUILTIN_DICTIONARY
from diamlab.peer import ActionKind, EventKind, PeerAction, PeerEvent, PendingRequest

from tests.labs import duo_lab_text, make_lab
from tests.strategies import avps, messages, u32


class TestHeaderLayout:
    """Byte-for-byte checks against an independently hand-assembled header."""

    def _hand_encoded_header(self) -> bytes:
        # version 1 | length 20 | flags R | command 700 | app 0 | two ids
        return bytes(
            [0x01, 0x00, 0x00, 0x14, 0x80, 0x00, 0x02, 0xBC]
            + [0x00, 0x00, 0x00, 0x00]
            + [0x11, 0x22, 0x33, 0x44]
            + [0x55, 0x66, 0x77, 0x88]
        )

    def _header_only_message(self) -> Message:
        return build_message(
            700,
            request=True,
            hop_by_hop_id=0x11223344,
            end_to_end_id=0x55667788,
        )

    def test_header_only_message_is_20_bytes(self):
        assert encode_message(self._header_only_message()) == self._hand_encoded_header()

    def test_header_only_decodes_to_empty_avp_list(self):
        msg = decode_message(self._hand_encoded_header())
        assert isinstance(msg, Message)
        assert msg.avps == ()
        assert msg.header.command_code == 700
        assert msg.header.request and not msg.header.error
        assert msg.header.hop_by_hop_id == 0x11223344

    def test_one_avp_with_five_data_bytes(self):
        # AVP: code 2005, mandatory, 5 data bytes -> 8 header + 5 data + 3 pad
        msg = build_message(
            700,
            request=True,
            hop_by_hop_id=0x11223344,
            end_to_end_id=0x55667788,
            avps=[Avp(code=2005, data=b"abcde", mandatory=True)],
        )
        expected_avp = bytes(
            [0x00, 0x00, 0x07, 0xD5, 0x40, 0x00, 0x00, 0x0D]
        ) + b"abcde" + b"\x00\x00\x00"
        encoded = encode_message(msg)
        assert len(encoded) == 36
        assert encoded[1:4] == bytes([0x00, 0x00, 0x24])
        assert encoded[20:] == expected_avp
        assert decode_message(encoded) == msg

    def test_flag_bit_positions(self):
        base = encode_message(build_message(700))
        assert base[4] == 0x00
        assert encode_message(build_message(700, request=True))[4] == 0x80
        assert encode_message(build_message(700, proxiable=True))[4] == 0x40
        assert encode_message(build_message(700, error=True))[4] == 0x20
        assert encode_message(build_message(700, retransmit=True))[4] == 0x10

    def test_vendor_avp_layout(self):
        avp = Avp(code=9, data=b"xy", vendor_id=0xDEADBEEF, mandatory=True)
        raw = encode_avp(avp)
        # 4 code | 1 flags (V+M) | 3 length (14) | 4 vendor | 2 data | 2 pad
        assert raw[:8] == bytes([0, 0, 0, 9, 0xC0, 0, 0, 14])
        assert raw[8:12] == bytes([0xDE, 0xAD, 0xBE, 0xEF])
        assert raw[12:14] == b"xy"
        assert raw[14:] == b"\x00\x00"


class TestDecodeErrors:
    def test_empty_input(self):
        assert decode_message(b"") == ParseError(ParseErrorKind.TRUNCATED, 0)

    def test_short_input(self):
        err = decode_message(b"\x01\x00\x00\x14")
        assert err == ParseError(ParseErrorKind.TRUNCATED, 4)

    def test_bad_version(self):
        data = bytearray(encode_message(build_message(700)))
        data[0] = 2
        assert decode_message(bytes(data)) == ParseError(ParseErrorKind.BAD_VERSION, 0)

    def test_declared_length_not_multiple_of_four(self):
        data = bytearray(encode_message(build_message(700)))
        data[3] = 0x15
        assert decode_message(bytes(data)) == ParseError(ParseErrorKind.BAD_LENGTH, 1)

    def test_declared_length_below_header(self):
        data = bytearray(encode_message(build_message(700)))
        data[3] = 0x10
        assert decode_message(bytes(data)) == ParseError(ParseErrorKind.BAD_LENGTH, 1)

    def test_declared_length_beyond_input_is_truncated(self):
        data = encode_message(build_message(700))[:-4]
        assert decode_message(data) == ParseError(ParseErrorKind.TRUNCATED, 16)

    def test_trailing_bytes_rejected(self):
        data = encode_message(build_message(700)) + b"\x00\x00\x00\x00"
        assert decode_message(data) == ParseError(ParseErrorKind.BAD_LENGTH, 1)

    def test_reserved_header_flag_bits(self):
        data = bytearray(encode_message(build_message(700)))
        data[4] |= 0x08
        assert decode_message(bytes(data)) == ParseError(ParseErrorKind.BAD_PADDING, 4)

    def test_avp_overrun(self):
        msg = build_message(700, avps=[Avp(code=1, data=b"abcd")])
        data = bytearray(encode_message(msg))
        data[27] = 0x20  # AVP length now says 32, only 12 bytes remain
        err = decode_message(bytes(data))
        assert err == ParseError(ParseErrorKind.AVP_OVERRUN, 20)

    def test_avp_length_below_its_header(self):
        msg = build_message(700, avps=[Avp(code=1, data=b"abcd")])
        data = bytearray(encode_message(msg))
        data[27] = 0x04
        assert decode_message(bytes(data)) == ParseError(ParseErrorKind.BAD_LENGTH, 25)

    def test_nonzero_padding_rejected(self):
        msg = build_message(700, avps=[Avp(code=1, data=b"abc")])
        data = bytearray(encode_message(msg))
        assert data[-1] == 0
        data[-1] = 0xFF
        err = decode_message(bytes(data))
        assert err.kind is ParseErrorKind.BAD_PADDING
        assert err.offset == len(data) - 1

    def test_dangling_partial_avp_header(self):
        # declared length leaves 4 body bytes: too short for an AVP header
        data = bytearray(encode_message(build_message(700)))
        data[3] = 0x18
        data.extend(b"\x00\x00\x00\x01")
        assert decode_message(bytes(data)) == ParseError(ParseErrorKind.AVP_OVERRUN, 20)

    def test_offsets_stay_within_input(self):
        rng = random.Random(99)
        for _ in range(500):
            blob = rng.randbytes(rng.randrange(0, 80))
            out = decode_message(blob)
            if isinstance(out, ParseError):
                assert 0 <= out.offset <= len(blob)


def _built(command_code=700, avps=(), **header):
    return build_message(command_code, avps=avps, **header)


def _hand_built(command_code=700, avps=(), **header):
    return encode_message(Message(MessageHeader(command_code, **header), tuple(avps)))


# Each check runs when build_message builds a Message and again when
# encode_message meets one built by hand: the same CodecError either way.
CHECKED_BY = pytest.mark.parametrize("check", [_built, _hand_built], ids=["build", "encode"])


class TestEncodeErrors:
    @CHECKED_BY
    @pytest.mark.parametrize(
        "avp, text",
        [
            (Avp(code=2**32), "AVP code 4294967296 out of range [0, 4294967295]"),
            (Avp(code=-1), "AVP code -1 out of range [0, 4294967295]"),
            (Avp(code=1, vendor_id=2**32), "vendor id 4294967296 out of range [0, 4294967295]"),
            (Avp(code=1, vendor_id=-5), "vendor id -5 out of range [0, 4294967295]"),
            # the largest data that still fits is 2**24 - 1 - header bytes
            (Avp(code=1, data=bytes(2**24 - 8)), "AVP length 16777216 out of range [0, 16777215]"),
            (
                Avp(code=1, data=bytes(2**24 - 12), vendor_id=9),
                "AVP length 16777216 out of range [0, 16777215]",
            ),
        ],
        ids=["code-high", "code-negative", "vendor-high", "vendor-negative", "len", "len-vendor"],
    )
    def test_avp_range_error_text(self, check, avp, text):
        with pytest.raises(CodecError) as info:
            check(avps=[avp])
        assert str(info.value) == text

    @CHECKED_BY
    @pytest.mark.parametrize(
        "field, value, text",
        [
            ("command_code", 2**24, "command code 16777216 out of range [0, 16777215]"),
            ("command_code", -1, "command code -1 out of range [0, 16777215]"),
            ("application_id", 2**32, "application id 4294967296 out of range [0, 4294967295]"),
            ("hop_by_hop_id", 2**32, "hop-by-hop id 4294967296 out of range [0, 4294967295]"),
            ("end_to_end_id", -1, "end-to-end id -1 out of range [0, 4294967295]"),
        ],
    )
    def test_header_range_error_text(self, check, field, value, text):
        with pytest.raises(CodecError) as info:
            check(**{field: value})
        assert str(info.value) == text

    @CHECKED_BY
    def test_message_length_error_text(self, check):
        half = Avp(code=1, data=bytes(2**23))  # each AVP is 2**23 + 8 bytes on the wire
        with pytest.raises(CodecError) as info:
            check(avps=[half, half])
        assert str(info.value) == "message length 16777252 out of range [0, 16777215]"

    @CHECKED_BY
    def test_checks_run_in_header_order(self, check):
        later = {"hop_by_hop_id": -1, "avps": [Avp(code=2**32)]}
        with pytest.raises(CodecError, match="^command code 16777216"):
            check(0x1000000, application_id=2**32, **later)
        with pytest.raises(CodecError, match="^application id 4294967296"):
            check(700, application_id=2**32, **later)

    def test_longest_avp_encodes(self):
        raw = encode_avp(Avp(code=1, data=bytes(2**24 - 1 - 8)))
        assert raw[:8] == bytes([0, 0, 0, 1, 0x00, 0xFF, 0xFF, 0xFF])
        assert len(raw) == 2**24  # AVP length 2**24 - 1, one padding byte


@pytest.fixture
def tiny_dictionary() -> Dictionary:
    return Dictionary(
        entries={
            (1, None): DictEntry("counter", "unsigned32"),
            (2, None): DictEntry("wide", "unsigned64"),
            (3, None): DictEntry("blob", "octet-string"),
            (4, None): DictEntry("name", "utf8-text"),
            (5, None): DictEntry("addr", "address"),
            (6, None): DictEntry("bundle", "grouped"),
        }
    )


class TestValidate:
    def test_dictionaries_with_equal_entries_are_equal(self, tiny_dictionary):
        copy = Dictionary(entries=dict(tiny_dictionary.entries))
        assert copy == tiny_dictionary
        assert repr(copy) == repr(tiny_dictionary)
        assert copy != Dictionary(entries={(1, None): DictEntry("counter", "unsigned32")})

    def test_unknown_mandatory_avp(self, tiny_dictionary):
        msg = build_message(700, avps=[Avp(code=999999, data=b"x", mandatory=True)])
        out = validate_message(msg, tiny_dictionary)
        assert out == [Violation(ViolationKind.UNSUPPORTED_MANDATORY_AVP, 999999, 0)]

    def test_unknown_optional_avp_is_fine(self, tiny_dictionary):
        msg = build_message(700, avps=[Avp(code=999999, data=b"x", mandatory=False)])
        assert validate_message(msg, tiny_dictionary) == []

    def test_clean_message(self, tiny_dictionary):
        msg = build_message(
            700,
            avps=[
                Avp(code=1, data=(7).to_bytes(4, "big")),
                Avp(code=4, data="hello".encode()),
            ],
        )
        assert validate_message(msg, tiny_dictionary) == []

    def test_unsigned32_with_three_bytes(self, tiny_dictionary):
        # length table oracle: unsigned32 must be exactly 4 bytes
        msg = build_message(700, avps=[Avp(code=1, data=b"\x00\x00\x01")])
        out = validate_message(msg, tiny_dictionary)
        assert out == [Violation(ViolationKind.BAD_AVP_LENGTH, 1, 0)]

    def test_unsigned64_length(self, tiny_dictionary):
        good = build_message(700, avps=[Avp(code=2, data=bytes(8))])
        bad = build_message(700, avps=[Avp(code=2, data=bytes(4))])
        assert validate_message(good, tiny_dictionary) == []
        assert len(validate_message(bad, tiny_dictionary)) == 1

    def test_address_lengths(self, tiny_dictionary):
        for size, ok in ((4, True), (16, True), (6, False), (0, False)):
            msg = build_message(700, avps=[Avp(code=5, data=bytes(size))])
            assert (validate_message(msg, tiny_dictionary) == []) is ok

    def test_grouped_one_level(self, tiny_dictionary):
        inner = encode_avp(Avp(code=3, data=b"inner"))
        good = build_message(700, avps=[Avp(code=6, data=inner)])
        bad = build_message(700, avps=[Avp(code=6, data=b"\x01\x02\x03")])
        assert validate_message(good, tiny_dictionary) == []
        assert validate_message(bad, tiny_dictionary) == [
            Violation(ViolationKind.BAD_AVP_LENGTH, 6, 0)
        ]

    def test_one_violation_per_problem(self, tiny_dictionary):
        msg = build_message(
            700,
            avps=[
                Avp(code=999999, data=b"", mandatory=True),
                Avp(code=1, data=b"\x01"),
            ],
        )
        kinds = [v.kind for v in validate_message(msg, tiny_dictionary)]
        assert kinds == [
            ViolationKind.UNSUPPORTED_MANDATORY_AVP,
            ViolationKind.BAD_AVP_LENGTH,
        ]


def _reference_length_ok(fmt: str, data: bytes) -> bool:
    if fmt == "unsigned32":
        return len(data) == 4
    if fmt == "unsigned64":
        return len(data) == 8
    if fmt == "address":
        return len(data) in (4, 16)
    if fmt == "grouped":
        return not isinstance(_decode_avps(data, 0, len(data)), ParseError)
    return True


def _reference_violations(m: Message, d: Dictionary) -> list[Violation]:
    """validate_message as a per-AVP `d.lookup`, then the format's length rule."""
    out = []
    for i, avp in enumerate(m.avps):
        entry = d.lookup(avp.code, avp.vendor_id)
        if entry is None:
            if avp.mandatory:
                out.append(Violation(ViolationKind.UNSUPPORTED_MANDATORY_AVP, avp.code, i))
            continue
        if not _reference_length_ok(entry.data_format, avp.data):
            out.append(Violation(ViolationKind.BAD_AVP_LENGTH, avp.code, i))
    return out


# AVP codes that BUILTIN_DICTIONARY or tiny_dictionary knows, so that the
# length rules run; a payload is sometimes a packed AVP sequence, so that
# the grouped rule passes as well as fails.
_KNOWN_CODES = sorted({code for code, _ in BUILTIN_DICTIONARY.entries} | set(range(1, 7)))
_known_avps = st.builds(
    Avp,
    code=st.sampled_from(_KNOWN_CODES),
    data=st.one_of(
        st.binary(max_size=20),
        st.lists(avps(), max_size=3).map(lambda xs: b"".join(encode_avp(a) for a in xs)),
    ),
    mandatory=st.booleans(),
)


class TestValidateEquivalence:
    def test_matches_the_per_avp_reference(self, tiny_dictionary):
        @given(messages(), st.lists(_known_avps, max_size=6), st.randoms())
        @settings(max_examples=300)
        def check(msg, known, rnd):
            mixed = list(msg.avps) + known
            rnd.shuffle(mixed)
            m = Message(msg.header, tuple(mixed))
            for d in (BUILTIN_DICTIONARY, tiny_dictionary):
                assert validate_message(m, d) == _reference_violations(m, d)

        check()

    @given(messages(), u32, u32, st.tuples(*[st.booleans()] * 4))
    @settings(max_examples=300)
    def test_replace_ids_changes_the_ids_alone(self, msg, hbh, e2e, flags):
        request, proxiable, error, retransmit = flags
        header = dataclasses.replace(
            msg.header, request=request, proxiable=proxiable, error=error, retransmit=retransmit
        )
        m = Message(header, msg.avps)
        expected = Message(
            dataclasses.replace(header, hop_by_hop_id=hbh, end_to_end_id=e2e), m.avps
        )
        assert replace_ids(m, hbh, e2e) == expected


class TestRoundTripProperties:
    @given(messages())
    @settings(max_examples=300)
    def test_decode_inverts_encode(self, msg):
        assert decode_message(encode_message(msg)) == msg

    @given(messages())
    @settings(max_examples=200)
    def test_alignment_and_length_honesty(self, msg):
        encoded = encode_message(msg)
        assert len(encoded) % 4 == 0
        assert int.from_bytes(encoded[1:4], "big") == len(encoded)

    @given(messages())
    @settings(max_examples=300)
    def test_checked_length_is_the_encoded_length(self, msg):
        assert _checked_length(msg) == len(encode_message(msg))
        h = msg.header
        fields = {f.name: getattr(h, f.name) for f in dataclasses.fields(h)}
        assert build_message(**fields, avps=msg.avps) == msg

    @given(avps())
    @settings(max_examples=200)
    def test_vendor_flag_follows_vendor_id(self, avp):
        raw = encode_avp(avp)
        assert bool(raw[4] & 0x80) == (avp.vendor_id is not None)
        assert int.from_bytes(raw[5:8], "big") == avp.wire_length

    @given(messages())
    @settings(max_examples=200)
    def test_reencode_identity(self, msg):
        encoded = encode_message(msg)
        decoded = decode_message(encoded)
        assert encode_message(decoded) == encoded

    @given(st.binary(max_size=128))
    @settings(max_examples=400)
    def test_decode_is_total_on_arbitrary_bytes(self, blob):
        out = decode_message(blob)
        assert isinstance(out, (Message, ParseError))

    @given(messages(), st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 200))
    @settings(max_examples=200)
    def test_decode_is_total_on_corrupted_encodings(self, msg, seed, flips):
        data = bytearray(encode_message(msg))
        rng = random.Random(seed)
        for _ in range(min(flips, len(data))):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        out = decode_message(bytes(data))
        assert isinstance(out, (Message, ParseError))


class TestBuilders:
    def test_build_answer_echoes_ids(self):
        req = build_message(700, request=True, hop_by_hop_id=77, end_to_end_id=88)
        ans = build_answer(req)
        assert not ans.header.request
        assert ans.header.hop_by_hop_id == 77
        assert ans.header.end_to_end_id == 88
        assert ans.header.command_code == 700

    def test_build_message_takes_the_header_fields_in_their_order(self):
        # callers pass them by position: the command code, the AVPs, then the
        # rest of MessageHeader's fields in its order, with its defaults
        params = list(inspect.signature(build_message).parameters.values())
        header = dataclasses.fields(MessageHeader)
        assert [p.name for p in params] == ["command_code", "avps"] + [f.name for f in header[1:]]
        assert [p.default for p in params[2:]] == [f.default for f in header[1:]]
        avps = (Avp(code=1, data=b"x"),)
        positional = build_message(700, avps, 4, 5, 6, True, True, True, True)
        assert positional == Message(MessageHeader(700, 4, 5, 6, True, True, True, True), avps)

    def test_header_dataclass_defaults(self):
        h = MessageHeader(command_code=1)
        assert not (h.request or h.proxiable or h.error or h.retransmit)

    @pytest.mark.parametrize(
        "ids, text",
        [
            ((2**32, 0), "hop-by-hop id 4294967296 out of range [0, 4294967295]"),
            ((-1, 0), "hop-by-hop id -1 out of range [0, 4294967295]"),
            ((0, 2**32), "end-to-end id 4294967296 out of range [0, 4294967295]"),
            ((0, -1), "end-to-end id -1 out of range [0, 4294967295]"),
        ],
    )
    def test_replace_ids_range_error_text(self, ids, text):
        with pytest.raises(CodecError) as info:
            replace_ids(build_message(700), *ids)
        assert str(info.value) == text

    @pytest.mark.parametrize("template", [pytest.param(t, id=n) for n, t in seed_corpus()])
    def test_stamp_ids_is_encode_of_replace_ids(self, template):
        data = encode_message(template)
        for ids in (0, 1, 2**31, U32_MAX):
            assert stamp_ids(data, ids, ids) == encode_message(replace_ids(template, ids, ids))
        for bad in (2**32, -1):
            with pytest.raises(CodecError) as expected:
                replace_ids(template, bad, bad)
            with pytest.raises(CodecError) as info:
                stamp_ids(data, bad, bad)
            assert str(info.value) == str(expected.value)


# The six frozen, slotted value types: their fields, field order and
# defaults, constructor arguments in field order, and one field change.
_MSG = build_message(700, request=True, hop_by_hop_id=3, avps=[Avp(code=1, data=b"x")])


def _ignore_answer(pending, msg, now):
    pass


VALUE_TYPES = [
    (
        Avp,
        [
            ("code", dataclasses.MISSING),
            ("data", b""),
            ("vendor_id", None),
            ("mandatory", False),
            ("protected", False),
        ],
        (5, b"ab", 10, True, False),
        {"mandatory": False},
    ),
    (
        MessageHeader,
        [
            ("command_code", dataclasses.MISSING),
            ("application_id", 0),
            ("hop_by_hop_id", 0),
            ("end_to_end_id", 0),
            ("request", False),
            ("proxiable", False),
            ("error", False),
            ("retransmit", False),
        ],
        (700, 4, 5, 6, True, False, True, False),
        {"hop_by_hop_id": 99},
    ),
    (
        Message,
        [("header", dataclasses.MISSING), ("avps", ())],
        (_MSG.header, _MSG.avps),
        {"avps": ()},
    ),
    (
        PeerEvent,
        [("kind", dataclasses.MISSING), ("message", None)],
        (EventKind.RCV_REQUEST, _MSG),
        {"kind": EventKind.RCV_ANSWER},
    ),
    (
        PendingRequest,
        [
            ("hop_by_hop_id", dataclasses.MISSING),
            ("sent_at", dataclasses.MISSING),
            ("on_answer", None),
        ],
        (3, 10, _ignore_answer),
        {"sent_at": 11},
    ),
    (
        PeerAction,
        [("kind", dataclasses.MISSING), ("message", None)],
        (ActionKind.DELIVER_TO_APP, _MSG),
        {"message": None},
    ),
]
VALUE_TYPE_IDS = [cls.__name__ for cls, *_ in VALUE_TYPES]


@pytest.mark.parametrize("cls, expected_fields, args, change", VALUE_TYPES, ids=VALUE_TYPE_IDS)
class TestValueTypes:
    def test_fields_order_and_defaults(self, cls, expected_fields, args, change):
        fields = dataclasses.fields(cls)
        assert [(f.name, f.default) for f in fields] == expected_fields
        assert all(f.default_factory is dataclasses.MISSING for f in fields)

    def test_frozen_and_slotted(self, cls, expected_fields, args, change):
        value = cls(*args)
        assert cls.__dataclass_params__.frozen
        assert not hasattr(value, "__dict__")
        for name, _ in expected_fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))

    def test_positional_equals_keyword(self, cls, expected_fields, args, change):
        names = [name for name, _ in expected_fields]
        positional = cls(*args)
        keyword = cls(**dict(zip(names, args)))
        assert positional == keyword
        assert hash(positional) == hash(keyword)
        assert repr(positional) == repr(keyword)
        assert tuple(getattr(positional, n) for n in names) == args

    def test_init_defaults_are_the_field_defaults(self, cls, expected_fields, args, change):
        params = inspect.signature(cls).parameters.values()
        defaults = [
            (p.name, dataclasses.MISSING if p.default is inspect.Parameter.empty else p.default)
            for p in params
        ]
        assert defaults == expected_fields

    def test_replace(self, cls, expected_fields, args, change):
        value = cls(*args)
        assert dataclasses.replace(value) == value
        changed = dataclasses.replace(value, **change)
        for name, _ in expected_fields:
            assert getattr(changed, name) == change.get(name, getattr(value, name))


@pytest.mark.parametrize("cls, expected_fields, args, change", VALUE_TYPES, ids=VALUE_TYPE_IDS)
def test_copy_and_pickle_round_trip(cls, expected_fields, args, change):
    value = cls(*args)
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert other == value and type(other) is cls


@pytest.mark.parametrize("cls", [Avp, MessageHeader, Message, PendingRequest])
def test_slot_init_is_named_after_its_class(cls):
    # tracebacks and profilers name a function by its module and qualname
    assert cls.__new__.__qualname__ == f"{cls.__name__}.__new__"
    assert cls.__new__.__module__ == cls.__module__


def _assert_exact_types(m: Message) -> None:
    assert type(m) is Message and type(m.header) is MessageHeader
    assert all(type(a) is Avp for a in m.avps)


def test_no_constructor_returns_the_twin_class():
    # slot_init builds each value as an instance of a private twin class
    # and then makes it one of its own class: none may escape as the twin.
    request = build_message(700, [Avp(1, b"x"), Avp(2, b"abcd", 10)], 4, 5, 6, True)
    values = [
        request,
        build_answer(request, [Avp(268, b"\x00\x00\x07\xd1")], error=True),
        replace_ids(request, 9, 10),
        decode_message(encode_message(request)),
        dataclasses.replace(request, header=dataclasses.replace(request.header, error=True)),
        dataclasses.replace(request, avps=(dataclasses.replace(request.avps[0], code=3),)),
    ]
    for m in values:
        _assert_exact_types(m)
    _, lab = make_lab(duo_lab_text())
    ab, target = lab.attack_box(), lab.element("target")
    hbh = ab.send_app_request(target.node, dct.CMD_ECHO, [], None, lab.sim.clock)
    pending = ab.peer_link(target.node).pending[hbh]
    assert type(pending) is PendingRequest
    assert type(dataclasses.replace(pending, sent_at=1)) is PendingRequest
