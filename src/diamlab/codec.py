"""Diameter wire codec: bit-exact message/AVP encoding, decoding, validation.

Layout (all integers big-endian):

     0                   1                   2                   3
     0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |    Version    |                Message Length                 |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |R P E T r r r r|                 Command Code                  |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |                         Application-ID                        |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |                     Hop-by-Hop Identifier                     |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |                     End-to-End Identifier                     |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |                           AVPs ...
    +-+-+-+-+-+-+-+-

    AVP header (8 bytes, +4 when the V flag is set):

    |                           AVP Code                            |
    |V M P r r r r r|                  AVP Length                   |
    |                      Vendor-ID (if V set)                     |
    |    Data ... zero-padded to the next 4-byte boundary

AVP Length covers header + data and excludes padding. Reserved flag
bits (marked r) must be zero; the decoder is strict about structure
(lengths, padding, reserved bits) and lenient about semantics, which
live in `validate_message` behind a dictionary.

`decode_message` is a total function: any byte sequence yields either a
Message or a ParseError value, never an exception. That property is
what makes it a safe fuzzing surface.
"""

from __future__ import annotations

import struct
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Callable, Mapping, Optional, Sequence, Union

_VERSION = 1  # the only Diameter version (RFC 6733)
HEADER_LEN = 20
AVP_HEADER_LEN = 8
MAX_MESSAGE_LEN = 0xFFFFFF

# Message header flag bits (byte 4).
FLAG_REQUEST = 0x80
FLAG_PROXIABLE = 0x40
FLAG_ERROR = 0x20
FLAG_RETRANSMIT = 0x10
_HEADER_RESERVED_MASK = 0x0F

# AVP flag bits (byte 4 of the AVP header).
AVP_FLAG_VENDOR = 0x80
AVP_FLAG_MANDATORY = 0x40
AVP_FLAG_PROTECTED = 0x20
_AVP_RESERVED_MASK = 0x1F

U32_MAX = 0xFFFFFFFF
_U24_MAX = 0xFFFFFF

# One pack or unpack per header. Message header words: version << 24 |
# length, flags << 24 | command code, application id, hop-by-hop id,
# end-to-end id. AVP header words: code, flags << 24 | length[, vendor id].
_HEADER = struct.Struct(">IIIII")
_AVP_HEADER = struct.Struct(">II")
_AVP_HEADER_VENDOR = struct.Struct(">III")
_U32 = struct.Struct(">I")
# The hop-by-hop and end-to-end ids, bytes 12-19 of a message.
_IDS = struct.Struct(">II")
# Zero padding after an AVP of length n is _PADDING[n & 3].
_PADDING = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")


class CodecError(ValueError):
    """A Message value cannot be put on the wire (a field out of range)."""


class ParseErrorKind(Enum):
    TRUNCATED = "truncated"
    BAD_VERSION = "bad_version"
    BAD_LENGTH = "bad_length"
    BAD_PADDING = "bad_padding"
    AVP_OVERRUN = "avp_overrun"


@dataclass(frozen=True)
class ParseError:
    """Structural decode failure: what went wrong and the byte offset.

    bad_padding also covers reserved flag bits: anything the layout
    requires to be zero but is not.
    """

    kind: ParseErrorKind
    offset: int


# Avp, MessageHeader and Message are built once or more per message, so
# slot_init gives them a positional __new__ in place of the generated
# __init__, whose object.__setattr__ per field CPython 3.11 does not
# specialize (nor a call of the slot's member descriptor, ~65 ns a field).
# __new__ builds the object as an instance of a private twin class with the
# same slots and no __setattr__ of its own, so each `self.<field> = <field>`
# is a specialized slot store, and then assigns __class__. The class keeps
# the frozen __setattr__ and __delattr__, which refuse every later write.
# copy and pickle rebuild a value with cls.__new__(cls, *__getnewargs__()).


def slot_init(cls: type) -> type:
    """Give a frozen, slotted dataclass declared with init=False its constructor.

    The generated __new__ takes the fields in order, positionally or by
    keyword, with the fields' own defaults. Its source is built from the
    field names and passed to exec, as dataclasses builds its own.
    """
    env: dict[str, object] = {"_twin": type(cls.__name__, (), {"__slots__": cls.__slots__})}
    params, stores, values = [], [], []
    for f in fields(cls):
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        stores.append(f"\n    self.{f.name} = {f.name}")
        values.append(f"self.{f.name}, ")
    exec(
        f"def __new__(cls, {', '.join(params)}):\n    self = _twin(){''.join(stores)}"
        "\n    self.__class__ = cls\n    return self\n"
        f"def __getnewargs__(self):\n    return ({''.join(values)})",
        env,
    )
    for name in ("__new__", "__getnewargs__"):
        fn = env[name]
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        fn.__module__ = cls.__module__
    cls.__new__ = staticmethod(env["__new__"])
    cls.__getnewargs__ = env["__getnewargs__"]
    return cls


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class Avp:
    """One attribute-value pair. The V flag is set exactly when vendor_id is not None."""

    code: int
    data: bytes = b""
    vendor_id: Optional[int] = None
    mandatory: bool = False
    protected: bool = False

    @property
    def wire_length(self) -> int:
        """Declared AVP length: header + data, excluding padding."""
        base = AVP_HEADER_LEN if self.vendor_id is None else AVP_HEADER_LEN + 4
        return base + len(self.data)


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class MessageHeader:
    command_code: int
    application_id: int = 0
    hop_by_hop_id: int = 0
    end_to_end_id: int = 0
    request: bool = False
    proxiable: bool = False
    error: bool = False
    retransmit: bool = False

    @property
    def flags_byte(self) -> int:
        return (
            (FLAG_REQUEST if self.request else 0)
            | (FLAG_PROXIABLE if self.proxiable else 0)
            | (FLAG_ERROR if self.error else 0)
            | (FLAG_RETRANSMIT if self.retransmit else 0)
        )


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class Message:
    header: MessageHeader
    avps: tuple[Avp, ...] = ()


# After the command code and the AVPs come the other header fields, in
# MessageHeader's order. The callers that build a message per request
# pass them by position: CPython 3.11 specializes a call with no keyword
# arguments, ~150 ns less per message.
def build_message(
    command_code: int,
    avps: Sequence[Avp] = (),
    application_id: int = 0,
    hop_by_hop_id: int = 0,
    end_to_end_id: int = 0,
    request: bool = False,
    proxiable: bool = False,
    error: bool = False,
    retransmit: bool = False,
) -> Message:
    """Assemble a Message and run the encoder's checks on it.

    This is the canonical constructor: it raises the CodecError that
    encode_message would raise, so every Message it returns stands for
    its own encoding, decode(encode(m)) == m.
    """
    m = Message(
        MessageHeader(
            command_code,
            application_id,
            hop_by_hop_id,
            end_to_end_id,
            request,
            proxiable,
            error,
            retransmit,
        ),
        tuple(avps),
    )
    _checked_length(m)
    return m


def build_answer(req: Message, avps: tuple[Avp, ...] | list[Avp] = (), *, error: bool = False) -> Message:
    """Answer skeleton for a request: same command, echoed correlation ids."""
    h = req.header
    return build_message(
        h.command_code, avps, h.application_id, h.hop_by_hop_id, h.end_to_end_id,
        False, False, error,
    )


def _range_error(value: int, maximum: int, what: str) -> CodecError:
    return CodecError(f"{what} {value} out of range [0, {maximum}]")


def _check_ids(hop_by_hop_id: int, end_to_end_id: int) -> None:
    if not 0 <= hop_by_hop_id <= U32_MAX:
        raise _range_error(hop_by_hop_id, U32_MAX, "hop-by-hop id")
    if not 0 <= end_to_end_id <= U32_MAX:
        raise _range_error(end_to_end_id, U32_MAX, "end-to-end id")


def _checked_avp_length(avp: Avp) -> int:
    """AVP Length of `avp`; CodecError if the AVP cannot be put on the wire."""
    code, vendor_id = avp.code, avp.vendor_id
    if not 0 <= code <= U32_MAX:
        raise _range_error(code, U32_MAX, "AVP code")
    if vendor_id is None:
        length = AVP_HEADER_LEN + len(avp.data)
    else:
        if not 0 <= vendor_id <= U32_MAX:
            raise _range_error(vendor_id, U32_MAX, "vendor id")
        length = AVP_HEADER_LEN + 4 + len(avp.data)
    if not 0 <= length <= _U24_MAX:
        raise _range_error(length, _U24_MAX, "AVP length")
    return length


def _pack_avp(avp: Avp) -> bytes:
    """Wire form of an AVP that passed _checked_avp_length."""
    code, vendor_id, data = avp.code, avp.vendor_id, avp.data
    flags = (AVP_FLAG_MANDATORY if avp.mandatory else 0) | (
        AVP_FLAG_PROTECTED if avp.protected else 0
    )
    if vendor_id is None:
        length = AVP_HEADER_LEN + len(data)
        head = _AVP_HEADER.pack(code, flags << 24 | length)
    else:
        length = AVP_HEADER_LEN + 4 + len(data)
        head = _AVP_HEADER_VENDOR.pack(code, (flags | AVP_FLAG_VENDOR) << 24 | length, vendor_id)
    return head + data + _PADDING[length & 3]


def encode_avp(avp: Avp) -> bytes:
    _checked_avp_length(avp)
    return _pack_avp(avp)


def _checked_length(m: Message) -> int:
    """The Message Length encode_message writes for `m`.

    Every range check of the encoder lives here, in the order the encoder
    meets the fields: command code, application id, hop-by-hop id,
    end-to-end id, each AVP, the total. Raises CodecError for the first
    value that cannot be represented on the wire.

    In-range values pass with no call per field or AVP: the ids and each
    AVP are inline comparisons, and only a fault falls through to the
    _check_ids or _checked_avp_length that names it.
    """
    h = m.header
    if not 0 <= h.command_code <= _U24_MAX:
        raise _range_error(h.command_code, _U24_MAX, "command code")
    if not 0 <= h.application_id <= U32_MAX:
        raise _range_error(h.application_id, U32_MAX, "application id")
    if not (0 <= h.hop_by_hop_id <= U32_MAX and 0 <= h.end_to_end_id <= U32_MAX):
        _check_ids(h.hop_by_hop_id, h.end_to_end_id)  # raises, naming the id
    total = HEADER_LEN
    for a in m.avps:
        vendor_id = a.vendor_id
        length = len(a.data) + (AVP_HEADER_LEN if vendor_id is None else AVP_HEADER_LEN + 4)
        if not (
            0 <= a.code <= U32_MAX
            and length <= _U24_MAX
            and (vendor_id is None or 0 <= vendor_id <= U32_MAX)
        ):
            _checked_avp_length(a)  # raises this AVP's first fault
        total += (length + 3) & ~3
    if not 0 <= total <= MAX_MESSAGE_LEN:
        raise _range_error(total, MAX_MESSAGE_LEN, "message length")
    return total


def encode_message(m: Message) -> bytes:
    """Serialize a Message. The length field is computed from the parts.

    Raises CodecError for values that cannot be represented on the wire
    (range overflow). A Message from build_message never raises here.
    """
    total = _checked_length(m)
    h = m.header
    head = _HEADER.pack(
        _VERSION << 24 | total,
        h.flags_byte << 24 | h.command_code,
        h.application_id,
        h.hop_by_hop_id,
        h.end_to_end_id,
    )
    return head + b"".join([_pack_avp(a) for a in m.avps])


def _decode_avps(data: bytes, start: int, end: int) -> Union[list[Avp], ParseError]:
    """Parse a packed AVP sequence occupying data[start:end] exactly."""
    avps: list[Avp] = []
    off = start
    while off < end:
        if end - off < AVP_HEADER_LEN:
            return ParseError(ParseErrorKind.AVP_OVERRUN, off)
        code, word = _AVP_HEADER.unpack_from(data, off)
        flags = word >> 24
        if flags & _AVP_RESERVED_MASK:
            return ParseError(ParseErrorKind.BAD_PADDING, off + 4)
        length = word & _U24_MAX
        vendor = bool(flags & AVP_FLAG_VENDOR)
        hdr = AVP_HEADER_LEN + 4 if vendor else AVP_HEADER_LEN
        if length < hdr:
            return ParseError(ParseErrorKind.BAD_LENGTH, off + 5)
        if off + length > end:
            return ParseError(ParseErrorKind.AVP_OVERRUN, off)
        padded = (length + 3) & ~3
        if off + padded > end:
            return ParseError(ParseErrorKind.BAD_PADDING, off + length)
        if padded != length:
            pad = data[off + length : off + padded]
            if any(pad):
                first_nonzero = next(i for i, b in enumerate(pad) if b)
                return ParseError(ParseErrorKind.BAD_PADDING, off + length + first_nonzero)
        avps.append(
            Avp(
                code,
                bytes(data[off + hdr : off + length]),
                _U32.unpack_from(data, off + 8)[0] if vendor else None,
                bool(flags & AVP_FLAG_MANDATORY),
                bool(flags & AVP_FLAG_PROTECTED),
            )
        )
        off += padded
    return avps


def decode_message(data: bytes) -> Union[Message, ParseError]:
    """Parse wire bytes. Total: returns Message or ParseError, never raises.

    Strictness guarantees the re-encode identity: any input this
    function accepts is exactly what encode_message would produce for
    the returned Message.
    """
    n = len(data)
    if n < HEADER_LEN:
        return ParseError(ParseErrorKind.TRUNCATED, n)
    first, second, application_id, hop_by_hop_id, end_to_end_id = _HEADER.unpack_from(data)
    if first >> 24 != _VERSION:
        return ParseError(ParseErrorKind.BAD_VERSION, 0)
    declared = first & _U24_MAX
    if declared % 4 != 0 or declared < HEADER_LEN:
        return ParseError(ParseErrorKind.BAD_LENGTH, 1)
    if declared > n:
        return ParseError(ParseErrorKind.TRUNCATED, n)
    if declared < n:
        return ParseError(ParseErrorKind.BAD_LENGTH, 1)
    flags = second >> 24
    if flags & _HEADER_RESERVED_MASK:
        return ParseError(ParseErrorKind.BAD_PADDING, 4)
    avps = _decode_avps(data, HEADER_LEN, declared)
    if isinstance(avps, ParseError):
        return avps
    header = MessageHeader(
        second & _U24_MAX,
        application_id,
        hop_by_hop_id,
        end_to_end_id,
        bool(flags & FLAG_REQUEST),
        bool(flags & FLAG_PROXIABLE),
        bool(flags & FLAG_ERROR),
        bool(flags & FLAG_RETRANSMIT),
    )
    return Message(header, tuple(avps))


# --- dictionary-scoped semantic validation -------------------------------

@dataclass(frozen=True)
class DictEntry:
    name: str
    data_format: str  # unsigned32, unsigned64, octet-string, utf8-text, address or grouped


# `length_rules` is derived from `entries` once, when the value is built,
# so `entries` must not change after that. It maps each entry's key to its
# data format's length rule, or to None for a format that takes any
# length; `validate_message` reads it alone, with one lookup per AVP.
# Equality and repr take `entries` alone.
@dataclass(frozen=True)
class Dictionary:
    """AVP semantics, keyed by (code, vendor_id); vendor_id None = no vendor."""

    entries: Mapping[tuple[int, Optional[int]], DictEntry] = field(default_factory=dict)
    length_rules: Mapping[tuple[int, Optional[int]], Optional[Callable[[bytes], bool]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        rules = {key: _LENGTH_RULES.get(entry.data_format) for key, entry in self.entries.items()}
        object.__setattr__(self, "length_rules", rules)

    def lookup(self, code: int, vendor_id: Optional[int] = None) -> Optional[DictEntry]:
        return self.entries.get((code, vendor_id))

    def code_for_name(self, name: str) -> Optional[int]:
        for (code, _vendor), entry in self.entries.items():
            if entry.name == name:
                return code
        return None


class ViolationKind(Enum):
    UNSUPPORTED_MANDATORY_AVP = "unsupported_mandatory_avp"
    BAD_AVP_LENGTH = "bad_avp_length"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    avp_code: int
    avp_index: int


# The payload length rule of each data format that has one; octet-string
# and utf8-text take any length.
_LENGTH_RULES: dict[str, Callable[[bytes], bool]] = {
    "unsigned32": lambda data: len(data) == 4,
    "unsigned64": lambda data: len(data) == 8,
    "address": lambda data: len(data) in (4, 16),
    # One level deep: the payload must itself be a packed AVP sequence.
    "grouped": lambda data: not isinstance(_decode_avps(data, 0, len(data)), ParseError),
}


# What Dictionary.length_rules gives for an AVP the dictionary does not know.
_UNKNOWN_AVP = object()


def validate_message(m: Message, d: Dictionary) -> list[Violation]:
    """Semantic pass over a structurally clean message.

    Violations are data, not failures: an unknown AVP with the mandatory
    flag set, or a known AVP whose payload length is illegal for its
    dictionary data format.
    """
    rules = d.length_rules
    out: list[Violation] = []
    for i, avp in enumerate(m.avps):
        rule = rules.get((avp.code, avp.vendor_id), _UNKNOWN_AVP)
        if rule is None:
            continue
        if rule is _UNKNOWN_AVP:
            if avp.mandatory:
                out.append(Violation(ViolationKind.UNSUPPORTED_MANDATORY_AVP, avp.code, i))
        elif not rule(avp.data):
            out.append(Violation(ViolationKind.BAD_AVP_LENGTH, avp.code, i))
    return out


def first_avp(m: Message, code: int) -> Optional[Avp]:
    for avp in m.avps:
        if avp.code == code:
            return avp
    return None


def replace_ids(m: Message, hop_by_hop_id: int, end_to_end_id: int) -> Message:
    """`m` with new correlation ids; the encoder's CodecError for an id out of range."""
    _check_ids(hop_by_hop_id, end_to_end_id)
    h = m.header
    return Message(
        MessageHeader(
            h.command_code,
            h.application_id,
            hop_by_hop_id,
            end_to_end_id,
            h.request,
            h.proxiable,
            h.error,
            h.retransmit,
        ),
        m.avps,
    )


def stamp_ids(data: bytes, hop_by_hop_id: int, end_to_end_id: int) -> bytes:
    """`data`, an encode_message result, with new correlation ids.

    The same bytes as encode_message(replace_ids(m, hop_by_hop_id,
    end_to_end_id)) for the m that `data` encodes, and the same CodecError
    for an id out of range, without building or encoding a Message.
    """
    _check_ids(hop_by_hop_id, end_to_end_id)
    return data[:12] + _IDS.pack(hop_by_hop_id, end_to_end_id) + data[HEADER_LEN:]
