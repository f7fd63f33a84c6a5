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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Optional, Union

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


class CodecError(ValueError):
    """A Message value cannot be put on the wire (range or flag contradiction)."""


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


@dataclass(frozen=True)
class Avp:
    """One attribute-value pair.

    vendor_specific defaults to "derived from vendor_id" so the common
    construction stays one-liner; pass it explicitly only to build a
    deliberately contradictory AVP (which encode_message rejects).
    """

    code: int
    data: bytes = b""
    vendor_id: Optional[int] = None
    mandatory: bool = False
    protected: bool = False
    vendor_specific: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.vendor_specific is None:
            object.__setattr__(self, "vendor_specific", self.vendor_id is not None)

    @property
    def wire_length(self) -> int:
        """Declared AVP length: header + data, excluding padding."""
        base = AVP_HEADER_LEN + (4 if self.vendor_specific else 0)
        return base + len(self.data)


@dataclass(frozen=True)
class MessageHeader:
    command_code: int
    application_id: int = 0
    hop_by_hop_id: int = 0
    end_to_end_id: int = 0
    request: bool = False
    proxiable: bool = False
    error: bool = False
    retransmit: bool = False
    version: int = 1
    message_length: int = 0

    @property
    def flags_byte(self) -> int:
        return (
            (FLAG_REQUEST if self.request else 0)
            | (FLAG_PROXIABLE if self.proxiable else 0)
            | (FLAG_ERROR if self.error else 0)
            | (FLAG_RETRANSMIT if self.retransmit else 0)
        )


@dataclass(frozen=True)
class Message:
    header: MessageHeader
    avps: tuple[Avp, ...] = ()


def build_message(
    command_code: int,
    *,
    request: bool = False,
    application_id: int = 0,
    hop_by_hop_id: int = 0,
    end_to_end_id: int = 0,
    proxiable: bool = False,
    error: bool = False,
    retransmit: bool = False,
    avps: tuple[Avp, ...] | list[Avp] = (),
) -> Message:
    """Assemble a Message with its message_length precomputed.

    This is the canonical constructor: messages built here satisfy the
    length-honesty invariant, so decode(encode(m)) == m.
    """
    avps = tuple(avps)
    length = HEADER_LEN + sum(padded_length(a.wire_length) for a in avps)
    header = MessageHeader(
        command_code=command_code,
        application_id=application_id,
        hop_by_hop_id=hop_by_hop_id,
        end_to_end_id=end_to_end_id,
        request=request,
        proxiable=proxiable,
        error=error,
        retransmit=retransmit,
        message_length=length,
    )
    return Message(header=header, avps=avps)


def build_answer(req: Message, avps: tuple[Avp, ...] | list[Avp] = (), *, error: bool = False) -> Message:
    """Answer skeleton for a request: same command, echoed correlation ids."""
    return build_message(
        req.header.command_code,
        request=False,
        application_id=req.header.application_id,
        hop_by_hop_id=req.header.hop_by_hop_id,
        end_to_end_id=req.header.end_to_end_id,
        error=error,
        avps=avps,
    )


def padded_length(n: int) -> int:
    """Smallest multiple of 4 that is >= n."""
    if n < 0:
        raise ValueError("negative length")
    return (n + 3) & ~3


def _check_range(value: int, maximum: int, what: str) -> None:
    if not 0 <= value <= maximum:
        raise CodecError(f"{what} {value} out of range [0, {maximum}]")


def encode_avp(avp: Avp) -> bytes:
    if avp.vendor_specific != (avp.vendor_id is not None):
        raise CodecError(
            f"AVP {avp.code}: vendor_specific flag contradicts vendor_id presence"
        )
    _check_range(avp.code, U32_MAX, "AVP code")
    if avp.vendor_id is not None:
        _check_range(avp.vendor_id, U32_MAX, "vendor id")
    length = avp.wire_length
    _check_range(length, _U24_MAX, "AVP length")
    flags = (
        (AVP_FLAG_VENDOR if avp.vendor_specific else 0)
        | (AVP_FLAG_MANDATORY if avp.mandatory else 0)
        | (AVP_FLAG_PROTECTED if avp.protected else 0)
    )
    out = struct.pack(">IB", avp.code, flags) + length.to_bytes(3, "big")
    if avp.vendor_id is not None:
        out += struct.pack(">I", avp.vendor_id)
    out += avp.data
    return out + b"\x00" * (padded_length(length) - length)


def encode_message(m: Message) -> bytes:
    """Serialize a Message. The length field is computed from the parts.

    Raises CodecError for values that cannot be represented on the wire
    (range overflow, vendor flag contradiction).
    """
    h = m.header
    _check_range(h.version, 0xFF, "version")
    _check_range(h.command_code, _U24_MAX, "command code")
    _check_range(h.application_id, U32_MAX, "application id")
    _check_range(h.hop_by_hop_id, U32_MAX, "hop-by-hop id")
    _check_range(h.end_to_end_id, U32_MAX, "end-to-end id")
    body = b"".join(encode_avp(a) for a in m.avps)
    total = HEADER_LEN + len(body)
    _check_range(total, MAX_MESSAGE_LEN, "message length")
    head = (
        struct.pack(">B", h.version)
        + total.to_bytes(3, "big")
        + struct.pack(">B", h.flags_byte)
        + h.command_code.to_bytes(3, "big")
        + struct.pack(">III", h.application_id, h.hop_by_hop_id, h.end_to_end_id)
    )
    return head + body


def _decode_avps(data: bytes, start: int, end: int) -> Union[list[Avp], ParseError]:
    """Parse a packed AVP sequence occupying data[start:end] exactly."""
    avps: list[Avp] = []
    off = start
    while off < end:
        if end - off < AVP_HEADER_LEN:
            return ParseError(ParseErrorKind.AVP_OVERRUN, off)
        code = struct.unpack_from(">I", data, off)[0]
        flags = data[off + 4]
        if flags & _AVP_RESERVED_MASK:
            return ParseError(ParseErrorKind.BAD_PADDING, off + 4)
        length = int.from_bytes(data[off + 5 : off + 8], "big")
        vendor = bool(flags & AVP_FLAG_VENDOR)
        hdr = AVP_HEADER_LEN + (4 if vendor else 0)
        if length < hdr:
            return ParseError(ParseErrorKind.BAD_LENGTH, off + 5)
        if off + length > end:
            return ParseError(ParseErrorKind.AVP_OVERRUN, off)
        padded = padded_length(length)
        if off + padded > end:
            return ParseError(ParseErrorKind.BAD_PADDING, off + length)
        pad = data[off + length : off + padded]
        if any(pad):
            return ParseError(
                ParseErrorKind.BAD_PADDING, off + length + next(i for i, b in enumerate(pad) if b)
            )
        vendor_id = struct.unpack_from(">I", data, off + 8)[0] if vendor else None
        avps.append(
            Avp(
                code=code,
                data=bytes(data[off + hdr : off + length]),
                vendor_id=vendor_id,
                mandatory=bool(flags & AVP_FLAG_MANDATORY),
                protected=bool(flags & AVP_FLAG_PROTECTED),
                vendor_specific=vendor,
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
    if data[0] != 1:
        return ParseError(ParseErrorKind.BAD_VERSION, 0)
    declared = int.from_bytes(data[1:4], "big")
    if declared % 4 != 0 or declared < HEADER_LEN:
        return ParseError(ParseErrorKind.BAD_LENGTH, 1)
    if declared > n:
        return ParseError(ParseErrorKind.TRUNCATED, n)
    if declared < n:
        return ParseError(ParseErrorKind.BAD_LENGTH, 1)
    flags = data[4]
    if flags & _HEADER_RESERVED_MASK:
        return ParseError(ParseErrorKind.BAD_PADDING, 4)
    command_code = int.from_bytes(data[5:8], "big")
    application_id, hop_by_hop_id, end_to_end_id = struct.unpack_from(">III", data, 8)
    avps = _decode_avps(data, HEADER_LEN, declared)
    if isinstance(avps, ParseError):
        return avps
    header = MessageHeader(
        command_code=command_code,
        application_id=application_id,
        hop_by_hop_id=hop_by_hop_id,
        end_to_end_id=end_to_end_id,
        request=bool(flags & FLAG_REQUEST),
        proxiable=bool(flags & FLAG_PROXIABLE),
        error=bool(flags & FLAG_ERROR),
        retransmit=bool(flags & FLAG_RETRANSMIT),
        message_length=declared,
    )
    return Message(header=header, avps=tuple(avps))


# --- dictionary-scoped semantic validation -------------------------------

DATA_FORMATS = ("unsigned32", "unsigned64", "octet-string", "utf8-text", "address", "grouped")


@dataclass(frozen=True)
class DictEntry:
    name: str
    data_format: str
    mandatory_expected: bool


@dataclass(frozen=True)
class Dictionary:
    """AVP semantics, keyed by (code, vendor_id); vendor_id None = no vendor."""

    entries: Mapping[tuple[int, Optional[int]], DictEntry] = field(default_factory=dict)

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


def _data_length_ok(fmt: str, data: bytes) -> bool:
    if fmt == "unsigned32":
        return len(data) == 4
    if fmt == "unsigned64":
        return len(data) == 8
    if fmt == "address":
        return len(data) in (4, 16)
    if fmt == "grouped":
        # One level deep: the payload must itself be a packed AVP sequence.
        return not isinstance(_decode_avps(data, 0, len(data)), ParseError)
    return True  # octet-string, utf8-text: any length


def validate_message(m: Message, d: Dictionary) -> list[Violation]:
    """Semantic pass over a structurally clean message.

    Violations are data, not failures: an unknown AVP with the mandatory
    flag set, or a known AVP whose payload length is illegal for its
    dictionary data format.
    """
    out: list[Violation] = []
    for i, avp in enumerate(m.avps):
        entry = d.lookup(avp.code, avp.vendor_id)
        if entry is None:
            if avp.mandatory:
                out.append(Violation(ViolationKind.UNSUPPORTED_MANDATORY_AVP, avp.code, i))
            continue
        if not _data_length_ok(entry.data_format, avp.data):
            out.append(Violation(ViolationKind.BAD_AVP_LENGTH, avp.code, i))
    return out


def first_avp(m: Message, code: int) -> Optional[Avp]:
    for avp in m.avps:
        if avp.code == code:
            return avp
    return None


def replace_ids(m: Message, hop_by_hop_id: int, end_to_end_id: int) -> Message:
    return Message(
        header=replace(m.header, hop_by_hop_id=hop_by_hop_id, end_to_end_id=end_to_end_id),
        avps=m.avps,
    )
