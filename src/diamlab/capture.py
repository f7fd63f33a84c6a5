"""DCAP capture files: the on-disk form of a tap's record stream.

Format, all integers big-endian:

    magic "DCAP"
    repeated records:
        u64 timestamp_us | u32 src | u32 dst | u32 len | len bytes | zero pad to 4
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Mapping, Union

from .simnet import CaptureRecord, NodeId

MAGIC = b"DCAP"
_RECORD_HEAD = struct.Struct(">QIII")


class CaptureFormatError(ValueError):
    pass


def encode_capture(records: Iterable[CaptureRecord]) -> bytes:
    out = [MAGIC]
    for rec in records:
        out.append(_RECORD_HEAD.pack(rec.at, rec.src.id, rec.dst.id, len(rec.data)))
        out.append(rec.data)
        out.append(b"\x00" * (-len(rec.data) % 4))
    return b"".join(out)


def write_capture(path: Union[str, Path], records: Iterable[CaptureRecord]) -> None:
    Path(path).write_bytes(encode_capture(records))


def decode_capture(data: bytes, labels: Mapping[int, str] | None = None) -> list[CaptureRecord]:
    """Parse a DCAP byte string; node labels are restored from `labels` when given."""
    labels = labels or {}
    if data[:4] != MAGIC:
        raise CaptureFormatError("missing DCAP magic")
    records: list[CaptureRecord] = []
    off = 4
    while off < len(data):
        if off + _RECORD_HEAD.size > len(data):
            raise CaptureFormatError(f"truncated record header at offset {off}")
        at, src, dst, length = _RECORD_HEAD.unpack_from(data, off)
        body = off + _RECORD_HEAD.size
        end = body + length
        if end > len(data):
            raise CaptureFormatError(f"truncated record payload at offset {body}")
        padded = end + (-length % 4)
        if data[end:padded] != bytes(padded - end):
            raise CaptureFormatError(f"missing or nonzero padding in record at offset {off}")
        records.append(
            CaptureRecord(
                at=at,
                src=NodeId(id=src, label=labels.get(src, f"node-{src}")),
                dst=NodeId(id=dst, label=labels.get(dst, f"node-{dst}")),
                data=data[body:end],
            )
        )
        off = padded
    return records


def read_capture(path: Union[str, Path], labels: Mapping[int, str] | None = None) -> list[CaptureRecord]:
    return decode_capture(Path(path).read_bytes(), labels=labels)
