#!/usr/bin/env python3
"""Per-call cost of the codec layer: build, encode, decode, validate, replace_ids, stamp_ids.

Two messages: the flood's echo request (one 4-byte Echo-Payload AVP,
32 bytes on the wire) and a CER (Origin-Host plus one
Auth-Application-Id). replace_ids restamps the correlation ids of a
Message, as each CER and DWR is restamped before it is sent; stamp_ids
writes them into encoded bytes, as each fuzz case is stamped from its
pre-encoded template. Each operation runs in timed batches of --number
calls; the script prints the median ops/s over --repeat batches, with the
lowest and highest batch. The batches are timed in reference-speed
seconds by perfbench's SpeedClock (perfbench/hostspeed.py), which
rescales host time by the host's measured speed, so that the numbers of
two runs minutes apart stay comparable on a host whose speed drifts.
Compare two checkouts on the same machine, one run after the other.

Usage: PYTHONPATH=src python scripts/codec_bench.py [--repeat 7] [--number 20000] [--json]
"""

import argparse
import json
import statistics
import sys
import timeit
from pathlib import Path
from typing import Callable

from diamlab import dictionary as dct
from diamlab.codec import (
    Avp,
    build_message,
    decode_message,
    encode_message,
    replace_ids,
    stamp_ids,
    validate_message,
)
from diamlab.peer import build_cer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from hostspeed import SpeedClock  # noqa: E402


def cases() -> dict[str, tuple[dict, object]]:
    """Per message: build_message keyword arguments and the built message."""
    echo = {
        "command_code": dct.CMD_ECHO,
        "request": True,
        "hop_by_hop_id": 7,
        "end_to_end_id": 7,
        "avps": [Avp(code=dct.AVP_ECHO_PAYLOAD, data=(7).to_bytes(4, "big"))],
    }
    cer = build_cer("attacker.lab", [0])
    cer_args = {
        "command_code": cer.header.command_code,
        "request": True,
        "avps": list(cer.avps),
    }
    return {"echo": (echo, build_message(**echo)), "cer": (cer_args, cer)}


def measure(fn, repeat: int, number: int, timer: Callable[[], float]) -> dict[str, float]:
    rates = [number / t for t in timeit.repeat(fn, repeat=repeat, number=number, timer=timer)]
    return {"median": statistics.median(rates), "min": min(rates), "max": max(rates)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed batches per operation")
    parser.add_argument("--number", type=int, default=20_000, help="calls per batch")
    parser.add_argument("--json", action="store_true", help="print one JSON object instead")
    args = parser.parse_args()

    dictionary = dct.BUILTIN_DICTIONARY
    results: dict[str, dict[str, dict[str, float]]] = {}
    clock = SpeedClock()
    clock.start()
    try:
        for name, (kwargs, msg) in cases().items():
            wire = encode_message(msg)
            assert decode_message(wire) == msg
            ops = {
                "build_message": lambda kwargs=kwargs: build_message(**kwargs),
                "encode_message": lambda msg=msg: encode_message(msg),
                "decode_message": lambda wire=wire: decode_message(wire),
                "validate_message": lambda msg=msg: validate_message(msg, dictionary),
                "replace_ids": lambda msg=msg: replace_ids(msg, 9, 9),
                "stamp_ids": lambda wire=wire: stamp_ids(wire, 9, 9),
            }
            results[name] = {
                op: measure(fn, args.repeat, args.number, clock.now) for op, fn in ops.items()
            }
    finally:
        clock.stop()

    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
        return 0
    print(f"{'message':<8} {'operation':<17} {'median ops/s':>13} {'min':>11} {'max':>11}")
    for name, ops in results.items():
        for op, r in ops.items():
            print(f"{name:<8} {op:<17} {r['median']:>13,.0f} {r['min']:>11,.0f} {r['max']:>11,.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
