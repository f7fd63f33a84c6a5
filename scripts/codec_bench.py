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

That rescaling does not resolve a ~10% change of one operation between
two runs. To compare two checkouts, pass --against CHECKOUT: the script
also imports CHECKOUT/src/diamlab, under another package name, and times
each operation of both in alternating batches in this one process (the
first of each pair alternates too), in plain host seconds. It prints each
one's median ops/s and the ratio, this checkout's ops/s over CHECKOUT's:
the median over the --repeat pairs of batches.

Usage: PYTHONPATH=src python scripts/codec_bench.py [--repeat 7] [--number 20000] [--json]
           [--against CHECKOUT]
"""

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import timeit
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from hostspeed import SpeedClock  # noqa: E402

AGAINST_PACKAGE = "diamlab_against"


def load_package(src: Path, name: str) -> None:
    """Import the package in directory `src` as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)


def operations(package: str) -> dict[str, dict[str, Callable[[], object]]]:
    """Per message, per operation: one call of that operation of `package`."""
    codec = importlib.import_module(f"{package}.codec")
    dct = importlib.import_module(f"{package}.dictionary")
    peer = importlib.import_module(f"{package}.peer")
    echo = {
        "command_code": dct.CMD_ECHO,
        "request": True,
        "hop_by_hop_id": 7,
        "end_to_end_id": 7,
        "avps": [codec.Avp(code=dct.AVP_ECHO_PAYLOAD, data=(7).to_bytes(4, "big"))],
    }
    cer = peer.build_cer("attacker.lab", [0])
    cer_args = {
        "command_code": cer.header.command_code,
        "request": True,
        "avps": list(cer.avps),
    }
    dictionary = dct.BUILTIN_DICTIONARY
    ops = {}
    for name, (kwargs, msg) in {
        "echo": (echo, codec.build_message(**echo)),
        "cer": (cer_args, cer),
    }.items():
        wire = codec.encode_message(msg)
        assert codec.decode_message(wire) == msg
        ops[name] = {
            "build_message": lambda kwargs=kwargs: codec.build_message(**kwargs),
            "encode_message": lambda msg=msg: codec.encode_message(msg),
            "decode_message": lambda wire=wire: codec.decode_message(wire),
            "validate_message": lambda msg=msg: codec.validate_message(msg, dictionary),
            "replace_ids": lambda msg=msg: codec.replace_ids(msg, 9, 9),
            "stamp_ids": lambda wire=wire: codec.stamp_ids(wire, 9, 9),
        }
    return ops


def measure(fn, repeat: int, number: int, timer: Callable[[], float]) -> dict[str, float]:
    rates = [number / t for t in timeit.repeat(fn, repeat=repeat, number=number, timer=timer)]
    return {"median": statistics.median(rates), "min": min(rates), "max": max(rates)}


def compare(this, against, repeat: int, number: int) -> dict[str, float]:
    """Median ops/s of each of two calls and the median ratio of this/against,
    over `repeat` pairs of batches timed one after the other."""
    times: tuple[list[float], list[float]] = ([], [])
    for r in range(repeat):
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            times[k].append(timeit.timeit((this, against)[k], number=number))
    return {
        "this": statistics.median(number / t for t in times[0]),
        "against": statistics.median(number / t for t in times[1]),
        "ratio": statistics.median(a / t for t, a in zip(*times)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed batches per operation")
    parser.add_argument("--number", type=int, default=20_000, help="calls per batch")
    parser.add_argument("--json", action="store_true", help="print one JSON object instead")
    parser.add_argument(
        "--against", type=Path, metavar="CHECKOUT", help="also time CHECKOUT's diamlab, alternating"
    )
    args = parser.parse_args()

    ops = operations("diamlab")
    if args.against is not None:
        src = args.against.resolve() / "src" / "diamlab"
        if not (src / "__init__.py").is_file():
            parser.error(f"no diamlab sources at {src}")
        load_package(src, AGAINST_PACKAGE)
        other = operations(AGAINST_PACKAGE)
        compared = {
            name: {
                op: compare(fn, other[name][op], args.repeat, args.number)
                for op, fn in per_message.items()
            }
            for name, per_message in ops.items()
        }
        if args.json:
            print(json.dumps(compared, indent=2, sort_keys=True))
            return 0
        print(f"{'message':<8} {'operation':<17} {'this ops/s':>13} {'against ops/s':>14} ratio")
        for name, per_message in compared.items():
            for op, r in per_message.items():
                print(
                    f"{name:<8} {op:<17} {r['this']:>13,.0f} {r['against']:>14,.0f}"
                    f" {r['ratio']:>5.3f}"
                )
        return 0

    results: dict[str, dict[str, dict[str, float]]] = {}
    clock = SpeedClock()
    clock.start()
    try:
        for name, per_message in ops.items():
            results[name] = {
                op: measure(fn, args.repeat, args.number, clock.now)
                for op, fn in per_message.items()
            }
    finally:
        clock.stop()

    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
        return 0
    print(f"{'message':<8} {'operation':<17} {'median ops/s':>13} {'min':>11} {'max':>11}")
    for name, per_message in results.items():
        for op, r in per_message.items():
            print(f"{name:<8} {op:<17} {r['median']:>13,.0f} {r['min']:>11,.0f} {r['max']:>11,.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
