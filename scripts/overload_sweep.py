#!/usr/bin/env python3
"""Sweep flood rates against a fixed-capacity target and compare the simulated
drop counts with the closed-form fluid model drops = max(0, (r - C)*T - Q).

Beside the drops, each row gives the flood's cost per offered request:
simulated events run and events scheduled (deliveries and timers, each run
or still due when the flood returns; both deterministic), and host
microseconds (plain wall time, so loose on a host whose speed drifts).

--bytecodes floods each rate once more under sys.settrace and adds the
bytecodes executed per offered request in diamlab's code: a total column,
then a table by module. The count is exact and the same in every run of
one interpreter version, but it is not time: a call into C counts as one.
Code compiled from strings is filed under the module of the class it was
generated for (codec.slot_init), or under <string> (dataclasses). Tracing
runs about 50 times slower than the flood itself, so use short floods.

Usage: PYTHONPATH=src python scripts/overload_sweep.py [--capacity 1000] [--queue 100]
           [--duration 5] [--bytecodes]
"""

import argparse
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

import diamlab
from diamlab.attacks import FloodSpec, run_flood
from diamlab.campaign import build_lab
from diamlab.config import parse_campaign_config

LAB_TEMPLATE = """
[campaign]
phase = custom
seed = {seed}

[node attacker]
kind = AttackBox

[node target]
kind = TargetServer
service_rate = {capacity}
queue_capacity = {queue}

[link attacker target]
latency_ms = 5
"""

_SOURCE_DIR = str(Path(diamlab.__file__).resolve().parent) + os.sep


def module_of(filename: str) -> Optional[str]:
    """The diamlab module a code object's filename belongs to, `<string>`
    for code compiled from a string, or None for code outside diamlab."""
    if filename.startswith(_SOURCE_DIR):
        return Path(filename).stem
    if filename.startswith("<diamlab."):  # <diamlab.codec.Avp>, from slot_init
        return filename.split(".")[1]
    if filename == "<string>":
        return filename
    return None


def count_bytecodes(run: Callable[[], object]) -> Counter:
    """Bytecodes executed in diamlab's code while `run()` runs, by module."""
    counts: Counter = Counter()
    tracers: dict[str, Callable] = {}  # module -> its opcode counter
    by_filename: dict[str, Optional[Callable]] = {}

    def tracer_for(module: str) -> Callable:
        def count(frame, event, arg):
            if event == "opcode":
                counts[module] += 1
            return count

        return count

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_filename:
            module = module_of(filename)
            by_filename[filename] = module and tracers.setdefault(module, tracer_for(module))
        tracer = by_filename[filename]
        if tracer is not None:
            frame.f_trace_opcodes = True
        return tracer

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return counts


def open_lab(capacity: float, queue: int, seed: int):
    config = parse_campaign_config(
        LAB_TEMPLATE.format(seed=seed, capacity=capacity, queue=queue), source="<sweep>"
    )
    lab = build_lab(config)
    lab.bring_links_open()
    return lab


def flood_bytecodes(capacity: float, queue: int, seed: int, rate: float, duration: float):
    """(offered requests, bytecodes by module) of one flood on a fresh lab."""
    lab = open_lab(capacity, queue, seed)
    spec = FloodSpec(target="target", rate_tps=rate, duration_s=duration)
    results = []
    counts = count_bytecodes(lambda: results.append(run_flood(lab, spec)))
    return results[0][0].offered, counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--capacity", type=float, default=1000.0)
    parser.add_argument("--queue", type=int, default=100)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--bytecodes", action="store_true",
                        help="also count bytecodes per offered request (slow; use a short --duration)")
    args = parser.parse_args()

    rates = [r * args.capacity for r in (0.25, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0, 4.0)]
    print(f"capacity={args.capacity:g}tps queue={args.queue} duration={args.duration:g}s")
    print(
        f"{'rate':>8} {'offered':>8} {'answered':>9} {'dropped':>8} {'fluid':>8} {'delta':>7}"
        f" {'events/req':>10} {'sched/req':>10} {'host_us/req':>11}"
        + (f" {'bytecodes/req':>13}" if args.bytecodes else "")
    )
    by_module = []
    for rate in rates:
        lab = open_lab(args.capacity, args.queue, args.seed)
        sim = lab.sim
        events, scheduled = sim.events_processed, sim.events_scheduled()
        start = time.perf_counter()
        result, _ = run_flood(
            lab, FloodSpec(target="target", rate_tps=rate, duration_s=args.duration)
        )
        host_us = (time.perf_counter() - start) * 1e6
        fluid = max(0.0, (rate - args.capacity) * args.duration - args.queue)
        delta = result.dropped - fluid
        offered = result.offered
        row = (
            f"{rate:8g} {offered:8d} {result.answered:9d}"
            f" {result.dropped:8d} {fluid:8g} {delta:+7g}"
            f" {(sim.events_processed - events) / offered:10.3f}"
            f" {(sim.events_scheduled() - scheduled) / offered:10.3f} {host_us / offered:11.2f}"
        )
        if args.bytecodes:
            _, counts = flood_bytecodes(args.capacity, args.queue, args.seed, rate, args.duration)
            by_module.append((rate, offered, counts))
            row += f" {sum(counts.values()) / offered:13.1f}"
        print(row)
    if by_module:
        modules = sorted({m for _, _, counts in by_module for m in counts})
        print(f"\nbytecodes per offered request by module (Python {sys.version.split()[0]})")
        print(f"{'rate':>8}" + "".join(f" {m:>10}" for m in modules))
        for rate, offered, counts in by_module:
            print(f"{rate:8g}" + "".join(f" {counts[m] / offered:10.1f}" for m in modules))


if __name__ == "__main__":
    main()
