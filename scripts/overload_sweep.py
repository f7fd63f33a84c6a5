#!/usr/bin/env python3
"""Sweep flood rates against a fixed-capacity target and compare the simulated
drop counts with the closed-form fluid model drops = max(0, (r - C)*T - Q).

Beside the drops, each row gives the flood's cost per offered request:
simulated events run and events scheduled (deliveries and timers, each run
or still due when the flood returns; both deterministic), and host
microseconds (plain wall time, so loose on a host whose speed drifts).

--bytecodes floods each rate once more under sys.settrace and adds the
bytecodes executed per offered request in diamlab's code: a total column,
then a table by module, whose last row, `fuzz`, is per case of phase1's
fuzz (its 1,000 cases and seed, on a fresh phase1 lab). The count is exact
and the same in every run of one interpreter version, but it is not time:
a call into C counts as one. Code compiled from strings is filed under the
module of the class it was generated for (codec.slot_init), or under
<string> (dataclasses). Tracing runs about 50 times slower than the flood
itself, so use short floods.

--json prints the same sweep as one JSON object instead: the rows, each
with its bytecodes per offered request in total and by module under
--bytecodes, and then the fuzz row.

Usage: PYTHONPATH=src python scripts/overload_sweep.py [--capacity 1000] [--queue 100]
           [--duration 5] [--bytecodes] [--json]
"""

import argparse
import json
import os
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional

import diamlab
from diamlab.attacks import FloodSpec, run_flood, run_fuzz
from diamlab.campaign import _derived_seed, build_lab
from diamlab.config import load_config, parse_campaign_config

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


def fuzz_bytecodes():
    """(cases, bytecodes by module) of phase1's fuzz on a fresh phase1 lab,
    with the seed its campaign gives it. The fuzz runs once untraced first,
    so the counts leave out what only the first run in a process does
    (filling peer.result_code_avp's cache), as the untraced flood before
    each rate's traced one does in the sweep."""
    config = load_config("phase1")
    index, spec = next((i, s) for i, s in enumerate(config.attacks) if s.kind == "fuzz")
    spec = replace(spec, seed=_derived_seed(config.seed, index))
    labs = [build_lab(config) for _ in range(2)]
    for lab in labs:
        lab.bring_links_open()
    run_fuzz(labs[0], spec)
    counts = count_bytecodes(lambda: run_fuzz(labs[1], spec))
    return spec.case_count, counts


def per_unit(counts: Counter, n: int) -> dict:
    """Bytecodes per request (or case) in total and by module."""
    return {"total": sum(counts.values()) / n, **{m: c / n for m, c in sorted(counts.items())}}


def sweep(args) -> dict:
    """The sweep as one JSON-ready value: a row per rate, and the fuzz row
    under --bytecodes."""
    rows = []
    for r in (0.25, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0, 4.0):
        rate = r * args.capacity
        lab = open_lab(args.capacity, args.queue, args.seed)
        sim = lab.sim
        events, scheduled = sim.events_processed, sim.events_scheduled()
        start = time.perf_counter()
        result, _ = run_flood(
            lab, FloodSpec(target="target", rate_tps=rate, duration_s=args.duration)
        )
        host_us = (time.perf_counter() - start) * 1e6
        fluid = max(0.0, (rate - args.capacity) * args.duration - args.queue)
        offered = result.offered
        row = {
            "rate": rate,
            "offered": offered,
            "answered": result.answered,
            "dropped": result.dropped,
            "fluid": fluid,
            "delta": result.dropped - fluid,
            "events_per_req": (sim.events_processed - events) / offered,
            "sched_per_req": (sim.events_scheduled() - scheduled) / offered,
            "host_us_per_req": host_us / offered,
        }
        if args.bytecodes:
            _, counts = flood_bytecodes(args.capacity, args.queue, args.seed, rate, args.duration)
            row["bytecodes_per_req"] = per_unit(counts, offered)
        rows.append(row)
    out = {
        "capacity": args.capacity,
        "queue": args.queue,
        "duration": args.duration,
        "python": sys.version.split()[0],
        "rows": rows,
    }
    if args.bytecodes:
        cases, counts = fuzz_bytecodes()
        out["fuzz"] = {"cases": cases, "bytecodes_per_case": per_unit(counts, cases)}
    return out


def print_table(out: dict) -> None:
    rows = out["rows"]
    bytecodes = "fuzz" in out
    print(f"capacity={out['capacity']:g}tps queue={out['queue']} duration={out['duration']:g}s")
    print(
        f"{'rate':>8} {'offered':>8} {'answered':>9} {'dropped':>8} {'fluid':>8} {'delta':>7}"
        f" {'events/req':>10} {'sched/req':>10} {'host_us/req':>11}"
        + (f" {'bytecodes/req':>13}" if bytecodes else "")
    )
    for row in rows:
        print(
            f"{row['rate']:8g} {row['offered']:8d} {row['answered']:9d}"
            f" {row['dropped']:8d} {row['fluid']:8g} {row['delta']:+7g}"
            f" {row['events_per_req']:10.3f} {row['sched_per_req']:10.3f}"
            f" {row['host_us_per_req']:11.2f}"
            + (f" {row['bytecodes_per_req']['total']:13.1f}" if bytecodes else "")
        )
    if bytecodes:
        fuzz = out["fuzz"]
        table = [(f"{row['rate']:g}", row["bytecodes_per_req"]) for row in rows]
        table.append(("fuzz", fuzz["bytecodes_per_case"]))
        modules = sorted({m for _, per in table for m in per} - {"total"}) + ["total"]
        print(
            "\nbytecodes per offered request by module, and per case of phase1's fuzz"
            f" ({fuzz['cases']} cases) in its row (Python {out['python']})"
        )
        print(f"{'rate':>8}" + "".join(f" {m:>10}" for m in modules))
        for label, per in table:
            print(f"{label:>8}" + "".join(f" {per.get(m, 0.0):10.1f}" for m in modules))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--capacity", type=float, default=1000.0)
    parser.add_argument("--queue", type=int, default=100)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--bytecodes", action="store_true",
                        help="also count bytecodes per offered request (slow; use a short --duration)")
    parser.add_argument("--json", action="store_true", help="print the sweep as one JSON object")
    args = parser.parse_args()
    out = sweep(args)
    if args.json:
        print(json.dumps(out))
    else:
        print_table(out)


if __name__ == "__main__":
    main()
