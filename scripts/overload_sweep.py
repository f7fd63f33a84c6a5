#!/usr/bin/env python3
"""Sweep flood rates against a fixed-capacity target and compare the simulated
drop counts with the closed-form fluid model drops = max(0, (r - C)*T - Q).

Beside the drops, each row gives the flood's cost per offered request:
simulated events run and events scheduled (deliveries and timers, each run
or still due when the flood returns; both deterministic), and host
microseconds (plain wall time, so loose on a host whose speed drifts).
After each row's flood, outside its timing, the row's lab is checked with
campaign.broken_identities: a broken identity ends the sweep with exit
status 1 and its name.

--bytecodes measures each row again, each in a fresh interpreter (a spawned
process), so that its numbers depend on that row alone: every rate, then
`fuzz`, per case of phase1's fuzz (its 1,000 cases and seed, on a fresh
phase1 lab), and `setup`, for one setup of phase2 as perfbench's setup_s
times it (load_config, Lab.build and bring_links_open). A row's run is
built fresh and run three times: untraced, so the counts leave out what
only the first run in a process does (filling caches); under sys.settrace;
and untraced again, to warm the code once more.

The traced run gives the bytecodes executed per offered request in
diamlab's code, and the calls of its Python functions (each frame entered,
a generator's resumption too): a column of each, then a table by module
with the calls last, whose last two rows are the fuzz and the setup, then
a table by function, one column per row of the table by module. The count
is exact and the same in every run of one interpreter version, but it is
not time: a call into C counts as one. Code compiled from strings is filed
under the module of the class it was generated for (codec.slot_init), or
under <string> (dataclasses), and either is named by its class. Tracing
runs about 50 times slower than the flood itself, so use short floods.

After the last run, the executed instructions of diamlab's code that
CPython 3.11's specializing interpreter (PEP 659) leaves in an
unspecialized *_ADAPTIVE form are listed for the 1x row (every request
answered), the 4x row (most dropped) and the fuzz: each by function, line
and offset, with its executions per offered request (or case) in the
traced run, and their total. Under tracing 3.11 executes each
instruction's base form and specializes nothing; the forms are read with
dis.get_instructions(code, adaptive=True). A CALL after a PRECALL
specialized for a builtin is left out: the PRECALL makes the call, and an
untraced run never executes that CALL. A site that sees values of more
than one type can flip between a specialized and the adaptive form as runs
go on, and a specialized form whose guard fails goes back to the adaptive
one only after some misses, so the listing is a snapshot of the forms
after the last run, and a longer --duration can list more.

--json prints the same sweep as one JSON object instead: the rows, each
with its bytecodes per offered request in total and by module, and by
function within each module, and its calls per offered request, under
--bytecodes, then the fuzz row, the listings under `adaptive`, and the
setup row.

Usage: PYTHONPATH=src python scripts/overload_sweep.py [--capacity 1000] [--queue 100]
           [--duration 5] [--bytecodes] [--json]
"""

import argparse
import dis
import gc
import json
import multiprocessing
import os
import sys
import time
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import diamlab
from diamlab.attacks import FloodSpec, run_flood, run_fuzz
from diamlab.campaign import _derived_seed, broken_identities, build_lab
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


def function_of(code) -> str:
    """A code object's qualified name; a generated constructor's with its
    class (codec.slot_init compiles it under the filename <diamlab.codec.Avp>),
    and so is a method compiled from <string>, such as PeerEvent.__init__."""
    if code.co_filename.startswith("<diamlab."):
        return f"{code.co_filename[1:-1].split('.', 2)[2]}.{code.co_qualname}"
    if code.co_filename == "<string>":
        # The code is named for the helper that compiled it (dataclasses'
        # __create_fn__); its function's __qualname__ names the class.
        names = (
            f.__qualname__ for f in gc.get_referrers(code) if getattr(f, "__code__", None) is code
        )
        return next(names, code.co_qualname)
    return code.co_qualname


def count_executions(run: Callable[[], object], calls: Optional[Counter] = None) -> dict:
    """Executions of each instruction of diamlab's code while `run()` runs:
    {id(code): (code, Counter of byte offsets)}. Keyed by id, since two code
    objects compiled from the same text compare equal. With `calls`, each
    frame of diamlab's code entered also counts one there, under the same id."""
    executed: dict[int, tuple] = {}
    if calls is None:
        calls = Counter()

    def on_call(frame, event, arg):
        code = frame.f_code
        if module_of(code.co_filename) is None:
            return None
        calls[id(code)] += 1
        offsets = executed.setdefault(id(code), (code, Counter()))[1]

        def count(frame, event, arg):
            if event == "opcode":
                offsets[frame.f_lasti] += 1
            return count

        frame.f_trace_opcodes = True
        return count

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return executed


# A PRECALL specialized for a builtin makes the whole call and skips its
# CALL, which then never runs untraced and stays CALL_ADAPTIVE; only these
# forms leave the CALL to run.
_PRECALLS_THAT_CALL = {"PRECALL", "PRECALL_ADAPTIVE", "PRECALL_BOUND_METHOD", "PRECALL_PYFUNC"}


def adaptive_sites(executed: dict, n: int) -> dict:
    """The executed instructions of `executed` (count_executions) whose
    current form is *_ADAPTIVE, with their executions per unit of `n`: the
    sites, largest first, and their total."""
    sites = []
    for code, offsets in executed.values():
        previous = None
        for ins in dis.get_instructions(code, adaptive=True):
            runs = offsets.get(ins.offset)
            if (
                runs and ins.opname.endswith("_ADAPTIVE")
                and not (ins.opname == "CALL_ADAPTIVE" and previous not in _PRECALLS_THAT_CALL)
            ):
                sites.append({
                    "module": module_of(code.co_filename),
                    "function": function_of(code),
                    "line": ins.positions.lineno,
                    "offset": ins.offset,
                    "opname": ins.opname,
                    "per_unit": runs / n,
                })
            previous = ins.opname
    sites.sort(key=lambda s: (-s["per_unit"], s["module"], s["function"], s["offset"]))
    return {"n": n, "total": sum(s["per_unit"] for s in sites), "sites": sites}


def open_lab(capacity: float, queue: int, seed: int):
    config = parse_campaign_config(
        LAB_TEMPLATE.format(seed=seed, capacity=capacity, queue=queue), source="<sweep>"
    )
    lab = build_lab(config)
    lab.bring_links_open()
    return lab


# A row's run, as measure takes it: built fresh by each call, with its units
# (offered requests, fuzz cases or setups).
Build = Callable[[], tuple[int, Callable[[], object]]]


def flood_run(capacity: float, queue: int, seed: int, rate: float, duration: float):
    """(offered requests, a run of one flood on a fresh lab built now)."""
    spec = FloodSpec(target="target", rate_tps=rate, duration_s=duration)
    return spec.count, partial(run_flood, open_lab(capacity, queue, seed), spec)


def fuzz_run():
    """(cases, a run of phase1's fuzz on a fresh phase1 lab built now, with
    the seed its campaign gives the fuzz)."""
    config = load_config("phase1")
    index, spec = next((i, s) for i, s in enumerate(config.attacks) if s.kind == "fuzz")
    spec = replace(spec, seed=_derived_seed(config.seed, index))
    lab = build_lab(config)
    lab.bring_links_open()
    return spec.case_count, partial(run_fuzz, lab, spec)


def setup_run():
    """(1, one setup of phase2, as perfbench's setup_s times it: load_config,
    Lab.build and bring_links_open)."""
    return 1, lambda: build_lab(load_config("phase2")).bring_links_open()


def measure(build: Build) -> dict:
    """One row measured: its run, built fresh by `build()` each time, runs
    untraced, then under sys.settrace, then untraced again. Returns the
    units `n`; the traced run's bytecodes by (module, function) `counts`
    and `calls` (count_executions); and, read after the last run, the
    adaptive_sites of the code the traced run executed, under `adaptive`."""
    build()[1]()
    n, run = build()
    calls: Counter = Counter()
    executed = count_executions(run, calls)
    build()[1]()
    counts: Counter = Counter()
    for code, offsets in executed.values():
        counts[module_of(code.co_filename), function_of(code)] += offsets.total()
    return {
        "n": n, "counts": counts, "calls": calls.total(), "adaptive": adaptive_sites(executed, n),
    }


def in_fresh_interpreters(function: Callable, args: list) -> list:
    """[function(a) for a in args], each call made in an interpreter of its
    own: a spawned process that makes that one call, two at a time. Every
    process is ended and joined before this returns (the pool's terminate),
    also when a call raises. `function` and `args` must pickle."""
    with multiprocessing.get_context("spawn").Pool(2, maxtasksperchild=1) as pool:
        return pool.map(function, args, chunksize=1)


def per_unit(counts: Counter, n: int) -> dict:
    """Bytecodes per request (or case) of measure's `counts`, in total and by module."""
    modules: Counter = Counter()
    for (module, _), c in counts.items():
        modules[module] += c
    return {"total": sum(counts.values()) / n, **{m: c / n for m, c in sorted(modules.items())}}


def per_function(counts: Counter, n: int) -> dict:
    """Bytecodes per request (or case) of measure's `counts`, by module and,
    within it, by function."""
    out: dict = {}
    for (module, function), c in sorted(counts.items()):
        out.setdefault(module, {})[function] = c / n
    return out


# The sweep's rates, as multiples of the capacity, and the rows whose
# listings --bytecodes prints: every request answered, and most dropped.
RATES = (0.25, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0, 4.0)
ADAPTIVE_RATES = (1.0, 4.0)


def sweep(args) -> dict:
    """The sweep as one JSON-ready value: a row per rate, and under
    --bytecodes the fuzz row, the adaptive listings and the setup row."""
    rows = []
    for r in RATES:
        rate = r * args.capacity
        lab = open_lab(args.capacity, args.queue, args.seed)
        sim = lab.sim
        events, scheduled = sim.events_processed, sim.events_scheduled()
        start = time.perf_counter()
        result, _ = run_flood(
            lab, FloodSpec(target="target", rate_tps=rate, duration_s=args.duration)
        )
        host_us = (time.perf_counter() - start) * 1e6
        broken = broken_identities(lab, [result])
        if broken:
            sys.exit(f"rate {rate:g}: conservation broken: " + "; ".join(broken))
        fluid = max(0.0, (rate - args.capacity) * args.duration - args.queue)
        offered = result.offered
        rows.append({
            "rate": rate,
            "offered": offered,
            "answered": result.answered,
            "dropped": result.dropped,
            "fluid": fluid,
            "delta": result.dropped - fluid,
            "events_per_req": (sim.events_processed - events) / offered,
            "sched_per_req": (sim.events_scheduled() - scheduled) / offered,
            "host_us_per_req": host_us / offered,
        })
    out = {
        "capacity": args.capacity,
        "queue": args.queue,
        "duration": args.duration,
        "python": sys.version.split()[0],
        "rows": rows,
    }
    if not args.bytecodes:
        return out
    builds = [partial(flood_run, args.capacity, args.queue, args.seed, r * args.capacity,
                      args.duration) for r in RATES]
    *floods, fuzz, setup = in_fresh_interpreters(measure, builds + [fuzz_run, setup_run])
    for row, m in zip(rows, floods):
        row["bytecodes_per_req"] = per_unit(m["counts"], m["n"])
        row["bytecodes_by_function"] = per_function(m["counts"], m["n"])
        row["calls_per_req"] = m["calls"] / m["n"]
    out["fuzz"] = {
        "cases": fuzz["n"],
        "bytecodes_per_case": per_unit(fuzz["counts"], fuzz["n"]),
        "bytecodes_by_function": per_function(fuzz["counts"], fuzz["n"]),
        "calls_per_case": fuzz["calls"] / fuzz["n"],
    }
    out["adaptive"] = {
        **{f"{r:g}x": m["adaptive"] for r, m in zip(RATES, floods) if r in ADAPTIVE_RATES},
        "fuzz": fuzz["adaptive"],
    }
    out["setup"] = {
        "bytecodes": per_unit(setup["counts"], 1),
        "bytecodes_by_function": per_function(setup["counts"], 1),
        "calls": setup["calls"],
    }
    return out


def print_table(out: dict) -> None:
    rows = out["rows"]
    bytecodes = "fuzz" in out
    print(f"capacity={out['capacity']:g}tps queue={out['queue']} duration={out['duration']:g}s")
    print(
        f"{'rate':>8} {'offered':>8} {'answered':>9} {'dropped':>8} {'fluid':>8} {'delta':>7}"
        f" {'events/req':>10} {'sched/req':>10} {'host_us/req':>11}"
        + (f" {'bytecodes/req':>13} {'calls/req':>9}" if bytecodes else "")
    )
    for row in rows:
        print(
            f"{row['rate']:8g} {row['offered']:8d} {row['answered']:9d}"
            f" {row['dropped']:8d} {row['fluid']:8g} {row['delta']:+7g}"
            f" {row['events_per_req']:10.3f} {row['sched_per_req']:10.3f}"
            f" {row['host_us_per_req']:11.2f}"
            + (
                f" {row['bytecodes_per_req']['total']:13.1f} {row['calls_per_req']:9.2f}"
                if bytecodes else ""
            )
        )
    if bytecodes:
        fuzz, setup_row = out["fuzz"], out["setup"]
        table = [(f"{row['rate']:g}", row["bytecodes_per_req"], row["calls_per_req"])
                 for row in rows]
        table.append(("fuzz", fuzz["bytecodes_per_case"], fuzz["calls_per_case"]))
        table.append(("setup", setup_row["bytecodes"], setup_row["calls"]))
        modules = sorted({m for _, per, _ in table for m in per} - {"total"}) + ["total"]
        print(
            "\nbytecodes per offered request by module, per case of phase1's fuzz"
            f" ({fuzz['cases']} cases) and per setup of phase2 in their rows, then calls"
            f" (Python {out['python']})"
        )
        print(f"{'rate':>8}" + "".join(f" {m:>10}" for m in modules) + f" {'calls':>8}")
        for label, per, calls in table:
            print(
                f"{label:>8}" + "".join(f" {per.get(m, 0.0):10.1f}" for m in modules)
                + f" {calls:8.2f}"
            )
        print_functions(out)
        print_adaptive(out)


def print_functions(out: dict) -> None:
    """The table by function: a line per function, grouped by module, the
    functions of a module in order of their largest count; a column per
    row of the table by module."""
    columns = [row["bytecodes_by_function"] for row in out["rows"]]
    columns.append(out["fuzz"]["bytecodes_by_function"])
    columns.append(out["setup"]["bytecodes_by_function"])
    labels = [f"{row['rate']:g}" for row in out["rows"]] + ["fuzz", "setup"]
    names = {(m, f) for column in columns for m, per in column.items() for f in per}
    counts = {name: [column.get(name[0], {}).get(name[1], 0.0) for column in columns]
              for name in names}
    width = max(len(f"{m}.{f}") for m, f in names)
    print(
        "\nbytecodes per offered request by function, per case of phase1's fuzz and per"
        " setup of phase2 in their columns"
    )
    print(f"{'function':<{width}}" + "".join(f" {label:>8}" for label in labels))
    for m, f in sorted(names, key=lambda name: (name[0], -max(counts[name]), name[1])):
        print(f"{m + '.' + f:<{width}}" + "".join(f" {c:8.1f}" for c in counts[m, f]))


def print_adaptive(out: dict) -> None:
    print(
        "\nexecuted instructions left in adaptive form after the last run, per offered"
        f" request, and per case of phase1's fuzz (Python {out['python']})"
    )
    for label, listing in out["adaptive"].items():
        sites = listing["sites"]
        shown = [site for site in sites if site["per_unit"] >= 0.005]
        unit = "cases" if label == "fuzz" else "requests"
        print(f"\n{label}: {listing['total']:.1f} in total over {listing['n']} {unit}")
        for site in shown:
            print(f"{site['per_unit']:8.2f}  {site['opname']:<22} {site['function']}"
                  f" ({site['module']}:{site['line']}, offset {site['offset']})")
        if len(shown) < len(sites):
            rest = sum(site["per_unit"] for site in sites[len(shown):])
            print(f"{rest:8.2f}  in {len(sites) - len(shown)} more sites, each under 0.005")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--capacity", type=float, default=1000.0)
    parser.add_argument("--queue", type=int, default=100)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--bytecodes", action="store_true",
                        help="also count bytecodes per offered request and list the executed"
                             " instructions left in adaptive form (slow; use a short --duration)")
    parser.add_argument("--json", action="store_true", help="print the sweep as one JSON object")
    args = parser.parse_args()
    out = sweep(args)
    if args.json:
        print(json.dumps(out))
        return
    print_table(out)


if __name__ == "__main__":
    main()
