#!/usr/bin/env python3
"""diamlab benchmark: three workloads through the public API, host-time
metrics with tracing off, and a separate traced run per layer.

One workload, with the arguments every measured run takes:

    python3 perfbench/run.py --workload phase1 --seed 1 --seconds 30 --trace 0

prints a few human-readable lines and, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
the end-to-end metrics, timed in seconds at a fixed reference speed of
the host (hostspeed.py), `--trace 1` the per-layer ones. Every workload,
both modes, one table, each metric checked against BENCHMARK.json:

    python3 perfbench/run.py --all [--seconds 30]
    python3 perfbench/run.py --all --smoke      # tiny sizes, seconds

Stored digests of the deterministic outputs at each workload's default
seed live in perfbench/golden.json; regenerate them (only after a change
that alters outputs on purpose) with `--update-golden`.

Workloads, metrics and which layer should move which metric are described
in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

from hostspeed import SpeedClock
from tracer import Target, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
SCRATCH_PARENT = ROOT / ".perfbench-tmp"

WORKLOADS = ("phase1", "phase2", "flood-overload")
# flood-overload: the phase1 lab (1,000 TPS target, queue 100, 5 ms link)
# flooded at 8x capacity. 3 s simulated is past the 2 s answer timeout, so
# the pending table reaches its steady size, and the target never fails.
OVERLOAD_RATE_TPS = 8000.0
OVERLOAD_DURATION_S = 3.0

MIN_REPS = 3  # untraced repetitions per run, whatever --seconds says
# setup_s samples taken before each repetition, so that they spread over
# the whole run like the repetitions do.
SETUPS_PER_REP = 50

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "flood_req_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def default_seed(workload: str) -> int:
    """The lab's own seed: the one in its built-in config."""
    return 2 if workload == "phase2" else 1


# --- importing the program under test -------------------------------------


def import_diamlab():
    """Import diamlab from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "diamlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no diamlab sources at {src / 'diamlab'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import diamlab
    import diamlab.attacks
    import diamlab.campaign
    import diamlab.capture
    import diamlab.codec
    import diamlab.config
    import diamlab.elements
    import diamlab.peer
    import diamlab.simnet

    return diamlab


# --- layer targets -----------------------------------------------------------


def _bump(key: str, when: Callable) -> Callable:
    def observe(counts, args, result, _before):
        if when(args, result):
            counts[key] += 1

    return observe


def layer_targets(dl) -> list[Target]:
    """Every traced span. Names are `<module>.<qualname>` inside diamlab."""
    ParseError = dl.codec.ParseError
    DROP = dl.peer.ActionKind.DROP_MESSAGE

    def count_drops(counts, _args, result, _before):
        counts["drops"] += sum(1 for action in result[1] if action.kind is DROP)

    def sum_pending(counts, args, _result, _before):
        counts["pending_mean"] += len(args[0].pending)

    def count_lost(counts, args, _result, lost_before):
        counts["lost"] += args[0].stats.lost - lost_before

    def count_admission(counts, _args, result, _before):
        counts[result.value] += 1

    def count_reclaimed(counts, _args, result, _before):
        counts["reclaimed"] += result

    return [
        Target("codec.build_message"),
        Target("codec.encode_message"),
        Target(
            "codec.decode_message",
            counts=("errors",),
            observe=_bump("errors", lambda _a, r: isinstance(r, ParseError)),
        ),
        Target(
            "codec.validate_message",
            counts=("rejects",),
            observe=_bump("rejects", lambda _a, r: bool(r)),
        ),
        Target("peer.handle_event", counts=("drops",), observe=count_drops),
        Target(
            "peer.register_request",
            counts=("pending_mean",),
            means=("pending_mean",),
            observe=sum_pending,
        ),
        Target(
            "peer.correlate_answer",
            counts=("misses",),
            observe=_bump("misses", lambda _a, r: r[1] is None),
        ),
        Target(
            "simnet.Simulation.send",
            counts=("lost",),
            observe=count_lost,
            before=lambda args: args[0].stats.lost,
        ),
        Target("simnet.Simulation.schedule_timer"),
        Target("simnet.Simulation.run_until"),
        Target("elements.Element.on_message"),
        Target(
            "elements.Element.admit",
            counts=("accepted", "queued", "dropped"),
            observe=count_admission,
        ),
        Target("elements.Element.send_app_request", percentiles=True),
        Target(
            "elements.Element.forget_pending_many",
            counts=("reclaimed",),
            observe=count_reclaimed,
        ),
        Target("attacks.mutate"),
        Target("attacks.run_fuzz", inclusive=True),
        Target("attacks.run_flood", inclusive=True),
        Target("attacks.run_intercept", inclusive=True),
        Target("config.load_config"),
        Target("elements.Lab.build"),
        Target("elements.Lab.bring_links_open"),
        Target("campaign.render_report"),
        Target("capture.write_capture"),
    ]


def attack_timers() -> list[Target]:
    """The only spans of an untraced run: one per attack call, for rates.

    Their tracer must use the same clock as the repetition around them.
    """
    return [Target("attacks.run_fuzz"), Target("attacks.run_flood")]


# --- one repetition of a workload ----------------------------------------------


@dataclass
class Rep:
    wall_s: float
    events: int
    flood_offered: int
    flood_s: float
    fuzz_cases: int
    fuzz_s: float
    digests: dict[str, str]
    violations: list[str]
    trace_counts: dict[str, float] = field(default_factory=dict)
    trace_times: dict[str, float] = field(default_factory=dict)
    top_level_s: float = 0.0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _shrink(dl, spec):
    """Smoke-mode attack sizes: same kinds and rates, a sliver of the work."""
    if isinstance(spec, dl.attacks.FuzzSpec):
        return replace(spec, case_count=min(spec.case_count, 40))
    if isinstance(spec, dl.attacks.FloodSpec):
        return replace(spec, duration_s=min(spec.duration_s, 0.3))
    return spec


def check_invariants(dl, lab, results) -> list[str]:
    """Conservation laws that hold after every run; returns the violations."""
    bad = []
    for label, elem in lab.elements.items():
        accounted = (
            elem.direct_served
            + elem.drained_served
            + elem.dropped_overflow
            + elem.dropped_at_failure
            + len(elem.queue)
        )
        if elem.offered != accounted:
            bad.append(f"element {label}: offered {elem.offered} != accounted {accounted}")
    for result in results:
        if isinstance(result, dl.attacks.FloodResult):
            if result.offered != result.answered + result.dropped:
                bad.append(
                    f"flood {result.target}: offered {result.offered} != answered"
                    f" {result.answered} + dropped {result.dropped}"
                )
        elif isinstance(result, dl.attacks.FuzzResult):
            total = sum(sum(t.values()) for t in result.tallies.values())
            if total != result.case_count:
                bad.append(f"fuzz {result.target}: tallies sum {total} != {result.case_count}")
    return bad


def run_rep(
    dl,
    workload: str,
    seed: int,
    smoke: bool,
    tracer: Tracer,
    scratch: Path,
    clock: Callable[[], float] = time.perf_counter,
) -> Rep:
    """Run the workload once from config to outputs; time it; digest it."""
    gc.collect()  # the last repetition's lab is cyclic garbage; free it untimed
    tracer.reset()
    if workload == "flood-overload":
        start = clock()
        config = dl.config.load_config("phase1", seed_override=seed)
        lab = dl.campaign.build_lab(config)
        lab.bring_links_open()
        spec = dl.attacks.FloodSpec(
            target="target", rate_tps=OVERLOAD_RATE_TPS, duration_s=OVERLOAD_DURATION_S
        )
        if smoke:
            spec = _shrink(dl, spec)
        result, _ = dl.attacks.run_flood(lab, spec)
        wall = clock() - start
        results = [result]
        digests = {
            "flood_result": _sha256(json.dumps(result.to_dict(), sort_keys=True).encode())
        }
    else:
        out_dir = Path(tempfile.mkdtemp(dir=scratch))
        start = clock()
        config = dl.config.load_config(workload, seed_override=seed)
        if smoke:
            config = replace(config, attacks=tuple(_shrink(dl, a) for a in config.attacks))
        run = dl.campaign.run_campaign(config, out_dir=str(out_dir))
        wall = clock() - start
        lab, results = run.lab, run.results
        digests = {p.name: _sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())}
        shutil.rmtree(out_dir)

    spans = tracer.stats
    return Rep(
        wall_s=wall,
        events=lab.sim.stats.events_processed,
        flood_offered=sum(r.offered for r in results if isinstance(r, dl.attacks.FloodResult)),
        flood_s=spans["attacks.run_flood"].incl_s,
        fuzz_cases=sum(r.case_count for r in results if isinstance(r, dl.attacks.FuzzResult)),
        fuzz_s=spans["attacks.run_fuzz"].incl_s,
        digests=digests,
        violations=check_invariants(dl, lab, results),
        trace_counts=tracer.counts(),
        trace_times=tracer.times(),
        top_level_s=tracer.top_level_s,
    )


def measure_setup(dl, workload: str, seed: int, clock: Callable[[], float]) -> float:
    """Time of load_config + Lab.build + bring_links_open."""
    start = clock()
    config = dl.config.load_config(
        "phase1" if workload == "flood-overload" else workload, seed_override=seed
    )
    lab = dl.campaign.build_lab(config)
    lab.bring_links_open()
    return clock() - start


# --- checking outputs -------------------------------------------------------------


class Checker:
    """Counts repetitions whose outputs are wrong, and says why.

    At the default seed every repetition must match the stored digests;
    at any seed every repetition must match the first one (determinism),
    satisfy the invariants, and traced repetitions must agree on every
    per-layer count.
    """

    def __init__(self, golden: Optional[dict[str, str]]):
        self.golden = golden
        self.first: Optional[dict[str, str]] = None
        self.first_counts: Optional[dict[str, float]] = None
        self.attempted = 0
        self.failed = 0

    def check(self, rep: Rep, traced: bool) -> None:
        problems = list(rep.violations)
        if self.golden is not None:
            names = sorted(set(self.golden) | set(rep.digests))
            problems += [
                f"golden mismatch: {n}" for n in names if self.golden.get(n) != rep.digests.get(n)
            ]
        if self.first is None:
            self.first = rep.digests
        elif rep.digests != self.first:
            problems.append("nondeterministic: digests differ from the first repetition")
        if traced:
            if self.first_counts is None:
                self.first_counts = rep.trace_counts
            else:
                drift = sorted(
                    k for k in rep.trace_counts if rep.trace_counts[k] != self.first_counts[k]
                )
                problems += [f"trace count drift: {k}" for k in drift]
        self.attempted += 1
        if problems:
            self.failed += 1
            for line in problems:
                print(f"FAILED repetition {self.attempted}: {line}")


def load_golden(workload: str, seed: int, smoke: bool) -> Optional[dict[str, str]]:
    if smoke:
        return None
    entry = json.loads(GOLDEN_PATH.read_text()).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["digests"]


# --- reporting --------------------------------------------------------------------


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_line() -> str:
    return (
        f"machine: nproc={os.cpu_count()} python={platform.python_version()}"
        f" git_rev={git_rev()}"
    )


def describe(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"  {name:<18} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def result_line(checker: Checker, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


# --- the two kinds of run ------------------------------------------------------------


def untraced_run(dl, workload: str, seed: int, seconds: float, smoke: bool, scratch: Path) -> str:
    """End-to-end metrics: repeat the workload for `seconds`, report medians.

    Every time is read from a SpeedClock (hostspeed.py), in seconds at a
    fixed reference speed of the host; the plain host-time median of
    the workload and the host's speed are printed beside them.
    """
    checker = Checker(load_golden(workload, seed, smoke))
    # One untimed repetition first: it warms the allocator and caches, and
    # the peak RSS is read after it, before the speed probes' table exists.
    warmup = Tracer(attack_timers())
    warmup.install()
    try:
        checker.check(run_rep(dl, workload, seed, smoke, warmup, scratch), traced=False)
    finally:
        warmup.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock = SpeedClock()
    timers = Tracer(attack_timers(), clock=clock.now)
    timers.install()
    clock.start()
    setups: list[float] = []
    reps: list[Rep] = []
    host_walls: list[float] = []
    start = time.perf_counter()
    try:
        while True:
            setups += [measure_setup(dl, workload, seed, clock.now) for _ in range(SETUPS_PER_REP)]
            rep_start = time.perf_counter()
            rep = run_rep(dl, workload, seed, smoke, timers, scratch, clock.now)
            host_walls.append(time.perf_counter() - rep_start)
            checker.check(rep, traced=False)
            reps.append(rep)
            elapsed = time.perf_counter() - start
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
    finally:
        clock.stop()
        timers.uninstall()

    walls = [r.wall_s for r in reps]
    series = {
        "setup_s": setups,
        "wall_s": walls,
        "events_per_s": [r.events / r.wall_s for r in reps],
        "flood_req_per_s": [r.flood_offered / r.flood_s for r in reps],
    }
    print(f"workload={workload} seed={seed} smoke={smoke} reps={len(reps)}"
          f" golden={'checked' if checker.golden else 'none (determinism only)'}")
    for name, values in series.items():
        print(describe(name, values, UNITS[name]))
    print(describe("host_wall_s", host_walls, "s") + " (plain host time, probes included)")
    print(describe("host_speed", clock.speed_factors(), "x") + " (1 = reference speed)")
    if reps[0].fuzz_cases:
        print(describe("fuzz_cases_per_s", [r.fuzz_cases / r.fuzz_s for r in reps], "1/s"))
    print(f"  {'failed_ratio':<18} {checker.failed}/{checker.attempted}")
    metrics = {name: (statistics.median(values), UNITS[name]) for name, values in series.items()}
    metrics["peak_rss_mib"] = (peak_rss_mib, UNITS["peak_rss_mib"])
    return result_line(checker, metrics)


def traced_run(dl, workload: str, seed: int, seconds: float, smoke: bool, scratch: Path) -> str:
    """Per-layer metrics: alternate untraced and traced repetitions."""
    checker = Checker(load_golden(workload, seed, smoke))
    timers = Tracer(attack_timers())
    tracer = Tracer(layer_targets(dl))
    plain: list[Rep] = []
    traced: list[Rep] = []
    start = time.perf_counter()
    while True:
        timers.install()
        try:
            rep = run_rep(dl, workload, seed, smoke, timers, scratch)
        finally:
            timers.uninstall()
        checker.check(rep, traced=False)
        plain.append(rep)
        tracer.install()
        try:
            rep = run_rep(dl, workload, seed, smoke, tracer, scratch)
        finally:
            tracer.uninstall()
        checker.check(rep, traced=True)
        traced.append(rep)
        elapsed = time.perf_counter() - start
        pairs = len(traced)
        if pairs >= 2 and elapsed * (pairs + 1) / pairs > seconds:
            break

    metrics: dict[str, tuple[float, str]] = {}
    for name, value in traced[0].trace_counts.items():
        metrics[name] = (value, "count")
    for name in traced[0].trace_times:
        unit = "us" if name.endswith("_us") else "s"
        metrics[name] = (statistics.median(r.trace_times[name] for r in traced), unit)
    traced_wall = statistics.median(r.wall_s for r in traced)
    plain_wall = statistics.median(r.wall_s for r in plain)
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    metrics["trace.coverage"] = (
        statistics.median(r.top_level_s / r.wall_s for r in traced),
        "ratio",
    )
    print(f"workload={workload} seed={seed} smoke={smoke} traced_reps={len(traced)}"
          f" untraced_reps={len(plain)}"
          f" overhead_ratio={metrics['trace.overhead_ratio'][0]:.3f}"
          f" coverage={metrics['trace.coverage'][0]:.3f}")
    self_times = sorted(
        ((v, k) for k, (v, _) in metrics.items() if k.endswith(".self_s")), reverse=True
    )
    total = sum(v for v, _ in self_times)
    by_layer: dict[str, float] = {}
    for value, name in self_times:
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + value
    print("  self time by layer: " + ", ".join(
        f"{layer} {100 * v / total:.1f}%"
        for layer, v in sorted(by_layer.items(), key=lambda kv: -kv[1])
    ))
    for value, name in self_times[:8]:
        print(f"  {name:<44} self {value:.4f} s  {100 * value / total:5.1f}%")
    for name in tracer.missing:
        print(f"  not traced, diamlab no longer defines it: {name}")
    print(f"  {'failed_ratio':<44} {checker.failed}/{checker.attempted}")
    return result_line(checker, metrics)


# --- the whole benchmark in one command -----------------------------------------------


def run_all(seconds: int, smoke: bool, seed: Optional[int]) -> int:
    """Every workload in its own process, both modes; check names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seconds", str(seconds), "--trace", str(trace)]
            if seed is not None:
                cmd += ["--seed", str(seed)]
            if smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload} trace={trace} (exit {proc.returncode})")
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr)
                ok = False
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for name, unit in sorted(expected[trace].items()):
                if name not in got:
                    print(f"  MISSING {name}")
                elif got[name] != unit:
                    print(f"  UNIT {name}: {got[name]} != {unit}")
            for name in sorted(set(got) - set(expected[trace])):
                print(f"  UNDECLARED {name}")
            if got != expected[trace] or not result["correct"]:
                ok = False
            if trace == 0:
                for name, entry in result["metrics"].items():
                    print(f"  {name:<18} {entry['value']:.6g} {entry['unit']}")
            print(f"  correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}")
    print("ALL OK" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def update_golden(dl, scratch: Path) -> None:
    golden = {}
    for workload in WORKLOADS:
        seed = default_seed(workload)
        rep = run_rep(dl, workload, seed, False, Tracer(attack_timers()), scratch)
        if rep.violations:
            sys.exit(f"perfbench: {workload}: invariants fail: {rep.violations}")
        golden[workload] = {"seed": seed, "digests": rep.digests}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None, help="default: the lab's own seed")
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny attack sizes")
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args()

    if args.all:
        return run_all(args.seconds, args.smoke, args.seed)
    if not args.update_golden and args.workload is None:
        parser.error("--workload, --all or --update-golden is required")
    dl = import_diamlab()
    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH_PARENT))
    try:
        if args.update_golden:
            update_golden(dl, scratch)
            return 0
        seed = default_seed(args.workload) if args.seed is None else args.seed
        run = traced_run if args.trace else untraced_run
        print(machine_line())
        line = run(dl, args.workload, seed, args.seconds, args.smoke, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
