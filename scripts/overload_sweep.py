#!/usr/bin/env python3
"""Sweep flood rates against a fixed-capacity target and compare the simulated
drop counts with the closed-form fluid model drops = max(0, (r - C)*T - Q).

Beside the drops, each row gives the flood's cost per offered request:
simulated events and heap entries pushed (both deterministic), and host
microseconds (plain wall time, so loose on a host whose speed drifts).

Usage: PYTHONPATH=src python scripts/overload_sweep.py [--capacity 1000] [--queue 100]
           [--duration 5]
"""

import argparse
import time

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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--capacity", type=float, default=1000.0)
    parser.add_argument("--queue", type=int, default=100)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rates = [r * args.capacity for r in (0.25, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0, 4.0)]
    print(f"capacity={args.capacity:g}tps queue={args.queue} duration={args.duration:g}s")
    print(
        f"{'rate':>8} {'offered':>8} {'answered':>9} {'dropped':>8} {'fluid':>8} {'delta':>7}"
        f" {'events/req':>10} {'pushes/req':>10} {'host_us/req':>11}"
    )
    for rate in rates:
        config = parse_campaign_config(
            LAB_TEMPLATE.format(seed=args.seed, capacity=args.capacity, queue=args.queue),
            source="<sweep>",
        )
        lab = build_lab(config)
        lab.bring_links_open()
        sim = lab.sim
        events, pushes = sim.events_processed, sim._seq  # every heap entry takes the next _seq
        start = time.perf_counter()
        result, _ = run_flood(
            lab, FloodSpec(target="target", rate_tps=rate, duration_s=args.duration)
        )
        host_us = (time.perf_counter() - start) * 1e6
        fluid = max(0.0, (rate - args.capacity) * args.duration - args.queue)
        delta = result.dropped - fluid
        offered = result.offered
        print(
            f"{rate:8g} {offered:8d} {result.answered:9d}"
            f" {result.dropped:8d} {fluid:8g} {delta:+7g}"
            f" {(sim.events_processed - events) / offered:10.3f}"
            f" {(sim._seq - pushes) / offered:10.3f} {host_us / offered:11.2f}"
        )


if __name__ == "__main__":
    main()
