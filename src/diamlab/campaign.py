"""Campaign execution: build the lab, open the links, run the attacks,
check that the finished run conserves every request and message
(`broken_identities`), number the findings (each comes from its runner with
its taxonomy label), write the report.

A campaign is a pure function of its config (which includes the seed):
rerunning the same config produces byte-identical report and capture
files, tool version aside. Reports exist in two renderings, structured
JSON and grouped plain text, with the JSON round-trippable back into a
Report value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, get_origin, get_type_hints

from . import __version__
from .attacks import Finding, FuzzResult
from .capture import write_capture
from .config import ATTACK_KINDS, CampaignConfig
from .elements import Lab, LabError
from .simnet import CaptureRecord

TOOL_VERSION = f"diamlab {__version__}"


class CampaignError(RuntimeError):
    pass


def broken_identities(lab: Lab, results: list[object]) -> list[str]:
    """The conservation identities a finished run breaks, each named by the
    element, link or fuzz target it is about; empty when all hold.

    - per element: every offered request was served directly or from the
      queue, dropped on a full queue or at the failure, or is still queued;
    - per link: every attempted send was delivered, lost, or is still due;
    - per fuzz result: the tallies sum to the case count.

    Two identities are left out because they cannot break: the simulation
    totals (`Simulation.stats` sums the link counters, so the per-link
    identity implies them), and a flood's offered = answered + dropped
    (`run_flood` computes dropped as offered - answered).
    """
    broken = []
    for label, elem in lab.elements.items():
        accounted = (
            elem.direct_served
            + elem.drained_served
            + elem.dropped_overflow
            + elem.dropped_at_failure
            + len(elem.queue)
        )
        if elem.offered != accounted:
            broken.append(f"element {label}: offered {elem.offered} != accounted {accounted}")
    for link in lab.sim.links.values():
        accounted = link.delivered + link.lost + lab.sim.queued_deliveries(link)
        if link.attempted != accounted:
            broken.append(
                f"link {link.a.label} <-> {link.b.label}:"
                f" attempted {link.attempted} != delivered + lost + queued {accounted}"
            )
    for result in results:
        if isinstance(result, FuzzResult):
            total = sum(sum(tally.values()) for tally in result.tallies.values())
            if total != result.case_count:
                broken.append(
                    f"fuzz {result.target}: tallies sum {total} != cases {result.case_count}"
                )
    return broken


def to_json(value: object) -> object:
    """`value` as JSON data: a dataclass is the dict of its fields, an Enum
    its value, a tuple a list; dicts and lists are walked, the rest kept."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    return value


# The keys of each entry of a report's `attacks` and `findings`, as
# `to_json` writes them, and the type json.load gives each value.
_ENTRY_KEYS: dict[str, dict[str, type]] = {
    "attacks": {"kind": str, "result": dict},
    "findings": {
        "id": int, "attack_kind": str, "severity": str, "taxonomy": dict, "evidence": dict,
    },
}
_JSON_TYPE_NAMES = {dict: "an object", str: "a string", int: "an integer"}


def _entry_error(key: str, index: int, entry: object) -> Optional[str]:
    """What is wrong with the shape of `entry`, number `index` of the report's
    `key` list, located by its path (`attacks[0].result: ...`), or None."""
    where = f"{key}[{index}]"
    if type(entry) is not dict:
        return f"{where}: expected an object, got {type(entry).__name__}"
    for name, kind in _ENTRY_KEYS[key].items():
        if name not in entry:
            return f"{where}.{name}: missing"
        value = entry[name]
        if type(value) is not kind:  # exact: a JSON boolean is no integer
            return f"{where}.{name}: expected {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}"
    return None


@dataclass
class Report:
    tool_version: str
    phase: str
    seed: int
    config: dict
    attacks: list[dict]
    findings: list[dict]
    stats: dict

    @classmethod
    def from_dict(cls, d: object) -> "Report":
        """Inverse of to_json (the parsed JSON); ValueError names a missing or
        mistyped key, and the path of a mistyped attack or finding entry."""
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        hints = get_type_hints(cls)
        for key, hint in hints.items():
            kind = get_origin(hint) or hint  # list[dict] -> list
            if type(d.get(key)) is not kind:  # exact: a JSON boolean is no integer
                raise ValueError(f"{key!r} is missing or not a {kind.__name__}")
        for key in _ENTRY_KEYS:
            for index, entry in enumerate(d[key]):
                error = _entry_error(key, index, entry)
                if error:
                    raise ValueError(error)
        return cls(**{key: d[key] for key in hints})

    def to_json(self) -> str:
        return json.dumps(to_json(self), indent=2, sort_keys=True) + "\n"


def render_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown report format {fmt!r} (expected 'text' or 'json')")


def _text_value(value: object) -> object:
    """A report value as the text report shows it: a dict or list as sorted JSON."""
    return json.dumps(value, sort_keys=True) if isinstance(value, (dict, list)) else value


def _render_text(report: Report) -> str:
    lines: list[str] = []
    add = lines.append
    add("=" * 64)
    add("Diameter testbed campaign report")
    add("=" * 64)
    add(f"tool:    {report.tool_version}")
    add(f"phase:   {report.phase}")
    add(f"seed:    {report.seed}")
    add(f"config:  {report.config.get('source', '?')}")
    add("")
    add("-- topology --")
    for node in report.config.get("nodes", []):
        add(
            f"  node {node['label']:<10} {node['kind']:<13}"
            f" rate={node['service_rate']:g}tps queue={node['queue_capacity']}"
            f" fail_after={node['failure_threshold_s']:g}s"
        )
    for link in report.config.get("links", []):
        guard = "protected" if link["protected"] else "unprotected"
        add(
            f"  link {link['a']} <-> {link['b']}"
            f" latency={link['latency_ms']:g}ms loss={link['loss_probability']:g} {guard}"
        )
    add("")
    add("-- attacks --")
    if not report.attacks:
        add("  (none)")
    for i, attack in enumerate(report.attacks):
        add(f"  [{i}] {attack['kind']}")
        for key, value in sorted(attack["result"].items()):
            add(f"        {key} = {_text_value(value)}")
    add("")
    add("-- findings --")
    if not report.findings:
        add("  no findings: every attack stayed below its reporting thresholds")
    else:
        by_cell: dict[str, list[dict]] = {}
        for finding in report.findings:
            tax = finding.get("taxonomy") or {}
            cell = "/".join(
                (tax.get("origin", "?"), tax.get("technique", "?"), tax.get("impact", "?"))
            )
            by_cell.setdefault(cell, []).append(finding)
        for cell in sorted(by_cell):
            add(f"  [{cell}]")
            for finding in by_cell[cell]:
                add(
                    f"    #{finding['id']} {finding['attack_kind']}"
                    f" severity={finding['severity']}"
                )
                for key, value in sorted(finding["evidence"].items()):
                    add(f"        {key}: {_text_value(value)}")
    add("")
    add("-- simulation --")
    for key, value in sorted(report.stats.items()):
        add(f"  {key} = {value}")
    add("")
    return "\n".join(lines)


@dataclass
class CampaignRun:
    lab: Lab
    report: Report
    findings: list[Finding]
    results: list[object]
    out_dir: Path  # where report.json, report.txt and the captures were written


def build_lab(config: CampaignConfig) -> Lab:
    return Lab.build(config)


def _derived_seed(campaign_seed: int, attack_index: int) -> int:
    """The seed an attack uses when its config section sets none."""
    return (campaign_seed * 1_000_003 + attack_index + 1) % 2**64


def run_campaign(config: CampaignConfig, *, out_dir: Optional[str] = None) -> CampaignRun:
    """Execute every attack in order on a fresh lab, assemble the report and
    write it, with its captures, to `out_dir` (the config's output by default).

    A finished run that breaks a conservation identity (`broken_identities`)
    raises a CampaignError naming each broken one, and nothing is written."""
    if out_dir == "":  # an empty path would write the report into the working directory
        raise CampaignError("the output directory must be a non-empty path")
    try:
        lab = build_lab(config)
        lab.bring_links_open()
    except (LabError, ValueError) as exc:
        raise CampaignError(f"campaign setup failed: {exc}") from exc

    findings: list[Finding] = []
    results: list[object] = []
    attack_dicts: list[dict] = []
    captures: list[tuple[int, list[CaptureRecord]]] = []
    for index, spec in enumerate(config.attacks):
        run_attack = ATTACK_KINDS[spec.kind].run
        result, new_findings, records = run_attack(lab, spec, _derived_seed(config.seed, index))
        if records is not None:
            captures.append((index, records))
        results.append(result)
        findings.extend(new_findings)
        attack_dicts.append({"kind": spec.kind, "result": to_json(result)})

    broken = broken_identities(lab, results)
    if broken:
        raise CampaignError("conservation broken: " + "; ".join(broken))

    for i, finding in enumerate(findings, start=1):
        finding.id = i

    stats = lab.sim.stats
    report = Report(
        tool_version=TOOL_VERSION,
        phase=config.phase,
        seed=config.seed,
        config=config.echo_dict(),
        attacks=attack_dicts,
        findings=[to_json(f) for f in findings],
        stats={
            "events_processed": stats.events_processed,
            "messages_delivered": stats.delivered,
            "messages_lost": stats.lost,
            "sends": stats.sends,
            "clock_end_us": lab.sim.clock,
        },
    )

    out = Path(config.output_path if out_dir is None else out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(render_report(report, "json"))
    (out / "report.txt").write_text(render_report(report, "text"))
    for index, records in captures:
        write_capture(out / f"intercept-{index}.dcap", records)
    return CampaignRun(lab=lab, report=report, findings=findings, results=results, out_dir=out)
