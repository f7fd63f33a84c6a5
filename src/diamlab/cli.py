"""Command line front end.

Subcommands:
    run     execute a campaign from a config file or built-in name
    phases  list the built-in labs
    decode  dump a hex message or a DCAP capture file
    report  re-render a report.json

Exit codes: run exits 0 on a clean run with no findings, 2 when findings
are present; decode exits 0 when the message or capture was read. Every
command exits 1 on an error (including a --hex message that does not
parse) and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dictionary as dct
from .attacks import as_text
from .campaign import CampaignError, Report, render_report, run_campaign
from .capture import CaptureFormatError, read_capture
from .codec import Message, ParseError, decode_message, validate_message
from .config import BUILTIN_CONFIGS, ConfigError, load_config, parse_campaign_config


def _flag_string(header) -> str:
    flags = [
        ("R", header.request),
        ("P", header.proxiable),
        ("E", header.error),
        ("T", header.retransmit),
    ]
    return "".join(name for name, on in flags if on) or "-"


def format_message(msg: Message, length: int) -> str:
    """`msg`, decoded from `length` bytes, one line per header and AVP."""
    h = msg.header
    cmd_name = dct.COMMAND_NAMES.get(h.command_code, "?")
    lines = [
        f"message command={h.command_code} ({cmd_name}) flags={_flag_string(h)}"
        f" app={h.application_id} hop_by_hop=0x{h.hop_by_hop_id:08x}"
        f" end_to_end=0x{h.end_to_end_id:08x} length={length}"
    ]
    for avp in msg.avps:
        entry = dct.BUILTIN_DICTIONARY.lookup(avp.code, avp.vendor_id)
        name = entry.name if entry else "unknown"
        flagbits = "".join(
            b for b, on in (("V", avp.vendor_id is not None), ("M", avp.mandatory), ("P", avp.protected)) if on
        ) or "-"
        vendor = f" vendor={avp.vendor_id}" if avp.vendor_id is not None else ""
        text = as_text(avp.data)
        shown = avp.data.hex() if text is None else repr(text)
        lines.append(
            f"  avp code={avp.code} ({name}) flags={flagbits}{vendor}"
            f" len={avp.wire_length} data={shown}"
        )
    violations = validate_message(msg, dct.BUILTIN_DICTIONARY)
    for v in violations:
        lines.append(f"  violation {v.kind.value} avp_code={v.avp_code} index={v.avp_index}")
    return "\n".join(lines)


def _cmd_run(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    run = run_campaign(config, out_dir=args.out)
    sys.stdout.write(render_report(run.report, args.format))
    if args.format == "text":  # JSON on stdout is exactly report.json
        sys.stdout.write(f"\nwrote report.json, report.txt to {run.out_dir}\n")
    return 2 if run.findings else 0


def _cmd_phases(_args) -> int:
    for name, text in BUILTIN_CONFIGS.items():
        config = parse_campaign_config(text, source=name)
        kinds = ", ".join(f"{label}={kind.value}" for label, kind in config.kinds.items())
        attacks = ", ".join(a.kind for a in config.attacks)
        print(f"{name}: {len(config.topology.nodes)} nodes ({kinds}); attacks: {attacks}")
    return 0


def _cmd_decode(args) -> int:
    if args.hex is not None:
        try:
            data = bytes.fromhex(args.hex.replace(" ", "").replace(":", ""))
        except ValueError:
            print("error: --hex is not valid hexadecimal", file=sys.stderr)
            return 1
        msg = decode_message(data)
        if isinstance(msg, ParseError):
            print(f"parse error: {msg.kind.value} at byte offset {msg.offset}", file=sys.stderr)
            return 1
        print(format_message(msg, len(data)))
        return 0
    try:
        records = read_capture(args.capture)
    except (OSError, CaptureFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for i, rec in enumerate(records):
        print(f"record {i} at={rec.at}us {rec.src.label} -> {rec.dst.label} ({len(rec.data)} bytes)")
        msg = decode_message(rec.data)
        if isinstance(msg, ParseError):
            print(f"  parse error: {msg.kind.value} at byte offset {msg.offset}")
        else:
            for line in format_message(msg, len(rec.data)).splitlines():
                print(f"  {line}")
    return 0


def _cmd_report(args) -> int:
    with open(args.input) as fh:
        try:
            # JSONDecodeError is a ValueError, RecursionError comes from nesting too deep
            # to parse or render; the rest come from mistyped nested values
            text = render_report(Report.from_dict(json.load(fh)), args.format)
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            print(f"error: {args.input} is not a campaign report: {exc}", file=sys.stderr)
            return 1
    sys.stdout.write(text)
    return 0


def _non_empty(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamlab", description="Diameter signaling security testbed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a campaign")
    run_p.add_argument("--config", required=True, help="config file path or built-in name")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument(
        "--out", type=_non_empty, default=None, help="override the output directory"
    )
    run_p.add_argument(
        "--format", choices=("text", "json"), default="text", help="stdout report format"
    )
    run_p.set_defaults(func=_cmd_run)

    phases_p = sub.add_parser("phases", help="list built-in labs")
    phases_p.set_defaults(func=_cmd_phases)

    decode_p = sub.add_parser("decode", help="decode hex bytes or a DCAP capture")
    group = decode_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--hex", help="message bytes as hexadecimal")
    group.add_argument("--capture", help="path to a .dcap file")
    decode_p.set_defaults(func=_cmd_decode)

    report_p = sub.add_parser("report", help="re-render a report.json")
    report_p.add_argument("--input", required=True, help="path to report.json")
    report_p.add_argument("--format", choices=("text", "json"), default="text")
    report_p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CampaignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
