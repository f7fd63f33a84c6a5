#!/usr/bin/env python3
"""Record one benchmark run of a checkout to BENCH_<nn>_<label>.json.

Runs, each as a subprocess of the checkout under --root:
- perfbench/run.py for every workload in BENCHMARK.json, untraced and
  traced, the same commands `perfbench/run.py --all` runs (`--all` prints
  tables, not the JSON result lines this file keeps);
- scripts/codec_bench.py --json, and with --against CHECKOUT also
  scripts/codec_bench.py --json --against CHECKOUT, which times both
  checkouts' codecs alternately in one process;
- the overload_sweep.py next to this file, with --bytecodes --adaptive
  --json, on the checkout's source: one counter for every checkout
  recorded, so two records compare their bytecodes per request by module
  exactly, and list the instructions each leaves in adaptive form.

The file holds the machine line and git rev perfbench printed, every JSON
result line, the fuzz_cases_per_s line (median, q1, q3, n) of each
untraced run that has a fuzz, the codec numbers (and, under
codec_against, the ratio of each operation's ops/s over CHECKOUT's), the
sweep under bytecodes (its adaptive listings under bytecodes.adaptive),
and the golden digests from perfbench/golden.json
of each workload whose run checked them (full sizes at the default seed;
--smoke checks determinism only). It only measures: a failed check is recorded in the results, not
acted on. Host times move with the machine and its load, so record the
two checkouts being compared on the same machine, one after the other.

Usage:
    python3 scripts/bench_record.py NN LABEL [--seconds 30] [--smoke]
        [--root CHECKOUT] [--out-dir DIR] [--against CHECKOUT]

For example, the parent and the change of one perf change:
    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
    python3 scripts/bench_record.py 8 parent --root /tmp/parent
    python3 scripts/bench_record.py 8 change --against /tmp/parent
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP = Path(__file__).resolve().parent / "overload_sweep.py"
TIMEOUT_S = 600


def run(cmd: list[str], root: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
    )


def last_json(stdout: str):
    """The JSON value on the last line of `stdout`, or None."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def quartiles(line: str) -> dict:
    """median, q1, q3 and n of a perfbench line `name median M unit q1 A q3 B n=N`."""
    _name, _, median, _unit, _, q1, _, q3, n = line.split()
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": int(n[2:])}


def codec_json(root: Path, smoke: bool, *args: str):
    """scripts/codec_bench.py --json's result for `root`, or None."""
    cmd = [sys.executable, "scripts/codec_bench.py", "--json", *args]
    if smoke:
        cmd += ["--repeat", "1", "--number", "100"]
    try:
        return json.loads(run(cmd, root).stdout)
    except json.JSONDecodeError:
        return None


def record(root: Path, seconds: int, smoke: bool, against: Path | None) -> tuple[dict, bool]:
    """(the record, whether every subprocess gave a result)."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    golden = json.loads((root / "perfbench" / "golden.json").read_text())
    complete = True
    machine = None
    runs = []
    checked = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seconds", str(seconds), "--trace", str(trace)]
            if smoke:
                cmd.append("--smoke")
            proc = run(cmd, root)
            result = last_json(proc.stdout)
            entry = {"workload": workload, "trace": trace, "exit": proc.returncode,
                     "result": result}
            if result is None:
                complete = False
                entry["stderr"] = proc.stderr[-2000:]
            runs.append(entry)
            for line in proc.stdout.splitlines():
                if line.startswith("machine: "):
                    machine = machine or line
                elif line.startswith(f"workload={workload} ") and "golden=checked" in line:
                    checked[workload] = golden[workload]
                elif line.lstrip().startswith("fuzz_cases_per_s "):
                    entry["fuzz_cases_per_s"] = quartiles(line)
            print(f"{workload} trace={trace}: exit {proc.returncode}"
                  f" correct={result and result['correct']}", file=sys.stderr)
    git_rev = machine.rpartition("git_rev=")[2] if machine else None
    data = {
        "machine": machine,
        "git_rev": git_rev,
        "seconds": seconds,
        "smoke": smoke,
        "perfbench": runs,
        "codec_bench": codec_json(root, smoke),
        "golden_checked": checked,
    }
    sweep = [sys.executable, str(SWEEP), "--bytecodes", "--adaptive", "--json",
             "--duration", "0.02" if smoke else "0.5"]
    data["bytecodes"] = last_json(run(sweep, root).stdout)
    complete = complete and data["codec_bench"] is not None and data["bytecodes"] is not None
    if against is not None:
        data["codec_against"] = codec_json(root, smoke, "--against", str(against))
        complete = complete and data["codec_against"] is not None
    return data, complete


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("nn", type=int, help="sequence number of the change, for the file name")
    parser.add_argument("label", help="what was measured, e.g. parent or change")
    parser.add_argument("--seconds", type=int, default=30, help="passed to perfbench/run.py")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    parser.add_argument("--root", type=Path, default=ROOT, help="the checkout to measure")
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="where the file goes")
    parser.add_argument(
        "--against", type=Path, metavar="CHECKOUT",
        help="also time the codec against CHECKOUT's, in one process",
    )
    args = parser.parse_args()

    against = args.against.resolve() if args.against is not None else None
    data, complete = record(args.root.resolve(), args.seconds, args.smoke, against)
    path = args.out_dir / f"BENCH_{args.nn:02d}_{args.label}.json"
    path.write_text(json.dumps({"label": args.label, **data}, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0 if complete else 1


if __name__ == "__main__":
    raise SystemExit(main())
