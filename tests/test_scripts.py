"""Smoke runs of the scripts under scripts/ and of perfbench/run.py: each
exits 0 and prints what it promises."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, folder: str = "scripts") -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / folder / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_overload_sweep_prints_one_row_per_rate():
    out = run_script("overload_sweep.py", "--duration", "0.2")
    rows = [line.split() for line in out.splitlines()[2:] if line.strip()]
    assert len(rows) == 9
    for rate, offered, answered, dropped, _fluid, _delta, events, pushes, host_us in rows:
        assert int(offered) == round(float(rate) * 0.2)
        assert int(offered) == int(answered) + int(dropped)
        # A request is at least its send timer, its delivery and, if it is
        # answered, the answer's delivery: a dropped one costs two events.
        least = 3 if dropped == "0" else 2
        assert float(events) >= least and float(pushes) >= least
        assert float(host_us) > 0


def test_codec_bench_json_has_every_operation():
    out = run_script("codec_bench.py", "--repeat", "1", "--number", "10", "--json")
    results = json.loads(out)
    operations = {
        "build_message",
        "encode_message",
        "decode_message",
        "validate_message",
        "replace_ids",
        "stamp_ids",
    }
    assert set(results) == {"echo", "cer"}
    for per_message in results.values():
        assert set(per_message) == operations
        for rates in per_message.values():
            assert rates["min"] <= rates["median"] <= rates["max"]
            assert rates["min"] > 0


def test_codec_bench_against_a_checkout_compares_every_operation():
    out = run_script(
        "codec_bench.py", "--against", str(ROOT), "--repeat", "2", "--number", "10", "--json"
    )
    results = json.loads(out)
    assert set(results) == {"echo", "cer"}
    for per_message in results.values():
        assert len(per_message) == 6
        for r in per_message.values():
            assert set(r) == {"this", "against", "ratio"}
            assert min(r.values()) > 0


def test_bench_record_writes_every_workload(tmp_path):
    out = run_script(
        "bench_record.py", "8", "smoke", "--smoke", "--seconds", "1", "--out-dir", str(tmp_path)
    )
    path = tmp_path / "BENCH_08_smoke.json"
    assert out.strip() == str(path)
    record = json.loads(path.read_text())
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert [(r["workload"], r["trace"]) for r in record["perfbench"]] == [
        (w, t) for w in workloads for t in (0, 1)
    ]
    assert set(workloads) == {"phase1", "phase2", "flood-overload"}
    assert all(r["result"]["correct"] for r in record["perfbench"])
    assert record["machine"].startswith("machine: ") and record["git_rev"]
    assert set(record["codec_bench"]) == {"echo", "cer"}
    assert record["golden_checked"] == {}  # smoke sizes have no golden digests
    # phase1 is the only workload with a fuzz, and only untraced runs time it
    fuzz = {(r["workload"], r["trace"]): r.get("fuzz_cases_per_s") for r in record["perfbench"]}
    rate = fuzz.pop(("phase1", 0))
    assert set(fuzz.values()) == {None}
    assert set(rate) == {"median", "q1", "q3", "n"}
    assert 0 < rate["q1"] <= rate["median"] <= rate["q3"] and rate["n"] >= 3


def test_perfbench_traces_every_target_diamlab_defines():
    # A traced function that diamlab renames would read 0 in its per-layer
    # metric; run.py names each target it cannot find. Only the stale
    # `peer.correlate_answer` target may be missing.
    out = run_script(
        "run.py", "--workload", "phase1", "--smoke", "--seconds", "1", "--trace", "1",
        folder="perfbench",
    )
    prefix = "not traced, diamlab no longer defines it:"
    missing = [line.split(prefix)[1].strip() for line in out.splitlines() if prefix in line]
    assert missing == ["peer.correlate_answer"]
