"""Smoke runs of the scripts under scripts/ and of perfbench/run.py: each
exits 0 and prints what it promises."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diamlab.codec import Avp, Message
from diamlab.peer import PendingRequest

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


@pytest.mark.parametrize("name", ["bench_record.py", "codec_bench.py", "overload_sweep.py"])
def test_usage_line_runs_as_written_from_the_repo_root(name):
    # The docstring's usage line, with its environment settings and no
    # other PYTHONPATH, finds everything the script imports.
    words = (ROOT / "scripts" / name).read_text().split("Usage:", 1)[1].split()
    python = words.index(f"scripts/{name}") - 1
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(word.split("=", 1) for word in words[:python])
    proc = subprocess.run(
        [sys.executable, f"scripts/{name}", "--help"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_overload_sweep_prints_one_row_per_rate():
    out = run_script("overload_sweep.py", "--duration", "0.2")
    rows = [line.split() for line in out.splitlines()[2:] if line.strip()]
    assert len(rows) == 9
    for rate, offered, answered, dropped, _fluid, _delta, events, scheduled, host_us in rows:
        assert int(offered) == round(float(rate) * 0.2)
        assert int(offered) == int(answered) + int(dropped)
        # A request is at least its send timer, its delivery and, if it is
        # answered, the answer's delivery: a dropped one costs two events.
        least = 3 if dropped == "0" else 2
        assert float(events) >= least and float(scheduled) >= least
        assert float(host_us) > 0


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_overload_sweep_bytecodes_adds_a_column_and_a_table_by_module():
    out = run_script("overload_sweep.py", "--duration", "0.02", "--bytecodes")
    sweep, by_module = out.split("\n\n")
    rows = [line.split() for line in sweep.splitlines()[2:]]
    assert len(rows) == 9 and all(len(row) == 10 and float(row[-1]) > 0 for row in rows)
    title, header, *module_rows = by_module.splitlines()
    assert title.startswith("bytecodes per offered request by module")
    assert {"attacks", "codec", "elements", "peer", "simnet"} <= set(header.split()[1:])
    assert [row.split()[0] for row in module_rows] == [row[0] for row in rows]


def test_bytecode_counts_are_the_same_in_two_runs_in_one_process():
    sweep = load_script("overload_sweep.py")
    first, second = (sweep.flood_bytecodes(1000, 100, 1, 2000, 0.05) for _ in range(2))
    assert first == second
    offered, counts = first
    assert offered == 100
    assert {"attacks", "codec", "elements", "peer", "simnet"} <= set(counts)
    # a generated constructor is filed under its class's module
    for cls, module in ((Avp, "codec"), (Message, "codec"), (PendingRequest, "peer")):
        assert sweep.module_of(cls.__new__.__code__.co_filename) == module


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
        "bench_record.py", "8", "smoke", "--smoke", "--seconds", "1", "--out-dir", str(tmp_path),
        "--against", str(ROOT),
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
    compared = [r for per_message in record["codec_against"].values() for r in per_message.values()]
    assert len(compared) == 12
    for r in compared:
        assert set(r) == {"this", "against", "ratio"} and min(r.values()) > 0
    assert record["golden_checked"] == {}  # smoke sizes have no golden digests
    # phase1 is the only workload with a fuzz, and only untraced runs time it
    fuzz = {(r["workload"], r["trace"]): r.get("fuzz_cases_per_s") for r in record["perfbench"]}
    rate = fuzz.pop(("phase1", 0))
    assert set(fuzz.values()) == {None}
    assert set(rate) == {"median", "q1", "q3", "n"}
    assert 0 < rate["q1"] <= rate["median"] <= rate["q3"] and rate["n"] >= 3


def test_a_failing_hypothesis_test_is_reported_under_the_repo_warning_filters(tmp_path):
    # Formatting a failing @given test imports modules that warn on import;
    # under filterwarnings = error a warning there would end the session
    # with an INTERNALERROR and run no test after it.
    (tmp_path / "test_sample.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]


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
