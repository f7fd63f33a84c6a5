"""Smoke runs of the scripts under scripts/ and of perfbench/run.py: each
exits 0 and prints what it promises."""

import dis
import importlib
import json
import multiprocessing
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from diamlab.attacks import FloodSpec, run_flood
from diamlab.codec import Avp, Message, ParseError
from diamlab.peer import PeerAction

from tests.labs import duo_lab_text, make_lab

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


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
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
    # Imported by name, with scripts/ on sys.path, so that the processes a
    # script spawns import it too.
    if str(ROOT / "scripts") not in sys.path:
        sys.path.insert(0, str(ROOT / "scripts"))
    return importlib.import_module(name.removesuffix(".py"))


@pytest.fixture(scope="module")
def bytecode_sweep_text() -> str:
    return run_script("overload_sweep.py", "--duration", "0.02", "--bytecodes")


@pytest.fixture(scope="module")
def bytecode_sweep() -> dict:
    out = run_script("overload_sweep.py", "--duration", "0.02", "--bytecodes", "--json")
    return json.loads(out)


def test_overload_sweep_bytecodes_adds_a_column_and_a_table_by_module(bytecode_sweep_text):
    # the listings come last (test_overload_sweep_bytecodes_lists_the_1x_and_4x_rows_and_the_fuzz)
    sweep, by_module, by_function, *_ = bytecode_sweep_text.split("\n\n")
    rows = [line.split() for line in sweep.splitlines()[2:]]
    # the bytecodes column, then the calls column
    assert len(rows) == 9 and all(len(row) == 11 and float(row[-2]) > 0 for row in rows)
    assert all(float(row[-1]) > 0 for row in rows)
    title, header, *module_rows = by_module.splitlines()
    assert title.startswith("bytecodes per offered request by module")
    assert "phase1's fuzz (1000 cases)" in title and "setup of phase2" in title
    *modules, calls = header.split()[1:]
    assert {"attacks", "codec", "config", "elements", "peer", "simnet"} <= set(modules)
    assert modules[-1] == "total" and calls == "calls"
    labels = [row[0] for row in rows] + ["fuzz", "setup"]
    assert [row.split()[0] for row in module_rows] == labels
    for row, table_row in zip(rows, module_rows):
        # the total and the calls are the columns' values
        assert table_row.split()[-2:] == row[-2:]
    for fuzz_or_setup in module_rows[-2:]:
        *per_module, total, calls = map(float, fuzz_or_setup.split()[1:])
        assert calls > 0
        assert total == pytest.approx(sum(per_module), abs=0.1 * len(per_module))
    # the table by function: a line per module.function, a column per row
    # of the table by module (the JSON test checks that they add up)
    title, header, *function_rows = by_function.splitlines()
    assert title.startswith("bytecodes per offered request by function")
    assert header.split()[1:] == [row.split()[0] for row in module_rows]
    for line in function_rows:
        name, *counts = line.split()
        assert name.split(".")[0] in modules and len(counts) == len(module_rows)


def assert_functions_sum_to_their_module(by_function: dict, by_module: dict) -> None:
    assert set(by_function) == set(by_module)
    for module, functions in by_function.items():
        assert functions and min(functions.values()) > 0
        assert sum(functions.values()) == pytest.approx(by_module[module])


def test_overload_sweep_json_holds_the_rows_and_the_fuzz_row(bytecode_sweep):
    out = bytecode_sweep
    assert out["python"] == sys.version.split()[0]
    assert len(out["rows"]) == 9
    for row in out["rows"]:
        assert row["offered"] == row["answered"] + row["dropped"]
        per_req = row["bytecodes_per_req"]
        assert {"attacks", "codec", "elements", "peer", "simnet"} <= set(per_req)
        assert per_req.pop("total") == pytest.approx(sum(per_req.values()))
        assert_functions_sum_to_their_module(row["bytecodes_by_function"], per_req)
        assert row["calls_per_req"] > 0
    fuzz = out["fuzz"]
    assert fuzz["cases"] == 1000
    assert fuzz["bytecodes_per_case"]["total"] > 0 and fuzz["calls_per_case"] > 0
    per_case = dict(fuzz["bytecodes_per_case"])
    del per_case["total"]
    assert_functions_sum_to_their_module(fuzz["bytecodes_by_function"], per_case)
    setup = out["setup"]
    per_setup = dict(setup["bytecodes"])
    assert per_setup.pop("total") == pytest.approx(sum(per_setup.values()))
    assert {"config", "elements", "peer", "simnet"} <= set(per_setup) and setup["calls"] > 0
    assert_functions_sum_to_their_module(setup["bytecodes_by_function"], per_setup)
    # without --bytecodes, no bytecode column and no fuzz or setup row
    plain = json.loads(run_script("overload_sweep.py", "--duration", "0.02", "--json"))
    assert "fuzz" not in plain and "setup" not in plain
    assert all("bytecodes_per_req" not in r and "calls_per_req" not in r for r in plain["rows"])


def counts_of(measured: dict) -> tuple:
    """What overload_sweep.measure counted: its listing, which depends on the
    code run before it in the process, left out."""
    return measured["n"], measured["counts"], measured["calls"]


def test_bytecode_counts_are_the_same_in_two_runs_in_one_process():
    sweep = load_script("overload_sweep.py")
    flood = partial(sweep.flood_run, 1000, 100, 1, 2000, 0.05)
    first, second = (sweep.measure(flood) for _ in range(2))
    assert counts_of(first) == counts_of(second)
    counts = first["counts"]
    assert first["n"] == 100 and first["calls"] > 100
    assert {"attacks", "codec", "elements", "peer", "simnet"} <= {m for m, _ in counts}
    # a generated constructor is filed under its class's module
    for cls, module in ((Avp, "codec"), (Message, "codec"), (ParseError, "codec"),
                        (PeerAction, "peer")):
        assert sweep.module_of(cls.__new__.__code__.co_filename) == module
    first, second = sweep.measure(sweep.fuzz_run), sweep.measure(sweep.fuzz_run)
    assert counts_of(first) == counts_of(second)
    counts = first["counts"]
    assert first["n"] == 1000 and first["calls"] > 1000
    assert {"attacks", "codec", "elements", "peer", "simnet"} <= {m for m, _ in counts}
    # a dataclass method compiled from a string is named by its class, and
    # a generated constructor by its own
    assert {("<string>", "PeerEvent.__init__"), ("codec", "ParseError.__new__")} <= set(counts)
    first, second = sweep.measure(sweep.setup_run), sweep.measure(sweep.setup_run)
    assert counts_of(first) == counts_of(second)
    assert first["calls"] > 0 and ("peer", "PeerState.__new__") in first["counts"]


# Exact bytecodes executed in diamlab's code, each counted after one warm
# run (overload_sweep.measure of flood_run, fuzz_run and setup_run), in
# total and by module, and the calls of its Python functions: the sweep
# lab's 0.5 s floods at 1x and 4x its capacity (1,000 TPS, queue 100; 500
# and 2,000 requests), phase1's fuzz (1,000 cases) and one setup of phase2
# (load_config, Lab.build and bring_links_open).
# The compiler's output differs between interpreter versions, so each
# version has its own pins. A change that moves a count re-pins it and
# says why.
BYTECODE_PINS = {
    (3, 11): {
        "1x": {
            "total": 367_254, "<string>": 44, "attacks": 48_306, "codec": 58_793,
            "elements": 133_823, "peer": 10_500, "simnet": 115_788, "calls": 7_541,
        },
        "4x": {
            "total": 1_112_421, "<string>": 92, "attacks": 153_159, "codec": 141_893,
            "elements": 387_491, "peer": 42_000, "simnet": 387_786, "calls": 21_444,
        },
        "fuzz": {
            "total": 1_510_983, "<string>": 10_816, "attacks": 243_655, "codec": 505_142,
            "elements": 276_631, "peer": 68_956, "simnet": 405_783, "calls": 32_974,
        },
        "setup": {
            "total": 17_905, "<string>": 1_782, "attacks": 64, "campaign": 6, "codec": 1_629,
            "config": 7_120, "elements": 3_847, "peer": 1_527, "simnet": 1_930, "calls": 432,
        },
    },
}


def test_bytecode_totals_are_pinned():
    sweep = load_script("overload_sweep.py")
    builds = {
        "1x": partial(sweep.flood_run, 1000, 100, 1, 1000, 0.5),
        "4x": partial(sweep.flood_run, 1000, 100, 1, 4000, 0.5),
        "fuzz": sweep.fuzz_run,
        "setup": sweep.setup_run,
    }
    # per_unit of one unit: the counts themselves, by module and in total
    counted = {}
    for label, build in builds.items():
        measured = sweep.measure(build)
        counted[label] = {key: int(n) for key, n in sweep.per_unit(measured["counts"], 1).items()}
        counted[label]["calls"] = measured["calls"]
    version = sys.version_info[:2]
    if version not in BYTECODE_PINS:
        pytest.fail(
            f"no bytecode pins for Python {version[0]}.{version[1]}:"
            f" pin BYTECODE_PINS[{version}] = {counted}"
        )
    assert counted == BYTECODE_PINS[version]


def test_overload_sweep_bytecodes_lists_the_1x_and_4x_rows_and_the_fuzz(
    bytecode_sweep, bytecode_sweep_text
):
    listings = bytecode_sweep["adaptive"]
    assert list(listings) == ["1x", "4x", "fuzz"]
    assert [listings[r]["n"] for r in ("1x", "4x")] == [20, 80]
    assert listings["fuzz"]["n"] == 1000
    for listing in listings.values():
        sites = listing["sites"]
        assert sites and listing["total"] == pytest.approx(sum(s["per_unit"] for s in sites))
        for site in sites:
            assert set(site) == {"module", "function", "line", "offset", "opname", "per_unit"}
            assert site["opname"].endswith("_ADAPTIVE") and site["per_unit"] > 0
        assert [s["per_unit"] for s in sites] == sorted((s["per_unit"] for s in sites), reverse=True)
    assert all(f"\n{label}: " in bytecode_sweep_text for label in ("1x", "4x", "fuzz"))


def test_a_rows_listing_is_the_same_alone_and_inside_the_sweep(bytecode_sweep):
    # Each row is measured in an interpreter of its own, so no row's listing
    # depends on the rows measured before it.
    sweep = load_script("overload_sweep.py")
    alone = sweep.in_fresh_interpreters(
        sweep.measure, [partial(sweep.flood_run, 1000, 100, 1, 1000.0, 0.02)]
    )
    assert multiprocessing.active_children() == []
    assert alone[0]["adaptive"] == bytecode_sweep["adaptive"]["1x"]


# What CPython 3.11's specializer (PEP 659) leaves adaptive depends on its
# rules, so, as BYTECODE_PINS, these hold for the versions keyed here: the
# modules of which no site of the 1x and 4x rows stays adaptive, but for
# the sites named beside them.
SPECIALIZED_MODULES = {
    (3, 11): (
        {"elements", "simnet"},
        # a division, which 3.11 never specializes, run once per flood for its horizon
        {("elements", "ElementCapacity.drain_us", "BINARY_OP_ADAPTIVE")},
    ),
}


def specialized_modules():
    version = sys.version_info[:2]
    if version not in SPECIALIZED_MODULES:
        pytest.skip(f"no specializer expectations for Python {version[0]}.{version[1]}")
    return SPECIALIZED_MODULES[version]


def test_every_per_request_site_of_elements_and_simnet_specializes():
    # Every element is one class with one layout of attributes, so a site
    # that the attack box and the target both run sees one type, and every
    # compare of the token bucket is of ints below 2**30. At 2 s, before,
    # `run_until`'s `handler.on_message` (2.00 per request at 1x) and the
    # admission compare of `admit` (1.00 at 1x) and `_drain` (0.26 at 4x)
    # stayed adaptive.
    modules, exempt = specialized_modules()
    sweep = load_script("overload_sweep.py")
    rows = sweep.in_fresh_interpreters(
        sweep.measure, [partial(sweep.flood_run, 1000, 100, 1, r, 2.0) for r in (1000.0, 4000.0)]
    )
    assert multiprocessing.active_children() == []
    for row in rows:
        left = {
            (s["module"], s["function"], s["opname"])
            for s in row["adaptive"]["sites"] if s["module"] in modules
        }
        assert left <= exempt, left


def test_the_fuzz_leaves_no_sampler_site_and_no_read_of_on_message_adaptive(bytecode_sweep):
    # The sampler compares an int streak with an int limit and schedules a
    # timer bound once; `on_message` reads its element's attributes and
    # methods on one class; a case that times out pops its one pending
    # entry. Before, the fuzz left 2.51 + 2.51 adaptive instructions per
    # case in `_sample`, 1.49 in `on_message`, and 5 x 0.626 in
    # `forget_pending_many` (its `pending.pop` read and the PRECALL/CALL
    # pairs of `map` and `sum`).
    specialized_modules()
    sites = bytecode_sweep["adaptive"]["fuzz"]["sites"]
    assert [s for s in sites if s["function"] == "Element._sample"] == []
    assert [s for s in sites if s["function"] == "Element.forget_pending_many"] == []
    reads = ("LOAD_ATTR_ADAPTIVE", "LOAD_METHOD_ADAPTIVE")
    assert [
        s for s in sites if s["function"] == "Element.on_message" and s["opname"] in reads
    ] == []


def test_every_listed_site_is_in_adaptive_form_at_its_offset():
    sweep = load_script("overload_sweep.py")
    _, traced = sweep.flood_run(1000, 100, 1, 1000, 0.2)
    executed = sweep.count_executions(traced)
    sweep.flood_run(1000, 100, 1, 1000, 0.2)[1]()
    listing = sweep.adaptive_sites(executed, 200)
    assert listing["sites"]
    forms = {}  # (module, function, offset) -> the opnames there, of every such code object
    for code, _ in executed.values():
        instructions = list(dis.get_instructions(code, adaptive=True))
        for previous, ins in zip([None] + instructions, instructions):
            key = (sweep.module_of(code.co_filename), sweep.function_of(code), ins.offset)
            forms.setdefault(key, []).append((previous and previous.opname, ins.opname))
    for site in listing["sites"]:
        found = forms[site["module"], site["function"], site["offset"]]
        assert any(opname == site["opname"] for _, opname in found)
        if site["opname"] == "CALL_ADAPTIVE":  # its PRECALL leaves the call to it
            assert any(p in sweep._PRECALLS_THAT_CALL for p, o in found if o == "CALL_ADAPTIVE")


def test_bytecodes_per_answered_request_stay_flat_as_requests_outstanding_grow():
    # Cost per request does not grow with the requests outstanding: about 2
    # of them with 1 ms links, all 1,000 with 1,000 ms links. The rate keeps
    # every send, delivery and answer at a microsecond of its own at both
    # latencies. Events that share a microsecond run from one list of the
    # simulation's queue, which costs fewer bytecodes per event: at 2,000
    # TPS a 1 ms link puts a send, a delivery and an answer in each list, a
    # 1,000 ms link does not during the flood's first and last seconds.
    sweep = load_script("overload_sweep.py")
    per_request = []
    for latency_ms in (1, 1000):
        text = duo_lab_text(service_rate=2500, queue_capacity=1000, latency_ms=latency_ms)
        _, lab = make_lab(text)
        spec = FloodSpec(target="target", rate_tps=1250.25, duration_s=0.8)
        results = []
        executed = sweep.count_executions(lambda: results.append(run_flood(lab, spec)))
        result = results[0][0]
        assert result.answered == result.offered == 1000
        bytecodes = sum(offsets.total() for _, offsets in executed.values())
        per_request.append(bytecodes / result.answered)
    low, high = per_request
    assert abs(high - low) < 0.01 * low


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
    # every key of a record, and no other
    assert set(record) == {
        "label", "machine", "git_rev", "source_sha256", "seconds", "smoke", "perfbench",
        "golden_checked", "bytecodes",
    }
    assert record["source_sha256"] == load_script("bench_record.py").source_digest(ROOT)
    assert record["golden_checked"] == {}  # smoke sizes have no golden digests
    # phase1 is the only workload with a fuzz, and only untraced runs time it
    fuzz = {(r["workload"], r["trace"]): r.get("fuzz_cases_per_s") for r in record["perfbench"]}
    rate = fuzz.pop(("phase1", 0))
    assert set(fuzz.values()) == {None}
    assert set(rate) == {"median", "q1", "q3", "n"}
    assert 0 < rate["q1"] <= rate["median"] <= rate["q3"] and rate["n"] >= 3
    # the bytecode sweep, counted by this checkout's overload_sweep.py
    sweep = record["bytecodes"]
    assert len(sweep["rows"]) == 9 and all("bytecodes_per_req" in r for r in sweep["rows"])
    assert sweep["fuzz"]["cases"] == 1000 and sweep["setup"]["calls"] > 0
    assert list(sweep["adaptive"]) == ["1x", "4x", "fuzz"]


def test_bench_record_digests_the_source_tree(tmp_path):
    # git_rev is read from .git/HEAD, the same for a change not yet
    # committed and its parent; the source digest tells them apart.
    digest = load_script("bench_record.py").source_digest
    trees = []
    for name in ("a", "b"):
        package = tmp_path / name / "src" / "diamlab"
        (package / "sub").mkdir(parents=True)
        (package / "elements.py").write_bytes(b"RATE = 1000\n")
        (package / "sub" / "codec.py").write_bytes(b"WIDTH = 24\n")
        (package / "notes.txt").write_bytes(name.encode())  # not source: not digested
        trees.append(tmp_path / name)
    a, b = trees
    assert digest(a) == digest(b)
    (b / "src" / "diamlab" / "elements.py").write_bytes(b"RATE = 1001\n")
    assert digest(a) != digest(b)
    # the path is digested with the bytes: a file moved is a different tree
    (b / "src" / "diamlab" / "elements.py").write_bytes(b"RATE = 1000\n")
    assert digest(a) == digest(b)
    (b / "src" / "diamlab" / "sub" / "codec.py").rename(b / "src" / "diamlab" / "codec.py")
    assert digest(a) != digest(b)


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
