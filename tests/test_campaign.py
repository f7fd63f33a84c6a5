"""Campaign layer: report round-trip, determinism, CLI."""

import contextlib
import copy
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from diamlab import attacks, elements
from diamlab import dictionary as dct
from diamlab.attacks import Finding, FloodResult, FloodSpec, Severity
from diamlab.campaign import (
    CampaignError,
    Report,
    broken_identities,
    build_lab,
    render_report,
    run_campaign,
    to_json,
)
from diamlab.capture import read_capture
from diamlab.cli import main
from diamlab.codec import Avp, Message, build_message, encode_message
from diamlab.config import (
    ATTACK_KINDS,
    MAX_TEXT_BYTES,
    ConfigError,
    load_config,
    parse_campaign_config,
)
from diamlab.elements import TargetServerElement
from diamlab.peer import result_code_avp
from diamlab.taxonomy import Impact, Origin, TaxonomyLabel, Technique

from tests.labs import core_lab_text, duo_lab_text, make_lab

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ECHO_HEX = encode_message(
    build_message(dct.CMD_ECHO, request=True, avps=[Avp(code=dct.AVP_ECHO_PAYLOAD, data=b"hi")])
).hex()
VENDOR_ECHO_HEX = encode_message(
    build_message(dct.CMD_ECHO, request=True, avps=[Avp(code=1, data=b"hi", vendor_id=10)])
).hex()


@pytest.fixture(scope="module")
def phase1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("phase1")
    return run_campaign(load_config("phase1"), out_dir=str(out))


@pytest.fixture(scope="module")
def phase2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("phase2")
    return run_campaign(load_config("phase2"), out_dir=str(out))


class TestFinding:
    def test_finding_requires_evidence(self):
        label = TaxonomyLabel(Origin.EXTERNAL_INTERCONNECT, Technique.FLOODING, Impact.AVAILABILITY)
        with pytest.raises(ValueError):
            Finding(attack_kind="flood", severity=Severity.INFO, taxonomy=label, evidence={})


class TestRunCampaign:
    def test_phase1_runs_clean(self, phase1_run):
        assert phase1_run.findings == []
        fuzz = phase1_run.report.attacks[0]["result"]
        assert fuzz["crash_cases"] == 0
        assert fuzz["case_count"] == 1000
        assert broken_identities(phase1_run.lab, phase1_run.results) == []

    def test_phase2_produces_classified_findings(self, phase2_run):
        kinds = {f["attack_kind"]: f for f in phase2_run.report.findings}
        assert set(kinds) == {"intercept", "flood"}
        assert kinds["flood"]["severity"] == "outage"
        assert kinds["flood"]["taxonomy"]["impact"] == "availability"
        assert kinds["intercept"]["taxonomy"]["impact"] == "confidentiality"
        assert [f["id"] for f in phase2_run.report.findings] == [1, 2]

    def test_output_files_written(self, phase2_run):
        out = phase2_run.out_dir
        assert (out / "report.json").exists()
        assert (out / "report.txt").exists()
        captures = sorted(out.glob("*.dcap"))
        assert len(captures) == 1  # one intercept attack in the built-in
        assert read_capture(captures[0])  # non-empty, parseable

    def test_misconfigured_lab_aborts_with_diagnostic(self, tmp_path):
        text = duo_lab_text().replace("latency_ms = 5", "latency_ms = 5\nloss = 1.0")
        config = parse_campaign_config(text)
        with pytest.raises(CampaignError, match="failed to open"):
            run_campaign(config, out_dir=str(tmp_path))

    def test_an_empty_out_dir_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # phase1's own output directory is relative
        with pytest.raises(CampaignError, match="non-empty path"):
            run_campaign(load_config("phase1"), out_dir="")
        assert list(tmp_path.iterdir()) == []

    def test_fuzz_seed_derived_from_campaign_seed(self, tmp_path):
        config = parse_campaign_config(
            duo_lab_text(seed=10) + "\n[attack fuzz]\ntarget = target\ncases = 50\n"
        )
        r1 = run_campaign(config, out_dir=str(tmp_path))
        r2 = run_campaign(config, out_dir=str(tmp_path))
        assert r1.report.attacks[0]["result"]["seed"] == r2.report.attacks[0]["result"]["seed"]

    def test_a_crashing_target_is_one_availability_finding(self, monkeypatch, tmp_path, capsys):
        def explode(self, msg, now):
            raise RuntimeError("rigged handler bug")

        monkeypatch.setattr(TargetServerElement, "handle_app_request", explode)
        config = parse_campaign_config(
            duo_lab_text() + "\n[attack fuzz]\ntarget = target\ncases = 20\n"
        )
        run = run_campaign(config, out_dir=str(tmp_path))
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["attacks"][0]["result"]["crash_cases"] == 1
        assert report["findings"] == run.report.findings == [
            {
                "id": 1,
                "attack_kind": "fuzz",
                "severity": "outage",
                "evidence": {
                    "finding_type": "crash",
                    "exception": "RuntimeError: rigged handler bug",
                    "case_index": 0,
                    "mutation_op": "shuffle_avps",
                    "case_hex": "01000014800002bc000000000000000200000002",
                },
                "taxonomy": {
                    "origin": "external_interconnect",
                    "technique": "malformed_message",
                    "impact": "availability",
                },
            }
        ]
        assert broken_identities(run.lab, run.results) == []
        capsys.readouterr()
        assert main(["report", "--input", str(tmp_path / "report.json"), "--format", "text"]) == 0
        assert capsys.readouterr().out == (tmp_path / "report.txt").read_text()


    def test_an_accepted_invalid_case_is_one_integrity_finding(self, monkeypatch, tmp_path):
        # A target that answers success to every case of 20 bytes or more,
        # ones it cannot parse included.
        on_message = TargetServerElement.on_message

        def answer_success(self, src, payload, now):
            if isinstance(payload, Message) or len(payload) < 20:
                return on_message(self, src, payload, now)
            hbh = int.from_bytes(payload[12:16], "big")
            avps = [result_code_avp(dct.RESULT_SUCCESS)]
            self.sim.send(self.sim.route(self.node, src), build_message(
                dct.CMD_ECHO, hop_by_hop_id=hbh, end_to_end_id=hbh, avps=avps
            ))

        monkeypatch.setattr(TargetServerElement, "on_message", answer_success)
        config = parse_campaign_config(
            duo_lab_text() + "\n[attack fuzz]\ntarget = target\ncases = 6\n"
        )
        run = run_campaign(config, out_dir=str(tmp_path))
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["attacks"][0]["result"]["accepted_invalid_cases"] == 1
        assert report["findings"] == run.report.findings == [
            {
                "id": 1,
                "attack_kind": "fuzz",
                "severity": "info",
                "evidence": {
                    "finding_type": "accepted-invalid",
                    "case_index": 5,
                    "mutation_op": "corrupt_version",
                    "case_hex": "6400002880000118000000000000000700000007"
                    "000001084000001461747461636b65722e6c6162",
                },
                "taxonomy": {
                    "origin": "external_interconnect",
                    "technique": "malformed_message",
                    "impact": "integrity",
                },
            }
        ]

    def test_to_json_walks_lists_tuples_and_dicts(self):
        label = TaxonomyLabel(Origin.INTERNAL, Technique.SPOOFING, Impact.INTEGRITY)
        written = {"origin": "internal", "technique": "spoofing", "impact": "integrity"}
        assert to_json({"a": [Severity.INFO, (1, (2, label))], "b": None}) == {
            "a": ["info", [1, [2, written]]],
            "b": None,
        }

    def test_a_flood_result_dict_is_its_report_entry(self, phase1_run, phase2_run):
        # perfbench digests FloodResult.to_dict(); the report writes to_json(result)
        for run in (phase1_run, phase2_run):
            [(index, flood)] = [
                (i, r) for i, r in enumerate(run.results) if isinstance(r, FloodResult)
            ]
            assert flood.to_dict() == to_json(flood) == run.report.attacks[index]["result"]


def test_every_element_keeps_at_most_29_attributes(phase1_run, phase2_run):
    # CPython 3.11 specializes reading an instance's attributes only while it
    # has at most 29 of them (README, on what the request path costs), and
    # every request reads its element's fields.
    for run in (phase1_run, phase2_run):
        counts = {label: len(vars(elem)) for label, elem in run.lab.elements.items()}
        assert max(counts.values()) <= 29, counts


class TestConservation:
    def test_phase1_campaign(self, phase1_run):
        assert broken_identities(phase1_run.lab, phase1_run.results) == []

    def test_phase2_campaign(self, phase2_run):
        assert phase2_run.lab.elements["target"].dropped_at_failure > 0
        assert broken_identities(phase2_run.lab, phase2_run.results) == []

    def test_flood_at_eight_times_capacity(self):
        _, lab = make_lab(duo_lab_text(service_rate=1000))
        result, _ = attacks.run_flood(
            lab, attacks.FloodSpec(target="target", rate_tps=8000, duration_s=1.0)
        )
        target = lab.elements["target"]
        assert target.offered >= 8000 and target.dropped_overflow > 0
        assert broken_identities(lab, [result]) == []

    @pytest.mark.parametrize(
        "name",
        ["element target", "link attacker <-> target", "fuzz target"],
    )
    def test_each_broken_identity_is_named(self, name, tmp_path):
        config = parse_campaign_config(
            duo_lab_text() + "\n[attack fuzz]\ntarget = target\ncases = 20\n"
        )
        run = run_campaign(config, out_dir=str(tmp_path))
        if name.startswith("element"):
            run.lab.elements["target"].offered += 1
        elif name.startswith("link"):
            (link,) = run.lab.sim.links.values()
            link.lost += 1
        else:
            (fuzz,) = run.results
            tally = next(iter(fuzz.tallies.values()))
            tally[next(iter(tally))] += 1
        (broken,) = broken_identities(run.lab, run.results)
        assert broken.startswith(f"{name}: ")

    @pytest.fixture
    def fail_uncounted(self, monkeypatch):
        """An Element.fail that drops the queue without counting it."""

        def fail(self, now):
            self.failed_at = now
            self.queue.clear()

        monkeypatch.setattr(elements.Element, "fail", fail)

    def test_a_campaign_that_loses_requests_raises_and_writes_nothing(
        self, fail_uncounted, tmp_path
    ):
        with pytest.raises(CampaignError, match="conservation broken: element target: offered"):
            run_campaign(load_config("phase2"), out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_the_cli_exits_1_naming_the_broken_identity(self, fail_uncounted, tmp_path, capsys):
        assert main(["run", "--config", "phase2", "--out", str(tmp_path)]) == 1
        assert "element target: offered" in capsys.readouterr().err

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        service_rate=st.sampled_from([10, 100, 1000]),
        queue_capacity=st.integers(0, 200),
        failure_threshold_s=st.sampled_from([0.5, 2, 3600]),
        loss=st.floats(0, 0.2),
        latency_ms=st.sampled_from([0, 1, 5, 40]),
        rate_tps=st.integers(10, 3000),
        duration_s=st.sampled_from([0.1, 0.5, 1]),
        cases=st.integers(1, 8),
        fuzz_first=st.booleans(),
    )
    def test_lossy_and_failing_labs_conserve(
        self, tmp_path, service_rate, queue_capacity, failure_threshold_s, loss, latency_ms,
        rate_tps, duration_s, cases, fuzz_first,
    ):
        # no built-in lab has a lossy link: this covers the identities under loss
        lab = duo_lab_text(
            service_rate=service_rate,
            queue_capacity=queue_capacity,
            failure_threshold_s=failure_threshold_s,
            latency_ms=latency_ms,
        ).replace("protected = false", f"protected = false\nloss = {loss!r}")
        flood = (
            f"[attack flood]\ntarget = target\nrate_tps = {rate_tps}\nduration_s = {duration_s}\n"
        )
        fuzz = f"[attack fuzz]\ntarget = target\ncases = {cases}\n"
        config = parse_campaign_config(lab + "\n" + (fuzz + flood if fuzz_first else flood + fuzz))
        try:
            run_campaign(config, out_dir=str(tmp_path))  # raises on a broken identity
        except CampaignError as exc:
            assume("campaign setup failed" not in str(exc))  # a CER was lost
            raise


class TestDeterminism:
    def test_phase1_reports_byte_identical(self, phase1_run, tmp_path):
        rerun = run_campaign(load_config("phase1"), out_dir=str(tmp_path / "again"))
        for filename in ("report.json", "report.txt"):
            assert (phase1_run.out_dir / filename).read_bytes() == (
                rerun.out_dir / filename
            ).read_bytes()

    def test_phase2_reports_and_captures_byte_identical(self, phase2_run, tmp_path):
        rerun = run_campaign(load_config("phase2"), out_dir=str(tmp_path / "again"))
        for filename in ("report.json", "report.txt"):
            assert (phase2_run.out_dir / filename).read_bytes() == (
                rerun.out_dir / filename
            ).read_bytes()
        caps = sorted(p.name for p in phase2_run.out_dir.glob("*.dcap"))
        assert caps == sorted(p.name for p in rerun.out_dir.glob("*.dcap"))
        for cap in caps:
            assert (phase2_run.out_dir / cap).read_bytes() == (
                rerun.out_dir / cap
            ).read_bytes()

    @pytest.mark.parametrize("phase", ["phase1", "phase2"])
    def test_every_carried_message_round_trips(
        self, phase, carry_guard, phase1_run, phase2_run, tmp_path
    ):
        run = run_campaign(load_config(phase), out_dir=str(tmp_path))
        assert carry_guard["message"] > 0
        assert run.report == {"phase1": phase1_run, "phase2": phase2_run}[phase].report

    @pytest.mark.parametrize("phase", ["phase1", "phase2"])
    def test_artifacts_identical_when_every_payload_is_bytes(
        self, phase, bytes_only, phase1_run, phase2_run, tmp_path
    ):
        """Carrying Message values instead of their bytes changes no output byte."""
        carried = {"phase1": phase1_run, "phase2": phase2_run}[phase].out_dir
        as_bytes = run_campaign(load_config(phase), out_dir=str(tmp_path / "bytes")).out_dir
        assert bytes_only["message"] > 0
        names = sorted(p.name for p in carried.iterdir())
        assert names == sorted(p.name for p in as_bytes.iterdir())
        assert ("intercept-0.dcap" in names) == (phase == "phase2")
        for name in names:
            assert (carried / name).read_bytes() == (as_bytes / name).read_bytes(), name

    def test_different_seed_changes_the_report(self, phase1_run, tmp_path):
        other = run_campaign(load_config("phase1", seed_override=99), out_dir=str(tmp_path))
        assert phase1_run.report.to_json() != other.report.to_json()

    def test_output_directory_does_not_leak_into_the_report(self, tmp_path):
        # --out says where to write, it is not an experiment parameter
        a = main(["run", "--config", "phase1", "--out", str(tmp_path / "here")])
        b = main(["run", "--config", "phase1", "--out", str(tmp_path / "there")])
        assert a == b == 0
        assert (tmp_path / "here" / "report.json").read_bytes() == (
            tmp_path / "there" / "report.json"
        ).read_bytes()


def builtin_outputs(workload: str, out_dir: Path) -> dict[str, bytes]:
    """The outputs perfbench digests for one of its workloads at the lab's
    own seed, by the names perfbench/golden.json gives them. To regenerate
    tests/golden/ after a deliberate output change, write each to
    tests/golden/<workload>/<name>."""
    config = load_config("phase1" if workload == "flood-overload" else workload)
    assert json.loads(GOLDEN.read_text())[workload]["seed"] == config.seed
    if workload == "flood-overload":
        # perfbench/run.py's flood-overload: the phase1 lab at 8x its capacity for 3 s
        lab = build_lab(config)
        lab.bring_links_open()
        result, _ = attacks.run_flood(lab, FloodSpec("target", rate_tps=8000.0, duration_s=3.0))
        return {"flood_result": json.dumps(result.to_dict(), sort_keys=True).encode()}
    run_campaign(config, out_dir=str(out_dir))
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def diff_lines(path: Path) -> list[str]:
    """The lines to diff of an output: a capture's `decode --capture`
    listing, any other file's text."""
    if path.suffix != ".dcap":
        return path.read_text().splitlines()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["decode", "--capture", str(path)]) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("name", ["phase1", "phase2", "flood-overload"])
def test_builtin_outputs_match_golden_digests(name, tmp_path):
    """Every output of a benchmark workload equals, byte for byte, its
    committed copy under tests/golden/. A mismatch shows the unified diff
    of the first file that differs."""
    outputs = builtin_outputs(name, tmp_path / "out")
    golden = {p.name: p.read_bytes() for p in sorted((GOLDEN_DIR / name).iterdir())}
    assert list(outputs) == list(golden)
    for file, data in outputs.items():
        if data != golden[file]:
            ran = tmp_path / file
            ran.write_bytes(data)
            diff = difflib.unified_diff(
                diff_lines(GOLDEN_DIR / name / file), diff_lines(ran),
                f"golden/{name}/{file}", "ran", lineterm="",
            )
            pytest.fail("\n".join(diff) or f"{file}: the bytes differ, the listings do not")


def test_golden_digests_are_the_digests_of_the_golden_files():
    """perfbench/golden.json and tests/golden/ cannot drift apart: each
    digest is the SHA-256 of the committed file of that name, and every
    committed file has a digest."""
    golden = json.loads(GOLDEN.read_text())
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(golden)
    for workload, entry in golden.items():
        files = {p.name: p.read_bytes() for p in (GOLDEN_DIR / workload).iterdir()}
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        assert digests == entry["digests"], workload


def test_phase2_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """`python -m diamlab run --config phase2` writes the golden bytes under
    PYTHONHASHSEED 0, 1 and 2: no output depends on str or bytes hashing."""
    golden = json.loads(GOLDEN.read_text())["phase2"]["digests"]
    root = GOLDEN.parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    for hash_seed in ("0", "1", "2"):
        out = tmp_path / hash_seed
        proc = subprocess.run(
            [sys.executable, "-m", "diamlab", "run", "--config", "phase2", "--out", str(out)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr  # phase2 has findings
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == golden, f"PYTHONHASHSEED={hash_seed}"


class TestReportRendering:
    def test_json_round_trip_field_for_field(self, phase2_run):
        rendered = render_report(phase2_run.report, "json")
        assert Report.from_dict(json.loads(rendered)) == phase2_run.report

    def test_text_groups_findings_by_taxonomy_cell(self, phase2_run):
        text = render_report(phase2_run.report, "text")
        assert "[external_interconnect/flooding/availability]" in text
        assert "[external_interconnect/interception/confidentiality]" in text

    def test_text_reports_no_findings_explicitly(self, phase1_run):
        text = render_report(phase1_run.report, "text")
        assert "no findings" in text

    def test_unknown_format_rejected(self, phase1_run):
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(phase1_run.report, "yaml")

    def test_tool_version_and_seed_recorded(self, phase1_run):
        assert phase1_run.report.tool_version.startswith("diamlab")
        assert phase1_run.report.seed == 1


@pytest.fixture(scope="module")
def cli_phase2_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "o2"
    code = main(["run", "--config", "phase2", "--out", str(out)])
    assert code == 2  # findings present
    return out


class TestCli:
    def test_run_phase1_exits_zero(self, tmp_path, capsys):
        code = main(["run", "--config", "phase1", "--out", str(tmp_path / "o1")])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign report" in out
        assert (tmp_path / "o1" / "report.json").exists()
        assert (tmp_path / "o1" / "report.txt").exists()

    def test_run_phase2_exits_two_on_findings(self, cli_phase2_dir):
        assert (cli_phase2_dir / "report.json").exists()

    def test_run_json_format(self, tmp_path, capsys):
        code = main(
            ["run", "--config", "phase1", "--out", str(tmp_path / "o3"), "--format", "json"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout)
        assert payload["phase"] == "phase1"
        assert stdout == (tmp_path / "o3" / "report.json").read_text()

    def test_run_text_format_ends_with_the_output_directory(self, tmp_path, capsys):
        out = tmp_path / "o4"
        assert main(["run", "--config", "phase1", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        report = (out / "report.txt").read_text()
        assert stdout == f"{report}\nwrote report.json, report.txt to {out}\n"

    def test_an_empty_out_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # phase1's own output directory is relative
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", "phase1", "--out", ""])
        assert exc.value.code == 2
        assert "argument --out: must be a non-empty path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("[campaign]\nphase = custom\n")
        code = main(["run", "--config", str(bad)])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_phases_lists_builtins(self, capsys):
        assert main(["phases"]) == 0
        out = capsys.readouterr().out
        assert "phase1" in out and "phase2" in out

    def test_decode_hex(self, capsys):
        assert main(["decode", "--hex", ECHO_HEX]) == 0
        out = capsys.readouterr().out
        assert "command=700 (echo)" in out
        assert "echo-payload" in out

    @pytest.mark.parametrize(
        "hex_, expected",
        [
            (
                ECHO_HEX,
                "message command=700 (echo) flags=R app=0 hop_by_hop=0x00000000"
                " end_to_end=0x00000000 length=32\n"
                "  avp code=2005 (echo-payload) flags=- len=10 data='hi'\n",
            ),
            (
                VENDOR_ECHO_HEX,
                "message command=700 (echo) flags=R app=0 hop_by_hop=0x00000000"
                " end_to_end=0x00000000 length=36\n"
                "  avp code=1 (unknown) flags=V vendor=10 len=14 data='hi'\n",
            ),
        ],
        ids=["echo", "vendor-avp"],
    )
    def test_decode_hex_output_is_pinned(self, hex_, expected, capsys):
        assert main(["decode", "--hex", hex_]) == 0
        assert capsys.readouterr() == (expected, "")

    def test_decode_bad_hex_input(self, capsys):
        assert main(["decode", "--hex", "zz"]) == 1

    def test_decode_parse_error_is_reported_and_exits_one(self, capsys):
        assert main(["decode", "--hex", "02" * 20]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "parse error: bad_version at byte offset 0\n")

    def test_decode_capture_file(self, cli_phase2_dir, capsys):
        cap = next(cli_phase2_dir.glob("*.dcap"))
        assert main(["decode", "--capture", str(cap)]) == 0
        out = capsys.readouterr().out
        assert "record 0" in out
        assert "location" in out

    def test_report_rerender_matches(self, cli_phase2_dir, capsys):
        code = main(
            ["report", "--input", str(cli_phase2_dir / "report.json"), "--format", "text"]
        )
        assert code == 0
        rendered = capsys.readouterr().out
        assert rendered == (cli_phase2_dir / "report.txt").read_text()

    def test_missing_report_file_exits_one(self, capsys):
        assert main(["report", "--input", "/nonexistent/report.json"]) == 1

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("[1, 2]", "expected a JSON object, got list"),
            ("3", "expected a JSON object, got int"),
            ("not json", "Expecting value"),
            ("missing-stats", "stats: missing"),
            ("attacks-int", "attacks: expected an array, got int"),
            ("seed-true", "seed: expected an integer, got bool"),
            ("nodes-of-ints", ""),  # mistyped below the top level: caught while rendering
            ("result-int", "attacks[0].result: expected an object, got int"),
            ("finding-list", "findings[0]: expected an object, got list"),
            ("finding-id-true", "findings[0].id: expected an integer, got bool"),
            ("attack-kind-missing", "attacks[1].kind: missing"),
        ],
    )
    def test_report_input_that_is_not_a_report_exits_one(
        self, content, reason, phase1_run, phase2_run, tmp_path, capsys
    ):
        good = json.loads(phase1_run.report.to_json())
        finding = json.loads(phase2_run.report.to_json())["findings"][0]
        broken = {
            "missing-stats": {k: v for k, v in good.items() if k != "stats"},
            "attacks-int": {**good, "attacks": 5},
            "seed-true": {**good, "seed": True},
            "nodes-of-ints": {**good, "config": {**good["config"], "nodes": [1]}},
            "result-int": {**good, "attacks": [{**good["attacks"][0], "result": 5}]},
            "finding-list": {**good, "findings": [[]]},
            "finding-id-true": {**good, "findings": [{**finding, "id": True}]},
            "attack-kind-missing": {**good, "attacks": [good["attacks"][0], {"result": {}}]},
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(broken[content]) if content in broken else content)
        assert main(["report", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not a campaign report: {reason}")
        assert "Traceback" not in err


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def paths(node, depth):
    """Key paths to every value at most `depth` levels into a JSON document."""
    if depth == 0 or not isinstance(node, (dict, list)):
        return
    for key in node if isinstance(node, dict) else range(len(node)):
        yield (key,)
        for rest in paths(node[key], depth - 1):
            yield (key, *rest)


def corrupted(data, doc):
    """`doc` with one to three values up to three levels deep replaced or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        *parents, key = data.draw(st.sampled_from(list(paths(doc, 3))))
        node = doc
        for parent in parents:
            node = node[parent]
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), fmt=st.sampled_from(["text", "json"]))
def test_report_input_is_total(phase1_run, phase2_run, tmp_path_factory, data, fmt):
    """Any JSON value renders, or exits 1 with the not-a-report error; never a traceback."""
    good = json.loads(data.draw(st.sampled_from([phase1_run, phase2_run])).report.to_json())
    doc = corrupted(data, good) if data.draw(st.booleans()) else data.draw(JSON_VALUES)
    path = tmp_path_factory.getbasetemp() / "fuzzed-report.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--input", str(path), "--format", fmt])
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert code == 1 and not out.getvalue()
        assert err.getvalue().startswith(f"error: {path} is not a campaign report: ")
        # a mistyped attack or finding entry is refused by its path
        # (Report.from_dict), never by an attribute error from rendering it
        assert "has no attribute" not in err.getvalue()


def readme_config() -> str:
    """The complete config example in the README's campaign config section."""
    section = README.read_text().split("## Campaign config format", 1)[1]
    return section.split("```", 2)[1]


def readme_attack_section(kind: str) -> str:
    text = readme_config()
    start = text.index(f"[attack {kind}]")
    end = text.find("\n[", start)
    return text[start:] if end < 0 else text[start:end]


class TestAttackKinds:
    """The attack-kind table: one entry per kind, each usable end to end."""

    def test_readme_config_example_parses(self):
        config = parse_campaign_config(readme_config(), source="README.md")
        assert [a.kind for a in config.attacks] == ["flood", "intercept", "fuzz"]

    @pytest.mark.parametrize("kind", sorted(ATTACK_KINDS))
    def test_readme_example_parses_echoes_and_runs(self, kind, tmp_path):
        entry = ATTACK_KINDS[kind]
        assert entry.keys.type.kind == kind
        config = parse_campaign_config(duo_lab_text() + readme_attack_section(kind))
        (spec,) = config.attacks
        assert type(spec) is entry.keys.type
        assert config.echo_dict()["attacks"][0]["kind"] == kind
        run = run_campaign(config, out_dir=str(tmp_path))
        assert run.report.attacks[0]["kind"] == kind
        for f in run.findings:
            assert f.attack_kind == kind

    def test_unknown_kind_names_the_line(self):
        text = duo_lab_text() + "\n[attack teleport]\ntarget = target\n"
        line = text.splitlines().index("[attack teleport]") + 1
        with pytest.raises(ConfigError, match=rf"<config>:{line}: unknown attack kind 'teleport'"):
            parse_campaign_config(text)

    @pytest.mark.parametrize("kind", sorted(ATTACK_KINDS))
    def test_runner_is_looked_up_at_call_time(self, kind, monkeypatch):
        # profilers time attacks by replacing attacks.run_<kind>; the table must see that
        config, lab = make_lab(duo_lab_text() + readme_attack_section(kind))
        calls = []

        def stand_in(lab, spec):
            calls.append(spec)
            return ("result", [], []) if kind == "intercept" else ("result", [])

        monkeypatch.setattr(attacks, f"run_{kind}", stand_in)
        result, findings, _ = ATTACK_KINDS[kind].run(lab, config.attacks[0], 1)
        assert (result, findings, len(calls)) == ("result", [], 1)


# --- the CLI as a total surface ------------------------------------------------

def _flood(rate_tps: str, duration_s: str, target: str = "target") -> str:
    return f"\n[attack flood]\ntarget = {target}\nrate_tps = {rate_tps}\nduration_s = {duration_s}\n"


def _intercept(a: str, b: str) -> str:
    return f"\n[attack intercept]\nlink = {a} {b}\navp_codes = location\n"


TINY_FLOOD = _flood("50", "0.2")
# the duo lab plus a target server that no link reaches
TRIO = duo_lab_text() + "\n[node other]\nkind = TargetServer\n"
NO_ATTACK_BOX = duo_lab_text().replace("kind = AttackBox", "kind = TargetServer")
# an MME with a subscriber: an intercept's traffic would attach it through HSS and PCRF
LONE_MME = "\n[node mme]\nkind = MME\n\n[link attacker mme]\n\n[subscriber imsi-1]\nlocation = a\n"


def _config_with(line: str) -> str:
    return duo_lab_text().replace("seed = 7\n", f"seed = 7\n{line}\n")


def _core_lab_with(sid: str, hss: str = "hss", profile: str = "") -> str:
    """The core lab plus one more subscriber, its HSS labelled `hss`, and an
    intercept on the MME-HSS link, which carries that subscriber's attach."""
    text = core_lab_text().replace(" hss]", f" {hss}]")
    return text + f"\n[subscriber {sid}]\nlocation = a\n{profile}" + _intercept("mme", hss)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory, phase2_run):
    """Named inputs for every file-taking option, bad ones and good ones."""
    root = tmp_path_factory.mktemp("cli-inputs")
    capture = next(phase2_run.out_dir.glob("*.dcap")).read_bytes()
    contents = {
        "empty": b"",
        "binary": bytes(range(256)),
        "non_utf8": b"\xff\xfe[campaign]\nphase = custom\n",
        "deep_json": b"[" * 100_000,
        "deep_closed_json": b"[" * 900 + b"]" * 900,
        "truncated_dcap": capture[: len(capture) // 2 + 3],
        "dcap": capture,
        "report": (phase2_run.out_dir / "report.json").read_bytes(),
        "tiny_config": (duo_lab_text() + TINY_FLOOD).encode(),
        "zero_watchdog": _config_with("watchdog_interval_s = 0").encode(),
        "negative_watchdog": _config_with("watchdog_interval_s = -1").encode(),
        "negative_timeout": _config_with("request_timeout_s = -1").encode(),
        "zero_timeout": _config_with("request_timeout_s = 0").encode(),
        # finite numbers whose microseconds or request count overflow a float
        "huge_latency": duo_lab_text(latency_ms="1e306").encode(),
        "huge_flood": (duo_lab_text() + _flood("1e200", "1e200")).encode(),
        "huge_flood_duration": (duo_lab_text() + _flood("1e-300", "1e306")).encode(),
        "tiny_flood_rate": (duo_lab_text() + _flood("1e-310", "1")).encode(),
        "empty_flood": (duo_lab_text() + _flood("0.4", "1")).encode(),
        # capacities whose token or queue drain time in microseconds overflows a float
        "tiny_service_rate": (duo_lab_text(service_rate="1e-303") + TINY_FLOOD).encode(),
        "subnormal_service_rate": (duo_lab_text(service_rate="1e-320") + TINY_FLOOD).encode(),
        "huge_queue": (duo_lab_text(queue_capacity="1" + "0" * 400) + TINY_FLOOD).encode(),
        # attacks that need a path the topology does not have
        "flood_unlinked": (TRIO + _flood("50", "0.2", target="other")).encode(),
        "flood_at_attack_box": (duo_lab_text() + _flood("50", "0.2", target="attacker")).encode(),
        "fuzz_unlinked": (TRIO + "\n[attack fuzz]\ntarget = other\ncases = 5\n").encode(),
        "flood_no_attack_box": (NO_ATTACK_BOX + TINY_FLOOD).encode(),
        "intercept_no_link": (TRIO + _intercept("attacker", "other")).encode(),
        "attach_without_core": (duo_lab_text() + LONE_MME + _intercept("attacker", "target")).encode(),
        "attach_mme_unlinked": (
            core_lab_text().replace("[link mme pcrf]\nlatency_ms = 10\n", "")
            + _intercept("mme", "hss")
        ).encode(),
        # an intercept with no traffic to see: it runs and captures nothing
        "intercept_no_attack_box": (NO_ATTACK_BOX + _intercept("attacker", "target")).encode(),
        # `service_rate` misspelt: it would silently keep its default
        "misspelt_key": (duo_lab_text().replace("service_rate", "service_rat") + TINY_FLOOD).encode(),
        # a label whose CER Origin-Host AVP, "<label>.lab", is 2**24 bytes long
        "huge_label": duo_lab_text().replace("attacker", "a" * (2**24 - 12)).encode(),
        # an id whose profile answer is 18 MiB long
        "huge_subscriber": _core_lab_with("i" * 9 * 2**20).encode(),
        # a label and a subscriber (id, location and profile line) just at the bound
        "longest_lab_text": _core_lab_with(
            "i" * (MAX_TEXT_BYTES - len("a" + "profile.tier" + "gold")),
            hss="h" * MAX_TEXT_BYTES,
            profile="profile.tier = gold\n",
        ).encode(),
    }
    files = {}
    for name, data in contents.items():
        files[name] = root / name
        files[name].write_bytes(data)
    files["directory"] = root / "a-directory"
    files["directory"].mkdir()
    files["missing"] = root / "missing"
    return files


FILE_NAMES = (
    "empty binary non_utf8 deep_json deep_closed_json truncated_dcap dcap report"
    " tiny_config zero_watchdog negative_watchdog negative_timeout zero_timeout"
    " huge_latency huge_flood huge_flood_duration tiny_flood_rate empty_flood tiny_service_rate"
    " subnormal_service_rate huge_queue flood_unlinked flood_at_attack_box fuzz_unlinked"
    " flood_no_attack_box intercept_no_link attach_without_core attach_mme_unlinked"
    " intercept_no_attack_box directory missing"
).split()


@st.composite
def cli_argv(draw):
    """argv over every subcommand; `@name` stands for the file `cli_files[name]`."""
    file = st.sampled_from(FILE_NAMES).map("@".__add__)
    junk = st.text(max_size=6)
    command = draw(st.sampled_from(["run", "phases", "decode", "report", "nonsense", ""]))
    argv = [command]
    if command == "run":
        # the built-in labs are run elsewhere; here they only meet seeds they reject
        builtin = draw(st.sampled_from(["phase1", "phase2", None]))
        if builtin is None:
            argv += ["--config", draw(st.just("@tiny_config") | file)]
            seed = draw(st.one_of(st.none(), st.integers(-2, 3), st.just(2**64)))
        else:
            argv += ["--config", builtin]
            seed = draw(st.sampled_from([-1, 2**64, 2**70]))
        if seed is not None:
            argv += ["--seed", str(seed)]
        argv += ["--out", "@out"] if draw(st.booleans()) else []
        argv += draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))
    elif command == "decode":
        if draw(st.booleans()):
            hexes = st.sampled_from(["", "00", ECHO_HEX]) | junk | st.binary(max_size=64).map(bytes.hex)
            argv += ["--hex", draw(hexes)]
        else:
            argv += ["--capture", draw(file)]
    elif command == "report":
        argv += ["--input", draw(file), "--format", draw(st.sampled_from(["text", "json"]))]
    if draw(st.integers(0, 9)) == 0:  # an unknown option or a stray word somewhere
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x"]) | junk))
    return argv


FIXED_INPUTS = [
    (["decode", "--hex", ""], "parse error: truncated at byte offset 0"),
    (["decode", "--hex", "00"], "parse error: truncated at byte offset 1"),
    (["run", "--config", "@non_utf8"], "error: @non_utf8: not UTF-8 text"),
    (["report", "--input", "@deep_json"], "error: @deep_json is not a campaign report: "),
    (["run", "--config", "@zero_watchdog"], "error: @zero_watchdog:5: watchdog_interval_s must be"),
    (["run", "--config", "@negative_watchdog"], "error: @negative_watchdog:5: watchdog_interval_s"),
    (["run", "--config", "@negative_timeout"], "error: @negative_timeout:5: request_timeout_s must"),
    (["run", "--config", "@zero_timeout"], "error: @zero_timeout:5: request_timeout_s must be"),
    (["run", "--config", "@huge_latency"], "error: @huge_latency:15: latency is too large"),
    (["run", "--config", "@huge_flood"], "error: @huge_flood:19: flood size rate_tps * duration_s"),
    (["run", "--config", "@huge_flood_duration"], "error: @huge_flood_duration:19: flood duration"),
    (["run", "--config", "@tiny_flood_rate"], "error: @tiny_flood_rate:19: flood rate is too"),
    (["run", "--config", "@empty_flood"], "error: @empty_flood:19: flood size rate_tps * duration_s rounds to zero"),
    (["run", "--config", "@tiny_service_rate"], "error: @tiny_service_rate:9: service_rate is too small"),
    (["run", "--config", "@subnormal_service_rate"], "error: @subnormal_service_rate:9: service_rate is too"),
    (["run", "--config", "@huge_queue"], "error: @huge_queue:9: queue_capacity / service_rate is too large"),
    (["run", "--config", "@flood_unlinked"], "error: @flood_unlinked:22: flood target 'other' has no link"),
    (["run", "--config", "@flood_at_attack_box"], "error: @flood_at_attack_box:19: flood target 'attacker' is"),
    (["run", "--config", "@fuzz_unlinked"], "error: @fuzz_unlinked:22: fuzz target 'other' has no link"),
    (["run", "--config", "@flood_no_attack_box"], "error: @flood_no_attack_box:19: flood needs an AttackBox"),
    (["run", "--config", "@intercept_no_link"], "error: @intercept_no_link:22: intercept link 'attacker' <-> 'other'"),
    (["run", "--config", "@attach_without_core"], "error: @attach_without_core:27: intercept traffic attaches"),
    (["run", "--config", "@attach_mme_unlinked"], "error: @attach_mme_unlinked:39: intercept traffic attaches"),
    (["run", "--config", "phase1", "--seed", "-1"], "error: --seed: seed -1 must fit in 64 bits"),
    (["run", "--config", "@huge_label"], "error: @huge_label:6: node label is longer than 1048576 UTF-8"),
    (["run", "--config", "@huge_subscriber"], "error: @huge_subscriber:41: subscriber id, location and"),
    (["run", "--config", "@misspelt_key"], "error: @misspelt_key:11: unknown key 'service_rat'"),
]


def run_cli(argv, files, out_dir):
    """(exit code, stdout, stderr) of `main(argv)` with `@name` replaced by a path."""
    paths = {f"@{name}": str(path) for name, path in files.items()}
    paths["@out"] = str(out_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([paths.get(arg, arg) for arg in argv])
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    text = err.getvalue()
    for placeholder, path in paths.items():
        text = text.replace(path, placeholder)
    return code, out.getvalue(), text


def with_fixed_inputs(test):
    """`test` with every FIXED_INPUTS argv as an explicit hypothesis example."""
    for argv, _ in FIXED_INPUTS:
        test = example(argv=argv)(test)
    return test


@pytest.mark.parametrize("argv, error", FIXED_INPUTS, ids=[" ".join(a) for a, _ in FIXED_INPUTS])
def test_unreadable_inputs_exit_one_with_a_located_error(argv, error, cli_files, tmp_path):
    code, out, err = run_cli(argv, cli_files, tmp_path / "out")
    assert code == 1 and out == ""
    assert err.startswith(error) and err.count("\n") == 1, err


def test_lab_text_at_the_length_bound_runs(cli_files, tmp_path):
    argv = ["run", "--config", "@longest_lab_text", "--out", "@out"]
    code, _, err = run_cli(argv, cli_files, tmp_path)
    assert (code, err) == (2, "")  # the intercept's finding
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["config"]["nodes"][2]["label"]) == MAX_TEXT_BYTES
    result = report["attacks"][0]["result"]
    assert result["records_decoded"] == result["records_captured"] > 0
    assert "61" in [item["value_hex"] for item in result["inventory"]]  # its location, "a"


def listing(directory: Path) -> list[Path]:
    return sorted(directory.rglob("*"))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=cli_argv())
@with_fixed_inputs
def test_cli_is_total(cli_files, tmp_path_factory, argv):
    """Any argv exits 0, 1 or 2, with no traceback, writing only under its own directory."""
    work = tmp_path_factory.mktemp("cli-run")
    inputs = cli_files["empty"].parent
    repo = Path(__file__).resolve().parents[1]
    before = (sorted(repo.iterdir()), listing(inputs))
    cwd = os.getcwd()
    os.chdir(work)  # a run without --out writes to the config's relative output path
    try:
        code, _, err = run_cli(argv, cli_files, work / "out")
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 1:
        assert err.count("\n") == 1 and err.startswith(("error: ", "parse error: ")), err
    assert (sorted(repo.iterdir()), listing(inputs)) == before
