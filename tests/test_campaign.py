"""Campaign layer: classification, report round-trip, determinism, CLI."""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diamlab import attacks
from diamlab.attacks import Finding, Severity
from diamlab.campaign import (
    CampaignError,
    Report,
    classify,
    render_report,
    run_campaign,
)
from diamlab.capture import read_capture
from diamlab.cli import main
from diamlab.config import ATTACK_KINDS, ConfigError, load_config, parse_campaign_config
from diamlab.taxonomy import Impact, Origin, TaxonomyLabel, Technique

from tests.labs import duo_lab_text, make_lab

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def phase1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("phase1")
    return run_campaign(load_config("phase1"), out_dir=str(out))


@pytest.fixture(scope="module")
def phase2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("phase2")
    return run_campaign(load_config("phase2"), out_dir=str(out))


def finding(kind: str, **evidence) -> Finding:
    evidence = evidence or {"n": 1}
    return Finding(attack_kind=kind, severity=Severity.INFO, evidence=evidence)


class TestClassify:
    def test_flood(self):
        assert classify(finding("flood")) == TaxonomyLabel(
            Origin.EXTERNAL_INTERCONNECT, Technique.FLOODING, Impact.AVAILABILITY
        )

    def test_intercept(self):
        assert classify(finding("intercept")) == TaxonomyLabel(
            Origin.EXTERNAL_INTERCONNECT, Technique.INTERCEPTION, Impact.CONFIDENTIALITY
        )

    def test_fuzz_crash_is_availability(self):
        label = classify(finding("fuzz", finding_type="crash"))
        assert label.technique is Technique.MALFORMED_MESSAGE
        assert label.impact is Impact.AVAILABILITY

    def test_fuzz_accepted_invalid_is_integrity(self):
        label = classify(finding("fuzz", finding_type="accepted-invalid"))
        assert label.impact is Impact.INTEGRITY

    def test_total_over_every_producible_finding(self):
        producible = [
            finding("flood"),
            finding("intercept"),
            finding("fuzz", finding_type="crash"),
            finding("fuzz", finding_type="accepted-invalid"),
        ]
        for f in producible:
            label = classify(f)
            # exactly one value per axis, all from the declared enums
            assert isinstance(label.origin, Origin)
            assert isinstance(label.technique, Technique)
            assert isinstance(label.impact, Impact)

    def test_unknown_kind_rejected(self):
        with pytest.raises(CampaignError):
            classify(finding("teleport"))

    def test_taxonomy_label_round_trip(self):
        label = TaxonomyLabel(Origin.INTERNAL, Technique.SPOOFING, Impact.INTEGRITY)
        assert TaxonomyLabel.from_dict(label.to_dict()) == label

    def test_finding_requires_evidence(self):
        with pytest.raises(ValueError):
            Finding(attack_kind="flood", severity=Severity.INFO, evidence={})


class TestRunCampaign:
    def test_phase1_runs_clean(self, phase1_run):
        assert phase1_run.findings == []
        fuzz = phase1_run.report.attacks[0]["result"]
        assert fuzz["crash_cases"] == 0
        assert sum(sum(d.values()) for d in fuzz["tallies"].values()) == 1000

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

    def test_misconfigured_lab_aborts_with_diagnostic(self):
        text = duo_lab_text().replace("latency_ms = 5", "latency_ms = 5\nloss = 1.0")
        config = parse_campaign_config(text)
        with pytest.raises(CampaignError, match="failed to open"):
            run_campaign(config, write_files=False)

    def test_fuzz_seed_derived_from_campaign_seed(self):
        config = parse_campaign_config(
            duo_lab_text(seed=10) + "\n[attack fuzz]\ntarget = target\ncases = 50\n"
        )
        r1 = run_campaign(config, write_files=False)
        r2 = run_campaign(config, write_files=False)
        assert r1.report.attacks[0]["result"]["seed"] == r2.report.attacks[0]["result"]["seed"]


def assert_conserved(lab):
    """Every offered request and every sent message is accounted for exactly once."""
    for label, elem in lab.elements.items():
        accounted = (
            elem.direct_served
            + elem.drained_served
            + elem.dropped_overflow
            + elem.dropped_at_failure
            + len(elem.queue)
        )
        assert elem.offered == accounted, label
    stats = lab.sim.stats
    assert stats.sends == stats.delivered + stats.lost + lab.sim.queued_deliveries()


class TestConservation:
    def test_phase1_campaign(self, phase1_run):
        assert_conserved(phase1_run.lab)

    def test_phase2_campaign(self, phase2_run):
        assert phase2_run.lab.elements["target"].dropped_at_failure > 0
        assert_conserved(phase2_run.lab)

    def test_flood_at_eight_times_capacity(self):
        _, lab = make_lab(duo_lab_text(service_rate=1000))
        attacks.run_flood(lab, attacks.FloodSpec(target="target", rate_tps=8000, duration_s=1.0))
        target = lab.elements["target"]
        assert target.offered >= 8000 and target.dropped_overflow > 0
        assert_conserved(lab)


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

    def test_different_seed_changes_the_report(self, phase1_run):
        other = run_campaign(load_config("phase1", seed_override=99), write_files=False)
        assert phase1_run.report.to_json() != other.report.to_json()

    def test_output_directory_does_not_leak_into_the_report(self, tmp_path):
        # --out says where to write, it is not an experiment parameter
        a = main(["run", "--config", "phase1", "--out", str(tmp_path / "here")])
        b = main(["run", "--config", "phase1", "--out", str(tmp_path / "there")])
        assert a == b == 0
        assert (tmp_path / "here" / "report.json").read_bytes() == (
            tmp_path / "there" / "report.json"
        ).read_bytes()


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
        payload = json.loads(stdout[: stdout.rindex("}") + 1])
        assert payload["phase"] == "phase1"

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
        from diamlab.codec import Avp, build_message, encode_message
        from diamlab import dictionary as d

        msg = build_message(
            d.CMD_ECHO,
            request=True,
            avps=[Avp(code=d.AVP_ECHO_PAYLOAD, data=b"hi")],
        )
        assert main(["decode", "--hex", encode_message(msg).hex()]) == 0
        out = capsys.readouterr().out
        assert "command=700 (echo)" in out
        assert "echo-payload" in out

    def test_decode_bad_hex_input(self, capsys):
        assert main(["decode", "--hex", "zz"]) == 1

    def test_decode_parse_error_is_reported_not_fatal(self, capsys):
        assert main(["decode", "--hex", "02" * 20]) == 0
        assert "bad_version" in capsys.readouterr().out

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
            ("missing-stats", "'stats' is missing or not a dict"),
            ("attacks-int", "'attacks' is missing or not a list"),
            ("nodes-of-ints", ""),  # mistyped below the top level: caught while rendering
        ],
    )
    def test_report_input_that_is_not_a_report_exits_one(
        self, content, reason, phase1_run, tmp_path, capsys
    ):
        good = phase1_run.report.to_dict()
        broken = {
            "missing-stats": {k: v for k, v in good.items() if k != "stats"},
            "attacks-int": {**good, "attacks": 5},
            "nodes-of-ints": {**good, "config": {**good["config"], "nodes": [1]}},
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
    good = data.draw(st.sampled_from([phase1_run, phase2_run])).report.to_dict()
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
    def test_readme_example_parses_echoes_runs_and_classifies(self, kind):
        entry = ATTACK_KINDS[kind]
        assert entry.spec.kind == kind
        config = parse_campaign_config(duo_lab_text() + readme_attack_section(kind))
        (spec,) = config.attacks
        assert type(spec) is entry.spec
        assert config.echo_dict()["attacks"][0]["kind"] == kind
        run = run_campaign(config, write_files=False)
        assert run.report.attacks[0]["kind"] == kind
        for f in run.findings:
            assert f.attack_kind == kind
            assert f.taxonomy == entry.label(f)
        # the fuzz example finds nothing on a healthy target; its rule must still exist
        assert classify(finding(kind)) == entry.label(finding(kind))

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
