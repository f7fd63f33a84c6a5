"""Config parsing: section format, built-ins, phase gating, error reporting."""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamlab import dictionary as dct
from diamlab.attacks import FloodSpec, FuzzSpec, InterceptSpec, MutationOp
from diamlab.campaign import CampaignError, build_lab, run_campaign
from diamlab import config as config_module
from diamlab.config import (
    ATTACK_KINDS,
    BUILTIN_CONFIGS,
    MAX_TEXT_BYTES,
    CampaignConfig,
    ConfigError,
    load_config,
    Schema,
    parse_campaign_config,
    parse_sections,
)
from diamlab.elements import ElementKind, PolicyRule
from diamlab.simnet import US_PER_S

from tests.labs import duo_lab_text
from tests.test_campaign import README


class TestSectionParser:
    def test_basic_structure(self):
        sections = parse_sections("[a one two]\nkey = value\n# comment\n\n[b]\n")
        assert [s.kind for s in sections] == ["a", "b"]
        assert sections[0].args == ("one", "two")
        assert sections[0].values == {"key": "value"}

    def test_key_outside_section_names_line(self):
        with pytest.raises(ConfigError, match=r"<x>:2: key outside"):
            parse_sections("# top\nkey = value\n", source="<x>")

    def test_duplicate_key_names_line(self):
        with pytest.raises(ConfigError, match=r":3: duplicate key 'k'"):
            parse_sections("[s]\nk = 1\nk = 2\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(ConfigError, match=r":1: expected section header"):
            parse_sections("what is this\n")

    def test_empty_header_rejected(self):
        with pytest.raises(ConfigError, match="empty section header"):
            parse_sections("[]\n")

    def test_values_keep_line_numbers(self):
        (section,) = parse_sections("[s]\na = 1\nb = 2\n", source="<x>")
        assert str(section.error("bad", "b")) == "<x>:3: bad"
        assert str(section.error("bad")) == "<x>:1: bad"

    def test_build_returns_the_value(self):
        (section,) = parse_sections("[s]\na = 1\n", source="<x>")
        assert section.build(FuzzSpec, target="t", case_count=2) == FuzzSpec(target="t", case_count=2)

    def test_build_locates_a_value_error_at_the_header(self):
        (section,) = parse_sections("# top\n[s]\na = 1\n", source="<x>")
        with pytest.raises(ConfigError) as info:
            section.build(FuzzSpec, target="t", case_count=0)
        assert str(info.value) == "<x>:2: fuzz case count must be > 0"
        assert info.value.__cause__ is None

    def test_build_lets_other_errors_through(self):
        (section,) = parse_sections("[s]\n")
        with pytest.raises(TypeError):
            section.build(FuzzSpec, target="t", case_count=2, no_such_field=1)


# every section kind's key table, attack kinds included
KEY_TABLES = [t for t in vars(config_module).values() if isinstance(t, Schema)] + [
    entry.keys for entry in ATTACK_KINDS.values()
]


def test_key_tables_state_required_keys_as_their_value_types_do():
    # A row is required exactly when its field has no default, so a key left
    # out always falls back to a default. Node `kind` and campaign `topology`
    # set no field of the value type; the parser takes their values apart.
    assert len(KEY_TABLES) == 8
    apart = set()
    for table in KEY_TABLES:
        defaults = {
            f.name: f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING
            for f in dataclasses.fields(table.type)
        }
        for key in table.rows:
            if key.field in defaults:
                assert key.required is not defaults[key.field], key.name
            else:
                apart.add((table.type.__name__, key.name, key.required))
    assert apart == {("ElementCapacity", "kind", True), ("CampaignConfig", "topology", False)}


def test_readme_config_section_names_every_key():
    # in the complete example, or in backquotes
    section = README.read_text().split("## Campaign config format", 1)[1].split("\n## ", 1)[0]
    names = sorted({key.name for table in KEY_TABLES for key in table.rows})
    assert "profile.*" in names
    assert [n for n in names if f"`{n}`" not in section and f"\n{n} = " not in section] == []


class TestBuiltins:
    def test_phase1_shape(self):
        config = load_config("phase1")
        assert config.phase == "phase1"
        assert len(config.topology.nodes) == 2
        kinds = set(config.kinds.values())
        assert kinds == {ElementKind.ATTACK_BOX, ElementKind.TARGET_SERVER}
        assert [type(a) for a in config.attacks] == [FuzzSpec, FloodSpec]

    def test_phase2_shape(self):
        config = load_config("phase2")
        assert config.phase == "phase2"
        assert len(config.topology.nodes) == 5
        assert set(config.kinds.values()) == set(ElementKind)
        assert len(config.subscribers) == 3
        assert {type(a) for a in config.attacks} == {InterceptSpec, FloodSpec}

    def test_builtins_have_seeds(self):
        for name in BUILTIN_CONFIGS:
            assert load_config(name).seed >= 0

    def test_seed_override_changes_the_config(self):
        config = load_config("phase1", seed_override=999)
        assert config.seed == 999
        # the declared output path is part of the config, not of the override
        assert config.output_path == "phase1-out"

    def test_unknown_name_or_path(self):
        with pytest.raises(ConfigError, match="no such config"):
            load_config("phase9")


def minimal(phase="custom", extra=""):
    return f"""
[campaign]
phase = {phase}
seed = 3

[node attacker]
kind = AttackBox

[node target]
kind = TargetServer

[link attacker target]
{extra}
"""


class TestCampaignAssembly:
    def test_missing_seed_names_the_field(self):
        text = "[campaign]\nphase = custom\n[node a]\nkind = AttackBox\n"
        with pytest.raises(ConfigError, match="missing required field 'seed'"):
            parse_campaign_config(text)

    def test_missing_phase(self):
        with pytest.raises(ConfigError, match="missing required field 'phase'"):
            parse_campaign_config("[campaign]\nseed = 1\n")

    def test_bad_phase_value(self):
        with pytest.raises(ConfigError, match="phase must be"):
            parse_campaign_config("[campaign]\nphase = phase3\nseed = 1\n")

    def test_no_nodes_rejected(self):
        with pytest.raises(ConfigError, match="declares no nodes"):
            parse_campaign_config("[campaign]\nphase = custom\nseed = 1\n")

    def test_duplicate_node_label(self):
        text = minimal() + "\n[node target]\nkind = HSS\n"
        with pytest.raises(ConfigError, match="duplicate node label"):
            parse_campaign_config(text)

    def test_unknown_element_kind(self):
        text = "[campaign]\nphase = custom\nseed = 1\n[node x]\nkind = Router\n"
        with pytest.raises(ConfigError, match="unknown element kind"):
            parse_campaign_config(text)

    def test_dangling_link_endpoint(self):
        text = "[campaign]\nphase = custom\nseed = 1\n[node a]\nkind = AttackBox\n[link a ghost]\n"
        with pytest.raises(ConfigError, match="not a declared node"):
            parse_campaign_config(text)

    @pytest.mark.parametrize("second", ["attacker target", "target attacker"])
    def test_duplicate_link_names_both_lines(self, second):
        text = minimal(extra="latency_ms = 5") + f"\n[link {second}]\nlatency_ms = 50\n"
        lines = text.splitlines()
        first = lines.index("[link attacker target]") + 1
        dup = len(lines) - 1
        assert lines[dup - 1] == f"[link {second}]"
        a, b = second.split()
        with pytest.raises(
            ConfigError,
            match=rf"^<config>:{dup}: duplicate link between '{a}' and '{b}'"
            rf" \(first declared on line {first}\)$",
        ):
            parse_campaign_config(text)

    def test_self_link_names_its_line(self):
        text = minimal() + "\n[link target target]\n"
        line = text.splitlines().index("[link target target]") + 1
        message = rf"^<config>:{line}: link 'target' <-> 'target' joins a node to itself$"
        with pytest.raises(ConfigError, match=message):
            parse_campaign_config(text)

    @pytest.mark.parametrize(
        "extra, text",
        [
            ("latency_ms = -1", "latency must be >= 0"),
            ("latency_ms = 1e306", "latency is too large"),
            ("loss = 1.5", "loss_probability must be in"),
        ],
    )
    def test_bad_link_parameter_is_a_located_config_error(self, extra, text):
        config_text = minimal(extra=extra)
        line = config_text.splitlines().index("[link attacker target]") + 1
        with pytest.raises(ConfigError, match=rf"^<config>:{line}: {text}"):
            parse_campaign_config(config_text)

    def test_capacity_fields_parsed(self):
        text = minimal().replace(
            "kind = TargetServer",
            "kind = TargetServer\nservice_rate = 42\nqueue_capacity = 7\nfailure_threshold_s = 9",
        )
        config = parse_campaign_config(text)
        cap = config.capacities["target"]
        assert (cap.service_rate, cap.queue_capacity, cap.failure_threshold_s) == (42, 7, 9)

    def test_bad_capacity_value_carries_location(self):
        text = minimal().replace("kind = TargetServer", "kind = TargetServer\nservice_rate = 0")
        with pytest.raises(ConfigError, match="service_rate must be > 0"):
            parse_campaign_config(text)

    @pytest.mark.parametrize(
        "header, old, new, text",
        [
            ("[node target]", "kind = TargetServer", "kind = TargetServer\nqueue_capacity = -1",
             "queue_capacity must be >= 0"),
            ("[link attacker target]", "[link attacker target]",
             "[link attacker target]\nloss = -0.5", "loss_probability must be in"),
            ("[attack flood]", "\n[attack flood]\ntarget = target\nrate_tps = -5\nduration_s = 1\n",
             None, "flood rate must be > 0"),
            ("[attack flood]",
             "\n[attack flood]\ntarget = target\nrate_tps = 5\nduration_s = 1\n"
             "degraded_threshold = -3\n",
             None, "flood degraded threshold must be in [0, 1]"),
            ("[attack flood]",
             "\n[attack flood]\ntarget = target\nrate_tps = 5\nduration_s = 1\n"
             "degraded_threshold = 1.5\n",
             None, "flood degraded threshold must be in [0, 1]"),
            ("[attack fuzz]", "\n[attack fuzz]\ntarget = target\ncases = 0\n",
             None, "fuzz case count must be > 0"),
            ("[attack fuzz]", "\n[attack fuzz]\ntarget = target\ncases = 3\nops = ,\n",
             None, "fuzz op set must be non-empty"),
        ],
        ids=["capacity", "link", "flood", "flood-threshold-below", "flood-threshold-above",
             "fuzz-cases", "fuzz-ops"],
    )
    def test_value_type_errors_are_located_at_the_header(self, header, old, new, text):
        config_text = minimal().replace(old, new) if new is not None else minimal() + old
        line = config_text.splitlines().index(header) + 1
        with pytest.raises(ConfigError) as info:
            parse_campaign_config(config_text)
        assert str(info.value).startswith(f"<config>:{line}: {text}")

    EVERY_SECTION = minimal() + (
        "\n[subscriber s1]\nlocation = a\nprofile.tier = gold\n"
        "\n[rule r1]\nsubscriber = s1\n"
        "\n[attack flood]\ntarget = target\nrate_tps = 10\nduration_s = 1\n"
        "\n[attack intercept]\nlink = attacker target\navp_codes = location\n"
        "\n[attack fuzz]\ntarget = target\ncases = 1\n"
    )

    KNOWN = {
        "[campaign]": "phase, seed, output, topology, watchdog_interval_s, request_timeout_s",
        "[node target]": "kind, service_rate, queue_capacity, failure_threshold_s",
        "[link attacker target]": "latency_ms, loss, protected",
        "[subscriber s1]": "location, profile.*",
        "[rule r1]": "subscriber, qos_class",
        "[attack flood]": "target, rate_tps, duration_s, degraded_threshold",
        "[attack intercept]": "link, avp_codes",
        "[attack fuzz]": "target, ops, cases, seed",
    }

    @pytest.mark.parametrize(
        "header, key",
        [
            ("[campaign]", "sed"),
            ("[node target]", "service_rat"),
            ("[link attacker target]", "latncy_ms"),
            ("[subscriber s1]", "locaton"),
            ("[subscriber s1]", "profile"),
            ("[subscriber s1]", "profile."),
            ("[subscriber s1]", "profile.*"),  # the wildcard row's own name
            ("[rule r1]", "qos"),
            ("[attack flood]", "rate"),
            ("[attack intercept]", "avp_code"),
            ("[attack fuzz]", "case"),
        ],
    )
    def test_unknown_key_is_located_at_its_line(self, header, key):
        lines = self.EVERY_SECTION.splitlines()
        assert parse_campaign_config(self.EVERY_SECTION).attacks  # parses without the key
        at = lines.index(header) + 1
        lines.insert(at, f"{key} = 5")
        with pytest.raises(ConfigError) as info:
            parse_campaign_config("\n".join(lines))
        known = self.KNOWN[header]
        assert str(info.value) == f"<config>:{at + 1}: unknown key {key!r} (known: {known})"

    EVERY_KEY = """
[campaign]
phase = custom
seed = 5
output = every-out
watchdog_interval_s = 12.5
request_timeout_s = 0.25

[node attacker]
kind = AttackBox
service_rate = 250
queue_capacity = 7
failure_threshold_s = 9

[node target]
kind = TargetServer

[link attacker target]
latency_ms = 3
loss = 0.25
protected = yes

[subscriber s1]
location = area-1
profile.tier = gold
profile.plan = x

[rule r1]
subscriber = s1
qos_class = 5

[attack flood]
target = target
rate_tps = 10
duration_s = 2
degraded_threshold = 0.5

[attack intercept]
link = target attacker
avp_codes = location, 268

[attack fuzz]
target = target
ops = truncate, flip_flag
cases = 4
seed = 11
"""

    def test_every_key_set_to_a_non_default_value_is_echoed(self):
        config = parse_campaign_config(self.EVERY_KEY)
        expected = {
            "source": "<config>",
            "phase": "custom",
            "seed": 5,
            "output": "every-out",
            "watchdog_interval_s": 12.5,
            "request_timeout_s": 0.25,
            "nodes": [
                {"label": "attacker", "kind": "AttackBox", "service_rate": 250.0,
                 "queue_capacity": 7, "failure_threshold_s": 9.0},
                {"label": "target", "kind": "TargetServer", "service_rate": 1000.0,
                 "queue_capacity": 100, "failure_threshold_s": 3600.0},
            ],
            "links": [
                {"a": "attacker", "b": "target", "latency_ms": 3.0, "loss_probability": 0.25,
                 "protected": True},
            ],
            "subscribers": [
                {"id": "s1", "location": "area-1", "profile": {"tier": "gold", "plan": "x"}},
            ],
            "attacks": [
                {"kind": "flood", "target": "target", "rate_tps": 10.0, "duration_s": 2.0,
                 "degraded_answer_ratio": 0.5},
                {"kind": "intercept", "link": ["target", "attacker"],
                 "avp_codes": [dct.AVP_LOCATION, dct.AVP_RESULT_CODE]},
                {"kind": "fuzz", "target": "target", "cases": 4, "ops": ["truncate", "flip_flag"],
                 "seed": 11},
            ],
        }
        echo = config.echo_dict()
        assert echo == expected
        assert json.dumps(echo) == json.dumps(expected)  # the key order too
        assert config.rules == (PolicyRule("r1", "s1", 5),)  # rules are not echoed

    def test_link_attributes(self):
        text = minimal(extra="latency_ms = 3\nloss = 0.25\nprotected = yes")
        link = parse_campaign_config(text).topology.links[0]
        assert (link.latency_ms, link.loss_probability, link.protected) == (3, 0.25, True)

    def test_subscriber_profile_keys(self):
        text = minimal() + "\n[subscriber s1]\nlocation = area-1\nprofile.tier = gold\n"
        sub = parse_campaign_config(text).subscribers[0]
        assert sub.profile == {"tier": "gold"}

    def test_duplicate_subscriber(self):
        text = minimal() + "\n[subscriber s1]\nlocation = a\n[subscriber s1]\nlocation = b\n"
        with pytest.raises(ConfigError, match="duplicate subscriber"):
            parse_campaign_config(text)

    @pytest.mark.parametrize("over", [0, 1], ids=["at-bound", "one-byte-over"])
    def test_label_and_subscriber_lengths_count_utf8_bytes(self, over):
        half = "é" * (MAX_TEXT_BYTES // 2)  # two UTF-8 bytes each
        label = minimal().replace("[node target]", f"[node {half}{'x' * over}]")
        label = label.replace("[link attacker target]", f"[link attacker {half}{'x' * over}]")
        # id, location and profile key and value: MAX_TEXT_BYTES - 16 + 1 + 12 + 3 bytes
        location = "ab"[: 1 + over]
        sub = minimal() + f"\n[subscriber {half[8:]}]\nlocation = {location}\nprofile.tier = abc\n"
        for text, message in [(label, "node label"), (sub, "subscriber id, location")]:
            if not over:
                parse_campaign_config(text)
                continue
            line = next(n for n, row in enumerate(text.splitlines(), 1) if len(row) > 2**19)
            with pytest.raises(ConfigError, match=rf"^<config>:{line}: {message}"):
                parse_campaign_config(text)

    def test_duplicate_rule(self):
        text = minimal() + "\n[rule r1]\nsubscriber = s1\n[rule r1]\nsubscriber = s2\n"
        line = len(text.splitlines()) - 1
        with pytest.raises(ConfigError, match=rf"^<config>:{line}: duplicate rule 'r1'$"):
            parse_campaign_config(text)

    def test_attack_order_preserved(self):
        text = (
            minimal()
            + "\n[attack flood]\ntarget = target\nrate_tps = 10\nduration_s = 1\n"
            + "\n[attack fuzz]\ntarget = target\ncases = 5\n"
            + "\n[attack flood]\ntarget = target\nrate_tps = 20\nduration_s = 1\n"
        )
        attacks = parse_campaign_config(text).attacks
        assert [type(a) for a in attacks] == [FloodSpec, FuzzSpec, FloodSpec]
        assert attacks[2].rate_tps == 20

    def test_avp_codes_accept_names_and_numbers(self):
        text = minimal() + "\n[attack intercept]\nlink = attacker target\navp_codes = location, 268\n"
        spec = parse_campaign_config(text).attacks[0]
        assert spec.avp_codes == (dct.AVP_LOCATION, dct.AVP_RESULT_CODE)

    def test_unknown_avp_name(self):
        text = minimal() + "\n[attack intercept]\nlink = attacker target\navp_codes = nonsense\n"
        with pytest.raises(ConfigError, match="unknown AVP name"):
            parse_campaign_config(text)

    @pytest.mark.parametrize(
        "codes, error",
        [
            ("²", "unknown AVP name '²'"),  # str.isdigit() accepts it, int() does not
            ("264, 4294967296", "AVP code 4294967296 is above 4294967295"),
        ],
        ids=["superscript-digit", "above-32-bits"],
    )
    def test_avp_codes_errors_name_their_line(self, codes, error):
        text = minimal() + f"\n[attack intercept]\nlink = attacker target\navp_codes = {codes}\n"
        line = text.splitlines().index(f"avp_codes = {codes}") + 1
        with pytest.raises(ConfigError, match=f"^<config>:{line}: {error}$"):
            parse_campaign_config(text)

    def test_fuzz_ops_filter(self):
        text = minimal() + "\n[attack fuzz]\ntarget = target\ncases = 5\nops = truncate,flip_flag\n"
        spec = parse_campaign_config(text).attacks[0]
        assert spec.ops == (MutationOp.TRUNCATE, MutationOp.FLIP_FLAG)

    def test_unknown_attack_target(self):
        text = minimal() + "\n[attack flood]\ntarget = ghost\nrate_tps = 1\nduration_s = 1\n"
        with pytest.raises(ConfigError, match="unknown flood target"):
            parse_campaign_config(text)

    def test_unknown_section_kind(self):
        with pytest.raises(ConfigError, match="unknown section kind"):
            parse_campaign_config(minimal() + "\n[widget w]\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "lab.conf"
        path.write_text(minimal())
        config = load_config(path)
        assert config.source == str(path)


FLOOD_LAB = duo_lab_text() + "\n[attack flood]\ntarget = target\nrate_tps = 100\nduration_s = 1\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize(
    "key", ["rate_tps", "duration_s", "service_rate", "latency_ms", "failure_threshold_s"]
)
def test_non_finite_number_is_a_located_config_error(key, value):
    lines = FLOOD_LAB.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
    lines[index] = f"{key} = {value}"
    with pytest.raises(ConfigError, match=rf"<config>:{index + 1}: {key} must be a finite number"):
        parse_campaign_config("\n".join(lines))


@pytest.mark.parametrize("value", ["-1", "0", "-0.0", "0.0000004"])
@pytest.mark.parametrize("key", ["watchdog_interval_s", "request_timeout_s"])
def test_campaign_interval_under_one_microsecond_is_a_located_config_error(key, value):
    text = FLOOD_LAB.replace("seed = 7", f"seed = 7\n{key} = {value}")
    line = text.splitlines().index(f"{key} = {value}") + 1
    with pytest.raises(ConfigError, match=rf"^<config>:{line}: {key} must be at least 1 microsecond$"):
        parse_campaign_config(text)


@pytest.mark.parametrize("key", ["watchdog_interval_s", "request_timeout_s"])
def test_campaign_interval_bounds(key):
    shortest = parse_campaign_config(FLOOD_LAB.replace("seed = 7", f"seed = 7\n{key} = 0.000001"))
    assert getattr(shortest, key.removesuffix("_s") + "_us") == 1
    assert shortest.echo_dict()[key] == 0.000001
    with pytest.raises(ConfigError, match=rf"^<config>:5: {key} is too large$"):
        parse_campaign_config(FLOOD_LAB.replace("seed = 7", f"seed = 7\n{key} = 1e303"))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_override_names_the_flag(seed):
    with pytest.raises(ConfigError, match=rf"^--seed: seed {seed} must fit in 64 bits$"):
        load_config("phase1", seed_override=seed)
    with pytest.raises(ConfigError, match=rf"^<config>:4: seed {seed} must fit in 64 bits$"):
        parse_campaign_config(FLOOD_LAB.replace("seed = 7", f"seed = {seed}"))


@pytest.mark.parametrize(
    "line, error",
    [
        ("seed = abc", "<config>:4: seed must be an integer"),
        ("seed = -1", "<config>:4: seed -1 must fit in 64 bits"),
        ("", "<config>:2: [campaign] section is missing required field 'seed'"),
    ],
)
def test_seed_override_replaces_only_a_valid_seed(line, error):
    text = FLOOD_LAB.replace("seed = 7", line)
    with pytest.raises(ConfigError) as info:
        parse_campaign_config(text, seed_override=5)
    assert str(info.value).startswith(error)


@pytest.mark.parametrize("line", ["output =", "output =   "])
def test_empty_output_is_a_located_config_error(line):
    # an empty output path would write report.json and report.txt into
    # the working directory
    text = FLOOD_LAB.replace("seed = 7", f"seed = 7\n{line}")
    with pytest.raises(ConfigError, match=r"^<config>:5: output must be a non-empty path$"):
        parse_campaign_config(text)


def _fuzz_with_seed(seed: int) -> str:
    return minimal() + f"\n[attack fuzz]\ntarget = target\ncases = 1\nseed = {seed}\n"


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_fuzz_seed_names_its_line(seed):
    # random.Random(-5) draws what random.Random(5) draws: a negative seed would
    # repeat another seed's cases under a different name
    text = _fuzz_with_seed(seed)
    line = text.splitlines().index(f"seed = {seed}") + 1
    with pytest.raises(ConfigError, match=rf"^<config>:{line}: seed {seed} must fit in 64 bits$"):
        parse_campaign_config(text)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_fuzz_seed_bounds_are_accepted(seed):
    (spec,) = parse_campaign_config(_fuzz_with_seed(seed)).attacks
    assert spec.seed == seed


def test_config_file_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "latin1.conf"
    data = minimal().replace("seed = 3", "# caf\xe9\nseed = 3").encode("latin-1")
    path.write_bytes(data)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}: not UTF-8 text (byte {data.index(0xE9)}: ")


@pytest.mark.parametrize(
    "key, line",
    [
        ("output", "output = out  # optional"),
        ("location", "location = area-1 # home"),
        ("rate_tps", "rate_tps = 100#tps"),
    ],
)
def test_hash_in_a_value_is_a_located_config_error(key, line):
    text = FLOOD_LAB.replace("seed = 7", "seed = 7\noutput = out") + "\n[subscriber s1]\nlocation = a\n"
    lines = text.splitlines()
    index = next(i for i, old in enumerate(lines) if old.startswith(f"{key} ="))
    lines[index] = line
    with pytest.raises(ConfigError, match=rf"^<config>:{index + 1}: {key}: '#' in a value"):
        parse_campaign_config("\n".join(lines))


@pytest.mark.parametrize(
    "key, section",
    [
        ("degraded_threshold", "[attack flood]"),
        ("seed", "[attack fuzz]"),
        ("queue_capacity", "[node attacker]"),
        ("loss", "[link attacker target]"),
    ],
)
def test_bad_number_inside_a_section_carries_one_location(key, section):
    text = (
        duo_lab_text()
        + "\n[attack flood]\ntarget = target\nrate_tps = 1\nduration_s = 1\n"
        + "\n[attack fuzz]\ntarget = target\ncases = 1\n"
    )
    lines = text.splitlines()
    index = lines.index(section) + 1
    lines.insert(index, f"{key} = many")
    with pytest.raises(ConfigError) as info:
        parse_campaign_config("\n".join(lines))
    assert str(info.value).startswith(f"<config>:{index + 1}: {key} must be ")
    assert str(info.value).count("<config>") == 1


class TestPhaseGating:
    def test_phase1_rejects_core_elements(self):
        text = minimal(phase="phase1") + "\n[node hss]\nkind = HSS\n"
        with pytest.raises(ConfigError, match="phase1.*HSS"):
            parse_campaign_config(text)

    @staticmethod
    def _assert_error_at(text: str, header: str, message: str) -> None:
        """Parsing `text` fails with `message`, located at `header`'s line."""
        line = text.splitlines().index(header) + 1
        with pytest.raises(ConfigError) as info:
            parse_campaign_config(text)
        assert str(info.value) == f"<config>:{line}: {message}"

    def test_phase1_rejects_attacks_on_non_target(self):
        text = (
            minimal(phase="phase1")
            + "\n[attack flood]\ntarget = attacker\nrate_tps = 10\nduration_s = 1\n"
        )
        self._assert_error_at(
            text, "[attack flood]", "phase1 permits only TargetServer-directed attacks (got 'attacker')"
        )

    def test_phase1_rejects_a_fuzz_at_the_attack_box(self):
        text = minimal(phase="phase1") + "\n[attack fuzz]\ntarget = attacker\ncases = 1\n"
        self._assert_error_at(
            text, "[attack fuzz]", "phase1 permits only TargetServer-directed attacks (got 'attacker')"
        )

    def test_phase1_rejects_an_intercept_that_taps_no_target(self):
        text = minimal(phase="phase1") + (
            "\n[node spare]\nkind = AttackBox\n\n[link attacker spare]\n"
            "\n[attack intercept]\nlink = attacker spare\navp_codes = 268\n"
        )
        self._assert_error_at(
            text, "[attack intercept]", "phase1 intercepts must tap a TargetServer link"
        )

    def test_phase1_intercept_must_touch_target(self):
        text = minimal(phase="phase1") + "\n[attack intercept]\nlink = attacker target\navp_codes = 268\n"
        parse_campaign_config(text)  # target link: fine

    def test_phase2_requires_core(self):
        with pytest.raises(ConfigError, match="phase2 config must declare"):
            parse_campaign_config(minimal(phase="phase2"))

    def test_topology_splice_from_builtin(self):
        text = """
[campaign]
phase = phase2
seed = 5
topology = phase2

[attack intercept]
link = mme hss
avp_codes = location
"""
        config = parse_campaign_config(text)
        assert len(config.topology.nodes) == 5
        assert config.attacks[0].link == ("mme", "hss")
        # the spliced links are checked too: the attack box has no link to the HSS
        flood = "[attack flood]\ntarget = hss\nrate_tps = 100\nduration_s = 1\n"
        with pytest.raises(ConfigError, match="<config>:10: flood target 'hss' has no link"):
            parse_campaign_config(text + flood)

    def test_topology_splice_conflicts_with_own_nodes(self):
        text = minimal().replace("phase = custom", "phase = custom\ntopology = phase1")
        with pytest.raises(ConfigError, match="both topology"):
            parse_campaign_config(text)


# --- totality: any text is a config or a located ConfigError ---------------

_SEED_TEXTS = [
    BUILTIN_CONFIGS["phase1"],
    BUILTIN_CONFIGS["phase2"],
    FLOOD_LAB
    + "\n[attack fuzz]\ntarget = target\ncases = 3\nops = truncate\n"
    + "\n[attack intercept]\nlink = attacker target\navp_codes = location, 268\n",
    BUILTIN_CONFIGS["phase2"] + "\n[rule r1]\nsubscriber = imsi-001001000000001\n",
]
_NUMBERS = [
    "0", "1", "-1", "-0.5", "0.5", "1.5", "2", "1e400", "nan", "-inf", "99999999999999999999",
]
_WORDS = [
    "", "x", "true", "no", "attacker", "target", "hss", "attacker target", "target target",
    "AttackBox", "HSS", "PCRF", "phase1", "phase2", "custom", "truncate, bogus", "268, location",
]
_LINES = [
    "[campaign]", "[node x]", "[node target]", "[link attacker target]", "[link target attacker]",
    "[link target target]", "[link attacker ghost]", "[attack flood]", "[attack fuzz]",
    "[attack intercept]", "[attack]", "[subscriber s1]", "[rule r1]", "[node]", "[link a]",
    "kind = HSS", "target = target", "topology = phase2", "x = 1", "# c", "",
    "loss = 0.5", "protected = yes", "degraded_threshold = 0.5", "ops = flip_flag", "seed = 5",
    "watchdog_interval_s = 1", "request_timeout_s = 0.5", "qos_class = 3",
    "failure_threshold_s = 2",
]
_OPS = ["revalue"] * 5 + ["delete", "insert", "insert", "insert-text"] + ["repeat-section"] * 2


@st.composite
def config_texts(draw):
    """A working config with a few lines deleted, re-valued or inserted, or a section repeated."""
    lines = draw(st.sampled_from(_SEED_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(_OPS))
        if op == "insert" or i == len(lines):
            lines.insert(i, draw(st.sampled_from(_LINES)))
        elif op == "insert-text":
            lines.insert(i, draw(st.text(max_size=12)).replace("\n", " "))
        elif op == "delete":
            del lines[i]
        elif op == "repeat-section":
            headers = [j for j, line in enumerate(lines) if line.startswith("[")] or [i]
            start = draw(st.sampled_from(headers))
            end = next((j for j in headers if j > start), len(lines))
            lines[end:end] = lines[start:end]
        else:
            keyed = [j for j, line in enumerate(lines) if "=" in line] or [i]
            j = draw(st.sampled_from(keyed))
            key, _, value = (part.strip() for part in lines[j].partition("="))
            numeric = value.replace(".", "", 1).isdigit()
            lines[j] = f"{key or 'k'} = {draw(st.sampled_from(_NUMBERS if numeric else _WORDS))}"
    return "\n".join(lines)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(config_texts(), st.text(max_size=80)))
def test_any_config_text_is_a_config_or_a_located_error(text):
    try:
        config = parse_campaign_config(text, source="<fuzz>")
    except ConfigError as exc:
        assert str(exc).startswith("<fuzz>")
        return
    assert isinstance(config, CampaignConfig)
    # whatever parses builds (no deferred ValueError), one link per [link]
    lab = build_lab(config)
    assert len(lab.sim.links) == len(config.topology.links)


# --- every config that parses runs, repeats and conserves -------------------

# Some configs parse and then run for hours: 10^20 fuzz cases, a 10^23 us
# link latency or queue drain time, a 10^12 s request timeout. Until the
# parser bounds the work a campaign can do, the test below skips a config
# past any of these caps, each well above the built-in labs' own values.
MAX_FUZZ_CASES = 1_000
MAX_FLOOD_REQUESTS = 20_000
MAX_FLOOD_DURATION_S = 60
MAX_TIMEOUT_US = 10 * US_PER_S
MAX_LATENCY_MS = 1_000
MAX_DRAIN_US = 100 * US_PER_S


def is_runaway(config: CampaignConfig) -> bool:
    """Whether `config` is past a cap above: a pure function of the config."""
    return (
        config.request_timeout_us > MAX_TIMEOUT_US
        or any(link.latency_ms > MAX_LATENCY_MS for link in config.topology.links)
        or any(cap.drain_us > MAX_DRAIN_US for cap in config.capacities.values())
        or any(
            spec.case_count > MAX_FUZZ_CASES for spec in config.attacks if spec.kind == "fuzz"
        )
        or any(
            spec.count > MAX_FLOOD_REQUESTS or spec.duration_s > MAX_FLOOD_DURATION_S
            for spec in config.attacks if spec.kind == "flood"
        )
    )


def test_the_runaway_caps_pass_the_built_in_labs():
    assert not any(is_runaway(load_config(name)) for name in BUILTIN_CONFIGS)


def run_twice(config: CampaignConfig) -> list:
    """What each of two runs of `config` wrote, by file name, or the message
    of its setup error."""
    outputs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as out:
            try:
                run_campaign(config, out_dir=out)
            except CampaignError as exc:
                # A lossy link can lose its capabilities exchange, and the lab
                # then fails to open; any other CampaignError is a broken
                # conservation identity (campaign.broken_identities).
                assert str(exc).startswith("campaign setup failed: "), exc
                outputs.append(str(exc))
            else:
                outputs.append({path.name: path.read_bytes() for path in Path(out).iterdir()})
    return outputs


@settings(max_examples=500, deadline=None)
@given(config_texts())
@example(FLOOD_LAB.replace("latency_ms = 5", "latency_ms = 5\nloss = 0.1"))  # draws from sim.rng
def test_every_config_that_parses_runs_twice_to_the_same_files(text):
    try:
        config = parse_campaign_config(text, source="<fuzz>")
    except ConfigError:
        return
    if is_runaway(config):
        return
    first, second = run_twice(config)
    assert first == second
    assert isinstance(first, str) or {"report.json", "report.txt"} <= set(first)
