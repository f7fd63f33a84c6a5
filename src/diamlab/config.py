"""Campaign and topology configuration.

One line-oriented format covers both: `[section arg ...]` headers with
`key = value` lines underneath. Full-line comments start with `#`.
Section types: campaign, node, link, subscriber, rule, attack. Errors
always name the source and line number.

phase1 and phase2 ship as built-in configs (complete text, parsed by the
same loader as user files) so `run --config phase1` needs nothing on
disk. The seed is mandatory and has no wall-clock default: a campaign
is a pure function of its config.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, TypeVar, Union

from . import attacks
from . import dictionary as dct
from .attacks import AttackSpec, FloodSpec, FuzzSpec, InterceptSpec, MutationOp
from .codec import U32_MAX
from .elements import (
    DEFAULT_QOS_CLASS,
    ElementCapacity,
    ElementKind,
    Lab,
    PolicyRule,
    SubscriberRecord,
    first_of_kind,
)
from .peer import PeerConfig
from .simnet import US_PER_S, LinkSpec, TopologySpec
from .taxonomy import Impact, Origin, TaxonomyLabel, Technique

MAX_SEED = 2**64 - 1
# Longest node label, and longest subscriber (id, location and profile.* keys
# and values together), in UTF-8 bytes: at this bound every CER, DWR, DPR and
# every attach or profile message stays under the 2**24 - 1 byte message limit.
MAX_TEXT_BYTES = 2**20

T = TypeVar("T")


class ConfigError(ValueError):
    pass


@dataclass
class Section:
    kind: str
    args: tuple[str, ...]
    values: dict[str, str]
    line: int
    source: str
    value_lines: dict[str, int] = field(default_factory=dict)

    def error(self, message: str, key: Optional[str] = None) -> ConfigError:
        """A ConfigError located at `key`'s line, or at the section header."""
        line = self.value_lines.get(key, self.line) if key else self.line
        return ConfigError(f"{self.source}:{line}: {message}")

    def build(self, make: Callable[..., T], /, *args, **kwargs) -> T:
        """`make(*args, **kwargs)`: a value type whose ValueError is located at the header."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise self.error(str(exc)) from None


def parse_sections(text: str, source: str = "<config>") -> list[Section]:
    sections: list[Section] = []
    current: Optional[Section] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            parts = line[1:-1].split()
            if not parts:
                raise ConfigError(f"{source}:{lineno}: empty section header")
            current = Section(
                kind=parts[0], args=tuple(parts[1:]), values={}, line=lineno, source=source
            )
            sections.append(current)
            continue
        if "=" in line:
            if current is None:
                raise ConfigError(f"{source}:{lineno}: key outside any section")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise ConfigError(f"{source}:{lineno}: empty key")
            if "#" in value:
                raise ConfigError(f"{source}:{lineno}: {key}: '#' in a value (comments take whole lines)")
            if key in current.values:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            current.values[key] = value
            current.value_lines[key] = lineno
            continue
        raise ConfigError(f"{source}:{lineno}: expected section header or key = value")
    return sections


def _get_int(sec: Section, key: str, default: Optional[int] = None) -> Optional[int]:
    if key not in sec.values:
        return default
    try:
        return int(sec.values[key])
    except ValueError:
        raise sec.error(f"{key} must be an integer", key) from None


def _get_float(sec: Section, key: str, default: Optional[float] = None) -> Optional[float]:
    if key not in sec.values:
        return default
    try:
        value = float(sec.values[key])
    except ValueError:
        raise sec.error(f"{key} must be a number", key) from None
    if not math.isfinite(value):
        raise sec.error(f"{key} must be a finite number", key)
    return value


def _get_interval_us(sec: Section, key: str, default_us: int) -> int:
    """A time given in seconds, as the whole microseconds the simulation's clock waits out."""
    if key not in sec.values:
        return default_us
    us = _get_float(sec, key) * US_PER_S
    if not math.isfinite(us):
        raise sec.error(f"{key} is too large", key)
    us = round(us)
    if us < 1:
        raise sec.error(f"{key} must be at least 1 microsecond", key)
    return us


def _seed_error(seed: int) -> Optional[str]:
    """Why `seed` is refused (random.Random(-5) draws as Random(5)), or None."""
    return None if 0 <= seed <= MAX_SEED else f"seed {seed} must fit in 64 bits"


def _get_seed(sec: Section) -> Optional[int]:
    seed = _get_int(sec, "seed")
    error = None if seed is None else _seed_error(seed)
    if error:
        raise sec.error(error, "seed")
    return seed


def _get_bool(sec: Section, key: str, default: bool = False) -> bool:
    if key not in sec.values:
        return default
    value = sec.values[key].lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise sec.error(f"{key} must be true/false", key)


def _check_keys(sec: Section, known: tuple[str, ...]) -> None:
    """Refuse a key the section does not read: a misspelt key would leave its
    default in place silently. A known key ending in `*` stands for every
    key that starts with the rest of it."""
    for key in sec.values:
        if key not in known and not any(
            k.endswith("*") and key.startswith(k[:-1]) for k in known
        ):
            raise sec.error(f"unknown key {key!r} (known: {', '.join(known)})", key)


def _require(sec: Section, key: str, get: Optional[Callable] = None):
    """The value of a required key, converted by `get` (one of the `_get_*`) if given."""
    if key not in sec.values:
        raise sec.error(f"[{sec.kind}] section is missing required field {key!r}")
    return get(sec, key) if get else sec.values[key]


@dataclass(frozen=True)
class CampaignConfig:
    source: str
    phase: str
    seed: int
    output_path: str
    topology: TopologySpec
    kinds: dict[str, ElementKind]
    capacities: dict[str, ElementCapacity]
    subscribers: tuple[SubscriberRecord, ...]
    rules: tuple[PolicyRule, ...]
    attacks: tuple[AttackSpec, ...]
    watchdog_interval_us: int
    request_timeout_us: int

    def echo_dict(self) -> dict:
        """Configuration echo embedded in reports (resolved, deterministic)."""
        return {
            "source": self.source,
            "phase": self.phase,
            "seed": self.seed,
            "output": self.output_path,
            "watchdog_interval_s": self.watchdog_interval_us / US_PER_S,
            "request_timeout_s": self.request_timeout_us / US_PER_S,
            "nodes": [
                {"label": label, "kind": self.kinds[label].value, **asdict(self.capacities[label])}
                for label in self.topology.nodes
            ],
            "links": [asdict(link) for link in self.topology.links],
            "subscribers": [
                {"id": s.subscriber_id, "location": s.location, "profile": dict(s.profile)}
                for s in self.subscribers
            ],
            "attacks": [{"kind": a.kind, **ATTACK_KINDS[a.kind].echo(a)} for a in self.attacks],
        }


_KIND_NAMES = {k.value: k for k in ElementKind}
# [node] keys, named as the ElementCapacity fields they set
_CAPACITY_KEYS = (
    ("service_rate", _get_float),
    ("queue_capacity", _get_int),
    ("failure_threshold_s", _get_float),
)
_NODE_KEYS = ("kind", *(key for key, _ in _CAPACITY_KEYS))
_CORE_KINDS = {ElementKind.HSS, ElementKind.MME, ElementKind.PCRF}


# --- attack kinds ------------------------------------------------------------


@dataclass(frozen=True)
class AttackKind:
    """Everything config and campaign know about one attack kind.

    A new kind is a spec class and a runner in `attacks` plus one entry here.
    `path_error(spec, config)` names what the config forbids or the topology
    lacks for the attack to run (phase1's TargetServer rule, a link to send
    or tap on), or returns None; the parser locates it at the [attack] line.
    `run(lab, spec, seed)` returns (result, findings, capture records or
    None); `seed` is the campaign's default for a spec that sets none.
    Runners are looked up in `attacks` at call time, so a wrapper installed
    over `attacks.run_*` (a profiler, a test double) sees every call.
    """

    spec: type
    parse: Callable[[Section, dict[str, ElementKind]], AttackSpec]
    echo: Callable[[AttackSpec], dict]  # the report's config echo, less "kind"
    path_error: Callable[[AttackSpec, CampaignConfig], Optional[str]]
    run: Callable[[Lab, AttackSpec, int], tuple]
    label: Callable[[attacks.Finding], TaxonomyLabel]  # the finding's taxonomy cell


def _target(sec: Section, labels: dict[str, ElementKind]) -> str:
    target = _require(sec, "target")
    if target not in labels:
        raise sec.error(f"unknown {sec.args[0]} target {target!r}", "target")
    return target


def _parse_flood(sec: Section, labels: dict[str, ElementKind]) -> FloodSpec:
    _check_keys(sec, ("target", "rate_tps", "duration_s", "degraded_threshold"))
    return sec.build(
        FloodSpec,
        target=_target(sec, labels),
        rate_tps=_require(sec, "rate_tps", _get_float),
        duration_s=_require(sec, "duration_s", _get_float),
        degraded_answer_ratio=_get_float(
            sec, "degraded_threshold", FloodSpec.degraded_answer_ratio
        ),
    )


def _parse_intercept(sec: Section, labels: dict[str, ElementKind]) -> InterceptSpec:
    _check_keys(sec, ("link", "avp_codes"))
    link_value = _require(sec, "link").split()
    if len(link_value) != 2:
        raise sec.error("link must name two nodes", "link")
    for label in link_value:
        if label not in labels:
            raise sec.error(f"unknown node {label!r}", "link")
    codes = []
    code_for_name = dct.BUILTIN_DICTIONARY.code_for_name
    for item in _require(sec, "avp_codes").split(","):
        item = item.strip()
        # isascii: str.isdigit() also accepts digits that int() refuses, such as "²"
        code = int(item) if item.isascii() and item.isdigit() else code_for_name(item)
        if code is None:
            raise sec.error(f"unknown AVP name {item!r}", "avp_codes")
        if code > U32_MAX:
            raise sec.error(f"AVP code {code} is above {U32_MAX}", "avp_codes")
        codes.append(code)
    return InterceptSpec(link=(link_value[0], link_value[1]), avp_codes=tuple(codes))


def _parse_fuzz(sec: Section, labels: dict[str, ElementKind]) -> FuzzSpec:
    _check_keys(sec, ("target", "ops", "cases", "seed"))
    target = _target(sec, labels)
    ops: tuple[MutationOp, ...] = FuzzSpec.ops
    if "ops" in sec.values:
        names = [o.strip() for o in sec.values["ops"].split(",") if o.strip()]
        try:
            ops = tuple(MutationOp(name) for name in names)
        except ValueError as exc:
            raise sec.error(str(exc), "ops") from None
    cases = _require(sec, "cases", _get_int)
    seed = _get_seed(sec)
    return sec.build(FuzzSpec, target=target, case_count=cases, ops=ops, seed=seed)


def _linked(config: CampaignConfig, a: Optional[str], b: Optional[str]) -> bool:
    return any({link.a, link.b} == {a, b} for link in config.topology.links)


def _sent_from_attack_box(spec: FloodSpec | FuzzSpec, config: CampaignConfig) -> Optional[str]:
    if config.phase == "phase1" and config.kinds[spec.target] is not ElementKind.TARGET_SERVER:
        return f"phase1 permits only TargetServer-directed attacks (got {spec.target!r})"
    box = first_of_kind(config.kinds, ElementKind.ATTACK_BOX)
    if box is None:
        return f"{spec.kind} needs an AttackBox node to send from"
    if spec.target == box:
        return f"{spec.kind} target {box!r} is the attack box it would be sent from"
    if not _linked(config, box, spec.target):
        return f"{spec.kind} target {spec.target!r} has no link to the attack box {box!r}"
    return None


def _intercept_path_error(spec: InterceptSpec, config: CampaignConfig) -> Optional[str]:
    """The tapped link must exist (in phase1, at a TargetServer), and so must
    the links of the attach traffic that `Lab.scenario_traffic` runs for an
    MME with subscribers."""
    a, b = spec.link
    kinds = config.kinds
    if config.phase == "phase1" and ElementKind.TARGET_SERVER not in (kinds[a], kinds[b]):
        return "phase1 intercepts must tap a TargetServer link"
    if not _linked(config, a, b):
        return f"intercept link {a!r} <-> {b!r} is not a declared link"
    mme = first_of_kind(config.kinds, ElementKind.MME)
    if mme is None or not config.subscribers:
        return None
    for kind in (ElementKind.HSS, ElementKind.PCRF):
        if not _linked(config, mme, first_of_kind(config.kinds, kind)):
            return (
                f"intercept traffic attaches subscribers through MME {mme!r},"
                f" which has no link to a node of kind {kind.value}"
            )
    return None


def _run_fuzz(lab: Lab, spec: FuzzSpec, seed: int):
    if spec.seed is None:
        spec = replace(spec, seed=seed)
    return (*attacks.run_fuzz(lab, spec), None)


def _fuzz_label(finding: attacks.Finding) -> TaxonomyLabel:
    crash = finding.evidence.get("finding_type") == "crash"
    impact = Impact.AVAILABILITY if crash else Impact.INTEGRITY
    return TaxonomyLabel(Origin.EXTERNAL_INTERCONNECT, Technique.MALFORMED_MESSAGE, impact)


ATTACK_KINDS: dict[str, AttackKind] = {
    entry.spec.kind: entry
    for entry in (
        AttackKind(
            spec=FloodSpec,
            parse=_parse_flood,
            echo=lambda spec: {
                "target": spec.target,
                "rate_tps": spec.rate_tps,
                "duration_s": spec.duration_s,
                "degraded_answer_ratio": spec.degraded_answer_ratio,
            },
            path_error=_sent_from_attack_box,
            run=lambda lab, spec, seed: (*attacks.run_flood(lab, spec), None),
            label=lambda finding: TaxonomyLabel(
                Origin.EXTERNAL_INTERCONNECT, Technique.FLOODING, Impact.AVAILABILITY
            ),
        ),
        AttackKind(
            spec=InterceptSpec,
            parse=_parse_intercept,
            echo=lambda spec: {"link": list(spec.link), "avp_codes": list(spec.avp_codes)},
            path_error=_intercept_path_error,
            run=lambda lab, spec, seed: attacks.run_intercept(lab, spec),
            label=lambda finding: TaxonomyLabel(
                Origin.EXTERNAL_INTERCONNECT, Technique.INTERCEPTION, Impact.CONFIDENTIALITY
            ),
        ),
        AttackKind(
            spec=FuzzSpec,
            parse=_parse_fuzz,
            echo=lambda spec: {
                "target": spec.target,
                "cases": spec.case_count,
                "ops": [op.value for op in spec.ops],
                "seed": spec.seed,
            },
            path_error=_sent_from_attack_box,
            run=_run_fuzz,
            label=_fuzz_label,
        ),
    )
}


def _parse_attack(sec: Section, labels: dict[str, ElementKind]) -> AttackSpec:
    if len(sec.args) != 1:
        raise sec.error("[attack] needs exactly one kind argument")
    entry = ATTACK_KINDS.get(sec.args[0])
    if entry is None:
        raise sec.error(f"unknown attack kind {sec.args[0]!r}")
    return entry.parse(sec, labels)


def parse_campaign_config(
    text: str,
    source: str = "<config>",
    *,
    seed_override: Optional[int] = None,
) -> CampaignConfig:
    sections = parse_sections(text, source)
    campaign_secs = [s for s in sections if s.kind == "campaign"]
    if len(campaign_secs) != 1:
        raise ConfigError(f"{source}: expected exactly one [campaign] section")
    camp = campaign_secs[0]
    _check_keys(
        camp,
        ("phase", "seed", "output", "topology", "watchdog_interval_s", "request_timeout_s"),
    )
    phase = _require(camp, "phase")
    if phase not in ("phase1", "phase2", "custom"):
        raise camp.error("phase must be phase1/phase2/custom", "phase")
    if seed_override is not None:
        seed, error = seed_override, _seed_error(seed_override)
        if error:
            raise ConfigError(f"--seed: {error}")  # the CLI flag that sets the override
    else:
        seed = _get_seed(camp)
        if seed is None:
            raise camp.error(
                "[campaign] section is missing required field 'seed'"
                " (campaigns are reproducible; there is no wall-clock default)"
            )
    output_path = camp.values.get("output", "campaign-out")
    if not output_path:  # an empty path would write the report into the working directory
        raise camp.error("output must be a non-empty path", "output")

    # `topology = <builtin>` splices the named built-in's topology sections.
    if "topology" in camp.values:
        name = camp.values["topology"]
        if name not in BUILTIN_CONFIGS:
            raise camp.error(f"unknown built-in {name!r}", "topology")
        if any(s.kind in ("node", "link", "subscriber", "rule") for s in sections):
            raise camp.error(
                f"config declares both topology={name} and its own topology sections", "topology"
            )
        spliced = parse_sections(BUILTIN_CONFIGS[name], source=f"<builtin:{name}>")
        sections = sections + [
            s for s in spliced if s.kind in ("node", "link", "subscriber", "rule")
        ]

    # Labelled sections are keyed by label (node order is insertion order),
    # so each uniqueness rule is one lookup.
    kinds: dict[str, ElementKind] = {}
    capacities: dict[str, ElementCapacity] = {}
    links: list[LinkSpec] = []
    link_lines: dict[frozenset[str], int] = {}  # endpoint pair -> line of its [link]
    subscribers: dict[str, SubscriberRecord] = {}
    rules: dict[str, PolicyRule] = {}

    for sec in sections:
        if sec.kind == "campaign":
            continue
        if sec.kind == "node":
            if len(sec.args) != 1:
                raise sec.error("[node] needs exactly one label")
            label = sec.args[0]
            if len(label.encode()) > MAX_TEXT_BYTES:
                raise sec.error(f"node label is longer than {MAX_TEXT_BYTES} UTF-8 bytes")
            if label in kinds:
                raise sec.error(f"duplicate node label {label!r}")
            _check_keys(sec, _NODE_KEYS)
            kind_name = _require(sec, "kind")
            if kind_name not in _KIND_NAMES:
                raise sec.error(f"unknown element kind {kind_name!r}", "kind")
            kinds[label] = _KIND_NAMES[kind_name]
            given = {key: get(sec, key) for key, get in _CAPACITY_KEYS if key in sec.values}
            capacities[label] = sec.build(ElementCapacity, **given)  # its defaults fill the rest
        elif sec.kind == "link":
            if len(sec.args) != 2:
                raise sec.error("[link] needs two node labels")
            a, b = sec.args
            for label in (a, b):
                if label not in kinds:
                    raise sec.error(f"link endpoint {label!r} is not a declared node")
            if a == b:
                raise sec.error(f"link {a!r} <-> {b!r} joins a node to itself")
            pair = frozenset((a, b))
            if pair in link_lines:
                raise sec.error(
                    f"duplicate link between {a!r} and {b!r}"
                    f" (first declared on line {link_lines[pair]})"
                )
            link_lines[pair] = sec.line
            _check_keys(sec, ("latency_ms", "loss", "protected"))
            latency_ms = _get_float(sec, "latency_ms", LinkSpec.latency_ms)
            loss = _get_float(sec, "loss", LinkSpec.loss_probability)
            protected = _get_bool(sec, "protected", LinkSpec.protected)
            links.append(sec.build(LinkSpec, a, b, latency_ms, loss, protected))
        elif sec.kind == "subscriber":
            if len(sec.args) != 1:
                raise sec.error("[subscriber] needs one id argument")
            sid = sec.args[0]
            if sid in subscribers:
                raise sec.error(f"duplicate subscriber {sid!r}")
            _check_keys(sec, ("location", "profile.*"))
            location = _require(sec, "location")
            given = {key: value for key, value in sec.values.items() if key.startswith("profile.")}
            written = "".join((sid, location, *given, *given.values()))
            if len(written.encode()) > MAX_TEXT_BYTES:
                raise sec.error(
                    "subscriber id, location and profile.* keys and values are longer"
                    f" than {MAX_TEXT_BYTES} UTF-8 bytes"
                )
            profile = {key[len("profile.") :]: value for key, value in given.items()}
            subscribers[sid] = SubscriberRecord(sid, location, profile)
        elif sec.kind == "rule":
            if len(sec.args) != 1:
                raise sec.error("[rule] needs one id argument")
            rule_id = sec.args[0]
            if rule_id in rules:
                raise sec.error(f"duplicate rule {rule_id!r}")
            _check_keys(sec, ("subscriber", "qos_class"))
            rules[rule_id] = PolicyRule(
                rule_id=rule_id,
                subscriber_id=_require(sec, "subscriber"),
                qos_class=_get_int(sec, "qos_class", DEFAULT_QOS_CLASS),
            )
        elif sec.kind == "attack":
            pass  # handled below, in order, after labels are known
        else:
            raise sec.error(f"unknown section kind {sec.kind!r}")

    attack_secs = [s for s in sections if s.kind == "attack"]
    config = CampaignConfig(
        source=source,
        phase=phase,
        seed=seed,
        output_path=output_path,
        topology=TopologySpec(nodes=tuple(kinds), links=tuple(links)),
        kinds=kinds,
        capacities=capacities,
        subscribers=tuple(subscribers.values()),
        rules=tuple(rules.values()),
        attacks=tuple(_parse_attack(s, kinds) for s in attack_secs),
        watchdog_interval_us=_get_interval_us(
            camp, "watchdog_interval_s", PeerConfig.watchdog_interval_us
        ),
        request_timeout_us=_get_interval_us(camp, "request_timeout_s", 2 * US_PER_S),
    )
    _validate_phase(config)
    for sec, spec in zip(attack_secs, config.attacks):
        error = ATTACK_KINDS[spec.kind].path_error(spec, config)
        if error:
            raise sec.error(error)
    return config


def _validate_phase(config: CampaignConfig) -> None:
    """The phase's node rules; its attack rule is part of each kind's `path_error`."""
    source = config.source
    if not config.topology.nodes:
        raise ConfigError(f"{source}: config declares no nodes")
    present = set(config.kinds.values())
    if config.phase == "phase1":
        illegal = present & _CORE_KINDS
        if illegal:
            names = ", ".join(sorted(k.value for k in illegal))
            raise ConfigError(f"{source}: phase1 config may not declare core elements ({names})")
    if config.phase == "phase2":
        missing = _CORE_KINDS - present
        if missing:
            names = ", ".join(sorted(k.value for k in missing))
            raise ConfigError(f"{source}: phase2 config must declare {names}")


PHASE1_CONFIG = """\
# Built-in phase1 lab: one attack box, one standalone target server.
[campaign]
phase = phase1
seed = 1
output = phase1-out

[node attacker]
kind = AttackBox

[node target]
kind = TargetServer
service_rate = 1000
queue_capacity = 100

[link attacker target]
latency_ms = 5

[attack fuzz]
target = target
cases = 1000

[attack flood]
target = target
rate_tps = 800
duration_s = 5
"""

PHASE2_CONFIG = """\
# Built-in phase2 lab: attack box, target server, and the simulated core
# (HSS, MME, PCRF) carrying attach traffic for three subscribers.
[campaign]
phase = phase2
seed = 2
output = phase2-out

[node attacker]
kind = AttackBox

[node target]
kind = TargetServer
service_rate = 1000
queue_capacity = 100
failure_threshold_s = 5

[node hss]
kind = HSS
service_rate = 500
queue_capacity = 50

[node mme]
kind = MME

[node pcrf]
kind = PCRF
service_rate = 500
queue_capacity = 50

[link attacker target]
latency_ms = 5

[link mme hss]
latency_ms = 10

[link mme pcrf]
latency_ms = 10

[subscriber imsi-001001000000001]
location = tracking-area-7
profile.tier = gold

[subscriber imsi-001001000000002]
location = tracking-area-12
profile.tier = silver

[subscriber imsi-001001000000003]
location = tracking-area-9
profile.tier = bronze

[attack intercept]
link = mme hss
avp_codes = location

[attack flood]
target = target
rate_tps = 2000
duration_s = 10
"""

BUILTIN_CONFIGS: dict[str, str] = {
    "phase1": PHASE1_CONFIG,
    "phase2": PHASE2_CONFIG,
}


def load_config(
    path_or_name: Union[str, Path],
    *,
    seed_override: Optional[int] = None,
) -> CampaignConfig:
    """Load a campaign config from a built-in name or a file path.

    The seed is part of the experiment, so overriding it changes the
    resulting report; where the report gets written is not, which is why
    there is no output override here (pass out_dir to run_campaign).
    """
    name = str(path_or_name)
    if name in BUILTIN_CONFIGS:
        return parse_campaign_config(
            BUILTIN_CONFIGS[name], source=name, seed_override=seed_override
        )
    path = Path(path_or_name)
    if not path.exists():
        raise ConfigError(f"no such config file or built-in: {name}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    return parse_campaign_config(text, source=str(path), seed_override=seed_override)
