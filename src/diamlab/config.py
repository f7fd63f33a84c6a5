"""Campaign and topology configuration.

One line-oriented format covers both: `[section arg ...]` headers with
`key = value` lines underneath. Full-line comments start with `#`.
Section types: campaign, node, link, subscriber, rule, attack; each reads
its keys through one key table (a `Schema`). Errors always name the
source and line number.

phase1 and phase2 ship as built-in configs (complete text, parsed by the
same loader as user files) so `run --config phase1` needs nothing on
disk. The seed is mandatory and has no wall-clock default: a campaign
is a pure function of its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Optional, TypeVar, Union

from . import attacks
from . import dictionary as dct
from .attacks import AttackSpec, FloodSpec, FuzzSpec, InterceptSpec, MutationOp
from .codec import U32_MAX
from .elements import ElementCapacity, ElementKind, Lab, PolicyRule, SubscriberRecord, first_of_kind
from .peer import PeerConfig
from .simnet import US_PER_S, LinkSpec, TopologySpec

MAX_SEED = 2**64 - 1
# Longest node label, and longest subscriber (id, location and profile.* keys
# and values together), in UTF-8 bytes: at this bound every CER, DWR, DPR and
# every attach or profile message stays under the 2**24 - 1 byte message limit.
MAX_TEXT_BYTES = 2**20

T = TypeVar("T")
Labels = dict[str, ElementKind]  # node label -> kind, in node order
_KIND_NAMES = {k.value: k for k in ElementKind}


class ConfigError(ValueError):
    pass


def _seed_error(seed: int) -> Optional[str]:
    """Why `seed` is refused (random.Random(-5) draws as Random(5)), or None."""
    return None if 0 <= seed <= MAX_SEED else f"seed {seed} must fit in 64 bits"


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

    # The readers a key table names: each turns the text of `key`, which the
    # section sets, into the value of the key's field, or raises a
    # ConfigError located at the key's line. `labels` are the nodes so far.

    def get_text(self, key: str, labels: Labels) -> str:
        return self.values[key]

    def get_int(self, key: str, labels: Labels) -> int:
        try:
            return int(self.values[key])
        except ValueError:
            raise self.error(f"{key} must be an integer", key) from None

    def get_float(self, key: str, labels: Labels) -> float:
        try:
            value = float(self.values[key])
        except ValueError:
            raise self.error(f"{key} must be a number", key) from None
        if not math.isfinite(value):
            raise self.error(f"{key} must be a finite number", key)
        return value

    def get_bool(self, key: str, labels: Labels) -> bool:
        value = self.values[key].lower()
        if value in ("true", "yes", "1"):
            return True
        if value in ("false", "no", "0"):
            return False
        raise self.error(f"{key} must be true/false", key)

    def get_interval_us(self, key: str, labels: Labels) -> int:
        """A time given in seconds, as the whole microseconds the simulation's clock waits out."""
        us = self.get_float(key, labels) * US_PER_S
        if not math.isfinite(us):
            raise self.error(f"{key} is too large", key)
        us = round(us)
        if us < 1:
            raise self.error(f"{key} must be at least 1 microsecond", key)
        return us

    def get_seed(self, key: str, labels: Labels) -> int:
        seed = self.get_int(key, labels)
        error = _seed_error(seed)
        if error:
            raise self.error(error, key)
        return seed

    def get_phase(self, key: str, labels: Labels) -> str:
        if self.values[key] not in ("phase1", "phase2", "custom"):
            raise self.error(f"{key} must be phase1/phase2/custom", key)
        return self.values[key]

    def get_path(self, key: str, labels: Labels) -> str:
        if not self.values[key]:  # an empty path would write the report into the working directory
            raise self.error(f"{key} must be a non-empty path", key)
        return self.values[key]

    def get_builtin(self, key: str, labels: Labels) -> str:
        if self.values[key] not in BUILTIN_CONFIGS:
            raise self.error(f"unknown built-in {self.values[key]!r}", key)
        return self.values[key]

    def get_kind(self, key: str, labels: Labels) -> ElementKind:
        if self.values[key] not in _KIND_NAMES:
            raise self.error(f"unknown element kind {self.values[key]!r}", key)
        return _KIND_NAMES[self.values[key]]

    def get_profile(self, key: str, labels: Labels) -> dict[str, str]:
        prefix = key[:-1]  # every key that starts with it, named by the rest of its name
        return {k[len(prefix) :]: v for k, v in self.values.items() if k.startswith(prefix)}

    def get_target(self, key: str, labels: Labels) -> str:
        if self.values[key] not in labels:
            raise self.error(f"unknown {self.args[0]} target {self.values[key]!r}", key)
        return self.values[key]

    def get_link(self, key: str, labels: Labels) -> tuple[str, str]:
        ends = self.values[key].split()
        if len(ends) != 2:
            raise self.error(f"{key} must name two nodes", key)
        for label in ends:
            if label not in labels:
                raise self.error(f"unknown node {label!r}", key)
        return (ends[0], ends[1])

    def get_avp_codes(self, key: str, labels: Labels) -> tuple[int, ...]:
        codes = []
        code_for_name = dct.BUILTIN_DICTIONARY.code_for_name
        for item in self.values[key].split(","):
            item = item.strip()
            # isascii: str.isdigit() also accepts digits that int() refuses, such as "²"
            code = int(item) if item.isascii() and item.isdigit() else code_for_name(item)
            if code is None:
                raise self.error(f"unknown AVP name {item!r}", key)
            if code > U32_MAX:
                raise self.error(f"AVP code {code} is above {U32_MAX}", key)
            codes.append(code)
        return tuple(codes)

    def get_ops(self, key: str, labels: Labels) -> tuple[MutationOp, ...]:
        try:
            return tuple(MutationOp(o.strip()) for o in self.values[key].split(",") if o.strip())
        except ValueError as exc:
            raise self.error(str(exc), key) from None


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


def _seconds(us: int) -> float:
    return us / US_PER_S


# --- key tables --------------------------------------------------------------


@dataclass(frozen=True)
class Key:
    """A key table's row: config key `name` (`x.*` stands for every `x.<rest>` key)
    sets value-type field `field` to `read(section, name, labels)`. A key
    left out leaves the field's default, or is an error if `required` (for
    the reason `why`). The config echo shows `show(value)` under `echo`
    or else `name`."""

    name: str
    field: str
    read: Callable[[Section, str, Labels], object]
    required: bool = False
    echo: str = ""
    show: Optional[Callable[[object], object]] = None
    why: str = ""


class Schema:
    """A section kind's key table, over the value type whose fields its rows
    set. Rows are read, and listed as known keys, in row order; the echo
    follows the value type's field order."""

    def __init__(self, type_: type, *rows: Key):
        self.type = type_
        self.rows = rows
        self._names = frozenset(key.name for key in rows if not key.name.endswith("*"))
        self._prefixes = tuple(key.name[:-1] for key in rows if key.name.endswith("*"))
        self._known = ", ".join(key.name for key in rows)
        self._echoed = [
            (key.echo or key.name, key.field, key.show)
            for f in fields(type_) for key in rows if key.field == f.name
        ]

    def read(self, sec: Section, labels: Labels, **given: object) -> dict[str, object]:
        """`given`, and the fields of the rows that `sec` sets. A key the table
        lacks is refused: a misspelling would leave a default in place."""
        values = sec.values
        for name in values:
            if name not in self._names and not any(
                name.startswith(p) and name[len(p) :] not in ("", "*") for p in self._prefixes
            ):
                raise sec.error(f"unknown key {name!r} (known: {self._known})", name)
        for key in self.rows:
            if key.name in values or key.name.endswith("*"):
                given[key.field] = key.read(sec, key.name, labels)
            elif key.required:
                why = f" ({key.why})" if key.why else ""
                raise sec.error(f"[{sec.kind}] section is missing required field {key.name!r}{why}")
        return given

    def echo(self, value: object) -> dict:
        return {
            name: show(getattr(value, field)) if show else getattr(value, field)
            for name, field, show in self._echoed
        }


@dataclass(frozen=True, kw_only=True)
class CampaignConfig:
    source: str
    phase: str
    seed: int
    output_path: str = "campaign-out"
    topology: TopologySpec
    kinds: Labels
    capacities: dict[str, ElementCapacity]
    subscribers: tuple[SubscriberRecord, ...]
    rules: tuple[PolicyRule, ...]
    attacks: tuple[AttackSpec, ...]
    watchdog_interval_us: int = PeerConfig.watchdog_interval_us
    request_timeout_us: int = 2 * US_PER_S

    def echo_dict(self) -> dict:
        """Configuration echo embedded in reports (resolved, deterministic)."""
        return {
            "source": self.source,
            **_CAMPAIGN.echo(self),
            "nodes": [
                {"label": label, "kind": kind.value, **_NODE.echo(self.capacities[label])}
                for label, kind in self.kinds.items()
            ],
            "links": [{"a": link.a, "b": link.b, **_LINK.echo(link)} for link in self.topology.links],
            "subscribers": [{"id": s.subscriber_id, **_SUBSCRIBER.echo(s)} for s in self.subscribers],
            "attacks": [{"kind": a.kind, **ATTACK_KINDS[a.kind].keys.echo(a)} for a in self.attacks],
        }


_NO_WALL_CLOCK = "campaigns are reproducible; there is no wall-clock default"
_CAMPAIGN = Schema(
    CampaignConfig,
    Key("phase", "phase", Section.get_phase, required=True),
    Key("seed", "seed", Section.get_seed, required=True, why=_NO_WALL_CLOCK),
    Key("output", "output_path", Section.get_path),
    # the built-in whose topology sections are spliced in
    Key("topology", "splice", Section.get_builtin),
    Key("watchdog_interval_s", "watchdog_interval_us", Section.get_interval_us, show=_seconds),
    Key("request_timeout_s", "request_timeout_us", Section.get_interval_us, show=_seconds),
)
# `kind` sets no ElementCapacity field: the node's kind is kept apart, in CampaignConfig.kinds
_NODE = Schema(
    ElementCapacity,
    Key("kind", "kind", Section.get_kind, required=True),
    Key("service_rate", "service_rate", Section.get_float),
    Key("queue_capacity", "queue_capacity", Section.get_int),
    Key("failure_threshold_s", "failure_threshold_s", Section.get_float),
)
_LINK = Schema(
    LinkSpec,
    Key("latency_ms", "latency_ms", Section.get_float),
    Key("loss", "loss_probability", Section.get_float, echo="loss_probability"),
    Key("protected", "protected", Section.get_bool),
)
_SUBSCRIBER = Schema(
    SubscriberRecord,
    Key("location", "location", Section.get_text, required=True),
    Key("profile.*", "profile", Section.get_profile, echo="profile", show=dict),
)
_RULE = Schema(
    PolicyRule,
    Key("subscriber", "subscriber_id", Section.get_text, required=True),
    Key("qos_class", "qos_class", Section.get_int),
)
_CORE_KINDS = {ElementKind.HSS, ElementKind.MME, ElementKind.PCRF}
_TOPOLOGY_KINDS = ("node", "link", "subscriber", "rule")  # the sections a built-in splices in


# --- attack kinds ------------------------------------------------------------


@dataclass(frozen=True)
class AttackKind:
    """Everything config and campaign know about one attack kind.

    A new kind is a spec class and a runner in `attacks` plus one entry here.
    `keys` is the key table of its [attack] section, over its spec class.
    `path_error(spec, config)` names what the config forbids or the topology
    lacks for the attack to run (phase1's TargetServer rule, a link to send
    or tap on), or returns None; the parser locates it at the [attack] line.
    `run(lab, spec, seed)` returns (result, findings, capture records or
    None); `seed` is the campaign's default for a spec that sets none. The
    runner labels each finding with its taxonomy cell.
    Runners are looked up in `attacks` at call time, so a wrapper installed
    over `attacks.run_*` (a profiler, a test double) sees every call.
    """

    keys: Schema
    path_error: Callable[[AttackSpec, CampaignConfig], Optional[str]]
    run: Callable[[Lab, AttackSpec, int], tuple]


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


ATTACK_KINDS: dict[str, AttackKind] = {
    entry.keys.type.kind: entry
    for entry in (
        AttackKind(
            keys=Schema(
                FloodSpec,
                Key("target", "target", Section.get_target, required=True),
                Key("rate_tps", "rate_tps", Section.get_float, required=True),
                Key("duration_s", "duration_s", Section.get_float, required=True),
                Key(
                    "degraded_threshold", "degraded_answer_ratio", Section.get_float,
                    echo="degraded_answer_ratio",
                ),
            ),
            path_error=_sent_from_attack_box,
            run=lambda lab, spec, seed: (*attacks.run_flood(lab, spec), None),
        ),
        AttackKind(
            keys=Schema(
                InterceptSpec,
                Key("link", "link", Section.get_link, required=True, show=list),
                Key("avp_codes", "avp_codes", Section.get_avp_codes, required=True, show=list),
            ),
            path_error=_intercept_path_error,
            run=lambda lab, spec, seed: attacks.run_intercept(lab, spec),
        ),
        AttackKind(
            keys=Schema(
                FuzzSpec,
                Key("target", "target", Section.get_target, required=True),
                Key("ops", "ops", Section.get_ops, show=lambda ops: [op.value for op in ops]),
                Key("cases", "case_count", Section.get_int, required=True),
                Key("seed", "seed", Section.get_seed),
            ),
            path_error=_sent_from_attack_box,
            run=_run_fuzz,
        ),
    )
}


def _parse_attack(sec: Section, labels: Labels) -> AttackSpec:
    if len(sec.args) != 1:
        raise sec.error("[attack] needs exactly one kind argument")
    entry = ATTACK_KINDS.get(sec.args[0])
    if entry is None:
        raise sec.error(f"unknown attack kind {sec.args[0]!r}")
    return sec.build(entry.keys.type, **entry.keys.read(sec, labels))


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
    if seed_override is not None and (error := _seed_error(seed_override)):
        raise ConfigError(f"--seed: {error}")  # the CLI flag that sets the override
    given = _CAMPAIGN.read(camp, {})
    if seed_override is not None:  # in place of the text's seed, which its row has checked
        given["seed"] = seed_override

    # `topology = <builtin>` splices the named built-in's topology sections.
    name = given.pop("splice", None)
    if name is not None:
        if any(s.kind in _TOPOLOGY_KINDS for s in sections):
            raise camp.error(
                f"config declares both topology={name} and its own topology sections", "topology"
            )
        spliced = parse_sections(BUILTIN_CONFIGS[name], source=f"<builtin:{name}>")
        sections = sections + [s for s in spliced if s.kind in _TOPOLOGY_KINDS]

    # Labelled sections are keyed by label (node order is insertion order),
    # so each uniqueness rule is one lookup.
    kinds: Labels = {}
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
            node = _NODE.read(sec, kinds)
            kinds[label] = node.pop("kind")
            capacities[label] = sec.build(ElementCapacity, **node)
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
            links.append(sec.build(LinkSpec, **_LINK.read(sec, kinds, a=a, b=b)))
        elif sec.kind == "subscriber":
            if len(sec.args) != 1:
                raise sec.error("[subscriber] needs one id argument")
            sid = sec.args[0]
            if sid in subscribers:
                raise sec.error(f"duplicate subscriber {sid!r}")
            record = SubscriberRecord(**_SUBSCRIBER.read(sec, kinds, subscriber_id=sid))
            # the location and profile.* values, and the profile.* keys
            profile_keys = (key for key in sec.values if key != "location")
            written = "".join((sid, *sec.values.values(), *profile_keys))
            if len(written.encode()) > MAX_TEXT_BYTES:
                raise sec.error(
                    "subscriber id, location and profile.* keys and values are longer"
                    f" than {MAX_TEXT_BYTES} UTF-8 bytes"
                )
            subscribers[sid] = record
        elif sec.kind == "rule":
            if len(sec.args) != 1:
                raise sec.error("[rule] needs one id argument")
            rule_id = sec.args[0]
            if rule_id in rules:
                raise sec.error(f"duplicate rule {rule_id!r}")
            rules[rule_id] = PolicyRule(**_RULE.read(sec, kinds, rule_id=rule_id))
        elif sec.kind == "attack":
            pass  # handled below, in order, after labels are known
        else:
            raise sec.error(f"unknown section kind {sec.kind!r}")

    attack_secs = [s for s in sections if s.kind == "attack"]
    config = CampaignConfig(
        source=source,
        topology=TopologySpec(nodes=tuple(kinds), links=tuple(links)),
        kinds=kinds,
        capacities=capacities,
        subscribers=tuple(subscribers.values()),
        rules=tuple(rules.values()),
        attacks=tuple(_parse_attack(s, kinds) for s in attack_secs),
        **given,
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
