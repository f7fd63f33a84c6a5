"""Static determinism guard: a campaign is a pure function of its config,
so no module of diamlab may read the clock, the environment or an
unseeded random source. The guard reads each module's syntax tree and
refuses any import of `time`, `datetime`, `os`, `uuid` or `secrets`, any
use of `random` other than a seeded `random.Random(<expr>)`, and any call
of the builtins `hash` and `id`, whose values change with the process
(`PYTHONHASHSEED`, object addresses)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "diamlab"
FORBIDDEN = {"time", "datetime", "os", "uuid", "secrets"}
PER_PROCESS_BUILTINS = {"hash", "id"}


def violations(source: str) -> list[str]:
    """Each forbidden import, use of `random` or call of a per-process
    builtin in `source`, as "line N: what"."""
    tree = ast.parse(source)
    found = []
    seeded = set()  # the `random` names of `random.Random(<expr>)` calls
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                if top in FORBIDDEN or (top == "random" and (alias.name, alias.asname) != (top, None)):
                    found.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top = node.module.partition(".")[0]
            if top in FORBIDDEN or top == "random":
                found.append(f"line {node.lineno}: from {node.module} import")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in PER_PROCESS_BUILTINS:
                found.append(f"line {node.lineno}: {func.id}() call")
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "Random"
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and len(node.args) == 1
                and not isinstance(node.args[0], ast.Starred)
                and not node.keywords
            ):
                seeded.add(func.value)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "random" and node not in seeded:
            found.append(f"line {node.lineno}: random used other than as random.Random(<expr>)")
    return found


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda path: path.name)
def test_module_reads_no_clock_environment_or_unseeded_randomness(path):
    assert violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "import time",
        "import os.path",
        "import datetime, json",
        "import uuid as ids",
        "from secrets import token_bytes",
        "from datetime import datetime",
        "import random as rnd",
        "from random import Random",
        "import random\nrandom.random()",
        "import random\nrandom.Random()",
        "import random\nrandom.Random(*seeds)",
        "import random\nrng = random",
        "import random\nrng = random.Random(hash('diamlab'))",
        "key = id(message)",
        "seen = {hash(x) for x in xs}",
    ],
)
def test_guard_refuses(source):
    assert violations(source)


def test_guard_allows_a_seeded_generator():
    assert violations("import random\nrng = random.Random(seed * 2)\nrng.shuffle(xs)\n") == []


def test_guard_allows_hash_and_id_as_attributes():
    assert violations("digest = sha.hash()\nkey = node.id\nmsg.hash_id(peer.id)\n") == []
