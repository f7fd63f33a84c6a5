"""Hot-path guard: the functions that run per event, per fuzz case, per
message decoded or per link brought up read no Enum member through its
class and call no `dataclasses.replace`.

On CPython 3.11 EnumType defines __getattr__, so a read such as
`Phase.OPEN` goes through a Python-level slot hook (120-160 ns, against
~15 ns for a module name), and `replace` rebuilds its value through the
class's keyword constructor, microseconds a call. Each module binds the
members its hot paths read to module names instead. The guard reads each
function's bytecode with `dis`, the code nested in it (a closure, a
generator expression) included, and resolves each chain of global and
attribute reads that starts at a module-level name.
"""

import builtins
import dataclasses
import dis
from enum import Enum, EnumType
from types import CodeType, ModuleType

import pytest

from diamlab import attacks, codec, elements, peer, simnet

HOT_PATHS = [
    peer.handle_event,
    elements.Element.on_message,
    elements.Element.feed_event,
    elements.Element._execute,
    elements.Element._watchdog,
    elements.Element._sample,
    # a flood's request, from its send to its answer counted
    attacks._FloodDriver.send,
    attacks._FloodDriver._count_answer,
    elements.Element.send_app_request,
    elements.Element.admit,
    elements.Element._drain,
    elements.Element._serve,
    # each kind's application handler, which _serve calls
    elements.Application.handle_request,
    elements.EchoApplication.handle_request,
    elements.HssApplication.handle_request,
    elements.PcrfApplication.handle_request,
    codec.replace_ids,
    codec.build_answer,
    simnet.Simulation.send,
    simnet.Simulation.schedule_timer,
    simnet.Simulation.run_until,
    codec.decode_message,
    codec._decode_avps,
    codec.validate_message,
    attacks.mutate,
    *attacks._MUTATORS.values(),
    attacks.run_fuzz,  # with its judge and on_answer
    elements.Lab.build.__func__,
    elements.Lab.bring_links_open,
]

_UNKNOWN = object()  # a value the guard does not resolve


def refused_reads(function) -> list[str]:
    """Each read of a member through an Enum class, and each read of
    `dataclasses.replace`, in `function`'s code and the code nested in it,
    as "function line N: what"."""
    namespace = function.__globals__
    found = []

    def walk(code: CodeType) -> None:
        previous = _UNKNOWN  # the value the instruction before pushed, when resolved
        for ins in dis.get_instructions(code):
            value = _UNKNOWN
            if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
                value = namespace.get(ins.argval, vars(builtins).get(ins.argval, _UNKNOWN))
            elif ins.opname in ("LOAD_ATTR", "LOAD_METHOD") and isinstance(
                previous, (ModuleType, type)
            ):
                if isinstance(previous, EnumType):
                    found.append(
                        f"{code.co_qualname} line {ins.positions.lineno}:"
                        f" {previous.__name__}.{ins.argval}"
                    )
                value = getattr(previous, ins.argval, _UNKNOWN)
            if value is dataclasses.replace:
                found.append(f"{code.co_qualname} line {ins.positions.lineno}: dataclasses.replace")
            previous = value
        for const in code.co_consts:
            if isinstance(const, CodeType):
                walk(const)

    walk(function.__code__)
    return found


@pytest.mark.parametrize("function", HOT_PATHS, ids=lambda f: f.__qualname__)
def test_hot_path_reads_no_member_through_its_enum_and_calls_no_replace(function):
    assert refused_reads(function) == []


@pytest.mark.parametrize(
    "module, enum",
    [
        (peer, peer.Phase),
        (peer, peer.EventKind),
        (peer, peer.ActionKind),
        (codec, codec.ParseErrorKind),
        (codec, codec.ViolationKind),
        (elements, elements.ElementKind),
        (elements, elements.Admission),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_every_member_is_bound_under_its_name(module, enum):
    # the module names the hot paths read in place of `Enum.MEMBER`
    for member in enum:
        assert getattr(module, member.name) is member


# Samples for the guard itself.
class _Sample(Enum):
    A = 1


_A = _Sample.A


def _reads_a_member(kind):
    return kind is _Sample.A


def _reads_another_attribute_of_the_class():
    return _Sample.__members__


def _replaces(value):
    return dataclasses.replace(value)


def _reads_a_member_in_nested_code(kinds):
    return any(kind is _Sample.A for kind in kinds)


def _reads_through_a_module():
    return peer.Phase.OPEN


def _reads_module_names(kind, value):
    return kind is _A and kind.value == value and peer.OPEN


@pytest.mark.parametrize(
    "function",
    [
        _reads_a_member,
        _reads_another_attribute_of_the_class,
        _replaces,
        _reads_a_member_in_nested_code,
        _reads_through_a_module,
    ],
    ids=lambda f: f.__name__,
)
def test_guard_refuses(function):
    assert refused_reads(function)


def test_guard_allows_module_names_and_reads_of_an_instance():
    assert refused_reads(_reads_module_names) == []
