"""The names ``import adderlab`` exposes, the ``Netlist`` constructor's
parameters and the fields of ``Gate`` and ``CarryMerge``, pinned so that
any change to them shows in a diff."""

import dataclasses
import inspect
import types

import adderlab

PUBLIC_NAMES = [
    "AdderLabError",
    "AdderSpec",
    "Architecture",
    "AreaReport",
    "BadFanIn",
    "BlockTooLarge",
    "CarryMerge",
    "CombinationalLoop",
    "ComparisonRow",
    "ComparisonTable",
    "DelayModel",
    "DelayReport",
    "DuplicatePortName",
    "EmptySpecList",
    "EquivalenceReport",
    "ExhaustiveTooLarge",
    "Failure",
    "FanInViolation",
    "FaninPenalty",
    "Gate",
    "GateKind",
    "InvalidAssignment",
    "InvalidIdentifier",
    "InvalidParameter",
    "InvariantViolation",
    "MissingInput",
    "MissingStageMetadata",
    "NameCollisionAfterSanitization",
    "NetId",
    "Netlist",
    "NetlistBuilder",
    "NetlistFrozen",
    "OperandOutOfRange",
    "ParseError",
    "PortContractViolation",
    "UnknownGateKind",
    "UnknownInput",
    "UnknownNet",
    "UnsupportedVersion",
    "ZeroWidth",
    "adder_port_names",
    "area_report",
    "boundary_cases",
    "build_adder",
    "build_cia",
    "build_cla_block",
    "build_full_adder",
    "build_half_adder",
    "build_incrementer",
    "build_rca",
    "check_exhaustive",
    "check_random",
    "compare",
    "delay_report",
    "export_csv",
    "export_dot",
    "export_json",
    "export_report",
    "export_verilog",
    "format_comparison",
    "import_json",
    "oracle_add",
    "probe_invariant_carry_exclusive",
]


def test_public_names_are_pinned():
    public = sorted(
        name
        for name in dir(adderlab)
        if not name.startswith("_") and not isinstance(getattr(adderlab, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def test_netlist_constructor_is_pinned():
    params = list(inspect.signature(adderlab.Netlist).parameters)
    assert params == ["name", "gates", "inputs", "outputs", "constants", "carry_merges"]


def test_gate_and_carry_merge_fields_are_pinned():
    # a finished netlist's nets are ints; a carry merge holds a builder's handles until finish()
    def fields(cls):
        return {field.name: field.type for field in dataclasses.fields(cls)}

    assert fields(adderlab.Gate) == {
        "kind": "GateKind", "inputs": "tuple[int, ...]", "output": "int", "stage": "str | None",
    }
    assert fields(adderlab.CarryMerge) == {
        "stage": "int", "block_carry": "int | NetId", "increment_carry": "int | NetId", "gate": "int",
    }
