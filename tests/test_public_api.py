"""The names ``import adderlab`` exposes, every public callable's parameters
and defaults, the fields of ``Gate`` and the type of ``carry_merges``, pinned
so that any change to them shows in a diff."""

import dataclasses
import enum
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


# Each public function, constructor and public method, as its signature
# without annotations.  Enums and exceptions that keep the base constructor
# are left out: theirs is Python's.
SIGNATURES = {
    "AdderSpec": "(arch, width, block_size=4, max_fanin=None)",
    "AreaReport": "(counts, total_gates, by_block=None)",
    "CombinationalLoop": "(message, gates=())",
    "ComparisonRow": "(spec, area, delay, verified, error=None)",
    "ComparisonTable": "(rows, model_name)",
    "DelayModel": "(name, base, fanin_penalty=<FaninPenalty.NONE: 'none'>)",
    "DelayModel.gate_delay": "(self, kind, fanin)",
    "DelayModel.unit": "()",
    "DelayModel.unit_log2": "()",
    "DelayReport": "(model_name, delay, path)",
    "EquivalenceReport": "(netlist, width, mode, cases_checked, failure_count, failures, seed=None, samples=None, generator=None)",
    "Failure": "(a, b, cin, expected_sum, expected_cout, got_sum, got_cout)",
    "Gate": "(kind, inputs, output, stage=None)",
    "GateKind.arity_ok": "(self, n)",
    "NetId": "(index, owner)",
    "Netlist": "(name, gates, inputs, outputs, constants=(), carry_merges=None)",
    "Netlist.with_gate_kind": "(self, gate_index, kind)",
    "Netlist.evaluate": "(self, assignment)",
    "Netlist.simulate_planes": "(self, planes, words, nets=None)",
    "Netlist.arrival_times": "(self, model)",
    "Netlist.critical_path": "(self, model)",
    "NetlistBuilder": "(name='netlist')",
    "NetlistBuilder.add_input": "(self, name)",
    "NetlistBuilder.add_output": "(self, name, net)",
    "NetlistBuilder.constant": "(self, value)",
    "NetlistBuilder.add_gate": "(self, kind, inputs, stage=None)",
    "NetlistBuilder.finish": "(self, carry_merges=None)",
    "adder_port_names": "(width)",
    "area_report": "(netlist)",
    "boundary_cases": "(width)",
    "build_adder": "(spec)",
    "build_cia": "(width, block_size, block_kind, max_fanin=None)",
    "build_cla_block": "(width, max_fanin=None)",
    "build_full_adder": "()",
    "build_half_adder": "()",
    "build_incrementer": "(width)",
    "build_rca": "(width)",
    "check_exhaustive": "(netlist, width, case_cap=536870912)",
    "check_random": "(netlist, width, samples, seed)",
    "compare": "(specs, model)",
    "delay_report": "(netlist, model)",
    "export_csv": "(table)",
    "export_dot": "(netlist)",
    "export_json": "(netlist)",
    "export_report": "(report)",
    "export_verilog": "(netlist)",
    "format_comparison": "(table)",
    "import_json": "(text)",
    "oracle_add": "(a, b, cin, width)",
    "probe_invariant_carry_exclusive": "(netlist, width, case_cap=536870912)",
}


def test_every_public_signature_is_pinned():
    def shape(obj):
        sig = inspect.signature(obj)
        params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
        return str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))

    found = {}
    for name in PUBLIC_NAMES:
        obj = getattr(adderlab, name)
        if not isinstance(obj, type):
            found[name] = shape(obj)
            continue
        if not issubclass(obj, (enum.Enum, Exception)) or "__init__" in vars(obj):
            found[name] = shape(obj)
        for attr, member in vars(obj).items():
            if not attr.startswith("_") and isinstance(member, (staticmethod, types.FunctionType)):
                found[f"{name}.{attr}"] = shape(getattr(obj, attr))
    assert found == SIGNATURES


def test_gate_and_carry_merge_fields_are_pinned():
    # a finished netlist's nets are ints, and its carry merges are the merge gates' indices
    def fields(cls):
        return {field.name: field.type for field in dataclasses.fields(cls)}

    assert fields(adderlab.Gate) == {
        "kind": "GateKind", "inputs": "tuple[int, ...]", "output": "int", "stage": "str | None",
    }
    merges = adderlab.build_cia(8, 2, adderlab.Architecture.CLA).carry_merges
    assert type(merges) is tuple and len(merges) == 3 and all(type(gi) is int for gi in merges)
