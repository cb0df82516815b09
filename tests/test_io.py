"""Interchange formats: canonical JSON round trips, DOT, Verilog, CSV."""

import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import adderlab.io
from adderlab import (
    AdderLabError,
    AdderSpec,
    Architecture,
    DelayModel,
    GateKind,
    InvalidIdentifier,
    InvariantViolation,
    NameCollisionAfterSanitization,
    NetlistBuilder,
    ParseError,
    UnknownGateKind,
    UnsupportedVersion,
    build_adder,
    build_cia,
    build_cla_block,
    build_full_adder,
    build_half_adder,
    build_incrementer,
    build_rca,
    check_exhaustive,
    compare,
    export_csv,
    export_dot,
    export_json,
    export_report,
    export_verilog,
    import_json,
)
from adderlab.analysis import ComparisonTable
from oracle import (
    reference_doc_order,
    reference_export_dot,
    reference_export_json,
    reference_import_json,
    reference_import_verilog,
)
from strategies import netlists
from test_builders import pinned_netlists

GOLDEN = Path(__file__).parent / "golden"


def builder_menagerie():
    return [
        build_half_adder(),
        build_full_adder(),
        build_rca(8),
        build_cla_block(8),
        build_cla_block(8, 2),
        build_incrementer(8),
        build_cia(8, 4, Architecture.RCA),
        build_cia(8, 4, Architecture.CLA),
    ]


def odd_names_netlist():
    """Both constants, a wide AND, outputs tapping a constant and an input,
    and names with quotes, backslashes, control and non-ASCII characters."""
    b = NetlistBuilder('odd "name" \\ caf\u00e9 \u2028\t\x01')
    a = b.add_input('a"0')
    one = b.constant(1)
    n = b.add_gate(GateKind.NOT, [a])
    c = b.add_input("\u00fc\\x")
    zero = b.constant(0)
    w = b.add_gate(GateKind.AND, [a, c, one, n])
    x = b.add_gate(GateKind.XOR, [w, zero])
    b.add_output("y\u2028", b.add_gate(GateKind.OR, [x, c, zero]))
    b.add_output("tab\there", one)
    b.add_output("\U0001f600", a)
    return b.finish()


def outcome(importer, text):
    """What ``importer`` makes of ``text``: its error's type and message, or the
    netlist's name and tables."""
    try:
        netlist = importer(text)
    except AdderLabError as exc:
        return type(exc), str(exc)
    return netlist.name, netlist.drivers, netlist.gates, netlist.inputs, netlist.outputs, netlist.constants


def assert_imports_like_reference(text):
    """``import_json`` raises what the builder replay raises, or builds the same tables."""
    want = outcome(reference_import_json, text)
    assert outcome(import_json, text) == want
    return want


# -- JSON ---------------------------------------------------------------------

def test_json_export_is_deterministic(cia_cla_8_4):
    assert export_json(cia_cla_8_4) == export_json(cia_cla_8_4)
    rebuilt = build_cia(8, 4, Architecture.CLA)
    assert export_json(cia_cla_8_4) == export_json(rebuilt)


def test_json_document_shape():
    doc = json.loads(export_json(build_half_adder()))
    assert doc["format_version"] == 1
    assert doc["name"] == "half_adder"
    assert [p["name"] for p in doc["inputs"]] == ["a", "b"]
    assert [p["name"] for p in doc["outputs"]] == ["s", "c"]
    assert doc["constants"] == []
    assert [g["kind"] for g in doc["gates"]] == ["XOR", "AND"]
    # nets are dense: ports first, then gate outputs in topo order
    assert [p["net"] for p in doc["inputs"]] == [0, 1]
    assert [g["output"] for g in doc["gates"]] == [2, 3]


def test_json_round_trip_is_byte_stable():
    for nl in builder_menagerie():
        doc = export_json(nl)
        assert export_json(import_json(doc)) == doc


def test_json_round_trip_preserves_behavior():
    nl = build_rca(3)
    back = import_json(export_json(nl))
    for a, b, cin in itertools.product(range(8), range(8), (0, 1)):
        asg = {f"a_{i}": (a >> i) & 1 for i in range(3)}
        asg |= {f"b_{i}": (b >> i) & 1 for i in range(3)}
        asg["cin"] = cin
        assert nl.evaluate(asg) == back.evaluate(asg)


def test_json_round_trip_keeps_constants():
    nl = build_cia(8, 4, Architecture.RCA)
    back = import_json(export_json(nl))
    report = check_exhaustive(back, 8)
    assert report.ok


def test_import_rejects_malformed_documents():
    with pytest.raises(ParseError):
        import_json("not json at all {")
    for text in (None, 7, ["{}"]):  # no text at all
        with pytest.raises(ParseError, match="^not valid JSON: "):
            import_json(text)
    with pytest.raises(ParseError):
        import_json('"just a string"')
    with pytest.raises(ParseError):
        import_json(json.dumps({"format_version": 1}))
    with pytest.raises(ParseError):
        import_json(json.dumps({
            "format_version": 1, "name": "x", "inputs": [{"name": "a", "net": "zero"}],
            "outputs": [], "constants": [], "gates": [],
        }))


def test_import_rejects_unknown_kind_and_version():
    base = {
        "format_version": 1,
        "name": "x",
        "inputs": [{"name": "a", "net": 0}],
        "outputs": [],
        "constants": [],
        "gates": [],
    }
    with pytest.raises(UnsupportedVersion):
        import_json(json.dumps(base | {"format_version": 2}))
    bad = base | {"gates": [{"kind": "NAND", "inputs": [0, 0], "output": 1}]}
    with pytest.raises(UnknownGateKind):
        import_json(json.dumps(bad))


def doc_of(gates, inputs=("a", "b"), outputs=(), constants=()):
    return json.dumps(
        {
            "format_version": 1,
            "name": "t",
            "inputs": [{"name": n, "net": i} for i, n in enumerate(inputs)],
            "outputs": [{"name": n, "net": ref} for n, ref in outputs],
            "constants": list(constants),
            "gates": gates,
        }
    )


def test_import_rejects_structural_violations():
    # two drivers for net 2
    with pytest.raises(InvariantViolation):
        import_json(doc_of([
            {"kind": "AND", "inputs": [0, 1], "output": 2},
            {"kind": "OR", "inputs": [0, 1], "output": 2},
        ]))
    # undriven reference
    with pytest.raises(InvariantViolation):
        import_json(doc_of([{"kind": "AND", "inputs": [0, 9], "output": 2}]))
    # arity break
    with pytest.raises(InvariantViolation):
        import_json(doc_of([{"kind": "XOR", "inputs": [0, 1, 1], "output": 2}]))
    # combinational loop
    with pytest.raises(InvariantViolation):
        import_json(doc_of([
            {"kind": "AND", "inputs": [0, 3], "output": 2},
            {"kind": "OR", "inputs": [2, 1], "output": 3},
        ]))
    # duplicate output port names
    with pytest.raises(InvariantViolation):
        import_json(doc_of(
            [{"kind": "AND", "inputs": [0, 1], "output": 2}],
            outputs=(("y", 2), ("y", 2)),
        ))
    # output tapping a net nobody drives
    with pytest.raises(InvariantViolation):
        import_json(doc_of([], outputs=(("y", 7),)))
    # constant with a non-bit value
    with pytest.raises(InvariantViolation):
        import_json(doc_of([], constants=({"net": 2, "value": 5},)))


@pytest.mark.parametrize("value", [True, 1.0, 0.0, None])
def test_import_rejects_constants_that_are_no_int_bit(value):
    # 1.0 or true would pass as a bit and export as Verilog 1'b1.0 or 1'bTrue
    with pytest.raises(InvariantViolation, match="^constant value must be 0 or 1$"):
        import_json(doc_of(
            [{"kind": "AND", "inputs": [0, 2], "output": 3}],
            outputs=(("y", 3),), constants=({"net": 2, "value": value},),
        ))


def test_import_rejects_gate_outputs_shadowing_other_drivers():
    # y = x AND const1; a gate that also drives the constant's net (or an
    # input's) would silently change what y computes
    with pytest.raises(InvariantViolation):
        import_json(doc_of(
            [
                {"kind": "AND", "inputs": [0, 1], "output": 2},
                {"kind": "NOT", "inputs": [0], "output": 1},
            ],
            inputs=("x",), outputs=(("y", 2),), constants=({"net": 1, "value": 1},),
        ))
    with pytest.raises(InvariantViolation):
        import_json(doc_of(
            [{"kind": "NOT", "inputs": [1], "output": 0}],
            outputs=(("y", 0),),
        ))


def test_import_rejects_bool_format_version():
    doc = json.loads(doc_of([]))
    with pytest.raises(ParseError):
        import_json(json.dumps(doc | {"format_version": True}))


@pytest.mark.parametrize("table", ["inputs", "outputs", "constants", "gates"])
@pytest.mark.parametrize("empty", [{}, ""])
def test_import_rejects_empty_tables_that_are_no_list(table, empty):
    # iterates as an empty list, yet is no JSON array
    text = json.dumps(json.loads(doc_of([], inputs=())) | {table: empty})
    assert assert_imports_like_reference(text) == (ParseError, f"'{table}' must be list")


def test_import_accepts_non_canonical_gate_order():
    # gates listed consumer-first still import; export then normalizes
    text = doc_of([
        {"kind": "OR", "inputs": [4, 1], "output": 3},
        {"kind": "AND", "inputs": [0, 1], "output": 4},
    ], outputs=(("y", 3),))
    nl = import_json(text)
    assert [g.kind for g in nl.gates] == [GateKind.AND, GateKind.OR]
    assert nl.evaluate({"a": 1, "b": 1})["y"] == 1
    assert export_json(import_json(export_json(nl))) == export_json(nl)


def canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def renumbered(doc, order):
    """Canonical ``doc`` with its gates listed in ``order`` and their outputs renumbered to match."""
    first = len(doc["inputs"]) + len(doc["constants"])
    ids = {doc["gates"][gi]["output"]: first + k for k, gi in enumerate(order)}
    gates = [
        {"kind": gate["kind"], "inputs": [ids.get(r, r) for r in gate["inputs"]], "output": ids[gate["output"]]}
        for gate in (doc["gates"][gi] for gi in order)
    ]
    outputs = [{"name": port["name"], "net": ids.get(port["net"], port["net"])} for port in doc["outputs"]]
    return doc | {"gates": gates, "outputs": outputs}


@settings(max_examples=150, deadline=None)
@given(netlists(), st.data())
def test_gate_shuffled_documents_import_in_reference_order(netlist, data):
    # Import builds gates in the lowest-index-first topological order of
    # the shuffled list, so export gives the original document relabelled
    # into that order: the original bytes whenever the order is unchanged.
    doc = json.loads(export_json(netlist))
    doc["gates"] = data.draw(st.permutations(doc["gates"]))
    assert_imports_like_reference(canonical(doc))
    back = import_json(canonical(doc))
    order = reference_doc_order(doc["gates"])
    assert export_json(back) == canonical(renumbered(doc, order))
    cases = np.arange(1 << len(netlist.inputs))
    assignment = {name: (cases >> i) & 1 for i, name in enumerate(netlist.input_names)}
    want, got = netlist.evaluate(assignment), back.evaluate(assignment)
    for name in netlist.output_names:
        assert np.array_equal(np.broadcast_to(got[name], cases.shape), np.broadcast_to(want[name], cases.shape))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.sampled_from([0.0, 1.0]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def slots(node):
    """Every (container, key) pair inside a JSON value."""
    keys = list(range(len(node))) if isinstance(node, list) else list(node) if isinstance(node, dict) else []
    for key in keys:
        yield node, key
        yield from slots(node[key])


@settings(max_examples=300, deadline=None)
@given(netlists(), st.data())
def test_mutated_documents_import_or_raise_library_errors(netlist, data):
    doc = json.loads(export_json(netlist))
    for _ in range(data.draw(st.integers(1, 3))):
        node, key = data.draw(st.sampled_from(list(slots(doc))))
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(json_values)
    text = json.dumps(doc)
    if isinstance(assert_imports_like_reference(text)[0], type):
        return
    back = import_json(text)
    # an accepted document is a working netlist with a canonical form
    text = export_json(back)
    assert export_json(import_json(text)) == text
    assert all(type(c["value"]) is int for c in json.loads(text)["constants"])
    back.evaluate({name: 1 for name in back.input_names})


@settings(max_examples=150, deadline=None)
@given(netlists(), st.data())
def test_looped_documents_name_the_first_gate_left_unordered(netlist, data):
    doc = json.loads(export_json(netlist))
    gates = doc["gates"]
    assume(gates)
    # Feed gate i from the output of gate i or of a gate downstream of it.
    i = data.draw(st.integers(0, len(gates) - 1))
    downstream = {gates[i]["output"]}
    for gate in gates[i + 1 :]:
        if downstream.intersection(gate["inputs"]):
            downstream.add(gate["output"])
    slot = data.draw(st.integers(0, len(gates[i]["inputs"]) - 1))
    gates[i]["inputs"][slot] = data.draw(st.sampled_from(sorted(downstream)))
    doc["gates"] = data.draw(st.permutations(gates))
    stuck = min(set(range(len(gates))) - set(reference_doc_order(doc["gates"])))
    with pytest.raises(InvariantViolation) as exc:
        import_json(json.dumps(doc))
    assert str(exc.value) == f"gate {stuck} sits on a combinational loop"
    assert assert_imports_like_reference(json.dumps(doc)) == (InvariantViolation, str(exc.value))


BIG = 2**70


@pytest.mark.parametrize("inputs,constants,gates,outputs,want", [
    # two constants of one value share one net
    (
        [("a", 0)], [(7, 1), (9, 1)], [("AND", [0, 7], 3), ("OR", [9, 3], 4)], [("y", 4), ("k", 9)],
        ([("a", 0)], [(1, 1)], [("y", 3), ("k", 1)]),
    ),
    # net ids far beyond the net count map through, and one that nothing drives is named
    (
        [("a", 10**18), ("b", BIG)], [], [("XOR", [BIG, 10**18], BIG + 1)], [("s", BIG + 1)],
        ([("a", 0), ("b", 1)], [], [("s", 2)]),
    ),
    (
        [("a", 10**18)], [], [("NOT", [10**18], 5), ("AND", [5, 10**30], 6)], [],
        (InvariantViolation, f"gate reads undriven net {10**30}"),
    ),
    # a JSON true is no net id, wherever it stands
    ([("a", True)], [], [], [], (ParseError, "port net must be a non-negative integer net id")),
    ([("a", 0)], [], [("NOT", [True], 1)], [], (ParseError, "gate 0 input must be a non-negative integer net id")),
    ([("a", 0)], [], [("AND", [0, -1], 1)], [], (ParseError, "gate 0 input must be a non-negative integer net id")),
    ([("a", 0)], [], [("NOT", [0], True)], [], (ParseError, "gate 0 output must be a non-negative integer net id")),
    ([("a", 0)], [(True, 1)], [], [], (ParseError, "constant net must be a non-negative integer net id")),
    # two inputs of one name, or on one net
    ([("a", 0), ("a", 1)], [], [], [], (InvariantViolation, "input port 'a' already declared")),
    ([("a", 0), ("b", 0)], [], [], [], (InvariantViolation, "net 0 has more than one driver (input b)")),
    # a defect found while building beats one in a later output port
    (
        [("a", 0)], [(1, 0)], [("NOT", [0], 1)], [("y", 9)],
        (InvariantViolation, "net 1 has more than one driver (gate 0)"),
    ),
    # a loop is reported before an undriven net the document lists earlier
    (
        [("a", 0)], [], [("NOT", [8], 2), ("AND", [0, 3], 3)], [],
        (InvariantViolation, "gate 1 sits on a combinational loop"),
    ),
    # the builder rejects a repeated output name, after an undriven tap listed earlier
    ([("a", 0)], [], [], [("y", 0), ("y", 0)], (InvariantViolation, "output port 'y' already declared")),
    (
        [("a", 0)], [], [], [("y", 0), ("z", 9), ("y", 0)],
        (InvariantViolation, "output port 'z' taps undriven net"),
    ),
    # a gate with no inputs fails the arity check, before any net is numbered
    ([("a", 0)], [], [("AND", [], 1)], [], (InvariantViolation, "gate 0: AND cannot take 0 input(s)")),
    # a constant on an input's net
    ([("a", 0)], [(0, 1)], [], [], (InvariantViolation, "net 0 has more than one driver (constant)")),
    # canonical ids with one defect each: Netlist() refuses them, or the checked route numbers them its own way
    (
        [("a", 0), ("b", 1)], [], [("AND", [0, True], 2)], [("y", 2)],
        (ParseError, "gate 0 input must be a non-negative integer net id"),
    ),
    (
        [("a", 0), ("b", 1)], [], [("AND", [0, 1.0], 2)], [("y", 2)],
        (ParseError, "gate 0 input must be a non-negative integer net id"),
    ),
    (
        [("a", 0), ("b", 1)], [], [("AND", [0, 2], 2)], [("y", 2)],
        (InvariantViolation, "gate 0 sits on a combinational loop"),
    ),
    (
        [("a", 0), ("b", 1)], [], [("NOT", [3], 2), ("AND", [0, 1], 3)], [("y", 2)],
        ([("a", 0), ("b", 1)], [], [("y", 3)]),
    ),
    (
        [("a", 0)], [(1, 0), (2, 0)], [("AND", [0, 1], 3), ("OR", [2, 3], 4)], [("y", 4)],
        ([("a", 0)], [(0, 1)], [("y", 3)]),
    ),
    (
        [("a", 0), ("b", 1)], [], [("AND", {"0": 0, "1": 1}, 2)], [("y", 2)],
        (ParseError, "'inputs' must be list"),
    ),
    (
        [("a", 0), ("b", 1)], [], [("AND", [0, 1], 3)], [("y", 3)],
        ([("a", 0), ("b", 1)], [], [("y", 2)]),
    ),
    (
        [("a", 0), ("b", 1)], [], [("AND", [0, 1], 2)], [("y", 2), ("y", 0)],
        (InvariantViolation, "output port 'y' already declared"),
    ),
    (
        [("a", 0), ("b", 1)], [], [("AND", [0], 2)], [("y", 2)],
        (InvariantViolation, "gate 0: AND cannot take 1 input(s)"),
    ),
    # every id in range and driven once, yet not in export's order: the checked route renumbers
    (
        [("a", 1), ("b", 0)], [], [("NOT", [1], 2)], [("y", 2)],
        ([("a", 0), ("b", 1)], [], [("y", 2)]),
    ),
    (
        [("a", 0)], [(1, 1), (2, 0)], [("AND", [0, 2], 3)], [("y", 3)],
        ([("a", 0)], [(0, 2), (1, 1)], [("y", 3)]),
    ),
])
def test_import_explicit_cases_match_builder_replay(inputs, constants, gates, outputs, want):
    text = json.dumps({
        "format_version": 1,
        "name": "t",
        "inputs": [{"name": name, "net": ref} for name, ref in inputs],
        "outputs": [{"name": name, "net": ref} for name, ref in outputs],
        "constants": [{"net": ref, "value": value} for ref, value in constants],
        "gates": [{"kind": kind, "inputs": ins, "output": out} for kind, ins, out in gates],
    })
    got = assert_imports_like_reference(text)
    if isinstance(got[0], type):
        assert got == want
    else:  # the input ports, constants and output ports
        assert (list(got[3]), list(got[5]), list(got[4])) == want


def test_canonical_documents_skip_the_checked_route(monkeypatch):
    # Every exported document is canonical, so none of them needs the checked
    # route; if one took it, import would have lost its direct route.
    texts = [export_json(nl) for nl in (*builder_menagerie(), build_adder(AdderSpec(Architecture.CLA, 32)))]
    wants = [outcome(reference_import_json, text) for text in texts]

    def refuse(doc):
        raise AssertionError("a canonical document took the checked route")

    monkeypatch.setattr(adderlab.io, "_import_checked", refuse)
    for text, want in zip(texts, wants):
        assert outcome(import_json, text) == want


@settings(max_examples=150, deadline=None)
@given(netlists(), st.data())
def test_canonically_numbered_mutants_import_like_the_reference(netlist, data):
    # Mutations that keep every id on its canonical place, so import takes
    # its direct route and falls back only on what Netlist() refuses.
    doc = json.loads(export_json(netlist))
    gates, constants = doc["gates"], doc["constants"]
    n = len(doc["inputs"]) + len(constants) + len(gates)
    tables = [table for table in (doc["inputs"], doc["outputs"]) if len(table) > 1]
    mutations = ["retarget", "kind"] * bool(gates) + ["flip"] * bool(constants) + ["rename"] * bool(tables)
    for _ in range(data.draw(st.integers(0, 3)) if mutations else 0):
        mutation = data.draw(st.sampled_from(mutations))
        if mutation == "flip":
            constant = data.draw(st.sampled_from(constants))
            constant["value"] ^= 1
        elif mutation == "rename":
            table = data.draw(st.sampled_from(tables))
            source, target = data.draw(st.lists(st.sampled_from(table), min_size=2, max_size=2, unique_by=id))
            target["name"] = source["name"]
        else:
            gate = data.draw(st.sampled_from(gates))
            if mutation == "kind":
                gate["kind"] = data.draw(st.sampled_from([kind.value for kind in GateKind]))
            else:
                slot = data.draw(st.integers(0, len(gate["inputs"]) - 1))
                gate["inputs"][slot] = data.draw(st.integers(0, n + 1) | st.sampled_from([n, n + 1]))  # n, n + 1: no net
    assert_imports_like_reference(json.dumps(doc))


def test_reimported_tables_are_pinned():
    # One digest over the re-imported tables of the netlists that
    # test_builders.test_built_tables_are_pinned pins; the drivers too, and
    # carry merges, which import drops.  A change to how import numbers
    # nets, orders gates or merges constants changes it.
    digest = hashlib.sha256()
    for nl in pinned_netlists():
        back = import_json(export_json(nl))
        gates = tuple((gate.kind.value, gate.inputs, gate.output, gate.stage) for gate in back.gates)
        digest.update(repr(
            (back.name, gates, back.inputs, back.outputs, back.constants, back.carry_merges, back.drivers)
        ).encode())
    assert digest.hexdigest() == "187f4e7869f33c8eecf1a9bc0ae2b11dc2c2a2b1ebc4e60184a77a798616cc8e"


@pytest.mark.parametrize("text", ["[" * 100_000, '{"format_version": ' + "1" * 5000 + "}"])
def test_import_turns_parser_limits_into_parse_errors(text):
    # nesting too deep for the parser, or an integer too long to convert
    with pytest.raises(ParseError, match="^not valid JSON: "):
        import_json(text)


odd_text = st.text(st.sampled_from('a"\\\n\x00\x1f\x7f\u2028\u00e9\U0001f600') | st.characters())


@settings(max_examples=200, deadline=None)
@given(st.one_of(netlists(), netlists(names=odd_text, min_outputs=0), netlists(names=st.text(), min_outputs=0)))
def test_export_matches_json_dumps(netlist):
    text = export_json(netlist)
    assert text == reference_export_json(netlist)
    assert_imports_like_reference(text)


def test_export_of_empty_tables_matches_json_dumps():
    empty = NetlistBuilder("").finish()
    assert export_json(empty) == reference_export_json(empty)
    b = NetlistBuilder("k")
    b.add_input("x")
    b.constant(1)
    b.constant(0)
    netlist = b.finish()  # no gates, no outputs
    assert export_json(netlist) == reference_export_json(netlist)
    assert '"gates": [],' in export_json(netlist) and '"outputs": []\n}' in export_json(netlist)


def test_imported_netlists_lose_stage_metadata(cia_rca_8_4):
    back = import_json(export_json(cia_rca_8_4))
    assert back.carry_merges is None


# -- DOT -----------------------------------------------------------------------

def test_dot_half_adder_shape():
    dot = export_dot(build_half_adder())
    assert dot.count("shape=ellipse") == 2
    assert dot.count("shape=box") == 2
    assert dot.count("shape=doubleoctagon") == 2
    assert dot.count("->") == 6
    assert dot == export_dot(build_half_adder())


def test_dot_clusters_follow_stages(cia_rca_8_4):
    dot = export_dot(cia_rca_8_4)
    for cluster in ('"cluster_block0"', '"cluster_block1"', '"cluster_inc1"'):
        assert cluster in dot
    assert 'label="AND#1"' in dot


def test_dot_constants_render_once(cia_rca_8_4):
    dot = export_dot(cia_rca_8_4)
    assert dot.count('"const0" [shape=diamond') == 1


# -- Verilog ----------------------------------------------------------------------

DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def dot_strings(dot: str) -> list[str]:
    """Every quoted string in ``dot``, unescaped; asserts that each one is well formed."""
    rest = DOT_STRING.sub("", dot)
    assert '"' not in rest and "\\" not in rest, rest
    return [re.sub(r"\\(.)", r"\1", quoted[1:-1]) for quoted in DOT_STRING.findall(dot)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text('ab"\\', min_size=1, max_size=4), min_size=4, max_size=4, unique=True))
def test_dot_escapes_quotes_and_backslashes(names):
    netlist, x, stage, y = names
    b = NetlistBuilder(netlist)
    net = b.add_input(x)
    b.add_output(y, b.add_gate(GateKind.NOT, [net], stage=stage))
    b.add_output(y + "!", net)
    strings = dot_strings(export_dot(b.finish()))
    assert {netlist, "in:" + x, x, "cluster_" + stage, stage, "out:" + y, y} <= set(strings)


def test_dot_of_imported_names_with_quotes_is_well_formed():
    doc = json.loads(export_json(build_half_adder())) | {"name": 'my"net'}
    doc["inputs"][0]["name"] = 'a"b'
    doc["outputs"][1]["name"] = "c\\"
    strings = dot_strings(export_dot(import_json(json.dumps(doc))))
    assert {'my"net', 'in:a"b', 'a"b', "out:c\\", "c\\"} <= set(strings)


def test_verilog_half_adder_lines():
    text = export_verilog(build_half_adder())
    assert "  xor g0 (s, a, b);" in text
    assert "  and g1 (c, a, b);" in text
    assert text.startswith("module half_adder (a, b, s, c);")
    assert text.rstrip().endswith("endmodule")


def test_verilog_port_order_matches_contract():
    text = export_verilog(build_cia(8, 4, Architecture.CLA))
    header = text.splitlines()[0]
    want = (
        [f"a_{i}" for i in range(8)] + [f"b_{i}" for i in range(8)] + ["cin"]
        + [f"s_{i}" for i in range(8)] + ["cout"]
    )
    assert header == f"module cia_cla_w8_b4 ({', '.join(want)});"


def test_verilog_one_instance_per_gate(cia_cla_8_4):
    text = export_verilog(cia_cla_8_4)
    instances = [line for line in text.splitlines() if line.lstrip().startswith(("and ", "or ", "xor ", "not "))]
    assert len(instances) == len(cia_cla_8_4.gates)
    assert "1'b0" in text  # later blocks add with a hard zero carry-in


def test_verilog_wire_per_internal_net(rca4):
    text = export_verilog(rca4)
    wires = [line for line in text.splitlines() if line.lstrip().startswith("wire ")]
    port_nets = {net for _, net in rca4.inputs} | {net for _, net in rca4.outputs}
    internal = [index for index in range(len(rca4.drivers)) if index not in port_nets]
    assert len(wires) == len(internal)


def test_verilog_sanitizes_names():
    b = NetlistBuilder("odd name!")
    x = b.add_input("x.0")
    b.add_output("y-0", b.add_gate(GateKind.NOT, [x]))
    text = export_verilog(b.finish())
    assert text.startswith("module odd_name_ (x_0, y_0);")
    assert "  not g0 (y_0, x_0);" in text


def test_verilog_collision_after_sanitization():
    b = NetlistBuilder("t")
    x = b.add_input("x.0")
    y = b.add_input("x_0")
    b.add_output("z", b.add_gate(GateKind.AND, [x, y]))
    with pytest.raises(NameCollisionAfterSanitization):
        export_verilog(b.finish())


@pytest.mark.parametrize("name", ["1a", ""])
def test_verilog_rejects_names_that_stay_no_identifier(name):
    netlist = import_json(doc_of(
        [{"kind": "NOT", "inputs": [0], "output": 1}], inputs=(name,), outputs=(("y", 1),)
    ))
    with pytest.raises(InvalidIdentifier) as exc:
        export_verilog(netlist)
    assert isinstance(exc.value, AdderLabError) and isinstance(exc.value, ValueError)
    assert str(exc.value) == f"input port '{name}' is not an identifier even after sanitizing"


@pytest.mark.parametrize("inputs,output", [
    (("wire", "x"), "y"),
    (("x", "n2"), "and"),
    (("pulsestyle.ondetect", "x"), "y"),  # a keyword only once sanitized
])
def test_verilog_rejects_port_names_that_are_keywords(inputs, output):
    b = NetlistBuilder("t")
    nets = [b.add_input(name) for name in inputs]
    b.add_output(output, b.add_gate(GateKind.AND, nets))
    with pytest.raises(InvalidIdentifier, match="is the Verilog keyword '"):
        export_verilog(b.finish())


@pytest.mark.parametrize("name", ["module", "wire", "endmodule", "xor"])
def test_verilog_keyword_module_name_falls_back(name):
    b = NetlistBuilder(name)
    x = b.add_input("x")
    b.add_output("y", b.add_gate(GateKind.NOT, [x]))
    assert export_verilog(b.finish()).startswith("module netlist (x, y);")


def test_verilog_wire_names_skip_port_names():
    # nets 0, 1 are inputs and net 2 an internal wire; ports already hold n2 and n2_1
    b = NetlistBuilder("t")
    x, n2 = b.add_input("x"), b.add_input("n2")
    inner = b.add_gate(GateKind.AND, [x, n2])
    other = b.add_gate(GateKind.XOR, [inner, x])
    b.add_output("n2_1", b.add_gate(GateKind.OR, [other, inner]))
    netlist = b.finish()
    assert netlist.drivers[2] == 0
    text = export_verilog(netlist)
    declared = [
        line.split()[1].rstrip(";")
        for line in text.splitlines()
        if line.lstrip().startswith(("input ", "output ", "wire "))
    ]
    assert sorted(declared) == ["n2", "n2_1", "n2_2", "n3", "x"]
    assert "  and g0 (n2_2, x, n2);" in text
    assert "  or g2 (n2_1, n3, n2_2);" in text


def test_verilog_output_alias_uses_buf():
    b = NetlistBuilder("t")
    x = b.add_input("x")
    inv = b.add_gate(GateKind.NOT, [x])
    b.add_output("y", inv)
    b.add_output("y_copy", inv)
    text = export_verilog(b.finish())
    assert "  not g0 (y, x);" in text
    assert "  buf g1 (y_copy, y);" in text


@pytest.mark.parametrize("width", range(1, 7))
@pytest.mark.parametrize("arch", list(Architecture))
def test_verilog_reads_back_as_an_adder(arch, width):
    blocks = range(1, width + 1) if arch.is_cia else [4]
    fanins = [None, 2, 3] if arch.block_kind is Architecture.CLA else [None]
    for block, fanin in itertools.product(blocks, fanins):
        nl = build_adder(AdderSpec(arch, width, block, fanin))
        back = reference_import_verilog(export_verilog(nl))
        assert (back.name, back.input_names, back.output_names) == (nl.name, nl.input_names, nl.output_names)
        assert len(back.gates) == len(nl.gates)
        assert check_exhaustive(back, width).ok, (block, fanin)


@settings(max_examples=200, deadline=None)
@given(netlists())
def test_verilog_of_random_netlists_reads_back_alike(nl):
    back = reference_import_verilog(export_verilog(nl))
    assert (back.input_names, back.output_names) == (nl.input_names, nl.output_names)
    rows = np.array(list(itertools.product([0, 1], repeat=len(nl.inputs))), dtype=np.uint8).T
    assignment = dict(zip(nl.input_names, rows))
    want, got = nl.evaluate(assignment), back.evaluate(assignment)
    assert {name: value.tolist() for name, value in want.items()} == {name: value.tolist() for name, value in got.items()}


def test_verilog_reader_takes_only_what_the_exporter_writes():
    text = export_verilog(build_half_adder())
    assert reference_import_verilog(text).evaluate({"a": 1, "b": 1}) == {"s": 0, "c": 1}
    for bad in (text.replace("xor g0", "xnor g0"), text.replace("endmodule\n", ""), text + "wire z;\n",
                text.replace("  input b;\n", "")):
        with pytest.raises((ValueError, KeyError)):
            reference_import_verilog(bad)


# -- writers against their plain references -------------------------------------------

def assert_writers_match_references(nl):
    """DOT and JSON equal the reference writers' bytes; the Verilog reads back gate for gate."""
    assert export_dot(nl) == reference_export_dot(nl)
    assert export_json(nl) == reference_export_json(nl)
    back = reference_import_verilog(export_verilog(nl))
    twin = {net: back_net for (_, net), (_, back_net) in zip(nl.inputs, back.inputs)}
    back_constants = dict(back.constants)
    twin |= {net: back_constants.get(value) for value, net in nl.constants}
    twin |= {gate.output: back_gate.output for gate, back_gate in zip(nl.gates, back.gates)}
    want = [(gate.kind, tuple(map(twin.__getitem__, gate.inputs))) for gate in nl.gates]
    assert [(gate.kind, gate.inputs) for gate in back.gates] == want


@settings(max_examples=100, deadline=None)
@given(netlists())
def test_writers_match_references_on_random_netlists(nl):
    assert_writers_match_references(nl)


@pytest.mark.parametrize("build", [
    lambda: build_cla_block(16),
    lambda: build_cla_block(12, 3),
    lambda: build_cia(17, 5, Architecture.CLA, 2),
], ids=["cla_w16", "cla_w12_f3", "cia_cla_w17_b5_f2"])
def test_writers_match_references_on_wide_gate_adders(build):
    assert_writers_match_references(build())


# -- CSV ------------------------------------------------------------------------------

def test_csv_two_row_comparison(unit):
    table = compare(
        [AdderSpec(Architecture.CIA_RCA, 8, 4), AdderSpec(Architecture.CIA_CLA, 8, 4)], unit
    )
    text = export_csv(table)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0] == "arch,width,block,gates,delay_gd,verified"
    assert lines[1] == "cia_rca,8,4,49,14.00,true"
    assert lines[2] == "cia_cla,8,4,61,8.00,true"


def test_csv_non_cia_rows_blank_the_block_column(unit):
    table = compare([AdderSpec(Architecture.RCA, 4)], unit)
    assert export_csv(table).splitlines()[1] == "rca,4,-,20,9.00,true"


def test_csv_failed_row(unit):
    table = compare([AdderSpec(Architecture.CIA_CLA, 2, 4)], unit)
    assert export_csv(table).splitlines()[1] == "cia_cla,2,4,-,-,error"


def test_csv_empty_table_is_header_only(unit):
    assert export_csv(ComparisonTable((), "unit")) == "arch,width,block,gates,delay_gd,verified\n"


# -- equivalence report JSON ------------------------------------------------------------

def test_export_report_round_trips_fields(cia_cla_8_4):
    report = check_exhaustive(cia_cla_8_4, 8)
    doc = json.loads(export_report(report))
    assert doc["netlist"] == "cia_cla_w8_b4"
    assert doc["cases_checked"] == 131072
    assert doc["failure_count"] == 0
    assert doc["failures"] == []
    assert doc["mode"] == "exhaustive"
    assert doc["generator"] is None


# -- golden files -------------------------------------------------------------------------

@pytest.mark.parametrize("fname,render", [
    ("half_adder.json", lambda: export_json(build_half_adder())),
    ("half_adder.dot", lambda: export_dot(build_half_adder())),
    ("half_adder.v", lambda: export_verilog(build_half_adder())),
    ("rca_w4.json", lambda: export_json(build_rca(4))),
    ("cla_w8.json", lambda: export_json(build_cla_block(8))),
    ("odd_names.json", lambda: export_json(odd_names_netlist())),
    ("cia_rca_w8_b4.dot", lambda: export_dot(build_cia(8, 4, Architecture.RCA))),
    ("cia_cla_w8_b4.v", lambda: export_verilog(build_cia(8, 4, Architecture.CLA))),
    (
        "compare_cia_w8.csv",
        lambda: export_csv(
            compare(
                [AdderSpec(Architecture.CIA_RCA, 8, 4), AdderSpec(Architecture.CIA_CLA, 8, 4)],
                DelayModel.unit(),
            )
        ),
    ),
])
def test_renders_match_golden_bytes(fname, render):
    assert render() == (GOLDEN / fname).read_text()
