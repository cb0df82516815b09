"""Interchange formats: canonical JSON round trips, DOT, Verilog, CSV."""

import itertools
import json
from pathlib import Path

import pytest

from adderlab import (
    AdderSpec,
    Architecture,
    DelayModel,
    GateKind,
    InvariantViolation,
    NameCollisionAfterSanitization,
    NetlistBuilder,
    ParseError,
    UnknownGateKind,
    UnsupportedVersion,
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
    port_nets = {nid.index for _, nid in rca4.inputs} | {nid.index for _, nid in rca4.outputs}
    internal = [net for net in rca4.nets if net.id.index not in port_nets]
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


def test_verilog_output_alias_uses_buf():
    b = NetlistBuilder("t")
    x = b.add_input("x")
    inv = b.add_gate(GateKind.NOT, [x])
    b.add_output("y", inv)
    b.add_output("y_copy", inv)
    text = export_verilog(b.finish())
    assert "  not g0 (y, x);" in text
    assert "  buf g1 (y_copy, y);" in text


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
