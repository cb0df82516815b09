"""Interchange and rendering: canonical JSON, Graphviz DOT, structural
Verilog, and CSV comparison tables.

JSON is the only round-trippable format.  Export is canonical (keys
sorted, nets renumbered densely, gates in stored order), so rebuilds and
re-imports give identical bytes; import sorts a document's gates, which
may come in any order.  DOT and Verilog are one-way views; CSV
serializes comparison tables.
"""

from __future__ import annotations

import heapq
import json
import re

from .analysis import ComparisonTable, _row_cells
from .errors import (
    AdderLabError,
    InvalidIdentifier,
    InvariantViolation,
    NameCollisionAfterSanitization,
    ParseError,
    UnknownGateKind,
    UnsupportedVersion,
)
from .netlist import GateKind, Netlist, NetlistBuilder
from .verify import EquivalenceReport

FORMAT_VERSION = 1


# -- JSON ---------------------------------------------------------------------

def _dense_ids(netlist: Netlist) -> dict[int, int]:
    """Canonical net numbering: input ports, then constants, then gate outputs."""
    mapping: dict[int, int] = {}
    for _, nid in netlist.inputs:
        mapping[nid.index] = len(mapping)
    for _, nid in netlist.constants:
        mapping[nid.index] = len(mapping)
    for gate in netlist.gates:
        mapping[gate.output.index] = len(mapping)
    return mapping

def export_json(netlist: Netlist) -> str:
    """Serialize to the canonical interchange document (byte-deterministic)."""
    ids = _dense_ids(netlist)
    doc = {
        "format_version": FORMAT_VERSION,
        "name": netlist.name,
        "inputs": [{"name": name, "net": ids[nid.index]} for name, nid in netlist.inputs],
        "outputs": [{"name": name, "net": ids[nid.index]} for name, nid in netlist.outputs],
        "constants": [{"net": ids[nid.index], "value": value} for value, nid in netlist.constants],
        "gates": [
            {
                "kind": gate.kind.value,
                "inputs": [ids[nid.index] for nid in gate.inputs],
                "output": ids[gate.output.index],
            }
            for gate in netlist.gates
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _field(doc: dict, key: str, kind: type):
    if key not in doc:
        raise ParseError(f"document lacks '{key}'")
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"'{key}' must be {kind.__name__}")
    return value


def _net_ref(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(f"{where} must be a non-negative integer net id")
    return value


def _doc_order(gates: list[dict]) -> list[int]:
    """Kahn order of document gates, which name their nets by id; lowest index first."""
    driver_of = {}
    for gi, gate in enumerate(gates):
        out = gate["output"]
        if out in driver_of:
            raise InvariantViolation(f"net {out} has more than one driver")
        driver_of[out] = gi
    consumers: list[list[int]] = [[] for _ in gates]
    indeg = [0] * len(gates)
    for gi, gate in enumerate(gates):
        for ref in gate["inputs"]:
            if ref in driver_of:
                consumers[driver_of[ref]].append(gi)
                indeg[gi] += 1
    ready = [gi for gi, d in enumerate(indeg) if d == 0]  # ascending, so already a heap
    order: list[int] = []
    while ready:
        gi = heapq.heappop(ready)
        order.append(gi)
        for reader in consumers[gi]:
            indeg[reader] -= 1
            if indeg[reader] == 0:
                heapq.heappush(ready, reader)
    if len(order) != len(gates):
        stuck = min(set(range(len(gates))) - set(order))
        raise InvariantViolation(f"gate {stuck} sits on a combinational loop")
    return order


def import_json(text: str) -> Netlist:
    """Parse and re-validate an interchange document into a fresh netlist.

    Structural problems (multiple drivers, undriven references, bad
    arity, cycles, duplicate ports) raise InvariantViolation; malformed
    documents raise ParseError; foreign kinds or versions raise
    UnknownGateKind / UnsupportedVersion.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    version = _field(doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"format_version {version} is not supported")
    name = _field(doc, "name", str)
    inputs = _field(doc, "inputs", list)
    outputs = _field(doc, "outputs", list)
    constants = _field(doc, "constants", list)
    gates = _field(doc, "gates", list)

    for entry in inputs + outputs:
        if not isinstance(entry, dict):
            raise ParseError("ports must be objects")
        _field(entry, "name", str)
        _net_ref(entry.get("net"), "port net")
    for entry in constants:
        if not isinstance(entry, dict):
            raise ParseError("constants must be objects")
        _net_ref(entry.get("net"), "constant net")
        if type(entry.get("value")) is not int or entry["value"] not in (0, 1):
            raise InvariantViolation("constant value must be 0 or 1")
    norm_gates = []
    for gi, entry in enumerate(gates):
        if not isinstance(entry, dict):
            raise ParseError("gates must be objects")
        kind_name = _field(entry, "kind", str)
        try:
            kind = GateKind(kind_name)
        except ValueError:
            raise UnknownGateKind(f"gate {gi} has unknown kind '{kind_name}'") from None
        refs = _field(entry, "inputs", list)
        norm_gates.append(
            {
                "kind": kind,
                "inputs": [_net_ref(r, f"gate {gi} input") for r in refs],
                "output": _net_ref(entry.get("output"), f"gate {gi} output"),
            }
        )
        if not kind.arity_ok(len(refs)):
            raise InvariantViolation(f"gate {gi}: {kind.value} cannot take {len(refs)} input(s)")

    builder = NetlistBuilder(name)
    nets: dict[int, object] = {}

    def claim(ref: int, what: str):
        if ref in nets:
            raise InvariantViolation(f"net {ref} has more than one driver ({what})")

    try:
        for entry in inputs:
            claim(entry["net"], f"input {entry['name']}")
            nets[entry["net"]] = builder.add_input(entry["name"])
        for entry in constants:
            claim(entry["net"], "constant")
            nets[entry["net"]] = builder.constant(entry["value"])
        for gi in _doc_order(norm_gates):
            gate = norm_gates[gi]
            claim(gate["output"], f"gate {gi}")
            feeds = []
            for ref in gate["inputs"]:
                if ref not in nets:
                    raise InvariantViolation(f"gate reads undriven net {ref}")
                feeds.append(nets[ref])
            nets[gate["output"]] = builder.add_gate(gate["kind"], feeds)
        for entry in outputs:
            if entry["net"] not in nets:
                raise InvariantViolation(f"output port '{entry['name']}' taps undriven net")
            builder.add_output(entry["name"], nets[entry["net"]])
    except InvariantViolation:
        raise
    except AdderLabError as exc:
        # builder-level complaints (duplicate ports, arity) are document defects
        raise InvariantViolation(str(exc)) from exc
    return builder.finish()


def export_report(report: EquivalenceReport) -> str:
    """Equivalence report as JSON (same canonical conventions as netlists)."""
    doc = {
        "netlist": report.netlist,
        "width": report.width,
        "mode": report.mode,
        "cases_checked": report.cases_checked,
        "failure_count": report.failure_count,
        "failures": [vars(f).copy() for f in report.failures],
        "seed": report.seed,
        "samples": report.samples,
        "generator": report.generator,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- DOT -------------------------------------------------------------------------

def _dot_str(text: str) -> str:
    """``text`` as a quoted DOT id or label, with its quotes and backslashes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(netlist: Netlist) -> str:
    """Graphviz rendering; carry-increment stages become clusters."""
    lines = [f"digraph {_dot_str(netlist.name)} {{", "  rankdir=LR;"]
    for name, _ in netlist.inputs:
        lines.append(f"  {_dot_str('in:' + name)} [shape=ellipse, label={_dot_str(name)}];")
    for value, _ in netlist.constants:
        lines.append(f'  "const{value}" [shape=diamond, label="{value}"];')
    stages: dict[str, list[int]] = {}
    flat: list[int] = []
    for gi, gate in enumerate(netlist.gates):
        if gate.stage is None:
            flat.append(gi)
        else:
            stages.setdefault(gate.stage, []).append(gi)
    def gate_line(gi: int, pad: str) -> str:
        return f'{pad}g{gi} [shape=box, label="{netlist.gates[gi].kind.value}#{gi}"];'
    for gi in flat:
        lines.append(gate_line(gi, "  "))
    for stage, members in stages.items():
        lines.append(f"  subgraph {_dot_str('cluster_' + stage)} {{")
        lines.append(f"    label={_dot_str(stage)};")
        for gi in members:
            lines.append(gate_line(gi, "    "))
        lines.append("  }")
    for name, _ in netlist.outputs:
        lines.append(f"  {_dot_str('out:' + name)} [shape=doubleoctagon, label={_dot_str(name)}];")
    source = {nid.index: _dot_str("in:" + name) for name, nid in netlist.inputs}
    source.update((nid.index, f'"const{value}"') for value, nid in netlist.constants)
    source.update((gate.output.index, f"g{gi}") for gi, gate in enumerate(netlist.gates))
    for gi, gate in enumerate(netlist.gates):
        for nid in gate.inputs:
            lines.append(f"  {source[nid.index]} -> g{gi};")
    for name, nid in netlist.outputs:
        lines.append(f"  {source[nid.index]} -> {_dot_str('out:' + name)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- structural Verilog ------------------------------------------------------------

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# Reserved keywords of IEEE 1364-2005 (Verilog-2005), Annex B.
_KEYWORDS = frozenset("""
    always and assign automatic begin buf bufif0 bufif1 case casex casez cell cmos
    config deassign default defparam design disable edge else end endcase
    endconfig endfunction endgenerate endmodule endprimitive endspecify endtable
    endtask event for force forever fork function generate genvar highz0 highz1
    if ifnone incdir include initial inout input instance integer join large
    liblist library localparam macromodule medium module nand negedge nmos nor
    noshowcancelled not notif0 notif1 or output parameter pmos posedge primitive
    pull0 pull1 pulldown pullup pulsestyle_ondetect pulsestyle_onevent rcmos
    real realtime reg release repeat rnmos rpmos rtran rtranif0 rtranif1
    scalared showcancelled signed small specify specparam strong0 strong1
    supply0 supply1 table task time tran tranif0 tranif1 tri tri0 tri1 triand
    trior trireg unsigned use uwire vectored wait wand weak0 weak1 while wire
    wor xnor xor
""".split())


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def export_verilog(netlist: Netlist) -> str:
    """Gate-primitive structural Verilog: one instance per gate, g<index>."""
    names = {nid.index: f"1'b{value}" for value, nid in netlist.constants}
    taken: dict[str, str] = {}

    def reserve(raw: str, what: str) -> str:
        ident = _sanitize(raw)
        if not _IDENT.match(ident):
            raise InvalidIdentifier(f"{what} '{raw}' is not an identifier even after sanitizing")
        if ident in _KEYWORDS:
            raise InvalidIdentifier(f"{what} '{raw}' is the Verilog keyword '{ident}'")
        if ident in taken:
            raise NameCollisionAfterSanitization(
                f"{what} '{raw}' collides with {taken[ident]} as '{ident}'"
            )
        taken[ident] = f"{what} '{raw}'"
        return ident

    module = _sanitize(netlist.name) or "netlist"
    if not _IDENT.match(module) or module in _KEYWORDS:
        module = "netlist"
    in_ports = []
    for name, nid in netlist.inputs:
        ident = reserve(name, "input port")
        names[nid.index] = ident
        in_ports.append(ident)
    out_ports = []
    aliases = []  # output ports tapping an already-named net (input, constant, earlier output); wired with a buf
    for name, nid in netlist.outputs:
        ident = reserve(name, "output port")
        if nid.index in names:
            aliases.append((ident, nid))
        else:
            names[nid.index] = ident
        out_ports.append(ident)

    wires = []
    for index in range(len(netlist.drivers)):
        if index not in names:
            ident, suffix = f"n{index}", 0
            while ident in taken:  # a port already holds the name
                suffix += 1
                ident = f"n{index}_{suffix}"
            names[index] = reserve(ident, "wire")
            wires.append(names[index])

    lines = [f"module {module} ({', '.join(in_ports + out_ports)});"]
    for ident in in_ports:
        lines.append(f"  input {ident};")
    for ident in out_ports:
        lines.append(f"  output {ident};")
    for wire in wires:
        lines.append(f"  wire {wire};")
    for gi, gate in enumerate(netlist.gates):
        ops = [names[gate.output.index]] + [names[nid.index] for nid in gate.inputs]
        lines.append(f"  {gate.kind.value.lower()} g{gi} ({', '.join(ops)});")
    for k, (ident, nid) in enumerate(aliases):
        lines.append(f"  buf g{len(netlist.gates) + k} ({ident}, {names[nid.index]});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


# -- CSV ------------------------------------------------------------------------------

def export_csv(table: ComparisonTable) -> str:
    """Comparison table as CSV; reals use fixed two-decimal format."""
    lines = ["arch,width,block,gates,delay_gd,verified"]
    for row in table.rows:
        lines.append(",".join(_row_cells(row)))
    return "\n".join(lines) + "\n"
