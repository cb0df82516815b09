"""Interchange and rendering: canonical JSON, Graphviz DOT, structural
Verilog, and CSV comparison tables.

JSON is the only round-trippable format.  Export is canonical (keys
sorted, nets renumbered densely, gates in stored order), so rebuilds and
re-imports give identical bytes; it is written from fixed line templates.
Import has two routes, and the document alone picks one.  A canonical
document, laid out as export writes it, already numbers its nets as the
netlist does, so its tables go straight to ``Netlist()``, whose checks
cover every net, kind and port.  Every other document, and any canonical
one that ``Netlist()`` refuses, takes the checked route: each field and
the document's own net ids are checked, then the netlist is replayed
through ``NetlistBuilder``, so each error is raised as that route words
it.  There a document's gates may come in any order: they are replayed
in dependency order, the lowest document index first.  DOT and Verilog
are one-way views; CSV serializes comparison tables.
"""

from __future__ import annotations

import heapq
import json
import re

from .analysis import ComparisonTable, _row_cells
from .errors import (
    DuplicatePortName,
    InvalidIdentifier,
    InvariantViolation,
    NameCollisionAfterSanitization,
    ParseError,
    UnknownGateKind,
    UnsupportedVersion,
)
from .netlist import Gate, GateKind, Netlist, NetlistBuilder
from .verify import EquivalenceReport

FORMAT_VERSION = 1


# -- JSON ---------------------------------------------------------------------

def _json_list(items: list[str], depth: int) -> str:
    """A JSON array of preformatted ``items`` at nesting ``depth``, laid out as
    ``json.dumps(indent=2)`` lays it out."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def export_json(netlist: Netlist) -> str:
    """Serialize to the canonical interchange document (byte-deterministic).

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)``,
    written from fixed line templates; only the names go through
    ``json.dumps``.  Every piece of the document, three per gate, goes to
    one list that is joined once, so the text is copied once.
    """
    # Canonical net numbering: input ports, then constants, then gate outputs.
    # Renumbered here, not in finish(): build_cia mints its constant after block 0's
    # gates, so stored numbering would rename its Verilog wires.
    ids: dict[int, str] = {}
    for _, net in (*netlist.inputs, *netlist.constants):
        ids[net] = str(len(ids))
    for gate in netlist.gates:
        ids[gate.output] = str(len(ids))

    def ports(table) -> str:
        return _json_list(
            [
                "{\n"
                f'      "name": {json.dumps(name)},\n'
                f'      "net": {ids[net]}\n'
                "    }"
                for name, net in table
            ],
            1,
        )

    constants = [
        "{\n"
        f'      "net": {ids[net]},\n'
        f'      "value": {value}\n'
        "    }"
        for value, net in netlist.constants
    ]
    parts = [
        "{\n"
        f'  "constants": {_json_list(constants, 1)},\n'
        f'  "format_version": {FORMAT_VERSION},\n'
        '  "gates": '
    ]
    # a gate has at least one input, so its array is never "[]".  The exporters read a kind's
    # name as ``_value_``, the plain attribute behind ``.value``, whose property costs ten times more
    head = '[\n    {\n      "inputs": [\n        '
    for gate in netlist.gates:
        parts += (
            head,
            ",\n        ".join(map(ids.__getitem__, gate.inputs)),
            f'\n      ],\n      "kind": "{gate.kind._value_}",\n      "output": {ids[gate.output]}\n    }}',
        )
        head = ',\n    {\n      "inputs": [\n        '
    parts.append(
        ("\n  ]" if netlist.gates else "[]") + ",\n"
        f'  "inputs": {ports(netlist.inputs)},\n'
        f'  "name": {json.dumps(netlist.name)},\n'
        f'  "outputs": {ports(netlist.outputs)}\n'
        "}\n"
    )
    return "".join(parts)


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


def _doc_order(refs: list[list[int]], outs: list[int]) -> list[int]:
    """Kahn order of document gates, gate gi reading nets ``refs[gi]`` and
    driving net ``outs[gi]`` (document ids); lowest index first."""
    driver_of = {}
    for gi, out in enumerate(outs):
        if out in driver_of:
            raise InvariantViolation(f"net {out} has more than one driver")
        driver_of[out] = gi
    consumers: list[list[int]] = [[] for _ in outs]
    indeg = [0] * len(outs)
    for gi, ins in enumerate(refs):
        for ref in ins:
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
    if len(order) != len(outs):
        stuck = min(set(range(len(outs))) - set(order))
        raise InvariantViolation(f"gate {stuck} sits on a combinational loop")
    return order


_KINDS = {kind.value: kind for kind in GateKind}  # a document's kind name -> GateKind


def _import_canonical(doc) -> Netlist:
    """The netlist of a canonical document, its ids taken as net ints; any
    other document raises, with an exception of any type.

    Canonical is what ``export_json`` writes: the input ports on ids
    0..i-1 in order, the constants on the next ids with ascending values,
    the gate outputs on the ids after those in document order.  Those ids
    are the nets that the checked route's replay would number, so only
    their places are checked here, once per port, constant and gate.
    ``Netlist()`` checks the rest: that every id is an int, that each gate
    reads only earlier nets and every port taps one, and every kind,
    fan-in, constant value and name.
    """
    version, inputs, outputs = doc["format_version"], doc["inputs"], doc["outputs"]
    constants, gates = doc["constants"], doc["gates"]
    if type(version) is not int or version != FORMAT_VERSION or not (
        type(inputs) is type(outputs) is type(constants) is type(gates) is list
    ):
        raise ValueError("not a canonical document")
    ins = tuple([(entry["name"], entry["net"]) for entry in inputs])
    consts = tuple([(entry["value"], entry["net"]) for entry in constants])
    table = tuple([Gate(_KINDS[entry["kind"]], tuple(entry["inputs"]), entry["output"]) for entry in gates])
    first = len(ins) + len(consts)
    values = [value for value, _ in consts]
    if (
        [net for _, net in ins + consts] != list(range(first))
        or [gate.output for gate in table] != list(range(first, first + len(table)))
        or values != sorted(set(values))  # two constants of one value share one net
    ):
        raise ValueError("not a canonical document")
    return Netlist(doc["name"], table, ins, tuple([(entry["name"], entry["net"]) for entry in outputs]), consts)


def import_json(text: str) -> Netlist:
    """Parse and re-validate an interchange document into a fresh netlist.

    Structural problems (a net with two sources, undriven references, bad
    arity, cycles, duplicate ports) raise InvariantViolation; malformed
    documents raise ParseError; foreign kinds or versions raise
    UnknownGateKind / UnsupportedVersion.

    A canonical document, as ``export_json`` writes it, is built straight
    from its ids (see ``_import_canonical``).  Every other document, and
    every canonical one that ``Netlist()`` refuses, takes the checked
    route, which alone words the errors.  There every field is checked,
    in document order, before any net is numbered.  Then the document is
    replayed through ``NetlistBuilder``, which numbers the nets: inputs,
    then one net per constant value, then gate outputs in build order,
    which is the document's order unless a gate reads a later gate.  The
    builder rejects repeated port names; the checked route itself checks
    what only a document has, its net ids: none driven twice, none read
    or tapped undriven.  Both routes give equal tables.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError, TypeError) as exc:  # also too-deep nesting, too-long integers, non-text
        raise ParseError(f"not valid JSON: {exc}") from exc
    try:
        return _import_canonical(doc)
    except Exception:  # not canonical, or Netlist() refuses it: the checked route accepts or words each defect
        pass  # outside this handler, so that its errors do not chain to the direct route's
    return _import_checked(doc)


def _import_checked(doc) -> Netlist:
    """``import_json``'s checked route: every field, then a builder replay."""
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
    kinds: list[GateKind] = []
    refs: list[list[int]] = []  # the document's own lists, not copies
    outs: list[int] = []
    for gi, entry in enumerate(gates):
        if not isinstance(entry, dict):
            raise ParseError("gates must be objects")
        kind_name = _field(entry, "kind", str)
        kind = _KINDS.get(kind_name)
        if kind is None:
            raise UnknownGateKind(f"gate {gi} has unknown kind '{kind_name}'")
        ins = _field(entry, "inputs", list)
        for ref in ins:
            _net_ref(ref, f"gate {gi} input")
        outs.append(_net_ref(entry.get("output"), f"gate {gi} output"))
        if not kind.arity_ok(len(ins)):
            raise InvariantViolation(f"gate {gi}: {kind.value} cannot take {len(ins)} input(s)")
        kinds.append(kind)
        refs.append(ins)

    builder = NetlistBuilder(name)
    nets: dict[int, int] = {}  # document net id -> net
    try:
        for entry in inputs:
            ref = entry["net"]
            if ref in nets:
                raise InvariantViolation(f"net {ref} has more than one driver (input {entry['name']})")
            nets[ref] = builder.add_input(entry["name"]).index
        for entry in constants:
            ref = entry["net"]
            if ref in nets:
                raise InvariantViolation(f"net {ref} has more than one driver (constant)")
            nets[ref] = builder.constant(entry["value"]).index
        for gi in _doc_order(refs, outs):
            out = outs[gi]
            if out in nets:
                raise InvariantViolation(f"net {out} has more than one driver (gate {gi})")
            try:
                feeds = tuple(map(nets.__getitem__, refs[gi]))
            except KeyError as exc:
                raise InvariantViolation(f"gate reads undriven net {exc.args[0]}") from None
            nets[out] = builder._gate(kinds[gi], feeds)
        for entry in outputs:
            ref, port = entry["net"], entry["name"]
            if ref not in nets:
                raise InvariantViolation(f"output port '{port}' taps undriven net")
            builder._output(port, nets[ref])
    except DuplicatePortName as exc:
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
        return f'{pad}g{gi} [shape=box, label="{netlist.gates[gi].kind._value_}#{gi}"];'
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
    source = {net: _dot_str("in:" + name) for name, net in netlist.inputs}
    source.update((net, f'"const{value}"') for value, net in netlist.constants)
    source.update((gate.output, f"g{gi}") for gi, gate in enumerate(netlist.gates))
    for gi, gate in enumerate(netlist.gates):  # one "  {source} -> g{gi};" line per input
        edge = f" -> g{gi};"
        lines.append("  " + (edge + "\n  ").join(map(source.__getitem__, gate.inputs)) + edge)
    for name, net in netlist.outputs:
        lines.append(f"  {source[net]} -> {_dot_str('out:' + name)};")
    lines += ("}", "")  # the empty last line ends the text with a newline
    return "\n".join(lines)


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
    names = {net: f"1'b{value}" for value, net in netlist.constants}
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
    for name, net in netlist.inputs:
        ident = reserve(name, "input port")
        names[net] = ident
        in_ports.append(ident)
    out_ports = []
    aliases = []  # output ports tapping an already-named net (input, constant, earlier output); wired with a buf
    for name, net in netlist.outputs:
        ident = reserve(name, "output port")
        if net in names:
            aliases.append((ident, net))
        else:
            names[net] = ident
        out_ports.append(ident)

    wires = []
    for index in sorted(gate.output for gate in netlist.gates):  # the other nets have names already
        if index not in names:
            ident, suffix = f"n{index}", 0
            while ident in taken:  # a port already holds the name
                suffix += 1
                ident = f"n{index}_{suffix}"
            names[index] = ident  # an identifier, no keyword, and no other wire's name: reserve() would pass it
            wires.append(ident)

    lines = [f"module {module} ({', '.join(in_ports + out_ports)});"]
    for ident in in_ports:
        lines.append(f"  input {ident};")
    for ident in out_ports:
        lines.append(f"  output {ident};")
    for wire in wires:
        lines.append(f"  wire {wire};")
    for gi, gate in enumerate(netlist.gates):
        ins = ", ".join(map(names.__getitem__, gate.inputs))
        lines.append(f"  {gate.kind._value_.lower()} g{gi} ({names[gate.output]}, {ins});")
    for k, (ident, net) in enumerate(aliases):
        lines.append(f"  buf g{len(netlist.gates) + k} ({ident}, {names[net]});")
    lines += ("endmodule", "")  # the empty last line ends the text with a newline
    return "\n".join(lines)


# -- CSV ------------------------------------------------------------------------------

def export_csv(table: ComparisonTable) -> str:
    """Comparison table as CSV; reals use fixed two-decimal format."""
    lines = ["arch,width,block,gates,delay_gd,verified"]
    for row in table.rows:
        lines.append(",".join(_row_cells(row)))
    return "\n".join(lines) + "\n"
