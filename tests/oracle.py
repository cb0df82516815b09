"""Brute-force references the tests pin expected values against.

These deliberately avoid the library's dynamic-programming timing pass:
the delay oracle enumerates every input-to-output path and sums gate
delays along each one, so agreement is meaningful.  Only use it on small
netlists; path counts grow exponentially.

``reference_evaluate_nets`` is the per-gate interpreter that the
bit-plane kernel, ``Netlist.simulate_planes`` with or without kept
``nets``, and ``Netlist.evaluate`` on top of it are tested against: it
combines whole values with Python's ``&``, ``|`` and ``^``, gate by
gate, and shares no code with the kernel.

The reference equivalence checkers are the obvious path the bit-plane
checkers in ``adderlab.verify`` are tested against: operands unpacked
into one uint8 array per input port, simulated with
``reference_evaluate_nets``, and packed back into integers for
comparison.

``reference_exhaustive_chunks`` gives the input and expected planes of
the chunks that an exhaustive check sweeps when its proof runs out of
nodes: each case's operands and integer sum ``a + b + cin``, taken apart
by division and remainder and packed with ``np.packbits``, one case per
lane.  ``reference_case_planes`` gives those planes for any list of
cases, one Python int per case and word, with no numpy until the end;
``reference_random_cases`` draws a random check's cases sample by sample.

``reference_netlist_check`` is the check that ``Netlist()`` runs on its
tables, in the same order, with no shortcut for gate outputs that
ascend: every fan-in entry is looked up by its source's rank.  It raises
the same exception with the same message as ``Netlist()``, or returns
the ``drivers`` table, and runs no code of ``adderlab.netlist``.

``reference_doc_order`` is the quadratic form of the lowest-index-first
topological sort that gives ``import_json``'s build order.

``reference_export_json`` writes the interchange document with
``json.dumps(indent=2, sort_keys=True)``, and ``reference_import_json``
replays a document through ``NetlistBuilder``'s public methods, checking
it field by field: the plain forms that ``adderlab.io``'s line-template
writer and importer must match byte for byte and error for error.

``reference_export_dot`` writes the DOT rendering with one f-string per
edge; ``export_dot``, which writes each gate's in-edges with one join,
must match it byte for byte.

``reference_import_verilog`` reads back the structural Verilog that
``export_verilog`` writes and rebuilds its netlist through
``NetlistBuilder``, so an exported adder can be checked again.
"""

import json
import re
from functools import reduce
from operator import and_, or_

import numpy as np

from adderlab import (
    AdderLabError,
    CombinationalLoop,
    DuplicatePortName,
    FanInViolation,
    Gate,
    GateKind,
    InvalidParameter,
    InvariantViolation,
    NetlistBuilder,
    ParseError,
    UnknownGateKind,
    UnknownNet,
    UnsupportedVersion,
)
from adderlab.verify import (
    FAILURE_CAP,
    EquivalenceReport,
    Failure,
    boundary_cases,
    oracle_add,
)


def iter_path_delays(netlist, model, net):
    """Yield the summed gate delay of every path ending at net ``net``."""
    gi = netlist.drivers[net]
    if gi is not None:
        gate = netlist.gates[gi]
        d = model.gate_delay(gate.kind, len(gate.inputs))
        for feed in gate.inputs:
            for tail in iter_path_delays(netlist, model, feed):
                yield tail + d
    else:
        yield 0.0


def brute_force_delay(netlist, model):
    """Longest path delay to any output port, by exhaustive enumeration."""
    best = 0.0
    for _, net in netlist.outputs:
        best = max(best, max(iter_path_delays(netlist, model, net)))
    return best


# -- gate-by-gate simulation ------------------------------------------------------

def reference_evaluate_nets(netlist, assignment):
    """Value of every net under ``assignment`` (indexed by net id).

    Values may be 0/1 scalars or numpy arrays of them; arrays combine
    elementwise, so one call simulates many cases.  A net keeps the shape
    and dtype its operands give it, and an input net is the caller's value.
    """
    values = [None] * len(netlist.drivers)
    for name, net in netlist.inputs:
        values[net] = assignment[name]
    for value, net in netlist.constants:
        values[net] = value
    for gate in netlist.gates:
        vals = [values[net] for net in gate.inputs]
        if gate.kind is GateKind.AND:
            value = reduce(and_, vals)
        elif gate.kind is GateKind.OR:
            value = reduce(or_, vals)
        elif gate.kind is GateKind.XOR:
            value = vals[0] ^ vals[1]
        else:
            value = vals[0] ^ 1
        values[gate.output] = value
    return values


def reference_evaluate(netlist, assignment):
    """Output-port values of ``reference_evaluate_nets``, keyed by port name."""
    values = reference_evaluate_nets(netlist, assignment)
    return {name: values[net] for name, net in netlist.outputs}


# -- net checks -----------------------------------------------------------------

def reference_netlist_check(name, gates, inputs, outputs, constants, carry_merges=None):
    """The ``drivers`` of tables that ``Netlist()`` accepts, else the exception it raises.

    Checks, in order, and raises on the first defect: the four tables are
    tuples and the port and constant entries pairs; the names are strs
    and no input or output name repeats; constants are 0 or 1; every
    gate is a ``Gate``; each net 0..n-1 has one source (an input, a
    constant or a gate output, n being their count) and every tapped net
    is one of these ints; then gate by gate, its inputs are a tuple, its
    kind a ``GateKind`` of a fan-in it allows, its stage a str or None,
    and each input a net whose source is a port or an earlier gate: its
    rank, the gate's index or a negative number for a port, is looked up
    for every fan-in entry; last, carry merges name two-input OR gates.
    """
    for what, table in (("gates", gates), ("inputs", inputs), ("outputs", outputs), ("constants", constants)):
        if type(table) is not tuple:
            raise InvalidParameter(f"{what} of netlist '{name}' must be a tuple, not {type(table).__name__}")
        if what != "gates":
            for entry in table:
                if type(entry) is not tuple or len(entry) != 2:
                    raise InvalidParameter(f"{what} of netlist '{name}' must be a tuple of pairs, got {entry!r}")
    input_names = [port for port, _ in inputs]
    output_names = [port for port, _ in outputs]
    for port in [name] + input_names + output_names:
        if not isinstance(port, str):
            raise InvalidParameter(f"netlist and port names must be strs, got {port!r}")
    for what, names in (("input", input_names), ("output", output_names)):
        for k, port in enumerate(names):
            if port in names[:k]:
                raise DuplicatePortName(f"{what} port '{port}' already declared")
    for value, _ in constants:
        if type(value) is not int or value not in (0, 1):
            raise InvalidParameter(f"constant of netlist '{name}' must be 0 or 1, got {value!r}")
    for gi, gate in enumerate(gates):
        if not isinstance(gate, Gate):
            raise InvalidParameter(f"gate {gi} of netlist '{name}' is a {type(gate).__name__}, not a Gate")
    ports = [net for _, net in inputs + constants]
    sources = ports + [gate.output for gate in gates]
    n, first = len(sources), len(ports)
    rank = [None] * n

    def unknown(net):
        return UnknownNet(f"no net {net!r} in netlist '{name}'")

    for k, net in enumerate(sources):
        if type(net) is not int or not 0 <= net < n:
            raise unknown(net)
        if rank[net] is not None:
            raise InvariantViolation(f"net {net} has more than one source")
        rank[net] = k - first
    for _, net in outputs:
        if type(net) is not int or not 0 <= net < n:
            raise unknown(net)
    for gi, gate in enumerate(gates):
        where = f"gate {gi} of netlist '{name}'"
        if type(gate.inputs) is not tuple:
            raise InvalidParameter(f"{where}: inputs must be a tuple, got {gate.inputs!r}")
        if not isinstance(gate.kind, GateKind):
            raise InvalidParameter(f"{where}: gate kind must be a GateKind, got {gate.kind!r}")
        fanin = len(gate.inputs)
        if gate.kind is GateKind.NOT:
            allowed = fanin == 1
        elif gate.kind is GateKind.XOR:
            allowed = fanin == 2
        else:
            allowed = fanin >= 2
        if not allowed:
            raise FanInViolation(f"{gate.kind.value} cannot take {fanin} input(s) at {where}")
        if gate.stage is not None and not isinstance(gate.stage, str):
            raise InvalidParameter(f"{where}: stage must be a str or None, got {gate.stage!r}")
        for net in gate.inputs:
            if type(net) is not int or not 0 <= net < n:
                raise unknown(net)
            if rank[net] >= gi:
                raise CombinationalLoop(f"{where} reads gate {rank[net]}, which is not earlier", gates=(gi, rank[net]))
    if carry_merges is not None and type(carry_merges) is not tuple:
        raise InvalidParameter(f"carry merges of netlist '{name}' must be None or a tuple")
    for gi in carry_merges or ():
        if type(gi) is not int or not 0 <= gi < len(gates):
            raise UnknownNet(f"no gate {gi!r} in netlist '{name}'")
        if len(gates[gi].inputs) != 2:
            raise InvalidParameter(f"carry merge gate {gi} of netlist '{name}' has no two inputs to merge")
        if gates[gi].kind is not GateKind.OR:
            raise InvalidParameter(f"carry merge gate {gi} of netlist '{name}' is no OR gate")
    return tuple(None if r < 0 else r for r in rank)


# -- document gate order ---------------------------------------------------------

def reference_doc_order(gates):
    """Document gate indices in the order ``import_json`` builds them.

    Over and over, place the lowest-index unplaced gate none of whose
    inputs is driven by an unplaced gate.  On a loop this stops early:
    the gates never placed are the ones on or behind the loop.
    """
    driver = {gate["output"]: gi for gi, gate in enumerate(gates)}
    placed = []

    def ready(gi):
        return gi not in placed and all(
            ref not in driver or driver[ref] in placed for ref in gates[gi]["inputs"]
        )

    while (gi := next((gi for gi in range(len(gates)) if ready(gi)), None)) is not None:
        placed.append(gi)
    return placed


# -- JSON interchange ---------------------------------------------------------------

def reference_export_json(netlist):
    """The canonical document: nets renumbered inputs, constants, gates; keys sorted."""
    ids = {}
    for _, net in (*netlist.inputs, *netlist.constants):
        ids[net] = len(ids)
    for gate in netlist.gates:
        ids[gate.output] = len(ids)
    doc = {
        "format_version": 1,
        "name": netlist.name,
        "inputs": [{"name": name, "net": ids[net]} for name, net in netlist.inputs],
        "outputs": [{"name": name, "net": ids[net]} for name, net in netlist.outputs],
        "constants": [{"net": ids[net], "value": value} for value, net in netlist.constants],
        "gates": [
            {
                "kind": gate.kind.value,
                "inputs": [ids[net] for net in gate.inputs],
                "output": ids[gate.output],
            }
            for gate in netlist.gates
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _field(doc, key, kind):
    if key not in doc:
        raise ParseError(f"document lacks '{key}'")
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"'{key}' must be {kind.__name__}")
    return value


def _net_ref(value, where):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(f"{where} must be a non-negative integer net id")
    return value


def reference_import_json(text):
    """``import_json``'s netlist or error: every field checked in document
    order, then the gates replayed through ``NetlistBuilder`` in
    ``reference_doc_order``, which limits it to small documents."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError, TypeError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    version = _field(doc, "format_version", int)
    if version != 1:
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
    nets = {}

    def claim(ref, what):
        if ref in nets:
            raise InvariantViolation(f"net {ref} has more than one driver ({what})")

    try:
        for entry in inputs:
            claim(entry["net"], f"input {entry['name']}")
            nets[entry["net"]] = builder.add_input(entry["name"])
        for entry in constants:
            claim(entry["net"], "constant")
            nets[entry["net"]] = builder.constant(entry["value"])
        seen = set()
        for gate in norm_gates:
            if gate["output"] in seen:
                raise InvariantViolation(f"net {gate['output']} has more than one driver")
            seen.add(gate["output"])
        order = reference_doc_order(norm_gates)
        if len(order) != len(norm_gates):
            stuck = min(set(range(len(norm_gates))) - set(order))
            raise InvariantViolation(f"gate {stuck} sits on a combinational loop")
        for gi in order:
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


# -- per-case equivalence checkers ---------------------------------------------

_CHUNK = 1 << 18


def _bit_assignment(width, a, b, cin):
    asg = {f"a_{i}": ((a >> np.uint64(i)) & 1).astype(np.uint8) for i in range(width)}
    asg |= {f"b_{i}": ((b >> np.uint64(i)) & 1).astype(np.uint8) for i in range(width)}
    asg["cin"] = cin.astype(np.uint8)
    return asg


def _packed(outputs, width, n):
    """s_0..s_{w-1} and cout as integer arrays; constants broadcast to length n."""
    total = np.zeros(n, dtype=np.uint64)
    for i in range(width):
        total |= np.asarray(outputs[f"s_{i}"], dtype=np.uint64) << np.uint64(i)
    cout = np.broadcast_to(np.asarray(outputs["cout"], dtype=np.uint64), (n,))
    return total, cout


def reference_check_exhaustive(netlist, width):
    """check_exhaustive's report, computed case by case in (a, b, cin) order."""
    mask = np.uint64((1 << width) - 1)
    cases = 1 << (2 * width + 1)
    failures, failure_count = [], 0
    for start in range(0, cases, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, cases), dtype=np.uint64)
        a, b, cin = idx >> np.uint64(width + 1), (idx >> np.uint64(1)) & mask, idx & np.uint64(1)
        got_sum, got_cout = _packed(
            reference_evaluate(netlist, _bit_assignment(width, a, b, cin)), width, len(idx)
        )
        total = a + b + cin
        exp_sum, exp_cout = total & mask, total >> np.uint64(width)
        bad = np.flatnonzero((got_sum != exp_sum) | (got_cout != exp_cout))
        failure_count += len(bad)
        for j in bad[: max(0, FAILURE_CAP - len(failures))]:
            failures.append(Failure(
                int(a[j]), int(b[j]), int(cin[j]),
                int(exp_sum[j]), int(exp_cout[j]), int(got_sum[j]), int(got_cout[j]),
            ))
    return EquivalenceReport(
        netlist=netlist.name, width=width, mode="exhaustive", cases_checked=cases,
        failure_count=failure_count, failures=tuple(failures),
    )


def reference_random_cases(width, samples, seed):
    """check_random's cases in draw order: the corner cases, then a, b and cin of each sample in turn."""
    rng = np.random.Generator(np.random.PCG64(seed))
    mask = (1 << width) - 1
    nbytes = (width + 7) // 8
    cases = list(boundary_cases(width))
    for _ in range(samples):
        a = int.from_bytes(rng.bytes(nbytes), "little") & mask
        b = int.from_bytes(rng.bytes(nbytes), "little") & mask
        cases.append((a, b, int(rng.integers(0, 2))))
    return cases


def reference_check_random(netlist, width, samples, seed):
    """check_random's report: the same PCG64 draws, checked case by case."""
    cases = reference_random_cases(width, samples, seed)
    n = len(cases)
    idx = np.arange(n)
    asg = {
        f"{op}_{i}": np.array([(case[k] >> i) & 1 for case in cases], dtype=np.uint8)
        for k, op in enumerate("ab") for i in range(width)
    }
    asg["cin"] = np.array([case[2] for case in cases], dtype=np.uint8)
    outputs = reference_evaluate(netlist, asg)
    got = [
        (sum(int(np.broadcast_to(outputs[f"s_{i}"], (n,))[j]) << i for i in range(width)),
         int(np.broadcast_to(outputs["cout"], (n,))[j]))
        for j in idx
    ]
    bad = sorted(
        (j for j in idx if got[j] != oracle_add(*cases[j], width)), key=lambda j: cases[j]
    )
    failures = tuple(
        Failure(*cases[j], *oracle_add(*cases[j], width), *got[j]) for j in bad[:FAILURE_CAP]
    )
    return EquivalenceReport(
        netlist=netlist.name, width=width, mode="random", cases_checked=n,
        failure_count=len(bad), failures=failures,
        seed=seed, samples=samples, generator="pcg64",
    )


def reference_exhaustive_chunks(width, words):
    """Yield (first case, cases, input planes, expected planes) of each chunk of an exhaustive sweep.

    Chunk c holds the 64*words consecutive case numbers from 64*words*c
    on (fewer if the 2**(2*width+1) cases end first), case number
    (a * 2**width + b) * 2 + cin.  The input planes are a_0..a_{w-1},
    b_0..b_{w-1} and cin, the expected planes bits 0..width of
    a + b + cin, one case per lane, padded to a whole word with zeros.
    """
    cases = 2 << 2 * width
    for first in range(0, cases, 64 * words):
        j = np.arange(first, min(cases, first + 64 * words), dtype=np.uint64)
        cin, rest = j % 2, j // 2
        a, b = rest // (1 << width), rest % (1 << width)
        bit = [(a >> np.uint64(i)) % 2 for i in range(width)] + [(b >> np.uint64(i)) % 2 for i in range(width)]
        sums = a + b + cin
        rows = [np.pad(np.stack(block).astype(np.uint8), ((0, 0), (0, -len(j) % 64)))
                for block in ([*bit, cin], [(sums >> np.uint64(i)) % 2 for i in range(width + 1)])]
        yield first, len(j), *(np.packbits(block, axis=1, bitorder="little").view("<u8") for block in rows)


def reference_case_planes(cases, width):
    """The (input planes, expected planes) of ``cases``, a list of (a, b, cin), one case per lane in list order.

    The input planes are a_0..a_{w-1}, b_0..b_{w-1} and cin, the expected
    planes bits 0..width of the integer a + b + cin.  Each plane's words are
    Python ints, one bit set per case, turned into uint64 arrays at the end;
    the last word's lanes past the cases are 0.
    """
    words = -(-len(cases) // 64)
    inputs = [[0] * words for _ in range(2 * width + 1)]
    sums = [[0] * words for _ in range(width + 1)]
    for j, (a, b, cin) in enumerate(cases):
        word, lane = divmod(j, 64)
        for rows, value in ((inputs, a | b << width | cin << 2 * width), (sums, a + b + cin)):
            for i, row in enumerate(rows):
                row[word] |= (value >> i & 1) << lane
    return [np.array(row, dtype=np.uint64) for row in inputs], [np.array(row, dtype=np.uint64) for row in sums]


# -- DOT -------------------------------------------------------------------------------

def _dot_str(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def reference_export_dot(netlist):
    """``export_dot``'s text, built line by line with one f-string per edge."""
    lines = [f"digraph {_dot_str(netlist.name)} {{", "  rankdir=LR;"]
    for name, _ in netlist.inputs:
        lines.append(f"  {_dot_str('in:' + name)} [shape=ellipse, label={_dot_str(name)}];")
    for value, _ in netlist.constants:
        lines.append(f'  "const{value}" [shape=diamond, label="{value}"];')
    flat, stages = [], {}
    for gi, gate in enumerate(netlist.gates):
        if gate.stage is None:
            flat.append(gi)
        else:
            stages.setdefault(gate.stage, []).append(gi)

    def gate_line(gi, pad):
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
    source = {net: _dot_str("in:" + name) for name, net in netlist.inputs}
    for value, net in netlist.constants:
        source[net] = f'"const{value}"'
    for gi, gate in enumerate(netlist.gates):
        source[gate.output] = f"g{gi}"
    for gi, gate in enumerate(netlist.gates):
        for net in gate.inputs:
            lines.append(f"  {source[net]} -> g{gi};")
    for name, net in netlist.outputs:
        lines.append(f"  {source[net]} -> {_dot_str('out:' + name)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- Verilog ---------------------------------------------------------------------------

_VERILOG_GATES = {"and": GateKind.AND, "or": GateKind.OR, "xor": GateKind.XOR, "not": GateKind.NOT, "buf": None}
_VERILOG_LINE = re.compile(
    r"module (?P<module>\w+) \((?P<ports>[\w, ]*)\);"
    r"|(?P<decl>input|output|wire) (?P<name>\w+);"
    r"|(?P<gate>and|or|xor|not|buf) g[0-9]+ \((?P<nets>[\w', ]+)\);"
    r"|(?P<end>endmodule)"
)


def reference_import_verilog(text):
    """The netlist that ``export_verilog`` wrote as ``text``, rebuilt through ``NetlistBuilder``.

    Reads only the subset the exporter writes, one statement a line: a
    ``module`` header, ``input``, ``output`` and ``wire`` declarations,
    ``and``/``or``/``xor``/``not``/``buf`` instances whose first terminal
    is the output, the constants ``1'b0`` and ``1'b1``, and
    ``endmodule``.  A ``buf`` adds no gate: its output names the same
    net as its input.  Input ports are declared in file order, and
    output ports in file order once every instance is read.  Anything
    else raises ValueError, and a net read before it is driven KeyError.
    """
    lines = text.splitlines()
    head = _VERILOG_LINE.fullmatch(lines[0]) if lines else None
    if head is None or head["module"] is None:
        raise ValueError("no module header on the first line")
    builder = NetlistBuilder(head["module"])
    nets, declared = {}, {"input": [], "output": [], "wire": []}

    def net(term):
        return builder.constant(int(term[-1])) if term in ("1'b0", "1'b1") else nets[term]

    for k, line in enumerate(lines[1:], 2):
        match = _VERILOG_LINE.fullmatch(line.strip())
        if match is None or match["module"] is not None or declared is None:
            raise ValueError(f"line {k} is outside the subset export_verilog writes: {line!r}")
        if match["decl"] is not None:
            declared[match["decl"]].append(match["name"])
            if match["decl"] == "input":
                nets[match["name"]] = builder.add_input(match["name"])
        elif match["gate"] is not None:
            out, *ins = match["nets"].split(", ")
            kind = _VERILOG_GATES[match["gate"]]
            nets[out] = net(ins[0]) if kind is None else builder.add_gate(kind, map(net, ins))
        else:
            for name in declared["output"]:
                builder.add_output(name, nets[name])
            ports = ", ".join(declared["input"] + declared["output"])
            if head["ports"] != ports or not set(declared["wire"]) <= nets.keys():
                raise ValueError("the header's ports are not the declared ones, or a wire is never driven")
            declared = None
    if declared is not None:
        raise ValueError("no endmodule")
    return builder.finish()
