"""Combinational gate-level netlists: construction, evaluation, timing.

A netlist is its gates and ports: named input ports, constants and
AND/OR/XOR/NOT gates over nets 0..n-1, n being their count.  A net is a
plain int in every table of a netlist; ``NetId`` is only the handle a
``NetlistBuilder`` returns and accepts.  Every net has exactly one
source: an input port, a constant or one gate's output.  ``constants``
lists (value, net) pairs in ascending value order; output ports tap any
net.  ``drivers[i]``, derived from the gates, is the gate that drives
net i, or None.  A carry-increment adder's ``carry_merges`` are the
indices of the OR gates that merge each stage's two carries, which are
those gates' inputs.  Gates are stored in dependency order: each reads only
inputs, constants and earlier gates, as the builder guarantees and
``Netlist`` checks on construction, along with each gate's kind, fan-in
and stage and the ports' names.  ``NetlistBuilder`` is the only
supported way to grow one; after ``finish()`` the result is immutable
and safe to share.

One kernel simulates: a program of two-operand bitwise steps on uint64
bit-planes, 64 cases per word (parallel-pattern simulation), run by the
one loop of ``_run``.  ``_plan`` lowers the gates into one such program
for the nets a caller keeps (None: every net), anew on each call: a
netlist keeps no state, so each caller lowers once per call or sweep
and hands that plan to ``_run`` for every chunk.  The lowering is
hash-consed (structural hashing): gates' operands are sorted, a step
computed once is never emitted again, and nets whose values are the same
step, an input or a constant share one slot.  So the product terms that
lookahead carries share run once, and a w12 lookahead adder runs 192
steps, not the 478 of lowering each gate on its own.  A constant operand
is the zeros or ones row, read by its steps like any other.  A plan then
skips steps none of the kept nets depends on.  A run writes into one
slab of planes in which any other slot's row is reused once its last
reader has run, so the slab holds far fewer planes than there are nets.
Every run goes through ``_run``, unchecked; ``simulate_planes`` is the
checked public entry point.  ``evaluate`` packs 0/1 integers or numpy
arrays of them into planes and keeps its output taps, so a whole input
space runs in one pass, with one lowering.  Timing and the exporters
never see the program: they walk the stored gates.  Timing uses a
``DelayModel`` that assigns a base delay per gate kind, optionally
scaled by ceil(log2(fan-in)) for wide gates.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CombinationalLoop,
    DuplicatePortName,
    FanInViolation,
    InvalidAssignment,
    InvalidParameter,
    InvariantViolation,
    MissingInput,
    NetlistFrozen,
    UnknownInput,
    UnknownNet,
)


class GateKind(Enum):
    """Logic primitive.  AND/OR take two or more inputs, XOR exactly two, NOT one."""

    AND = "AND"
    OR = "OR"
    XOR = "XOR"
    NOT = "NOT"

    # Members are singletons, so they hash by identity, in C; Enum's own __hash__ hashes
    # the name in Python, and the delay model, the census and the kernel look kinds up per gate.
    __hash__ = object.__hash__

    def arity_ok(self, n: int) -> bool:
        # _NOT and _XOR, not GateKind.NOT: a member looked up on the enum class
        # costs more than the rest, and the builder and Netlist() ask per gate
        if self is _NOT:
            return n == 1
        if self is _XOR:
            return n == 2
        return n >= 2


_NOT, _XOR = GateKind.NOT, GateKind.XOR


@dataclass(frozen=True, slots=True)
class NetId:
    """A builder's handle to one net; only valid with the builder that issued it."""

    index: int
    owner: int


@dataclass(frozen=True, slots=True)
class Gate:
    kind: GateKind
    inputs: tuple[int, ...]
    output: int
    stage: str | None = None


class FaninPenalty(Enum):
    NONE = "none"
    LOG2 = "log2"


_LOG2 = FaninPenalty.LOG2  # as _NOT and _XOR: gate_delay asks once per gate


@dataclass(frozen=True)
class DelayModel:
    """Per-kind gate delays in dimensionless gate-delay units.

    With ``FaninPenalty.LOG2`` a gate of fan-in f costs
    base * ceil(log2(max(f, 2))), charging wide gates for the tree they
    would decompose into.
    """

    name: str
    base: Mapping[GateKind, float]
    fanin_penalty: FaninPenalty = FaninPenalty.NONE

    def __post_init__(self) -> None:
        if not isinstance(self.fanin_penalty, FaninPenalty):
            raise InvalidParameter(f"fan-in penalty must be a FaninPenalty, got {self.fanin_penalty!r}")
        if not isinstance(self.base, Mapping):
            raise InvalidParameter(f"delay model '{self.name}' needs a mapping of delays, got {self.base!r}")
        for kind in GateKind:
            if kind not in self.base:
                raise InvalidParameter(f"delay model '{self.name}' lacks a delay for {kind.value}")
            d = self.base[kind]
            if isinstance(d, bool) or not isinstance(d, numbers.Real) or not 0 <= d < math.inf:
                raise InvalidParameter(f"delay for {kind.value} must be >= 0")

    def gate_delay(self, kind: GateKind, fanin: int) -> float:
        if type(kind) is not GateKind:  # a base may hold keys that are no kinds
            raise InvalidParameter(f"gate kind must be a GateKind, got {kind!r}")
        if type(fanin) is not int:
            fanin = _require_int(fanin, "fan-in")
        d = self.base[kind]
        if self.fanin_penalty is _LOG2:
            # ceil(log2(n)) for n >= 2, computed exactly in integers
            d = d * (max(fanin, 2) - 1).bit_length()
        return d

    @staticmethod
    def unit() -> "DelayModel":
        return DelayModel("unit", {k: 1.0 for k in GateKind})

    @staticmethod
    def unit_log2() -> "DelayModel":
        return DelayModel("log2", {k: 1.0 for k in GateKind}, FaninPenalty.LOG2)


def _require_int(value, what: str) -> int:
    """``value`` as an int; InvalidParameter for anything but an integer (numpy's included) or for a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameter(f"{what} must be an integer, got {value!r}")
    return int(value)  # numpy integers wrap in shifts


def _iterable(value, what: str):
    """An iterator over ``value``; InvalidParameter if it is not iterable."""
    try:
        return iter(value)
    except TypeError:
        raise InvalidParameter(f"{what} must be iterable, got {value!r}") from None


def _as_bit(value, name: str):
    """Validate one assignment value: a 0/1 scalar or an integer/bool array of 0/1."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "bui" or not np.all((value == 0) | (value == 1)):
            raise InvalidAssignment(f"input '{name}' must contain only bits 0 and 1")
        return value.astype(np.uint8) if value.dtype.kind == "b" else value
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, np.integer)):
        if value not in (0, 1):
            raise InvalidAssignment(f"input '{name}' must be 0 or 1, got {value}")
        return int(value)
    raise InvalidAssignment(f"input '{name}' must be a bit or an array of bits")


def _to_planes(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, cases) matrix of 0/1 uint8 into uint64 bit-planes.

    Lane k of word j of row r holds ``bits[r, 64*j + k]``.  The case
    count is padded with zero cases to a whole number of words.
    """
    if bits.shape[1] % 64:
        bits = np.pad(bits, ((0, 0), (0, -bits.shape[1] % 64)))
    return np.packbits(np.ascontiguousarray(bits), axis=1, bitorder="little").view("<u8")


Step = tuple[np.ufunc, int, int, int]
Plan = tuple[int, tuple[Step, ...], tuple[int, ...]]  # (slab rows, steps, taps), see Netlist._plan
_PLANE_OPS = {  # NOT x runs as x XOR ones
    GateKind.AND: np.bitwise_and,
    GateKind.OR: np.bitwise_or,
    GateKind.XOR: np.bitwise_xor,
    GateKind.NOT: np.bitwise_xor,
}


class Netlist:
    """Immutable combinational circuit.  Build one with ``NetlistBuilder``."""

    def __init__(
        self,
        name: str,
        gates: tuple[Gate, ...],
        inputs: tuple[tuple[str, int], ...],
        outputs: tuple[tuple[str, int], ...],
        constants: tuple[tuple[int, int], ...] = (),
        carry_merges=None,
    ):
        self.name = name
        self.gates = gates
        self.inputs = inputs
        self.outputs = outputs
        self.constants = constants
        # The carry-increment builder's merge OR gates, by index, one per stage
        # after the first; None means "not an increment-style build", () one block.
        self.carry_merges = carry_merges
        self.drivers = self._derive_drivers()
        self.input_names = tuple(name for name, _ in inputs)
        self.output_names = tuple(name for name, _ in outputs)
        self._input_set = frozenset(self.input_names)

    # -- structure ---------------------------------------------------------

    def _derive_drivers(self) -> tuple[int | None, ...]:
        """The gate driving each net, or None for an input or constant net.

        Checks each table once, in this order, and raises on the first
        defect: (1) the four tables are tuples, in turn, and each port and
        constant entry is a pair, so that a netlist is immutable and
        hashable; (2) the netlist and port names are strs,
        and no input or output name repeats (DuplicatePortName); (3)
        constants are 0 or 1; (4) every gate entry is a ``Gate``; (5) each
        net 0..n-1 has exactly one source (else UnknownNet, or
        InvariantViolation for a second one), and every output tap is one
        of those nets (UnknownNet); (6) gate by gate, its inputs are a
        tuple, its kind is a ``GateKind`` whose fan-in rule it meets
        (FanInViolation), its stage is a str or None, and each input is an
        int naming an input, a constant or an earlier gate (UnknownNet, or
        CombinationalLoop); (7) carry merges are None or a tuple of gate
        indices (UnknownNet) of two-input OR gates.  The rest raise
        InvalidParameter.  Step 6 first asks once, in C, whether the gate
        outputs strictly ascend in stored order, as they do in every
        netlist that the builder, ``with_gate_kind`` and ``import_json``
        make.  If so, an int net from 0 up to a gate's output has an
        earlier source, so such a fan-in entry costs one type-and-range
        test; any other entry, and every entry of a table whose outputs do
        not ascend, is looked up by its source's rank, so the first error
        is the same either way.
        """
        name, gates = self.name, self.gates
        for what, table in (("gates", gates), ("inputs", self.inputs), ("outputs", self.outputs),
                            ("constants", self.constants)):
            if type(table) is not tuple:
                raise InvalidParameter(f"{what} of netlist '{name}' must be a tuple, not {type(table).__name__}")
            if what != "gates":
                for entry in table:
                    if type(entry) is not tuple or len(entry) != 2:
                        raise InvalidParameter(f"{what} of netlist '{name}' must be a tuple of pairs, got {entry!r}")
        input_names = [port for port, _ in self.inputs]
        output_names = [port for port, _ in self.outputs]
        for port in (name, *input_names, *output_names):
            if not isinstance(port, str):
                raise InvalidParameter(f"netlist and port names must be strs, got {port!r}")
        for what, names in (("input", input_names), ("output", output_names)):
            if len(set(names)) < len(names):
                port = next(port for k, port in enumerate(names) if port in names[:k])
                raise DuplicatePortName(f"{what} port '{port}' already declared")
        for value, _ in self.constants:
            if type(value) is not int or value not in (0, 1):
                raise InvalidParameter(f"constant of netlist '{name}' must be 0 or 1, got {value!r}")
        for gi, gate in enumerate(gates):
            if not isinstance(gate, Gate):
                raise InvalidParameter(f"gate {gi} of netlist '{name}' is a {type(gate).__name__}, not a Gate")
        sources = [net for _, net in (*self.inputs, *self.constants)]
        first = len(sources)
        sources += [gate.output for gate in gates]
        n = len(sources)
        rank: list = [None] * n  # gate gi may read net i only if rank[i] < gi; ports and constants rank < 0

        def unknown(net) -> UnknownNet:
            return UnknownNet(f"no net {net!r} in netlist '{name}'")

        for k, net in enumerate(sources):
            if type(net) is not int or not 0 <= net < n:
                raise unknown(net)
            if rank[net] is not None:
                raise InvariantViolation(f"net {net} has more than one source")
            rank[net] = k - first
        for _, net in self.outputs:
            if type(net) is not int or not 0 <= net < n:
                raise unknown(net)
        # if the gate outputs ascend, each int net below a gate's output has an earlier source
        ascending = all(map(operator.lt, sources[first:], sources[first + 1 :]))
        for gi, gate in enumerate(gates):
            ins, kind, stage = gate.inputs, gate.kind, gate.stage
            if type(ins) is not tuple:
                raise InvalidParameter(f"gate {gi} of netlist '{name}': inputs must be a tuple, got {ins!r}")
            if not isinstance(kind, GateKind):
                raise InvalidParameter(f"gate {gi} of netlist '{name}': gate kind must be a GateKind, got {kind!r}")
            if not kind.arity_ok(len(ins)):
                raise FanInViolation(f"{kind.value} cannot take {len(ins)} input(s) at gate {gi} of netlist '{name}'")
            if stage is not None and not isinstance(stage, str):
                raise InvalidParameter(f"gate {gi} of netlist '{name}': stage must be a str or None, got {stage!r}")
            below = gate.output if ascending else 0
            for net in ins:
                if type(net) is int and 0 <= net < below:
                    continue
                if type(net) is not int or not 0 <= net < n:
                    raise unknown(net)
                if rank[net] >= gi:
                    raise CombinationalLoop(
                        f"gate {gi} of netlist '{name}' reads gate {rank[net]}, which is not earlier",
                        gates=(gi, rank[net]),
                    )
        if self.carry_merges is not None and type(self.carry_merges) is not tuple:
            raise InvalidParameter(f"carry merges of netlist '{name}' must be None or a tuple")
        for gi in self.carry_merges or ():
            if type(gi) is not int or not 0 <= gi < len(gates):
                raise UnknownNet(f"no gate {gi!r} in netlist '{name}'")
            if len(gates[gi].inputs) != 2:
                raise InvalidParameter(f"carry merge gate {gi} of netlist '{name}' has no two inputs to merge")
            if gates[gi].kind is not GateKind.OR:
                raise InvalidParameter(f"carry merge gate {gi} of netlist '{name}' is no OR gate")
        return tuple(None if r < 0 else r for r in rank)

    def with_gate_kind(self, gate_index: int, kind: GateKind) -> "Netlist":
        """Functional update swapping one gate's kind; used for fault injection."""
        _require_int(gate_index, "gate index")
        if not 0 <= gate_index < len(self.gates):
            raise UnknownNet(f"no gate {gate_index} in netlist '{self.name}'")
        if not isinstance(kind, GateKind):
            raise InvalidParameter(f"gate kind must be a GateKind, got {kind!r}")
        old = self.gates[gate_index]
        if not kind.arity_ok(len(old.inputs)):
            raise FanInViolation(
                f"{kind.value} cannot take {len(old.inputs)} input(s) at gate {gate_index}"
            )
        gates = list(self.gates)
        gates[gate_index] = Gate(kind, old.inputs, old.output, old.stage)
        return Netlist(
            f"{self.name}~g{gate_index}={kind.value.lower()}",
            tuple(gates),
            self.inputs,
            self.outputs,
            self.constants,
            carry_merges=None,
        )

    # -- simulation ----------------------------------------------------------

    def _check_input_names(self, assignment: Mapping[str, object], what: str) -> None:
        """Reject a non-mapping, then a name that is no input port, then an input port left out."""
        if not isinstance(assignment, Mapping):
            raise InvalidAssignment(f"{what} must map input port names to values, got {type(assignment).__name__}")
        if assignment.keys() == self._input_set:
            return
        for key in assignment:
            if key not in self._input_set:
                raise UnknownInput(f"netlist '{self.name}' has no input port '{key}'")
        missing = next(name for name in self.input_names if name not in assignment)
        raise MissingInput(f"no value for input port '{missing}'")

    def evaluate(self, assignment: Mapping[str, object]) -> dict:
        """Output-port values under ``assignment``, keyed by port name.

        Values are 0/1 scalars or integer/bool arrays of them.  With only
        scalars every port gives a Python int.  Otherwise every port gives
        a fresh array of the inputs' broadcast shape and of the dtype numpy
        promotes the input arrays to, bool counting as uint8.  All cases
        run in one pass of the kernel, which keeps only the output taps.
        Each call lowers the gates anew (``_plan``), so a batch of cases
        belongs in one call, with arrays.
        """
        self._check_input_names(assignment, "assignment")
        names = self.input_names
        values = [_as_bit(assignment[name], name) for name in names]
        arrays = [value for value in values if isinstance(value, np.ndarray)]
        try:
            shape = np.broadcast_shapes(*(value.shape for value in arrays))
        except ValueError:
            raise InvalidAssignment(
                f"input arrays of shapes {sorted({value.shape for value in arrays})} do not broadcast together"
            ) from None
        if arrays and (dtype := np.result_type(*(value.dtype for value in arrays))).kind not in "ui":
            dtypes = sorted({str(value.dtype) for value in arrays})
            raise InvalidAssignment(f"input arrays of dtypes {dtypes} promote to {dtype}, not to an integer dtype")
        n = math.prod(shape)
        words = -(-n // 64)
        cases = np.zeros((len(values), 64 * words), dtype=np.uint8)
        for row, value in zip(cases, values):
            row[:n].reshape(shape)[...] = value
        plan = self._plan([net for _, net in self.outputs])
        taps = self._run(plan, dict(zip(names, _to_planes(cases))), words)
        planes = np.array(taps, dtype="<u8").reshape(len(taps), words).view(np.uint8)
        bits = np.unpackbits(planes, axis=1, count=n, bitorder="little")
        if not arrays:
            return {name: int(row[0]) for (name, _), row in zip(self.outputs, bits)}
        return {name: row.reshape(shape).astype(dtype) for (name, _), row in zip(self.outputs, bits)}

    def simulate_planes(self, planes: Mapping[str, np.ndarray], words: int, nets=None) -> list[np.ndarray]:
        """Bit-planes of ``nets``, a sequence of net ids, in that order; of every net by id if None.

        ``planes`` maps each input port to a uint64 array of ``words``
        words; bit k of word j is that input's value in case 64*j + k, and
        every returned plane has that layout.  Each call lowers a plan for
        ``nets`` (``_plan``), whose steps write into one fresh slab, in
        which a row not kept is reused once its last reader has run.
        Input planes are the caller's arrays, so treat every plane as
        read-only.  Lanes no case occupies may hold any value.
        """
        self._check_input_names(planes, "planes")
        if isinstance(words, bool) or not isinstance(words, numbers.Integral) or words < 0:
            raise InvalidAssignment(f"words must be an integer >= 0, got {words!r}")
        for name in self.input_names:
            plane = planes[name]
            if not isinstance(plane, np.ndarray) or plane.dtype != np.uint64 or plane.shape != (words,):
                raise InvalidAssignment(f"input '{name}' must be a uint64 array of {words} words")
        if nets is not None:
            try:
                nets = tuple(nets)
            except TypeError:
                raise UnknownNet(f"nets must be None or a sequence of net ids, got {nets!r}") from None
        return self._run(self._plan(nets), planes, words)

    def _run(self, plan: Plan, planes: Mapping[str, np.ndarray], words: int) -> list[np.ndarray]:
        """The planes of the nets ``plan`` keeps, in its order, from one kernel run of ``plan`` on ``planes``.

        ``plan`` is what ``_plan`` returned for this netlist, and ``planes``
        is laid out as in ``simulate_planes``, ``words`` words each.  Every
        step writes its row of one fresh slab.  Nothing is checked here;
        ``simulate_planes`` checks what outside callers pass.
        """
        rows, steps, taps = plan
        slab = np.empty((rows, words), dtype=np.uint64)
        slab[0] = 0
        slab[1] = ~np.uint64(0)
        values = [*map(planes.__getitem__, self.input_names), *slab]
        for op, left, right, out in steps:
            op(values[left], values[right], values[out])
        return [values[tap] for tap in taps]

    def _plan(self, nets) -> Plan:
        """(slab rows, steps, taps) that compute ``nets`` (None: every net), lowered anew.

        Each step (op, left, right, out) stores op(value left, value
        right), op being numpy's bitwise AND, OR or XOR, in value ``out``
        of a list that holds the input ports' planes in port order, then
        the slab's rows, the first two all zeros and all ones.  Kept net i
        is value ``taps[i]``.  Kept nets must be ints in 0..n-1 (else
        UnknownNet).

        The gates are lowered over slots: 0..n-1 the nets, n and n+1 the
        zeros and ones, n+2 and up wide gates' intermediate results.  An
        input net holds its own slot, a constant net the zeros or ones
        slot.  In stored order, a gate's operands are its inputs' slots
        sorted ascending, NOT x running as x XOR ones, chained left to
        right.  Every link is hash-consed: all three ops commute, so each
        is keyed on (op, left, right) with left <= right and emitted once;
        a gate's net maps to the slot of its last link.  Shared product
        terms thus run once, and kept nets that share a slot share a row.
        Steps no kept net depends on are dropped.  A slot takes a free row
        when first written and frees it after its last reader, unless it
        is kept.
        """
        n, k = len(self.drivers), len(self.inputs)
        for net in nets or ():
            if type(net) is not int or not 0 <= net < n:
                raise UnknownNet(f"no net {net!r} in netlist '{self.name}'")
        zeros, ones = n, n + 1
        slots = list(range(n))
        for value, net in self.constants:
            slots[net] = ones if value else zeros
        seen: dict[tuple[np.ufunc, int, int], int] = {}
        fresh = itertools.count(n + 2)
        program = []
        for gate in self.gates:
            op, operands = _PLANE_OPS[gate.kind], [slots[net] for net in gate.inputs]
            if gate.kind is GateKind.NOT:
                operands.append(ones)
            operands.sort()
            value = operands[0]
            for j, operand in enumerate(operands[1:], 2):
                key = (op, min(value, operand), max(value, operand))
                if key not in seen:
                    seen[key] = gate.output if j == len(operands) else next(fresh)
                    program.append((*key, seen[key]))
                value = seen[key]
            slots[gate.output] = value
        kept = tuple(map(slots.__getitem__, range(n) if nets is None else nets))
        live, needed = set(kept), []
        for step in reversed(program):
            if step[3] in live:
                live.discard(step[3])
                live.update(step[1:3])
                needed.append(step)
        needed.reverse()
        last_read = {slot: s for s, step in enumerate(needed) for slot in step[1:3]}
        where = {net: j for j, (_, net) in enumerate(self.inputs)} | {zeros: k, ones: k + 1}
        pinned = set(where) | set(kept)
        free, rows, steps = [], 2, []
        for s, (op, left, right, out) in enumerate(needed):
            for slot in {left, right}:
                if last_read[slot] == s and slot not in pinned:
                    free.append(where[slot])
            if free:
                where[out] = free.pop()
            else:
                where[out], rows = k + rows, rows + 1
            steps.append((op, where[left], where[right], where[out]))
        return rows, tuple(steps), tuple(map(where.__getitem__, kept))

    # -- timing ----------------------------------------------------------------

    def arrival_times(self, model: DelayModel) -> list[float]:
        """Latest-arrival time of every net; inputs and constants arrive at 0.

        ``model`` must be a ``DelayModel`` (else InvalidParameter).
        """
        if not isinstance(model, DelayModel):
            raise InvalidParameter(f"delay model must be a DelayModel, got {model!r}")
        arr = [0.0] * len(self.drivers)
        for gate in self.gates:
            delay = model.gate_delay(gate.kind, len(gate.inputs))
            arr[gate.output] = max(map(arr.__getitem__, gate.inputs)) + delay
        return arr

    def critical_path(self, model: DelayModel) -> tuple[float, list[int]]:
        """Longest register-free path to any output port.

        Returns (delay, gate indices along one witnessing path, inputs to
        outputs).  Ties are broken toward the earliest-declared port and
        the first maximal gate input, so the witness is deterministic.
        """
        arr = self.arrival_times(model)
        if not self.outputs:
            return 0.0, []
        net = max((net for _, net in self.outputs), key=arr.__getitem__)
        delay, path = arr[net], []
        while (gi := self.drivers[net]) is not None:
            path.append(gi)
            net = max(self.gates[gi].inputs, key=arr.__getitem__)
        return delay, path[::-1]


_owner_counter = itertools.count(1)


class NetlistBuilder:
    """Accumulates ports and gates, named by ``NetId`` handles, then freezes into a ``Netlist``.

    The public methods check every handle, kind and fan-in as it comes.
    The private ``_gate`` and ``_output``, which the adder generators and
    ``import_json`` use, take plain net ints and check none of them:
    ``finish()`` builds a ``Netlist``, whose constructor checks every net,
    source, order, kind and fan-in.
    """

    def __init__(self, name: str = "netlist"):
        self.name = name
        self._owner = next(_owner_counter)
        self._nets = 0
        self._gates: list[Gate] = []
        self._inputs: dict[str, int] = {}
        self._outputs: dict[str, int] = {}
        self._consts: dict[int, int] = {}
        self._finished = False

    @property
    def gate_count(self) -> int:
        return len(self._gates)

    def _require_open(self) -> None:
        if self._finished:
            raise NetlistFrozen(f"netlist '{self.name}' is already finished")

    def _new_net(self) -> int:
        self._nets += 1
        return self._nets - 1

    def _indices(self, handles) -> tuple[int, ...]:
        """The net indices behind ``handles``, each of which must be a handle this builder issued."""
        owner, nets, indices = self._owner, self._nets, []
        for nid in handles:
            if not isinstance(nid, NetId) or nid.owner != owner or not 0 <= nid.index < nets:
                raise UnknownNet(f"net {nid!r} does not belong to netlist '{self.name}'")
            indices.append(nid.index)
        return tuple(indices)

    @staticmethod
    def _check_new_port(ports: dict, name, what: str) -> None:
        """Reject a name already in ``ports`` and one no dict can hold; ``finish()`` rejects the other non-strs."""
        try:
            taken = name in ports
        except TypeError:  # unhashable
            raise InvalidParameter(f"netlist and port names must be strs, got {name!r}") from None
        if taken:
            raise DuplicatePortName(f"{what} port '{name}' already declared")

    def add_input(self, name: str) -> NetId:
        """Declare an input port; it mints and returns a fresh net."""
        self._require_open()
        self._check_new_port(self._inputs, name, "input")
        self._inputs[name] = self._new_net()
        return NetId(self._inputs[name], self._owner)

    def add_output(self, name: str, net: NetId) -> NetId:
        """Declare an output port tapping the existing ``net``; returns ``net``."""
        self._require_open()
        self._check_new_port(self._outputs, name, "output")
        (self._outputs[name],) = self._indices((net,))
        return net

    def _output(self, name: str, net: int) -> None:
        """``add_output`` on a net int: only the name is checked."""
        self._check_new_port(self._outputs, name, "output")
        self._outputs[name] = net

    def constant(self, value: int) -> NetId:
        """Net pinned to 0 or 1; one shared net per value."""
        self._require_open()
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value not in (0, 1):
            raise InvalidParameter(f"constant must be 0 or 1, got {value}")
        value = int(value)
        if value not in self._consts:
            self._consts[value] = self._new_net()
        return NetId(self._consts[value], self._owner)

    def add_gate(
        self,
        kind: GateKind,
        inputs: Iterable[NetId],
        stage: str | None = None,
    ) -> NetId:
        """Append a gate fed by existing nets; returns its freshly minted output net."""
        self._require_open()
        if not isinstance(kind, GateKind):
            raise InvalidParameter(f"gate kind must be a GateKind, got {kind!r}")
        ins = tuple(_iterable(inputs, "gate inputs"))
        if not kind.arity_ok(len(ins)):
            raise FanInViolation(f"{kind.value} gate cannot take {len(ins)} input(s)")
        return NetId(self._gate(kind, self._indices(ins), stage), self._owner)

    def _gate(self, kind: GateKind, ins: tuple[int, ...], stage: str | None = None) -> int:
        """Append a gate reading the net ints ``ins``, unchecked; returns its output net."""
        out = self._nets
        self._nets = out + 1
        self._gates.append(Gate(kind, ins, out, stage))
        return out

    def finish(self, carry_merges: Sequence[int] | None = None) -> Netlist:
        """Freeze into an immutable ``Netlist``; the builder then rejects further edits.
        ``carry_merges`` are gate indices (see ``Netlist.carry_merges``).  A
        ``Netlist`` that its checks refuse leaves the builder open."""
        self._require_open()
        netlist = Netlist(
            self.name,
            tuple(self._gates),
            tuple(self._inputs.items()),
            tuple(self._outputs.items()),
            tuple(sorted(self._consts.items())),
            carry_merges=None if carry_merges is None else tuple(_iterable(carry_merges, "carry merges")),
        )
        self._finished = True
        return netlist
