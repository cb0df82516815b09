"""Combinational gate-level netlists: construction, evaluation, timing.

A netlist is its gates and ports: named input ports, constants and
AND/OR/XOR/NOT gates over nets 0..n-1, n being their count.  A net is a
plain int in every table of a netlist; ``NetId`` is only the handle a
``NetlistBuilder`` returns and accepts.  Every net has exactly one
source: an input port, a constant or one gate's output.  ``constants``
lists (value, net) pairs in ascending value order; output ports tap any
net.  ``drivers[i]``, derived from the gates, is the gate that drives
net i, or None.  Gates are stored in dependency order: each reads only
inputs, constants and earlier gates, as the builder guarantees and
``Netlist`` checks on construction.  ``NetlistBuilder`` is the only
supported way to grow one; after ``finish()`` the result is immutable
and safe to share.

One kernel simulates: on its first simulation a netlist is lowered to a
program of two-operand bitwise steps, which ``simulate_planes`` runs on
uint64 bit-planes, 64 cases per word (parallel-pattern simulation).
The lowering is hash-consed (structural hashing): gates' operands are
sorted, a step computed once is never emitted again, and nets whose
values are the same step, or a constant, share one slot.  So the
product terms that lookahead carries share run once, and a w12
lookahead adder runs 192 steps, not the 478 of lowering each gate on
its own.  Each run writes into one fresh slab of planes.  A caller that
passes ``simulate_planes`` only some ``nets`` gets a plan, cached per
tuple of kept nets, that skips steps none of them depends on and reuses
a slot's plane once its last reader has run, so the slab holds far
fewer planes than there are nets.  The checkers build the input planes
themselves and keep only the nets they compare; ``evaluate`` packs 0/1
integers or numpy arrays of them into planes and keeps its output taps,
so a whole input space runs in one pass.  Timing and the exporters never
see the program: they walk the stored gates.  Timing uses a
``DelayModel`` that assigns a base delay per gate kind, optionally
scaled by ceil(log2(fan-in)) for wide gates.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
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

    def arity_ok(self, n: int) -> bool:
        if self is GateKind.NOT:
            return n == 1
        if self is GateKind.XOR:
            return n == 2
        return n >= 2


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


@dataclass(frozen=True)
class CarryMerge:
    """One per-stage effective-carry OR, kept for invariant probing.  ``finish()``
    takes the builder's handles of the two carries and stores their net indices."""

    stage: int
    block_carry: int | NetId
    increment_carry: int | NetId
    gate: int


class FaninPenalty(Enum):
    NONE = "none"
    LOG2 = "log2"


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
        for kind in GateKind:
            if kind not in self.base:
                raise InvalidParameter(f"delay model '{self.name}' lacks a delay for {kind.value}")
            d = self.base[kind]
            if isinstance(d, bool) or not isinstance(d, numbers.Real) or not 0 <= d < math.inf:
                raise InvalidParameter(f"delay for {kind.value} must be >= 0")

    def gate_delay(self, kind: GateKind, fanin: int) -> float:
        d = self.base[kind]
        if self.fanin_penalty is FaninPenalty.LOG2:
            # ceil(log2(n)) for n >= 2, computed exactly in integers
            d = d * (max(fanin, 2) - 1).bit_length()
        return d

    @staticmethod
    def unit() -> "DelayModel":
        return DelayModel("unit", {k: 1.0 for k in GateKind})

    @staticmethod
    def unit_log2() -> "DelayModel":
        return DelayModel("log2", {k: 1.0 for k in GateKind}, FaninPenalty.LOG2)


def _require_int(value, what: str) -> None:
    """Reject anything but an integer (numpy's included), and bools, with InvalidParameter."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameter(f"{what} must be an integer, got {value!r}")


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


Step = tuple[np.ufunc, int, int, int]
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
        self.input_names = tuple(name for name, _ in inputs)
        self.output_names = tuple(name for name, _ in outputs)
        self._input_set = frozenset(self.input_names)
        # Per-stage carry metadata attached by the carry-increment builder;
        # None means "not an increment-style build", () means single block.
        self.carry_merges = carry_merges
        self._compiled: tuple[Step, ...] | None = None
        self._slots: tuple[int, ...] = ()  # net -> slot of its plane, set by compiled()
        self._plans: dict = {}  # kept nets (None: all) -> slot plan, see _plan
        self.drivers = self._derive_drivers()

    # -- structure ---------------------------------------------------------

    def _derive_drivers(self) -> tuple[int | None, ...]:
        """The gate driving each net, or None for an input or constant net.

        Checks on the way that each net 0..n-1 has exactly one source, that
        every net read, tapped or named by a carry merge is one of these
        ints, that each carry merge is a ``CarryMerge``, and that each gate
        reads only inputs, constants and earlier gates.
        """
        ports = [net for _, net in (*self.inputs, *self.constants)]
        sources = ports + [gate.output for gate in self.gates]
        n, first = len(sources), len(ports)
        rank: list = [None] * n  # gate gi may read net i only if rank[i] < gi; ports and constants rank < 0

        def unknown(net) -> UnknownNet:
            return UnknownNet(f"no net {net!r} in netlist '{self.name}'")

        for k, net in enumerate(sources):
            if type(net) is not int or not 0 <= net < n:
                raise unknown(net)
            if rank[net] is not None:
                raise InvariantViolation(f"net {net} has more than one source")
            rank[net] = k - first
        merges = self.carry_merges or ()
        for merge in merges:
            if not isinstance(merge, CarryMerge):
                raise UnknownNet(f"carry merge {merge!r} of netlist '{self.name}' is not a CarryMerge")
        carries = [net for merge in merges for net in (merge.block_carry, merge.increment_carry)]
        for net in [net for _, net in self.outputs] + carries:
            if type(net) is not int or not 0 <= net < n:
                raise unknown(net)
        for gi, gate in enumerate(self.gates):
            for net in gate.inputs:
                if type(net) is not int or not 0 <= net < n:
                    raise unknown(net)
                if rank[net] >= gi:
                    raise CombinationalLoop(
                        f"gate {gi} of netlist '{self.name}' reads gate {rank[net]}, which is not earlier",
                        gates=(gi, rank[net]),
                    )
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
        packed = np.packbits(cases, axis=1, bitorder="little").view("<u8")
        taps = self.simulate_planes(dict(zip(names, packed)), words, tuple(net for _, net in self.outputs))
        planes = np.array(taps, dtype="<u8").reshape(len(taps), words).view(np.uint8)
        bits = np.unpackbits(planes, axis=1, count=n, bitorder="little")
        if not arrays:
            return {name: int(row[0]) for (name, _), row in zip(self.outputs, bits)}
        return {name: row.reshape(shape).astype(dtype) for (name, _), row in zip(self.outputs, bits)}

    def compiled(self) -> tuple[Step, ...]:
        """The simulation program, lowered on first use and cached.

        Each step (op, left, right, out) stores op(slot left, slot right)
        in slot ``out``, ``op`` being numpy's bitwise AND, OR or XOR.
        Slots 0..n-1 are the n nets, indexed by net id; slots n and n+1
        hold all zeros and all ones; slots n+2 and up hold the
        intermediate results of wide gates.

        Lowering also fills ``_slots``, the slot that holds each net's
        plane.  An input net holds its own slot, a constant net the zeros
        or ones slot.  In stored gate order, a gate's operands are its
        inputs' slots sorted ascending, NOT x running as x XOR ones, and
        are chained left to right, one step per operand past the first.
        Steps are hash-consed: all three ops commute, so each is keyed on
        (op, left, right) with left <= right, and a key seen before is
        not emitted again; its slot is reused.  A gate's net maps to the
        slot of its last step, which is the gate's own net when that step
        is new.  Shared product terms thus run once, and no step copies a
        constant.
        """
        if self._compiled is None:
            n = len(self.drivers)
            zeros, ones = n, n + 1
            slots = list(range(n))
            for value, net in self.constants:
                slots[net] = ones if value else zeros
            seen: dict[tuple[np.ufunc, int, int], int] = {}
            fresh = itertools.count(n + 2)
            steps = []
            for gate in self.gates:
                op, operands = _PLANE_OPS[gate.kind], [slots[net] for net in gate.inputs]
                if gate.kind is GateKind.NOT:
                    operands.append(ones)
                operands.sort()
                value = operands[0]
                for k, operand in enumerate(operands[1:], 2):
                    key = (op, min(value, operand), max(value, operand))
                    if key not in seen:
                        seen[key] = gate.output if k == len(operands) else next(fresh)
                        steps.append((*key, seen[key]))
                    value = seen[key]
                slots[gate.output] = value
            self._compiled, self._slots = tuple(steps), tuple(slots)
        return self._compiled

    def simulate_planes(self, planes: Mapping[str, np.ndarray], words: int, nets=None) -> list[np.ndarray]:
        """Bit-planes of ``nets``, a sequence of net ids, in that order; of every net by id if None.

        ``planes`` maps each input port to a uint64 array of ``words``
        words; bit k of word j is that input's value in case 64*j + k, and
        every returned plane has that layout.  The steps of ``compiled()``
        write into one fresh slab, in which ``_plan`` lets slots not kept
        share rows.  Input planes are the caller's arrays, so treat every
        plane as read-only.  Lanes no case occupies may hold any value.
        """
        self._check_input_names(planes, "planes")
        if isinstance(words, bool) or not isinstance(words, numbers.Integral) or words < 0:
            raise InvalidAssignment(f"words must be an integer >= 0, got {words!r}")
        values = [planes[name] for name in self.input_names]
        for name, plane in zip(self.input_names, values):
            if not isinstance(plane, np.ndarray) or plane.dtype != np.uint64 or plane.shape != (words,):
                raise InvalidAssignment(f"input '{name}' must be a uint64 array of {words} words")
        if nets is not None:
            try:
                hash(nets := tuple(nets))  # the plan cache's key
            except TypeError:
                raise UnknownNet(f"nets must be None or a sequence of net ids, got {nets!r}") from None
        rows, steps, taps = self._plan(nets)
        slab = np.empty((rows, words), dtype=np.uint64)
        slab[0] = 0
        slab[1] = ~np.uint64(0)
        values.extend(slab)
        for op, left, right, out in steps:
            op(values[left], values[right], values[out])
        return [values[tap] for tap in taps]

    def _plan(self, nets) -> tuple[int, tuple[Step, ...], tuple[int, ...]]:
        """(slab rows, steps, taps) that compute ``nets`` (None: every net); cached.

        Steps and taps index a value list: the input ports' planes in port
        order, then the slab's rows, of which the first two hold all zeros
        and all ones.  Each kept net, which must be an int in 0..n-1 (else
        UnknownNet), is looked up in ``compiled()``'s slot table, so nets
        that share a slot share a row.  Steps whose output nothing kept
        depends on are dropped.  A slot takes a free row when first written
        and frees it after its last reader, unless it is kept.
        """
        plan = self._plans.get(nets)
        if plan is not None:
            return plan
        program = self.compiled()  # also fills self._slots
        n, k = len(self.drivers), len(self.inputs)
        for net in nets or ():
            if type(net) is not int or not 0 <= net < n:
                raise UnknownNet(f"no net {net!r} in netlist '{self.name}'")
        kept = tuple(map(self._slots.__getitem__, range(n) if nets is None else nets))
        live, needed = set(kept), []
        for step in reversed(program):
            if step[3] in live:
                live.discard(step[3])
                live.update(step[1:3])
                needed.append(step)
        needed.reverse()
        last_read = {slot: s for s, step in enumerate(needed) for slot in step[1:3]}
        where = {net: j for j, (_, net) in enumerate(self.inputs)} | {n: k, n + 1: k + 1}
        fixed, free, rows, steps = set(where) | set(kept), [], 2, []
        for s, (op, left, right, out) in enumerate(needed):
            for slot in {left, right}:
                if last_read[slot] == s and slot not in fixed:
                    free.append(where[slot])
            if free:
                where[out] = free.pop()
            else:
                where[out], rows = k + rows, rows + 1
            steps.append((op, where[left], where[right], where[out]))
        plan = self._plans[nets] = (rows, tuple(steps), tuple(map(where.__getitem__, kept)))
        return plan

    # -- timing ----------------------------------------------------------------

    def arrival_times(self, model: DelayModel) -> list[float]:
        """Latest-arrival time of every net; inputs and constants arrive at 0."""
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
    """Accumulates ports and gates, named by ``NetId`` handles, then freezes into a ``Netlist``."""

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

    def add_input(self, name: str) -> NetId:
        """Declare an input port; it mints and returns a fresh net."""
        self._require_open()
        if name in self._inputs:
            raise DuplicatePortName(f"input port '{name}' already declared")
        self._inputs[name] = self._new_net()
        return NetId(self._inputs[name], self._owner)

    def add_output(self, name: str, net: NetId) -> NetId:
        """Declare an output port tapping the existing ``net``; returns ``net``."""
        self._require_open()
        if name in self._outputs:
            raise DuplicatePortName(f"output port '{name}' already declared")
        (self._outputs[name],) = self._indices((net,))
        return net

    def constant(self, value: int) -> NetId:
        """Net pinned to 0 or 1; one shared net per value."""
        self._require_open()
        if type(value) is not int or value not in (0, 1):
            raise InvalidParameter(f"constant must be 0 or 1, got {value}")
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
        ins = tuple(inputs)
        if not kind.arity_ok(len(ins)):
            raise FanInViolation(f"{kind.value} gate cannot take {len(ins)} input(s)")
        ins = self._indices(ins)
        out = self._new_net()
        self._gates.append(Gate(kind, ins, out, stage))
        return NetId(out, self._owner)

    def _merge(self, merge) -> CarryMerge:
        """``merge`` with its carries' handles replaced by their net indices."""
        if not isinstance(merge, CarryMerge):
            raise UnknownNet(f"carry merge {merge!r} of netlist '{self.name}' is not a CarryMerge")
        block, increment = self._indices((merge.block_carry, merge.increment_carry))
        return dataclasses.replace(merge, block_carry=block, increment_carry=increment)

    def finish(self, carry_merges: Sequence[CarryMerge] | None = None) -> Netlist:
        """Freeze into an immutable ``Netlist``; the builder rejects further edits.
        Each carry merge must be a ``CarryMerge`` of this builder's nets (else UnknownNet)."""
        self._require_open()
        merges = None if carry_merges is None else tuple(map(self._merge, carry_merges))
        self._finished = True
        return Netlist(
            self.name,
            tuple(self._gates),
            tuple(self._inputs.items()),
            tuple(self._outputs.items()),
            tuple(sorted(self._consts.items())),
            carry_merges=merges,
        )
