"""Functional verification of adder netlists against integer addition.

The reference is integer addition, ``a + b + cin`` per case
(``oracle_add`` is the one-case form), which shares no code with the
netlist simulator.  Reports cap the failure list at 32 entries, in
(a, b, cin) order, but keep the exact count; each failure takes its
expected sum and carry from ``a + b + cin``.

An exhaustive check is a proof over reduced ordered BDDs (``_bdd``) whose
variables are the ports in the order cin, a_0, b_0, a_1, b_1, ...
(``_spec``).  The netlist's outputs are built gate by gate, and so are
those of a ripple-carry adder from its definition: s_i = a_i ^ b_i ^ c_i,
c_0 = cin and c_{i+1} the majority of a_i, b_i and c_i.  Under this order
every adder output has a graph linear in its bit.  A netlist then fails
exactly the cases under which the OR over all outputs of (netlist XOR
spec) is 1.  Their number is that function's satisfying count; the first
ones come from a walk over a's bits from the top, then b's, then cin, each
tried at 0 before 1, and the netlist's own sum and carry are read off its
output graphs.  The carry probe asks of the same graphs whether some merge
pair's AND is not the constant 0.  All netlists of one call share one
manager and one spec, which is how ``analysis.compare`` verifies all rows
of a width.

A proof stops once its manager would pass ``_NODE_BUDGET`` nodes, or past
w240 (``_bdd.MAX_VARS``).  The netlists it has not proven then run through
the kernel in one plain sweep over every case (``_index_chunks``, up to
w31, past which it raises ExhaustiveTooLarge), as
random checks run over theirs: one numpy packer (``_chunks``) packs the
operands' 32-bit words and cin into chunks of up to 131,072 cases, 64 per
uint64 word, and sums a + b + cin word by word into expected planes, which
the output nets are compared with in one XOR/OR pass (``_sweep``); the
probe's sweep packs the inputs alone.  Random
checks draw from a seeded PCG64 stream and always include the corner cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from ._bdd import AND, OR, XOR, Manager, OverBudget
from .builders import _check_width, adder_port_names
from .errors import (
    ExhaustiveTooLarge,
    InvalidParameter,
    MissingStageMetadata,
    OperandOutOfRange,
    PortContractViolation,
)
from .netlist import GateKind, Netlist, _require_int, _to_planes

FAILURE_CAP = 32
DEFAULT_CASE_CAP = 1 << 29  # exhaustive checks allowed up to width 14
_WORDS = 2048  # words per chunk of a sweep (131,072 cases)
# Nodes a proof's manager may hold (about 60 MiB) before the netlists it
# has not proven are swept instead.  The ripple spec alone takes about
# 4.5 w**2 nodes (18,787 at w64, 260,523 at w240), so from w241 on, where
# ``_bdd.MAX_VARS`` refuses the manager, it would not fit anyway.
_NODE_BUDGET = 1 << 18
_OPS = {GateKind.AND: AND, GateKind.OR: OR, GateKind.XOR: XOR, GateKind.NOT: XOR}  # NOT x is x XOR 1


def boundary_cases(width: int) -> tuple[tuple[int, int, int], ...]:
    """Corner cases every random check includes: zeros, saturation, wraparound."""
    top = (1 << _check_width(width)) - 1
    return ((0, 0, 0), (top, top, 1), (top, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class Failure:
    """One mismatching case, oracle values alongside the netlist's."""

    a: int
    b: int
    cin: int
    expected_sum: int
    expected_cout: int
    got_sum: int
    got_cout: int


@dataclass(frozen=True)
class EquivalenceReport:
    netlist: str
    width: int
    mode: str  # "exhaustive" or "random"
    cases_checked: int
    failure_count: int
    failures: tuple[Failure, ...]  # at most FAILURE_CAP, ordered by (a, b, cin)
    seed: int | None = None
    samples: int | None = None
    generator: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure_count == 0


def oracle_add(a: int, b: int, cin: int, width: int) -> tuple[int, int]:
    """Reference semantics: (a + b + cin) as a width-bit sum and a carry-out."""
    checks = (("a", a), ("b", b), ("cin", cin), ("width", width))
    a, b, cin, width = (_require_int(value, what) for what, value in checks)
    _check_width(width)
    limit = 1 << width
    if not 0 <= a < limit:
        raise OperandOutOfRange(f"a={a} does not fit in {width} bits")
    if not 0 <= b < limit:
        raise OperandOutOfRange(f"b={b} does not fit in {width} bits")
    if cin not in (0, 1):
        raise OperandOutOfRange(f"cin must be 0 or 1, got {cin}")
    total = a + b + cin
    return total & (limit - 1), int(total >= limit)


def _failure(a: int, b: int, cin: int, got: int, width: int) -> Failure:
    """The Failure of case (a, b, cin) whose outputs read ``got``, the sum bits below bit ``width`` and the carry at it.

    The expected pair comes from ``a + b + cin`` inline: ``oracle_add``'s
    argument checks cost far more than the sum.
    """
    mask, want = (1 << width) - 1, a + b + cin
    return Failure(a, b, cin, want & mask, want >> width, got & mask, got >> width)


def _check_contract(netlist: Netlist, width: int) -> int:
    """``width`` as an int, once ``netlist`` exposes the width-``width`` adder ports."""
    width = _check_width(width)
    want_in, want_out = adder_port_names(width)
    if set(netlist.input_names) != set(want_in) or set(netlist.output_names) != set(want_out):
        raise PortContractViolation(
            f"netlist '{netlist.name}' does not expose the width-{width} adder ports"
        )
    return width


def _exhaustive_width(netlist: Netlist, width: int, case_cap: int) -> int:
    """``width`` as an int, once ``netlist``'s ports and the cap allow an exhaustive check of it."""
    width = _check_contract(netlist, width)
    _require_int(case_cap, "case_cap")
    cases = 1 << (2 * width + 1)
    if cases > case_cap:
        raise ExhaustiveTooLarge(f"width {width} needs {cases} cases, over the cap of {case_cap}")
    return width


def _split(index, width: int):
    """(a, b, cin) of the case numbered ``index`` = a << (width+1) | b << 1 | cin: an int or a uint64 array.

    Case numbers run in (a, b, cin) order.
    """
    return index >> (width + 1), (index >> 1) & ((1 << width) - 1), index & 1


def _ports(width: int) -> tuple[Manager, dict[str, int]]:
    """A manager over the width-``width`` adder ports and their variables by name, in the order cin, a_0, b_0, a_1, ..."""
    bdd = Manager(2 * width + 1, _NODE_BUDGET)
    names = ["cin", *(f"{operand}_{i}" for i in range(width) for operand in "ab")]
    return bdd, {name: bdd.var(level) for level, name in enumerate(names)}


def _spec(width: int) -> tuple[Manager, dict[str, int], list[int]]:
    """``_ports(width)`` and a ripple-carry adder's outputs in its manager.

    The outputs, s_0..s_{w-1} then cout, are built from the definition,
    bit 0 up (see the module docstring).
    """
    bdd, ports = _ports(width)
    carry, outputs = ports["cin"], []
    for i in range(width):
        a, b = ports[f"a_{i}"], ports[f"b_{i}"]
        half = bdd.apply(XOR, a, b)
        outputs.append(bdd.apply(XOR, half, carry))
        carry = bdd.apply(OR, bdd.apply(AND, a, b), bdd.apply(AND, half, carry))
    return bdd, ports, [*outputs, carry]


def _graphs(bdd: Manager, ports: dict[str, int], netlist: Netlist, nets) -> list[int]:
    """The functions of ``netlist``'s nets ``nets`` in ``bdd``, over the port variables ``ports``."""
    node = [0] * len(netlist.drivers)
    for name, net in netlist.inputs:
        node[net] = ports[name]
    for value, net in netlist.constants:
        node[net] = value
    for gate in netlist.gates:
        operands = [node[net] for net in gate.inputs]
        if gate.kind is GateKind.NOT:
            operands.append(1)
        node[gate.output] = reduce(partial(bdd.apply, _OPS[gate.kind]), operands)
    return [node[net] for net in nets]


def _prove(netlists: list[Netlist], width: int) -> list[tuple[int, tuple[Failure, ...]] | None]:
    """Per netlist, its exact mismatch count and first FAILURE_CAP failures; None if the node budget left it unproven.

    The netlists must expose the width-``width`` adder ports.  They are
    proven in list order in one manager, so once the budget stops a proof,
    it and every later netlist are left unproven.
    """
    results: list = [None] * len(netlists)
    outputs = adder_port_names(width)[1]
    order = [*range(2 * width - 1, 0, -2), *range(2 * width, 0, -2), 0]  # a_{w-1}..a_0, b_{w-1}..b_0, cin
    try:
        bdd, ports, spec = _spec(width)
        for k, netlist in enumerate(netlists):
            got = _graphs(bdd, ports, netlist, map(dict(netlist.outputs).__getitem__, outputs))
            miss = reduce(partial(bdd.apply, OR), map(partial(bdd.apply, XOR), got, spec))
            failures = []
            for index in bdd.solutions(miss, order, FAILURE_CAP):
                a, b, cin = _split(index, width)
                bits = [cin, *(operand >> i & 1 for i in range(width) for operand in (a, b))]
                have = sum(bdd.value(f, bits) << i for i, f in enumerate(got))
                failures.append(_failure(a, b, cin, have, width))
            results[k] = bdd.count(miss), tuple(failures)
    except OverBudget:
        pass
    return results


def _index_chunks(width: int, expected: bool = True):
    """Yield the ``_chunks`` of every case, ``_WORDS`` words of consecutive case numbers (``_split``) each.

    ``expected`` is passed on to ``_chunks``.  A case number must fit one
    uint64, and so each operand one 32-bit word: past w31 this raises
    ExhaustiveTooLarge on the first chunk.
    """
    if 2 * width + 1 > 64:
        raise ExhaustiveTooLarge(
            f"width {width} needs {2 * width + 1}-bit case numbers; a sweep takes at most 64 bits (width 31)"
        )
    total = 1 << (2 * width + 1)
    for start in range(0, total, _WORDS * 64):
        # the narrowest dtype that holds every case number: the packer shifts it fastest
        index = np.arange(start, min(total, start + _WORDS * 64), dtype=np.min_scalar_type(total - 1))
        a, b, cin = _split(index, width)
        yield from _chunks([a], [b], cin, width, expected)


def _chunks(a, b, cin, width: int, expected: bool = True):
    """Yield (input planes, expected planes, case count) of up to ``_WORDS`` words of cases each, in order.

    ``a`` and ``b`` are each operand's 32-bit words, least significant
    first, as unsigned arrays with one case per entry, and ``cin`` is a 0/1
    array.  The expected planes are bits 0..width of a + b + cin, summed
    word by word with the carry; with ``expected`` False none are summed
    or packed, and that entry is empty.  Each plane is a row of one 0/1
    matrix, filled by shifts and packed by ``_to_planes``; zero cases pad
    the last word.
    """
    names = adder_port_names(width)[0]
    for start in range(0, len(cin), _WORDS * 64):
        cut = slice(start, start + _WORDS * 64)
        ports, counts = [[x[cut] for x in a], [y[cut] for y in b], [cin[cut]]], [width, width, 1]
        if expected:
            carry, sums = ports[2][0].astype(np.uint64), []
            for x, y in zip(*ports[:2]):
                sums.append(x.astype(np.uint64) + y + carry)  # bit 32 is the carry out
                carry = sums[-1] >> np.uint64(32)
            ports.append([*sums, carry])
            counts.append(width + 1)
        n = len(ports[2][0])
        bits = np.zeros((sum(counts), -(-n // 64) * 64), np.uint8)
        rows = iter(bits[:, :n])
        for words, count in zip(ports, counts):
            for i in range(count):
                np.right_shift(words[i // 32], i % 32, out=next(rows), casting="unsafe")
        planes = _to_planes(np.bitwise_and(bits, 1, out=bits))
        yield dict(zip(names, planes)), planes[2 * width + 1 :], n


def _lane_value(rows, word: int, lane: int) -> int:
    """The integer whose bit i is lane ``lane`` of ``rows[i][word]``."""
    return sum(((int(row[word]) >> lane) & 1) << i for i, row in enumerate(rows))


def _failures(bad, planes, got, width: int, limit: int) -> list[Failure]:
    """The first ``limit`` cases that ``bad`` marks, in chunk order.

    Each case's a, b and cin are read back from the chunk's input
    ``planes``, as its sum and carry from ``got``, one netlist's output
    planes in ``adder_port_names`` order.
    """
    failures = []
    rows = [planes[name] for name in adder_port_names(width)[0]]
    for word in np.flatnonzero(bad)[:limit]:
        lanes = int(bad[word])
        while lanes and len(failures) < limit:
            lane = (lanes & -lanes).bit_length() - 1
            lanes &= lanes - 1
            a, b, cin = (_lane_value(part, word, lane) for part in (rows[:width], rows[width:-1], rows[-1:]))
            failures.append(_failure(a, b, cin, _lane_value(got, word, lane), width))
    return failures


def _sweep(netlist: Netlist, width: int, chunks) -> tuple[int, tuple[Failure, ...]]:
    """The exact mismatch count of ``netlist`` over ``chunks`` and its first FAILURE_CAP failing cases.

    ``chunks`` yields ``_chunks``' (input planes, expected planes, case
    count) in (a, b, cin) order, and ``netlist`` must expose the
    width-``width`` adder ports.  The plan that keeps only the outputs is
    lowered once; each chunk is one kernel run of it, compared with the
    expected planes in one XOR/OR pass.
    """
    plan = netlist._plan(list(map(dict(netlist.outputs).__getitem__, adder_port_names(width)[1])))
    count, failures = 0, []
    for planes, expected, n in chunks:
        got = netlist._run(plan, planes, len(expected[0]))
        bad = got[0] ^ expected[0]
        for have, want in zip(got[1:], expected[1:]):
            bad |= have ^ want
        if n % 64:
            bad[-1] &= np.uint64((1 << n % 64) - 1)
        count += int(np.count_nonzero(np.unpackbits(bad.view(np.uint8))))
        failures += _failures(bad, planes, got, width, FAILURE_CAP - len(failures))
    return count, tuple(failures)


def _check_exhaustive_all(netlists: list[Netlist], width: int, case_cap: int) -> list[EquivalenceReport]:
    """check_exhaustive for several netlists of one width, proven in one shared manager."""
    for netlist in netlists:
        width = _exhaustive_width(netlist, width, case_cap)
    reports = []
    for netlist, result in zip(netlists, _prove(netlists, width)):
        failure_count, failures = result or _sweep(netlist, width, _index_chunks(width))
        reports.append(EquivalenceReport(
            netlist=netlist.name,
            width=width,
            mode="exhaustive",
            cases_checked=1 << (2 * width + 1),
            failure_count=failure_count,
            failures=failures,
        ))
    return reports


def check_exhaustive(netlist: Netlist, width: int, case_cap: int = DEFAULT_CASE_CAP) -> EquivalenceReport:
    """Compare the netlist against oracle_add on every (a, b, cin).

    Parameters
    ----------
    netlist : Netlist
        Anything exposing the adder port contract for ``width``.
    width : int
        Operand width in bits; the check covers 2**(2*width+1) cases.
    case_cap : int
        Refuse checks of more than this many cases (ExhaustiveTooLarge).
        The default, DEFAULT_CASE_CAP = 2**29, admits widths up to 14.
    """
    return _check_exhaustive_all([netlist], width, case_cap)[0]


def _sort_keys(words) -> list:
    """``np.lexsort`` keys of one operand's 32-bit word rows, least significant first.

    Words are joined in pairs, low word first, into uint64 keys, so that
    the sort makes half as many passes; an odd top word is its own key.
    """
    wide = words[: len(words) // 2 * 2].astype(np.uint64)
    return [*(wide[0::2] | wide[1::2] << np.uint64(32)), *words[len(words) // 2 * 2 :]]


def check_random(netlist: Netlist, width: int, samples: int, seed: int) -> EquivalenceReport:
    """Compare against oracle_add on seeded random draws plus the corner cases.

    The generator is PCG64 (recorded in the report).  All samples come
    from one draw of 2k + 1 uint32 words each, k = ceil(width/32): a is
    the first k words, least significant first, masked to ``width`` bits,
    b the next k, and cin the top bit of the last word.  These
    are the cases that drawing a, then b, as ceil(width/8)-byte strings
    (``Generator.bytes``) and then cin as ``integers(0, 2)`` gives, sample
    by sample.  A seed therefore replays the same cases at the same width,
    and widths with the same word count draw the same words, masked
    differently; across word counts the cases are unrelated.  The four
    corner cases (0,0,0), (max,max,1), (max,1,0), (0,0,1) are always
    prepended, one ``np.lexsort`` puts all in (a, b, cin) order, its keys
    each operand's words joined in pairs (``_sort_keys``), and ``_chunks``
    packs them.  ``samples`` and ``seed`` must be integers >= 0.
    """
    width = _check_contract(netlist, width)
    values = []
    for what, value in (("samples", samples), ("seed", seed)):
        values.append(_require_int(value, what))
        if values[-1] < 0:
            raise InvalidParameter(f"{what} must be >= 0, got {value}")
    samples, seed = values
    rng = np.random.Generator(np.random.PCG64(seed))
    k = -(-width // 32)  # uint32 words per operand
    draws = rng.integers(0, 1 << 32, size=(samples, 2 * k + 1), dtype=np.uint32)
    draws[:, [k - 1, 2 * k - 1]] &= np.uint32((1 << (width - 32 * k + 32)) - 1)
    draws[:, -1] >>= np.uint32(31)
    corners = [[x >> 32 * j & 0xFFFFFFFF for x in (a, b) for j in range(k)] + [c] for a, b, c in boundary_cases(width)]
    rows = np.concatenate([np.array(corners, dtype=np.uint32), draws]).T
    order = np.lexsort([rows[2 * k], *_sort_keys(rows[k : 2 * k]), *_sort_keys(rows[:k])])
    columns = rows[:, order]  # _sweep takes (a, b, cin) order
    failure_count, failures = _sweep(netlist, width, _chunks(columns[:k], columns[k : 2 * k], columns[2 * k], width))
    return EquivalenceReport(
        netlist=netlist.name,
        width=width,
        mode="random",
        cases_checked=len(rows[0]),
        failure_count=failure_count,
        failures=failures,
        seed=seed,
        samples=samples,
        generator="pcg64",
    )


def probe_invariant_carry_exclusive(
    netlist: Netlist, width: int, case_cap: int = DEFAULT_CASE_CAP
) -> bool:
    """True iff no stage ever raises its block carry and increment carry together.

    The two carries are the inputs of each merge OR gate that the
    carry-increment builder records in ``carry_merges``; netlists without
    that metadata raise MissingStageMetadata.  The check is
    exhaustive, so the same case cap as check_exhaustive applies.  It is
    a proof: each merge pair's AND must be the constant 0 (see the module
    docstring).
    """
    if netlist.carry_merges is None:
        raise MissingStageMetadata(f"netlist '{netlist.name}' has no carry-stage metadata")
    width = _exhaustive_width(netlist, width, case_cap)
    if not netlist.carry_merges:
        return True
    pairs = tuple(net for gi in netlist.carry_merges for net in netlist.gates[gi].inputs)
    try:
        bdd, ports = _ports(width)
        carries = _graphs(bdd, ports, netlist, pairs)
        return all(bdd.apply(AND, carries[j], carries[j + 1]) == 0 for j in range(0, len(pairs), 2))
    except OverBudget:
        pass
    plan = netlist._plan(pairs)
    for planes, _, n in _index_chunks(width, expected=False):
        carries = netlist._run(plan, planes, -(-n // 64))
        if any((carries[j] & carries[j + 1]).any() for j in range(0, len(pairs), 2)):
            return False
    return True
