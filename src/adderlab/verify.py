"""Functional verification of adder netlists against integer addition.

The reference is integer addition, ``a + b + cin`` per case (over Python
ints for random draws, over numpy case indices for exhaustive sweeps;
``oracle_add`` is the one-case form), which shares no code with the
netlist simulator.  Both checkers run netlists through the kernel in
chunks of up to 131,072 cases, 64 per uint64 word, keeping only the
output nets; the oracle's sums are packed into expected bit-planes by
``np.packbits`` so one XOR/OR pass compares a whole chunk.  Each chunk
also carries its cases as integers, so a reported failure takes its
(a, b, cin) and its expected sum and carry from the case and
``a + b + cin``; only the netlist's own output planes are read back.

An exhaustive chunk fixes the operands' bits from 8 up (a_8.., b_8..)
and varies a_0..a_7, b_0..b_7 and cin inside it, so the planes of those
ports are the same in every chunk (``_exhaustive_inputs``).  The kernel
then runs the logic that reads only them once per sweep, not once per
chunk (``Netlist._runner``): outputs s_0..s_7 are compared with the
oracle once, and each chunk's expected planes 8..width are picked from
four fixed planes by the chunk's a_hi + b_hi (``_expected_planes``).
The fixed ports are given to the kernel as the ints 0 and 1, so it
folds every step they decide (x & 0, x | 1, and steps on two constants)
without a numpy call.  The compare folds the same way: an expected plane
that is all zeros or all ones is the int 0 or 1, and an output the
kernel folded to the same constant's row is decided equal by identity
(``_differ``).
Failures found chunk by chunk are merged into (a, b, cin) order.

One sweep serves a list of netlists of the same width: each chunk's
input and expected planes are built once, and the netlists are replayed
into one netlist over shared input ports (``_merged``), so each chunk is
one kernel run whose hash-consing computes the logic they share once:
every ``a_i ^ b_i`` and ``a_i & b_i``, and cia_rca's block 0, which is
rca's low bits.  Each netlist's outputs are then compared with the
expected planes on their own.  The compare is not folded into the
program, which would run the oracle check through the simulator.  This
is how ``analysis.compare`` verifies all rows of a width: at w12 its
four architectures run 157 steps once and 149 per chunk, of which the
folding leaves 28 per chunk on average (7,385 numpy calls per sweep
against 38,301 unfolded), and of the 5,152 output-vs-oracle compares
(each adder's s_0..s_7 once, then 5 outputs in each of 256 chunks)
3,136 are decided without a numpy call, so 2,016 planes are XORed.
Exhaustive checks sweep the full (a, b, cin) space; random checks take
their cases from one draw of a seeded PCG64 stream and always include
the corner cases.  Reports cap the failure list at 32 entries but keep
the exact count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .builders import _check_width, adder_port_names
from .errors import (
    ExhaustiveTooLarge,
    InvalidParameter,
    MissingStageMetadata,
    OperandOutOfRange,
    PortContractViolation,
)
from .netlist import Netlist, NetlistBuilder, _require_int, _to_planes

FAILURE_CAP = 32
DEFAULT_CASE_CAP = 1 << 29  # full sweep allowed up to width 14
_WORDS = 2048  # words per chunk (131,072 cases); see the module docstring
_SUM_BLOCK = 1 << 13  # case indices per block when _expected_planes sums them
_XOR = np.bitwise_xor  # the one numpy call of an output-vs-oracle compare (_differ)

# Plane of case-index bit k (k < 6) across the 64 lanes of a word:
# lane L is set iff bit k of L is, e.g. 0xAAAA... for k = 0.
_LANE_MASKS = tuple(
    np.uint64(sum(1 << lane for lane in range(64) if lane >> k & 1)) for k in range(6)
)


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
    """``width`` as an int, once ``netlist``'s ports and the cap allow a full sweep of it."""
    width = _check_contract(netlist, width)
    _require_int(case_cap, "case_cap")
    cases = 1 << (2 * width + 1)
    if cases > case_cap:
        raise ExhaustiveTooLarge(f"width {width} needs {cases} cases, over the cap of {case_cap}")
    return width


def _low_bits(width: int) -> int:
    """Bits of each operand that vary inside one exhaustive chunk: as many as ``_WORDS`` words hold."""
    return min(width, ((_WORDS * 64).bit_length() - 2) // 2)


def _high_ports(width: int) -> frozenset[str]:
    """The input ports an exhaustive chunk fixes: a's and b's bits from ``_low_bits(width)`` up."""
    return frozenset(f"{operand}_{i}" for operand in "ab" for i in range(_low_bits(width), width))


def _exhaustive_case(low: int, a_hi: int, b_hi: int, j):
    """Case j, as (a, b, cin), of the exhaustive chunk that fixes a >> low to a_hi and b >> low to b_hi.

    j = a_lo << (low+1) | b_lo << 1 | cin, where a_lo and b_lo are a's and
    b's low ``low`` bits.  ``j`` may be an int or a numpy array of them.
    """
    return a_hi << low | j >> (low + 1), b_hi << low | (j >> 1) & ((1 << low) - 1), j & 1


def _exhaustive_inputs(width: int):
    """Yield (a_hi, b_hi, cases, input planes) of each chunk that together cover every (a, b, cin).

    With low = ``_low_bits(width)``, a chunk fixes a >> low to a_hi and
    b >> low to b_hi, so each of those ports is all 0 or all 1 for the
    whole chunk.  It is given as the int 0 or 1, not as a plane, so the
    kernel folds the steps it decides (``Netlist._runner``).  Chunks run
    in (a_hi, b_hi) order.  Inside a chunk, case j
    (``_exhaustive_case``) runs over the low parts in (a, b, cin) order.
    Bits 0-5 of j vary across the lanes of a word, so their planes are
    fixed lane masks; higher bits are constant within a word and follow
    the word index.  So the low ports and cin get the same planes in every
    chunk, and operands are never unpacked.  At width <= low there is one
    chunk, with a_hi = b_hi = 0.  Below 64 cases the unused lanes repeat
    the used ones.
    """
    low = _low_bits(width)
    names = ["cin", *(f"b_{i}" for i in range(low)), *(f"a_{i}" for i in range(low))]
    n = 1 << len(names)
    word = np.arange((n + 63) >> 6, dtype=np.uint64)
    inner = {
        name: np.full(len(word), _LANE_MASKS[bit]) if bit < 6 else -((word >> np.uint64(bit - 6)) & np.uint64(1))
        for bit, name in enumerate(names)
    }
    for a_hi in range(1 << (width - low)):
        for b_hi in range(1 << (width - low)):
            yield a_hi, b_hi, n, inner | {
                f"{operand}_{i}": high >> (i - low) & 1
                for operand, high in (("a", a_hi), ("b", b_hi))
                for i in range(low, width)
            }


def _expected_planes(width: int):
    """The oracle for exhaustive chunks: a map from a chunk's (a_hi, b_hi) to its expected planes.

    The sums ``a_lo + b_lo + cin`` of one chunk's cases (see
    ``_exhaustive_inputs``) are computed and packed once, in blocks of
    ``_SUM_BLOCK`` cases so their temporaries stay small.  They take
    low + 1 bits: planes 0..low-1 are every chunk's, and plane low is
    their carry.  A chunk's sums are those plus the integer
    (a_hi + b_hi) << low, so its planes low..width are the bits of
    carry + a_hi + b_hi: those of a_hi + b_hi where the carry is 0, those
    of a_hi + b_hi + 1 where it is 1.  Each is all zeros, all ones, the
    carry or its complement, so no chunk computes a plane.  An all-zeros
    or all-ones plane is given as the int 0 or 1, as ``_exhaustive_inputs``
    gives the fixed ports, so ``_differ`` can decide its compare with a
    netlist plane that the kernel folded to a constant without a numpy
    call; planes 0..low-1 and the carry planes stay arrays.  Lanes past the
    chunk's cases may hold any value.
    """
    low = _low_bits(width)
    n = 1 << (2 * low + 1)
    fixed = np.empty((low + 1, (n + 63) // 64), dtype=np.uint64)
    for first in range(0, n, _SUM_BLOCK):
        index = np.arange(first, min(n, first + _SUM_BLOCK), dtype=np.uint32)  # a sum never exceeds its index
        sums = sum(_exhaustive_case(low, 0, 0, index))
        bits = ((sums >> np.arange(low + 1, dtype=np.uint32)[:, None]) & 1).astype(np.uint8)
        fixed[:, first // 64 : (first + len(index) + 63) // 64] = _to_planes(bits)
    carry = fixed[low]
    # the plane for (bit i of a_hi + b_hi, bit i of a_hi + b_hi + 1)
    plane = {(0, 0): 0, (1, 1): 1, (0, 1): carry, (1, 0): ~carry}

    def at(a_hi: int, b_hi: int) -> list[np.ndarray | int]:
        high = a_hi + b_hi
        return [*fixed[:low], *(plane[high >> i & 1, high + 1 >> i & 1] for i in range(width - low + 1))]

    return at


def _random_chunks(cases: list[tuple[int, int, int]], width: int):
    """Yield (input planes, expected planes, case count, case(j)) for ``cases`` in list order.

    Each case becomes the integer a | b << w | cin << 2w | (a + b + cin) << 2w+1,
    whose bits, unpacked from its little-endian bytes, are those of the
    input ports in ``adder_port_names`` order, then the expected outputs.
    """
    names, _ = adder_port_names(width)
    nbytes = (3 * width + 9) // 8
    for start in range(0, len(cases), _WORDS * 64):
        chunk = cases[start : start + _WORDS * 64]
        ints = [a | b << width | cin << 2 * width | (a + b + cin) << 2 * width + 1 for a, b, cin in chunk]
        ints += [0] * (-len(chunk) % 64)  # zero cases up to a whole word, so _to_planes need not copy
        data = np.frombuffer(b"".join(value.to_bytes(nbytes, "little") for value in ints), np.uint8)
        bits = np.unpackbits(np.ascontiguousarray(data.reshape(-1, nbytes).T), axis=0, bitorder="little")
        planes = _to_planes(bits)
        yield dict(zip(names, planes)), planes[2 * width + 1 : 3 * width + 2], len(chunk), chunk.__getitem__


def _lane_value(rows, word: int, lane: int) -> int:
    """The integer whose bit i is lane ``lane`` of ``rows[i][word]``."""
    return sum(((int(row[word]) >> lane) & 1) << i for i, row in enumerate(rows))


def _differ(got, expected, first: int, outputs, bits) -> np.ndarray | None:
    """A fresh plane of the lanes in which any of ``outputs`` misses the oracle; None if none was XORed.

    ``outputs`` are positions in ``adder_port_names`` order of the
    netlist whose taps start at ``got[first]``, and ``bits`` is the
    runner's (zeros, ones) rows.  An expected plane may be the int 0 or 1
    (``_expected_planes``).  A netlist plane that is the runner's row of
    that same constant (``bits[want]``) is decided equal by identity and
    adds nothing.  Every other output is XORed with its expected plane
    (the row ``bits`` holds for an int), so the other constant's row
    fails every lane.  At w12 this decides 3,136 of the 5,152 compares
    of a ``compare`` sweep, so it XORs 2,016 planes.  Kernel rows,
    expected planes and ``bits`` are shared across chunks and never
    written.
    """
    bad = None
    for i in outputs:
        have, want = got[first + i], expected[i]
        if want.__class__ is int:
            if have is bits[want]:
                continue
            want = bits[want]
        if bad is None:
            bad = _XOR(have, want)
        else:
            bad |= _XOR(have, want)
    return bad


def _failures(bad, case, got, width: int) -> list[Failure]:
    """The first FAILURE_CAP cases that ``bad`` marks, in chunk order.

    ``case(j)`` is the chunk's j-th (a, b, cin), and ``got`` holds one
    netlist's output planes in ``adder_port_names`` order.
    """
    mask, failures = (1 << width) - 1, []
    for word in np.flatnonzero(bad)[:FAILURE_CAP]:
        lanes = int(bad[word])
        while lanes and len(failures) < FAILURE_CAP:
            lane = (lanes & -lanes).bit_length() - 1
            lanes &= lanes - 1
            a, b, cin = case(int(word) * 64 + lane)
            want, have = a + b + cin, _lane_value(got, word, lane)
            failures.append(Failure(a, b, cin, want & mask, want >> width, have & mask, have >> width))
    return failures


def _order(failure: Failure) -> tuple[int, int, int]:
    return failure.a, failure.b, failure.cin


def _merged(netlists: list[Netlist], width: int) -> tuple[Netlist, tuple[int, ...]]:
    """One netlist computing every netlist's outputs over shared input ports, and those outputs' nets.

    The netlists are replayed through ``NetlistBuilder`` as ``import_json``
    replays a document: one input per adder port name, each netlist's
    constants through ``constant()`` and its gates in stored order.  The
    kernel's hash-consing then runs the logic they share once per chunk.
    The nets come width + 1 per netlist, its outputs in
    ``adder_port_names`` order.  A lone netlist is its own merged
    netlist, so its plan cache serves repeated checks.
    """
    inputs, outputs = adder_port_names(width)
    if len(netlists) == 1:
        [netlist] = netlists
        return netlist, tuple(map(dict(netlist.outputs).__getitem__, outputs))
    builder = NetlistBuilder(f"sweep_w{width}")
    ports = {name: builder.add_input(name).index for name in inputs}
    taps: list[int] = []
    for netlist in netlists:
        nets = [0] * len(netlist.drivers)  # the netlist's net -> merged net
        for name, net in netlist.inputs:
            nets[net] = ports[name]
        for value, net in netlist.constants:
            nets[net] = builder.constant(value).index
        for gate in netlist.gates:
            nets[gate.output] = builder._gate(gate.kind, tuple(map(nets.__getitem__, gate.inputs)))
        out = dict(netlist.outputs)
        taps.extend(nets[out[name]] for name in outputs)
    return builder.finish(), tuple(taps)


def _sweep(
    netlists: list[Netlist], width: int, chunks, varying: frozenset[str], low: int
) -> list[tuple[int, tuple[Failure, ...]]]:
    """Run every netlist on each chunk and compare it with the chunk's expected planes.

    The chunks, (input planes, expected planes, case count, case(j)), are
    made once and shared by all netlists, which must expose the
    width-``width`` adder ports.  Each chunk is one run of the ``_merged``
    netlist's kernel program (``Netlist._runner``).  Input ports outside
    ``varying`` and expected planes 0..low-1 must be the same in every
    chunk, so the steps that read only those ports run once, and so does
    the compare of each output below bit ``low`` that only such steps
    compute; a netlist whose once-compared outputs match in every lane
    keeps no plane of them.  The other outputs are compared chunk by
    chunk, and a chunk whose compares ``_differ`` all decides equal is
    neither scanned nor counted.  Returns, per netlist, the exact
    mismatch count and its first FAILURE_CAP failing cases in (a, b, cin)
    order: each chunk's first FAILURE_CAP failures, merged.  Once the cap
    is filled, a chunk whose first case sorts after the last failure kept
    is counted but not decoded.
    """
    program, taps = _merged(netlists, width)
    counts = [0] * len(netlists)
    found: list[list[Failure]] = [[] for _ in netlists]
    words = None
    for planes, expected, n, case in chunks:
        if len(expected[0]) != words:  # a new runner runs every step on its first chunk
            words = len(expected[0])
            run, fixed, bits = program._runner(words, taps, varying)
            got = run(planes)
            split = []  # per netlist: its first tap, the outputs compared per chunk, the lanes the rest miss
            for first in range(0, len(taps), width + 1):
                once = [i for i in range(low) if fixed[first + i]]
                each = [i for i in range(width + 1) if i not in once]
                base = _differ(got, expected, first, once, bits)
                split.append((first, each, base if base is not None and base.any() else None))
        else:
            got = run(planes)
        for k, (first, each, base) in enumerate(split):
            bad = _differ(got, expected, first, each, bits)
            if base is not None:
                bad = base.copy() if bad is None else bad | base
            if bad is None:
                continue
            if n % 64:
                bad[-1] &= np.uint64((1 << n % 64) - 1)
            if not bad.any():
                continue
            counts[k] += int(np.count_nonzero(np.unpackbits(bad.view(np.uint8))))
            if len(found[k]) < FAILURE_CAP or case(0) < _order(found[k][-1]):
                mine = got[first : first + width + 1]
                found[k] = sorted(found[k] + _failures(bad, case, mine, width), key=_order)[:FAILURE_CAP]
    return [(count, tuple(failures)) for count, failures in zip(counts, found)]


def _check_exhaustive_all(netlists: list[Netlist], width: int, case_cap: int) -> list[EquivalenceReport]:
    """check_exhaustive for several netlists of one width, in one shared sweep."""
    for netlist in netlists:
        width = _exhaustive_width(netlist, width, case_cap)
    expected, low = _expected_planes(width), _low_bits(width)
    chunks = (
        (planes, expected(a_hi, b_hi), n, partial(_exhaustive_case, low, a_hi, b_hi))
        for a_hi, b_hi, n, planes in _exhaustive_inputs(width)
    )
    results = _sweep(netlists, width, chunks, _high_ports(width), low)
    return [
        EquivalenceReport(
            netlist=netlist.name,
            width=width,
            mode="exhaustive",
            cases_checked=1 << (2 * width + 1),
            failure_count=failure_count,
            failures=failures,
        )
        for netlist, (failure_count, failures) in zip(netlists, results)
    ]


def check_exhaustive(netlist: Netlist, width: int, case_cap: int = DEFAULT_CASE_CAP) -> EquivalenceReport:
    """Compare the netlist against oracle_add on every (a, b, cin).

    Parameters
    ----------
    netlist : Netlist
        Anything exposing the adder port contract for ``width``.
    width : int
        Operand width in bits; the sweep covers 2**(2*width+1) cases.
    case_cap : int
        Refuse sweeps larger than this many cases (ExhaustiveTooLarge).
        The default, DEFAULT_CASE_CAP = 2**29, admits widths up to 14.
    """
    return _check_exhaustive_all([netlist], width, case_cap)[0]


def check_random(netlist: Netlist, width: int, samples: int, seed: int) -> EquivalenceReport:
    """Compare against oracle_add on seeded random draws plus the corner cases.

    The generator is PCG64 (recorded in the report).  All samples come
    from one draw of 2k + 1 uint32 words each, k = ceil(width/32): a is
    the little-endian bytes of the first k words masked to ``width`` bits,
    b those of the next k, and cin the top bit of the last word.  These
    are the cases that drawing a, then b, as ceil(width/8)-byte strings
    (``Generator.bytes``) and then cin as ``integers(0, 2)`` gives, sample
    by sample.  A seed therefore replays the same cases at the same width,
    and widths with the same word count draw the same words, masked
    differently; across word counts the cases are unrelated.  The four
    corner cases (0,0,0), (max,max,1), (max,1,0), (0,0,1) are always
    prepended.  ``samples`` and ``seed`` must be integers >= 0.
    """
    width = _check_contract(netlist, width)
    values = []
    for what, value in (("samples", samples), ("seed", seed)):
        values.append(_require_int(value, what))
        if values[-1] < 0:
            raise InvalidParameter(f"{what} must be >= 0, got {value}")
    samples, seed = values
    rng = np.random.Generator(np.random.PCG64(seed))
    mask, k = (1 << width) - 1, -(-width // 32)  # k uint32 words per operand
    draws = rng.integers(0, 1 << 32, size=(samples, 2 * k + 1), dtype=np.uint32)
    data = draws[:, :-1].astype("<u4").tobytes()
    operands = [int.from_bytes(data[i : i + 4 * k], "little") & mask for i in range(0, len(data), 4 * k)]
    cases = [*boundary_cases(width), *zip(operands[::2], operands[1::2], (draws[:, -1] >> 31).tolist())]
    # Sweeping in (a, b, cin) order makes the first failures found the
    # first failures in report order.
    cases.sort()
    chunks = _random_chunks(cases, width)
    [(failure_count, failures)] = _sweep([netlist], width, chunks, frozenset(netlist.input_names), 0)
    return EquivalenceReport(
        netlist=netlist.name,
        width=width,
        mode="random",
        cases_checked=len(cases),
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
    that metadata raise MissingStageMetadata.  The sweep is
    exhaustive, so the same case cap as check_exhaustive applies.
    """
    if netlist.carry_merges is None:
        raise MissingStageMetadata(f"netlist '{netlist.name}' has no carry-stage metadata")
    width = _exhaustive_width(netlist, width, case_cap)
    if not netlist.carry_merges:
        return True
    pairs = tuple(net for gi in netlist.carry_merges for net in netlist.gates[gi].inputs)
    run = None
    for _, _, _, planes in _exhaustive_inputs(width):
        if run is None:
            run, _, (zeros, _) = netlist._runner(len(planes["cin"]), pairs, _high_ports(width))
        carries = run(planes)
        # a pair with a carry the kernel folded to the zeros row holds in every lane
        if any(
            carries[j] is not zeros and carries[j + 1] is not zeros and (carries[j] & carries[j + 1]).any()
            for j in range(0, len(pairs), 2)
        ):
            return False
    return True
