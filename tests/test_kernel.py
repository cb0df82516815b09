"""The bit-plane kernel and everything built on it, against the slow paths.

The per-gate interpreter ``reference_evaluate_nets`` and the per-case
checkers in ``oracle.py``, which run on it, are the references: every
result of ``simulate_planes``, ``evaluate``, ``check_exhaustive`` and
``check_random`` must equal theirs exactly.  The references never run
the kernel.  ``reference_exhaustive_chunks`` is the reference for the
expected planes an exhaustive sweep derives from one fixed set.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adderlab import netlist as netlist_module
from adderlab import verify
from adderlab import (
    AdderSpec,
    Architecture,
    GateKind,
    InvalidAssignment,
    MissingInput,
    Netlist,
    NetlistBuilder,
    UnknownInput,
    UnknownNet,
    adder_port_names,
    build_adder,
    build_cia,
    build_half_adder,
    build_rca,
    check_exhaustive,
    check_random,
    compare,
    probe_invariant_carry_exclusive,
)
import oracle
from oracle import (
    reference_check_exhaustive,
    reference_check_random,
    reference_evaluate,
    reference_evaluate_nets,
    reference_exhaustive_chunks,
)
from strategies import netlists


def lanes(plane: np.ndarray) -> np.ndarray:
    """One uint8 per case: bit k of word j becomes element 64*j + k."""
    return np.unpackbits(plane.astype("<u8").view(np.uint8), bitorder="little")


def kind_swap_mutants(netlist):
    """Every netlist that differs from ``netlist`` in exactly one gate's kind."""
    for index, gate in enumerate(netlist.gates):
        for kind in GateKind:
            if kind is not gate.kind and kind.arity_ok(len(gate.inputs)):
                yield netlist.with_gate_kind(index, kind)


# dtypes whose every pair has an integer promotion that numpy's bitwise ops accept
BIT_DTYPES = [np.bool_, np.uint8, np.int8, np.uint16, np.int64]


@st.composite
def broadcast_assignments(draw, names):
    """0/1 scalars and arrays of mixed dtypes and shapes that broadcast together."""
    shape = draw(st.lists(st.integers(0, 3), max_size=3))
    assignment = {}
    for name in names:
        if draw(st.booleans()):
            assignment[name] = draw(st.integers(0, 1))
            continue
        sub = [dim if draw(st.booleans()) else 1 for dim in shape[draw(st.integers(0, len(shape))):]]
        bits = draw(st.lists(st.integers(0, 1), min_size=math.prod(sub), max_size=math.prod(sub)))
        assignment[name] = np.array(bits, dtype=draw(st.sampled_from(BIT_DTYPES))).reshape(sub)
    return assignment


# -- kernel against the per-gate interpreter ----------------------------------------

def draw_planes(data, netlist, words):
    """Random input planes of ``words`` words for every input port."""
    return {
        name: np.array(
            data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=words, max_size=words)),
            dtype=np.uint64,
        )
        for name in netlist.input_names
    }


@settings(max_examples=150, deadline=None)
@given(netlists(), st.data())
def test_kernel_matches_evaluate_nets_on_every_net(netlist, data):
    words = data.draw(st.integers(1, 3))
    planes = draw_planes(data, netlist, words)
    got = netlist.simulate_planes(planes, words)
    want = reference_evaluate_nets(netlist, {name: lanes(plane) for name, plane in planes.items()})
    assert len(got) == len(want) == len(netlist.drivers)
    for index, (plane, value) in enumerate(zip(got, want)):
        assert plane.shape == (words,), index
        expected = np.broadcast_to(np.asarray(value, dtype=np.uint8), (64 * words,))
        assert np.array_equal(lanes(plane), expected), f"net {index}"

    # evaluate packs any broadcastable assignment into planes for the same kernel
    assignment = data.draw(broadcast_assignments(netlist.input_names))
    got, want = netlist.evaluate(assignment), reference_evaluate(netlist, assignment)
    arrays = [value for value in assignment.values() if isinstance(value, np.ndarray)]
    if not arrays:
        assert got == want and all(type(value) is int for value in got.values())
        return
    shape = np.broadcast_shapes(*(value.shape for value in arrays))
    dtype = np.result_type(*(np.uint8 if value.dtype == bool else value.dtype for value in arrays))
    for name, value in want.items():
        assert got[name].shape == shape and got[name].dtype == dtype, name
        assert np.array_equal(got[name], np.broadcast_to(value, shape)), name


def test_kernel_rejects_bad_planes():
    nl = build_half_adder()
    ok = np.zeros(2, dtype=np.uint64)
    with pytest.raises(MissingInput):
        nl.simulate_planes({"a": ok}, 2)
    with pytest.raises(UnknownInput):
        nl.simulate_planes({"a": ok, "b": ok, "q": ok}, 2)
    with pytest.raises(InvalidAssignment):
        nl.simulate_planes({"a": ok, "b": np.zeros(3, dtype=np.uint64)}, 2)
    with pytest.raises(InvalidAssignment):
        nl.simulate_planes({"a": ok, "b": np.zeros(2, dtype=np.uint8)}, 2)
    for bit in (0, 1):  # only the unchecked runner takes a port as a constant int
        with pytest.raises(InvalidAssignment, match="^input 'b' must be a uint64 array of 2 words$"):
            nl.simulate_planes({"a": ok, "b": bit}, 2)
    for planes in ([ok, ok], None):
        with pytest.raises(InvalidAssignment, match="^planes must map input port names to values, got "):
            nl.simulate_planes(planes, 2)


@pytest.mark.parametrize("words", [-1, 2.0, "2", None, True])
def test_kernel_rejects_bad_word_counts(words):
    nl = build_half_adder()
    ok = np.zeros(2, dtype=np.uint64)
    with pytest.raises(InvalidAssignment, match="^words must be an integer >= 0, got "):
        nl.simulate_planes({"a": ok, "b": ok}, words)


@pytest.mark.parametrize("net", [-1, 4, 1.0, True, None])
def test_kept_nets_must_be_nets_of_the_netlist(net):
    # a negative net must not wrap around to the last slot
    nl = build_half_adder()
    ok = np.zeros(1, dtype=np.uint64)
    with pytest.raises(UnknownNet, match=f"^no net {net!r} in netlist 'half_adder'$"):
        nl.simulate_planes({"a": ok, "b": ok}, 1, (0, net))


@pytest.mark.parametrize("nets", [3, 1.5, object()], ids=["int", "float", "object"])
def test_kept_nets_must_be_a_sequence(nets):
    nl = build_half_adder()
    ok = np.zeros(1, dtype=np.uint64)
    with pytest.raises(UnknownNet, match="^nets must be None or a sequence of net ids, got "):
        nl.simulate_planes({"a": ok, "b": ok}, 1, nets)


def test_kernel_takes_numpy_and_zero_word_counts():
    nl = build_half_adder()
    ones = np.full(2, 2**64 - 1, dtype=np.uint64)
    got = nl.simulate_planes({"a": ones, "b": ones}, np.int64(2))
    assert [int(plane[1]) for plane in got] == [2**64 - 1, 2**64 - 1, 0, 2**64 - 1]
    empty = np.zeros(0, dtype=np.uint64)
    assert all(plane.shape == (0,) for plane in nl.simulate_planes({"a": empty, "b": empty}, 0))


# -- slot reuse: kernel runs that keep only some nets ---------------------------------

@settings(max_examples=150, deadline=None)
@given(netlists(), st.data())
def test_kept_nets_match_evaluate_nets_and_outlive_the_next_call(netlist, data):
    words = data.draw(st.integers(1, 3))
    planes = draw_planes(data, netlist, words)
    nets = tuple(data.draw(st.lists(st.sampled_from(range(len(netlist.drivers))), max_size=8)))
    got = netlist.simulate_planes(planes, words, nets)
    want = reference_evaluate_nets(netlist, {name: lanes(plane) for name, plane in planes.items()})
    assert len(got) == len(nets)
    for net, plane in zip(nets, got):
        assert plane.shape == (words,), net
        expected = np.broadcast_to(np.asarray(want[net], dtype=np.uint8), (64 * words,))
        assert np.array_equal(lanes(plane), expected), f"net {net}"

    # a second run over other inputs, and one over every net, leave the first result as it was
    before = [plane.copy() for plane in got]
    netlist.simulate_planes(draw_planes(data, netlist, words), words, nets)
    netlist.simulate_planes(draw_planes(data, netlist, words), words)
    for net, plane, saved in zip(nets, got, before):
        assert np.array_equal(plane, saved), f"net {net}"


@settings(max_examples=100, deadline=None)
@given(netlists(), st.data())
def test_kept_nets_as_tuple_list_or_none_give_equal_planes(netlist, data):
    words = data.draw(st.integers(1, 2))
    planes = draw_planes(data, netlist, words)
    nets = data.draw(st.lists(st.sampled_from(range(len(netlist.drivers))), max_size=8))
    every = netlist.simulate_planes(planes, words)
    for got in (netlist.simulate_planes(planes, words, tuple(nets)), netlist.simulate_planes(planes, words, nets)):
        assert len(got) == len(nets)
        for net, plane in zip(nets, got):
            assert np.array_equal(plane, every[net]), f"net {net}"


@settings(max_examples=150, deadline=None)
@given(netlists(), st.data())
def test_runs_that_vary_some_inputs_match_full_runs(netlist, data):
    # a step run once must read no varying input, directly or through other steps, and a
    # run-once value that later runs read must keep its row
    words = data.draw(st.integers(1, 2))
    varying = frozenset(data.draw(st.sets(st.sampled_from(netlist.input_names))))
    nets = data.draw(st.none() | st.lists(st.sampled_from(range(len(netlist.drivers))), max_size=8).map(tuple))
    run, fixed, _ = netlist._runner(words, nets, varying)
    planes, first = draw_planes(data, netlist, words), None
    for _ in range(data.draw(st.integers(2, 4))):
        planes |= {name: plane for name, plane in draw_planes(data, netlist, words).items() if name in varying}
        got = [plane.copy() for plane in run(planes)]
        want = netlist.simulate_planes(planes, words, nets)
        assert len(got) == len(want) == len(fixed)
        for i, (plane, expected) in enumerate(zip(got, want)):
            assert np.array_equal(plane, expected), i
        first = first or got
        for i, (plane, before) in enumerate(zip(got, first)):
            assert not fixed[i] or np.array_equal(plane, before), i


@settings(max_examples=100, deadline=None)
@given(netlists(), st.data())
def test_ports_given_as_ints_fold_like_constant_planes(netlist, data):
    # a port given as the int 0 or 1 makes the runner fold every step it decides; the
    # taps must equal simulate_planes on real all-zero/all-one planes, over several runs
    # of one runner so that its run-once rows are read back too
    words = data.draw(st.integers(1, 2))
    varying = frozenset(data.draw(st.sets(st.sampled_from(netlist.input_names))))
    nets = data.draw(st.none() | st.lists(st.sampled_from(range(len(netlist.drivers))), max_size=8).map(tuple))
    run = netlist._runner(words, nets, varying)[0]

    def draw_ports(names):
        planes = draw_planes(data, netlist, words)
        return {name: data.draw(st.sampled_from([0, 1, planes[name]])) for name in names}

    given = draw_ports(netlist.input_names)
    for _ in range(data.draw(st.integers(2, 4))):
        given |= draw_ports(varying)
        got = [lanes(plane) for plane in run(given)]
        full = {
            name: np.full(words, value * (2**64 - 1), dtype=np.uint64) if isinstance(value, int) else value
            for name, value in given.items()
        }
        want = [lanes(plane) for plane in netlist.simulate_planes(full, words, nets)]
        assert len(got) == len(want)
        for i, (plane, expected) in enumerate(zip(got, want)):
            assert np.array_equal(plane, expected), i


# -- verify's packer: a (rows, cases) 0/1 matrix into bit-planes ---------------------

@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 70), st.integers(0, 200)).flatmap(
    lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1))
))
def test_to_planes_puts_each_case_in_its_lane(bits):
    rows, cases = bits.shape
    words = -(-cases // 64)
    planes = verify._to_planes(bits)
    assert planes.shape == (rows, words)
    for r in range(rows):
        for j in range(64 * words):
            bit = int(planes[r, j // 64]) >> (j % 64) & 1
            assert bit == (bits[r, j] if j < cases else 0), (r, j)


def full_plan(netlist, nets=None):
    """The plan ``simulate_planes`` runs: every input varies."""
    return netlist._plan(nets, netlist._input_set)


# per w12 adder: steps of its hashed program, and slab rows when every net is kept
HASHED = {"rca": (60, 62), "cla": (192, 128), "cia_rca": (78, 80), "cia_cla": (120, 98)}
# the w12 compare's merged program over the four adders, its sweep fixing a_8.., b_8.. per
# chunk: steps run once (bits 0-7's logic) and per chunk; every input varying, all 306 per run
MERGED_SPLIT = (157, 149)


@pytest.mark.parametrize("arch", ["rca", "cla", "cia_rca", "cia_cla"])
def test_output_only_plans_reuse_rows(arch):
    nl = build_adder(AdderSpec(Architecture(arch), 12, 4))
    rows, steps, once, taps, fixed = full_plan(nl, tuple(net for _, net in nl.outputs))
    assert len(taps) == 13 and once == 0 and not any(fixed)
    assert rows < len(nl.gates) < len(nl.drivers)
    assert len(steps) == len(full_plan(nl)[1])  # every gate of an adder feeds an output
    # keeping every net: a row per slot some net maps to, plus the zeros and ones rows
    assert full_plan(nl)[0] == HASHED[arch][1]


def test_merged_sweep_plan_runs_the_low_bits_once():
    adders = [build_adder(AdderSpec(arch, 12, 4)) for arch in Architecture]
    merged, taps = verify._merged(adders, 12)
    rows, steps, once, _, fixed = merged._plan(taps, verify._high_ports(12))
    assert (once, len(steps) - once) == MERGED_SPLIT
    assert sum(MERGED_SPLIT) == len(full_plan(merged, taps)[1]) == 306 and full_plan(merged, taps)[2] == 0
    # s_0..s_7 of each adder are run-once values; s_8..s_11 and cout are not
    assert fixed == (*[True] * 8, *[False] * 5) * 4
    assert rows > full_plan(merged, taps)[0]  # the run-once values that per-chunk steps read stay pinned


# numpy calls of the w12 compare's sweep: 157 + 256 * 149 unfolded; with a_8.., b_8.. given
# as 0/1 per chunk, each chunk after the first makes 28.3 on average
FOLDED_SWEEP_CALLS = 7385


def test_w12_compare_sweep_folds_constant_steps(monkeypatch, unit):
    # the ops the plans store are counted by wrapping numpy's, so a change that silently
    # stops folding (or folds a step it must run, which the reports then catch) fails here
    calls = []

    def counted(ufunc):
        def op(x, y, out):
            calls.append(ufunc)
            return ufunc(x, y, out)

        return op

    ops = {ufunc: counted(ufunc) for ufunc in (np.bitwise_and, np.bitwise_or, np.bitwise_xor)}
    monkeypatch.setattr(netlist_module, "_PLANE_OPS", {kind: ops[u] for kind, u in netlist_module._PLANE_OPS.items()})
    monkeypatch.setattr(netlist_module, "_ABSORBING", {ops[u]: bit for u, bit in netlist_module._ABSORBING.items()})
    table = compare([AdderSpec(arch, 12, 4) for arch in Architecture], unit)
    assert [row.verified for row in table.rows] == [True] * 4
    assert len(calls) == FOLDED_SWEEP_CALLS < sum(MERGED_SPLIT) + 255 * MERGED_SPLIT[1]


def depends_on(netlist, ports):
    """The indices of the gates that read any of ``ports``, directly or through other gates."""
    reached = {net for name, net in netlist.inputs if name in ports}
    found = []
    for index, gate in enumerate(netlist.gates):
        if reached.intersection(gate.inputs):
            reached.add(gate.output)
            found.append(index)
    return found


def test_kind_swap_mutants_of_folded_chunks_report_like_the_reference():
    # at the default chunk size w9 fixes a_8 and b_8 in 4 chunks, so every port the
    # runner folds is a real high bit; the mutants swap gates those ports reach
    width, rng = 9, random.Random(9)
    mutants = []
    for arch in Architecture:
        adder = build_adder(AdderSpec(arch, width, 4))
        high = depends_on(adder, verify._high_ports(width))
        for index in rng.sample(high, 2):
            kinds = [kind for kind in GateKind if kind is not adder.gates[index].kind
                     and kind.arity_ok(len(adder.gates[index].inputs))]
            mutants.append(adder.with_gate_kind(index, rng.choice(kinds)))
    assert len(verify._high_ports(width)) == 2
    reports = verify._check_exhaustive_all(mutants, width, verify.DEFAULT_CASE_CAP)
    for mutant, report in zip(mutants, reports):
        want = reference_check_exhaustive(mutant, width)
        assert report == want == check_exhaustive(mutant, width), mutant.name
    assert sum(not report.ok for report in reports) > len(mutants) // 2


def cone(netlist, names):
    """The indices of the gates that output ports ``names`` read, directly or through other gates."""
    reached = {net for name, net in netlist.outputs if name in names}
    found = []
    for index in reversed(range(len(netlist.gates))):
        if netlist.gates[index].output in reached:
            reached.update(netlist.gates[index].inputs)
            found.append(index)
    return found


def test_mutants_wrong_only_below_the_fixed_bits_report_like_the_reference():
    # w9 fixes a_8 and b_8: s_0..s_7 are run-once planes, compared with the oracle once per
    # sweep, so these mutants' failures come only from that once-compared plane of each
    width, rng = 9, random.Random(24)
    mutants = []
    for arch in Architecture:
        adder = build_adder(AdderSpec(arch, width, 3))
        upper = set(cone(adder, ["cout", *(f"s_{i}" for i in range(verify._low_bits(width), width))]))
        for index in rng.sample([i for i in range(len(adder.gates)) if i not in upper], 2):
            kinds = [kind for kind in GateKind if kind is not adder.gates[index].kind
                     and kind.arity_ok(len(adder.gates[index].inputs))]
            mutants.append(adder.with_gate_kind(index, rng.choice(kinds)))
    reports = verify._check_exhaustive_all(mutants, width, verify.DEFAULT_CASE_CAP)
    for mutant, report in zip(mutants, reports):
        want = reference_check_exhaustive(mutant, width)
        assert report == want == check_exhaustive(mutant, width), mutant.name
        assert not report.ok and report.failure_count % 4 == 0, mutant.name  # the same in all 4 chunks


def test_cout_wrong_in_a_whole_chunk_reports_like_the_reference():
    # rca w9 with cout's OR made an AND: cout is 0 everywhere, so in the chunk a_8 = b_8 = 1
    # the kernel folds it to the zeros row where the oracle's plane is the int 1
    width = 9
    adder = build_rca(width)
    assert dict(adder.outputs)["cout"] == adder.gates[-1].output and adder.gates[-1].kind is GateKind.OR
    mutant = adder.with_gate_kind(len(adder.gates) - 1, GateKind.AND)
    cout_plane = verify._expected_planes(width)(1, 1)[width]
    assert type(cout_plane) is int and cout_plane == 1
    want = reference_check_exhaustive(mutant, width)
    assert want.failure_count == 1 << 18
    for reports in (verify._check_exhaustive_all([adder, mutant, adder], width, verify.DEFAULT_CASE_CAP),
                    [check_exhaustive(adder, width), check_exhaustive(mutant, width)]):
        assert reports[0].ok and reports[1] == want


# output-vs-oracle XORs of the w12 compare's sweep: each adder's s_0..s_7 once, then 5 planes
# in each of 256 chunks; the rest compare a folded zeros/ones row with an int 0/1 plane
UNDECIDED_SWEEP_XORS = 2016


def test_w12_compare_sweep_decides_constant_compares(monkeypatch, unit):
    calls = []

    def counted(x, y):
        calls.append(1)
        return np.bitwise_xor(x, y)

    monkeypatch.setattr(verify, "_XOR", counted)
    table = compare([AdderSpec(arch, 12, 4) for arch in Architecture], unit)
    assert [row.verified for row in table.rows] == [True] * 4
    assert len(calls) == UNDECIDED_SWEEP_XORS < 4 * (8 + 256 * 5)


# -- hash-consed steps: shared terms run once ----------------------------------------

def unhashed_steps(netlist):
    """Steps of lowering every gate on its own: fan-in - 1 (NOT: 1) per gate, one copy per constant."""
    return sum(max(len(gate.inputs) - 1, 1) for gate in netlist.gates) + len(netlist.constants)


def assert_ops_commute(netlist):
    """Every step of the full plan is AND, OR or XOR, which commute."""
    for op, _, _, _ in full_plan(netlist)[1]:
        assert op in (np.bitwise_and, np.bitwise_or, np.bitwise_xor)


@pytest.mark.parametrize("arch,width,steps", [
    *((arch, 12, steps) for arch, (steps, _) in HASHED.items()),
    ("cla", 32, 1152),
])
def test_hashed_programs_run_shared_terms_once(arch, width, steps):
    nl = build_adder(AdderSpec(Architecture(arch), width, 4))
    assert len(full_plan(nl)[1]) == steps and full_plan(nl)[2] == 0
    assert_ops_commute(nl)


@st.composite
def repeating_netlists(draw):
    """(base, repeats): a ``netlists()`` draw, and it rebuilt with copies of its gates, operands permuted.

    Each gate is followed by zero or more copies of gates built so far,
    the first gate by at least one.  Later gates and output taps read an
    original or any copy of it, so copies also read copies.
    """
    base = draw(netlists().filter(lambda netlist: netlist.gates))
    b = NetlistBuilder("repeats")
    same = {net: [b.add_input(name)] for name, net in base.inputs}  # base net -> equal handles
    same |= {net: [b.constant(value)] for value, net in base.constants}
    for gi, gate in enumerate(base.gates):
        same[gate.output] = [b.add_gate(gate.kind, [draw(st.sampled_from(same[net])) for net in gate.inputs])]
        for copied in draw(st.lists(st.sampled_from(base.gates[: gi + 1]), min_size=1 if gi == 0 else 0, max_size=2)):
            ins = draw(st.permutations([draw(st.sampled_from(same[net])) for net in copied.inputs]))
            same[copied.output].append(b.add_gate(copied.kind, ins))
    for name, net in base.outputs:
        b.add_output(name, draw(st.sampled_from(same[net])))
    return base, b.finish()


@settings(max_examples=150, deadline=None)
@given(repeating_netlists(), st.data())
def test_repeated_gates_hash_to_shared_steps(base_and_repeats, data):
    base, netlist = base_and_repeats
    # a copy, whatever its operands' order, hashes to its original's steps
    assert len(full_plan(netlist)[1]) == len(full_plan(base)[1]) < unhashed_steps(netlist)
    assert_ops_commute(netlist)
    words = data.draw(st.integers(1, 2))
    planes = draw_planes(data, netlist, words)
    want = reference_evaluate_nets(netlist, {name: lanes(plane) for name, plane in planes.items()})
    every = range(len(netlist.drivers))
    some = tuple(data.draw(st.lists(st.sampled_from(every), max_size=8)))
    for nets, got in ((every, netlist.simulate_planes(planes, words)), (some, netlist.simulate_planes(planes, words, some))):
        assert len(got) == len(nets)
        for net, plane in zip(nets, got):
            expected = np.broadcast_to(np.asarray(want[net], dtype=np.uint8), (64 * words,))
            assert np.array_equal(lanes(plane), expected), f"net {net}"


def test_reordered_operands_reach_an_earlier_step():
    # AND(c, AND(a, b)) keys its step (AND, c, ab), which AND(a, b, c) emitted as (AND, ab, c)
    b = NetlistBuilder("reorder")
    a, bb, c = (b.add_input(name) for name in "abc")
    b.add_output("abc", b.add_gate(GateKind.AND, [a, bb, c]))
    ab = b.add_gate(GateKind.AND, [a, bb])
    b.add_output("ab", ab)
    b.add_output("c_ab", b.add_gate(GateKind.AND, [c, ab]))
    nl = b.finish()
    assert len(full_plan(nl)[1]) == 2
    bits = np.array(list(itertools.product([0, 1], repeat=3)), dtype=np.uint8).T
    got = nl.evaluate(dict(zip("abc", bits)))
    assert np.array_equal(got["ab"], bits[0] & bits[1])
    assert np.array_equal(got["abc"], bits[0] & bits[1] & bits[2])
    assert np.array_equal(got["c_ab"], got["abc"])


def test_mutant_does_not_reuse_parent_compiled_form():
    parent = build_rca(4)
    before = full_plan(parent)
    mutant = parent.with_gate_kind(0, GateKind.AND)
    assert full_plan(mutant) is not before
    assert full_plan(mutant)[1][0][0] is np.bitwise_and
    assert full_plan(parent) is before
    assert before[1][0][0] is np.bitwise_xor
    assert check_exhaustive(parent, 4).ok
    assert not check_exhaustive(mutant, 4).ok


# -- checkers against the per-case references ---------------------------------------

@pytest.mark.parametrize("netlist,width", [
    (build_cia(8, 4, Architecture.CLA), 8),
    (build_rca(4), 4),
], ids=["cia_cla_w8_b4", "rca_w4"])
def test_every_kind_swap_mutant_reports_like_the_reference(netlist, width):
    mutants = 0
    for mutant in kind_swap_mutants(netlist):
        assert check_exhaustive(mutant, width) == reference_check_exhaustive(mutant, width), mutant.name
        mutants += 1
    assert mutants > len(netlist.gates)


@pytest.mark.parametrize("width", [1, 2])
def test_exhaustive_partial_word_matches_reference(width):
    # 8 and 32 cases: one word whose upper lanes hold no case
    clean = build_rca(width)
    for netlist in (clean, *kind_swap_mutants(clean)):
        report = check_exhaustive(netlist, width)
        assert report == reference_check_exhaustive(netlist, width), netlist.name
        assert report.failure_count <= 1 << (2 * width + 1)


@pytest.mark.parametrize("samples", [0, 1, 59, 60, 61, 64, 65])
def test_random_partial_word_matches_reference(samples):
    # the four corner cases come first, so 60 samples fill exactly one word
    clean = build_rca(4)
    for netlist in (clean, clean.with_gate_kind(4, GateKind.AND), clean.with_gate_kind(0, GateKind.OR)):
        report = check_random(netlist, 4, samples, seed=11)
        assert report == reference_check_random(netlist, 4, samples, seed=11), netlist.name
        assert report.failure_count <= samples + 4


def test_random_matches_reference_on_wide_operands():
    clean = build_cia(64, 8, Architecture.CLA)
    mutant = clean.with_gate_kind(len(clean.gates) - 1, GateKind.AND)
    for netlist in (clean, mutant):
        assert check_random(netlist, 64, 300, seed=5) == reference_check_random(netlist, 64, 300, seed=5)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 31, 32, 33, 64, 65, 100])
def test_random_draws_the_reference_loops_cases(monkeypatch, width):
    # check_random draws every sample's words at once; the reference draws a and b
    # with Generator.bytes and cin with integers(0, 2), sample by sample
    drawn = []
    random_chunks, evaluate = verify._random_chunks, oracle.reference_evaluate

    def chunks_spy(cases, width):
        drawn.append(sorted(cases))
        return random_chunks(cases, width)

    def evaluate_spy(netlist, assignment):
        def operand(op, j):
            return sum(int(assignment[f"{op}_{i}"][j]) << i for i in range(width))

        cases = range(len(assignment["cin"]))
        drawn.append(sorted((operand("a", j), operand("b", j), int(assignment["cin"][j])) for j in cases))
        return evaluate(netlist, assignment)

    monkeypatch.setattr(verify, "_random_chunks", chunks_spy)
    monkeypatch.setattr(oracle, "reference_evaluate", evaluate_spy)
    netlist = build_rca(width)
    for samples, seed in itertools.product([0, 1, 70], [0, 5]):
        drawn.clear()
        assert check_random(netlist, width, samples, seed) == reference_check_random(netlist, width, samples, seed)
        mine, reference = drawn
        assert len(mine) == samples + 4 and mine == reference, (samples, seed)


def test_failures_merge_across_chunks_in_case_order(monkeypatch):
    # one-word chunks fix a >> 2 and b >> 2 at w5: the cases of one a span eight chunks, so
    # the first failures in (a, b, cin) order come from several chunks, interleaved
    monkeypatch.setattr(verify, "_WORDS", 1)
    adders = [build_adder(AdderSpec(arch, 5, 2)) for arch in Architecture]
    mutants = [mutant for adder in adders for mutant in kind_swap_mutants(adder)]
    spread = 0
    for mutant, report in zip(mutants, verify._check_exhaustive_all(mutants, 5, verify.DEFAULT_CASE_CAP)):
        want = reference_check_exhaustive(mutant, 5)
        assert report == want == check_exhaustive(mutant, 5), mutant.name
        chunks = [(failure.a >> 2, failure.b >> 2) for failure in want.failures]
        spread += chunks != sorted(chunks)  # chunk order would list these failures otherwise
    assert spread > 0


def test_chunk_boundaries_do_not_change_reports(monkeypatch):
    # one-word chunks: w4's 512 cases in 16 chunks of 32, and 304 random cases in 5 chunks;
    # two-word chunks: 4 of 128 cases, and random chunks of 2, 2 and 1 words
    clean = build_cia(4, 2, Architecture.RCA)
    for words in (1, 2):
        monkeypatch.setattr(verify, "_WORDS", words)
        assert probe_invariant_carry_exclusive(clean, 4)
        for netlist in (clean, *kind_swap_mutants(clean)):
            assert check_exhaustive(netlist, 4) == reference_check_exhaustive(netlist, 4), netlist.name
            assert check_random(netlist, 4, 300, seed=2) == reference_check_random(netlist, 4, 300, seed=2)


@pytest.mark.parametrize("width,words", [(4, 1024), (4, 1), (6, 1024)], ids=["one_chunk", "one_word_chunks", "w6"])
def test_shared_sweep_reports_each_netlist_like_its_own_check(monkeypatch, width, words):
    # one merged program per chunk for every kind-swap mutant of the four adders, the
    # adders themselves and one netlist listed twice: hashing must lend no value across them
    monkeypatch.setattr(verify, "_WORDS", words)
    adders = [build_adder(AdderSpec(arch, width, 2)) for arch in Architecture]
    netlists = [*adders, *(mutant for adder in adders for mutant in kind_swap_mutants(adder)), adders[2]]
    assert len(netlists) == {4: 188, 6: 295}[width]
    reports = verify._check_exhaustive_all(netlists, width, verify.DEFAULT_CASE_CAP)
    assert len(reports) == len(netlists)
    capped = 0
    for k, (netlist, report) in enumerate(zip(netlists, reports)):
        assert report == check_exhaustive(netlist, width), netlist.name
        if k % 5 == 0:
            assert report == reference_check_exhaustive(netlist, width), netlist.name
        capped += report.failure_count > len(report.failures) == verify.FAILURE_CAP
    assert all(report.ok for report in reports[:4]) and reports[-1].ok
    assert capped > 0 and not all(report.ok for report in reports[4:-1])


def test_one_width_runs_the_kernel_once_per_chunk(monkeypatch, unit):
    # 16-word chunks fix a_4, a_5, b_4 and b_5 at w6: 16 chunks of 512 cases, each one
    # run of the merged program, all from the one runner of the sweep
    monkeypatch.setattr(verify, "_WORDS", 16)
    runners, calls = [], []
    runner = Netlist._runner

    def spy(self, words, nets, varying):
        run, fixed, bits = runner(self, words, nets, varying)
        runners.append((words, len(nets), varying))

        def counted(planes):
            calls.append(len(nets))
            return run(planes)

        return counted, fixed, bits

    monkeypatch.setattr(Netlist, "_runner", spy)
    table = compare([AdderSpec(arch, 6, 2) for arch in Architecture], unit)
    assert [row.verified for row in table.rows] == [True] * 4
    assert runners == [(8, 4 * 7, frozenset({"a_4", "a_5", "b_4", "b_5"}))]
    assert calls == [4 * 7] * 16


def test_merged_plan_runs_fewer_steps_than_its_netlists():
    # the adders share every a_i ^ b_i and a_i & b_i, and cia_rca's block 0 is rca's low bits
    adders = [build_adder(AdderSpec(arch, 12, 4)) for arch in Architecture]
    merged, taps = verify._merged(adders, 12)
    outputs = adder_port_names(12)[1]
    own = [full_plan(adder, tuple(map(dict(adder.outputs).__getitem__, outputs)))[1] for adder in adders]
    assert len(full_plan(merged, taps)[1]) < sum(map(len, own))


# -- expected planes of the exhaustive sweep against per-chunk integer sums ---------

def sweep_chunks(width):
    """(a_hi, b_hi, cases, expected planes) of each exhaustive chunk, in sweep order."""
    expected = verify._expected_planes(width)
    return ((a_hi, b_hi, n, expected(a_hi, b_hi)) for a_hi, b_hi, n, _ in verify._exhaustive_inputs(width))


def assert_same_cases(got, want, where):
    """Planes ``got`` equal ``want`` in every lane a case occupies; lanes past the cases may differ.

    A plane of ``got`` may be the int 0 or 1, read as all zeros or all
    ones, which every occupied lane of the reference's plane must then be.
    """
    a_hi, b_hi, n, planes = want
    assert got[:3] == (a_hi, b_hi, n), where
    assert len(got[3]) == len(planes), where
    full = [np.full(len(planes[0]), plane * (2**64 - 1), dtype=np.uint64) if type(plane) is int else plane
            for plane in got[3]]
    cases = [np.unpackbits(np.asarray(rows, dtype="<u8").view(np.uint8), axis=1, bitorder="little")[:, :n]
             for rows in (full, planes)]
    assert np.array_equal(*cases), where


def assert_chunks_match(width, words, numbers):
    """The expected planes of the chunks with these sweep positions equal the reference chunks'."""
    expected = verify._expected_planes(width)
    for number in numbers:
        a_hi, b_hi, n, want = next(reference_exhaustive_chunks(width, words, number))
        assert_same_cases((a_hi, b_hi, n, expected(a_hi, b_hi)), (a_hi, b_hi, n, want), (width, number))


@pytest.mark.parametrize("words", [verify._WORDS, 1], ids=["default_words", "one_word_chunks"])
def test_expected_planes_match_per_chunk_integer_sums(monkeypatch, words):
    monkeypatch.setattr(verify, "_WORDS", words)
    rng = random.Random(12)
    for width in range(1, 13):
        chunks = sweep_chunks(width)
        reference = reference_exhaustive_chunks(width, words)
        low = min(width, {2048: 8, 1: 2}[words])  # each operand's bits that vary inside a chunk
        count = 4 ** (width - low)
        if count <= 4096:
            # every chunk, in sweep order
            pairs = list(itertools.zip_longest(chunks, reference))
            assert len(pairs) == count
            for got, want in pairs:
                assert want[2] == 2 << 2 * low
                assert_same_cases(got, want, (width, *want[:2]))
        else:
            # one-word chunks at w9-w12: the first 512, the last, and random ones
            for got, want in itertools.islice(zip(chunks, reference), 512):
                assert_same_cases(got, want, (width, *want[:2]))
            assert_chunks_match(width, words, [count - 1] + [rng.randrange(count) for _ in range(256)])


@pytest.mark.parametrize("width", range(16, 25))
def test_expected_planes_match_where_b_crosses_chunks(width):
    # a 2,048-word chunk holds a_0..a_7, b_0..b_7 and cin: both operands' high bits feed the chunk constant
    count = 4 ** (width - 8)
    for got, want in zip(itertools.islice(sweep_chunks(width), 3), reference_exhaustive_chunks(width, verify._WORDS)):
        assert_same_cases(got, want, (width, *want[:2]))
    rng = random.Random(width)
    assert_chunks_match(width, verify._WORDS, [count - 1] + [rng.randrange(count) for _ in range(6)])
