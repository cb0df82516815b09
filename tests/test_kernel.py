"""The bit-plane kernel and everything built on it, against the slow paths.

The per-gate interpreter ``reference_evaluate_nets`` and the per-case
checkers in ``oracle.py``, which run on it, are the references: every
result of ``simulate_planes``, ``evaluate``, ``check_exhaustive`` and
``check_random`` must equal theirs exactly.  The references never run
the kernel.  ``reference_exhaustive_chunks`` is the reference for the
planes of the sweep that an exhaustive check falls back on when its
proof passes the node budget (``verify._NODE_BUDGET``); ``swept`` forces
that fallback.  ``reference_case_planes`` is the reference for the
planes that ``verify._chunks`` packs for both kinds of check.
"""

import copy
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    boundary_cases,
    build_adder,
    build_cia,
    build_half_adder,
    build_rca,
    check_exhaustive,
    check_random,
    compare,
    probe_invariant_carry_exclusive,
)
from oracle import (
    reference_case_planes,
    reference_check_exhaustive,
    reference_check_random,
    reference_evaluate,
    reference_evaluate_nets,
    reference_exhaustive_chunks,
    reference_random_cases,
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
    for bit in (0, 1):  # a constant is no plane
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


@pytest.mark.parametrize("net", [-1, 4, 1.0, True, None, [1]])
def test_kept_nets_must_be_nets_of_the_netlist(net):
    # a negative net must not wrap around to the last slot; an unhashable one is no net either
    nl = build_half_adder()
    ok = np.zeros(1, dtype=np.uint64)
    with pytest.raises(UnknownNet, match=f"^{re.escape(f'no net {net!r} in netlist {nl.name!r}')}$"):
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
    """The (slab rows, steps, taps) ``simulate_planes`` runs for ``nets``."""
    return netlist._plan(nets)


# per w12 adder: steps of its hashed program, and slab rows when every net is kept; the
# cia adders' constant block carries run as steps that read the zeros row
HASHED = {"rca": (60, 62), "cla": (192, 128), "cia_rca": (78, 80), "cia_cla": (120, 98)}


@pytest.mark.parametrize("arch", ["rca", "cla", "cia_rca", "cia_cla"])
def test_output_only_plans_reuse_rows(arch):
    nl = build_adder(AdderSpec(Architecture(arch), 12, 4))
    rows, steps, taps = full_plan(nl, tuple(net for _, net in nl.outputs))
    assert len(taps) == 13
    assert rows < len(nl.gates) < len(nl.drivers)
    assert len(steps) == len(full_plan(nl)[1])  # every gate of an adder feeds an output
    # keeping every net: a row per slot some net maps to, plus the zeros and ones rows
    assert full_plan(nl)[0] == HASHED[arch][1]


def swept(monkeypatch, check, *args):
    """``check(*args)`` with the proof's node budget at 0, so every exhaustive check runs the fallback sweep."""
    with monkeypatch.context() as patched:
        patched.setattr(verify, "_NODE_BUDGET", 0)
        return check(*args)


def depends_on(netlist, ports):
    """The indices of the gates that read any of ``ports``, directly or through other gates."""
    reached = {net for name, net in netlist.inputs if name in ports}
    found = []
    for index, gate in enumerate(netlist.gates):
        if reached.intersection(gate.inputs):
            reached.add(gate.output)
            found.append(index)
    return found


def test_kind_swap_mutants_of_folded_chunks_report_like_the_reference(monkeypatch):
    # the mutants swap gates that a_8 and b_8 reach; the fallback sweeps w9's 2**19 cases in
    # 4 chunks at the default chunk size, so its failures come from several chunks
    width, rng = 9, random.Random(9)
    mutants = []
    for arch in Architecture:
        adder = build_adder(AdderSpec(arch, width, 4))
        for index in rng.sample(depends_on(adder, {"a_8", "b_8"}), 2):
            kinds = [kind for kind in GateKind if kind is not adder.gates[index].kind
                     and kind.arity_ok(len(adder.gates[index].inputs))]
            mutants.append(adder.with_gate_kind(index, rng.choice(kinds)))
    args = (mutants, width, verify.DEFAULT_CASE_CAP)
    proven, fallback = verify._check_exhaustive_all(*args), swept(monkeypatch, verify._check_exhaustive_all, *args)
    for mutant, report, other in zip(mutants, proven, fallback):
        want = reference_check_exhaustive(mutant, width)
        assert report == other == want == check_exhaustive(mutant, width), mutant.name
    assert sum(not report.ok for report in proven) > len(mutants) // 2


def cone(netlist, names):
    """The indices of the gates that output ports ``names`` read, directly or through other gates."""
    reached = {net for name, net in netlist.outputs if name in names}
    found = []
    for index in reversed(range(len(netlist.gates))):
        if netlist.gates[index].output in reached:
            reached.update(netlist.gates[index].inputs)
            found.append(index)
    return found


def test_mutants_wrong_only_below_the_fixed_bits_report_like_the_reference(monkeypatch):
    # these mutants change only s_0..s_7, which a_8 and b_8 do not reach, so they fail in
    # the same cases for each of the four values of (a_8, b_8)
    width, rng = 9, random.Random(24)
    mutants = []
    for arch in Architecture:
        adder = build_adder(AdderSpec(arch, width, 3))
        upper = set(cone(adder, ["cout", "s_8"]))
        for index in rng.sample([i for i in range(len(adder.gates)) if i not in upper], 2):
            kinds = [kind for kind in GateKind if kind is not adder.gates[index].kind
                     and kind.arity_ok(len(adder.gates[index].inputs))]
            mutants.append(adder.with_gate_kind(index, rng.choice(kinds)))
    args = (mutants, width, verify.DEFAULT_CASE_CAP)
    proven, fallback = verify._check_exhaustive_all(*args), swept(monkeypatch, verify._check_exhaustive_all, *args)
    for mutant, report, other in zip(mutants, proven, fallback):
        want = reference_check_exhaustive(mutant, width)
        assert report == other == want == check_exhaustive(mutant, width), mutant.name
        assert not report.ok and report.failure_count % 4 == 0, mutant.name


def test_cout_wrong_in_a_whole_chunk_reports_like_the_reference(monkeypatch):
    # rca w9 with cout's OR made an AND: cout is 0 everywhere, so it is wrong in every case
    # with a_8 = b_8 = 1, a whole chunk of the fallback sweep
    width = 9
    adder = build_rca(width)
    assert dict(adder.outputs)["cout"] == adder.gates[-1].output and adder.gates[-1].kind is GateKind.OR
    mutant = adder.with_gate_kind(len(adder.gates) - 1, GateKind.AND)
    want = reference_check_exhaustive(mutant, width)
    assert want.failure_count == 1 << 18
    args = ([adder, mutant, adder], width, verify.DEFAULT_CASE_CAP)
    for reports in (verify._check_exhaustive_all(*args), swept(monkeypatch, verify._check_exhaustive_all, *args),
                    [check_exhaustive(adder, width), check_exhaustive(mutant, width)]):
        assert reports[0].ok and reports[1] == want


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
    assert len(full_plan(nl)[1]) == steps
    assert_ops_commute(nl)


def test_constant_operands_run_as_steps():
    # every block of cia_cla w64 b8 after the first adds a constant 0 carry-in; the lowering
    # decides nothing from it, so its links are hash-consed steps that read the zeros row
    nl = build_cia(64, 8, Architecture.CLA)
    _, steps, _ = full_plan(nl, tuple(net for _, net in nl.outputs))
    zeros = len(nl.inputs)
    assert len(steps) == 936
    assert any(zeros in step[1:3] for step in steps)
    assert len(full_plan(build_cia(64, 8, Architecture.RCA))[1]) == 439


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
    assert full_plan(mutant)[1][0][0] is np.bitwise_and
    assert full_plan(parent) == before
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


def spy_chunks(monkeypatch) -> list:
    """A list that collects every chunk ``verify._chunks`` yields from now on."""
    seen, chunks = [], verify._chunks

    def spy(*args):
        for chunk in chunks(*args):
            seen.append(chunk)
            yield chunk

    monkeypatch.setattr(verify, "_chunks", spy)
    return seen


def chunk_cases(chunk, width) -> list[tuple[int, int, int]]:
    """The (a, b, cin) of each case of a ``verify._chunks`` chunk, read back from its input planes."""
    planes, _, n = chunk
    rows = [lanes(planes[name])[:n] for name in adder_port_names(width)[0]]

    def value(bits):
        return sum(int(bit) << i for i, bit in enumerate(bits))

    return [(value(case[:width]), value(case[width:-1]), int(case[-1])) for case in zip(*rows)]


@pytest.mark.parametrize("width", [1, 7, 8, 9, 31, 32, 33, 64, 65, 100])
def test_random_draws_the_reference_loops_cases(monkeypatch, width):
    # check_random draws every sample's words at once; the reference draws a and b
    # with Generator.bytes and cin with integers(0, 2), sample by sample.  The chunks
    # hold those cases in (a, b, cin) order.
    seen = spy_chunks(monkeypatch)
    netlist = build_rca(width)
    for samples, seed in itertools.product([0, 1, 70], [0, 5]):
        seen.clear()
        assert check_random(netlist, width, samples, seed) == reference_check_random(netlist, width, samples, seed)
        mine = [case for chunk in seen for case in chunk_cases(chunk, width)]
        assert mine == sorted(reference_random_cases(width, samples, seed)), (samples, seed)


def test_failures_merge_across_chunks_in_case_order(monkeypatch):
    # one-word chunks of the fallback sweep at w5: 32 chunks of 64 cases, so the first
    # failures in (a, b, cin) order come from several chunks
    monkeypatch.setattr(verify, "_WORDS", 1)
    adders = [build_adder(AdderSpec(arch, 5, 2)) for arch in Architecture]
    mutants = [mutant for adder in adders for mutant in kind_swap_mutants(adder)]
    spread = 0
    for mutant, report in zip(mutants, swept(monkeypatch, verify._check_exhaustive_all, mutants, 5, 1 << 11)):
        want = reference_check_exhaustive(mutant, 5)
        assert report == want == check_exhaustive(mutant, 5), mutant.name
        spread += len({(failure.a << 6 | failure.b << 1 | failure.cin) >> 6 for failure in want.failures}) > 1
    assert spread > 0


def test_chunk_boundaries_do_not_change_reports(monkeypatch):
    # one-word chunks: w4's 512 cases in 8 chunks of 64, and 304 random cases in 5 chunks;
    # two-word chunks: 4 of 128 cases, and random chunks of 2, 2 and 1 words
    monkeypatch.setattr(verify, "_NODE_BUDGET", 0)
    clean = build_cia(4, 2, Architecture.RCA)
    for words in (1, 2):
        monkeypatch.setattr(verify, "_WORDS", words)
        assert probe_invariant_carry_exclusive(clean, 4)
        for netlist in (clean, *kind_swap_mutants(clean)):
            assert check_exhaustive(netlist, 4) == reference_check_exhaustive(netlist, 4), netlist.name
            assert check_random(netlist, 4, 300, seed=2) == reference_check_random(netlist, 4, 300, seed=2)


@pytest.mark.parametrize("width,words,budget", [(4, 2048, None), (4, 1, 1000), (6, 2048, None)],
                         ids=["one_chunk", "one_word_chunks", "w6"])
def test_shared_sweep_reports_each_netlist_like_its_own_check(monkeypatch, width, words, budget):
    # one manager for every kind-swap mutant of the four adders, the adders themselves and one
    # netlist listed twice: the nodes they share must lend no value across them.  At w4 they
    # take 1,842 nodes, so under a budget of 1,000 the later ones are swept, in one-word chunks.
    monkeypatch.setattr(verify, "_WORDS", words)
    if budget is not None:
        monkeypatch.setattr(verify, "_NODE_BUDGET", budget)
    adders = [build_adder(AdderSpec(arch, width, 2)) for arch in Architecture]
    netlists = [*adders, *(mutant for adder in adders for mutant in kind_swap_mutants(adder)), adders[2]]
    assert len(netlists) == {4: 188, 6: 295}[width]
    sweeps, sweep = [], verify._sweep
    monkeypatch.setattr(verify, "_sweep", lambda netlist, *args: sweeps.append(netlist) or sweep(netlist, *args))
    reports = verify._check_exhaustive_all(netlists, width, verify.DEFAULT_CASE_CAP)
    assert len(reports) == len(netlists)
    if budget is None:
        assert not sweeps
    else:
        assert 0 < len(sweeps) < len(netlists) and sweeps == netlists[len(netlists) - len(sweeps):]
    capped = 0
    for k, (netlist, report) in enumerate(zip(netlists, reports)):
        assert report == check_exhaustive(netlist, width), netlist.name
        if k % 5 == 0:
            assert report == reference_check_exhaustive(netlist, width), netlist.name
        capped += report.failure_count > len(report.failures) == verify.FAILURE_CAP
    assert all(report.ok for report in reports[:4]) and reports[-1].ok
    assert capped > 0 and not all(report.ok for report in reports[4:-1])


def spy_kernel(monkeypatch) -> tuple[list, list]:
    """Lists that collect each later ``Netlist._plan`` call's (name, kept nets) and ``_run`` call's (name, words, kept nets)."""
    plans, runs = [], []
    lower, run = Netlist._plan, Netlist._run

    def plan_spy(self, nets):
        plans.append((self.name, len(nets)))
        return lower(self, nets)

    def run_spy(self, plan, planes, words):
        runs.append((self.name, words, len(plan[2])))
        return run(self, plan, planes, words)

    monkeypatch.setattr(Netlist, "_plan", plan_spy)
    monkeypatch.setattr(Netlist, "_run", run_spy)
    return plans, runs


def test_one_width_runs_the_kernel_once_per_chunk(monkeypatch, unit):
    # with no node budget, compare sweeps each of its four w6 adders in 16-word chunks: one
    # lowering per adder, then 8 chunks of 1,024 cases each, one kernel run per chunk keeping the 7 outputs
    monkeypatch.setattr(verify, "_WORDS", 16)
    monkeypatch.setattr(verify, "_NODE_BUDGET", 0)
    plans, runs = spy_kernel(monkeypatch)
    table = compare([AdderSpec(arch, 6, 2) for arch in Architecture], unit)
    assert [row.verified for row in table.rows] == [True] * 4
    names = ("rca_w6", "cla_w6", "cia_rca_w6_b2", "cia_cla_w6_b2")
    assert plans == [(row_name, 7) for row_name in names]
    assert runs == [(row_name, 16, 7) for row_name in names for _ in range(8)]


def test_probe_fallback_lowers_once(monkeypatch):
    # w6 b2 has three stages, so two merge pairs: one lowering keeping their 4 carries, then
    # one kernel run per 16-word chunk of the 8,192 cases
    monkeypatch.setattr(verify, "_WORDS", 16)
    monkeypatch.setattr(verify, "_NODE_BUDGET", 0)
    netlist = build_cia(6, 2, Architecture.CLA)
    plans, runs = spy_kernel(monkeypatch)
    assert probe_invariant_carry_exclusive(netlist, 6)
    assert plans == [(netlist.name, 4)]
    assert runs == [(netlist.name, 16, 4)] * 8


def spy_packer(monkeypatch) -> list:
    """A list that collects the row count of every matrix ``verify._to_planes`` packs from now on."""
    rows, pack = [], verify._to_planes
    monkeypatch.setattr(verify, "_to_planes", lambda bits: rows.append(len(bits)) or pack(bits))
    return rows


@pytest.mark.parametrize("arch", [Architecture.CIA_RCA, Architecture.CIA_CLA])
def test_probe_fallback_packs_only_input_rows(monkeypatch, arch):
    # the probe reads no sums, so each of its 8 chunks packs the 2w + 1 input rows; the
    # exhaustive sweep's chunks also pack the w + 1 expected sum rows
    width = 6
    monkeypatch.setattr(verify, "_WORDS", 16)
    netlist = build_cia(width, 2, arch.block_kind)
    rows = spy_packer(monkeypatch)
    assert swept(monkeypatch, probe_invariant_carry_exclusive, netlist, width)
    assert rows == [2 * width + 1] * 8
    rows.clear()
    assert swept(monkeypatch, check_exhaustive, netlist, width).ok
    assert rows == [3 * width + 2] * 8


def test_finished_netlist_keeps_no_state(monkeypatch):
    # no call that simulates a netlist may set or change any of its attributes
    netlist = build_cia(6, 2, Architecture.CLA)
    width, outputs = 6, [net for _, net in netlist.outputs]

    def state():
        return {name: copy.copy(value) for name, value in vars(netlist).items()}

    before = state()
    calls = [
        lambda: netlist.evaluate(dict.fromkeys(netlist.input_names, 1)),
        lambda: netlist.evaluate({name: np.array([0, 1, 1], np.uint8) for name in netlist.input_names}),
        *(lambda nets=nets: netlist.simulate_planes(dict.fromkeys(netlist.input_names, np.ones(2, np.uint64)), 2, nets)
          for nets in (None, outputs, outputs[:3])),
        lambda: check_random(netlist, width, 100, seed=1),
        lambda: swept(monkeypatch, check_exhaustive, netlist, width),
        lambda: swept(monkeypatch, probe_invariant_carry_exclusive, netlist, width),
    ]
    for k, call in enumerate(calls):
        call()
        assert state() == before, k


# -- planes of the chunk packer against per-case integer sums -----------------------

def operand_words(values, width) -> list[np.ndarray]:
    """The 32-bit words of the width-``width`` ints ``values``, least significant first, as uint32 arrays."""
    return [np.array([value >> 32 * j & 0xFFFFFFFF for value in values], np.uint32) for j in range(-(-width // 32))]


def assert_planes_match(chunks, cases, width, words):
    """``chunks`` hold ``cases`` in order, ``64 * words`` per chunk, with the reference's planes, padding included."""
    assert len(chunks) == -(-len(cases) // (64 * words)), width
    for c, (planes, expected, n) in enumerate(chunks):
        part = cases[64 * words * c : 64 * words * (c + 1)]
        inputs, sums = reference_case_planes(part, width)
        assert n == len(part) and list(planes) == adder_port_names(width)[0], (width, c)
        assert np.array_equal([planes[name] for name in planes], inputs), (width, c)
        assert np.array_equal(expected, sums), (width, c)


@pytest.mark.parametrize("words", [1, 2])
@pytest.mark.parametrize("width", [1, 31, 32, 33, 63, 64, 65, 100])
def test_chunks_match_per_case_integer_planes(monkeypatch, width, words):
    # two whole chunks and a partial word: the corner cases, a low part of all ones plus a
    # carry in (b or cin) at every 32-bit word boundary up to the width, and random cases
    monkeypatch.setattr(verify, "_WORDS", words)
    top, rng = (1 << width) - 1, random.Random(width)
    cases = list(boundary_cases(width))
    for cut in range(32, width + 32, 32):
        low = (1 << cut) - 1 & top
        cases += [(low, 1, 0), (low, 0, 1), (low, low, 1), (top ^ low, low, 1)]
    cases += [(rng.getrandbits(width), rng.getrandbits(width), rng.getrandbits(1)) for _ in range(128 * words + 37 - len(cases))]
    a, b = (operand_words([case[k] for case in cases], width) for k in (0, 1))
    chunks = list(verify._chunks(a, b, np.array([case[2] for case in cases], np.uint8), width))
    assert_planes_match(chunks, cases, width, words)
    # check_random feeds the packer its drawn cases in (a, b, cin) order
    seen = spy_chunks(monkeypatch)
    check_random(build_rca(width), width, 128 * words + 33, seed=width)
    assert_planes_match(seen, sorted(reference_random_cases(width, 128 * words + 33, width)), width, words)


def assert_same_cases(got, want, width):
    """An ``_index_chunks`` chunk equals the reference's in every lane a case occupies; lanes past the cases may differ."""
    planes, expected, n = got
    first, cases, inputs, sums = want
    assert n == cases, (width, first)
    names, _ = adder_port_names(width)
    for rows, reference in (([planes[name] for name in names], inputs), (expected, sums)):
        bits = [np.unpackbits(np.asarray(block, dtype="<u8").view(np.uint8), axis=1, bitorder="little")[:, :n]
                for block in (rows, reference)]
        assert np.array_equal(*bits), (width, first)


@pytest.mark.parametrize("words", [verify._WORDS, 1], ids=["default_words", "one_word_chunks"])
def test_expected_planes_match_per_chunk_integer_sums(monkeypatch, words):
    # every chunk up to w9 (default) and w5 (one word); the first ones above
    monkeypatch.setattr(verify, "_WORDS", words)
    limit = 4 if words == verify._WORDS else 32
    for width in range(1, 13):
        chunks = itertools.zip_longest(
            itertools.islice(verify._index_chunks(width), limit),
            itertools.islice(reference_exhaustive_chunks(width, words), limit),
        )
        count = 0
        for got, want in chunks:
            assert_same_cases(got, want, width)
            count += 1
        assert count == min(limit, -(-(2 << 2 * width) // (64 * words)))


@pytest.mark.parametrize("width", range(16, 25))
def test_expected_planes_match_where_b_crosses_chunks(width):
    # a 2,048-word chunk holds 2**17 consecutive cases: cin and b_0..b_15 vary in it, so from
    # w17 on b's high bits are fixed in each chunk and change from one chunk to the next
    chunks = zip(itertools.islice(verify._index_chunks(width), 3), reference_exhaustive_chunks(width, verify._WORDS))
    for got, want in chunks:
        assert_same_cases(got, want, width)
