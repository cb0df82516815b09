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

from adderlab import verify
from adderlab import (
    AdderSpec,
    Architecture,
    GateKind,
    InvalidAssignment,
    MissingInput,
    NetlistBuilder,
    UnknownInput,
    UnknownNet,
    build_adder,
    build_cia,
    build_half_adder,
    build_rca,
    check_exhaustive,
    check_random,
    probe_invariant_carry_exclusive,
)
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


# per w12 adder: steps of its hashed program, and slab rows when every net is kept
HASHED = {"rca": (60, 62), "cla": (192, 128), "cia_rca": (78, 80), "cia_cla": (120, 98)}


@pytest.mark.parametrize("arch", ["rca", "cla", "cia_rca", "cia_cla"])
def test_output_only_plans_reuse_rows(arch):
    nl = build_adder(AdderSpec(Architecture(arch), 12, 4))
    rows, steps, taps = nl._plan(tuple(net for _, net in nl.outputs))
    assert len(taps) == 13
    assert rows < len(nl.gates) < len(nl.drivers)
    assert len(steps) == len(nl._plan(None)[1])  # every gate of an adder feeds an output
    # keeping every net: a row per slot some net maps to, plus the zeros and ones rows
    assert nl._plan(None)[0] == HASHED[arch][1]


# -- hash-consed steps: shared terms run once ----------------------------------------

def unhashed_steps(netlist):
    """Steps of lowering every gate on its own: fan-in - 1 (NOT: 1) per gate, one copy per constant."""
    return sum(max(len(gate.inputs) - 1, 1) for gate in netlist.gates) + len(netlist.constants)


def assert_ops_commute(netlist):
    """Every step of the full plan is AND, OR or XOR, which commute."""
    for op, _, _, _ in netlist._plan(None)[1]:
        assert op in (np.bitwise_and, np.bitwise_or, np.bitwise_xor)


@pytest.mark.parametrize("arch,width,steps", [
    *((arch, 12, steps) for arch, (steps, _) in HASHED.items()),
    ("cla", 32, 1152),
])
def test_hashed_programs_run_shared_terms_once(arch, width, steps):
    nl = build_adder(AdderSpec(Architecture(arch), width, 4))
    assert len(nl._plan(None)[1]) == steps
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
    assert len(netlist._plan(None)[1]) == len(base._plan(None)[1]) < unhashed_steps(netlist)
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
    assert len(nl._plan(None)[1]) == 2
    bits = np.array(list(itertools.product([0, 1], repeat=3)), dtype=np.uint8).T
    got = nl.evaluate(dict(zip("abc", bits)))
    assert np.array_equal(got["ab"], bits[0] & bits[1])
    assert np.array_equal(got["abc"], bits[0] & bits[1] & bits[2])
    assert np.array_equal(got["c_ab"], got["abc"])


def test_mutant_does_not_reuse_parent_compiled_form():
    parent = build_rca(4)
    before = parent._plan(None)
    mutant = parent.with_gate_kind(0, GateKind.AND)
    assert mutant._plan(None) is not before
    assert mutant._plan(None)[1][0][0] is np.bitwise_and
    assert parent._plan(None) is before
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


def test_chunk_boundaries_do_not_change_reports(monkeypatch):
    # one word per chunk: w4's 512 cases and 304 random cases span many chunks
    monkeypatch.setattr(verify, "_WORDS", 1)
    clean = build_cia(4, 2, Architecture.RCA)
    assert probe_invariant_carry_exclusive(clean, 4)
    for netlist in (clean, *kind_swap_mutants(clean)):
        assert check_exhaustive(netlist, 4) == reference_check_exhaustive(netlist, 4), netlist.name
        assert check_random(netlist, 4, 300, seed=2) == reference_check_random(netlist, 4, 300, seed=2)


@pytest.mark.parametrize("words", [1024, 1], ids=["one_chunk", "one_word_chunks"])
def test_shared_sweep_reports_each_netlist_like_its_own_check(monkeypatch, words):
    # one sweep, one set of oracle planes, many netlists: no report may leak into another
    monkeypatch.setattr(verify, "_WORDS", words)
    rca = build_rca(4)
    cla = build_adder(AdderSpec(Architecture.CLA, 4))
    netlists = [rca, *kind_swap_mutants(rca), cla, build_cia(4, 2, Architecture.CLA)]
    reports = verify._check_exhaustive_all(netlists, 4, verify.DEFAULT_CASE_CAP)
    assert len(reports) == len(netlists)
    capped = 0
    for netlist, report in zip(netlists, reports):
        assert report == check_exhaustive(netlist, 4), netlist.name
        assert report == reference_check_exhaustive(netlist, 4), netlist.name
        capped += report.failure_count > len(report.failures) == verify.FAILURE_CAP
    assert reports[0].ok and reports[-1].ok and reports[-2].ok
    assert capped > 0 and not all(report.ok for report in reports[1:-2])


# -- expected planes of the exhaustive sweep against per-chunk integer sums ---------

def sweep_chunks(width):
    """(first case index, expected planes, cases) of each exhaustive chunk, in sweep order."""
    expected = verify._expected_planes(width)
    return ((start, expected(start), n) for start, n, _ in verify._exhaustive_inputs(width))


def assert_chunks_match(width, words, starts):
    """The expected planes at each aligned start equal the reference chunk's."""
    expected = verify._expected_planes(width)
    for start in starts:
        first, want = next(reference_exhaustive_chunks(width, words, start))
        assert first == start
        assert np.array_equal(expected(start), want), (width, start)


@pytest.mark.parametrize("words", [verify._WORDS, 1], ids=["default_words", "one_word_chunks"])
def test_expected_planes_match_per_chunk_integer_sums(monkeypatch, words):
    monkeypatch.setattr(verify, "_WORDS", words)
    rng = random.Random(12)
    for width in range(1, 13):
        chunks = sweep_chunks(width)
        reference = reference_exhaustive_chunks(width, words)
        total = 1 << (2 * width + 1)
        n = min(total, 64 * words)
        if total // n <= 4096:
            # every chunk, in sweep order
            pairs = list(itertools.zip_longest(chunks, reference))
            assert len(pairs) == total // n
            for (first, got, cases), (start, want) in pairs:
                assert (first, cases) == (start, n)
                assert np.array_equal(got, want), (width, start)
        else:
            # one-word chunks at w9-w12: the first 512, the last, and random ones
            for (first, got, _), (start, want) in itertools.islice(zip(chunks, reference), 512):
                assert first == start
                assert np.array_equal(got, want), (width, start)
            starts = [total - n] + [rng.randrange(total // n) * n for _ in range(256)]
            assert_chunks_match(width, words, starts)


@pytest.mark.parametrize("width", range(16, 25))
def test_expected_planes_match_where_b_crosses_chunks(width):
    # a 2,048-word chunk holds index bits 0-16, so b (bits 1..width) spills into the chunk constant
    n = verify._WORDS * 64
    total = 1 << (2 * width + 1)
    for (first, got, _), (start, want) in zip(
        itertools.islice(sweep_chunks(width), 3), reference_exhaustive_chunks(width, verify._WORDS)
    ):
        assert first == start
        assert np.array_equal(got, want), (width, start)
    rng = random.Random(width)
    assert_chunks_match(width, verify._WORDS, [total - n] + [rng.randrange(total // n) * n for _ in range(6)])
