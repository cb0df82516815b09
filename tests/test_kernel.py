"""The bit-plane kernel and everything built on it, against the slow paths.

The per-gate interpreter ``reference_evaluate_nets`` and the per-case
checkers in ``oracle.py``, which run on it, are the references: every
result of ``simulate_planes``, ``evaluate``, ``check_exhaustive`` and
``check_random`` must equal theirs exactly.  The references never run
the kernel.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adderlab import verify
from adderlab import (
    AdderSpec,
    Architecture,
    GateKind,
    InvalidAssignment,
    MissingInput,
    UnknownInput,
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

@settings(max_examples=150, deadline=None)
@given(netlists(), st.data())
def test_kernel_matches_evaluate_nets_on_every_net(netlist, data):
    words = data.draw(st.integers(1, 3))
    planes = {
        name: np.array(
            data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=words, max_size=words)),
            dtype=np.uint64,
        )
        for name in netlist.input_names
    }
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


def test_mutant_does_not_reuse_parent_compiled_form():
    parent = build_rca(4)
    before = parent.compiled()
    mutant = parent.with_gate_kind(0, GateKind.AND)
    assert mutant.compiled() is not before
    assert mutant.compiled()[0][0] is np.bitwise_and
    assert parent.compiled() is before
    assert before[0][0] is np.bitwise_xor
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
