"""The BDD proof behind exhaustive checks and the carry probe, against the slow, obvious references.

``oracle.reference_check_exhaustive`` simulates every case gate by gate,
``oracle_add`` is integer addition, and ``reference_evaluate_nets`` gives
every net's value for the probe's brute-force check.  None of them
builds a BDD.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adderlab import (
    AdderSpec,
    AdderLabError,
    Architecture,
    ExhaustiveTooLarge,
    GateKind,
    Netlist,
    NetlistBuilder,
    build_adder,
    build_cia,
    build_rca,
    check_exhaustive,
    oracle_add,
    probe_invariant_carry_exclusive,
)
from adderlab import _bdd, verify
from oracle import reference_check_exhaustive, reference_evaluate_nets
from test_kernel import kind_swap_mutants


def adders(width, block=2):
    """The four architectures at ``width``, the carry-increment ones in blocks of ``block`` (rca alone at w1)."""
    archs = [arch for arch in Architecture if width >= block or not arch.is_cia]
    return [build_adder(AdderSpec(arch, width, block)) for arch in archs]


def twisted(width):
    """A netlist of adder ports whose s_i is a_i XOR b_{w-1-i}: no adder, and a large miter under the interleaved order."""
    b = NetlistBuilder(f"twisted_w{width}")
    a = [b.add_input(f"a_{i}") for i in range(width)]
    y = [b.add_input(f"b_{i}") for i in range(width)]
    b.add_input("cin")
    for i in range(width):
        b.add_output(f"s_{i}", b.add_gate(GateKind.XOR, [a[i], y[width - 1 - i]]))
    b.add_output("cout", b.add_gate(GateKind.AND, [a[-1], y[-1]]))
    return b.finish()


@pytest.mark.parametrize("width", range(1, 6))
def test_every_kind_swap_mutant_is_proven_like_the_reference(width):
    # every adder and its mutants fail symmetrically in a and b; the twisted netlist does not,
    # so it also pins which operand the walk fixes first
    for adder in (*adders(width), twisted(width)):
        for netlist in (adder, *kind_swap_mutants(adder)):
            assert check_exhaustive(netlist, width) == reference_check_exhaustive(netlist, width), netlist.name


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_sampled_mutants_are_proven_like_the_reference(data):
    width = data.draw(st.integers(6, 10))
    arch = data.draw(st.sampled_from(list(Architecture)))
    adder = build_adder(AdderSpec(arch, width, data.draw(st.integers(2, 4))))
    index = data.draw(st.integers(0, len(adder.gates) - 1))
    gate = adder.gates[index]
    kind = data.draw(st.sampled_from([k for k in GateKind if k is not gate.kind and k.arity_ok(len(gate.inputs))]))
    mutant = adder.with_gate_kind(index, kind)
    assert check_exhaustive(mutant, width) == reference_check_exhaustive(mutant, width)


@pytest.mark.parametrize("width", range(1, 7))
def test_spec_adds_like_integer_addition(width):
    bdd, ports, outputs = verify._spec(width)
    assert list(ports) == ["cin", *(f"{operand}_{i}" for i in range(width) for operand in "ab")]
    assert [bdd.nodes[node] for node in ports.values()] == [(level, 0, 1) for level in range(2 * width + 1)]
    for index in range(2 << 2 * width):
        a, b, cin = verify._split(index, width)
        bits = [cin, *(operand >> i & 1 for i in range(width) for operand in (a, b))]
        got = sum(bdd.value(output, bits) << i for i, output in enumerate(outputs))
        assert (got & ((1 << width) - 1), got >> width) == oracle_add(a, b, cin, width), (a, b, cin)


def carries_ever_clash(netlist, width):
    """Whether some merge pair's two carries are 1 in the same case, over every case, gate by gate."""
    index = np.arange(2 << 2 * width)
    a, b, cin = index >> (width + 1), (index >> 1) % (1 << width), index % 2
    assignment = {f"a_{i}": (a >> i) % 2 for i in range(width)} | {f"b_{i}": (b >> i) % 2 for i in range(width)}
    values = reference_evaluate_nets(netlist, assignment | {"cin": cin})
    pairs = [netlist.gates[gi].inputs for gi in netlist.carry_merges]
    return any(np.any(np.asarray(values[x]) & np.asarray(values[y])) for x, y in pairs)


@pytest.mark.parametrize("arch", [Architecture.CIA_RCA, Architecture.CIA_CLA])
def test_probe_matches_a_brute_force_check_on_every_mutant(arch):
    adder = build_adder(AdderSpec(arch, 5, 2))
    verdicts = set()
    for mutant in kind_swap_mutants(adder):
        try:
            kept = Netlist(mutant.name, mutant.gates, mutant.inputs, mutant.outputs, mutant.constants,
                           carry_merges=adder.carry_merges)
        except AdderLabError:  # a merge gate swapped to a kind that is no OR
            continue
        holds = probe_invariant_carry_exclusive(kept, 5)
        assert holds is not carries_ever_clash(kept, 5), mutant.name
        verdicts.add(holds)
    assert verdicts == {True, False}


@pytest.mark.parametrize("width", range(1, 9))
def test_fallback_sweep_reports_like_the_reference(monkeypatch, width):
    monkeypatch.setattr(verify, "_NODE_BUDGET", 0)
    for netlist in (*adders(width), twisted(width)):
        for mutant in (netlist, netlist.with_gate_kind(0, GateKind.AND)):
            assert check_exhaustive(mutant, width) == reference_check_exhaustive(mutant, width), mutant.name


def test_netlists_past_the_budget_are_swept(monkeypatch):
    # at w8 the ripple spec and rca take 335 nodes and the twisted netlist's miter 1,558 in
    # all: under a budget of 1,000, rca is proven, and the twisted netlist and every later one
    # are swept
    width = 8
    netlists = [build_rca(width), twisted(width), build_adder(AdderSpec(Architecture.CLA, width))]
    monkeypatch.setattr(verify, "_NODE_BUDGET", 1000)
    swept, sweep = [], verify._sweep
    monkeypatch.setattr(verify, "_sweep", lambda netlist, *args: swept.append(netlist.name) or sweep(netlist, *args))
    reports = verify._check_exhaustive_all(netlists, width, verify.DEFAULT_CASE_CAP)
    assert swept == ["twisted_w8", "cla_w8"]
    for netlist, report in zip(netlists, reports):
        assert report == reference_check_exhaustive(netlist, width), netlist.name
    assert [report.ok for report in reports] == [True, False, True]


def deep(width, merge=False):
    """Adder ports whose cout is the AND of every input, a graph 2w+1 nodes deep, built top variable first.

    With ``merge``, cout is instead that AND merged with its NOT by an OR gate, recorded as a carry merge.
    """
    b = NetlistBuilder(f"deep_w{width}")
    a = [b.add_input(f"a_{i}") for i in range(width)]
    y = [b.add_input(f"b_{i}") for i in range(width)]
    chain = b.add_input("cin")
    for i in range(width):
        b.add_output(f"s_{i}", b.add_gate(GateKind.XOR, [a[i], y[i]]))
    for net in [net for pair in zip(a, y) for net in pair][::-1]:
        chain = b.add_gate(GateKind.AND, [net, chain])
    if merge:
        chain = b.add_gate(GateKind.OR, [chain, b.add_gate(GateKind.NOT, [chain])])
    b.add_output("cout", chain)
    return b.finish((3 * width + 1,) if merge else None)


def test_managers_past_max_vars_are_refused():
    # 481 variables are the ports of w240, the widest adder whose ripple spec fits the budget
    assert _bdd.MAX_VARS == 481 and len(verify._ports(240)[0].nodes) == 483
    with pytest.raises(_bdd.OverBudget):
        verify._ports(241)


def test_max_vars_not_the_recursion_limit_ends_a_wide_proof(monkeypatch):
    # at w600 the miter of deep()'s cout with the spec's would recurse 1,202 calls deep, past
    # Python's limit of 1,000 frames; the manager of 1,201 variables is refused before any
    # graph is built, and the check falls back to its sweep (stubbed here: 2**1201 cases
    # never end)
    width, swept = 600, []
    monkeypatch.setattr(verify, "_index_chunks", lambda width: swept.append(width) or iter(()))
    monkeypatch.setattr(verify, "_sweep", lambda netlist, width, chunks: (0, ()))
    assert check_exhaustive(deep(width), width, case_cap=1 << 1201).ok
    assert swept == [width]


def test_a_wide_probe_falls_back_without_recursing(monkeypatch):
    # the probe builds no ripple spec.  A w600 cia_rca's carries pass the node budget near
    # w240, but deep()'s merged AND chain and its NOT take a few thousand nodes, and their graphs
    # would recurse 1,202 calls deep: only the refused manager keeps them from the limit
    width, swept = 600, []
    monkeypatch.setattr(verify, "_index_chunks", lambda width, expected=True: swept.append(width) or iter(()))
    for netlist in (build_cia(width, 8, Architecture.RCA), deep(width, merge=True)):
        assert probe_invariant_carry_exclusive(netlist, width, case_cap=1 << 1201)
    assert swept == [width, width]


def test_the_sweep_past_w31_raises_exhaustive_too_large(monkeypatch):
    # w31's 2**63 case numbers are the last to fit one uint64 (and each operand one 32-bit word);
    # past that a check whose cap admits the cases, and whose proof overruns, is refused by name
    assert next(verify._index_chunks(31))[2] == 64 * verify._WORDS
    monkeypatch.setattr(verify, "_NODE_BUDGET", 0)
    for width in (32, 33):
        for check, netlist in ((check_exhaustive, build_rca(width)),
                               (probe_invariant_carry_exclusive, build_cia(width, 4, Architecture.CLA))):
            with pytest.raises(ExhaustiveTooLarge, match=f"width {width} needs {2 * width + 1}-bit case numbers"):
                check(netlist, width, case_cap=1 << 67)
