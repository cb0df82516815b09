"""Equivalence checking, random sampling, invariant probes, fault injection."""

import itertools

import numpy as np
import pytest

from adderlab import (
    Architecture,
    ExhaustiveTooLarge,
    Gate,
    GateKind,
    InvalidParameter,
    MissingStageMetadata,
    NetId,
    Netlist,
    NetlistBuilder,
    OperandOutOfRange,
    PortContractViolation,
    UnknownNet,
    ZeroWidth,
    boundary_cases,
    build_cia,
    build_half_adder,
    build_rca,
    check_exhaustive,
    check_random,
    export_report,
    oracle_add,
    probe_invariant_carry_exclusive,
)
from adderlab import verify
from adderlab._bdd import XOR
from adderlab.builders import _full_adder, _increment_slice, _ripple_slice


# -- oracle ------------------------------------------------------------------

def test_oracle_examples():
    assert oracle_add(5, 3, 0, 4) == (8, 0)
    assert oracle_add(15, 15, 1, 4) == (15, 1)
    assert oracle_add(0, 0, 0, 8) == (0, 0)
    assert oracle_add(255, 0, 1, 8) == (0, 1)


def test_oracle_range_checks():
    with pytest.raises(OperandOutOfRange):
        oracle_add(16, 0, 0, 4)
    with pytest.raises(OperandOutOfRange):
        oracle_add(0, -1, 0, 4)
    with pytest.raises(OperandOutOfRange):
        oracle_add(0, 0, 2, 4)
    with pytest.raises(ZeroWidth):
        oracle_add(0, 0, 0, 0)


@pytest.mark.parametrize("args,what", [
    ((1, 2, 0, 2.5), "width"),
    ((1.5, 2, 0, 4), "a"),
    ((1, "2", 0, 4), "b"),
    ((1, 2, True, 4), "cin"),
    ((1, 2, None, 4), "cin"),
])
def test_oracle_rejects_non_integers(args, what):
    with pytest.raises(InvalidParameter, match=f"^{what} must be an integer, got "):
        oracle_add(*args)


def test_oracle_takes_numpy_integer_widths():
    # 1 << np.int64(70) wraps to 0, so the width must become an int first
    assert oracle_add(1, 1, 0, np.int64(70)) == (2, 0)
    assert oracle_add(2**70 - 1, np.uint8(1), np.int8(0), np.int64(70)) == (0, 1)


def test_oracle_matches_python_integers():
    for a, b, cin in itertools.product(range(8), range(8), (0, 1)):
        s, cout = oracle_add(a, b, cin, 3)
        assert s + (cout << 3) == a + b + cin


# -- exhaustive ---------------------------------------------------------------

def test_exhaustive_clean_adder(cia_rca_8_4):
    report = check_exhaustive(cia_rca_8_4, 8)
    assert report.cases_checked == 131072
    assert report.failure_count == 0
    assert report.failures == ()
    assert report.ok
    assert report.mode == "exhaustive"
    assert report.netlist == "cia_rca_w8_b4"


def test_exhaustive_cap():
    with pytest.raises(ExhaustiveTooLarge):
        check_exhaustive(build_rca(16), 16)
    # the default cap admits w11's 2**23 cases; a lowered cap refuses the same request
    assert check_exhaustive(build_rca(11), 11).ok
    with pytest.raises(ExhaustiveTooLarge, match="^width 11 needs 8388608 cases, over the cap of 8388607$"):
        check_exhaustive(build_rca(11), 11, case_cap=(1 << 23) - 1)


def test_port_contract_enforced(rca4):
    with pytest.raises(PortContractViolation):
        check_exhaustive(build_half_adder(), 1)
    with pytest.raises(PortContractViolation):
        check_exhaustive(rca4, 5)
    with pytest.raises(ZeroWidth):
        check_exhaustive(rca4, 0)


def test_fault_injection_is_caught(cia_cla_8_4):
    first_and = next(i for i, g in enumerate(cia_cla_8_4.gates) if g.kind is GateKind.AND)
    mutant = cia_cla_8_4.with_gate_kind(first_and, GateKind.OR)
    report = check_exhaustive(mutant, 8)
    assert report.failure_count > 0
    assert len(report.failures) == 32  # capped, exact count preserved
    assert report.failure_count > len(report.failures)


def test_failures_are_ordered_and_faithful(rca4):
    mutant = rca4.with_gate_kind(0, GateKind.AND)  # s_0 becomes a AND b
    report = check_exhaustive(mutant, 4)
    assert not report.ok
    cases = [(f.a, f.b, f.cin) for f in report.failures]
    assert cases == sorted(cases)
    for f in report.failures:
        assert (f.expected_sum, f.expected_cout) == oracle_add(f.a, f.b, f.cin, 4)
        out = mutant.evaluate(
            {f"a_{i}": (f.a >> i) & 1 for i in range(4)}
            | {f"b_{i}": (f.b >> i) & 1 for i in range(4)}
            | {"cin": f.cin}
        )
        assert sum(out[f"s_{i}"] << i for i in range(4)) == f.got_sum
        assert out["cout"] == f.got_cout


def test_failures_take_expected_values_from_integer_addition(monkeypatch, rca4):
    # with the spec's s_0 flipped every case mismatches, but each failure must still
    # report its case's integer sum, not what the corrupted spec holds
    spec = verify._spec

    def flipped(width):
        bdd, ports, outputs = spec(width)
        return bdd, ports, [bdd.apply(XOR, outputs[0], 1), *outputs[1:]]

    monkeypatch.setattr(verify, "_spec", flipped)
    report = check_exhaustive(rca4, 4)
    assert report.failure_count == 512 and len(report.failures) == verify.FAILURE_CAP
    for f in report.failures:
        assert (f.expected_sum, f.expected_cout) == oracle_add(f.a, f.b, f.cin, 4)
        assert (f.got_sum, f.got_cout) == oracle_add(f.a, f.b, f.cin, 4)


# -- random --------------------------------------------------------------------

def test_random_is_deterministic(cia_cla_8_4):
    one = check_random(cia_cla_8_4, 8, 200, seed=7)
    two = check_random(cia_cla_8_4, 8, 200, seed=7)
    assert one == two
    other = check_random(cia_cla_8_4, 8, 200, seed=8)
    assert one != other  # different draws recorded via the seed field at least
    assert one.generator == "pcg64"
    assert one.seed == 7
    assert one.samples == 200


def test_random_includes_boundary_cases(cia_cla_8_4):
    report = check_random(cia_cla_8_4, 8, 0, seed=0)
    assert report.cases_checked == 4
    assert report.ok
    assert boundary_cases(8) == ((0, 0, 0), (255, 255, 1), (255, 1, 0), (0, 0, 1))


def test_boundary_cases_checks_and_converts_its_width():
    # a numpy width would wrap in the shift: 1 << np.int64(64) is 1, so top would read -1
    cases = boundary_cases(np.int64(64))
    assert cases == ((0, 0, 0), (2**64 - 1, 2**64 - 1, 1), (2**64 - 1, 1, 0), (0, 0, 1))
    assert {type(value) for case in cases for value in case} == {int}
    for width in (0, -1):
        with pytest.raises(ZeroWidth, match=f"^width must be >= 1, got {width}$"):
            boundary_cases(width)
    for width in ("x", 2.0, True):
        with pytest.raises(InvalidParameter, match="^width must be an integer, got "):
            boundary_cases(width)


def test_random_wide_operands():
    nl = build_cia(64, 4, Architecture.CLA)
    report = check_random(nl, 64, 300, seed=42)
    assert report.cases_checked == 304
    assert report.ok


def test_random_failures_are_real_mismatches(rca4):
    mutant = rca4.with_gate_kind(4, GateKind.AND)  # carry OR of bit 0 stuck low
    report = check_random(mutant, 4, 500, seed=3)
    assert report.failure_count > 0
    for f in report.failures:
        assert (f.expected_sum, f.expected_cout) == oracle_add(f.a, f.b, f.cin, 4)
        assert (f.got_sum, f.got_cout) != (f.expected_sum, f.expected_cout)


def test_random_rejects_negative_samples(rca4):
    with pytest.raises(ValueError):
        check_random(rca4, 4, -1, seed=0)


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_random_rejects_negative_seeds(rca4, seed):
    with pytest.raises(InvalidParameter, match=f"^seed must be >= 0, got {seed}$"):
        check_random(rca4, 4, 5, seed)


@pytest.mark.parametrize("bad", [2.5, 4.0, "4", None, True])
@pytest.mark.parametrize("call,what", [
    (lambda nl, v: check_exhaustive(nl, v), "width"),
    (lambda nl, v: check_random(nl, v, 5, 0), "width"),
    (lambda nl, v: probe_invariant_carry_exclusive(build_cia(4, 2, Architecture.RCA), v), "width"),
    (lambda nl, v: check_random(nl, 4, v, 0), "samples"),
    (lambda nl, v: check_random(nl, 4, 5, v), "seed"),
])
def test_non_integer_checker_arguments_are_invalid(rca4, call, what, bad):
    with pytest.raises(InvalidParameter, match=f"^{what} must be an integer, got "):
        call(rca4, bad)


@pytest.mark.parametrize("bad", ["100", None, 2.5, True])
@pytest.mark.parametrize("call", [
    lambda v: check_exhaustive(build_rca(4), 4, case_cap=v),
    lambda v: probe_invariant_carry_exclusive(build_cia(4, 2, Architecture.RCA), 4, case_cap=v),
], ids=["check_exhaustive", "probe"])
def test_non_integer_case_cap_is_invalid(call, bad):
    with pytest.raises(InvalidParameter, match="^case_cap must be an integer, got "):
        call(bad)


def test_numpy_integer_checker_arguments_still_work(rca4):
    assert check_exhaustive(rca4, np.int64(4)) == check_exhaustive(rca4, 4)
    assert check_random(rca4, np.int64(4), np.int32(50), np.uint8(9)) == check_random(rca4, 4, 50, 9)
    assert check_exhaustive(rca4, 4, case_cap=np.int64(512)) == check_exhaustive(rca4, 4)
    with pytest.raises(ExhaustiveTooLarge):
        check_exhaustive(rca4, 4, case_cap=np.int64(511))
    report = check_exhaustive(build_rca(2), np.int64(2))
    assert type(report.width) is int
    assert export_report(report) == export_report(check_exhaustive(build_rca(2), 2))


def test_numpy_integer_widths_respect_the_case_cap():
    # 1 << np.int64(81) wraps to 0, a case count under any cap
    with pytest.raises(ExhaustiveTooLarge):
        check_exhaustive(build_rca(40), np.int64(40))
    with pytest.raises(ExhaustiveTooLarge):
        probe_invariant_carry_exclusive(build_cia(40, 8, Architecture.RCA), np.int64(40))


# -- carry exclusivity probe -------------------------------------------------------

@pytest.mark.parametrize("kind", [Architecture.RCA, Architecture.CLA])
@pytest.mark.parametrize("width,block", [(4, 2), (8, 4), (9, 4), (7, 3)])
def test_probe_holds_for_generated_cia(kind, width, block):
    nl = build_cia(width, block, kind)
    assert probe_invariant_carry_exclusive(nl, width) is True


def test_probe_needs_metadata(rca4):
    with pytest.raises(MissingStageMetadata):
        probe_invariant_carry_exclusive(rca4, 4)


def test_probe_respects_cap():
    nl = build_cia(16, 4, Architecture.RCA)
    with pytest.raises(ExhaustiveTooLarge):
        probe_invariant_carry_exclusive(nl, 16)


def test_probe_single_block_trivially_true():
    nl = build_cia(4, 4, Architecture.CLA)
    assert nl.carry_merges == ()
    assert probe_invariant_carry_exclusive(nl, 4) is True


def sabotaged_cia(width=2):
    """A hand-built carry-increment adder of two blocks, bit 0 and bits
    1..width-1, whose second block adds a hard 1 instead of 0: its block
    carry and increment carry can then both fire.  Returns the open builder
    and the index of the stage's merge gate.  The fragments, like the
    builder's ``_gate`` and ``_output``, take net ints."""
    b = NetlistBuilder("sabotaged")
    a = [b.add_input(f"a_{i}").index for i in range(width)]
    y = [b.add_input(f"b_{i}").index for i in range(width)]
    cin = b.add_input("cin").index
    s0, eff0 = _full_adder(b, a[0], y[0], cin)
    partial, block_carry = _ripple_slice(b, a[1:], y[1:], b.constant(1).index)
    bumped, inc_carry = _increment_slice(b, partial, eff0)
    eff1 = b._gate(GateKind.OR, (block_carry, inc_carry))
    b._output("s_0", s0)
    for i, net in enumerate(bumped, 1):
        b._output(f"s_{i}", net)
    b._output("cout", eff1)
    return b, b.gate_count - 1


def test_probe_flags_a_sabotaged_stage():
    b, merge = sabotaged_cia()
    nl = b.finish(carry_merges=[merge])
    assert nl.carry_merges == (merge,) and nl.gates[merge].kind is GateKind.OR
    assert probe_invariant_carry_exclusive(nl, 2) is False


def test_probe_flags_a_stage_that_only_later_chunks_break(monkeypatch):
    # the sabotaged stage's two carries first fire together in case 479 of 512, in the last of
    # the fallback sweep's eight one-word chunks at w4; the proof and the sweep must both see it
    b, merge = sabotaged_cia(4)
    nl = b.finish(carry_merges=[merge])
    assert probe_invariant_carry_exclusive(nl, 4) is False
    monkeypatch.setattr(verify, "_WORDS", 1)
    monkeypatch.setattr(verify, "_NODE_BUDGET", 0)
    assert probe_invariant_carry_exclusive(nl, 4) is False


@pytest.mark.parametrize("spoil", [
    lambda merge: NetlistBuilder("other").add_input("x"),  # a handle, of another builder
    lambda merge: 999,  # no such gate
    lambda merge: "x",  # no gate index at all
    lambda merge: (1, merge),  # a tuple
], ids=["foreign net", "net out of range", "string", "tuple"])
def test_finish_rejects_a_carry_merge_of_foreign_nets(spoil):
    # a refused finish() leaves the builder open, so it can still finish
    b, merge = sabotaged_cia()
    with pytest.raises(UnknownNet, match="^no gate .* in netlist 'sabotaged'$"):
        b.finish(carry_merges=[merge, spoil(merge)])
    assert probe_invariant_carry_exclusive(b.finish(carry_merges=[merge]), 2) is False


@pytest.mark.parametrize("spoil,error,shown", [
    (lambda nl: 999, UnknownNet, "no gate 999"),  # no such gate
    (lambda nl: -1, UnknownNet, "no gate -1"),
    (lambda nl: True, UnknownNet, "no gate True"),  # a bool, not an int
    (lambda nl: np.int64(3), UnknownNet, r"no gate (np\.int64\(3\)|3)"),  # not exactly an int
    (lambda nl: NetId(3, 0), UnknownNet, r"no gate NetId\(index=3, owner=0\)"),  # a handle
    (lambda nl: "x", UnknownNet, "no gate 'x'"),
    (lambda nl: len(nl.gates), InvalidParameter,  # the NOT gate that ``rebuilt`` appends
     "carry merge gate [0-9]+ of netlist 'cia_rca_w4_b2' has no two inputs to merge"),
    (lambda nl: 2, InvalidParameter,  # block 0's second XOR: two inputs, but no merge of carries
     "carry merge gate 2 of netlist 'cia_rca_w4_b2' is no OR gate"),
], ids=["net out of range", "negative net", "bool", "numpy int", "handle", "string", "one-input gate", "xor gate"])
def test_netlist_rejects_a_carry_merge_naming_no_net(spoil, error, shown):
    # hand-built tables, with no builder to vet the merges first, and one NOT gate that nothing reads
    nl = build_cia(4, 2, Architecture.RCA)
    [merge] = nl.carry_merges
    gates = (*nl.gates, Gate(GateKind.NOT, (0,), len(nl.drivers)))

    def rebuilt(merges):
        return Netlist(nl.name, gates, nl.inputs, nl.outputs, nl.constants, carry_merges=merges)

    with pytest.raises(error, match=f"^{shown}( in netlist 'cia_rca_w4_b2')?$"):
        rebuilt((merge, spoil(nl)))
    assert probe_invariant_carry_exclusive(rebuilt((merge,)), 4) is True
