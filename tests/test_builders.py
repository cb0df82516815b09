"""Adder generators: structure, gate budgets, port contract, function."""

import hashlib
import itertools

import numpy as np
import pytest

from adderlab import (
    AdderSpec,
    Architecture,
    BadFanIn,
    BlockTooLarge,
    GateKind,
    InvalidParameter,
    ZeroWidth,
    adder_port_names,
    build_adder,
    build_cia,
    build_cla_block,
    build_full_adder,
    build_half_adder,
    build_incrementer,
    build_rca,
    export_json,
)


def adder_assignment(width, a, b, cin):
    asg = {f"a_{i}": (a >> i) & 1 for i in range(width)}
    asg |= {f"b_{i}": (b >> i) & 1 for i in range(width)}
    asg["cin"] = cin
    return asg


def adder_result(nl, width, a, b, cin):
    """(sum, carry-out) for scalar operands, or elementwise for integer arrays of them."""
    out = nl.evaluate(adder_assignment(width, a, b, cin))
    return sum(out[f"s_{i}"] << i for i in range(width)), out["cout"]


def all_cases(width):
    """Every (a, b, cin) of ``width``-bit operands in that nesting order, as three arrays."""
    grid = np.meshgrid(np.arange(1 << width), np.arange(1 << width), [0, 1], indexing="ij")
    return tuple(axis.ravel() for axis in grid)


# -- half and full adder ------------------------------------------------------

def test_half_adder_truth_table():
    nl = build_half_adder()
    assert len(nl.gates) == 2
    for a, b in itertools.product((0, 1), repeat=2):
        out = nl.evaluate({"a": a, "b": b})
        assert out["s"] == a ^ b
        assert out["c"] == a & b


def test_full_adder_truth_table():
    nl = build_full_adder()
    assert len(nl.gates) == 5
    for a, b, cin in itertools.product((0, 1), repeat=3):
        out = nl.evaluate({"a": a, "b": b, "cin": cin})
        total = a + b + cin
        assert out["s"] == total & 1
        assert out["cout"] == total >> 1


def test_full_adder_gate_sequence():
    # two half adders then the carry OR
    kinds = [g.kind for g in build_full_adder().gates]
    assert kinds == [GateKind.XOR, GateKind.AND, GateKind.XOR, GateKind.AND, GateKind.OR]


# -- ripple carry ---------------------------------------------------------------

@pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 16])
def test_rca_gate_budget(width):
    assert len(build_rca(width).gates) == 5 * width


def test_rca_width_one_is_a_full_adder():
    fa = build_full_adder()
    rca = build_rca(1)
    assert [g.kind for g in rca.gates] == [g.kind for g in fa.gates]


def test_rca_example_sum(rca4):
    assert adder_result(rca4, 4, 5, 3, 1) == (9, 0)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_rca_small_widths_exhaustive(width):
    nl = build_rca(width)
    for a, b, cin in itertools.product(range(1 << width), range(1 << width), (0, 1)):
        total = a + b + cin
        assert adder_result(nl, width, a, b, cin) == (total & ((1 << width) - 1), total >> width)


def test_rca_port_contract(rca4):
    want_in, want_out = adder_port_names(4)
    assert list(rca4.input_names) == want_in
    assert list(rca4.output_names) == want_out


# -- carry lookahead ---------------------------------------------------------------

def test_cla_gate_budget_width4(cla4):
    assert len(cla4.gates) == 26
    kinds = [g.kind for g in cla4.gates]
    assert kinds.count(GateKind.XOR) == 8
    assert kinds.count(GateKind.AND) == 14
    assert kinds.count(GateKind.OR) == 4


def test_cla_example_sum(cla4):
    assert adder_result(cla4, 4, 15, 15, 1) == (15, 1)


def test_cla_width_one():
    nl = build_cla_block(1)
    for a, b, cin in itertools.product((0, 1), repeat=3):
        total = a + b + cin
        assert adder_result(nl, 1, a, b, cin) == (total & 1, total >> 1)


def test_cla_fanin_limited_matches_rca_exhaustively(rca4):
    limited = build_cla_block(4, 2)
    for a, b, cin in itertools.product(range(16), range(16), (0, 1)):
        assert adder_result(limited, 4, a, b, cin) == adder_result(rca4, 4, a, b, cin)


@pytest.mark.parametrize("max_fanin", [2, 3, 4])
def test_cla_fanin_limit_is_respected(max_fanin):
    nl = build_cla_block(6, max_fanin)
    assert all(len(g.inputs) <= max_fanin for g in nl.gates)


def test_cla_unlimited_has_wide_gates():
    nl = build_cla_block(6)
    assert max(len(g.inputs) for g in nl.gates) == 7  # p5..p0, cin


def test_cla_fanin_validation():
    with pytest.raises(BadFanIn):
        build_cla_block(4, 1)
    with pytest.raises(BadFanIn):
        build_cla_block(4, 0)
    build_cla_block(4, 2)


# -- incrementer --------------------------------------------------------------------

@pytest.mark.parametrize("width", [1, 3, 4])
def test_incrementer_adds_carry_bit(width):
    nl = build_incrementer(width)
    assert len(nl.gates) == 2 * width
    for x, cin in itertools.product(range(1 << width), (0, 1)):
        asg = {f"x_{i}": (x >> i) & 1 for i in range(width)}
        asg["cin"] = cin
        out = nl.evaluate(asg)
        got = sum(out[f"y_{i}"] << i for i in range(width)) + (out["cout"] << width)
        assert got == x + cin


# -- carry increment -----------------------------------------------------------------

def test_cia_gate_budgets(cia_rca_8_4, cia_cla_8_4):
    assert len(cia_rca_8_4.gates) == 49  # 20 + 20 + 8 + 1
    assert len(cia_cla_8_4.gates) == 61  # 26 + 26 + 8 + 1


def test_cia_ragged_last_block_gate_budget():
    # blocks of 4, 4, 2: two CLA(4), one CLA(2), incrementers 4+2, two merges
    nl = build_cia(10, 4, Architecture.CLA)
    assert len(nl.gates) == 26 + 26 + 11 + 8 + 4 + 2


def test_cia_single_block_degenerates_to_block_adder(rca4):
    nl = build_cia(4, 4, Architecture.RCA)
    assert nl.carry_merges == ()
    assert [g.kind for g in nl.gates] == [g.kind for g in rca4.gates]


def test_cia_stage_labels(cia_rca_8_4):
    stages = {g.stage for g in cia_rca_8_4.gates}
    assert stages == {"block0", "block1", "inc1"}
    per_stage = {
        stage: sum(1 for g in cia_rca_8_4.gates if g.stage == stage) for stage in stages
    }
    assert per_stage == {"block0": 20, "block1": 20, "inc1": 9}


def test_cia_merge_metadata_points_at_or_gates(cia_cla_8_4):
    merges = cia_cla_8_4.carry_merges
    assert len(merges) == 1
    gate = cia_cla_8_4.gates[merges[0]]
    assert gate.kind is GateKind.OR and len(gate.inputs) == 2
    assert gate.stage == "inc1"


def test_cia_merge_count_tracks_block_count():
    nl = build_cia(10, 2, Architecture.RCA)
    assert len(nl.carry_merges) == 4
    gates = [nl.gates[gi] for gi in nl.carry_merges]
    assert all(type(gi) is int for gi in nl.carry_merges)
    assert [(gate.kind, len(gate.inputs), gate.stage) for gate in gates] == [
        (GateKind.OR, 2, f"inc{k}") for k in (1, 2, 3, 4)
    ]


@pytest.mark.parametrize("kind", [Architecture.RCA, Architecture.CLA])
@pytest.mark.parametrize("width,block", [(4, 1), (4, 2), (5, 2), (6, 4), (6, 6)])
def test_cia_small_widths_exhaustive(kind, width, block):
    nl = build_cia(width, block, kind)
    a, b, cin = all_cases(width)
    total = a + b + cin
    got_sum, got_cout = adder_result(nl, width, a, b, cin)
    assert np.array_equal(got_sum, total & ((1 << width) - 1))
    assert np.array_equal(got_cout, total >> width)


def test_cia_variants_agree_with_each_other():
    one = build_cia(6, 2, Architecture.RCA)
    other = build_cia(6, 2, Architecture.CLA)
    cases = all_cases(6)
    for got, want in zip(adder_result(one, 6, *cases), adder_result(other, 6, *cases)):
        assert np.array_equal(got, want)


def test_cia_validation():
    with pytest.raises(BlockTooLarge):
        build_cia(2, 4, Architecture.RCA)
    with pytest.raises(ZeroWidth):
        build_cia(0, 4, Architecture.RCA)
    with pytest.raises(ZeroWidth):
        build_cia(4, 0, Architecture.RCA)
    with pytest.raises(ValueError):
        build_cia(8, 4, Architecture.CIA_RCA)


def test_cia_bad_block_kind_is_invalid_parameter():
    with pytest.raises(InvalidParameter, match="block kind must be RCA or CLA, got Architecture.CIA_RCA"):
        build_cia(8, 4, Architecture.CIA_RCA)


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", True])  # None is the unlimited fan-in
@pytest.mark.parametrize("call,what", [
    (lambda v: build_rca(v), "width"),
    (lambda v: build_cla_block(v), "width"),
    (lambda v: build_incrementer(v), "width"),
    (lambda v: build_cia(v, 2, Architecture.RCA), "width"),
    (lambda v: build_cia(8, v, Architecture.CLA), "block size"),
    (lambda v: build_cla_block(4, v), "max_fanin"),
    (lambda v: build_cia(8, 4, Architecture.CLA, v), "max_fanin"),
    (lambda v: build_adder(AdderSpec(Architecture.CIA_RCA, 8, v)), "block size"),
])
def test_non_integer_shape_arguments_are_invalid(call, what, bad):
    with pytest.raises(InvalidParameter, match=f"^{what} must be an integer, got "):
        call(bad)


def test_numpy_integer_shape_arguments_still_build():
    assert export_json(build_rca(np.int64(3))) == export_json(build_rca(3))
    same = build_cia(np.int32(8), np.uint8(3), Architecture.CLA, np.int64(2))
    assert export_json(same) == export_json(build_cia(8, 3, Architecture.CLA, 2))


@pytest.mark.parametrize("builder", [build_rca, build_cla_block, build_incrementer])
def test_zero_width_rejected(builder):
    with pytest.raises(ZeroWidth):
        builder(0)
    with pytest.raises(ZeroWidth):
        builder(-3)


# -- dispatcher ------------------------------------------------------------------------

def test_build_adder_dispatch_matches_direct_builders():
    pairs = [
        (AdderSpec(Architecture.RCA, 4), build_rca(4)),
        (AdderSpec(Architecture.CLA, 4), build_cla_block(4)),
        (AdderSpec(Architecture.CLA, 4, max_fanin=2), build_cla_block(4, 2)),
        (AdderSpec(Architecture.CIA_RCA, 8, 4), build_cia(8, 4, Architecture.RCA)),
        (AdderSpec(Architecture.CIA_CLA, 8, 4), build_cia(8, 4, Architecture.CLA)),
    ]
    for spec, direct in pairs:
        assert export_json(build_adder(spec)) == export_json(direct)


def test_build_adder_names_encode_the_spec():
    assert build_adder(AdderSpec(Architecture.RCA, 4)).name == "rca_w4"
    assert build_adder(AdderSpec(Architecture.CLA, 4, max_fanin=2)).name == "cla_w4_f2"
    assert build_adder(AdderSpec(Architecture.CIA_CLA, 8, 4)).name == "cia_cla_w8_b4"
    assert build_adder(AdderSpec(Architecture.CIA_RCA, 12, 3)).name == "cia_rca_w12_b3"


@pytest.mark.parametrize("arch", list(Architecture))
@pytest.mark.parametrize("max_fanin", [1, 0, -3])
def test_build_adder_refuses_a_bad_fanin_for_every_architecture(arch, max_fanin):
    with pytest.raises(BadFanIn, match=f"^max_fanin must be >= 2 or unlimited, got {max_fanin}$"):
        build_adder(AdderSpec(arch, 4, 2, max_fanin))


@pytest.mark.parametrize("max_fanin", [2, 3, None])
def test_rca_ignores_a_valid_fanin(max_fanin):
    assert export_json(build_adder(AdderSpec(Architecture.RCA, 4, max_fanin=max_fanin))) == export_json(build_rca(4))


def test_build_adder_propagates_builder_errors():
    with pytest.raises(BlockTooLarge):
        build_adder(AdderSpec(Architecture.CIA_RCA, 2, 4))
    with pytest.raises(ZeroWidth):
        build_adder(AdderSpec(Architecture.RCA, 0))


@pytest.mark.parametrize("spec,message", [
    (AdderSpec("rca", 4), "^architecture must be an Architecture, got 'rca'$"),
    (AdderSpec(None, 4), "^architecture must be an Architecture, got None$"),
    ("rca", "^adder spec must be an AdderSpec, got 'rca'$"),
    ((Architecture.RCA, 4), "^adder spec must be an AdderSpec, got "),
], ids=["arch string", "arch none", "string", "tuple"])
def test_build_adder_rejects_what_is_no_adder_spec(spec, message):
    with pytest.raises(InvalidParameter, match=message):
        build_adder(spec)


@pytest.mark.parametrize("arch", list(Architecture))
def test_all_architectures_expose_the_port_contract(arch):
    nl = build_adder(AdderSpec(arch, 5, 2))
    want_in, want_out = adder_port_names(5)
    assert list(nl.input_names) == want_in
    assert list(nl.output_names) == want_out


# -- built tables, pinned --------------------------------------------------------

def pinned_netlists():
    yield build_half_adder()
    yield build_full_adder()
    for width in range(1, 17):
        yield build_incrementer(width)
    for arch, width, block, fanin in itertools.product(Architecture, range(1, 17), (1, 2, 3, 4, 5, 8), (None, 2, 3)):
        if block <= width or not arch.is_cia:
            yield build_adder(AdderSpec(arch, width, block, fanin))


def test_built_tables_are_pinned():
    # One digest over the name and tables of 1,068 netlists: every architecture
    # at w1-16, block sizes 1-5 and 8, fan-in unlimited, 2 and 3, plus the
    # half adder, full adder and incrementers.  A change to any gate, port,
    # constant or carry merge of a built netlist changes it.
    digest = hashlib.sha256()
    for nl in pinned_netlists():
        gates = tuple((gate.kind.value, gate.inputs, gate.output, gate.stage) for gate in nl.gates)
        digest.update(repr((nl.name, gates, nl.inputs, nl.outputs, nl.constants, nl.carry_merges)).encode())
    assert digest.hexdigest() == "4e6f9fcd96845769b1754fb29898a232480fa1f2e0733eb8673fab8b4198fd65"
