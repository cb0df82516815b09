"""Acceptance suite: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py` to get a single pass/fail
line per criterion.  Each test is self-contained and rebuilds what it
needs; together they pin down functional correctness, the delay and area
claims each architecture is chosen for, metadata invariants, mutation
sensitivity of the checker, interchange-format stability, and the limits
of what gate-level numbers can be compared against synthesized results.
"""

import itertools
import time
from pathlib import Path

import numpy as np

from oracle import brute_force_delay

from adderlab import (
    AdderSpec,
    Architecture,
    DelayModel,
    GateKind,
    build_adder,
    build_cia,
    build_cla_block,
    build_full_adder,
    build_half_adder,
    build_incrementer,
    build_rca,
    check_exhaustive,
    compare,
    delay_report,
    export_csv,
    export_dot,
    export_json,
    export_verilog,
    format_comparison,
    import_json,
    probe_invariant_carry_exclusive,
)

GOLDEN = Path(__file__).parent / "golden"

W8_SPECS = [
    AdderSpec(Architecture.RCA, 8),
    AdderSpec(Architecture.CLA, 8),
    AdderSpec(Architecture.CIA_RCA, 8, 4),
    AdderSpec(Architecture.CIA_CLA, 8, 4),
]


def test_criterion_1_exhaustive_width8_all_architectures_under_10s():
    start = time.perf_counter()
    for spec in W8_SPECS:
        report = check_exhaustive(build_adder(spec), 8)
        assert report.cases_checked == 131072, spec
        assert report.failure_count == 0, spec
    assert time.perf_counter() - start < 10.0


def test_criterion_2_width_and_block_sweep():
    for width in range(1, 11):
        for netlist in (build_rca(width), build_cla_block(width)):
            assert check_exhaustive(netlist, width).ok, netlist.name
        for block, kind in itertools.product(
            range(1, width + 1), (Architecture.RCA, Architecture.CLA)
        ):
            netlist = build_cia(width, block, kind)
            assert check_exhaustive(netlist, width).ok, netlist.name


def test_criterion_3_lookahead_block_beats_ripple_block():
    unit = DelayModel.unit()
    cla = delay_report(build_cla_block(4), unit).delay
    rca = delay_report(build_rca(4), unit).delay
    assert cla == brute_force_delay(build_cla_block(4), unit) == 4.0
    assert rca == brute_force_delay(build_rca(4), unit) == 9.0
    assert cla < rca


def test_criterion_4_lookahead_blocks_beat_ripple_blocks_inside_cia():
    unit = DelayModel.unit()
    fast = build_cia(8, 4, Architecture.CLA)
    slow = build_cia(8, 4, Architecture.RCA)
    fast_delay = delay_report(fast, unit).delay
    slow_delay = delay_report(slow, unit).delay
    # frozen values confirmed by exhaustive path enumeration
    assert fast_delay == brute_force_delay(fast, unit) == 8.0
    assert slow_delay == brute_force_delay(slow, unit) == 14.0
    assert fast_delay < slow_delay
    for width in (12, 16, 32, 64):
        lo = delay_report(build_cia(width, 4, Architecture.CLA), unit).delay
        hi = delay_report(build_cia(width, 4, Architecture.RCA), unit).delay
        assert lo < hi, width


def test_criterion_5_scaling_laws():
    unit = DelayModel.unit()
    for width in range(1, 17):
        rca = build_rca(width)
        assert delay_report(rca, unit).delay == 2 * width + 1
        assert len(rca.gates) == 5 * width
    for width in range(2, 9):
        assert delay_report(build_cla_block(width), unit).delay == 4.0


def test_criterion_6_block_and_increment_carries_never_both_fire():
    for width in range(1, 11):
        for block, kind in itertools.product(
            range(1, width + 1), (Architecture.RCA, Architecture.CLA)
        ):
            netlist = build_cia(width, block, kind)
            assert probe_invariant_carry_exclusive(netlist, width), netlist.name


def test_criterion_7_every_kind_swap_mutant_is_caught():
    swaps = {
        GateKind.AND: (GateKind.OR, GateKind.XOR),
        GateKind.OR: (GateKind.AND,),
        GateKind.XOR: (GateKind.AND,),
    }
    netlist = build_rca(4)
    mutants = 0
    for index, gate in enumerate(netlist.gates):
        for kind in swaps[gate.kind]:
            report = check_exhaustive(netlist.with_gate_kind(index, kind), 4)
            assert report.failure_count >= 1, f"silent mutant g{index}: {gate.kind} -> {kind}"
            mutants += 1
    assert mutants == 28


def test_criterion_8_round_trip_and_byte_determinism():
    menagerie = [
        build_half_adder(),
        build_full_adder(),
        build_rca(8),
        build_cla_block(8),
        build_incrementer(8),
        build_cia(8, 4, Architecture.RCA),
        build_cia(8, 4, Architecture.CLA),
    ]
    for netlist in menagerie:
        doc = export_json(netlist)
        back = import_json(doc)
        assert export_json(back) == doc, netlist.name
        cases = np.arange(min(1 << len(netlist.inputs), 4096))
        asg = {name: (cases >> i) & 1 for i, (name, _) in enumerate(netlist.inputs)}
        want, got = netlist.evaluate(asg), back.evaluate(asg)
        assert want.keys() == got.keys(), netlist.name
        assert all(np.array_equal(want[name], got[name]) for name in want), netlist.name
        # import renumbers nets into canonical dense order, so DOT and
        # Verilog stability is checked on rebuilds, not on round trips;
        # the JSON text itself must survive a round trip byte for byte

    for fresh, again in zip(menagerie, [
        build_half_adder(),
        build_full_adder(),
        build_rca(8),
        build_cla_block(8),
        build_incrementer(8),
        build_cia(8, 4, Architecture.RCA),
        build_cia(8, 4, Architecture.CLA),
    ]):
        assert export_dot(fresh) == export_dot(again), fresh.name
        assert export_verilog(fresh) == export_verilog(again), fresh.name

    golden_renders = {
        "half_adder.json": export_json(build_half_adder()),
        "half_adder.dot": export_dot(build_half_adder()),
        "half_adder.v": export_verilog(build_half_adder()),
        "rca_w4.json": export_json(build_rca(4)),
        "cia_rca_w8_b4.dot": export_dot(build_cia(8, 4, Architecture.RCA)),
        "cia_cla_w8_b4.v": export_verilog(build_cia(8, 4, Architecture.CLA)),
        "compare_cia_w8.csv": export_csv(
            compare(
                [AdderSpec(Architecture.CIA_RCA, 8, 4), AdderSpec(Architecture.CIA_CLA, 8, 4)],
                DelayModel.unit(),
            )
        ),
    }
    for fname, text in golden_renders.items():
        assert text == (GOLDEN / fname).read_text(), fname


def test_criterion_9_power_and_lut_numbers_are_marked_incomparable():
    table = compare(
        [AdderSpec(Architecture.CIA_CLA, 8, 4), AdderSpec(Architecture.CIA_RCA, 8, 4)],
        DelayModel.unit(),
    )
    text = format_comparison(table)
    assert "power_mW" in text
    assert "power_mW: n/a (no power model)." in text
    assert "not comparable to FPGA LUT" in text
    by_arch = {row.spec.arch: row for row in table.rows}
    cla_gates = by_arch[Architecture.CIA_CLA].area.total_gates
    rca_gates = by_arch[Architecture.CIA_RCA].area.total_gates
    # the faster variant is larger at the raw gate level; a technology
    # mapper can still pack it into fewer blocks, so the table refuses
    # to pass gate counts off as area in mapped units
    assert (cla_gates, rca_gates) == (61, 49)
    assert cla_gates > rca_gates
