"""Area census, delay reports, and the comparison table."""

from collections import Counter

import pytest

from adderlab import analysis, verify
from adderlab import (
    AdderSpec,
    Architecture,
    DelayModel,
    EmptySpecList,
    GateKind,
    InvalidParameter,
    Netlist,
    area_report,
    build_adder,
    build_cia,
    build_cla_block,
    build_half_adder,
    build_incrementer,
    build_rca,
    compare,
    delay_report,
    export_csv,
    format_comparison,
)
from oracle import brute_force_delay


# -- area ---------------------------------------------------------------------

def test_area_half_adder():
    report = area_report(build_half_adder())
    assert report.counts == {GateKind.XOR: 1, GateKind.AND: 1}
    assert report.total_gates == 2
    assert report.by_block is None


@pytest.mark.parametrize("width", range(1, 9))
def test_area_rca_is_five_per_bit(width):
    assert area_report(build_rca(width)).total_gates == 5 * width


def test_area_counts_sum_to_total(cia_cla_8_4):
    report = area_report(cia_cla_8_4)
    assert sum(report.counts.values()) == report.total_gates == 61


def test_area_by_block(cia_rca_8_4):
    report = area_report(cia_rca_8_4)
    assert report.by_block == {"block0": 20, "block1": 20, "inc1": 9}
    assert sum(report.by_block.values()) == report.total_gates


def test_area_incrementer():
    assert area_report(build_incrementer(6)).counts == {GateKind.XOR: 6, GateKind.AND: 6}


# -- delay ------------------------------------------------------------------------

def test_delay_report_unit_cla(cla4, unit):
    report = delay_report(cla4, unit)
    assert report.model_name == "unit"
    assert report.delay == 4.0
    assert report.delay == brute_force_delay(cla4, unit)


def test_delay_report_log2_cla(cla4, log2):
    # wide gates pay tree depth: the 5-input carry-out OR alone costs 3
    report = delay_report(cla4, log2)
    assert report.delay == 7.0
    assert report.delay == brute_force_delay(cla4, log2)


def test_delay_report_path_arrivals_strictly_increase(cia_rca_8_4, unit, log2):
    for model in (unit, log2):
        report = delay_report(cia_rca_8_4, model)
        arrivals = [arrival for _, arrival in report.path]
        assert all(x < y for x, y in zip(arrivals, arrivals[1:]))
        assert arrivals[-1] == report.delay


ODD = DelayModel("odd", {GateKind.AND: 0.3, GateKind.OR: 0.7, GateKind.XOR: 1.1, GateKind.NOT: 0.1})


@pytest.mark.parametrize("arch", list(Architecture))
def test_delay_report_arrivals_equal_arrival_times(arch, unit, log2):
    netlist = build_adder(AdderSpec(arch, 11, 4))
    for model in (unit, log2, ODD):
        arrivals = netlist.arrival_times(model)
        report = delay_report(netlist, model)
        assert report.path
        for gi, arrival in report.path:
            assert arrival == arrivals[netlist.gates[gi].output], (model.name, gi)
        assert report.delay == report.path[-1][1]


@pytest.mark.parametrize("model", ["unit", None, DelayModel.unit], ids=["string", "none", "factory"])
def test_delay_report_rejects_a_bad_model(cla4, model):
    with pytest.raises(InvalidParameter, match="^delay model must be a DelayModel, got "):
        delay_report(cla4, model)


def test_one_delay_report_runs_one_forward_pass(monkeypatch, cia_cla_8_4, unit):
    calls = Counter()
    arrival_times, gate_delay = Netlist.arrival_times, DelayModel.gate_delay

    def counted_arrival_times(self, model):
        calls["arrival_times"] += 1
        return arrival_times(self, model)

    def counted_gate_delay(self, kind, fanin):
        calls["gate_delay"] += 1
        return gate_delay(self, kind, fanin)

    monkeypatch.setattr(Netlist, "arrival_times", counted_arrival_times)
    monkeypatch.setattr(DelayModel, "gate_delay", counted_gate_delay)
    report = delay_report(cia_cla_8_4, unit)
    assert calls["arrival_times"] == 1
    # one delay per gate in the forward pass, one per path gate for the arrivals
    assert calls["gate_delay"] == len(cia_cla_8_4.gates) + len(report.path)


def test_delay_rca_formula(unit):
    for width in (1, 2, 4, 8, 12):
        assert delay_report(build_rca(width), unit).delay == 2 * width + 1


def cia_unit_delay(width, block, kind):
    """Unit-model delay of a carry-increment adder, in closed form.

    Block 0 delivers its carry after 2*s+1 gates (ripple) or 3 (lookahead:
    XOR/AND, product AND, carry OR); a lone lookahead block of s >= 2 bits
    ends on its last sum XOR, at 4.  Each later block of s bits bumps the
    effective carry through s half-adder ANDs and the merging OR: s + 1.
    """
    sizes = [min(block, width - start) for start in range(0, width, block)]
    if kind is Architecture.RCA:
        first = 2 * sizes[0] + 1
    else:
        first = 4 if len(sizes) == 1 and sizes[0] >= 2 else 3
    return first + sum(size + 1 for size in sizes[1:])


@pytest.mark.parametrize("kind", [Architecture.RCA, Architecture.CLA])
def test_cia_delay_matches_closed_form(kind, unit):
    for width in range(1, 33):
        for block in range(1, width + 1):
            report = delay_report(build_cia(width, block, kind), unit)
            assert report.delay == cia_unit_delay(width, block, kind), (width, block)


# -- compare --------------------------------------------------------------------------

def test_compare_orders_rows_as_requested(unit):
    specs = [
        AdderSpec(Architecture.CIA_CLA, 8, 4),
        AdderSpec(Architecture.CIA_RCA, 8, 4),
        AdderSpec(Architecture.RCA, 8),
    ]
    table = compare(specs, unit)
    assert [row.spec for row in table.rows] == specs
    assert [row.delay.delay for row in table.rows] == [8.0, 14.0, 17.0]
    assert all(row.verified is True for row in table.rows)


def test_compare_empty_spec_list(unit):
    with pytest.raises(EmptySpecList):
        compare([], unit)


@pytest.mark.parametrize("bad", ["rca", AdderSpec("rca", 4)], ids=["string", "arch string"])
def test_compare_rejects_a_bad_spec_before_building_any(unit, monkeypatch, bad):
    built = []
    monkeypatch.setattr(analysis, "build_adder", lambda spec: built.append(spec) or build_adder(spec))
    with pytest.raises(InvalidParameter):
        compare([AdderSpec(Architecture.RCA, 4), bad, AdderSpec(Architecture.CLA, 4)], unit)
    assert built == []


@pytest.mark.parametrize("model", ["unit", None, DelayModel.unit], ids=["string", "none", "factory"])
def test_compare_rejects_a_bad_model_before_building_any(monkeypatch, model):
    built = []
    monkeypatch.setattr(analysis, "build_adder", lambda spec: built.append(spec) or build_adder(spec))
    with pytest.raises(InvalidParameter, match="^delay model must be a DelayModel, got "):
        compare([AdderSpec(Architecture.RCA, 4)], model)
    assert built == []


@pytest.mark.parametrize("specs", [5, None])
def test_compare_rejects_specs_that_are_not_iterable(unit, specs):
    with pytest.raises(InvalidParameter, match=f"^adder specs must be iterable, got {specs}$"):
        compare(specs, unit)
    with pytest.raises(EmptySpecList):
        compare(iter(()), unit)


def test_compare_keeps_failed_rows(unit):
    specs = [
        AdderSpec(Architecture.RCA, 4),
        AdderSpec(Architecture.CIA_RCA, 2, 4),  # block too large
        AdderSpec(Architecture.CLA, 4),
    ]
    table = compare(specs, unit)
    assert len(table.rows) == 3
    good, bad, also_good = table.rows
    assert bad.error is not None and "BlockTooLarge" in bad.error
    assert bad.area is None and bad.delay is None and bad.verified is None
    assert good.verified is True and also_good.verified is True


def test_compare_skips_verification_above_width_limit(unit):
    table = compare([AdderSpec(Architecture.RCA, 15)], unit)
    assert table.rows[0].verified is None
    assert table.rows[0].delay.delay == 31.0


def test_compare_verifies_up_to_the_case_cap(unit):
    # w14's 2**29 cases are exactly verify.DEFAULT_CASE_CAP
    table = compare([AdderSpec(Architecture.RCA, 14)], unit)
    assert table.rows[0].verified is True


def test_compare_can_skip_verification_entirely(monkeypatch, unit):
    # compare() has no switch to skip verification: rows over the case cap
    # are the only ones it skips, and a table of only those proves nothing
    monkeypatch.setattr(verify, "_spec", None)
    table = compare([AdderSpec(Architecture.RCA, 15), AdderSpec(Architecture.CIA_CLA, 16, 4)], unit)
    assert [row.verified for row in table.rows] == [None, None]


def test_compare_mixed_rows_keep_request_order_and_verdicts(monkeypatch, unit):
    specs = [
        AdderSpec(Architecture.CLA, 6),
        AdderSpec(Architecture.RCA, 15),  # over the case cap: not verified
        AdderSpec(Architecture.CIA_RCA, 2, 4),  # build fails
        AdderSpec(Architecture.RCA, 4),
        AdderSpec(Architecture.CIA_CLA, 6, 2),
        AdderSpec(Architecture.CIA_RCA, 4, 2),
    ]
    table = compare(specs, unit)
    assert [row.spec for row in table.rows] == specs
    assert [row.verified for row in table.rows] == [True, None, None, True, True, True]
    assert [row.error is not None for row in table.rows] == [False, False, True, False, False, False]
    # a wrong row must be reported on its own row, not on a neighbor sharing its sweep
    def build_with_fault(spec):
        netlist = build_adder(spec)
        return netlist.with_gate_kind(0, GateKind.OR) if spec == specs[4] else netlist
    monkeypatch.setattr(analysis, "build_adder", build_with_fault)
    faulty = compare(specs, unit)
    assert [row.verified for row in faulty.rows] == [True, None, None, True, False, True]


def test_compare_sweeps_each_verifiable_width_once(monkeypatch, unit):
    calls = []
    spec = verify._spec

    def spy(width):
        calls.append(width)
        return spec(width)

    monkeypatch.setattr(verify, "_spec", spy)
    specs = [
        AdderSpec(Architecture.RCA, 6),
        AdderSpec(Architecture.CLA, 4),
        AdderSpec(Architecture.CIA_RCA, 6, 2),
        AdderSpec(Architecture.RCA, 15),
        AdderSpec(Architecture.CIA_RCA, 2, 4),
        AdderSpec(Architecture.CIA_CLA, 4, 2),
        AdderSpec(Architecture.CIA_CLA, 6, 3),
    ]
    table = compare(specs, unit)
    assert sorted(calls) == [4, 6]
    assert sum(row.verified is True for row in table.rows) == 5


def test_compare_is_deterministic(unit):
    specs = [AdderSpec(Architecture.CIA_RCA, 8, 4), AdderSpec(Architecture.CIA_CLA, 8, 4)]
    one = export_csv(compare(specs, unit))
    two = export_csv(compare(specs, unit))
    assert one == two


def test_format_comparison_mentions_power_and_lut_caveat(unit):
    table = compare(
        [AdderSpec(Architecture.CIA_RCA, 8, 4), AdderSpec(Architecture.CIA_CLA, 8, 4)], unit
    )
    text = format_comparison(table)
    assert "power_mW" in text
    assert "n/a" in text
    assert "LUT" in text
    assert "cia_rca" in text and "cia_cla" in text


def test_format_comparison_marks_failed_rows(unit):
    table = compare([AdderSpec(Architecture.CIA_RCA, 2, 4)], unit)
    text = format_comparison(table)
    assert "error" in text
    assert "BlockTooLarge" in text


def test_custom_model_name_lands_in_report(cla4):
    slow_xor = DelayModel(
        "slow_xor",
        {GateKind.AND: 1.0, GateKind.OR: 1.0, GateKind.XOR: 2.0, GateKind.NOT: 1.0},
    )
    report = delay_report(cla4, slow_xor)
    assert report.model_name == "slow_xor"
    assert report.delay == brute_force_delay(cla4, slow_xor)
