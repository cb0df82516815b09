"""Area and delay reporting, plus cross-architecture comparison.

Area is a raw gate census.  That number is technology-independent: it is
not comparable to FPGA LUT or slice counts, where a logic block absorbs
several gates and mappers optimize across them.  Power is not modeled at
all, so comparisons print it as n/a rather than a guess.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .builders import AdderSpec, _check_spec, build_adder
from .errors import AdderLabError, EmptySpecList, ExhaustiveTooLarge, InvalidParameter
from .netlist import DelayModel, GateKind, Netlist, _iterable
from .verify import DEFAULT_CASE_CAP, _check_exhaustive_all


@dataclass(frozen=True)
class AreaReport:
    """Gate census: per-kind counts, the total, and per-stage counts if labeled."""

    counts: dict[GateKind, int]
    total_gates: int
    by_block: dict[str, int] | None = None


@dataclass(frozen=True)
class DelayReport:
    """Critical path under one delay model.

    ``path`` pairs each gate index on the witnessing path with the
    arrival time at its output; arrivals increase strictly along it.
    """

    model_name: str
    delay: float
    path: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class ComparisonRow:
    spec: AdderSpec
    area: AreaReport | None
    delay: DelayReport | None
    verified: bool | None  # None: not checked (over the case cap, or the row failed)
    error: str | None = None


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    model_name: str


def area_report(netlist: Netlist) -> AreaReport:
    counts = Counter(gate.kind for gate in netlist.gates)
    stages = Counter(gate.stage for gate in netlist.gates if gate.stage is not None)
    return AreaReport(
        counts=dict(counts),
        total_gates=len(netlist.gates),
        by_block=dict(stages) if stages else None,
    )


def delay_report(netlist: Netlist, model: DelayModel) -> DelayReport:
    delay, path = netlist.critical_path(model)
    # Running sums from 0.0 repeat arrival_times' additions in order: equal bit for bit.
    gates = (netlist.gates[gi] for gi in path)
    arrivals = accumulate((model.gate_delay(g.kind, len(g.inputs)) for g in gates), initial=0.0)
    next(arrivals)
    return DelayReport(model_name=model.name, delay=delay, path=tuple(zip(path, arrivals)))


def compare(specs, model: DelayModel) -> ComparisonTable:
    """Build every spec and tabulate area/delay/verification, in request order.

    Rows whose build fails carry the error instead of numbers; the table
    is still returned.  Verification runs exhaustively while a width's
    2**(2*width+1) cases fit ``verify.DEFAULT_CASE_CAP`` (up to width 14)
    and is skipped (verified=None) beyond that.  All rows of one width
    are proven in one shared BDD manager, so the ripple spec for that
    width is built once.  An item that is not an ``AdderSpec`` of an
    ``Architecture``, or a ``model`` that is not a ``DelayModel``, raises
    InvalidParameter before anything is built.
    """
    specs = list(_iterable(specs, "adder specs"))
    if not specs:
        raise EmptySpecList("no adder specs to compare")
    for spec in specs:  # rows read spec.arch even when the build fails
        _check_spec(spec)
    if not isinstance(model, DelayModel):
        raise InvalidParameter(f"delay model must be a DelayModel, got {model!r}")
    netlists: dict[int, Netlist] = {}
    errors: dict[int, str] = {}
    for k, spec in enumerate(specs):
        try:
            netlists[k] = build_adder(spec)
        except AdderLabError as exc:
            errors[k] = f"{type(exc).__name__}: {exc}"
    by_width: dict[int, list[int]] = {}
    for k in netlists:
        by_width.setdefault(specs[k].width, []).append(k)
    verified: dict[int, bool] = {}
    for width, ks in by_width.items():
        try:
            reports = _check_exhaustive_all([netlists[k] for k in ks], width, DEFAULT_CASE_CAP)
        except ExhaustiveTooLarge:
            continue
        verified.update((k, report.ok) for k, report in zip(ks, reports))
    rows = [
        ComparisonRow(spec, None, None, None, error=errors[k])
        if k in errors
        else ComparisonRow(
            spec, area_report(netlists[k]), delay_report(netlists[k], model), verified.get(k)
        )
        for k, spec in enumerate(specs)
    ]
    return ComparisonTable(tuple(rows), model.name)


def _row_cells(row: ComparisonRow) -> tuple[str, ...]:
    """The arch, width, block, gates, delay and verified cells of one row, as text."""
    spec = row.spec
    head = (spec.arch.value, str(spec.width), str(spec.block_size) if spec.arch.is_cia else "-")
    if row.error is not None:
        return (*head, "-", "-", "error")
    verified = {True: "true", False: "false", None: "n/a"}[row.verified]
    return (*head, str(row.area.total_gates), f"{row.delay.delay:.2f}", verified)


def format_comparison(table: ComparisonTable) -> str:
    """Human-readable table; one row per spec plus the fine print."""
    header = ("arch", "width", "block", "gates", f"delay_{table.model_name}", "verified", "power_mW")
    body = [(*_row_cells(row), "n/a") for row in table.rows]
    widths = [max([len(col)] + [len(r[i]) for r in body]) for i, col in enumerate(header)]
    lines = ["  ".join(col.rjust(w) for col, w in zip(header, widths))]
    for r in body:
        lines.append("  ".join(col.rjust(w) for col, w in zip(r, widths)))
    for row in table.rows:
        if row.error is not None:
            lines.append(f"  {row.spec.arch.value}_w{row.spec.width}: {row.error}")
    lines.append("")
    lines.append("power_mW: n/a (no power model).")
    lines.append(
        "gates is a raw gate census; it is not comparable to FPGA LUT or slice"
    )
    lines.append(
        "counts, where technology mapping can absorb a larger netlist into fewer blocks."
    )
    return "\n".join(lines) + "\n"
