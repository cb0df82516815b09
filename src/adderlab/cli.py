"""Command line front end.

Subcommands: build (emit JSON), verify (equivalence check), analyze
(area/delay, optional DOT and Verilog), compare (multi-arch table,
optional CSV).  Exit codes: 0 success, 1 verification mismatch, 2 usage
or input error, or out of memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import compare, delay_report, area_report, format_comparison
from .builders import AdderSpec, Architecture, build_adder
from .errors import AdderLabError, ExhaustiveTooLarge, ParseError
from .io import export_csv, export_dot, export_json, export_verilog, import_json
from .netlist import DelayModel
from .verify import check_exhaustive, check_random

_MODELS = {"unit": DelayModel.unit, "log2": DelayModel.unit_log2}


def _add_shape_flags(parser: argparse.ArgumentParser, with_arch: bool = True) -> None:
    if with_arch:
        parser.add_argument(
            "--arch",
            choices=[a.value for a in Architecture],
            help="adder architecture",
        )
    parser.add_argument("--width", type=int, default=8, help="operand width in bits (default 8)")
    parser.add_argument("--block", type=int, default=4, help="carry-increment block size (default 4)")
    parser.add_argument(
        "--max-fanin", type=int, default=None, help="fan-in limit for lookahead gates (default unlimited)"
    )


def _spec_from(args: argparse.Namespace) -> AdderSpec:
    return AdderSpec(Architecture(args.arch), args.width, args.block, args.max_fanin)


def _cmd_build(args: argparse.Namespace) -> int:
    netlist = build_adder(_spec_from(args))
    text = export_json(netlist)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: {netlist.name}, {len(netlist.gates)} gates")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.infile and args.arch:
        print("error: verify takes --arch or --in, not both", file=sys.stderr)
        return 2
    if args.infile:
        try:
            text = Path(args.infile).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.infile} is not UTF-8 text: {exc}") from None
        netlist = import_json(text)
    else:
        netlist = build_adder(_spec_from(args))
    if args.random is not None:
        report = check_random(netlist, args.width, args.random, args.seed)
    else:
        try:
            report = check_exhaustive(netlist, args.width)
        except ExhaustiveTooLarge:
            if args.exhaustive:
                raise
            report = check_random(netlist, args.width, 10000, args.seed)
    print(f"{report.cases_checked} cases, {report.failure_count} failures")
    for failure in report.failures[:8]:
        print(
            f"  a={failure.a} b={failure.b} cin={failure.cin}: "
            f"expected s={failure.expected_sum} cout={failure.expected_cout}, "
            f"got s={failure.got_sum} cout={failure.got_cout}"
        )
    return 0 if report.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    netlist = build_adder(_spec_from(args))
    model = _MODELS[args.model]()
    area = area_report(netlist)
    delay = delay_report(netlist, model)
    print(f"netlist {netlist.name}")
    census = ", ".join(f"{kind.value}={n}" for kind, n in sorted(area.counts.items(), key=lambda kv: kv[0].value))
    print(f"gates: {area.total_gates} ({census})")
    if area.by_block:
        print("per stage: " + ", ".join(f"{k}={v}" for k, v in area.by_block.items()))
    print(f"critical path ({delay.model_name} model): {delay.delay:.2f} gate delays")
    if delay.path:
        steps = " -> ".join(f"g{gi}@{arrival:g}" for gi, arrival in delay.path)
        print(f"path: {steps}")
    if args.dot:
        Path(args.dot).write_text(export_dot(netlist))
        print(f"wrote {args.dot}")
    if args.verilog:
        Path(args.verilog).write_text(export_verilog(netlist))
        print(f"wrote {args.verilog}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    names = [token.strip() for token in args.archs.split(",") if token.strip()]
    known = {a.value: a for a in Architecture}
    for token in names:
        if token not in known:
            print(f"error: unknown architecture '{token}'", file=sys.stderr)
            return 2
    if not names:
        print("error: --archs needs at least one architecture", file=sys.stderr)
        return 2
    specs = [AdderSpec(known[token], args.width, args.block, args.max_fanin) for token in names]
    table = compare(specs, _MODELS[args.model]())
    sys.stdout.write(format_comparison(table))
    if args.csv:
        Path(args.csv).write_text(export_csv(table))
        print(f"wrote {args.csv}")
    if any(row.error is not None for row in table.rows):
        return 2
    if any(row.verified is False for row in table.rows):
        return 1
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adderlab",
        description="Build, verify and time gate-level adder netlists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit a netlist as canonical JSON")
    _add_shape_flags(p_build)
    p_build.add_argument("--out", help="write the document here instead of stdout")
    p_build.set_defaults(func=_cmd_build, need_arch=True)

    p_verify = sub.add_parser("verify", help="check a netlist against integer addition")
    _add_shape_flags(p_verify)
    p_verify.add_argument("--in", dest="infile", help="verify this JSON netlist instead of building one")
    mode = p_verify.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", help="sweep the whole input space")
    mode.add_argument("--random", type=int, metavar="SAMPLES", help="seeded random sampling")
    p_verify.add_argument("--seed", type=int, default=0, help="PRNG seed for --random (default 0)")
    p_verify.set_defaults(func=_cmd_verify, need_arch=False)

    p_analyze = sub.add_parser("analyze", help="report area and critical path")
    _add_shape_flags(p_analyze)
    p_analyze.add_argument("--model", choices=sorted(_MODELS), default="unit", help="delay model")
    p_analyze.add_argument("--dot", help="write a Graphviz rendering here")
    p_analyze.add_argument("--verilog", help="write structural Verilog here")
    p_analyze.set_defaults(func=_cmd_analyze, need_arch=True)

    p_compare = sub.add_parser("compare", help="tabulate several architectures")
    p_compare.add_argument("--archs", required=True, help="comma-separated architecture list")
    _add_shape_flags(p_compare, with_arch=False)
    p_compare.add_argument("--model", choices=sorted(_MODELS), default="unit", help="delay model")
    p_compare.add_argument("--csv", help="write the table as CSV here")
    p_compare.set_defaults(func=_cmd_compare, need_arch=False)
    return parser


def run(argv=None) -> int:
    """Parse and execute; returns the process exit code instead of exiting."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "need_arch", False) and args.arch is None:
        print(f"error: {args.command} requires --arch", file=sys.stderr)
        return 2
    if args.command == "verify" and args.arch is None and not args.infile:
        print("error: verify requires --arch or --in", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AdderLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError too: a check too large to hold is no mismatch
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
