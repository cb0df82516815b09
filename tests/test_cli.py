"""Command line behavior: subcommands, exit codes, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adderlab import (
    Architecture,
    GateKind,
    analysis,
    build_cia,
    build_cla_block,
    build_rca,
    export_json,
    import_json,
)
from adderlab import cli
from adderlab.cli import main, run

GOLDEN = Path(__file__).parent / "golden"


# -- parsing and usage errors -----------------------------------------------

def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "build" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["build", "verify", "analyze", "compare"])
def test_subcommand_help_exits_zero(cmd, capsys):
    assert run([cmd, "--help"]) == 0
    assert cmd in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run(["build", "--arch", "rca", "--frobnicate"]) == 2


def test_unknown_arch_is_usage_error(capsys):
    assert run(["build", "--arch", "kogge_stone"]) == 2


def test_build_requires_arch(capsys):
    assert run(["build"]) == 2
    assert "requires --arch" in capsys.readouterr().err


def test_main_raises_system_exit():
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2  # no argv: argparse sees pytest's args


@pytest.mark.parametrize("archs,code", [("rca", 0), ("rca,kogge_stone", 2)])
def test_module_invocation_runs_the_cli(archs, code):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "adderlab.cli", "compare", "--archs", archs, "--width", "4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout.splitlines()[0].split()[:4] == ["arch", "width", "block", "gates"]
        assert proc.stdout.splitlines()[1].split() == ["rca", "4", "-", "20", "9.00", "true", "n/a"]
    else:
        assert "unknown architecture 'kogge_stone'" in proc.stderr


# -- build -------------------------------------------------------------------

def test_build_writes_json_to_stdout(capsys):
    assert run(["build", "--arch", "rca", "--width", "4"]) == 0
    out = capsys.readouterr().out
    assert out == export_json(build_rca(4))


def test_build_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "adder.json"
    assert run(["build", "--arch", "cia_cla", "--out", str(target)]) == 0
    assert capsys.readouterr().out == f"wrote {target}: cia_cla_w8_b4, 61 gates\n"
    doc = json.loads(target.read_text())
    assert doc["name"] == "cia_cla_w8_b4"


def test_build_domain_errors_exit_two(capsys):
    assert run(["build", "--arch", "cia_rca", "--width", "2", "--block", "4"]) == 2
    assert "BlockTooLarge" in capsys.readouterr().err
    assert run(["build", "--arch", "rca", "--width", "0"]) == 2
    assert "ZeroWidth" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["build", "--arch", "rca", "--width", "4", "--max-fanin", "1"],
    ["analyze", "--arch", "rca", "--width", "4", "--max-fanin", "-3"],
    ["build", "--arch", "cia_rca", "--width", "4", "--block", "2", "--max-fanin", "0"],
])
def test_a_bad_fanin_exits_two_for_every_architecture(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: BadFanIn: max_fanin must be >= 2 or unlimited, got {argv[-1]}\n"


def test_build_max_fanin_changes_output(capsys):
    assert run(["build", "--arch", "cla", "--width", "4", "--max-fanin", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "cla_w4_f2"
    assert max(len(g["inputs"]) for g in doc["gates"]) == 2


# -- verify --------------------------------------------------------------------

def test_verify_exhaustive_default_for_small_widths(capsys):
    assert run(["verify", "--arch", "cia_cla", "--width", "8"]) == 0
    assert capsys.readouterr().out == "131072 cases, 0 failures\n"


def test_verify_explicit_exhaustive(capsys):
    assert run(["verify", "--arch", "rca", "--width", "4", "--exhaustive"]) == 0
    assert capsys.readouterr().out == "512 cases, 0 failures\n"


def test_verify_falls_back_to_random_when_space_is_large(capsys):
    assert run(["verify", "--arch", "rca", "--width", "15"]) == 0
    assert capsys.readouterr().out == "10004 cases, 0 failures\n"


def test_verify_random_counts_boundary_cases(capsys):
    assert run(["verify", "--arch", "cla", "--width", "16", "--random", "500", "--seed", "7"]) == 0
    assert capsys.readouterr().out == "504 cases, 0 failures\n"


def test_verify_exhaustive_over_cap_exits_two(capsys):
    assert run(["verify", "--arch", "rca", "--width", "16", "--exhaustive"]) == 2
    assert "ExhaustiveTooLarge" in capsys.readouterr().err


def test_verify_requires_a_subject(capsys):
    assert run(["verify"]) == 2
    assert "--arch or --in" in capsys.readouterr().err


def test_verify_rejects_arch_and_infile_together(tmp_path, capsys):
    doc = tmp_path / "x.json"
    doc.write_text(export_json(build_rca(8)))
    assert run(["verify", "--arch", "rca", "--in", str(doc)]) == 2
    assert "not both" in capsys.readouterr().err


def test_verify_infile_clean_netlist(tmp_path, capsys):
    doc = tmp_path / "good.json"
    doc.write_text(export_json(build_cia(8, 4, Architecture.RCA)))
    assert run(["verify", "--in", str(doc)]) == 0
    assert capsys.readouterr().out == "131072 cases, 0 failures\n"


def test_verify_infile_mutant_exits_one(tmp_path, capsys):
    mutant = build_rca(8).with_gate_kind(0, GateKind.OR)
    doc = tmp_path / "mutant.json"
    doc.write_text(export_json(mutant))
    assert run(["verify", "--in", str(doc)]) == 1
    lines = capsys.readouterr().out.splitlines()
    head = lines[0].split(" cases, ")
    assert head[0] == "131072"
    assert int(head[1].removesuffix(" failures")) > 0
    assert 1 <= len(lines) - 1 <= 8
    assert all(line.startswith("  a=") and "expected s=" in line for line in lines[1:])


def test_verify_sweeps_w13_and_catches_a_fault_random_draws_miss(tmp_path, capsys):
    # 32,768 of 2**27 cases fail: 10,000 random draws plus the corners found none
    doc = tmp_path / "mutant.json"
    doc.write_text(export_json(build_cla_block(13, 2).with_gate_kind(524, GateKind.XOR)))
    assert run(["verify", "--in", str(doc), "--width", "13"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "134217728 cases, 32768 failures"


def test_verify_negative_samples_exits_two(capsys):
    assert run(["verify", "--arch", "rca", "--width", "4", "--random", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: InvalidParameter: samples must be >= 0, got -5\n"


@pytest.mark.parametrize("extra", [["--random", "5"], []])  # the fallback for wide operands samples too
def test_verify_negative_seed_exits_two(extra, capsys):
    width = "4" if extra else "16"
    assert run(["verify", "--arch", "rca", "--width", width, *extra, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: InvalidParameter: seed must be >= 0, got -1\n"


class ArrayMemoryError(MemoryError):
    """A stand-in for numpy's _ArrayMemoryError, a MemoryError subclass."""


def test_verify_out_of_memory_exits_two(monkeypatch, capsys):
    # a draw too large to hold must not exit 1, which reads as a mismatch; nothing is allocated
    def too_large(*args):
        raise ArrayMemoryError("Unable to allocate 18.2 TiB for an array")

    monkeypatch.setattr(cli, "check_random", too_large)
    assert run(["verify", "--arch", "rca", "--width", "64", "--random", "1000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: MemoryError: Unable to allocate 18.2 TiB for an array\n"


@pytest.mark.parametrize("width", ["-3", "0"])
def test_verify_infile_with_nonpositive_width_exits_two(width, tmp_path, capsys):
    doc = tmp_path / "rca.json"
    doc.write_text(export_json(build_rca(4)))
    assert run(["verify", "--in", str(doc), "--width", width]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ZeroWidth: width must be >= 1, got {width}\n"


def test_verify_missing_infile_exits_two(tmp_path, capsys):
    assert run(["verify", "--in", str(tmp_path / "nope.json")]) == 2


def test_verify_infile_malformed_exits_two(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text("{]")
    assert run(["verify", "--in", str(doc)]) == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    (b"\xff\xfe{}", "is not UTF-8 text"),
    (b"[" * 100_000, "not valid JSON: maximum recursion depth exceeded"),
    (b'{"format_version": ' + b"1" * 5000 + b"}", "not valid JSON: Exceeds the limit"),
])
def test_verify_infile_unreadable_exits_two(tmp_path, capsys, content, message):
    doc = tmp_path / "bad.json"
    doc.write_bytes(content)
    assert run(["verify", "--in", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: ") and message in err
    assert "Traceback" not in err


def test_verify_port_contract_mismatch_exits_two(tmp_path, capsys):
    doc = tmp_path / "narrow.json"
    doc.write_text(export_json(build_rca(4)))
    # default width is 8; the document only has a_0..a_3
    assert run(["verify", "--in", str(doc)]) == 2
    assert "PortContractViolation" in capsys.readouterr().err


# -- analyze ----------------------------------------------------------------------

def test_analyze_census_and_path(capsys):
    assert run(["analyze", "--arch", "cla", "--width", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "netlist cla_w4"
    assert lines[1] == "gates: 26 (AND=14, OR=4, XOR=8)"
    assert lines[2] == "critical path (unit model): 4.00 gate delays"
    assert lines[3].startswith("path: g")
    assert " -> " in lines[3]


def test_analyze_log2_model(capsys):
    assert run(["analyze", "--arch", "cla", "--width", "4", "--model", "log2"]) == 0
    out = capsys.readouterr().out
    assert "critical path (log2 model): 7.00 gate delays" in out


def test_analyze_stage_breakdown_for_cia(capsys):
    assert run(["analyze", "--arch", "cia_rca", "--width", "8", "--block", "4"]) == 0
    out = capsys.readouterr().out
    assert "per stage: block0=20, block1=20, inc1=9" in out
    assert "critical path (unit model): 14.00 gate delays" in out


def test_analyze_writes_dot_and_verilog(tmp_path, capsys):
    dot = tmp_path / "a.dot"
    ver = tmp_path / "a.v"
    code = run([
        "analyze", "--arch", "rca", "--width", "4",
        "--dot", str(dot), "--verilog", str(ver),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert f"wrote {dot}" in out and f"wrote {ver}" in out
    assert dot.read_text().startswith('digraph "rca_w4" {')
    assert ver.read_text().startswith("module rca_w4 (")


# -- compare ---------------------------------------------------------------------------

def test_compare_table_and_exit_zero(capsys):
    assert run(["compare", "--archs", "cia_cla,cia_rca,rca", "--width", "8"]) == 0
    out = capsys.readouterr().out
    assert "arch" in out and "delay_unit" in out and "power_mW" in out
    assert "cia_cla" in out and "cia_rca" in out
    assert "power_mW: n/a (no power model)." in out
    assert "FPGA LUT" in out


def test_compare_rejects_unknown_arch(capsys):
    assert run(["compare", "--archs", "rca,brent_kung"]) == 2
    assert "unknown architecture 'brent_kung'" in capsys.readouterr().err


def test_compare_rejects_empty_arch_list(capsys):
    assert run(["compare", "--archs", ","]) == 2
    assert "at least one architecture" in capsys.readouterr().err


def test_compare_error_row_exits_two(capsys):
    assert run(["compare", "--archs", "cia_cla", "--width", "2", "--block", "4"]) == 2
    assert "BlockTooLarge" in capsys.readouterr().out


def test_compare_failed_verification_exits_one(monkeypatch, capsys):
    build_adder = analysis.build_adder

    def with_fault(spec):  # rca's gate 0 is a_0 XOR b_0; as an OR its s_0 is wrong
        netlist = build_adder(spec)
        return netlist.with_gate_kind(0, GateKind.OR) if spec.arch is Architecture.RCA else netlist

    monkeypatch.setattr(analysis, "build_adder", with_fault)
    assert run(["compare", "--archs", "cla,rca", "--width", "4"]) == 1
    out, err = capsys.readouterr()
    rows = [line.split() for line in out.splitlines()[1:3]]
    assert [(row[0], row[5]) for row in rows] == [("cla", "true"), ("rca", "false")]
    assert err == ""


def test_compare_all_architectures_matches_golden(capsys):
    assert run(["compare", "--archs", "rca,cla,cia_rca,cia_cla", "--width", "10", "--block", "4"]) == 0
    out, err = capsys.readouterr()
    assert out == (GOLDEN / "compare_all_w10.txt").read_text()
    assert err == ""


def test_compare_csv_matches_golden(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = run([
        "compare", "--archs", "cia_rca,cia_cla",
        "--width", "8", "--block", "4", "--csv", str(target),
    ])
    assert code == 0
    assert target.read_text() == (GOLDEN / "compare_cia_w8.csv").read_text()


def test_compare_wide_rows_skip_verification(capsys):
    assert run(["compare", "--archs", "rca", "--width", "15"]) == 0
    out = capsys.readouterr().out
    assert "n/a" in out  # verified column
    assert "31.00" in out


# -- round trip through the CLI ---------------------------------------------------------

def test_build_then_verify_pipeline(tmp_path, capsys):
    doc = tmp_path / "cia.json"
    assert run(["build", "--arch", "cia_cla", "--width", "6", "--block", "3", "--out", str(doc)]) == 0
    capsys.readouterr()
    assert run(["verify", "--in", str(doc), "--width", "6"]) == 0
    assert capsys.readouterr().out == "8192 cases, 0 failures\n"
    assert import_json(doc.read_text()).name == "cia_cla_w6_b3"
