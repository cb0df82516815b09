"""The three workloads: their op lists, inputs and output checks.

Each op is one closed-loop call into adderlab's public API.  ``call``
is the timed part; ``observe`` turns its raw result into a small dict
of comparable fields (exit code, text, digests, counts) outside the
timed region, and the op passes when that dict equals the entry
recorded in ``expected.json`` for the op's name.

Sizes live in ``SCALES``: ``full`` is what the benchmark measures,
``tiny`` serves the warm-up and the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

SCALES = {
    "full": {
        "sweep": {"width": 12, "block": 4, "probe_width": 10, "probe_block": 4, "mutant_width": 8},
        "random": {"width": 64, "samples": 100_000, "block": 8},
        "analyze": [
            ("cla", ["--arch", "cla", "--width", "128"], "log2"),
            ("cia_cla", ["--arch", "cia_cla", "--width", "128", "--block", "8"], "unit"),
            ("rca", ["--arch", "rca", "--width", "512"], "unit"),
        ],
    },
    "tiny": {
        "sweep": {"width": 4, "block": 2, "probe_width": 4, "probe_block": 2, "mutant_width": 4},
        "random": {"width": 16, "samples": 200, "block": 4},
        "analyze": [
            ("cla", ["--arch", "cla", "--width", "8"], "log2"),
            ("cia_cla", ["--arch", "cia_cla", "--width", "8", "--block", "4"], "unit"),
            ("rca", ["--arch", "rca", "--width", "16"], "unit"),
        ],
    },
}

WORKLOADS = ("sweep", "random", "analyze")


@dataclass
class Op:
    """One timed call plus how to read and judge what it produced.

    ``work`` is the op's share of the workload's throughput unit:
    (a, b, cin) cases for ``sweep`` and ``random``, gates for ``analyze``.
    """

    name: str
    call: Callable[[], Any]
    observe: Callable[[Any], dict]
    work: int = 0
    primary: bool = False


def _sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _cli(lib, argv: list[str]) -> tuple[int, str, str]:
    """Run ``adderlab.cli.run`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def check(scale: str, op: Op, observed: dict) -> str | None:
    """None when ``observed`` matches the recorded entry, else what differs."""
    want = EXPECTED[scale].get(op.name)
    if want is None:
        return f"{op.name}: no expected entry for scale '{scale}'"
    diffs = [
        f"{key}: expected {want.get(key)!r}, got {observed.get(key)!r}"
        for key in sorted(set(want) | set(observed))
        if want.get(key) != observed.get(key)
    ]
    return f"{op.name}: " + "; ".join(diffs) if diffs else None


def _sweep_ops(lib, p: dict, rng: random.Random, workdir: Path, scale: str) -> list[Op]:
    width = p["width"]
    archs = "rca,cla,cia_rca,cia_cla"
    compare_argv = ["compare", "--archs", archs, "--width", str(width), "--block", str(p["block"])]

    def observe_cli(raw):
        rc, out, err = raw
        return {"rc": rc, "stdout": out, "stderr": err}

    ops = [
        Op("compare", lambda: _cli(lib, compare_argv), observe_cli,
           work=4 << (2 * width + 1), primary=True),
    ]
    pw = p["probe_width"]
    for arch in ("cia_rca", "cia_cla"):
        netlist = lib.build_adder(lib.AdderSpec(lib.Architecture(arch), pw, p["probe_block"]))
        ops.append(Op(
            f"probe_{arch}",
            lambda n=netlist: lib.probe_invariant_carry_exclusive(n, pw),
            lambda holds: {"invariant_holds": holds},
            work=1 << (2 * pw + 1),
        ))
    mw = p["mutant_width"]
    mutant = lib.build_rca(mw).with_gate_kind(1, lib.GateKind.XOR)
    ops.append(Op(
        "mutant_rca_g1_xor",
        lambda: lib.check_exhaustive(mutant, mw),
        lambda r: {"cases": r.cases_checked, "failures": r.failure_count},
        work=1 << (2 * mw + 1),
    ))
    rng.shuffle(ops)
    return ops


def _random_ops(lib, p: dict, rng: random.Random, workdir: Path, scale: str) -> list[Op]:
    shapes = {
        "verify_rca": ["--arch", "rca"],
        "verify_cia_cla": ["--arch", "cia_cla", "--block", str(p["block"])],
    }
    line = re.compile(r"^(\d+) cases, (\d+) failures$", re.M)

    def observe(raw):
        rc, out, err = raw
        m = line.search(out)
        return {
            "rc": rc,
            "cases": int(m.group(1)) if m else None,
            "failures": int(m.group(2)) if m else None,
            "stderr": err,
        }

    ops = []
    for name, shape in shapes.items():
        base = ["verify", *shape, "--width", str(p["width"]), "--random", str(p["samples"])]
        # A fresh library seed per call; the benchmark seed fixes the sequence.
        ops.append(Op(
            name,
            lambda base=base: _cli(lib, base + ["--seed", str(rng.randrange(1 << 31))]),
            observe,
            work=p["samples"] + 4,
            primary=True,
        ))
    rng.shuffle(ops)
    return ops


def _analyze_ops(lib, shapes: list, rng: random.Random, workdir: Path, scale: str) -> list[Op]:
    placeholder = str(workdir)
    summary = re.compile(r"^gates: (\d+) .*^critical path \(\w+ model\): ([\d.]+) gate delays$",
                         re.M | re.S)

    def digest_file(path: Path, consume: bool = True) -> str | None:
        """Digest of a file the op wrote; consuming it keeps a stale copy from passing later."""
        if not path.is_file():
            return None
        digest = _sha256(path.read_bytes())
        if consume:
            path.unlink()
        return digest

    shapes = list(shapes)
    rng.shuffle(shapes)
    ops = []
    for tag, shape, model in shapes:
        dot, verilog, doc = (workdir / f"{tag}.{ext}" for ext in ("dot", "v", "json"))

        def observe_analyze(raw, dot=dot, verilog=verilog):
            rc, out, err = raw
            m = summary.search(out)
            return {
                "rc": rc,
                "gates": int(m.group(1)) if m else None,
                "delay": m.group(2) if m else None,
                "stdout_sha256": _sha256(out.replace(placeholder, "{dir}")),
                "stderr": err,
                "dot_sha256": digest_file(dot),
                "verilog_sha256": digest_file(verilog),
            }

        def observe_build(raw, doc=doc):
            rc, out, err = raw
            return {
                "rc": rc,
                "stdout": out.replace(placeholder, "{dir}"),
                "stderr": err,
                "json_sha256": digest_file(doc, consume=False),
            }

        def round_trip(doc=doc):
            text = doc.read_text()
            netlist = lib.import_json(text)
            return text, lib.export_json(netlist), len(netlist.gates)

        def observe_round_trip(raw, doc=doc):
            text, again, gates = raw
            doc.unlink()
            return {"identical": again == text, "gates": gates, "json_sha256": _sha256(text)}

        analyze_argv = ["analyze", *shape, "--model", model, "--dot", str(dot), "--verilog", str(verilog)]
        build_argv = ["build", *shape, "--out", str(doc)]
        # Throughput counts each analysed netlist's gates once, as recorded.
        gates = EXPECTED[scale][f"analyze_{tag}"]["gates"]
        ops.append(Op(f"analyze_{tag}", lambda argv=analyze_argv: _cli(lib, argv), observe_analyze,
                      work=gates, primary=tag == "cla"))
        ops.append(Op(f"build_{tag}", lambda argv=build_argv: _cli(lib, argv), observe_build))
        ops.append(Op(f"round_trip_{tag}", round_trip, observe_round_trip))
    return ops


_BUILDERS = {"sweep": _sweep_ops, "random": _random_ops, "analyze": _analyze_ops}


def make_ops(lib, workload: str, scale: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's op list at ``scale``; ``seed`` fixes op order and library seeds."""
    return _BUILDERS[workload](lib, SCALES[scale][workload], random.Random(seed), workdir, scale)
