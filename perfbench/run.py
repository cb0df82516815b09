"""Host-time benchmark for adderlab.

    python3 perfbench/run.py --workload sweep|random|analyze --seed N \
        --seconds S --trace 0|1

Run from any directory; the library is imported from ``src/`` of the
checkout that holds this file, and the ops' output files go to a temporary
directory inside that checkout.  One process, one client, closed loop:
each op starts when the previous one has finished.  The workload's op
list is repeated until ``--seconds`` would be exceeded (at least twice),
with an untimed ``gc.collect()``, output check and extra timed set-up
between ops.

Human-readable lines come first, then a ``record:`` line with the full
result (machine, seed, per-op medians, failures), and last the result
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the op lists alternate between traced and untraced and the metrics are
the per-layer ones.  See README.md for what each metric means.
"""

from __future__ import annotations

import os

# One process with no extra threads: keep numpy's BLAS pool from starting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_LISTS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "op_tail_s": "s",
    "peak_rss_mb": "MiB",
}
# Printed and recorded but not in the result object: on the reference
# machine its run-to-run spread on ``analyze`` exceeds any allowed bound.
REPORTED_ONLY = {"op_p50_s": "s"}
PER_LAYER = {
    "verify.self_s": "s",
    "verify.cases": "count",
    "verify.cases_per_s": "1/s",
    "netlist.eval_s": "s",
    "netlist.eval_calls": "count",
    "netlist.gate_evals": "count",
    "netlist.gate_evals_per_s": "1/s",
    "netlist.topo_s": "s",
    "netlist.topo_calls": "count",
    "netlist.timing_s": "s",
    "netlist.timing_passes": "count",
    "builders.build_s": "s",
    "builders.gates": "count",
    "builders.gates_per_s": "1/s",
    "io.export_json_s": "s",
    "io.import_json_s": "s",
    "io.export_dot_s": "s",
    "io.export_verilog_s": "s",
    "io.bytes": "B",
    "io.bytes_per_s": "B/s",
    "analysis.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
THROUGHPUT_NAME = {"sweep": "cases_per_s", "random": "cases_per_s", "analyze": "gates_per_s"}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no library source)."""


def _loaded() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "adderlab" or n.startswith("adderlab.")}


def load_library(root: Path = ROOT):
    """Import adderlab afresh from ``root/src``, dropping any copy already loaded."""
    src = root / "src"
    if not (src / "adderlab" / "__init__.py").is_file():
        raise BenchError(f"no adderlab sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in _loaded():
        del sys.modules[name]
    lib = importlib.import_module("adderlab")
    importlib.import_module("adderlab.cli")
    if Path(lib.__file__).resolve().parent != (src / "adderlab").resolve():
        raise BenchError(f"adderlab was imported from {lib.__file__}, not from {src}")
    return lib


def setup(workload: str, scale: str, seed: int, workdir: Path):
    """Import plus input generation, timed; returns (seconds, library, ops)."""
    start = time.perf_counter()
    lib = load_library()
    ops = workloads.make_ops(lib, workload, scale, seed, workdir)
    return time.perf_counter() - start, lib, ops


def resample_setup(workload: str, scale: str, seed: int, workdir: Path) -> float:
    """Time one more set-up, then put the library in use back in ``sys.modules``."""
    in_use = _loaded()
    try:
        return setup(workload, scale, seed, workdir)[0]
    finally:
        for name in _loaded():
            del sys.modules[name]
        sys.modules.update(in_use)


def run_list(ops, scale: str, failures: list[str],
             between=lambda: None) -> tuple[float, list[tuple[str, float]], int]:
    """Run every op once, calling ``between()`` untimed before each.

    Returns (timed seconds, per-op latencies, failed ops).
    """
    wall, times, failed = 0.0, [], 0
    for op in ops:
        between()
        gc.collect()
        start = time.perf_counter()
        try:
            raw = op.call()
        except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
            elapsed = time.perf_counter() - start
            problem = f"{op.name}: raised {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            try:
                problem = workloads.check(scale, op, op.observe(raw))
            except Exception as exc:
                problem = f"{op.name}: output unreadable: {type(exc).__name__}: {exc}"
        wall += elapsed
        times.append((op.name, elapsed))
        if problem is not None:
            failed += 1
            failures.append(problem)
    return wall, times, failed


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it, at least p90.

    Nearest rank.  Below 100 samples p90 has fewer than ten beyond it;
    the record states the sample count so the reader can judge.
    """
    n = len(samples)
    pct = max(90.0, 100.0 * (1 - 10 / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, sorted(samples)[rank - 1]


def _commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from files; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(root: Path = ROOT) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "adderlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(root),
        "src_sha256": digest.hexdigest(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 scale: str = "full", lib_hook=None) -> dict:
    """Set up, warm up, measure; returns the full record.

    The set-up whose library and ops the run uses comes first.  One more
    set-up is timed, and its result dropped, before every timed op, so
    set-up time is sampled across the whole run and a burst of load on
    the machine moves its median less.  Output files of the ops go to
    ``workdir``.  ``lib_hook(lib)``, if given, runs on the library before
    measurement, so tests can inject faults.
    """
    elapsed, lib, ops = setup(workload, scale, seed, workdir)
    setup_times = [elapsed]
    if lib_hook is not None:
        lib_hook(lib)
    failures: list[str] = []

    warm_dir = workdir / "warmup"
    warm_dir.mkdir(parents=True, exist_ok=True)
    warm_ops = workloads.make_ops(lib, workload, "tiny", seed, warm_dir)
    attempted = len(warm_ops)
    failed = run_list(warm_ops, "tiny", failures)[2]

    def resample():
        setup_times.append(resample_setup(workload, scale, seed, workdir))

    tracer = spans.Tracer()
    walls = {True: [], False: []}
    op_times: dict[str, list[float]] = {op.name: [] for op in ops}
    layer_lists: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[True]) <= len(walls[False])
        tracer.reset()
        if traced:
            with tracer.installed(lib):
                wall, times, bad = run_list(ops, scale, failures, resample)
            layer_lists.append(spans.layer_metrics(tracer))
        else:
            wall, times, bad = run_list(ops, scale, failures, resample)
        walls[traced].append(wall)
        for name, elapsed in times:
            op_times[name].append(elapsed)
        attempted += len(ops)
        failed += bad
        done = len(walls[True]) + len(walls[False])
        typical = (time.perf_counter() - start) / done
        if done >= MIN_LISTS and time.perf_counter() - start + typical > seconds:
            break

    primary = [t for op in ops if op.primary for t in op_times[op.name]]
    pct, tail_s = tail(primary)
    work = sum(op.work for op in ops)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "machine": machine(),
        "lists": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "list_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "failures": failures[:20],
        "op_median_s": {name: statistics.median(ts) for name, ts in op_times.items()},
        "op_samples_s": op_times,
        "primary_ops": [op.name for op in ops if op.primary],
        "op_tail_pct": pct,
        "op_samples": len(primary),
        "setup_samples": len(setup_times),
        "work_per_list": work,
        "throughput_name": THROUGHPUT_NAME[workload],
    }
    if trace:
        layers = {name: statistics.median(m[name] for m in layer_lists)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        layers["trace.traced_wall_s"] = statistics.median(walls[True])
        values, units = layers, dict(PER_LAYER, **{"trace.traced_wall_s": "s"})
    else:
        # A tail, not a median or mean, over lists: load on the reference
        # machine comes in bursts of seconds to minutes that slow a pass by
        # up to 1.8x.  Nearly every run sees a burst, so the tail pass is
        # steady from run to run where the typical pass is not.
        wall_pct, wall = tail(walls[False])
        record["wall_pct"] = wall_pct
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "throughput_per_s": work / wall,
            "op_p50_s": statistics.median(primary),
            "op_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END, **REPORTED_ONLY)
    record["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return record


def result_line(record: dict) -> dict:
    """The contract's result object: the metrics BENCHMARK.json declares, nothing else."""
    names = PER_LAYER if record["trace"] else END_TO_END
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name in names},
    }


def _report(record: dict) -> None:
    m = record["machine"]
    print(f"adderlab perfbench: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} scale={record['scale']}")
    print(f"machine: {m['cpu_count']} cpus, Python {m['python']}, numpy {m['numpy']}, "
          f"commit {m['commit'] or 'unknown (not a git checkout)'}, src {m['src_sha256'][:12]}")
    notes = {
        "setup_s": f"median of {record['setup_samples']} set-ups",
        "wall_s": f"p{record.get('wall_pct', 0):g} nearest rank of {record['lists']['untraced']} op lists",
        "throughput_per_s": f"{record['throughput_name']}, {record['work_per_list']} per op list",
        "op_p50_s": f"{'+'.join(record['primary_ops'])}, {record['op_samples']} samples",
        "op_tail_s": f"p{record['op_tail_pct']:g} nearest rank of {record['op_samples']} samples",
    }
    for name, metric in record["metrics"].items():
        print(f"  {name:26s} {metric['value']:>16.6g} {metric['unit']:6s} {notes.get(name, '')}")
    print(f"  {'fail_rate':26s} {record['fail_rate']:>16.6g} ratio  "
          f"{record['failed']} of {record['attempted']} ops failed")
    for problem in record["failures"]:
        print(f"  FAIL {problem[:400]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  Path(workdir))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _report(record)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
