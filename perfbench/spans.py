"""Per-layer tracing from outside the library.

``Tracer.installed(lib)`` wraps adderlab's public functions and the
``Netlist`` methods with span recorders for as long as the ``with``
block lasts, then puts the originals back.  Nothing under ``src/`` is
changed.  ``cli`` and ``analysis`` import functions by name, so every
module namespace in the package that holds the original function gets
the wrapper, not just the defining module.

Spans nest on a stack (the library is single-threaded).  A span's self
time is its duration minus the durations of the spans it called, so
each second is charged to exactly one layer.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter
from time import perf_counter

# (layer, key, defining module, attribute names).  Keys name the
# per-layer metrics; a key shared by several functions sums them.
_FUNCTIONS = [
    ("cli", "cli", "adderlab.cli", ["run"]),
    ("analysis", "analysis", "adderlab.analysis",
     ["compare", "delay_report", "area_report", "format_comparison"]),
    ("builders", "builders.build", "adderlab.builders",
     ["build_adder", "build_rca", "build_cla_block", "build_cia", "build_incrementer",
      "build_half_adder", "build_full_adder"]),
    ("verify", "verify", "adderlab.verify",
     ["check_exhaustive", "check_random", "probe_invariant_carry_exclusive"]),
    ("io", "io.export_json", "adderlab.io", ["export_json"]),
    ("io", "io.import_json", "adderlab.io", ["import_json"]),
    ("io", "io.export_dot", "adderlab.io", ["export_dot"]),
    ("io", "io.export_verilog", "adderlab.io", ["export_verilog"]),
    ("io", "io.export_other", "adderlab.io", ["export_csv", "export_report"]),
]
_METHODS = [
    ("netlist", "netlist.eval", ["evaluate_nets"]),
    ("netlist", "netlist.topo", ["topo_order"]),
    ("netlist", "netlist.timing", ["arrival_times", "critical_path"]),
]


def _batch(assignment) -> int:
    """Cases in one evaluate_nets call: the length of its array inputs, else 1."""
    return max((getattr(v, "size", 1) for v in assignment.values()), default=1)


def _count(counts: Counter, key: str, nested: bool, args, kwargs, result) -> None:
    """Work done by one call, counted where the call happens."""
    counts[key + ".calls"] += 1
    if key == "netlist.eval":
        netlist, assignment = args[0], (args[1] if len(args) > 1 else kwargs["assignment"])
        counts["netlist.gate_evals"] += len(netlist.gates) * _batch(assignment)
    elif key == "verify":
        if isinstance(result, bool):  # the invariant probe sweeps every case
            width = args[1] if len(args) > 1 else kwargs["width"]
            counts["verify.cases"] += 1 << (2 * width + 1)
        else:
            counts["verify.cases"] += result.cases_checked
    elif key == "builders.build" and not nested:
        counts["builders.gates"] += len(result.gates)
    elif key == "io.import_json":
        text = args[0] if args else kwargs["text"]
        counts["io.bytes"] += len(text.encode())
    elif key.startswith("io."):
        counts["io.bytes"] += len(result.encode())


class Tracer:
    """Accumulates self seconds per key, inclusive seconds per layer, and counts."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.self_s: Counter = Counter()
        self.inclusive_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []

    def _wrap(self, layer: str, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [layer, 0.0]  # layer, seconds spent in child spans
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                tracer.self_s[key] += elapsed - frame[1]
                nested = parent is not None and parent[0] == layer
                if not nested:
                    tracer.inclusive_s[layer] += elapsed
                if parent is not None:
                    parent[1] += elapsed
            _count(tracer.counts, key, nested, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, lib):
        """Wrap the library's entry points for the duration of the block."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == lib.__name__ or name.startswith(lib.__name__ + "."))]
        wrappers = {}
        for layer, key, module_name, names in _FUNCTIONS:
            module = sys.modules.get(module_name)
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    wrappers[id(fn)] = self._wrap(layer, key, fn)
        undo = []
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    undo.append((module, name, value))
                    setattr(module, name, wrapper)
        netlist_cls = sys.modules[lib.__name__ + ".netlist"].Netlist
        for layer, key, names in _METHODS:
            for name in names:
                fn = netlist_cls.__dict__.get(name)
                if fn is not None:
                    undo.append((netlist_cls, name, fn))
                    setattr(netlist_cls, name, self._wrap(layer, key, fn))
        try:
            yield self
        finally:
            for owner, name, value in reversed(undo):
                setattr(owner, name, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced op list."""
    s, incl, c = tracer.self_s, tracer.inclusive_s, tracer.counts

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    io_keys = ("io.export_json", "io.import_json", "io.export_dot", "io.export_verilog",
               "io.export_other")
    io_s = sum(s[k] for k in io_keys)
    return {
        "verify.self_s": s["verify"],
        "verify.cases": c["verify.cases"],
        "verify.cases_per_s": rate(c["verify.cases"], incl["verify"]),
        "netlist.eval_s": s["netlist.eval"],
        "netlist.eval_calls": c["netlist.eval.calls"],
        "netlist.gate_evals": c["netlist.gate_evals"],
        "netlist.gate_evals_per_s": rate(c["netlist.gate_evals"], s["netlist.eval"]),
        "netlist.topo_s": s["netlist.topo"],
        "netlist.topo_calls": c["netlist.topo.calls"],
        "netlist.timing_s": s["netlist.timing"],
        "netlist.timing_passes": c["netlist.timing.calls"],
        "builders.build_s": s["builders.build"],
        "builders.gates": c["builders.gates"],
        "builders.gates_per_s": rate(c["builders.gates"], incl["builders"]),
        "io.export_json_s": s["io.export_json"],
        "io.import_json_s": s["io.import_json"],
        "io.export_dot_s": s["io.export_dot"],
        "io.export_verilog_s": s["io.export_verilog"],
        "io.bytes": c["io.bytes"],
        "io.bytes_per_s": rate(c["io.bytes"], io_s),
        "analysis.self_s": s["analysis"],
        "cli.self_s": s["cli"],
    }
