"""Brute-force references the tests pin expected values against.

These deliberately avoid the library's dynamic-programming timing pass:
the delay oracle enumerates every input-to-output path and sums gate
delays along each one, so agreement is meaningful.  Only use it on small
netlists; path counts grow exponentially.

The reference equivalence checkers are the obvious path the bit-plane
checkers in ``adderlab.verify`` are tested against: operands unpacked
into one uint8 array per input port, simulated with ``Netlist.evaluate``,
and packed back into integers for comparison.

``reference_doc_order`` is the quadratic form of the lowest-index-first
topological sort that ``import_json`` runs on a document's gate list.
"""

import numpy as np

from adderlab.verify import (
    FAILURE_CAP,
    EquivalenceReport,
    Failure,
    boundary_cases,
    oracle_add,
)


def iter_path_delays(netlist, model, net_id):
    """Yield the summed gate delay of every path ending at ``net_id``."""
    gi = netlist.drivers[net_id.index]
    if gi is not None:
        gate = netlist.gates[gi]
        d = model.gate_delay(gate.kind, len(gate.inputs))
        for nid in gate.inputs:
            for tail in iter_path_delays(netlist, model, nid):
                yield tail + d
    else:
        yield 0.0


def brute_force_delay(netlist, model):
    """Longest path delay to any output port, by exhaustive enumeration."""
    best = 0.0
    for _, nid in netlist.outputs:
        best = max(best, max(iter_path_delays(netlist, model, nid)))
    return best


# -- document gate order ---------------------------------------------------------

def reference_doc_order(gates):
    """Document gate indices in the order ``import_json`` builds them.

    Over and over, place the lowest-index unplaced gate none of whose
    inputs is driven by an unplaced gate.  On a loop this stops early:
    the gates never placed are the ones on or behind the loop.
    """
    driver = {gate["output"]: gi for gi, gate in enumerate(gates)}
    placed = []

    def ready(gi):
        return gi not in placed and all(
            ref not in driver or driver[ref] in placed for ref in gates[gi]["inputs"]
        )

    while (gi := next((gi for gi in range(len(gates)) if ready(gi)), None)) is not None:
        placed.append(gi)
    return placed


# -- per-case equivalence checkers ---------------------------------------------

_CHUNK = 1 << 18


def _bit_assignment(width, a, b, cin):
    asg = {f"a_{i}": ((a >> np.uint64(i)) & 1).astype(np.uint8) for i in range(width)}
    asg |= {f"b_{i}": ((b >> np.uint64(i)) & 1).astype(np.uint8) for i in range(width)}
    asg["cin"] = cin.astype(np.uint8)
    return asg


def _packed(outputs, width, n):
    """s_0..s_{w-1} and cout as integer arrays; constants broadcast to length n."""
    total = np.zeros(n, dtype=np.uint64)
    for i in range(width):
        total |= np.asarray(outputs[f"s_{i}"], dtype=np.uint64) << np.uint64(i)
    cout = np.broadcast_to(np.asarray(outputs["cout"], dtype=np.uint64), (n,))
    return total, cout


def reference_check_exhaustive(netlist, width):
    """check_exhaustive's report, computed case by case in (a, b, cin) order."""
    mask = np.uint64((1 << width) - 1)
    cases = 1 << (2 * width + 1)
    failures, failure_count = [], 0
    for start in range(0, cases, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, cases), dtype=np.uint64)
        a, b, cin = idx >> np.uint64(width + 1), (idx >> np.uint64(1)) & mask, idx & np.uint64(1)
        got_sum, got_cout = _packed(netlist.evaluate(_bit_assignment(width, a, b, cin)), width, len(idx))
        total = a + b + cin
        exp_sum, exp_cout = total & mask, total >> np.uint64(width)
        bad = np.flatnonzero((got_sum != exp_sum) | (got_cout != exp_cout))
        failure_count += len(bad)
        for j in bad[: max(0, FAILURE_CAP - len(failures))]:
            failures.append(Failure(
                int(a[j]), int(b[j]), int(cin[j]),
                int(exp_sum[j]), int(exp_cout[j]), int(got_sum[j]), int(got_cout[j]),
            ))
    return EquivalenceReport(
        netlist=netlist.name, width=width, mode="exhaustive", cases_checked=cases,
        failure_count=failure_count, failures=tuple(failures),
    )


def reference_check_random(netlist, width, samples, seed):
    """check_random's report: the same PCG64 draws, checked case by case."""
    rng = np.random.Generator(np.random.PCG64(seed))
    mask = (1 << width) - 1
    nbytes = (width + 7) // 8
    cases = list(boundary_cases(width))
    for _ in range(samples):
        a = int.from_bytes(rng.bytes(nbytes), "little") & mask
        b = int.from_bytes(rng.bytes(nbytes), "little") & mask
        cases.append((a, b, int(rng.integers(0, 2))))
    n = len(cases)
    idx = np.arange(n)
    asg = {
        f"{op}_{i}": np.array([(case[k] >> i) & 1 for case in cases], dtype=np.uint8)
        for k, op in enumerate("ab") for i in range(width)
    }
    asg["cin"] = np.array([case[2] for case in cases], dtype=np.uint8)
    outputs = netlist.evaluate(asg)
    got = [
        (sum(int(np.broadcast_to(outputs[f"s_{i}"], (n,))[j]) << i for i in range(width)),
         int(np.broadcast_to(outputs["cout"], (n,))[j]))
        for j in idx
    ]
    bad = sorted(
        (j for j in idx if got[j] != oracle_add(*cases[j], width)), key=lambda j: cases[j]
    )
    failures = tuple(
        Failure(*cases[j], *oracle_add(*cases[j], width), *got[j]) for j in bad[:FAILURE_CAP]
    )
    return EquivalenceReport(
        netlist=netlist.name, width=width, mode="random", cases_checked=n,
        failure_count=len(bad), failures=failures,
        seed=seed, samples=samples, generator="pcg64",
    )
