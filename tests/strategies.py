"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from adderlab import GateKind, NetlistBuilder


@st.composite
def netlists(draw, names=None, min_outputs=1):
    """Builder netlists with constants, wide AND/OR gates and port-tapping outputs.

    ``names``, a strategy for strings, names the netlist and its ports;
    by default they are ``random``, ``x0``, ``x1``, … and ``y0``, ``y1``, ….
    """
    inputs = draw(st.integers(1, 4))
    if names is None:
        b = NetlistBuilder("random")
        in_names = [f"x{k}" for k in range(inputs)]
    else:
        b = NetlistBuilder(draw(names))
        in_names = draw(st.lists(names, min_size=inputs, max_size=inputs, unique=True))
    nets = [b.add_input(name) for name in in_names]
    for value in draw(st.sets(st.sampled_from([0, 1]))):
        nets.append(b.constant(value))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(list(GateKind)))
        fanin = {GateKind.NOT: 1, GateKind.XOR: 2}.get(kind) or draw(st.integers(2, 5))
        ins = draw(st.lists(st.sampled_from(nets), min_size=fanin, max_size=fanin))
        nets.append(b.add_gate(kind, ins))
    taps = draw(st.lists(st.sampled_from(nets), min_size=min_outputs, max_size=4))
    out_names = (
        [f"y{k}" for k in range(len(taps))] if names is None
        else draw(st.lists(names, min_size=len(taps), max_size=len(taps), unique=True))
    )
    for name, net in zip(out_names, taps):
        b.add_output(name, net)
    return b.finish()
