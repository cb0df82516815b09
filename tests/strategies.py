"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from adderlab import GateKind, NetlistBuilder


@st.composite
def netlists(draw):
    """Builder netlists with constants, wide AND/OR gates and port-tapping outputs."""
    b = NetlistBuilder("random")
    nets = [b.add_input(f"x{k}") for k in range(draw(st.integers(1, 4)))]
    for value in draw(st.sets(st.sampled_from([0, 1]))):
        nets.append(b.constant(value))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(list(GateKind)))
        fanin = {GateKind.NOT: 1, GateKind.XOR: 2}.get(kind) or draw(st.integers(2, 5))
        ins = draw(st.lists(st.sampled_from(nets), min_size=fanin, max_size=fanin))
        nets.append(b.add_gate(kind, ins))
    taps = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=4))
    for k, net in enumerate(taps):
        b.add_output(f"y{k}", net)
    return b.finish()
