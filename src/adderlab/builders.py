"""Adder netlist generators.

Four architectures share one port contract: inputs a_0..a_{w-1},
b_0..b_{w-1}, cin (bit 0 is the LSB); outputs s_0..s_{w-1}, cout.

* ripple-carry (rca): a chain of five-gate full adders.
* carry-lookahead (cla): single-level sum-of-products carries over
  propagate/generate pairs, flattened wide gates; an optional fan-in
  limit rebuilds wide gates as balanced trees.
* carry-increment (cia_rca / cia_cla): the operand is cut into blocks.
  Block 0 consumes the external cin.  Every later block adds its slice
  with a zero carry-in, then a half-adder chain bumps the partial sum by
  the previous stage's effective carry; the stage's own carry-out and
  the chain's carry-out are ORed into the next effective carry.  The two
  can never be 1 together, which is what probe_invariant_carry_exclusive
  checks on the inputs of the OR gates whose indices are recorded here.

Past the ports, the gate-level fragments work on plain net ints: they
append gates through ``NetlistBuilder._gate``, which checks nothing, and
take each lookahead product term as one slice of the reversed propagate
nets.  The checking is ``Netlist()``'s, which ``finish()`` runs: every
net's range and single source, dependency order, kind and fan-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BadFanIn, BlockTooLarge, InvalidParameter, ZeroWidth
from .netlist import GateKind, Netlist, NetlistBuilder, _require_int


class Architecture(Enum):
    RCA = "rca"
    CLA = "cla"
    CIA_RCA = "cia_rca"
    CIA_CLA = "cia_cla"

    @property
    def is_cia(self) -> bool:
        return self in (Architecture.CIA_RCA, Architecture.CIA_CLA)

    @property
    def block_kind(self) -> "Architecture":
        """The adder used inside one carry-increment block."""
        if self is Architecture.CIA_RCA:
            return Architecture.RCA
        if self is Architecture.CIA_CLA:
            return Architecture.CLA
        return self


@dataclass(frozen=True)
class AdderSpec:
    """Request for one adder netlist.  block_size only matters for CIA archs."""

    arch: Architecture
    width: int
    block_size: int = 4
    max_fanin: int | None = None  # None = unlimited


def adder_port_names(width: int) -> tuple[list[str], list[str]]:
    """The (input, output) port names every adder of this width must expose."""
    ins = [f"a_{i}" for i in range(width)] + [f"b_{i}" for i in range(width)] + ["cin"]
    outs = [f"s_{i}" for i in range(width)] + ["cout"]
    return ins, outs


def _check_width(width: int, what: str = "width") -> int:
    width = _require_int(width, what)
    if width < 1:
        raise ZeroWidth(f"{what} must be >= 1, got {width}")
    return width


def _check_fanin(max_fanin: int | None) -> None:
    if max_fanin is None:
        return
    _require_int(max_fanin, "max_fanin")
    if max_fanin < 2:
        raise BadFanIn(f"max_fanin must be >= 2 or unlimited, got {max_fanin}")


# -- gate-level fragments ----------------------------------------------------

_AND, _OR, _XOR = GateKind.AND, GateKind.OR, GateKind.XOR


def _half_adder(b: NetlistBuilder, x: int, y: int, stage: str | None = None) -> tuple[int, int]:
    return b._gate(_XOR, (x, y), stage), b._gate(_AND, (x, y), stage)


def _full_adder(b: NetlistBuilder, x: int, y: int, cin: int, stage: str | None = None) -> tuple[int, int]:
    # two half adders plus the carry OR: 5 gates
    p, g = _half_adder(b, x, y, stage)
    s, t = _half_adder(b, p, cin, stage)
    return s, b._gate(_OR, (g, t), stage)


def _ripple_slice(b, a_bits, b_bits, cin, stage=None):
    sums = []
    carry = cin
    for x, y in zip(a_bits, b_bits):
        s, carry = _full_adder(b, x, y, carry, stage)
        sums.append(s)
    return sums, carry


def _tree_reduce(b, kind, nets: tuple[int, ...], max_fanin, stage=None) -> int:
    """One gate if the fan-in allows it, else a balanced k-ary tree.

    Leaves fill left subtrees first, so the shape (and the netlist) is
    deterministic for a given input order.
    """
    n = len(nets)
    if n == 1:
        return nets[0]
    if max_fanin is None or n <= max_fanin:
        return b._gate(kind, nets, stage)
    cap = max_fanin
    while cap * max_fanin < n:
        cap *= max_fanin
    children = tuple(
        _tree_reduce(b, kind, nets[i : i + cap], max_fanin, stage) for i in range(0, n, cap)
    )
    return b._gate(kind, children, stage)


def _lookahead_slice(b, a_bits, b_bits, cin, max_fanin, stage=None):
    width = len(a_bits)
    p, g = [], []
    for x, y in zip(a_bits, b_bits):
        p.append(b._gate(_XOR, (x, y), stage))
        g.append(b._gate(_AND, (x, y), stage))
    rp = tuple(reversed(p))  # rp[width-1-k] is p_k, so p_i..p_{j+1} is rp[width-1-i : width-1-j]
    carries = [cin]
    for i in range(width):
        # c_{i+1} = g_i | p_i g_{i-1} | p_i p_{i-1} g_{i-2} | ... | p_i..p_0 cin
        top = width - 1 - i
        terms = [g[i]]
        for j in range(i - 1, -1, -1):
            terms.append(_tree_reduce(b, _AND, (*rp[top : width - 1 - j], g[j]), max_fanin, stage))
        terms.append(_tree_reduce(b, _AND, (*rp[top:], cin), max_fanin, stage))
        carries.append(_tree_reduce(b, _OR, tuple(terms), max_fanin, stage))
    sums = [b._gate(_XOR, (p[i], carries[i]), stage) for i in range(width)]
    return sums, carries[width]


def _increment_slice(b, x_bits, cin, stage=None):
    ys = []
    carry = cin
    for x in x_bits:
        y, carry = _half_adder(b, x, carry, stage)
        ys.append(y)
    return ys, carry


# -- public builders -----------------------------------------------------------

def build_half_adder() -> Netlist:
    """Two gates: s = a xor b, c = a and b."""
    b = NetlistBuilder("half_adder")
    a = b.add_input("a").index
    y = b.add_input("b").index
    s, c = _half_adder(b, a, y)
    b._output("s", s)
    b._output("c", c)
    return b.finish()


def build_full_adder() -> Netlist:
    """Five gates: two half adders plus the carry OR."""
    b = NetlistBuilder("full_adder")
    a = b.add_input("a").index
    y = b.add_input("b").index
    cin = b.add_input("cin").index
    s, cout = _full_adder(b, a, y, cin)
    b._output("s", s)
    b._output("cout", cout)
    return b.finish()


def _declare_operands(b: NetlistBuilder, width: int):
    a = [b.add_input(f"a_{i}").index for i in range(width)]
    y = [b.add_input(f"b_{i}").index for i in range(width)]
    cin = b.add_input("cin").index
    return a, y, cin


def _finish_adder(b: NetlistBuilder, sums, cout, carry_merges=None) -> Netlist:
    for i, s in enumerate(sums):
        b._output(f"s_{i}", s)
    b._output("cout", cout)
    return b.finish(carry_merges=carry_merges)


def build_rca(width: int) -> Netlist:
    """Ripple-carry adder: 5*width gates, carry chained through every bit."""
    _check_width(width)
    b = NetlistBuilder(f"rca_w{width}")
    a, y, cin = _declare_operands(b, width)
    sums, cout = _ripple_slice(b, a, y, cin)
    return _finish_adder(b, sums, cout)


def build_cla_block(width: int, max_fanin: int | None = None) -> Netlist:
    """Single-level carry-lookahead adder with flattened product terms."""
    _check_width(width)
    _check_fanin(max_fanin)
    b = NetlistBuilder(f"cla_w{width}" + (f"_f{max_fanin}" if max_fanin is not None else ""))
    a, y, cin = _declare_operands(b, width)
    sums, cout = _lookahead_slice(b, a, y, cin, max_fanin)
    return _finish_adder(b, sums, cout)


def build_incrementer(width: int) -> Netlist:
    """Adds a single carry bit into an operand: a chain of width half adders."""
    _check_width(width)
    b = NetlistBuilder(f"inc_w{width}")
    xs = [b.add_input(f"x_{i}").index for i in range(width)]
    cin = b.add_input("cin").index
    ys, cout = _increment_slice(b, xs, cin)
    for i, v in enumerate(ys):
        b._output(f"y_{i}", v)
    b._output("cout", cout)
    return b.finish()


def build_cia(
    width: int,
    block_size: int,
    block_kind: Architecture,
    max_fanin: int | None = None,
) -> Netlist:
    """Carry-increment adder over ``block_size``-bit blocks.

    The last block may be narrower when block_size does not divide width.
    A single-block request degenerates to the plain block adder (with the
    stage metadata still attached, so probes treat it uniformly).
    """
    _check_width(width)
    _check_width(block_size, "block size")
    if block_size > width:
        raise BlockTooLarge(f"block size {block_size} exceeds width {width}")
    if block_kind not in (Architecture.RCA, Architecture.CLA):
        raise InvalidParameter(f"block kind must be RCA or CLA, got {block_kind}")
    _check_fanin(max_fanin)
    name = f"cia_{block_kind.value}_w{width}_b{block_size}"
    if block_kind is Architecture.CLA and max_fanin is not None:
        name += f"_f{max_fanin}"

    b = NetlistBuilder(name)
    a, y, cin = _declare_operands(b, width)
    sums: list[int] = []
    merges: list[int] = []
    eff = None
    for k, start in enumerate(range(0, width, block_size)):
        stop = min(start + block_size, width)
        stage = f"block{k}"
        block_cin = cin if k == 0 else b.constant(0).index
        if block_kind is Architecture.RCA:
            partial, block_carry = _ripple_slice(b, a[start:stop], y[start:stop], block_cin, stage)
        else:
            partial, block_carry = _lookahead_slice(
                b, a[start:stop], y[start:stop], block_cin, max_fanin, stage
            )
        if k == 0:
            sums.extend(partial)
            eff = block_carry
            continue
        inc_stage = f"inc{k}"
        bumped, inc_carry = _increment_slice(b, partial, eff, inc_stage)
        sums.extend(bumped)
        eff = b._gate(_OR, (block_carry, inc_carry), inc_stage)
        merges.append(b.gate_count - 1)
    return _finish_adder(b, sums, eff, carry_merges=merges)


def _check_spec(spec) -> None:
    """Reject anything but an ``AdderSpec`` whose arch is an ``Architecture``, with InvalidParameter."""
    if not isinstance(spec, AdderSpec):
        raise InvalidParameter(f"adder spec must be an AdderSpec, got {spec!r}")
    if not isinstance(spec.arch, Architecture):
        raise InvalidParameter(f"architecture must be an Architecture, got {spec.arch!r}")


def build_adder(spec: AdderSpec) -> Netlist:
    """Dispatch on the architecture; the netlist name encodes the shape."""
    _check_spec(spec)
    if spec.arch is Architecture.RCA:  # ripple gates take no limit, but a bad one is refused as for the others
        _check_width(spec.width)
        _check_fanin(spec.max_fanin)
        return build_rca(spec.width)
    if spec.arch is Architecture.CLA:
        return build_cla_block(spec.width, spec.max_fanin)
    return build_cia(spec.width, spec.block_size, spec.arch.block_kind, spec.max_fanin)
