"""Core netlist behavior: building, freezing, evaluation, dependency order, timing."""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adderlab import (
    AdderLabError,
    AdderSpec,
    CombinationalLoop,
    DelayModel,
    DuplicatePortName,
    FanInViolation,
    FaninPenalty,
    Gate,
    GateKind,
    InvalidAssignment,
    InvalidParameter,
    InvariantViolation,
    MissingInput,
    NetId,
    Netlist,
    NetlistBuilder,
    NetlistFrozen,
    UnknownInput,
    UnknownNet,
    build_adder,
    build_cia,
    build_cla_block,
    build_full_adder,
    build_half_adder,
    build_rca,
    export_json,
    import_json,
    Architecture,
)
from oracle import brute_force_delay, reference_drivers
from strategies import netlists


# -- builder rules ---------------------------------------------------------

def test_and_gate_evaluates_conjunction():
    b = NetlistBuilder("t")
    x = b.add_input("x")
    y = b.add_input("y")
    b.add_output("z", b.add_gate(GateKind.AND, [x, y]))
    nl = b.finish()
    for vx, vy in itertools.product((0, 1), repeat=2):
        assert nl.evaluate({"x": vx, "y": vy})["z"] == (vx & vy)


@pytest.mark.parametrize("kind,n_ok,n_bad", [
    (GateKind.AND, 3, 1),
    (GateKind.OR, 2, 1),
    (GateKind.XOR, 2, 3),
    (GateKind.NOT, 1, 2),
])
def test_gate_arity_rules(kind, n_ok, n_bad):
    b = NetlistBuilder("t")
    nets = [b.add_input(f"i{k}") for k in range(3)]
    b.add_gate(kind, nets[:n_ok])
    with pytest.raises(FanInViolation):
        b.add_gate(kind, nets[:n_bad])


@pytest.mark.parametrize("kind", ["AND", None, 0, GateKind.NOT.value])
def test_add_gate_needs_a_gate_kind(kind):
    # checked before the fan-in: two inputs would break NOT's rule
    b = NetlistBuilder("t")
    nets = [b.add_input("x"), b.add_input("y")]
    with pytest.raises(InvalidParameter, match=f"^gate kind must be a GateKind, got {kind!r}$"):
        b.add_gate(kind, nets)
    assert b.gate_count == 0


@pytest.mark.parametrize("call,message", [
    (lambda b, x: b.add_gate(GateKind.AND, 5), "^gate inputs must be iterable, got 5$"),
    (lambda b, x: b.add_gate(GateKind.NOT, x), r"^gate inputs must be iterable, got NetId\(index=0, owner=[0-9]+\)$"),
    (lambda b, x: b.finish(carry_merges=5), "^carry merges must be iterable, got 5$"),
], ids=["int inputs", "one handle as inputs", "int merges"])
def test_builder_rejects_what_is_not_iterable(call, message):
    b = NetlistBuilder("t")
    x = b.add_input("x")
    with pytest.raises(InvalidParameter, match=message):
        call(b, x)
    b.add_output("y", b.add_gate(GateKind.NOT, [x]))  # the builder is still open
    assert len(b.finish().gates) == 1


def test_wide_and_or_allowed():
    b = NetlistBuilder("t")
    nets = [b.add_input(f"i{k}") for k in range(6)]
    wide_and = b.add_gate(GateKind.AND, nets)
    wide_or = b.add_gate(GateKind.OR, nets)
    b.add_output("a", wide_and)
    b.add_output("o", wide_or)
    nl = b.finish()
    out = nl.evaluate({f"i{k}": 1 for k in range(6)})
    assert out == {"a": 1, "o": 1}
    out = nl.evaluate({f"i{k}": int(k == 3) for k in range(6)})
    assert out == {"a": 0, "o": 1}


def test_foreign_net_rejected():
    b1 = NetlistBuilder("one")
    b2 = NetlistBuilder("two")
    x1 = b1.add_input("x")
    b2.add_input("x")
    with pytest.raises(UnknownNet):
        b2.add_gate(GateKind.NOT, [x1])
    with pytest.raises(UnknownNet):
        b2.add_output("y", x1)


def test_duplicate_port_names_rejected():
    b = NetlistBuilder("t")
    x = b.add_input("x")
    with pytest.raises(DuplicatePortName):
        b.add_input("x")
    b.add_output("y", x)
    with pytest.raises(DuplicatePortName):
        b.add_output("y", x)


def test_output_port_needs_a_net_of_this_builder():
    b = NetlistBuilder("t")
    b.add_input("x")
    with pytest.raises(UnknownNet):
        b.add_output("y", None)
    with pytest.raises(UnknownNet):
        b.add_output("y", NetlistBuilder("other").add_input("x"))


def test_finish_freezes_builder():
    b = NetlistBuilder("t")
    x = b.add_input("x")
    b.add_output("y", b.add_gate(GateKind.NOT, [x]))
    b.finish()
    with pytest.raises(NetlistFrozen):
        b.add_gate(GateKind.NOT, [x])
    with pytest.raises(NetlistFrozen):
        b.add_input("z")
    with pytest.raises(NetlistFrozen):
        b.finish()


def test_constants_share_one_net_per_value():
    b = NetlistBuilder("t")
    c0 = b.constant(0)
    c1 = b.constant(1)
    assert b.constant(0) == c0
    assert b.constant(1) == c1
    b.add_output("z", b.add_gate(GateKind.NOT, [c1]))
    nl = b.finish()
    assert nl.evaluate({})["z"] == 0
    with pytest.raises(ValueError):
        NetlistBuilder("t").constant(2)


@pytest.mark.parametrize("value", [1.0, True, 2, -1, "1", None])
def test_constant_accepts_only_int_bits(value):
    b = NetlistBuilder("t")
    with pytest.raises(InvalidParameter):
        b.constant(value)
    b.add_output("z", b.constant(1))
    assert b.finish().constants[0][0] == 1


def test_numpy_integers_work_where_ints_do():
    b = NetlistBuilder("t")
    assert b.constant(np.int64(1)) == b.constant(1)
    assert b.constant(np.uint8(0)) == b.constant(0)
    with pytest.raises(InvalidParameter, match="^constant must be 0 or 1, got True$"):
        b.constant(np.bool_(True))
    b.add_output("z", b.add_gate(GateKind.AND, [b.constant(1), b.constant(0)]))
    nl = b.finish()
    assert nl.constants == ((0, 1), (1, 0)) and all(type(value) is int for value, _ in nl.constants)
    assert export_json(import_json(export_json(nl))) == export_json(nl)
    log2 = DelayModel.unit_log2()
    for fanin in (np.int64(4), np.uint8(4), np.int32(4)):
        assert log2.gate_delay(GateKind.AND, fanin) == log2.gate_delay(GateKind.AND, 4) == 2.0
        assert DelayModel.unit().gate_delay(GateKind.AND, fanin) == 1.0
    for model in (log2, DelayModel.unit()):
        for fanin in (4.0, "4", None, True, np.float64(4)):
            with pytest.raises(InvalidParameter, match=f"^fan-in must be an integer, got {re.escape(repr(fanin))}$"):
                model.gate_delay(GateKind.AND, fanin)


# -- evaluation ------------------------------------------------------------

def test_missing_and_unknown_inputs():
    nl = build_half_adder()
    with pytest.raises(MissingInput):
        nl.evaluate({"a": 1})
    with pytest.raises(UnknownInput):
        nl.evaluate({"a": 1, "b": 0, "q": 1})


def test_non_bit_values_rejected():
    nl = build_half_adder()
    with pytest.raises(ValueError):
        nl.evaluate({"a": 2, "b": 0})
    with pytest.raises(ValueError):
        nl.evaluate({"a": np.array([0, 2]), "b": np.array([1, 1])})
    with pytest.raises(ValueError):
        nl.evaluate({"a": 0.5, "b": 0})


def test_mismatched_array_lengths_raise_adderlab_error():
    nl = build_half_adder()
    with pytest.raises(InvalidAssignment, match=r"^input arrays of shapes \[\(2,\), \(3,\)\] do not broadcast") as exc:
        nl.evaluate({"a": np.array([0, 1]), "b": np.array([1, 1, 0])})
    assert isinstance(exc.value, AdderLabError) and isinstance(exc.value, ValueError)
    # arrays that broadcast together still evaluate as before
    assert list(nl.evaluate({"a": np.array([1]), "b": np.array([0, 1])})["s"]) == [1, 0]


@pytest.mark.parametrize("assignment", [[1, 0], None, (("a", 1), ("b", 0))], ids=["list", "none", "pairs"])
def test_evaluate_rejects_an_assignment_that_is_no_mapping(assignment):
    with pytest.raises(InvalidAssignment, match="^assignment must map input port names to values, got "):
        build_half_adder().evaluate(assignment)


def test_evaluate_is_pure():
    nl = build_full_adder()
    asg = {"a": 1, "b": 1, "cin": 0}
    first = nl.evaluate(asg)
    second = nl.evaluate(asg)
    assert first == second == {"s": 0, "cout": 1}


def test_vector_evaluation_matches_scalar():
    nl = build_full_adder()
    rows = list(itertools.product((0, 1), repeat=3))
    vec = nl.evaluate(
        {
            "a": np.array([r[0] for r in rows], dtype=np.uint8),
            "b": np.array([r[1] for r in rows], dtype=np.uint8),
            "cin": np.array([r[2] for r in rows], dtype=np.uint8),
        }
    )
    for j, (a, b, cin) in enumerate(rows):
        scalar = nl.evaluate({"a": a, "b": b, "cin": cin})
        assert scalar["s"] == int(vec["s"][j])
        assert scalar["cout"] == int(vec["cout"][j])


def test_simulate_planes_exposes_internal_values():
    b = NetlistBuilder("t")
    x = b.add_input("x")
    inv = b.add_gate(GateKind.NOT, [x])
    b.add_output("y", b.add_gate(GateKind.NOT, [inv]))
    nl = b.finish()
    planes = nl.simulate_planes({"x": np.array([0b01], dtype=np.uint64)}, 1)
    assert planes[inv.index][0] & 0b11 == 0b10
    assert nl.evaluate({"x": 0})["y"] == 0


def test_bool_arrays_accepted():
    nl = build_half_adder()
    out = nl.evaluate({"a": np.array([True, False]), "b": np.array([True, True])})
    assert list(out["s"]) == [0, 1]
    assert list(out["c"]) == [1, 0]


def port_taps():
    """Output ports that tap a gate, an input, a constant and a NOT of an input."""
    b = NetlistBuilder("taps")
    a, c = b.add_input("a"), b.add_input("b")
    b.add_output("and", b.add_gate(GateKind.AND, [a, c]))
    b.add_output("wire", a)
    b.add_output("one", b.constant(1))
    b.add_output("not_b", b.add_gate(GateKind.NOT, [c]))
    return b.finish()


def test_scalar_inputs_give_python_ints():
    nl = port_taps()
    for a, b in itertools.product([0, 1, np.uint8(1), np.int64(0), True, np.bool_(False)], repeat=2):
        out = nl.evaluate({"a": a, "b": b})
        assert out == {"and": int(a) & int(b), "wire": int(a), "one": 1, "not_b": 1 - int(b)}
        assert all(type(value) is int for value in out.values()), (a, b)


@pytest.mark.parametrize("a,b,shape,dtype", [
    (np.array([0, 1], np.uint8), np.array([1, 1], np.int64), (2,), np.int64),
    (np.array([1], np.uint8), np.array([[0], [1]], np.uint8), (2, 1), np.uint8),
    (np.array([1], np.int8), np.array([[0], [1]], np.uint8), (2, 1), np.int16),
    (1, np.array([0, 1], np.int8), (2,), np.int8),
    (np.array([True, False]), np.array([True, True]), (2,), np.uint8),
    (np.array([True, False]), np.array([0, 1], np.int8), (2,), np.int16),  # bool counts as uint8
    (np.zeros(0, np.uint8), 1, (0,), np.uint8),
    (np.zeros((0, 3), np.int64), np.array([1, 0, 1], np.uint8), (0, 3), np.int64),
])
def test_array_inputs_give_fresh_arrays_of_the_broadcast_shape_and_promoted_dtype(a, b, shape, dtype):
    out = port_taps().evaluate({"a": a, "b": b})
    full_a, full_b = np.broadcast_to(a, shape).astype(int), np.broadcast_to(b, shape).astype(int)
    want = {"and": full_a & full_b, "wire": full_a, "one": np.ones(shape, int), "not_b": 1 - full_b}
    assert out.keys() == want.keys()
    inputs = [value for value in (a, b) if isinstance(value, np.ndarray)]
    for name, value in out.items():
        assert isinstance(value, np.ndarray) and value.shape == shape and value.dtype == dtype, name
        assert np.array_equal(value, want[name]), name
        others = inputs + [other for key, other in out.items() if key != name]
        assert not any(np.shares_memory(value, other) for other in others), name


@pytest.mark.parametrize("a,b", [
    (np.array([1, 0], np.uint64), np.array([0, 1], np.int64)),  # numpy promotes this pair to float64
    (np.array([[1]], np.int8), np.array([0, 1], np.uint64)),
])
def test_array_inputs_without_an_integer_promotion_are_rejected(a, b):
    with pytest.raises(InvalidAssignment, match=r"^input arrays of dtypes \[.*\] promote to float"):
        build_half_adder().evaluate({"a": a, "b": b})


def test_evaluate_without_inputs_or_outputs():
    b = NetlistBuilder("constants")
    b.add_output("one", b.constant(1))
    b.add_output("zero", b.add_gate(GateKind.NOT, [b.constant(1)]))
    out = b.finish().evaluate({})
    assert out == {"one": 1, "zero": 0} and all(type(value) is int for value in out.values())
    b = NetlistBuilder("sink")
    b.add_gate(GateKind.NOT, [b.add_input("x")])
    nl = b.finish()
    assert nl.evaluate({"x": 1}) == {} == nl.evaluate({"x": np.array([[0, 1]])})


# -- dependency order ----------------------------------------------------------

def assert_dependency_order(nl):
    """Every gate input is an input, a constant or the output of an earlier gate."""
    for gi, gate in enumerate(nl.gates):
        for net in gate.inputs:
            source = nl.drivers[net]
            assert source is None or source < gi, (nl.name, gi, source)


@st.composite
def adders(draw):
    """The four builders at widths 1-12, every block size, fan-in none/2/3."""
    width = draw(st.integers(1, 12))
    arch = draw(st.sampled_from(list(Architecture)))
    return build_adder(AdderSpec(arch, width, draw(st.integers(1, width)), draw(st.sampled_from([None, 2, 3]))))


@st.composite
def stored_netlists(draw):
    """Random and built netlists, as built, as gate-kind mutants or re-imported from gate-shuffled documents."""
    nl = draw(netlists() | adders())
    how = draw(st.sampled_from(["as built", "mutant", "shuffled import"]))
    if how == "mutant" and nl.gates:
        gi = draw(st.integers(0, len(nl.gates) - 1))
        arity = len(nl.gates[gi].inputs)
        nl = nl.with_gate_kind(gi, draw(st.sampled_from([k for k in GateKind if k.arity_ok(arity)])))
    elif how == "shuffled import":
        doc = json.loads(export_json(nl))
        doc["gates"] = draw(st.permutations(doc["gates"]))
        nl = import_json(json.dumps(doc))
    return nl


@settings(max_examples=300, deadline=None)
@given(stored_netlists())
def test_gates_are_stored_in_dependency_order(nl):
    assert_dependency_order(nl)


def gate_order(nl):
    """The stored gates as (kind, input nets, output net)."""
    return [(g.kind, g.inputs, g.output) for g in nl.gates]


def test_topo_order_is_deterministic_and_consistent():
    nl = build_cia(8, 4, Architecture.CLA)
    assert gate_order(nl) == gate_order(build_cia(8, 4, Architecture.CLA))
    assert_dependency_order(nl)
    doc = json.loads(export_json(nl))
    doc["gates"].reverse()
    text = json.dumps(doc)
    assert gate_order(import_json(text)) == gate_order(import_json(text))
    assert_dependency_order(import_json(text))


def test_builder_order_is_already_topological():
    # builder can only reference existing nets, so gate outputs ascend in build order
    nl = build_rca(6)
    assert_dependency_order(nl)
    outputs = [gate.output for gate in nl.gates]
    assert outputs == sorted(outputs)
    assert [nl.drivers[i] for i in outputs] == list(range(len(nl.gates)))


def hand_built(gates, inputs=(("x", 0), ("y", 1)), outputs=(), constants=()):
    """A Netlist made from raw tables of net indices."""
    return Netlist(
        "hand",
        tuple(Gate(kind, tuple(ins), out) for kind, ins, out in gates),
        tuple(inputs),
        tuple(outputs),
        tuple(constants),
    )


def test_hand_built_tables_in_dependency_order_are_accepted():
    nl = hand_built([(GateKind.AND, (0, 2), 3), (GateKind.NOT, (3,), 4)], outputs=(("z", 4),), constants=((1, 2),))
    assert nl.drivers == (None, None, None, 0, 1)
    assert nl.evaluate({"x": 1, "y": 0}) == {"z": 0}


def test_combinational_loop_detected():
    # builders cannot create cycles, so wire one up by hand
    gates = (
        Gate(GateKind.NOT, (0,), 1),
        Gate(GateKind.NOT, (1,), 0),
    )
    with pytest.raises(CombinationalLoop) as exc:
        Netlist("loop", gates, (), ())
    assert set(exc.value.gates) == {0, 1}


@pytest.mark.parametrize("gates,pair", [
    ([(GateKind.NOT, (2,), 2)], (0, 0)),  # reads its own output
    ([(GateKind.AND, (0, 3), 2), (GateKind.NOT, (1,), 3)], (0, 1)),  # acyclic, but reads a later gate
])
def test_gate_reading_no_earlier_gate_is_rejected(gates, pair):
    with pytest.raises(CombinationalLoop, match="which is not earlier") as exc:
        hand_built(gates)
    assert exc.value.gates == pair


def checked_nets(check, name, gates, inputs, outputs, constants):
    """("ok", ``check``'s drivers table of the tables), or the type, message and gates of what it raises."""
    try:
        return "ok", check(name, gates, inputs, outputs, constants)
    except AdderLabError as exc:
        return type(exc), str(exc), getattr(exc, "gates", None)


def netlist_drivers(*tables):
    return Netlist(*tables).drivers


# Fan-in entries that are no net whatever the net count
ODD_ENTRIES = [3.0, True, -1, np.int64(2), "1"]


@st.composite
def relabelled_tables(draw):
    """A builder netlist's tables with its nets relabelled, and maybe one fan-in entry replaced
    by one that is no net, or by the output of the reading gate or of a later one.

    The relabelling is the identity, a random permutation (gate outputs
    then mostly do not ascend), or one port's net moved to the top, so
    that outputs still ascend and gates read a net above their output.
    """
    nl = draw(netlists())
    n = len(nl.drivers)
    ports = [net for _, net in (*nl.inputs, *nl.constants)]
    how = draw(st.sampled_from(["identity", "permutation", "port on top"]))
    if how == "permutation":
        label = draw(st.permutations(range(n)))
    else:
        top = draw(st.sampled_from(ports)) if how == "port on top" else n - 1
        label = [net - (net > top) for net in range(n)]
        label[top] = n - 1
    gates = [[gate.kind, [label[net] for net in gate.inputs], label[gate.output]] for gate in nl.gates]
    if gates and draw(st.booleans()):
        gi = draw(st.integers(0, len(gates) - 1))
        slot = draw(st.integers(0, len(gates[gi][1]) - 1))
        how = draw(st.sampled_from(["odd", "n", "own output", "later output"]))
        if how == "odd":
            entry = draw(st.sampled_from(ODD_ENTRIES))
        elif how == "n":
            entry = n
        elif how == "own output":
            entry = gates[gi][2]
        else:  # a later gate's output, one numbered below the reader's output if there is one
            later = [gate[2] for gate in gates[gi + 1 :]] or [gates[gi][2]]
            entry = draw(st.sampled_from([out for out in later if out < gates[gi][2]] or later))
        gates[gi][1][slot] = entry

    def relabel(table):
        return tuple((key, label[net]) for key, net in table)

    return (nl.name, tuple(Gate(kind, tuple(ins), out) for kind, ins, out in gates),
            relabel(nl.inputs), relabel(nl.outputs), relabel(nl.constants))


@settings(max_examples=400, deadline=None)
@given(relabelled_tables())
def test_netlist_checks_nets_like_the_reference_rank_loop(tables):
    # accepts the same tables with the same drivers, or raises the same error with the same message
    assert checked_nets(netlist_drivers, *tables) == checked_nets(reference_drivers, *tables)


@pytest.mark.parametrize("gates,inputs,constants,accepted", [
    # outputs ascend, and gate 0 reads input y, numbered above its output
    ([(GateKind.AND, (0, 3), 1), (GateKind.NOT, (1,), 2)], (("x", 0), ("y", 3)), (), True),
    # outputs ascend, and gate 1 reads the constant, numbered above its output
    ([(GateKind.NOT, (0,), 1), (GateKind.OR, (1, 4), 2), (GateKind.AND, (2, 4), 3)], (("x", 0),), ((1, 4),), True),
    # outputs descend, and each gate reads the one before it, numbered above its output
    ([(GateKind.NOT, (0,), 3), (GateKind.NOT, (3,), 2), (GateKind.XOR, (2, 0), 1)], (("x", 0),), (), True),
    # outputs descend, and gate 0 reads gate 1, numbered below its output
    ([(GateKind.AND, (0, 1), 2), (GateKind.NOT, (0,), 1)], (("x", 0),), (), False),
    # outputs ascend, and gate 0 reads its own output
    ([(GateKind.AND, (0, 1), 1)], (("x", 0),), (), False),
])
def test_hand_built_tables_check_nets_like_the_reference(gates, inputs, constants, accepted):
    tables = ("hand", tuple(Gate(kind, ins, out) for kind, ins, out in gates), inputs, (), constants)
    got = checked_nets(netlist_drivers, *tables)
    assert got == checked_nets(reference_drivers, *tables)
    assert (got[0] == "ok") is accepted


# Inputs x and y sit on nets 0 and 1 unless a row says otherwise; the
# netlist has n = inputs + constants + gates nets, and each row names a net >= n or < 0,
# or a net that is no int.
@pytest.mark.parametrize("tables", [
    dict(gates=[(GateKind.AND, (0, 9), 2)]),  # gate input
    dict(gates=[(GateKind.AND, (0, -1), 2)]),  # negative gate input
    dict(gates=[(GateKind.AND, (0, 1), 7)]),  # gate output
    dict(gates=[], outputs=(("z", 5),)),  # output port
    dict(gates=[], inputs=(("x", 0), ("y", 2))),  # input port y on net 2, n being 2
    dict(gates=[], constants=((0, 3),)),  # constant on net 3, n being 3
    dict(gates=[(GateKind.AND, (0, NetId(1, 0)), 2)]),  # a builder's handle as gate input
    dict(gates=[(GateKind.NOT, (0,), True)]),  # a bool as gate output
    dict(gates=[(GateKind.NOT, (0,), 2)], outputs=(("z", 2.0),)),  # a float as output port
    dict(gates=[], inputs=(("x", 0), ("y", "2"))),  # a string as input port
    dict(gates=[], constants=((0, None),)),  # None as constant
])
def test_net_outside_the_driver_table_is_unknown(tables):
    net = r"(-?[0-9]|NetId\(index=1, owner=0\)|True|2\.0|'2'|None)"
    with pytest.raises(UnknownNet, match=f"^no net {net} in netlist 'hand'$"):
        hand_built(**tables)


# ``drivers`` names the two sources that each row puts on one net.
@pytest.mark.parametrize("drivers,gates,constants,inputs,net", [
    (("input", "input"), [(GateKind.NOT, (0,), 2)], (), (("x", 0), ("y", 0)), 0),
    (("input", "constant"), [(GateKind.NOT, (0,), 3)], ((1, 1),), (("x", 0), ("y", 1)), 1),
    (("input", "gate"), [(GateKind.NOT, (0,), 1)], (), (("x", 0), ("y", 1)), 1),
    (("constant", "gate"), [(GateKind.NOT, (0,), 2)], ((0, 2),), (("x", 0), ("y", 1)), 2),
    (("gate", "gate"), [(GateKind.AND, (0, 1), 2), (GateKind.OR, (0, 1), 2)], (), (("x", 0), ("y", 1)), 2),
    (("constant", "constant"), [], ((0, 2), (1, 2)), (("x", 0), ("y", 1)), 2),
])
def test_driver_table_disagreeing_with_the_gates_is_rejected(drivers, gates, constants, inputs, net):
    with pytest.raises(InvariantViolation, match=f"^net {net} has more than one source$"):
        hand_built(gates, inputs, constants=constants)


def test_every_net_needs_exactly_one_source():
    not_1 = (Gate(GateKind.NOT, (1,), 2),)
    y = (("y", 2),)
    # net 1 is read, but nothing drives it: a port and a gate make nets 0 and 1, so the gate's net 2 is no net
    with pytest.raises(UnknownNet, match="^no net 2 in netlist 'x'$"):
        Netlist("x", not_1, (("a", 0),), y)
    # two input ports, or an input port and a constant, on net 1
    with pytest.raises(InvariantViolation, match="^net 1 has more than one source$"):
        Netlist("x", not_1, (("a", 1), ("b", 1)), y)
    with pytest.raises(InvariantViolation, match="^net 1 has more than one source$"):
        Netlist("x", not_1, (("a", 0), ("b", 1)), y, ((1, 1),))


# Each row is a netlist that passes every net check, but whose gates or
# ports the kernel or an exporter cannot take; inputs a and b sit on nets 0 and 1.
@pytest.mark.parametrize("tables,error,message", [
    (dict(gates=(Gate(GateKind.NOT, (0, 1), 2),)), FanInViolation, r"NOT cannot take 2 input\(s\) at gate 0 of netlist 'hand'"),
    (dict(gates=(Gate(GateKind.AND, (), 2),)), FanInViolation, r"AND cannot take 0 input\(s\) at gate 0 of netlist 'hand'"),
    (dict(gates=(Gate(GateKind.XOR, (0, 1, 0), 2),)), FanInViolation, r"XOR cannot take 3 input\(s\) at gate 0 of netlist 'hand'"),
    (dict(gates=(Gate("AND", (0, 0), 2),)), InvalidParameter, "gate 0 of netlist 'hand': gate kind must be a GateKind, got 'AND'"),
    (dict(gates=(Gate(GateKind.OR, (0, 1), 2), (GateKind.AND, (0, 1), 3))), InvalidParameter,
     "gate 1 of netlist 'hand' is a tuple, not a Gate"),
    (dict(gates=(Gate(GateKind.OR, (0, 1), 2, 7),)), InvalidParameter, "gate 0 of netlist 'hand': stage must be a str or None, got 7"),
    (dict(constants=((2, 2),)), InvalidParameter, "constant of netlist 'hand' must be 0 or 1, got 2"),
    (dict(constants=((True, 2),)), InvalidParameter, "constant of netlist 'hand' must be 0 or 1, got True"),
    (dict(name=5), InvalidParameter, "netlist and port names must be strs, got 5"),
    (dict(inputs=(("a", 0), (7, 1))), InvalidParameter, "netlist and port names must be strs, got 7"),
    (dict(outputs=((None, 0),)), InvalidParameter, "netlist and port names must be strs, got None"),
    (dict(inputs=(("a", 0), ("a", 1))), DuplicatePortName, "input port 'a' already declared"),
    (dict(outputs=(("y", 0), ("z", 1), ("y", 1))), DuplicatePortName, "output port 'y' already declared"),
], ids=["not_of_two", "and_of_none", "xor_of_three", "kind_string", "tuple_gate", "stage_int",
        "constant_two", "constant_true", "name_int", "input_name_int", "output_name_none",
        "duplicate_input", "duplicate_output"])
def test_netlist_rejects_what_the_kernel_or_exporters_cannot_take(tables, error, message):
    tables = dict(name="hand", gates=(), inputs=(("a", 0), ("b", 1)), outputs=(), constants=()) | tables
    with pytest.raises(error, match=f"^{message}$"):
        Netlist(tables["name"], tables["gates"], tables["inputs"], tables["outputs"], tables["constants"])


# Each row is a table of the wrong shape; inputs a and b sit on nets 0 and 1.
@pytest.mark.parametrize("tables,message", [
    (dict(gates=(Gate(GateKind.AND, 5, 2),)), "gate 0 of netlist 'hand': inputs must be a tuple, got 5"),
    (dict(gates=(Gate(GateKind.AND, [0, 1], 2),)), r"gate 0 of netlist 'hand': inputs must be a tuple, got \[0, 1\]"),
    (dict(gates=[Gate(GateKind.AND, (0, 1), 2)]), "gates of netlist 'hand' must be a tuple, not list"),
    (dict(inputs=(("a", 0, 5), ("b", 1))), r"inputs of netlist 'hand' must be a tuple of pairs, got \('a', 0, 5\)"),
    (dict(inputs=5), "inputs of netlist 'hand' must be a tuple, not int"),
    (dict(outputs=[("y", 0)]), "outputs of netlist 'hand' must be a tuple, not list"),
    (dict(constants=((0,),)), r"constants of netlist 'hand' must be a tuple of pairs, got \(0,\)"),
], ids=["gate_inputs_int", "gate_inputs_list", "gates_list", "input_triple", "inputs_int", "outputs_list",
        "constant_single"])
def test_netlist_rejects_tables_of_the_wrong_shape(tables, message):
    tables = dict(gates=(), inputs=(("a", 0), ("b", 1)), outputs=(), constants=()) | tables
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        Netlist("hand", tables["gates"], tables["inputs"], tables["outputs"], tables["constants"])


def test_netlist_rejects_carry_merges_that_are_no_tuple():
    rca = build_rca(2)
    with pytest.raises(InvalidParameter, match="^carry merges of netlist 'rca_w2' must be None or a tuple$"):
        Netlist(rca.name, rca.gates, rca.inputs, rca.outputs, rca.constants, carry_merges=[0])


def test_a_table_that_reads_but_is_no_tuple_is_reported_last():
    # a list where a tuple belongs does not hide any other fault
    with pytest.raises(CombinationalLoop, match="^gate 0 of netlist 'hand' reads gate 0"):
        Netlist("hand", [Gate(GateKind.NOT, [2], 2)], [("a", 0), ("b", 1)], ())
    with pytest.raises(UnknownNet, match="^no net 9 in netlist 'hand'$"):
        Netlist("hand", (Gate(GateKind.NOT, [0], 2),), (("a", 0), ["b", 1]), (("y", 9),))
    with pytest.raises(DuplicatePortName, match="^input port 'a' already declared$"):
        Netlist("hand", (), [("a", 0), ("a", 1)], ())


@pytest.mark.parametrize("declare", [
    lambda b: b.add_input(["a"]),
    lambda b: b.add_output(["a"], b.add_input("x")),
], ids=["input", "output"])
def test_builder_rejects_an_unhashable_port_name(declare):
    b = NetlistBuilder("t")
    with pytest.raises(InvalidParameter, match=r"^netlist and port names must be strs, got \['a'\]$"):
        declare(b)
    b.add_output("y", b.add_input("a"))
    assert b.finish().output_names == ("y",)


def test_a_refused_finish_leaves_the_builder_open():
    b = NetlistBuilder("t")
    x = b.add_input(7)
    with pytest.raises(InvalidParameter, match="^netlist and port names must be strs, got 7$"):
        b.finish()
    b.add_output("y", b.add_gate(GateKind.NOT, [x]))  # no NetlistFrozen
    with pytest.raises(InvalidParameter):
        b.finish()


def test_builder_reports_a_name_that_is_no_str_from_finish():
    for b in (NetlistBuilder(5), NetlistBuilder("t")):
        b.add_output("y", b.add_input(7 if b.name == "t" else "x"))
        with pytest.raises(InvalidParameter, match="^netlist and port names must be strs, got [57]$"):
            b.finish()


def test_net_checks_come_before_the_gate_and_port_checks():
    # a bad kind, stage or name does not hide a gate that reads a later one, nor an unknown net
    gates = (Gate("AND", (0, 1), 2, 7), Gate(GateKind.NOT, (3,), 3))
    with pytest.raises(CombinationalLoop, match="^gate 1 of netlist 'hand' reads gate 1, which is not earlier$"):
        Netlist("hand", gates, (("a", 0), ("a", 1)), ())
    with pytest.raises(UnknownNet, match="^no net 9 in netlist '5'$"):
        Netlist(5, (Gate(GateKind.NOT, (0, 1), 2),), ((None, 0), (None, 1)), (("y", 9),), ((2, 3),))


# -- delay models ----------------------------------------------------------------

def test_unit_model_charges_one_per_gate():
    unit = DelayModel.unit()
    assert unit.gate_delay(GateKind.AND, 2) == 1.0
    assert unit.gate_delay(GateKind.AND, 9) == 1.0
    assert unit.fanin_penalty is FaninPenalty.NONE


@pytest.mark.parametrize("fanin,cost", [(1, 1.0), (2, 1.0), (3, 2.0), (4, 2.0), (5, 3.0), (8, 3.0), (9, 4.0)])
def test_log2_model_charges_tree_depth(fanin, cost):
    log2 = DelayModel.unit_log2()
    assert log2.gate_delay(GateKind.OR, fanin) == cost


def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel("bad", {GateKind.AND: -1.0, GateKind.OR: 1.0, GateKind.XOR: 1.0, GateKind.NOT: 1.0})
    with pytest.raises(ValueError):
        DelayModel("partial", {GateKind.AND: 1.0})
    with pytest.raises(InvalidParameter, match="lacks a delay for OR"):
        DelayModel("partial", {GateKind.AND: 1.0})
    for bad in (-1.0, float("nan"), float("inf"), "1", None, True):
        base = {kind: 1.0 for kind in GateKind} | {GateKind.XOR: bad}
        with pytest.raises(InvalidParameter, match="delay for XOR must be >= 0"):
            DelayModel("bad", base)
    # zero, ints and numpy floats are finite reals >= 0
    DelayModel("ok", {GateKind.AND: 0, GateKind.OR: 2, GateKind.XOR: np.float64(1.5), GateKind.NOT: 0.0})
    # a penalty given by its value would charge no penalty at all
    for bad in ("log2", "none", None):
        with pytest.raises(InvalidParameter, match="^fan-in penalty must be a FaninPenalty, got "):
            DelayModel("bad", {kind: 1.0 for kind in GateKind}, bad)
    # a base that is no mapping of kinds to delays
    for bad in (5, None, [1.0, 1.0, 1.0, 1.0]):
        with pytest.raises(InvalidParameter, match="^delay model 'x' needs a mapping of delays, got "):
            DelayModel("x", bad)


# -- critical path ------------------------------------------------------------------

def test_single_gate_critical_path(unit):
    b = NetlistBuilder("t")
    x = b.add_input("x")
    y = b.add_input("y")
    b.add_output("z", b.add_gate(GateKind.AND, [x, y]))
    nl = b.finish()
    delay, path = nl.critical_path(unit)
    assert delay == 1.0
    assert path == [0]


def test_gateless_netlist_has_zero_delay(unit):
    b = NetlistBuilder("wire")
    x = b.add_input("x")
    b.add_output("y", x)
    nl = b.finish()
    assert nl.critical_path(unit) == (0.0, [])


def test_netlist_without_outputs_has_an_empty_critical_path(unit):
    b = NetlistBuilder("sink")
    b.add_gate(GateKind.NOT, [b.add_input("x")])
    assert b.finish().critical_path(unit) == (0.0, [])


@pytest.mark.parametrize("builder,expected", [
    (build_half_adder, 1.0),
    (build_full_adder, 3.0),
    (lambda: build_rca(4), 9.0),
])
def test_critical_path_matches_brute_force(builder, expected, unit):
    nl = builder()
    delay, path = nl.critical_path(unit)
    assert delay == expected
    assert delay == brute_force_delay(nl, unit)
    # the witness path must account for exactly the reported delay
    total = sum(unit.gate_delay(nl.gates[gi].kind, len(nl.gates[gi].inputs)) for gi in path)
    assert total == delay


def test_critical_path_ties_go_to_first_port_and_first_input(unit):
    b = NetlistBuilder("t")
    x, y = b.add_input("x"), b.add_input("y")
    nx, ny = b.add_gate(GateKind.NOT, [x]), b.add_gate(GateKind.NOT, [y])
    b.add_output("early", b.add_gate(GateKind.AND, [ny, nx]))
    b.add_output("late", b.add_gate(GateKind.OR, [nx, ny]))
    assert b.finish().critical_path(unit) == (2.0, [1, 2])


@pytest.mark.parametrize("model", ["unit", None, DelayModel.unit], ids=["string", "none", "factory"])
def test_critical_path_rejects_a_bad_model(rca4, model):
    with pytest.raises(InvalidParameter, match="^delay model must be a DelayModel, got "):
        rca4.critical_path(model)


def test_critical_path_witness_is_connected(cia_cla_8_4, unit):
    delay, path = cia_cla_8_4.critical_path(unit)
    for prev, cur in zip(path, path[1:]):
        assert cia_cla_8_4.gates[prev].output in cia_cla_8_4.gates[cur].inputs


def test_arrivals_cover_every_fanin(cia_rca_8_4, unit, log2):
    # out = max(inputs) + delay, so every input plus the gate cost fits under it
    for model in (unit, log2):
        arrivals = cia_rca_8_4.arrival_times(model)
        for gate in cia_rca_8_4.gates:
            out = arrivals[gate.output]
            cost = model.gate_delay(gate.kind, len(gate.inputs))
            assert all(out >= arrivals[net] + cost for net in gate.inputs)


def test_chaining_gates_never_reduces_delay(unit):
    # growing an inverter chain lengthens the critical path monotonically
    previous = 0.0
    for depth in range(1, 6):
        b = NetlistBuilder("chain")
        net = b.add_input("x")
        for _ in range(depth):
            net = b.add_gate(GateKind.NOT, [net])
        b.add_output("y", net)
        delay, path = b.finish().critical_path(unit)
        assert delay == float(depth)
        assert delay >= previous
        previous = delay


def test_with_gate_kind_swaps_without_touching_original(rca4):
    mutant = rca4.with_gate_kind(0, GateKind.OR)
    assert rca4.gates[0].kind is GateKind.XOR
    assert mutant.gates[0].kind is GateKind.OR
    assert mutant.gates[1:] == rca4.gates[1:]
    with pytest.raises(FanInViolation):
        rca4.with_gate_kind(0, GateKind.NOT)
    with pytest.raises(UnknownNet):
        rca4.with_gate_kind(99, GateKind.AND)


@pytest.mark.parametrize("index", ["0", 0.0, 1.5, None, True])
def test_with_gate_kind_needs_an_integer_index(rca4, index):
    with pytest.raises(InvalidParameter, match="^gate index must be an integer, got "):
        rca4.with_gate_kind(index, GateKind.OR)
    assert rca4.with_gate_kind(np.int64(0), GateKind.OR).gates == rca4.with_gate_kind(0, GateKind.OR).gates


@pytest.mark.parametrize("kind", ["OR", 0, None, GateKind.OR.value])
def test_with_gate_kind_needs_a_gate_kind(rca4, kind):
    with pytest.raises(InvalidParameter, match="^gate kind must be a GateKind, got "):
        rca4.with_gate_kind(0, kind)


# -- net tables -----------------------------------------------------------------------

def check_net_tables(nl):
    """Each net has exactly one source, and ``drivers``/``constants`` agree with it.

    Every net in every table is an int, also after a JSON round trip.
    """
    for table in (nl, import_json(export_json(nl))):
        nets = [net for _, net in (*table.inputs, *table.outputs, *table.constants)]
        nets += [net for gate in table.gates for net in (*gate.inputs, gate.output)]
        nets += [net for gi in table.carry_merges or () for net in table.gates[gi].inputs]
        assert all(type(net) is int for net in nets), table.name
    sources = [[] for _ in nl.drivers]
    for name, net in nl.inputs:
        sources[net].append(("input", name))
    for value, net in nl.constants:
        sources[net].append(("constant", value))
    for gi, gate in enumerate(nl.gates):
        sources[gate.output].append(("gate", gi))
    assert all(len(s) == 1 for s in sources), sources
    driven = {gate.output: gi for gi, gate in enumerate(nl.gates)}
    assert nl.drivers == tuple(driven.get(i) for i in range(len(nl.drivers)))
    values = [value for value, _ in nl.constants]
    assert values == sorted(set(values)) and set(values) <= {0, 1}
    for gi, gate in enumerate(nl.gates):
        kind = next((k for k in GateKind if k is not gate.kind and k.arity_ok(len(gate.inputs))), None)
        if kind is not None:
            mutant = nl.with_gate_kind(gi, kind)
            assert mutant.drivers == nl.drivers and mutant.constants is nl.constants
            break


@settings(max_examples=150, deadline=None)
@given(netlists())
def test_net_tables_of_random_netlists(nl):
    check_net_tables(nl)


@pytest.mark.parametrize(
    "nl",
    [build_rca(5), build_cla_block(6, 3), build_cia(9, 4, Architecture.RCA), build_cia(9, 2, Architecture.CLA, 2)],
    ids=["rca", "cla", "cia_rca", "cia_cla"],
)
def test_net_tables_of_builders(nl):
    assert bool(nl.constants) == nl.name.startswith("cia")  # later cia blocks add with a hard 0
    check_net_tables(nl)


def test_constants_sort_by_value_not_creation_order():
    b = NetlistBuilder("t")
    one, zero = b.constant(1), b.constant(0)
    b.add_output("z", b.add_gate(GateKind.AND, [one, zero]))
    nl = b.finish()
    assert nl.constants == ((0, zero.index), (1, one.index))
    assert nl.drivers == (None, None, 0)
