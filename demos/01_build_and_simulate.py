"""
Building a netlist and simulating it
====================================

Gates go in one at a time through a builder; the result is a frozen
netlist you can evaluate like a function.
"""

import numpy as np

from adderlab import GateKind, NetlistBuilder, build_rca

# A half adder by hand: two inputs, a sum bit and a carry bit.
b = NetlistBuilder("ha_by_hand")
a = b.add_input("a")
x = b.add_input("b")
b.add_output("s", b.add_gate(GateKind.XOR, [a, x]))
b.add_output("c", b.add_gate(GateKind.AND, [a, x]))
ha = b.finish()

print("truth table for", ha.name)
for va, vb in ((0, 0), (0, 1), (1, 0), (1, 1)):
    out = ha.evaluate({"a": va, "b": vb})
    print(f"  a={va} b={vb}  ->  s={out['s']} c={out['c']}")

# Hand in numpy arrays to simulate a whole batch at once: the cases are
# packed 64 to a machine word, and each gate is one bitwise operation
# per word. Array inputs give arrays out, one value per case.
av = np.array([0, 0, 1, 1], dtype=np.uint8)
bv = np.array([0, 1, 0, 1], dtype=np.uint8)
out = ha.evaluate({"a": av, "b": bv})
print("vectorized sums:  ", out["s"])
print("vectorized carries:", out["c"])

# Generators cover the tedious part. A 4-bit ripple-carry adder exposes
# ports a_0..a_3, b_0..b_3, cin and s_0..s_3, cout.
rca = build_rca(4)
print()
print(rca.name, "has", len(rca.gates), "gates")

# 11 + 6 with carry-in 1, spelled out bit by bit
asg = {f"a_{i}": (11 >> i) & 1 for i in range(4)}
asg |= {f"b_{i}": (6 >> i) & 1 for i in range(4)}
asg["cin"] = 1
out = rca.evaluate(asg)
total = sum(out[f"s_{i}"] << i for i in range(4)) + (out["cout"] << 4)
print("11 + 6 + 1 =", total)
