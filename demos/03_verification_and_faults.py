"""
Trust, then verify, then sabotage
=================================

Adders are checked against plain integer addition, exhaustively when
the input space is small and by seeded sampling when it is not. Fault
injection shows the checker actually has teeth.
"""

from adderlab import (
    Architecture,
    GateKind,
    build_cia,
    build_rca,
    check_exhaustive,
    check_random,
    probe_invariant_carry_exclusive,
)

# 2^17 input combinations, all of them.
cia = build_cia(8, 4, Architecture.CLA)
report = check_exhaustive(cia, 8)
print(f"{cia.name}: {report.cases_checked} cases, {report.failure_count} failures")

# Too wide to sweep: sample with a fixed seed instead. The four corner
# cases (all zeros, all ones, and the two carry-chain stressers) are
# always prepended, so a report is reproducible end to end.
wide = build_rca(64)
report = check_random(wide, 64, samples=2000, seed=42)
print(f"{wide.name}: {report.cases_checked} cases, {report.failure_count} failures")

# Now break something. Gate 4 of the ripple adder is the carry-merge OR
# of the first full adder; turning it into an AND pins that carry low.
rca = build_rca(4)
mutant = rca.with_gate_kind(4, GateKind.AND)
report = check_exhaustive(mutant, 4)
print(f"{mutant.name}: {report.failure_count} failing cases, first three:")
for failure in report.failures[:3]:
    print(
        f"  a={failure.a} b={failure.b} cin={failure.cin}: "
        f"expected s={failure.expected_sum} cout={failure.expected_cout}, "
        f"got s={failure.got_sum} cout={failure.got_cout}"
    )

# Carry-increment blocks rely on a structural fact: the block carry and
# the incrementer carry of a stage can never fire together, which is
# what lets a single OR merge them. The probe proves it: each merge pair's
# AND is the constant 0. Only past its node budget does it sweep every
# input instead.
ok = probe_invariant_carry_exclusive(cia, 8)
print(f"{cia.name}: block/increment carries mutually exclusive: {ok}")
