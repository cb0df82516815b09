"""Reduced ordered binary decision diagrams (Bryant, IEEE Trans. Computers C-35(8), 1986).

A ``Manager`` holds Boolean functions of the variables 0..n-1, which
every graph tests in that order from its root down.  A function is an
int: 0 and 1 are the constants, and any other k is the node
``nodes[k] = (var, lo, hi)``, "if var then hi else lo".  The unique table
gives each (var, lo, hi) one node and no node has lo == hi, so two ints
are equal iff their functions are.  ``apply`` combines two functions by
AND, OR or XOR and memoizes every pair it meets; ``count``, ``restrict``,
``solutions`` and ``value`` read one.  A manager refuses to hold more
than ``budget`` nodes, the two constants included: the node past it
raises OverBudget, as does any manager of over ``MAX_VARS`` variables.
The recursions follow the variables, so none nests past n + 1 <= 482 calls.
"""

from __future__ import annotations

AND, OR, XOR = range(3)
MAX_VARS = 481  # the deepest recursion, 482 calls, stays well within Python's limit of 1,000 frames


class OverBudget(Exception):
    """A manager was asked for a node past its budget, or for over MAX_VARS variables."""


class Manager:
    def __init__(self, nvars: int, budget: int):
        if nvars > MAX_VARS:
            raise OverBudget(f"more than {MAX_VARS} variables")
        self.budget = budget
        self.nodes = [(nvars, 0, 0), (nvars, 1, 1)]  # the constants, below every variable
        self._unique: dict[tuple[int, int, int], int] = {}
        self._memo: dict[tuple[int, int, int], int] = {}

    def node(self, var: int, lo: int, hi: int) -> int:
        """The function "if var then hi else lo"; lo and hi must not test var or any variable before it."""
        if lo == hi:
            return lo
        key = (var, lo, hi)
        k = self._unique.get(key)
        if k is None:
            if len(self.nodes) >= self.budget:
                raise OverBudget(f"more than {self.budget} nodes")
            k = self._unique[key] = len(self.nodes)
            self.nodes.append(key)
        return k

    def var(self, var: int) -> int:
        return self.node(var, 0, 1)

    def apply(self, op: int, f: int, g: int) -> int:
        """f AND g, f OR g or f XOR g, as ``op`` says."""
        if f > g:
            f, g = g, f
        if f <= 1:
            if op == AND:
                return g if f else 0
            if op == OR:
                return 1 if f else g
            if not f:
                return g
            if g == 1:
                return 0
        elif f == g:
            return 0 if op == XOR else f
        key = (op, f, g)
        k = self._memo.get(key)
        if k is None:
            (vf, f0, f1), (vg, g0, g1) = self.nodes[f], self.nodes[g]
            top = min(vf, vg)
            if vf != top:
                f0 = f1 = f
            if vg != top:
                g0 = g1 = g
            k = self._memo[key] = self.node(top, self.apply(op, f0, g0), self.apply(op, f1, g1))
        return k

    def count(self, f: int) -> int:
        """The number of assignments to all n variables under which f is 1."""
        nodes, memo = self.nodes, {0: 0, 1: 1}

        def below(f: int) -> int:  # assignments to variables var(f)..n-1
            if f not in memo:
                var, lo, hi = nodes[f]
                memo[f] = (below(lo) << (nodes[lo][0] - var - 1)) + (below(hi) << (nodes[hi][0] - var - 1))
            return memo[f]

        return below(f) << nodes[f][0]

    def restrict(self, f: int, var: int, bit: int) -> int:
        """f with variable ``var`` fixed to ``bit``."""
        nodes, memo = self.nodes, {}

        def fixed(f: int) -> int:
            top, lo, hi = nodes[f]
            if top > var:
                return f
            if top == var:
                return hi if bit else lo
            if f not in memo:
                memo[f] = self.node(top, fixed(lo), fixed(hi))
            return memo[f]

        return fixed(f)

    def solutions(self, f: int, order: list[int], limit: int) -> list[int]:
        """The first ``limit`` assignments under which f is 1, trying each variable of ``order`` at 0 before 1.

        ``order`` lists every variable f tests, in any order.  An
        assignment is the int whose bits, most significant first, are the
        values of ``order``'s variables.  Each branch is taken only if f
        restricted to it is not 0, so no walk backtracks.
        """
        found, stack = [], [(f, 0, 0)]
        while stack and len(found) < limit:
            f, depth, bits = stack.pop()
            if depth == len(order):
                found.append(bits)
                continue
            for bit in (1, 0):  # 0 is pushed last, so it pops first
                if g := self.restrict(f, order[depth], bit):
                    stack.append((g, depth + 1, bits << 1 | bit))
        return found

    def value(self, f: int, bits) -> int:
        """f under the assignment whose variable v is ``bits[v]``."""
        nodes = self.nodes
        while f > 1:
            var, lo, hi = nodes[f]
            f = hi if bits[var] else lo
        return f
