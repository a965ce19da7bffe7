"""Monomial orders: lex, grevlex, block orders and a degree-first
elimination order.

An order is its matrix (Robbiano 1985): rows(n, weights) gives integer
rows such that m1 > m2 iff the row products of m1's exponents are
lexicographically greater than those of m2's.  Ring packs the matrix
once into a base and one step per variable (Ring.key).
"""

from .errors import ArityMismatch


class Lex:
    def rows(self, n, weights=None):
        return [[int(i == j) for j in range(n)] for i in range(n)]

    def describe(self):
        return "lex"

    def __eq__(self, other):
        return isinstance(other, Lex)

    def __hash__(self):
        return hash("lex")


class Grevlex:
    """Graded reverse lexicographic; degree is weighted when weights given."""

    def rows(self, n, weights=None):
        return [list(weights or (1,) * n)] + [
            [-int(i == j) for j in range(n)] for i in reversed(range(n))]

    def describe(self):
        return "grevlex"

    def __eq__(self, other):
        return isinstance(other, Grevlex)

    def __hash__(self):
        return hash("grevlex")


class Block:
    """Block order eliminating the first elim_count variables.

    The eliminated block is compared first (with elim_order), so any
    monomial involving an eliminated variable beats every monomial that
    does not; Groebner bases under this order compute eliminations.
    """

    def __init__(self, elim_count, elim_order, rest_order):
        if elim_count < 1:
            raise ValueError("elim_count must be >= 1")
        self.elim_count = elim_count
        self.elim_order = elim_order
        self.rest_order = rest_order

    def rows(self, n, weights=None):
        k = self.elim_count
        if not (0 < k < n):
            raise ArityMismatch(f"block order eliminates {k} of {n} variables")
        head = self.elim_order.rows(k, weights and weights[:k])
        tail = self.rest_order.rows(n - k, weights and weights[k:])
        return ([row + [0] * (n - k) for row in head]
                + [[0] * k + row for row in tail])

    def describe(self):
        return (f"block({self.elim_count},"
                f"{self.elim_order.describe()},{self.rest_order.describe()})")

    def __eq__(self, other):
        return (isinstance(other, Block) and self.elim_count == other.elim_count
                and self.elim_order == other.elim_order
                and self.rest_order == other.rest_order)

    def __hash__(self):
        return hash(("block", self.elim_count, self.elim_order, self.rest_order))


class Elimination:
    """Elimination order for the first elim_count variables with a
    weighted grevlex tail: their weighted degree first, then weighted
    grevlex on all variables.

    A monomial involving an eliminated variable has positive degree in
    them and beats every monomial that does not; on the monomials free
    of them the first row is 0, the weighted degree is the tail's, and
    the reversed unit rows of the tail come before those of the
    eliminated block, which are 0 there, so the order restricts to the
    tail's weighted grevlex, as Block(k, Grevlex(), Grevlex()) does.
    Unlike that block order, which ranks the eliminated variables by
    their own grevlex first, it looks at them only through their
    weighted degree before it compares all variables.
    """

    def __init__(self, elim_count):
        self.elim_count = elim_count

    def rows(self, n, weights=None):
        k = self.elim_count
        w = list(weights or (1,) * n)
        return [w[:k] + [0] * (n - k), w] + [
            [-int(i == j) for j in range(n)] for i in reversed(range(n))]

    def describe(self):
        return f"elimination({self.elim_count})"

    def __eq__(self, other):
        return (isinstance(other, Elimination)
                and self.elim_count == other.elim_count)

    def __hash__(self):
        return hash(("elimination", self.elim_count))
