"""Monomial orders: lex, grevlex, and block (elimination) orders.

An order is turned into a key function on exponent tuples; keys are flat
tuples of ints with the property that key(m1) > key(m2) iff m1 > m2.
Ring packs such a tuple into one int (Ring.key).
"""

from .errors import ArityMismatch

class Lex:
    def key_fn(self, n, weights=None):
        return lambda exps: exps

    def describe(self):
        return "lex"

    def __eq__(self, other):
        return isinstance(other, Lex)

    def __hash__(self):
        return hash("lex")


class Grevlex:
    """Graded reverse lexicographic; degree is weighted when weights given."""

    def key_fn(self, n, weights=None):
        if weights is None:
            def key(exps):
                return (sum(exps),) + tuple(-e for e in reversed(exps))
        else:
            w = tuple(weights)

            def key(exps):
                return (sum(e * wi for e, wi in zip(exps, w)),) + tuple(
                    -e for e in reversed(exps))
        return key

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

    def key_fn(self, n, weights=None):
        k = self.elim_count
        if not (0 < k < n):
            raise ArityMismatch(f"block order eliminates {k} of {n} variables")
        w1 = weights[:k] if weights is not None else None
        w2 = weights[k:] if weights is not None else None
        key1 = self.elim_order.key_fn(k, w1)
        key2 = self.rest_order.key_fn(n - k, w2)

        def key(exps):
            return tuple(key1(exps[:k])) + tuple(key2(exps[k:]))
        return key

    def describe(self):
        return (f"block({self.elim_count},"
                f"{self.elim_order.describe()},{self.rest_order.describe()})")

    def __eq__(self, other):
        return (isinstance(other, Block) and self.elim_count == other.elim_count
                and self.elim_order == other.elim_order
                and self.rest_order == other.rest_order)

    def __hash__(self):
        return hash(("block", self.elim_count, self.elim_order, self.rest_order))

