"""Reduction numbers and randomized minimal-reduction search.

J is a reduction of I when J is contained in I and I^{n+1} = J * I^n for
some n; the least such n is the reduction number r_J(I).  Minimal
reductions are sampled: draw an l x m full-rank matrix over k (l = the
analytic spread), form the l generic combinations of I's generators, and
keep the first sample that is verified a reduction.  Generator count l
certifies minimality (exact for infinite residue fields; a high-
probability heuristic over F_p, so small p draws a warning).
"""

import random
import warnings

from .cache import active_store
from .errors import NotSubideal, SearchExhausted
from .ideals import Ideal
from .linalg import rank
from .rees import rees_presentation
from .ring import combination


class ReductionReport:
    """Outcome of the reduction-number loop; is_reduction may be the
    string "inconclusive" when the loop hit n_cap without an answer."""

    def __init__(self, I, J, is_reduction, r, n_cap):
        self.I = I
        self.J = J
        self.is_reduction = is_reduction
        self.r = r
        self.n_cap = n_cap

    def __repr__(self):
        return (f"ReductionReport(is_reduction={self.is_reduction}, "
                f"r={self.r}, n_cap={self.n_cap})")


class MinimalReductionSearch:
    """A successful sampled minimal reduction plus replay data."""

    def __init__(self, seed, attempts, spread, result, report,
                 coefficients):
        self.seed = seed
        self.attempts = attempts
        self.spread = spread
        self.result = result
        self.report = report
        self.coefficients = coefficients

    def __repr__(self):
        return (f"MinimalReductionSearch(seed={self.seed!r}, "
                f"attempts={self.attempts}, spread={self.spread}, "
                f"r={self.report.r})")


def reduction_number(I, J, n_cap=10):
    """Least n <= n_cap with I^(n+1) = J * I^n, or inconclusive; decided
    once per (I, J, n_cap) within a job that has a store."""
    if n_cap < 0:
        raise ValueError("n_cap must be nonnegative")
    store = active_store.get()
    if store is None:
        return _reduction_number(I, J, n_cap)
    return store.recall(("reduction", I.ring, I.generators, J.generators,
                         n_cap), lambda: _reduction_number(I, J, n_cap))


def _reduction_number(I, J, n_cap):
    if not I.contains(J):
        raise NotSubideal("J must be contained in I")
    power = Ideal(I.ring, [I.ring.one()])  # I^0
    for n in range(n_cap + 1):
        # J * I^n contains I^(n+1) iff equality holds, since J <= I
        target = J * power if n else J
        next_power = I * power
        if target.contains(next_power):
            return ReductionReport(I, J, True, n, n_cap)
        power = next_power
    return ReductionReport(I, J, "inconclusive", None, n_cap)


def analytic_deviation(I):
    """Analytic spread minus height."""
    return rees_presentation(I).analytic_deviation


def find_minimal_reduction(I, seed=0, attempts=50, n_cap=10):
    """Randomized search for an l-generated reduction of I (l = analytic
    spread).  Deterministic in (seed, attempt index).  When l is less
    than the number of generators, these must share one weighted degree
    (NotSubideal otherwise, and before the spread is computed when there
    are more generators than variables)."""
    for g in I.generators:
        if not g.is_homogeneous():
            raise NotSubideal("minimal-reduction search needs a "
                              "homogeneous ideal")
    ring = I.ring
    field = ring.field
    if field.kind == "prime_field" and field.p < 1000:
        warnings.warn("small coefficient field: generator count only "
                      "heuristically certifies minimality", stacklevel=2)
    gens = list(I.generators)
    m = len(gens)
    # a constant-coefficient combination of generators of different
    # degrees is not homogeneous, and no sample would be a reduction;
    # the spread is at most n = dim R, so when m > n it is not needed
    degrees = sorted({g.wdegree() for g in gens})
    spread = None
    if len(degrees) == 1 or m <= ring.n:
        spread = rees_presentation(I).analytic_spread
    if spread is not None and spread >= m:
        report = reduction_number(I, I, n_cap)
        return MinimalReductionSearch(seed, 0, spread, I, report, None)
    if len(degrees) > 1:
        raise NotSubideal(
            "minimal-reduction search needs an ideal generated in one "
            f"degree; the generators have weighted degrees "
            f"{', '.join(map(str, degrees))}")
    for attempt in range(attempts):
        rng = random.Random(f"{seed}-{attempt}")
        matrix = _full_rank_matrix(rng, field, spread, m)
        J = Ideal(ring, [combination(ring, row, gens) for row in matrix])
        report = reduction_number(I, J, n_cap)
        if report.is_reduction is True:
            return MinimalReductionSearch(seed, attempt + 1, spread, J,
                                          report, matrix)
    raise SearchExhausted(
        f"no {spread}-generated reduction found in {attempts} attempts "
        f"(n_cap={n_cap})")


def _full_rank_matrix(rng, field, nrows, ncols):
    """Random nrows x ncols matrix over the field with rank nrows."""
    while True:
        matrix = [[field.random(rng) for _ in range(ncols)]
                  for _ in range(nrows)]
        if all(any(c != field.zero for c in row) for row in matrix) \
                and rank(matrix, field) == nrows:
            return matrix
