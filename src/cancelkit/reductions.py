"""Reduction numbers and randomized minimal-reduction search.

J is a reduction of I when J is contained in I and I^{n+1} = J * I^n for
some n; the least such n is the reduction number r_J(I).  It is decided
one way for each input.  When I and J are generated in one weighted
degree D >= 1, r is read from the fiber cone F = k[T]/K of I's Rees
presentation (built if the job does not keep it yet), whose degree-k
part is (I^k)_(kD): it is the top degree of F/JF, found from the reduced
basis of K plus J's generators written in the T_i (Huneke & Swanson
2006, ch. 8).  Otherwise J * I^n and I^(n+1) are formed on full bases
and compared for n = 0, 1, ..., n_cap.

Minimal reductions are sampled: draw an l x m full-rank matrix over k
(l = the analytic spread), form the l generic combinations of I's
generators, and keep the first sample that is verified a reduction.
Generator count l certifies minimality (exact for infinite residue
fields; a high-probability heuristic over F_p, so small p draws a
warning).
"""

import random
import warnings

from .cache import recall
from .errors import NotSubideal, SearchExhausted
from .gb import buchberger
from .ideals import Ideal
from .linalg import echelonize, rank
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
    return recall(("reduction", I.ring, I.generators, J.generators, n_cap),
                  lambda: _reduction_number(I, J, n_cap))


def _reduction_number(I, J, n_cap):
    """r_J(I) from I's fiber cone when I and J are generated in one
    weighted degree D >= 1, else by the product loop."""
    D = _common_degree(I)
    if D and _common_degree(J) == D:
        return _fiber_reduction_number(I, J, n_cap,
                                       rees_presentation(I).fiber_ideal)
    return _product_reduction_number(I, J, n_cap)


def _common_degree(ideal):
    """The one weighted degree of every term of its generators, or None."""
    wdeg = ideal.ring.mono_wdeg
    degrees = {wdeg(m) for g in ideal.generators for m in g.terms}
    return degrees.pop() if len(degrees) == 1 else None


def _product_reduction_number(I, J, n_cap):
    """r_J(I) by comparing J * I^n with I^(n+1) for n = 0..n_cap, each
    containment decided on full bases; inconclusive past n_cap."""
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


def _fiber_reduction_number(I, J, n_cap, fiber):
    """r_J(I) read from the fiber cone F = k[T]/K of I = (a_1..a_m),
    generated in one degree D >= 1, and J generated in degree D: J's
    generators are the linear forms lambda_j = sum c_ji*T_i of F_1 = I_D,
    and I^(n+1) = J*I^n iff (F/lambda F)_(n+1) = 0.  r is the top degree
    of the monomials outside the leads of the reduced basis of K + lambda,
    found degree by degree; inconclusive when it exceeds n_cap, as it
    does when J is not a reduction (then no power of some T_i is a
    lead, and there are standard monomials in every degree)."""
    ring = fiber.ring
    T = ring.gens()
    lam = [combination(ring, c, T)
           for c in _coordinates(J.generators, I.generators)]
    basis = buchberger(lam, known=fiber.groebner().generators)
    leads = [g.lm() for g in basis]
    divides = ring.mono_divides
    steps = [t.lm() for t in T]
    # the standard monomials of degree k + 1 are those T_i * s, s standard
    # of degree k, that no lead divides
    level = {0}
    for r in range(n_cap + 1):
        level = {s + t for s in level for t in steps
                 if not any(divides(lm, s + t) for lm in leads)}
        if not level:
            return ReductionReport(I, J, True, r, n_cap)
    return ReductionReport(I, J, "inconclusive", None, n_cap)


def _coordinates(gens, basis):
    """For each g in gens, coefficients c with g = sum c_i*basis[i], from
    one reduced echelon form of the matrix whose columns are basis, then
    gens, by monomial; NotSubideal when some g is outside their span."""
    field = basis[0].ring.field
    columns = (*basis, *gens)
    rows = [[f.coeff(mono) for f in columns]
            for mono in {m for f in columns for m in f.terms}]
    pivots = echelonize(rows, field)
    m = len(basis)
    if pivots and pivots[-1] >= m:
        raise NotSubideal("J must be contained in I")
    out = []
    for j in range(m, len(columns)):
        c = [field.zero] * m
        for row, p in zip(rows, pivots):
            c[p] = row[j]
        out.append(c)
    return out


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
