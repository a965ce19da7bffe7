"""Reduction numbers and randomized minimal-reduction search.

J is a reduction of I when J is contained in I and I^{n+1} = J * I^n for
some n; the least such n is the reduction number r_J(I).  It is decided
one way for each input.  When I and J are generated in one weighted
degree D >= 1, r is read from the fiber cone F = k[T]/K of I's Rees
presentation (built if the job does not keep it yet), whose degree-k
part is (I^k)_(kD): it is the top degree of F/JF (Huneke & Swanson
2006, ch. 8).  J's generators are linear forms in the T_i; modulo them
each pivot of their echelon form is a linear form in the free
variables, so F/JF is a quotient of the polynomial ring in those alone,
and r is read from a basis there.  Otherwise J * I^n and I^(n+1) are
formed on full bases and compared for n = 0, 1, ..., n_cap.

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
from .ring import Ring, combination


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
    and I^(n+1) = J*I^n iff (F/lambda F)_(n+1) = 0.  In the reduced
    echelon form of the c_ji each pivot T_p is minus a linear form in
    the free variables modulo lambda, so F/lambda F is k[free]/K' for K'
    the image of K's reduced basis under that substitution, with the
    same Hilbert function.  r is the top degree of the monomials outside
    the leads of a basis of K', found degree by degree; inconclusive
    when it exceeds n_cap, as it does when J is not a reduction (then no
    power of some free variable is a lead, and there are standard
    monomials in every degree)."""
    ring = fiber.ring
    field = ring.field
    rows = _coordinates(J.generators, I.generators)
    pivots = echelonize(rows, field)
    free = [i for i in range(ring.n) if i not in pivots]
    if not free:
        return ReductionReport(I, J, True, 0, n_cap)
    quotient = Ring(field, [ring.names[i] for i in free])
    T = quotient.gens()
    images = [None] * ring.n
    for i, t in zip(free, T):
        images[i] = t
    for p, row in zip(pivots, rows):
        images[p] = -combination(quotient, [row[i] for i in free], T)
    forms = [h for h in _substitute(fiber.groebner(), images, quotient)
             if not h.is_zero()]
    leads = [g.lm() for g in buchberger(forms)] if forms else []
    divides = quotient.mono_divides
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


def _substitute(basis, images, ring):
    """Each f of the GroebnerBasis basis with its i-th variable replaced
    by images[i], a polynomial of ring; the image of a monomial is
    formed once, as the image of the monomial without one factor times
    that factor's."""
    divides = basis.ring.mono_divides
    steps = [(x.lm(), image) for x, image in zip(basis.ring.gens(), images)]
    memo = {0: ring.one()}

    def image(m):
        if m not in memo:
            step, factor = next(t for t in steps if divides(t[0], m))
            memo[m] = image(m - step) * factor
        return memo[m]

    return [combination(ring, [f.coeff(m) for m in f.terms],
                        [image(m) for m in f.terms]) for f in basis]


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
