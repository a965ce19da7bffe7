"""Named fixtures: monomial-curve primes, the three worked examples
(tags "2.5", "2.6", "2.7" in the CLI), complete intersections, links,
and the seeded generator of certified cancellation fixtures.

The worked-example tags are part of the command-line interface; each
runner returns a plain JSON-able dict so the CLI and the tests share
one code path.
"""

import itertools
import math
import random

from .cancellation import (check_hypotheses, link_ideal,
                           power_containment_scan)
from .errors import PreconditionUnmet, SearchExhausted
from .fields import DEFAULT_PRIME, PrimeField
from .ideals import Ideal, kernel_of_map
from .linalg import rank
from .reductions import find_minimal_reduction
from .rees import rees_presentation
from .resolutions import cohomology_summary
from .ring import Ring, combination


def monomial_curve(exponents, field=None, names=None):
    """Defining prime of k[t^e1, ..., t^en] in a weighted k[x1..xn]."""
    field = field or PrimeField(DEFAULT_PRIME)
    n = len(exponents)
    if names is None:
        names = ["x", "y", "z", "w"][:n] if n <= 4 \
            else [f"x{i + 1}" for i in range(n)]
    param = Ring(field, ["t"])
    t = param.var(0)
    source = Ring(field, list(names))
    return kernel_of_map(source, [t ** e for e in exponents])


def surface_curve_ideal(field=None):
    """Defining prime of k[t^4+s^4, t^3 s^2, t^2 s^4 + t s^5, t s^6]
    inside a weighted k[X1..X4] (worked example "2.5")."""
    field = field or PrimeField(DEFAULT_PRIME)
    param = Ring(field, ["t", "s"])
    t, s = param.gens()
    source = Ring(field, ["X1", "X2", "X3", "X4"])
    images = [t**4 + s**4, t**3 * s**2, t**2 * s**4 + t * s**5, t * s**6]
    return kernel_of_map(source, images)


def space_surface_ideal(field=None):
    """Defining prime of k[s^3, t^3, u^3, s^2 t + s t u, s t^2 + t u^2]
    (worked example "2.6").  Characteristic 3 is rejected: the
    example's structure constants degenerate there (PrimeField already
    refuses 2)."""
    field = field or PrimeField(DEFAULT_PRIME)
    if field.kind == "prime_field" and field.p == 3:
        raise PreconditionUnmet(
            "this fixture needs characteristic different from 3")
    param = Ring(field, ["s", "t", "u"])
    s, t, u = param.gens()
    source = Ring(field, ["a", "b", "c", "d", "e"])
    images = [s**3, t**3, u**3, s**2 * t + s * t * u, s * t**2 + t * u**2]
    return kernel_of_map(source, images)


def circulant_minors_ideal(field=None):
    """Maximal (4x4) minors of a fixed 4x6 matrix of linear forms in
    k[a..f] (worked example "2.7"; expensive)."""
    field = field or PrimeField(DEFAULT_PRIME)
    ring = Ring(field, ["a", "b", "c", "d", "e", "f"])
    a, b, c, d, e, f = ring.gens()
    matrix = [
        [a, b, c, e, f, d],
        [d, a, b, c, e, f],
        [e, d, a, b, c, e],
        [f, e, d, a, b, c],
    ]
    gens = []
    for cols in itertools.combinations(range(6), 4):
        sub = [[matrix[i][j] for j in cols] for i in range(4)]
        gens.append(_det4(ring, sub))
    return Ideal(ring, gens)


def _det4(ring, m):
    """Determinant of a 4x4 polynomial matrix by cofactor expansion."""
    def det(rows, cols):
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        total = ring.zero()
        sign = 1
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = m[rows[0]][c] * minor
            total = total + (term if sign > 0 else term.scale(
                ring.field.neg(ring.field.one)))
            sign = -sign
        return total
    return det(list(range(4)), list(range(4)))


def quadric_split_type(q):
    """(rank, splits) of a homogeneous quadric: rank of its Gram matrix
    and whether it factors into two distinct linear forms over the
    field, whose characteristic is odd (PrimeField needs p > 2).

    A symmetric matrix of rank r has a nonsingular r x r principal
    submatrix, and the form is that submatrix's form plus zero; so a
    rank-2 quadric splits iff -m is a square for any nonzero 2 x 2
    principal minor m."""
    ring = q.ring
    field = ring.field
    n = ring.n
    half = field.inv(field.normalize(2))
    gram = [[field.zero] * n for _ in range(n)]
    for m, c in q.terms.items():
        exps = ring.decode(m)
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            i = support[0]
            gram[i][i] = field.add(gram[i][i], c)
        else:
            i, j = support
            h = field.mul(c, half)
            gram[i][j] = field.add(gram[i][j], h)
            gram[j][i] = field.add(gram[j][i], h)
    r = rank(gram, field)
    if r == 2:
        for i, j in itertools.combinations(range(n), 2):
            minor = field.sub(field.mul(gram[i][i], gram[j][j]),
                              field.mul(gram[i][j], gram[i][j]))
            if minor != field.zero:
                return r, _is_square(field.neg(minor), field)
    return r, False


def _is_square(a, field):
    """Whether a nonzero field element is a square."""
    if field.kind == "rationals":
        return a > 0 and all(math.isqrt(v) ** 2 == v
                             for v in (a.numerator, a.denominator))
    return pow(a, (field.p - 1) // 2, field.p) == 1


def mixed_ideal_control():
    """A mixed ideal I with a subideal J such that (J*I):I strictly
    contains J — cancellation genuinely fails without unmixedness.

    Note: with I = (x^2, xy), the choice J = (x^2) does NOT witness
    strictness ((J*I):I = (x^2) = J there); J = (x^4, x^2 y^2) does:
    x^3 y * I = (x^5 y, x^4 y^2) lies in J*I but x^3 y is not in J.
    """
    field = PrimeField(DEFAULT_PRIME)
    ring = Ring(field, ["x", "y"])
    x, y = ring.gens()
    I = Ideal(ring, [x * x, x * y])
    J = Ideal(ring, [x**4, x * x * y * y])
    return I, J


class TheoremFixture:
    """One certified instance of the cancellation hypotheses."""

    def __init__(self, name, hypotheses):
        self.name = name
        self.hypotheses = hypotheses

    def __repr__(self):
        return f"TheoremFixture({self.name})"


CURVE_TRIPLES = [
    (3, 4, 5), (3, 5, 7), (4, 5, 6), (4, 5, 7), (4, 6, 7),
    (5, 6, 7), (5, 7, 9), (4, 7, 9), (5, 6, 9), (6, 7, 8),
    (5, 7, 11), (3, 7, 11), (7, 8, 9),
]


def _certify(I, seed, attempts=30):
    """Search (a, a_extra) making check_hypotheses fully certified:
    first over generator subsets, then over seeded random combinations."""
    g = I.height
    gens = list(I.generators)
    ring = I.ring
    field = ring.field
    candidates = []
    if len(gens) >= g + 1:
        for combo in itertools.combinations(range(len(gens)), g):
            rest = [i for i in range(len(gens)) if i not in combo]
            for e in rest:
                candidates.append(([gens[i] for i in combo], gens[e]))
    for a, extra in candidates[:20]:
        H = check_hypotheses(I, a, extra)
        if H.certified:
            return H
    for attempt in range(attempts):
        rng = random.Random(f"{seed}-certify-{attempt}")
        combos = [combination(ring, [field.random(rng) for _ in gens], gens)
                  for _ in range(g + 1)]
        if any(f.is_zero() for f in combos):
            continue
        H = check_hypotheses(I, combos[:g], combos[g])
        if H.certified:
            return H
    return None


def certified_fixtures(min_count=25, seed=0):
    """At least min_count seeded fixtures passing every hypothesis
    check: monomial-curve primes, complete intersections, and links."""
    field = PrimeField(DEFAULT_PRIME)
    fixtures = []

    curve_hypotheses = []
    for exps in CURVE_TRIPLES:
        if len(fixtures) >= min_count:
            break
        P = monomial_curve(exps, field)
        H = _certify(P, seed=f"{seed}-curve-{exps}")
        if H is not None:
            fixtures.append(TheoremFixture(f"curve{exps}", H))
            curve_hypotheses.append((exps, H))

    ring3 = Ring(field, ["x", "y", "z"])
    x, y, z = ring3.gens()
    ci_pairs = [
        (x * x - y * z, y * y - x * z),
        (x * x + y * y, z * z - x * y),
        (x**3 - y * y * z, y**3 - x * x * z),
        (x * x - z * z, y * y - x * z),
        (x**3 + z**3, y * y - x * z),
        (x * x + y * y + y * z, z * z + x * y),
    ]
    for idx, (f1, f2) in enumerate(ci_pairs):
        if len(fixtures) >= min_count + 5:
            break
        I = Ideal(ring3, [f1, f2])
        if I.height != 2:
            continue
        H = check_hypotheses(I, [f1, f2], f1 + f2)
        if H.certified:
            fixtures.append(TheoremFixture(f"ci{idx}", H))

    for exps, H in curve_hypotheses[:8]:
        if len(fixtures) >= min_count + 10:
            break
        rep = link_ideal(H.I, list(H.a))
        if rep.degenerate or rep.height_K != H.g + 1:
            continue
        K = rep.K
        HK = _certify(K, seed=f"{seed}-link-{exps}")
        if HK is not None:
            fixtures.append(TheoremFixture(f"link{exps}", HK))

    if len(fixtures) < min_count:
        raise SearchExhausted(
            f"only {len(fixtures)} certified fixtures found, "
            f"need {min_count}")
    return fixtures


# -- worked-example runners ------------------------------------------------

def run_example(tag, seed=0, attempts=50, n_cap=10, allow_long=False,
                field=None):
    """End-to-end runner for the worked examples; returns a JSON-able
    dict.  Tag "2.7" is refused unless allow_long is set."""
    if tag == "2.5":
        return _run_surface_curve(seed, attempts, n_cap, field)
    if tag == "2.6":
        return _run_space_surface(seed, attempts, n_cap, field)
    if tag == "2.7":
        if not allow_long:
            raise PreconditionUnmet(
                "example 2.7 is not reproducible at desk scale (the "
                "original computation took over a week); pass "
                "--allow-long to attempt it anyway")
        return _run_circulant_minors(seed, attempts, n_cap, field)
    raise ValueError(f"unknown example tag {tag!r}")


def _run_surface_curve(seed, attempts, n_cap, field):
    P = surface_curve_ideal(field)
    search = find_minimal_reduction(P, seed=seed, attempts=attempts,
                                    n_cap=n_cap)
    mu = P.min_gens()
    summary = cohomology_summary(P)
    pres = rees_presentation(P)
    fiber_gens = list(pres.fiber_ideal.groebner().generators)
    fiber_info = {
        "principal": len(fiber_gens) == 1,
        "degree": fiber_gens[0].degree() if len(fiber_gens) == 1 else None,
    }
    if len(fiber_gens) == 1 and fiber_gens[0].degree() == 2:
        gram_rank, splits = quadric_split_type(fiber_gens[0])
        fiber_info["gram_rank"] = gram_rank
        fiber_info["splits_into_two_distinct_linear_forms"] = splits
    n = power_containment_scan(P, search.result, 4, search.report)
    return {
        "example": "2.5",
        "height": P.height,
        "dim": P.dim,
        "min_gens": mu,
        "is_CM": summary.is_CM,
        "depth": summary.depth,
        "analytic_spread": pres.analytic_spread,
        "fiber": fiber_info,
        "reduction": {
            "seed": str(seed),
            "attempts": search.attempts,
            "n_generators": len(search.result.generators),
            "r": search.report.r,
            "generators": sorted(str(g) for g in
                                 search.result.generators),
        },
        "power_in_reduction": n,
    }


def _run_space_surface(seed, attempts, n_cap, field):
    P = space_surface_ideal(field)
    search = find_minimal_reduction(P, seed=seed, attempts=attempts,
                                    n_cap=n_cap)
    mu = P.min_gens()
    pres = rees_presentation(P)
    fiber = pres.fiber_ideal
    n = power_containment_scan(P, search.result, 4, search.report)
    return {
        "example": "2.6",
        "height": P.height,
        "min_gens": mu,
        "fiber_height": fiber.height,
        "analytic_spread": pres.analytic_spread,
        "reduction": {
            "seed": str(seed),
            "attempts": search.attempts,
            "n_generators": len(search.result.generators),
            "r": search.report.r,
        },
        "power_in_reduction": n,
    }


def _run_circulant_minors(seed, attempts, n_cap, field):
    I = circulant_minors_ideal(field)
    search = find_minimal_reduction(I, seed=seed, attempts=attempts,
                                    n_cap=n_cap)
    J = search.result
    n = power_containment_scan(I, J, 4, search.report)
    return {
        "example": "2.7",
        "height": I.height,
        "analytic_spread": search.spread,
        "square_in_reduction": J.contains(I * I),
        "power_in_reduction": n,
        "reduction": {
            "seed": str(seed),
            "attempts": search.attempts,
            "n_generators": len(J.generators),
        },
    }
