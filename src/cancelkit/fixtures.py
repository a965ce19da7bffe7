"""Named fixtures: monomial-curve primes, complete intersections, links,
the seeded generator of certified cancellation fixtures, and a negative
control.  The worked examples are scripts under examples/.
"""

import itertools
import random

from .cancellation import check_hypotheses, link_ideal
from .errors import SearchExhausted
from .fields import DEFAULT_PRIME, PrimeField
from .ideals import Ideal, kernel_of_map
from .ring import Ring, combination


def monomial_curve(exponents, field=None):
    """Defining prime of k[t^e1, ..., t^en] in a weighted k[x1..xn]."""
    field = field or PrimeField(DEFAULT_PRIME)
    n = len(exponents)
    names = ["x", "y", "z", "w"][:n] if n <= 4 \
        else [f"x{i + 1}" for i in range(n)]
    param = Ring(field, ["t"])
    t = param.var(0)
    source = Ring(field, list(names))
    return kernel_of_map(source, [t ** e for e in exponents])


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


MIN_FIXTURES = 25

CURVE_TRIPLES = [
    (3, 4, 5), (3, 5, 7), (4, 5, 6), (4, 5, 7), (4, 6, 7),
    (5, 6, 7), (5, 7, 9), (4, 7, 9), (5, 6, 9), (6, 7, 8),
    (5, 7, 11), (3, 7, 11), (7, 8, 9),
]


def _certify(I, seed):
    """Search (a, a_extra) making check_hypotheses fully certified:
    first over generator subsets, then over 30 seeded random combinations."""
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
    for attempt in range(30):
        rng = random.Random(f"{seed}-certify-{attempt}")
        combos = [combination(ring, [field.random(rng) for _ in gens], gens)
                  for _ in range(g + 1)]
        if any(f.is_zero() for f in combos):
            continue
        H = check_hypotheses(I, combos[:g], combos[g])
        if H.certified:
            return H
    return None


def certified_fixtures():
    """At least MIN_FIXTURES seeded fixtures passing every hypothesis
    check: monomial-curve primes, complete intersections, and links."""
    field = PrimeField(DEFAULT_PRIME)
    fixtures = []

    curve_hypotheses = []
    for exps in CURVE_TRIPLES:
        if len(fixtures) >= MIN_FIXTURES:
            break
        P = monomial_curve(exps, field)
        H = _certify(P, seed=f"0-curve-{exps}")
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
        if len(fixtures) >= MIN_FIXTURES + 5:
            break
        I = Ideal(ring3, [f1, f2])
        if I.height != 2:
            continue
        H = check_hypotheses(I, [f1, f2], f1 + f2)
        if H.certified:
            fixtures.append(TheoremFixture(f"ci{idx}", H))

    for exps, H in curve_hypotheses[:8]:
        if len(fixtures) >= MIN_FIXTURES + 10:
            break
        rep = link_ideal(H.I, list(H.a))
        if rep.degenerate or rep.height_K != H.g + 1:
            continue
        K = rep.K
        HK = _certify(K, seed=f"0-link-{exps}")
        if HK is not None:
            fixtures.append(TheoremFixture(f"link{exps}", HK))

    if len(fixtures) < MIN_FIXTURES:
        raise SearchExhausted(
            f"only {len(fixtures)} certified fixtures found, "
            f"need {MIN_FIXTURES}")
    return fixtures
