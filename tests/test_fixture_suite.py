"""The certified fixture battery: at least MIN_FIXTURES seeded instances
of the cancellation hypotheses (monomial-curve primes, complete
intersections and links), each certified by check_hypotheses.  On every
fixture the colon identity (J*I):I = J holds, random subideal
candidates cancel correctly, and the power-membership equivalence holds
for n = 1..4 in both directions.
"""

import itertools
import random
from collections import namedtuple

import pytest

from cancelkit.cancellation import (cancel_check, check_hypotheses,
                                    corollary213_check, link_ideal)
from cancelkit.fields import DEFAULT_PRIME, PrimeField
from cancelkit.fixtures import monomial_curve
from cancelkit.ideals import Ideal
from cancelkit.ring import Ring, combination

MIN_FIXTURES = 25

CURVE_TRIPLES = [
    (3, 4, 5), (3, 5, 7), (4, 5, 6), (4, 5, 7), (4, 6, 7),
    (5, 6, 7), (5, 7, 9), (4, 7, 9), (5, 6, 9), (6, 7, 8),
    (5, 7, 11), (3, 7, 11), (7, 8, 9),
]


# one certified instance of the cancellation hypotheses
TheoremFixture = namedtuple("TheoremFixture", ["name", "hypotheses"])


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
    """The seeded fixtures passing every hypothesis check: monomial-curve
    primes, complete intersections, and links."""
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
        HK = _certify(rep.K, seed=f"0-link-{exps}")
        if HK is not None:
            fixtures.append(TheoremFixture(f"link{exps}", HK))
    return fixtures


@pytest.fixture(scope="module")
def fixtures():
    return certified_fixtures()


def test_at_least_25_certified(fixtures):
    assert len(fixtures) >= MIN_FIXTURES
    for fx in fixtures:
        assert fx.hypotheses.certified, fx.name


def test_colon_identity_on_every_fixture(fixtures):
    for fx in fixtures:
        H = fx.hypotheses
        K = (H.J * H.I).colon(H.I)
        assert K == H.J, fx.name


def _random_subideal(J, rng):
    """Random nonzero ideal inside J: combinations of J's generators
    with random polynomial coefficients of degree <= 1."""
    ring = J.ring
    field = ring.field
    gens = []
    for _ in range(rng.randint(1, 3)):
        f = ring.zero()
        for g in J.generators:
            c = field.random(rng)
            if c != field.zero:
                mult = ring.constant(c)
                if rng.random() < 0.5:
                    mult = mult * ring.var(rng.randrange(ring.n))
                f = f + g * mult
        if not f.is_zero():
            gens.append(f)
    return Ideal(ring, gens) if gens else None


def test_random_candidates_cancel_on_every_fixture(fixtures):
    for fx in fixtures:
        H = fx.hypotheses
        tried = 0
        attempt = 0
        while tried < 5:
            attempt += 1
            assert attempt < 50, fx.name
            rng = random.Random(f"cancel-{fx.name}-{attempt}")
            K = _random_subideal(H.J, rng)
            if K is None:
                continue
            # K inside J forces K*I inside J*I; the theorem must then
            # recover K inside J
            assert cancel_check(H, K) is True, fx.name
            assert H.J.contains(K), fx.name
            tried += 1


def test_power_equivalence_both_directions(fixtures):
    for fx in fixtures:
        H = fx.hypotheses
        power = H.I
        for n in range(1, 5):
            verdict = corollary213_check(H, n)
            direct = H.J.contains(power)
            assert verdict == direct, (fx.name, n)
            power = power * H.I
