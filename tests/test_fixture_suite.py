"""The certified fixture battery: on every fixture whose hypotheses all
pass, the colon identity (J*I):I = J holds, random subideal candidates
cancel correctly, and the power-membership equivalence holds for
n = 1..4 in both directions.
"""

import random

import pytest

from cancelkit.cancellation import cancel_check, corollary213_check
from cancelkit.fixtures import certified_fixtures
from cancelkit.ideals import Ideal


@pytest.fixture(scope="module")
def fixtures():
    return certified_fixtures()


def test_at_least_25_certified(fixtures):
    assert len(fixtures) >= 25
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
