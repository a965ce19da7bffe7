"""Randomized agreement between the Groebner engine and the independent
linear-algebra oracle: membership and ideal equality over 100 seeded
random homogeneous ideals in up to 3 variables, generators of degree
at most 3; minimal generator counts and minimal resolutions over 40
more, in 2 or 3 variables over F_p and over Q, and on those the Betti
numbers against the Hilbert function.
"""

import random
from fractions import Fraction

from cancelkit.fields import PrimeField, RationalField
from cancelkit.ideals import Ideal
from cancelkit.resolutions import free_resolution
from cancelkit.ring import Ring

import oracle
from oracle import column_degrees, compose_columns, homogeneous_member, \
    ideals_equal_upto_degree, minimal_generator_count, monomials_of_degree

FIELD = PrimeField(32003)
NAMES = ["x", "y", "z"]


def _random_homogeneous(ring, rng, degree):
    """Random nonzero homogeneous polynomial of the exact degree."""
    while True:
        pairs = []
        for exps in monomials_of_degree(ring.n, degree):
            if rng.random() < 0.6:
                pairs.append((exps, _coefficient(ring.field, rng)))
        f = oracle.from_terms(ring, pairs)
        if not f.is_zero():
            return f


def _coefficient(field, rng):
    if field.kind == "prime_field":
        return rng.randrange(field.p)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _random_instance(seed):
    rng = random.Random(f"agree-{seed}")
    nvars = rng.randint(1, 3)
    ring = Ring(FIELD, NAMES[:nvars])
    gens = [_random_homogeneous(ring, rng, rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))]
    return ring, rng, gens


def _member_candidates(ring, rng, gens):
    """A guaranteed member, plus a random homogeneous polynomial of the
    same degree (member or not, the oracle decides)."""
    d = max(g.degree() for g in gens) + rng.randint(0, 1)
    member = ring.zero()
    for g in gens:
        shift = d - g.degree()
        if shift < 0:
            continue
        member = member + g * _random_homogeneous(ring, rng, shift)
    probe = _random_homogeneous(ring, rng, d)
    return [f for f in (member, probe) if not f.is_zero()]


def _recombined(ring, rng, gens):
    """An equal ideal: add monomial multiples of other generators of
    lower or equal degree (a homogeneity-preserving row operation)."""
    out = list(gens)
    for i, g in enumerate(out):
        for j, h in enumerate(gens):
            if i == j or h.degree() > g.degree():
                continue
            shift = g.degree() - h.degree()
            mult = oracle.monomial(
                ring, rng.choice(monomials_of_degree(ring.n, shift)),
                rng.randrange(FIELD.p))
            out[i] = out[i] + h * mult
            break
    return [f for f in out if not f.is_zero()]


def test_membership_matches_oracle_on_100_random_ideals():
    checked = 0
    for seed in range(100):
        ring, rng, gens = _random_instance(seed)
        I = Ideal(ring, gens)
        for f in _member_candidates(ring, rng, gens):
            assert I.contains_poly(f) == homogeneous_member(f, gens), \
                (seed, str(f))
        checked += 1
    assert checked == 100


def test_equality_matches_oracle_on_100_random_ideals():
    checked = 0
    for seed in range(100):
        ring, rng, gens = _random_instance(seed)
        I = Ideal(ring, gens)
        same = _recombined(ring, rng, gens)
        # a likely-different ideal: drop a generator or perturb one
        if len(gens) > 1 and rng.random() < 0.5:
            other = gens[:-1]
        else:
            other = gens[:-1] + [_random_homogeneous(
                ring, rng, gens[-1].degree())]
        for cand in (same, other):
            J = Ideal(ring, cand)
            engine = I.contains(J) and J.contains(I)
            bound = max(f.degree() for f in gens + cand)
            oracle = ideals_equal_upto_degree(gens, cand, bound)
            assert engine == oracle, (seed, [str(f) for f in cand])
        assert I.contains(Ideal(ring, same)) and \
            Ideal(ring, same).contains(I)
        checked += 1
    assert checked == 100


def _resolution_instance(seed):
    """A seeded homogeneous ideal in 2 or 3 variables, over F_p for even
    seeds and over Q for odd ones, as (ring, generators)."""
    rng = random.Random(f"resolve-{seed}")
    field = (FIELD, RationalField())[seed % 2]
    ring = Ring(field, NAMES[:rng.randint(2, 3)])
    gens = [_random_homogeneous(ring, rng, rng.randint(1, 3))
            for _ in range(rng.randint(2, 4))]
    # half the time, one redundant generator on top
    if rng.random() < 0.5:
        gens.append(rng.choice(gens) * _random_homogeneous(ring, rng, 1))
    return ring, gens


def test_minimal_resolutions_match_oracle_on_40_random_ideals():
    for seed in range(40):
        ring, gens = _resolution_instance(seed)
        I = Ideal(ring, gens)
        res = free_resolution(I)
        betti = res.betti_numbers()
        count = minimal_generator_count(gens)
        assert I.min_gens() == betti[1] == count, (seed, betti, count)
        # minimal: no entry has a constant term (packed monomial 0)
        for m in res.maps:
            assert all(0 not in f.terms for col in m for f in col), \
                (seed, betti)
        for a, b in zip(res.maps, res.maps[1:]):
            assert all(f.is_zero() for col in compose_columns(a, b)
                       for f in col), (seed, betti)
        # R/I has rank 0 for I != 0
        assert sum((-1) ** i * b for i, b in enumerate(betti)) == 0, \
            (seed, betti)


def _hilbert_function(ring, gens, top):
    """[dim (R/I)_d for d = 0..top], by linear algebra on the generators."""
    F = oracle._field_adapter(gens[0])
    return [len(monomials_of_degree(ring.n, d))
            - oracle.rref_rank(oracle._span_rows(gens, d, F), F)
            for d in range(top + 1)]


def _euler_characteristics(ring, maps, top):
    """[sum_i (-1)^i dim (F_i)_d for d = 0..top] for the complex of free
    modules F_0 = R, F_{i+1} free on the columns of maps[i]."""
    shifts = [[0]] + column_degrees(maps)
    return [sum((-1) ** i * len(monomials_of_degree(ring.n, d - s))
                for i, degrees in enumerate(shifts)
                for s in degrees if s <= d)
            for d in range(top + 1)]


def test_betti_numbers_match_the_hilbert_function_on_40_random_ideals():
    # a resolution is exact with R/I at its end, so its graded pieces
    # alternate to the Hilbert function of R/I in every degree
    for seed in range(40):
        ring, gens = _resolution_instance(seed)
        maps = free_resolution(Ideal(ring, gens)).maps
        # every degree up to two past the largest shift
        top = max(max(degrees) for degrees in column_degrees(maps)) + 2
        hilbert = _hilbert_function(ring, gens, top)
        assert _euler_characteristics(ring, maps, top) == hilbert, seed
        # it bites: a resolution missing one column of its last map
        # differs from that column's degree on
        short = maps[:-1] + [maps[-1][:-1]]
        assert _euler_characteristics(ring, short, top) != hilbert, seed
