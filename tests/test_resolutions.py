import pytest

from cancelkit.fields import PrimeField, RationalField
from cancelkit.ideals import Ideal
from cancelkit.modules import (components, module_buchberger, module_member,
                               syzygy_columns, vector)
from cancelkit.resolutions import (cohomology_summary, ext_vanishes_at,
                                   free_resolution)
from cancelkit.ring import Ring
from cancelkit.fixtures import monomial_curve

from oracle import compose_columns
from worked_examples import example_ideal


@pytest.fixture
def R():
    return Ring(PrimeField(32003), ["x", "y", "z"])


# module work over Q runs the Fraction branch of the shared division loop
FIELDS = (PrimeField(32003), RationalField())


def test_syzygies_of_variables():
    for field in FIELDS:
        R = Ring(field, ["x", "y", "z"])
        x, y, z = R.gens()
        M = [[x], [y], [z]]
        cols = syzygy_columns(M)
        # Koszul: exactly the three relations y*e1 - x*e2 etc.
        assert _is_zero(compose_columns(M, cols))
        assert len(cols) == 3


def _is_zero(columns):
    return all(f.is_zero() for col in columns for f in col)


def test_module_membership():
    for field in FIELDS:
        R = Ring(field, ["x", "y", "z"])
        x, y, z = R.gens()
        # column space of [[x, y], [y, x]]
        cols = [[x, y], [y, x]]
        gens = [vector(c) for c in cols]
        G = module_buchberger(gens)
        target = vector([x * x + y * y, x * y + y * x])
        assert module_member(target, G)
        assert not module_member(vector([R.one(), R.zero()]), G)
        assert module_buchberger([]) == []


def test_module_basis_terms_carry_one_component(R):
    # pairs across components would leave products e_i*e_j in the basis
    x, y, z = R.gens()
    cols = [[x, y, z], [y, z, x], [z * z, x * y, R.zero()],
            [x + y, R.zero(), y * z]]
    tails = [[R.one() if i == j else R.zero() for i in range(4)]
             for j in range(4)]
    vecs = [vector(c + t) for c, t in zip(cols, tails)]
    basis = module_buchberger(vecs)
    assert basis
    for g in basis:
        for m in g.terms:
            assert sorted(g.ring.decode(m)[:7]) == [0] * 6 + [1]
    # the conversion back is exact
    for v in vecs:
        assert vector(components(v)) == v


def test_resolution_monomial_curve_345():
    I = monomial_curve((3, 4, 5))
    res = free_resolution(I)
    assert res.betti_numbers() == (1, 3, 2)
    assert res.length == 2
    # consecutive maps compose to zero
    for a, b in zip(res.maps, res.maps[1:]):
        assert _is_zero(compose_columns(a, b))


def test_resolution_complete_intersection(R):
    x, y, z = R.gens()
    I = Ideal(R, [x * x - y * z, y * y - x * z])
    res = free_resolution(I)
    # Koszul complex of a length-2 regular sequence
    assert res.betti_numbers() == (1, 2, 1)


def test_resolution_maximal_ideal(R):
    x, y, z = R.gens()
    I = Ideal(R, [x, y, z])
    res = free_resolution(I)
    assert res.betti_numbers() == (1, 3, 3, 1)
    assert res.length == 3


def test_resolution_rejects_degenerate(R):
    from cancelkit.errors import HypothesisFailed
    x, y, z = R.gens()
    assert free_resolution(Ideal(R, [R.zero()])).length == 0
    with pytest.raises(HypothesisFailed):
        free_resolution(Ideal(R, [R.one()]))


def test_worked_example_25_resolution():
    # README: the 2.5 prime is not Cohen-Macaulay
    P = example_ideal("2.5")
    assert free_resolution(P).betti_numbers() == (1, 5, 6, 2)
    s = cohomology_summary(P)
    assert s.depth == 1 and s.d == 2
    assert not s.is_CM


def test_worked_example_26_resolution():
    res = free_resolution(example_ideal("2.6"))
    assert res.betti_numbers() == (1, 8, 11, 4)
    for a, b in zip(res.maps, res.maps[1:]):
        assert _is_zero(compose_columns(a, b))


def test_depth_and_cm():
    # the twisted cubic is Cohen-Macaulay: depth = dim = 1, pd = 2
    I = monomial_curve((1, 2, 3))
    s = cohomology_summary(I)
    assert s.g == 2 and s.d == 1
    assert s.depth == 1
    assert s.is_CM
    assert s.ext_vanishes


def test_depth_of_mixed_ideal(R):
    x, y, z = R.gens()
    # (x) cap (x,y,z)^2: depth 0, not CM
    I = Ideal(R, [x]).intersect(Ideal(R, [x, y, z]) ** 2)
    s = cohomology_summary(I)
    assert s.depth == 0
    assert not s.is_CM


def test_ext_vanishing_noncm_case(R):
    x, y, z = R.gens()
    # two disjoint-ish planes meeting in a point: classic non-CM union
    R4 = Ring(R.field, ["a", "b", "c", "d"])
    a, b, c, d = R4.gens()
    I = Ideal(R4, [a, b]).intersect(Ideal(R4, [c, d]))
    s = cohomology_summary(I)
    assert s.g == 2 and not s.is_CM
    assert not s.ext_vanishes


def test_hom_into_the_ring_vanishes_for_nonzero_ideals(R):
    # Ext^0(R/I, R) = Hom(R/I, R) = 0 for every nonzero I in a domain,
    # and Hom(R/0, R) = R
    x, y, z = R.gens()
    for gens in ([x * y, x * z], [x], [x, y, z]):
        assert ext_vanishes_at(free_resolution(Ideal(R, gens)), 0), gens
    assert not ext_vanishes_at(free_resolution(Ideal(R, [R.zero()])), 0)


def test_aus_buch_additivity():
    # depth + pd = number of variables, on several examples
    for exps in [(1, 2, 3), (3, 4, 5), (2, 3)]:
        I = monomial_curve(exps)
        res = free_resolution(I)
        s = cohomology_summary(I)
        assert s.depth + res.length == I.ring.n


def _colon_identity(I, a, t):
    """The colon-extension identity (a:I) + (t) = ((a)+(t)) : I."""
    A, T = Ideal(I.ring, a), Ideal(I.ring, [t])
    return A.colon(I) + T == (A + T).colon(I)


def test_colon_identity_on_curves():
    # for ten certified instances: a colon with the defining equations
    # commutes with adding a parameter t, a nonzerodivisor on R/I and
    # R/(a), given the Ext vanishing
    checked = 0
    for exps in [(1, 2, 3), (2, 3, 5), (3, 4, 5), (3, 5, 7), (4, 5, 6),
                 (2, 5, 7), (3, 4, 7), (4, 5, 7), (4, 6, 7), (5, 6, 7)]:
        I = monomial_curve(exps)
        gens = sorted(I.generators, key=lambda f: f.wdegree())
        a = _regular_pair(I, gens)
        if a is None:
            continue
        assert cohomology_summary(I).ext_vanishes, exps
        t = _nzd(I, a)
        assert _colon_identity(I, a, t), exps
        checked += 1
    assert checked >= 10


def _regular_pair(I, gens):
    from itertools import combinations
    for pair in combinations(gens, 2):
        if Ideal(I.ring, list(pair)).height == 2:
            return list(pair)
    return None


def _nzd(I, a):
    ring = I.ring
    for v in ring.gens():
        if (I.colon_poly(v) == I
                and Ideal(ring, a).colon_poly(v) == Ideal(ring, a)):
            return v
    raise AssertionError("no linear nonzerodivisor found")


def test_colon_identity_requires_ext(R):
    R4 = Ring(R.field, ["a", "b", "c", "d"])
    a, b, c, d = R4.gens()
    I = Ideal(R4, [a, b]).intersect(Ideal(R4, [c, d]))
    seq = [a * c, b * d]
    A = Ideal(R4, seq)
    assert A.height == 2
    assert not cohomology_summary(I).ext_vanishes
    # without it the identity fails, though t is a nonzerodivisor on
    # R/I and on R/(a)
    t = a + c
    assert I.colon_poly(t) == I and A.colon_poly(t) == A
    assert not _colon_identity(I, seq, t)
