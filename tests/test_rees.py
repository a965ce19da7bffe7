import itertools

import pytest

from cancelkit import gb, rees
from cancelkit.errors import NotGraded
from cancelkit.fields import PrimeField, RationalField
from cancelkit.ideals import Ideal, kernel_of_map
from cancelkit.rees import (graded_piece, is_syzygetic, rees_presentation,
                            t_degree)
from cancelkit.ring import Ring, embed
from cancelkit.fixtures import monomial_curve

import oracle
from worked_examples import example_ideal


@pytest.fixture
def R():
    return Ring(PrimeField(32003), ["x", "y"])


def test_presentation_of_maximal_ideal(R):
    x, y = R.gens()
    pres = rees_presentation(Ideal(R, [x, y]))
    gb = list(pres.Q.groebner().generators)
    assert len(gb) == 1
    # the single Koszul relation y*T1 - x*T2, up to normalization
    S = pres.s_ring
    koszul = oracle.poly(S, "y*T1") - oracle.poly(S, "x*T2")
    assert pres.Q.contains_poly(koszul)
    assert pres.analytic_spread == 2
    assert pres.analytic_deviation == 0  # the maximal ideal has height 2


def test_veronese_fiber(R):
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y, y * y])
    pres = rees_presentation(I)
    fiber = list(pres.fiber_ideal.groebner().generators)
    assert len(fiber) == 1
    T = fiber[0].ring
    assert fiber[0] == oracle.poly(T, "T2^2") - oracle.poly(T, "T1*T3")
    assert pres.analytic_spread == 2
    rep = is_syzygetic(I)
    assert not rep.is_syzygetic
    assert len(rep.offenders) == 1


def test_equigenerated_fiber_keeps_the_kernel_basis(R, monkeypatch):
    # the fiber of an ideal generated in one degree is the kernel of
    # T_i -> a_i, returned with the reduced basis its elimination holds:
    # reading the spread runs no Buchberger in a ring of the T alone
    rings = []
    basis = gb._basis

    def recording(gens, ring, **kw):
        rings.append(ring.names)
        return basis(gens, ring, **kw)

    monkeypatch.setattr(gb, "_basis", recording)
    x, y = R.gens()
    pres = rees_presentation(Ideal(R, [x * x, x * y, y * y]))
    assert pres.analytic_spread == 2
    assert rings
    assert not [names for names in rings
                if all(n.startswith("T") for n in names)]


def test_linear_type_curve():
    I = monomial_curve((1, 2, 3))
    pres = rees_presentation(I)
    # complete intersection: single linear relation, fiber is a polynomial
    # ring, spread = height
    assert pres.analytic_spread == 2
    assert pres.analytic_deviation == 0
    assert is_syzygetic(I).is_syzygetic
    assert graded_piece(pres.Q, 2, pres.base_count) == [] or all(
        Ideal(pres.s_ring, pres.graded_piece(1)).contains_poly(q)
        for q in pres.graded_piece(2))


def test_monomial_curve_345_spread():
    I = monomial_curve((3, 4, 5))
    pres = rees_presentation(I)
    assert pres.analytic_spread == 3
    assert pres.analytic_deviation == 1
    assert is_syzygetic(I).is_syzygetic


def test_t_degree_and_grading(R):
    x, y = R.gens()
    pres = rees_presentation(Ideal(R, [x, y]))
    for g in pres.Q.groebner().generators:
        assert t_degree(g, pres.base_count) >= 1
    S = pres.s_ring
    with pytest.raises(NotGraded):
        t_degree(oracle.poly(S, "T1+T1*T2"), pres.base_count)
    assert t_degree(oracle.poly(S, "x*y"), pres.base_count) == 0


def test_presentation_ideal_contains_koszul_relations(R):
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y, y * y])
    pres = rees_presentation(I)
    S = pres.s_ring
    # a_j T_i - a_i T_j is always a relation
    gens = I.generators
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            from cancelkit.ring import embed
            ai = embed(gens[i], S, [0, 1])
            aj = embed(gens[j], S, [0, 1])
            rel = aj * S.var(2 + i) - ai * S.var(2 + j)
            assert pres.Q.contains_poly(rel)


def test_fiber_matches_oracle(R):
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y, y * y])
    pres = rees_presentation(I)
    fiber_gens = list(pres.fiber_ideal.generators)
    T = pres.fiber_ideal.ring
    expected = [oracle.poly(T, "T2^2") - oracle.poly(T, "T1*T3")]
    assert oracle.ideals_equal_upto_degree(fiber_gens, expected, 4)


@pytest.mark.parametrize("field", [PrimeField(32003), RationalField()],
                         ids=["zp", "q"])
def test_rees_presentation_is_kernel(field):
    # Q, one elimination of t from (T_i - a_i*t) in S[t], against the
    # kernel of S -> R[t], x -> x, T_i -> a_i*t, an elimination of all
    # n + 1 variables of R[t].  The first two ideals are homogeneous but
    # their fiber certificates fail, (x,y,z)^2 is equigenerated, so its
    # fiber is kernel_of_map's, and the last is not homogeneous.
    R3 = Ring(field, ["x", "y", "z"])
    x, y, z = R3.gens()
    R4 = Ring(field, ["a", "b", "c", "d"])
    a, b, c, d = R4.gens()
    for I in (Ideal(R3, [x ** 2, y ** 3, z ** 3, x * y * z]),
              Ideal(R4, [a ** 2, b ** 3, c ** 2 * d, a * b * c]),
              Ideal(R3, [x, y, z]) ** 2,
              Ideal(R3, [x ** 2 - y, y ** 2 - z, x * z])):
        pres = rees_presentation(I)
        n = I.ring.n
        target = Ring(field, tuple("@" + v for v in I.ring.names) + ("@t",))
        t = target.var(n)
        images = [target.var(j) for j in range(n)]
        images += [embed(g, target, range(n)) * t for g in I.generators]
        K = kernel_of_map(pres.s_ring, images)
        assert K == pres.Q


def test_lemma_prefix_relations(R):
    # for a regular-sequence prefix a_1..a_k of the generator list, every
    # T-degree-2 element of Q cap (T_1..T_k) lies in the ideal of the
    # linear relations Q_1; the cubic (3, 4, 5) has five such elements in
    # the basis of the intersection, the complete intersection (1, 2, 3)
    # none
    k, checked = 2, 0
    for exps in [(1, 2, 3), (3, 4, 5)]:
        I = monomial_curve(exps)
        assert Ideal(I.ring, I.generators[:k]).height == k
        pres = rees_presentation(I)
        s_ring, base = pres.s_ring, pres.base_count
        t_block = Ideal(s_ring, [s_ring.var(base + i) for i in range(k)])
        linear = Ideal(s_ring, pres.graded_piece(1))
        for g in pres.Q.intersect(t_block).groebner().generators:
            if t_degree(g, base) == 2:
                assert linear.contains_poly(g), exps
                checked += 1
    assert checked == 5
    # the lemma asks for a regular sequence: x*y is not regular mod x*x
    x, y = R.gens()
    assert Ideal(R, [x * x, x * y]).height == 1


def test_t_names_avoid_the_ring_names():
    # a ring with a variable T1 gets TT1..TTm, one with TT2 as well
    # TTT1..TTTm; the presentation is that of the same ideal in x, y
    def veronese(names):
        a, b = Ring(PrimeField(32003), names).gens()
        return rees_presentation(Ideal(a.ring, [a * a, a * b, b * b]))

    plain = veronese(["x", "y"])
    for names, prefix in ((["T1", "y"], "TT"), (["T1", "TT2"], "TTT")):
        pres = veronese(names)
        t_names = tuple(f"{prefix}{i}" for i in (1, 2, 3))
        assert pres.s_ring.names == tuple(names) + t_names
        assert pres.fiber_ideal.ring.names == t_names
        assert [str(g).replace(prefix, "T") for g in
                pres.fiber_ideal.groebner().generators] == \
            [str(g) for g in plain.fiber_ideal.groebner().generators]
        assert pres.analytic_spread == plain.analytic_spread == 2
        assert len(pres.Q.groebner().generators) \
            == len(plain.Q.groebner().generators)


# mixed-degree homogeneous ideals: the certificate sandwich closes on the
# first four (their fiber ideal given) and not on the last two
MIXED_DEGREE_FIBERS = (
    (["x", "y"], ["x2", "x*y", "y3"], ["T1*T3"]),
    (["x", "y", "z"], ["x*y", "y*z", "z3", "x3"],
     ["T1^3*T3+32002*T2^3*T4"]),
    (["x", "y", "z"], ["x2", "x*y", "y3", "z3"], ["T1*T3"]),
    (["x", "y"], ["x2", "x*y2 + y3", "y4"], ["T3"]),
    (["x", "y"], ["x2", "y3"], None),
    (["x", "y"], ["x2", "x*y2", "y3"], None),
)


@pytest.mark.parametrize("names, gens, fiber", MIXED_DEGREE_FIBERS)
def test_fiber_is_the_image_of_q(names, gens, fiber):
    # however the fiber ideal is found, it is the image of the Rees
    # presentation ideal Q under x -> 0
    R = Ring(PrimeField(32003), names)
    I = Ideal(R, [oracle.poly(R, g) for g in gens])
    pres = rees_presentation(I)
    T = pres.fiber_ideal.ring
    to_t = [None] * R.n + list(range(len(gens)))
    image = Ideal(T, [embed(q, T, to_t) for q in pres.Q.generators])
    assert pres.fiber_ideal == image
    certified = rees._fiber_by_certificates(I, T)
    if fiber is None:
        assert certified is None
    else:
        assert [str(g) for g in certified.groebner().generators] == fiber


@pytest.mark.parametrize("names, gens, fiber", MIXED_DEGREE_FIBERS)
def test_fiber_membership_is_the_image_of_q(names, gens, fiber):
    # q(a_1..a_m) in m*I^d degree by degree is membership in the image of
    # Q under x -> 0: on that image's generators, on the valuation bound
    # and on the T-monomials of degree <= 2 and their differences
    R = Ring(PrimeField(32003), names)
    I = Ideal(R, [oracle.poly(R, g) for g in gens])
    pres = rees_presentation(I)
    T = pres.fiber_ideal.ring
    to_t = [None] * R.n + list(range(len(gens)))
    image = Ideal(T, [embed(q, T, to_t) for q in pres.Q.generators])
    upper = None
    for w in rees._equalizing_weights(I):
        Kw = rees._valuation_kernel(I, w, T)
        upper = Kw if upper is None else upper.intersect(Kw)
    monomials = [T.one()] + T.gens()
    monomials += [T.var(i) * T.var(j)
                  for i in range(T.n) for j in range(i, T.n)]
    candidates = (list(image.generators)
                  + list(upper.generators if upper else [])
                  + monomials
                  + [p - q for p, q in itertools.combinations(monomials, 2)])
    verdicts = [rees._in_fiber(I, [q]) for q in candidates]
    assert verdicts == [image.contains_poly(q) for q in candidates]


def test_worked_example_25_rees():
    # README "Worked examples": the 2.5 prime, generated in mixed weighted
    # degrees, has analytic spread 4 and a principal fiber ideal of degree
    # 2 that splits into two distinct linear forms; the mixed-degree
    # certificate path closes on it
    pres = rees_presentation(example_ideal("2.5"))
    assert pres.analytic_spread == 4
    assert [str(g) for g in pres.fiber_ideal.groebner().generators] == \
        ["T1*T5"]
