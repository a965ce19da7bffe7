import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cancelkit import ideals
from cancelkit.errors import RingMismatch, ZeroColon
from cancelkit.fields import PrimeField, RationalField
from cancelkit.ideals import Ideal, kernel_of_map, radical_contains
from cancelkit.orders import Block, Elimination, Grevlex, Lex
from cancelkit.ring import Ring

import oracle
from worked_examples import example_ideal


@pytest.fixture
def R():
    return Ring(PrimeField(32003), ["x", "y", "z"])


def test_kernel_of_map_twisted_cubic(R):
    S = Ring(R.field, ["t"])
    t, = S.gens()
    I = kernel_of_map(R, [t, t ** 2, t ** 3])
    R = I.ring  # reweighted copy of the source ring
    x, y, z = R.gens()
    assert I.contains_poly(y - x * x)
    assert I.contains_poly(z - x * y)
    assert I.contains_poly(x * z - y * y)
    assert not I.contains_poly(x)
    assert I.dim == 1
    assert I.height == 2


def test_monomial_curve_345():
    R = Ring(PrimeField(32003), ["x", "y", "z"], weights=(3, 4, 5))
    S = Ring(PrimeField(32003), ["t"])
    t, = S.gens()
    I = kernel_of_map(R, [t ** 3, t ** 4, t ** 5])
    x, y, z = R.gens()
    assert I.min_gens() == 3
    assert I.contains_poly(y * y - x * z)
    assert I.contains_poly(x ** 3 - y * z)
    assert I.contains_poly(z * z - x * x * y)
    assert I.height == 2 and I.dim == 1


def test_sum_product_power(R):
    x, y, z = R.gens()
    I = Ideal(R, [x])
    J = Ideal(R, [y])
    assert (I + J).contains_poly(x + y)
    assert (I * J).contains_poly(x * y)
    assert not (I * J).contains_poly(x)
    P = Ideal(R, [x, y]) ** 2
    assert P.contains_poly(x * y)
    assert not P.contains_poly(x)
    assert (Ideal(R, [x, y]) ** 0).is_unit()


def test_intersection_vs_oracle():
    for field in (PrimeField(32003), RationalField()):
        R = Ring(field, ["x", "y", "z"])
        x, y, z = R.gens()
        I = Ideal(R, [x * x, x * y])
        J = Ideal(R, [y * y, x * y])
        K = I.intersect(J)
        # (x^2, xy) cap (y^2, xy) = (xy, x^2 y^2)
        expected = [x * y, x * x * y * y]
        assert oracle.ideals_equal_upto_degree(
            list(K.generators), expected, max_degree=6)
        # a coefficient other than 1 exercises the Fraction arithmetic
        I = Ideal(R, [x * x - R.constant(2) * y * z, x * y])
        K = I.intersect(J)
        assert I.contains(K) and J.contains(K) and K.contains(I * J)
        assert not K.contains(I)


def test_colon_and_saturation():
    for field in (PrimeField(32003), RationalField()):
        R = Ring(field, ["x", "y", "z"])
        x, y, z = R.gens()
        I = Ideal(R, [x * y, x * z])
        # (xy, xz) : x = (y, z)
        Q = I.colon_poly(x)
        assert Q == Ideal(R, [y, z])
        # saturating x^2*(y,z) by (x) recovers (y, z)
        J = Ideal(R, [x * x * y, x * x * z])
        assert J.saturate(Ideal(R, [x])) == Ideal(R, [y, z])
        # the same by a Polynomial
        assert J.saturate(x) == Ideal(R, [y, z])
        # non-homogeneous, by a non-monomial, with coefficients 2 and 3
        f, g = x + R.one(), y * y.scale(2) + R.constant(3)
        N = Ideal(R, [f * f * g, f * (z - R.one())])
        assert N.saturate(f) == Ideal(R, [g, z - R.one()])
        assert N.saturate(x) == N
        # by a 2-generated ideal: (x) cap (x^2, y) loses its
        # (x, y)-primary component
        M = Ideal(R, [x * x, x * y])
        assert M.saturate(Ideal(R, [x, y])) == Ideal(R, [x])
        assert Ideal(R, [x * z, y * z]).saturate(Ideal(R, [x, y])) == \
            Ideal(R, [z])
        # colon by an ideal
        assert I.colon(Ideal(R, [x])) == Ideal(R, [y, z])
        for zero in (R.zero(), Ideal(R, []), Ideal(R, [R.zero()])):
            with pytest.raises(ZeroColon):
                J.saturate(zero)


def _saturate_by_colons(I, J):
    """I : J^infinity as the stable value of colons by J: the reference
    the one-basis saturation must agree with."""
    current = I
    while True:
        nxt = current.colon(J)
        if current.contains(nxt):
            return current
        current = nxt


def test_saturation_by_an_ideal_matches_colons():
    for field in (PrimeField(32003), RationalField()):
        R = Ring(field, ["x", "y", "z"])
        x, y, z = R.gens()
        one, two = R.one(), R.constant(field.normalize(2))
        cases = [
            (Ideal(R, [x * x * y, x * y * y * z, y ** 3]), Ideal(R, [x, y])),
            (Ideal(R, [x * x * y, x * y * y, x * y * z, z ** 4]),
             Ideal(R, [x, y, z])),
            # non-homogeneous I and J
            (Ideal(R, [(x - one) ** 2 * y, (x - one) * (z + two),
                       y * y * (z + two)]),
             Ideal(R, [x - one, z + two])),
            # a curve with an embedded point at (1, 1, -2), a zero of J
            (Ideal(R, [x * y - one, z + two]).intersect(
                Ideal(R, [x - one, y - one, z + two]) ** 2),
             Ideal(R, [x - one, z + two, y * y - one])),
        ]
        for I, J in cases:
            S = I.saturate(J)
            assert S == _saturate_by_colons(I, J)
            assert not S.is_unit() and S != I


def test_colon_untouched_when_coprime(R):
    x, y, z = R.gens()
    I = Ideal(R, [x * x, y])
    assert I.colon_poly(z) == I


def test_elimination(R):
    x, y, z = R.gens()
    # eliminate z from (z - x^2, y - z^2): should leave y - x^4
    I = Ideal(R, [z - x * x, y - z * z])
    E = I.eliminate(["z"])
    assert E.ring.names == ("x", "y")
    ex, ey = E.ring.gens()
    assert E == Ideal(E.ring, [ey - ex ** 4])


def _random_poly(ring, rng):
    """Three terms of degree at most 2, small nonzero coefficients."""
    monomials = [e for e in itertools.product(range(3), repeat=ring.n)
                 if sum(e) <= 2]
    return oracle.from_terms(ring, [(rng.choice(monomials), rng.randint(1, 9))
                                    for _ in range(3)])


def test_eliminations_hold_the_target_basis_only_in_its_order():
    """saturate, eliminate and kernel_of_map hand back the reduced basis
    their elimination holds when the block order ends in the target's
    order (lex, grevlex, weighted grevlex), and none under a block
    target, whose order the elimination does not end in."""
    rng = random.Random("held-basis")
    sources = [(Lex(), None), (Grevlex(), None), (Grevlex(), (1, 2, 3)),
               (Block(1, Grevlex(), Grevlex()), None)]
    for field in (PrimeField(32003), RationalField()):
        S = Ring(field, ["s", "t"])
        for order, weights in sources:
            R = Ring(field, ["x", "y", "z"], order, weights)
            for _ in range(3):
                I = Ideal(R, [_random_poly(R, rng) for _ in range(2)])
                f, g = _random_poly(R, rng), _random_poly(R, rng)
                images = [oracle.monomial(S, (a, rng.randint(1, 3) - a))
                          for a in (rng.randint(0, 1) for _ in "xyz")]
                if rng.random() < 0.5:  # inhomogeneous: no weighted copy
                    images = [h + S.constant(rng.randint(1, 9))
                              for h in images]
                results = {"saturate": I.saturate(f),
                           "saturate by an ideal": I.saturate(
                               Ideal(R, [f, g])),
                           "eliminate": I.eliminate(["x"]),
                           "kernel_of_map": kernel_of_map(R, images)}
                for name, J in results.items():
                    if isinstance(J.ring.order, Block):
                        assert J._gb is None, name
                    else:
                        fresh = Ideal(J.ring, J.generators).groebner()
                        assert J._gb.generators == fresh.generators, name


def _block_elimination_ring(target, names, weights):
    """The reference for ideals._elimination_ring: the same ring under
    Block(k, Grevlex(), tail), which orders the eliminated variables by
    grevlex first and only then the target's."""
    k = len(names)
    all_weights = None if weights is None and target.weights is None \
        else tuple(weights or (1,) * k) + (target.weights or (1,) * target.n)
    return Ring(target.field, tuple(names) + target.names,
                Block(k, Grevlex(), ideals._tail(target)), all_weights)


@pytest.mark.parametrize("weights", [None, (1, 2, 3)],
                         ids=["unweighted", "weighted"])
@pytest.mark.parametrize("field", [PrimeField(32003), RationalField()],
                         ids=["zp", "q"])
def test_degree_first_eliminations_match_block_orders(field, weights,
                                                      monkeypatch):
    """saturate, eliminate and kernel_of_map of a grevlex ring give the
    byte-identical reduced basis, which the result holds, under the
    degree-first order they eliminate with and under the block order of
    the reference: both restrict to the target's order."""
    rng = random.Random(f"degree-first-{field.describe()}-{weights}")
    R = Ring(field, ["x", "y", "z"], Grevlex(), weights)
    S = Ring(field, ["s", "t"], weights=weights and (2, 1))
    assert ideals._elimination_ring(R, ["s"], None).order == Elimination(1)
    cases = []
    for _ in range(4):
        I = Ideal(R, [_random_poly(R, rng) for _ in range(2)])
        f, g = _random_poly(R, rng), _random_poly(R, rng)
        images = [oracle.monomial(S, (a, rng.randint(1, 3) - a))
                  for a in (rng.randint(0, 1) for _ in "xyz")]
        if rng.random() < 0.5:
            images = [h + S.constant(rng.randint(1, 9)) for h in images]
        cases.append((I, f, g, images))

    def bases():
        out = []
        for I, f, g, images in cases:
            for J in (I.saturate(f), I.saturate(Ideal(R, [f, g])),
                      I.eliminate(["x"]), I.eliminate(["x", "z"]),
                      kernel_of_map(R, images)):
                assert J._gb.generators == list(J.generators)
                out.append((J.ring, [(str(h), h.den, list(h.terms.items()))
                                     for h in J.generators]))
        return out

    degree_first = bases()
    monkeypatch.setattr(ideals, "_elimination_ring", _block_elimination_ring)
    assert bases() == degree_first
    assert any(len(basis) > 1 for _, basis in degree_first)


def test_dimension_and_height(R):
    x, y, z = R.gens()
    assert Ideal(R, [x]).dim == 2
    assert Ideal(R, [x, y]).dim == 1
    assert Ideal(R, [x, y, z]).dim == 0
    assert Ideal(R, [x, y, z]).height == 3
    assert Ideal(R, [R.one()]).dim == -1
    assert Ideal(R, [R.zero()]).dim == 3


def test_min_gens(R):
    x, y, z = R.gens()
    assert Ideal(R, [x, y, x + y, x * x]).min_gens() == 2
    assert Ideal(R, [x * x, x * y, y * y]).min_gens() == 3


def test_worked_example_generator_counts():
    # README "Worked examples": the 2.5 prime has height 2 and 5 minimal
    # generators, the 2.6 prime has 8
    P = example_ideal("2.5")
    assert (P.height, P.min_gens()) == (2, 5)
    assert example_ideal("2.6").min_gens() == 8


def test_worked_example_27_is_the_maximal_minors():
    # the 2.7 script writes out the 15 maximal minors of a 4x6 matrix of
    # linear forms; each is recomputed here by the Leibniz formula
    I = example_ideal("2.7")
    a, b, c, d, e, f = I.ring.gens()
    matrix = [[a, b, c, e, f, d],
              [d, a, b, c, e, f],
              [e, d, a, b, c, e],
              [f, e, d, a, b, c]]
    minors = []
    for cols in itertools.combinations(range(6), 4):
        det = I.ring.zero()
        for perm in itertools.permutations(range(4)):
            inversions = sum(perm[i] > perm[j]
                             for i, j in itertools.combinations(range(4), 2))
            term = I.ring.constant(I.ring.field.normalize(
                (-1) ** inversions))
            for row, k in enumerate(perm):
                term = term * matrix[row][cols[k]]
            det = det + term
        minors.append(det)
    assert list(I.generators) == minors


def test_radical_membership(R):
    x, y, z = R.gens()
    I = Ideal(R, [x * x * y, y ** 3])
    assert radical_contains(I, x * y)
    assert radical_contains(I, y)
    assert not radical_contains(I, x)
    assert not radical_contains(I, z)
    # an ideal is in the radical iff each of its generators is
    assert radical_contains(I, Ideal(R, [x * y, y * y + x * y * z]))
    assert not radical_contains(I, Ideal(R, [y, x * z]))
    assert radical_contains(I, Ideal(R, []))
    U = Ring(R.field, ["u"])
    for zero in (U.zero(), Ideal(U, [])):
        with pytest.raises(RingMismatch):
            radical_contains(I, zero)


def test_radical_membership_saturates_only_outside_the_ideal(R,
                                                              monkeypatch):
    x, y, z = R.gens()
    I = Ideal(R, [x * x * y, y ** 3])
    saturations = []
    original = Ideal.saturate

    def counted(self, other):
        saturations.append(other)
        return original(self, other)

    monkeypatch.setattr(Ideal, "saturate", counted)
    for f, member, calls in ((x * x * y * z, True, 0),
                             (Ideal(R, [y ** 3, x ** 3 * y]), True, 0),
                             (x * y, True, 1), (x, False, 1)):
        del saturations[:]
        assert radical_contains(I, f) is member
        assert len(saturations) == calls


def test_unmixedness(R):
    x, y, z = R.gens()
    # (x) cap (x, y, z)^2 has an embedded component at the origin
    mixed = Ideal(R, [x]).intersect(Ideal(R, [x, y, z]) ** 2)
    assert not oracle.is_unmixed(mixed, [x * x])
    # a complete intersection is unmixed
    ci = [x * x - y * z, y * y - x * z]
    assert oracle.is_unmixed(Ideal(R, ci), ci)
    assert oracle.is_unmixed(Ideal(R, [x * y]), [x * y])  # height-1 principal


def test_equality_and_containment(R):
    x, y, z = R.gens()
    I = Ideal(R, [x + y, y])
    J = Ideal(R, [x, y])
    assert I == J
    assert J.contains(Ideal(R, [x * x + y * z * y]))
    assert not Ideal(R, [x]).contains(J)


def test_colon_by_multigenerator_ideal():
    for field in (PrimeField(32003), RationalField()):
        R = Ring(field, ["x", "y", "z"])
        x, y, z = R.gens()
        I = Ideal(R, [x * y, x * z, y * z])
        # (xy, xz, yz) : (x, y) = (z, xy)
        C = I.colon(Ideal(R, [x, y]))
        assert oracle.ideals_equal_upto_degree(
            list(C.generators), [z, x * y], max_degree=5)
        # coefficients other than 1: (x^2 - 2yz, 3xy) : (x, y - 2z)
        two, three = R.constant(2), R.constant(3)
        I = Ideal(R, [x * x - two * y * z, three * x * y])
        J = Ideal(R, [x, y - two * z])
        C = I.colon(J)
        # the answer is one colon by a polynomial intersected with the other
        expected = I.colon_poly(x).intersect(I.colon_poly(y - two * z))
        assert oracle.ideals_equal_upto_degree(
            list(C.generators), list(expected.generators), max_degree=6)
        assert all(I.contains_poly(h * f)
                   for h in C.generators for f in J.generators)
        assert C.contains(I) and not C.is_unit()


def test_syzygy_columns_with_relations():
    from cancelkit.modules import (module_buchberger, module_member,
                                   syzygy_columns, vector)
    for field in (PrimeField(32003), RationalField()):
        R = Ring(field, ["x", "y", "z"])
        x, y, z = R.gens()
        zero = R.zero()
        # columns (x, 0), (y, 0), (0, z) of R^2 modulo the module N
        # generated by (xy, 0) and (0, z^2): h maps into N iff
        # h_1 x + h_2 y lies in (xy) and h_3 z in (z^2), so the kernel is
        # generated by (y, 0, 0), (0, x, 0) and (0, 0, z).  N enters as
        # known relations, the reduced bases of (xy) and (z^2) times e_0
        # and e_1, a module Groebner basis, as colon and intersection
        # pass it
        columns = [[x, zero], [y, zero], [zero, z]]
        relations = ([[g, zero] for g in Ideal(R, [x * y]).groebner()]
                     + [[zero, g] for g in Ideal(R, [z * z]).groebner()])
        assert relations == [[x * y, zero], [zero, z * z]]
        kernel = syzygy_columns(columns, known=relations)
        assert kernel
        for h in kernel:
            image = [sum((h[j] * columns[j][i] for j in range(3)), zero)
                     for i in range(2)]
            # first coordinate in (xy), second in (z^2)
            assert Ideal(R, [x * y]).contains_poly(image[0])
            assert Ideal(R, [z * z]).contains_poly(image[1])
        basis = module_buchberger([vector(h) for h in kernel])
        for known in ([y, -x, zero], [y, zero, zero], [zero, x, zero],
                      [zero, zero, z]):
            assert module_member(vector(known), basis)
        assert not module_member(vector([x, zero, zero]), basis)
        assert not module_member(vector([zero, zero, R.one()]), basis)
        # without relations: only the syzygy (y, -x, 0)
        syz = syzygy_columns(columns)
        assert len(syz) == 1
        assert module_member(vector([y, -x, zero]),
                             module_buchberger([vector(syz[0])]))


def test_colon_is_one_module_computation(monkeypatch):
    from cancelkit import modules
    calls = []
    original = modules.module_buchberger

    def counted(*args, **kw):
        calls.append(1)
        return original(*args, **kw)

    monkeypatch.setattr(modules, "module_buchberger", counted)
    R = Ring(PrimeField(32003), ["x", "y", "z"])
    x, y, z = R.gens()
    I = Ideal(R, [x * y * z, x * x * y, y ** 3])
    J = Ideal(R, [x, y, z])
    C = I.colon(J)
    assert len(calls) == 1
    # a monomial h is in the colon iff hx, hy and hz all lie in I
    assert C == Ideal(R, [x * y * z, x * x * y, x * y * y, y ** 3])


def test_saturation_by_an_element_is_one_basis(monkeypatch):
    from cancelkit import ideals, modules
    calls = {"buchberger": 0, "module_buchberger": 0}

    def counted(name, original):
        def wrapper(*args, **kw):
            calls[name] += 1
            return original(*args, **kw)
        return wrapper

    R = Ring(PrimeField(32003), ["x", "y", "z"])
    x, y, z = R.gens()
    I = Ideal(R, [x ** 3 * y, x * x * z * z, x * y * z])
    monkeypatch.setattr(ideals, "buchberger",
                        counted("buchberger", ideals.buchberger))
    monkeypatch.setattr(modules, "module_buchberger",
                        counted("module_buchberger",
                                modules.module_buchberger))
    S = I.saturate(Ideal(R, [x]))
    assert calls == {"buchberger": 1, "module_buchberger": 0}
    # a 3-generated J is one basis as well, with no colon
    calls.update(buchberger=0, module_buchberger=0)
    M = Ideal(R, [x, y, z])
    I3 = Ideal(R, [x * x * y, x * y * y, x * y * z, z ** 4])
    S3 = I3.saturate(M)
    assert calls == {"buchberger": 1, "module_buchberger": 0}
    monkeypatch.undo()
    assert S == Ideal(R, [y, z * z])
    assert S3 == _saturate_by_colons(I3, M) == Ideal(R, [x * y, z ** 4])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 32002), st.integers(0, 32002))
def test_colon_inverse_to_product(a, b):
    R = Ring(PrimeField(32003), ["x", "y", "z"])
    x, y, z = R.gens()
    f = x * x + y.scale(a) + z.scale(b) + y * z
    I = Ideal(R, [x * y - z * z, y * y - x * z])
    if f.is_zero():
        return
    # (f*I) : f recovers I whenever f is a nonzerodivisor
    J = Ideal(R, [f * g for g in I.generators])
    assert J.colon_poly(f) == I
