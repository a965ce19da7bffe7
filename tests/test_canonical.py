"""A differential test of the canonical form over Q.

Seeded random polynomials with denominators go through every operation
that builds a polynomial.  Each result must equal a reference computed on
dicts of Fractions (or by sympy, for the Groebner basis and the normal
form), and must be canonical: integer numerators over one denominator
den >= 1 that shares no factor with all of them, and no zero term."""

import random
from fractions import Fraction

import pytest
import sympy

import oracle
from cancelkit.fields import RationalField
from cancelkit.gb import buchberger, normal_form
from cancelkit.modules import components, vector
from cancelkit.orders import Grevlex, Lex
from cancelkit.ring import Ring, embed

NAMES = ("x", "y", "z")
ORDERS = {"grevlex": Grevlex, "lex": Lex}


def _ring(seed):
    order = sorted(ORDERS)[seed % 2]
    return Ring(RationalField(), NAMES, ORDERS[order]()), order


def _random_coefficients(R, rng, degree=2):
    """Packed monomial -> nonzero Fraction, most with a denominator."""
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        m = R.encode(tuple(rng.randint(0, degree) for _ in NAMES))
        coeffs[m] = Fraction(rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]),
                             rng.choice([1, 2, 3, 4, 6, 9]))
    return coeffs


def _add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _scale(a, c):
    return {m: v * c for m, v in a.items()} if c else {}


def _check(f, reference):
    """f is canonical, its coefficients are the reference's, and it is
    equal, with the same hash, to the polynomial built from them."""
    assert oracle.is_canonical(f), (f.terms, f.den)
    assert oracle.coefficients(f) == reference
    built = oracle.from_coefficients(f.ring, reference)
    assert f == built and hash(f) == hash(built)


def _to_sympy(f, syms):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s ** e for s, e in zip(syms, f.ring.decode(m))])
        for m, c in oracle.coefficients(f).items()])


@pytest.mark.parametrize("seed", range(16))
def test_arithmetic_matches_fraction_dicts(seed):
    rng = random.Random(f"canonical-{seed}")
    R, _ = _ring(seed)
    a, b = _random_coefficients(R, rng), _random_coefficients(R, rng)
    f, g = oracle.from_coefficients(R, a), oracle.from_coefficients(R, b)
    _check(f, a)
    _check(g, b)
    _check(f + g, _add(a, b))
    _check(f - g, _add(a, _scale(b, -1)))
    _check(f - f, {})
    _check(-f, _scale(a, -1))
    _check(f * g, _mul(a, b))
    _check(f ** 3, _mul(a, _mul(a, a)))
    c = Fraction(rng.choice([-9, -2, 3, 5]), rng.choice([2, 3, 10]))
    _check(f.scale(c), _scale(a, c))
    _check(f.scale(0), {})
    # two multiples whose sum has a smaller denominator than either
    _check(f.scale(c) + f.scale(1 - c), a)
    _check(oracle.monic(f), _scale(a, 1 / a[max(a, key=R.key)]))
    assert type(f.lc()) is Fraction and f.lc() == a[f.lm()]


@pytest.mark.parametrize("seed", range(16))
def test_embeddings_and_vectors_match_fraction_dicts(seed):
    rng = random.Random(f"canonical-parts-{seed}")
    R, _ = _ring(seed)
    a, b = _random_coefficients(R, rng), _random_coefficients(R, rng)
    f, g = oracle.from_coefficients(R, a), oracle.from_coefficients(R, b)
    S = Ring(R.field, ("w",) + NAMES + ("v",))
    _check(embed(f, S, [1, 2, 3]),
           {S.encode((0,) + R.decode(m) + (0,)): c for m, c in a.items()})
    # a projection killing y keeps only some of the numerators
    T = Ring(R.field, ("x", "z"))
    _check(embed(f, T, [0, None, 1]),
           {T.encode(R.decode(m)[::2]): c for m, c in a.items()
            if not R.decode(m)[1]})
    ab = _mul(a, b)
    parts = (a, b, {}, ab)
    v = vector([f, g, R.zero(), f * g])
    _check(v, {m + (1 << s): c
               for s, part in zip(v.ring._shifts, parts)
               for m, c in part.items()})
    for got, part in zip(components(v), parts):
        _check(got, part)
    c = Fraction(rng.choice([-3, 2, 7]), rng.choice([2, 5, 6]))
    w = v.scale(c) + vector([g, f, f, R.zero()])
    for got, part in zip(components(w), (_add(_scale(a, c), b),
                                         _add(_scale(b, c), a), a,
                                         _scale(ab, c))):
        _check(got, part)


def test_a_part_shares_no_factor_with_den():
    """Keeping some terms of a canonical polynomial can leave a factor
    common to den and the numerators kept; it is divided out."""
    R = Ring(RationalField(), NAMES)
    x, y, z = R.gens()
    f = (x.scale(3) + y.scale(2)).scale(Fraction(1, 3))  # x + 2/3*y
    assert (f.terms, f.den) == ({R.encode((1, 0, 0)): 3,
                                 R.encode((0, 1, 0)): 2}, 3)
    T = Ring(R.field, ("x", "z"))
    _check(embed(f, T, [0, None, 1]), {T.encode((1, 0)): Fraction(1)})
    _check(components(vector([x.scale(Fraction(1, 2)),
                              y.scale(Fraction(1, 3))]))[0],
           {R.encode((1, 0, 0)): Fraction(1, 2)})


@pytest.mark.parametrize("seed", range(12))
def test_groebner_and_normal_form_match_sympy(seed):
    rng = random.Random(f"canonical-gb-{seed}")
    R, order = _ring(seed)
    syms = sympy.symbols(NAMES)
    # two generators: for three random ones of these degrees, cancelkit's
    # direct lex loop over Q can take minutes (sympy takes seconds)
    gens = [oracle.from_coefficients(R, _random_coefficients(R, rng))
            for _ in range(2)]
    G = buchberger(gens)
    reference = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms,
                               order=order, domain="QQ")
    assert all(oracle.is_canonical(g) for g in G)
    assert all(g.lc() == 1 for g in G)
    assert sorted(str(_to_sympy(g, syms)) for g in G) == \
        sorted(str(e) for e in reference.exprs)
    probe = oracle.from_coefficients(R, _random_coefficients(R, rng, 3))
    for f in (probe, probe * gens[0] + probe.scale(Fraction(1, 7))):
        r = normal_form(f, G)
        assert oracle.is_canonical(r)
        _, expected = sympy.reduced(_to_sympy(f, syms),
                                    list(reference.exprs), *syms,
                                    order=order, domain="QQ")
        assert sympy.expand(_to_sympy(r, syms) - expected) == 0
