import ast
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cancelkit
from cancelkit.errors import (ArityMismatch, ResourceExceeded,
                              ScriptSyntaxError)
from cancelkit.fields import PrimeField, RationalField
from cancelkit.gb import buchberger
from cancelkit.orders import Block, Grevlex, Lex
from cancelkit.ring import EXP_MAX, Polynomial, Ring, embed

import oracle


@pytest.fixture
def R():
    return Ring(PrimeField(32003), ["x", "y", "z"])


def _random_poly(R, rng, max_deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(R.n))
        c = rng.randint(0, 32002)
        if c:
            terms[R.encode(exps)] = c
    return Polynomial(R, terms)


def test_encode_decode_round_trip(R):
    for exps in [(0, 0, 0), (1, 2, 3), (17, 0, 255)]:
        assert R.decode(R.encode(exps)) == exps


def test_monomial_guard_divisibility(R):
    a = R.encode((1, 2, 0))
    b = R.encode((2, 2, 1))
    assert R.mono_divides(a, b)
    assert not R.mono_divides(b, a)
    # the borrow case that a naive packed comparison would get wrong
    c = R.encode((0, 3, 0))
    d = R.encode((2, 2, 2))
    assert not R.mono_divides(c, d)


def test_mono_mul_is_exponent_addition(R):
    a = R.encode((1, 2, 3))
    b = R.encode((4, 0, 1))
    assert R.decode(a + b) == (5, 2, 4)
    assert R.decode(R.mono_lcms(a, [b])[0]) == (4, 2, 3)
    # the packed lcm at the ends of the exponent range, with a > b and
    # a < b in neighbouring fields, and in a ring of twelve variables
    top = 32767
    for ring, ea, eb in [
            (R, (0, top, 0), (top, 0, 0)),
            (R, (top, top, top), (0, 0, 0)),
            (R, (top, 1, top), (top - 1, 2, top)),
            (Ring(R.field, [f"v{i}" for i in range(12)]),
             (0, top, 5, 4, top, 0, 1, 2, 3, 9, 0, top),
             (top, 0, 4, 5, 0, top, 2, 1, 3, 8, top, top))]:
        a, b = ring.encode(ea), ring.encode(eb)
        expected = tuple(max(x, y) for x, y in zip(ea, eb))
        assert ring.decode(ring.mono_lcms(a, [b])[0]) == expected
        assert ring.decode(ring.mono_lcms(b, [a])[0]) == expected


def test_exponent_overflow_is_refused(R):
    x = R.gens()[0]
    big = x ** 20000
    with pytest.raises(ResourceExceeded):
        big * big
    assert (x ** 32767).lm() == R.encode((32767, 0, 0))
    # the S-polynomial shifts y*z^20000 by z^15000
    for field in (R.field, RationalField()):
        x, y, z = Ring(field, R.names).gens()
        with pytest.raises(ResourceExceeded):
            buchberger([x ** 20001 + y * z ** 20000, x * z ** 15000])


def test_polynomial_arithmetic(R):
    x, y, z = R.gens()
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    g = (x + y) ** 2
    assert g == x * x + x * y + x * y + y * y
    assert (f - f).is_zero()
    assert x * (y + z) == x * y + x * z


def test_lex_vs_grevlex_leading_terms():
    F = PrimeField(32003)
    Rlex = Ring(F, ["x", "y", "z"], Lex())
    x, y, z = Rlex.gens()
    f = x + y * y * z
    assert f.lm() == Rlex.encode((1, 0, 0))  # lex: x beats y^2 z
    Rg = Ring(F, ["x", "y", "z"], Grevlex())
    x, y, z = Rg.gens()
    f = x + y * y * z
    assert f.lm() == Rg.encode((0, 2, 1))  # grevlex: degree first


def test_grevlex_tie_break():
    R = Ring(PrimeField(32003), ["x", "y", "z"])
    a = R.encode((1, 1, 0))  # xy
    b = R.encode((0, 2, 0))  # y^2
    c = R.encode((1, 0, 1))  # xz
    assert R.key(a) > R.key(b)   # xy > y^2
    assert R.key(b) > R.key(c)   # y^2 > xz (smaller last exponent wins)


def _reference_cmp(order, weights, a, b):
    """-1, 0 or 1 as exponent tuple a is below, equal to or above b,
    straight from the definitions of the orders."""
    if a == b:
        return 0
    if isinstance(order, Lex):
        return 1 if next(x - y for x, y in zip(a, b) if x != y) > 0 else -1
    if isinstance(order, Grevlex):
        w = weights or (1,) * len(a)
        da = sum(x * wi for x, wi in zip(a, w))
        db = sum(y * wi for y, wi in zip(b, w))
        if da != db:
            return 1 if da > db else -1
        # the last differing exponent decides: the smaller one wins
        return 1 if next(x - y for x, y in zip(reversed(a), reversed(b))
                         if x != y) < 0 else -1
    k = order.elim_count
    head = _reference_cmp(order.elim_order,
                          weights and weights[:k], a[:k], b[:k])
    return head or _reference_cmp(order.rest_order,
                                  weights and weights[k:], a[k:], b[k:])


def _key_test_rings():
    F = PrimeField(32003)
    names = ["x", "y", "z", "w"]
    heavy = (1 << 40, 3, 1 << 20, 1)
    rings = [Ring(F, names, Lex()), Ring(F, names, Grevlex()),
             Ring(F, names, Grevlex(), heavy),
             Ring(F, names, Grevlex(), tuple(reversed(heavy)))]
    for k in (1, 2):
        for rest in (Lex(), Grevlex()):
            rings.append(Ring(F, names, Block(k, Grevlex(), rest)))
            rings.append(Ring(F, names, Block(k, Grevlex(), rest), heavy))
    return rings + [R.module_ring(3) for R in rings]


def test_packed_key_is_the_order():
    """Ring.key packs the order exactly: comparing two keys as ints
    agrees with the order's definition on the decoded exponents, for
    weights up to 2^40 in every position and exponents up to EXP_MAX."""
    rng = random.Random(20)
    picks = (0, 1, 2, EXP_MAX - 1, EXP_MAX)
    for R in _key_test_rings():
        def draw():
            return tuple(rng.choice(picks) if rng.random() < 0.5
                         else rng.randint(0, EXP_MAX) for _ in range(R.n))
        for _ in range(300):
            a = draw()
            # a permutation of a ties its (unweighted) degree
            b = draw() if rng.random() < 0.5 else tuple(
                rng.sample(a, R.n))
            expected = _reference_cmp(R.order, R.weights, a, b)
            ka, kb = R.key(R.encode(a)), R.key(R.encode(b))
            assert type(ka) is int and type(kb) is int
            assert (ka > kb) - (ka < kb) == expected, (R, a, b)


def test_packed_key_is_affine():
    """A packed key is a base plus one step per exponent: key(a + b) =
    key(a) + key(b) - key(0) whenever a + b is a monomial."""
    rng = random.Random(22)
    for R in _key_test_rings():
        for _ in range(200):
            a = tuple(rng.randint(0, EXP_MAX) for _ in range(R.n))
            b = tuple(rng.randint(0, EXP_MAX - e) for e in a)
            ab = tuple(x + y for x, y in zip(a, b))
            assert R.key(R.encode(ab)) == (R.key(R.encode(a))
                                           + R.key(R.encode(b))
                                           - R.key(0)), (R, a, b)


def test_block_order_checks_its_arity():
    F = PrimeField(32003)
    for k in (3, 4):
        with pytest.raises(ArityMismatch, match=f"eliminates {k} of 3"):
            Ring(F, ["x", "y", "z"], Block(k, Grevlex(), Lex()))
    with pytest.raises(ValueError, match="elim_count"):
        Block(0, Grevlex(), Lex())


def test_block_order_eliminates():
    F = PrimeField(32003)
    R = Ring(F, ["t", "x", "y"], Block(1, Grevlex(), Grevlex()))
    t, x, y = R.gens()
    f = t + x ** 5 + y ** 5
    assert f.lm() == R.encode((1, 0, 0))  # any t-power dominates


def test_weighted_homogeneity():
    R = Ring(PrimeField(32003), ["x", "y", "z"], weights=(3, 4, 5))
    x, y, z = R.gens()
    f = y * y - x * z  # weighted degree 8 both terms
    assert f.is_homogeneous()
    assert f.wdegree() == 8
    assert not (x + y).is_homogeneous()


def test_str_render_canonical(R):
    x, y, z = R.gens()
    assert str(x - y) == "x+32002*y"
    assert str(R.zero()) == "0"
    assert str(R.one()) == "1"
    assert str(x ** 2 * y) == "x^2*y"


def test_render_rationals():
    R = Ring(RationalField(), ["x", "y"])
    x, y = R.gens()
    assert str(x - y) == "x-y"
    assert str(-(x * x)) == "-x^2"


def test_parse_round_trip(R):
    for text in ["x^2*y+32002*z^3", "x+y+z", "1", "x^5"]:
        f = oracle.poly(R, text)
        assert str(f) == text
        assert oracle.poly(R, str(f)) == f


def test_parse_errors(R):
    with pytest.raises(ScriptSyntaxError):
        oracle.poly(R, "x +")
    with pytest.raises(ScriptSyntaxError):
        oracle.poly(R, "w + 1")  # unknown variable


def test_embed_restrict():
    F = PrimeField(32003)
    R2 = Ring(F, ["x", "y"])
    R3 = Ring(F, ["t", "x", "y"])
    x, y = R2.gens()
    f = x * x - y
    g = embed(f, R3, [1, 2])
    assert str(g) == "x^2+32002*y"
    back = embed(g, R2, [None, 0, 1])
    assert back == f
    # a None image sends its variable to 0: every term with t is dropped
    t = R3.var(0)
    assert embed(t * g + g - t, R2, [None, 0, 1]) == f


@settings(max_examples=50)
@given(st.randoms(use_true_random=False))
def test_ring_axioms_random(rng):
    R = Ring(PrimeField(32003), ["x", "y", "z"])
    f = _random_poly(R, rng)
    g = _random_poly(R, rng)
    h = _random_poly(R, rng)
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f + (g + h) == (f + g) + h
    assert (f * g) * h == f * (g * h)


@settings(max_examples=30)
@given(st.randoms(use_true_random=False))
def test_lm_multiplicative(rng):
    R = Ring(PrimeField(32003), ["x", "y", "z"])
    f = _random_poly(R, rng)
    g = _random_poly(R, rng)
    if f.is_zero() or g.is_zero():
        return
    assert (f * g).lm() == f.lm() + g.lm()


def test_packed_layout_stays_in_ring_and_modules():
    # only ring.py (the packing) and modules.py (the module encoding)
    # may read the bit layout of packed monomials; every other module
    # goes through encode/decode and embed
    src = pathlib.Path(cancelkit.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name in ("ring.py", "modules.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            for name in names:
                if name in ("FIELD_BITS", "_shifts"):
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []
