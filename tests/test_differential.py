"""Intersection, colon, saturation and elimination against sympy, by
routes that share no algorithm with cancelkit's module kernels and
Rabinowitsch elimination:

- I cap J is the lex elimination of t from t*I + (1 - t)*J;
- I : J is the intersection over the generators f_j of J of
  (I cap (f_j)) / f_j, each quotient an exact division;
- I : J^infinity is the colon by J repeated until it is stable;
- I cap k[the variables but v] is the elements free of v of the lex
  basis that puts v first, also on the eliminations of GRAPHS, which
  only an elimination order gets right;
- f lies in the radical of I iff 1 is in I + (1 - t*f) (Rabinowitsch),
  and in I iff sympy's basis of I reduces it to 0.

Intersection and colon run twice: from fresh ideals, which compute
their reduced bases first, and with each ideal's reduced basis already
held (on the ideal, or only in the job's store, which the ideal's own
basis lookup reads).  The module kernel takes those bases as relations
that need no pairs among themselves.

Each case is a seeded pair of ideals in 2 or 3 variables, generators of
degree at most 3, homogeneous or not, under lex or grevlex, over Q or
F_32003.  Results are compared as ideals, by sympy's reduced bases.

Across fields, with no sympy: for every Q case, the reduced bases of
I cap J and I : J over Q, their coefficients taken mod p, must be the
bases computed over F_p from the generators taken mod p.  That holds for
all but finitely many p, so a mismatch at p = 32003 counts only when
p = 65521 disagrees too.
"""

import random
from fractions import Fraction

import pytest
import sympy

import oracle
from cancelkit.cache import Store, active_store
from cancelkit.errors import ZeroInversion
from cancelkit.fields import PrimeField, RationalField
from cancelkit.gb import buchberger
from cancelkit.ideals import Ideal, radical_contains
from cancelkit.orders import Grevlex, Lex
from cancelkit.ring import Polynomial, Ring

P = 32003
T = sympy.Symbol("t")
FIELDS = {"q": (RationalField, {"domain": "QQ"}),
          "zp": (lambda: PrimeField(P), {"modulus": P})}
ORDERS = {"lex": Lex, "grevlex": Grevlex}
CASES = [(field, order, homogeneous, seed)
         for field in FIELDS for order in ORDERS
         for homogeneous in (True, False) for seed in range(6)]
# Eliminations of the first variables chosen so that a grevlex basis
# does not already hold the elimination ideal's basis, most of them
# graphs of parametrized curves, as kernel_of_map and the Rees
# presentation build: only an elimination order passes on them.
GRAPHS = [
    ("t x y", ["x - t^2", "y - t^3"]),
    ("t x y", ["x - t^2 - t", "y - t^3"]),
    ("t x y", ["t*x - 1", "y - t^2"]),
    ("t x y z", ["x - t^3", "y - t^4", "z - t^5"]),
    ("t x y z", ["x - t", "y - t^2", "z - t^3"]),
    ("t x y", ["x*t - y", "t^2 - x - y"]),
    ("t x y", ["t^2 - x*y", "t*x - y^2"]),
    ("t x y z", ["x*t - 1", "y*t^2 - z"]),
]
GRAPH_CASES = [(field, order, "graph", index)
               for field in FIELDS for order in ORDERS
               for index in range(len(GRAPHS))]


class _Case:
    """A ring and the seeded ideals I and J of one case, each generator
    held both as a cancelkit polynomial and as a sympy expression."""

    def __init__(self, field, order, homogeneous, seed):
        rng = random.Random(f"differential-{field}-{order}-{homogeneous}-"
                            f"{seed}")
        make_field, self.domain = FIELDS[field]
        self.field = make_field()
        self.order = order
        if homogeneous == "graph":
            # the I of GRAPHS[seed], and no J
            names, texts = GRAPHS[seed]
            self.ring = Ring(self.field, names.split(), ORDERS[order]())
            self.syms = sympy.symbols(names)
            self.I = (Ideal(self.ring, [oracle.poly(self.ring, text)
                                        for text in texts]),
                      [sympy.sympify(text.replace("^", "**"),
                                     dict(zip(names.split(), self.syms)))
                       for text in texts])
            return
        names = ["x", "y", "z"][:rng.choice((2, 3))]
        self.ring = Ring(self.field, names, ORDERS[order]())
        self.syms = sympy.symbols(names)
        self.I = self._ideal(rng, homogeneous, rng.randint(1, 3))
        self.J = self._ideal(rng, homogeneous, rng.randint(1, 2))

    def _ideal(self, rng, homogeneous, count):
        gens, exprs = [], []
        while len(gens) < count:
            terms = self._terms(rng, homogeneous)
            f = oracle.from_terms(self.ring, terms)
            if f.is_zero() or not any(f.terms):  # no zero or unit generator
                continue
            gens.append(f)
            # over F_p sympy takes the residue of each coefficient
            exprs.append(sum(
                sympy.Rational(*_ratio(self.field.normalize(c)))
                * sympy.Mul(*[s ** e for s, e in zip(self.syms, exps)])
                for exps, c in terms))
        return Ideal(self.ring, gens), exprs

    def _terms(self, rng, homogeneous):
        n = self.ring.n
        degree = rng.randint(1, 3)
        terms = []
        for i in range(rng.randint(1, 3)):
            d = degree if homogeneous or i == 0 else rng.randint(0, degree)
            exps = [0] * n
            for _ in range(d):
                exps[rng.randrange(n)] += 1
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            terms.append((tuple(exps), c))
        return terms

    def to_sympy(self, ideal):
        ring = ideal.ring
        syms = sympy.symbols(ring.names)
        return [sympy.Add(*[
            sympy.Rational(*_ratio(c))
            * sympy.Mul(*[s ** e for s, e in zip(syms, ring.decode(m))])
            for m, c in oracle.coefficients(f).items()])
            for f in ideal.generators]

    def reduced(self, exprs, syms=None):
        """The ideal of exprs in syms (all the case's variables by
        default) as its sorted reduced basis, () for 0."""
        exprs = [e for e in exprs if e != 0]
        if not exprs:
            return ()
        basis = sympy.groebner(exprs, *(syms or self.syms),
                               order=self.order, **self.domain)
        return tuple(sorted(map(str, basis.exprs)))

    def eliminate(self, F, v):
        """(F) cap k[the other variables]: the elements free of v of the
        lex basis that puts v first."""
        rest = [s for s in self.syms if s != v]
        basis = sympy.groebner(F, v, *rest, order="lex", **self.domain)
        return [e for e in basis.exprs if not e.has(v)]

    def intersect(self, F, G):
        basis = sympy.groebner([T * f for f in F] + [(1 - T) * g for g in G],
                               T, *self.syms, order="lex", **self.domain)
        return [e for e in basis.exprs if not e.has(T)]

    def colon(self, F, G):
        result = None
        for g in G:
            quotients = []
            for h in self.intersect(F, [g]):
                q, r = sympy.div(h, g, *self.syms, **self.domain)
                assert r == 0, (h, g)
                quotients.append(q)
            result = quotients if result is None \
                else self.intersect(result, quotients)
        return result

    def saturate(self, F, G):
        current = self.reduced(F)
        for _ in range(12):
            F = self.colon(F, G)
            following = self.reduced(F)
            if following == current:
                return F
            current = following
        raise AssertionError("the colons by J did not become stable")


def _ratio(c):
    c = Fraction(c)
    return c.numerator, c.denominator


def _case_id(case):
    field, order, homogeneous, seed = case
    kind = homogeneous if homogeneous == "graph" \
        else "hom" if homogeneous else "inhom"
    return f"{field}-{order}-{kind}-{seed}"


@pytest.fixture(params=CASES, ids=_case_id)
def case(request):
    return _Case(*request.param)


def test_intersection_matches_elimination(case):
    (I, F), (J, G) = case.I, case.J
    ours = case.reduced(case.to_sympy(I.intersect(J)))
    assert ours == case.reduced(case.intersect(F, G))


def test_colon_matches_quotients_of_intersections(case):
    (I, F), (J, G) = case.I, case.J
    ours = case.reduced(case.to_sympy(I.colon(J)))
    assert ours == case.reduced(case.colon(F, G))


def test_saturation_matches_repeated_colons(case):
    (I, F), (J, G) = case.I, case.J
    ours = case.reduced(case.to_sympy(I.saturate(J)))
    assert ours == case.reduced(case.saturate(F, G))


@pytest.mark.parametrize("case", CASES + GRAPH_CASES, ids=_case_id,
                         indirect=True)
def test_elimination_matches_lex_elimination(case):
    # each variable but the last, eliminated from I alone
    I, F = case.I
    for v in case.syms[:-1]:
        rest = [s for s in case.syms if s != v]
        ours = case.reduced(case.to_sympy(I.eliminate([str(v)])), rest)
        assert ours == case.reduced(case.eliminate(F, v), rest)


def test_colon_and_intersection_hold_their_reduced_basis(case):
    # the one-column kernel behind either is the result's reduced basis,
    # held as its basis: a fresh loop on its generators gives that list
    (I, _), (J, _) = case.I, case.J
    for C in (I.intersect(J), I.colon(J)):
        fresh = buchberger(list(C.generators)).generators \
            if C.generators else []
        assert C._gb.generators == fresh == list(C.generators)


@pytest.fixture(params=["ideal", "store"])
def held(request, case):
    """case's I and J with their reduced bases already held: on the
    ideals, or only in the job's store (fresh ideals of the same
    generators hold none themselves)."""
    I, J = case.I[0], case.J[0]
    if request.param == "ideal":
        I.groebner()
        J.groebner()
        yield I, J
        return
    token = active_store.set(Store(None))
    try:
        I.groebner()
        J.groebner()
        I, J = Ideal(I.ring, I.generators), Ideal(J.ring, J.generators)
        assert I._gb is None and J._gb is None
        yield I, J
    finally:
        active_store.reset(token)


def test_intersection_from_held_bases_matches_elimination(case, held):
    I, J = held
    ours = case.reduced(case.to_sympy(I.intersect(J)))
    assert ours == case.reduced(case.intersect(case.I[1], case.J[1]))


def test_colon_from_a_held_basis_matches_quotients(case, held):
    I, J = held
    ours = case.reduced(case.to_sympy(I.colon(J)))
    assert ours == case.reduced(case.colon(case.I[1], case.J[1]))


def _radical_case(field, order, seed, outcome):
    """A seeded ideal I and polynomial f for which sympy finds the given
    outcome: "member" (f in I), "power" (f not in I, a power of f in I)
    or "outside" (f not in the radical of I), and sympy's verdict on
    radical membership.  A "power" case adds f^2 to a seeded ideal;
    attempts whose outcome differs are skipped."""
    homogeneous = seed % 2 == 0
    for attempt in range(20):
        case = _Case(field, order, homogeneous, f"radical-{seed}-{attempt}")
        rng = random.Random(f"radical-{field}-{order}-{seed}-{attempt}")
        I = case.I[0]

        def poly():
            return oracle.from_terms(case.ring,
                                     case._terms(rng, homogeneous))

        f = poly()
        if outcome == "member":
            f = sum((poly() * g for g in I.generators), case.ring.zero())
        elif outcome == "power":
            I = I + Ideal(case.ring, [f * f])
        if f.is_zero():
            continue
        F, [e] = case.to_sympy(I), case.to_sympy(Ideal(case.ring, [f]))
        member = sympy.groebner(F, *case.syms, order=case.order,
                                **case.domain).contains(e)
        radical = sympy.groebner(F + [1 - T * e], T, *case.syms,
                                 order=case.order, **case.domain).exprs
        found = ("member" if member else
                 "power" if radical == [1] else "outside")
        if found == outcome:
            return I, f, radical == [1]
    raise AssertionError(f"no seeded case with outcome {outcome}")


@pytest.mark.parametrize("outcome", ["member", "power", "outside"])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("field", FIELDS)
def test_radical_membership_matches_rabinowitsch(field, order, seed,
                                                 outcome):
    I, f, in_radical = _radical_case(field, order, seed, outcome)
    assert radical_contains(I, f) is in_radical
    assert I.contains(f) is (outcome == "member")


def _mod(poly, ring):
    """poly, a polynomial over Q, with its coefficients taken into the
    prime field of ring; ZeroInversion when p divides a denominator."""
    field = ring.field
    return Polynomial(ring, {m: v for m, c in oracle.coefficients(poly).items()
                             if (v := field.normalize(c))})


def _agrees_mod(case, op, p):
    """True iff op's reduced basis over Q, taken mod p, is op's reduced
    basis over F_p of the generators taken mod p."""
    ring = Ring(PrimeField(p), case.ring.names, case.ring.order)
    (I, _), (J, _) = case.I, case.J
    try:
        I_p, J_p = (Ideal(ring, [_mod(g, ring) for g in K.generators])
                    for K in (I, J))
        ours = {frozenset(_mod(g, ring).terms.items())
                for g in getattr(I, op)(J).groebner()}
    except ZeroInversion:
        return False
    return ours == {frozenset(g.terms.items())
                    for g in getattr(I_p, op)(J_p).groebner()}


@pytest.mark.parametrize("op", ["intersect", "colon"])
@pytest.mark.parametrize("params", [c for c in CASES if c[0] == "q"],
                         ids=_case_id)
def test_q_result_mod_p_is_the_zp_result(params, op):
    case = _Case(*params)
    assert _agrees_mod(case, op, P) or _agrees_mod(case, op, 65521)
