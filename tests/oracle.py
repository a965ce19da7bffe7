"""Independent test oracles, and test helpers the package does not need.

The oracles deliberately do NOT reuse the package's Groebner or
linear-algebra code: membership of a polynomial in a homogeneous ideal
is decided by bounded-degree exact linear algebra over the coefficient
field, written from scratch here.  `is_member`, `is_unmixed` and
`fiber_reduction_number` are the exception: they are written on the
package's ideals, and only tests call them.
"""

import heapq
from fractions import Fraction
from math import gcd

from cancelkit.errors import BadRegularSequence
from cancelkit.gb import GroebnerBasis, buchberger, normal_form
from cancelkit.ideals import Ideal
from cancelkit.ring import Polynomial, combination
from cancelkit.script import _Parser, evaluate, tokenize


def poly(ring, text):
    """The polynomial of `ring` that one expression in the script syntax
    denotes; its names are the ring's variables."""
    parser = _Parser(tokenize(text))
    node = parser.parse_expr()
    parser.expect("eof")
    return evaluate(node, ring, lambda name: None)


def monic(f):
    """f scaled to leading coefficient 1; zero stays zero."""
    if f.is_zero():
        return f
    return f.scale(f.ring.field.inv(f.lc()))


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree exactly d."""
    if nvars == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            out.append((first,) + rest)
    return out


class ModP:
    def __init__(self, p):
        self.p = p

    def normalize(self, x):
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    zero = 0


class OverQ:
    @staticmethod
    def normalize(x):
        return Fraction(x)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        return 1 / a

    zero = Fraction(0)


def rref_rank(rows, F):
    """Row-reduce in place; return the rank."""
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] != F.zero:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][col])
        rows[r] = [F.mul(v, inv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != F.zero:
                c = rows[i][col]
                rows[i] = [F.sub(a, F.mul(c, b))
                           for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def poly_to_dict(poly):
    """Exponent-tuple dict of a cancelkit polynomial, with field-element
    coefficients."""
    ring = poly.ring
    return {tuple(ring.decode(m)): poly.coeff(m) for m in poly.terms}


def coefficients(poly):
    """poly as a dict of packed monomial -> field element."""
    return {m: poly.coeff(m) for m in poly.terms}


def monomial(ring, exps, coeff=1):
    """The term coeff * x^exps of ring, coeff a field element or int."""
    return Polynomial(ring, {ring.encode(tuple(exps)): 1}).scale(coeff)


def from_terms(ring, pairs):
    """The sum of the terms of (exponent tuple, coefficient) pairs."""
    f = ring.zero()
    for exps, c in pairs:
        f = f + monomial(ring, exps, c)
    return f


def from_coefficients(ring, coeffs):
    """The polynomial of ring with the field-element coefficients of the
    dict coeffs (packed monomial -> element), zeros dropped, built term
    by term through the ring's own constructors."""
    f = ring.zero()
    for m, c in coeffs.items():
        f = f + Polynomial(ring, {m: 1}).scale(c)
    return f


def is_canonical(poly):
    """True iff poly holds the canonical integer form: int numerators,
    none zero, over an int den >= 1 with no factor common to den and
    every numerator; over F_p, residues in [1, p) over den 1; the zero
    polynomial over den 1."""
    values = list(poly.terms.values())
    if type(poly.den) is not int or poly.den < 1 \
            or not all(type(c) is int and c for c in values):
        return False
    p = poly.ring.field.characteristic
    if p:
        return poly.den == 1 and all(0 < c < p for c in values)
    return gcd(poly.den, *values) == 1


def _field_adapter(poly):
    kind = poly.ring.field.kind
    if kind == "prime_field":
        return ModP(poly.ring.field.p)
    return OverQ()


def homogeneous_member(f, gens):
    """Membership oracle for homogeneous f in a homogeneous ideal
    (standard grading): f is in (gens) iff f's coefficient vector lies
    in the row span of all shifts g * monomial matching f's degree."""
    F = _field_adapter(f)
    nvars = f.ring.n
    fd = poly_to_dict(f)
    if not fd:
        return True
    degs = {sum(e) for e in fd}
    assert len(degs) == 1, "oracle needs a homogeneous test polynomial"
    d = degs.pop()
    basis = monomials_of_degree(nvars, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        gd = poly_to_dict(g)
        if not gd:
            continue
        gdegs = {sum(e) for e in gd}
        assert len(gdegs) == 1, "oracle needs homogeneous generators"
        shift = d - gdegs.pop()
        if shift < 0:
            continue
        for mult in monomials_of_degree(nvars, shift):
            row = [F.zero] * len(basis)
            for e, c in gd.items():
                tot = tuple(a + b for a, b in zip(e, mult))
                row[index[tot]] = F.normalize(c)
            rows.append(row)
    vec = [F.zero] * len(basis)
    for e, c in fd.items():
        vec[index[e]] = F.normalize(c)
    base_rank = rref_rank([r[:] for r in rows], F)
    aug_rank = rref_rank([r[:] for r in rows] + [vec], F)
    return base_rank == aug_rank


def _span_rows(gens, d, F):
    """Coefficient rows of every product of a generator with a monomial
    of degree d - deg(generator), over the monomials of degree d."""
    if not gens:
        return []
    nvars = gens[0].ring.n
    basis = monomials_of_degree(nvars, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        gd = poly_to_dict(g)
        if not gd:
            continue
        deg = sum(next(iter(gd)))
        shift = d - deg
        if shift < 0:
            continue
        for mult in monomials_of_degree(nvars, shift):
            row = [F.zero] * len(basis)
            for e, c in gd.items():
                tot = tuple(a + b for a, b in zip(e, mult))
                row[index[tot]] = F.normalize(c)
            rows.append(row)
    return rows


def ideals_equal_upto_degree(gens_a, gens_b, max_degree):
    """Equality oracle for homogeneous ideals, compared degree by degree
    through max_degree via span ranks."""
    sample = (gens_a + gens_b)
    if not sample:
        return True
    F = _field_adapter(sample[0])
    for d in range(max_degree + 1):
        rows_a = _span_rows(gens_a, d, F)
        rows_b = _span_rows(gens_b, d, F)
        ra = rref_rank([r[:] for r in rows_a], F)
        rb = rref_rank([r[:] for r in rows_b], F)
        rboth = rref_rank([r[:] for r in rows_a] + [r[:] for r in rows_b], F)
        if not (ra == rb == rboth):
            return False
    return True


def minimal_generator_count(gens):
    """Number of minimal generators of the homogeneous ideal (gens),
    standard grading: the sum over d of dim I_d - dim (m*I)_d, where
    (m*I)_d is spanned by the generators of degree below d times
    monomials.  Only the degrees of generators can contribute."""
    gens = [g for g in gens if poly_to_dict(g)]
    if not gens:
        return 0
    F = _field_adapter(gens[0])
    degree = {g: sum(next(iter(poly_to_dict(g)))) for g in gens}
    count = 0
    for d in set(degree.values()):
        low = _span_rows([g for g in gens if degree[g] < d], d, F)
        new = _span_rows([g for g in gens if degree[g] == d], d, F)
        count += (rref_rank([r[:] for r in low + new], F)
                  - rref_rank([r[:] for r in low], F))
    return count


def gm_update(lms, pairs, heap, ring):
    """The Gebauer-Moeller pair update as the engine first wrote it, kept
    as the reference for `gb._gm_update`: the lcm-minimal classes are
    found in order of the monomial order's key, and lcms, divisibility
    and weighted degrees are read from the decoded exponents."""
    def divides(a, b):
        return all(x <= y for x, y in zip(ring.decode(a), ring.decode(b)))

    t = len(lms) - 1
    lm_t = lms[t]
    with_t = [ring.encode(tuple(map(max, ring.decode(lm), ring.decode(lm_t))))
              for lm in lms[:t]]

    for (i, j), L in list(pairs.items()):
        if divides(lm_t, L) and L != with_t[i] and L != with_t[j]:
            del pairs[i, j]

    components = ring._components
    # in a rank-1 module ring the coprime test ignores the shared e_0
    single = components if components & (components - 1) == 0 else 0
    by_lcm = {}
    for i in range(t):
        if not (lms[i] ^ lm_t) & components:
            by_lcm.setdefault(with_t[i], []).append(i)
    minimal = []
    for L in sorted(by_lcm, key=ring.key):
        if any(divides(Lm, L) for Lm in minimal):
            continue
        minimal.append(L)
        members = by_lcm[L]
        if any(L == lms[i] + lm_t - single for i in members):
            continue
        i = min(members)
        pairs[i, t] = L
        exps = ring.decode(L)
        wdeg = sum(e * w for e, w in zip(exps, ring.weights or
                                         (1,) * len(exps)))
        heapq.heappush(heap, (wdeg, ring.key(L), i, t))


def is_member(f, gens):
    """True iff f lies in the ideal generated by gens."""
    basis = gens if isinstance(gens, GroebnerBasis) else buchberger(gens)
    if f.is_zero():
        return True
    if not basis.generators:
        return False
    return normal_form(f, basis).is_zero()


def is_unmixed(ideal, a):
    """Linkage test for unmixedness in the (Gorenstein) polynomial ring:
    I is unmixed iff a : (a : I) = I for a regular sequence a in I of
    length height(I)."""
    g = ideal.height
    A = Ideal(ideal.ring, list(a))
    if A.height != g or len(A.generators) != g:
        raise BadRegularSequence(
            f"need a regular sequence of length {g} (height criterion)")
    if not ideal.contains(A):
        raise BadRegularSequence("sequence must lie inside the ideal")
    return A.colon(A.colon(ideal)) == ideal


def compose_columns(a, b):
    """The columns of a o b (b applied first) for maps given as lists of
    columns: column j is sum_k b[j][k] * a[k]."""
    zero = a[0][0].ring.zero()
    out = []
    for col in b:
        assert len(col) == len(a), "maps are not composable"
        acc = [zero] * len(a[0])
        for c, image in zip(col, a):
            acc = [s + c * f for s, f in zip(acc, image)]
        out.append(acc)
    return out


def column_degrees(maps):
    """The degree of each column of each map of a graded resolution given
    as lists of columns (standard grading), asserting that every map is
    graded: maps[0] has one row, of degree 0, and a column's degree is
    an entry's degree plus that of its row, the same for every nonzero
    entry."""
    shifts, out = [0], []
    for m in maps:
        degrees = []
        for col in m:
            found = {sum(e) + shift for f, shift in zip(col, shifts)
                     for e in poly_to_dict(f)}
            assert len(found) == 1, "a column is not homogeneous"
            degrees.append(found.pop())
        shifts = degrees
        out.append(degrees)
    return out


def fiber_reduction_number(I, J, n_cap, fiber):
    """(is_reduction, r) of J in I, both generated in one degree, read
    from the fiber ideal K of I in all m variables T_i: J's generators
    are the linear forms lambda in the T_i with the coefficients
    `reductions._coordinates` finds, and r is the top degree of the
    monomials outside the leads of the reduced basis of K + lambda,
    walked degree by degree up to n_cap + 1 ("inconclusive" past it).
    The reference for the route through the free variables."""
    from cancelkit.reductions import _coordinates
    ring = fiber.ring
    T = ring.gens()
    lam = [combination(ring, c, T)
           for c in _coordinates(J.generators, I.generators)]
    leads = [g.lm() for g in buchberger(lam,
                                        known=fiber.groebner().generators)]
    level = {0}
    for r in range(n_cap + 1):
        level = {s + t.lm() for s in level for t in T
                 if not any(ring.mono_divides(lm, s + t.lm())
                            for lm in leads)}
        if not level:
            return True, r
    return "inconclusive", None
