"""Polynomial rings and sparse exact-coefficient multivariate polynomials.

Monomials are packed into a single int, 16 bits per variable with the
first variable in the most significant field.  Multiplication is integer
addition and divisibility is a guard-bit test, which keeps Buchberger's
inner loops fast in pure Python.  Exponents are capped at 2^15 - 1.

Coefficients are integers: `terms` maps packed monomials to residues
over F_p and to numerators over one denominator `den` over Q, in the
canonical form of `fields.from_ints` (den is 1 over F_p), which the
Groebner engine and the disk cache read as it is.  A coefficient becomes
a field element only as it leaves (`coeff`, `lc`, `render`).
"""

from functools import reduce
from math import lcm
from operator import or_

from .errors import ArityMismatch, ResourceExceeded, RingMismatch
from .orders import Grevlex, Lex, Block  # noqa: F401  (re-exported for callers)

FIELD_BITS = 16
EXP_MAX = (1 << (FIELD_BITS - 1)) - 1


class Ring:
    """A polynomial ring descriptor: field, named variables, order, weights."""

    def __init__(self, field, names, order=None, weights=None):
        names = tuple(names)
        if len(names) < 1:
            raise ValueError("need at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if weights is not None:
            weights = tuple(int(w) for w in weights)
            if len(weights) != len(names):
                raise ArityMismatch("one weight per variable")
            if any(w < 1 for w in weights):
                raise ValueError("weights must be >= 1")
        self.field = field
        self.names = names
        self.n = len(names)
        self.order = order or Grevlex()
        self.weights = weights
        self._shifts = tuple(FIELD_BITS * (self.n - 1 - i) for i in range(self.n))
        self._guards = 0
        for s in self._shifts:
            self._guards |= 1 << (s + FIELD_BITS - 1)
        # the order's rows packed into one int, one field per row: no row
        # product exceeds EXP_MAX * sum(weights) in size, so a field this
        # wide with a sign offset holds every one exactly; the packed key
        # is then affine in the exponents, a base plus one step for each
        rows = self.order.rows(self.n, weights)
        bits = (EXP_MAX * sum(weights or (1,) * self.n)).bit_length() + 1
        places = [1 << (bits * j) for j in reversed(range(len(rows)))]
        self._key_base = sum(places) << (bits - 1)
        self._key_steps = tuple(
            (s, sum(row[i] * p for row, p in zip(rows, places)))
            for i, s in enumerate(self._shifts))
        self._key_memo = {}
        self._wdeg_steps = tuple(zip(self._shifts, weights or (1,) * self.n))
        self._index = {name: i for i, name in enumerate(names)}
        # set on module rings only (see module_ring): the coordinate ring,
        # and one bit per component variable
        self.base = None
        self._components = 0
        self._module_rings = {}

    # -- monomial helpers (packed ints) --

    def encode(self, exps):
        if len(exps) != self.n:
            raise ArityMismatch(f"expected {self.n} exponents, got {len(exps)}")
        m = 0
        for e, s in zip(exps, self._shifts):
            if not (0 <= e <= EXP_MAX):
                raise ValueError(f"exponent {e} out of range")
            m |= e << s
        return m

    def decode(self, m):
        mask = (1 << FIELD_BITS) - 1
        return tuple((m >> s) & mask for s in self._shifts)

    def fits(self, monomials):
        """True iff every int in the nonempty monomials is a packed
        monomial of this ring: nonnegative, inside its n fields, and with
        no guard bit set."""
        return (min(monomials) >= 0
                and max(monomials) < 1 << (FIELD_BITS * self.n)
                and not reduce(or_, monomials) & self._guards)

    def mono_divides(self, a, b):
        """True iff monomial a divides monomial b."""
        return ((b | self._guards) - a) & self._guards == self._guards

    def mono_lcms(self, a, bs):
        """[lcm(a, b) for b in bs] in one call."""
        guards = self._guards
        top = a | guards
        out = []
        for b in bs:
            # a field's guard bit survives a - b exactly when a >= b
            # there; spread it over the field to pick a's exponent or b's
            keep = ((top - b) & guards) >> (FIELD_BITS - 1)
            keep *= (1 << FIELD_BITS) - 1
            out.append((a & keep) | (b & ~keep))
        return out

    def mono_deg(self, m):
        d = 0
        for s in self._shifts:
            d += (m >> s) & 0xFFFF  # one FIELD_BITS field
        return d

    def mono_wdeg(self, m):
        """The weighted degree of m, one (shift, weight) step per
        variable as in `key`."""
        d = 0
        for s, w in self._wdeg_steps:
            d += ((m >> s) & 0xFFFF) * w  # one FIELD_BITS field
        return d

    def key(self, m):
        """The order key of m as one int, memoised per ring: the order's
        matrix times m's exponents, one offset field per row, computed as
        the base plus each exponent times its step.  Integer comparison
        is the monomial order."""
        k = self._key_memo.get(m)
        if k is None:
            k = self._key_base
            for s, step in self._key_steps:
                k += ((m >> s) & 0xFFFF) * step  # one FIELD_BITS field
            self._key_memo[m] = k
        return k

    # -- polynomial constructors --

    def zero(self):
        return Polynomial(self, {})

    def constant(self, c):
        # a field element is a residue or a reduced Fraction: over both
        # fields its numerator over its denominator is canonical
        c = self.field.normalize(c)
        return Polynomial(self, {0: c.numerator} if c else {}, c.denominator)

    def one(self):
        return self.constant(self.field.one)

    def var(self, i):
        return Polynomial(self, {self.encode(tuple(
            1 if j == i else 0 for j in range(self.n))): 1})

    def gens(self):
        return [self.var(i) for i in range(self.n)]

    # -- ring relations --

    def module_ring(self, rank):
        """The ring of vectors in R^rank: a vector is a polynomial over the
        component variables e_0..e_{rank-1} in front of R's variables,
        each term carrying exactly one e_i.  Lex on the component block
        makes e_0 largest, which is position-over-term order with earlier
        positions dominating.  Built once per rank and kept on this ring."""
        ring = self._module_rings.get(rank)
        if ring is None:
            weights = (None if self.weights is None
                       else (1,) * rank + self.weights)
            ring = Ring(self.field,
                        tuple(f"<e{i}>" for i in range(rank)) + self.names,
                        Block(rank, Lex(), self.order), weights)
            ring.base = self
            for s in ring._shifts[:rank]:
                ring._components |= 1 << s
            self._module_rings[rank] = ring
        return ring

    def describe(self):
        parts = [self.field.describe(), ",".join(self.names),
                 self.order.describe()]
        if self.weights is not None:
            parts.append(",".join(str(w) for w in self.weights))
        return "|".join(parts)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Ring) and self.field == other.field
            and self.names == other.names and self.order == other.order
            and self.weights == other.weights)

    def __hash__(self):
        return hash((self.field, self.names, self.order, self.weights))

    def __repr__(self):
        return f"Ring({self.describe()})"


class Polynomial:
    """Immutable sparse polynomial: integer `terms` over `den`, in the
    canonical form (module docstring), which the caller provides."""

    __slots__ = ("ring", "terms", "den", "_lead", "_sorted", "_hash")

    def __init__(self, ring, terms, den=1, lead=None):
        # lead, when the caller knows it, is the leading monomial; the
        # Groebner engine passes it for every polynomial it builds
        self.ring = ring
        self.terms = terms
        self.den = den
        self._lead = lead
        self._sorted = None
        self._hash = None

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def is_zero(self):
        return not self.terms

    def sorted_monomials(self):
        """Packed monomials in descending ring order."""
        if self._sorted is None:
            self._sorted = sorted(self.terms, key=self.ring.key, reverse=True)
        return self._sorted

    def lm(self):
        """Leading monomial (packed); poly must be nonzero.  Carried when
        the polynomial was built with it, else found once."""
        if self._lead is None:
            self._lead = max(self.terms, key=self.ring.key)
        return self._lead

    def coeff(self, m):
        """The coefficient of the monomial m, a field element."""
        return self.ring.field.element(self.terms.get(m, 0), self.den)

    def lc(self):
        return self.coeff(self.lm())

    def degree(self):
        if not self.terms:
            return -1
        return max(self.ring.mono_deg(m) for m in self.terms)

    def wdegree(self):
        if not self.terms:
            return -1
        return max(self.ring.mono_wdeg(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {self.ring.mono_wdeg(m) for m in self.terms}
        return len(degs) <= 1

    def __add__(self, other):
        self._check(other)
        field = self.ring.field
        add = field.add
        den = self.den
        if den == other.den:
            terms = dict(self.terms)
            addends = other.terms.items()
        else:
            # over Q only: both numerators over the lcm of the denominators
            den = lcm(den, other.den)
            s1, s2 = den // self.den, den // other.den
            terms = {m: c * s1 for m, c in self.terms.items()}
            addends = [(m, c * s2) for m, c in other.terms.items()]
        for m, c in addends:
            s = add(terms.get(m, 0), c)
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        if den == 1:
            return Polynomial(self.ring, terms)
        # a sum can share a factor with den that neither addend did
        return Polynomial(self.ring, *field.from_ints(terms, 1, den))

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring,
                          {m: neg(c) for m, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        # integer products, over the product of the denominators, taken
        # to the canonical form once
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        ints = {}
        for m2, c2 in small.items():
            for m1, c1 in big.items():
                m = m1 + m2
                ints[m] = ints.get(m, 0) + c1 * c2
        return Polynomial(self.ring, *self.ring.field.from_ints(
            ints, 1, self.den * other.den))._no_overflow()

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _no_overflow(self):
        """Products add packed exponents; a sum above EXP_MAX sets its
        field's guard bit and would corrupt every later divisibility
        test, so refuse it here."""
        guards = self.ring._guards
        if any(m & guards for m in self.terms):
            raise ResourceExceeded(
                f"exponent overflow: a product has an exponent above {EXP_MAX}")
        return self

    def part(self, ring, terms):
        """The polynomial of ring with some of this one's terms (monomials
        renamed), over den: fewer numerators can share a factor with it."""
        if self.den == 1 or len(terms) == len(self.terms):
            return Polynomial(ring, terms, self.den)
        return Polynomial(ring, *ring.field.from_ints(terms, 1, self.den))

    def scale(self, c):
        field = self.ring.field
        c = field.normalize(c)
        if not c:
            return self.ring.zero()
        # a nonzero multiple keeps every term, so the lead too
        return Polynomial(self.ring, *field.from_ints(
            self.terms, c.numerator, self.den * c.denominator),
            lead=self._lead)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms and self.den == other.den)

    def __hash__(self):
        # the ring and den are left out: equal polynomials share them, and
        # hashing the ring costs more than a small polynomial's terms; the
        # terms never change, so the hash is computed once
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<{render(self)}>"


def render(f):
    """Canonical text form: terms descending, `^` powers, explicit `*`."""
    if f.is_zero():
        return "0"
    ring = f.ring
    to_str = ring.field.to_str
    den = f.den
    pieces = []
    for m in f.sorted_monomials():
        c = f.terms[m]
        exps = ring.decode(m)
        factors = []
        for name, e in zip(ring.names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        cs = to_str(c, den)
        if not factors:
            body = cs
        elif c == den:  # the coefficient is 1
            body = "*".join(factors)
        elif cs == "-1":
            body = "-" + "*".join(factors)
        else:
            body = cs + "*" + "*".join(factors)
        pieces.append(body)
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += "-" + piece[1:]
        else:
            out += "+" + piece
    return out


def combination(ring, coeffs, gens):
    """The sum of c*g over the coefficients and polynomials paired up,
    zero coefficients skipped."""
    f = ring.zero()
    for c, g in zip(coeffs, gens):
        if c != ring.field.zero:
            f = f + g.scale(c)
    return f


def embed(f, target, var_map):
    """Re-express f in `target`, sending variable i to variable var_map[i],
    or to 0 when var_map[i] is None (every term containing it is dropped).

    Requires matching fields.  Covers ring extensions, restriction to a
    subring, and projections that kill variables.
    """
    if f.ring.field != target.field:
        raise RingMismatch("fields differ")
    terms = {}
    for m, c in f.terms.items():
        new = [0] * target.n
        for i, e in enumerate(f.ring.decode(m)):
            if e:
                j = var_map[i]
                if j is None:
                    break
                new[j] = e
        else:
            terms[target.encode(tuple(new))] = c
    return f.part(target, terms)
