"""Polynomial rings and sparse exact-coefficient multivariate polynomials.

Monomials are packed into a single int, 16 bits per variable with the
first variable in the most significant field.  Multiplication is integer
addition and divisibility is a guard-bit test, which keeps Buchberger's
inner loops fast in pure Python.  Exponents are capped at 2^15 - 1.
"""

from functools import reduce
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

    def mono_lcm(self, a, b):
        return self.mono_lcms(a, (b,))[0]

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
        c = self.field.normalize(c)
        return Polynomial(self, {} if c == self.field.zero else {0: c})

    def one(self):
        return self.constant(self.field.one)

    def var(self, i):
        if isinstance(i, str):
            i = self._index[i]
        return Polynomial(self, {self.encode(tuple(
            1 if j == i else 0 for j in range(self.n))): self.field.one})

    def gens(self):
        return [self.var(i) for i in range(self.n)]

    def monomial(self, exps, coeff=None):
        c = self.field.normalize(coeff if coeff is not None else self.field.one)
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, {self.encode(tuple(exps)): c})

    def from_terms(self, pairs):
        """Build a polynomial from (exponent-tuple, coeff) pairs."""
        terms = {}
        zero = self.field.zero
        for exps, c in pairs:
            m = self.encode(tuple(exps))
            c = self.field.add(terms.get(m, zero), self.field.normalize(c))
            if c == zero:
                terms.pop(m, None)
            else:
                terms[m] = c
        return Polynomial(self, terms)

    def poly(self, text):
        """Parse polynomial text syntax (delegates to the script parser)."""
        from .script import parse_polynomial
        return parse_polynomial(self, text)

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
    """Immutable sparse polynomial: dict of packed monomial -> coefficient."""

    __slots__ = ("ring", "terms", "_lead", "_sorted", "_hash")

    def __init__(self, ring, terms, lead=None):
        # lead, when the caller knows it, is the leading monomial; the
        # Groebner engine passes it for every polynomial it builds
        self.ring = ring
        self.terms = terms
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

    def lc(self):
        return self.terms[self.lm()]

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
        zero = field.zero
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = field.add(terms.get(m, zero), c)
            if s == zero:
                terms.pop(m, None)
            else:
                terms[m] = s
        return Polynomial(self.ring, terms)

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        # integer coefficients over one scale per factor, taken back to
        # the field once
        field = self.ring.field
        big, n1, d1 = field.to_ints(self.terms)
        small, n2, d2 = field.to_ints(other.terms)
        if len(big) < len(small):
            big, small = small, big
        ints = {}
        for m2, c2 in small.items():
            for m1, c1 in big.items():
                m = m1 + m2
                ints[m] = ints.get(m, 0) + c1 * c2
        terms = field.from_ints(ints, n1 * n2, d1 * d2)
        return Polynomial(self.ring, terms)._no_overflow()

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

    def scale(self, c):
        field = self.ring.field
        c = field.normalize(c)
        if c == field.zero:
            return self.ring.zero()
        # a nonzero multiple keeps every term, so the lead too
        return Polynomial(self.ring, {m: field.mul(cc, c)
                                      for m, cc in self.terms.items()},
                          self._lead)

    def monic(self):
        if self.is_zero():
            return self
        lc = self.lc()
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        # the ring is left out: equal polynomials share it anyway, and
        # hashing it costs more than the terms of a small polynomial;
        # the terms never change, so the hash is computed once
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
    one = ring.field.one
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
        cs = ring.field.to_str(c)
        if not factors:
            body = cs
        elif c == one:
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
    return Polynomial(target, terms)
