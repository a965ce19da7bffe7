"""Exact coefficient fields: prime fields F_p and arbitrary-precision rationals.

Polynomials hold integers over both fields (`ring.Polynomial`): residues
in [0, p) over F_p, integer numerators over one denominator over Q.
Field elements (int residues, `fractions.Fraction`s) appear only where a
coefficient enters or leaves a polynomial: parsing, scaling, rendering
and dense linear algebra.  This module is the only one that knows how
coefficients are held: `from_ints` makes the canonical integer form,
`to_ints` the working form of the Groebner engine (`gb`), and `element`
a field element.  Over F_p the integers given may be unreduced or
negative; they are reduced mod p (the field's `characteristic`).
"""

from fractions import Fraction
from math import gcd

from .errors import ZeroInversion

DEFAULT_PRIME = 32003


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """F_p with elements stored as canonical residues in [0, p)."""

    kind = "prime_field"

    def __init__(self, p=DEFAULT_PRIME):
        if not (2 < p < 2**31):
            raise ValueError(f"modulus must satisfy 2 < p < 2^31, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = self.characteristic = p
        self.zero = 0
        self.one = 1

    def to_ints(self, terms, lead):
        """The working form of the integers terms: monic, reduced mod p,
        zero terms dropped; a new dict."""
        p = self.p
        inv = self.inv(terms[lead])
        return {m: v for m, c in terms.items() if (v := c * inv % p)}

    def from_ints(self, ints, num, den):
        """(terms, 1): the residues of ints * num / den, zero terms
        dropped."""
        p = self.p
        scale = num * self.inv(den) % p if den != 1 else num % p
        return {m: v for m, c in ints.items() if (v := c * scale % p)}, 1

    def element(self, c, den):
        """The coefficient c of a polynomial with denominator den (1)."""
        return c

    def normalize(self, x):
        if isinstance(x, Fraction):
            return self.mul(x.numerator % self.p, self.inv(x.denominator % self.p))
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroInversion("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def to_str(self, c, den):
        """The text of the coefficient c of a polynomial over den (1)."""
        return str(c)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("zp", self.p))

    def __repr__(self):
        return f"zp({self.p})"

    def describe(self):
        return f"zp:{self.p}"


class RationalField:
    """Q with elements as `Fraction` (already canonical: reduced, den > 0).
    A polynomial's coefficients are integers over its one denominator;
    the element-wise `add` and `neg` serve both."""

    kind = "rationals"
    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def to_ints(self, terms, lead):
        """The working form of the nonzero integers terms: without
        content and with a positive lead, the primitive form; terms
        itself when it is that already."""
        num = gcd(*terms.values())
        if terms[lead] < 0:
            num = -num
        if num == 1:
            return terms
        return {m: c // num for m, c in terms.items()}

    def from_ints(self, ints, num, den):
        """(terms, den') in canonical form with terms / den' == ints * num
        / den: den' >= 1, no factor common to den' and every numerator,
        zero terms dropped.  ints may hold zeros; num and den nonzero."""
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        num, den = num // g, den // g
        # num and den are coprime, so only the content can share with den
        g = gcd(den, *ints.values())
        if g == 1 and num == 1:
            return {m: c for m, c in ints.items() if c}, den
        return {m: c // g * num for m, c in ints.items() if c}, den // g

    def element(self, c, den):
        """The coefficient c / den of a polynomial with denominator den."""
        return Fraction(c, den)

    def normalize(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroInversion("0 has no inverse")
        return 1 / Fraction(a)

    def random(self, rng):
        return Fraction(rng.randrange(-20, 21))

    def to_str(self, c, den):
        """The text of the coefficient c / den."""
        return str(Fraction(c, den))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "q"

    def describe(self):
        return "q"


def field_from_spec(spec):
    """Parse a field flag: 'q' or 'zp:<p>' (also accepts 'zp(<p>)')."""
    s = spec.strip().lower()
    if s == "q":
        return RationalField()
    if s.startswith("zp:"):
        return PrimeField(int(s[3:]))
    if s.startswith("zp(") and s.endswith(")"):
        return PrimeField(int(s[3:-1]))
    raise ValueError(f"unrecognized field spec {spec!r}; use 'q' or 'zp:<p>'")
