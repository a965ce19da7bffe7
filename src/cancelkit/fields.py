"""Exact coefficient fields: prime fields F_p and arbitrary-precision rationals.

Elements are plain Python values (int residues in [0, p) for F_p,
`fractions.Fraction` for Q), so polynomial inner loops stay cheap.  The
field object supplies the arithmetic and canonicalization.

These are the forms at the API: every polynomial a caller builds or gets
back has canonical residues or `Fraction`s.  Inside, the Groebner engine
(`gb`) and polynomial products work on plain integers over both fields:
`to_ints` takes a polynomial's terms to integers and `from_ints` takes
integers back to the field, and this module is the only one that knows
how.  Over F_p those integers may be unreduced or negative; they are
reduced mod p (the field's `characteristic`) when they leave.
"""

from fractions import Fraction
from math import gcd, lcm

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

    def to_ints(self, terms, lead=None):
        """(ints, num, den) with terms[m] == ints[m] * num / den mod p.
        Without lead, a copy; with lead, the monic form, reduced mod p
        with zero terms dropped (terms may hold any integers)."""
        if lead is None:
            return dict(terms), 1, 1
        p = self.p
        num = terms[lead] % p
        inv = self.inv(num)
        return {m: v for m, c in terms.items() if (v := c * inv % p)}, num, 1

    def from_ints(self, ints, num, den):
        """The residues of ints * num / den, zero terms dropped."""
        p = self.p
        scale = num * self.inv(den) % p if den != 1 else num % p
        return {m: v for m, c in ints.items() if (v := c * scale % p)}

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

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("zp", self.p))

    def __repr__(self):
        return f"zp({self.p})"

    def describe(self):
        return f"zp:{self.p}"


class RationalField:
    """Q with elements as `Fraction` (already canonical: reduced, den > 0)."""

    kind = "rationals"
    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def to_ints(self, terms, lead=None):
        """(ints, num, den) with terms[m] == ints[m] * num / den, den the
        lcm of the denominators.  With lead, also without content and
        with ints[lead] > 0: the primitive form.  terms may hold ints."""
        den = lcm(*[c.denominator for c in terms.values()])
        ints = {m: c.numerator * (den // c.denominator)
                for m, c in terms.items()}
        if lead is None:
            return ints, 1, den
        num = gcd(*ints.values())
        if ints[lead] < 0:
            num = -num
        if num != 1:
            ints = {m: c // num for m, c in ints.items()}
        return ints, num, den

    def from_ints(self, ints, num, den):
        """The Fractions ints * num / den, zero terms dropped."""
        return {m: Fraction(c * num, den) for m, c in ints.items() if c}

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

    def to_str(self, a):
        return str(a)

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
