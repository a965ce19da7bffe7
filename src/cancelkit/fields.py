"""Exact coefficient fields: prime fields F_p and arbitrary-precision rationals.

Elements are plain Python values (int residues in [0, p) for F_p,
`fractions.Fraction` for Q), so polynomial inner loops stay cheap.  The
field object supplies the arithmetic and canonicalization.

Over Q, `Fraction` is the form at the API: every polynomial a caller
builds or gets back has `Fraction` coefficients.  Inside, the Groebner
engine (`gb`) and polynomial products work on integers -- each
polynomial cleared of denominators and of its content -- and build
`Fraction`s only for what they return.
"""

from fractions import Fraction

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
        self.p = p
        self.zero = 0
        self.one = 1

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

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

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
