"""The defining prime of a monomial curve, the named ideal the tests and
the benchmark's own tests build from; the worked examples are scripts
under examples/.
"""

from .fields import DEFAULT_PRIME, PrimeField
from .ideals import minimal_kernel
from .ring import Ring


def monomial_curve(exponents, field=None):
    """Defining prime of k[t^e1, ..., t^en] in a weighted k[x1..xn]."""
    field = field or PrimeField(DEFAULT_PRIME)
    n = len(exponents)
    names = ["x", "y", "z", "w"][:n] if n <= 4 \
        else [f"x{i + 1}" for i in range(n)]
    param = Ring(field, ["t"])
    t = param.var(0)
    source = Ring(field, list(names))
    return minimal_kernel(source, [t ** e for e in exponents])
