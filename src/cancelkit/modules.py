"""Submodules of free modules R^k, computed by the ideal engine in `gb`.

A vector of R^k is a polynomial of R.module_ring(k) = R[e_0..e_{k-1}]
whose every term carries one component variable e_i.  The order there is
position-over-term (earlier positions dominate), which makes the
component-elimination trick work: to find the syzygies of columns
v_1..v_c in R^r, compute a basis of the (v_j, e_j) in R^(r+c) and keep
the elements supported entirely in the tail block.
"""

from .gb import buchberger, normal_form
from .ring import FIELD_BITS, Polynomial


def vector(polys):
    """The column (polys[0], polys[1], ...) of R^len(polys), as a
    polynomial of the module ring."""
    ring = polys[0].ring.module_ring(len(polys))
    terms = {}
    for s, f in zip(ring._shifts, polys):
        e = 1 << s
        for m, c in f.terms.items():
            terms[m + e] = c
    return Polynomial(ring, terms)


def components(v):
    """The coordinates of the vector v, as polynomials of the base ring."""
    ring = v.ring
    base = ring.base
    low = FIELD_BITS * base.n
    mask = (1 << low) - 1
    last = ring.n - base.n - 1
    parts = [{} for _ in range(last + 1)]
    for m, c in v.terms.items():
        pos = last - ((m >> low).bit_length() - 1) // FIELD_BITS
        parts[pos][m & mask] = c
    return [Polynomial(base, t) for t in parts]


def module_buchberger(vectors):
    """Reduced module Groebner basis of the submodule generated by vectors."""
    vecs = [v for v in vectors if not v.is_zero()]
    if not vecs:
        return []
    return buchberger(vecs).generators


def module_member(v, basis):
    """Membership of v in the submodule with module GB `basis`."""
    return normal_form(v, basis).is_zero()


def syzygy_columns(columns):
    """Generators of the syzygy module of the given columns in R^r.

    columns: list of lists of polynomials (each of the same length r).
    Returns a list of columns (length = len(columns)) spanning the kernel
    of the map R^c -> R^r.
    """
    if not columns:
        return []
    r = len(columns[0])
    c = len(columns)
    ring = None
    for col in columns:
        for f in col:
            ring = ring or f.ring
    big = []
    for j, col in enumerate(columns):
        tail = [ring.zero()] * c
        tail[j] = ring.one()
        big.append(vector(list(col) + tail))
    syz = []
    for g in module_buchberger(big):
        polys = components(g)
        if all(f.is_zero() for f in polys[:r]):
            syz.append(polys[r:])
    return syz
