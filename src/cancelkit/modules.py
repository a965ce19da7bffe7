"""Submodules of free modules R^k, computed by the ideal engine in `gb`.

A vector of R^k is a polynomial of R.module_ring(k) = R[e_0..e_{k-1}]
whose every term carries one component variable e_i.  The order there is
position-over-term (earlier positions dominate), which makes the
component-elimination trick work: to find the columns h of R^c with
sum h_j*v_j in a submodule N = (n_1..n_s) of R^r, compute one basis of
the (v_j, e_j) and (n_i, 0) in R^(r+c) and keep the elements supported
entirely in the tail block.  Syzygies (N = 0), the colon I : J, the
colon by a polynomial and the intersection I cap J are all this one
kernel construction.  A kernel of one column (colon and intersection)
is the reduced basis of the ideal it is, so it comes back reduced: a
tail term is divisible only by a lead in the tail, so the basis
elements led in the head block are dropped first (`gb.buchberger` with
head) and only the kernel is interreduced.  A kernel of more columns
(syzygies, behind resolutions and Ext) is trimmed by minimal_columns
anyway, so it comes back as generators: the loop forms no pair of two
elements led in the tail and interreduces nothing (`gb.buchberger` with
reduced=False).  The store and disk keys
name the head and whether the kernel is reduced, so a kernel never
answers for a full basis, nor generators for a reduced kernel.
The submodule a kernel is taken modulo enters as known relations, a
module Groebner basis -- for colon and intersection an ideal's reduced
basis times e_j, since pairs form only within one component -- with no
pair between two of them.

minimal_columns trims a generating set of a graded submodule to a
minimal one by graded Nakayama: one pass in increasing degree, with
linear algebra modulo the columns kept in lower degrees.
"""

from itertools import groupby
from math import lcm

from .gb import buchberger, normal_form
from .linalg import echelonize
from .ring import FIELD_BITS, Polynomial


def vector(polys):
    """The column (polys[0], polys[1], ...) of R^len(polys), as a
    polynomial of the module ring, over the lcm of the parts'
    denominators (which shares no factor with all numerators)."""
    ring = polys[0].ring.module_ring(len(polys))
    den = 1
    for f in polys:
        if f.den != 1:
            den = lcm(den, f.den)
    terms = {}
    for s, f in zip(ring._shifts, polys):
        e = 1 << s
        if f.den == den:
            for m, c in f.terms.items():
                terms[m + e] = c
        else:
            scale = den // f.den
            for m, c in f.terms.items():
                terms[m + e] = c * scale
    return Polynomial(ring, terms, den)


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
    return [v.part(base, t) for t in parts]


def module_buchberger(vectors, *, known=(), head=None, reduced=True):
    """Reduced module Groebner basis of the submodule generated by vectors
    and known (a GroebnerBasis; an empty list when every vector is zero).
    known, a module Groebner basis, head, the bits of the component
    variables before the kernel's, and reduced are those of
    `gb.buchberger`."""
    vecs = [v for v in vectors if not v.is_zero()]
    if not vecs and not known:
        return []
    return buchberger(vecs, known=known, head=head, reduced=reduced)


def module_member(v, basis):
    """Membership of v in the submodule with module GB `basis`."""
    return normal_form(v, basis).is_zero()


def syzygy_columns(columns, known=()):
    """Generators of the columns h of R^c with sum h_j*columns[j] in the
    submodule of R^r generated by `known`; with none, the syzygies of
    the columns.  known must be a module Groebner basis (the reduced
    basis of an ideal times e_j is one); it enters the loop without
    pairs among its elements.

    columns, known: lists of lists of polynomials, each of length r.
    Returns, as a list of columns of length c = len(columns), the
    reduced basis of the kernel when c is 1 (only it is interreduced),
    and generators of the kernel otherwise.
    """
    if not columns:
        return []
    r = len(columns[0])
    c = len(columns)
    ring = columns[0][0].ring
    zero = ring.zero()
    big = []
    for j, col in enumerate(columns):
        tail = [zero] * c
        tail[j] = ring.one()
        big.append(vector(list(col) + tail))
    pad = [zero] * c
    kernel = module_buchberger(
        big, known=[vector(list(rel) + pad) for rel in known],
        head=sum(1 << s for s in big[0].ring._shifts[:r]), reduced=c == 1)
    return [components(g)[r:] for g in kernel]


def minimal_columns(cols, shifts):
    """A minimal generating set of the graded submodule of R^r spanned
    by cols, basis vector i of R^r having degree shifts[i] (Eisenbud,
    Commutative Algebra, 19.1).  In increasing degree, the columns of one
    degree are kept when their normal forms modulo the columns kept in
    lower degrees are linearly independent over the field: the pivot
    columns of one echelon form, so earlier columns are preferred.

    Returns (kept columns, their degrees).  For inhomogeneous columns
    (degree = the largest over the entries) the kept ones still generate.
    """
    def degree(col):
        return max(f.wdegree() + s for f, s in zip(col, shifts)
                   if not f.is_zero())

    live = sorted(((degree(c), c) for c in cols
                   if not all(f.is_zero() for f in c)), key=lambda p: p[0])
    kept, degrees, basis, based = [], [], [], 0
    for d, group in groupby(live, key=lambda p: p[0]):
        if based < len(kept):
            based = len(kept)
            basis = module_buchberger([vector(c) for c in kept])
        group = [c for _, c in group]
        forms = [normal_form(vector(c), basis) for c in group]
        # one row per monomial, one column per candidate: its numerators,
        # a nonzero multiple of it, which leaves the pivots as they are
        field = group[0][0].ring.field
        rows = [[v.terms.get(m, 0) for v in forms]
                for m in set().union(*(v.terms for v in forms))]
        for j in echelonize(rows, field):
            kept.append(group[j])
            degrees.append(d)
    return kept, degrees
