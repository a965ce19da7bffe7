"""The Groebner engine: multivariate division, Buchberger with the
coprimality and chain criteria (Gebauer-Moeller pair updates over one
table of live pairs, each kept with its lcm), reduced bases, and ideal
membership.

Everything here is deterministic: pair selection is by minimal lcm degree
with ties broken by the lcm's exponent key and then the pair indices, and
division always uses the first applicable divisor in list order.

The engine runs on the integer numerators of polynomials in working
form, which the field makes (`to_ints`): monic over F_p, primitive with
a positive lead over Q.  S-polynomials are integer combinations and
division is pseudo-division with content removal (Knuth, TAOCP vol. 2,
4.6.1, Algorithm R); over F_p every lead is 1, so it is plain division,
with coefficients reduced mod p as their terms are popped.  The
canonical form (`from_ints`) is made only for the monic reduced basis
`_interreduce` returns and the remainder `normal_form` returns.  Reduced
bases are unique, so they are the same as with field arithmetic
throughout.

The loop runs many small bases, so its cost per element counts as much
as its cost per term.  Every polynomial the engine builds carries its
leading monomial (division knows it: the first term it keeps), so
`lm()` never searches one.  `_interreduce` divides each element only by
the kept elements with smaller leads, as a larger lead divides no term
of it, with the division data the loop built for them.  The pair update
works on the packed ints, with no call per pair.

In a module ring the engine also returns kernels, the basis elements
led past a block of head components: reduced, or, where only
generators are needed (syzygies), from a loop that forms no pair of two
elements led past the head and interreduces nothing.

PAIR_CAP and DEGREE_CAP are the engine's resource ceilings: hitting one
raises ResourceExceeded, never silently truncates.
"""

import heapq
from math import gcd

from . import cache as _cache
from .errors import ResourceExceeded, RingMismatch
from .ring import EXP_MAX, Polynomial

PAIR_CAP = 10**6
DEGREE_CAP = 60


class GroebnerBasis:
    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = list(generators)
        self._divisors = None

    def divisors(self):
        """The division data of the generators, built on first use."""
        if self._divisors is None:
            self._divisors = [_divisor(_working(g)) for g in self.generators]
        return self._divisors

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"GroebnerBasis({[str(g) for g in self.generators]})"


def _common_ring(polys):
    ring = None
    for f in polys:
        if ring is None:
            ring = f.ring
        elif f.ring != ring:
            raise RingMismatch("polynomials live in different rings")
    return ring


def _working(g):
    """Nonzero g in the engine's working form: integer coefficients,
    monic over F_p, primitive with a positive lead over Q."""
    lead = g.lm()
    return Polynomial(g.ring, g.ring.field.to_ints(g.terms, lead), lead=lead)


def _divisor(g):
    """(lm, a, tail, top) of g in working form: a is its leading
    coefficient (1 over F_p), tail excludes the lead, and top, the
    bitwise or of the tail's monomials, bounds each of their
    exponents."""
    lm = g.lm()
    tail = tuple((m, c) for m, c in g.terms.items() if m != lm)
    top = 0
    for m, _ in tail:
        top |= m
    return (lm, g.terms[lm], tail, top)


def normal_form(f, G):
    """Remainder of f on division by G: a GroebnerBasis, whose division
    data is kept between calls, or a list (not necessarily a GB).

    No term of the result is divisible by any leading monomial of G, and
    f - result lies in (G).  Deterministic: the first applicable divisor
    in list order is always used.
    """
    if isinstance(G, GroebnerBasis):
        ring = G.ring
        if f.ring != ring:
            raise RingMismatch("polynomials live in different rings")
        divisors = G.divisors()
    else:
        ring = _common_ring([f] + list(G))
        divisors = [_divisor(_working(g)) for g in G if not g.is_zero()]
    if not divisors or f.is_zero():
        return f
    result, num, den = _divide(dict(f.terms), 1, f.den, divisors, ring,
                               full=True)
    # terms enter result largest first, none of them zero
    return Polynomial(ring, *ring.field.from_ints(result, num, den),
                      lead=next(iter(result), None))


def _divide(work, num, den, divisors, ring, full):
    """The division loop: pseudo-division on integers, over both fields,
    of the polynomial work * num / den, where work is an integer dict
    that the loop consumes (callers pass a copy of anything they keep).
    Before a term c*x^m is cancelled by a divisor with lead a, the
    remainder is scaled by a/gcd(a, c), and that factor is folded into
    one denominator; over F_p every lead is 1 and no scaling happens,
    and a coefficient is reduced mod p when its term is popped.

    With full=False it stops at the first irreducible term and returns
    the partial remainder in working form (its monomials are those of
    the true remainder's): enough for basis building and zero-testing,
    and much cheaper than a full normal form.  With full=True it returns
    the exact remainder as (ints, num, den), ints holding its terms
    largest first, none zero (residues over F_p).
    """
    key = ring.key
    guards = ring._guards
    field = ring.field
    p = field.characteristic
    # the dividend == work * num / den throughout
    # a min-heap on the negated key pops the largest monomial first
    heap = [(-key(m), m) for m in work]
    heapq.heapify(heap)
    push = heapq.heappush
    result = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        if p:
            c %= p
            if not c:
                continue
        bg = m | guards
        for lm, a, tail, top in divisors:
            if (bg - lm) & guards == guards:
                break
        else:
            result[m] = c
            if not full:
                result.update(work)
                return Polynomial(ring, field.to_ints(result, m), lead=m)
            continue
        q = m - lm
        # exponents below 2^15 add without a carry, so a new term mt + q
        # has an exponent above EXP_MAX iff it sets a guard bit; top
        # bounds every mt, so most steps test one sum
        if (top + q) & guards and any((mt + q) & guards for mt, _ in tail):
            raise ResourceExceeded(
                "exponent overflow: a division step makes an exponent "
                f"above {EXP_MAX}")
        if c % a:
            h = gcd(c, a)
            scale = a // h
            work = {k: v * scale for k, v in work.items()}
            if full:
                result = {k: v * scale for k, v in result.items()}
            den *= scale
            factor = c // h
        else:
            scale = 1
            factor = c // a
        for mt, ct in tail:
            mm = mt + q
            old = work.get(mm)
            if old is None:
                work[mm] = -factor * ct
                push(heap, (-key(mm), mm))
            else:
                val = old - factor * ct
                if val:
                    work[mm] = val
                else:
                    del work[mm]
        if scale != 1:
            content = gcd(*work.values(), *result.values())
            if content > 1:
                work = {k: v // content for k, v in work.items()}
                result = {k: v // content for k, v in result.items()}
                num *= content
    if not full:
        return ring.zero()
    return result, num, den


def _spoly(f, g, lcm, ring):
    """The S-polynomial of f and g in working form, given lcm(lm f,
    lm g): the integer combination
    (lc g/h)*x^(lcm - lm f)*f - (lc f/h)*x^(lcm - lm g)*g with
    h = gcd(lc f, lc g) (over F_p both leads are 1)."""
    af, ag = f.terms[f.lm()], g.terms[g.lm()]
    h = gcd(af, ag)
    qf, cf = lcm - f.lm(), ag // h
    qg, cg = lcm - g.lm(), af // h
    terms = {m + qf: c * cf for m, c in f.terms.items()}
    for m, c in g.terms.items():
        m += qg
        val = terms.get(m, 0) - c * cg
        if val:
            terms[m] = val
        else:
            terms.pop(m, None)
    return Polynomial(ring, terms)._no_overflow()


def _gm_update(lms, pairs, heap, ring):
    """Gebauer-Moeller pair update when the newest basis element t joins.

    pairs maps each live pair (i, j) to lcm(lm_i, lm_j), computed once
    when the pair is made.  The chain criterion deletes, in place, the
    pairs whose lcm the new leading monomial properly covers.  The new
    pairs (i, t) are grouped by lcm; only lcm-minimal classes are kept,
    one representative each (the smallest i), and a class with a coprime
    member is skipped.  Each new pair is pushed on the heap under its
    selection key: the normal strategy, smallest lcm degree first --
    weighted degree when the ring is weighted, so homogeneous inputs are
    processed degree by degree.  In a module ring only pairs within one
    component are formed.

    It runs once per basis element over a few pairs each, so the lcms
    come in one call and the divisibility tests are written out on the
    packed ints.
    """
    t = len(lms) - 1
    lm_t = lms[t]
    guards = ring._guards
    components = ring._components
    # an element of a rank-1 module ring R[e_0] is e_0 times one of R, so
    # the coprime-leads test holds there without the shared e_0
    product = lm_t - (components if components & (components - 1) == 0
                      else 0)
    with_t = ring.mono_lcms(lm_t, lms[:t])
    first, coprime = {}, set()
    for i, L in enumerate(with_t):
        m = lms[i]
        if not (m ^ lm_t) & components:
            if L not in first:
                first[L] = i
            if L == m + product:
                coprime.add(L)

    dead = [ij for ij, L in pairs.items()
            if ((L | guards) - lm_t) & guards == guards
            and L != with_t[ij[0]] and L != with_t[ij[1]]]
    for ij in dead:
        del pairs[ij]

    # a divisor of a packed monomial is a smaller int, so in int order
    # each class comes after every class whose lcm divides its own
    minimal = []
    for L in sorted(first):
        bound = L | guards
        for Lm in minimal:
            if (bound - Lm) & guards == guards:
                break
        else:
            minimal.append(L)
            if L not in coprime:
                i = first[L]
                pairs[i, t] = L
                heapq.heappush(heap, (ring.mono_wdeg(L), ring.key(L), i, t))


def buchberger(gens, *, known=(), head=None, reduced=True):
    """The reduced Groebner basis of the ideal generated by gens and
    known.

    known, if given, is already a Groebner basis of what it generates:
    the loop adds it first and forms no pair between two of its elements
    (the Gebauer-Moeller update started from a basis).  With head, the
    bits of the first r component variables of a module ring, the result
    is the reduced basis of the kernel, the elements supported in the
    components from r on.  Under position-over-term order those are the
    basis elements led there, since only such a lead divides a term
    there; the others are dropped before interreduction.  The kernel may
    be empty.

    With head and reduced=False the result is a generating set of the
    kernel, not a basis: the loop forms no pair of two elements led past
    the head and interreduces nothing.  Such a pair's S-polynomial, and
    all its reduction, lie in the tail, where it meets no head-led
    element; so finishing the loop with those pairs last would add only
    combinations of the tail elements already found, which therefore
    generate the kernel (the argument behind Schreyer's theorem,
    Eisenbud, Commutative Algebra, 15.10).  They come out canonical, in
    ascending order of leads.

    Zero generators are filtered; pair selection uses the normal strategy
    (minimal lcm degree, ties by lcm key then indices).  A popped pair
    no longer in the pair table was dropped by the chain criterion and is
    skipped.  The basis is asked of the job's store first
    (`cache.basis`), and computed only when neither the store nor its
    disk cache holds it.
    """
    gens, known = list(gens), list(known)
    ring = _common_ring(gens + known)
    if ring is None:
        raise ValueError("cannot infer the ring of an empty generator list")
    gens = [g for g in gens if not g.is_zero()]
    known = [g for g in known if not g.is_zero()]
    if not gens and not known:
        return GroebnerBasis(ring, [])

    return GroebnerBasis(ring, _cache.basis(
        ring, gens + known,
        lambda: _basis(gens, ring, known=known, head=head, reduced=reduced),
        head=head, reduced=reduced))


def _basis(gens, ring, known=(), head=None, reduced=True):
    """The Buchberger loop over nonzero gens after the Groebner basis
    known, then the reduced basis, or with head that of the kernel, or
    with head and reduced=False generators of the kernel."""
    # in a generator kernel an element led past the head forms no pair
    tail = 0 if reduced or head is None else ring._components & ~head
    # G holds working forms
    G, lms, div = [], [], []
    pairs, heap = {}, []

    def add(g, update=True):
        G.append(g)
        lms.append(g.lm())
        div.append(_divisor(g))
        if update and not g.lm() & tail:
            _gm_update(lms, pairs, heap, ring)

    for update, part in ((False, known), (True, gens)):
        for g in sorted(part, key=lambda f: ring.key(f.lm())):
            add(_working(g), update)

    processed = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue
        processed += 1
        if processed > PAIR_CAP:
            raise ResourceExceeded(f"pair ceiling {PAIR_CAP} exceeded")
        # the S-polynomial is fresh, so the division consumes its terms
        r = _divide(_spoly(G[i], G[j], lcm, ring).terms, 1, 1, div, ring,
                    full=False)
        if r.is_zero():
            continue
        if r.degree() > DEGREE_CAP:
            raise ResourceExceeded(
                f"degree ceiling {DEGREE_CAP} exceeded "
                f"(element of degree {r.degree()})")
        add(r)

    elements = zip(G, div)
    if head is not None:
        elements = [(g, d) for g, d in elements if not d[0] & head]
        if not reduced:
            from_ints = ring.field.from_ints
            return [Polynomial(ring, *from_ints(g.terms, 1, g.terms[d[0]]),
                               lead=d[0])
                    for g, d in sorted(elements,
                                       key=lambda gd: ring.key(gd[1][0]))]
    return _interreduce(elements, ring)


def _interreduce(elements, ring):
    """The unique reduced basis of a Groebner basis in working form,
    given as pairs (g, the division data of g, which the loop built):
    drop the elements whose leading monomial another's divides,
    tail-reduce the rest, and sort by leading monomial.  In ascending
    order of leads, each element is divided only by the kept elements
    before it: a larger lead divides no term of it, and the division
    never makes a term above its lead, which it keeps.  The elements
    come out monic and canonical: the engine's working forms end
    here."""
    guards = ring._guards
    from_ints = ring.field.from_ints
    divisors, reduced = [], []
    for g, d in sorted(elements, key=lambda gd: ring.key(gd[1][0])):
        lead = d[0]
        bound = lead | guards
        if any((bound - e[0]) & guards == guards for e in divisors):
            continue
        result = _divide(dict(g.terms), 1, 1, divisors, ring, full=True)[0]
        reduced.append(Polynomial(ring, *from_ints(result, 1, result[lead]),
                                  lead=lead))
        divisors.append(d)
    return reduced
