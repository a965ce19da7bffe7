"""Rees-algebra presentations, fiber cones, and syzygetic tests.

For I = (a_1..a_m) in R = k[x], the presentation ideal Q of the Rees
algebra R[It] is the kernel of S = R[T_1..T_m] -> R[It], T_i -> a_i t,
computed as one elimination: the graph ideal (T_i - a_i t) of S[t]
intersected with S (Ideal.eliminate; Vasconcelos, Computational Methods
in Commutative Algebra and Algebraic Geometry, 1998).  Q is homogeneous
in the T-grading (deg T_i = 1, deg x_j = 0), so its graded pieces Q_d
can be read off any Groebner basis.  The fiber-cone ideal is the image
of Q in k[T] = S/(x)S; the analytic spread is the dimension of the
fiber cone.
"""

import itertools
import math
from fractions import Fraction

from .cache import recall
from .errors import ArityMismatch, NotGraded, ResourceExceeded, ZeroColon
from .fields import RationalField
from .gb import buchberger, normal_form
from .ideals import Ideal, kernel_of_map, minimal_kernel
from .linalg import echelonize
from .ring import Ring, embed


def t_degree(poly, base_count):
    """T-degree of a T-homogeneous polynomial in R[T]; NotGraded if the
    terms disagree.  base_count is the number of leading x-variables."""
    ring = poly.ring
    degs = {sum(ring.decode(m)[base_count:]) for m in poly.terms}
    if len(degs) > 1:
        raise NotGraded(f"{poly} is not T-homogeneous")
    return degs.pop() if degs else 0


class ReesPresentation:
    """Presentation data of the Rees algebra of an ideal."""

    def __init__(self, base, q_factory, s_ring, base_count, fiber_ideal):
        self.base = base
        self._q_factory = q_factory
        self._Q = None
        self.s_ring = s_ring
        self.base_count = base_count
        self.fiber_ideal = fiber_ideal
        self.analytic_spread = fiber_ideal.dim
        # spread minus height; the unit ideal has no height, so None
        self.analytic_deviation = (None if base.dim < 0 else
                                   self.analytic_spread - base.height)

    @property
    def Q(self):
        # computed on demand: the fiber and spread are often all a caller
        # needs, and expanding Q's generators can be much more expensive
        if self._Q is None:
            self._Q = self._q_factory()
        return self._Q

    def graded_piece(self, d):
        return graded_piece(self.Q, d, self.base_count)

    def __repr__(self):
        return (f"ReesPresentation(l={self.analytic_spread}, "
                f"ad={self.analytic_deviation})")


class SyzygeticReport:
    """Whether every degree-2 presentation relation comes from the linear
    ones: Q_2 contained in S_1 Q_1."""

    def __init__(self, q2_generators, offenders):
        self.q2_generators = tuple(q2_generators)
        self.offenders = tuple(offenders)
        self.is_syzygetic = not self.offenders

    def __repr__(self):
        return (f"SyzygeticReport(is_syzygetic={self.is_syzygetic}, "
                f"offenders={len(self.offenders)})")


def rees_presentation(ideal):
    """Presentation ideal Q, fiber-cone ideal, and analytic spread;
    built once per (ring, generators) within a job that has a store."""
    return recall(("rees", ideal.ring, ideal.generators),
                  lambda: _rees_presentation(ideal))


def _rees_presentation(ideal):
    ring = ideal.ring
    gens = ideal.generators
    if not gens:
        raise ZeroColon("the zero ideal has no Rees presentation")
    m = len(gens)
    # T1..Tm, or TT1..TTm and so on when the ring has a variable so named
    prefix = "T"
    while any(f"{prefix}{i + 1}" in ring.names for i in range(m)):
        prefix += "T"
    t_names = tuple(f"{prefix}{i + 1}" for i in range(m))
    # Weight T_i = deg a_i + 1 when every generator is homogeneous of
    # positive degree, so Q (which is bihomogeneous for the x-grading and
    # the T-count) stays homogeneous and the Groebner computations are
    # degree-bounded.  A constant generator makes I the unit ideal, whose
    # fiber ideal is read from Q.
    weights = None
    if all(a.is_homogeneous() and a.wdegree() > 0 for a in gens):
        base_w = ring.weights or tuple(1 for _ in range(ring.n))
        weights = tuple(base_w) + tuple(a.wdegree() + 1 for a in gens)
    s_ring = Ring(ring.field, ring.names + t_names, weights=weights)

    def q_factory():
        # Q = (T_i - a_i t) cap S; t has weight 1, so the graph ideal is
        # homogeneous when S is weighted
        st = Ring(ring.field, s_ring.names + ("@t",),
                  weights=weights and weights + (1,))
        t = st.var(st.n - 1)
        graph = [st.var(ring.n + i) - embed(a, st, range(ring.n)) * t
                 for i, a in enumerate(gens)]
        return Ideal(st, graph).eliminate(["@t"])

    t_ring = Ring(ring.field, t_names,
                  weights=None if weights is None else weights[ring.n:])
    fiber = (_fiber_by_certificates(ideal, t_ring)
             if weights is not None else None)
    if fiber is None:
        Q = q_factory()
        q_factory = lambda: Q  # noqa: E731
        # The fiber-cone ideal (Q + (x)) cap k[T] is the image of Q under
        # x -> 0, generated by the images of Q's generators.
        to_t = [None] * ring.n + list(range(m))
        fiber = Ideal(t_ring, [embed(q, t_ring, to_t) for q in Q.generators])
    return ReesPresentation(ideal, q_factory, s_ring, ring.n, fiber)


def _fiber_by_certificates(ideal, t_ring):
    """Fiber-cone ideal computed directly, without the Rees presentation,
    when a finite sandwich certificate closes; None when it does not.

    Write F = sum of I^d/mI^d for the fiber cone of I = (a_1..a_m).

    Membership: a T-form q of degree d lies in the fiber ideal iff
    q(a_1..a_m) lies in m*I^d (_in_fiber).

    Upper bound: for a positive weight vector w on the base variables,
    v_w is a valuation, so sending the class of g in F_d to the w-initial
    part of g when v_w(g) = d * min_i v_w(a_i) (to 0 otherwise) is a
    well-defined graded ring homomorphism out of F: multiplying by the
    maximal ideal strictly raises v_w, and initial parts multiply.  The
    fiber ideal is therefore contained in the kernel K_w of
    T_i -> initial(a_i) (or 0 for non-attaining generators), for every w.

    When every generator of the intersection of several K_w passes the
    membership test, the sandwich closes and the fiber ideal equals that
    intersection.  Equigenerated ideals skip the sandwich: m*I^d lives
    in degrees above d*deg, so F is isomorphic to the subalgebra
    k[a_1..a_m] and the fiber ideal is the full algebraic-relations
    kernel, generated by and holding its reduced basis (no minimal
    generators are formed), in a ring that orders k[T] as t_ring does
    (uniform weights, grevlex).  Every generator has positive degree.
    """
    gens = ideal.generators
    ring = ideal.ring
    try:
        degs = {g.wdegree() for g in gens}
        if len(degs) == 1:
            d = degs.pop()
            src = Ring(ring.field, t_ring.names, weights=(d,) * len(gens))
            return kernel_of_map(src, list(gens))
        upper = None
        for w in _equalizing_weights(ideal):
            Kw = _valuation_kernel(ideal, w, t_ring)
            upper = Kw if upper is None else upper.intersect(Kw)
        if upper is not None and _in_fiber(ideal, upper.generators):
            return upper
    except ResourceExceeded:
        return None
    return None


def _in_fiber(ideal, forms):
    """True iff every T-form in forms lies in the fiber-cone ideal of
    I = (a_1..a_m): that ideal is T-graded, and its degree-d piece holds
    the q with q(a_1..a_m) in m*I^d, m = (x_1..x_n), so each T-degree
    part is evaluated and reduced modulo a basis of m*I^d."""
    ring = ideal.ring
    maximal = Ideal(ring, ring.gens())
    bases = {}
    for q in forms:
        parts = {}
        for mono in q.terms:
            exps = q.ring.decode(mono)
            d = sum(exps)
            value = math.prod((a ** e for a, e in zip(ideal.generators, exps)),
                              start=ring.constant(q.coeff(mono)))
            parts[d] = parts.get(d, ring.zero()) + value
        for d, f in parts.items():
            if d not in bases:
                bases[d] = buchberger((maximal * ideal ** d).generators)
            if not normal_form(f, bases[d]).is_zero():
                return False
    return True


def _equalizing_weights(ideal):
    """Positive integer weight vectors under which all but one generator
    attains the common minimal weighted value, found by solving the
    equalization system for each choice of candidate minimal monomials."""
    ring = ideal.ring
    gens = ideal.generators
    m = len(gens)
    if m < 2:
        return []
    supports = [[ring.decode(mono) for mono in g.terms] for g in gens]
    found = []
    for subset in itertools.combinations(range(m), m - 1):
        size = 1
        for i in subset:
            size *= len(supports[i])
        if size > 20000:
            continue
        hit = None
        for combo in itertools.product(*[supports[i] for i in subset]):
            base = combo[-1]
            rows = [[Fraction(a - b) for a, b in zip(e, base)]
                    for e in combo[:-1]]
            for w in _positive_nullspace(rows, ring.n):
                vals = [min(sum(wi * ei for wi, ei in zip(w, e))
                            for e in sup) for sup in supports]
                tgt = [sum(wi * ei for wi, ei in zip(w, e)) for e in combo]
                low = min(vals)
                if (all(vals[i] == low for i in subset)
                        and all(t == low for t in tgt)):
                    hit = w
                    break
            if hit:
                break
        if hit and hit not in found:
            found.append(hit)
    return found


def _positive_nullspace(rows, n):
    """Some strictly positive integer vectors (coprime entries) in the
    rational nullspace of the given rows; possibly none."""
    M = [r[:] for r in rows]
    piv = echelonize(M, RationalField())
    free = [c for c in range(n) if c not in piv]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for pr, pc in enumerate(piv):
            v[pc] = -M[pr][fc]
        basis.append(v)
    cands = []
    for v in basis:
        cands.append(v)
        cands.append([-x for x in v])
    if len(basis) >= 2:
        for l1, l2 in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3),
                       (3, 2), (1, 5), (5, 1), (1, -1), (-1, 1), (2, -1),
                       (-1, 2), (3, -1), (-1, 3)):
            cands.append([l1 * a + l2 * b
                          for a, b in zip(basis[0], basis[1])])
    out = []
    for v in cands:
        if all(x > 0 for x in v):
            den = math.lcm(*[x.denominator for x in v])
            wi = tuple(int(x * den) for x in v)
            g = math.gcd(*wi)
            wi = tuple(x // g for x in wi)
            if wi not in out:
                out.append(wi)
    return out


def _valuation_kernel(ideal, w, t_ring):
    """Kernel of k[T] -> R sending T_i to the w-initial form of a_i when
    a_i attains the minimal w-value among the generators, to 0 otherwise;
    always contains the fiber-cone ideal."""
    ring = ideal.ring
    field = ring.field
    gens = ideal.generators
    wring = Ring(field, ring.names, weights=w)
    vals = []
    forms = []
    for g in gens:
        per = {mono: sum(wi * ei for wi, ei in zip(w, wring.decode(mono)))
               for mono in g.terms}
        low = min(per.values())
        vals.append(low)
        forms.append(g.part(wring, {mono: c for mono, c in g.terms.items()
                                    if per[mono] == low}))
    low = min(vals)
    attain = [i for i, v in enumerate(vals) if v == low]
    kernel_gens = [t_ring.var(i) for i, v in enumerate(vals) if v > low]
    if len(attain) >= 2:
        src = Ring(field, tuple(t_ring.names[i] for i in attain),
                   weights=(low,) * len(attain))
        K = minimal_kernel(src, [forms[i] for i in attain])
        kernel_gens += [embed(g, t_ring, attain) for g in K.generators]
    return Ideal(t_ring, kernel_gens)


def graded_piece(Q, d, base_count):
    """Generators of T-degree exactly d drawn from the reduced GB of the
    T-homogeneous ideal Q."""
    if d < 0:
        raise ArityMismatch("graded piece of negative degree")
    return [g for g in Q.groebner().generators
            if t_degree(g, base_count) == d]


def is_syzygetic(ideal):
    """Tests whether the degree-2 presentation relations of the Rees
    algebra lie in the ideal generated by the linear relations."""
    pres = rees_presentation(ideal)
    q1 = pres.graded_piece(1)
    q2 = pres.graded_piece(2)
    linear = Ideal(pres.s_ring, q1)
    offenders = [q for q in q2 if not linear.contains_poly(q)]
    return SyzygeticReport(q2, offenders)
