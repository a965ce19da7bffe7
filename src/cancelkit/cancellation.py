"""The cancellation theorem layer.

Setting: R = k[x_1..x_n] graded (possibly with weights), playing the
role of a local Gorenstein ring at its graded maximal ideal; I an
unmixed ideal of height g with dim R/I = d; a_1..a_g a regular sequence
generating I generically; a_{g+1} in I chosen so that
(a):I = (a):a_{g+1}; J = (a_1..a_{g+1}); and H^{d-1}_m(R/I) = 0, which
this package certifies through the equivalent graded-dual condition
Ext^{g+1}(R/I, R) = 0.

Under those hypotheses the cancellation theorem says: K*I contained in
J*I implies K contained in J.  cancel_check verifies instances; a
failure on certified hypotheses is raised as TheoremViolation.
construct_witness replays the proof's construction in the d = 1 case,
recording every intermediate identity.
"""

import random

from .cache import recall
from .errors import (BadRegularSequence, HypothesisFailed, NotReduction,
                     NotSubideal, PreconditionUnmet, RequiresDimensionOne,
                     SearchExhausted, TheoremViolation)
from .ideals import Ideal, radical_contains
from .resolutions import cohomology_summary
from .ring import combination


class CancellationHypotheses:
    """The data of the cancellation theorem plus its recomputed checks."""

    def __init__(self, I, a, a_extra, checks):
        self.I = I
        self.a = tuple(a)
        self.a_extra = a_extra
        self.J = Ideal(I.ring, list(a) + [a_extra])
        self.g = I.height
        self.d = I.dim
        self.checks = dict(checks)

    @property
    def certified(self):
        return all(self.checks.values())

    def failing(self):
        return sorted(k for k, v in self.checks.items() if not v)

    def __repr__(self):
        return (f"CancellationHypotheses(g={self.g}, d={self.d}, "
                f"checks={self.checks})")


class WitnessTrace:
    """The proof's intermediate objects and the identities verified."""

    def __init__(self, N, s, b, frak_a, q, steps):
        self.N = N
        self.s = s
        self.b = b
        self.frak_a = frak_a
        self.q = q
        self.steps = tuple(steps)

    def __repr__(self):
        return f"WitnessTrace(s={self.s}, steps={len(self.steps)})"


class LinkReport:
    """K = (a:I) + I with its height, unmixedness, and generic-CI data."""

    def __init__(self, K, height_K, unmixed_K, gci_K, degenerate=False):
        self.K = K
        self.height_K = height_K
        self.unmixed_K = unmixed_K
        self.gci_K = gci_K
        self.degenerate = degenerate

    def __repr__(self):
        return (f"LinkReport(height={self.height_K}, "
                f"unmixed={self.unmixed_K}, gci={self.gci_K}, "
                f"degenerate={self.degenerate})")


def check_hypotheses(I, a, a_extra):
    """Recompute each named hypothesis of the cancellation theorem, once
    per (I, a, a_extra) within a job that has a store."""
    a = tuple(a)
    return recall(("hypotheses", I.ring, I.generators, a, a_extra),
                  lambda: _hypotheses(I, a, a_extra))


def _hypotheses(I, a, a_extra):
    ring = I.ring
    if not all(I.contains_poly(f) for f in a) or not I.contains_poly(a_extra):
        raise NotSubideal("a_1..a_g and a_extra must lie in I")
    g = I.height
    A = Ideal(ring, a)
    checks = {}
    checks["regular_sequence"] = (len(a) == g and A.height == g)
    if checks["regular_sequence"]:
        colon = A.colon(I)
        checks["generic_generation"] = (colon + I).height >= g + 1
        checks["colon_agreement"] = colon == A.colon_poly(a_extra)
        # linkage: I is unmixed iff a : (a : I) = I
        checks["unmixed"] = A.colon(colon) == I
    else:
        checks["generic_generation"] = False
        checks["colon_agreement"] = False
        checks["unmixed"] = False
    checks["ext_vanishes"] = cohomology_summary(I).ext_vanishes
    return CancellationHypotheses(I, a, a_extra, checks)


def cancel_check(H, K):
    """Verify the cancellation: K*I in J*I forces K in J.

    A false conclusion under certified hypotheses contradicts the
    theorem and raises TheoremViolation.
    """
    if not H.certified:
        raise HypothesisFailed(
            f"hypotheses not certified; failing: {H.failing()}")
    JI = H.J * H.I
    KI = K * H.I
    if not JI.contains(KI):
        raise PreconditionUnmet("K*I is not contained in J*I")
    if H.J.contains(K):
        return True
    raise TheoremViolation(
        "certified hypotheses but K*I in J*I without K in J: "
        f"I={H.I}, J={H.J}, K={K}")


def construct_witness(H, seed=0):
    """Replay the proof's construction in the d = 1 case.

    Writes (a) = N cap I with N = saturate((a), I), samples s in N with
    (a):s = I and I:s = I, sets b = a_{g+1} + s, A = (a_1..a_g, b),
    q = (a:I) + I, and verifies A:s = q and A:q = A + (s).
    """
    if not H.certified:
        raise HypothesisFailed(
            f"hypotheses not certified; failing: {H.failing()}")
    if H.d != 1:
        raise RequiresDimensionOne(
            f"witness construction needs dim R/I = 1, got {H.d}")
    ring = H.I.ring
    A = Ideal(ring, list(H.a))
    q = A.colon(H.I) + H.I
    steps = []

    if q.is_unit():
        # a:I = (1) means I = (a) is a complete intersection; the proof
        # degenerates: s = 1 works for every identity
        s = ring.one()
        N = Ideal(ring, [ring.one()])
        b = H.a_extra + s
        frak_a = Ideal(ring, list(H.a) + [b])
        steps.append(("q_is_unit", True))
        steps.append(("a_equals_I", A == H.I))
        return WitnessTrace(N, s, b, frak_a, q, steps)

    N = A.saturate(H.I)
    steps.append(("a_equals_N_cap_I", N.intersect(H.I) == A))

    s = _sample_s(H, N, seed)
    steps.append(("a_colon_s_is_I", True))
    steps.append(("I_colon_s_is_I", True))

    b = H.a_extra + s
    frak_a = Ideal(ring, list(H.a) + [b])
    steps.append(("frak_a_dim_zero", frak_a.dim == 0))

    steps.append(("frak_a_colon_s_is_q", frak_a.colon_poly(s) == q))
    steps.append(("frak_a_colon_q_is_frak_a_plus_s",
                  frak_a.colon(q) == frak_a + Ideal(ring, [s])))
    failed = [name for name, ok in steps if not ok]
    if failed:
        raise TheoremViolation(
            f"witness identities failed on certified hypotheses: {failed}")
    return WitnessTrace(N, s, b, frak_a, q, steps)


def _sample_s(H, N, seed):
    """Random combination s of N's reduced basis with constant
    coefficients, one seeded draw per attempt, such that (a):s = I and
    I:s = I; 200 attempts."""
    ring = H.I.ring
    field = ring.field
    A = Ideal(ring, list(H.a))
    gens = list(N.groebner().generators)
    for attempt in range(200):
        rng = random.Random(f"{seed}-s-{attempt}")
        s = combination(ring, [field.random(rng) for _ in gens], gens)
        if s.is_zero():
            continue
        if A.colon_poly(s) == H.I and H.I.colon_poly(s) == H.I:
            return s
    raise SearchExhausted(
        "no witness element s found in 200 attempts")


def link_ideal(I, a):
    """K = (a:I) + I with the invariants of the linkage lemma: under the
    theorem's hypotheses K is unmixed of height g+1."""
    a = list(a)
    ring = I.ring
    g = I.height
    A = Ideal(ring, a)
    if len(a) != g or A.height != g:
        raise BadRegularSequence(
            f"need a length-{g} regular sequence (height criterion)")
    if not I.contains(A):
        raise BadRegularSequence("sequence must lie inside the ideal")
    K = A.colon(I) + I
    if K.is_unit():
        return LinkReport(K, None, None, None, degenerate=True)
    hK = K.height
    unmixed_K = None
    gci_K = None
    if hK == g + 1:
        b = _regular_sequence_in(K, g + 1)
        if b is not None:
            B = Ideal(ring, b)
            unmixed_K = B.colon(B.colon(K)) == K
            gci_K = (B.colon(K) + K).height >= g + 2
    return LinkReport(K, hK, unmixed_K, gci_K)


def _regular_sequence_in(K, length):
    """A length-`length` regular sequence inside K (height criterion),
    found by deterministic random combinations of the generators."""
    ring = K.ring
    field = ring.field
    gens = list(K.groebner().generators)
    if len(gens) < length:
        return None
    for attempt in range(100):
        rng = random.Random(f"0-rs-{attempt}")
        combo = [combination(ring, [field.random(rng) for _ in gens], gens)
                 for _ in range(length)]
        if any(f.is_zero() for f in combo):
            continue
        if Ideal(ring, combo).height == length:
            return combo
    return None


def corollary213_check(H, n):
    """The power-membership equivalence: I^n in J iff
    I^(n+1) cap J in J*I.  Requires certified hypotheses and
    radical(J) = radical(I), checked as J in I and I in radical(J);
    disagreement raises TheoremViolation.  The right side is first
    tested as I^(n+1) in J*I, which implies it; the intersection
    I^(n+1) cap J is formed only when that containment fails."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not H.certified:
        raise HypothesisFailed(
            f"hypotheses not certified; failing: {H.failing()}")
    I, J = H.I, H.J
    if not (I.contains(J) and radical_contains(J, I)):
        raise HypothesisFailed("radical(J) = radical(I) fails")
    lhs = J.contains(I ** n)
    JI = J * I
    power = I ** (n + 1)
    rhs = JI.contains(power) or JI.contains(power.intersect(J))
    if lhs != rhs:
        raise TheoremViolation(
            f"power-membership equivalence failed at n={n}: "
            f"I^n in J is {lhs} but I^(n+1) cap J in J*I is {rhs}")
    return lhs


def power_containment_scan(I, J, n_max, reduction_report):
    """Smallest n <= n_max with I^n in J, or None.

    J must be a reduction of I, verified by reduction_report, the
    ReductionReport of reduction_number(I, J).
    """
    if reduction_report.is_reduction is not True:
        raise NotReduction("J is not a verified reduction of I")
    power = I
    for n in range(1, n_max + 1):
        if J.contains(power):
            return n
        power = power * I
    return None
