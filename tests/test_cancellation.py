import pytest

from cancelkit.errors import (HypothesisFailed, PreconditionUnmet,
                              RequiresDimensionOne)
from cancelkit.fields import DEFAULT_PRIME, PrimeField
from cancelkit.ideals import Ideal
from cancelkit.cancellation import (CancellationHypotheses, cancel_check,
                                    check_hypotheses,
                                    construct_witness, corollary213_check,
                                    link_ideal, power_containment_scan)
from cancelkit.ring import Ring
from cancelkit.fixtures import monomial_curve


def mixed_ideal_control():
    """A mixed ideal I with a subideal J such that (J*I):I strictly
    contains J: cancellation genuinely fails without unmixedness.

    With I = (x^2, xy), the choice J = (x^2) does NOT witness strictness
    ((J*I):I = (x^2) = J there); J = (x^4, x^2 y^2) does: x^3 y * I =
    (x^5 y, x^4 y^2) lies in J*I but x^3 y is not in J.
    """
    ring = Ring(PrimeField(DEFAULT_PRIME), ["x", "y"])
    x, y = ring.gens()
    return Ideal(ring, [x * x, x * y]), Ideal(ring, [x**4, x * x * y * y])


def _curve_hypotheses(exps=(1, 2, 3)):
    I = monomial_curve(exps)
    gens = sorted(I.generators, key=lambda f: f.wdegree())
    # for these curves the two smallest-degree generators form a regular
    # sequence and the third completes the generating set
    a = gens[:2]
    extra = gens[2] if len(gens) > 2 else gens[0] + gens[1]
    return check_hypotheses(I, a, extra)


def test_hypotheses_all_pass_on_linear_type_curve():
    I = monomial_curve((3, 4, 5))
    gens = sorted(I.generators, key=lambda f: f.wdegree())
    H = check_hypotheses(I, gens[:2], gens[2])
    assert H.certified, H.failing()
    assert H.g == 2 and H.d == 1
    assert set(H.checks) == {"regular_sequence", "generic_generation",
                             "colon_agreement", "unmixed", "ext_vanishes"}


def test_cancel_check_positive():
    H = _curve_hypotheses((3, 4, 5))
    assert H.certified
    # the canonical instance: K = (J*I):I must satisfy K in J
    K = (H.J * H.I).colon(H.I)
    assert cancel_check(H, K) is True
    assert H.J.contains(K) and K.contains(H.J)


def test_cancel_check_requires_containment():
    H = _curve_hypotheses((3, 4, 5))
    R = H.I.ring
    with pytest.raises(PreconditionUnmet):
        cancel_check(H, Ideal(R, [R.var(0)]))


def test_cancel_check_rejects_uncertified():
    I, J = mixed_ideal_control()
    R = I.ring
    x, y = R.gens()[:2]
    H = check_hypotheses(I, [x * x], x * y)
    assert not H.certified
    with pytest.raises(HypothesisFailed):
        cancel_check(H, J)


def test_strict_containment_without_hypotheses():
    # the control pair: K = (J*I):I strictly contains J, showing the
    # hypotheses are not decorative
    I, J = mixed_ideal_control()
    K = (J * I).colon(I)
    assert K.contains(J)
    assert not J.contains(K)


def test_witness_construction():
    H = _curve_hypotheses((3, 4, 5))
    trace = construct_witness(H, seed=0)
    steps = dict(trace.steps)
    assert all(steps.values()), steps
    R = H.I.ring
    # b completes a regular sequence of full height
    assert trace.frak_a.height == 3
    # s witnesses the colon identities
    assert trace.frak_a.colon_poly(trace.s) == trace.q
    assert trace.frak_a.colon(trace.q) == trace.frak_a + Ideal(R, [trace.s])


def test_witness_deterministic():
    H = _curve_hypotheses((3, 4, 5))
    a = construct_witness(H, seed=5)
    b = construct_witness(H, seed=5)
    assert str(a.s) == str(b.s)


def test_witness_degenerate_ci():
    # complete intersection: (a:I) + I = (1), the degenerate branch
    R = Ring(PrimeField(32003), ["x", "y", "z"])
    x, y, z = R.gens()
    gens = [x * x - y * z, y * y - x * z]
    I = Ideal(R, gens)
    H = check_hypotheses(I, gens, gens[0] + gens[1])
    assert H.certified
    trace = construct_witness(H, seed=0)
    steps = dict(trace.steps)
    assert steps.get("q_is_unit")
    assert str(trace.s) == "1"


def test_witness_requires_dimension_one():
    R = Ring(PrimeField(32003), ["x", "y", "z", "w"])
    x, y, z, w = R.gens()
    I = Ideal(R, [x, y])
    H = check_hypotheses(I, [x, y], x + y)
    if H.certified and H.d != 1:
        with pytest.raises(RequiresDimensionOne):
            construct_witness(H, seed=0)


def test_link_ideal():
    I = monomial_curve((3, 4, 5))
    gens = sorted(I.generators, key=lambda f: f.wdegree())
    rep = link_ideal(I, gens[:2])
    assert rep.height_K == 3 or rep.degenerate
    if not rep.degenerate:
        assert rep.unmixed_K
        assert rep.gci_K


def test_corollary_power_containment():
    H = _curve_hypotheses((3, 4, 5))
    I, J = H.I, H.J
    for n in (1, 2, 3):
        lhs = corollary213_check(H, n)
        # radical(I) = radical(J) here since J = I, so both sides hold
        assert lhs == (J.contains(_power(I, n)))


def _power(I, n):
    P = I
    for _ in range(n - 1):
        P = P * I
    return P


def test_corollary_decides_the_nontrivial_direction(monkeypatch):
    # I is not in J = (a, a_extra) here, so at n = 1 the right side is
    # decided by the intersection I^2 cap J; from n = 2 on, I^n in J and
    # I^(n+1) in J*I certifies the right side without it
    I = monomial_curve((4, 5, 7))
    g = I.generators
    z = I.ring.var(2)
    H = check_hypotheses(I, [g[0], z * g[1]], g[2])
    assert H.certified, H.failing()
    intersections = []
    original = Ideal.intersect

    def counted(self, other):
        intersections.append(other)
        return original(self, other)

    monkeypatch.setattr(Ideal, "intersect", counted)
    verdicts = {}
    for n in (1, 2, 3):
        del intersections[:]
        verdicts[n] = (corollary213_check(H, n), len(intersections))
    assert verdicts == {1: (False, 1), 2: (True, 0), 3: (True, 0)}


def test_corollary_in_a_verify_job_forms_no_intersection(tmp_path,
                                                         monkeypatch):
    # on the curve (3, 4, 5), I^n lies in J for n = 1, 2, so each cor213
    # is certified by I^(n+1) in J*I and I in J: nothing called from
    # inside the check intersects or saturates
    from cancelkit import cancellation
    from test_bench_digests import _job, _run
    job, ref = _job("verify", "curve3-4-5")
    path = tmp_path / "job.ck"
    path.write_text(job.text)
    inside, built, checks = [], [], []
    check = cancellation.corollary213_check

    def in_check(H, n):
        checks.append(n)
        inside.append(True)
        try:
            return check(H, n)
        finally:
            inside.pop()

    def watched(name):
        original = getattr(Ideal, name)

        def call(self, other):
            if inside:
                built.append(name)
            return original(self, other)
        return call

    monkeypatch.setattr(cancellation, "corollary213_check", in_check)
    for name in ("intersect", "saturate"):
        monkeypatch.setattr(Ideal, name, watched(name))
    assert _run(path) == (ref["exit"], ref["stdout_sha256"])
    assert checks == [1, 2]
    assert built == []


def test_corollary_rejects_bad_n():
    H = _curve_hypotheses((3, 4, 5))
    with pytest.raises(Exception):
        corollary213_check(H, 0)


def test_corollary_rejects_radical_mismatch():
    R = Ring(PrimeField(32003), ["x", "y", "z"])
    x, y, z = R.gens()
    I = Ideal(R, [x, y])
    checks = dict.fromkeys(["regular_sequence", "generic_generation",
                            "colon_agreement", "unmixed", "ext_vanishes"],
                           True)
    # J = (x, y*z) has the extra prime (x, z); J = (x, z) is not in I
    for a_extra in (x + y * z, z):
        H = CancellationHypotheses(I, [x, y * z], a_extra, checks)
        assert H.certified
        with pytest.raises(HypothesisFailed, match="radical"):
            corollary213_check(H, 1)


def test_power_scan_requires_verified_reduction():
    from cancelkit.errors import NotReduction
    from cancelkit.reductions import reduction_number
    I = monomial_curve((3, 4, 5))
    R = I.ring
    J = Ideal(R, [I.generators[0]])
    with pytest.raises(NotReduction):
        power_containment_scan(I, J, 3, reduction_number(I, J))


def test_power_scan_on_reduction():
    from cancelkit.reductions import reduction_number
    R = Ring(PrimeField(32003), ["x", "y"])
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y, y * y])
    J = Ideal(R, [x * x, y * y])
    rep = reduction_number(I, J)
    # I^2 = J*I is inside J; I itself is not, so the smallest power is 2
    assert power_containment_scan(I, J, 4, rep) == 2
