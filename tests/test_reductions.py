import itertools
import json
import random
import re
import warnings

import pytest

import oracle
from cancelkit import reductions
from cancelkit.errors import NotSubideal
from cancelkit.fields import PrimeField, RationalField
from cancelkit.ideals import Ideal
from cancelkit.reductions import find_minimal_reduction, reduction_number
from cancelkit.rees import rees_presentation
from cancelkit.ring import Ring, combination
from cancelkit.fixtures import monomial_curve


@pytest.fixture
def R():
    return Ring(PrimeField(32003), ["x", "y"])


def test_veronese_reduction(R):
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y, y * y])
    J = Ideal(R, [x * x, y * y])
    rep = reduction_number(I, J)
    assert rep.is_reduction
    assert rep.r == 1  # J*I contains I^2


def test_self_reduction_is_zero(R):
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y, y * y])
    rep = reduction_number(I, I)
    assert rep.is_reduction and rep.r == 0


def test_non_reduction_is_inconclusive(R):
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y, y * y])
    J = Ideal(R, [x * x])
    rep = reduction_number(I, J, n_cap=4)
    # honestly reported: exceeding the cap proves nothing either way
    assert rep.is_reduction == "inconclusive"
    assert rep.r is None


def test_requires_subideal(R):
    x, y = R.gens()
    I = Ideal(R, [x * x])
    J = Ideal(R, [y])
    with pytest.raises(NotSubideal):
        reduction_number(I, J)


def _deviation(I):
    return rees_presentation(I).analytic_deviation


def test_analytic_deviation_on_curves():
    assert _deviation(monomial_curve((1, 2, 3))) == 0
    assert _deviation(monomial_curve((3, 4, 5))) == 1


def test_analytic_deviation_of_the_unit_ideal_is_none(R):
    x, y = R.gens()[:2]
    assert _deviation(Ideal(R, [R.one(), x])) is None
    assert _deviation(Ideal(R, [R.constant(2), R.constant(3)])) is None
    assert _deviation(Ideal(R, [x * x, x * y])) is not None


def test_minimal_reduction_veronese(R):
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y, y * y])
    search = find_minimal_reduction(I, seed=0)
    assert len(search.result.generators) == 2  # spread of the Veronese
    assert search.report.is_reduction
    assert search.report.r <= 1
    # replay with the same seed is bit-identical
    again = find_minimal_reduction(I, seed=0)
    assert [str(g) for g in again.result.generators] == \
        [str(g) for g in search.result.generators]
    assert again.attempts == search.attempts


def test_minimal_reduction_when_spread_equals_mu():
    # for an ideal of linear type the only minimal reduction is the ideal
    # itself, returned with r = 0
    I = monomial_curve((3, 4, 5))
    search = find_minimal_reduction(I, seed=0)
    assert search.result == I
    assert search.report.r == 0


def test_seed_changes_coefficients(R):
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y, y * y])
    a = find_minimal_reduction(I, seed=1)
    b = find_minimal_reduction(I, seed=2)
    # both are valid reductions even if the sampled coefficients differ
    assert a.report.is_reduction and b.report.is_reduction


def test_small_prime_warns():
    R = Ring(PrimeField(101), ["x", "y"])
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y, y * y])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        find_minimal_reduction(I, seed=0)
    assert any("small" in str(w.message).lower()
               or "prime" in str(w.message).lower() for w in caught)


def test_power_stabilization(R):
    # r(I) for the Veronese with J = (x^2, y^2): J I^n = I^{n+1} for n >= 1
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y, y * y])
    J = Ideal(R, [x * x, y * y])
    power = I
    JI = J * I
    assert JI.contains(I * I)
    assert (J * (I * I)).contains(I * I * I)


def test_minimal_reduction_refuses_mixed_degrees(R):
    # (x^2, xy, y^3) has analytic spread 2 but generators of degrees 2
    # and 3: no constant-coefficient combination is homogeneous, so the
    # search stops at once instead of spending its attempt budget
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y, y ** 3])
    with pytest.raises(NotSubideal, match="weighted degrees 2, 3"):
        find_minimal_reduction(I, seed=0)
    # one weighted degree is what counts: x^4, x^2*y, y^2 all have
    # degree 4 when y weighs 2
    W = Ring(PrimeField(32003), ["x", "y"], None, [1, 2])
    x, y = W.gens()
    search = find_minimal_reduction(Ideal(W, [x ** 4, x * x * y, y * y]))
    assert len(search.result.generators) == 2
    assert search.report.is_reduction is True


def test_minreduction_refuses_mixed_degrees_before_the_spread(
        tmp_path, monkeypatch, capsys):
    # three generators in degrees 2 and 3 in two variables: the spread is
    # at most 2 < 3, so the refusal needs no Rees presentation
    from cancelkit.cli import main
    calls = []

    def no_presentation(I):
        calls.append(I)
        raise AssertionError("rees_presentation was called")

    monkeypatch.setattr(reductions, "rees_presentation", no_presentation)
    script = tmp_path / "mr.ck"
    script.write_text("ring R = zp(32003)[x,y] grevlex;\n"
                      "ideal I = (x2, x*y, y3);\n"
                      "ideal J = minreduction(I);\n")
    assert main(["run", str(script)]) == 2
    assert calls == []
    assert "weighted degrees 2, 3" in capsys.readouterr().err


def _count(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("field", [PrimeField(32003), RationalField()],
                         ids=["zp", "q"])
def test_reduction_number_of_one_degree_ideals_forms_no_products(
        monkeypatch, field):
    # I and J are generated in one degree, so r is read from I's fiber
    # cone: no product J*I^n or I^(n+1) is formed, and the product loop
    # never runs
    R = Ring(field, ["x", "y", "z"])
    M2 = Ideal(R, R.gens()) ** 2
    J = find_minimal_reduction(M2, seed=0).result
    I, J = Ideal(R, M2.generators), Ideal(R, J.generators)
    products = _count(monkeypatch, Ideal, "__mul__")
    loops = _count(monkeypatch, reductions, "_product_reduction_number")
    report = reduction_number(I, J)
    assert (report.is_reduction, report.r) == (True, 1)
    assert (products, loops) == ([], [])


def test_warm_reduce_job_builds_nothing(tmp_path, monkeypatch):
    # a cold run keeps its bases on disk; the warm run reads every one
    # back and prints the same report
    from cancelkit import gb
    from test_bench_digests import _job, _run
    job, ref = _job("rerun-q", "sparse3-1-3")
    path = tmp_path / "job.ck"
    path.write_text(job.text)
    flags = ("--cache-dir", str(tmp_path / "cache"))
    loops = _count(monkeypatch, gb, "_basis")
    cold = _run(path, *flags)
    assert loops
    del loops[:]
    warm = _run(path, *flags)
    assert loops == []
    assert cold == warm == (ref["exit"], ref["stdout_sha256"])


def test_a_reduce_job_decides_each_reduction_once(tmp_path, monkeypatch):
    # minreduction decides r_J(I) for the J it returns; `reduction(I, J)`
    # and `powerscan(I, J, 4)` read that report from the job's store
    from test_bench_digests import _job, _run
    job, ref = _job("reduce", "sparse3-0-0")
    path = tmp_path / "job.ck"
    path.write_text(job.text)
    decided = []
    original = reductions._reduction_number

    def counted(I, J, n_cap):
        decided.append((I.generators, J.generators, n_cap))
        return original(I, J, n_cap)

    monkeypatch.setattr(reductions, "_reduction_number", counted)
    assert _run(path) == (ref["exit"], ref["stdout_sha256"])
    assert decided and len(set(decided)) == len(decided)
    # outside a job's store, each call decides afresh
    R = Ring(PrimeField(32003), ["x", "y", "z"])
    x, y, z = R.gens()
    I = Ideal(R, [x * x, y * y, z * z, x * y])
    J = Ideal(R, [x * x, y * y, z * z])
    del decided[:]
    assert reduction_number(I, J).r == reduction_number(I, J).r == 1
    assert len(decided) == 2


def _seeded_one_degree_ideal(seed):
    """A seeded ideal generated in one weighted degree D in {2, 3}, in 2 or
    3 variables over zp(32003), zp(101) or Q, some rings weighted: a few
    monomials of degree D (often every pure power among them) and
    sometimes a binomial."""
    rng = random.Random(f"diff-{seed}")
    field = (PrimeField(32003), PrimeField(101), RationalField())[seed % 3]
    n, D = rng.choice((2, 3)), rng.choice((2, 3))
    weights = rng.choice((None, None, (1,) * (n - 1) + (2,)))
    R = Ring(field, "xyz"[:n], weights=weights)
    monos = [R.encode(e) for e in itertools.product(range(D + 1), repeat=n)
             if sum(a * b for a, b in zip(e, weights or (1,) * n)) == D]
    pure = [m for m in monos if sum(map(bool, R.decode(m))) == 1] \
        if rng.random() < 0.6 else []
    rest = [m for m in monos if m not in pure]
    chosen = pure + rng.sample(rest, rng.randint(min(1, len(rest)),
                                                 min(len(rest), 3)))
    gens = [oracle.from_coefficients(R, {m: field.one}) for m in chosen]
    if rng.random() < 0.4:
        a, b = rng.sample(monos, 2)
        gens.append(oracle.from_coefficients(
            R, {a: field.one, b: field.normalize(rng.randint(1, 9))}))
    return Ideal(R, gens), rng


def test_fiber_route_agrees_with_the_loop():
    # r_J(I) read from the fiber cone against the product loop, for J of
    # every generator count l <= m: l seeded combinations of I's generators
    seen, disagree = set(), []
    for seed in range(48):
        I, rng = _seeded_one_degree_ideal(seed)
        R, gens = I.ring, I.generators
        fiber = rees_presentation(I).fiber_ideal
        for l in range(1, len(gens) + 1):
            J = Ideal(R, [combination(R, [R.field.random(rng) for _ in gens],
                                      gens) for _ in range(l)])
            n_cap = rng.choice((0, 2, 4))
            loop = reductions._product_reduction_number(I, J, n_cap)
            read = reductions._fiber_reduction_number(I, J, n_cap, fiber)
            seen.add((loop.is_reduction, loop.r))
            if (read.is_reduction, read.r) != (loop.is_reduction, loop.r):
                disagree.append((seed, l, n_cap, loop, read))
    assert disagree == []
    assert {("inconclusive", None), (True, 0), (True, 1), (True, 2),
            (True, 3)} <= seen


def _pool_one_degree_ideals():
    """The ideal I of every benchmark job that runs `minreduction`: the
    `reduce` pool and the reduce-type jobs of `rerun-q`, all generated in
    one degree, over F_32003 and over Q."""
    from test_bench_digests import JOBS
    ideals = []
    for workload in ("reduce", "rerun-q"):
        for job in JOBS.POOLS[workload]():
            if "minreduction" not in job.text:
                continue
            spec, names = re.search(r"= (\S+)\[([^\]]*)\]", job.text).groups()
            field = RationalField() if spec == "q" else PrimeField(32003)
            R = Ring(field, names.split(","))
            ideals.append(Ideal(R, [oracle.poly(R, g) for g in job.gb_input]))
    return ideals


def _fiber_cases():
    """(I, J, n_cap, fiber): for each pool ideal and 16 seeded ones, J of
    every generator count l <= m made of l seeded combinations of I's
    generators (too few make no reduction: "inconclusive")."""
    rng = random.Random("free-variables")
    ideals = _pool_one_degree_ideals()
    assert len(ideals) == 31
    ideals += [_seeded_one_degree_ideal(seed)[0] for seed in range(16)]
    cases = []
    for I in ideals:
        R, gens = I.ring, I.generators
        fiber = rees_presentation(I).fiber_ideal
        for l in range(1, len(gens) + 1):
            J = Ideal(R, [combination(R, [R.field.random(rng) for _ in gens],
                                      gens) for _ in range(l)])
            cases.append((I, J, rng.choice((0, 2, 4, 10)), fiber))
    return cases


def _disagreements(route, cases):
    out = []
    for I, J, n_cap, fiber in cases:
        expected = oracle.fiber_reduction_number(I, J, n_cap, fiber)
        if route(I, J, n_cap, fiber) != expected:
            out.append((I, J, n_cap, expected))
    return out


def test_free_variable_route_agrees_with_the_full_fiber_basis():
    # r read in the m - l free variables against the reduced basis of
    # K + lambda in all m, on the benchmark's one-degree ideals and on
    # seeded ones, non-reductions included; a route reporting r + 1
    # must be caught
    def free(I, J, n_cap, fiber):
        rep = reductions._fiber_reduction_number(I, J, n_cap, fiber)
        return rep.is_reduction, rep.r

    def one_more(I, J, n_cap, fiber):
        is_reduction, r = free(I, J, n_cap, fiber)
        return is_reduction, None if r is None else r + 1

    cases = _fiber_cases()
    outcomes = [free(*case) for case in cases]
    assert {("inconclusive", None), (True, 0), (True, 1),
            (True, 2)} <= set(outcomes)
    assert _disagreements(free, cases) == []
    reductions_found = sum(found is True for found, _ in outcomes)
    assert len(_disagreements(one_more, cases)) == reductions_found > 50


def test_fiber_route_refuses_what_is_not_a_subideal():
    R = Ring(PrimeField(32003), ["x", "y"])
    x, y = R.gens()
    I = Ideal(R, [x * x, y * y])
    fiber = rees_presentation(I).fiber_ideal
    with pytest.raises(NotSubideal):
        reductions._fiber_reduction_number(I, Ideal(R, [x * y]), 4, fiber)


def test_a_reduce_job_reads_reduction_numbers_from_the_fiber(
        tmp_path, monkeypatch):
    # `rees I;` keeps I's fiber cone in the job's store; minreduction,
    # `reduction(I, J)` and `powerscan(I, J, 4)` then read r from it, with
    # no product loop and no product J*I^n
    from test_bench_digests import _job, _run
    job, ref = _job("reduce", "sparse3-0-0")
    path = tmp_path / "job.ck"
    path.write_text(job.text)
    loops = _count(monkeypatch, reductions, "_product_reduction_number")
    products = []
    multiply, search = Ideal.__mul__, reductions.find_minimal_reduction
    found = []

    def product(self, other):
        products.append(self.generators)
        return multiply(self, other)

    def searched(*args, **kwargs):
        found.append(search(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(Ideal, "__mul__", product)
    monkeypatch.setattr(reductions, "find_minimal_reduction", searched)
    assert _run(path) == (ref["exit"], ref["stdout_sha256"])
    [J] = [f.result for f in found]
    assert loops == []
    assert products and J.generators not in products


def test_reduction_alone_builds_the_fiber_once(tmp_path, monkeypatch,
                                               capsys):
    # with no `rees` or `minreduction` in the job, the store holds no
    # Rees presentation: the reduction builds it (one kernel, for the
    # fiber) and reads r from it, and a later `rees I;` reads it back
    from cancelkit import cli, ideals, rees
    kernels = _count(monkeypatch, ideals, "kernel_of_map")
    monkeypatch.setattr(rees, "kernel_of_map", ideals.kernel_of_map)
    path = tmp_path / "reduction.ck"
    path.write_text("ring R = zp(32003)[x,y] grevlex;\n"
                    "ideal I = (x2, x*y, y2);\nideal J = (x2, y2);\n"
                    "reduction(I, J);\nrees I;\n")
    loops = _count(monkeypatch, reductions, "_product_reduction_number")
    assert cli.main(["run", str(path)]) == 0
    entry, pres = json.loads(capsys.readouterr().out)["commands"]
    assert entry["result"] == {"is_reduction": True, "r": 1}
    assert pres["result"]["fiber_generators"] == ["T2^2+32002*T1*T3"]
    assert (len(kernels), loops) == (1, [])
