"""Seeded cancelkit scripts: the job pools of the benchmark workloads.

Everything here is plain Python and imports nothing from cancelkit, so the
program under test sees only the script text this module writes.

Generator rules (each one keeps every job of a pool finishing with the exit
code its family promises):

* A script that builds an ideal with ``kernel(...)`` declares the matching
  weights, e.g. ``[x:4,y:5,z:7]`` for ``kernel(t4,t5,t7)``.  Without them
  ``gen(P, i)`` fails with "P lives in a different ring".
* A monomial-curve prime is a complete intersection exactly when its
  numerical semigroup is symmetric (Herzog); it then has only 2
  generators, so ``gen(P, 2)`` does not exist and the extra element is
  ``gen(P,0) + gen(P,1)``.
* ``reduce`` ideals are generated in one degree.  Mixing degrees makes the
  sampled minimal reduction non-homogeneous, and such a J is never a
  reduction, so the search runs out its whole attempt budget.
* Links are zero-dimensional, and ``witness`` needs dim R/I = 1, so link
  jobs omit it.

The families are drawn once, from ``POOL_SEED``; ``perfbench/record.py``
records every job's output and stops if a job does not exit as its family
promises.  A run's ``--seed`` orders the pool (see ``stream``), so every
seed runs the same multiset of jobs per round.
"""

import hashlib
import itertools
import math
import random

POOL_SEED = 2002
ZP = "zp(32003)"
Q = "q"


class Job:
    """One script of a pool.  ``expect`` is the exit code its family
    promises: 0, or 2 for a negative control.  ``gb_input`` lists the
    generators of the ideal of the script's first ``gb`` command when the
    ring is unweighted, so the recorder can recompute that basis with
    sympy."""

    __slots__ = ("name", "text", "expect", "gb_input")

    def __init__(self, name, text, expect=0, gb_input=None):
        self.name = name
        self.text = text
        self.expect = expect
        self.gb_input = gb_input

    @property
    def sha(self):
        return hashlib.sha256(self.text.encode()).hexdigest()


# -- verify: theorem checks ------------------------------------------------

def semigroup_is_symmetric(gens):
    """True iff the numerical semigroup generated by gens (gcd 1) is
    symmetric: exactly half of 0..F are gaps, F the Frobenius number."""
    bound = gens[0] * gens[-1]
    member = [False] * (bound + 1)
    member[0] = True
    for n in range(1, bound + 1):
        member[n] = any(n >= g and member[n - g] for g in gens)
    frobenius = max(n for n in range(bound + 1) if not member[n])
    gaps = sum(1 for n in range(frobenius + 1) if not member[n])
    return 2 * gaps == frobenius + 1


def curve_triples():
    """Exponent triples a < b < c <= 11 with gcd 1 and no entry a
    combination of the other two (so the curve spans 3-space minimally)."""
    out = []
    for a, b, c in itertools.combinations(range(3, 12), 3):
        if math.gcd(a, math.gcd(b, c)) != 1:
            continue
        if any((c - k * a) % b == 0 for k in range(c // a + 1)):
            continue
        out.append((a, b, c))
    return out


def _theorem_commands(ideal, a, extra, witness=True):
    seq = "[" + ", ".join(a) + "]"
    k_gens = ", ".join(a) + f", x*({extra})"
    lines = [
        f"gb {ideal};",
        f"hypotheses({ideal}, {seq}, {extra});",
        f"cancelcheck({ideal}, {seq}, {extra}, ({k_gens}));",
        f"link({ideal}, {seq});",
        f"cor213({ideal}, {seq}, {extra}, 1);",
        f"cor213({ideal}, {seq}, {extra}, 2);",
    ]
    if witness:
        lines.append(f"witness({ideal}, {seq}, {extra});")
    return lines


def curve_job(triple, field=ZP):
    a, b, c = triple
    head = [f"ring R = {field}[x:{a},y:{b},z:{c}] grevlex;",
            f"ideal P = kernel(t{a}, t{b}, t{c});"]
    if semigroup_is_symmetric(triple):
        seq, extra = ["gen(P,0)", "gen(P,1)"], "gen(P,0) + gen(P,1)"
    else:
        seq, extra = ["gen(P,0)", "gen(P,1)"], "gen(P,2)"
    body = _theorem_commands("P", seq, extra)
    return Job(f"curve{a}-{b}-{c}", "\n".join(head + body) + "\n")


def link_job(triple, field=ZP):
    """K = (a):P + P for a curve prime P that is not a complete
    intersection (for one that is, K is the unit ideal).  K lists the 2
    generators of (a):P, then the 3 of P; the first two and P's last one
    form a homogeneous regular sequence.  K has height 3, so witness is
    skipped."""
    a, b, c = triple
    head = [f"ring R = {field}[x:{a},y:{b},z:{c}] grevlex;",
            f"ideal P = kernel(t{a}, t{b}, t{c});",
            "ideal K = linkideal(P, [gen(P,0), gen(P,1)]);"]
    body = _theorem_commands("K", ["gen(K,0)", "gen(K,1)", "gen(K,4)"],
                             "gen(K,2)", witness=False)
    return Job(f"link{a}-{b}-{c}", "\n".join(head + body) + "\n")


def _random_form(rng, names, degree, nterms):
    monos = [m for m in itertools.combinations_with_replacement(names, degree)]
    chosen = rng.sample(monos, min(nterms, len(monos)))
    terms = []
    for mono in sorted(chosen):
        coeff = rng.choice([1, 2, 3, 5, 7, -1, -2, -3])
        terms.append(f"{coeff}*" + "*".join(mono))
    return " + ".join(terms).replace("+ -", "- ")


def ci_job(index, field=ZP):
    """A quadric and a cubic in x, y, z with seeded sparse coefficients."""
    rng = random.Random(f"{POOL_SEED}-ci-{index}")
    names = ("x", "y", "z")
    f = _random_form(rng, names, 2, rng.randint(2, 4))
    g = _random_form(rng, names, 3, rng.randint(2, 4))
    head = [f"ring R = {field}[x,y,z] grevlex;",
            f"poly f = {f};", f"poly g = {g};",
            "ideal I = (f, g);"]
    body = _theorem_commands("I", ["f", "g"], "f + g")
    return Job(f"ci{index}", "\n".join(head + body) + "\n",
               gb_input=[f, g])


def mixed_job(k, nvars, field=ZP):
    """Negative control: I = x^k (x, y[, z]) has an embedded prime, so the
    hypotheses are not certified and cancelcheck exits 2."""
    names = "x,y,z"[:2 * nvars - 1]
    others = names.split(",")[1:]
    gens = [f"x^{k + 1}"] + [f"x^{k}*{v}" for v in others]
    text = "\n".join([
        f"ring R = {field}[{names}] grevlex;",
        f"ideal I = ({', '.join(gens)});",
        f"hypotheses(I, [x^{k + 1}], x^{k}*y);",
        f"cancelcheck(I, [x^{k + 1}], x^{k}*y, (x^{k + 1}, x^{k}*y));",
    ]) + "\n"
    return Job(f"mixed{k}-{nvars}", text, expect=2)


def short_sequence_job(triple, field=ZP):
    """Negative control: a one-element sequence in a height-2 prime is not
    a regular sequence of length g, so cancelcheck exits 2."""
    a, b, c = triple
    text = "\n".join([
        f"ring R = {field}[x:{a},y:{b},z:{c}] grevlex;",
        f"ideal P = kernel(t{a}, t{b}, t{c});",
        "cancelcheck(P, [gen(P,0)], gen(P,1), P);",
    ]) + "\n"
    return Job(f"short{a}-{b}-{c}", text, expect=2)


def verify_pool(field=ZP):
    rng = random.Random(f"{POOL_SEED}-verify")
    triples = curve_triples()
    jobs = [curve_job(t, field) for t in triples]
    linkable = [t for t in triples if not semigroup_is_symmetric(t)]
    jobs += [link_job(t, field) for t in rng.sample(linkable, 16)]
    jobs += [ci_job(i, field) for i in range(30)]
    jobs += [mixed_job(1, 2, field), mixed_job(2, 3, field)]
    jobs += [short_sequence_job(rng.choice(triples), field)]
    return jobs


# -- reduce: Rees algebras and reductions ----------------------------------

VARS = ("x", "y", "z", "w", "v")


def _reduce_commands():
    return ["gb I;", "rees I;", "ideal J = minreduction(I);", "gb J;",
            "reduction(I, J);", "powerscan(I, J, 4);", "resolution I;"]


def _reduce_job(name, nvars, gens, field):
    names = ",".join(VARS[:nvars])
    head = [f"ring R = {field}[{names}] grevlex;",
            f"ideal I = ({', '.join(gens)});"]
    return Job(name, "\n".join(head + _reduce_commands()) + "\n",
               gb_input=gens)


def maximal_power_job(nvars, k, field=ZP):
    names = ",".join(VARS[:nvars])
    head = [f"ring R = {field}[{names}] grevlex;",
            f"ideal M = ({', '.join(VARS[:nvars])});",
            f"ideal I = power(M, {k});"]
    monos = ["*".join(m) for m in
             itertools.combinations_with_replacement(VARS[:nvars], k)]
    return Job(f"mpow{nvars}-{k}", "\n".join(head + _reduce_commands()) + "\n",
               gb_input=monos)


def sparse_job(index, nvars, nmixed, field=ZP):
    """Squares of all variables, `nmixed` seeded mixed quadratic monomials
    and one seeded binomial: primary to the maximal ideal."""
    rng = random.Random(f"{POOL_SEED}-sparse-{nvars}-{index}")
    names = VARS[:nvars]
    gens = [f"{v}^2" for v in names]
    mixed = ["*".join(m) for m in itertools.combinations(names, 2)]
    gens += rng.sample(mixed, nmixed)
    m1, m2 = rng.sample([m for m in mixed if m not in gens], 2)
    gens.append(f"{m1} - {rng.randint(1, 9)}*{m2}")
    return _reduce_job(f"sparse{nvars}-{nmixed}-{index}", nvars, gens, field)


def graph_job(index, field=ZP):
    """Edge ideal of a seeded graph on 5 vertices, plus one square."""
    rng = random.Random(f"{POOL_SEED}-graph-{index}")
    edges = ["*".join(e) for e in itertools.combinations(VARS, 2)]
    gens = rng.sample(edges, rng.randint(5, 7))
    gens.append(f"{rng.choice(VARS)}^2")
    return _reduce_job(f"graph{index}", 5, gens, field)


def generic_job(index, field=ZP):
    """Seeded quadrics in x, y, z with full support."""
    rng = random.Random(f"{POOL_SEED}-generic-{index}")
    nforms = rng.choice((3, 4, 4, 5))
    gens = [_random_form(rng, VARS[:3], 2, 6) for _ in range(nforms)]
    return _reduce_job(f"generic{index}", 3, gens, field)


def _distinct(make, count):
    """The first `count` distinct scripts of make(0), make(1), ..."""
    out, seen, index = [], set(), 0
    while len(out) < count:
        job = make(index)
        index += 1
        if job.text not in seen:
            seen.add(job.text)
            out.append(job)
    return out


def reduce_pool(field=ZP):
    # Four cheaper and four dearer scripts around one family of similar
    # cost, so that the median job sits inside that family rather than on
    # a step between families, where host noise would move it most.
    jobs = [maximal_power_job(3, 2, field), maximal_power_job(4, 2, field)]
    jobs += _distinct(lambda i: sparse_job(i, 3, 0, field), 16)
    jobs += [sparse_job(0, 4, 3, field)]
    jobs += [graph_job(i, field) for i in range(3)]
    jobs += [generic_job(i, field) for i in (1, 2)]
    return jobs


# -- rerun-q: both kinds over Q, each submitted cold then warm -------------

def rerun_q_pool():
    rng = random.Random(f"{POOL_SEED}-rerun-q")
    triples = curve_triples()
    jobs = [curve_job(t, Q) for t in rng.sample(triples, 16)]
    jobs += [ci_job(i, Q) for i in range(8)]
    jobs += [maximal_power_job(3, 2, Q)]
    jobs += _distinct(lambda i: sparse_job(i, 3, i % 2, Q), 6)
    return jobs


POOLS = {
    "verify": verify_pool,
    "reduce": reduce_pool,
    "rerun-q": rerun_q_pool,
}


def stream(pool, seed, round_index):
    """The jobs of one round: the whole pool in an order drawn from the
    run's seed.  Full rounds keep the mix, and so throughput, the same
    for every seed."""
    order = list(pool)
    random.Random(f"{seed}-round-{round_index}").shuffle(order)
    return order
