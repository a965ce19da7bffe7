"""Syzygy modules come back as generators: the differential check.

A module kernel with more than one tail column (`modules.syzygy_columns`,
behind resolutions, Ext and the Rees algebra's linear forms) is computed
by `gb.buchberger(vectors, head=H, reduced=False)`: the loop forms no
pair of two elements led past the head and interreduces nothing.  Here
those generators are compared, as modules, with the reduced kernel basis
of the same vectors, which the full loop computes (`reduced=True`): each
generator reduces to zero modulo that basis, and each basis element lies
in the submodule the generators span.

The cases are the syzygies met when resolving seeded homogeneous ideals
over both fields, and every generator kernel the `reduce` benchmark pool
computes.  Two mutations of the generator route must fail the check:
dropping one generator, and skipping one pair of head-led elements.
"""

import random

import pytest

from cancelkit import gb, modules
from cancelkit.fields import PrimeField, RationalField
from cancelkit.gb import buchberger, normal_form
from cancelkit.ideals import Ideal
from cancelkit.modules import vector
from cancelkit.resolutions import free_resolution
from cancelkit.ring import Ring

import oracle
from test_bench_digests import JOBS, _run

FIELDS = {"zp": lambda: PrimeField(32003), "q": RationalField}


def _problem(columns):
    """The vectors and head bits syzygy_columns hands the engine for the
    syzygies of columns."""
    ring = columns[0][0].ring
    zero, one = ring.zero(), ring.one()
    c = len(columns)
    vecs = [vector(list(col) + [one if i == j else zero for i in range(c)])
            for j, col in enumerate(columns)]
    head = sum(1 << s for s in vecs[0].ring._shifts[:len(columns[0])])
    return vecs, head


def _same_module(generators, basis):
    """True iff the generators and the reduced basis span one module."""
    if not all(normal_form(g, basis).is_zero() for g in generators):
        return False
    spanned = buchberger(generators) if generators else None
    return all(spanned is not None and normal_form(b, spanned).is_zero()
               for b in basis)


def _seeded_ideal(field, seed):
    """3 to 5 homogeneous generators of degree 1 to 3 in 3 or 4
    variables, one to three terms each, small coefficients."""
    rng = random.Random(f"syzygy-generators-{seed}")
    n = rng.choice((3, 4))
    R = Ring(field, "xyzw"[:n])
    gens = []
    for _ in range(rng.randint(3, 5)):
        d = rng.randint(1, 3)
        terms = []
        for _ in range(rng.randint(1, 3)):
            exps = [0] * n
            for _ in range(d):
                exps[rng.randrange(n)] += 1
            terms.append((tuple(exps), rng.randint(1, 9)))
        gens.append(oracle.from_terms(R, terms))
    return Ideal(R, gens)


def _seeded_problems():
    """The generator kernels of the resolutions of seeded ideals: the
    syzygies of each map with more than one column."""
    problems = []
    for name, field in FIELDS.items():
        for seed in range(8):
            I = _seeded_ideal(field(), f"{name}-{seed}")
            if I.is_unit():
                continue
            problems += [_problem(cols) for cols in free_resolution(I).maps
                         if len(cols) > 1]
    return problems


def _pool_problems(tmp_path, monkeypatch):
    """Every generator kernel the `reduce` pool's jobs ask the engine
    for, recorded as they run."""
    problems = []
    original = modules.buchberger

    def recorded(gens, **kwargs):
        if kwargs.get("reduced") is False:
            problems.append((list(gens), kwargs["head"]))
        return original(gens, **kwargs)

    monkeypatch.setattr(modules, "buchberger", recorded)
    for job in JOBS.POOLS["reduce"]():
        path = tmp_path / f"{job.name}.ck"
        path.write_text(job.text)
        assert _run(path)[0] == 0, job.name
    monkeypatch.undo()
    return problems


def _failures(problems):
    """The problems whose generator kernel and reduced kernel differ."""
    return [(vecs, head) for vecs, head in problems
            if not _same_module(
                buchberger(vecs, head=head, reduced=False).generators,
                buchberger(vecs, head=head))]


@pytest.fixture(scope="module")
def seeded():
    problems = _seeded_problems()
    assert len(problems) >= 20
    return problems


def test_generator_kernels_span_the_reduced_kernels(seeded):
    assert _failures(seeded) == []


def test_generator_kernels_of_the_reduce_pool(tmp_path, monkeypatch):
    problems = _pool_problems(tmp_path, monkeypatch)
    assert len(problems) >= 48
    assert _failures(problems) == []


def test_generators_are_fewer_pairs_not_a_basis(seeded):
    # the generators are canonical and led past the head, and on some
    # case they are not the reduced basis: the check compares modules
    differ = 0
    for vecs, head in seeded:
        gens = buchberger(vecs, head=head, reduced=False).generators
        assert all(oracle.is_canonical(g) and not g.lm() & head
                   for g in gens)
        differ += gens != buchberger(vecs, head=head).generators
    assert differ


def test_dropping_a_generator_fails_the_check(seeded):
    # the mutation proof: most cases have a generator no other replaces
    caught = 0
    for vecs, head in seeded:
        gens = buchberger(vecs, head=head, reduced=False).generators
        basis = buchberger(vecs, head=head)
        caught += any(not _same_module(gens[:i] + gens[i + 1:], basis)
                      for i in range(len(gens)))
    assert caught >= len(seeded) * 3 // 4


def test_skipping_a_head_pair_fails_the_check(seeded, monkeypatch):
    # the mutation proof: the first pair of head-led elements each loop
    # forms is dropped as if a criterion had deleted it
    original = gb._gm_update
    skipped = []

    def skipping(lms, pairs, heap, ring):
        before = set(pairs)
        original(lms, pairs, heap, ring)
        new = [ij for ij in pairs if ij not in before]
        if new and not skipped:
            skipped.append(new[0])
            del pairs[new[0]]

    caught = 0
    for vecs, head in seeded:
        basis = buchberger(vecs, head=head)
        monkeypatch.setattr(gb, "_gm_update", skipping)
        skipped.clear()
        gens = buchberger(vecs, head=head, reduced=False).generators
        monkeypatch.undo()
        caught += not _same_module(gens, basis)
    assert caught >= len(seeded) * 3 // 4
