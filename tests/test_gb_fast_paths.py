"""The engine's shortcuts against their definitions.

- Every polynomial the engine builds carries its leading monomial: the
  carried lead must be max(terms) under the ring's order, in every kind
  of ring the engine runs in, over Q and over F_p.
- The pair update works on packed ints; `oracle.gm_update` is the update
  as first written, on decoded exponents.  Fed the same sequences of
  leading monomials, the two must keep the same pair table and heap.
"""

import heapq
import random
from fractions import Fraction

import pytest

from cancelkit import gb
from cancelkit.fields import PrimeField, RationalField
from cancelkit.gb import buchberger, normal_form
from cancelkit.modules import vector
from cancelkit.orders import Block, Grevlex, Lex
from cancelkit.ring import Ring

import oracle

FIELDS = {"q": RationalField, "zp": lambda: PrimeField(32003)}
NAMES = ("x", "y", "z")


def _base(kind, field):
    if kind == "lex":
        return Ring(field, NAMES, Lex())
    if kind == "weighted":
        return Ring(field, NAMES, Grevlex(), (2, 3, 1))
    if kind == "block":
        return Ring(field, NAMES, Block(1, Lex(), Grevlex()))
    return Ring(field, NAMES, Grevlex())


def _poly(ring, rng, size):
    terms = []
    for _ in range(rng.randint(1, size)):
        exps = [0] * ring.n
        for _ in range(rng.randint(0, size - 1)):
            exps[rng.randrange(ring.n)] += 1
        terms.append((exps, Fraction(rng.choice([-3, -2, -1, 1, 2, 5]),
                                     rng.randint(1, 3))))
    return oracle.from_terms(ring, terms)


def _nonzero(ring, rng, count, size=4):
    out = []
    while len(out) < count:
        f = _poly(ring, rng, size)
        if any(f.terms):  # neither zero nor a constant
            out.append(f)
    return out


def _assert_carried(polys):
    for p in polys:
        if p.is_zero():
            continue
        assert p._lead is not None, p
        assert p._lead == max(p.terms, key=p.ring.key), p


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", ["lex", "grevlex", "weighted", "block",
                                  "module"])
@pytest.mark.parametrize("seed", range(3))
def test_carried_leads_are_true_leads(field, kind, seed):
    rng = random.Random(f"leads-{field}-{kind}-{seed}")
    base = _base(rng.choice(["lex", "grevlex"]) if kind == "module"
                 else kind, FIELDS[field]())
    if kind == "module":
        ring = base.module_ring(2)
        # small entries: module bases of random vectors grow fast
        make = lambda count: [vector(pair) for pair in zip(  # noqa: E731
            _nonzero(base, rng, count, 2), _nonzero(base, rng, count, 2))]
    else:
        ring = base
        make = lambda count: _nonzero(ring, rng, count)  # noqa: E731
    B = buchberger(make(3))
    _assert_carried(B.generators)  # before the loops below lean on them
    held = buchberger(make(2), known=B.generators)
    results = [B.generators, held.generators]
    if kind == "module":
        head = 1 << ring._shifts[0]  # the kernel past the first component
        results.append(buchberger(make(3), head=head).generators)
    for f in make(4):
        results.append([normal_form(f, B), normal_form(f, make(2))])
        work = gb._working(f)
        results.append([work, gb._divide(dict(work.terms), 1, 1,
                                         B.divisors(), ring, full=False)])
    built = [p for part in results for p in part]
    _assert_carried(built)
    nonzero = [p for p in built if not p.is_zero()]
    _assert_carried([p.scale(ring.field.normalize(rng.choice([2, -3])))
                     for p in nonzero])
    _assert_carried([oracle.monic(p) for p in nonzero])


def _monomial(ring, rng, rank):
    """A random leading monomial of ring: in a module ring of the given
    rank, one component variable times a monomial of the base."""
    exps = [0] * ring.n
    if rank:
        exps[rng.randrange(rank)] = 1
    for _ in range(rng.randint(0, 5)):
        exps[rng.randrange(rank, ring.n)] += 1
    return ring.encode(exps)


@pytest.mark.parametrize("kind, rank", [("grevlex", 0), ("lex", 0),
                                        ("weighted", 0), ("grevlex", 1),
                                        ("weighted", 2), ("lex", 3)])
@pytest.mark.parametrize("held", [0, 4])
@pytest.mark.parametrize("seed", range(4))
def test_pair_update_matches_reference(kind, rank, held, seed):
    rng = random.Random(f"gm-{kind}-{rank}-{held}-{seed}")
    ring = _base(kind, PrimeField(32003))
    if rank:
        ring = ring.module_ring(rank)
    lms = []
    ours, theirs = ({}, []), ({}, [])
    for t in range(40):
        lms.append(_monomial(ring, rng, rank))
        if t < held:  # a held basis joins with no update
            continue
        gb._gm_update(lms, *ours, ring)
        oracle.gm_update(lms, *theirs, ring)
        assert ours[0] == theirs[0]
        assert sorted(ours[1]) == sorted(theirs[1])
        # the loop pops a pair now and then, as between insertions
        for _ in range(rng.randint(0, 2)):
            if ours[1]:
                entry = heapq.heappop(ours[1])
                assert entry == heapq.heappop(theirs[1])
                assert ours[0].pop(entry[2:], None) == \
                    theirs[0].pop(entry[2:], None)
