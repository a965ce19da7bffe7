"""Ideal-level operations built on the Groebner engine.

Covers sums, products, powers, intersection, colon, saturation,
elimination, containment/equality, radical membership, Krull dimension
via independent sets modulo the initial ideal, minimal generator counts,
kernels of algebra maps, and the linkage-based unmixedness test.

Saturation and radical membership share one construction, the
Rabinowitsch ideal (I, 1 - z_1*f_1 - ... - z_k*f_k) in R[z_1..z_k] for
J = (f_1..f_k): eliminating the z from its basis gives I : J^infinity,
and J lies in the radical of I iff that saturation is (1).

Height is defined as n - dim(R/I); this is valid because the ambient is
a polynomial ring over a field (catenary and equidimensional).
"""

from . import cache as _cache
from .errors import (ArityMismatch, BadRegularSequence, NotHomogeneous,
                     RingMismatch, ZeroColon)
from .gb import GroebnerBasis, buchberger, normal_form
from .orders import Block, Grevlex, Lex
from .ring import Polynomial, Ring, embed


class DimensionReport:
    """dim(R/I), height, and a variable subset witnessing the dimension."""

    def __init__(self, dim, height, max_independent_set):
        self.dim = dim
        self.height = height
        self.max_independent_set = tuple(max_independent_set)

    def __repr__(self):
        return (f"DimensionReport(dim={self.dim}, height={self.height}, "
                f"witness={self.max_independent_set})")


class Ideal:
    """Generator list plus a lazily computed, cached reduced Groebner basis."""

    def __init__(self, ring, generators, _gb=None):
        self.ring = ring
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatch("generator not in the ideal's ring")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._gb = _gb
        self._dim_report = None

    # -- basics --

    def groebner(self):
        if self._gb is None:
            if not self.generators:
                self._gb = GroebnerBasis(self.ring, [])
            else:
                self._gb = buchberger(list(self.generators))
        return self._gb

    def normal_form(self, f):
        return normal_form(f, self.groebner())

    def contains_poly(self, f):
        if f.is_zero():
            return True
        basis = self.groebner()
        return bool(basis.generators) and normal_form(f, basis).is_zero()

    def contains(self, other):
        if isinstance(other, Ideal):
            self._check(other)
            gens = other.generators
        elif isinstance(other, Polynomial):
            gens = [other]
        else:
            gens = list(other)
        return all(self.contains_poly(g) for g in gens)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        self._check(other)
        return self.groebner().generators == other.groebner().generators

    def is_zero(self):
        return not self.generators

    def is_unit(self):
        basis = self.groebner().generators
        return len(basis) == 1 and basis[0] == self.ring.one()

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch("ideals live in different rings")

    # -- arithmetic --

    def __add__(self, other):
        self._check(other)
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other):
        self._check(other)

        def product():
            # dedup equal products so that iterated multiplication grows
            # like combinations with repetition, not exponentially
            products = (f * g for f in self.generators
                        for g in other.generators)
            return Ideal(self.ring, list(dict.fromkeys(products)))

        store = _cache.active_store.get()
        if store is None:
            return product()
        return store.recall(("mul", self.ring, self.generators,
                             other.generators), product)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative ideal power")
        if k == 0:
            return Ideal(self.ring, [self.ring.one()])
        result = self
        # products of k-subsets with repetition, built incrementally
        for _ in range(k - 1):
            result = result * self
        return result

    # -- elimination machinery --

    def intersect(self, other):
        """I cap J: the h with h*(1, 1) in the submodule I x J of R^2,
        the same module kernel as colon (no auxiliary variable, so
        homogeneity survives)."""
        self._check(other)
        from .modules import syzygy_columns
        one, zero = self.ring.one(), self.ring.zero()
        relations = ([[f, zero] for f in self.generators]
                     + [[zero, g] for g in other.generators])
        cols = syzygy_columns([[one, one]], relations)
        return Ideal(self.ring, [col[0] for col in cols])

    def colon_poly(self, f):
        """I : f, the colon by the principal ideal (f)."""
        return self.colon(Ideal(self.ring, [f]))

    def colon(self, other):
        """I : J for J = (f_1..f_k): the kernel of R -> (R/I)^k,
        h -> (h*f_1, ..., h*f_k), in one module basis -- the h with
        h*(f_1..f_k) in the submodule of R^k generated by the g*e_j, g in I."""
        if isinstance(other, Polynomial):
            return self.colon_poly(other)
        self._check(other)
        if other.is_zero():
            raise ZeroColon("colon by the zero ideal")
        from .modules import syzygy_columns
        k = len(other.generators)
        zero = [self.ring.zero()] * k
        relations = [zero[:j] + [g] + zero[j + 1:]
                     for g in self.generators for j in range(k)]
        cols = syzygy_columns([list(other.generators)], relations)
        return Ideal(self.ring, [col[0] for col in cols])

    def saturate(self, other):
        """I : J^infinity for J = (f_1..f_k), a Polynomial or an Ideal:
        one elimination basis, (I, 1 - sum of z_i*f_i) cap R in
        R[z_1..z_k], the z first under Block(k, Grevlex(), order), each
        of weight 1."""
        if isinstance(other, Polynomial):
            other = Ideal(self.ring, [other])
        self._check(other)
        if other.is_zero():
            raise ZeroColon("saturation by the zero ideal")
        ring = self.ring
        k = len(other.generators)
        order = ring.order if isinstance(ring.order, (Lex, Grevlex)) \
            else Grevlex()
        ext = Ring(ring.field,
                   tuple(f"@z{i + 1}" for i in range(k)) + ring.names,
                   Block(k, Grevlex(), order),
                   None if ring.weights is None else (1,) * k + ring.weights)
        var_map = list(range(k, ext.n))
        gens = [embed(g, ext, var_map) for g in self.generators]
        inverting = ext.one()
        for i, f in enumerate(other.generators):
            inverting = inverting - ext.var(i) * embed(f, ext, var_map)
        kept = _eliminated(buchberger(gens + [inverting]), ring, k)
        # when R[z] orders the variables of R as R does, kept is
        # already the reduced basis of the saturation
        same = order == ring.order
        return Ideal(ring, kept, GroebnerBasis(ring, kept) if same else None)

    def eliminate(self, variables):
        """I cap k[remaining variables], as an ideal of the smaller ring."""
        positions = []
        for v in variables:
            if isinstance(v, str):
                if v not in self.ring._index:
                    raise ArityMismatch(f"unknown variable {v}")
                positions.append(self.ring._index[v])
            else:
                positions.append(int(v))
        drop = set(positions)
        keep = [i for i in range(self.ring.n) if i not in drop]
        if not keep:
            raise ArityMismatch("cannot eliminate every variable")
        base_order = self.ring.order
        if not isinstance(base_order, (Lex, Grevlex)):
            base_order = Grevlex()
        target = Ring(self.ring.field,
                      [self.ring.names[i] for i in keep],
                      base_order,
                      None if self.ring.weights is None
                      else [self.ring.weights[i] for i in keep])
        if self.is_zero():
            return Ideal(target, [])
        # reorder: eliminated variables first, under a block order
        perm = positions + keep  # new position -> old position
        old_to_new = {old: new for new, old in enumerate(perm)}
        ext = Ring(self.ring.field,
                   [self.ring.names[i] for i in perm],
                   Block(len(positions), Grevlex(), base_order)
                   if positions else base_order,
                   None if self.ring.weights is None
                   else [self.ring.weights[i] for i in perm])
        var_map = [old_to_new[i] for i in range(self.ring.n)]
        gens = [embed(g, ext, var_map) for g in self.generators]
        return Ideal(target, _eliminated(buchberger(gens), target,
                                         len(positions)))

    # -- structure --

    def dimension(self):
        """Krull data of R/I via independent sets modulo the initial ideal."""
        if self._dim_report is not None:
            return self._dim_report
        n = self.ring.n
        basis = self.groebner().generators
        if any(b.degree() == 0 for b in basis):
            self._dim_report = DimensionReport(-1, n + 1, ())
            return self._dim_report
        supports = []
        for b in basis:
            exps = self.ring.decode(b.lm())
            mask = 0
            for i, e in enumerate(exps):
                if e:
                    mask |= 1 << i
            supports.append(mask)
        best_mask, best_size = 0, 0
        for mask in range(1 << n):
            size = bin(mask).count("1")
            if size <= best_size and mask != 0:
                continue
            if all(s & ~mask for s in supports):
                best_mask, best_size = mask, size
        witness = [self.ring.names[i] for i in range(n) if best_mask >> i & 1]
        self._dim_report = DimensionReport(best_size, n - best_size, witness)
        return self._dim_report

    @property
    def dim(self):
        return self.dimension().dim

    @property
    def height(self):
        return self.dimension().height

    def min_gens(self):
        """Number of minimal homogeneous generators."""
        return len(self.minimal_generators())

    def minimal_generators(self):
        """A minimal homogeneous generating set: the reduced Groebner
        basis trimmed by graded Nakayama (modules.minimal_columns), in
        increasing degree and, within a degree, in basis order.
        Homogeneity is a property of the ideal, so it is tested on the
        reduced basis, not on the generators as written."""
        basis = self.groebner().generators
        for g in basis:
            if not g.is_homogeneous():
                raise NotHomogeneous(
                    f"the ideal is not homogeneous: its basis holds {g}")
        from .modules import minimal_columns
        kept, _ = minimal_columns([[g] for g in basis], [0])
        return [col[0] for col in kept]

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.generators) or '0'})"


def _eliminated(gb, target, k):
    """The basis elements free of the first k variables, moved into
    `target` (the remaining variables, in order).  embed sends distinct
    monomials free of those variables to distinct monomials, so an
    element is free of them iff it keeps its term count."""
    var_map = [None] * k + list(range(target.n))
    kept = []
    for g in gb:
        h = embed(g, target, var_map)
        if len(h.terms) == len(g.terms):
            kept.append(h)
    return kept


def kernel_of_map(source_ring, images):
    """Kernel of the algebra map source_ring -> (ring of the images),
    sending the i-th variable to images[i].

    Computed as eliminate(target variables) of the graph ideal
    (x_i - image_i).  When the source ring carries no weights and every
    image is homogeneous, the returned ideal lives in a weighted copy of
    the source ring (weight of x_i = degree of images[i]), so the kernel
    is weighted-homogeneous and minimal-generator counts make sense.
    """
    if len(images) != source_ring.n:
        raise ArityMismatch(
            f"need {source_ring.n} images, got {len(images)}")
    target = images[0].ring
    for g in images:
        if g.ring != target:
            raise RingMismatch("images must share a common target ring")
        if g.is_zero():
            raise ZeroColon("kernel of a map with a zero image is not supported")
    if set(target.names) & set(source_ring.names):
        raise ArityMismatch("source and target variable names must be disjoint")
    t_weights = target.weights or tuple(1 for _ in range(target.n))
    if source_ring.weights is not None:
        s_weights = source_ring.weights
    elif all(g.is_homogeneous() for g in images):
        s_weights = tuple(max(g.wdegree(), 1) for g in images)
    else:
        s_weights = tuple(1 for _ in range(source_ring.n))
    ext = Ring(source_ring.field,
               target.names + source_ring.names,
               Block(target.n, Grevlex(), Grevlex()),
               t_weights + s_weights)
    gens = []
    for i, g in enumerate(images):
        xi = ext.var(target.n + i)
        gi = embed(g, ext, list(range(target.n)))
        gens.append(xi - gi)
    result_ring = source_ring
    if source_ring.weights is None and any(w != 1 for w in s_weights):
        result_ring = Ring(source_ring.field, source_ring.names,
                           source_ring.order, s_weights)
    kept = _eliminated(buchberger(gens), result_ring, target.n)
    full = Ideal(result_ring, kept)
    # present the kernel by a minimal generating set (the elimination
    # Groebner basis is usually redundant as a generating set)
    if all(g.is_homogeneous() for g in kept):
        return Ideal(result_ring, full.minimal_generators())
    return full


def radical_contains(ideal, f):
    """True iff f, a polynomial or an ideal, lies in the radical of the
    ideal: iff the saturation of the ideal by f is (1)."""
    if isinstance(f, Polynomial):
        f = Ideal(ideal.ring, [f])
    ideal._check(f)
    return f.is_zero() or ideal.saturate(f).is_unit()


def is_unmixed(ideal, a):
    """Linkage test for unmixedness in the (Gorenstein) polynomial ring:
    I is unmixed iff a : (a : I) = I for a regular sequence a in I of
    length height(I)."""
    g = ideal.height
    A = Ideal(ideal.ring, list(a))
    if A.height != g or len(A.generators) != g:
        raise BadRegularSequence(
            f"need a regular sequence of length {g} (height criterion)")
    if not ideal.contains(A):
        raise BadRegularSequence("sequence must lie inside the ideal")
    return A.colon(A.colon(ideal)) == ideal
