"""Ideal-level operations built on the Groebner engine.

Covers sums, products, powers, intersection, colon, saturation,
elimination, containment/equality, radical membership, Krull dimension
via independent sets modulo the initial ideal, minimal generator counts,
and kernels of algebra maps.

Saturation, elimination and toric kernels are one elimination: new
variables in front of the target ring under an elimination order, then
the basis elements free of them, which are the target's reduced basis
when the order restricts to the target's.  With a grevlex tail that
order takes the new variables' weighted degree first and then weighted
grevlex on all variables (`orders.Elimination`), so the loop still runs
degree by degree; with a lex tail it is a block order.  Saturation by
J = (f_1..f_k) eliminates the z from (I, 1 - z_1*f_1 - ... - z_k*f_k)
in R[z_1..z_k], and J lies in the radical of I iff that saturation is
(1).  A radical membership test forms it only when J is not already
contained in I.  Colon and intersection are one module kernel of one
column, taken modulo the reduced bases of their ideals (computed and
kept on an ideal that has none yet); that kernel is the result's
reduced basis, and the result holds it.

Height is defined as n - dim(R/I); this is valid because the ambient is
a polynomial ring over a field (catenary and equidimensional).
"""

from . import cache as _cache
from .errors import ArityMismatch, NotHomogeneous, RingMismatch, ZeroColon
from .gb import GroebnerBasis, buchberger, normal_form
from .orders import Block, Elimination, Grevlex, Lex
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

    def contains_poly(self, f):
        if f.is_zero():
            return True
        basis = self.groebner()
        return bool(basis.generators) and normal_form(f, basis).is_zero()

    def contains(self, other):
        """True iff other, an ideal, a polynomial or a list of them, lies
        in this ideal."""
        if not isinstance(other, Ideal):
            other = Ideal(self.ring, [other] if isinstance(other, Polynomial)
                          else other)
        self._check(other)
        return all(self.contains_poly(g) for g in other.generators)

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

        return _cache.recall(("mul", self.ring, self.generators,
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
        homogeneity survives).  I and J enter by their reduced bases
        (`_known`)."""
        self._check(other)
        from .modules import syzygy_columns
        one = self.ring.one()
        cols = syzygy_columns([[one, one]],
                              _known(2, [(self, [0]), (other, [1])]))
        return _kernel_ideal(self.ring, cols)

    def colon_poly(self, f):
        """I : f, the colon by the principal ideal (f)."""
        return self.colon(Ideal(self.ring, [f]))

    def colon(self, other):
        """I : J for J = (f_1..f_k): the kernel of R -> (R/I)^k,
        h -> (h*f_1, ..., h*f_k), in one module basis -- the h with
        h*(f_1..f_k) in the submodule of R^k generated by the g*e_j, g in
        I's reduced basis (`_known`)."""
        if isinstance(other, Polynomial):
            return self.colon_poly(other)
        self._check(other)
        if other.is_zero():
            raise ZeroColon("colon by the zero ideal")
        from .modules import syzygy_columns
        k = len(other.generators)
        cols = syzygy_columns([list(other.generators)],
                              _known(k, [(self, range(k))]))
        return _kernel_ideal(self.ring, cols)

    def saturate(self, other):
        """I : J^infinity for J = (f_1..f_k), a Polynomial or an Ideal:
        (I, 1 - sum of z_i*f_i) cap R, one elimination in R[z_1..z_k]."""
        if isinstance(other, Polynomial):
            other = Ideal(self.ring, [other])
        self._check(other)
        if other.is_zero():
            raise ZeroColon("saturation by the zero ideal")
        k = len(other.generators)
        ext = _elimination_ring(self.ring, [f"@z{i + 1}" for i in range(k)],
                                None)
        var_map = list(range(k, ext.n))
        inverting = ext.one()
        for i, f in enumerate(other.generators):
            inverting = inverting - ext.var(i) * embed(f, ext, var_map)
        return _eliminate([embed(g, ext, var_map) for g in self.generators]
                          + [inverting], self.ring)

    def eliminate(self, variables):
        """I cap k[remaining variables], as an ideal of the smaller ring,
        ordered as R when R's order is lex or grevlex, else by grevlex."""
        ring = self.ring
        for v in variables:
            if v not in ring._index:
                raise ArityMismatch(f"unknown variable {v}")
        drop = [ring._index[v] for v in variables]
        keep = [i for i in range(ring.n) if i not in drop]
        if not keep:
            raise ArityMismatch("cannot eliminate every variable")
        w = ring.weights
        target = Ring(ring.field, [ring.names[i] for i in keep],
                      _tail(ring), w and [w[i] for i in keep])
        if self.is_zero():
            return Ideal(target, [])
        ext = _elimination_ring(target, [ring.names[i] for i in drop],
                                w and [w[i] for i in drop])
        var_map = [ext._index[name] for name in ring.names]
        return _eliminate([embed(g, ext, var_map) for g in self.generators],
                          target)

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


def _known(k, parts):
    """The relations g*e_j of R^k for g in the reduced basis of an ideal
    and j in its positions, one (ideal, positions) pair per part: a
    module Groebner basis, since pairs form only within one component.
    An ideal with no basis yet computes and keeps it."""
    zero = [parts[0][0].ring.zero()] * k
    return [zero[:j] + [g] + zero[j + 1:]
            for ideal, positions in parts for g in ideal.groebner()
            for j in positions]


def _kernel_ideal(ring, cols):
    """The ideal of a one-column kernel (`syzygy_columns`), holding that
    kernel, which is its reduced basis, as its basis."""
    gens = [col[0] for col in cols]
    return Ideal(ring, gens, GroebnerBasis(ring, gens))


def _tail(ring):
    """The order an elimination into `ring` ends in: lex or grevlex."""
    return ring.order if isinstance(ring.order, (Lex, Grevlex)) else Grevlex()


def _elimination_ring(target, names, weights):
    """target[names] for eliminating the new variables `names`, of the
    given weights (None: all 1): they come first, under Elimination(k)
    (their weighted degree, then weighted grevlex on all variables) when
    _tail(target) is grevlex, and under Block(k, Grevlex(), Lex()) when
    it is lex.  Either order restricts to _tail(target) on target.  With
    no names, target itself."""
    if not names:
        return target
    k = len(names)
    all_weights = None if weights is None and target.weights is None \
        else tuple(weights or (1,) * k) + (target.weights or (1,) * target.n)
    tail = _tail(target)
    order = Elimination(k) if tail == Grevlex() else Block(k, Grevlex(), tail)
    return Ring(target.field, tuple(names) + target.names, order,
                all_weights)


def _eliminate(gens, target):
    """(gens) cap target for gens in an _elimination_ring of target: the
    elements of their reduced basis free of the new variables, moved
    into target.  embed sends distinct monomials free of those variables
    to distinct monomials, so an element is free of them iff it keeps
    its term count.  When the block order ends in target's order, these
    elements are target's reduced basis of the elimination ideal (Cox,
    Little & O'Shea, ch. 3 sec. 1), and the returned ideal holds it."""
    basis = buchberger(gens)
    var_map = [None] * (basis.ring.n - target.n) + list(range(target.n))
    kept = []
    for g in basis:
        h = embed(g, target, var_map)
        if len(h.terms) == len(g.terms):
            kept.append(h)
    held = _tail(target) == target.order
    return Ideal(target, kept, GroebnerBasis(target, kept) if held else None)


def kernel_of_map(source_ring, images):
    """Kernel of the algebra map source_ring -> (ring of the images),
    sending the i-th variable to images[i]: the graph ideal
    (x_i - image_i) cap source_ring, one elimination of the image
    ring's variables, generated by its reduced basis, which it holds
    when the ring's order is lex or grevlex.  When the source ring
    carries no weights and every image is homogeneous, the returned
    ideal lives in a weighted copy of the source ring (weight of x_i =
    degree of images[i]), so the kernel is weighted-homogeneous.
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
    result_ring = source_ring
    if source_ring.weights is None and all(g.is_homogeneous() for g in images):
        weights = tuple(max(g.wdegree(), 1) for g in images)
        if any(w != 1 for w in weights):
            result_ring = Ring(source_ring.field, source_ring.names,
                               source_ring.order, weights)
    ext = _elimination_ring(result_ring, target.names, target.weights)
    return _eliminate([ext.var(target.n + i) - embed(g, ext, range(target.n))
                       for i, g in enumerate(images)], result_ring)


def minimal_kernel(source_ring, images):
    """kernel_of_map presented by its minimal generators when it is
    homogeneous, holding the same reduced basis, and by that basis
    otherwise: in a `lex` ring that is the lex reduced basis."""
    full = kernel_of_map(source_ring, images)
    if all(g.is_homogeneous() for g in full.generators):
        held = full._gb  # taken before minimal_generators computes one
        return Ideal(full.ring, full.minimal_generators(), held)
    return full


def radical_contains(ideal, f):
    """True iff f, a polynomial or an ideal, lies in the radical of the
    ideal: when f lies in the ideal itself, else iff the saturation of
    the ideal by f is (1), which is formed only in that case."""
    if isinstance(f, Polynomial):
        f = Ideal(ideal.ring, [f])
    return ideal.contains(f) or ideal.saturate(f).is_unit()
