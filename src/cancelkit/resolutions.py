"""Free resolutions and the homological checks built on them.

free_resolution builds the minimal graded resolution of R/I for a
homogeneous I: each step takes the syzygies of the previous map and
keeps a minimal generating set of them (modules.minimal_columns), so
no map has a unit entry and the length is the projective dimension.
Inhomogeneous input is refused: without a grading, trimming syzygies
does not bound the length by the projective dimension.  Depth
comes out of Auslander-Buchsbaum (depth = n - pd), Cohen-Macaulayness is
depth == dim, and the local-cohomology hypothesis H^{d-1}_m(R/I) = 0 is
decided through its graded-local-duality surrogate Ext^{g+1}(R/I, R) = 0,
computed as vanishing homology of the dualized resolution.
"""

from .errors import HypothesisFailed
from .modules import (minimal_columns, module_buchberger, module_member,
                      syzygy_columns, vector)


class FreeResolution:
    """maps[i]: F_{i+1} -> F_i with F_0 = R, as its list of columns (one
    per basis vector of F_{i+1}, each of length rank F_i); resolves R/I."""

    def __init__(self, ring, maps):
        self.ring = ring
        self.maps = maps

    @property
    def length(self):
        return len(self.maps)

    def betti_numbers(self):
        """(rank F_0, rank F_1, ...)."""
        return (1,) + tuple(len(m) for m in self.maps)


def free_resolution(ideal):
    """Minimal graded free resolution of R/I, for I proper and
    homogeneous (NotHomogeneous otherwise)."""
    if ideal.is_unit():
        raise HypothesisFailed("cannot resolve R/I for I = (1)")
    gens = ideal.minimal_generators()
    columns, degrees = [[g] for g in gens], [g.wdegree() for g in gens]
    maps = []
    while columns:
        maps.append(columns)
        columns, degrees = minimal_columns(syzygy_columns(columns), degrees)
    return FreeResolution(ideal.ring, maps)


class CohomologySummary:
    def __init__(self, g, d, depth, is_CM, ext_vanishes):
        self.g = g
        self.d = d
        self.depth = depth
        self.is_CM = is_CM
        self.ext_vanishes = ext_vanishes

    def __repr__(self):
        return (f"CohomologySummary(g={self.g}, d={self.d}, "
                f"depth={self.depth}, is_CM={self.is_CM}, "
                f"ext_vanishes={self.ext_vanishes})")


def ext_vanishes_at(resolution, k):
    """True iff Ext^k(R/I, R) = 0, read off the dualized resolution."""
    maps = resolution.maps
    pd = len(maps)
    if k > pd:
        return True
    if k == 0:
        # Hom(R/I, R) = 0 in a domain iff I != 0, that is iff the
        # resolution has a map
        return bool(maps)
    rank_k = len(maps[k - 1])
    # kernel of the dual of maps[k] (or everything when k == pd); a
    # dual's columns are the rows of the map
    if k < pd:
        kernel_cols = syzygy_columns(list(zip(*maps[k])))
    else:
        ring = resolution.ring
        kernel_cols = [[ring.one() if i == j else ring.zero()
                        for i in range(rank_k)] for j in range(rank_k)]
    if not kernel_cols:
        return True
    image_cols = zip(*maps[k - 1])
    basis = module_buchberger(
        [vector(col) for col in image_cols if any(
            not f.is_zero() for f in col)])
    for col in kernel_cols:
        if not module_member(vector(col), basis):
            return False
    return True


def cohomology_summary(ideal):
    """Depth, Cohen-Macaulayness, and the Ext-vanishing surrogate for the
    hypothesis that the (d-1)-st local cohomology of R/I vanishes."""
    if ideal.is_zero() or ideal.is_unit():
        raise HypothesisFailed("need a nonzero proper ideal")
    rep = ideal.dimension()
    g, d = rep.height, rep.dim
    res = free_resolution(ideal)
    depth = ideal.ring.n - res.length
    is_cm = depth == d
    if is_cm:
        ext_ok = True
    else:
        ext_ok = ext_vanishes_at(res, g + 1)
    return CohomologySummary(g, d, depth, is_cm, ext_ok)
