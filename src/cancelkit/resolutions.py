"""Free resolutions and the homological checks built on them.

free_resolution iterates syzygies of the presentation of R/I and then
prunes unit entries, so its length is the projective dimension.  Depth
comes out of Auslander-Buchsbaum (depth = n - pd), Cohen-Macaulayness is
depth == dim, and the local-cohomology hypothesis H^{d-1}_m(R/I) = 0 is
decided through its graded-local-duality surrogate Ext^{g+1}(R/I, R) = 0,
computed as vanishing homology of the dualized resolution.
"""

from .errors import HypothesisFailed, RingMismatch
from .ideals import Ideal
from .modules import module_buchberger, module_member, syzygy_columns, vector


class FreeModuleMap:
    """Matrix of polynomials: a map R^cols -> R^rows."""

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise RingMismatch("ragged matrix")
            for f in row:
                if f.ring != ring:
                    raise RingMismatch("entry in wrong ring")

    def column(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return FreeModuleMap(
            self.ring,
            [[self.entries[i][j] for i in range(self.rows)]
             for j in range(self.cols)])

    def compose(self, other):
        """self o other (apply other first): matrix product."""
        if other.rows != self.cols:
            raise RingMismatch("map ranks are not composable")
        zero = self.ring.zero()
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return FreeModuleMap(self.ring, out)

    def is_zero(self):
        return all(f.is_zero() for row in self.entries for f in row)

    def __repr__(self):
        return f"FreeModuleMap({self.rows}x{self.cols})"


def syzygies(M):
    """A map whose columns generate ker(M); M o syzygies(M) = 0."""
    cols = syzygy_columns(M.columns())
    if not cols:
        return FreeModuleMap(M.ring, [[] for _ in range(M.cols)])
    entries = [[cols[j][i] for j in range(len(cols))]
               for i in range(M.cols)]
    return FreeModuleMap(M.ring, entries)


class FreeResolution:
    """maps[i]: F_{i+1} -> F_i with F_0 = R; resolves R/I."""

    def __init__(self, ring, maps):
        self.ring = ring
        self.maps = maps

    @property
    def length(self):
        return len(self.maps)

    def betti_numbers(self):
        """(rank F_0, rank F_1, ...)."""
        if not self.maps:
            return (1,)
        return (self.maps[0].rows,) + tuple(m.cols for m in self.maps)


def free_resolution(ideal):
    """Minimal free resolution of R/I (I proper)."""
    if ideal.is_unit():
        raise HypothesisFailed("cannot resolve R/I for I = (1)")
    ring = ideal.ring
    if ideal.is_zero():
        return FreeResolution(ring, [])
    gens = list(ideal.groebner().generators)
    maps = [FreeModuleMap(ring, [gens])]
    while True:
        S = syzygies(maps[-1])
        if S.cols == 0:
            break
        maps.append(S)
        # prune unit entries now: iterated syzygies of a non-minimal
        # complex need not terminate, minimal ones stop at pd <= n
        _prune_units(maps)
        if maps[-1].cols == 0:
            break
        if len(maps) > ring.n + 1:
            raise AssertionError("resolution exceeded the syzygy bound")
    while maps and maps[-1].cols == 0:
        maps.pop()
    return FreeResolution(ring, maps)


def _prune_units(maps):
    """Cancel constant (degree-0) entries to minimalize the complex."""
    changed = True
    while changed:
        changed = False
        for k in range(1, len(maps)):
            M = maps[k]
            spot = _find_unit(M)
            if spot is None:
                continue
            r, c = spot
            _cancel_unit(maps, k, r, c)
            changed = True
            break


def _find_unit(M):
    for i in range(M.rows):
        for j in range(M.cols):
            f = M.entries[i][j]
            if not f.is_zero() and f.degree() == 0:
                return (i, j)
    return None


def _cancel_unit(maps, k, r, c):
    M = maps[k]
    ring = M.ring
    field = ring.field
    u_inv = field.inv(M.entries[r][c].lc())

    # column ops on M: clear row r outside the pivot; mirror as row ops on
    # the next map (source basis change)
    for j in range(M.cols):
        if j == c:
            continue
        v = M.entries[r][j]
        if v.is_zero():
            continue
        lam = v.scale(u_inv)
        for i in range(M.rows):
            M.entries[i][j] = M.entries[i][j] - lam * M.entries[i][c]
        if k + 1 < len(maps):
            nxt = maps[k + 1]
            for jj in range(nxt.cols):
                nxt.entries[c][jj] = (nxt.entries[c][jj]
                                      + lam * nxt.entries[j][jj])

    # row ops on M: clear column c outside the pivot; mirror as column ops
    # on the previous map (target basis change)
    prev = maps[k - 1]
    for i in range(M.rows):
        if i == r:
            continue
        w = M.entries[i][c]
        if w.is_zero():
            continue
        mu = w.scale(u_inv)
        for j in range(M.cols):
            M.entries[i][j] = M.entries[i][j] - mu * M.entries[r][j]
        for ii in range(prev.rows):
            prev.entries[ii][r] = (prev.entries[ii][r]
                                   + mu * prev.entries[ii][i])

    # drop row r / column c of M, column r of prev, row c of next
    new_entries = [[M.entries[i][j] for j in range(M.cols) if j != c]
                   for i in range(M.rows) if i != r]
    maps[k] = FreeModuleMap(ring, new_entries if new_entries else [[]])
    if not new_entries:
        maps[k] = FreeModuleMap(ring, [[] for _ in range(M.rows - 1)])
    prev_entries = [[prev.entries[i][j] for j in range(prev.cols) if j != r]
                    for i in range(prev.rows)]
    maps[k - 1] = FreeModuleMap(ring, prev_entries)
    if k + 1 < len(maps):
        nxt = maps[k + 1]
        nxt_entries = [[nxt.entries[i][j] for j in range(nxt.cols)]
                       for i in range(nxt.rows) if i != c]
        maps[k + 1] = FreeModuleMap(ring, nxt_entries
                                    if nxt_entries else [[]])


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
        return False  # Hom(R/I, R) = 0 only for I != 0; k=0 unused here
    rank_k = maps[k - 1].cols
    # kernel of the dual of maps[k] (or everything when k == pd)
    if k < pd:
        dual = maps[k].transpose()
        kernel_cols = syzygy_columns(dual.columns())
    else:
        ring = resolution.ring
        kernel_cols = [[ring.one() if i == j else ring.zero()
                        for i in range(rank_k)] for j in range(rank_k)]
    if not kernel_cols:
        return True
    image_cols = maps[k - 1].transpose().columns()
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


def colon_identity_check(ideal, a, t):
    """Checks the colon-extension identity (a:I) + (t) = ((a)+(t)) : I for
    a nonzerodivisor t on both R/I and R/(a), assuming the Ext-vanishing
    hypothesis holds for I."""
    ring = ideal.ring
    if t.ring != ring:
        raise RingMismatch("t not in the ideal's ring")
    summary = cohomology_summary(ideal)
    if not summary.ext_vanishes:
        raise HypothesisFailed("Ext-vanishing hypothesis fails for I")
    A = Ideal(ring, list(a))
    if ideal.colon_poly(t) != ideal:
        raise HypothesisFailed("t is a zerodivisor on R/I")
    if A.colon_poly(t) != A:
        raise HypothesisFailed("t is a zerodivisor on R/(a)")
    T = Ideal(ring, [t])
    lhs = A.colon(ideal) + T
    rhs = (A + T).colon(ideal)
    return lhs == rhs
