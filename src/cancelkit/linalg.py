"""Small exact dense linear algebra over a coefficient field.

Used for minimal generating sets of graded modules (one echelon form
per degree), for coordinates in a span and full-rank random matrices in
the reduction search, and for the nullspaces behind the Rees
certificate.  Rows are lists of field elements.
"""


def echelonize(rows, field):
    """In-place row echelon form; returns the list of pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    zero = field.zero
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] != zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != zero:
                factor = rows[i][col]
                rows[i] = [field.sub(x, field.mul(factor, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(rows, field):
    return len(echelonize([list(r) for r in rows], field))

