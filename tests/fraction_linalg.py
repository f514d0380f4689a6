"""Reference linear algebra: plain Gaussian elimination in Fraction.

The package eliminates fraction-free in int; these routines are the
independent oracle its results are compared with.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def echelon(rows):
    """Reduced row echelon form of Fraction rows, in place; returns (rows, pivots)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rref(rows):
    """(basis, pivots): the reduced row echelon form with zero rows dropped."""
    work, pivots = echelon([[Fraction(x) for x in r] for r in rows])
    return tuple(tuple(r) for r in work[: len(pivots)]), tuple(pivots)


def rank(rows):
    return len(rref(rows)[1])


def solve(rows, rhs):
    """One solution of A x = b with the free variables zero, or None."""
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    aug, pivots = echelon([[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(m)])
    if n in pivots:
        return None
    x = [ZERO] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return tuple(x)


def nullspace(rows, ncols=None):
    """Basis of {x : A x = 0}, one vector per free column."""
    work = [[Fraction(x) for x in r] for r in rows]
    if not work:
        return [tuple(ONE if j == i else ZERO for j in range(ncols)) for i in range(ncols)]
    n = len(work[0])
    work, pivots = echelon(work)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for i, c in enumerate(pivots):
            v[c] = -work[i][free]
        basis.append(tuple(v))
    return basis
