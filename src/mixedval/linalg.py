"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction and nothing here touches floats.  Inputs
are small (ambient dimension <= 6 at the outside), so plain Gaussian
elimination is the right tool; det and cofactor_normal eliminate
fraction-free, in Python int.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not accepted; use Fraction or 'p/q' strings")
    return Fraction(x)


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def vadd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c: Fraction, a: Sequence[Fraction]) -> Vec:
    return tuple(c * x for x in a)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), start=ZERO)


def is_zero(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place row echelon form; returns (rows, pivot column indices)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
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


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped.

    The result is a canonical basis of the row space, usable as a
    hashable key for comparing linear spans.
    """
    work = [list(r) for r in rows]
    work, pivots = _echelon(work)
    kept = tuple(tuple(r) for r in work[: len(pivots)])
    return kept, tuple(pivots)


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def span_key(rows: Iterable[Sequence[Fraction]]) -> tuple[Vec, ...]:
    """Canonical hashable representation of the linear span of `rows`."""
    return rref(rows)[0]


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    aug = [list(rows[i]) + [frac(rhs[i])] for i in range(m)]
    aug, pivots = _echelon(aug)
    if n in pivots:  # pivot in the rhs column: inconsistent
        return None
    x = [ZERO] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return tuple(x)


def nullspace(rows: Iterable[Sequence[Fraction]], ncols: int | None = None) -> list[Vec]:
    """Basis of {x : A x = 0}.

    `ncols` is required when `rows` may be empty (the nullspace is then
    all of the ambient space).
    """
    work = [list(r) for r in rows]
    if not work:
        if ncols is None:
            raise ValueError("ncols required for an empty row list")
        return [tuple(ONE if j == i else ZERO for j in range(ncols)) for i in range(ncols)]
    n = len(work[0])
    work, pivots = _echelon(work)
    basis: list[Vec] = []
    pivot_set = set(pivots)
    for free in range(n):
        if free in pivot_set:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for i, c in enumerate(pivots):
            v[c] = -work[i][free]
        basis.append(tuple(v))
    return basis


def det(rows: Sequence[Sequence]) -> int | Fraction:
    """Determinant by fraction-free Bareiss elimination (Math. Comp. 22, 1968):
    int rows give an int, all exact divisions in Python int; Fraction rows
    are scaled to int once each and the result divided back at the end."""
    work, scale = [], 1
    for r in rows:
        s = lcm(*(x.denominator for x in r))
        work.append([x.numerator * (s // x.denominator) for x in r])
        scale *= s
    value = _bareiss(work)
    return value if scale == 1 else Fraction(value, scale)


def _bareiss(work: list[list[int]]) -> int:
    """Determinant of a square int matrix, overwritten by the elimination."""
    n = len(work)
    sign, prev = 1, 1
    for c in range(n - 1):
        if not work[c][c]:
            pr = next((i for i in range(c + 1, n) if work[i][c]), None)
            if pr is None:
                return 0
            work[c], work[pr] = work[pr], work[c]
            sign = -sign
        top = work[c]
        p = top[c]
        for row in work[c + 1 :]:
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
    return sign * work[-1][-1] if n else 1


def cofactor_normal(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The integer c with <c, x> = det(rows + [x]) for all x: k-1 rows of
    length k give a c that is nonzero exactly when they are independent."""
    k = len(rows) + 1
    return tuple(
        (-1) ** (k - 1 + j) * _bareiss([[*r[:j], *r[j + 1 :]] for r in rows]) for j in range(k)
    )


def primitive(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    The direction (sign) is preserved.
    """
    v = [frac(x) for x in v]
    s = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (s // x.denominator) for x in v]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def primitive_signless(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Primitive integer vector with the first nonzero entry positive."""
    p = primitive(v)
    lead = next(x for x in p if x != 0)
    return p if lead > 0 else tuple(-x for x in p)


def integerize(normal: Sequence[Fraction], offset: Fraction) -> tuple[tuple[int, ...], Fraction]:
    """Scale (a, b) by a positive rational so `a` is primitive integer."""
    p = primitive(normal)
    # the common positive factor: p = s * normal with s > 0
    i = next(j for j, x in enumerate(p) if x != 0)
    s = Fraction(p[i]) / frac(normal[i])
    if s <= 0:
        raise ValueError("scaling factor must be positive")
    return p, frac(offset) * s


def feasible_nonneg(
    rows: Sequence[Sequence], rhs: Sequence
) -> list[Fraction] | None:
    """Exact LP feasibility: some z >= 0 with (rows) z = rhs, or None.

    Phase-one simplex with Bland's rule; small systems only.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [[frac(v) for v in row] for row in rows]
    b = [frac(v) for v in rhs]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    # tableau with one artificial per row
    T = [A[i] + [ONE if j == i else ZERO for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    ncols = n + m
    # objective: minimize the sum of artificials
    z = [ZERO] * (ncols + 1)
    for i in range(m):
        z = [zi + ti for zi, ti in zip(z, T[i])]
    while True:
        col = next((j for j in range(n) if z[j] > 0), None)
        if col is None:
            break
        best = None
        for i in range(m):
            if T[i][col] > 0:
                ratio = T[i][ncols] / T[i][col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            break
        _, row = best
        piv = T[row][col]
        T[row] = [v / piv for v in T[row]]
        for i in range(m):
            if i != row and T[i][col] != 0:
                f = T[i][col]
                T[i] = [v - f * w for v, w in zip(T[i], T[row])]
        f = z[col]
        z = [v - f * w for v, w in zip(z, T[row])]
        basis[row] = col
    if z[ncols] != 0:
        return None
    out = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            out[bi] = T[i][ncols]
    return out


def is_convex_combination(x: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> bool:
    """Is x a convex combination of `points`?  Exact."""
    if not points:
        return False
    d = len(x)
    n = len(points)
    # rows: sum_i l_i * p_i = x, sum_i l_i = 1; variables l_i >= 0
    rows = [[frac(points[j][i]) for j in range(n)] for i in range(d)]
    rows.append([ONE] * n)
    rhs = [frac(xi) for xi in x] + [ONE]
    return feasible_nonneg(rows, rhs) is not None
