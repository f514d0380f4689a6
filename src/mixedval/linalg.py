"""Exact linear algebra over the rationals, integer first.

Vectors at the interface are tuples of Fraction; no floats anywhere.
Every elimination is fraction-free in Python int (Bareiss, Math. Comp.
22, 1968): a rational row is cleared of denominators once, and Fraction
is built only for returned values.  The one echelon is a list of (pivot
column, primitive int row with a positive pivot) pairs, grown by
extend_echelon; rank, span_key and solve read it off, and
reduced_echelon is the int basis of a polytope's affine chart.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Echelon = list[tuple[int, list[int]]]

# one shared Fraction per small integer: values that a cached polytope
# keeps (lattice coordinates, facet offsets) cost no object
SMALL = {i: Fraction(i) for i in range(-128, 129)}
ZERO, ONE = SMALL[0], SMALL[1]


def rational(n: int, d: int = 1) -> Fraction:
    """n / d for ints, the shared Fraction when it is a small integer."""
    q, r = divmod(n, d)
    return SMALL[q] if not r and q in SMALL else Fraction(n, d)


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


def int_row(row: Sequence) -> list[int]:
    """The row times the lcm of its denominators: a positive multiple in int."""
    if all(type(x) is int for x in row):
        return list(row)
    row = [frac(x) for x in row]
    s = lcm(*(x.denominator for x in row))
    return [x.numerator * (s // x.denominator) for x in row]


def int_rows(rows: Iterable[Sequence]) -> list[list[int]]:
    """int_row of each row; rows of unequal length are rejected."""
    out = [int_row(r) for r in rows]
    if any(len(r) != len(out[0]) for r in out):
        raise ValueError("rows of unequal length")
    return out


def extend_echelon(rows: Echelon, v: Sequence[int]) -> bool:
    """Reduce int v fraction-free by the echelon rows; insert what is left
    as a primitive row with a positive pivot and return True, or return
    False if v is in their span.  Pivots stay ascending."""
    for c, r in rows:
        if v[c]:
            v = [r[c] * x - v[c] * y for x, y in zip(v, r)]
    c = next((c for c, x in enumerate(v) if x), None)
    if c is None:
        return False
    g = gcd(*v) if v[c] > 0 else -gcd(*v)
    insort(rows, (c, [x // g for x in v]))
    return True


def reduced_echelon(rows: Iterable[Sequence]) -> Echelon:
    """The echelon of the rows with full back-substitution: every row is
    zero in the other pivot columns, so each row is the primitive positive
    multiple of a row of the reduced row echelon form, and canonical."""
    ech: Echelon = []
    for v in int_rows(rows):
        extend_echelon(ech, v)
    for i in range(len(ech) - 1, 0, -1):
        c, r = ech[i]
        for j, (cj, s) in enumerate(ech[:i]):
            if s[c]:
                s = [r[c] * x - s[c] * y for x, y in zip(s, r)]
                g = gcd(*s)
                ech[j] = (cj, [x // g for x in s])
    return ech


def rank(rows: Iterable[Sequence]) -> int:
    ech: Echelon = []
    return sum(extend_echelon(ech, v) for v in int_rows(rows))


def span_key(rows: Iterable[Sequence]) -> tuple[tuple[int, ...], ...]:
    """Canonical hashable representation of the linear span of `rows`."""
    return tuple(tuple(r) for _, r in reduced_echelon(rows))


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return ()
    n = len(rows[0])
    ech = reduced_echelon([*r, b] for r, b in zip(rows, rhs, strict=True))
    if ech and ech[-1][0] == n:  # pivot in the rhs column: inconsistent
        return None
    x = [ZERO] * n
    for c, r in ech:
        x[c] = rational(r[n], r[c])
    return tuple(x)


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


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(det M, adj M) of a square int matrix M, adj M M = det M I, by one
    fraction-free Gauss-Jordan elimination of [M | I] (Bareiss): every
    division is exact, and the last pivot is det M up to the sign of the
    row swaps.  A singular M gives det 0 and no adjugate is formed."""
    n = len(rows)
    work = [[*r, *(int(i == j) for j in range(n))] for i, r in enumerate(rows)]
    sign, prev = 1, 1
    for c in range(n):
        pr = next((i for i in range(c, n) if work[i][c]), None)
        if pr is None:
            return 0, []
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            sign = -sign
        top = work[c]
        p = top[c]
        for i, row in enumerate(work):
            if i != c:
                f = row[c]
                work[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    # the elimination leaves [prev I | X] with X M = prev I
    return sign * prev, [[sign * x for x in row[n:]] for row in work]


def hermite(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """The row Hermite normal form of the lattice the int rows generate:
    a basis in echelon form with positive pivots, every entry above a
    pivot reduced into [0, pivot).  Rows that vanish up to column c lie
    in the span of the basis rows whose pivots come after c."""
    work = [list(r) for r in rows]
    out: list[list[int]] = []
    for c in range(len(work[0]) if work else 0):
        live = [r for r in work if r[c]]
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[c]))
            for r in live:
                if r is not p:
                    q = r[c] // p[c]
                    r[:] = [x - q * y for x, y in zip(r, p)]
            live = [r for r in live if r[c]]
        if not live:
            continue
        p = live[0]
        work = [r for r in work if r is not p]
        if p[c] < 0:
            p[:] = [-x for x in p]
        for r in out:
            q = r[c] // p[c]
            r[:] = [x - q * y for x, y in zip(r, p)]
        out.append(p)
    return out


def cofactor_normal(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The integer c with <c, x> = det(rows + [x]) for all x: k-1 rows of
    length k give a c that is nonzero exactly when they are independent."""
    k = len(rows) + 1
    return tuple(
        (-1) ** (k - 1 + j) * _bareiss([[*r[:j], *r[j + 1 :]] for r in rows]) for j in range(k)
    )


def primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    The direction (sign) is preserved.
    """
    ints = int_row(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)
