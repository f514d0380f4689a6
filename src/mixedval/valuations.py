"""Valuations on polytopes and their combinatorial mixed versions.

A valuation assigns a rational to every polytope and zero to the empty
set, and is additive across convex unions.  The mixed construction
alternates a valuation over Minkowski sums of subfamilies; specialized
to volume it recovers (scaled) mixed volumes, specialized to the
lattice-point count it gives the discrete analogue.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Sequence

from .counting import count_lattice_points, count_relint_points, euler_relint_value
from .geometry import (
    EMPTY,
    DimensionMismatch,
    LatticeMismatch,
    Polytope,
    cut_halfspace,
    dilate,
    exact_volume,
    face_lattice,
    hyperplane_section,
    minkowski_sum_all,
    origin_polytope,
    scaled_sum,
    translate,
    _common_ambient,
    _Frozen,
    _require_polytope,
)
from .linalg import dot, frac
from .samplers import (
    random_direction,
    random_lattice_box,
    random_lattice_polytope,
    random_lattice_simplex,
    random_rational_polytope,
)


class ReconstructionError(ArithmeticError):
    """Computed values do not fit the promised polynomial form."""


class Valuation(_Frozen):
    """A rational-valued function on polytopes, zero on the empty set.

    ``lattice_requirement`` "Z" restricts the domain to polytopes with
    integer vertices; evaluating elsewhere raises LatticeMismatch.  The
    valuation and translation-invariance axioms are not assumed here;
    run ``check_valuation`` on anything user-supplied.  The function is
    compared and hashed but not shown.
    """

    __slots__ = _fields = ("name", "func", "lattice_requirement")

    def __init__(
        self, name: str, func: Callable[[Polytope], Fraction], lattice_requirement: str = "any"
    ):
        if lattice_requirement not in ("Z", "Q", "any"):
            raise ValueError("lattice_requirement must be 'Z', 'Q', or 'any'")
        self._set(name, func, lattice_requirement)

    def __repr__(self) -> str:
        return f"Valuation(name={self.name!r}, lattice_requirement={self.lattice_requirement!r})"

    @property
    def segment_criterion(self) -> bool:
        """Whether the segment criterion decides positivity of cm.  It needs
        nonnegativity on half-open pieces and a positive value at a point,
        as the lattice count of builtin_valuations()["dvol"] has; that is
        told by its function, never by a name, and a derived valuation
        (shift_valuation) wraps the function and loses it."""
        return self.func is _lattice_count and self.lattice_requirement == "Z"

    def __call__(self, P) -> Fraction:
        if P is EMPTY:
            return Fraction(0)
        P = _require_polytope(P)
        if self.lattice_requirement == "Z" and not P.is_integral:
            raise LatticeMismatch(
                f"valuation {self.name!r} needs integer vertices"
            )
        return frac(self.func(P))


def _lattice_count(P: Polytope) -> Fraction:
    return Fraction(count_lattice_points(P))


def builtin_valuations() -> dict[str, Valuation]:
    """The stock valuations, keyed by the names the CLI accepts."""
    # The unsigned interior count is not a valuation: [0,2] splits into
    # two unit segments sharing a point, giving 1 on the left and
    # 0 + 0 - 1 on the right.  The sign (-1)^dim fixes this.
    return {
        "dvol": Valuation("dvol", _lattice_count, "Z"),
        "vol": Valuation("vol", exact_volume),
        "euler": Valuation("euler", lambda P: Fraction(1)),
        "interior": Valuation(
            "interior",
            lambda P: Fraction((-1) ** P.dim * count_relint_points(P)),
            "Z",
        ),
    }


def cm_terms(
    phi: Valuation,
    polys: Sequence[Polytope],
    *,
    ambient_dim: int | None = None,
) -> list[tuple[int, int, Fraction]]:
    """The terms (mask, sign, value) of cm, in mask order.

    Bit i of mask selects polys[i]; value is phi of the Minkowski sum of
    the selected polytopes (the origin for mask 0) and sign is
    (-1)^(r - |mask|).  With no polytopes the one term is phi({0}); pass
    ambient_dim to say where that origin lives.  With polytopes an
    ambient_dim other than theirs raises DimensionMismatch.
    """
    polys = [_require_polytope(P) for P in polys]
    r = len(polys)
    if r:
        d = _common_ambient(polys)
        if ambient_dim not in (None, d):
            raise DimensionMismatch(f"ambient_dim {ambient_dim} does not match the polytopes' {d}")
    elif ambient_dim is None:
        raise ValueError("ambient_dim is required when no polytopes are given")
    else:
        d = ambient_dim
    sums: dict[int, Polytope] = {0: origin_polytope(d)}
    terms = []
    for mask in range(1 << r):
        if mask:
            low = mask & (mask - 1)
            i = (mask & -mask).bit_length() - 1
            sums[mask] = polys[i] if low == 0 else minkowski_sum_all((sums[low], polys[i]))
        sign = -1 if (r - mask.bit_count()) % 2 else 1
        terms.append((mask, sign, phi(sums[mask])))
    return terms


def cm(
    phi: Valuation,
    polys: Sequence[Polytope],
    *,
    ambient_dim: int | None = None,
) -> Fraction:
    """Alternating sum of phi over Minkowski sums of subfamilies.

    cm(phi, [P1, ..., Pr]) adds (-1)^(r - |I|) phi(P_I) over all subsets
    I, where P_I is the Minkowski sum of the selected polytopes and the
    empty subset contributes the origin.  With no polytopes this is
    phi({0}); pass ambient_dim to say where that origin lives.
    """
    terms = cm_terms(phi, polys, ambient_dim=ambient_dim)
    return sum((sign * value for _, sign, value in terms), Fraction(0))


def _grid_values(
    phi: Valuation, polys: Sequence[Polytope], box: Sequence[int]
) -> dict[tuple[int, ...], Fraction]:
    """phi(n1 P1 + ... + nr Pr) for every n in prod {0..box_i}."""
    return {
        n: phi(scaled_sum(polys, n))
        for n in itertools.product(*[range(b + 1) for b in box])
    }


def _finite_difference(
    values: dict[tuple[int, ...], Fraction], alpha: tuple[int, ...]
) -> Fraction:
    """Iterated forward difference of the grid at the origin."""
    total = Fraction(0)
    for beta in itertools.product(*[range(a + 1) for a in alpha]):
        sign = -1 if sum(a - b for a, b in zip(alpha, beta)) % 2 else 1
        weight = 1
        for a, b in zip(alpha, beta):
            weight *= math.comb(a, b)
        total += sign * weight * values[beta]
    return total


class MixedPolynomial(_Frozen):
    """Expansion of n -> phi(n1 P1 + ... + nr Pr) in binomial products.

    ``coefficients`` maps exponent vectors alpha to the coefficient of
    prod_i binom(n_i, alpha_i); absent keys are zero.
    """

    __slots__ = _fields = ("arity", "coefficients")

    def __init__(self, arity: int, coefficients: dict[tuple[int, ...], Fraction]):
        self._set(arity, coefficients)

    def evaluate(self, n: Sequence[int]) -> Fraction:
        if len(n) != self.arity:
            raise ValueError("evaluation point has the wrong arity")
        if any(x < 0 for x in n):
            raise ValueError("evaluation wants nonnegative integers")
        total = Fraction(0)
        for alpha, c in self.coefficients.items():
            term = c
            for ni, ai in zip(n, alpha):
                term *= math.comb(ni, ai)
                if term == 0:
                    break
            total += term
        return total


def mixed_polynomial(phi: Valuation, polys: Sequence[Polytope]) -> MixedPolynomial:
    """Fit the binomial-basis polynomial for phi on dilates of the polys.

    Evaluates phi on the grid {0..D}^r with D the dimension of the total
    Minkowski sum, takes iterated finite differences at the origin, and
    double-checks the result against the grid and one point beyond it.
    """
    polys = [_require_polytope(P) for P in polys]
    if not polys:
        raise ValueError("need at least one polytope")
    r = len(polys)
    D = minkowski_sum_all(polys).dim
    values = _grid_values(phi, polys, [D] * r)
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for alpha in itertools.product(range(D + 1), repeat=r):
        if sum(alpha) > D:
            continue
        c = _finite_difference(values, alpha)
        if c:
            coeffs[alpha] = c
    poly = MixedPolynomial(r, coeffs)
    for n, expected in values.items():
        if poly.evaluate(n) != expected:
            raise ReconstructionError(
                f"{phi.name} is not reproduced on the evaluation grid at {n}"
            )
    probe = (D + 1,) + (1,) * (r - 1)
    if poly.evaluate(probe) != phi(scaled_sum(polys, probe)):
        raise ReconstructionError(
            f"{phi.name} deviates from its degree-{D} fit beyond the grid"
        )
    return poly


def shift_valuation(phi: Valuation, Q: Polytope) -> Valuation:
    """The valuation P -> phi(P + Q)."""
    Q = _require_polytope(Q)
    if phi.lattice_requirement == "Z" and not Q.is_integral:
        raise LatticeMismatch("shift polytope must have integer vertices")
    return Valuation(
        f"{phi.name}+shift",
        lambda P: phi(minkowski_sum_all((P, Q))),
        phi.lattice_requirement,
    )


class HStarVector(_Frozen):
    """Coefficients h_i with phi(nP) = sum_i h_i * binom(n + r - i, r)."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[Fraction, ...]):
        self._set(entries)

    @property
    def degree(self) -> int:
        return len(self.entries) - 1

    def evaluate(self, n: int) -> Fraction:
        r = self.degree
        return sum(
            (h * math.comb(n + r - i, r) for i, h in enumerate(self.entries)),
            Fraction(0),
        )


def h_star_vector(phi: Valuation, P: Polytope) -> HStarVector:
    """The h-vector of phi on dilates of P, r = dim P.

    The system phi(nP) = sum_i h_i binom(n + r - i, r), n = 0..r, is
    lower unitriangular, and its inverse is read off the generating
    function sum_n phi(nP) t^n = h(t) / (1 - t)^(r+1):
    h_i = sum_{j <= i} (-1)^j binom(r + 1, j) phi((i - j) P).  The fit is
    verified at n = r + 1.
    """
    P = _require_polytope(P)
    r = P.dim
    vals = [phi(dilate(P, n)) for n in range(r + 2)]
    h = HStarVector(tuple(
        sum(((-1) ** j * math.comb(r + 1, j) * vals[i - j] for j in range(i + 1)), Fraction(0))
        for i in range(r + 1)
    ))
    if h.evaluate(r + 1) != vals[r + 1]:
        raise ReconstructionError(
            f"{phi.name} on dilates of this polytope is not a degree-{r} "
            "polynomial in the binomial basis"
        )
    return h


class MonotoneViolation(_Frozen):
    __slots__ = _fields = ("simplex_vertices", "facet_vertices", "value")

    def __init__(self, simplex_vertices: tuple, facet_vertices: tuple | None, value: Fraction):
        self._set(simplex_vertices, facet_vertices, value)


class WeakMonotoneReport(_Frozen):
    __slots__ = _fields = ("valuation", "trials", "checked", "violations")

    def __init__(
        self, valuation: str, trials: int, checked: int, violations: tuple[MonotoneViolation, ...]
    ):
        self._set(valuation, trials, checked, violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def weak_hstar_monotone_check(
    phi: Valuation,
    *,
    trials: int = 100,
    ambient_dim: int = 2,
    seed: int = 0,
) -> WeakMonotoneReport:
    """Search lattice simplices S and their facets F for a violation of
    phi(relint S) + phi(relint F) >= 0.

    Relative-interior values come from the alternating face sum.  A
    dimension-zero simplex has no facet; the condition there is
    phi(relint S) >= 0 on its own.
    """
    rng = random.Random(seed)
    checked = 0
    violations: list[MonotoneViolation] = []
    for _ in range(trials):
        S = random_lattice_simplex(rng, ambient_dim, bound=3)
        inner = euler_relint_value(phi, S)
        if S.dim == 0:
            checked += 1
            if inner < 0:
                violations.append(MonotoneViolation(S.vertices, None, inner))
            continue
        for face in (F for F in face_lattice(S) if F.dim == S.dim - 1):
            value = inner + euler_relint_value(phi, face.polytope)
            checked += 1
            if value < 0:
                violations.append(
                    MonotoneViolation(S.vertices, face.polytope.vertices, value)
                )
    return WeakMonotoneReport(phi.name, trials, checked, tuple(violations))


class ConformanceReport(_Frozen):
    __slots__ = _fields = ("valuation", "translation_checks", "additivity_checks", "failures")

    def __init__(
        self, valuation: str, translation_checks: int, additivity_checks: int, failures: tuple[str, ...]
    ):
        self._set(valuation, translation_checks, additivity_checks, failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _integral_split(rng: random.Random, ambient_dim: int):
    """A lattice box cut by an integer axis hyperplane; every piece stays
    integral, which Z-restricted valuations need."""
    for _ in range(64):
        B = random_lattice_box(rng, ambient_dim)
        lo = [min(v[i] for v in B.vertices) for i in range(ambient_dim)]
        hi = [max(v[i] for v in B.vertices) for i in range(ambient_dim)]
        wide = [i for i in range(ambient_dim) if hi[i] - lo[i] >= 2]
        if not wide:
            continue
        i = rng.choice(wide)
        c = rng.randint(int(lo[i]) + 1, int(hi[i]) - 1)
        a = tuple(1 if j == i else 0 for j in range(ambient_dim))
        return B, a, Fraction(c)
    return None


def _generic_split(rng: random.Random, ambient_dim: int):
    for _ in range(64):
        P = random_rational_polytope(rng, ambient_dim)
        if P.dim == 0:
            continue
        a = random_direction(rng, ambient_dim, bound=4)
        vals = [dot(a, v) for v in P.vertices]
        m, M = min(vals), max(vals)
        if m == M:
            continue
        c = m + (M - m) * Fraction(rng.randint(1, 7), 8)
        return P, a, c
    return None


def check_valuation(
    phi: Valuation,
    *,
    ambient_dim: int = 2,
    trials: int = 25,
    seed: int = 0,
) -> ConformanceReport:
    """Seeded conformance suite for the valuation contract.

    Checks phi(EMPTY) = 0, translation invariance under random lattice
    shifts, and additivity across hyperplane splits: with P cut into
    left and right pieces meeting in a section, phi must satisfy
    phi(P) = phi(left) + phi(right) - phi(section).
    """
    rng = random.Random(seed)
    failures: list[str] = []
    if phi(EMPTY) != 0:
        failures.append("phi(EMPTY) is nonzero")
    integral_only = phi.lattice_requirement == "Z"

    translation_checks = 0
    for _ in range(trials):
        if integral_only:
            P = random_lattice_polytope(rng, ambient_dim)
            t = [rng.randint(-4, 4) for _ in range(ambient_dim)]
        else:
            P = random_rational_polytope(rng, ambient_dim)
            t = [
                Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                for _ in range(ambient_dim)
            ]
        if phi(translate(P, t)) != phi(P):
            failures.append(
                f"translation invariance fails at {P.vertices} shifted by {tuple(t)}"
            )
        translation_checks += 1

    additivity_checks = 0
    for _ in range(trials):
        found = (
            _integral_split(rng, ambient_dim)
            if integral_only
            else _generic_split(rng, ambient_dim)
        )
        if found is None:
            continue
        P, a, c = found
        left = cut_halfspace(P, a, c)
        right = cut_halfspace(P, tuple(-x for x in a), -c)
        middle = hyperplane_section(P, a, c)
        if phi(P) != phi(left) + phi(right) - phi(middle):
            failures.append(f"additivity fails on a split of {P.vertices}")
        additivity_checks += 1

    return ConformanceReport(
        phi.name, translation_checks, additivity_checks, tuple(failures)
    )
