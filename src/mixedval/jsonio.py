"""JSON instance files and dissection serialization.

Rational coordinates travel as strings "p/q" in lowest terms.  Integers
may be written bare on input and come back bare on output, so lattice
instances stay plain JSON numbers.  Writers emit keys in a fixed order;
identical data produces identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .geometry import InexactSum, Polytope, _Frozen, contains, convex_hull

if TYPE_CHECKING:
    from .dissections import Dissection

__all__ = [
    "InstanceError",
    "Instance",
    "parse_rational",
    "format_rational",
    "instance_from_json",
    "instance_to_json",
    "load_instance",
    "instance_digest",
    "canonical_dumps",
    "points_to_json",
    "points_from_json",
    "dissection_to_json",
    "dissection_from_json",
]


class InstanceError(ValueError):
    """Malformed instance or dissection document."""


def parse_rational(x: Any) -> Fraction:
    """Read an exact rational from a JSON scalar: int, "p", or "p/q"."""
    if isinstance(x, bool):
        raise InstanceError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"not a rational: {x!r}") from exc
    raise InstanceError(f"not a rational: {x!r}")


def format_rational(x: Fraction) -> int | str:
    """Bare int when the value is integral, "p/q" in lowest terms otherwise."""
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _json_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise InstanceError(f"{what} must be a list, got {value!r}")
    return value


def points_from_json(rows: Any, dim: int) -> list[tuple[Fraction, ...]]:
    if not isinstance(rows, list) or not rows:
        raise InstanceError("a polytope needs a nonempty list of points")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise InstanceError(f"point {row!r} does not have {dim} coordinates")
        out.append(tuple(parse_rational(c) for c in row))
    return out


def points_to_json(points: Sequence[Sequence[Fraction]]) -> list[list[int | str]]:
    return [[format_rational(c) for c in p] for p in points]


class Instance(_Frozen):
    """Parsed instance file: named polytopes over a common lattice."""

    __slots__ = _fields = ("lattice", "dim", "polytopes", "pairs")

    def __init__(
        self,
        lattice: str,
        dim: int,
        polytopes: dict[str, Polytope],
        pairs: tuple[tuple[str, str], ...] = (),
    ):
        self._set(lattice, dim, polytopes, pairs)

    def family(self) -> list[Polytope]:
        """The polytopes in file order."""
        return list(self.polytopes.values())


def instance_from_json(doc: Any) -> Instance:
    if not isinstance(doc, Mapping):
        raise InstanceError("instance must be a JSON object")
    lattice = doc.get("lattice", "Z")
    if lattice not in ("Z", "Q"):
        raise InstanceError(f"lattice must be 'Z' or 'Q', got {lattice!r}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InstanceError(f"dim must be a positive integer, got {dim!r}")
    raw = doc.get("polytopes")
    if not isinstance(raw, Mapping) or not raw:
        raise InstanceError("instance needs a nonempty 'polytopes' object")
    polytopes: dict[str, Polytope] = {}
    for name, rows in raw.items():
        pts = points_from_json(rows, dim)
        if lattice == "Z":
            for p in pts:
                if any(c.denominator != 1 for c in p):
                    raise InstanceError(
                        f"lattice 'Z' requires integer coordinates, "
                        f"offending polytope: {name!r}"
                    )
        polytopes[str(name)] = convex_hull(pts, lattice=lattice)
    pairs: list[tuple[str, str]] = []
    for entry in _json_list(doc.get("pairs", []), "'pairs'"):
        if not isinstance(entry, list) or len(entry) != 2:
            raise InstanceError(f"pair {entry!r} must name two polytopes")
        a, b = str(entry[0]), str(entry[1])
        for name in (a, b):
            if name not in polytopes:
                raise InstanceError(f"pair references unknown polytope {name!r}")
        if not contains(polytopes[b], polytopes[a]):
            raise InstanceError(f"pair ({a!r}, {b!r}) is not nested")
        pairs.append((a, b))
    return Instance(lattice, dim, polytopes, tuple(pairs))


def instance_to_json(inst: Instance) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "lattice": inst.lattice,
        "dim": inst.dim,
        "polytopes": {
            name: points_to_json(P.vertices) for name, P in inst.polytopes.items()
        },
    }
    if inst.pairs:
        doc["pairs"] = [list(p) for p in inst.pairs]
    return doc


def load_instance(path: str) -> Instance:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path} is not valid JSON: {exc}") from exc
    return instance_from_json(doc)


def canonical_dumps(doc: Any) -> str:
    """Compact, key-sorted serialization used for digests."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def instance_digest(inst: Instance) -> str:
    """Digest of the parsed content, independent of input formatting."""
    return hashlib.sha256(canonical_dumps(instance_to_json(inst)).encode()).hexdigest()


def dissection_to_json(D: Dissection) -> dict[str, Any]:
    """Cells with vertex lists, summand decomposition, removed facets.

    Removed facets are indices into the facet list of the rebuilt cell,
    which is deterministic in the vertex set, so the document restores
    the exact half-open state.
    """
    doc: dict[str, Any] = {
        "target": points_to_json(D.target.vertices),
        "opener": None if D.opener is None else [format_rational(c) for c in D.opener],
        "factors": (
            None
            if D.factors is None
            else [points_to_json(P.vertices) for P in D.factors]
        ),
        "cells": [
            {
                "vertices": points_to_json(cell.cell.vertices),
                "summands": [points_to_json(S.vertices) for S in cell.summands],
                "removed": sorted(cell.removed),
            }
            for cell in D.cells
        ],
    }
    return doc


def dissection_from_json(doc: Any) -> Dissection:
    from .dissections import Dissection, _simplex_cell

    if not isinstance(doc, Mapping):
        raise InstanceError("dissection must be a JSON object")
    try:
        target_rows = doc["target"]
        cell_docs = doc["cells"]
    except KeyError as exc:
        raise InstanceError(f"dissection document lacks {exc}") from exc
    if not isinstance(target_rows, list) or not target_rows:
        raise InstanceError("dissection needs a nonempty 'target'")
    dim = len(_json_list(target_rows[0], "a target point"))
    if dim < 1:
        raise InstanceError("target points need at least one coordinate")
    target = convex_hull(points_from_json(target_rows, dim))
    opener_row = doc.get("opener")
    opener = (
        None
        if opener_row is None
        else points_from_json([opener_row], dim)[0]
    )
    factors_rows = doc.get("factors")
    factors = (
        None
        if factors_rows is None
        else tuple(
            convex_hull(points_from_json(rows, dim))
            for rows in _json_list(factors_rows, "'factors'")
        )
    )
    cells = []
    for entry in _json_list(cell_docs, "'cells'"):
        if not isinstance(entry, Mapping):
            raise InstanceError("each cell must be a JSON object")
        try:
            vertex_rows, summand_rows = entry["vertices"], entry["summands"]
        except KeyError as exc:
            raise InstanceError(f"cell lacks {exc}") from exc
        vertices = tuple(sorted(set(points_from_json(vertex_rows, dim))))
        summands = tuple(
            convex_hull(points_from_json(rows, dim))
            for rows in _json_list(summand_rows, "'summands'")
        )
        if not summands:
            raise InstanceError("a cell needs at least one summand")
        if factors is not None and len(summands) != len(factors):
            raise InstanceError("a cell needs one summand per factor")
        if any(len(S.vertices) != S.dim + 1 for S in summands):
            raise InstanceError("cell summands must be simplices")
        try:
            cell = _simplex_cell(summands)
        except InexactSum as exc:
            raise InstanceError("cell is not an exact sum of its summands") from exc
        if cell.cell.vertices != vertices:
            raise InstanceError("cell summands do not add up to its vertices")
        removed = _json_list(entry.get("removed", []), "'removed'")
        nfacets = len(cell.cell.facets)
        for i in removed:
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < nfacets:
                raise InstanceError(f"removed facet index {i!r} out of range")
        cells.append(cell.with_removed(frozenset(removed)))
    return Dissection(target, tuple(cells), opener=opener, factors=factors)
