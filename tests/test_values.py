"""The value classes keep the contract of the frozen dataclasses they
replaced: constructor, equality and hash over the compared fields, repr,
Facet ordering and immutability.  Each is checked against a dataclass
twin built here."""

import copy
import pickle
from dataclasses import field, make_dataclass
from fractions import Fraction
from inspect import signature

import pytest

from mixedval import (
    ConformanceReport,
    DifferenceCertificate,
    Dissection,
    Face,
    HalfOpenPolytope,
    HStarVector,
    Instance,
    MixedCell,
    MixedPolynomial,
    MonotoneViolation,
    Polytope,
    Segment,
    SuiteResult,
    Valuation,
    WeakMonotoneReport,
    convex_hull,
    face_lattice,
)
from mixedval.dissections import _simplex_cell
from mixedval.geometry import Facet

T = convex_hull([(0, 0), (1, 0), (0, 1)])
E1 = convex_hull([(0, 0), (1, 0)])
E2 = convex_hull([(0, 0), (0, 1)])
CELL = _simplex_cell((E1, E2))


def _count(P):
    return Fraction(1)


# (class, constructor arguments, arguments that differ in one compared
# field, the repr of the first); a field the dataclass did not show is
# listed under HIDDEN, one it did not compare under UNCOMPARED
CASES = [
    (Facet, ((1, 0), Fraction(1, 2)), ((1, 0), Fraction(1)),
     "Facet(normal=(1, 0), offset=Fraction(1, 2))"),
    (Face, (0, frozenset({0}), E1), (0, frozenset({1}), E1),
     "Face(dim=0, vertex_indices=frozenset({0}), polytope=Polytope(dim=1, ambient=2, nverts=2, lattice=Z))"),
    (HalfOpenPolytope, (T, frozenset({0})), (T, frozenset({1})),
     "HalfOpenPolytope(base=Polytope(dim=2, ambient=2, nverts=3, lattice=Z), removed=frozenset({0}))"),
    (Segment, (0, ((0, 0), (2, 0)), (1, 0)), (1, ((0, 0), (2, 0)), (1, 0)),
     "Segment(owner=0, endpoints=((0, 0), (2, 0)), direction=(1, 0))"),
    (MixedCell, ((E1, E2), CELL.cell, frozenset(), CELL.product), ((E1, E2), CELL.cell, frozenset({1}), CELL.product),
     "MixedCell(summands=(Polytope(dim=1, ambient=2, nverts=2, lattice=Z), Polytope(dim=1, ambient=2, nverts=2, lattice=Z)), cell=Polytope(dim=2, ambient=2, nverts=4, lattice=Z), removed=frozenset())"),
    (Dissection, (T, (CELL,)), (T, (CELL,), (Fraction(1, 3), Fraction(1, 3))),
     "Dissection(target=Polytope(dim=2, ambient=2, nverts=3, lattice=Z), cells=(MixedCell(summands=(Polytope(dim=1, ambient=2, nverts=2, lattice=Z), Polytope(dim=1, ambient=2, nverts=2, lattice=Z)), cell=Polytope(dim=2, ambient=2, nverts=4, lattice=Z), removed=frozenset()),), opener=None, factors=None)"),
    (DifferenceCertificate, ((E1,), (T,), None, (0,), (1, 2)), ((E1,), (T,), None, (0,), (1,)),
     "DifferenceCertificate(inner_factors=(Polytope(dim=1, ambient=2, nverts=2, lattice=Z),), outer_factors=(Polytope(dim=2, ambient=2, nverts=3, lattice=Z),), dissection=None, inner_cells=(0,), difference_cells=(1, 2))"),
    (Instance, ("Z", 2, {"T": T}), ("Z", 2, {"T": T}, (("T", "T"),)),
     "Instance(lattice='Z', dim=2, polytopes={'T': Polytope(dim=2, ambient=2, nverts=3, lattice=Z)}, pairs=())"),
    (Valuation, ("count", _count, "Z"), ("count", _count),
     "Valuation(name='count', lattice_requirement='Z')"),
    (MixedPolynomial, (1, {(1,): Fraction(2)}), (2, {(1,): Fraction(2)}),
     "MixedPolynomial(arity=1, coefficients={(1,): Fraction(2, 1)})"),
    (HStarVector, ((Fraction(1), Fraction(4)),), ((Fraction(1),),),
     "HStarVector(entries=(Fraction(1, 1), Fraction(4, 1)))"),
    (MonotoneViolation, (((0,), (1,)), None, Fraction(-1)), (((0,), (1,)), ((0,),), Fraction(-1)),
     "MonotoneViolation(simplex_vertices=((0,), (1,)), facet_vertices=None, value=Fraction(-1, 1))"),
    (WeakMonotoneReport, ("dvol", 3, 5, ()), ("dvol", 3, 6, ()),
     "WeakMonotoneReport(valuation='dvol', trials=3, checked=5, violations=())"),
    (ConformanceReport, ("vol", 2, 4, ("bad",)), ("vol", 2, 4, ()),
     "ConformanceReport(valuation='vol', translation_checks=2, additivity_checks=4, failures=('bad',))"),
    (SuiteResult, ("sum-algebra", True, 7), ("sum-algebra", False, 7),
     "SuiteResult(name='sum-algebra', passed=True, checked=7, counterexample=None, error=None)"),
]

# fields with their defaults, in constructor order
FIELDS = {
    Facet: ["normal", "offset"],
    Face: ["dim", "vertex_indices", "polytope"],
    HalfOpenPolytope: ["base", "removed"],
    Segment: ["owner", "endpoints", "direction"],
    MixedCell: ["summands", "cell", ("removed", frozenset()), ("product", None)],
    Dissection: ["target", "cells", ("opener", None), ("factors", None)],
    DifferenceCertificate: ["inner_factors", "outer_factors", "dissection", "inner_cells", "difference_cells"],
    Instance: ["lattice", "dim", "polytopes", ("pairs", ())],
    Valuation: ["name", "func", ("lattice_requirement", "any")],
    MixedPolynomial: ["arity", "coefficients"],
    HStarVector: ["entries"],
    MonotoneViolation: ["simplex_vertices", "facet_vertices", "value"],
    WeakMonotoneReport: ["valuation", "trials", "checked", "violations"],
    ConformanceReport: ["valuation", "translation_checks", "additivity_checks", "failures"],
    SuiteResult: ["name", "passed", "checked", ("counterexample", None), ("error", None)],
}
HIDDEN = {(MixedCell, "product"), (Valuation, "func")}
UNCOMPARED = {(MixedCell, "product")}


def _twin(cls):
    spec = []
    for entry in FIELDS[cls]:
        name, default = entry if isinstance(entry, tuple) else (entry, None)
        kwargs = {"repr": (cls, name) not in HIDDEN, "compare": (cls, name) not in UNCOMPARED}
        if isinstance(entry, tuple):
            kwargs["default"] = default
        spec.append((name, object, field(**kwargs)))
    return make_dataclass(cls.__name__, spec, frozen=True, order=cls is Facet)


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, args, other, shown", CASES, ids=[c[0].__name__ for c in CASES])
def test_a_value_class_behaves_as_its_dataclass_twin(cls, args, other, shown):
    twin = _twin(cls)
    a, b, c = cls(*args), cls(*args), cls(*other)
    ta, tb, tc = twin(*args), twin(*args), twin(*other)
    assert repr(a) == repr(ta) == shown
    assert (a == b, a == c, a != c) == (ta == tb, ta == tc, ta != tc) == (True, False, True)
    assert _hash(a) == _hash(b) == _hash(ta)
    assert a != ta and ta != a  # equal only within one class
    for entry in FIELDS[cls]:
        name = entry[0] if isinstance(entry, tuple) else entry
        assert getattr(a, name) == getattr(ta, name)
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.undeclared = 1
    assert pickle.loads(pickle.dumps(a)) == copy.copy(a) == copy.deepcopy(a) == a


def test_the_constructor_signatures_are_those_of_the_twins():
    for cls in FIELDS:
        ours = [(p.name, p.default) for p in signature(cls).parameters.values()]
        assert ours == [(p.name, p.default) for p in signature(_twin(cls)).parameters.values()]


def test_a_cell_is_compared_and_hashed_without_its_product():
    bare = MixedCell((E1, E2), CELL.cell)
    assert bare == CELL and hash(bare) == hash(CELL)
    assert bare.count() == CELL.count() == 4


def test_facets_sort_by_normal_then_offset():
    facets = [Facet((0, 1), Fraction(1)), Facet((-1, 0), Fraction(0)), Facet((0, 1), Fraction(1, 2))]
    twin = _twin(Facet)
    assert [repr(f) for f in sorted(facets)] == [repr(twin(f.normal, f.offset)) for f in sorted(twin(f.normal, f.offset) for f in facets)]
    assert sorted(facets) == [facets[1], facets[2], facets[0]]
    a, b = facets[2], facets[0]
    assert (a < b, a <= b, a > b, a >= b, a <= a, a >= a) == (True, True, False, False, True, True)
    with pytest.raises(TypeError):
        a < (0, 1)


def test_a_polytope_is_equal_and_hashed_over_its_fields():
    P = Polytope(2, T.vertices, "Z")
    assert P == T and hash(P) == hash(T) == hash((2, T.vertices, "Z"))
    assert P != Polytope(2, T.vertices, "Q")
    assert repr(P) == "Polytope(dim=2, ambient=2, nverts=3, lattice=Z)"
    with pytest.raises(AttributeError):
        P.lattice = "Q"
    assert [f.dim for f in face_lattice(T)] == [0, 0, 0, 1, 1, 1, 2]
