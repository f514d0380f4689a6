"""Exact mixed valuations of lattice and rational polytopes.

Everything runs over the rationals with no floating point anywhere:
convex hulls, face lattices, and Minkowski sums in
:mod:`mixedval.geometry`; lattice-point and relative-interior counting
in :mod:`mixedval.counting`; alternating-sum mixed combinations,
binomial-basis dilation polynomials, and h-vectors in
:mod:`mixedval.valuations`; half-open dissections with counting
certificates in :mod:`mixedval.dissections`; the matroid-intersection
positivity criterion in :mod:`mixedval.positivity`; JSON instance files
in :mod:`mixedval.jsonio`; randomized self-checks in
:mod:`mixedval.verify`; and a command line front end in
:mod:`mixedval.cli`.
"""

from importlib import import_module

__version__ = "0.1.0"

# each export's home module, imported on first access (PEP 562): importing
# the package loads no submodule, so a command loads only what it runs
_HOMES = {
    "counting": (
        "HalfOpenPolytope", "count_half_open", "count_lattice_points",
        "count_relint_points", "euler_relint_value", "half_open_points",
        "lattice_points", "relint_points",
    ),
    "dissections": (
        "DifferenceCertificate", "Dissection", "MixedCell", "boxcell_census",
        "boxcell_dissection", "cayley_polytope", "certify_difference",
        "certify_dilations", "certify_dissection", "difference_counts",
        "dilated_cell_counts", "fine_mixed_dissection", "generic_opener",
        "half_open_by_direction", "half_open_by_point",
        "mixed_difference_certificate", "open_dissection", "order_simplex",
        "placing_triangulation", "staircase_dissection", "staircase_refine",
    ),
    "geometry": (
        "CertificateError", "DimensionMismatch", "EMPTY", "EmptyPolytopeError",
        "Face", "GeometryError", "InexactSum", "LatticeMismatch", "NotGeneric",
        "Polytope", "contains", "convex_hull", "cut_halfspace", "dilate",
        "exact_volume", "face_lattice", "hyperplane_section", "minkowski_sum",
        "minkowski_sum_all", "origin_polytope", "point_polytope", "scale",
        "scaled_sum", "translate",
    ),
    "jsonio": (
        "Instance", "InstanceError", "canonical_dumps", "dissection_from_json",
        "dissection_to_json", "format_rational", "instance_digest",
        "instance_from_json", "instance_to_json", "load_instance", "parse_rational",
    ),
    "positivity": (
        "MatroidOracle", "Segment", "candidate_segments", "cylinder_lower_bound",
        "decide_positive", "direction_matroid", "matroid_intersection",
        "owner_matroid", "positivity_witness",
    ),
    "samplers": (
        "planar_translation_classes", "random_direction", "random_lattice_box",
        "random_lattice_polytope", "random_lattice_simplex", "random_nested_pair",
        "random_rational_polytope", "random_relint_point",
    ),
    "valuations": (
        "ConformanceReport", "HStarVector", "MixedPolynomial", "MonotoneViolation",
        "ReconstructionError", "Valuation", "WeakMonotoneReport",
        "builtin_valuations", "check_valuation", "cm", "cm_terms", "h_star_vector",
        "mixed_polynomial", "shift_valuation", "weak_hstar_monotone_check",
    ),
    "verify": (
        "SuiteResult", "available_suites", "run_suite", "run_suites",
    ),
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
