"""Point sets in PG(n, q) meeting every s-space in at most r points.

Constructions (explicit curves, ovoids, graph-based sets, spread products,
and seeded randomized ones), an exact projection verifier with witnesses,
and closed-form size bounds, all over exact GF(p^k) arithmetic.

Public names load their module on first use (PEP 562), so importing the
package, or running one CLI verb, loads only the modules that verb needs:
``bounds`` and ``table`` run without numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "arith": ("count_points", "gaussian_binomial"),
    "bounds": (
        "BoundEntry",
        "BoundsReport",
        "best_upper_bound",
        "exponent_table",
        "gv_lower_size",
        "pigeonhole_bound",
        "rao_bound",
        "rao_constant",
        "rao_decomposition",
    ),
    "constructions": (
        "BipartiteGraph",
        "elliptic_ovoid",
        "graph_curve_32",
        "graph_curve_for_prime_power",
        "monomial_curve",
        "monomial_curve_affine_variant",
        "product_construction",
        "rational_normal_curve",
        "trimmed_incidence_graph",
    ),
    "errors": ("BudgetExceeded", "ParameterError"),
    "gf": ("FieldSpec", "make_extension", "make_field"),
    "jsonio": ("pointset_from_json_bytes", "pointset_to_json_bytes"),
    "projgeom": ("PointSet",),
    "randomized": (
        "HomogeneousForm",
        "Prng",
        "cleanup",
        "cubic_92_construction",
        "gv_construction",
        "gv_keep_probability",
        "hypersurface_points",
        "quadric_42_construction",
        "random_irreducible_quadric",
    ),
    "verifier": (
        "ViolationWitness",
        "find_violation",
        "is_proper",
        "is_rs_set",
        "max_in_s_space",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
