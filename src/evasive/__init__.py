"""Point sets in PG(n, q) meeting every s-space in at most r points.

Constructions (explicit curves, ovoids, graph-based sets, spread products,
and seeded randomized ones), an exact projection verifier with witnesses,
and closed-form size bounds, all over exact GF(p^k) arithmetic.
"""

from .bounds import (
    BoundEntry,
    BoundsReport,
    best_upper_bound,
    exponent_table,
    gv_lower_size,
    pigeonhole_bound,
    rao_bound,
    rao_constant,
    rao_decomposition,
)
from .constructions import (
    BipartiteGraph,
    elliptic_ovoid,
    graph_curve_32,
    graph_curve_for_prime_power,
    monomial_curve,
    monomial_curve_affine_variant,
    product_construction,
    product_recipe,
    rational_normal_curve,
    trimmed_incidence_graph,
)
from .errors import BudgetExceeded, ParameterError
from .gf import FieldSpec, make_extension, make_field
from .jsonio import pointset_from_json_bytes, pointset_to_json_bytes
from .projgeom import (
    PointSet,
    SubspaceBasis,
    all_points,
    count_points,
    embed_copy,
    field_reduction_spread,
    gaussian_binomial,
    normalize,
)
from .randomized import (
    HomogeneousForm,
    Prng,
    cleanup,
    cubic_92_construction,
    gv_construction,
    gv_keep_probability,
    hypersurface_points,
    quadric_42_construction,
    random_irreducible_quadric,
)
from .verifier import (
    ViolationWitness,
    find_violation,
    is_proper,
    is_rs_set,
    max_in_s_space,
    oracle_max_in_s_space,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "BoundEntry",
    "BoundsReport",
    "BudgetExceeded",
    "FieldSpec",
    "HomogeneousForm",
    "ParameterError",
    "PointSet",
    "Prng",
    "SubspaceBasis",
    "ViolationWitness",
    "all_points",
    "best_upper_bound",
    "cleanup",
    "count_points",
    "cubic_92_construction",
    "elliptic_ovoid",
    "embed_copy",
    "exponent_table",
    "field_reduction_spread",
    "find_violation",
    "gaussian_binomial",
    "graph_curve_32",
    "graph_curve_for_prime_power",
    "gv_construction",
    "gv_keep_probability",
    "gv_lower_size",
    "hypersurface_points",
    "is_proper",
    "is_rs_set",
    "make_extension",
    "make_field",
    "max_in_s_space",
    "monomial_curve",
    "monomial_curve_affine_variant",
    "normalize",
    "oracle_max_in_s_space",
    "pigeonhole_bound",
    "pointset_from_json_bytes",
    "pointset_to_json_bytes",
    "product_construction",
    "product_recipe",
    "quadric_42_construction",
    "random_irreducible_quadric",
    "rao_bound",
    "rao_constant",
    "rao_decomposition",
    "rational_normal_curve",
    "trimmed_incidence_graph",
]
