"""Mixed discriminants of complex matrix tuples.

Numerical engines, exact trace-monomial expansions, and the flavor-anomaly
Lagrangian toolkit built on them.
"""

from .combinatorics import (
    GuardLimitError,
    cayley_hamilton_coefficient,
    count_distinct_terms,
    enumerate_partition_vectors,
    iterate_subsets,
    multinomial,
)
from .engines import (
    DEFAULT_ENGINE,
    ENGINES,
    PolydetResult,
    det_of_sum,
    polydet,
    polydet_many,
    polydet_naive,
    polydet_permutation_pair,
    polydet_subset_sum,
    polydet_trace_formula,
    polydet_volume,
)
from .matrices import (
    SingularMatrixError,
    dagger,
    det,
    identity,
    inverse,
    matrix_from_json,
    matrix_to_json,
    random_matrix,
    trace,
)
from .symbolic import (
    TraceExpansion,
    TraceMonomial,
    canonicalize,
    evaluate,
    expand_det_of_sum,
    expand_polydet,
    parse_expansion,
    render,
)

__version__ = "0.1.0"

__all__ = [
    "GuardLimitError",
    "cayley_hamilton_coefficient",
    "count_distinct_terms",
    "enumerate_partition_vectors",
    "iterate_subsets",
    "multinomial",
    "DEFAULT_ENGINE",
    "ENGINES",
    "PolydetResult",
    "det_of_sum",
    "polydet",
    "polydet_many",
    "polydet_naive",
    "polydet_permutation_pair",
    "polydet_subset_sum",
    "polydet_trace_formula",
    "polydet_volume",
    "SingularMatrixError",
    "dagger",
    "det",
    "identity",
    "inverse",
    "matrix_from_json",
    "matrix_to_json",
    "random_matrix",
    "trace",
    "TraceExpansion",
    "TraceMonomial",
    "canonicalize",
    "evaluate",
    "expand_det_of_sum",
    "expand_polydet",
    "parse_expansion",
    "render",
    "__version__",
]
