"""Exact-arithmetic laboratory for Cesaro averaging of positive operators.

The package builds two families of operators whose averaging behaviour is
delicate enough to need exact verification: operators on null sequences
presented by infinite weighted ladder graphs, and a block-diagonal family of
2x2 doubly stochastic matrices on bounded sequences.  Norms, orbits, Cesaro
averages and fixed-space certificates are all computed in arbitrary
precision rational arithmetic; every headline claim is re-derivable through
at least two independent routes.
"""

from .core import (
    Rational,
    SparseVector,
    as_rational,
    cesaro_geometric,
    cesaro_geometric_sum,
    fraction_str,
)
from .graphop import (
    C0Graph,
    Path,
    PathCount,
    apply,
    apply_adjoint,
    count_paths_to,
    enumerate_paths,
    graph_from_edges,
    operator_norm_truncated,
    power_apply,
    power_norm_truncated,
)
from .ladder import (
    LadderFamilyGraph,
    bottom_weight,
    make_counterexample,
    make_g0,
    make_gk,
    orbit_predicate,
    rung_position,
)
from .blockdiag import (
    Block2x2,
    b_coeff,
    block_cesaro,
    sup_deviation,
    t_block,
)
from .ergodic import (
    BudgetExceeded,
    CesaroTrace,
    CheckResult,
    FixedSpaceCertificate,
    OperatorHandle,
    cesaro_apply,
    cesaro_trace,
    fixed_space_certificate,
    graph_handle,
    power_mean_ergodic_check,
    replay_certificate,
    scalar_rotation_check,
    weak_compactness_witness,
)
from .sweeps import combined_cesaro_sup_norms

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "SparseVector",
    "as_rational",
    "cesaro_geometric",
    "cesaro_geometric_sum",
    "fraction_str",
    "C0Graph",
    "Path",
    "PathCount",
    "apply",
    "apply_adjoint",
    "count_paths_to",
    "enumerate_paths",
    "graph_from_edges",
    "operator_norm_truncated",
    "power_apply",
    "power_norm_truncated",
    "LadderFamilyGraph",
    "bottom_weight",
    "make_counterexample",
    "make_g0",
    "make_gk",
    "orbit_predicate",
    "rung_position",
    "Block2x2",
    "b_coeff",
    "block_cesaro",
    "sup_deviation",
    "t_block",
    "BudgetExceeded",
    "CesaroTrace",
    "CheckResult",
    "FixedSpaceCertificate",
    "OperatorHandle",
    "cesaro_apply",
    "cesaro_trace",
    "fixed_space_certificate",
    "graph_handle",
    "power_mean_ergodic_check",
    "replay_certificate",
    "scalar_rotation_check",
    "weak_compactness_witness",
    "combined_cesaro_sup_norms",
]
