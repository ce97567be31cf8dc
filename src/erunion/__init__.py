"""Connectivity bounds for unions of Erdos-Renyi random graphs.

Analytic bounds on the algebraic connectivity (second-smallest Laplacian
eigenvalue) of unions of G(n, p) samples, the minimum union size for the
expected-connectivity criterion, and a probability lower bound on union
connectivity, validated against Monte-Carlo sampling and exact enumeration.
"""

__version__ = "0.1.0"

from .bounds import (bound_report, n_min, n_min_asymptotic, paley_zygmund_bound,
                     union_effective_params)
from .errors import (CapabilityError, ErUnionError, InfeasibleError,
                     ValidationError)
from .graphs import (GraphSample, ModelParams, sample_graph, sample_union,
                     write_edgelist)
from .moments import eigenvalue_moment
from .montecarlo import McConfig, run_mc, wilson_interval
from .oracle import enumerate_exact, exact_union_report
from .spectral import EPS_ZERO, SPECTRAL_N_CEILING, line_graph_lambda_min

__all__ = [
    "__version__",
    "bound_report", "n_min", "n_min_asymptotic", "paley_zygmund_bound",
    "union_effective_params",
    "CapabilityError", "ErUnionError", "InfeasibleError", "ValidationError",
    "GraphSample", "ModelParams", "sample_graph", "sample_union", "write_edgelist",
    "eigenvalue_moment",
    "McConfig", "run_mc", "wilson_interval",
    "enumerate_exact", "exact_union_report",
    "EPS_ZERO", "SPECTRAL_N_CEILING", "line_graph_lambda_min",
]
