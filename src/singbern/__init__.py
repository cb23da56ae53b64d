"""Bernstein-type approximation around an interior singularity.

A modified degree-n operator that blends the target function into a chord
across a shrinking zone around the singular point, together with the
weighted sup-norms and second-order moduli of smoothness needed to verify
its stability, second-derivative bounds, and direct/inverse convergence
rates numerically.
"""

from .basis import (
    basis_matrix,
    ksum,
)
from .bridge import (
    BridgeNodes,
    InvalidNodesError,
    chord,
    compute_nodes,
    min_valid_n,
    psi,
    psi_derivatives,
    surrogate_eval,
)
from .moduli import (
    h_ladder,
    ladder_moduli,
)
from .operators import (
    bbar_apply,
    bbar_second_derivative,
    bernstein_apply,
    build_surrogate,
)
from .weight import (
    EvaluationError,
    GridSpec,
    SingularWeight,
    TestFunction,
    corpus,
    corpus_member,
    delta_n,
    grid_points,
    phi,
    weighted_sup_norm,
    weighted_values,
)

__version__ = "0.1.0"

__all__ = [
    "BridgeNodes", "EvaluationError", "GridSpec", "InvalidNodesError",
    "SingularWeight", "TestFunction", "basis_matrix", "bbar_apply",
    "bbar_second_derivative", "bernstein_apply", "build_surrogate", "chord",
    "compute_nodes", "corpus", "corpus_member", "delta_n", "grid_points",
    "h_ladder", "ksum", "ladder_moduli", "min_valid_n", "phi", "psi",
    "psi_derivatives", "surrogate_eval", "weighted_sup_norm", "weighted_values",
]
