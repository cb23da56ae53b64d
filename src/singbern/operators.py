"""Degree-n operator, its singularity-modified variant, and second derivatives.

The modified operator applies the classical one to surrogate node values,
so everything reduces to weighted sums of basis rows against a coefficient
vector of length n+1.  The second derivative uses the exact second
forward-difference identity

    n (n-1) sum_{k=0}^{n-2} (v[k+2] - 2 v[k+1] + v[k]) b(n-2, k, x),

which is exact for the polynomial the operator produces; numerical
differentiation appears only in tests as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import band_start, basis_matrix, ksum
from .bridge import BridgeNodes, compute_nodes, surrogate_eval
from .weight import EvaluationError, SingularWeight

__all__ = [
    "SurrogateCoefficients",
    "collocation_matrix",
    "bernstein_apply",
    "build_surrogate",
    "bbar_apply",
    "bbar_second_derivative",
]

# Band blocks are shared by everything that evaluates on a common grid, so
# keep the last few around; each costs O(G sqrt(n)) memory for G points.
@lru_cache(maxsize=16)
def _cached_band(n: int, grid: bytes) -> tuple:
    xs = np.frombuffer(grid)
    B = basis_matrix(n, xs)
    start = band_start(n, xs)
    B.flags.writeable = False
    start.flags.writeable = False
    return start, B


def collocation_matrix(n: int, xs: np.ndarray) -> tuple:
    """``(band_start(n, xs), basis_matrix(n, xs))`` for a 1-D grid, cached per (n, grid).

    Row i of the band block holds b(n, k, xs[i]) at k = start[i] + j; the
    weights outside it (less than 1e-20 of each row) are dropped.  Both
    arrays are read-only.
    """
    return _cached_band(n, np.asarray(xs, dtype=float).tobytes())


def _band_sum(coeffs: np.ndarray, n: int, x):
    """sum_k coeffs[k] b(n, k, x) over each grid row's band, compensated.

    A scalar ``x`` is the one-point grid and gives a float.
    """
    x = np.asarray(x, dtype=float)
    start, B = collocation_matrix(n, np.atleast_1d(x))
    terms = sliding_window_view(coeffs, B.shape[1])[start]
    terms *= B
    out = ksum(terms, axis=1)
    return float(out[0]) if x.ndim == 0 else out


def bernstein_apply(values: np.ndarray, x):
    """sum_k values[k] b(n, k, x) with compensated summation.

    ``x`` may be a scalar or a 1-D grid; the degree is len(values) - 1.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("values must be a vector of n+1 >= 2 entries")
    return _band_sum(values, values.size - 1, x)


@dataclass(frozen=True, eq=False)
class SurrogateCoefficients:
    """Surrogate node values F(k/n), k = 0..n, with their bridge nodes."""

    n: int
    values: np.ndarray = field(repr=False)
    nodes: BridgeNodes

    def __post_init__(self):
        if self.values.shape != (self.n + 1,):
            raise ValueError("values must have length n+1")
        self.values.flags.writeable = False


def build_surrogate(f: Callable, n: int, w: SingularWeight) -> SurrogateCoefficients:
    """Surrogate values F(k/n) for the modified operator at degree n; read-only.

    f is never sampled on [x2, x3].  Raises InvalidNodesError when the
    bridge nodes around w.xi are invalid at this degree.
    """
    nodes = compute_nodes(n, w.xi)
    nodes.require_valid()
    t = np.arange(nodes.n + 1) / float(nodes.n)
    values = surrogate_eval(f, nodes, t)
    if not np.isfinite(values).all():
        raise EvaluationError(f"non-finite surrogate value at k/n={t[~np.isfinite(values)][0]!r}")
    return SurrogateCoefficients(n=nodes.n, values=values, nodes=nodes)


def bbar_apply(f: Callable, n: int, w: SingularWeight, x):
    """Modified operator: the classical operator applied to surrogate values.

    A polynomial of degree at most n; reproduces linear functions and uses
    only f values on [0, x2] union [x3, 1].
    """
    return bernstein_apply(build_surrogate(f, n, w).values, x)


def bbar_second_derivative(coeffs: SurrogateCoefficients, x):
    """Second derivative of the modified operator via second differences."""
    n = coeffs.n
    if n < 2:
        raise ValueError("second derivative needs n >= 2")
    v = coeffs.values
    d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
    return n * (n - 1.0) * _band_sum(d2, n - 2, x)
