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
from .weight import (
    EvaluationError,
    GridSpec,
    SingularWeight,
    grid_points,
    phi,
    weighted_sup_norm,
    weighted_values,
)

__all__ = [
    "SurrogateCoefficients",
    "collocation_matrix",
    "bernstein_apply",
    "build_surrogate",
    "bbar_apply",
    "bbar_second_derivative",
    "weighted_operator_norm_ratio",
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


def _surrogate_values(f: Callable, nodes: BridgeNodes) -> np.ndarray:
    """The surrogate blend at the nodes k/n; f is never sampled on [x2, x3]."""
    t = np.arange(nodes.n + 1) / float(nodes.n)
    values = surrogate_eval(f, nodes, t)
    if not np.isfinite(values).all():
        bad = t[~np.isfinite(values)]
        raise EvaluationError(f"non-finite surrogate value at k/n={bad[0]!r}")
    return values


@lru_cache(maxsize=256)
def _cached_surrogate(f: Callable, n: int, w: SingularWeight) -> SurrogateCoefficients:
    nodes = compute_nodes(n, w.xi)
    nodes.require_valid()
    return SurrogateCoefficients(n=n, values=_surrogate_values(f, nodes), nodes=nodes)


def build_surrogate(f: Callable, n: int, w: SingularWeight) -> SurrogateCoefficients:
    """Coefficient vector F(k/n) for the modified operator at degree n.

    Results are cached per (f, n, w); coefficients are immutable.
    """
    try:
        return _cached_surrogate(f, int(n), w)
    except TypeError:
        # unhashable f: build without caching
        nodes = compute_nodes(int(n), w.xi)
        nodes.require_valid()
        return SurrogateCoefficients(n=int(n), values=_surrogate_values(f, nodes), nodes=nodes)


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


def weighted_operator_norm_ratio(
    f,
    n: int,
    w: SingularWeight,
    lam: float,
    g: GridSpec,
    branch: str = "w2",
) -> float:
    """Grid max of |w phi^(2 lam) B''| over the branch majorant.

    branch "cw" uses n^(2-lam) ||w f|| (lam must be 0 or 1, the two cases
    with a closed-form power); branch "w2" uses ||w phi^(2 lam) f''|| and
    needs an analytic second derivative on f.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lam must lie in [0, 1]")
    coeffs = build_surrogate(f, n, w)
    nd = coeffs.nodes
    xs = grid_points(g, w.xi, extra=(nd.x1, nd.x2, nd.x3, nd.x4))
    d2 = bbar_second_derivative(coeffs, xs)
    num = float(np.max(np.abs(w(xs) * phi(xs) ** (2.0 * lam) * d2)))

    if branch == "cw":
        if lam not in (0.0, 1.0):
            raise ValueError("cw branch has a closed-form majorant only for lam in {0, 1}")
        den = float(n) ** (2.0 - lam) * weighted_sup_norm(f, w, g)
    elif branch == "w2":
        second = getattr(f, "second_derivative", None)
        if second is None:
            raise ValueError(f"{getattr(f, 'name', f)!r} lacks a second derivative")
        den = float(
            np.max(np.abs(weighted_values(lambda t: phi(t) ** (2.0 * lam) * second(t), w, xs)))
        )
    else:
        raise ValueError(f"unknown branch {branch!r}")

    if den == 0.0:
        # rounding of the coefficient vector alone produces second
        # differences up to a few eps, amplified by n(n-1)
        floor = 16.0 * n * n * np.finfo(float).eps * float(np.max(np.abs(coeffs.values)))
        return 0.0 if num <= floor else float("inf")
    return num / den
