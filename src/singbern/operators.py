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

from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import band_start, basis_matrix, ksum
from .bridge import compute_nodes, surrogate_eval
from .weight import EvaluationError, SingularWeight

__all__ = [
    "collocation_matrix",
    "bernstein_apply",
    "build_surrogate",
    "bbar_apply",
    "bbar_second_derivative",
]

# Band entries per chunk of ``bernstein_apply`` (1 MiB of products).  Measured
# on a 2-vCPU Intel Xeon (AVX-512) VM, band cached, medians of 15, chunks of
# 2^15/2^16/2^17/2^18/2^19 entries on the default grid: the seven default
# degrees together took 37.2/31.9/28.8/27.7/39.8 ms and n = 16384 took
# 36.2/23.5/19.9/17.2/18.6 ms.  Summing the whole band at once took 26.3 and
# 23.9 ms, but held a second copy of the block (40 MB at n = 16384).
_APPLY_ENTRIES = 2**17


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
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    return _cached_band(n, xs.tobytes())


def bernstein_apply(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_k values[k] b(n, k, x) at each point of the 1-D grid xs, compensated.

    The degree n is len(values) - 1; each row sums over its band only.  The
    band is gathered, multiplied and summed in chunks of about
    _APPLY_ENTRIES entries, each writing its own rows of the result; the
    compensated sum is row by row, so the chunking changes no bit.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("values must be a vector of n+1 >= 2 entries")
    start, B = collocation_matrix(values.size - 1, xs)
    windows = sliding_window_view(values, B.shape[1])
    rows = max(1, _APPLY_ENTRIES // B.shape[1])
    out = np.empty(B.shape[0])
    for lo in range(0, B.shape[0], rows):
        sl = slice(lo, lo + rows)
        terms = windows[start[sl]]
        terms *= B[sl]
        out[sl] = ksum(terms, axis=1)
    return out


def build_surrogate(f: Callable, n: int, w: SingularWeight) -> np.ndarray:
    """Surrogate values F(k/n), k = 0..n, of the modified operator at degree n; read-only.

    f is never sampled on [x2, x3].  Raises InvalidNodesError when the
    bridge nodes around w.xi are invalid at this degree, and
    EvaluationError when a value is not finite.
    """
    nodes = compute_nodes(n, w.xi)
    nodes.require_valid()
    t = np.arange(nodes.n + 1) / float(nodes.n)
    values = surrogate_eval(f, nodes, t)
    if not np.isfinite(values).all():
        raise EvaluationError(f"non-finite surrogate value at k/n={float(t[~np.isfinite(values)][0])!r}")
    values.flags.writeable = False
    return values


def bbar_apply(f: Callable, n: int, w: SingularWeight, xs: np.ndarray) -> np.ndarray:
    """Modified operator: the classical operator applied to surrogate values.

    A polynomial of degree at most n; reproduces linear functions and uses
    only f values on [0, x2] union [x3, 1].
    """
    return bernstein_apply(build_surrogate(f, n, w), xs)


def bbar_second_derivative(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Second derivative of the operator on node values F(k/n), via second differences."""
    n = len(values) - 1
    if n < 2:
        raise ValueError("second derivative needs n >= 2")
    d2 = values[2:] - 2.0 * values[1:-1] + values[:-2]
    return n * (n - 1.0) * bernstein_apply(d2, xs)
