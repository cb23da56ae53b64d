"""Degree-n operator, its singularity-modified variant, and second derivatives.

The modified operator applies the classical one to surrogate node values,
so everything reduces to weighted sums of basis rows against a coefficient
vector of length n+1.  The second derivative uses the exact second
forward-difference identity

    n (n-1) sum_{k=0}^{n-2} (v[k+2] - 2 v[k+1] + v[k]) b(n-2, k, x),

which is exact for the polynomial the operator produces; numerical
differentiation appears only in tests as an oracle.

The apply takes the band a pass of rows at a time (about 16384 entries):
it gathers the value windows of the pass, multiplies them by the band
rows and sums every 64 columns pairwise while the pass is in cache, then
joins each row's block sums with one exact two-sum accumulation.  It
applies one coefficient vector or a stack of them: a stack shares each
pass, and every vector gets the bits of its own apply.

Where the band rows come from is the caller's choice.  With ``reuse``,
the default, they come from the cached block: ``check``'s lemma and
theorem checkers read the same (degree, grid) bands many times.  With
``reuse=False`` the band is built pass by pass into one reused buffer, so
only one pass of it is ever held: ``eval`` applies once, and the direct
check, in ``sweep`` and in ``check``, applies every member's surrogate in
one stacked apply per degree.  Both sources give the same bits.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import _band_grid, _band_passes, _pass_rows, _two_sum_total, band_start, basis_matrix
from .bridge import compute_nodes, surrogate_eval
from .weight import EvaluationError, SingularWeight

__all__ = [
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
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    return _cached_band(n, xs.tobytes())


def bernstein_apply(values: np.ndarray, xs: np.ndarray, reuse: bool = True) -> np.ndarray:
    """sum_k values[k] b(n, k, x) at each point of the 1-D grid xs, compensated.

    The degree n is values.shape[-1] - 1; each row sums over its band only,
    to within 8 eps max |values| of the exact band sum for n up to 65535.
    ``values`` is one vector of n+1 entries, or an (m, n+1) stack of them
    applied in one pass over the band, giving (m, len(xs)); each vector
    gets the same bits as its own apply.  With ``reuse`` the band comes
    from the ``collocation_matrix`` cache; without it the band is built
    pass by pass and never held whole, for a caller that reads it once.
    Both give the same bits.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] < 2:
        raise ValueError("values must be a vector of n+1 >= 2 entries, or a stack of them")
    n = values.shape[-1] - 1
    if reuse:
        start, B = collocation_matrix(n, xs)
        rows = _pass_rows(B.shape[1])
        passes = ((slice(lo, lo + rows), B[lo:lo + rows]) for lo in range(0, B.shape[0], rows))
        return _band_sum(values, start, B.shape[1], passes)
    n, xs, width = _band_grid(n, xs)
    return _band_sum(values, band_start(n, xs), width, _band_passes(n, xs, width))


def _band_sum(values: np.ndarray, start: np.ndarray, width: int, passes) -> np.ndarray:
    """Compensated band sums of ``values``, a vector or a stack of them, against band rows in passes.

    ``passes`` yields (rows, block): the band rows of the grid points in
    slice ``rows``, whose bands begin at start[rows].  Each pass gathers
    the value windows of every vector, multiplies them by the block and
    sums every 64 columns pairwise, while the pass is still in cache; then
    the block sums of all rows are joined by the exact two-sum of
    ``block_sum``, in its order, so each vector's result is ``block_sum``
    over the whole band.
    """
    windows = sliding_window_view(values, width, axis=-1)
    whole = width // 64  # blocks of a full 64 columns; a shorter one may follow
    sums = np.empty((*values.shape[:-1], start.size, -(-width // 64)))
    for sl, B in passes:
        t = windows[..., start[sl], :]
        t *= B
        t[..., :64 * whole].reshape(*t.shape[:-1], whole, 64).sum(axis=-1, out=sums[..., sl, :whole])
        if whole < sums.shape[-1]:
            t[..., 64 * whole:].sum(axis=-1, out=sums[..., sl, whole])
    return _two_sum_total(np.moveaxis(sums, -1, 0))


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


def bbar_apply(f: Callable, n: int, w: SingularWeight, xs: np.ndarray, reuse: bool = True) -> np.ndarray:
    """Modified operator: the classical operator applied to surrogate values.

    A polynomial of degree at most n; reproduces linear functions and uses
    only f values on [0, x2] union [x3, 1].  ``reuse`` is passed on to
    ``bernstein_apply``.
    """
    return bernstein_apply(build_surrogate(f, n, w), xs, reuse)


def bbar_second_derivative(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Second derivative of the operator on node values F(k/n), via second differences.

    Within 40 n(n-1) eps max |F| of its exact value on these doubles, for n up to 65535.
    """
    n = len(values) - 1
    if n < 2:
        raise ValueError("second derivative needs n >= 2")
    d2 = values[2:] - 2.0 * values[1:-1] + values[:-2]
    return n * (n - 1.0) * bernstein_apply(d2, xs)
