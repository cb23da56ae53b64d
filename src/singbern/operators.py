"""Degree-n operator, its singularity-modified variant, and second derivatives.

The modified operator applies the classical one to surrogate node values,
so everything reduces to weighted sums of basis rows against a coefficient
vector of length n+1.  The second derivative uses the exact second
forward-difference identity

    n (n-1) sum_{k=0}^{n-2} (v[k+2] - 2 v[k+1] + v[k]) b(n-2, k, x),

which is exact for the polynomial the operator produces; numerical
differentiation appears only in tests as an oracle.

The apply streams the band: it builds it a pass of rows at a time (about
16384 entries) into one reused buffer, gathers the value windows of the
pass, multiplies them by the band rows and sums every 64 columns pairwise
while the pass is in cache.  The block sums of about 16384 values are
held, and then each held row's are joined with one exact two-sum
accumulation, so beside the result only one pass of the band and one
chunk of block sums are ever held.  It applies one coefficient vector
or a stack of them: a stack shares each pass, and every vector gets the
bits of its own apply.  Callers that read the same (degree, grid) band
stack their vectors into one apply.  ``collocation_matrix`` builds the whole band block; only tests
use it, as the one-shot oracle of the apply.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import _PASS_ENTRIES, _band_grid, _band_passes, _pass_rows, _two_sum_total, band_start, basis_matrix
from .bridge import compute_nodes, surrogate_eval
from .weight import EvaluationError, SingularWeight

__all__ = [
    "collocation_matrix",
    "bernstein_apply",
    "build_surrogate",
    "bbar_apply",
    "bbar_second_derivative",
]


def collocation_matrix(n: int, xs: np.ndarray) -> tuple:
    """``(band_start(n, xs), basis_matrix(n, xs))`` for a 1-D grid: the whole band block.

    Row i of the band block holds b(n, k, xs[i]) at k = start[i] + j; the
    weights outside it (less than 1e-20 of each row) are dropped.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    return band_start(n, xs), basis_matrix(n, xs)


def bernstein_apply(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_k values[k] b(n, k, x) at each point of the 1-D grid xs, compensated.

    The degree n is values.shape[-1] - 1; each row sums over its band only,
    to within 8 eps max |values| of the exact band sum for n up to 65535.
    ``values`` is one vector of n+1 entries, or an (m, n+1) stack of them
    applied in one pass over the band, giving (m, len(xs)); each vector
    gets the same bits as its own apply.  The band is built pass by pass
    and never held whole.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] < 2:
        raise ValueError("values must be a vector of n+1 >= 2 entries, or a stack of them")
    n, xs, width = _band_grid(values.shape[-1] - 1, xs)
    return _band_sum(values, band_start(n, xs), width, _band_passes(n, xs, width))


def _band_sum(values: np.ndarray, start: np.ndarray, width: int, passes) -> np.ndarray:
    """Compensated band sums of ``values``, a vector or a stack of them, against band rows in passes.

    ``passes`` yields (rows, block): the band rows of the grid points in
    slice ``rows``, whose bands begin at start[rows].  Each pass gathers
    the value windows of every vector, multiplies them by the block and
    hands the products to ``_RowSums``, so each vector's result is
    ``block_sum`` over the whole band, and beside the result only one
    pass and one chunk of block sums are held.
    """
    windows = sliding_window_view(values, width, axis=-1)
    sums = _RowSums(values.shape[:-1], start.size, width)
    for sl, B in passes:
        t = windows[..., start[sl], :]
        t *= B
        sums.add(t)
    return sums.total()


def _join_rows(members: int, width: int) -> int:
    """Rows whose block sums ``_RowSums`` holds: about _PASS_ENTRIES of them, and at least one pass."""
    return max(_pass_rows(width), _PASS_ENTRIES // (members * -(-width // 64)))


class _RowSums:
    """``block_sum`` over each row of a (*lead, rows, width) array of terms that arrives rows first.

    ``add(t)`` takes the terms of the next rows, shaped (*lead, r, width),
    and sums every 64 columns pairwise while they are in cache.  The
    block sums are held for ``_join_rows`` rows; then each held row's are
    joined by the exact two-sum of ``block_sum``, in its block order, so
    every row gets ``block_sum``'s bits while only one chunk of block sums
    is held.  ``total()`` joins the rest and returns the (*lead, rows) sums.
    """

    def __init__(self, lead: tuple, rows: int, width: int):
        self.out = np.empty((*lead, rows))
        self.held = np.empty((*lead, min(rows, _join_rows(math.prod(lead), width)), -(-width // 64)))
        self.lo = self.top = 0  # rows lo..top are held

    def add(self, t: np.ndarray) -> None:
        rows = t.shape[-2]
        if self.top + rows - self.lo > self.held.shape[-2]:
            self._join()
        sums = self.held[..., self.top - self.lo:self.top - self.lo + rows, :]
        whole = t.shape[-1] // 64  # blocks of a full 64 columns; a shorter one may follow
        t[..., :64 * whole].reshape(*t.shape[:-1], whole, 64).sum(axis=-1, out=sums[..., :whole])
        if whole < sums.shape[-1]:
            t[..., 64 * whole:].sum(axis=-1, out=sums[..., whole])
        self.top += rows

    def total(self) -> np.ndarray:
        self._join()
        return self.out

    def _join(self) -> None:
        if self.top > self.lo:
            held = self.held[..., :self.top - self.lo, :]
            self.out[..., self.lo:self.top] = _two_sum_total(np.moveaxis(held, -1, 0))
        self.lo = self.top


def build_surrogate(f: Callable, n: int, w: SingularWeight) -> np.ndarray:
    """Surrogate values F(k/n), k = 0..n, of the modified operator at degree n; read-only.

    f is never sampled on [x2, x3].  Raises InvalidNodesError when the
    bridge nodes around w.xi are invalid at this degree, and
    EvaluationError, naming the first k/n, when a value is not finite.
    The values are filled _PASS_ENTRIES at a time, so the temporaries of
    ``surrogate_eval`` are one pass's, whatever the degree.
    """
    nodes = compute_nodes(n, w.xi)
    nodes.require_valid()
    values = bad = None  # bad: the first k/n of a non-finite value, raised once f has seen every pass
    for lo in range(0, nodes.n + 1, _PASS_ENTRIES):
        t = np.arange(lo, min(lo + _PASS_ENTRIES, nodes.n + 1)) / float(nodes.n)
        v = surrogate_eval(f, nodes, t)
        if values is None:
            # made after the first pass: made before it, a default sweep's peak RSS
            # read 0.6-1.4 MiB higher, as glibc kept more of the freed heap
            values = np.empty(nodes.n + 1)
        values[lo:lo + t.size] = v
        if bad is None and not np.isfinite(v).all():
            bad = float(t[~np.isfinite(v)][0])
    if bad is not None:
        raise EvaluationError(f"non-finite surrogate value at k/n={bad!r}")
    values.flags.writeable = False
    return values


def bbar_apply(f: Callable, n: int, w: SingularWeight, xs: np.ndarray) -> np.ndarray:
    """Modified operator: the classical operator applied to surrogate values.

    A polynomial of degree at most n; reproduces linear functions and uses
    only f values on [0, x2] union [x3, 1].
    """
    return bernstein_apply(build_surrogate(f, n, w), xs)


def bbar_second_derivative(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Second derivative of the operator on node values F(k/n), via second differences.

    ``values`` is one vector of n+1 entries or a stack of them, as
    ``bernstein_apply`` takes them, and xs is checked as it checks it.
    Within 40 n(n-1) eps max |F| of its exact value on these doubles, for
    n up to 65535.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1] - 1
    if n < 2:
        raise ValueError("second derivative needs n >= 2")
    d2 = values[..., 2:] - 2.0 * values[..., 1:-1] + values[..., :-2]
    if n == 2:  # degree 0: (B_2 F)'' is the constant 2 (F[2] - 2 F[1] + F[0])
        xs = _band_grid(1, xs)[1]
        return 2.0 * np.repeat(d2, xs.size, axis=-1)
    return n * (n - 1.0) * bernstein_apply(d2, xs)
