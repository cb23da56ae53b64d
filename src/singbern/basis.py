"""Numerically stable Bernstein basis evaluation and basis moment sums.

The basis weight b(n, k, x) = C(n, k) x^k (1-x)^(n-k) is evaluated in
log space and exponentiated at the end.  Naive log-gamma differences lose
absolute accuracy once the individual log-factorials grow large, so the
log is assembled from the saddle-point decomposition

    log b = stirlerr(n) - stirlerr(k) - stirlerr(n-k)
            - D(k, nx) - D(n-k, n(1-x)) + 0.5 log(n / (2 pi k (n-k)))

where stirlerr is the log-factorial Stirling remainder and
D(a, m) = a log(a/m) + m - a is evaluated by a series when a is close
to m.  Every quantity that is actually summed stays O(log n), which keeps
the relative error of the weight near machine precision for n up to 1e6.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "basis_eval",
    "basis_row",
    "basis_matrix",
    "central_moment_sum",
    "inverse_moment_sum",
    "ksum",
]

_LN_2PI = math.log(2.0 * math.pi)

# stirlerr(n) = log(n!) - (0.5*log(2*pi*n) + n*log(n) - n), n = 1..15.
# Index 0 is a placeholder; the decomposition never uses stirlerr(0).
_STIRLERR_SMALL = np.array([
    0.0,
    0.08106146679532725821967,
    0.04134069595540929409382,
    0.02767792568499833914879,
    0.02079067210376509311152,
    0.01664469118982119216319,
    0.01387612882307074799875,
    0.01189670994589177009506,
    0.01041126526197209649748,
    0.009255462182712732917729,
    0.008330563433362871256469,
    0.007573675487951840794972,
    0.006942840107209529865664,
    0.00640899418800420706844,
    0.005951370112758847735624,
    0.005554733551962801371039,
])

# Asymptotic series coefficients for stirlerr, n >= 16.
_S0 = 1.0 / 12.0
_S1 = 1.0 / 360.0
_S2 = 1.0 / 1260.0
_S3 = 1.0 / 1680.0
_S4 = 1.0 / 1188.0

_SPLIT = 134217729.0  # 2**27 + 1, Dekker split constant


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """Stirling remainder of log(n!) for integer-valued n >= 1."""
    n = np.asarray(n, dtype=float)
    out = np.empty(n.shape)
    small = n < 16
    out[small] = _STIRLERR_SMALL[n[small].astype(np.int64)]
    nb = n[~small]
    n2 = 1.0 / (nb * nb)
    out[~small] = (_S0 - n2 * (_S1 - n2 * (_S2 - n2 * (_S3 - n2 * _S4)))) / nb
    return out


def _two_prod(a, b):
    """Exact product a*b = p + err for doubles (Dekker splitting)."""
    p = a * b
    ah = _SPLIT * a - (_SPLIT * a - a)
    al = a - ah
    bh = _SPLIT * b - (_SPLIT * b - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _bd0(a, m, mlo=0.0):
    """Deviance term a*log(a/m) + m - a for a, m > 0.

    Near a == m the direct formula cancels badly, so a series in
    v = (a-m)/(a+m) is used there (on the compacted subset only).
    ``mlo`` is a low-order correction to ``m`` (from an exact product
    split); it enters through the first derivative d/dm = (m-a)/m.
    """
    a, m = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(m, dtype=float))
    d = a - m
    out = np.empty(a.shape)
    near = np.abs(d) < 0.25 * (a + m)
    far = ~near
    if far.any():
        af = a[far]
        mf = m[far]
        with np.errstate(over="ignore"):
            # a/m can overflow for subnormal m; inf is the right limit here
            out[far] = af * np.log(af / mf) + mf - af
    if near.any():
        an = a[near]
        dn = d[near]
        v = dn / (an + m[near])
        s = dn * v
        ej = 2.0 * an * v
        v2 = v * v
        for j in range(1, 1000):
            ej = ej * v2
            s_new = s + ej / (2 * j + 1)
            if np.all(s_new == s):
                s = s_new
                break
            s = s_new
        out[near] = s
    if np.any(mlo):
        out -= (np.asarray(mlo) / m) * d
    return out


@lru_cache(maxsize=64)
def _row_const(n: int) -> np.ndarray:
    """x-independent part of log b(n, k, x) for interior k = 1..n-1."""
    k = np.arange(1, n, dtype=float)
    se = _stirlerr(np.arange(n + 1, dtype=float))
    lc = 0.5 * (math.log(n) - _LN_2PI - np.log(k) - np.log(n - k))
    return se[n] - se[1:n] - se[n - 1:0:-1] + lc


def _split_moments(n: int, x):
    """(nx, err) and (n(1-x), err) as exact double-double pairs."""
    hi, lo = _two_prod(float(n), x)
    # n(1-x) = n - nx, re-expanded so the pair stays exact
    m2 = n - hi
    e2 = (n - m2) - hi  # exact: |hi| <= n, classic two-sum branch
    return hi, lo, m2, e2 - lo


def _interior_log(n: int, k: np.ndarray, x):
    """log b(n, k, x) for interior 1 <= k <= n-1 and scalar/column x."""
    nx, nx_lo, n1x, n1x_lo = _split_moments(n, x)
    return (
        _row_const(n)[..., k - 1]
        - _bd0(k, nx, nx_lo)
        - _bd0(n - k, n1x, n1x_lo)
    )


def _validate_nx(n, x) -> tuple[int, float]:
    n = int(n)
    if n < 1:
        raise ValueError(f"degree n must be >= 1, got {n}")
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return n, x


def basis_eval(n: int, k: int, x: float) -> float:
    """Bernstein basis weight C(n, k) x^k (1-x)^(n-k).

    Relative error stays below 1e-12 for n up to 1e6.  Endpoints are
    exact: x=0 gives 1 iff k=0, x=1 gives 1 iff k=n.
    """
    n, x = _validate_nx(n, x)
    k = int(k)
    if not (0 <= k <= n):
        raise ValueError(f"index k must lie in [0, {n}], got {k}")
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    if x == 1.0:
        return 1.0 if k == n else 0.0
    if k == 0:
        return math.exp(n * math.log1p(-x))
    if k == n:
        return math.exp(n * math.log(x))
    lp = _interior_log(n, np.array([k]), x)[0]
    return float(math.exp(lp))


def basis_row(n: int, x: float) -> np.ndarray:
    """All n+1 basis weights at x; components sum to 1 within 1e-12."""
    n, x = _validate_nx(n, x)
    if x == 0.0 or x == 1.0:
        out = np.zeros(n + 1)
        out[n if x == 1.0 else 0] = 1.0
        return out
    out = np.empty(n + 1)
    out[0] = math.exp(n * math.log1p(-x))
    out[n] = math.exp(n * math.log(x))
    if n >= 2:
        out[1:n] = np.exp(_interior_log(n, np.arange(1, n), x))
    return out


def basis_matrix(n: int, xs: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Rows of basis weights for every x in ``xs`` (shape (len(xs), n+1)).

    Chunked over x to bound the size of broadcast temporaries.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"degree n must be >= 1, got {n}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
        raise ValueError("grid points must lie in [0, 1]")
    out = np.empty((xs.size, n + 1))
    k = np.arange(1, n)
    for lo_i in range(0, xs.size, chunk):
        sl = slice(lo_i, min(lo_i + chunk, xs.size))
        xc = xs[sl, None]
        blk = out[sl]
        interior = ((xc[:, 0] != 0.0) & (xc[:, 0] != 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            blk[:, 0] = np.where(interior, np.exp(n * np.log1p(-xc[:, 0])), 0.0)
            blk[:, n] = np.where(interior, np.exp(n * np.log(xc[:, 0])), 0.0)
            if n >= 2:
                xin = np.where(interior, xc[:, 0], 0.5)[:, None]
                blk[:, 1:n] = np.where(
                    interior[:, None], np.exp(_interior_log(n, k, xin)), 0.0
                )
        blk[xc[:, 0] == 0.0, 0] = 1.0
        blk[xc[:, 0] == 1.0, n] = 1.0
    return out


def ksum(a: np.ndarray, axis: int = -1, block: int = 64):
    """Compensated sum along ``axis``.

    Pairwise partial sums over short blocks are combined with an exact
    two-sum (Kahan-style) running accumulation, so the result carries
    compensated-summation accuracy without a per-element Python loop.
    """
    am = np.moveaxis(np.asarray(a, dtype=float), axis, -1)
    nk = am.shape[-1]
    nfull = (nk // block) * block
    partials = []
    if nfull:
        partials.append(am[..., :nfull].reshape(am.shape[:-1] + (-1, block)).sum(axis=-1))
    if nfull < nk:
        partials.append(am[..., nfull:].sum(axis=-1, keepdims=True))
    blocks = np.concatenate(partials, axis=-1) if len(partials) > 1 else partials[0]
    s = np.zeros(blocks.shape[:-1])
    comp = np.zeros_like(s)
    for i in range(blocks.shape[-1]):
        term = blocks[..., i]
        t = s + term
        bb = t - s
        comp += (s - (t - bb)) + (term - bb)
        s = t
    total = s + comp
    return float(total) if total.ndim == 0 else total


def central_moment_sum(n: int, x: float, gamma: float) -> float:
    """Direct summation of sum_k b(n, k, x) |k - nx|^gamma.

    Negative gamma is rejected: at integer nx the k = nx term would be
    0 raised to a negative power.
    """
    n, x = _validate_nx(n, x)
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    row = basis_row(n, x)
    dev = np.abs(np.arange(n + 1) - n * x) ** gamma
    return math.fsum(row * dev)


def inverse_moment_sum(n: int, x: float, u: float, v: float) -> float:
    """Direct summation of sum_{k=1}^{n-1} (k/n)^-u (1-k/n)^-v b(n, k, x)."""
    n, x = _validate_nx(n, x)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if x == 0.0 or x == 1.0:
        raise ValueError("x must lie strictly inside (0, 1)")
    u = float(u)
    v = float(v)
    if u < 0.0 or v < 0.0:
        raise ValueError("u and v must be non-negative")
    k = np.arange(1, n, dtype=float)
    row = basis_row(n, x)[1:n]
    terms = (k / n) ** (-u) * ((n - k) / n) ** (-v) * row
    return math.fsum(terms)
