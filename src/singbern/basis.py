"""Numerically stable Bernstein basis evaluation.

The basis weight b(n, k, x) = C(n, k) x^k (1-x)^(n-k) is evaluated in
log space and exponentiated at the end.  Naive log-gamma differences lose
absolute accuracy once the individual log-factorials grow large, so the
log is assembled from the saddle-point decomposition

    log b = stirlerr(n) - stirlerr(k) - stirlerr(n-k)
            - D(k, nx) - D(n-k, n(1-x)) + 0.5 log(n / (2 pi k (n-k)))

where stirlerr is the log-factorial Stirling remainder and
D(a, m) = a log(a/m) + m - a is evaluated by a series when a is close
to m.  Every quantity that is actually summed stays O(log n), which keeps
the relative error of the weight below 1e-12 for n up to 1e6.

One broadcast evaluator, ``basis_values(n, x, k)``, computes every
weight.  On a grid only a band of each row is kept: the mass of row x
lies within a few sqrt(n) of nx, so ``basis_matrix`` stores the
2W+1 indices around round(nx), W = ceil(sqrt(n ln(2/eps) / 2)) with
eps = 1e-20 (Hoeffding), and inside that band computes only the entries
within Bernstein's radius L/3 + sqrt((L/3)^2 + 2 L n x(1-x)) + 1,
L = ln(2/eps), which is far narrower near the ends.  Each row drops less
than 1e-20 of its mass, and the block costs O(G sqrt(n)) memory for a
grid of G points instead of O(G n).  The block is built in passes that
each hold a fixed budget of band entries, sized so that a pass's
temporaries stay in cache, and the parts of log b that depend on k alone
or on x alone are computed once per block.  The log-space arithmetic of
every pass runs in one scratch workspace that the call makes and reuses
pass after pass, so a pass allocates no deviance temporaries; the
workspace is never shared between calls.  ``basis_matrix`` writes each
pass straight into the whole block; ``_band_passes`` also hands the
passes out one at a time from one reused buffer, so a caller that
reduces each pass as it comes never holds the block.  ``basis_values``
runs its broadcast input in passes of the same size over one workspace.

Every basis-weighted sum, sum_k c(k, x) b(n, k, x), is summed 64 columns
at a time: each block of terms is summed pairwise and the block sums are
joined by one exact two-sum accumulation, ``_two_sum_total``.
``block_sum`` asks its caller for one block of terms at a time, so only
one block is live; ``ksum`` is the same walk over a materialised array.
The operator's apply takes the band pass by pass instead, sums each
pass's blocks as it comes and joins the held block sums a chunk of rows
at a time.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "basis_values",
    "basis_matrix",
    "band_start",
    "block_sum",
    "ksum",
]

BAND_EPS = 1e-20
_BAND_LOG = math.log(2.0 / BAND_EPS)
_LN_2PI = math.log(2.0 * math.pi)
# Entries per pass of the band, of ``basis_values`` and of every chunk of
# scratch that follows it (block sums, surrogate values): a pass works in
# _LOG_B_ROWS scratch rows of this many doubles (128 KiB each), which stay
# in cache.  Measured on a 2-vCPU Intel Xeon (AVX-512) VM, each command in
# a fresh interpreter with its start-up, medians of 6, passes of
# 8k/16k/32k/64k entries: a default ``sweep --functions all`` took
# 1.13/1.05/1.07/1.07 s at a peak RSS of 32.9/35.7/38.2/47.4 MiB, and
# ``eval --f abs_beta_1.0 --n 16384`` 0.57/0.53/0.55/0.52 s at
# 32.1/33.5/36.2/41.1 MiB.
_PASS_ENTRIES = 16384
# Scratch rows of ``_log_b``: five for ``_bd0``, then log b and n - k.
_LOG_B_ROWS = 7

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


def _stirlerr(n) -> np.ndarray:
    """Stirling remainder of log(n!) for integer-valued n >= 1."""
    n = np.asarray(n, dtype=float)
    nb = np.maximum(n, 16.0)
    n2 = 1.0 / (nb * nb)
    out = (_S0 - n2 * (_S1 - n2 * (_S2 - n2 * (_S3 - n2 * _S4)))) / nb
    small = n < 16
    if small.any():
        out = np.where(small, _STIRLERR_SMALL[np.minimum(n, 15.0).astype(np.int64)], out)
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


def _series_terms(v2max: float) -> int:
    """Terms of the deviance series that settle every entry with v^2 <= v2max.

    Term j is 2a v^(2j+1)/(2j+1), and the sum is at least 0.9 (a+m) v^2
    when |v| < 1/4, so term j sits below 2^-60 of the sum once
    |v|^(2j-1) < 2^-60.  Later terms cannot move a settled sum: they
    shrink and keep their sign, and rounding is monotone.
    """
    if v2max <= 0.0:
        return 1
    return max(1, math.ceil((120.0 * math.log(2.0) / -math.log(v2max) + 1.0) / 2.0))


def _bd0(a, m, mlo, ws):
    """Deviance term a*log(a/m) + m - a for a, m > 0, into scratch ``ws``.

    Near a == m the direct formula cancels badly, so a series in
    v = (a-m)/(a+m) is used there, with a term count fixed up front from
    the largest v^2; elsewhere v is set to 0, so the series contributes
    nothing and the direct formula fills in.  ``mlo`` is a low-order
    correction to ``m`` (from an exact product split); it enters through
    the first derivative d/dm = (m-a)/m.  ``ws`` is a ``_workspace`` of
    a's shape, of which the first five rows are used; the result is its
    row 3.
    """
    (d, s, v, out, ej), far = ws[0][:5], ws[1]
    np.subtract(a, m, out=d)
    np.add(a, m, out=s)
    # far: not |d| < 0.25 (a + m)
    np.less(np.abs(d, out=out), np.multiply(s, 0.25, out=v), out=far)
    np.logical_not(far, out=far)
    np.divide(d, s, out=v)
    np.copyto(v, 0.0, where=far)
    np.multiply(d, v, out=out)
    np.multiply(a, 2.0, out=ej)
    ej *= v
    v *= v  # v^2 from here on
    for j in range(1, _series_terms(float(v.max(initial=0.0))) + 1):
        ej *= v
        out += np.divide(ej, 2 * j + 1, out=s)
    if far.any():
        with np.errstate(over="ignore"):
            # a/m can overflow for subnormal m; inf is the right limit here
            np.divide(a, m, out=s, where=far)
            np.log(s, out=s, where=far)
            np.multiply(a, s, out=s, where=far)
            np.add(s, m, out=s, where=far)
            np.subtract(s, a, out=out, where=far)
    if np.any(mlo):
        np.divide(mlo, m, out=s)
        s *= d
        out -= s
    return out


def _split_moments(n: int, x):
    """(nx, err) and (n(1-x), err) as exact double-double pairs."""
    hi, lo = _two_prod(float(n), x)
    # n(1-x) = n - nx, re-expanded so the pair stays exact
    m2 = n - hi
    e2 = (n - m2) - hi  # exact: |hi| <= n, classic two-sum branch
    return hi, lo, m2, e2 - lo


def _log_const(n: int, k: np.ndarray) -> np.ndarray:
    """The part of log b(n, k, x) that depends on k alone, for float 1 <= k <= n-1."""
    nk = n - k
    return (
        _stirlerr(n) - _stirlerr(k) - _stirlerr(nk)
        + 0.5 * (math.log(n) - _LN_2PI - np.log(k) - np.log(nk))
    )


def _log_const_table(n: int) -> np.ndarray:
    """``_log_const`` at k = 1..n-1, built in chunks of _PASS_ENTRIES.

    Each chunk runs the same elementwise operations as the one-shot
    ``_log_const(n, np.arange(1.0, n))``, so the bits are the same, but the
    temporaries are one chunk's, not n's.
    """
    out = np.empty(max(n - 1, 0))
    for lo in range(1, n, _PASS_ENTRIES):
        hi = min(lo + _PASS_ENTRIES, n)
        out[lo - 1:hi - 1] = _log_const(n, np.arange(float(lo), hi))
    return out


def _workspace(rows: int, *shape: int) -> tuple:
    """Scratch for one evaluation: ``rows`` float rows and one bool row, each of ``shape``.

    Every call that evaluates weights makes its own and drops it on return,
    so calls on several threads share no scratch.
    """
    return np.empty((rows, *shape)), np.empty(shape, dtype=bool)


def _log_b(n: int, k: np.ndarray, const: np.ndarray, moments, ws: tuple) -> np.ndarray:
    """log b(n, k, x) from the k-only ``const`` and the x-only ``_split_moments``.

    Works in the first len(k) entries of the first _LOG_B_ROWS rows of
    workspace ``ws`` and returns row 5 there.
    """
    nx, nx_lo, n1x, n1x_lo = moments
    ws = ws[0][:, :k.size], ws[1][:k.size]
    out, nk = ws[0][5], ws[0][6]
    np.subtract(const, _bd0(k, nx, nx_lo, ws), out=out)
    np.subtract(n, k, out=nk)
    return np.subtract(out, _bd0(nk, n1x, n1x_lo, ws), out=out)


def basis_values(n: int, x, k) -> np.ndarray:
    """Basis weights b(n, k, x) = C(n, k) x^k (1-x)^(n-k), broadcast over x and k.

    The one evaluator behind every row, band and window.  Relative error
    stays below 1e-12 for n up to 1e6.  Endpoints are exact: x=0 gives 1
    iff k=0, x=1 gives 1 iff k=n; the k=0 and k=n weights are direct
    powers.  A buffered iterator copies the broadcast input out in passes
    of at most _PASS_ENTRIES entries, each evaluated in one workspace, so
    memory beyond the result is bounded whatever the input's size.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"degree n must be >= 1, got {n}")
    x, k = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(k))
    if not np.issubdtype(k.dtype, np.integer):
        raise ValueError("indices k must be integers")
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if k.size and not (k.min() >= 0 and k.max() <= n):
        raise ValueError(f"index k must lie in [0, {n}]")
    out = np.empty(x.shape)
    ws = _workspace(_LOG_B_ROWS, min(x.size, _PASS_ENTRIES))
    with np.nditer([x, k, out], ["external_loop", "buffered", "zerosize_ok"],
                   [["readonly"], ["readonly"], ["writeonly"]], buffersize=_PASS_ENTRIES) as passes:
        for xp, kp, op in passes:
            op[...] = _values(n, xp, kp, _split_moments(n, xp), lambda kk: _log_const(n, kk.astype(float)), ws)
    return out


def _values(n: int, x: np.ndarray, k: np.ndarray, moments, log_const, ws: tuple) -> np.ndarray:
    """Flat checked ``basis_values``: x in [0, 1], integer k in [0, n], one length.

    ``moments`` is ``_split_moments(n, x)`` and ``log_const`` maps interior
    k to ``_log_const``; the caller computes both once.  ``ws`` is a
    workspace of at least _LOG_B_ROWS rows and len(x) entries; the result
    may be one of its rows.  The closed forms for k in {0, n} and x in
    {0, 1} live here alone.
    """
    inside = (x > 0.0) & (x < 1.0)
    mid = inside & (k > 0) & (k < n)
    if mid.all():
        r = _log_b(n, k.astype(float), log_const(k), moments, ws)
        return np.exp(r, out=r)
    out = np.zeros(x.shape)
    km = k[mid]
    r = _log_b(n, km.astype(float), log_const(km), [m[mid] for m in moments], ws)
    out[mid] = np.exp(r, out=r)
    out[((x == 0.0) & (k == 0)) | ((x == 1.0) & (k == n))] = 1.0
    first = inside & (k == 0)
    out[first] = np.exp(n * np.log1p(-x[first]))
    last = inside & (k == n)
    out[last] = np.exp(n * np.log(x[last]))
    return out


def _band_radius(n: int) -> int:
    """Hoeffding radius W: all but BAND_EPS of each row's mass lies within W of nx."""
    return math.ceil(math.sqrt(n * _BAND_LOG / 2.0))


def band_start(n: int, xs) -> np.ndarray:
    """First index k of each row's band; the band is start + [0, 2W] inside [0, n].

    The band is centred on round(n x) and shifted inward at the ends.
    When 2W >= n it is the whole row and every start is 0.
    """
    n = int(n)
    return _band_start(n, np.asarray(xs, dtype=float), _band_radius(n))


def _band_start(n: int, xs: np.ndarray, w: int) -> np.ndarray:
    if 2 * w >= n:
        return np.zeros(xs.shape, dtype=np.int64)
    return np.clip(np.floor(n * xs + 0.5).astype(np.int64) - w, 0, n - 2 * w)


def _kept_radius(n: int, xs: np.ndarray, w: int) -> np.ndarray:
    """Half-width of the part of each band that is computed; the rest stays 0.

    Bernstein's inequality puts all but BAND_EPS of the mass within
    L/3 + sqrt((L/3)^2 + 2 L n x(1-x)) of nx, with L = ln(2/BAND_EPS);
    near the ends that is far inside the Hoeffding radius W.  A band that
    is the whole row is computed in full.
    """
    if 2 * w >= n:
        return np.full(xs.shape, np.inf)
    third = _BAND_LOG / 3.0
    bernstein = third + np.sqrt(third * third + 2.0 * _BAND_LOG * n * xs * (1.0 - xs))
    return np.minimum(w, bernstein) + 1.0


def basis_matrix(n: int, xs: np.ndarray) -> np.ndarray:
    """The band block of the basis weights on a grid, shape (len(xs), min(n+1, 2W+1)).

    Row i holds b(n, k, xs[i]) at k = band_start(n, xs)[i] + j.  Entries
    further than the Bernstein radius from n xs[i] are left 0: each row
    drops less than BAND_EPS = 1e-20 of its mass, and every kept entry is
    bit-identical to ``basis_values``.  Memory is O(len(xs) sqrt(n)).
    The passes of ``_band_passes`` write straight into the block.
    """
    n, xs, width = _band_grid(n, xs)
    out = np.zeros((xs.size, width))
    for _ in _band_passes(n, xs, width, out):
        pass
    return out


def _band_grid(n: int, xs) -> tuple:
    """(n, xs, band width) checked as ``basis_matrix`` takes them."""
    n = int(n)
    if n < 1:
        raise ValueError(f"degree n must be >= 1, got {n}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
        raise ValueError("grid points must lie in [0, 1]")
    return n, xs, min(n + 1, 2 * _band_radius(n) + 1)


def _pass_rows(width: int) -> int:
    """Band rows per pass: about _PASS_ENTRIES entries of ``width`` columns."""
    return max(1, _PASS_ENTRIES // width)


def _band_passes(n: int, xs: np.ndarray, width: int, out: np.ndarray | None = None):
    """Build the band block of ``basis_matrix(n, xs)`` pass by pass.

    Takes n, xs and width as ``_band_grid`` returns them and yields
    (rows, block) for consecutive slices ``rows`` of ``_pass_rows`` grid
    points: block holds the band rows of xs[rows].  Given ``out``, a zero
    array of the whole block's shape, each block is out[rows], so the
    passes fill ``out``; without it every block is one buffer, zeroed and
    refilled by each pass.  Every pass runs in the same scratch
    workspace, which stays in cache; the k-only and x-only parts of log b
    are computed once per call and gathered by every pass, and every pass
    runs ``basis_values``'s own path, closed forms for k = 0 and k = n
    included.
    """
    w = _band_radius(n)
    start = _band_start(n, xs, w)
    radius = _kept_radius(n, xs, w)
    cols = np.arange(width)
    const = _log_const_table(n)  # k = 1..n-1
    moments = _split_moments(n, xs)
    rows = _pass_rows(width)
    size = min(rows, xs.size)
    ws = _workspace(_LOG_B_ROWS, size * width)
    buf = np.empty((size, width)) if out is None else None
    for lo in range(0, xs.size, rows):
        sl = slice(lo, lo + rows)
        x = xs[sl]
        if out is None:
            block = buf[:x.size]
            block.fill(0.0)
        else:
            block = out[sl]
        k = start[sl, None] + cols
        mask = np.abs(k - n * x[:, None]) <= radius[sl, None]
        counts = mask.sum(axis=1)
        k = k[mask]
        parts = [np.repeat(m[sl], counts) for m in moments]
        block[mask] = _values(n, np.repeat(x, counts), k, parts, lambda kk: const[kk - 1], ws)
        yield sl, block


def block_sum(block, width: int):
    """Compensated sum of ``width`` columns of terms, 64 columns at a time.

    ``block(sl)`` returns the terms of the columns in slice ``sl`` along its
    last axis.  Each block is summed pairwise and the block sums are joined
    by ``_two_sum_total``, so the result carries compensated-summation
    accuracy while only one block of terms is live at a time.
    """
    return _two_sum_total(block(slice(lo, lo + 64)).sum(axis=-1) for lo in range(0, width, 64))


def _two_sum_total(terms):
    """Sum of an iterable of arrays by an exact two-sum (Kahan-style) running accumulation."""
    s = comp = 0.0
    for term in terms:
        t = s + term
        bb = t - s
        comp = comp + ((s - (t - bb)) + (term - bb))
        s = t
    return s + comp


def ksum(a: np.ndarray, axis: int = -1):
    """Compensated sum along ``axis``: ``block_sum`` over the columns of ``a``."""
    am = np.moveaxis(np.asarray(a, dtype=float), axis, -1)
    return block_sum(lambda sl: am[..., sl], am.shape[-1])
