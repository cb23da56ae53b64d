"""Numerically stable Bernstein basis evaluation.

The basis weight b(n, k, x) = C(n, k) x^k (1-x)^(n-k) is evaluated in
log space and exponentiated at the end.  Naive log-gamma differences lose
absolute accuracy once the individual log-factorials grow large, so the
log is assembled from the saddle-point decomposition

    log b = stirlerr(n) - stirlerr(k) - stirlerr(n-k)
            - D(k, nx) - D(n-k, n(1-x)) - 0.5 log(k (n-k) / n) - 0.5 log(2 pi)

where stirlerr is the log-factorial Stirling remainder and
D(a, m) = a log(a/m) + m - a is evaluated by a series when a is close
to m.  Every quantity that is actually summed stays O(log n), which keeps
the relative error of the weight below 1e-12 for n up to 1e6.

One broadcast evaluator, ``basis_values(n, x, k)``, computes any weight
this way.  On a grid only a band of each row is kept: the mass of row x
lies within a few sqrt(n) of nx, so ``basis_matrix`` stores the
2W+1 indices around round(nx), W = ceil(sqrt(n ln(2/eps) / 2)) with
eps = 1e-20 (Hoeffding), and inside that band keeps only the entries
within Bernstein's radius L/3 + sqrt((L/3)^2 + 2 L n x(1-x)) + 1,
L = ln(2/eps), which is far narrower near the ends.  Each row drops less
than 1e-20 of its mass, and the block costs O(G sqrt(n)) memory for a
grid of G points instead of O(G n).

Inside the band the log-space path computes only anchors: the entry at
each row's mode round(nx), one every S = _ANCHOR_STEP = 16 entries
outward on both sides, and the closed forms at k = 0 and k = n.  Every
other kept entry is walked outward from its segment's anchor by the
neighbour ratio b(k+1)/b(k) = (n-k)/(k+1) x/(1-x), leftward by its
inverse: a running product of the k-part along the segment times a power
of the x-part, whose rounding is taken out to first order.  Walking away
from the mode, each anchor is the largest entry of its segment, so no
segment climbs out of underflow.  A kept band entry agrees with
``basis_values`` to 1e-12 relative (1e-250 absolute below 1e-250; up to
3e-13 seen), and the band's row sums keep the partition of unity and
the first moment k/n to 8 eps (4 eps seen, as with every entry in log
space).  The block is built in passes that each hold a fixed budget of
band entries, sized so that a pass's temporaries stay in cache; the parts
of log b that depend on k alone or on x alone are computed once per
block, the anchors about _ANCHOR_BATCH at a time in one scratch
workspace, and the walk of every pass in scratch that the call makes and
reuses pass after pass; no scratch is shared between calls.
``basis_matrix`` writes each pass straight into the whole block;
``_band_passes`` also hands the passes out one at a time from one reused
buffer, so a caller that reduces each pass as it comes never holds the
block.  ``basis_values`` runs its broadcast input in passes of the same
size over one workspace.

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
from numpy.lib.stride_tricks import sliding_window_view

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
# scratch that follows it (block sums, surrogate values): the scratch of a
# pass stays in cache.  Measured on a 2-vCPU Intel Xeon (AVX-512) VM, each
# command in a fresh interpreter with its start-up, medians of 6, passes of
# 8k/16k/32k/64k entries, the band walked from anchors: a default
# ``sweep --functions all`` took 0.79/0.73/0.79/0.71 s at a peak RSS of
# 32.6/33.4/35.9/40.3 MiB, and ``eval --f abs_beta_1.0 --n 16384``
# 0.46/0.48/0.46/0.42 s at 31.9/32.2/33.1/34.9 MiB; the times are within
# their noise, the memory is not.
_PASS_ENTRIES = 16384
# Scratch rows of ``_log_b``: five for ``_bd0``, then log b and n - k.
_LOG_B_ROWS = 7
# Band entries from one log-space anchor to the next along a row; the
# entries between are walked from the anchor by the neighbour ratio.  At 32
# or 64 the band's row sums were off by up to 6 or 8.5 eps at n = 16384 on
# the default grid (4 eps at 16, as in log space), and no faster: the
# running product takes one step per entry of a segment.
_ANCHOR_STEP = 16
# Anchors per ``_values`` call of the band passes: one call serves several
# passes, and its workspace of _LOG_B_ROWS rows holds a quarter of a pass.
_ANCHOR_BATCH = 4096

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
    """(nx, err) and (n(1-x), err) as exact double-double pairs.

    ``_bd0`` takes a pair's low part in to first order, which drops
    (low/high)^2; that is below eps wherever the low part is under 2^-26
    of the high part.  Past that, when n(1-x) is a few ulps of n, the
    pair is renormalised by an exact two-sum, so its low part is at most
    half an ulp of its high part.
    """
    hi, lo = _two_prod(float(n), x)
    # n(1-x) = n - nx, re-expanded so the pair stays exact
    m2 = n - hi
    e2 = (n - m2) - hi  # exact: |hi| <= n, classic two-sum branch
    e2 -= lo
    loose = np.abs(e2) > 2.0 ** -26 * m2
    if np.any(loose):
        s = m2 + e2
        bb = s - m2
        m2, e2 = np.where(loose, s, m2), np.where(loose, (m2 - (s - bb)) + (e2 - bb), e2)
    return hi, lo, m2, e2


def _log_const(n: int, k: np.ndarray) -> np.ndarray:
    """The part of log b(n, k, x) that depends on k alone, for float 1 <= k <= n-1.

    One log of k (n-k) / n, not log n - log k - log(n-k): the three logs
    are O(log n) each and their rounding reached 6 eps of log b at
    n = 65536, which a band anchor hands on to every entry walked from it.
    """
    nk = n - k
    return _stirlerr(n) - _stirlerr(k) - _stirlerr(nk) - 0.5 * np.log(k * nk / n) - 0.5 * _LN_2PI


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


def basis_matrix(n: int, xs: np.ndarray) -> np.ndarray:
    """The band block of the basis weights on a grid, shape (len(xs), min(n+1, 2W+1)).

    Row i holds b(n, k, xs[i]) at k = band_start(n, xs)[i] + j.  Entries
    further than the Bernstein radius from n xs[i] are left 0: each row
    drops less than BAND_EPS = 1e-20 of its mass.  Every kept entry is
    walked by the neighbour ratio from a log-space anchor at most
    _ANCHOR_STEP - 1 entries nearer the mode, and agrees with
    ``basis_values`` to 1e-12 relative (1e-250 absolute below 1e-250).
    Memory is O(len(xs) sqrt(n)).  The passes of ``_band_passes`` write
    straight into the block.
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
    passes fill ``out``; without it every block is one buffer, refilled
    by each pass.

    Each row is walked outward from its mode round(n x) by the neighbour
    ratio (``_walk``), from log-space anchors (``_anchors``) one every
    _ANCHOR_STEP entries and at k = 0 and k = n.  The anchors of about
    _ANCHOR_BATCH at a time are one ``_values`` call, on the call's
    k-table and x-only moments, which serves several passes; the walk of
    a pass runs in scratch made once per call, and its rows are copied
    into the band.  Entries outside Bernstein's radius are 0.
    """
    w = _band_radius(n)
    start = _band_start(n, xs, w)
    lo, hi = _kept_bounds(n, xs, start, width, w)
    mode = np.floor(n * xs + 0.5).astype(np.int64)
    const = _log_const_table(n)  # k = 1..n-1
    moments = _split_moments(n, xs)
    rows = _pass_rows(width)
    size = min(rows, xs.size)
    # every kept entry lies within ``reach`` of its row's mode
    reach = int(np.maximum(hi - mode, mode - lo).max(initial=0))
    most = 2 * (reach // _ANCHOR_STEP) + 3  # anchors per row, at most
    batch = rows * max(1, _ANCHOR_BATCH // (rows * most))
    ws = _workspace(_LOG_B_ROWS, min(batch, xs.size) * most)
    half = (reach // _ANCHOR_STEP + 1) * _ANCHOR_STEP
    scratch = np.empty(2 * size * half), np.empty(2 * size * half)
    walked = np.zeros(2 * (width + size * half))  # the walked rows, between two pads of ``width``
    windows = sliding_window_view(walked, width)
    cols = np.arange(width)
    drop = np.empty((size, width), dtype=bool)
    buf = np.empty((size, width)) if out is None else None
    for first in range(0, xs.size, batch):
        bs = slice(first, min(first + batch, xs.size))
        steps = int(np.maximum(hi[bs] - mode[bs], mode[bs] - lo[bs]).max()) // _ANCHOR_STEP
        anchors = _anchors(n, xs[bs], mode[bs], lo[bs], hi[bs], steps, [m[bs] for m in moments], const, ws)
        powers = _powers(n, xs[bs], mode[bs])
        span = 2 * (steps + 1) * _ANCHOR_STEP - 1  # walked entries per row
        for p in range(bs.start, bs.stop, rows):
            sl = slice(p, min(p + rows, bs.stop))
            r = sl.stop - p
            block = out[sl] if out is not None else buf[:r]
            _walk(n, anchors[p - first:sl.stop - first], mode[sl], powers[..., p - first:sl.stop - first],
                  scratch, walked[width:width + r * span].reshape(r, span))
            # row i's band starts at its walked entry k = start[i], span // 2 + start[i] - mode[i] into its walk
            block[...] = windows[width + span * np.arange(r) + start[sl] - mode[sl] + span // 2]
            np.less(cols, (lo[sl] - start[sl])[:, None], out=drop[:r])
            drop[:r] |= cols > (hi[sl] - start[sl])[:, None]
            np.copyto(block, 0.0, where=drop[:r])
            yield sl, block


def _kept_bounds(n: int, xs: np.ndarray, start: np.ndarray, width: int, w: int) -> tuple:
    """First and last index k of the kept part of each row's band.

    Bernstein's inequality puts all but BAND_EPS of the mass within
    L/3 + sqrt((L/3)^2 + 2 L n x(1-x)) of nx, with L = ln(2/BAND_EPS);
    near the ends that is far inside the Hoeffding radius W.  The kept
    part of a band is its k with |k - nx| <= min(W, that radius) + 1, the
    test evaluated in doubles: it holds on an interval, whose ends are
    found among the five integers around nx -+ the radius.  A band that
    is the whole row is kept whole.
    """
    if 2 * w >= n:
        return np.zeros(xs.shape, dtype=np.int64), np.full(xs.shape, n, dtype=np.int64)
    third = _BAND_LOG / 3.0
    radius = np.minimum(w, third + np.sqrt(third * third + 2.0 * _BAND_LOG * n * xs * (1.0 - xs))) + 1.0
    nx = n * xs
    lo, hi = np.ceil(nx - radius), np.floor(nx + radius)
    # the test holds at lo + 2 and hi - 2 and is monotone on either side of nx
    lo += 3.0 - sum(np.abs(lo + d - nx) <= radius for d in range(-2, 3))
    hi += sum(np.abs(hi + d - nx) <= radius for d in range(-2, 3)) - 3.0
    return np.maximum(lo, start).astype(np.int64), np.minimum(hi, start + width - 1).astype(np.int64)


def _powers(n: int, x: np.ndarray, mode: np.ndarray) -> np.ndarray:
    """Powers of the x-part of the neighbour ratio along a segment, shape (S, 2, len(x)).

    [t, 0] is (x/(1-x))^t and [t, 1] is ((1-x)/x)^t for t < S =
    _ANCHOR_STEP, each the power of the exact ratio to first order: with
    1 - x written as the exact sum s + c, the relative rounding d of the
    quotient r (from its residual by ``_two_prod``) is taken out as
    r^t (1 + t d), and every power is one ``pow``, so its rounding does
    not grow with t.  A ratio that no walk of its row takes (x/(1-x) at
    mode n, (1-x)/x at mode 0) is 0, so x in {0, 1} divides by nothing.
    """
    s = 1.0 - x
    c = (1.0 - s) - x  # exact: s + c = 1 - x
    up, down = mode < n, mode > 0  # then 1 - x > 1/(2n), x >= 1/(2n)
    rho = np.divide(x, s, out=np.zeros(x.shape), where=up)
    hi, lo = _two_prod(rho, s)
    drho = np.divide((x - hi) - lo, x, out=np.zeros(x.shape), where=rho > 0.0)
    drho -= np.divide(c, s, out=np.zeros(x.shape), where=up)
    sigma = np.divide(s, x, out=np.zeros(x.shape), where=down)
    hi, lo = _two_prod(sigma, x)
    dsigma = np.divide((s - hi) - lo + c, s, out=np.zeros(x.shape), where=sigma > 0.0)
    t = np.arange(float(_ANCHOR_STEP))[:, None, None]
    out = np.power(np.stack([rho, sigma]), t)
    out += out * (t * np.stack([drho, dsigma]))
    return out


def _anchors(n, x, mode, lo, hi, steps, moments, const, ws) -> np.ndarray:
    """Log-space weights at the anchors of a batch of rows, shape (len(x), 2 steps + 3).

    Column steps + j holds b(n, mode + j S, x) for |j| <= steps, with
    S = _ANCHOR_STEP, and the last two columns b(n, 0, x) and b(n, n, x).
    An anchor outside its row's kept indices lo..hi is 0.  ``moments``
    are the rows' ``_split_moments`` and ``const`` the call's k-table;
    ``ws`` is a workspace of at least as many entries as the result.
    """
    k = np.empty((x.size, 2 * steps + 3), dtype=np.int64)
    np.add(mode[:, None], _ANCHOR_STEP * np.arange(-steps, steps + 1), out=k[:, :-2])
    k[:, -2], k[:, -1] = 0, n
    kept = (k >= lo[:, None]) & (k <= hi[:, None])
    row = np.nonzero(kept)[0]
    out = np.zeros(k.shape)
    out[kept] = _values(n, x[row], k[kept], [m[row] for m in moments], lambda kk: const[kk - 1], ws)
    return out


def _walk(n: int, anchors: np.ndarray, mode: np.ndarray, powers: np.ndarray, scratch: tuple,
          out: np.ndarray) -> None:
    """Walk the rows outward from their ``_anchors`` by the neighbour ratio, into ``out``.

    Row i of ``out``, shape (rows, 2 half - 1) with half = (steps + 1) S
    and S = _ANCHOR_STEP, gets b(n, k, x_i) at k = mode[i] - half + 1,
    ..., mode[i] + half - 1, wherever k lies in the kept part of the row.
    Each anchor starts a segment of S - 1 entries away from the mode:
    entry t of the segment from k0 is the anchor times the running product
    of (n+1-k)/k over k = k0+1..k0+t rightward, or of (k+1)/(n-k) over
    k = k0-1..k0-t leftward, times ``powers[t]``, the t-th power of
    x/(1-x) or (1-x)/x (``_powers``).  So each anchor is the largest value
    of its segment and no segment climbs out of underflow.  The end
    weights are the anchors' closed forms.  The walk runs in the two
    buffers of ``scratch``, each of at least 2 rows half entries.
    """
    step, rows = _ANCHOR_STEP, mode.size
    steps = (anchors.shape[1] - 3) // 2
    half, segs = (steps + 1) * step, rows * (steps + 1)
    # v[t, 0, i, j] is at k = k0 + t from k0 = mode + j S, v[t, 1, i, j] at k0 - t
    # from k0 = mode - j S: segments run down axis 0, so each product step is one
    # operation over every segment
    v = scratch[0][:2 * step * segs].reshape(step, 2, rows, steps + 1)
    jump = step * np.arange(steps + 1.0)
    up, down = (mode[:, None] + jump).ravel(), (mode[:, None] - jump).ravel()
    t = np.arange(1.0, step)[:, None]
    factors = v[1:].reshape(step - 1, 2 * segs)
    np.subtract(np.concatenate([(n + 1.0) - up, down + 1.0]), t, out=factors)
    factors /= np.add(np.concatenate([up, n - down]), t, out=scratch[1][:factors.size].reshape(factors.shape))
    v[0, 0] = anchors[:, steps:-2]
    v[0, 1] = anchors[:, steps::-1]
    for i in range(1, step):
        v[i] *= v[i - 1]
    v *= powers[..., None]
    np.copyto(out[:, half - 1:].reshape(rows, steps + 1, step), v[:, 0].transpose(1, 2, 0))
    np.copyto(out[:, half - 1::-1].reshape(rows, steps + 1, step), v[:, 1].transpose(1, 2, 0))
    if mode.min(initial=n) < half:
        i = np.nonzero(mode < half)[0]
        out[i, half - 1 - mode[i]] = anchors[i, -2]
    if mode.max(initial=0) > n - half:
        i = np.nonzero(mode > n - half)[0]
        out[i, n + half - 1 - mode[i]] = anchors[i, -1]


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
