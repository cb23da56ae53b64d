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

On a grid only a band of each row is kept: the mass of row x lies
within a few sqrt(n) of nx, so ``basis_matrix`` stores the 2W+1 indices
around round(nx), W = ceil(sqrt(n ln(2/eps) / 2)) with eps = 1e-20
(Hoeffding), and inside that band keeps only the entries within
Bernstein's radius L/3 + sqrt((L/3)^2 + 2 L n x(1-x)) + 1, L = ln(2/eps),
which is far narrower near the ends.  Each row drops less than 1e-20 of
its mass, and the block costs O(G sqrt(n)) memory for a grid of G points
instead of O(G n).

Every row is walked by ``_band_passes`` between the first and last index
that its caller keeps: the band's (``_band_bounds``) or any window, such
as those of Lemmas 5 and 6.  The log-space path computes only anchors:
the entry at the row's mode round(nx), clipped into the kept indices,
one every S = _ANCHOR_STEP = 16 entries outward on both sides, and the
closed forms at k = 0 and k = n.  Every other kept entry is walked
outward from its segment's anchor by the neighbour ratio b(k+1)/b(k) =
(n-k)/(k+1) x/(1-x), leftward by its inverse: a running product of the
k-part times a power of the x-part, whose rounding is taken out to first
order.  Walking away from the mode, each anchor is the largest entry of
its segment, so no segment climbs out of underflow.  A kept entry agrees
with the log-space weight (the broadcast evaluator of the tests,
``tests/basis_oracle.py``) to 1e-12 relative (1e-250 absolute below
1e-250; up to 3e-13 seen), and the band's row sums keep the partition of
unity and the first moment k/n to 8 eps (4 eps seen).  The walk is cut
past the kept indices: the factor into the first index past either end
is 0, so every entry that a block reads outside them is +0.0.  Each
walked row lies in a buffer between runs of zeros as long as a window
reaches past the walk, so a block row is the start-aligned window of its
walk, with no mask; where a batch of rows walks less far than the batch
before, the ring of the buffer that it no longer writes is cleared.  The
rows come in passes of a fixed budget of entries, sized so that a pass's
temporaries stay in cache; the k-only and x-only parts of log b are
computed once per call, the anchors in batches of whole passes, at most
_ANCHOR_BATCH anchors and _PASS_ENTRIES / (4 S) rows, and the powers of
the ratio's x-part once per chunk of whole anchor batches, at most that
many rows.  The walk's
products run once per anchor batch, in one step-major buffer, and are
laid into the rows' lanes a pass at a time.  The call keeps that scratch
in one arena: the anchor stage's rows (its workspace and the k and
moments it gathers), and over them the walk's products and the pass
buffer, which takes the walk's denominators until the walk is laid.  No
stage outlives the next batch's anchors, so they share the memory; each
call makes its own arena, and no scratch is shared between calls.  The
passes come one at a time in the reused pass buffer, so a caller that
reduces each pass as it comes never holds the block; ``basis_matrix``
copies each into the whole block.

Every basis-weighted sum, sum_k c(k, x) b(n, k, x), is summed 64 columns
at a time: each block of terms is summed pairwise and the block sums are
joined by one exact two-sum accumulation, ``_two_sum_total``.  ``ksum``
sums an array in memory this way; the operator's apply takes the band
pass by pass instead, sums each pass's blocks as it comes and joins the
held block sums a chunk of rows at a time.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "basis_matrix",
    "band_start",
    "ksum",
]

BAND_EPS = 1e-20
_BAND_LOG = math.log(2.0 / BAND_EPS)
_LN_2PI = math.log(2.0 * math.pi)
# Entries per pass of the band and of every chunk of scratch that follows
# it (block sums, surrogate values): the scratch of a pass stays in
# cache.  Measured on a 2-vCPU Intel Xeon (AVX-512) VM, each
# command in a fresh interpreter with its start-up, medians of 6, passes of
# 8k/16k/32k/64k entries, the band walked from anchors: a default
# ``sweep --functions all`` took 0.79/0.73/0.79/0.71 s at a peak RSS of
# 32.6/33.4/35.9/40.3 MiB, and ``eval --f abs_beta_1.0 --n 16384``
# 0.46/0.48/0.46/0.42 s at 31.9/32.2/33.1/34.9 MiB; the times are within
# their noise, the memory is not.
_PASS_ENTRIES = 16384
# Scratch rows of the log-space weights: five for ``_bd0``, then log b,
# n - k, k as a float and its k-table entries (``_log_b``), then the
# anchors' k and their rows' four moments (``_anchors``).
_LOG_B_ROWS = 14
# Band entries from one log-space anchor to the next along a row; the
# entries between are walked from the anchor by the neighbour ratio.  At 32
# or 64 the band's row sums were off by up to 6 or 8.5 eps at n = 16384 on
# the default grid (4 eps at 16, as in log space), and no faster: the
# running product takes one step per entry of a segment.
_ANCHOR_STEP = 16
# Anchors per ``_anchors`` call of the band passes, whole passes of rows: one
# call serves several passes.  Measured on a 2-vCPU Intel Xeon (AVX-512) VM
# with the arena of ``_band_passes``, ``eval --f abs_beta_1.0 --xi 0.37
# --alpha 1 --n 16384`` (13-row passes): batches of 3/5/6 passes
# (4096/6144/7168 anchors) took 71/63/59 ms of warm in-process CPU time, its
# apply's traced peak read 1734/1953/2141 KiB, and one cold eval in a fresh
# interpreter took 73 ms at 5 passes and 72 at 6; at 6 a default ``sweep
# --functions all`` peaked 0.11 MiB higher (VmHWM) than at 5.
_ANCHOR_BATCH = 6144

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
    """log b(n, k, x) for integer 0 < k < n from the k-table ``const`` and the x-only ``_split_moments``.

    Works in the first len(k) entries of the first nine rows of workspace
    ``ws``, k's float copy and table entries in rows 7 and 8, and returns
    row 5 there.
    """
    nx, nx_lo, n1x, n1x_lo = moments
    ws = ws[0][:, :k.size], ws[1][:k.size]
    out, nk, kf, c = ws[0][5:9]
    # no index is clipped: "clip" only spares the checked copy that "raise" makes of ``out``
    np.take(const, np.subtract(k, 1, out=kf.view(np.int64)), out=c, mode="clip")
    np.copyto(kf, k)
    np.subtract(c, _bd0(kf, nx, nx_lo, ws), out=out)
    np.subtract(n, kf, out=nk)
    return np.subtract(out, _bd0(nk, n1x, n1x_lo, ws), out=out)


def _values(n: int, x: np.ndarray, k: np.ndarray, moments, const: np.ndarray, ws: tuple) -> np.ndarray:
    """Basis weights b(n, k, x) in log space, for x in [0, 1] and integer k in [0, n] of one length.

    ``moments`` is ``_split_moments(n, x)`` and ``const`` the k-table
    ``_log_const_table(n)``; the caller computes both once.  ``ws`` is a
    workspace of at least nine rows and len(x) entries; the result may be
    one of its rows.  The closed forms for k in {0, n} and x in {0, 1}
    live here alone.
    """
    inside = (x > 0.0) & (x < 1.0)
    mid = inside & (k > 0) & (k < n)
    if mid.all():
        r = _log_b(n, k, const, moments, ws)
        return np.exp(r, out=r)
    out = np.zeros(x.shape)
    r = _log_b(n, k[mid], const, [m[mid] for m in moments], ws)
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
    return _band_bounds(int(n), np.asarray(xs, dtype=float))[0]


def _band_bounds(n: int, xs: np.ndarray) -> tuple:
    """(start, lo, hi) of each row's band: ``band_start`` and the first and last index it keeps.

    Bernstein's inequality puts all but BAND_EPS of the mass within
    L/3 + sqrt((L/3)^2 + 2 L n x(1-x)) of nx, with L = ln(2/BAND_EPS);
    near the ends that is far inside the Hoeffding radius W.  The kept
    part of a band is its k with |k - nx| <= min(W, that radius) + 1, the
    test evaluated in doubles: it holds on an interval, whose ends are
    found among the five integers around nx -+ the radius.  A band that
    is the whole row is kept whole.
    """
    w = _band_radius(n)
    if 2 * w >= n:
        zero = np.zeros(xs.shape, dtype=np.int64)
        return zero, zero, np.full(xs.shape, n, dtype=np.int64)
    start = np.clip(np.floor(n * xs + 0.5).astype(np.int64) - w, 0, n - 2 * w)
    third = _BAND_LOG / 3.0
    radius = np.minimum(w, third + np.sqrt(third * third + 2.0 * _BAND_LOG * n * xs * (1.0 - xs))) + 1.0
    nx = n * xs
    lo, hi = np.ceil(nx - radius), np.floor(nx + radius)
    # the test holds at lo + 2 and hi - 2 and is monotone on either side of nx
    lo += 3.0 - sum(np.abs(lo + d - nx) <= radius for d in range(-2, 3))
    hi += sum(np.abs(hi + d - nx) <= radius for d in range(-2, 3)) - 3.0
    return start, np.maximum(lo, start).astype(np.int64), np.minimum(hi, start + 2 * w).astype(np.int64)


def basis_matrix(n: int, xs: np.ndarray) -> np.ndarray:
    """The band block of the basis weights on a grid, shape (len(xs), min(n+1, 2W+1)).

    Row i holds b(n, k, xs[i]) at k = band_start(n, xs)[i] + j.  Entries
    further than the Bernstein radius from n xs[i] are left 0: each row
    drops less than BAND_EPS = 1e-20 of its mass.  Every kept entry is
    walked by the neighbour ratio from a log-space anchor at most
    _ANCHOR_STEP - 1 entries nearer the mode, and agrees with
    the log-space weight to 1e-12 relative (1e-250 absolute below
    1e-250).  Memory is O(len(xs) sqrt(n)).  Each pass of
    ``_band_passes`` is copied into the block.
    """
    n, xs, width, bounds = _band_grid(n, xs)
    out = np.empty((xs.size, width))
    for sl, block in _band_passes(n, xs, width, bounds):
        out[sl] = block
    return out


def _band_grid(n: int, xs) -> tuple:
    """(n, xs, band width, ``_band_bounds``) checked as ``basis_matrix`` takes them."""
    n = int(n)
    if n < 1:
        raise ValueError(f"degree n must be >= 1, got {n}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
        raise ValueError("grid points must lie in [0, 1]")
    return n, xs, min(n + 1, 2 * _band_radius(n) + 1), _band_bounds(n, xs)


def _pass_rows(width: int) -> int:
    """Band rows per pass: about _PASS_ENTRIES entries of ``width`` columns."""
    return max(1, _PASS_ENTRIES // width)


def _band_passes(n: int, xs: np.ndarray, width: int, bounds: tuple):
    """Walk the rows of xs pass by pass between the indices that ``bounds`` keeps.

    Takes n and xs as ``_band_grid`` returns them, and ``bounds`` =
    (start, lo, hi): row i holds b(n, start[i] + j, xs[i]) for j < width
    where lo[i] <= k <= hi[i], with start[i] <= lo[i] and hi[i] < start[i]
    + width, and +0.0 elsewhere.  Yields (rows, block) for consecutive
    slices ``rows`` of ``_pass_rows`` grid points, block holding their
    rows in one buffer that every pass reuses and the next anchor batch
    overwrites: a block holds until the next pass is asked for.

    Each row is walked outward from its mode round(n x), clipped into
    lo..hi, by the neighbour ratio from log-space anchors (``_anchors``),
    those of a batch of whole passes in one call: at most _ANCHOR_BATCH
    anchors and _PASS_ENTRIES / (4 _ANCHOR_STEP) rows, but one pass at
    least.  The ratio's x-part (``_powers``) is made once per chunk of
    whole anchor batches, at most that many rows, so its table of 2
    _ANCHOR_STEP entries a row fills at most half a pass.  One ``_walk``
    call runs the products of a whole anchor batch, and ``_lay`` copies
    them into the pass-sized lanes a pass at a time.  The anchor stage's
    rows, the walk's products and the pass buffer share one arena, a
    ``_workspace`` sized for the larger of the two stages, and the pass
    buffer takes the walk's denominators.  The walk is cut past lo..hi, so
    its entries there are +0.0, and each walked row lies between runs of
    zeros that no window reads past: a block row is its start-aligned
    window of the walked row, with no mask.
    """
    start, lo, hi = bounds
    mode = np.clip(np.floor(n * xs + 0.5).astype(np.int64), lo, hi)
    const = _log_const_table(n)  # k = 1..n-1
    moments = _split_moments(n, xs)
    rows = _pass_rows(width)
    size = min(rows, xs.size)
    # every kept entry lies within ``reach`` of its row's mode
    reach = int(np.maximum(hi - mode, mode - lo).max(initial=0))
    most = 2 * (reach // _ANCHOR_STEP) + 3  # anchors per row, at most
    # anchors per batch, whole passes: at most _ANCHOR_BATCH, and past one pass no more
    # rows than a chunk may hold
    batch = rows * max(1, min(_ANCHOR_BATCH // (rows * most), _PASS_ENTRIES // (4 * _ANCHOR_STEP * rows)))
    # rows per ``_powers`` call, whole batches: its table of 2 S entries a row fills at
    # most half a pass (a whole pass raised the peak of a default sweep by 0.5 MiB)
    chunk = batch * max(1, _PASS_ENTRIES // (4 * _ANCHOR_STEP * batch))
    half = (reach // _ANCHOR_STEP + 1) * _ANCHOR_STEP
    # one arena: the anchor workspace's rows, and over them the walk's products,
    # then the pass buffer; each is done with before the next batch's anchors
    walk = 2 * min(batch, xs.size) * half  # entries of a batch's products
    ws = _workspace(_LOG_B_ROWS, max(min(batch, xs.size) * most, -(-(walk + size * width) // _LOG_B_ROWS)))
    arena = ws[0].reshape(-1)
    products, buf = arena[:walk], arena[walk:walk + size * width].reshape(size, width)
    # row i walks in lanes[i, :2 half - 1], its mode at column half - 1; ``width``
    # zeros lie before row 0 and width - half after every row: a window, which
    # starts at most width - 1 before its mode, reaches at most width - half past
    # its row's walk, so no window reads another row
    lane = 2 * half - 1 + max(width - half, 0)
    walked = np.zeros(width + size * lane)
    lanes = walked[width:].reshape(size, lane)
    windows = sliding_window_view(walked, width)
    prev = 0  # lanes are 0 outside their columns half - prev .. half + prev - 2
    for first in range(0, xs.size, batch):
        bs = slice(first, min(first + batch, xs.size))
        if first % chunk == 0:
            cs = slice(first, min(first + chunk, xs.size))
            powers = _powers(xs[cs], mode[cs], lo[cs], hi[cs])
        steps = int(np.maximum(hi[bs] - mode[bs], mode[bs] - lo[bs]).max()) // _ANCHOR_STEP
        hb = (steps + 1) * _ANCHOR_STEP  # this batch walks lanes[:, half - hb:half + hb - 1]
        if hb < prev:  # clear the ring that the wider walks before wrote and these do not
            lanes[:, half - prev:half - hb] = 0.0
            lanes[:, half + hb - 1:half + prev - 1] = 0.0
        prev = hb
        anchors = _anchors(n, xs[bs], mode[bs], lo[bs], hi[bs], steps, [m[bs] for m in moments], const, ws)
        # the pass buffer is free until the walk is laid, so it takes the walk's denominators
        v = _walk(n, anchors, mode[bs], lo[bs], hi[bs], powers[..., first - cs.start:bs.stop - cs.start],
                  products, buf)
        for p in range(bs.start, bs.stop, rows):
            sl = slice(p, min(p + rows, bs.stop))
            r = sl.stop - p
            block = buf[:r]
            b = slice(p - first, sl.stop - first)
            _lay(n, v[:, :, b], anchors[b], mode[sl], lanes[:r, half - hb:half + hb - 1])
            # row i starts at its walked entry k = start[i], half - 1 + start[i] - mode[i] into its lane
            block[...] = windows[width + lane * np.arange(r) + start[sl] - mode[sl] + half - 1]
            yield sl, block


def _powers(x: np.ndarray, mode: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Powers of the x-part of the neighbour ratio along a segment, shape (S, 2, len(x)).

    [t, 0] is (x/(1-x))^t and [t, 1] is ((1-x)/x)^t for t < S =
    _ANCHOR_STEP, each the power of the exact ratio to first order: with
    1 - x written as the exact sum s + c, the relative rounding d of the
    quotient r (from its residual by ``_two_prod``) is taken out as
    r^t (1 + t d), and every power is one ``pow``, so its rounding does
    not grow with t.  A ratio that no walk of its row takes is 0: x/(1-x)
    when no kept index lies above the mode, (1-x)/x when none lies below.
    So x in {0, 1} divides by nothing, and no tiny x whose mode is clipped
    up to a window's first index takes a power of 1/x.
    """
    s = 1.0 - x
    c = (1.0 - s) - x  # exact: s + c = 1 - x
    up, down = hi > mode, lo < mode  # then 1 - x > 1/(2n), x >= 1/(2n)
    rho = np.divide(x, s, out=np.zeros(x.shape), where=up)
    p, e = _two_prod(rho, s)
    drho = np.divide((x - p) - e, x, out=np.zeros(x.shape), where=rho > 0.0)
    drho -= np.divide(c, s, out=np.zeros(x.shape), where=up)
    sigma = np.divide(s, x, out=np.zeros(x.shape), where=down)
    p, e = _two_prod(sigma, x)
    dsigma = np.divide((s - p) - e + c, s, out=np.zeros(x.shape), where=sigma > 0.0)
    t = np.arange(float(_ANCHOR_STEP))[:, None, None]
    out = np.empty((_ANCHOR_STEP, 2, x.size))
    out[0], out[1, 0], out[1, 1] = 1.0, rho, sigma  # pow(r, 0) = 1 and pow(r, 1) = r exactly
    np.power(out[1], t[2:], out=out[2:])
    fix = t * np.stack([drho, dsigma])  # one (S, 2, len(x)) temporary, not two
    fix *= out
    out += fix
    return out


def _anchors(n, x, mode, lo, hi, steps, moments, const, ws) -> np.ndarray:
    """Log-space weights at the anchors of a batch of rows, shape (len(x), 2 steps + 3).

    Column steps + j holds b(n, mode + j S, x) for |j| <= steps, with
    S = _ANCHOR_STEP, and the last two columns b(n, 0, x) and b(n, n, x).
    An anchor outside its row's kept indices lo..hi is 0.  ``moments``
    are the rows' ``_split_moments`` and ``const`` the call's k-table;
    ``ws`` is a workspace of _LOG_B_ROWS rows, each of at least as many
    entries as the result.  Every k, and the k and moments gathered for
    the anchors inside 0 < k < n of x inside (0, 1), lie in its rows; only
    a batch whose rows keep k = 0 or n runs ``_values`` on copies of its
    other anchors, for their closed forms.
    """
    cols = 2 * steps + 3
    rows = ws[0][:, :x.size * cols].view(np.int64)  # int rows in the memory of the float rows
    k = rows[0].reshape(x.size, cols)
    np.add(mode[:, None], _ANCHOR_STEP * np.arange(-steps, steps + 1), out=k[:, :-2])
    k[:, -2], k[:, -1] = 0, n
    inside = (x > 0.0) & (x < 1.0)
    mid = (k >= np.maximum(lo, 1)[:, None]) & (k <= np.where(inside, np.minimum(hi, n - 1), 0)[:, None])
    at = np.flatnonzero(mid)
    got = ws[0][9:, :at.size]  # rows 0-8 are _log_b's
    row = np.floor_divide(at, cols, out=rows[1, :at.size])
    km = np.take(k, at, out=got[0].view(np.int64), mode="clip")  # "clip" as in ``_log_b``
    gathered = [np.take(m, row, out=g, mode="clip") for m, g in zip(moments, got[1:])]
    out = np.zeros(k.shape)
    if lo.min(initial=n) == 0 or hi.max(initial=0) == n:
        # the closed forms, which leave the workspace as it is
        i, j = np.nonzero((k >= lo[:, None]) & (k <= hi[:, None]) & ~mid)
        out[i, j] = _values(n, x[i], k[i, j], [m[i] for m in moments], const, ws)
    r = _log_b(n, km, const, gathered, ws)
    out.reshape(-1)[at] = np.exp(r, out=r)
    return out


def _walk(n: int, anchors: np.ndarray, mode: np.ndarray, lo: np.ndarray, hi: np.ndarray, powers: np.ndarray,
          products: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Walk the rows outward from their ``_anchors`` by the neighbour ratio, segment by segment.

    Returns v, shape (S, 2, rows, steps + 1) with S = _ANCHOR_STEP, in
    the first entries of ``products``: v[t, 0, i, j] is b(n, k, x_i) at
    k = mode[i] + j S + t and v[t, 1, i, j] at k = mode[i] - j S - t
    where lo[i] <= k <= hi[i], and +0.0 at the other k in 0..n; ``_lay``
    puts the rows in place and the end weights at k = 0 and n.  Each anchor
    starts a segment of S - 1 entries away from the mode: entry t of the
    segment from k0 is the anchor times the running product of
    (n+1-k)/k over k = k0+1..k0+t rightward, or of (k+1)/(n-k) over
    k = k0-1..k0-t leftward, times ``powers[t]``, the t-th power of
    x/(1-x) or (1-x)/x (``_powers``).  So each anchor is the largest
    value of its segment and no segment climbs out of underflow.  The
    factor into hi + 1, and into lo - 1, is 0 where that index lies
    inside a segment (an anchor there is 0 already), so the product is 0
    past both.  Segments run down axis 0, so each product step is one
    operation over every segment of the rows: the caller walks a whole
    anchor batch in one call.  ``products`` holds at least 2 rows
    (steps + 1) S entries, and ``spare``, a contiguous buffer of at least
    2 rows (steps + 1) entries that the walk may overwrite (the caller's
    pass buffer), takes the factors' denominators a few t at a time.
    """
    step, rows = _ANCHOR_STEP, mode.size
    steps = (anchors.shape[1] - 3) // 2
    segs = rows * (steps + 1)
    v = products[:2 * step * segs].reshape(step, 2, rows, steps + 1)
    jump = step * np.arange(steps + 1.0)
    up, down = (mode[:, None] + jump).ravel(), (mode[:, None] - jump).ravel()
    t = np.arange(1.0, step)[:, None]
    factors = v[1:].reshape(step - 1, 2 * segs)
    np.subtract(np.concatenate([(n + 1.0) - up, down + 1.0]), t, out=factors)
    base = np.concatenate([up, n - down])
    per = spare.size // (2 * segs)  # the denominators of ``per`` t fit in spare
    for a in range(0, step - 1, per):
        den = spare.reshape(-1)[:2 * segs * min(per, step - 1 - a)].reshape(-1, 2 * segs)
        factors[a:a + per] /= np.add(base, t[a:a + per], out=den)
    for side, past in enumerate((hi - mode + 1, mode - lo + 1)):  # offsets of hi + 1 and lo - 1
        i = np.flatnonzero(past % step)
        v[past[i] % step, side, i, past[i] // step] = 0.0
    v[0, 0] = anchors[:, steps:-2]
    v[0, 1] = anchors[:, steps::-1]
    for i in range(1, step):
        v[i] *= v[i - 1]
    v *= powers[..., None]
    return v


def _lay(n: int, v: np.ndarray, anchors: np.ndarray, mode: np.ndarray, out: np.ndarray) -> None:
    """Lay walked rows ``v`` (``_walk``'s, of some rows) into ``out``, with their end weights.

    Row i of ``out``, shape (rows, 2 half - 1) with half = (steps + 1) S,
    gets b(n, k, x_i) at k = mode[i] - half + 1, ..., mode[i] + half - 1
    where lo[i] <= k <= hi[i], and +0.0 at the other k in 0..n.  The end
    weights are the anchors' closed forms.
    """
    step, rows, steps = _ANCHOR_STEP, mode.size, v.shape[3] - 1
    half = (steps + 1) * step
    np.copyto(out[:, half - 1:].reshape(rows, steps + 1, step), v[:, 0].transpose(1, 2, 0))
    np.copyto(out[:, half - 1::-1].reshape(rows, steps + 1, step), v[:, 1].transpose(1, 2, 0))
    if mode.min(initial=n) < half:
        i = np.nonzero(mode < half)[0]
        out[i, half - 1 - mode[i]] = anchors[i, -2]
    if mode.max(initial=0) > n - half:
        i = np.nonzero(mode > n - half)[0]
        out[i, n + half - 1 - mode[i]] = anchors[i, -1]


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
    """Compensated sum along ``axis``, 64 entries at a time.

    Each block of 64 is summed pairwise and the block sums are joined by
    ``_two_sum_total``, so the result carries compensated-summation
    accuracy.
    """
    am = np.moveaxis(np.asarray(a, dtype=float), axis, -1)
    return _two_sum_total(am[..., lo:lo + 64].sum(axis=-1) for lo in range(0, am.shape[-1], 64))
