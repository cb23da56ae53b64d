"""Weighted second-order moduli of smoothness.

The modulus takes a sup over step sizes h <= t.  The h values are drawn
from a fixed global geometric ladder (not rescaled per t), so enlarging t
only adds candidate steps; this makes the computed modulus exactly
non-decreasing in t above the ladder floor 2^-12 (a smaller width has
the single step h = t), and lets ``ladder_moduli`` read every width off
one pass over the ladder.  The weight always multiplies from outside the
difference stencil; stencil points may approach the singular point xi,
but any stencil that lands exactly on xi (or leaves the domain) is
treated as undefined and excluded from the sup.

``ladder_band_sups`` takes the ladder a chunk of steps at a time: each
point set is one (steps x points) block of about basis._PASS_ENTRIES
entries, so NumPy's per-call cost is paid per chunk, not per step.  Its
scratch is a few such blocks beside the grid-sized arrays whatever the
grid size or ladder length, and every value has the bits of a plain
per-step loop over the same points.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import _PASS_ENTRIES
from .weight import GridSpec, SingularWeight, grid_points, phi

__all__ = ["h_ladder", "ladder_band_sups", "ladder_moduli"]

_H_FLOOR = 2.0 ** -12
_BAND_POINTS = 129
# Offsets from xi, in units of h, of the points added near xi at each step.
_NEAR_XI = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0])


def h_ladder(t: float, h_steps: int = 32) -> np.ndarray:
    """Geometric step candidates below t, drawn from a global ladder.

    h_steps sets the density (points per factor-16 range); the ladder is
    shared across t values so that grids for nested t are nested.
    """
    if t <= _H_FLOOR:
        return np.array([t])
    per = max(1, round(h_steps / 4))
    jmin = math.ceil(per * math.log2(1.0 / t) - 1e-12)
    jmax = per * 12
    hs = np.exp2(-np.arange(jmin, jmax + 1) / per)
    return hs[hs <= t]


def _weighted_diffs(f, w, xi, points, centre, valid, known=None):
    """|w(x) (f(c) - 2 f(b) + f(a))| over a block of stencils; 0 where one is undefined.

    ``points`` is (a, b, c), blocks of one shape, and x = points[centre].
    A stencil is undefined where ``valid`` is False, where it leaves
    [0, 1] or where one of its points is xi.  f and w see only the
    defined stencils' points, gathered into 1-D arrays; ``known`` is
    (f(x), w(x)) where the caller already has them, for the grid.
    """
    a, b, c = points
    ok = valid & (np.minimum(a, c) >= 0.0) & (np.maximum(a, c) <= 1.0) & (a != xi) & (b != xi) & (c != xi)

    def at(p, i):
        if i == centre and known is not None:
            return np.broadcast_to(known[0], ok.shape)[ok]
        return np.asarray(f(p[ok]), dtype=float)

    wx = w(points[centre][ok]) if known is None else np.broadcast_to(known[1], ok.shape)[ok]
    out = np.zeros(ok.shape)
    out[ok] = np.abs(wx * (at(c, 2) - 2.0 * at(b, 1) + at(a, 0)))
    return out


def _row_sups(values: np.ndarray, where=None) -> np.ndarray:
    """Row maxima of non-negative ``values`` over ``where``, NaN skipped; 0 for a row with none.

    Outside ``where`` an entry becomes 0 or, from inf, NaN, so it never wins.
    """
    return np.fmax.reduce(values if where is None else values * where, axis=1, initial=0.0)


def _chunks(widths: np.ndarray):
    """Slices of consecutive steps whose blocks hold about _PASS_ENTRIES entries, at least one step.

    ``widths`` holds each step's points; the first step of a chunk sets
    its size, since the ladder's widest step comes first.
    """
    first = 0
    while first < widths.size:
        stop = first + max(1, _PASS_ENTRIES // max(int(widths[first]), 1))
        yield slice(first, stop)
        first = stop


def _sym_sups(f, w, xi, x, step, valid, known, cut, band, main):
    """Fold a block's symmetric differences into its rows' three-band and main-part sups.

    The differences are evaluated once; ``band`` takes their sup over
    [cut, 1 - cut], ``main`` over the stencils strictly inside (0, 1).
    """
    a, c = x - step, x + step
    values = _weighted_diffs(f, w, xi, (a, x, c), 1, valid, known)
    np.maximum(band, _row_sups(values, (x >= cut) & (x <= 1.0 - cut)), out=band)
    np.maximum(main, _row_sups(values, (a > 0.0) & (c < 1.0)), out=main)


def _oneside_sups(f, w, xi, x, h, lo, hi, g, sign, known, sup):
    """Fold a block's one-sided differences (sign +1 forward, -1 backward) on [lo, hi] into ``sup``.

    A row's band is empty where hi <= lo.
    """
    valid = (x >= lo) & (x <= hi) & (hi > lo) & g.kept(x, xi)
    values = _weighted_diffs(f, w, xi, (x, x + sign * h, x + sign * 2.0 * h), 0, valid, known)
    np.maximum(sup, _row_sups(values), out=sup)


def ladder_band_sups(f, w: SingularWeight, lam: float, hs, g: GridSpec):
    """Per-step band values underlying both moduli.

    For each h returns the three-band sum (symmetric differences on
    [16h^2, 1-16h^2]; one-sided differences on the shrinking boundary
    bands, padded with uniform points since few grid points land there)
    and the main-part sup (symmetric stencil strictly inside (0, 1)).
    The weighted symmetric difference peaks within O(h) of xi, so the
    caller's grid is supplemented there at each step scale; like the grid,
    every added point keeps the exclusion radius from xi.

    Each point set (the grid, the points near xi, each boundary band's
    grid points and its uniform points) is evaluated for a chunk of steps
    at once, as one (steps x points) block of about _PASS_ENTRIES entries
    (one step when a row alone is wider), so the scratch is a few such
    blocks beside the grid-sized arrays: f, w and phi^lam on the grid are
    computed once per call.  The steps come widest first, as from
    ``h_ladder``; another order gives the same values in larger blocks.
    Each (step, point) symmetric difference is evaluated once and both
    sups are read off that one array; a sup ignores order and repeats, so
    no point set is sorted.
    """
    hs = np.asarray(hs, dtype=float)
    xi = w.xi
    base = grid_points(g, xi)
    off = base != xi
    known = np.zeros(base.shape), np.zeros(base.shape)
    known[0][off] = f(base[off])
    known[1][off] = w(base[off])
    p = phi(base) ** lam
    cut = 16.0 * hs * hs
    sym, mainpart, fwd, bwd = np.zeros((4, hs.size))
    for sl in _chunks(np.full(hs.size, base.size)):
        h = hs[sl, None]
        _sym_sups(f, w, xi, np.broadcast_to(base, (h.size, base.size)), h * p, True, known, cut[sl, None],
                  sym[sl], mainpart[sl])
    for sl in _chunks(np.full(hs.size, 2 * _NEAR_XI.size)):
        h = hs[sl, None]
        offs = _NEAR_XI * h
        near = np.concatenate([xi - offs, xi + offs], axis=1)
        valid = (near > 0.0) & (near < 1.0) & g.kept(near, xi)
        p_near = np.ones(near.shape)
        p_near[valid] = phi(near[valid]) ** lam
        _sym_sups(f, w, xi, near, h * p_near, valid, None, cut[sl, None], sym[sl], mainpart[sl])
    for sup, lo, hi, sign in ((fwd, np.zeros(hs.size), np.minimum(cut, 1.0), 1.0),
                              (bwd, np.maximum(1.0 - cut, 0.0), np.ones(hs.size), -1.0)):
        first, stop = np.searchsorted(base, lo), np.searchsorted(base, hi, "right")
        for sl in _chunks(stop - first):
            span = slice(first[sl].min(), stop[sl].max())
            h = hs[sl, None]
            x = np.broadcast_to(base[span], (h.size, span.stop - span.start))
            _oneside_sups(f, w, xi, x, h, lo[sl, None], hi[sl, None], g, sign, [k[span] for k in known], sup[sl])
        for sl in _chunks(np.full(hs.size, _BAND_POINTS)):
            x = np.linspace(lo[sl], hi[sl], _BAND_POINTS, axis=1)
            _oneside_sups(f, w, xi, x, hs[sl, None], lo[sl, None], hi[sl, None], g, sign, None, sup[sl])
    return (sym + fwd) + bwd, mainpart


def ladder_moduli(f, w: SingularWeight, lam: float, t_values, h_steps: int = 32,
                  g: GridSpec = GridSpec()) -> list:
    """Both moduli at every width in ``t_values`` from one pass over the ladder.

    The ladder below the largest width is swept once; running sups from
    its small end give both moduli at every ladder width, and a width
    reads them off the first step at or below it.  A width below every
    ladder step (below 2^-12) has the single step h = t and costs one more
    call.  Returns one (omega2, omega2_mainpart, log-integral) triple per
    width; the last is the d(log tau) quadrature of the running main-part
    modulus over the ladder steps at or below t, or a single cell of the
    ladder's log spacing for a width below every ladder step.
    """
    hs = h_ladder(max(t_values), h_steps)  # descending
    three_band, mainpart = ladder_band_sups(f, w, lam, hs, g)
    omega_run = np.maximum.accumulate(three_band[::-1])[::-1]
    main_run = np.maximum.accumulate(mainpart[::-1])[::-1]
    dlog = np.abs(np.diff(np.log(hs))).mean() if hs.size > 1 else math.log(2.0)
    out = []
    for t in t_values:
        below = hs <= t
        if below.any():
            i = int(np.argmax(below))  # the largest step at or below t
            om, mp = omega_run[i], main_run[i]
            integral = np.sum(main_run[below]) * dlog
        else:
            single_band, single_main = ladder_band_sups(f, w, lam, np.array([t]), g)
            om, mp = single_band[0], single_main[0]
            integral = mp * dlog
        out.append((float(om), float(mp), float(integral)))
    return out
