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
"""

from __future__ import annotations

import math

import numpy as np

from .weight import GridSpec, SingularWeight, grid_points, phi

__all__ = ["h_ladder", "ladder_band_sups", "ladder_moduli"]

_H_FLOOR = 2.0 ** -12
_BAND_POINTS = 129


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


def _weighted_diff(f, w, x, a, b, c):
    """w(x) (f(c) - 2 f(b) + f(a)); NaN where the stencil leaves [0, 1] or meets xi."""
    ok = (
        (np.minimum(a, c) >= 0.0)
        & (np.maximum(a, c) <= 1.0)
        & (a != w.xi)
        & (b != w.xi)
        & (c != w.xi)
    )
    out = np.full(x.shape, np.nan)
    if ok.any():
        out[ok] = w(x[ok]) * (np.asarray(f(c[ok]), dtype=float)
                              - 2.0 * np.asarray(f(b[ok]), dtype=float)
                              + np.asarray(f(a[ok]), dtype=float))
    return out


def _sym_values(f, w, lam, h, xs):
    """Weighted symmetric second differences on xs; NaN where undefined."""
    xs = np.asarray(xs, dtype=float)
    step = h * phi(xs) ** lam
    return _weighted_diff(f, w, xs, xs - step, xs, xs + step)


def _oneside_values(f, w, h, xs, sign):
    """Weighted one-sided second differences (sign=+1 forward, -1 backward)."""
    xs = np.asarray(xs, dtype=float)
    return _weighted_diff(f, w, xs, xs, xs + sign * h, xs + sign * 2.0 * h)


def _band_sup(values: np.ndarray) -> float:
    vals = values[~np.isnan(values)]
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def _band_grid(lo: float, hi: float, base: np.ndarray, g: GridSpec, xi: float) -> np.ndarray:
    if hi <= lo:
        return np.empty(0)
    pts = base[(base >= lo) & (base <= hi)]
    return np.concatenate([pts, g.outside(np.linspace(lo, hi, _BAND_POINTS), xi)])


def _near_singularity(xi: float, h: float) -> np.ndarray:
    """Scale-aware points around xi; fixed grids miss the sup at small h."""
    offs = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0]) * h
    pts = np.concatenate([xi - offs, xi + offs])
    return pts[(pts > 0.0) & (pts < 1.0)]


def ladder_band_sups(f, w: SingularWeight, lam: float, hs, g: GridSpec):
    """Per-step band values underlying both moduli.

    For each h returns the three-band sum (symmetric differences on
    [16h^2, 1-16h^2]; one-sided differences on the shrinking boundary
    bands, padded with uniform points since few grid points land there)
    and the main-part sup (symmetric stencil strictly inside (0, 1)).
    The weighted symmetric difference peaks within O(h) of xi, so the
    caller's grid is supplemented there at each step scale; like the grid,
    every added point keeps the exclusion radius from xi.  Each step
    evaluates the symmetric differences once and reads both sups off that
    one array; a sup ignores order and repeats, so no point set is sorted.
    """
    base = grid_points(g, w.xi)
    three_band = np.empty(len(hs))
    mainpart = np.empty(len(hs))
    for i, h in enumerate(hs):
        xs = np.concatenate([base, g.outside(_near_singularity(w.xi, h), w.xi)])
        sym = _sym_values(f, w, lam, h, xs)
        cut = 16.0 * h * h
        total = _band_sup(sym[(xs >= cut) & (xs <= 1.0 - cut)])
        total += _band_sup(_oneside_values(f, w, h, _band_grid(0.0, min(cut, 1.0), base, g, w.xi), +1.0))
        total += _band_sup(_oneside_values(f, w, h, _band_grid(max(1.0 - cut, 0.0), 1.0, base, g, w.xi), -1.0))
        three_band[i] = total
        step = h * phi(xs) ** lam
        mainpart[i] = _band_sup(sym[(xs - step > 0.0) & (xs + step < 1.0)])
    return three_band, mainpart


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
