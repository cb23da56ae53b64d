"""Executable verifications: bounded-ratio checks and convergence-rate fits.

Every analytic bound verified here holds with an unspecified constant, so
"holds" is operationalized as a trend criterion on the ratio of the two
sides over a degree sweep: the fitted log-log slope must not grow (slope
at most ``max_slope``) and the ratios must hug their own fitted trend
(detrended max/median at most ``max_spread``).  The detrending matters:
ratios that decay (an over-generous majorant) would otherwise fail a raw
max/median test despite being the strongest form of boundedness.

All bounded-ratio checkers share one sweep skeleton: ``_sweep_rows``
keeps the degrees with valid bridge nodes (when the check involves the
singularity) and builds one row per degree, and ``_trend_report`` hands
the rows to a trend rule, by default ``trend_summary`` on the rows'
``ratio``.  A checker is its parameters, its row function and, where it
differs, its trend rule.

Every command streams its bands, and checkers that read the same
(degree, grid) band share one pass over it (``band_checks``), each still
getting the reports, and raising the error, of one-member runs in member
order.  Beside its O(grid) results no checker holds more than one pass
of band work: lemma4's block sums are joined a chunk of rows at a time,
as the apply's are, and lemma5 and lemma6 walk their rows over the
window around xi (``_window_sums``) and sum them the same way.  An
exponent whose powers overflow is an OverflowError naming it, with no
warning; a ratio against a majorant or norm that is 0 is 0 where its
numerator is 0 too, else inf (``_majorant_ratio``).

Rate targets are a closed form, not fitted numbers: for |x - xi|^beta
under the weight |x - xi|^alpha the weighted error peaks at the bridge
nodes, |x - xi| ~ n^(-1/2), so it decays like n^(-(beta + alpha)/2) and
the target exponent is beta + alpha (lambda = 0 only).  The direct theorem
covers exponents below 2; a larger target is pre-asymptotic and its
report says so with ``beyond_saturation``.  Every report states where its
targets come from in its header.  A report is the plain dict that ``check``
and ``sweep`` print, built by ``_report`` (``_rate_report`` for the rates).
Rounding noise has one rule: a quantity at most ROUNDING * gain * scale is
zeroed where it is computed (scale: max |F| of the surrogate values, ||w f||
on the grid; gain: n(n-1) for (Bbar_n f)'', else 1), so trends see exact zeros.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import partial
from types import SimpleNamespace

import numpy as np

from .bridge import InvalidNodesError, chord, compute_nodes, min_valid_n
from .moduli import ladder_moduli
from .operators import _RowSums, _band_sum, bbar_second_derivative, bernstein_apply, build_surrogate
from .basis import _band_grid, _band_passes
from .weight import (
    EvaluationError,
    GridSpec,
    SingularWeight,
    TestFunction,
    delta_n,
    grid_points,
    phi,
    sorted_distinct,
    weighted_sup_norm,
    weighted_values,
)

__all__ = [
    "DEFAULT_N_VALUES",
    "DEFAULT_T_VALUES",
    "DEFAULT_WEIGHT",
    "fit_rate",
    "trend_summary",
    "w2_members",
    "band_checks",
    "check_lemma5",
    "check_lemma6",
    "check_lemma7",
    "check_direct",
    "check_inverse",
    "run_function_sweep",
]

DEFAULT_N_VALUES = (64, 128, 256, 512, 1024, 2048, 4096)
DEFAULT_T_VALUES = tuple(2.0 ** -j for j in range(2, 8))
DEFAULT_WEIGHT = SingularWeight(xi=0.5, alpha=0.5)

REPORT_HEADER = (
    "trend-based acceptance: constants are existential, so ratios are "
    "checked for absence of growth (slope, detrended spread); rate targets "
    "are the closed form beta + alpha for |x - xi|^beta at lambda = 0"
)

MAX_SLOPE = 0.15
MAX_SPREAD = 2.5
RATE_TOLERANCE = 0.15
INVERSE_SLOPE_SLACK = 0.15
CONSISTENCY_TOLERANCE = 0.2
SATURATION_EXPONENT = 2.0
# a member's domain errors, held by a shared band pass until the member's turn
_MEMBER_ERRORS = (EvaluationError, ArithmeticError)
# above the operators' stated rounding bounds, and 8x above a 31 eps ||w f|| direct error on a 19-point grid
ROUNDING = 256.0 * np.finfo(float).eps


def _report(name, params, rows, passed, **fields) -> dict:
    """A report as ``check`` and ``sweep`` print it: the keys every report shares, then ``fields``."""
    return {
        "name": name, "params": params, "rows": rows, "passed": bool(passed),
        "trivial": False, "notes": "", "header": REPORT_HEADER, **fields,
    }


def _rate_report(name, params, rows, pairs, target, tolerance, passed=True, slope=None,
                 residual=None, **fields) -> dict:
    """A rate report; ``slope`` is the fitted decay exponent, None on a trivial exit.

    ``beyond_saturation`` marks a target above the direct theorem's range
    0 < alpha0 < 2, where the measured decay is pre-asymptotic.
    """
    return _report(
        name, params, rows, passed, pairs=pairs, slope=slope, residual=residual,
        fitted_alpha0=slope, target=target, tolerance=tolerance,
        beyond_saturation=target is not None and target > SATURATION_EXPONENT, **fields,
    )


def _loglog_fit(pairs) -> tuple[float, float, float]:
    """Least squares in log-log space: slope, intercept, max |log deviation|."""
    pairs = [(float(a), float(b)) for a, b in pairs]
    if len(pairs) < 3:
        raise ValueError("need at least 3 pairs to fit a rate")
    if any(b <= 0.0 or a <= 0.0 for a, b in pairs):
        raise ValueError("rate fits need positive abscissae and values")
    lx = np.log([a for a, _ in pairs])
    ly = np.log([b for _, b in pairs])
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return float(slope), float(intercept), residual


def fit_rate(pairs) -> tuple[float, float]:
    """Least squares in log-log space; residual is the max |log deviation|."""
    slope, _, residual = _loglog_fit(pairs)
    return slope, residual


def trend_summary(
    xs,
    values,
    max_slope: float = MAX_SLOPE,
    min_slope: float | None = None,
    max_spread: float = MAX_SPREAD,
) -> dict:
    """Boundedness verdict for a ratio sequence over an increasing sweep.

    Fewer than 3 nonzero values pass trivially; only exact zeros vanish.
    A NaN or infinite ratio fails: it is an unbounded or undefined left
    side, never a vanishing one.  Spread is measured around the fitted
    power law so that decaying ratios are not penalized for decaying.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values < 0.0):
        raise ValueError("ratio sequence must be non-negative")
    finite = bool(np.all(np.isfinite(values)))
    nonzero = values > 0.0
    if not finite or nonzero.sum() < 3:
        return {"slope": None, "residual": None, "spread": None, "passed": finite, "trivial": finite}
    xs, values = xs[nonzero], values[nonzero]
    slope, intercept, residual = _loglog_fit(zip(xs, values))
    detrended = values / np.exp(slope * np.log(xs) + intercept)
    spread = float(np.max(detrended) / _median(detrended))
    passed = slope <= max_slope and spread <= max_spread
    if min_slope is not None:
        passed = passed and slope >= min_slope
    return {"slope": slope, "residual": residual, "spread": spread, "passed": passed, "trivial": False}


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array without NaNs, bit for bit: the middle value, or the mean of the two.

    ``np.median`` lazily imports ``numpy.ma`` on its first call (10-20 ms).
    """
    s = np.sort(values)
    mid = s.size // 2
    return s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2.0


def w2_members(members) -> list:
    """Members usable by smooth-class checks: analytic, non-singular f''."""
    return [
        tf
        for tf in members
        if tf.has_second_derivative and tf.singularity_exponent is None
    ]


def _sweep_rows(n_values, row, xi: float | None = None):
    """Usable degrees, one ``row(n)`` per degree, and a note on skipped ones.

    With ``xi`` given, degrees without valid bridge nodes around it are
    skipped, and a sweep with fewer than the 3 that a trend needs left
    raises InvalidNodesError.
    """
    ns = [int(n) for n in n_values]
    good = [n for n in ns if xi is None or compute_nodes(n, xi).valid]
    if xi is not None and len(good) < 3:
        raise InvalidNodesError(
            f"{len(good)} usable degrees in {list(n_values)}, a trend needs 3; "
            f"need n >= {min_valid_n(xi)}"
        )
    skipped = [n for n in ns if n not in good]
    return good, [row(n) for n in good], f"skipped invalid n={skipped}" if skipped else ""


def _ratio_trend(ns, rows, key: str = "ratio", **bounds) -> dict:
    return trend_summary(ns, [r[key] for r in rows], **bounds)


def _trend_report(name, params, trend=_ratio_trend):
    """The report maker of a bounded-ratio check: a trend verdict on its rows over the usable degrees."""
    return lambda good, rows, notes: _report(name, params, rows, notes=notes, **trend(good, rows))


def _check(name, params, n_values, row, xi=None, trend=_ratio_trend) -> dict:
    """The bounded-ratio sweep: rows over the usable degrees, then a trend verdict."""
    return _trend_report(name, params, trend)(*_sweep_rows(n_values, row, xi))


@contextmanager
def _powers_of(exponents: str, *sums):
    """An overflow in the block, or non-finite ``sums`` (made quietly), as an OverflowError naming ``exponents``."""
    try:
        if not all(np.isfinite(s).all() for s in sums):
            raise OverflowError
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise OverflowError(f"the powers of {exponents} overflow double precision") from None


def _interior_grid(g: GridSpec, xi: float | None = None) -> np.ndarray:
    xs = grid_points(g, xi)
    return xs[(xs > 0.0) & (xs < 1.0)]


def _node_grid(g: GridSpec, nd) -> np.ndarray:
    """The grid of ``g`` plus the four bridge nodes, without xi, where every weighted value is 0."""
    xs = grid_points(g, nd.xi, extra=(nd.x1, nd.x2, nd.x3, nd.x4))
    return xs[xs != nd.xi]


def _held(compute):
    """``compute()``, or the domain error it raises, held for its checker's turn."""
    try:
        return compute()
    except _MEMBER_ERRORS as exc:
        return exc


def _shared_rows(readers, n_values, xi, degree) -> tuple:
    """The usable degrees, each reader's rows and the note on skipped degrees, one band pass per degree.

    ``readers`` are (key, row) pairs, ``row`` a held error or ``row(n, xs,
    value)``; ``degree(n, keys)`` gives the grid and each live key's value
    on it, or its error, from one pass over the band.  A reader's first
    error takes the place of its rows and ends them.  Too few usable
    degrees give their InvalidNodesError in place of the degrees.
    """
    rows = [row if isinstance(row, _MEMBER_ERRORS) else [] for _, row in readers]

    def step(n):
        live = [i for i, r in enumerate(rows) if isinstance(r, list)]
        keys = list(dict.fromkeys(readers[i][0] for i in live))
        xs, values = degree(n, keys) if keys else (None, ())
        values = dict(zip(keys, values))
        for i in live:
            key, row = readers[i]
            got = values[key]
            if not isinstance(got, _MEMBER_ERRORS):
                got = _held(partial(row, n, xs, got))
            if isinstance(got, _MEMBER_ERRORS):
                rows[i] = got
            else:
                rows[i].append(got)

    try:
        good, _, notes = _sweep_rows(n_values, step, xi)
    except InvalidNodesError as exc:
        return exc, rows, ""
    return good, rows, notes


def _interior_degree(c):
    """``degree`` on the interior grid: lemma1's band sums of its weights and lemma4's central moments.

    lemma4 hands the terms of each pass of band rows to ``_RowSums`` as
    they come, as the apply does its products.  Both are made quietly: a power
    of u, v or gamma that overflows leaves sums that the row raises.
    """
    xs = _interior_grid(c.g)

    def degree(n, names):
        n, _, width, bounds = _band_grid(n, xs)
        start, cols, sums = bounds[0], np.arange(width), None
        moments = _RowSums((), xs.size, width) if "lemma4" in names else None

        def passes():
            for sl, B in _band_passes(n, xs, width, bounds):
                if moments is not None:
                    moments.add(B * np.abs(start[sl, None] + cols - n * xs[sl, None]) ** c.gamma)
                yield sl, B

        with np.errstate(over="ignore", invalid="ignore"):
            if "lemma1" in names:
                k = np.arange(1, n)
                weights = np.zeros(n + 1)
                weights[1:n] = (k / n) ** (-c.u) * ((n - k) / n) ** (-c.v)
                sums = _band_sum(weights, start, width, passes())
            else:
                for _ in passes():
                    pass
            return xs, [sums if name == "lemma1" else moments.total() for name in names]

    return degree


def _node_degree(c, second: bool = False):
    """``degree`` on the node grid: each member's Bbar_n f or, ``second``, its noise-ruled (Bbar_n f)''.

    All members' surrogates go through one stacked streamed apply, over
    the band of degree n (n - 2 for the second derivative).
    """

    def degree(n, members):
        xs = _node_grid(c.g, compute_nodes(n, c.w.xi))
        values = [_held(partial(build_surrogate, f, n, c.w)) for f in members]
        ok = [v for v in values if not isinstance(v, _MEMBER_ERRORS)]
        apply = bbar_second_derivative if second else bernstein_apply
        applied = iter(apply(np.array(ok), xs) if ok else ())
        out = [v if isinstance(v, _MEMBER_ERRORS) else next(applied) for v in values]
        for v, d2 in zip(values, out):
            if second and not isinstance(v, _MEMBER_ERRORS):
                d2[np.abs(d2) <= ROUNDING * n * (n - 1.0) * float(np.max(np.abs(v)))] = 0.0
        return xs, out

    return degree


# A band checker's maker takes its key (its member, or its own name) and
# the run's parameters and returns its row(n, xs, value) and its report.
def _lemma1(_, c):
    """Inverse-power moment sums against x^-u (1-x)^-v, ratio per degree."""

    def row(n, xs, sums):
        with _powers_of(f"u = {c.u!r}, v = {c.v!r}", sums):
            return {"n": n, "ratio": float(np.max(sums / (xs ** (-c.u) * (1.0 - xs) ** (-c.v))))}

    return row, _trend_report("lemma1", {"u": c.u, "v": c.v, "grid": c.g.key()})


def _lemma4(_, c):
    """Central absolute moments against (n^(1/2) phi)^gamma, ratio per degree."""

    def row(n, xs, moments):
        with _powers_of(f"gamma = {c.gamma!r}", moments):
            phis = phi(xs)
            majorant = n ** (c.gamma / 2.0) * phis ** c.gamma
            # phi^gamma underflows near 0 and 1, where the ratio itself may be finite
            under = (majorant == 0.0) & (moments > 0.0)
            ratio = np.divide(moments, majorant, out=np.empty(moments.shape), where=~under)
            if under.any():
                ratio[under] = np.exp(np.log(moments[under]) - c.gamma / 2.0 * math.log(n)
                                      - c.gamma * np.log(phis[under]))
            return {"n": n, "ratio": float(np.max(ratio))}

    return row, _trend_report("lemma4", {"gamma": c.gamma, "grid": c.g.key()})


def _params(f, c, **extra) -> dict:
    return {"function": f.name, "xi": c.w.xi, "alpha": c.w.alpha, **extra, "grid": c.g.key()}


def _lemma2(f, c):
    """Operator stability: the weighted norm ratio of image to input."""
    fnorm = weighted_sup_norm(f, c.w, c.g)

    def row(n, xs, bv):
        return {"n": n, "ratio": _majorant_ratio(np.max(np.abs(c.w(xs) * bv)), fnorm)}

    return row, _trend_report("lemma2", _params(f, c))


def _direct(f, c):
    w, lam, target = c.w, c.lam, f.expected_alpha0

    def row(n, xs, bv):
        err = np.abs(weighted_values(lambda x: f(x) - bv, w, xs))
        out = {"n": n, "max_weighted_error": float(np.max(err))}
        if target is not None:
            with np.errstate(divide="ignore", over="ignore"):
                power = (phi(xs) ** (-lam) * delta_n(n, xs) / math.sqrt(n)) ** target
            out["normalized_error"] = _majorant_ratio(err, power)
        return out

    return row, partial(_direct_report, f, w, lam, c.g)


def _weighted_d2(d2, xs, w: SingularWeight, lam: float) -> np.ndarray:
    return np.abs(w(xs) * phi(xs) ** (2.0 * lam) * d2)


def _majorant_ratio(num, den) -> float:
    """The largest num / den, elementwise, where 0 / 0 is 0 (both sides vanish) and num / 0 is inf.

    So a majorant that underflows to 0, or a zero ||w f||, gives no NaN
    and no RuntimeWarning; an infinite majorant, or a NaN one (inf * 0),
    gives 0.
    """
    den = np.where(np.isnan(den), math.inf, den)
    return float(np.max(np.divide(num, den, out=np.where(num == 0.0, 0.0, math.inf), where=den != 0.0)))


def _theorem1(f, c):
    """Second-derivative norm against n^2 times the input norm."""
    fnorm = weighted_sup_norm(f, c.w, c.g)

    def row(n, xs, d2):
        num = _weighted_d2(d2, xs, c.w, 0.0)
        return {"n": n, "ratio": _majorant_ratio(np.max(num), float(n) ** 2.0 * fnorm)}

    return row, _trend_report("theorem1", _params(f, c), partial(_ratio_trend, max_slope=0.1))


def _theorem2_w2(f, c):
    """w phi^(2 lam) (Bbar_n f)'' against ||w phi^(2 lam) f''|| on the same grid; f needs f''."""
    if not f.has_second_derivative:
        raise ValueError(f"{f.name!r} lacks a second derivative")
    w, lam = c.w, c.lam

    def row(n, xs, d2):
        num = _weighted_d2(d2, xs, w, lam)
        curv = np.abs(weighted_values(lambda x: phi(x) ** (2.0 * lam) * f.second_derivative(x), w, xs))
        return {"n": n, "ratio": _majorant_ratio(np.max(num), np.max(curv))}

    return row, _trend_report("theorem2", _params(f, c, **{"lambda": lam, "branch": "w2"}))


def _theorem2_cw(f, c):
    """w phi^(2 lam) (Bbar_n f)'' against n max(n^(1-lam), phi^(2(lam-1))) ||w f||, pointwise.

    The two proof regimes, phi below and above n^(-1/2), are each held
    against the shared n^(2-lam) ||w f||.
    """
    w, lam, fnorm = c.w, c.lam, weighted_sup_norm(f, c.w, c.g)

    def row(n, xs, d2):
        num = _weighted_d2(d2, xs, w, lam)
        # at phi = 0 the majorant is infinite, or inf * 0 = NaN when ||w f|| = 0: no ratio there
        with np.errstate(divide="ignore", invalid="ignore"):
            majorant = n * np.maximum(n ** (1.0 - lam), phi(xs) ** (2.0 * (lam - 1.0))) * fnorm
        pointwise = _majorant_ratio(num, majorant)
        uniform_major = n ** (2.0 - lam) * fnorm
        small = phi(xs) <= 1.0 / math.sqrt(n)
        r_small = _majorant_ratio(np.max(num[small]), uniform_major) if small.any() else 0.0
        r_large = _majorant_ratio(np.max(num[~small]), uniform_major) if (~small).any() else 0.0
        return {"n": n, "ratio": pointwise, "ratio_small_phi": r_small, "ratio_large_phi": r_large}

    def trend(ns, rows):
        summary = _ratio_trend(ns, rows)
        regimes = {f"regime_{k}": _ratio_trend(ns, rows, f"ratio_{k}") for k in ("small_phi", "large_phi")}
        summary["passed"] = summary["passed"] and all(s["passed"] for s in regimes.values())
        return {**summary, **regimes}

    return row, _trend_report("theorem2", _params(f, c, **{"lambda": lam, "branch": "cw"}), trend)


# every checker that reads a (degree, grid) band: its grid and its maker
_BAND_CHECKERS = {
    "lemma1": ("interior", _lemma1), "lemma4": ("interior", _lemma4),
    "lemma2": ("node", _lemma2), "direct": ("node", _direct),
    "theorem1": ("d2", _theorem1), "theorem2 cw": ("d2", _theorem2_cw), "theorem2 w2": ("d2", _theorem2_w2),
}
_DEGREES = {"interior": _interior_degree, "node": _node_degree, "d2": partial(_node_degree, second=True)}


def band_checks(plan: dict, w: SingularWeight = DEFAULT_WEIGHT, lam: float = 0.0, n_values=DEFAULT_N_VALUES,
                g: GridSpec = GridSpec(), u: float = 1.0, v: float = 0.0, gamma: float = 2.0):
    """``reports(name)`` for the checkers of ``plan`` that read a band; each band is streamed once.

    ``plan`` maps "lemma2", "direct", "theorem1", "theorem2 cw" and
    "theorem2 w2" to their members, and "lemma1" and "lemma4" to None.
    The checkers on one grid share one pass over each degree's band:
    lemma1 and lemma4 on the interior grid at degree n, lemma2 and direct
    on the node grid at n, theorem1 and theorem2 on it at n - 2.  The
    first report of a grid builds the rows of all its planned checkers.
    ``reports(name)`` yields the reports of one-member runs in member
    order, and raises the error they raise, where they raise it.
    """
    c = SimpleNamespace(w=w, lam=lam, g=g, u=u, v=v, gamma=gamma)
    built = {}

    def reports(name):
        grid = _BAND_CHECKERS[name][0]
        if grid not in built:
            specs = [(checker, key, _held(partial(make, key, c)))
                     for checker, (on, make) in _BAND_CHECKERS.items() if on == grid and checker in plan
                     for key in ([checker] if plan[checker] is None else plan[checker])]
            readers = [(key, s if isinstance(s, _MEMBER_ERRORS) else s[0]) for _, key, s in specs]
            xi = None if grid == "interior" else w.xi
            built[grid] = specs, _shared_rows(readers, n_values, xi, _DEGREES[grid](c))
        specs, (good, rows, notes) = built[grid]
        for (checker, _, spec), r in zip(specs, rows):
            if checker == name:
                if isinstance(r, _MEMBER_ERRORS):
                    raise r
                if isinstance(good, InvalidNodesError):
                    raise good
                yield spec[1](good, r, notes)

    return reports


def _window_sums(n: int, xi: float, xs: np.ndarray, beta: float | None = None) -> np.ndarray:
    """Sum of b(n, k, x), times |k - n x|^beta if given, over the window |k - n xi| <= sqrt(n), at each x of xs.

    Each row is walked over the window (``_band_passes``), and each pass
    goes to ``_RowSums`` as it comes, as lemma4's band rows do.  Where
    |k - n x|^beta alone overflows, the term is exp(log b + beta log|k - n x|),
    or 0 where b is: far from xi the weight underflows before the power
    reaches the term, so only a term that overflows itself raises.
    """
    win = np.flatnonzero(np.abs(np.arange(n + 1) - n * xi) <= math.sqrt(n))
    first, sums = np.broadcast_to(win[0], xs.shape), _RowSums((), xs.size, win.size)
    for sl, B in _band_passes(n, xs, win.size, (first, first, np.broadcast_to(win[-1], xs.shape))):
        if beta is not None:
            dist = np.abs(win - n * xs[sl, None])
            with np.errstate(over="ignore"):
                power = dist ** beta
            big = np.isinf(power)
            if big.any():
                live = big & (B > 0.0)
                B[live] = np.exp(np.log(B[live]) + beta * np.log(dist[live]))
                power[big] = 1.0
            B *= power
        sums.add(B)
    return sums.total()


def check_lemma5(w: SingularWeight, n_values=DEFAULT_N_VALUES, g: GridSpec = GridSpec()) -> dict:
    """Weighted basis mass near xi, rescaled by n^(alpha/2).

    The scaled max must stay flat: slope within [-0.3, 0.15] and spread
    within the standard bound.
    """
    xs = grid_points(g, w.xi)

    def row(n):
        with _powers_of(f"alpha = {w.alpha!r}"):
            a_max = float(np.max(w(xs) * _window_sums(n, w.xi, xs)))
            try:
                scaled = a_max * n ** (w.alpha / 2.0)
            except OverflowError:
                # n^(alpha/2) alone overflows; the scaled mass may not
                if a_max == 0.0:
                    raise
                scaled = math.exp(math.log(a_max) + w.alpha / 2.0 * math.log(n))
            return {"n": n, "max_weighted_mass": a_max, "scaled": scaled}

    params = {"xi": w.xi, "alpha": w.alpha, "grid": g.key()}
    return _check("lemma5", params, n_values, row, w.xi, partial(_ratio_trend, key="scaled", min_slope=-0.3))


def check_lemma6(w: SingularWeight, beta: float = 2.0, n_values=DEFAULT_N_VALUES, g: GridSpec = GridSpec()) -> dict:
    """Windowed absolute moments against n^((beta-alpha)/2) phi^beta."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    xs = _interior_grid(g, w.xi)

    def row(n):
        with _powers_of(f"beta = {beta!r}"):
            sums = _window_sums(n, w.xi, xs, beta)
            moments = w(xs) * sums
        # the ratio is (n^(1/2) |x - xi|)^alpha S / (n^(beta/2) phi^beta): where
        # n^((beta - alpha)/2) or phi^beta alone leaves the normal range, the weight
        # may have underflowed too, and the ratio is formed in log space from S
        with _powers_of(f"alpha = {w.alpha!r}, beta = {beta!r}"):
            phis = phi(xs)
            try:
                scale = n ** ((beta - w.alpha) / 2.0)
            except OverflowError:
                scale = math.inf
            with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN
                majorant = scale * phis ** beta
            logs = ~((majorant >= np.finfo(float).tiny) & (majorant < math.inf))
            ratio = np.divide(moments, majorant, out=np.zeros(moments.shape), where=~logs)
            logs &= (sums > 0.0) & (xs != w.xi)  # at xi the weight, and so the ratio, is 0
            if logs.any():
                ratio[logs] = np.exp(w.alpha * np.log(math.sqrt(n) * np.abs(xs[logs] - w.xi)) + np.log(sums[logs])
                                     - beta / 2.0 * math.log(n) - beta * np.log(phis[logs]))
            return {"n": n, "ratio": float(np.max(ratio))}

    params = {"xi": w.xi, "alpha": w.alpha, "beta": beta, "grid": g.key()}
    return _check("lemma6", params, n_values, row, w.xi)


def check_lemma7(
    f: TestFunction,
    w: SingularWeight,
    lam: float = 0.0,
    n_values=DEFAULT_N_VALUES,
    g: GridSpec = GridSpec(),
) -> dict:
    """Chord defect w |f - P| on [x1, x4] against its curvature majorant."""
    if not f.has_second_derivative:
        raise ValueError(f"{f.name!r} lacks a second derivative")
    curv_norm = float(
        np.max(np.abs(weighted_values(lambda x: phi(x) ** (2.0 * lam) * f.second_derivative(x), w, grid_points(g, w.xi))))
    )

    def row(n):
        nd = compute_nodes(n, w.xi)
        xs = sorted_distinct(np.concatenate([np.linspace(nd.x1, nd.x4, 257), [nd.x2, nd.x3]]))
        defect = np.abs(weighted_values(lambda x: f(x) - chord(f, nd, x), w, xs))
        if curv_norm == 0.0:
            # curvature-free f: the chord reproduces it up to rounding
            return {"n": n, "ratio": 0.0 if float(np.max(defect)) <= ROUNDING * weighted_sup_norm(f, w, g) else math.inf}
        majorant = (delta_n(n, xs) / (math.sqrt(n) * phi(xs) ** lam)) ** 2 * curv_norm
        return {"n": n, "ratio": _majorant_ratio(defect, majorant)}

    params = {"function": f.name, "xi": w.xi, "alpha": w.alpha, "lambda": lam, "grid": g.key()}
    return _check("lemma7", params, n_values, row, w.xi)


def check_direct(members, w: SingularWeight, lam: float = 0.0, n_values=DEFAULT_N_VALUES,
                 g: GridSpec = GridSpec()) -> list:
    """Decay of the weighted approximation error across the degree sweep, one report per member.

    The error normalized by the local rate factor to the target power must
    stay bounded, and the fitted decay exponent (log max error against
    n^(-1/2)) must match the member's closed-form target within
    RATE_TOLERANCE.  An error at most ROUNDING ||w f|| is noise: at every
    degree the check is trivial, at some an EvaluationError (no rate fit).
    The reports, and the error raised, are those of one-member calls in
    member order.
    """
    return list(band_checks({"direct": list(members)}, w, lam, n_values, g)("direct"))


def _direct_report(f: TestFunction, w: SingularWeight, lam: float, g: GridSpec, good, rows, notes) -> dict:
    """One member's direct-rate report from its rows over the usable degrees ``good``."""
    target = f.expected_alpha0
    params = {"function": f.name, "xi": w.xi, "alpha": w.alpha, "lambda": lam, "grid": g.key()}
    e_max_seq = [r["max_weighted_error"] for r in rows]
    pairs = list(zip(good, e_max_seq))
    floor = ROUNDING * weighted_sup_norm(f, w, g)
    if max(e_max_seq) <= floor:
        return _rate_report("direct", params, rows, pairs, target, RATE_TOLERANCE,
                            trivial=True, notes=notes or "error identically zero")
    if target is None:
        raise ValueError(
            f"{f.name!r} has no rate target: the closed form covers abs_beta_* at lambda = 0"
        )
    if zero := [n for n, e in pairs if e <= floor]:
        raise EvaluationError(f"{f.name!r}: weighted error 0 on the grid at n={zero} "
                              f"(at most {floor:.3g}, rounding level), so no rate fit")

    # The exponent is recovered against the large-n form of the rate factor,
    # which at a fixed x is a constant times n^(-1/2) (the resolution term
    # inside delta_n dies off at fixed interior x, but over finite sweeps it
    # would bias the fitted exponent low by ~10-15%).
    fitted, residual = fit_rate([(1.0 / math.sqrt(n), e) for n, e in zip(good, e_max_seq)])
    bounded = trend_summary(good, [row.get("normalized_error", 0.0) for row in rows])
    passed = bounded["passed"] and abs(fitted - target) <= RATE_TOLERANCE
    return _rate_report("direct", params, rows, pairs, target, RATE_TOLERANCE, passed, fitted,
                        residual, notes=notes, bounded=bounded)


def check_inverse(
    f: TestFunction,
    w: SingularWeight,
    lam: float = 0.0,
    t_values=DEFAULT_T_VALUES,
    g: GridSpec = GridSpec(),
    h_steps: int = 32,
) -> dict:
    """Modulus decay across widths, with the main-part sandwich checks.

    Fits the log-log slope of the modulus in distinct t; requires it to reach
    the member's target minus the slack (no slope requirement without one).
    Also verifies that the main-part modulus is dominated by the full one,
    and the full one by the log-integral of the main part, as bounded
    ratios across the sweep.
    """
    target = f.expected_alpha0
    t_values = sorted({float(t) for t in t_values})
    rows = [
        {"t": t, "omega2": om, "omega2_mainpart": mp, "mainpart_log_integral": integral}
        for t, (om, mp, integral) in zip(t_values, ladder_moduli(f, w, lam, t_values, h_steps, g))
    ]
    pairs = [(r["t"], r["omega2"]) for r in rows]
    params = {
        "function": f.name, "xi": w.xi, "alpha": w.alpha, "lambda": lam,
        "grid": g.key(), "h_steps": h_steps,
    }
    if max(om for _, om in pairs) <= ROUNDING * weighted_sup_norm(f, w, g):
        return _rate_report("inverse", params, rows, pairs, target, INVERSE_SLOPE_SLACK,
                            trivial=True, notes="modulus identically zero")
    positive_pairs = [(t, v) for t, v in pairs if v > 0.0]
    main_pairs = [(r["t"], r["omega2_mainpart"]) for r in rows if r["omega2_mainpart"] > 0.0]
    if len(positive_pairs) < 3 or len(main_pairs) < 3:
        raise EvaluationError(f"{f.name!r}: too few positive modulus values to fit a rate over {t_values}")
    slope_omega, res_omega = fit_rate(positive_pairs)
    slope_main, res_main = fit_rate(main_pairs)
    # main part under the full modulus: the three-band sum bounds it up to
    # a factor 3, a structural constant, so a hard cap is the right check;
    # the integral direction has an existential constant and is trend-based
    sandwich1 = max(r["omega2_mainpart"] / r["omega2"] for r in rows if r["omega2"] > 0.0)
    s1 = {"max_ratio": sandwich1, "passed": sandwich1 <= 3.0}
    integral = [r for r in rows if r["mainpart_log_integral"] > 0.0]
    s2 = trend_summary(
        [1.0 / r["t"] for r in integral],
        [r["omega2"] / r["mainpart_log_integral"] for r in integral],
        max_spread=3.0,
    )
    sandwich_ok = s1["passed"] and s2["passed"]
    slopes_ok = target is None or (
        slope_omega >= target - INVERSE_SLOPE_SLACK
        and slope_main >= target - INVERSE_SLOPE_SLACK
    )
    # the three-band modulus picks up boundary-band contributions at the
    # large-t end of the window, so the main-part slope is the headline
    # decay-exponent estimate
    return _rate_report(
        "inverse", params, rows, pairs, target, INVERSE_SLOPE_SLACK, sandwich_ok and slopes_ok,
        slope_main, res_main, omega_slope=slope_omega, omega_residual=res_omega,
        mainpart_slope=slope_main, sandwich_mainpart_over_full=s1, sandwich_full_over_integral=s2,
    )


def run_function_sweep(
    members,
    w: SingularWeight,
    lam: float = 0.0,
    n_values=DEFAULT_N_VALUES,
    t_values=DEFAULT_T_VALUES,
    g: GridSpec = GridSpec(),
    h_steps: int = 32,
) -> list:
    """Direct + inverse rate pipeline and their cross-consistency, one result per member.

    One ``check_direct`` call gives every member's direct report, then
    each member gets its inverse check.  Should that call raise, the
    members go one at a time, direct then inverse, so the error raised is
    the one one-member calls in member order raise.
    """
    members = list(members)
    try:
        direct = check_direct(members, w, lam, n_values, g)
    except (ValueError, *_MEMBER_ERRORS):
        direct = None
    return [_sweep_result(f, check_direct([f], w, lam, n_values, g)[0] if direct is None else direct[i],
                          check_inverse(f, w, lam, t_values, g, h_steps)) for i, f in enumerate(members)]


def _sweep_result(f: TestFunction, direct: dict, inverse: dict) -> dict:
    """One member's direct and inverse reports and their cross-consistency."""
    out = {
        "function": f.name,
        "direct": direct,
        "inverse": inverse,
    }
    if direct["trivial"] or inverse["trivial"]:
        out["consistency_delta"] = None
        out["passed"] = direct["passed"] and inverse["passed"]
    else:
        delta = abs(direct["fitted_alpha0"] - inverse["fitted_alpha0"])
        out["consistency_delta"] = delta
        out["passed"] = (
            direct["passed"] and inverse["passed"] and delta <= CONSISTENCY_TOLERANCE
        )
    return out
