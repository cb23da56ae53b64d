"""Tests for the weighted moduli of smoothness, with a K-functional oracle."""

import tracemalloc

import numpy as np
import pytest

from singbern.moduli import h_ladder, ladder_band_sups, ladder_moduli
from singbern.weight import (
    GridSpec,
    SingularWeight,
    TestFunction,
    corpus,
    corpus_member,
    grid_points,
    phi,
    weighted_values,
)

W = SingularWeight(xi=0.5, alpha=1.0)
G = GridSpec(count=513)


def moduli(f, lam, ts, g):
    """(omega2, omega2_mainpart) at each width in ts, from one ladder pass."""
    return [(om, mp) for om, mp, _ in ladder_moduli(f, W, lam, ts, 32, g)]


def kfunctional_upper(f, w, lam, t, candidates, g):
    """min over smooth candidates c of ||w (f - c)|| + t^2 ||w phi^(2 lam) c''||.

    An upper bound for the two-term functional; the true infimum over all
    admissible functions is not computable.  Candidates carry an analytic
    ``second_derivative``.
    """
    xs = grid_points(g, w.xi)
    best = np.inf
    for cand in candidates:
        approx = np.max(np.abs(weighted_values(lambda x: f(x) - cand(x), w, xs)))
        curv = np.max(np.abs(weighted_values(
            lambda x: phi(x) ** (2.0 * lam) * cand.second_derivative(x), w, xs)))
        best = min(best, float(approx + t * t * curv))
    return best


def brute_omega2(f, w, lam, t, g, h_steps=32):
    """Plain-loop reimplementation of the three-band sup, same point sets."""
    base = grid_points(g, w.xi)
    far = lambda xs: xs[np.abs(xs - w.xi) >= g.exclusion_radius]
    best = 0.0
    for h in h_ladder(t, h_steps):
        offs = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0]) * h
        near = np.concatenate([w.xi - offs, w.xi + offs])
        xs_interior = np.unique(
            np.concatenate([base, far(near[(near > 0.0) & (near < 1.0)])])
        )
        cut = 16.0 * h * h
        sups = [0.0, 0.0, 0.0]
        for x in xs_interior:
            if cut <= x <= 1.0 - cut:
                s = h * phi(x) ** lam
                pts = (x - s, x, x + s)
                if 0.0 <= pts[0] and pts[2] <= 1.0 and all(p != w.xi for p in pts):
                    val = abs(w(x) * (f(pts[2]) - 2.0 * f(x) + f(pts[0])))
                    sups[0] = max(sups[0], float(val))
        for lo, hi, sign, idx in ((0.0, cut, +1, 1), (1.0 - cut, 1.0, -1, 2)):
            xs = np.unique(
                np.concatenate([base[(base >= lo) & (base <= hi)], far(np.linspace(lo, hi, 129))])
            ) if hi > lo else []
            for x in xs:
                p1, p2 = x + sign * h, x + sign * 2 * h
                if 0.0 <= min(x, p2) and max(x, p2) <= 1.0 and all(p != w.xi for p in (x, p1, p2)):
                    val = abs(w(x) * (f(p2) - 2.0 * f(p1) + f(x)))
                    sups[idx] = max(sups[idx], float(val))
        best = max(best, sum(sups))
    return best


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


def _band_sup(values):
    vals = values[~np.isnan(values)]
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def _near_xi(xi, h, g):
    offs = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0]) * h
    pts = np.concatenate([xi - offs, xi + offs])
    pts = pts[(pts > 0.0) & (pts < 1.0)]
    return pts[g.kept(pts, xi)]


def _band_points(lo, hi, base, g, xi):
    """(grid points, uniform points) of a one-sided band [lo, hi]; none where hi <= lo."""
    if hi <= lo:
        return np.empty(0), np.empty(0)
    pts = np.linspace(lo, hi, 129)
    return base[(base >= lo) & (base <= hi)], pts[g.kept(pts, xi)]


def per_step_band_sups(f, w, lam, hs, g):
    """``ladder_band_sups`` one step at a time, one point set per step, as a plain loop."""
    base = grid_points(g, w.xi)
    three_band, mainpart = np.empty(len(hs)), np.empty(len(hs))
    for i, h in enumerate(hs):
        xs = np.concatenate([base, _near_xi(w.xi, h, g)])
        sym = _sym_values(f, w, lam, h, xs)
        cut = 16.0 * h * h
        total = _band_sup(sym[(xs >= cut) & (xs <= 1.0 - cut)])
        total += _band_sup(_oneside_values(f, w, h, np.concatenate(
            _band_points(0.0, min(cut, 1.0), base, g, w.xi)), +1.0))
        total += _band_sup(_oneside_values(f, w, h, np.concatenate(
            _band_points(max(1.0 - cut, 0.0), 1.0, base, g, w.xi)), -1.0))
        three_band[i] = total
        step = h * phi(xs) ** lam
        mainpart[i] = _band_sup(sym[(xs - step > 0.0) & (xs + step < 1.0)])
    return three_band, mainpart


def sym(f, lam, h, x):
    return _sym_values(f, W, lam, h, np.array([x]))[0]


def forward(f, h, x):
    return _oneside_values(f, W, h, np.array([x]), +1.0)[0]


def backward(f, h, x):
    return _oneside_values(f, W, h, np.array([x]), -1.0)[0]


class TestSecondDifferences:
    def test_linear_annihilated(self):
        f = corpus_member("linear", W)
        for h, x in ((0.01, 0.3), (0.05, 0.7), (0.001, 0.49)):
            assert sym(f, 0.0, h, x) == pytest.approx(0.0, abs=1e-13)
            assert forward(f, h, x) == pytest.approx(0.0, abs=1e-13)
            assert backward(f, h, x) == pytest.approx(0.0, abs=1e-13)

    def test_square_closed_form(self):
        f = corpus_member("square", W)
        for h, x in ((0.02, 0.3), (0.01, 0.8)):
            expected = W(x) * 2.0 * h * h
            assert sym(f, 0.0, h, x) == pytest.approx(expected, rel=1e-9)
            assert forward(f, h, x) == pytest.approx(expected, rel=1e-9)

    def test_lambda_scales_step(self):
        f = corpus_member("square", W)
        h, x = 0.02, 0.3
        step = h * phi(x)
        assert sym(f, 1.0, h, x) == pytest.approx(W(x) * 2.0 * step * step, rel=1e-9)

    def test_out_of_domain_is_none(self):
        # "none": the kernels mark an undefined stencil with NaN
        f = corpus_member("square", W)
        assert np.isnan(sym(f, 0.0, 0.1, 0.95))
        assert np.isnan(forward(f, 0.1, 0.95))
        assert np.isnan(backward(f, 0.1, 0.05))

    def test_stencil_on_xi_is_none(self):
        f = corpus_member("abs_beta_0.5", W)
        assert np.isnan(sym(f, 0.0, 0.1, 0.5))
        assert np.isnan(sym(f, 0.0, 0.1, 0.4))  # x + h hits xi
        assert not np.isnan(sym(f, 0.0, 0.1, 0.41))


class TestHLadder:
    def test_nested_in_t(self):
        a = h_ladder(0.05)
        b = h_ladder(0.1)
        assert np.isin(a, b).all()

    def test_bounded_by_t(self):
        for t in (0.25, 0.1, 2.0**-7):
            hs = h_ladder(t)
            assert hs.max() <= t
            assert hs.min() >= 2.0**-12 - 1e-15
            assert np.all(np.diff(hs) < 0)


class TestOmega2:
    def test_linear_is_zero(self):
        f = corpus_member("linear", W)
        for om, mp in moduli(f, 0.0, [0.05, 0.2], G):
            assert om <= 1e-12
            assert mp <= 1e-12

    def test_square_matches_brute_force(self):
        f = corpus_member("square", W)
        g = GridSpec(count=129)
        [(om, _)] = moduli(f, 0.0, [0.1], g)
        assert om == pytest.approx(brute_omega2(f, W, 0.0, 0.1, g), rel=1e-12)

    def test_ladder_moduli_match_brute_force_at_every_width(self):
        # one pass serves all widths; 1e-4 lies below the 2^-12 ladder floor
        # and gets the single step h = t, as a call for that width alone gives it
        f = corpus_member("abs_beta_0.5", W)
        g = GridSpec(count=129)
        ts = [0.05, 2.0 ** -12, 1e-4]
        for t, (om, mp) in zip(ts, moduli(f, 0.0, ts, g)):
            [(om_alone, mp_alone)] = moduli(f, 0.0, [t], g)
            assert om == om_alone == pytest.approx(brute_omega2(f, W, 0.0, t, g), rel=1e-12)
            assert mp == mp_alone

    def test_exclusion_radius_matches_brute_force(self):
        # the ladder at t = 0.25 has steps whose added points straddle r = 0.1
        f = corpus_member("abs_beta_0.5", W)
        g = GridSpec(count=129, exclusion_radius=0.1)
        ts = [0.25, 1e-4]
        for t, (om, _) in zip(ts, moduli(f, 0.0, ts, g)):
            assert om == pytest.approx(brute_omega2(f, W, 0.0, t, g), rel=1e-12)

    def test_square_bounded_by_closed_form(self):
        # symmetric/one-sided differences of x^2 are exactly 2 h^2
        f = corpus_member("square", W)
        ts = [0.05, 0.1, 0.25]
        for t, (om, _) in zip(ts, moduli(f, 0.0, ts, G)):
            assert om <= 3.0 * 2.0 * t * t * 0.5 + 1e-12

    def test_monotone_in_t(self):
        for tf in corpus(W):
            # one call per width: a batched call is monotone by construction
            [(a, _)] = moduli(tf, 0.0, [0.05], GridSpec(count=257))
            [(b, _)] = moduli(tf, 0.0, [0.1], GridSpec(count=257))
            assert a <= b + 1e-15

    def test_absolute_scaling(self):
        f = corpus_member("abs_beta_0.5", W)
        scaled = TestFunction(name="scaled", f=lambda x: -4.0 * f(x))
        [(a, _)] = moduli(f, 0.0, [0.1], G)
        [(b, _)] = moduli(scaled, 0.0, [0.1], G)
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_square_rate_is_two(self):
        f = corpus_member("square", W)
        ts = 2.0 ** -np.arange(3, 9)
        vals = [om for om, _ in moduli(f, 0.0, ts, G)]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_mainpart_dominated_by_full(self):
        for tf in corpus(W):
            for om, mp in moduli(tf, 0.0, [0.05, 0.125], GridSpec(count=257)):
                assert mp <= 3.0 * om + 1e-12


class TestKFunctional:
    def test_smooth_candidate_self(self):
        f = corpus_member("square", W)
        t = 0.05
        bound = kfunctional_upper(f, W, 0.0, t, [f], G)
        assert bound <= t * t * 2.0 * 0.5 + 1e-12  # ||w f''|| = 2 max|w|

    def test_zero_candidate(self):
        from singbern.weight import weighted_sup_norm

        f = corpus_member("abs_beta_1.0", W)
        zero = TestFunction(
            name="zero",
            f=lambda x: np.zeros(np.shape(x)),
            second_derivative=lambda x: np.zeros(np.shape(x)),
        )
        assert kfunctional_upper(f, W, 0.0, 0.1, [zero], G) <= weighted_sup_norm(
            f, W, G
        ) + 1e-12

    def test_ratio_to_mainpart_bounded_for_smooth(self):
        f = corpus_member("square", W)
        ts = 2.0 ** -np.arange(3, 8)
        ratios = [
            kfunctional_upper(f, W, 0.0, t, [f], G) / mp
            for t, (_, mp) in zip(ts, moduli(f, 0.0, ts, G))
        ]
        assert max(ratios) <= 5.0


class TestIteratedStepIntegral:
    def test_bounded_ratio_r2(self):
        # midpoint quadrature of the double integral of phi^(-2 beta) over
        # the centered step box against h^2 phi^(2 (lam - beta))
        npts = 64
        ratios = []
        for x in (0.2, 0.5, 0.8):
            for h in (0.05, 0.1):
                for lam in (0.0, 0.5, 1.0):
                    for beta in (0.0, 0.5, 1.0):
                        half = 0.5 * h * phi(x) ** lam
                        u = (np.arange(npts) + 0.5) / npts * 2 * half - half
                        uu = u[:, None] + u[None, :]
                        integrand = (phi(x + uu)) ** (-2.0 * beta)
                        integral = integrand.mean() * (2 * half) ** 2
                        bound = h * h * phi(x) ** (2.0 * (lam - beta))
                        ratios.append(integral / bound)
        ratios = np.array(ratios)
        assert ratios.max() <= 3.0 * np.median(ratios)
        assert ratios.max() <= 2.0  # the measured constant is around 1


# (xi, alpha, lam, grid count, placement, exclusion radius, h_steps)
LADDER_CONFIGS = [
    (0.5, 1.0, 0.0, 4097, "chebyshev", 0.0, 32),
    (0.37, 0.5, 0.3, 4097, "chebyshev", 0.01, 32),
    (0.2, 1.5, 0.5, 257, "uniform", 0.0, 7),
    (0.5, 1.0, 1.0, 1025, "uniform", 0.05, 32),  # xi on the grid, kept out by the radius
    (0.5, 0.5, 0.0, 257, "uniform", 0.0, 32),  # xi on the grid
    (0.5, 0.5, 0.0, 2, "chebyshev", 0.0, 32),
    (0.37, 1.0, 1.0, 2049, "chebyshev", 0.05, 7),
    (0.2, 0.5, 0.3, 1025, "uniform", 0.01, 32),
]


@pytest.mark.parametrize("config", LADDER_CONFIGS, ids=str)
def test_chunked_ladder_matches_the_per_step_loop_bit_for_bit(config):
    # the whole ladder, its small end, and a width below the 2^-12 floor
    xi, alpha, lam, count, placement, r, h_steps = config
    w = SingularWeight(xi=xi, alpha=alpha)
    g = GridSpec(count=count, exclusion_radius=r, placement=placement)
    for name in ("abs_beta_0.5", "abs_beta_1.0", "smoothed_step"):
        f = corpus_member(name, w, lam)
        for hs in (h_ladder(0.25, h_steps), h_ladder(2.0 ** -9, h_steps), np.array([1e-4])):
            got, want = ladder_band_sups(f, w, lam, hs, g), per_step_band_sups(f, w, lam, hs, g)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (name, hs.size)


def test_chunked_ladder_matches_the_per_step_loop_on_a_65537_point_grid():
    # one step per chunk: a grid row alone exceeds a chunk's entries
    g = GridSpec(count=65537)
    f = corpus_member("abs_beta_1.0", W)
    hs = np.concatenate([h_ladder(0.25)[:3], h_ladder(2.0 ** -11), [1e-4]])
    got, want = ladder_band_sups(f, W, 0.5, hs, g), per_step_band_sups(f, W, 0.5, hs, g)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_each_difference_is_evaluated_once(lam):
    # f sees the grid once, then only the points of the defined stencils:
    # two per grid stencil (f at the centre is the grid's), three elsewhere;
    # both sups of the symmetric differences are read off one evaluation
    points = []

    def f(x):
        points.append(np.size(x))
        return np.abs(np.asarray(x, dtype=float) - W.xi) ** 0.5

    g = GridSpec(count=257, exclusion_radius=0.01)
    hs = np.concatenate([h_ladder(0.25), [1e-4]])
    ladder_band_sups(f, W, lam, hs, g)
    seen = sum(points)
    base = grid_points(g, W.xi)
    defined = lambda values: np.count_nonzero(~np.isnan(values))
    want = np.count_nonzero(base != W.xi)
    for h in hs:
        want += 2 * defined(_sym_values(f, W, lam, h, base))
        want += 3 * defined(_sym_values(f, W, lam, h, _near_xi(W.xi, h, g)))
        cut = 16.0 * h * h
        for (lo, hi), sign in (((0.0, min(cut, 1.0)), 1.0), ((max(1.0 - cut, 0.0), 1.0), -1.0)):
            grid_part, uniform_part = _band_points(lo, hi, base, g, W.xi)
            want += 2 * defined(_oneside_values(f, W, h, grid_part, sign))
            want += 3 * defined(_oneside_values(f, W, h, uniform_part, sign))
    assert seen == want


def test_ladder_scratch_is_one_chunk_beside_the_grid():
    # one step per chunk on a 65537-point grid: the peak is a dozen or so
    # grid-sized temporaries and the grid-sized arrays held for the call (the
    # grid, f, w and phi^lam there); the whole (steps x grid) block of one
    # temporary would be 81 of them
    g = GridSpec(count=65537)
    hs = h_ladder(0.25)
    row = 8 * (grid_points(g, W.xi).size + 12)
    f = corpus_member("abs_beta_1.0", W)
    tracemalloc.start()
    try:
        ladder_band_sups(f, W, 0.5, hs, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hs.size == 81 and peak < 24 * row, peak / row


def test_every_weighted_centre_keeps_the_exclusion_radius():
    # the grid, the points added near xi and the boundary-band padding alike
    centres = []

    class RecordingWeight:
        xi = W.xi

        def __call__(self, x):
            centres.append(np.array(x, dtype=float))
            return W(x)

    f = corpus_member("abs_beta_0.5", W)
    for r in (0.1, 0.3):
        centres.clear()
        ladder_moduli(f, RecordingWeight(), 0.0, [0.25, 1e-4], 32, GridSpec(count=129, exclusion_radius=r))
        xs = np.concatenate(centres)
        assert xs.size > 0 and np.min(np.abs(xs - W.xi)) >= r
