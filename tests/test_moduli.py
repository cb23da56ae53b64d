"""Tests for the weighted moduli of smoothness, with a K-functional oracle."""

import numpy as np
import pytest

from singbern.moduli import _oneside_values, _sym_values, h_ladder, ladder_moduli
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


def test_one_symmetric_difference_per_ladder_step(monkeypatch):
    import singbern.moduli as moduli_module

    real, calls = moduli_module._sym_values, []
    monkeypatch.setattr(moduli_module, "_sym_values", lambda *a: calls.append(1) or real(*a))
    hs = h_ladder(0.25)
    moduli_module.ladder_band_sups(corpus_member("abs_beta_1.0", W, 0.0), W, 0.0, hs, G)
    assert len(calls) == hs.size > 1


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
