"""Tests for weighted moduli of smoothness and the K-functional bound."""

import numpy as np
import pytest

from singbern.moduli import (
    ModulusQuery,
    h_ladder,
    kfunctional_upper,
    ladder_moduli,
    omega2,
    omega2_mainpart,
    second_difference_backward,
    second_difference_forward,
    second_difference_symmetric,
)
from singbern.weight import GridSpec, SingularWeight, TestFunction, corpus, corpus_member, phi

W = SingularWeight(xi=0.5, alpha=1.0)
G = GridSpec(count=513)


def brute_omega2(f, w, lam, t, g, h_steps=32):
    """Plain-loop reimplementation of the three-band sup, same point sets."""
    from singbern.weight import grid_points

    base = grid_points(g, w.xi)
    best = 0.0
    for h in h_ladder(t, h_steps):
        offs = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0]) * h
        near = np.concatenate([w.xi - offs, w.xi + offs])
        xs_interior = np.unique(
            np.concatenate([base, near[(near > 0.0) & (near < 1.0)]])
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
                np.concatenate([base[(base >= lo) & (base <= hi)], np.linspace(lo, hi, 129)])
            ) if hi > lo else []
            for x in xs:
                p1, p2 = x + sign * h, x + sign * 2 * h
                if 0.0 <= min(x, p2) and max(x, p2) <= 1.0 and all(p != w.xi for p in (x, p1, p2)):
                    val = abs(w(x) * (f(p2) - 2.0 * f(p1) + f(x)))
                    sups[idx] = max(sups[idx], float(val))
        best = max(best, sum(sups))
    return best


class TestSecondDifferences:
    def test_linear_annihilated(self):
        f = corpus_member("linear", W)
        for h, x in ((0.01, 0.3), (0.05, 0.7), (0.001, 0.49)):
            assert second_difference_symmetric(f, W, 0.0, h, x) == pytest.approx(0.0, abs=1e-13)
            assert second_difference_forward(f, W, h, x) == pytest.approx(0.0, abs=1e-13)
            assert second_difference_backward(f, W, h, x) == pytest.approx(0.0, abs=1e-13)

    def test_square_closed_form(self):
        f = corpus_member("square", W)
        for h, x in ((0.02, 0.3), (0.01, 0.8)):
            expected = W(x) * 2.0 * h * h
            assert second_difference_symmetric(f, W, 0.0, h, x) == pytest.approx(
                expected, rel=1e-9
            )
            assert second_difference_forward(f, W, h, x) == pytest.approx(expected, rel=1e-9)

    def test_lambda_scales_step(self):
        f = corpus_member("square", W)
        h, x = 0.02, 0.3
        step = h * phi(x)
        assert second_difference_symmetric(f, W, 1.0, h, x) == pytest.approx(
            W(x) * 2.0 * step * step, rel=1e-9
        )

    def test_out_of_domain_is_none(self):
        f = corpus_member("square", W)
        assert second_difference_symmetric(f, W, 0.0, 0.1, 0.95) is None
        assert second_difference_forward(f, W, 0.1, 0.95) is None
        assert second_difference_backward(f, W, 0.1, 0.05) is None

    def test_stencil_on_xi_is_none(self):
        f = corpus_member("abs_beta_0.5", W)
        assert second_difference_symmetric(f, W, 0.0, 0.1, 0.5) is None
        assert second_difference_symmetric(f, W, 0.0, 0.1, 0.4) is None  # x + h hits xi
        assert second_difference_symmetric(f, W, 0.0, 0.1, 0.41) is not None

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            second_difference_symmetric(corpus_member("square", W), W, 0.0, 0.0, 0.5)


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
        for t in (0.05, 0.2):
            assert omega2(ModulusQuery(f=f, w=W, t=t, g=G)) <= 1e-12
            assert omega2_mainpart(ModulusQuery(f=f, w=W, t=t, g=G)) <= 1e-12

    def test_square_matches_brute_force(self):
        f = corpus_member("square", W)
        q = ModulusQuery(f=f, w=W, lam=0.0, t=0.1, g=GridSpec(count=129))
        assert omega2(q) == pytest.approx(
            brute_omega2(f, W, 0.0, 0.1, GridSpec(count=129)), rel=1e-12
        )

    def test_ladder_moduli_match_brute_force_at_every_width(self):
        # one pass serves all widths; 1e-4 lies below the 2^-12 ladder floor
        # and gets the single step h = t, as omega2 gives it on its own
        f = corpus_member("abs_beta_0.5", W)
        g = GridSpec(count=129)
        ts = [0.05, 2.0 ** -12, 1e-4]
        for t, (om, mp, _) in zip(ts, ladder_moduli(f, W, 0.0, ts, 32, g)):
            q = ModulusQuery(f=f, w=W, t=t, g=g)
            assert om == omega2(q) == pytest.approx(brute_omega2(f, W, 0.0, t, g), rel=1e-12)
            assert mp == omega2_mainpart(q)

    def test_square_bounded_by_closed_form(self):
        # symmetric/one-sided differences of x^2 are exactly 2 h^2
        f = corpus_member("square", W)
        for t in (0.05, 0.1, 0.25):
            val = omega2(ModulusQuery(f=f, w=W, lam=0.0, t=t, g=G))
            assert val <= 3.0 * 2.0 * t * t * 0.5 + 1e-12

    def test_monotone_in_t(self):
        for tf in corpus(W):
            a = omega2(ModulusQuery(f=tf, w=W, t=0.05, g=GridSpec(count=257)))
            b = omega2(ModulusQuery(f=tf, w=W, t=0.1, g=GridSpec(count=257)))
            assert a <= b + 1e-15

    def test_absolute_scaling(self):
        f = corpus_member("abs_beta_0.5", W)
        scaled = TestFunction(name="scaled", f=lambda x: -4.0 * f(x))
        a = omega2(ModulusQuery(f=f, w=W, t=0.1, g=G))
        b = omega2(ModulusQuery(f=scaled, w=W, t=0.1, g=G))
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_square_rate_is_two(self):
        f = corpus_member("square", W)
        ts = 2.0 ** -np.arange(3, 9)
        vals = [omega2(ModulusQuery(f=f, w=W, lam=0.0, t=t, g=G)) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_mainpart_dominated_by_full(self):
        for tf in corpus(W):
            for t in (0.05, 0.125):
                q = ModulusQuery(f=tf, w=W, t=t, g=GridSpec(count=257))
                assert omega2_mainpart(q) <= 3.0 * omega2(q) + 1e-12

    def test_query_validation(self):
        f = corpus_member("square", W)
        with pytest.raises(ValueError):
            ModulusQuery(f=f, w=W, t=0.3)
        with pytest.raises(ValueError):
            ModulusQuery(f=f, w=W, t=0.1, lam=1.5)


class TestKFunctional:
    def test_smooth_candidate_self(self):
        f = corpus_member("square", W)
        t = 0.05
        bound = kfunctional_upper(f, W, 0.0, t, [f], g=G)
        assert bound <= t * t * 2.0 * 0.5 + 1e-12  # ||w f''|| = 2 max|w|

    def test_zero_candidate(self):
        from singbern.weight import weighted_sup_norm

        f = corpus_member("abs_beta_1.0", W)
        zero = TestFunction(
            name="zero",
            f=lambda x: np.zeros(np.shape(x)),
            second_derivative=lambda x: np.zeros(np.shape(x)),
        )
        assert kfunctional_upper(f, W, 0.0, 0.1, [zero], g=G) <= weighted_sup_norm(
            f, W, G
        ) + 1e-12

    def test_ratio_to_mainpart_bounded_for_smooth(self):
        f = corpus_member("square", W)
        ratios = []
        for t in 2.0 ** -np.arange(3, 8):
            kf = kfunctional_upper(f, W, 0.0, t, [f], g=G)
            om = omega2_mainpart(ModulusQuery(f=f, w=W, t=t, g=G))
            ratios.append(kf / om)
        assert max(ratios) <= 5.0

    def test_candidate_without_second_derivative_rejected(self):
        f = corpus_member("square", W)
        with pytest.raises(ValueError):
            kfunctional_upper(f, W, 0.0, 0.1, [lambda x: x], g=G)


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
