"""Tests for the bounded-ratio checkers and rate-fit experiments."""

import math

import numpy as np
import pytest

from singbern.basis import basis_values, block_sum, ksum
from singbern.bridge import chord, compute_nodes
from singbern.experiments import (
    DEFAULT_WEIGHT,
    check_direct,
    check_inverse,
    check_lemma1,
    check_lemma2,
    check_lemma4,
    check_lemma5,
    check_lemma6,
    check_lemma7,
    check_theorem1,
    check_theorem2,
    fit_rate,
    run_function_sweep,
    trend_summary,
    w2_members,
)
from singbern.moduli import ladder_moduli
from singbern.weight import EvaluationError, GridSpec, SingularWeight, corpus, corpus_member, grid_points

W1 = SingularWeight(0.5, 1.0)
G = GridSpec(count=513)
NS = (64, 128, 256, 512)
# sweeps whose non-power-of-two degrees leave rounding noise in (Bbar_n f)''
NOISY_NS = [NS, (50, 100, 200, 400, 800), (60, 100, 300, 1000), (70, 140, 280, 560)]


class TestFitRate:
    def test_exact_power_law(self):
        xs = [2.0**j for j in range(1, 8)]
        slope, residual = fit_rate([(x, x**-1.5) for x in xs])
        assert slope == pytest.approx(-1.5, abs=1e-12)
        assert residual <= 1e-12

    def test_constant(self):
        slope, _ = fit_rate([(x, 3.7) for x in (1.0, 2.0, 4.0, 8.0)])
        assert slope == pytest.approx(0.0, abs=1e-13)

    def test_recovers_slope_under_noise(self):
        rng = np.random.default_rng(11)
        xs = np.array([2.0**j for j in range(12)])
        ys = 0.3 * xs**1.7 * (1.0 + 0.05 * rng.uniform(-1, 1, xs.size))
        slope, _ = fit_rate(list(zip(xs, ys)))
        assert slope == pytest.approx(1.7, abs=0.08)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (2.0, 0.0), (3.0, 2.0)])


class TestTrendSummary:
    def test_flat_passes(self):
        s = trend_summary([64, 128, 256, 512], [1.0, 1.1, 0.95, 1.02])
        assert s["passed"] and not s["trivial"]
        assert abs(s["slope"]) < 0.1

    def test_growth_fails(self):
        ns = [64, 128, 256, 512]
        s = trend_summary(ns, [math.sqrt(n) for n in ns])
        assert not s["passed"]
        assert s["slope"] == pytest.approx(0.5, abs=1e-12)

    def test_decay_passes_with_detrended_spread(self):
        ns = [64, 128, 256, 512, 1024]
        s = trend_summary(ns, [100.0 / n for n in ns])
        assert s["passed"]
        assert s["spread"] == pytest.approx(1.0, rel=1e-10)

    def test_all_zero_trivial(self):
        s = trend_summary([64, 128, 256], [0.0, 0.0, 0.0])
        assert s["passed"] and s["trivial"]

    def test_tiny_values_are_not_vanishing(self):
        # lemma6 at beta = 50 (grid 257): only exact zeros vanish, so this
        # steep decay is fitted, not waved through as trivial
        s = trend_summary([64, 128, 256, 512], [9.5e45, 8.7e34, 1.3e33, 2.4e32])
        assert not s["trivial"] and not s["passed"]
        assert s["slope"] == pytest.approx(-14.2, abs=0.1)

    def test_spike_fails(self):
        s = trend_summary([64, 128, 256, 512, 1024], [1.0, 1.0, 30.0, 1.0, 1.0])
        assert not s["passed"]

    @pytest.mark.parametrize(
        "values",
        [[math.inf] * 3, [1.0, math.inf, 1.0], [math.nan] * 3, [1.0, math.nan, 1.0, 1.0]],
        ids=["all-inf", "one-inf", "all-nan", "one-nan"],
    )
    def test_non_finite_ratio_fails(self, values):
        s = trend_summary([64, 128, 256, 512][: len(values)], values)
        assert not s["passed"] and not s["trivial"]


class TestLemmaCheckers:
    def test_all_invalid_sweep_raises(self):
        from singbern.bridge import InvalidNodesError

        with pytest.raises(InvalidNodesError, match="need n >="):
            check_theorem1(corpus_member("square", W1), W1, (4, 8, 16), G)

    def test_lemma1_bounded(self):
        r = check_lemma1(NS, G, 1.0, 0.0)
        assert r["passed"]
        assert all(row["ratio"] > 0 for row in r["rows"])

    def test_lemma4_gamma2_ratio_near_one(self):
        # second central moment equals n phi^2 exactly, so the ratio is 1
        r = check_lemma4(NS, G, 2.0)
        assert r["passed"]
        for row in r["rows"]:
            assert row["ratio"] == pytest.approx(1.0, rel=1e-10)

    def test_lemma5_weighted_mass_brute_force(self):
        n, x = 100, 0.8
        win = [k for k in range(n + 1) if abs(k - n * 0.5) <= 10.0]
        brute = 0.3 * math.fsum(
            math.comb(n, k) * x**k * (1 - x) ** (n - k) for k in win
        )
        mass = ksum(basis_values(n, x, win))
        assert W1(x) * mass == pytest.approx(brute, rel=1e-12)

    def test_lemma5_scaled_sequence_flat(self):
        for alpha in (0.5, 1.0, 2.0):
            r = check_lemma5(SingularWeight(0.5, alpha), NS, G)
            assert r["passed"], (alpha, r["slope"], r["spread"])
            assert -0.3 <= r["slope"] <= 0.15

    def test_lemma6_bounded(self):
        r = check_lemma6(W1, 2.0, NS, G)
        assert r["passed"]

    def test_lemma6_windowed_sum_brute_force(self):
        n, x, beta = 400, 0.8, 2.0
        win = [k for k in range(n + 1) if abs(k - n * 0.5) <= 20.0]
        brute = W1(x) * math.fsum(
            abs(k - n * x) ** beta * math.comb(n, k) * x**k * (1 - x) ** (n - k)
            for k in win
        )
        dev = np.abs(np.array(win, dtype=float) - n * x) ** beta
        ours = W1(x) * ksum(basis_values(n, x, win) * dev)
        assert ours == pytest.approx(brute, rel=1e-11)

    def test_lemma6_large_beta_sum_against_mpmath(self):
        # at beta = 50 (grid 257) the n = 64 ratio 9.5e45 sits at the last
        # interior grid point; its windowed sum is accurate, so the blow-up
        # comes from the n^((beta-alpha)/2) phi^beta normalisation there
        mpmath = pytest.importorskip("mpmath")
        w, n, beta = DEFAULT_WEIGHT, 64, 50.0
        r = check_lemma6(w, beta, NS, GridSpec(count=257))
        assert not r["passed"]
        x = grid_points(GridSpec(count=257), w.xi)[-2]
        win = np.arange(24, 41)  # |k - n xi| <= sqrt(n)
        ours = block_sum(lambda sl: basis_values(n, x, win[sl]) * np.abs(win[sl] - n * x) ** beta, win.size)
        with mpmath.workdps(60):
            X = mpmath.mpf(x)
            exact = mpmath.fsum(abs(k - n * X) ** 50 * mpmath.binomial(n, k) * X ** k * (1 - X) ** (n - k)
                                for k in range(24, 41))
            ratio = abs(X - w.xi) ** mpmath.mpf(w.alpha) * exact / (
                n ** ((50 - mpmath.mpf(w.alpha)) / 2) * mpmath.sqrt(X * (1 - X)) ** 50)
        assert ours == pytest.approx(float(exact), rel=1e-12)
        assert r["rows"][0]["ratio"] == pytest.approx(float(ratio), rel=1e-12)

    def test_lemma7_linear_trivial(self):
        r = check_lemma7(corpus_member("linear", W1), W1, 0.0, NS, G)
        assert r["passed"] and r["trivial"]

    def test_lemma7_square_chord_defect(self):
        # for x^2 the chord defect is exactly (x - x1)(x4 - x)
        nd = compute_nodes(400, 0.5)
        f = corpus_member("square", W1)
        xs = np.array([0.45, 0.5, 0.55])
        np.testing.assert_allclose(chord(f, nd, xs) - f(xs), (xs - nd.x1) * (nd.x4 - xs), rtol=1e-11)

    def test_lemma7_bounded(self):
        r = check_lemma7(corpus_member("square", W1), W1, 0.0, NS, G)
        assert r["passed"]

    def test_lemma7_requires_second_derivative(self):
        from singbern.weight import TestFunction

        bare = TestFunction(name="bare", f=lambda x: np.asarray(x))
        with pytest.raises(ValueError):
            check_lemma7(bare, W1, 0.0, NS, G)

    def test_lemma2_stability(self):
        for name in ("abs_beta_0.5", "square", "smoothed_step"):
            r = check_lemma2(corpus_member(name, W1), W1, NS, G)
            assert r["passed"]
            assert max(row["ratio"] for row in r["rows"]) <= 2.5 * np.median(
                [row["ratio"] for row in r["rows"]]
            )


class TestTheoremCheckers:
    @pytest.mark.parametrize("ns", NOISY_NS, ids=lambda ns: "-".join(map(str, ns)))
    def test_theorem1_linear_trivial(self, ns):
        r = check_theorem1(corpus_member("linear", W1), W1, ns, G)
        assert r["passed"] and r["trivial"]
        assert [row["ratio"] for row in r["rows"]] == [0.0] * len(ns)

    @pytest.mark.parametrize("ns", NOISY_NS, ids=lambda ns: "-".join(map(str, ns)))
    @pytest.mark.parametrize("name", ["linear", "abs_beta_1.0"])
    def test_theorem2_cw_passes_on_noisy_sweeps(self, name, ns):
        r = check_theorem2(corpus_member(name, W1), W1, 0.0, "cw", ns, G)
        assert r["passed"], (r["regime_small_phi"], r["regime_large_phi"])

    def test_theorem1_bounded_for_corpus(self):
        for name in ("abs_beta_0.5", "cubic"):
            r = check_theorem1(corpus_member(name, W1), W1, NS, G)
            assert r["passed"], (name, r["slope"], r["spread"])

    def test_theorem2_w2_branch_bounded(self):
        for tf in w2_members(corpus(W1)):
            if tf.name == "smoothed_step":
                # saturates only once the bridge zone is narrower than the
                # step; needs the upper part of the sweep (acceptance runs
                # the full default sweep)
                r = check_theorem2(tf, W1, 1.0, "w2", (256, 512, 1024, 2048), G)
            else:
                r = check_theorem2(tf, W1, 1.0, "w2", NS, G)
            assert r["passed"], (tf.name, r["slope"], r["spread"])

    def test_theorem2_cw_branch_bounded(self):
        r = check_theorem2(corpus_member("abs_beta_1.0", W1), W1, 0.5, "cw", NS, G)
        assert r["passed"]

    def test_theorem2_lambda0_matches_theorem1(self):
        f = corpus_member("abs_beta_0.5", W1)
        r1 = check_theorem1(f, W1, NS, G)
        r2 = check_theorem2(f, W1, 0.0, "cw", NS, G)
        for row1, row2 in zip(r1["rows"], r2["rows"]):
            shared = max(row2["ratio_small_phi"], row2["ratio_large_phi"])
            assert shared == pytest.approx(row1["ratio"], rel=1e-12)

    def test_w2_member_selection(self):
        names = {tf.name for tf in w2_members(corpus(W1))}
        assert "square" in names and "cubic" in names and "linear" in names
        assert not any(n.startswith("abs_beta") for n in names)


class TestAsymmetricWeight:
    def test_checks_away_from_the_midpoint(self):
        # nothing in the pipeline may assume xi = 1/2
        w = SingularWeight(0.3, 0.7)
        ns = (64, 128, 256, 512)
        g = GridSpec(count=513)
        assert check_lemma5(w, ns, g)["passed"]
        assert check_lemma6(w, 2.0, ns, g)["passed"]
        assert check_theorem1(corpus_member("abs_beta_0.5", w), w, ns, g)["passed"]
        assert check_lemma2(corpus_member("abs_beta_1.0", w), w, ns, g)["passed"]
        r = check_inverse(corpus_member("square", w), w, 0.0, g=g)
        assert abs(r["mainpart_slope"] - 2.0) <= 0.15
        assert r["passed"]


class TestRatePipeline:
    def test_direct_linear_trivial(self):
        r = check_direct(corpus_member("linear", DEFAULT_WEIGHT), DEFAULT_WEIGHT, 0.0, NS, G)
        assert r["passed"] and r["trivial"]

    def test_direct_requires_target(self):
        f = corpus_member("smoothed_step", DEFAULT_WEIGHT)
        with pytest.raises(ValueError, match="target"):
            check_direct(f, DEFAULT_WEIGHT, 0.0, NS, G)

    def test_direct_hits_closed_form_target(self):
        f = corpus_member("abs_beta_1.0", DEFAULT_WEIGHT)
        assert f.expected_alpha0 == 1.5  # beta + alpha
        r = check_direct(f, DEFAULT_WEIGHT, 0.0, NS, G)
        assert r["passed"]
        assert r["target"] == 1.5
        assert abs(r["fitted_alpha0"] - r["target"]) <= r["tolerance"]

    def test_targets_only_for_the_singular_family_at_lambda_zero(self):
        w = SingularWeight(0.37, 0.7)
        targets = {tf.name: tf.expected_alpha0 for tf in corpus(w)}
        assert targets == {
            "linear": None, "abs_beta_0.5": 0.5 + 0.7, "abs_beta_1.0": 1.0 + 0.7,
            "abs_beta_1.5": 1.5 + 0.7, "square": None, "cubic": None, "smoothed_step": None,
        }
        assert all(tf.expected_alpha0 is None for tf in corpus(w, 0.5))

    @pytest.mark.parametrize("w, beyond", [(W1, True), (DEFAULT_WEIGHT, False)], ids=["alpha1", "alpha0.5"])
    def test_beyond_saturation_marks_targets_above_two(self, w, beyond):
        # abs_beta_1.5 at alpha = 1 has target 2.5, past the direct theorem's 0 < alpha0 < 2
        f = corpus_member("abs_beta_1.5", w)
        direct = check_direct(f, w, 0.0, NS, G)
        inverse = check_inverse(f, w, 0.0, g=G)
        assert direct["target"] == inverse["target"] == 1.5 + w.alpha
        assert direct["beyond_saturation"] is inverse["beyond_saturation"] is beyond
        assert direct["beyond_saturation"] is beyond

    def test_inverse_square_slope_two(self):
        f = corpus_member("square", DEFAULT_WEIGHT)
        ts = tuple(2.0**-j for j in range(3, 9))
        r = check_inverse(f, DEFAULT_WEIGHT, 0.0, ts, G)
        assert abs(r["omega_slope"] - 2.0) <= 0.1
        assert abs(r["mainpart_slope"] - 2.0) <= 0.1

    def test_inverse_below_ladder_floor_matches_modulus(self):
        # below the 2^-12 ladder floor the modulus has the single step h = t
        f = corpus_member("abs_beta_1.0", DEFAULT_WEIGHT)
        g = GridSpec(count=257)
        r = check_inverse(f, DEFAULT_WEIGHT, 0.0, (0.125, 0.0625, 0.03125, 1e-4), g)
        row = r["rows"][0]
        [(om, mp, _)] = ladder_moduli(f, DEFAULT_WEIGHT, 0.0, [1e-4], 32, g)
        assert row["t"] == 1e-4
        assert row["omega2"] == om > 0.0
        assert row["omega2_mainpart"] == mp > 0.0
        # its log-integral is one quadrature cell of the ladder's log spacing
        # (h_steps = 32: 8 steps per octave), not 0
        cell = math.log(2.0) / 8
        assert row["mainpart_log_integral"] == pytest.approx(row["omega2_mainpart"] * cell, rel=1e-12)

    @pytest.mark.filterwarnings("error")  # no RankWarning from a fit through one width
    @pytest.mark.parametrize("ts", [(0.1, 0.1, 0.1), (0.125, 0.0625, 0.125)], ids=["one", "two"])
    def test_inverse_needs_three_distinct_widths(self, ts):
        f = corpus_member("abs_beta_1.0", DEFAULT_WEIGHT)
        with pytest.raises(EvaluationError, match="too few positive modulus values"):
            check_inverse(f, DEFAULT_WEIGHT, 0.0, ts, GridSpec(count=65))

    def test_inverse_rows_are_the_distinct_widths(self):
        f = corpus_member("abs_beta_1.0", DEFAULT_WEIGHT)
        g = GridSpec(count=65)
        once = check_inverse(f, DEFAULT_WEIGHT, 0.0, (0.25, 0.125, 0.0625), g)
        repeated = check_inverse(f, DEFAULT_WEIGHT, 0.0, (0.0625, 0.25, 0.125, 0.25, 0.0625), g)
        assert repeated == once

    def test_inverse_linear_trivial(self):
        r = check_inverse(corpus_member("linear", DEFAULT_WEIGHT), DEFAULT_WEIGHT, 0.0, g=G)
        assert r["passed"] and r["trivial"]

    def test_sweep_consistency(self):
        f = corpus_member("abs_beta_1.0", DEFAULT_WEIGHT)
        out = run_function_sweep(f, DEFAULT_WEIGHT, 0.0, NS, g=G)
        assert out["passed"]
        assert out["consistency_delta"] <= 0.2

    def test_determinism(self):
        f = corpus_member("abs_beta_0.5", DEFAULT_WEIGHT)
        a = run_function_sweep(f, DEFAULT_WEIGHT, 0.0, NS, g=G)
        b = run_function_sweep(f, DEFAULT_WEIGHT, 0.0, NS, g=G)
        assert a == b
