"""Tests for the bounded-ratio checkers and rate-fit experiments."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from singbern.basis import _band_passes, ksum
from singbern.bridge import InvalidNodesError, chord, compute_nodes
from singbern.experiments import (
    DEFAULT_N_VALUES,
    DEFAULT_WEIGHT,
    _interior_degree,
    _window_sums,
    ROUNDING,
    band_checks,
    check_direct,
    check_inverse,
    check_lemma5,
    check_lemma6,
    check_lemma7,
    fit_rate,
    run_function_sweep,
    trend_summary,
    w2_members,
)
from singbern.moduli import ladder_moduli
from singbern.operators import _join_rows, bbar_apply, bbar_second_derivative, build_surrogate, collocation_matrix
from singbern.weight import (
    EvaluationError, GridSpec, SingularWeight, TestFunction, corpus, corpus_member, grid_points, phi,
    weighted_sup_norm,
)

from basis_oracle import basis_values

W1 = SingularWeight(0.5, 1.0)
G = GridSpec(count=513)
NS = (64, 128, 256, 512)
# sweeps whose non-power-of-two degrees leave rounding noise in (Bbar_n f)''
NOISY_NS = [NS, (50, 100, 200, 400, 800), (60, 100, 300, 1000), (70, 140, 280, 560)]


def band_report(name, f=None, w=DEFAULT_WEIGHT, n_values=NS, g=G, lam=0.0, **exponents) -> dict:
    """The report of band checker ``name`` run alone by ``band_checks``, on member ``f`` (none for lemma1, lemma4)."""
    [report] = band_checks({name: None if f is None else [f]}, w, lam, n_values, g, **exponents)(name)
    return report


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
            band_report("theorem1", corpus_member("square", W1), W1, (4, 8, 16))

    def test_lemma1_bounded(self):
        r = band_report("lemma1", u=1.0, v=0.0)
        assert r["passed"]
        assert all(row["ratio"] > 0 for row in r["rows"])

    def test_lemma4_gamma2_ratio_near_one(self):
        # second central moment equals n phi^2 exactly, so the ratio is 1
        r = band_report("lemma4", gamma=2.0)
        assert r["passed"]
        for row in r["rows"]:
            assert row["ratio"] == pytest.approx(1.0, rel=1e-10)

    def test_lemma5_weighted_mass_brute_force(self):
        n, x = 100, 0.8
        win = [k for k in range(n + 1) if abs(k - n * 0.5) <= 10.0]
        brute = 0.3 * math.fsum(
            math.comb(n, k) * x**k * (1 - x) ** (n - k) for k in win
        )
        mass = _window_sums(n, 0.5, np.array([x]))[0]
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
        ours = W1(x) * _window_sums(n, 0.5, np.array([x]), beta)[0]
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
        ours = _window_sums(n, w.xi, np.array([x]), beta)[0]  # over |k - n xi| <= sqrt(n): k = 24..40
        with mpmath.workdps(60):
            X = mpmath.mpf(x)
            exact = mpmath.fsum(abs(k - n * X) ** 50 * mpmath.binomial(n, k) * X ** k * (1 - X) ** (n - k)
                                for k in range(24, 41))
            ratio = abs(X - w.xi) ** mpmath.mpf(w.alpha) * exact / (
                n ** ((50 - mpmath.mpf(w.alpha)) / 2) * mpmath.sqrt(X * (1 - X)) ** 50)
        assert ours == pytest.approx(float(exact), rel=1e-12)
        assert r["rows"][0]["ratio"] == pytest.approx(float(ratio), rel=1e-12)

    def test_lemma6_at_beta_100_against_mpmath(self):
        # on 65 points the ratios at n = 64, 128, 256 are 1.25e149, 7.32e96 and
        # 3.28e84 and finite, though at n = 4096 |k - nx|^100 overflows on the
        # rows far from xi (where the weights are 0); 1e-12 relative, the window
        # sums' bound (4e-15 seen)
        mpmath = pytest.importorskip("mpmath")
        w, beta, g = DEFAULT_WEIGHT, 100.0, GridSpec(count=65)
        r = check_lemma6(w, beta, DEFAULT_N_VALUES, g)
        assert len(r["rows"]) == len(DEFAULT_N_VALUES) and not r["passed"]
        xs = [float(x) for x in grid_points(g, w.xi)[1:-1]]
        with mpmath.workdps(40):
            for row in r["rows"][:3]:
                n = row["n"]
                win = [k for k in range(n + 1) if abs(k - n * w.xi) <= math.sqrt(n)]
                ratios = []
                for x in xs:
                    X = mpmath.mpf(x)
                    moment = mpmath.fsum(abs(k - n * X) ** 100 * mpmath.binomial(n, k) * X**k * (1 - X) ** (n - k)
                                         for k in win)
                    ratios.append(abs(X - w.xi) ** mpmath.mpf(w.alpha) * moment
                                  / (mpmath.mpf(n) ** ((beta - mpmath.mpf(w.alpha)) / 2)
                                     * mpmath.sqrt(X * (1 - X)) ** 100))
                assert row["ratio"] == pytest.approx(float(max(ratios)), rel=1e-12, abs=0.0), n

    @pytest.mark.filterwarnings("error")
    def test_lemma5_at_alpha_300_against_mpmath(self):
        # 128^150 and 256^150 overflow though the scaled masses (1.4e179 and
        # 9.5e198) do not: there they are formed in log space; 64^150 is
        # finite; 1e-12 relative (9e-14 seen)
        mpmath = pytest.importorskip("mpmath")
        r = check_lemma5(SingularWeight(0.5, 300.0), (64, 128, 256), GridSpec(count=65))
        for row in r["rows"]:
            exact = mpmath.mpf(row["max_weighted_mass"]) * mpmath.mpf(row["n"]) ** 150
            assert row["scaled"] == pytest.approx(float(exact), rel=1e-12, abs=0.0), row["n"]

    @pytest.mark.filterwarnings("error")
    def test_lemma6_at_alpha_300_against_mpmath(self):
        # n^((2 - 300)/2) is 2^-894 at n = 64, subnormal at 128 and 0 at 256,
        # though the ratios (1.9e155, 3.2e181, 2.5e201) are finite: there they
        # are formed in log space; 1e-12 relative
        mpmath = pytest.importorskip("mpmath")
        w, beta, g = SingularWeight(0.5, 300.0), 2.0, GridSpec(count=65)
        r = check_lemma6(w, beta, (64, 128, 256), g)
        xs = [float(x) for x in grid_points(g, w.xi)[1:-1]]
        with mpmath.workdps(40):
            for row in r["rows"]:
                n = row["n"]
                win = [k for k in range(n + 1) if abs(k - n * w.xi) <= math.sqrt(n)]
                ratios = []
                for x in xs:
                    X = mpmath.mpf(x)
                    moment = mpmath.fsum(abs(k - n * X) ** 2 * mpmath.binomial(n, k) * X**k * (1 - X) ** (n - k)
                                         for k in win)
                    ratios.append(abs(X - w.xi) ** 300 * moment / (mpmath.mpf(n) ** -149 * (X * (1 - X))))
                assert row["ratio"] == pytest.approx(float(max(ratios)), rel=1e-12, abs=0.0), n

    @pytest.mark.filterwarnings("error")
    def test_lemma4_at_gamma_100_against_mpmath(self):
        # phi^100 underflows to 0 at the two grid points nearest 0 and 1, where
        # the ratios are largest (1.2e297 at n = 64) and finite: there they are
        # formed in log space; 1e-12 relative (4.4e-14 seen)
        mpmath = pytest.importorskip("mpmath")
        r = band_report("lemma4", n_values=DEFAULT_N_VALUES, g=GridSpec(), gamma=100.0)
        degree = _interior_degree(SimpleNamespace(g=GridSpec(), gamma=100.0))
        for row in r["rows"][:3]:
            n = row["n"]
            xs, [moments] = degree(n, ["lemma4"])
            under = np.flatnonzero(phi(xs) ** 100 == 0.0)
            assert under.size == 2
            with mpmath.workdps(30):
                exact = [mpmath.mpf(m) / (mpmath.mpf(n) ** 50 * mpmath.sqrt(X * (1 - X)) ** 100)
                         for X, m in zip(map(mpmath.mpf, xs.tolist()), moments.tolist())]
            assert exact.index(max(exact)) in under
            assert row["ratio"] == pytest.approx(float(max(exact)), rel=1e-12, abs=0.0), n

    def test_window_terms_whose_power_alone_overflows_against_mpmath(self):
        # at n = 16384 |k - nx|^100 overflows on every window index for x = 0.4
        # and on some for 0.42, 0.43 and 0.58, where the weights lie between
        # 1e-145 and 1e-35 and the terms are finite: those terms are formed in
        # log space; at x = 0.2 every term is below the subnormals, so the sum
        # is 0; 1e-12 relative (2.5e-14 seen)
        mpmath = pytest.importorskip("mpmath")
        n, xi, beta = 16384, 0.5, 100.0
        win = [k for k in range(n + 1) if abs(k - n * xi) <= math.sqrt(n)]
        xs = np.array([0.2, 0.4, 0.42, 0.43, 0.45, 0.58])
        with np.errstate(over="ignore"):
            over = np.isinf(np.abs(np.array(win) - n * xs[:, None]) ** beta)
        assert over[1:4].any(axis=1).all() and over[-1].any() and not over[-2].any()
        got = _window_sums(n, xi, xs, beta)
        assert got[0] == 0.0
        with mpmath.workdps(40):
            for x, sum_ in zip(xs[1:], got[1:]):
                X = mpmath.mpf(float(x))
                exact = mpmath.fsum(abs(k - n * X) ** 100 * mpmath.binomial(n, k) * X**k * (1 - X) ** (n - k)
                                    for k in win)
                assert abs(sum_ - exact) <= mpmath.mpf("1e-12") * exact, (x, sum_, exact)

    @pytest.mark.parametrize("n", (1, 64, 1000, 10**6))
    def test_window_sums_against_live_mpmath(self, n):
        # exact binomials at 40 digits with the double x taken exactly: at x = 0
        # and 1, near xi, and on rows below xi whose every window entry is below
        # 1e-250 (the largest near 1e-260 and 1e-300, above the subnormals);
        # each sum, times |k - n x|^beta or not, keeps 1e-12 relative
        mpmath = pytest.importorskip("mpmath")
        xi = 0.37
        k = np.arange(n + 1)
        win = k[np.abs(k - n * xi) <= math.sqrt(n)].tolist()
        xs = [0.0, 1.0, xi, xi - min(0.3, 0.5 / math.sqrt(n))]
        if win[0] > 0:
            xs += [_row_peaking_at(n, win[0], level) for level in (1e-260, 1e-300)]
        sums = {beta: _window_sums(n, xi, np.array(xs), beta) for beta in (None, 2.0, 50.0)}
        with mpmath.workdps(40):
            for i, x in enumerate(xs):
                X = mpmath.mpf(x)
                entries = [mpmath.binomial(n, j) * X**j * (1 - X) ** (n - j) for j in win]
                if i >= 4:
                    assert max(entries) < mpmath.mpf("1e-250")
                for beta, got in sums.items():
                    exact = mpmath.fsum(e * (abs(j - n * X) ** beta if beta else 1) for j, e in zip(win, entries))
                    assert abs(got[i] - exact) <= mpmath.mpf("1e-12") * exact, (x, beta, got[i], exact)

    @pytest.mark.parametrize("name", ["lemma4", "lemma5", "lemma6"])
    def test_row_chunks_keep_the_bits_of_one_block(self, name):
        # lemma4, lemma5 and lemma6 join their block sums _join_rows rows at a
        # time; each grid here takes more than one chunk (lemma4 at n = 4096 on
        # its interior grid; the window lemmas at each degree, around xi, where
        # the sums are not 0), and every row's sum keeps the bits of a one-block
        # ksum over the grid of its walked rows: the band's, or the window's
        beta = 2.0
        if name == "lemma4":
            g = GridSpec(count=_join_rows(1, collocation_matrix(4096, np.array([0.5]))[1].shape[1]) + 3)
            xs = grid_points(g)[1:-1]
        for n in (1024, 4096):
            if name == "lemma4":
                got = _interior_degree(SimpleNamespace(g=g, gamma=beta))(n, ["lemma4"])[1][0]
                start, B = collocation_matrix(n, xs)
                want = ksum(B * np.abs(start[:, None] + np.arange(B.shape[1]) - n * xs[:, None]) ** beta, axis=1)
            else:
                k = np.arange(n + 1)
                win = k[np.abs(k - n * W1.xi) <= math.sqrt(n)]
                xs = np.linspace(0.4, 0.6, _join_rows(1, win.size) + 1)
                first, B = np.full(xs.size, win[0]), np.zeros((xs.size, win.size))
                for sl, block in _band_passes(n, xs, win.size, (first, first, np.full(xs.size, win[-1]))):
                    B[sl] = block
                dev = 1.0 if name == "lemma5" else np.abs(win - n * xs[:, None]) ** beta
                got = _window_sums(n, W1.xi, xs, None if name == "lemma5" else beta)
                want = ksum(B * dev, axis=1)
                # the walked rows against the log-space oracle
                np.testing.assert_allclose(got, ksum(basis_values(n, xs[:, None], win[None, :]) * dev, axis=1),
                                           rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

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
            r = band_report("lemma2", corpus_member(name, W1), W1)
            assert r["passed"]
            assert max(row["ratio"] for row in r["rows"]) <= 2.5 * np.median(
                [row["ratio"] for row in r["rows"]]
            )


class TestTheoremCheckers:
    @pytest.mark.parametrize("ns", NOISY_NS, ids=lambda ns: "-".join(map(str, ns)))
    def test_theorem1_linear_trivial(self, ns):
        r = band_report("theorem1", corpus_member("linear", W1), W1, ns)
        assert r["passed"] and r["trivial"]
        assert [row["ratio"] for row in r["rows"]] == [0.0] * len(ns)

    @pytest.mark.parametrize("ns", NOISY_NS, ids=lambda ns: "-".join(map(str, ns)))
    @pytest.mark.parametrize("name", ["linear", "abs_beta_1.0"])
    def test_theorem2_cw_passes_on_noisy_sweeps(self, name, ns):
        r = band_report("theorem2 cw", corpus_member(name, W1), W1, ns)
        assert r["passed"], (r["regime_small_phi"], r["regime_large_phi"])

    def test_theorem1_bounded_for_corpus(self):
        for name in ("abs_beta_0.5", "cubic"):
            r = band_report("theorem1", corpus_member(name, W1), W1)
            assert r["passed"], (name, r["slope"], r["spread"])

    def test_theorem2_w2_branch_bounded(self):
        for tf in w2_members(corpus(W1)):
            if tf.name == "smoothed_step":
                # saturates only once the bridge zone is narrower than the
                # step; needs the upper part of the sweep (acceptance runs
                # the full default sweep)
                r = band_report("theorem2 w2", tf, W1, (256, 512, 1024, 2048), lam=1.0)
            else:
                r = band_report("theorem2 w2", tf, W1, lam=1.0)
            assert r["passed"], (tf.name, r["slope"], r["spread"])

    def test_theorem2_cw_branch_bounded(self):
        r = band_report("theorem2 cw", corpus_member("abs_beta_1.0", W1), W1, lam=0.5)
        assert r["passed"]

    def test_theorem2_lambda0_matches_theorem1(self):
        f = corpus_member("abs_beta_0.5", W1)
        r1 = band_report("theorem1", f, W1)
        r2 = band_report("theorem2 cw", f, W1)
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
        assert band_report("theorem1", corpus_member("abs_beta_0.5", w), w, ns, g)["passed"]
        assert band_report("lemma2", corpus_member("abs_beta_1.0", w), w, ns, g)["passed"]
        r = check_inverse(corpus_member("square", w), w, 0.0, g=g)
        assert abs(r["mainpart_slope"] - 2.0) <= 0.15
        assert r["passed"]


class TestRatePipeline:
    def test_direct_linear_trivial(self):
        [r] = check_direct([corpus_member("linear", DEFAULT_WEIGHT)], DEFAULT_WEIGHT, 0.0, NS, G)
        assert r["passed"] and r["trivial"]

    def test_direct_requires_target(self):
        f = corpus_member("smoothed_step", DEFAULT_WEIGHT)
        with pytest.raises(ValueError, match="target"):
            check_direct([f], DEFAULT_WEIGHT, 0.0, NS, G)

    def test_direct_hits_closed_form_target(self):
        f = corpus_member("abs_beta_1.0", DEFAULT_WEIGHT)
        assert f.expected_alpha0 == 1.5  # beta + alpha
        [r] = check_direct([f], DEFAULT_WEIGHT, 0.0, NS, G)
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
        [direct] = check_direct([f], w, 0.0, NS, G)
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
        [out] = run_function_sweep([f], DEFAULT_WEIGHT, 0.0, NS, g=G)
        assert out["passed"]
        assert out["consistency_delta"] <= 0.2

    def test_determinism(self):
        f = corpus_member("abs_beta_0.5", DEFAULT_WEIGHT)
        a = run_function_sweep([f], DEFAULT_WEIGHT, 0.0, NS, g=G)
        b = run_function_sweep([f], DEFAULT_WEIGHT, 0.0, NS, g=G)
        assert a == b


def _row_peaking_at(n, k, level):
    """The x < k/n where b(n, k, x) is ``level``: on that row every entry from k upward is at most ``level``."""
    lo, hi = 0.0, k / n
    for _ in range(100):
        x = (lo + hi) / 2.0
        log_b = k * math.log(x) + (n - k) * math.log1p(-x) + math.lgamma(n + 1) - math.lgamma(k + 1)
        lo, hi = (x, hi) if log_b - math.lgamma(n - k + 1) < math.log(level) else (lo, x)
    return x


def _failing_member(name, bad_x):
    """abs_beta_1.0 under the default weight, but infinite at ``bad_x``."""
    base = corpus_member("abs_beta_1.0", DEFAULT_WEIGHT)

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == bad_x, np.inf, base(x))

    return TestFunction(name, f, expected_alpha0=base.expected_alpha0)


class TestBatchedDirect:
    """Several members at once give the reports, and the error, of one-member calls in member order."""

    MEMBERS = ("linear", "abs_beta_0.5", "abs_beta_1.0", "abs_beta_1.5")

    def test_check_direct_equals_one_member_calls(self):
        members = [corpus_member(name, W1) for name in self.MEMBERS]
        together = check_direct(members, W1, 0.0, NS, G)
        assert together == [check_direct([f], W1, 0.0, NS, G)[0] for f in members]
        assert [r["params"]["function"] for r in together] == list(self.MEMBERS)

    def test_streams_its_bands(self, monkeypatch):
        # no whole (grid x band) block is built: every band is streamed a pass at a time
        import singbern.basis as basis
        import singbern.operators as operators

        def whole_block(*args):
            raise AssertionError("a whole band block was built")

        monkeypatch.setattr(basis, "basis_matrix", whole_block)
        monkeypatch.setattr(operators, "basis_matrix", whole_block)
        members = [corpus_member(name, W1) for name in self.MEMBERS]
        check_direct(members, W1, 0.0, NS, G)
        reports = band_checks(_full_plan(members), W1, 0.0, NS, G)
        for name in _full_plan(members):
            list(reports(name))

    def test_run_function_sweep_equals_one_member_calls(self):
        members = [corpus_member(name, DEFAULT_WEIGHT) for name in self.MEMBERS]
        together = run_function_sweep(members, DEFAULT_WEIGHT, 0.0, NS, g=G)
        assert together == [run_function_sweep([f], DEFAULT_WEIGHT, 0.0, NS, g=G)[0] for f in members]

    def test_no_members_no_reports(self):
        assert check_direct([], DEFAULT_WEIGHT, 0.0, NS, G) == []
        assert run_function_sweep((), DEFAULT_WEIGHT, 0.0, NS, g=G) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("early_x, late_x", [(0.375, 0.25), (278 / 512, 0.5625)], ids=["surrogate", "grid"])
    def test_first_member_in_order_raises_its_own_error(self, early_x, late_x):
        # surrogate: f is first sampled at 0.375 at n = 128, at 0.25 (x1) at
        # n = 64; grid: 278/512 and 0.5625 are the node x3 of n = 512 and
        # n = 256, which no surrogate samples up to there, so the grid meets
        # them first.  The later member fails at the smaller degree, but the
        # earlier member's error is the one a member-by-member run meets first.
        early, late = _failing_member("early", early_x), _failing_member("late", late_x)
        good = corpus_member("abs_beta_1.0", DEFAULT_WEIGHT)
        errors = []
        for members in ([early], [late], [good, early, late]):
            with pytest.raises(EvaluationError) as exc:
                check_direct(members, DEFAULT_WEIGHT, 0.0, NS, G)
            errors.append(str(exc.value))
        with pytest.raises(EvaluationError) as exc:
            run_function_sweep([good, early, late], DEFAULT_WEIGHT, 0.0, NS, g=G)
        errors.append(str(exc.value))
        assert errors[0] != errors[1]
        assert errors[2] == errors[3] == errors[0]

    def test_earlier_members_inverse_error_comes_before_later_members_direct_error(self, monkeypatch):
        import singbern.experiments as experiments

        def check_inverse(f, *args):
            raise EvaluationError(f"inverse of {f.name}")

        monkeypatch.setattr(experiments, "check_inverse", check_inverse)
        good = corpus_member("abs_beta_1.0", DEFAULT_WEIGHT)
        with pytest.raises(EvaluationError, match="inverse of abs_beta_1.0"):
            run_function_sweep([good, _failing_member("late", 0.25)], DEFAULT_WEIGHT, 0.0, NS, g=G)

    def test_too_few_usable_degrees_is_one_error_for_all(self):
        members = [corpus_member(name, DEFAULT_WEIGHT) for name in self.MEMBERS]
        with pytest.raises(InvalidNodesError, match="a trend needs 3"):
            check_direct(members, DEFAULT_WEIGHT, 0.0, (4, 8, 64), G)


def _full_plan(members) -> dict:
    """Every band checker, as ``check --which all --branch both`` plans them."""
    return {
        "lemma1": None, "lemma4": None, "lemma2": members, "theorem1": members,
        "theorem2 cw": members, "theorem2 w2": w2_members(members),
        "direct": [f for f in members if f.expected_alpha0 is not None or f.name == "linear"],
    }


def _overflowing_member(name, bad_x):
    """abs_beta_1.0 under the default weight, but raising OverflowError where sampled at ``bad_x``."""
    base = corpus_member("abs_beta_1.0", DEFAULT_WEIGHT)

    def f(x):
        x = np.asarray(x, dtype=float)
        if np.any(x == bad_x):
            raise OverflowError(f"{name} overflows at {bad_x}")
        return base(x)

    return TestFunction(name, f, singularity_exponent=1.0, expected_alpha0=base.expected_alpha0)


class TestSharedBands:
    """Checkers that share one pass per (degree, grid) give the reports, and the error, of one-checker runs."""

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_shared_passes_equal_one_member_one_checker_runs(self, lam):
        members = corpus(W1, lam)
        plan = _full_plan(members)
        reports = band_checks(plan, W1, lam, NS, G, 1.0, 0.0, 2.0)
        for name in plan:
            alone = [band_report(name, f, W1, lam=lam) for f in plan[name] or [None]]
            assert list(reports(name)) == alone, name

    def test_xi_on_the_grid_changes_nothing(self):
        # the node grid leaves xi out, where the weight and every weighted value
        # are 0; with xi = 0.5 on a uniform grid the ratios keep their bits
        g = GridSpec(count=257, placement="uniform")
        f = corpus_member("abs_beta_1.0", W1)
        fnorm = weighted_sup_norm(f, W1, g)
        lemma2, theorem1 = (band_report(name, f, W1, NS, g)["rows"] for name in ("lemma2", "theorem1"))
        for n, r2, r1 in zip(NS, lemma2, theorem1):
            nd = compute_nodes(n, W1.xi)
            xs = grid_points(g, W1.xi, extra=(nd.x1, nd.x2, nd.x3, nd.x4))
            assert W1.xi in xs
            assert r2["ratio"] == float(np.max(np.abs(W1(xs) * bbar_apply(f, n, W1, xs)))) / fnorm
            values = build_surrogate(f, n, W1)
            d2 = bbar_second_derivative(values, xs)
            d2[np.abs(d2) <= ROUNDING * n * (n - 1.0) * float(np.max(np.abs(values)))] = 0.0
            assert r1["ratio"] == float(np.max(np.abs(W1(xs) * d2))) / (float(n) ** 2.0 * fnorm)

    @pytest.mark.parametrize("make", [_failing_member, _overflowing_member], ids=["non-finite", "overflow"])
    def test_each_checker_raises_the_error_of_its_one_member_runs(self, make):
        # ``early`` fails at n = 128, ``late`` (later in member order) at n = 64:
        # a one-member run of ``early`` meets its error first, and so must the shared pass
        early, late = make("early", 0.375), make("late", 0.25)
        good = corpus_member("abs_beta_1.0", DEFAULT_WEIGHT)
        members = [good, early, late]
        plan = {"lemma2": members, "theorem1": members, "theorem2 cw": members, "direct": members}
        errors = {}
        for name in plan:
            with pytest.raises((EvaluationError, ArithmeticError)) as alone:
                band_report(name, early)
            reports = band_checks(plan, DEFAULT_WEIGHT, 0.0, NS, G)
            with pytest.raises((EvaluationError, ArithmeticError)) as shared:
                list(reports(name))
            assert (type(shared.value), str(shared.value)) == (type(alone.value), str(alone.value))
            errors[name] = str(shared.value)
        assert "0.375" in errors["lemma2"] and errors["lemma2"] == errors["theorem1"]

    def test_too_few_usable_degrees_come_after_the_first_members_norm(self):
        # a one-member lemma2 run takes the norm of f before it filters the degrees
        bad_norm = TestFunction("bad_norm", lambda x: np.full(np.shape(x), np.inf))
        reports = band_checks({"lemma2": [bad_norm], "direct": [corpus_member("linear", W1)]}, W1, 0.0, (4, 8, 64), G)
        with pytest.raises(EvaluationError, match="non-finite weighted value"):
            list(reports("lemma2"))
        with pytest.raises(InvalidNodesError, match="a trend needs 3"):
            list(reports("direct"))
