"""Tests for the classical and singularity-modified operators."""

import math

import numpy as np
import pytest

from singbern.bridge import InvalidNodesError, compute_nodes
from singbern.operators import (
    bbar_apply,
    bbar_second_derivative,
    bernstein_apply,
    build_surrogate,
)
from singbern.experiments import check_theorem1, check_theorem2
from singbern.weight import GridSpec, SingularWeight, TestFunction, corpus_member, weighted_sup_norm

W = SingularWeight(xi=0.5, alpha=1.0)


def bbar_oracle(f_scalar, n, xi, x):
    """Straight-line reimplementation: exact binomials and explicit branches."""
    r = math.sqrt(n)
    k1 = math.floor(n * xi - 2 * r)
    k2 = math.floor(n * xi - r)
    k3 = math.floor(n * xi + r)
    k4 = math.floor(n * xi + 2 * r)
    x1, x2, x3, x4 = k1 / n, k2 / n, k3 / n, k4 / n
    f1, f4 = f_scalar(x1), f_scalar(x4)

    def P(t):
        return (t - x4) / (x1 - x4) * f1 + (x1 - t) / (x1 - x4) * f4

    def S(u):
        if u <= 0.0:
            return 0.0
        if u >= 1.0:
            return 1.0
        return 10 * u**3 - 15 * u**4 + 6 * u**5

    terms = []
    for k in range(n + 1):
        t = k / n
        if k <= k1 or k >= k4:
            v = f_scalar(t)
        elif k < k2:
            s = S((t - x1) / (x2 - x1))
            v = (1 - s) * f_scalar(t) + s * P(t)
        elif k <= k3:
            v = P(t)
        else:
            s = S((t - x3) / (x4 - x3))
            v = (1 - s) * P(t) + s * f_scalar(t)
        terms.append(v * math.comb(n, k) * x**k * (1 - x) ** (n - k))
    return math.fsum(terms)


class TestBernsteinApply:
    def test_linear_node_values_give_identity(self):
        xs = np.linspace(0.0, 1.0, 101)
        for n in (2, 17, 256):
            values = np.arange(n + 1) / n
            np.testing.assert_allclose(bernstein_apply(values, xs), xs, atol=1e-12)

    def test_constant_values(self):
        values = np.full(33, 0.7)
        np.testing.assert_allclose(
            bernstein_apply(values, np.linspace(0, 1, 11)), 0.7, rtol=1e-13
        )

    def test_hat_at_half(self):
        assert bernstein_apply(np.array([0.0, 1.0, 0.0]), 0.5) == pytest.approx(0.5)

    def test_scalar_and_grid_agree(self):
        values = np.sin(np.arange(21))
        xs = np.array([0.0, 0.2, 0.9, 1.0])
        grid = bernstein_apply(values, xs)
        for i, x in enumerate(xs):
            assert grid[i] == pytest.approx(bernstein_apply(values, float(x)), rel=1e-14)


class TestBuildSurrogate:
    def test_linear_is_sampled_unchanged(self):
        f = corpus_member("linear", W)
        coeffs = build_surrogate(f, 128, W)
        t = np.arange(129) / 128.0
        np.testing.assert_allclose(coeffs.values, f(t), atol=1e-13)

    def test_chord_zone_entries(self):
        f = lambda x: np.abs(np.asarray(x) - 0.5)
        coeffs = build_surrogate(f, 400, W)
        nd = coeffs.nodes
        assert coeffs.values[200] == pytest.approx(0.10, abs=1e-14)
        assert coeffs.values[0] == pytest.approx(0.5, abs=1e-15)
        from singbern.bridge import linear_joiner

        P = linear_joiner(f, nd)
        for k in range(nd.k2, nd.k3 + 1):
            assert coeffs.values[k] == pytest.approx(P(k / 400.0), abs=1e-13)

    def test_invalid_nodes_raise(self):
        with pytest.raises(InvalidNodesError):
            build_surrogate(corpus_member("square", W), 4, W)

    def test_perturbation_in_chord_zone_is_invisible(self):
        nd = compute_nodes(512, 0.5)
        base = corpus_member("abs_beta_1.0", W)

        def bumped(x):
            x = np.asarray(x, dtype=float)
            inside = (x > nd.x2) & (x < nd.x3)
            return base(x) + np.where(inside, 57.0, 0.0)

        a = build_surrogate(base, 512, W)
        b = build_surrogate(bumped, 512, W)
        np.testing.assert_array_equal(a.values, b.values)

    def test_coefficients_are_immutable(self):
        coeffs = build_surrogate(corpus_member("square", W), 64, W)
        with pytest.raises(ValueError):
            coeffs.values[0] = 1.0


class TestBbarApply:
    def test_preserves_linear(self):
        f = corpus_member("linear", W)
        xs = np.linspace(0.0, 1.0, 100)
        for n in (64, 256, 1024):
            np.testing.assert_allclose(bbar_apply(f, n, W, xs), f(xs), atol=1e-11)

    def test_preserves_constant(self):
        c = lambda x: np.full(np.shape(x), 2.5)
        xs = np.linspace(0.0, 1.0, 50)
        np.testing.assert_allclose(bbar_apply(c, 100, W, xs), 2.5, atol=1e-12)

    def test_matches_independent_oracle(self):
        f = lambda x: np.abs(np.asarray(x) - 0.5) ** 0.5
        fs = lambda x: abs(x - 0.5) ** 0.5
        for x in (0.5, 0.3, 0.9):
            got = bbar_apply(f, 400, W, x)
            assert got == pytest.approx(bbar_oracle(fs, 400, 0.5, x), rel=1e-12)

    def test_endpoint_interpolation_exact(self):
        f = corpus_member("abs_beta_0.5", W)
        assert bbar_apply(f, 256, W, 0.0) == f(0.0)
        assert bbar_apply(f, 256, W, 1.0) == f(1.0)

    def test_positivity(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 5.0, size=129)
        xs = np.linspace(0.0, 1.0, 257)
        assert np.all(bernstein_apply(values, xs) >= 0.0)

    def test_linearity_with_shared_nodes(self):
        fa = corpus_member("abs_beta_1.0", W)
        fb = corpus_member("square", W)
        combo = lambda x: 2.0 * fa(x) - 3.0 * fb(x)
        xs = np.linspace(0.0, 1.0, 101)
        lhs = bbar_apply(combo, 256, W, xs)
        rhs = 2.0 * bbar_apply(fa, 256, W, xs) - 3.0 * bbar_apply(fb, 256, W, xs)
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_stability_ratio_bounded(self):
        g = GridSpec(count=513)
        for name in ("abs_beta_0.5", "abs_beta_1.0", "square", "smoothed_step"):
            f = corpus_member(name, W)
            fnorm = weighted_sup_norm(f, W, g)
            ratios = []
            for n in (64, 128, 256, 512):
                op_norm = weighted_sup_norm(lambda x: bbar_apply(f, n, W, x), W, g)
                ratios.append(op_norm / fnorm)
            ratios = np.array(ratios)
            assert ratios.max() <= 2.0 * np.median(ratios)


class TestSecondDerivative:
    def test_linear_values_vanish(self):
        f = corpus_member("linear", W)
        for n in (64, 400):
            coeffs = build_surrogate(f, n, W)
            xs = np.linspace(0.05, 0.95, 17)
            assert np.max(np.abs(bbar_second_derivative(coeffs, xs))) <= 1e-9 * n * n

    def test_square_closed_form(self):
        # node values (k/n)^2 have second differences exactly 2/n^2,
        # so the identity gives 2 (1 - 1/n) at every x
        f = corpus_member("square", W)
        n = 256
        coeffs = build_surrogate(f, n, W)
        xs = np.linspace(0.02, 0.2, 9)  # far enough that bridge basis mass is nil
        expected = np.full_like(xs, 2.0 * (1.0 - 1.0 / n))
        got = bbar_second_derivative(coeffs, xs)
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_matches_finite_difference_oracle(self):
        f = corpus_member("abs_beta_1.0", W)
        n = 100
        coeffs = build_surrogate(f, n, W)
        h = 1e-4
        for x in (0.2, 0.45, 0.8):
            fd = (
                bbar_apply(f, n, W, x + h)
                - 2 * bbar_apply(f, n, W, x)
                + bbar_apply(f, n, W, x - h)
            ) / (h * h)
            assert bbar_second_derivative(coeffs, x) == pytest.approx(fd, rel=1e-5)

    def test_requires_degree_two(self):
        f = corpus_member("square", W)
        coeffs = build_surrogate(f, 64, W)
        object.__setattr__(coeffs, "n", 1)  # simulate degenerate degree
        with pytest.raises(ValueError):
            bbar_second_derivative(coeffs, 0.5)


class TestNormRatio:
    """The row ratio |w phi^(2 lam) Bbar''| / majorant of the theorem checks."""

    NS = (128, 256, 512)

    def test_linear_gives_zero(self):
        f = corpus_member("linear", W)
        g = GridSpec(count=513)
        # coefficient rounding leaves second differences at the eps level
        cw = check_theorem1(f, W, self.NS, g)
        assert all(row["ratio"] == pytest.approx(0.0, abs=1e-14) for row in cw["rows"])
        w2 = check_theorem2(f, W, 1.0, "w2", self.NS, g)
        assert [row["ratio"] for row in w2["rows"]] == [0.0] * len(self.NS)

    def test_finite_for_corpus(self):
        g = GridSpec(count=513)
        w2 = check_theorem2(corpus_member("cubic", W), W, 1.0, "w2", self.NS, g)
        cw = check_theorem1(corpus_member("abs_beta_0.5", W), W, self.NS, g)
        for row in w2["rows"] + cw["rows"]:
            assert math.isfinite(row["ratio"]) and row["ratio"] > 0.0

    def test_w2_branch_requires_second_derivative(self):
        f = TestFunction(name="identity", f=lambda x: np.asarray(x, dtype=float))
        with pytest.raises(ValueError):
            check_theorem2(f, W, 0.0, "w2", self.NS, GridSpec(count=65))

    def test_lambda_outside_unit_interval_rejected(self):
        f = corpus_member("square", W)
        for branch in ("cw", "w2"):
            with pytest.raises(ValueError, match="lam"):
                check_theorem2(f, W, 1.5, branch, self.NS, GridSpec(count=65))
