"""Tests for the classical and singularity-modified operators."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from singbern.basis import _PASS_ENTRIES, _pass_rows, ksum
from singbern.bridge import InvalidNodesError, chord, compute_nodes, surrogate_eval
from singbern.operators import (
    _join_rows,
    bbar_apply,
    bbar_second_derivative,
    bernstein_apply,
    build_surrogate,
    collocation_matrix,
)
from singbern.experiments import ROUNDING
from test_basis import calls_of
from test_experiments import band_report
from singbern.weight import (
    EvaluationError, GridSpec, SingularWeight, TestFunction, corpus_member, grid_points, weighted_sup_norm,
)

W = SingularWeight(xi=0.5, alpha=1.0)
W37 = SingularWeight(xi=0.37, alpha=0.5)
EPS = np.finfo(float).eps


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
        assert bernstein_apply(np.array([0.0, 1.0, 0.0]), np.array([0.5]))[0] == pytest.approx(0.5)

    def test_one_point_grid_agrees_with_full_grid(self):
        values = np.sin(np.arange(21))
        xs = np.array([0.0, 0.2, 0.9, 1.0])
        grid = bernstein_apply(values, xs)
        for i in range(xs.size):
            assert grid[i] == pytest.approx(bernstein_apply(values, xs[i:i + 1])[0], rel=1e-14)

    @pytest.mark.parametrize("grid", [np.full((2, 3), 0.5), np.float64(0.5)], ids=["2-d", "0-d"])
    def test_grid_must_be_one_dimensional(self, grid):
        with pytest.raises(ValueError, match="one-dimensional"):
            bernstein_apply(np.sin(np.arange(9)), grid)


def bernstein_apply_one_shot(values, xs):
    """The whole band block gathered, multiplied and summed in one step."""
    start, B = collocation_matrix(values.size - 1, xs)
    return ksum(sliding_window_view(values, B.shape[1])[start] * B, axis=1)


class TestChunkedApply:
    """The band is summed in chunks of 64 columns; every row equals the one-shot sum bit for bit."""

    @pytest.mark.parametrize("n, width", [(62, 63), (63, 64), (64, 65), (170, 129)])
    def test_band_widths_around_one_chunk(self, n, width):
        xs = grid_points(GridSpec(count=257))
        assert collocation_matrix(n, xs)[1].shape[1] == width
        values = np.random.default_rng(n).standard_normal(n + 1)
        np.testing.assert_array_equal(bernstein_apply(values, xs), bernstein_apply_one_shot(values, xs))

    # the block sums of _join_rows rows are joined at a time: grids one row
    # short of and one row past a join, for one vector and a stack of four
    @pytest.mark.parametrize("size, m", [
        pytest.param(1, 1, id="1"),
        pytest.param(4101, 1, id="4101"),
        *(pytest.param(f"join{d:+d}", m, id=f"join{d:+d}-m{m}") for m in (1, 4) for d in (-1, 1)),
    ])
    def test_grid_sizes(self, size, m):
        n = 1024
        if isinstance(size, str):
            size = _join_rows(m, collocation_matrix(n, np.array([0.5]))[1].shape[1]) + int(size[4:])
        xs = np.linspace(0.0, 1.0, size) if size > 1 else np.array([0.37])
        values = np.random.default_rng(size).standard_normal((m, n + 1))
        got = bernstein_apply(values[0] if m == 1 else values, xs)
        np.testing.assert_array_equal(got.reshape(m, size), [bernstein_apply_one_shot(v, xs) for v in values])

    @pytest.mark.parametrize("n", [64, 16384], ids=["band-is-the-row", "16384"])
    def test_default_grid(self, n):
        xs = grid_points(GridSpec())
        B = collocation_matrix(n, xs)[1]
        assert B.shape[1] == (n + 1 if n == 64 else 1239)
        values = np.random.default_rng(n).standard_normal(n + 1)
        np.testing.assert_array_equal(bernstein_apply(values, xs), bernstein_apply_one_shot(values, xs))


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestStreamedApply:
    """The apply builds the band pass by pass; every row equals the one-shot sum bit for bit."""

    @pytest.mark.parametrize("n, width", [(62, 63), (63, 64), (64, 65), (170, 129)])
    def test_band_widths_around_one_block(self, n, width):
        xs = grid_points(GridSpec(count=257))
        assert collocation_matrix(n, xs)[1].shape[1] == width
        values = np.random.default_rng(n).standard_normal(n + 1)
        assert_same_bits(bernstein_apply(values, xs), bernstein_apply_one_shot(values, xs))

    @pytest.mark.parametrize("n", [1, 2])
    def test_band_is_the_whole_row(self, n):
        xs = np.concatenate([grid_points(GridSpec()), [1e-9, 0.5]])
        values = np.random.default_rng(n).standard_normal(n + 1)
        assert_same_bits(bernstein_apply(values, xs), bernstein_apply_one_shot(values, xs))

    @pytest.mark.parametrize("x", [0.0, 0.37, 1.0])
    def test_one_point_grid(self, x):
        values = np.random.default_rng(5).standard_normal(1025)
        xs = np.array([x])
        assert_same_bits(bernstein_apply(values, xs), bernstein_apply_one_shot(values, xs))

    def test_unsorted_grid_with_endpoints_mid_pass(self):
        n = 16384
        rows = _PASS_ENTRIES // collocation_matrix(n, np.array([0.5]))[1].shape[1]
        xs = np.random.default_rng(3).permutation(np.linspace(0.2, 0.8, 4 * rows + 3))
        # x = 0 and x = 1 inside passes whose other rows are all interior
        xs[rows // 2] = 0.0
        xs[rows + rows // 2] = 1.0
        values = np.random.default_rng(4).standard_normal(n + 1)
        assert_same_bits(bernstein_apply(values, xs), bernstein_apply_one_shot(values, xs))

    def test_default_grid_at_degree_16384(self):
        n = 16384
        xs = grid_points(GridSpec())
        values = np.random.default_rng(n).standard_normal(n + 1)
        assert_same_bits(bernstein_apply(values, xs), bernstein_apply_one_shot(values, xs))

    def test_holds_one_pass_not_the_band(self):
        # the (4097 x 1239) band block at n = 16384 takes 39 MiB; the streamed
        # apply holds one pass of it and one block sum per 64 columns
        import tracemalloc

        n = 16384
        xs = grid_points(GridSpec())
        values = np.random.default_rng(1).standard_normal(n + 1)
        tracemalloc.start()
        try:
            bernstein_apply(values, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, peak / 2**20

    def test_pass_memory_at_degree_16384(self):
        # one apply holds a pass of lanes, one anchor batch's arena (its anchor
        # workspace over its walk and the pass buffer) and its anchors: 1953 KiB
        # traced (xi = 0.37) with batches of 5 passes, 2141 KiB with 6; lanes for
        # a whole anchor batch instead of a pass took 2529 KiB with 3
        import tracemalloc

        n, w = 16384, SingularWeight(0.37, 1.0)
        values = build_surrogate(corpus_member("abs_beta_1.0", w), n, w)
        xs = grid_points(GridSpec(), w.xi)
        tracemalloc.start()
        try:
            bernstein_apply(values, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2250 * 2**10, peak / 2**10

    def test_stacked_apply_memory_at_the_default_sweep_degrees(self):
        # a sweep's 4-member apply on its 4101-point node grid: 2071-2618 KiB
        # traced over n = 64..4096 (2563-2749 KiB before the batches shared one
        # arena), bound at 2880 KiB, about 5% over the latter; twice the anchors
        # per batch read up to 3201 KiB
        import tracemalloc

        from singbern.experiments import DEFAULT_N_VALUES

        members = [corpus_member(name, W) for name in ("linear", "abs_beta_1.0", "abs_beta_1.5", "square")]
        peaks = {}
        for n in DEFAULT_N_VALUES:
            nd = compute_nodes(n, W.xi)
            xs = grid_points(GridSpec(), W.xi, extra=(nd.x1, nd.x2, nd.x3, nd.x4))
            xs = xs[xs != W.xi]
            assert xs.size == 4101
            values = np.stack([build_surrogate(f, n, W) for f in members])
            tracemalloc.start()
            try:
                bernstein_apply(values, xs)
                peaks[n] = tracemalloc.get_traced_memory()[1] / 2**10
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) < 2880, peaks

    @pytest.mark.parametrize("edge, extra", [("pass", -1), ("pass", 1), ("batch", -1), ("batch", 1)])
    def test_one_walk_per_anchor_batch(self, monkeypatch, edge, extra):
        # the row at 1/2 walks the whole band, so every grid here has the same
        # batch; each batch is walked in one call and laid a pass at a time
        n = 16384
        rows = _pass_rows(collocation_matrix(n, np.array([0.5]))[1].shape[1])

        def grid(size):
            return np.concatenate([[0.5], np.linspace(0.3, 0.7, size - 1)])

        batch = calls_of(monkeypatch, "_anchors", n, grid(1000))[0][1].size
        assert batch % rows == 0 and batch > rows
        size = (rows if edge == "pass" else batch) + extra
        xs = grid(size)
        walks = [args[2].size for args in calls_of(monkeypatch, "_walk", n, xs)]
        assert walks == [min(batch, size - first) for first in range(0, size, batch)]
        passes = [args[3].size for args in calls_of(monkeypatch, "_lay", n, xs)]
        assert passes == [min(rows, size - first) for first in range(0, size, rows)]

    @pytest.mark.parametrize("grid", [np.full((2, 3), 0.5), np.float64(0.5)], ids=["2-d", "0-d"])
    def test_grid_must_be_one_dimensional(self, grid):
        with pytest.raises(ValueError, match="one-dimensional"):
            bernstein_apply(np.sin(np.arange(9)), grid)

    def test_grid_must_lie_in_the_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bernstein_apply(np.sin(np.arange(9)), np.array([0.5, 1.5]))


class TestStackedApply:
    """An (m x (n+1)) stack is applied in one pass over the band; each row equals its own apply bit for bit."""

    @staticmethod
    def assert_rows_match(n, xs, m):
        stack = np.random.default_rng(n + m).standard_normal((m, n + 1))
        got = bernstein_apply(stack, xs)
        assert_same_bits(got, np.array([bernstein_apply(v, xs) for v in stack]))

    # every apply streams its band
    @pytest.mark.parametrize("band", ["streamed"])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("n, width", [(62, 63), (63, 64), (64, 65), (170, 129)])
    def test_band_widths_around_one_block(self, n, width, m, band):
        xs = grid_points(GridSpec(count=257))
        assert collocation_matrix(n, xs)[1].shape[1] == width
        self.assert_rows_match(n, xs, m)

    @pytest.mark.parametrize("band", ["streamed"])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("n", [1, 2])
    def test_band_is_the_whole_row(self, n, m, band):
        xs = np.concatenate([grid_points(GridSpec()), [1e-9, 0.5]])
        self.assert_rows_match(n, xs, m)

    @pytest.mark.parametrize("band", ["streamed"])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_one_point_grid(self, x, m, band):
        self.assert_rows_match(1024, np.array([x]), m)

    def test_default_grid_at_degree_16384(self):
        self.assert_rows_match(16384, grid_points(GridSpec()), 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 170, 4096])
    def test_second_derivative_of_a_stack(self, n):
        # each vector of the stack gets the bits of its own second derivative
        xs = np.concatenate([grid_points(GridSpec(count=257)), [0.5]])
        stack = np.random.default_rng(n).standard_normal((3, n + 1))
        assert_same_bits(bbar_second_derivative(stack, xs), np.array([bbar_second_derivative(v, xs) for v in stack]))

    @pytest.mark.parametrize("values", [np.zeros((2, 2, 9)), np.zeros((3, 1)), np.float64(1.0)],
                             ids=["3-d", "degree-0", "0-d"])
    def test_values_must_be_a_vector_or_a_stack(self, values):
        with pytest.raises(ValueError, match="vector of n\\+1"):
            bernstein_apply(values, np.array([0.5]))


class TestBuildSurrogate:
    def test_linear_is_sampled_unchanged(self):
        f = corpus_member("linear", W)
        values = build_surrogate(f, 128, W)
        t = np.arange(129) / 128.0
        np.testing.assert_allclose(values, f(t), atol=1e-13)

    def test_chord_zone_entries(self):
        f = lambda x: np.abs(np.asarray(x) - 0.5)
        values = build_surrogate(f, 400, W)
        nd = compute_nodes(400, W.xi)
        assert values[200] == pytest.approx(0.10, abs=1e-14)
        assert values[0] == pytest.approx(0.5, abs=1e-15)
        k = np.arange(nd.k2, nd.k3 + 1)
        np.testing.assert_allclose(values[k], chord(f, nd, k / 400.0), rtol=0, atol=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no warning ahead of the error
    def test_non_finite_outer_node_value_is_an_evaluation_error(self):
        x1 = compute_nodes(400, W.xi).x1
        f = lambda x: np.where(np.asarray(x) == x1, np.inf, 1.0)
        with pytest.raises(EvaluationError, match=rf"k/n={x1}$"):
            build_surrogate(f, 400, W)

    def test_invalid_nodes_raise(self):
        with pytest.raises(InvalidNodesError):
            build_surrogate(corpus_member("square", W), 4, W)

    @pytest.mark.parametrize("size", [_PASS_ENTRIES - 1, _PASS_ENTRIES + 1, 2 * _PASS_ENTRIES - 1,
                                      2 * _PASS_ENTRIES + 1])
    def test_passes_match_one_shot_values(self, size):
        # the values are filled _PASS_ENTRIES at a time; n + 1 = size straddles a pass or ends short of one
        n = size - 1
        f = corpus_member("abs_beta_1.0", W37)
        want = surrogate_eval(f, compute_nodes(n, W37.xi), np.arange(n + 1) / float(n))
        assert_same_bits(build_surrogate(f, n, W37), want)

    def test_first_non_finite_value_in_a_later_pass_is_named(self):
        # inf at k = 20000 (second pass) and k = 32770 (third); the error names the first
        n = 2 * _PASS_ENTRIES + 10
        bad = (20000 / n, 32770 / n)
        f = lambda x: np.where(np.isin(np.asarray(x), bad), np.inf, 1.0)
        with pytest.raises(EvaluationError, match=rf"k/n={bad[0]!r}$"):
            build_surrogate(f, n, W)

    def test_perturbation_in_chord_zone_is_invisible(self):
        nd = compute_nodes(512, 0.5)
        base = corpus_member("abs_beta_1.0", W)

        def bumped(x):
            x = np.asarray(x, dtype=float)
            inside = (x > nd.x2) & (x < nd.x3)
            return base(x) + np.where(inside, 57.0, 0.0)

        a = build_surrogate(base, 512, W)
        b = build_surrogate(bumped, 512, W)
        np.testing.assert_array_equal(a, b)

    def test_coefficients_are_immutable(self):
        values = build_surrogate(corpus_member("square", W), 64, W)
        with pytest.raises(ValueError):
            values[0] = 1.0


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
            got = bbar_apply(f, 400, W, np.array([x]))[0]
            assert got == pytest.approx(bbar_oracle(fs, 400, 0.5, x), rel=1e-12)

    def test_endpoint_interpolation_exact(self):
        f = corpus_member("abs_beta_0.5", W)
        ends = np.array([0.0, 1.0])
        np.testing.assert_array_equal(bbar_apply(f, 256, W, ends), f(ends))

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
            values = build_surrogate(f, n, W)
            xs = np.linspace(0.05, 0.95, 17)
            assert np.max(np.abs(bbar_second_derivative(values, xs))) <= 1e-9 * n * n

    def test_square_closed_form(self):
        # node values (k/n)^2 have second differences exactly 2/n^2,
        # so the identity gives 2 (1 - 1/n) at every x
        f = corpus_member("square", W)
        n = 256
        values = build_surrogate(f, n, W)
        xs = np.linspace(0.02, 0.2, 9)  # far enough that bridge basis mass is nil
        expected = np.full_like(xs, 2.0 * (1.0 - 1.0 / n))
        got = bbar_second_derivative(values, xs)
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_matches_finite_difference_oracle(self):
        f = corpus_member("abs_beta_1.0", W)
        n = 100
        values = build_surrogate(f, n, W)
        h = 1e-4
        for x in (0.2, 0.45, 0.8):
            x = np.array([x])
            fd = (
                bbar_apply(f, n, W, x + h)
                - 2 * bbar_apply(f, n, W, x)
                + bbar_apply(f, n, W, x - h)
            ) / (h * h)
            assert bbar_second_derivative(values, x)[0] == pytest.approx(fd[0], rel=1e-5)

    def test_degree_two_is_the_constant_second_difference(self):
        # (B_2 F)'' = 2 (F[2] - 2 F[1] + F[0]) at every x, for one vector and a stack
        stack = np.array([[0.0, 1.0, 0.0], [0.3, -1.25, 4.0]])
        xs = np.array([0.0, 0.2, 0.5, 1.0])
        for values in (stack[0], stack):
            want = 2.0 * (values[..., 2:] - 2.0 * values[..., 1:2] + values[..., :1])
            assert_same_bits(bbar_second_derivative(values, xs), np.broadcast_to(want, (*values.shape[:-1], 4)))
        h = 1e-4
        for x in (0.2, 0.45, 0.8):
            x = np.array([x])
            fd = (bernstein_apply(stack[1], x + h) - 2 * bernstein_apply(stack[1], x)
                  + bernstein_apply(stack[1], x - h)) / (h * h)
            assert bbar_second_derivative(stack[1], x)[0] == pytest.approx(fd[0], rel=1e-5)
        with pytest.raises(ValueError, match="one-dimensional"):
            bbar_second_derivative(stack[0], np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bbar_second_derivative(stack[0], np.array([0.5, 1.5]))

    def test_requires_degree_two(self):
        with pytest.raises(ValueError):
            bbar_second_derivative(np.array([0.0, 1.0]), np.array([0.5]))  # degree 1


def band_sum_mp(coef, x):
    """sum_k coef[k] b(m, k, x) over the band of degree m = len(coef) - 1, at 40 digits.

    x is taken exactly as the double it is.  The weights run through the
    band by the ratio b(k+1) / b(k) = (m - k) x / ((k + 1) (1 - x)) from one
    exact binomial at its first index, so the oracle shares no code with
    the log-space basis.
    """
    mpmath = pytest.importorskip("mpmath")
    m = len(coef) - 1
    start, B = collocation_matrix(m, np.array([x]))
    lo = int(start[0])
    with mpmath.workdps(40):
        X = mpmath.mpf(x)
        b = mpmath.binomial(m, lo) * X**lo * (1 - X) ** (m - lo)
        total = mpmath.mpf(0)
        for k in range(lo, lo + B.shape[1]):
            total += coef[k] * b
            b = b * (m - k) / (k + 1) * X / (1 - X)
        return total


class TestRoundingBounds:
    """The rounding bounds stated by bernstein_apply and bbar_second_derivative.

    The oracle sums the same doubles exactly over the band, so only the
    operators' own rounding is measured.  The apply's bound is 8 eps max |F|
    for n up to 65535: its basis weights carry a relative error of a few
    eps that grows with log n (5.7 eps max |F| was the largest seen, for
    constant values near n = 2^15).  The second derivative's bound is
    n(n-1) (3.5 + 8 * 4 + 4) eps max |F| < 40 n(n-1) eps max |F|: the
    differences round by 3.5 eps max |F| and are at most 4 max |F|, on
    which the apply errs by 8 eps, and the scaling by n(n-1) rounds by at
    most 4 n(n-1) eps max |F|.  The alternating vector makes every
    difference 4 max |F|.
    """

    # the oracle's cost per point grows like sqrt(n), so fewer members at
    # the larger degrees
    CASES = [
        (301, ("linear", "abs_beta_0.5", "abs_beta_1.0", "square", "smoothed_step", "alternating")),
        (3001, ("abs_beta_1.0", "smoothed_step", "alternating")),
        (30001, ("abs_beta_1.0", "alternating")),
        (65535, ("abs_beta_0.5", "alternating")),
    ]

    @pytest.mark.parametrize("n, names", CASES, ids=[str(n) for n, _ in CASES])
    def test_apply_and_second_derivative_against_mpmath(self, n, names):
        mpmath = pytest.importorskip("mpmath")
        # next to the bridge, where the surrogate bends most, and off it
        xs = np.array([0.2, W37.xi + 0.5 / math.sqrt(n), 0.8])
        for name in names:
            if name == "alternating":
                values = 0.7 * (-1.0) ** np.arange(n + 1)
            else:
                values = build_surrogate(corpus_member(name, W37), n, W37)
            vmax = float(np.max(np.abs(values)))
            with mpmath.workdps(40):
                exact = [mpmath.mpf(v) for v in values]
                d2 = [exact[k + 2] - 2 * exact[k + 1] + exact[k] for k in range(n - 1)]
            apply, second = bernstein_apply(values, xs), bbar_second_derivative(values, xs)
            for i, x in enumerate(xs):
                assert abs(apply[i] - band_sum_mp(exact, x)) <= 8 * EPS * vmax, (name, x)
                err = abs(second[i] - n * (n - 1) * band_sum_mp(d2, x))
                assert err <= 40 * n * (n - 1) * EPS * vmax, (name, x)

    @pytest.mark.parametrize("n", (50, 300, 3001, 60000))
    def test_linear_noise_stays_three_times_below_the_floor(self, n):
        # (Bbar f)'' of the linear member is 0 but for rounding, which the
        # theorem checks zero at ROUNDING n(n-1) max |F|
        values = build_surrogate(corpus_member("linear", W37), n, W37)
        noise = np.max(np.abs(bbar_second_derivative(values, grid_points(GridSpec(count=1025), W37.xi))))
        assert 3.0 * noise <= ROUNDING * n * (n - 1) * np.max(np.abs(values))


class TestNormRatio:
    """The row ratio |w phi^(2 lam) Bbar''| / majorant of the theorem checks."""

    NS = (128, 256, 512)

    def test_linear_gives_zero(self):
        f = corpus_member("linear", W)
        g = GridSpec(count=513)
        # coefficient rounding leaves second differences at the eps level,
        # which the checks zero where they compute them
        cw = band_report("theorem1", f, W, self.NS, g)
        assert [row["ratio"] for row in cw["rows"]] == [0.0] * len(self.NS)
        w2 = band_report("theorem2 w2", f, W, self.NS, g, lam=1.0)
        assert [row["ratio"] for row in w2["rows"]] == [0.0] * len(self.NS)

    def test_finite_for_corpus(self):
        g = GridSpec(count=513)
        w2 = band_report("theorem2 w2", corpus_member("cubic", W), W, self.NS, g, lam=1.0)
        cw = band_report("theorem1", corpus_member("abs_beta_0.5", W), W, self.NS, g)
        for row in w2["rows"] + cw["rows"]:
            assert math.isfinite(row["ratio"]) and row["ratio"] > 0.0

    def test_w2_branch_requires_second_derivative(self):
        f = TestFunction(name="identity", f=lambda x: np.asarray(x, dtype=float))
        with pytest.raises(ValueError):
            band_report("theorem2 w2", f, W, self.NS, GridSpec(count=65))
