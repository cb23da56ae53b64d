"""Tests for the singular weight, grids, norms, and the test-function corpus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singbern.weight import (
    EvaluationError,
    GridSpec,
    SingularWeight,
    corpus,
    corpus_member,
    delta_n,
    grid_points,
    phi,
    sorted_distinct,
    weighted_sup_norm,
    weighted_values,
)


class TestSingularWeight:
    def test_point_values(self):
        w = SingularWeight(xi=0.5, alpha=1.0)
        assert w(0.75) == pytest.approx(0.25, abs=1e-15)
        assert SingularWeight(0.5, 2.0)(0.5) == 0.0
        assert SingularWeight(0.3, 0.5)(0.7) == pytest.approx(
            math.sqrt(0.4), rel=1e-14
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SingularWeight(xi=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            SingularWeight(xi=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            SingularWeight(xi=0.5, alpha=0.0)

    def test_domain_error(self):
        w = SingularWeight(0.5, 1.0)
        with pytest.raises(ValueError):
            w(1.5)
        with pytest.raises(ValueError):
            w(np.array([0.2, -0.1]))


class TestStepWeights:
    def test_phi_values(self):
        assert phi(0.5) == 0.5
        assert phi(0.0) == 0.0
        assert phi(0.25) == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-15)

    def test_delta_n_values(self):
        assert delta_n(4, 0.0) == 0.5
        assert delta_n(100, 0.5) == pytest.approx(0.6, abs=1e-15)
        assert delta_n(16, 0.25) == pytest.approx(math.sqrt(3.0) / 4.0 + 0.25, rel=1e-15)

    def test_symmetry_exact_on_dyadic_grid(self):
        # j/1024 has an exactly representable complement, so x(1-x) and
        # (1-x)x are the same product and the symmetry is bitwise
        x = np.arange(1025) / 1024.0
        np.testing.assert_array_equal(phi(x), phi(1.0 - x))
        np.testing.assert_array_equal(delta_n(37, x), delta_n(37, 1.0 - x))

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_phi_bounds(self, x):
        assert 0.0 <= phi(x) <= 0.5


class TestGrids:
    def test_endpoints_present(self):
        for placement in ("uniform", "chebyshev"):
            xs = grid_points(GridSpec(count=33, placement=placement))
            assert xs[0] == 0.0 and xs[-1] == 1.0
            assert np.all(np.diff(xs) > 0)

    def test_exclusion_radius(self):
        g = GridSpec(count=101, exclusion_radius=0.05, placement="uniform")
        xs = grid_points(g, xi=0.5)
        assert not np.any((xs > 0.45) & (xs < 0.55))

    def test_extra_points_merged(self):
        xs = grid_points(GridSpec(count=11, placement="uniform"), extra=[0.123, 0.5])
        assert 0.123 in xs
        assert np.unique(xs).size == xs.size

    @pytest.mark.parametrize("g, xi, extra", [
        (GridSpec(count=4097, placement="uniform"), None, ()),
        (GridSpec(), None, ()),
        (GridSpec(count=1025, exclusion_radius=0.01), 0.37, ()),
        (GridSpec(count=513, placement="uniform"), 0.5, (0.5 - 1 / 64, 0.5, 0.5, 0.5 + 1 / 64, 0.25)),
        (GridSpec(count=4097), 0.37, (0.3, 0.35, 0.39, 0.44, 0.0, 1.0)),
    ], ids=["uniform", "chebyshev", "exclusion-radius", "extra-on-grid", "extra-nodes"])
    def test_distinct_points_match_numpy_unique(self, g, xi, extra):
        # grid_points drops duplicates without np.unique, to the same doubles
        xs = grid_points(g, xi, extra)
        np.testing.assert_array_equal(xs, np.unique(xs))
        raw = np.random.default_rng(0).permutation(np.concatenate([xs, xs[::7], np.asarray(extra, dtype=float)]))
        np.testing.assert_array_equal(sorted_distinct(raw), np.unique(raw))

    def test_distinct_of_empty_and_signed_zero(self):
        assert sorted_distinct(np.array([])).size == 0
        for raw in (np.array([0.0, -0.0, 0.5, 0.0]), np.array([-0.0, 0.0, 1.0, 1.0])):
            want = np.unique(raw)
            np.testing.assert_array_equal(sorted_distinct(raw).view(np.int64), want.view(np.int64))

    def test_refinement_is_nested(self):
        for placement in ("uniform", "chebyshev"):
            coarse = grid_points(GridSpec(count=65, placement=placement))
            fine = grid_points(GridSpec(count=129, placement=placement))
            assert np.isin(coarse, fine).all()


class TestWeightedNorm:
    def test_constant_function(self):
        w = SingularWeight(0.5, 1.0)
        g = GridSpec(count=101, placement="uniform")
        assert weighted_sup_norm(lambda x: np.ones(np.shape(x)), w, g) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_zero_function(self):
        w = SingularWeight(0.5, 1.0)
        assert weighted_sup_norm(lambda x: np.zeros(np.shape(x)), w, GridSpec(33)) == 0.0

    def test_reciprocal_of_weight(self):
        w = SingularWeight(0.4, 0.7)
        f = lambda x: np.abs(np.asarray(x) - 0.4) ** -0.7
        assert weighted_sup_norm(f, w, GridSpec(257)) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_under_refinement(self):
        w = SingularWeight(0.37, 1.3)
        f = corpus_member("abs_beta_0.5", w)
        for placement in ("uniform", "chebyshev"):
            a = weighted_sup_norm(f, w, GridSpec(count=513, placement=placement))
            b = weighted_sup_norm(f, w, GridSpec(count=1025, placement=placement))
            assert b >= a - 1e-12

    def test_limit_value_at_xi(self):
        w = SingularWeight(0.5, 1.0)
        xs = np.array([0.25, 0.5, 0.75])
        vals = weighted_values(lambda x: 1.0 / np.abs(np.asarray(x) - 0.5), w, xs)
        assert vals[1] == 0.0
        np.testing.assert_allclose(vals[[0, 2]], 1.0, rtol=1e-13)

    def test_failure_reported_with_location(self):
        w = SingularWeight(0.5, 1.0)

        def f(x):
            return np.where(np.asarray(x) > 0.9, np.inf, 1.0)

        # the first grid point past 0.9 is 29/32, printed as a plain float
        with pytest.raises(EvaluationError, match=r"at x=0\.90625$"):
            weighted_sup_norm(f, w, GridSpec(count=33, placement="uniform"))

    def test_defect_in_f_keeps_its_type(self):
        def f(x):
            raise TypeError("a defect in f")

        with pytest.raises(TypeError, match="a defect in f"):
            weighted_values(f, SingularWeight(0.5, 1.0), np.array([0.25, 0.75]))


class TestCorpus:
    def test_required_members_present(self):
        w = SingularWeight(0.5, 1.0)
        names = {tf.name for tf in corpus(w)}
        assert {"linear", "abs_beta_0.5", "abs_beta_1.0", "abs_beta_1.5",
                "square", "cubic", "smoothed_step"} <= names

    def test_metadata(self):
        w = SingularWeight(0.5, 1.0)
        tf = corpus_member("abs_beta_1.0", w)
        assert tf.singularity_exponent == 1.0
        assert corpus_member("linear", w).singularity_exponent is None
        with pytest.raises(KeyError):
            corpus_member("no_such_function", w)

    def test_weighted_product_decays_to_zero_at_xi(self):
        # membership condition: w(x) f(x) -> 0 along xi +- 10^-j
        for w in (SingularWeight(0.5, 1.0), SingularWeight(0.3, 0.5)):
            for tf in corpus(w):
                for side in (+1.0, -1.0):
                    xs = w.xi + side * 10.0 ** -np.arange(2, 9)
                    vals = np.abs(weighted_values(tf, w, xs))
                    tail = vals[2:]
                    assert np.all(np.diff(tail) <= 1e-15 + tail[:-1] * 1e-9)
                    assert vals[-1] <= 1e-3

    def test_second_derivatives_where_declared(self):
        w = SingularWeight(0.5, 1.0)
        h = 1e-5
        xs = np.linspace(0.11, 0.89, 23)
        xs = xs[np.abs(xs - w.xi) > 0.02]
        for tf in corpus(w):
            if not tf.has_second_derivative:
                continue
            fd = (tf(xs + h) - 2 * tf(xs) + tf(xs - h)) / (h * h)
            np.testing.assert_allclose(
                tf.second_derivative(xs), fd, rtol=1e-3, atol=1e-4
            )

    def test_scaling_of_weighted_norm(self):
        w = SingularWeight(0.5, 1.0)
        tf = corpus_member("abs_beta_0.5", w)
        g = GridSpec(count=257)
        base = weighted_sup_norm(tf, w, g)
        scaled = weighted_sup_norm(lambda x: 4.0 * tf(x), w, g)
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)
