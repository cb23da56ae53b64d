"""Tests for the quintic ramp, bridge nodes, chord, and surrogate blend."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singbern.bridge import (
    EvaluationError,
    InvalidNodesError,
    chord,
    compute_nodes,
    min_valid_n,
    psi,
    psi_derivatives,
    surrogate_eval,
)


def surrogate_eval_oneline(f, nodes, x):
    """Single-expression form of the blend; requires f evaluable everywhere.

    Algebraically equal to ``surrogate_eval`` because the ramps saturate
    outside their spans.
    """
    x = np.asarray(x, dtype=float)
    s1 = psi((x - nodes.x1) / (nodes.x2 - nodes.x1))
    s2 = psi((x - nodes.x3) / (nodes.x4 - nodes.x3))
    return f(x) * (1.0 - s1 + s2) + s1 * (1.0 - s2) * chord(f, nodes, x)


class TestPsi:
    def test_anchor_values(self):
        assert psi(0.0) == 0.0
        assert psi(1.0) == 1.0
        # 10/8 - 15/16 + 6/32, also forced by psi(u) + psi(1-u) = 1
        assert psi(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_clamped_regions(self):
        assert psi(-3.0) == 0.0
        assert psi(7.0) == 1.0

    def test_derivatives_at_junctions(self):
        assert psi_derivatives(0.0) == (0.0, 0.0, 0.0)
        p, d1, d2 = psi_derivatives(1.0)
        assert (p, d1, d2) == (1.0, 0.0, 0.0)
        assert psi_derivatives(0.5)[1] == pytest.approx(1.875, abs=1e-15)

    def test_monotone_on_random_pairs(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(-1.0, 2.0, size=100_000)
        v = rng.uniform(-1.0, 2.0, size=100_000)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        assert np.all(psi(lo) <= psi(hi))

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_reflection_identity(self, u):
        assert psi(u) + psi(1.0 - u) == pytest.approx(1.0, abs=1e-14)

    def test_derivatives_match_finite_differences(self):
        # steps chosen so truncation and rounding both sit below 1e-6
        u = np.linspace(0.01, 0.99, 1000)
        _, d1, d2 = psi_derivatives(u)
        h = 1e-6
        fd1 = (psi(u + h) - psi(u - h)) / (2 * h)
        np.testing.assert_allclose(d1, fd1, atol=1e-6)
        h = 1e-4
        fd2 = (psi(u + h) - 2 * psi(u) + psi(u - h)) / (h * h)
        np.testing.assert_allclose(d2, fd2, atol=1e-6)


class TestComputeNodes:
    def test_exact_integer_cases(self):
        nd = compute_nodes(400, 0.5)
        assert (nd.x1, nd.x2, nd.x3, nd.x4) == (0.40, 0.45, 0.55, 0.60)
        assert nd.valid
        nd = compute_nodes(100, 0.5)
        assert (nd.x1, nd.x2, nd.x3, nd.x4) == (0.30, 0.40, 0.60, 0.70)
        assert nd.valid

    def test_small_n_invalid(self):
        nd = compute_nodes(4, 0.5)
        assert not nd.valid
        with pytest.raises(InvalidNodesError):
            nd.require_valid()

    def test_min_valid_n_is_boundary(self):
        for xi in (0.5, 0.3, 0.12, 0.81):
            m = min_valid_n(xi)
            assert compute_nodes(m, xi).valid
            assert not compute_nodes(m - 1, xi).valid

    def test_min_valid_n_matches_the_walk(self):
        xis = np.geomspace(1e-3, 0.5, 60)
        for xi in np.concatenate([xis, 1.0 - xis, [0.37, 0.81, 0.999]]):
            assert min_valid_n(xi) == min_valid_n_walk(xi), xi

    @pytest.mark.parametrize("xi", [1e-10, 1e-160, 1.0 - 1e-10])
    def test_min_valid_n_beyond_exact_degrees(self, xi):
        with pytest.raises(InvalidNodesError, match=r"2\*\*53"):
            min_valid_n(xi)

    def test_ordering_when_valid(self):
        for n in (64, 200, 1111):
            for xi in (0.25, 0.5, 0.66):
                nd = compute_nodes(n, xi)
                if nd.valid:
                    assert nd.x1 < nd.x2 < nd.xi < nd.x3 < nd.x4
                    assert (nd.x1, nd.x4) == (nd.k1 / n, nd.k4 / n)
                    assert nd.k1 == math.floor(n * xi - 2 * math.sqrt(n))


def min_valid_n_walk(xi):
    """Oracle: step down from a guess near 4/xi^2 while n - 1 is valid, then up."""
    side = min(xi, 1.0 - xi)
    n = max(4, int((2.0 / side + 2.0) ** 2))
    while n > 1 and compute_nodes(n - 1, xi).valid:
        n -= 1
    while not compute_nodes(n, xi).valid:
        n += 1
    return n


class TestLinearJoiner:
    """The chord, the linear joiner of f across the outer nodes x1 and x4."""

    def test_reproduces_linear(self):
        nd = compute_nodes(400, 0.5)
        f = lambda x: 3.0 * np.asarray(x) - 1.0
        xs = np.linspace(nd.x1, nd.x4, 101)
        np.testing.assert_allclose(chord(f, nd, xs), f(xs), atol=1e-13)

    def test_symmetric_absolute_value(self):
        nd = compute_nodes(400, 0.5)
        P = chord(lambda x: np.abs(np.asarray(x) - 0.5), nd, [nd.x1, nd.x4, 0.5])
        np.testing.assert_allclose(P, 0.10, rtol=0, atol=1e-14)

    def test_midpoint_mean(self):
        nd = compute_nodes(100, 0.5)
        f = lambda x: np.asarray(x) ** 2
        mid = 0.5 * (nd.x1 + nd.x4)
        assert chord(f, nd, [mid])[0] == pytest.approx(0.5 * (f(nd.x1) + f(nd.x4)), rel=1e-14)

    def test_interpolates_at_outer_nodes_exactly(self):
        nd = compute_nodes(300, 0.4)
        f = lambda x: np.abs(np.asarray(x) - 0.4) ** 0.5
        np.testing.assert_allclose(chord(f, nd, [nd.x1, nd.x4]), [f(nd.x1), f(nd.x4)], atol=0, rtol=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("node", ("x1", "x4"))
    @pytest.mark.parametrize("bad", (np.inf, np.nan))
    def test_non_finite_end_value_raises_naming_the_node(self, node, bad):
        nd = compute_nodes(400, 0.5)
        at = getattr(nd, node)
        f = lambda x: np.where(np.asarray(x) == at, bad, 1.0)
        with pytest.raises(EvaluationError, match=rf"^non-finite f\({node}\) = {bad!r} at bridge node k/n={at}$"):
            chord(f, nd, np.linspace(0.0, 1.0, 5))


class TestSurrogate:
    def test_linear_reproduced_everywhere(self):
        nd = compute_nodes(256, 0.5)
        f = lambda x: 3.0 * np.asarray(x) - 1.0
        xs = np.linspace(0.0, 1.0, 513)
        np.testing.assert_allclose(surrogate_eval(f, nd, xs), f(xs), atol=1e-13)

    def test_chord_zone_ignores_f(self):
        nd = compute_nodes(400, 0.5)
        f = lambda x: np.abs(np.asarray(x) - 0.5)
        assert surrogate_eval(f, nd, [0.5])[0] == pytest.approx(0.10, abs=1e-14)
        xs = np.linspace(nd.x2, nd.x3, 57)
        np.testing.assert_allclose(surrogate_eval(f, nd, xs), chord(f, nd, xs), atol=0)

    def test_bridge_nodes_take_f_outside_and_the_chord_inside(self):
        # the ramps saturate at the nodes: 0 at x1 and x3, 1 at x2 and x4
        nd = compute_nodes(400, 0.5)
        f = lambda x: np.abs(np.asarray(x) - 0.5) ** 0.5
        x1, x2, x3, x4 = nd.x1, nd.x2, nd.x3, nd.x4
        expected = [f(x1), *chord(f, nd, [x2, x3]), f(x4)]
        np.testing.assert_allclose(surrogate_eval(f, nd, [x1, x2, x3, x4]), expected, atol=0, rtol=0)

    def test_ramp_midpoint_is_the_mean(self):
        # psi(1/2) = 1/2 halfway across [x1, x2] = [0.40, 0.45]
        nd = compute_nodes(400, 0.5)
        f = lambda x: np.asarray(x) ** 2
        mean = 0.5 * (f(0.425) + chord(f, nd, [0.425])[0])
        assert surrogate_eval(f, nd, [0.425])[0] == pytest.approx(mean, abs=1e-14)

    def test_invalid_nodes_raise(self):
        with pytest.raises(InvalidNodesError):
            surrogate_eval(lambda x: np.asarray(x), compute_nodes(4, 0.5), [0.5])

    @pytest.mark.parametrize("grid", [np.full((2, 2), 0.1), 0.1, 0.5], ids=["2-d", "0-d-outer", "0-d-chord"])
    def test_grid_must_be_one_dimensional(self, grid):
        with pytest.raises(ValueError, match="one-dimensional"):
            surrogate_eval(lambda x: np.abs(np.asarray(x) - 0.5), compute_nodes(400, 0.5), grid)

    def test_forms_agree_for_polynomials(self):
        nd = compute_nodes(300, 0.4)
        xs = np.linspace(0.0, 1.0, 1001)
        for f in (
            lambda x: np.asarray(x) ** 2,
            lambda x: np.asarray(x) ** 3 - np.asarray(x) + 0.25,
        ):
            a = surrogate_eval(f, nd, xs)
            b = surrogate_eval_oneline(f, nd, xs)
            np.testing.assert_allclose(a, b, atol=1e-13)

    def test_does_not_evaluate_f_in_chord_zone(self):
        nd = compute_nodes(400, 0.5)

        def f(x):
            x = np.asarray(x, dtype=float)
            if np.any((x > nd.x2) & (x < nd.x3)):
                raise AssertionError("f evaluated inside the chord zone")
            return np.abs(x - 0.5) ** 0.5

        xs = np.linspace(0.0, 1.0, 2049)
        surrogate_eval(f, nd, xs)

    def test_perturbation_inside_chord_zone_invisible(self):
        nd = compute_nodes(512, 0.5)
        base = lambda x: np.abs(np.asarray(x) - 0.5)

        def bumped(x):
            x = np.asarray(x, dtype=float)
            inside = (x > nd.x2) & (x < nd.x3)
            return base(x) + np.where(inside, 123.0, 0.0)

        xs = np.linspace(0.0, 1.0, 769)
        np.testing.assert_array_equal(
            surrogate_eval(base, nd, xs), surrogate_eval(bumped, nd, xs)
        )

    @staticmethod
    def second_derivative_jump(f, nd, xj, h=5e-6):
        """One-sided limits of the blend's second derivative at a junction.

        Central second-difference quotients at xj +- h and xj +- 2h are
        Richardson-extrapolated toward xj from each side, which cancels
        the smooth drift of the second derivative and leaves the jump.
        """

        def quotient(x0):
            vals = surrogate_eval(f, nd, np.array([x0 - h, x0, x0 + h]))
            return (vals[0] - 2 * vals[1] + vals[2]) / (h * h)

        left = 2 * quotient(xj - h) - quotient(xj - 2 * h)
        right = 2 * quotient(xj + h) - quotient(xj + 2 * h)
        return abs(left - right)

    def test_c2_junctions_for_polynomials(self):
        nd = compute_nodes(256, 0.5)
        for f in (lambda x: np.asarray(x) ** 2, lambda x: np.asarray(x) ** 3):
            for xj in (nd.x1, nd.x2, nd.x3, nd.x4):
                assert self.second_derivative_jump(f, nd, xj) <= 1e-4
