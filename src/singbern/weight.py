"""Singular weight, auxiliary step weights, grid norms, and test functions.

The weight |x - xi|^alpha vanishes at the singular point, so weighted
products are extended there by their limit value 0; no test function is
ever evaluated at xi through the helpers in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bridge import EvaluationError, psi, psi_derivatives

__all__ = [
    "SingularWeight",
    "GridSpec",
    "TestFunction",
    "EvaluationError",
    "phi",
    "delta_n",
    "grid_points",
    "sorted_distinct",
    "weighted_values",
    "weighted_sup_norm",
    "corpus",
    "corpus_member",
]


@dataclass(frozen=True)
class SingularWeight:
    """The weight |x - xi|^alpha with 0 < xi < 1 and alpha > 0."""

    xi: float
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.xi < 1.0):
            raise ValueError(f"xi must lie in (0, 1), got {self.xi}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.size and not ((x >= 0.0).all() and (x <= 1.0).all()):
            raise ValueError("x must lie in [0, 1]")
        return np.abs(x - self.xi) ** self.alpha


def phi(x):
    """Endpoint step weight sqrt(x (1 - x)); symmetric about 1/2."""
    x = np.asarray(x, dtype=float)
    if x.size and not ((x >= 0.0).all() and (x <= 1.0).all()):
        raise ValueError("x must lie in [0, 1]")
    return np.sqrt(x * (1.0 - x))


def delta_n(n: int, x):
    """Local resolution phi(x) + 1/sqrt(n) of degree-n approximation."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = phi(x) + 1.0 / math.sqrt(n)
    return out


@dataclass(frozen=True)
class GridSpec:
    """Deterministic evaluation grid for sup-norm discretization.

    The default is 4097 Chebyshev-distributed points (endpoints included);
    callers append bridge nodes where those are in play.  Points inside
    (xi - r, xi + r) are dropped when an exclusion radius r is set.
    """

    count: int = 4097
    exclusion_radius: float = 0.0
    placement: str = "chebyshev"

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"count must be >= 2, got {self.count}")
        if not self.exclusion_radius >= 0.0:
            raise ValueError("exclusion_radius must be >= 0")
        if self.placement not in ("uniform", "chebyshev"):
            raise ValueError(f"unknown placement {self.placement!r}")

    def key(self) -> tuple:
        return (self.count, self.exclusion_radius, self.placement)

    def kept(self, xs: np.ndarray, xi: float) -> np.ndarray:
        """Mask of the points of ``xs`` at least the exclusion radius away from xi."""
        r = self.exclusion_radius
        return (xs <= xi - r) | (xs >= xi + r) if r > 0.0 else np.full(np.shape(xs), True)


def grid_points(g: GridSpec, xi: float | None = None, extra=()) -> np.ndarray:
    """Sorted, de-duplicated grid of ``g`` plus any ``extra`` points."""
    if g.placement == "uniform":
        xs = np.linspace(0.0, 1.0, g.count)
    else:
        j = np.arange(g.count)
        xs = (1.0 - np.cos(np.pi * j / (g.count - 1))) / 2.0
        xs[0], xs[-1] = 0.0, 1.0
    if extra is not None and len(extra):
        xs = np.concatenate([xs, np.asarray(extra, dtype=float)])
    if xi is not None:
        xs = xs[g.kept(xs, xi)]
    return sorted_distinct(xs)


def sorted_distinct(xs: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D float array: sorted, each value kept once.

    The same sort and adjacent-duplicate mask as ``np.unique``, without the
    lazy import of ``numpy.ma`` that its first call costs (10-20 ms).
    """
    xs = np.sort(xs)
    keep = np.empty(xs.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=keep[1:])
    return xs[keep]


def weighted_values(f: Callable, w: SingularWeight, xs: np.ndarray) -> np.ndarray:
    """w(x) * f(x) on the grid, with the limit value 0 substituted at xi."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape)
    off = xs != w.xi
    if off.any():
        out[off] = w(xs[off]) * np.asarray(f(xs[off]), dtype=float)
    if not np.isfinite(out).all():
        bad = xs[~np.isfinite(out)]
        raise EvaluationError(f"non-finite weighted value at x={float(bad[0])!r}")
    return out


def weighted_sup_norm(f: Callable, w: SingularWeight, g: GridSpec) -> float:
    """max |w f| over the grid; deterministic for a fixed GridSpec."""
    return float(np.max(np.abs(weighted_values(f, w, grid_points(g, w.xi)))))


@dataclass(frozen=True)
class TestFunction:
    """Named function on [0,1] (minus the singular point) with rate metadata.

    ``expected_alpha0`` is the decay exponent of the weighted error in
    powers of n^(-1/2): beta + alpha for |x - xi|^beta under the weight
    |x - xi|^alpha at lambda = 0, whose error peaks at the bridge nodes
    |x - xi| ~ n^(-1/2).  None means no closed form applies (smooth
    members, lambda > 0).  ``second_derivative`` is analytic where
    provided and is required by the smooth-class checkers.
    """

    name: str
    f: Callable = field(repr=False)
    singularity_exponent: float | None = None
    expected_alpha0: float | None = None
    second_derivative: Callable | None = field(default=None, repr=False)
    description: str = ""

    __test__ = False  # keep pytest from collecting the class

    def __call__(self, x):
        return self.f(x)

    @property
    def has_second_derivative(self) -> bool:
        return self.second_derivative is not None


def _smoothed_step(xi: float):
    """psi rising across [xi - 0.2, xi + 0.2], with its second derivative."""
    lo = xi - 0.2
    inv = 1.0 / 0.4

    def f(x):
        return psi((np.asarray(x, dtype=float) - lo) * inv)

    def d2(x):
        return psi_derivatives((np.asarray(x, dtype=float) - lo) * inv)[2] * inv * inv

    return f, d2


def corpus(w: SingularWeight, lam: float = 0.0) -> list[TestFunction]:
    """Built-in test functions adapted to the weight ``w``.

    Contains exactly-reproduced linear functions, the singular family
    |x - xi|^beta for beta in {0.5, 1, 1.5}, smooth polynomials, and a
    steep smoothed step crossing the singular point.
    """
    xi = w.xi
    members: list[TestFunction] = []

    members.append(
        TestFunction(
            name="linear",
            f=lambda x: 3.0 * np.asarray(x, dtype=float) - 1.0,
            second_derivative=lambda x: np.zeros(np.shape(x)),
            description="3x - 1; reproduced exactly by the operator",
        )
    )

    for beta in (0.5, 1.0, 1.5):
        name = f"abs_beta_{beta}"

        def f(x, beta=beta):
            return np.abs(np.asarray(x, dtype=float) - xi) ** beta

        def d2(x, beta=beta):
            # defined off xi only; unbounded there for beta < 2
            return beta * (beta - 1.0) * np.abs(np.asarray(x, dtype=float) - xi) ** (beta - 2.0)

        members.append(
            TestFunction(
                name=name,
                f=f,
                singularity_exponent=beta,
                expected_alpha0=beta + w.alpha if lam == 0.0 else None,
                second_derivative=d2,
                description=f"|x - xi|^{beta}; derivative singularity at xi",
            )
        )

    members.append(
        TestFunction(
            name="square",
            f=lambda x: np.asarray(x, dtype=float) ** 2,
            second_derivative=lambda x: np.full(np.shape(x), 2.0),
            description="x^2; smooth reference with closed-form differences",
        )
    )
    members.append(
        TestFunction(
            name="cubic",
            f=lambda x: np.asarray(x, dtype=float) ** 3,
            second_derivative=lambda x: 6.0 * np.asarray(x, dtype=float),
            description="x^3; smooth-class member",
        )
    )

    step_f, step_d2 = _smoothed_step(xi)
    members.append(
        TestFunction(
            name="smoothed_step",
            f=step_f,
            second_derivative=step_d2,
            description="C^2 step across xi with large second derivative",
        )
    )
    return members


def corpus_member(name: str, w: SingularWeight, lam: float = 0.0) -> TestFunction:
    for tf in corpus(w, lam):
        if tf.name == name:
            return tf
    known = ", ".join(tf.name for tf in corpus(w, lam))
    raise KeyError(f"unknown function {name!r}; known: {known}")
