"""Quintic blending, bridge nodes around the singularity, and the surrogate.

The surrogate replaces a function across a shrinking zone around the
singular point by the chord through the zone's outer nodes, switched on
and off by a C^2 quintic ramp.  Everything here is exact integer/float
arithmetic on the node grid k/n, so the zone boundaries are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "EvaluationError",
    "InvalidNodesError",
    "BridgeNodes",
    "psi",
    "psi_derivatives",
    "compute_nodes",
    "min_valid_n",
    "chord",
    "surrogate_eval",
]


class EvaluationError(RuntimeError):
    """A test function failed to produce a finite value on the grid."""


class InvalidNodesError(ValueError):
    """Raised when an operation requires valid bridge nodes but got none."""


def psi(u):
    """C^2 ramp: 0 for u <= 0, 1 for u >= 1, 10u^3 - 15u^4 + 6u^5 between."""
    u = np.asarray(u, dtype=float)
    uc = np.clip(u, 0.0, 1.0)
    return uc * uc * uc * (10.0 + uc * (-15.0 + 6.0 * uc))


def psi_derivatives(u):
    """(psi, psi', psi'') with the ramp's analytic derivatives.

    Both derivatives vanish identically outside (0, 1), which is what
    makes the ramp C^2 across the junctions.
    """
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    uc = np.clip(u, 0.0, 1.0)
    d1 = np.where(inside, uc * uc * (30.0 + uc * (-60.0 + 30.0 * uc)), 0.0)
    d2 = np.where(inside, uc * (60.0 + uc * (-180.0 + 120.0 * uc)), 0.0)
    return psi(u), d1, d2


@dataclass(frozen=True)
class BridgeNodes:
    """Floor-quantized nodes (k1..k4)/n framing the singular point.

    k1 = floor(n*xi - 2*sqrt(n)), k2 = floor(n*xi - sqrt(n)),
    k3 = floor(n*xi + sqrt(n)),  k4 = floor(n*xi + 2*sqrt(n)).
    ``valid`` is False when the nodes collide or leave (0, 1); callers
    are expected to skip such n rather than handle an exception.
    """

    n: int
    xi: float
    k1: int
    k2: int
    k3: int
    k4: int
    valid: bool

    @property
    def x1(self) -> float:
        return self.k1 / self.n

    @property
    def x2(self) -> float:
        return self.k2 / self.n

    @property
    def x3(self) -> float:
        return self.k3 / self.n

    @property
    def x4(self) -> float:
        return self.k4 / self.n

    def require_valid(self) -> None:
        if not self.valid:
            raise InvalidNodesError(
                f"bridge nodes invalid for n={self.n}, xi={self.xi}; "
                f"need n >= {min_valid_n(self.xi)}"
            )


def compute_nodes(n: int, xi: float) -> BridgeNodes:
    """Bridge nodes for degree n around xi; never raises, see ``valid``."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    xi = float(xi)
    if not (0.0 < xi < 1.0):
        raise ValueError(f"xi must lie in (0, 1), got {xi}")
    r = math.sqrt(n)
    k1 = math.floor(n * xi - 2.0 * r)
    k2 = math.floor(n * xi - r)
    k3 = math.floor(n * xi + r)
    k4 = math.floor(n * xi + 2.0 * r)
    valid = 0 < k1 < k2 < k3 < k4 < n
    return BridgeNodes(n=n, xi=xi, k1=k1, k2=k2, k3=k3, k4=k4, valid=valid)


def min_valid_n(xi: float) -> int:
    """Smallest n for which compute_nodes(n, xi) is valid.

    Validity is monotone in n (k1 > 0 iff n xi - 2 sqrt(n) >= 1, and
    k4 < n iff sqrt(n) > 2 / (1 - xi)), so doubling brackets the answer
    and bisection finds it.  A degree above 2^53, which has no exact
    float, raises InvalidNodesError.
    """
    hi = 1
    while not compute_nodes(hi, xi).valid:
        if hi >= 2 ** 53:
            raise InvalidNodesError(f"xi={xi} needs a degree n > 2**53, which has no exact float")
        hi *= 2
    lo = hi // 2  # invalid: the doubling passed it
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if compute_nodes(mid, xi).valid:
            hi = mid
        else:
            lo = mid
    return hi


def chord(f: Callable, nodes: BridgeNodes, x) -> np.ndarray:
    """The chord through (x1, f(x1)) and (x4, f(x4)) on the grid x.

    Raises EvaluationError, naming the node, when f is not finite at x1 or x4.
    """
    x = np.asarray(x, dtype=float)
    x1, x4 = nodes.x1, nodes.x4
    f1, f4 = float(f(x1)), float(f(x4))
    for name, node, value in (("x1", x1, f1), ("x4", x4, f4)):
        if not math.isfinite(value):
            raise EvaluationError(f"non-finite f({name}) = {value!r} at bridge node k/n={node!r}")
    span = x1 - x4
    return (x - x4) / span * f1 + (x1 - x) / span * f4


def surrogate_eval(f: Callable, nodes: BridgeNodes, x) -> np.ndarray:
    """Piecewise blend on a 1-D grid: f outside [x1, x4], the chord on [x2, x3], ramped between.

    f is never evaluated on [x2, x3], so a function undefined at the
    singular point (which lies strictly inside (x2, x3)) is acceptable.
    """
    nodes.require_valid()
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    out = chord(f, nodes, x)
    outer = (x <= nodes.x1) | (x >= nodes.x4)
    if outer.any():
        out[outer] = f(x[outer])
    ramp1 = (x > nodes.x1) & (x < nodes.x2)
    if ramp1.any():
        s = psi((x[ramp1] - nodes.x1) / (nodes.x2 - nodes.x1))
        out[ramp1] = (1.0 - s) * f(x[ramp1]) + s * out[ramp1]
    ramp2 = (x > nodes.x3) & (x < nodes.x4)
    if ramp2.any():
        s = psi((x[ramp2] - nodes.x3) / (nodes.x4 - nodes.x3))
        out[ramp2] = (1.0 - s) * out[ramp2] + s * f(x[ramp2])
    return out
