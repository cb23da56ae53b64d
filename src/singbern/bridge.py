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
    "InvalidNodesError",
    "BridgeNodes",
    "LinearJoiner",
    "psi",
    "psi_derivatives",
    "compute_nodes",
    "min_valid_n",
    "psi_bar",
    "linear_joiner",
    "surrogate_eval",
]


class InvalidNodesError(ValueError):
    """Raised when an operation requires valid bridge nodes but got none."""


def psi(u):
    """C^2 ramp: 0 for u <= 0, 1 for u >= 1, 10u^3 - 15u^4 + 6u^5 between."""
    u = np.asarray(u, dtype=float)
    uc = np.clip(u, 0.0, 1.0)
    out = uc * uc * uc * (10.0 + uc * (-15.0 + 6.0 * uc))
    return float(out) if out.ndim == 0 else out


def psi_derivatives(u):
    """(psi, psi', psi'') with the ramp's analytic derivatives.

    Both derivatives vanish identically outside (0, 1), which is what
    makes the ramp C^2 across the junctions.
    """
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    uc = np.clip(u, 0.0, 1.0)
    p = uc * uc * uc * (10.0 + uc * (-15.0 + 6.0 * uc))
    d1 = np.where(inside, uc * uc * (30.0 + uc * (-60.0 + 30.0 * uc)), 0.0)
    d2 = np.where(inside, uc * (60.0 + uc * (-180.0 + 120.0 * uc)), 0.0)
    if p.ndim == 0:
        return float(p), float(d1), float(d2)
    return p, d1, d2


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


def psi_bar(nodes: BridgeNodes, which: int, x):
    """Ramp rescaled to [x1, x2] (which=1) or [x3, x4] (which=2)."""
    nodes.require_valid()
    if which == 1:
        lo, hi = nodes.x1, nodes.x2
    elif which == 2:
        lo, hi = nodes.x3, nodes.x4
    else:
        raise ValueError(f"which must be 1 or 2, got {which}")
    return psi((np.asarray(x, dtype=float) - lo) / (hi - lo))


@dataclass(frozen=True)
class LinearJoiner:
    """Chord through (x1, f1) and (x4, f4)."""

    x1: float
    x4: float
    f1: float
    f4: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        span = self.x1 - self.x4
        out = (x - self.x4) / span * self.f1 + (self.x1 - x) / span * self.f4
        return float(out) if out.ndim == 0 else out


def linear_joiner(f: Callable, nodes: BridgeNodes) -> LinearJoiner:
    """Interpolate f at the outer nodes x1 and x4."""
    nodes.require_valid()
    f1 = float(f(nodes.x1))
    f4 = float(f(nodes.x4))
    if not (math.isfinite(f1) and math.isfinite(f4)):
        raise ValueError(
            f"function evaluation failed at outer nodes: f({nodes.x1})={f1}, "
            f"f({nodes.x4})={f4}"
        )
    return LinearJoiner(x1=nodes.x1, x4=nodes.x4, f1=f1, f4=f4)


def surrogate_eval(f: Callable, nodes: BridgeNodes, x):
    """Piecewise blend: f outside [x1, x4], the chord on [x2, x3], ramped between.

    f is never evaluated on [x2, x3], so a function undefined at the
    singular point (which lies strictly inside (x2, x3)) is acceptable.
    """
    nodes.require_valid()
    P = linear_joiner(f, nodes)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty(x.shape)

    outer = (x <= nodes.x1) | (x >= nodes.x4)
    mid = (x >= nodes.x2) & (x <= nodes.x3)
    ramp1 = (x > nodes.x1) & (x < nodes.x2)
    ramp2 = (x > nodes.x3) & (x < nodes.x4)

    if outer.any():
        out[outer] = f(x[outer])
    if mid.any():
        out[mid] = P(x[mid])
    if ramp1.any():
        s = psi_bar(nodes, 1, x[ramp1])
        out[ramp1] = (1.0 - s) * f(x[ramp1]) + s * P(x[ramp1])
    if ramp2.any():
        s = psi_bar(nodes, 2, x[ramp2])
        out[ramp2] = (1.0 - s) * P(x[ramp2]) + s * f(x[ramp2])
    return float(out[0]) if scalar else out
