"""Euclidean projection onto ball and box sets; only :func:`project` checks its input.

Each set also minimizes a linear function over itself in closed form
(``min_linear``), which turns averaged subgradient minorants into a lower
bound on the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameterError, ShapeError, ensure_vector


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", ensure_vector(self.center, name="center"))
        if self.radius < 0:
            raise InvalidParameterError("radius must be nonnegative")
        object.__setattr__(self, "_at_origin", not self.center.any())

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def project(self, y: np.ndarray) -> np.ndarray:
        # np.vdot is the BLAS dot of d.dot(d), bit for bit, but raises no
        # overflow warning; y - 0 is y, and y - center cannot overflow when
        # y.dot(y) is finite (then every |y_i| < 1.4e154)
        if self._at_origin:
            d = y
        elif math.isfinite(np.vdot(y, y)):
            d = y - self.center
        else:
            d = None
        norm = math.inf if d is None else math.sqrt(float(np.vdot(d, d)))
        if norm <= self.radius:
            return np.array(y, dtype=np.float64)
        if norm == math.inf:
            # d.dot(d) or d itself would overflow: halve before subtracting,
            # then take the norm of d rescaled to max |d| = 1
            d = 0.5 * y - 0.5 * self.center
            d = d / float(np.abs(d).max())
            norm = math.sqrt(float(np.vdot(d, d)))
        # norm > 0 here (radius >= 0), so the nearest point is unique
        return self.center + d * (self.radius / norm)

    def min_linear(self, v: np.ndarray) -> float:
        """min over the ball of <v, z>: <v, center> - radius * ||v||."""
        return float(np.vdot(v, self.center)) - self.radius * math.sqrt(float(np.vdot(v, v)))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lower <= x <= upper} (componentwise)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = ensure_vector(self.lower, name="lower")
        hi = ensure_vector(self.upper, dim=lo.shape[0], name="upper")
        if np.any(lo > hi):
            raise InvalidParameterError("lower must be <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def project(self, y: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(y, self.lower), self.upper)

    def min_linear(self, v: np.ndarray) -> float:
        """min over the box of <v, z>: sum_i min(v_i * lower_i, v_i * upper_i)."""
        return float(np.minimum(v * self.lower, v * self.upper).sum())


def project(op, y) -> np.ndarray:
    """Project `y` onto the feasible set described by `op`.

    Returns the unique Euclidean-nearest feasible point. The operation is
    idempotent and nonexpansive toward every feasible point:
    ||project(y) - x|| <= ||y - x|| whenever x is feasible.
    """
    y = ensure_vector(y, name="y")
    if y.shape[0] != op.dimension:
        raise ShapeError(f"point has dimension {y.shape[0]}, operator expects {op.dimension}")
    return op.project(y)


def feasibility_residual(op, x) -> float:
    """Distance from `x` to the feasible set (0 for feasible points)."""
    return float(np.linalg.norm(project(op, x) - np.asarray(x, dtype=np.float64)))
