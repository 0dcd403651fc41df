"""Weighted iterate averaging with O(1) memory, plus best-iterate tracking.

The weight put on iterate s is controlled by a single exponent k >= -1:

    w_s = eta_s^(-k)   for -1 <= k <= 0,
    w_s = s^(k/2)      for k > 0.

k = 0 gives the plain running mean, k = -1 the step-size-weighted mean, and
growing k shifts weight toward recent iterates (approaching last-iterate
behaviour as k grows). Averages are maintained as streaming convex
combinations, so no iterate history is stored and the accumulated weight
never overflows the totals that a direct sum of s^(k/2) terms would reach.
:class:`StreamingAverage` keeps all K averages of a run as one K x d array
and updates it in place, with the same numpy calls whatever K is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InvalidParameterError, NumericError


def weight(k: float, s: int, eta_s: float) -> float:
    """Averaging weight for iterate `s` with step `eta_s` under exponent `k`."""
    rule = WeightRule(k)
    if not s >= 1:
        raise InvalidParameterError(f"s must be >= 1, got {s!r}")
    if not eta_s > 0:
        raise InvalidParameterError(f"eta_s must be positive, got {eta_s!r}")
    return rule(s, eta_s)


@dataclass(frozen=True)
class WeightRule:
    """Weight exponent validated once; rule(s, eta_s) is the weight formula, unchecked.

    The one place the formula is written. It applies elementwise when `s`
    and `eta_s` are numpy arrays of iteration indices and steps.
    """

    k: float

    def __post_init__(self):
        if self.k < -1:
            raise InvalidParameterError(f"k must be >= -1, got {self.k!r}")

    def __call__(self, s, eta_s):
        return eta_s ** -self.k if self.k <= 0 else s ** (0.5 * self.k)


class StreamingAverage:
    """Weighted mean of a stream of points, updated in place.

    The mean is maintained as mean <- mean + (w / W')(x - mean) with
    W' = W + w, which equals the direct quotient sum(w_s x_s) / sum(w_s)
    and keeps the mean a convex combination of the points fed so far.

    Fed a 1-D array of K weights per point, it keeps K means at once (``mean``
    is K x d, ``total_weight`` has K entries), each row bit for bit equal to
    a scalar stream fed that weight, and checks the point once, not K times.
    An update costs a fixed number of numpy calls whatever K is: the
    difference x - mean is formed, scaled and added in one buffer of the
    mean's shape, allocated with it.
    """

    __slots__ = ("mean", "total_weight", "count", "_buf")

    def __init__(self):
        self.mean: Optional[np.ndarray] = None
        self.total_weight = 0.0
        self.count = 0

    def update(self, w, x: np.ndarray) -> "StreamingAverage":
        scalar = np.ndim(w) == 0
        if not scalar:
            w = np.asarray(w, dtype=np.float64)
        for w_i in [w] if scalar else w.tolist():
            if not (math.isfinite(w_i) and w_i > 0):
                raise NumericError(f"weight must be positive and finite, got {w_i!r}")
        # a finite squared norm proves every entry finite; vdot never warns
        if not (math.isfinite(np.vdot(x, x)) or np.isfinite(x).all()):
            raise NumericError("point contains nonfinite entries")
        self.count += 1
        if self.mean is None:
            self.mean = np.array(x if scalar else [x] * w.size, dtype=np.float64)
            self._buf = np.empty_like(self.mean)
            self.total_weight = float(w) if scalar else w.copy()
        else:
            self.total_weight += w
            share = w / self.total_weight
            buf = self._buf
            np.subtract(x, self.mean, out=buf)
            buf *= share if scalar else share[:, None]
            self.mean += buf
        return self


class BestIterate:
    """Smallest objective value seen so far; ties keep the earliest index."""

    __slots__ = ("best_value", "best_point", "best_index")

    def __init__(self):
        self.best_value = float("inf")
        self.best_point: Optional[np.ndarray] = None
        self.best_index = 0

    def update(self, s: int, f_x: float, x: np.ndarray) -> "BestIterate":
        if f_x < self.best_value:
            self.best_value = float(f_x)
            self.best_point = np.array(x, dtype=np.float64)
            self.best_index = int(s)
        return self

