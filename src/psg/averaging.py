"""Weighted iterate averaging with O(1) memory, plus best-iterate tracking.

The weight put on iterate s is controlled by a single exponent k >= -1:

    w_s = eta_s^(-k)   for -1 <= k <= 0,
    w_s = s^(k/2)      for k > 0.

k = 0 gives the plain running mean, k = -1 the step-size-weighted mean, and
growing k shifts weight toward recent iterates (approaching last-iterate
behaviour as k grows). Averages are maintained as streaming convex
combinations, so no iterate history is stored; only the running total of the
weights is kept, and a total that overflows raises :class:`OverflowError`.
:class:`StreamingAverage` keeps all K averages of a run as one K x d array
and updates it with the same numpy calls whatever K is, one point or one
block of points per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InvalidParameterError, NumericError, ShapeError


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

    The one place the formula is written: ``__call__`` for one iteration,
    which also applies elementwise when `s` and `eta_s` are numpy arrays of
    iteration indices and steps, and :meth:`over` for a run of iterations.
    """

    k: float

    def __post_init__(self):
        if self.k < -1:
            raise InvalidParameterError(f"k must be >= -1, got {self.k!r}")

    def __call__(self, s, eta_s):
        return eta_s ** -self.k if self.k <= 0 else s ** (0.5 * self.k)

    def over(self, s_first: int, etas) -> list:
        """Weights of iterations s_first, s_first + 1, ... with steps `etas`.

        Python floats, each equal to ``rule(s, eta_s)`` bit for bit (numpy's
        ``power`` can differ in the last bit). For k > 0 a weight that
        overflows raises :class:`OverflowError`.
        """
        if self.k <= 0:
            p = -self.k
            return [eta ** p for eta in etas]
        e = 0.5 * self.k
        return [s ** e for s in range(s_first, s_first + len(etas))]


def _prefix_sum(a: np.ndarray) -> None:
    """Running sums along the first axis of `a`, in place, in one fixed order.

    Within groups of 8 rows one add per step spans every group; each group
    then adds the total before it, and the rows after the last group follow.
    """
    full = len(a) - len(a) % 8
    for j in range(1, 8):
        a[j:full:8] += a[j - 1:full:8]
    for g in range(8, full, 8):
        a[g:g + 8] += a[g - 1]
    for t in range(max(full, 1), len(a)):
        a[t] += a[t - 1]


class StreamingAverage:
    """Weighted mean of a stream of points, updated in place.

    One point x with weight w moves the mean to mean + (x - mean)(w / W')
    with W' = W + w, which equals the direct quotient sum(w_s x_s) / sum(w_s)
    and keeps the mean a convex combination of the points fed so far.

    Fed a 1-D array of K weights per point, it keeps K means at once (``mean``
    is K x d, ``total_weight`` has K entries), each row bit for bit equal to
    a scalar stream fed that weight, and checks the point once, not K times.

    :meth:`update` also takes a block of points, one per row, for a fixed
    number of numpy calls whatever K and d are. With m0 the mean before it
    (else its first point) and running totals W_t up to W_e, the means are
    one prefix sum: mean_t = m0 + (sum_{s<=t} (w_s/W_e)(x_s - m0)) / (W_t/W_e).
    W_e keeps the partial sums finite and m0 a constant stream constant. One
    point gives the formula above bit for bit; a block does not give the
    bits of feeding its rows one at a time.
    """

    __slots__ = ("mean", "total_weight", "count")

    def __init__(self):
        self.mean: Optional[np.ndarray] = None
        self.total_weight = 0.0
        self.count = 0

    def update(self, w, x: np.ndarray, out: Optional[np.ndarray] = None) -> "StreamingAverage":
        """Feed one point `x` with weight `w`, or a block of points.

        A 1-D `x` is one point; `w` is its weight, or a 1-D array of K
        weights. A 2-D `x` is a block with one point per row, and `w` then
        holds one weight, or one row of K weights, per point. When given,
        `out` (one row per point, each of the mean's shape) receives the
        means after every point; ``mean`` itself never shares memory with it.
        A running total weight that overflows raises :class:`OverflowError`,
        without a numpy warning, before the means change.
        """
        x = np.asarray(x, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        if x.ndim == 1:
            x, w = x[None], w[None]
        if x.ndim != 2 or w.shape[:1] != x.shape[:1] or w.ndim > 2:
            raise ShapeError(f"weights of shape {w.shape} do not fit points of shape {x.shape}")
        valid = (w > 0) & (w < math.inf)
        if not valid.all():
            bad = float(w[~valid][0])
            raise NumericError(f"weight must be positive and finite, got {bad!r}")
        # a finite squared norm proves every entry finite; vdot never warns
        if not (math.isfinite(np.vdot(x, x)) or np.isfinite(x).all()):
            raise NumericError("point contains nonfinite entries")
        shape = w.shape[1:] + x.shape[1:]  # (d,) for one weight per point, else (K, d)
        rows = len(x)
        if rows == 0:
            return self
        if out is None:
            out = np.empty((rows,) + shape)
        # W' = W + w row after row: a sequential running sum from the last total
        totals = w.copy()
        fresh = self.mean is None
        if not fresh:
            totals[0] += self.total_weight
        with np.errstate(over="ignore"):  # reported below, not warned
            np.cumsum(totals, axis=0, out=totals)
        if not np.isfinite(totals[-1]).all():  # the totals only grow
            raise OverflowError("total weight overflows")
        m0 = x[0] if fresh else self.mean
        np.subtract(x[:, None] if w.ndim == 2 else x, m0, out=out)
        out *= (w / totals[-1])[..., None]
        _prefix_sum(out)
        out /= (totals / totals[-1])[..., None]
        out += m0
        if fresh:  # the first point is the mean, the sign of a zero included
            out[0] = x[0]
            self.mean = out[-1].copy()
        else:
            self.mean[...] = out[-1]
        self.total_weight = float(totals[-1]) if w.ndim == 1 else totals[-1].copy()
        self.count += rows
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

