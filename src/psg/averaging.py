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


# Means of at most this many entries (K x d) run the recurrence on Python
# floats, one list per point, rather than three numpy calls per point. 8 is
# the measured crossover: on one 64-row block (numpy 2.4, 2-core Xeon VM,
# best of 25 interleaved rounds) the float path takes about 0.7x the numpy
# loop's time at 2 to 4 entries, 1.03x at 8 entries of one mean or 12 of K
# means, and 1.2x to 4.6x from 16 to 64 entries.
NARROW_ROW = 8


def _narrow_recurrence(out, x, shares, mean, start: int) -> bool:
    """The recurrence of :meth:`StreamingAverage.update` over rows start.. of `x`, on Python floats.

    Writes ``out[start:]`` with the bits of the numpy loop: IEEE ``+ - *``
    round the same on Python floats, and ``a + (b - a) c`` is the loop's
    ``(b - a) c + a``. Returns False, writing nothing, when the last mean has
    a nonfinite entry (a difference overflowed), so that the numpy loop
    redoes the rows with its warnings: a nonfinite entry never turns finite.
    """
    rows = len(x) - start
    if not rows:
        return True
    shape = mean.shape
    # (d,) means take one share per point, (K, d) means one per average
    points = x[start:, None] if mean.ndim == 2 else x[start:]
    points = np.broadcast_to(points, (rows,) + shape).reshape(rows, -1).tolist()
    shares = np.broadcast_to(shares[start:], (rows,) + shape).reshape(rows, -1).tolist()
    m = mean.ravel().tolist()
    means = []
    for point, share in zip(points, shares):
        m = [a + (b - a) * c for a, b, c in zip(m, point, share)]
        means.append(m)
    if not all(map(math.isfinite, m)):
        return False
    out[start:start + rows] = np.reshape(means, (rows,) + shape)
    return True


class StreamingAverage:
    """Weighted mean of a stream of points, updated in place.

    The mean is maintained as mean <- mean + (w / W')(x - mean) with
    W' = W + w, which equals the direct quotient sum(w_s x_s) / sum(w_s)
    and keeps the mean a convex combination of the points fed so far.

    Fed a 1-D array of K weights per point, it keeps K means at once (``mean``
    is K x d, ``total_weight`` has K entries), each row bit for bit equal to
    a scalar stream fed that weight, and checks the point once, not K times.

    :meth:`update` also takes a block of points, one per row, and runs the
    same recurrence over its rows in order: a block gives the bits that
    feeding its rows one at a time gives, for a fixed number of numpy calls
    per row whatever K is, and validates the block once. Means of at most
    :data:`NARROW_ROW` entries run the recurrence on Python floats instead,
    with the same bits and warnings.
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
        if fresh:  # the first point is the mean; the recurrence starts at row 1
            out[0] = x[0]
            mean = out[0]
        else:
            totals[0] += self.total_weight
            mean = self.mean
        with np.errstate(over="ignore"):  # reported below, not warned
            np.cumsum(totals, axis=0, out=totals)
        if not np.isfinite(totals[-1]).all():  # the totals only grow
            raise OverflowError("total weight overflows")
        shares = (w / totals)[..., None]
        start = int(fresh)
        if not (mean.size <= NARROW_ROW and _narrow_recurrence(out, x, shares, mean, start)):
            for o, x_i, share in zip(out[start:], x[start:], shares[start:]):
                np.subtract(x_i, mean, out=o)
                o *= share
                o += mean
                mean = o
        mean = out[rows - 1]
        if fresh:
            self.mean = mean.copy()
        else:
            self.mean[...] = mean
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

