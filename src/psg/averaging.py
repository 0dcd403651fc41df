"""Weighted iterate averaging with O(1) memory, plus best-iterate tracking.

The weight put on iterate s is controlled by a single exponent k >= -1:

    w_s = eta_s^(-k)   for -1 <= k <= 0,
    w_s = s^(k/2)      for k > 0.

k = 0 gives the plain running mean, k = -1 the step-size-weighted mean, and
growing k shifts weight toward recent iterates (approaching last-iterate
behaviour as k grows). :class:`WeightRule` writes this formula once, with
:func:`psg.core.power`: the run averages with its weights, and
``monotone_k<k>`` certifies the same ones. Averages are folded into
weighted sums, so no iterate history is stored; a total or a sum that
overflows raises :class:`OverflowError`. :class:`StreamingAverage` keeps all
K averages of a run and takes one block of points per call, one row of K
weights per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InvalidParameterError, NumericError, ShapeError, power

def weight(k: float, s: int, eta_s: float) -> float:
    """Averaging weight for iterate `s` with step `eta_s` under exponent `k`, inf on overflow."""
    rule = WeightRule(k)
    if not s >= 1:
        raise InvalidParameterError(f"s must be >= 1, got {s!r}")
    if not eta_s > 0:
        raise InvalidParameterError(f"eta_s must be positive, got {eta_s!r}")
    return float(rule(s, eta_s))


@dataclass(frozen=True)
class WeightRule:
    """Weight exponent validated once; rule(s, eta_s) is the weight formula, unchecked.

    The one place the formula is written. It applies elementwise to numpy
    arrays of iteration indices and steps and gives float64 values, each
    power formed by :func:`psg.core.power`: a weight has the same bits alone
    and in a column, and a weight that overflows is inf.
    """

    k: float

    def __post_init__(self):
        if not self.k >= -1:
            raise InvalidParameterError(f"k must be >= -1, got {self.k!r}")

    def __call__(self, s, eta_s):
        return power(eta_s, -self.k) if self.k <= 0 else power(s, 0.5 * self.k)


class StreamingAverage:
    """K weighted means of a stream of points, folded in a block at a time.

    Each point x_s comes with a row of K weights w_s. The fold keeps, per
    column k, the total W_k = sum w_sk and the sum S_k = sum w_sk (x_s - b),
    where b is the first point fed; ``mean`` is b + S_k / W_k, the weighted
    mean sum(w_sk x_s) / sum(w_sk), formed when it is read. Subtracting b
    makes a constant stream give its point back exactly.

    :meth:`update` takes a block of points, one per row: each total grows by
    a running sum down its column, and each S_k by one contiguous dot of its
    weight column with the block's rows minus b. Each column is handled
    alone, so mean k has the bits of a 1-column stream fed that weight; a
    block does not give the bits of feeding its rows one at a time. Only b,
    S and W are kept, so no point is stored.
    """

    __slots__ = ("base", "sums", "total_weight", "count")

    def __init__(self):
        self.base: Optional[np.ndarray] = None
        self.sums: Optional[np.ndarray] = None
        self.total_weight = 0.0
        self.count = 0

    @property
    def mean(self) -> Optional[np.ndarray]:
        """The K x d means b + S_k / W_k, a new array; None before the first point."""
        return None if self.base is None else self.base + self.sums / self.total_weight[:, None]

    def update(self, w, x: np.ndarray) -> "StreamingAverage":
        """Feed a block of points `x`, rows x d, with weights `w`, rows x K.

        Row i of `w` holds the K weights of point i. Any other shape, or a K
        or d that differs from the sums', raises :class:`ShapeError`; a
        weight that is not positive and finite, or a nonfinite point, raises
        :class:`NumericError`; a total weight or a sum that overflows raises
        :class:`OverflowError`, without a numpy warning. Each leaves the
        fold as it was.
        """
        x, w = np.asarray(x, dtype=np.float64), np.asarray(w, dtype=np.float64)
        if (x.ndim != 2 or w.ndim != 2 or len(w) != len(x)
                or (self.sums is not None and self.sums.shape != w.shape[1:] + x.shape[1:])):
            raise ShapeError(f"weights {w.shape} do not fit points {x.shape} or the sums")
        bad = w[~((w > 0) & (w < math.inf))]
        if bad.size:
            raise NumericError(f"weight must be positive and finite, got {float(bad[0])!r}")
        # a finite squared norm proves every entry finite; vdot never warns
        if not (math.isfinite(np.vdot(x, x)) or np.isfinite(x).all()):
            raise NumericError("point contains nonfinite entries")
        if len(x) == 0:
            return self
        base = x[0].copy() if self.base is None else self.base
        # the totals row after row from the last ones; they only grow
        totals = np.vstack([np.broadcast_to(self.total_weight, w.shape[1]), w])
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
            np.cumsum(totals, axis=0, out=totals)
            offsets = x - base
            sums = np.empty(w.shape[1:] + x.shape[1:])
            for j, column in enumerate(w.T):
                sums[j] = np.ascontiguousarray(column) @ offsets
            if self.sums is not None:
                sums += self.sums
        if not np.isfinite(totals[-1]).all():
            raise OverflowError("total weight overflows")
        if not np.isfinite(sums).all():
            raise OverflowError("weighted sum overflows")
        self.base, self.sums, self.total_weight = base, sums, totals[-1]
        self.count += len(x)
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

