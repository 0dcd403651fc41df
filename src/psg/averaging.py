"""Weighted iterate averaging with O(1) memory, plus best-iterate tracking.

The weight put on iterate s is controlled by a single exponent k >= -1:

    w_s = eta_s^(-k)   for -1 <= k <= 0,
    w_s = s^(k/2)      for k > 0.

k = 0 gives the plain running mean, k = -1 the step-size-weighted mean, and
growing k shifts weight toward recent iterates (approaching last-iterate
behaviour as k grows). :class:`WeightRule` writes this formula once, with
:func:`psg.core.power`: the run averages with its weights, and
``monotone_k<k>`` certifies the same ones. Averages are maintained as
streaming convex combinations, so no iterate history is stored; only the
running total of the weights is kept, and a total that overflows raises
:class:`OverflowError`.
:class:`StreamingAverage` keeps all K averages of a run as one K x d array
and takes one block of points per call, one row of K weights per point,
with the same numpy calls whatever K is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InvalidParameterError, NumericError, ShapeError, power

# The smallest normal float: a ratio W_t / W_e below it has lost bits, or is 0.
_TINY = float(np.finfo(np.float64).tiny)


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


def _prefix_sum(a: np.ndarray) -> None:
    """Running sums along the first axis of `a`, in place, in one fixed order.

    Within groups of 8 rows one add per step spans every group. The group
    totals (every 8th row) are then summed the same way, recursively, and
    added back to the other 7 rows of each later group by 7 strided adds, so
    the calls and the rounding depth grow with log8 of the rows, not with
    rows / 8 (a Blelloch scan). The rows after the last group follow one by
    one.
    """
    full = len(a) - len(a) % 8
    for j in range(1, 8):
        a[j:full:8] += a[j - 1:full:8]
    if full > 8:
        _prefix_sum(a[7:full:8])
        for j in range(7):
            a[8 + j:full:8] += a[7:full - 8:8]
    for t in range(max(full, 1), len(a)):
        a[t] += a[t - 1]


def _block_means(w: np.ndarray, x: np.ndarray, m0, total, out: np.ndarray) -> np.ndarray:
    """Write the means after each row of a block into `out`; return the running totals.

    `w` is rows x K, `x` rows x d and `out` rows x K x d. `m0` is the K x d
    mean before the block (None: the block starts the stream) and `total`
    its K total weights. A running total that overflows raises
    :class:`OverflowError` before `out` is written. Where some W_t / W_e is
    below the smallest normal float (the block's weights span more than the
    float range), each of the K columns is its own stream, as it would be
    fed alone, and in that stream the rows up to it are a block of their
    own, so that no ratio underflows to 0 / 0.
    """
    # W' = W + w row after row: a sequential running sum from the last total
    totals = w.copy()
    if m0 is not None:
        totals[0] += total
    with np.errstate(over="ignore"):  # reported below, not warned
        np.cumsum(totals, axis=0, out=totals)
    if not np.isfinite(totals[-1]).all():  # the totals only grow
        raise OverflowError("total weight overflows")
    ratios = totals / totals[-1]
    early = ratios < _TINY  # a leading run of rows, as the totals only grow
    if early.any():
        if w.shape[1] > 1:
            for j in range(w.shape[1]):
                m0_j, total_j = (None, 0.0) if m0 is None else (m0[j:j + 1], total[j:j + 1])
                _block_means(w[:, j:j + 1], x, m0_j, total_j, out[:, j:j + 1])
            return totals
        p = int(np.count_nonzero(early))
        _block_means(w[:p], x[:p], m0, total, out[:p])
        _block_means(w[p:], x[p:], out[p - 1], totals[p - 1], out[p:])
        return totals
    base = x[0] if m0 is None else m0
    np.subtract(x[:, None], base, out=out)
    out *= (w / totals[-1])[..., None]
    _prefix_sum(out)
    out /= ratios[..., None]
    out += base
    if m0 is None:  # the first point is the mean, the sign of a zero included
        out[0] = x[0]
    return totals


class StreamingAverage:
    """K weighted means of a stream of points, updated in place a block at a time.

    Each point x comes with a row of K weights, and mean j moves to
    mean_j + (x - mean_j)(w_j / W_j') with W_j' = W_j + w_j, which equals the
    direct quotient sum(w_sj x_s) / sum(w_sj) and keeps each mean a convex
    combination of the points fed so far. ``mean`` is K x d and
    ``total_weight`` holds the K totals once fed; each mean is bit for bit
    the one a 1-column stream fed that weight keeps, and each point is
    checked once, not K times.

    :meth:`update` takes a block of points, one per row, for a fixed number
    of numpy calls whatever K and d are. With m0 the mean before it (else
    its first point) and running totals W_t up to W_e, the means are one
    prefix sum: mean_t = m0 + (sum_{s<=t} (w_s/W_e)(x_s - m0)) / (W_t/W_e).
    W_e keeps the partial sums finite and m0 a constant stream constant; the
    rows before a W_t / W_e that would fall below the smallest normal float
    are summed as a block of their own. A 1-row block gives the formula
    above bit for bit; a block does not give the bits of feeding its rows
    one at a time.
    """

    __slots__ = ("mean", "total_weight", "count")

    def __init__(self):
        self.mean: Optional[np.ndarray] = None
        self.total_weight = 0.0
        self.count = 0

    def update(self, w, x: np.ndarray, out: Optional[np.ndarray] = None) -> "StreamingAverage":
        """Feed a block of points `x`, rows x d, with weights `w`, rows x K.

        Row i of `w` holds the K weights of point i. When given, `out`
        (rows x K x d) receives the K means after every point; ``mean``
        itself never shares memory with it. Any other shape, or a K or d
        that differs from the mean's, raises :class:`ShapeError`; a weight
        that is not positive and finite, or a nonfinite point, raises
        :class:`NumericError`; a running total weight that overflows raises
        :class:`OverflowError`, without a numpy warning. Each leaves the
        means, totals and count as they were.
        """
        x, w = np.asarray(x, dtype=np.float64), np.asarray(w, dtype=np.float64)
        shape = w.shape + x.shape[1:]  # rows x K x d
        if (x.ndim != 2 or w.ndim != 2 or len(w) != len(x)
                or (out is not None and out.shape != shape)
                or (self.mean is not None and self.mean.shape != shape[1:])):
            raise ShapeError(f"weights {w.shape} do not fit points {x.shape}, out or the means")
        bad = w[~((w > 0) & (w < math.inf))]
        if bad.size:
            raise NumericError(f"weight must be positive and finite, got {float(bad[0])!r}")
        # a finite squared norm proves every entry finite; vdot never warns
        if not (math.isfinite(np.vdot(x, x)) or np.isfinite(x).all()):
            raise NumericError("point contains nonfinite entries")
        if len(x) == 0:
            return self
        out = np.empty(shape) if out is None else out
        totals = _block_means(w, x, self.mean, self.total_weight, out)
        self.mean = out[-1].copy()
        self.total_weight = totals[-1].copy()
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

