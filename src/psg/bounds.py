"""Convergence-rate expressions used as runtime certificates.

Each evaluator returns the right-hand side of a provable bound on the
optimality gap of an averaged (or best) iterate after t iterations:

* ``constant_bound``:  R L / sqrt(t), uniform mean, constant step tuned to t;
* ``classic_bound``:   3 R L / (2 sqrt(t)), uniform mean, classic step;
* ``nesterov_bound``:  (2 R L + R L ln t) / (4 (sqrt(t+1) - 1)),
  step-weighted mean, norm-normalized step (sub-optimal rate);
* ``family_bound``:    (3 R / (2 sqrt(t))) * max_{s<=t} ||g_s||, uniform mean,
  norm-adaptive family step (no Lipschitz constant involved);
* ``weak_ergodic_bound``: the k-weighted-mean generalization
  (t^((k+1)/2) + sum_{s<=t} s^((k-1)/2)) / (2 sum_{s<=t} s^(k/2))
  * R * max_{s<=t} ||g_s||, valid for the family step and any k >= -1.

A certificate passes when the observed gap does not exceed the bound up to
the package tolerance. A run that knows f* only as a bracket
``low <= f* <= high`` checks every gap certificate through
:class:`GapWatch`: proven, refuted or undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import REL_TOL, InvalidParameterError, leq_with_tol


def constant_bound(R: float, L: float, t: int) -> float:
    """Gap bound R*L/sqrt(t) for the uniform mean under the constant step."""
    return R * L / t ** 0.5

def classic_bound(R: float, L: float, t: int) -> float:
    """Gap bound 1.5*R*L/sqrt(t) for the uniform mean under the classic step."""
    return 1.5 * R * L / t ** 0.5

def nesterov_bound(R: float, L: float, t: int) -> float:
    """Gap bound (2RL + RL*ln t) / (4(sqrt(t+1)-1)) for the step-weighted mean."""
    return (2.0 * R * L + R * L * math.log(t)) / (4.0 * ((t + 1.0) ** 0.5 - 1.0))

def family_bound(R: float, t: int, max_g_norm: float) -> float:
    """Gap bound 1.5*R*max||g||/sqrt(t) for the uniform mean under the family step.

    Coincides with :func:`classic_bound` when ``max_g_norm`` equals the
    Lipschitz constant.
    """
    return 1.5 * R * max_g_norm / t ** 0.5


def weak_ergodic_bound(R: float, t: int, k: float, max_g_norm: float) -> float:
    """Gap bound for the k-weighted mean under the family step, as a run streams it."""
    sums = WeakBoundSums(k)
    if not t >= 1:
        raise InvalidParameterError(f"t must be >= 1, got {t!r}")
    for _ in range(t):
        sums.push()
    return sums.bound(R, max_g_norm)


class WeakBoundSums:
    """The two power sums of :func:`weak_ergodic_bound`, one term per push.

    Plain ascending accumulation: at t = 1e6 the sums stay within 1e-11
    relative of exactly rounded ones, far inside the certificate tolerance.
    """

    __slots__ = ("k", "label", "t", "_sum_low", "_sum_mid")

    def __init__(self, k: float):
        self.label = weak_label(k)
        self.k = float(k)
        self.t = 0
        self._sum_low = 0.0   # sum of s^((k-1)/2)
        self._sum_mid = 0.0   # sum of s^(k/2)

    def push(self) -> None:
        self.t += 1
        self._sum_low += self.t ** (0.5 * (self.k - 1.0))
        self._sum_mid += self.t ** (0.5 * self.k)

    def bound(self, R: float, max_g_norm: float) -> float:
        if self.t == 0:
            raise InvalidParameterError("no iterations pushed yet")
        numerator = self.t ** (0.5 * (self.k + 1.0)) + self._sum_low
        return numerator / (2.0 * self._sum_mid) * R * max_g_norm

    def reset(self) -> None:
        self.t = 0
        self._sum_low = 0.0
        self._sum_mid = 0.0


def bound_values(R: float, L: Optional[float], t: int, max_g_norm: float,
                 sums=()) -> dict:
    """Every bound that applies after `t` iterations (`sums` pushed `t` times), by label.

    The classic, constant and nesterov bounds need the Lipschitz bound `L`.
    """
    values = {FAMILY: family_bound(R, t, max_g_norm)}
    for tracker in sums:
        values[tracker.label] = tracker.bound(R, max_g_norm)
    if L is not None:
        values[CLASSIC] = classic_bound(R, L, t)
        values[CONSTANT] = constant_bound(R, L, t)
        values[NESTEROV] = nesterov_bound(R, L, t)
    return values


@dataclass(frozen=True)
class Certificate:
    """A step-size rule's guarantee: f(mean of exponent `k`) - f* <= bound `bound`.

    Checked at every iteration, or only after exactly `horizon` iterations.
    """

    label: str
    k: float
    bound: str
    horizon: Optional[int] = None


def check_certificate(gap: float, bound: float) -> bool:
    """Pass iff both are finite and gap <= bound up to the package tolerance."""
    return math.isfinite(gap) and math.isfinite(bound) and leq_with_tol(gap, bound)


PROVEN = "proven"
REFUTED = "refuted"
UNDECIDED = "undecided"


class GapWatch:
    """The one (f(x_avg_s), bound_s) pair that decides a gap certificate over a run.

    The certificate claims f(x_avg_s) - f* <= bound_s at every checked s, each
    up to the package tolerance, which scales with the gap and the bound, not
    with f. For bound_s >= 0 that check, ``leq_with_tol(gap, bound)``, holds
    iff (1 - REL_TOL) gap - bound <= ABS_TOL, so the pair with the largest
    (1 - REL_TOL) f(x_avg_s) - bound_s fails first whatever f* is; the watch
    keeps only that pair (its key taken relative to the first value pushed,
    so that a large offset in f does not round the keys). Knowing only
    low <= f* <= high, the pair is checked against both ends after the run:
    refuted when it fails at high, proven when it holds at low and the
    bracket is finite and ordered, undecided otherwise. A known optimum is
    the bracket [f*, f*]. A nonfinite pair makes the certificate unprovable.
    """

    __slots__ = ("avg", "bound", "provable", "_origin", "_key")

    def __init__(self):
        self.avg = None
        self.bound = None
        self.provable = True
        self._origin = None
        self._key = -math.inf

    def push(self, avg: float, bound: float) -> None:
        if not (math.isfinite(avg) and math.isfinite(bound)):
            self.provable = False
            return
        if self._origin is None:
            self._origin = avg
        key = (1.0 - REL_TOL) * (avg - self._origin) - bound
        if key > self._key:
            self._key = key
            self.avg = avg
            self.bound = bound

    def verdict(self, low: float, high: float) -> str:
        """PROVEN, REFUTED or UNDECIDED; a crossed or unbounded bracket never proves."""
        if self.avg is None:  # nothing finite was checked
            return PROVEN if self.provable else UNDECIDED
        if not leq_with_tol(self.avg - high, self.bound):
            return REFUTED
        # a crossed bracket means some subgradient gave no minorant
        if (self.provable and math.isfinite(low) and leq_with_tol(low, high)
                and leq_with_tol(self.avg - low, self.bound)):
            return PROVEN
        return UNDECIDED


def weak_label(k: float) -> str:
    """Canonical bound label for the k-weighted-mean certificate."""
    if k < -1:
        raise InvalidParameterError(f"k must be >= -1, got {k!r}")
    return f"weak_k{k:g}"


# Fixed labels for the remaining bounds/certificates.
CONSTANT = "constant"
CLASSIC = "classic"
NESTEROV = "nesterov"
FAMILY = "family"
PER_STEP = "per_step"


def monotone_label(k: float) -> str:
    """Label for the weight/step monotonicity invariant at exponent `k`."""
    return f"monotone_k{k:g}"
