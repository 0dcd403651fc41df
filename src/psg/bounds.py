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

The first four also apply elementwise to an array of iteration counts t.
:func:`evaluate` is the one place a run's bounds and certificates are
computed, from its per-iteration columns: by the solver after its loop, and
by ``psg check`` on a stored trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .averaging import WeightRule
from .core import REL_TOL, InvalidParameterError, leq_with_tol, scheme_label


def _per_t(fn, t):
    """fn(t) elementwise over ints t >= 1.

    The terms are Python floats: numpy's power, sqrt and log differ from
    Python's in the last bit on some terms, and columns must equal scalars.
    """
    if np.ndim(t) == 0:
        return fn(t)
    return np.array([fn(u) for u in range(1, int(np.max(t, initial=0)) + 1)],
                    dtype=np.float64)[t - 1]


def _powers(e: float, t, cumulative: bool = False, tables: Optional[dict] = None):
    """t ** e, or with `cumulative` 1 ** e + ... + t ** e in order, elementwise over ints t >= 1.

    An array `t` reads a table of Python's ``u ** e``, equal to it bit for
    bit (a scalar `t` is only ever read without `cumulative`). `tables`,
    when given, keeps the table under `e`, so that a later call for the same
    `e` and `t` reuses it.
    """
    if np.ndim(t) == 0:
        return t ** e
    table = None if tables is None else tables.get(e)
    if table is None:
        size = int(np.max(t, initial=0))
        table = np.fromiter(map(pow, range(1, size + 1), repeat(e)),
                            dtype=np.float64, count=size)
        if tables is not None:
            tables[e] = table
    return (np.cumsum(table) if cumulative else table)[t - 1]


def constant_bound(R: float, L: float, t) -> float:
    """Gap bound R*L/sqrt(t) for the uniform mean under the constant step."""
    # Python's t ** 0.5, not sqrt: they differ in the last bit on some t
    return R * L / _powers(0.5, t)

def classic_bound(R: float, L: float, t) -> float:
    """Gap bound 1.5*R*L/sqrt(t) for the uniform mean under the classic step."""
    return 1.5 * R * L / _powers(0.5, t)

def nesterov_bound(R: float, L: float, t) -> float:
    """Gap bound (2RL + RL*ln t) / (4(sqrt(t+1)-1)) for the step-weighted mean."""
    return ((2.0 * R * L + R * L * _per_t(math.log, t))
            / (4.0 * (_powers(0.5, t + 1) - 1.0)))

def family_bound(R: float, t, max_g_norm, tables: Optional[dict] = None) -> float:
    """Gap bound 1.5*R*max||g||/sqrt(t) for the uniform mean under the family step.

    Coincides with :func:`classic_bound` when ``max_g_norm`` equals the
    Lipschitz constant. `tables` shares tabulated powers of t with other
    bounds over the same t (see :func:`_powers`).
    """
    bound = 1.5 * R * max_g_norm
    bound /= _powers(0.5, t, tables=tables)
    return bound


def _weak_exponents(k: float) -> tuple:
    """Powers of s in the weak bound: its top term and the terms of its two sums."""
    return 0.5 * (k + 1.0), 0.5 * (k - 1.0), 0.5 * k


def _weak_bound(top, sum_low, sum_mid, R: float, max_g_norm):
    """(top + sum_low) / (2 sum_mid) * R * max_g_norm, in place on arrays `top` and `sum_mid`."""
    top += sum_low
    sum_mid *= 2.0
    top /= sum_mid
    top *= R
    top *= max_g_norm
    return top


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

    Plain ascending accumulation, as :func:`evaluate` sums each epoch: at
    t = 1e6 the sums stay within 1e-11 relative of exactly rounded ones.
    """

    __slots__ = ("k", "label", "t", "_sum_low", "_sum_mid", "_exponents")

    def __init__(self, k: float):
        self.label = weak_label(k)
        self.k = float(k)
        self._exponents = _weak_exponents(self.k)
        self.reset()

    def push(self) -> None:
        self.t += 1
        _, low, mid = self._exponents
        self._sum_low += self.t ** low
        self._sum_mid += self.t ** mid

    def bound(self, R: float, max_g_norm: float) -> float:
        if self.t == 0:
            raise InvalidParameterError("no iterations pushed yet")
        top = self.t ** self._exponents[0]
        return _weak_bound(top, self._sum_low, self._sum_mid, R, max_g_norm)

    def reset(self) -> None:
        self.t = 0
        self._sum_low = 0.0   # sum of s^((k-1)/2)
        self._sum_mid = 0.0   # sum of s^(k/2)


@dataclass(frozen=True)
class Certificate:
    """A step-size rule's guarantee: f(mean of exponent `k`) - f* <= the bound `label`.

    Checked at every iteration, or only after exactly `horizon` iterations.
    """

    label: str
    k: float
    horizon: Optional[int] = None


def check_certificate(gap: float, bound: float) -> bool:
    """Pass iff both are finite and gap <= bound up to the package tolerance."""
    return math.isfinite(gap) and math.isfinite(bound) and leq_with_tol(gap, bound)


def minorant_low(sums: dict, min_linear) -> float:
    """(c_sum + min_linear(g_sum)) / count: the bracket's low end, f_low <= f*.

    `sums` is {g_sum, c_sum, count}, the summed slopes g_s and offsets
    f(x_s) - <g_s, x_s> of `count` minorants, as ``RunReport.minorant_sums``
    and a trace header hold them; `min_linear` is the projector's. The run
    and ``psg check`` both compute it here, so they agree bit for bit.
    """
    return (sums["c_sum"] + min_linear(np.asarray(sums["g_sum"]))) / sums["count"]


PROVEN = "proven"
REFUTED = "refuted"
UNDECIDED = "undecided"


def gap_verdict(avg, bound, low: float, high: float) -> str:
    """PROVEN, REFUTED or UNDECIDED: avg_s - f* <= bound_s at every s, for low <= f* <= high.

    For bound_s >= 0 the check ``leq_with_tol(gap, bound)`` holds iff
    (1 - REL_TOL) gap - bound <= ABS_TOL, so the first pair with the largest
    (1 - REL_TOL) avg_s - bound_s (taken relative to the first avg, lest a
    large offset in f round it) fails first whatever f* is. It is refuted
    when it fails at high, proven when it holds at low on a finite, ordered
    bracket, undecided otherwise. A nonfinite pair makes the claim
    unprovable; no pair at all proves it. A known optimum is [f*, f*].
    """
    avg, bound = np.asarray(avg, dtype=np.float64), np.asarray(bound, dtype=np.float64)
    finite = np.isfinite(avg) & np.isfinite(bound)
    provable = bool(finite.all())
    if not finite.any():
        return PROVEN if provable else UNDECIDED
    if not provable:
        avg, bound = avg[finite], bound[finite]
    excess = avg - avg[0]
    excess *= 1.0 - REL_TOL
    excess -= bound
    worst = int(np.argmax(excess))
    avg, bound = float(avg[worst]), float(bound[worst])
    if not leq_with_tol(avg - high, bound):
        return REFUTED
    # a crossed bracket means some subgradient gave no minorant
    if (provable and math.isfinite(low) and leq_with_tol(low, high)
            and leq_with_tol(avg - low, bound)):
        return PROVEN
    return UNDECIDED


def _nondecreasing(x: np.ndarray, new_epoch: np.ndarray) -> bool:
    """x_{s-1} <= x_s up to the package tolerance within every epoch."""
    prev, cur = x[:-1], x[1:]
    # a pair with prev <= cur passes the tolerance check without it
    suspects = np.flatnonzero(~new_epoch[1:] & ~(prev <= cur))
    return all(leq_with_tol(float(prev[i]), float(cur[i])) for i in suspects)


def evaluate(policy, ks, R: float, L: Optional[float], columns: dict,
             bracket: Optional[tuple] = None) -> tuple:
    """(bounds, certificates, undecided) of a run, from its per-iteration columns.

    `columns` maps ``epoch`` (the restart count), ``eta`` and ``g_norm`` to
    one entry per iteration, and ``f_avg_k<k>`` to the objective at the
    k-weighted mean after each (only the last entry is read when no
    certificate without a horizon reads it). Each epoch restarts the bounds:
    t counts its rows and max||g|| runs over them. `L` adds the classic,
    constant and nesterov bound columns. Given ``bracket = (low, high)``,
    each ``policy.certificates`` gap certificate is True iff proven by
    :func:`gap_verdict` over every row, or over the last row if its epoch
    has exactly the horizon; `undecided` names those neither proven nor
    refuted. ``monotone_k<k>``, for k in ``policy.monotone_ks``, is True iff
    every eta_s is positive and finite and w_s / eta_s never decreases within
    an epoch.
    """
    eta = np.asarray(columns["eta"], dtype=np.float64)
    g_norm = np.asarray(columns["g_norm"], dtype=np.float64)
    epoch = np.asarray(columns["epoch"])
    new_epoch = np.ones(len(eta), dtype=bool)
    np.not_equal(epoch[1:], epoch[:-1], out=new_epoch[1:])
    # t and max||g|| restart with each epoch; each column is built in place
    t = np.arange(1, len(eta) + 1)
    max_g = np.empty(len(eta))
    starts = np.flatnonzero(new_epoch).tolist()
    for start, end in zip(starts, starts[1:] + [len(eta)]):
        t[start:end] -= start
        np.maximum.accumulate(g_norm[start:end], out=max_g[start:end])

    tables: dict = {}  # one table of u ** e per distinct exponent e
    bounds = {FAMILY: family_bound(R, t, max_g, tables)}
    for k in ks:
        top, low, mid = _weak_exponents(float(k))
        bounds[weak_label(k)] = _weak_bound(
            _powers(top, t, tables=tables), _powers(low, t, cumulative=True, tables=tables),
            _powers(mid, t, cumulative=True, tables=tables), R, max_g)
    if L is not None:
        bounds[CLASSIC] = classic_bound(R, L, t)
        bounds[CONSTANT] = constant_bound(R, L, t)
        bounds[NESTEROV] = nesterov_bound(R, L, t)

    certificates, undecided = {}, []
    for cert in policy.certificates(ks, L) if bracket is not None else ():
        avg, bound = columns[f"f_avg_{scheme_label(cert.k)}"], bounds[cert.label]
        if cert.horizon is not None:
            decided = len(t) and t[-1] == cert.horizon
            avg, bound = (avg[-1:], bound[-1:]) if decided else ((), ())
        verdict = gap_verdict(avg, bound, *bracket)
        certificates[cert.label] = verdict == PROVEN
        if verdict == UNDECIDED:
            undecided.append(cert.label)
    # a zero, negative or nonfinite step has no ratio: it fails, unwarned
    steps_valid = bool(np.all((eta > 0) & (eta < math.inf)))
    for k in policy.monotone_ks(ks):
        if not steps_valid:
            certificates[monotone_label(k)] = False
            continue
        ratio = WeightRule(k)(t, eta)
        ratio /= eta
        certificates[monotone_label(k)] = _nondecreasing(ratio, new_epoch)
    return bounds, certificates, undecided


def weak_label(k: float) -> str:
    """Canonical bound label for the k-weighted-mean certificate."""
    if not k >= -1:
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
