"""Convergence-rate expressions used as runtime certificates.

Each evaluator returns the right-hand side of a provable bound on the
optimality gap of the weighted value mean v_k = sum w_s f(x_s) / sum w_s
after t iterations, and so, by Jensen, of the averaged (or best) iterate:

* ``constant_bound``:  R L / sqrt(t), uniform mean, constant step tuned to t;
* ``classic_bound``:   3 R L / (2 sqrt(t)), uniform mean, classic step;
* ``nesterov_bound``:  (2 R L + R L ln t) / (4 (sqrt(t+1) - 1)),
  step-weighted mean, norm-normalized step (sub-optimal rate);
* ``family_bound``:    (3 R / (2 sqrt(t))) * max_{s<=t} ||g_s||, uniform mean,
  norm-adaptive family step (no Lipschitz constant involved);
* ``weak_ergodic_bound``: the k-weighted-mean generalization
  (t^((k+1)/2) + sum_{s<=t} s^((k-1)/2)) / (2 sum_{s<=t} s^(k/2))
  * R * max_{s<=t} ||g_s||, valid for the family step and any k >= -1.

Each bound has one implementation, over a column of counts t >= 1: the
first four take an array of counts or one count, a 0-d column, for which
they return a float (numpy's float64 scalar is one), and
``weak_ergodic_bound`` is the last entry of its column over 1..t. Every
power of t is formed by :func:`psg.core.power`, so a scalar holds the bits
of its entry in a column; ``monotone_k<k>`` is decided on the weights of
:class:`~psg.averaging.WeightRule`, which the run averages with.
:func:`evaluate` is the one place a run's bounds and certificates are
computed, from its per-iteration columns: by the solver after its loop, and
by ``psg check`` on a stored trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .averaging import WeightRule
from .core import REL_TOL, InvalidParameterError, leq_with_tol, power, require_count, scheme_label


# math.log term by term: numpy's log can differ in the last bit
_log = np.frompyfunc(math.log, 1, 1)


def constant_bound(R: float, L: float, t) -> float:
    """Gap bound R*L/sqrt(t) for the uniform mean under the constant step."""
    # sqrt(t), correctly rounded, as every bound forms t ** 0.5 (see power)
    return R * L / power(t, 0.5)

def classic_bound(R: float, L: float, t) -> float:
    """Gap bound 1.5*R*L/sqrt(t) for the uniform mean under the classic step."""
    return family_bound(R, t, L)

def nesterov_bound(R: float, L: float, t) -> float:
    """Gap bound (2RL + RL*ln t) / (4(sqrt(t+1)-1)) for the step-weighted mean."""
    log_t = np.asarray(_log(t), dtype=np.float64)
    return (2.0 * R * L + R * L * log_t) / (4.0 * (power(t + 1, 0.5) - 1.0))

def family_bound(R: float, t, max_g_norm) -> float:
    """Gap bound 1.5*R*max||g||/sqrt(t) for the uniform mean under the family step.

    Coincides with :func:`classic_bound` when ``max_g_norm`` equals the
    Lipschitz constant.
    """
    bound = 1.5 * R * max_g_norm
    bound /= power(t, 0.5)
    return bound


def _weak_column(k: float, R: float, t, max_g, epochs) -> np.ndarray:
    """The weak bound over counts `t` that restart at each (start, end) row range of `epochs`.

    (t^((k+1)/2) + sum_low) / (2 sum_mid) * R * max_g, where sum_low and
    sum_mid add s^((k-1)/2) and s^(k/2) in ascending order within each
    range. Halving the quotient gives the bits of dividing by 2 sum_mid, but
    2 sum_mid cannot overflow: a bound whose top term alone overflows is inf,
    not nan.
    """
    # terms and sums overflow to inf, and inf / inf is nan, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        sum_low, sum_mid = power(t, 0.5 * (k - 1.0)), power(t, 0.5 * k)
        for start, end in epochs:
            for terms in (sum_low[start:end], sum_mid[start:end]):
                np.cumsum(terms, out=terms)
        top = power(t, 0.5 * (k + 1.0))
        top += sum_low
        top /= sum_mid
        top *= 0.5
        top *= R
        top *= max_g
        return top


def weak_ergodic_bound(R: float, t: int, k: float, max_g_norm: float) -> float:
    """Gap bound for the k-weighted mean under the family step after t iterations.

    The last entry of the ``weak_k<k>`` column of :func:`evaluate` over
    counts 1..t in one epoch, so O(t) numpy work.
    """
    weak_label(k)  # rejects k < -1
    require_count(t, "t")
    return _weak_column(float(k), R, np.arange(1.0, t + 1.0), max_g_norm, [(0, t)])[-1]


class WeakBoundSums:
    """:func:`weak_ergodic_bound` at a count that each push raises by one."""

    __slots__ = ("k", "label", "t")

    def __init__(self, k: float):
        self.label = weak_label(k)
        self.k = float(k)
        self.reset()

    def push(self) -> None:
        self.t += 1

    def bound(self, R: float, max_g_norm: float) -> float:
        return weak_ergodic_bound(R, self.t, self.k, max_g_norm)

    def reset(self) -> None:
        self.t = 0


@dataclass(frozen=True)
class Certificate:
    """A step-size rule's guarantee: v_k - f* <= the bound `label`.

    v_k is the value mean of exponent `k` (:func:`value_mean`), at least
    f(mean of exponent `k`) by Jensen.

    Checked at every iteration, or only after exactly `horizon` iterations.
    """

    label: str
    k: float
    horizon: Optional[int] = None


def check_certificate(gap: float, bound: float) -> bool:
    """Pass iff both are finite and gap <= bound up to the package tolerance."""
    return math.isfinite(gap) and math.isfinite(bound) and leq_with_tol(gap, bound)


def bracket(problem, sums: Optional[dict], high: float) -> Optional[tuple]:
    """The optimality bracket (low, high) around f* of a run on `problem`, or None.

    A problem that knows f* is [f*, f*]. Otherwise the run's `count`
    minorants f(z) >= f(x_s) + <g_s, z - x_s>, summed as `sums` = {g_sum,
    c_sum, count} (``RunReport.minorant_sums``, a trace header's
    ``minorant_sums``), give low = (c_sum + min_linear(g_sum)) / count <= f*,
    the minimum of their mean over the feasible set; `high` is a value the
    run attained, so f* <= high. Without sums there is no bracket. The run
    (high: its best value) and ``psg check`` (high: the trace's final
    ``f_best``) both form it here, so their low ends agree bit for bit.
    """
    f_star = problem.known_optimum_value
    if f_star is not None:
        return (f_star, f_star)
    if sums is None:
        return None
    low = sums["c_sum"] + problem.projector.min_linear(np.asarray(sums["g_sum"]))
    return (low / sums["count"], high)


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


def value_mean(w: np.ndarray, f_x: np.ndarray, epochs) -> np.ndarray:
    """v_s = sum_{r<=s} w_r f(x_r) / sum_{r<=s} w_r within each (start, end) row range of `epochs`.

    The weighted value mean that every gap bound is proven for; Jensen
    carries it to the averaged point, f(sum w x / sum w) <= v. `w` is
    summed in place. Both sums run row after row; a sum that overflows
    gives a nonfinite entry, unwarned.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v = w * f_x
        for start, end in epochs:
            for sums in (v[start:end], w[start:end]):
                np.cumsum(sums, out=sums)
        return v / w


def _nondecreasing(x: np.ndarray, new_epoch: np.ndarray) -> bool:
    """x_{s-1} <= x_s up to the package tolerance within every epoch."""
    prev, cur = x[:-1], x[1:]
    # prev <= cur passes without the tolerance, a pair of -inf included
    return bool(np.all(new_epoch[1:] | (prev <= cur) | leq_with_tol(prev, cur)))


def evaluate(policy, ks, R: float, L: Optional[float], columns: dict,
             bracket: Optional[tuple] = None) -> tuple:
    """(bounds, certificates, undecided) of a run, from its per-iteration columns.

    `columns` maps ``epoch`` (the restart count), ``eta``, ``g_norm`` and
    ``f_x`` to one entry per iteration. Each epoch restarts the bounds and
    the means: t counts its rows and max||g|| runs over them. `bounds`
    holds one column per label of ``policy.bound_labels(ks, L)``, in its
    order, and no other. Given ``bracket = (low, high)``, each
    ``policy.certificates`` gap certificate is decided on the value mean
    v_k of its exponent (:func:`value_mean`, with the weights of
    :class:`~psg.averaging.WeightRule`), the quantity its bound is proven
    for: True iff proven by :func:`gap_verdict` over every row, or over the
    last row if its epoch has exactly the horizon; `undecided` names those
    neither proven nor refuted. Since f(mean_k) <= v_k and f_best <= v_k, a
    proven certificate also bounds the gap of the averaged point and of the
    best one. ``monotone_k<k>``, for k in ``policy.monotone_ks``, is True iff
    every eta_s is positive and finite and w_s / eta_s never decreases within
    an epoch.
    """
    eta = np.asarray(columns["eta"], dtype=np.float64)
    g_norm = np.asarray(columns["g_norm"], dtype=np.float64)
    epoch = np.asarray(columns["epoch"])
    new_epoch = np.ones(len(eta), dtype=bool)
    np.not_equal(epoch[1:], epoch[:-1], out=new_epoch[1:])
    # t and max||g|| restart with each epoch; each column is built in place
    t = np.arange(1.0, len(eta) + 1.0)
    max_g = np.empty(len(eta))
    starts = np.flatnonzero(new_epoch).tolist()
    epochs = list(zip(starts, starts[1:] + [len(eta)]))
    for start, end in epochs:
        t[start:end] -= start
        np.maximum.accumulate(g_norm[start:end], out=max_g[start:end])

    weak = {weak_label(k): float(k) for k in ks}
    lipschitz = {CLASSIC: classic_bound, CONSTANT: constant_bound, NESTEROV: nesterov_bound}
    bounds = {}
    for label in policy.bound_labels(ks, L):
        if label == FAMILY:
            bounds[label] = family_bound(R, t, max_g)
        elif label in weak:
            bounds[label] = _weak_column(weak[label], R, t, max_g, epochs)
        else:  # a bound of t and the Lipschitz bound L alone
            bounds[label] = lipschitz[label](R, L, t)

    certificates, undecided = {}, []
    certs = policy.certificates(ks, L) if bracket is not None else ()
    # the value mean of each exponent that a certificate reads
    means = {k: value_mean(WeightRule(k)(t, eta), columns["f_x"], epochs)
             for k in {cert.k for cert in certs}}
    for cert in certs:
        avg, bound = means[cert.k], bounds[cert.label]
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
        with np.errstate(over="ignore"):  # a ratio past the float range is inf
            ratio = WeightRule(k)(t, eta)
            ratio /= eta
        certificates[monotone_label(k)] = _nondecreasing(ratio, new_epoch)
    return bounds, certificates, undecided


def weak_label(k: float) -> str:
    """Canonical bound label for the k-weighted-mean certificate."""
    if not k >= -1:
        raise InvalidParameterError(f"k must be >= -1, got {k!r}")
    return f"weak_{scheme_label(k)}"


# Fixed labels for the remaining bounds/certificates.
CONSTANT = "constant"
CLASSIC = "classic"
NESTEROV = "nesterov"
FAMILY = "family"
PER_STEP = "per_step"


def monotone_label(k: float) -> str:
    """Label for the weight/step monotonicity invariant at exponent `k`."""
    return f"monotone_{scheme_label(k)}"
