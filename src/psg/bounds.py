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
:class:`Evaluator` is the one place a run's bounds and certificates are
computed, from its per-iteration columns fed a chunk of rows at a time, its
sums carried from one chunk to the next: by the solver as it runs, and by
``psg check`` as it reads a stored trace. So neither builds a temporary as
long as the run; :func:`evaluate` feeds it whole columns as one chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .averaging import WeightRule
from .core import (REL_TOL, VALUE_BLOCK_CAP, InvalidParameterError, leq_with_tol, power,
                   require_count, scheme_label)


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


def _accumulate(ufunc, x: np.ndarray, epochs, carried: dict, key) -> np.ndarray:
    """`x`, accumulated in place by `ufunc` row after row within each (start, end) of `epochs`.

    The range from row 0 continues from ``carried[key]`` when it is there,
    as one pass over the rows before it and these would; ``carried[key]``
    is then x's last entry.
    """
    if key in carried:
        x[0] = ufunc(carried[key], x[0])
    for start, end in epochs:
        ufunc.accumulate(x[start:end], out=x[start:end])
    carried[key] = x[-1]
    return x


def _weak_column(k: float, R: float, t, max_g, epochs, carried: dict) -> np.ndarray:
    """The weak bound over counts `t` that restart at each (start, end) row range of `epochs`.

    (t^((k+1)/2) + sum_low) / (2 sum_mid) * R * max_g, where sum_low and
    sum_mid add s^((k-1)/2) and s^(k/2) in ascending order within each
    range, the range from row 0 continuing the sums in `carried`
    (:func:`_accumulate`). Halving the quotient gives the bits of dividing
    by 2 sum_mid, but 2 sum_mid cannot overflow: a bound whose top term
    alone overflows is inf, not nan.
    """
    # terms and sums overflow to inf, and inf / inf is nan, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        sum_low = _accumulate(np.add, power(t, 0.5 * (k - 1.0)), epochs, carried, ("low", k))
        sum_mid = _accumulate(np.add, power(t, 0.5 * k), epochs, carried, ("mid", k))
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
    counts 1..t in one epoch: O(t) numpy work, done VALUE_BLOCK_CAP counts
    at a time with the sums carried over, so its memory does not grow with t.
    """
    weak_label(k)  # rejects k < -1
    require_count(t, "t")
    carried = {}
    for start in range(0, t, VALUE_BLOCK_CAP):
        counts = np.arange(start + 1.0, min(start + VALUE_BLOCK_CAP, t) + 1.0)
        column = _weak_column(float(k), R, counts, max_g_norm, [(0, len(counts))], carried)
    return column[-1]


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
    and ``psg check`` both form it here, from the same sums and the same
    high, the trace's final ``f_best`` (a run without rows has no trace and
    takes its best value), so their brackets agree bit for bit.
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


class _WorstPair:
    """The pair that :func:`gap_verdict` decides on, of the (avg_s, bound_s) chunks folded so far.

    It keeps whether every pair was finite, the first finite avg_s that
    the excess is taken relative to, and the first pair of largest excess
    with that excess: a chunk's pair replaces it only when its excess is
    larger, so the chunks give the pair of one pass over all of them.
    """

    provable, first, worst = True, None, None

    def fold(self, avg, bound) -> "_WorstPair":
        avg, bound = np.asarray(avg, dtype=np.float64), np.asarray(bound, dtype=np.float64)
        finite = np.isfinite(avg) & np.isfinite(bound)
        self.provable = self.provable and bool(finite.all())
        avg, bound = avg[finite], bound[finite]
        if len(avg):
            self.first = avg[0] if self.first is None else self.first
            excess = (avg - self.first) * (1.0 - REL_TOL) - bound
            i = int(np.argmax(excess))
            if self.worst is None or excess[i] > self.worst[0]:
                self.worst = (excess[i], float(avg[i]), float(bound[i]))
        return self

    def verdict(self, low: float, high: float) -> str:
        if self.worst is None:
            return PROVEN if self.provable else UNDECIDED
        _, avg, bound = self.worst
        if not leq_with_tol(avg - high, bound):
            return REFUTED
        # a crossed bracket means some subgradient gave no minorant
        proven = (self.provable and math.isfinite(low) and leq_with_tol(low, high)
                  and leq_with_tol(avg - low, bound))
        return PROVEN if proven else UNDECIDED


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
    return _WorstPair().fold(avg, bound).verdict(low, high)


def value_mean(w: np.ndarray, f_x: np.ndarray, epochs, carried=None) -> np.ndarray:
    """v_s = sum_{r<=s} w_r f(x_r) / sum_{r<=s} w_r within each (start, end) row range of `epochs`.

    The weighted value mean that every gap bound is proven for; Jensen
    carries it to the averaged point, f(sum w x / sum w) <= v. `w` is
    summed in place. Both sums run row after row, the range from row 0
    continuing those in `carried` (:func:`_accumulate`); a sum that
    overflows gives a nonfinite entry, unwarned.
    """
    carried = {} if carried is None else carried
    with np.errstate(over="ignore", invalid="ignore"):
        v = _accumulate(np.add, w * f_x, epochs, carried, "v")
        return v / _accumulate(np.add, w, epochs, carried, "w")


class Evaluator:
    """The bounds and certificates of a run, from its per-iteration columns fed a chunk at a time.

    :meth:`feed` takes the next rows of the columns that :func:`evaluate`
    reads and returns their bound columns; :meth:`verdicts` decides the
    certificates on every row fed. What carries from one chunk to the next
    is the last row's epoch and, within that epoch, t, max||g||, the weak
    bounds' power sums, each value mean's sums and each last w_s / eta_s
    (``carried``, emptied when a chunk starts an epoch); per gap
    certificate, its worst pair (:class:`_WorstPair`); and per monotone
    exponent, whether it has held. Every carried sum adds row after row, as
    one pass does, so the bounds and verdicts keep their bits whatever the
    chunks. Certifying a run costs memory per chunk, not per row.
    """

    def __init__(self, policy, ks, R: float, L: Optional[float]):
        self.R, self.L, self.labels = R, L, policy.bound_labels(ks, L)
        self.weak = {weak_label(k): float(k) for k in ks}
        self.certs = policy.certificates(ks, L)
        self.worst = {cert.label: _WorstPair() for cert in self.certs}
        self.monotone = dict.fromkeys(policy.monotone_ks(ks), True)
        self.epoch, self.carried = math.nan, {}

    def feed(self, columns: dict) -> dict:
        """The bounds of the next rows, one column per label of ``policy.bound_labels``."""
        eta = np.asarray(columns["eta"], dtype=np.float64)
        if not len(eta):
            return {label: np.empty(0) for label in self.labels}
        # begins[s]: row s begins an epoch; begins[0]: nothing carries over
        epoch = np.asarray(columns["epoch"])
        begins = np.concatenate(([epoch[0] != self.epoch], epoch[1:] != epoch[:-1]))
        carried = self.carried = {} if begins[0] else self.carried
        self.epoch = epoch[-1]
        starts = [0, *(np.flatnonzero(begins[1:]) + 1).tolist()]
        epochs = list(zip(starts, starts[1:] + [len(eta)]))
        # t and max||g|| restart with each epoch
        t = _accumulate(np.add, np.ones(len(eta)), epochs, carried, "t")
        max_g = _accumulate(np.maximum, np.array(columns["g_norm"], float), epochs, carried, "g")
        bounds = {}
        for label in self.labels:  # family's and the weak bounds read max||g||, the others L
            k = self.weak.get(label)
            bounds[label] = (_weak_column(k, self.R, t, max_g, epochs, carried) if k is not None
                             else family_bound(self.R, t, max_g) if label == FAMILY
                             else _LIPSCHITZ_BOUNDS[label](self.R, self.L, t))

        # the value mean of each exponent that a certificate reads
        means = {k: value_mean(WeightRule(k)(t, eta), columns["f_x"], epochs,
                               carried.setdefault(("mean", k), {}))
                 for k in {cert.k for cert in self.certs}}
        for cert in self.certs:
            avg, bound = means[cert.k], bounds[cert.label]
            if cert.horizon is not None:  # the last row, if its epoch has exactly the horizon
                self.worst[cert.label] = _WorstPair()
                avg, bound = (avg[-1:], bound[-1:]) if t[-1] == cert.horizon else ((), ())
            self.worst[cert.label].fold(avg, bound)
        # a zero, negative or nonfinite step has no ratio: every k fails, unwarned
        if not np.all((eta > 0) & (eta < math.inf)):
            self.monotone = dict.fromkeys(self.monotone, False)
        for k in [k for k, held in self.monotone.items() if held]:
            with np.errstate(over="ignore"):  # a ratio past the float range is inf
                ratio = WeightRule(k)(t, eta) / eta
            # each ratio against the one before it, up to the package tolerance;
            # prev <= ratio passes without it, a pair of -inf included
            prev = np.concatenate(([carried.get(("ratio", k), math.nan)], ratio[:-1]))
            carried[("ratio", k)] = ratio[-1]
            self.monotone[k] = bool((begins | (prev <= ratio) | leq_with_tol(prev, ratio)).all())
        return bounds

    def verdicts(self, bracket: Optional[tuple]) -> tuple:
        """(certificates, undecided) over the rows fed so far, gap certificates against `bracket`.

        Each gap certificate is True iff :func:`gap_verdict` proves it, over
        every row, or over the last row if its epoch has exactly the
        certificate's horizon; `undecided` names those neither proven nor
        refuted. Without a bracket (None) f* is unbounded, so a certificate
        with a row to decide it on is undecided. ``monotone_k<k>`` is True
        iff every eta_s is positive and finite and w_s / eta_s never
        decreases within an epoch.
        """
        low, high = bracket or (-math.inf, math.inf)
        verdicts = {label: worst.verdict(low, high) for label, worst in self.worst.items()}
        certificates = {label: verdict == PROVEN for label, verdict in verdicts.items()}
        certificates.update((monotone_label(k), held) for k, held in self.monotone.items())
        return certificates, [label for label, verdict in verdicts.items() if verdict == UNDECIDED]


def evaluate(policy, ks, R: float, L: Optional[float], columns: dict,
             bracket: Optional[tuple] = None) -> tuple:
    """(bounds, certificates, undecided) of a run, from its per-iteration columns as one chunk.

    `columns` maps ``epoch`` (the restart count), ``eta``, ``g_norm`` and
    ``f_x`` to one entry per iteration. Each epoch restarts the bounds and
    the means: t counts its rows and max||g|| runs over them. `bounds`
    holds one column per label of ``policy.bound_labels(ks, L)``, in its
    order, and no other. Each ``policy.certificates`` gap certificate is
    decided against ``bracket = (low, high)``, or an unbounded f* without
    one, on the value mean v_k of its exponent (:func:`value_mean`, with
    the weights of :class:`~psg.averaging.WeightRule`), the quantity its
    bound is proven for (:meth:`Evaluator.verdicts`). Since f(mean_k) <=
    v_k and f_best <= v_k, a proven certificate also bounds the gap of the
    averaged point and of the best one. :class:`Evaluator` gives the same
    bits fed the rows a chunk at a time, as the solver and ``psg check``
    feed them.
    """
    evaluator = Evaluator(policy, ks, R, L)
    bounds = evaluator.feed(columns)
    return (bounds, *evaluator.verdicts(bracket))


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
# The bounds of t and the Lipschitz bound L alone, by label
_LIPSCHITZ_BOUNDS = {CLASSIC: classic_bound, CONSTANT: constant_bound, NESTEROV: nesterov_bound}


def monotone_label(k: float) -> str:
    """Label for the weight/step monotonicity invariant at exponent `k`."""
    return f"monotone_{scheme_label(k)}"
