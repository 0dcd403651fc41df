"""Projected subgradient main loop with runtime-checked convergence certificates."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bounds as bnd
from .averaging import BestIterate, StreamingAverage, WeightRule
from .core import (
    InvalidParameterError,
    IterationRecord,
    NumericError,
    ProblemInstance,
    RunReport,
    ShapeError,
    StopReason,
    ZeroSubgradientError,
    ensure_vector,
    leq_with_tol,
    scheme_label,
)
from .projection import project
from .stepsize import StepSizePolicy


def psg_step(x: np.ndarray, g: np.ndarray, eta: float, projector) -> np.ndarray:
    """One projected subgradient step: project(x - eta * g)."""
    if np.shape(x) != np.shape(g):
        raise ShapeError(f"x has shape {np.shape(x)}, g has shape {np.shape(g)}")
    if not eta > 0:
        raise InvalidParameterError(f"eta must be positive, got {eta!r}")
    return project(projector, x - eta * g)


@dataclass
class SolverConfig:
    """Configuration of one solver run.

    Validated on construction, like the problem and the policy; :func:`run`
    checks the initial point and the exponents once, before its loop.

    Parameters
    ----------
    max_iterations : int
        Iteration budget t.
    initial_point : array_like
        Starting point; projected onto the feasible set before the first
        iteration if it is not already feasible.
    policy : StepSizePolicy
        Step-size rule. The run works on a private copy, so the instance
        passed in is never mutated and can be reused.
    weight_ks : sequence of float
        Weight exponents k >= -1; one streaming average is maintained per
        entry. k = 0 (the plain running mean) is required for the
        uniform-average certificates. An empty sequence tracks no average:
        the run then costs its oracle calls, steps and projections only,
        makes no oracle call after its last iteration, and reports empty
        averaged points and values.
    record_trace : bool
        Keep one :class:`IterationRecord` per iteration. Implies evaluating
        the objective at every tracked average each iteration.
    restart_factor : float, optional
        When set (> 1) and the policy tracks a running scaled-norm maximum G,
        the run restarts (policy state, averages, and bound accumulators are
        reset; the iterate is kept) whenever G exceeds this factor times its
        value at the previous restart. Off by default.
    certify : bool
        Evaluate the applicable convergence certificates while running.
        Turning this off (together with ``record_trace=False``) skips all
        per-iteration objective evaluations at averaged points.
    """

    max_iterations: int
    initial_point: np.ndarray
    policy: StepSizePolicy
    weight_ks: Sequence[float] = (0.0,)
    record_trace: bool = False
    restart_factor: Optional[float] = None
    certify: bool = True

    def __post_init__(self):
        if not self.max_iterations >= 1:
            raise InvalidParameterError("max_iterations must be >= 1")
        if self.restart_factor is not None and not self.restart_factor > 1:
            raise InvalidParameterError("restart_factor must exceed 1 when set")


def run(problem: ProblemInstance, config: SolverConfig):
    """Run the projected subgradient method on `problem`.

    Iterates x_{s+1} = project(x_s - eta_s g_s) for s = 1..max_iterations,
    stopping early when the oracle reports an empty subdifferential (no
    descent information) or an exactly zero subgradient (x_s is a global
    minimizer; small norms carry no such certificate for nonsmooth
    objectives, so no threshold is applied).

    While running it maintains one weighted average per configured exponent
    k, the best iterate, and the convergence certificates that provably
    apply:

    * per-step descent inequality
      f(x_s) - f* <= (||x_s-x*||^2 - ||x_{s+1}-x*||^2) / (2 eta_s)
      + eta_s ||g_s||^2 / 2 (any rule; needs the optimum point),
    * the gap certificates the policy declares (``policy.certificates``),
      each at every iteration, or, for one with a horizon, once after
      exactly that many iterations at the report's averaged value,
    * monotonicity of w_s / eta_s at the exponents the policy declares
      (``policy.monotone_ks``).

    Gap certificates need f*, or a bracket around it. A known optimum value
    is the bracket [f*, f*]. Without one, when the projector has
    ``min_linear``, the run brackets f* itself at no oracle cost: every
    oracle call gives the minorant f(z) >= f(x_s) + <g_s, z - x_s>, and the
    minimum of their uniform mean over the feasible set is f_low <= f*
    (summed across restarts), while f* <= f_best. Each gap certificate keeps
    the one (f(x_avg_s), bound_s) pair that fails its tolerance check first
    whatever f* is, and is proven, refuted or undecided by checking
    f(x_avg_s) - f_low and f(x_avg_s) - f_best against bound_s after the
    loop (:class:`bounds.GapWatch`);
    ``certificates`` holds True only for proven ones, ``undecided`` names
    the undecided ones, and ``optimum_bracket`` is the bracket used.

    Per-iteration gap certificates and traces need the objective at every
    average in every iteration; a run with neither never evaluates it there.
    When the problem sets ``value_at_image``, those values come from the
    averaged oracle images without an oracle call; the report's averaged
    values always come from the oracle.

    Each iteration checks only what it produces: a finite oracle value, a
    subgradient of the right shape with a finite norm, the image contract
    (when read), a positive step, positive finite weights, one finite
    averaged point [x_s; image_s] for all K averages (updated in one step)
    and a finite x_s - eta_s g_s. Failures raise :class:`NumericError`
    naming the iteration (:class:`InvalidParameterError` for a bad step).

    Returns
    -------
    (RunReport, list of IterationRecord or None)
        The trace is None unless ``config.record_trace`` is set.
    """
    projector = problem.projector
    x = ensure_vector(config.initial_point, problem.dimension, "initial_point")
    x = project(projector, x)

    policy = copy.deepcopy(config.policy)
    policy.reset()

    ks = [float(k) for k in config.weight_ks]
    rules = [WeightRule(k) for k in ks]
    labels = [scheme_label(k) for k in ks]

    averages = StreamingAverage()
    trackers = [bnd.WeakBoundSums(k) for k in ks]
    best = BestIterate()

    R = problem.radius_R
    L = problem.lipschitz_L
    f_star = problem.known_optimum_value
    x_star = None
    if problem.known_optimum_point is not None:
        x_star = ensure_vector(problem.known_optimum_point, problem.dimension, "optimum")

    min_linear = getattr(projector, "min_linear", None)
    check_gap = config.certify and (f_star is not None or min_linear is not None)
    check_step = config.certify and x_star is not None and f_star is not None

    # Certificates start as vacuously true and are and-ed with every check;
    # gap certificates get their verdicts after the loop.
    certs: dict[str, bool] = {}
    if check_step:
        certs[bnd.PER_STEP] = True
    gap_certs = policy.certificates(ks, L) if check_gap else []
    certs.update((cert.label, True) for cert in gap_certs)
    watches = {cert.label: bnd.GapWatch() for cert in gap_certs}
    # (watch, label of the average it reads, bound label), per iteration
    running = [(watches[c.label], scheme_label(c.k), c.bound)
               for c in gap_certs if c.horizon is None]
    # sums of the minorants' slopes g_s and offsets f(x_s) - <g_s, x_s>
    sum_minorants = f_star is None and bool(gap_certs)
    g_sum = np.zeros(problem.dimension) if sum_minorants else None
    c_sum = 0.0
    minorants = 0
    monotone_ks = policy.monotone_ks(ks) if config.certify else ()
    monotone = [(i, bnd.monotone_label(k)) for i, k in enumerate(ks) if k in monotone_ks]
    certs.update((label, True) for _, label in monotone)

    need_values = config.record_trace or bool(running)
    # With the problem's image hook, each average runs over the stacked
    # vectors [x_s; image_s], and values at averages come from the averaged
    # image instead of an oracle call.
    value_at_image = problem.value_at_image if need_values and rules else None
    n = problem.dimension
    image_size: Optional[int] = None

    trace: Optional[list[IterationRecord]] = [] if config.record_trace else None

    max_g_global = 0.0
    epoch_max_g = 0.0
    s_local = 0
    G_ref: Optional[float] = None
    prev_ratio: list[Optional[float]] = [None] * len(ks)
    stop = StopReason.BUDGET_EXHAUSTED
    iterations_run = 0
    restart_factor = config.restart_factor

    for s in range(1, config.max_iterations + 1):
        res = problem.oracle(x)
        f_x = float(res.value)
        if not math.isfinite(f_x):
            raise NumericError(f"oracle returned nonfinite value at iteration {s}")
        if res.is_empty:
            stop = StopReason.EMPTY_SUBDIFFERENTIAL
            break
        g = np.asarray(res.subgradient, dtype=np.float64)
        if g.shape != x.shape:
            raise NumericError(f"oracle subgradient shape {g.shape} at iteration {s}")
        # np.linalg.norm's 1-D expression; finite only if every entry is finite
        g_norm = math.sqrt(float(g.dot(g)))
        if not math.isfinite(g_norm):
            raise NumericError(f"oracle subgradient has norm {g_norm} at iteration {s}")
        if sum_minorants:
            g_sum += g
            c_sum += f_x - float(g.dot(x))
            minorants += 1
        if value_at_image is None:
            point = x
        else:
            image = res.image
            if image is None or np.ndim(image) != 1:
                raise NumericError(f"oracle returned no image vector at iteration {s}")
            if image_size is None:
                image_size = len(image)
            elif len(image) != image_size:
                raise NumericError(f"oracle image has length {len(image)} at iteration {s},"
                                   f" {image_size} before")
            point = np.concatenate((x, image))

        s_local += 1
        stopping = g_norm == 0.0
        if stopping:
            # x is a global minimizer. Record it, then stop; when the policy
            # cannot produce a step without a subgradient norm (first
            # iteration of the family rule, or the norm-normalized rule),
            # stop immediately with only the best-iterate updated.
            try:
                eta = policy.step_size(s_local, g_norm)
            except ZeroSubgradientError:
                best.update(s, f_x, x)
                s_local -= 1  # the iteration never completed
                stop = StopReason.ZERO_SUBGRADIENT
                break
        else:
            eta = policy.step_size(s_local, g_norm)
        if not eta > 0:
            raise InvalidParameterError(f"step size {eta!r} is not positive at iteration {s}")

        best.update(s, f_x, x)
        if g_norm > max_g_global:
            max_g_global = g_norm
        if g_norm > epoch_max_g:
            epoch_max_g = g_norm

        if rules:
            weights = [rule(s_local, eta) for rule in rules]
            try:
                averages.update(np.array(weights), point)
            except NumericError as exc:
                raise NumericError(f"{exc} at iteration {s}") from None
            for tracker in trackers:
                tracker.push()

        y = x - eta * g
        if not np.isfinite(y).all():
            raise NumericError(f"step x - eta * g has nonfinite entries at iteration {s}")
        x_next = projector.project(y)

        if check_step:
            d_now = x - x_star
            d_next = x_next - x_star
            rhs = (float(d_now @ d_now) - float(d_next @ d_next)) / (2.0 * eta) \
                + 0.5 * eta * g_norm * g_norm
            if not leq_with_tol(f_x - f_star, rhs):
                certs[bnd.PER_STEP] = False

        for i, label in monotone:
            ratio = weights[i] / eta
            prev = prev_ratio[i]
            if prev is not None and not leq_with_tol(prev, ratio):
                certs[label] = False
            prev_ratio[i] = ratio

        if need_values:
            means = averages.mean if rules else ()
            if value_at_image is None:
                avg_vals = {label: problem.value(mean) for label, mean in zip(labels, means)}
            else:
                avg_vals = {label: float(value_at_image(mean[:n], mean[n:]))
                            for label, mean in zip(labels, means)}
            bound_vals = bnd.bound_values(R, L, s_local, epoch_max_g, trackers)
            for watch, avg_label, bound in running:
                watch.push(avg_vals[avg_label], bound_vals[bound])

        if trace is not None:
            trace.append(IterationRecord(
                s=s, eta=eta, g_norm=g_norm, big_G=policy.G, f_x=f_x,
                f_best=best.best_value, averaged_values=avg_vals, bounds=bound_vals))
        iterations_run = s

        if stopping:
            stop = StopReason.ZERO_SUBGRADIENT
            break

        G_now = policy.G
        if G_now is not None:
            if G_ref is None:
                G_ref = G_now
            elif restart_factor is not None and G_now > restart_factor * G_ref:
                G_ref = G_now
                policy.reset()
                averages = StreamingAverage()
                for tracker in trackers:
                    tracker.reset()
                s_local = 0
                epoch_max_g = 0.0
                prev_ratio = [None] * len(ks)

        x = x_next

    averaged_points = {}
    averaged_values = {}
    if averages.count > 0:
        for label, mean in zip(labels, averages.mean):
            averaged_points[label] = np.array(mean[:n])
            averaged_values[label] = problem.value(averaged_points[label])

    final_bounds = bnd.bound_values(R, L, s_local, epoch_max_g, trackers) if s_local else {}
    # a horizon-tuned bound applies only after exactly its horizon
    for cert in gap_certs:
        if cert.horizon is not None and s_local == cert.horizon:
            watches[cert.label].push(
                averaged_values[scheme_label(cert.k)], final_bounds[cert.bound])

    if f_star is not None:
        bracket = (f_star, f_star)
    elif minorants:
        bracket = ((c_sum + min_linear(g_sum)) / minorants, best.best_value)
    else:
        bracket = None
    undecided = []
    low, high = bracket or (-math.inf, math.inf)
    for label, watch in watches.items():
        verdict = watch.verdict(low, high)
        certs[label] = verdict == bnd.PROVEN
        if verdict == bnd.UNDECIDED:
            undecided.append(label)

    report = RunReport(
        problem=problem.name,
        policy=policy.label,
        iterations_run=iterations_run,
        stop_reason=stop,
        best_value=best.best_value,
        best_index=best.best_index,
        best_point=best.best_point,
        averaged_points=averaged_points,
        averaged_values=averaged_values,
        max_g_norm=max_g_global,
        bounds=final_bounds,
        certificates=certs,
        optimum_is_reference=problem.optimum_is_reference,
        optimum_bracket=bracket,
        undecided=undecided,
    )
    return report, trace
