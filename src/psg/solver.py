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
    ABS_TOL,
    VALUE_ROUNDING,
    InvalidParameterError,
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

# Iterations whose points are fed to the K averages in one update, and whose
# averages are then valued together: one weight computation, one update and
# one value_at_image call per block instead of per iteration. Holds
# 64 (K + 1) (n + m) floats; changes no output value.
VALUE_BLOCK = 64


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
        uniform-average certificates. An empty sequence is the lean run: it
        tracks no average, so no policy declares a gap or monotone
        certificate for it; it costs its oracle calls, steps and
        projections only, makes no oracle call after its last iteration,
        and reports empty averaged points and values.
    record_trace : bool
        Return the run's trace: one column per quantity, one entry per
        iteration (see :func:`run`). Implies evaluating the objective at
        every tracked average each iteration.
    restart_factor : float, optional
        When set (> 1) and the policy tracks a running scaled-norm maximum G,
        the run restarts (policy state and averages are reset, a new epoch
        of the bounds begins, the iterate is kept) whenever G exceeds this
        factor times its value at the previous restart. Off by default.
        The report gives the averages and bounds of the last epoch that
        has rows.
    """

    max_iterations: int
    initial_point: np.ndarray
    policy: StepSizePolicy
    weight_ks: Sequence[float] = (0.0,)
    record_trace: bool = False
    restart_factor: Optional[float] = None

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
    k and the best iterate, checks the per-step descent inequality
    f(x_s) - f* <= (||x_s-x*||^2 - ||x_{s+1}-x*||^2) / (2 eta_s)
    + eta_s ||g_s||^2 / 2 (any rule; needs the optimum point; f_x - f* may
    carry the rounding of f), and records per iteration the epoch (restarts
    so far), eta_s, ||g_s|| and, when a trace or a per-iteration certificate
    needs them, the values at the averages. After the loop
    :func:`bounds.evaluate` turns those columns into every bound and into
    the verdicts of the gap certificates the policy declares
    (``policy.certificates``) and of the monotonicity of w_s / eta_s
    (``policy.monotone_ks``); ``psg check`` runs it on a stored trace.

    Gap certificates need f*, or a bracket around it. A known optimum value
    is the bracket [f*, f*]. Without one, when the projector has
    ``min_linear``, the run brackets f* itself at no oracle cost: every
    oracle call gives the minorant f(z) >= f(x_s) + <g_s, z - x_s>, and the
    minimum of their uniform mean over the feasible set is f_low <= f*
    (summed across restarts), while f* <= f_best. Each gap certificate is
    proven, refuted or undecided (:func:`bounds.gap_verdict`);
    ``certificates`` holds True only for proven ones, ``undecided`` names
    the undecided ones, and ``optimum_bracket`` is the bracket used.

    The averages are fed a block at a time: each iteration only writes its
    point [x_s; image_s] into a ``VALUE_BLOCK``-row buffer, and every
    ``VALUE_BLOCK`` iterations, before a restart and after the loop, the
    block's weights are formed and one :meth:`StreamingAverage.update` runs
    the recurrence over its rows, with the bits of one update per iteration.
    When the problem sets ``value_at_image``, the values at the averages
    then come from the averaged oracle images without an oracle call, one
    call on the block's stacked averages; the report's averaged values
    always come from the oracle. Each iteration checks only what it
    produces: a finite oracle value, a subgradient of the right shape with a
    finite norm, the image contract and a finite image (when read), a
    positive finite step and a finite x_s - eta_s g_s; x_s is then finite by
    construction, and so is every weight with k <= 0. Failures raise
    :class:`NumericError` naming the iteration (:class:`InvalidParameterError`
    for a nonpositive step), as does a weight s^(k/2), or a running total of
    the weights, that overflows.

    Returns
    -------
    (RunReport, dict or None)
        The trace is None unless ``config.record_trace`` is set. It maps the
        columns of the trace CSV, in its order, to float arrays with one entry
        per iteration: ``s, epoch, eta, g_norm, G, f_x, f_best``,
        ``f_avg_k<k>`` per weight exponent (the value at the k-weighted mean),
        ``bound_family`` and ``bound_weak_k<k>`` per exponent. ``G`` is nan
        for rules that do not track it.
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
    best = BestIterate()

    L = problem.lipschitz_L
    f_star = problem.known_optimum_value
    x_star = None
    if problem.known_optimum_point is not None:
        x_star = ensure_vector(problem.known_optimum_point, problem.dimension, "optimum")

    min_linear = getattr(projector, "min_linear", None)
    check_gap = f_star is not None or min_linear is not None
    check_step = x_star is not None and f_star is not None
    per_step = True

    gap_certs = policy.certificates(ks, L) if check_gap else []
    # sums of the minorants' slopes g_s and offsets f(x_s) - <g_s, x_s>
    sum_minorants = f_star is None and bool(gap_certs)
    g_sum = np.zeros(problem.dimension) if sum_minorants else None
    c_sum = 0.0
    minorants = 0

    need_values = config.record_trace or any(c.horizon is None for c in gap_certs)
    # With the problem's image hook, each average runs over the stacked
    # vectors [x_s; image_s], and values at averages come from the averaged
    # image instead of an oracle call.
    value_at_image = problem.value_at_image if need_values and rules else None
    n = problem.dimension
    image_size: Optional[int] = None
    # the points [x_s; image_s] of the last `rows` iterations, oldest first,
    # not yet fed to the averages, and the K averages after each of them
    points: Optional[np.ndarray] = None
    block: Optional[np.ndarray] = None
    rows = 0

    # one entry per iteration; the trace, the bounds and the certificates are
    # computed from these after the loop
    epochs: list[int] = []
    etas: list[float] = []
    g_norms: list[float] = []
    big_Gs: list[Optional[float]] = []
    f_xs: list[float] = []
    avg_cols: list[list[float]] = [[] for _ in labels]

    def append_values(means):
        """Append the values at the averages `means` (iterations x K x d) to avg_cols."""
        if value_at_image is None:
            values = [[problem.value(mean) for mean in row] for row in means]
        else:
            values = np.asarray(value_at_image(means[..., :n], means[..., n:]),
                                dtype=np.float64)
            if values.shape != means.shape[:2]:
                raise NumericError(f"value_at_image gave shape {values.shape}, not one value"
                                   f" per average {means.shape[:2]}")
            values = values.tolist()
        for col, col_values in zip(avg_cols, zip(*values)):
            col.extend(col_values)

    def flush():
        """Feed the pending rows to the averages, then value them when needed."""
        nonlocal rows
        if not rows:
            return
        s_first = s_local - rows + 1  # the rows hold iterations s_first..s_local of the epoch
        block_etas = etas[-rows:]
        weights = np.empty((rows, len(rules)))
        try:
            for j, rule in enumerate(rules):
                weights[:, j] = rule.over(s_first, block_etas)
            averages.update(weights, points[:rows], out=block[:rows])
        except OverflowError:
            # name the first iteration whose weight, or running total weight,
            # overflows: Python floats sum in the order of the update's cumsum
            totals = np.broadcast_to(averages.total_weight, len(rules)).tolist()
            for i, eta in enumerate(block_etas):
                for j, rule in enumerate(rules):
                    try:
                        w = rule(s_first + i, eta)
                    except OverflowError:
                        w = inf
                    totals[j] += w
                    if totals[j] == inf:
                        what = "weight" if w == inf else "total weight"
                        raise NumericError(f"{what} of k={rule.k:g} overflows at iteration"
                                           f" {len(etas) - rows + 1 + i}") from None
            raise
        if need_values:
            append_values(block[:rows])
        rows = 0

    epoch = 0
    s_local = 0
    inf = math.inf
    G_ref: Optional[float] = None
    stop = StopReason.BUDGET_EXHAUSTED
    restart_factor = config.restart_factor
    if check_step:
        d_now = x - x_star
        dist_now = float(d_now @ d_now)  # ||x_s - x*||^2, carried to the next iteration

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
        if value_at_image is not None:
            image = res.image
            if image is None or np.ndim(image) != 1:
                raise NumericError(f"oracle returned no image vector at iteration {s}")
            if image_size is None:
                image_size = len(image)
            elif len(image) != image_size:
                raise NumericError(f"oracle image has length {len(image)} at iteration {s},"
                                   f" {image_size} before")
            # a finite squared norm proves every entry finite; vdot never warns
            if image_size and not (math.isfinite(np.vdot(image, image))
                                   or np.isfinite(image).all()):
                raise NumericError(f"oracle image has nonfinite entries at iteration {s}")

        try:
            eta = policy.step_size(s_local + 1, g_norm)
        except ZeroSubgradientError:
            if g_norm != 0.0:
                raise
            # x is a global minimizer that the rule cannot step from (first
            # iteration of the family rule, or the norm-normalized rule):
            # stop with only the best iterate updated, recording no row
            best.update(s, f_x, x)
            stop = StopReason.ZERO_SUBGRADIENT
            break
        s_local += 1
        if not 0.0 < eta < inf:
            if not eta > 0:
                raise InvalidParameterError(f"step size {eta!r} is not positive at iteration {s}")
            raise NumericError(f"step size {eta!r} is not finite at iteration {s}")

        best.update(s, f_x, x)
        if rules:
            if s_local == 1:
                # an epoch's averages start at its first row, so that a run
                # whose last epoch has none reports the epoch before
                averages = StreamingAverage()
            # x is finite: the start is checked, every later x is a projection
            # of a finite step
            if points is None:
                width = n + (image_size or 0)
                points = np.empty((VALUE_BLOCK, width))
                block = np.empty((VALUE_BLOCK, len(rules), width))
            if image_size:
                points[rows, :n] = x
                points[rows, n:] = image
            else:  # no image, or an empty one
                points[rows] = x
            rows += 1

        y = x - eta * g
        # a finite squared norm proves every entry finite; vdot never warns
        if not (math.isfinite(np.vdot(y, y)) or np.isfinite(y).all()):
            raise NumericError(f"step x - eta * g has nonfinite entries at iteration {s}")
        x_next = projector.project(y)

        if check_step and per_step:
            d_next = x_next - x_star
            dist_next = float(d_next @ d_next)
            rhs = (dist_now - dist_next) / (2.0 * eta) + 0.5 * eta * g_norm * g_norm
            # f_x - f* also carries the rounding of f at its own magnitude
            rounding = VALUE_ROUNDING * max(abs(f_x), abs(f_star))
            per_step = bool(leq_with_tol(f_x - f_star, rhs, abs_=ABS_TOL + rounding))
            dist_now = dist_next

        epochs.append(epoch)
        etas.append(eta)
        g_norms.append(g_norm)
        big_Gs.append(policy.G)
        f_xs.append(f_x)
        if rows == VALUE_BLOCK:
            flush()

        if g_norm == 0.0:  # x is a global minimizer: its row is recorded, then the run stops
            stop = StopReason.ZERO_SUBGRADIENT
            break

        G_now = policy.G
        if G_now is not None:
            if G_ref is None:
                G_ref = G_now
            elif restart_factor is not None and G_now > restart_factor * G_ref:
                G_ref = G_now
                flush()
                policy.reset()
                s_local = 0
                epoch += 1

        x = x_next

    flush()

    averaged_points = {}
    averaged_values = {}
    if averages.count > 0:
        for label, mean in zip(labels, averages.mean):
            averaged_points[label] = np.array(mean[:n])
            averaged_values[label] = problem.value(averaged_points[label])

    if f_star is not None:
        bracket = (f_star, f_star)
    elif minorants:
        bracket = ((c_sum + min_linear(g_sum)) / minorants, best.best_value)
    else:
        bracket = None

    if not need_values:  # only a horizon certificate reads an average: the final one
        for col, value in zip(avg_cols, averaged_values.values()):
            col.append(value)
    columns = {"s": range(1, len(etas) + 1), "epoch": epochs, "eta": etas, "g_norm": g_norms,
               "G": big_Gs, "f_x": f_xs, "f_best": np.minimum.accumulate(f_xs)}
    columns.update((f"f_avg_{label}", col) for label, col in zip(labels, avg_cols))
    # None (a rule without G) becomes nan
    columns = {name: np.array(col, dtype=np.float64) for name, col in columns.items()}
    gap_bracket = (bracket or (-math.inf, math.inf)) if check_gap else None
    bounds, verdicts, undecided = bnd.evaluate(policy, ks, problem.radius_R, L, columns,
                                               gap_bracket)
    certs = {bnd.PER_STEP: per_step} if check_step else {}
    certs.update(verdicts)
    # the last row belongs to the last epoch that has rows
    final_bounds = {label: float(col[-1]) for label, col in bounds.items()} if etas else {}
    trace = None
    if config.record_trace:
        trace = columns | {f"bound_{label}": bounds[label]
                           for label in (bnd.FAMILY, *map(bnd.weak_label, ks))}

    report = RunReport(
        problem=problem.name,
        policy=policy.label,
        iterations_run=len(etas),
        stop_reason=stop,
        best_value=best.best_value,
        best_index=best.best_index,
        best_point=best.best_point,
        averaged_points=averaged_points,
        averaged_values=averaged_values,
        max_g_norm=max(g_norms, default=0.0),
        bounds=final_bounds,
        certificates=certs,
        optimum_bracket=bracket,
        undecided=undecided,
    )
    return report, trace
