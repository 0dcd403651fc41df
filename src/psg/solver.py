"""Projected subgradient main loop with runtime-checked convergence certificates."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bounds as bnd
from .averaging import StreamingAverage, WeightRule
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

# Iterations whose points are fed to the K averages in one update, whose
# averages are then valued together, and whose per-step inequalities are
# decided together: one weight computation, one update, one value_at_image
# call and one per-step check per block instead of per iteration. Holds
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
        projections only (plus a copy of x_s per iteration when the
        per-step inequality is checked), makes no oracle call after its last
        iteration, and reports empty averaged points and values.
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

    The bookkeeping runs a block at a time: each iteration only writes its
    point [x_s; image_s] and its g_s into ``VALUE_BLOCK``-row buffers, and
    every ``VALUE_BLOCK`` iterations, before a restart and after the loop,
    the block's images are checked, its minorants summed in iteration order
    (the bits of one sum per iteration), its weights formed, and one
    :meth:`StreamingAverage.update` writes the averages after each of its
    rows as one prefix sum. With ``value_at_image`` the values at the
    averages come from the averaged images, one call per block; the report's
    averaged values always come from the oracle. The per-step inequality is
    decided per block too, with the bits of one check per iteration. The
    best iterate is kept by reference and copied once. Each iteration checks
    a finite oracle value, a subgradient of the right shape with a finite
    norm, the image contract, a positive finite step and a finite
    x_s - eta_s g_s (proven by eta_s ||g_s|| < 2^960 alone when it holds);
    x_s is then finite by construction, and so is every weight with k <= 0.
    Failures raise :class:`NumericError` naming the iteration
    (:class:`InvalidParameterError` for a nonpositive step), a nonfinite
    image before any later failure, as does a weight s^(k/2), or a running
    total of the weights, that overflows.

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
    # the best iterate by reference (x is never changed in place), copied
    # once after the loop; ties keep the earliest index
    best_value, best_index, best_x = math.inf, 0, None

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
    n = problem.dimension
    # the minorants' slopes g_s and offsets f(x_s) - <g_s, x_s>: summed (row 0), pending
    sums = np.zeros((VALUE_BLOCK + 1, n + 1)) if f_star is None and gap_certs else None
    minorants = 0

    need_values = config.record_trace or any(c.horizon is None for c in gap_certs)
    # With the problem's image hook, each average runs over the stacked
    # vectors [x_s; image_s], and values at averages come from the averaged
    # image instead of an oracle call.
    value_at_image = problem.value_at_image if need_values and rules else None
    image_size: Optional[int] = None
    # the points [x_s; image_s] of the last `rows` iterations, oldest first,
    # not yet fed to the averages or checked by the per-step inequality, and
    # the K averages after each of them
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

    def check_per_step(x_after):
        """The per-step inequality at each pending row, x_after following the last one.

        :func:`leq_with_tol` elementwise, with the bits of one check per
        iteration: ``+ - * /`` round as on Python floats, and each squared
        distance is the dot product ``d @ d`` as a batched matmul.
        """
        nonlocal per_step
        eta, g_norm = np.array(etas[-rows:]), np.array(g_norms[-rows:])
        f_x = np.array(f_xs[-rows:])
        # an overflow gives the nonfinite sides that a check per iteration gives
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.vstack([points[:rows, :n], x_after]) - x_star
            dist = (d[:, None, :] @ d[:, :, None])[:, 0, 0]  # ||x_s - x*||^2, s..s+rows
            rhs = (dist[:-1] - dist[1:]) / (2.0 * eta) + 0.5 * eta * g_norm * g_norm
            # f_x - f* also carries the rounding of f at its own magnitude
            abs_ = ABS_TOL + VALUE_ROUNDING * np.maximum(np.abs(f_x), abs(f_star))
            ok = leq_with_tol(f_x - f_star, rhs, abs_=abs_)
        per_step = bool(ok.all())

    def check_images(count):
        """Raise for the first nonfinite image among the first `count` pending rows."""
        if image_size:
            finite = np.isfinite(points[:count, n:]).all(axis=1)
            if not finite.all():
                raise NumericError("oracle image has nonfinite entries at iteration"
                                   f" {len(etas) - rows + 1 + int(finite.argmin())}")

    def flush(x_after):
        """Check the pending rows, sum their minorants, feed them to the averages, value them."""
        nonlocal rows, minorants
        if not rows:
            return
        check_images(rows)
        if check_step and per_step:
            check_per_step(x_after)
        if sums is not None:
            g, x_s = sums[1:rows + 1, :n], points[:rows, :n]
            sums[1:rows + 1, n] = np.array(f_xs[-rows:]) - (g[:, None] @ x_s[..., None])[:, 0, 0]
            # g_s.dot(x_s) by batched matmul, then sums row after row per column
            # (n + 1 >= 2 columns): the bits of one dot and one sum per iteration
            sums[0] = np.add.reduce(sums[:rows + 1], axis=0)
            minorants += rows
        if not rules:
            rows = 0
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
    # the rows are buffered for the averages, the per-step check and the minorants
    buffer_rows = bool(rules) or check_step or sums is not None

    try:
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
            if value_at_image is not None:
                image = res.image
                if image is None or np.ndim(image) != 1:
                    raise NumericError(f"oracle returned no image vector at iteration {s}")
                if image_size is None:
                    image_size = len(image)
                elif len(image) != image_size:
                    raise NumericError(f"oracle image has length {len(image)} at iteration {s},"
                                       f" {image_size} before")
            if buffer_rows:
                # x is finite: the start is checked, every later x is a projection of
                # a finite step. Written before the step, for the image check's sake.
                if points is None:
                    width = n + (image_size or 0)
                    points = np.zeros((VALUE_BLOCK, width))
                    block = np.empty((VALUE_BLOCK, len(rules), width)) if rules else None
                points[rows, :n] = x
                if image_size:
                    points[rows, n:] = image
                if sums is not None:
                    sums[rows + 1, :n] = g

            try:
                eta = policy.step_size(s_local + 1, g_norm)
            except ZeroSubgradientError:
                if g_norm != 0.0:
                    raise
                # x is a global minimizer that the rule cannot step from (first
                # iteration of the family rule, or the norm-normalized rule):
                # stop with the best iterate and the minorants updated, recording no row
                if f_x < best_value:
                    best_value, best_index, best_x = f_x, s, x
                check_images(rows + 1)
                if sums is not None:  # summed after the pending rows
                    flush(x)
                    sums[0] += np.append(g, f_x - float(g.dot(x)))
                    minorants += 1
                stop = StopReason.ZERO_SUBGRADIENT
                break
            s_local += 1
            if not 0.0 < eta < inf:
                if not eta > 0:
                    raise InvalidParameterError(
                        f"step size {eta!r} is not positive at iteration {s}")
                raise NumericError(f"step size {eta!r} is not finite at iteration {s}")

            if f_x < best_value:
                best_value, best_index, best_x = f_x, s, x
            if s_local == 1 and rules:
                # an epoch's averages start at its first row, so that a run
                # whose last epoch has none reports the epoch before
                averages = StreamingAverage()

            y = x - eta * g
            # |fl(eta g_i)| < 2^961 cannot carry a finite x_i past the largest float;
            # else a finite squared norm proves every entry finite (vdot never warns)
            if not (eta * g_norm < 2.0 ** 960 or math.isfinite(np.vdot(y, y))
                    or np.isfinite(y).all()):
                raise NumericError(f"step x - eta * g has nonfinite entries at iteration {s}")
            # from here on x is x_{s+1}, which the per-step check of row s reads
            x = projector.project(y)

            G_now = policy.G
            epochs.append(epoch)
            etas.append(eta)
            g_norms.append(g_norm)
            big_Gs.append(G_now)
            f_xs.append(f_x)
            if buffer_rows:
                rows += 1
                if rows == VALUE_BLOCK:
                    flush(x)

            if g_norm == 0.0:  # x_s is a global minimizer: its row is recorded, then the run stops
                stop = StopReason.ZERO_SUBGRADIENT
                break

            if G_now is not None:
                if G_ref is None:
                    G_ref = G_now
                elif restart_factor is not None and G_now > restart_factor * G_ref:
                    G_ref = G_now
                    flush(x)
                    policy.reset()
                    s_local = 0
                    epoch += 1
    except (NumericError, InvalidParameterError):
        # a nonfinite image fails first; row `rows` is this iteration's, a checked one, or zeros
        check_images(rows + 1)
        raise

    flush(x)

    averaged_points = {}
    averaged_values = {}
    if averages.count > 0:
        for label, mean in zip(labels, averages.mean):
            averaged_points[label] = np.array(mean[:n])
            averaged_values[label] = problem.value(averaged_points[label])

    minorant_sums = None
    if f_star is not None:
        bracket = (f_star, f_star)
    elif minorants:
        c_sum, g_sum = float(sums[0, n]), sums[0, :n]
        minorant_sums = {"g_sum": g_sum.tolist(), "c_sum": c_sum, "count": minorants}
        bracket = ((c_sum + min_linear(g_sum)) / minorants, best_value)
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
        best_value=best_value,
        best_index=best_index,
        best_point=None if best_x is None else np.array(best_x, dtype=np.float64),
        averaged_points=averaged_points,
        averaged_values=averaged_values,
        max_g_norm=max(g_norms, default=0.0),
        bounds=final_bounds,
        certificates=certs,
        optimum_bracket=bracket,
        undecided=undecided,
        minorant_sums=minorant_sums,
    )
    return report, trace
