"""Projected subgradient main loop with runtime-checked convergence certificates."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import bounds as bnd
from .averaging import StreamingAverage, WeightRule
from .core import (
    ABS_TOL,
    VALUE_BLOCK_CAP,
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
    repeated_scheme,
    require_count,
    scheme_label,
)
from .projection import project
from .stepsize import StepSizePolicy

# Iterations whose points are fed to the K averages in one update, and whose
# per-step inequalities and minorants are handled together: one weight
# computation, one update and one per-step check per block instead of per
# iteration. A block holds as many rows as fit VALUE_BLOCK_BYTES, but never
# fewer than VALUE_BLOCK nor more than VALUE_BLOCK_CAP (see block_rows).
# The length changes no output value but the averages' last bits.
VALUE_BLOCK = 64
VALUE_BLOCK_BYTES = 2 ** 18


def block_rows(n: int, minorants: bool) -> int:
    """Rows of a run's bookkeeping block, from the width of one buffered row.

    A row costs n floats for its point x_s, plus n + 1 for g_s and its
    offset when the minorants are summed. The number of averages does not
    count, so that an exponent tracked beside others sees the block
    boundaries it sees alone.
    """
    row_bytes = 8 * (n + (n + 1 if minorants else 0))
    return min(VALUE_BLOCK_CAP, max(VALUE_BLOCK, VALUE_BLOCK_BYTES // row_bytes))


def trace_columns(bound_labels: Iterable[str]) -> list:
    """The names of a trace's columns, in order, for the run's bound labels.

    ``s, epoch, eta, g_norm, G, f_x, f_best``, then ``bound_<label>`` per
    label: the columns of the trace that :func:`run` returns, of the files
    that ``psg run`` writes and that ``psg check`` reads.
    """
    return ["s", "epoch", "eta", "g_norm", "G", "f_x", "f_best",
            *(f"bound_{label}" for label in bound_labels)]


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
        certificate for it; it costs its oracle calls (at most one per
        iteration, and none for an iterate equal to the last point
        evaluated), steps and projections only (plus a copy of x_s per
        iteration when the per-step inequality is checked), makes no oracle
        call after its last iteration, and reports empty averaged points and
        values.
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
    restart_factor: Optional[float] = None

    def __post_init__(self):
        require_count(self.max_iterations, "max_iterations")
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
    so far), eta_s, ||g_s||, G and f(x_s). A :class:`bounds.Evaluator` turns
    those columns into the bounds the policy declares
    (``policy.bound_labels``) and into the verdicts of its gap certificates
    (``policy.certificates``), decided on the weighted value means, and of
    the monotonicity of w_s / eta_s (``policy.monotone_ks``); ``psg check``
    feeds one the same columns from a stored trace. The averaged points are
    valued once, after the loop.

    Gap certificates need f*, or a bracket around it. A known optimum value
    is the bracket [f*, f*]. Without one, when the projector has
    ``min_linear``, the run brackets f* itself at no oracle cost: the
    oracle's answer at each iterate gives the minorant
    f(z) >= f(x_s) + <g_s, z - x_s>, one per iteration, and the
    minimum of their uniform mean over the feasible set is f_low <= f*
    (summed across restarts), while f* <= f_best, the trace's final
    ``f_best`` (the best value of a run that recorded no row);
    :func:`bounds.bracket` forms the bracket from the same arguments as
    ``psg check`` does from the trace and its header. The minorants are
    summed only when f* is unknown, the projector has ``min_linear`` and
    the policy declares a gap certificate. Each gap certificate is proven,
    refuted or undecided (:func:`bounds.gap_verdict`); without a bracket,
    one with a row to decide it on is undecided. ``certificates`` holds True
    only for proven ones, ``undecided`` names the undecided ones, and
    ``optimum_bracket`` is the bracket used, or None.

    The oracle is called at most once per iteration, and not at all for an
    iterate equal to the last point evaluated: a one-entry memo keeps the
    bytes of that point (``x.tobytes()``, so -0.0 and 0.0 differ), and an
    iterate with the same bytes reuses the last answer and everything the
    loop derived and checked from it. The final values at the averaged
    points go through the same memo. An oracle is a function of x (see
    :class:`ProblemInstance`), so no output changes; ``oracle_calls`` in
    the report counts the calls made, final values included.

    The bookkeeping runs a block at a time: each iteration only writes its
    point x_s and its g_s into buffers of :func:`block_rows` rows (64 to
    4096 rows of at most 256 KiB of points and minorants), and stores
    eta_s, ||g_s||, G (nan for a rule without G) and f(x_s) at its row of
    the record, through one memoryview per column, in blocks of the same
    length also in a run that buffers no rows. The record holds one float64
    array per trace column but ``s`` and ``f_best``: ``epoch``, ``eta``,
    ``g_norm``, ``G``, ``f_x`` and one bound per label, 8 bytes per
    iteration each. Once per block of iterations, before a restart and
    after the loop, one closure, ``flush``, runs the whole block in order,
    reading its stored rows as views of the record: it decides its per-step
    inequalities (the bits of one check per iteration), sums its minorants
    in iteration order (the bits of one sum per iteration), forms its
    weights, folds its points into the averages with one
    :meth:`StreamingAverage.update`, and fills the block's epoch. Each array
    has room for one block at first, or the budget if less; a flush that
    leaves less room than the next block can need grows it to the budget,
    but at most 2^15 rows, and then doubles it, so no allocation grows with
    the budget; only the rows written are resident. Whenever 4096
    (``VALUE_BLOCK_CAP``) or more recorded rows have no bounds yet, and
    after the loop, those rows go to the evaluator as one chunk, and it
    writes their bounds into the record: the evaluator
    builds nothing longer than a chunk, and carries its sums from one chunk
    to the next, so the bounds and verdicts have the bits of one pass over
    every row. ``s`` and ``f_best`` are built after the loop; the other
    columns of the trace are the record's rows, not a copy. The best
    iterate is kept by reference and copied once. Each iteration checks a finite
    oracle value, a subgradient of the right shape with a finite norm, a
    positive finite step and a finite x_s - eta_s g_s (proven by
    eta_s ||g_s|| < 2^960 alone when it holds); x_s is then finite by
    construction, and so is every weight with k <= 0. Failures raise
    :class:`NumericError` naming the iteration (:class:`InvalidParameterError`
    for a nonpositive step), as does a weight s^(k/2), a running total of
    the weights or a weighted sum of the points that overflows.

    Returns
    -------
    (RunReport, dict)
        The trace maps each of :func:`trace_columns` for
        ``policy.bound_labels(ks, L)``, in that order, to a float array with
        one entry per iteration, empty when the run has no rows:
        ``s, epoch, eta, g_norm, G, f_x, f_best`` and ``bound_<label>`` per
        label, the bounds in the report's ``bounds``. ``G`` is nan for rules
        that do not track it. Building it costs no oracle call: the record
        that the bounds and certificates are computed from holds its columns.
    """
    projector = problem.projector
    x = ensure_vector(config.initial_point, problem.dimension, "initial_point")
    x = project(projector, x)

    policy = copy.deepcopy(config.policy)
    policy.reset()

    ks = [float(k) for k in config.weight_ks]
    rules = [WeightRule(k) for k in ks]
    labels = [scheme_label(k) for k in ks]
    repeated = repeated_scheme(ks)
    if repeated is not None:
        raise InvalidParameterError(f"weight_ks: k={repeated:g} repeats")

    averages = StreamingAverage()
    # the best iterate by reference (x is never changed in place), copied
    # once after the loop; ties keep the earliest index
    best_value, best_index, best_x = math.inf, 0, None

    L = problem.lipschitz_L
    f_star = problem.known_optimum_value
    x_star = None
    if problem.known_optimum_point is not None:
        x_star = ensure_vector(problem.known_optimum_point, problem.dimension, "optimum")

    check_step = x_star is not None and f_star is not None
    per_step = True

    evaluator = bnd.Evaluator(policy, ks, problem.radius_R, L)
    n = problem.dimension
    sum_minorants = f_star is None and hasattr(projector, "min_linear") and bool(evaluator.certs)
    block_len = block_rows(n, sum_minorants)
    # the points x_s of the last `rows` iterations, oldest first, not yet fed
    # to the averages or checked by the per-step inequality, and the
    # minorants' slopes g_s and offsets f(x_s) - <g_s, x_s>: summed (row 0), pending
    rows = 0
    points = np.zeros((block_len, n)) if rules or check_step or sum_minorants else None
    sums = np.zeros((block_len + 1, n + 1)) if sum_minorants else None
    minorants = 0

    # The run's record, the columns of the trace but s and f_best, which are
    # derived after the loop: one float64 array per column. Each iteration
    # stores its eta, ||g||, G (nan for a rule without G) and f(x_s) at its
    # row through one memoryview per column; each block fills its epoch, and
    # each chunk of blocks its bounds. The first room is one block, or the
    # budget if less; a flush that leaves less room than the next block can
    # need grows each array to the budget, but at most 2^15 rows, then
    # doubles it, so that no allocation grows with the budget. Only the pages
    # written to are resident.
    record = {name: np.empty(min(config.max_iterations, block_len))
              for name in trace_columns(evaluator.labels) if name not in ("s", "f_best")}
    stored = ("eta", "g_norm", "G", "f_x")
    etas, g_norms, big_Gs, f_xs = (memoryview(record[name]) for name in stored)
    done = fed = 0  # rows in the record, and rows of it fed to the evaluator

    def certify():
        """Feed the evaluator the recorded rows that it has not seen, as one chunk."""
        nonlocal fed
        chunk = {name: record[name][fed:done] for name in ("epoch", "eta", "g_norm", "f_x")}
        for label, column in evaluator.feed(chunk).items():
            record[f"bound_{label}"][fed:done] = column
        fed = done

    def flush(x_after):
        """Run the block of stored rows, x_after following the last one, into the record.

        In order: the per-step inequality, the minorant sums, the weights and
        averages, the block's epoch, the record's room.
        """
        nonlocal rows, minorants, done, per_step, etas, g_norms, big_Gs, f_xs
        if not rows:
            return
        eta, g_norm, f_x = (record[name][done:done + rows] for name in ("eta", "g_norm", "f_x"))
        if check_step and per_step:
            # leq_with_tol elementwise, with the bits of one check per iteration:
            # + - * / round as on Python floats, and each squared distance is
            # the dot product d @ d as a batched matmul. An overflow gives the
            # nonfinite sides that a check per iteration gives.
            with np.errstate(over="ignore", invalid="ignore"):
                d = np.vstack([points[:rows], x_after]) - x_star
                dist = (d[:, None, :] @ d[:, :, None])[:, 0, 0]  # ||x_s - x*||^2, s..s+rows
                rhs = (dist[:-1] - dist[1:]) / (2.0 * eta) + 0.5 * eta * g_norm * g_norm
                # f_x - f* also carries the rounding of f at its own magnitude
                abs_ = ABS_TOL + VALUE_ROUNDING * np.maximum(np.abs(f_x), abs(f_star))
                per_step = bool(leq_with_tol(f_x - f_star, rhs, abs_=abs_).all())
        if sums is not None:
            g, x_s = sums[1:rows + 1, :n], points[:rows]
            sums[1:rows + 1, n] = f_x - (g[:, None] @ x_s[..., None])[:, 0, 0]
            # g_s.dot(x_s) by batched matmul, then sums row after row per column
            # (n + 1 >= 2 columns): the bits of one dot and one sum per iteration
            sums[0] = np.add.reduce(sums[:rows + 1], axis=0)
            minorants += rows
        if rules:
            # the rows hold iterations s_local - rows + 1 .. s_local of the epoch
            s_rows = np.arange(s_local - rows + 1.0, s_local + 1.0)
            weights = np.column_stack([rule(s_rows, eta) for rule in rules])
            try:
                averages.update(weights, points[:rows])
            except (NumericError, OverflowError):
                raise _overflow(averages, ks, weights, points[:rows], done + 1) from None
        record["epoch"][done:done + rows] = epoch
        done += rows
        rows = 0
        if len(record["eta"]) - done < min(block_len, config.max_iterations - done):
            for name, column in record.items():
                record[name] = np.empty(max(2 * len(column), min(config.max_iterations, 2 ** 15)))
                record[name][:done] = column[:done]
            etas, g_norms, big_Gs, f_xs = (memoryview(record[name]) for name in stored)
        if done - fed >= VALUE_BLOCK_CAP:
            certify()

    epoch = 0
    s_local = 0
    inf, nan = math.inf, math.nan
    G_ref: Optional[float] = None
    stop = StopReason.BUDGET_EXHAUSTED
    restart_factor = config.restart_factor

    # The oracle memo (see above): the bytes of the last point the oracle was
    # called at; f_x, g and g_norm still hold what the loop derived and
    # checked from that call, so an iterate that did not move costs no call.
    memo_key = None
    oracle_calls = 0

    for s in range(1, config.max_iterations + 1):
        key = x.tobytes()
        if key != memo_key:
            res = problem.oracle(x)
            oracle_calls += 1
            memo_key = key
            f_x, g = float(res.value), res.subgradient
            if not math.isfinite(f_x):
                raise NumericError(f"oracle returned nonfinite value at iteration {s}")
            if g is None:  # an empty subdifferential
                stop = StopReason.EMPTY_SUBDIFFERENTIAL
                break
            g = np.asarray(g, dtype=np.float64)
            if g.shape != x.shape:
                raise NumericError(f"oracle subgradient shape {g.shape} at iteration {s}")
            # np.linalg.norm's 1-D expression; finite only if every entry is finite
            g_norm = math.sqrt(float(g.dot(g)))
            if not math.isfinite(g_norm):
                raise NumericError(f"oracle subgradient has norm {g_norm} at iteration {s}")
        if points is not None:
            # x is finite: the start is checked, every later x is a projection of
            # a finite step
            points[rows] = x
            if sums is not None:
                sums[rows + 1, :n] = g

        if f_x < best_value:
            best_value, best_index, best_x = f_x, s, x
        try:
            eta = policy.step_size(s_local + 1, g_norm)
        except ZeroSubgradientError:
            if g_norm != 0.0:
                raise
            # x is a global minimizer that the rule cannot step from (first
            # iteration of the family rule, or the norm-normalized rule):
            # stop with the best iterate and the minorants updated, recording no row
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
        i = done + rows
        etas[i], g_norms[i], f_xs[i] = eta, g_norm, f_x
        big_Gs[i] = nan if G_now is None else G_now
        rows += 1
        if rows == block_len:
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

    flush(x)
    certify()

    averaged_points = {}
    averaged_values = {}
    if averages.count > 0:
        for label, point in zip(labels, averages.mean):
            averaged_points[label] = point
            key = point.tobytes()
            if key != memo_key:  # through the memo, as in the loop
                memo_key, f_x = key, problem.value(point)
                oracle_calls += 1
            averaged_values[label] = f_x

    columns = {name: column[:done] for name, column in record.items()}
    columns.update(s=np.arange(1, done + 1, dtype=np.float64),
                   f_best=np.minimum.accumulate(columns["f_x"]))
    trace = {name: columns[name] for name in trace_columns(evaluator.labels)}

    # minorants are summed only when f* is unknown; the bracket's high end is
    # the trace's final f_best, as psg check reads it
    minorant_sums = {"g_sum": sums[0, :n].tolist(), "c_sum": float(sums[0, n]),
                     "count": minorants} if minorants else None
    bracket = bnd.bracket(problem, minorant_sums,
                          float(trace["f_best"][-1]) if done else best_value)
    verdicts, undecided = evaluator.verdicts(bracket)
    certs = {bnd.PER_STEP: per_step} if check_step else {}
    certs.update(verdicts)
    # the last row belongs to the last epoch that has rows
    final_bounds = {label: float(columns[f"bound_{label}"][-1])
                    for label in evaluator.labels} if done else {}

    report = RunReport(
        problem=problem.name,
        policy=policy.label,
        iterations_run=done,
        stop_reason=stop,
        best_value=best_value,
        best_index=best_index,
        best_point=None if best_x is None else np.array(best_x, dtype=np.float64),
        averaged_points=averaged_points,
        averaged_values=averaged_values,
        max_g_norm=float(np.max(columns["g_norm"], initial=0.0)),
        bounds=final_bounds,
        certificates=certs,
        oracle_calls=oracle_calls,
        optimum_bracket=bracket,
        undecided=undecided,
        minorant_sums=minorant_sums,
    )
    return report, trace


def _overflow(averages: StreamingAverage, ks, weights, points, first: int) -> NumericError:
    """The error of a block whose weights, running totals or weighted sums overflow.

    It names the first (iteration, k), in row-major order, whose weight,
    total weight or weighted sum, each added row after row to the fold's
    state, is not finite; the block's rows are iterations `first` on. A sum
    that overflows only in the update's own order of addition is named at
    the block's last row, by its largest entry.
    """
    base, before = (points[0], 0.0) if averages.base is None else (averages.base, averages.sums)
    with np.errstate(over="ignore", invalid="ignore"):
        totals = np.cumsum(np.vstack([np.broadcast_to(averages.total_weight, len(ks)),
                                      weights]), axis=0)[1:]
        sums = np.cumsum(weights[..., None] * (points - base)[:, None], axis=0) + before
        sums = np.abs(sums).max(axis=2)  # rows x K, nan where a sum is nan
    bad = np.isinf(totals) | ~np.isfinite(sums)
    i, j = divmod(int(bad.argmax()), len(ks)) if bad.any() else (len(points) - 1,
                                                                  int(sums[-1].argmax()))
    what = ("weight" if np.isinf(weights[i, j])
            else "total weight" if np.isinf(totals[i, j]) else "weighted sum")
    return NumericError(f"{what} of k={ks[j]:g} overflows at iteration {first + i}")
