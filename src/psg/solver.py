"""Projected subgradient main loop with runtime-checked convergence certificates."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

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
from .stepsize import (
    ClassicPolicy,
    ConstantPolicy,
    FamilyPolicy,
    NesterovPolicy,
    StepSizePolicy,
)


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
        uniform-average certificates.
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
    subgradient_selection : str
        Recorded intent for oracles whose subdifferential is not a singleton.
        The bundled problem oracles always return the minimal-norm element,
        so both settings currently behave identically.
    """

    max_iterations: int
    initial_point: np.ndarray
    policy: StepSizePolicy
    weight_ks: Sequence[float] = (0.0,)
    record_trace: bool = False
    restart_factor: Optional[float] = None
    certify: bool = True
    subgradient_selection: Literal["oracle-default", "minimal-norm-when-available"] = (
        "oracle-default"
    )

    def __post_init__(self):
        if not self.max_iterations >= 1:
            raise InvalidParameterError("max_iterations must be >= 1")
        if self.restart_factor is not None and not self.restart_factor > 1:
            raise InvalidParameterError("restart_factor must exceed 1 when set")
        if self.subgradient_selection not in ("oracle-default", "minimal-norm-when-available"):
            raise InvalidParameterError(
                f"unknown subgradient_selection {self.subgradient_selection!r}")


def _oracle_value(problem: ProblemInstance, x: np.ndarray) -> float:
    return float(problem.oracle(x).value)


def run(problem: ProblemInstance, config: SolverConfig):
    """Run the projected subgradient method on `problem`.

    Iterates x_{s+1} = project(x_s - eta_s g_s) for s = 1..max_iterations,
    stopping early when the oracle reports an empty subdifferential (no
    descent information) or an exactly zero subgradient (x_s is a global
    minimizer; small norms carry no such certificate for nonsmooth
    objectives, so no threshold is applied).

    While running it maintains one weighted average per configured exponent
    k, the best iterate, and (when the problem carries a known or reference
    optimum) the convergence certificates that provably apply to the chosen
    step-size rule, each checked at every iteration:

    * per-step descent inequality
      f(x_s) - f* <= (||x_s-x*||^2 - ||x_{s+1}-x*||^2) / (2 eta_s)
      + eta_s ||g_s||^2 / 2 (any rule; needs the optimum point),
    * gap of the uniform mean vs. the rule's ergodic bound,
    * gap of each k-weighted mean vs. its bound (family rule),
    * monotonicity of w_s / eta_s (rules for which it is guaranteed).

    Gap certificates and traces need the objective at every average in every
    iteration. When the problem sets ``value_at_image``, those values come
    from the averaged oracle images without an oracle call; the report's
    averaged values always come from the oracle.

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
    idx_k0 = ks.index(0.0) if 0.0 in ks else None
    idx_km1 = ks.index(-1.0) if -1.0 in ks else None

    averages = [StreamingAverage() for _ in ks]
    trackers = [bnd.WeakBoundSums(k) for k in ks]
    best = BestIterate()

    R = problem.radius_R
    L = problem.lipschitz_L
    f_star = problem.known_optimum_value
    x_star = None
    if problem.known_optimum_point is not None:
        x_star = ensure_vector(problem.known_optimum_point, problem.dimension, "optimum")

    is_family = isinstance(policy, FamilyPolicy)
    is_classic = isinstance(policy, ClassicPolicy)
    is_constant = isinstance(policy, ConstantPolicy)
    is_nesterov = isinstance(policy, NesterovPolicy)

    check_gap = config.certify and f_star is not None
    check_step = config.certify and x_star is not None and f_star is not None
    need_values = config.record_trace or check_gap
    # With the problem's image hook, each average runs over the stacked
    # vectors [x_s; image_s], and values at averages come from the averaged
    # image instead of an oracle call.
    value_at_image = problem.value_at_image if need_values else None
    n = problem.dimension
    image_size: Optional[int] = None

    # Certificates start as vacuously true and are and-ed with every check.
    certs: dict[str, bool] = {}
    if check_step:
        certs[bnd.PER_STEP] = True
    if check_gap:
        if is_family and idx_k0 is not None:
            certs[bnd.FAMILY] = True
        if is_family:
            for k in ks:
                certs[bnd.weak_label(k)] = True
        if is_classic and idx_k0 is not None and L is not None:
            certs[bnd.CLASSIC] = True
        if is_constant and idx_k0 is not None and L is not None:
            certs[bnd.CONSTANT] = True
        if is_nesterov and idx_km1 is not None and L is not None:
            certs[bnd.NESTEROV] = True
    if config.certify:
        # weight/step monotonicity is guaranteed for the family, classic and
        # constant rules at every k, and for the norm-normalized rule only at
        # k = -1 (where the ratio is identically 1)
        for k in ks:
            if is_family or is_classic or is_constant or (is_nesterov and k == -1.0):
                certs[bnd.monotone_label(k)] = True

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
        if not np.isfinite(f_x):
            raise NumericError(f"oracle returned nonfinite value at iteration {s}")
        if res.is_empty:
            stop = StopReason.EMPTY_SUBDIFFERENTIAL
            break
        g = np.asarray(res.subgradient, dtype=np.float64)
        if g.shape != x.shape:
            raise NumericError(f"oracle subgradient shape {g.shape} at iteration {s}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"oracle returned nonfinite subgradient at iteration {s}")
        g_norm = float(np.linalg.norm(g))
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

        best.update(s, f_x, x)
        if g_norm > max_g_global:
            max_g_global = g_norm
        if g_norm > epoch_max_g:
            epoch_max_g = g_norm

        weights = [rule(s_local, eta) for rule in rules]
        try:
            for acc, w in zip(averages, weights):
                acc.update(w, point)
        except NumericError as exc:
            raise NumericError(f"{exc} at iteration {s}") from None
        for tracker in trackers:
            tracker.push()

        x_next = psg_step(x, g, eta, projector)

        if check_step:
            d_now = x - x_star
            d_next = x_next - x_star
            rhs = (float(d_now @ d_now) - float(d_next @ d_next)) / (2.0 * eta) \
                + 0.5 * eta * g_norm * g_norm
            if not leq_with_tol(f_x - f_star, rhs):
                certs[bnd.PER_STEP] = False

        if config.certify:
            for i, k in enumerate(ks):
                label = bnd.monotone_label(k)
                if label in certs:
                    ratio = weights[i] / eta
                    prev = prev_ratio[i]
                    if prev is not None and not leq_with_tol(prev, ratio):
                        certs[label] = False
                    prev_ratio[i] = ratio

        if need_values:
            if value_at_image is None:
                avg_vals = {labels[i]: _oracle_value(problem, acc.mean)
                            for i, acc in enumerate(averages)}
            else:
                avg_vals = {labels[i]: float(value_at_image(acc.mean[:n], acc.mean[n:]))
                            for i, acc in enumerate(averages)}
            family_val = bnd.family_bound(R, s_local, epoch_max_g)
            bound_vals = {bnd.FAMILY: family_val}
            for i, k in enumerate(ks):
                bound_vals[bnd.weak_label(k)] = trackers[i].bound(R, epoch_max_g)
            if check_gap:
                if is_family:
                    if idx_k0 is not None:
                        gap0 = avg_vals[labels[idx_k0]] - f_star
                        if not bnd.check_certificate(gap0, family_val):
                            certs[bnd.FAMILY] = False
                    for i, k in enumerate(ks):
                        gap_k = avg_vals[labels[i]] - f_star
                        if not bnd.check_certificate(gap_k, bound_vals[bnd.weak_label(k)]):
                            certs[bnd.weak_label(k)] = False
                elif is_classic and bnd.CLASSIC in certs:
                    gap0 = avg_vals[labels[idx_k0]] - f_star
                    if not bnd.check_certificate(gap0, bnd.classic_bound(R, L, s_local)):
                        certs[bnd.CLASSIC] = False
                elif is_nesterov and bnd.NESTEROV in certs:
                    gap1 = avg_vals[labels[idx_km1]] - f_star
                    if not bnd.check_certificate(gap1, bnd.nesterov_bound(R, L, s_local)):
                        certs[bnd.NESTEROV] = False

        if trace is not None:
            trace.append(IterationRecord(
                s=s, eta=eta, g_norm=g_norm, big_G=policy.G, f_x=f_x,
                f_best=best.best_value, averaged_values=avg_vals, bounds=bound_vals))
        iterations_run = s

        if stopping:
            stop = StopReason.ZERO_SUBGRADIENT
            break

        if is_family:
            G_now = policy.G
            if G_ref is None:
                G_ref = G_now
            elif restart_factor is not None and G_now > restart_factor * G_ref:
                G_ref = G_now
                policy.reset()
                averages = [StreamingAverage() for _ in ks]
                for tracker in trackers:
                    tracker.reset()
                s_local = 0
                epoch_max_g = 0.0
                prev_ratio = [None] * len(ks)

        x = x_next

    # final certificate for the horizon-tuned constant step: its bound only
    # applies after the full tuned budget
    if (bnd.CONSTANT in certs and iterations_run == policy.horizon_t
            and averages[idx_k0].count > 0):
        gap0 = _oracle_value(problem, averages[idx_k0].mean[:n]) - f_star
        if not bnd.check_certificate(gap0, bnd.constant_bound(R, L, policy.horizon_t)):
            certs[bnd.CONSTANT] = False

    averaged_points = {}
    averaged_values = {}
    for i, acc in enumerate(averages):
        if acc.count > 0:
            averaged_points[labels[i]] = np.array(acc.mean[:n])
            averaged_values[labels[i]] = _oracle_value(problem, acc.mean[:n])

    final_bounds: dict[str, float] = {}
    if s_local > 0:
        final_bounds[bnd.FAMILY] = bnd.family_bound(R, s_local, epoch_max_g)
        for i, k in enumerate(ks):
            final_bounds[bnd.weak_label(k)] = trackers[i].bound(R, epoch_max_g)
        if L is not None:
            final_bounds[bnd.CLASSIC] = bnd.classic_bound(R, L, s_local)
            final_bounds[bnd.CONSTANT] = bnd.constant_bound(R, L, s_local)
            final_bounds[bnd.NESTEROV] = bnd.nesterov_bound(R, L, s_local)

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
    )
    return report, trace
