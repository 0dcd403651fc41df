"""The in-run optimality bracket and the verdicts of gap certificates.

A run without a known optimum brackets f* by [f_low, f_best], where f_low
minimizes the uniform mean of the oracle's minorants over the feasible set.
The property tests draw problems with an exactly known optimum, hide it
from the solver, and check that the bracket contains f*, that no
certificate a policy declares is refuted and that ``psg check`` agrees. One
draws problems whose oracle returns an image, so the values at the averages
come from the averaged images; they must match the run that asks the oracle.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psg import (
    Ball,
    Box,
    ClassicPolicy,
    ConstantPolicy,
    FamilyPolicy,
    NesterovPolicy,
    ProblemInstance,
    SolverConfig,
    SubgradientResult,
    make_abs_problem,
    make_lasso,
    run,
)
from psg.bounds import PROVEN, REFUTED, UNDECIDED, gap_verdict
from psg.cli import check_trace, emit_trace_csv, read_trace_csv
from psg.core import leq_with_tol


class TestGapWatch:
    """The gap verdict of one certificate over the (f(x_avg_s), bound_s) columns of a run."""

    class watch:
        def __init__(self, *pairs):
            self.avg = [avg for avg, _ in pairs]
            self.bound = [bound for _, bound in pairs]

        def verdict(self, low, high):
            return gap_verdict(self.avg, self.bound, low, high)

    def test_nothing_checked_is_proven(self):
        assert self.watch().verdict(-1.0, 1.0) == PROVEN

    def test_three_verdicts(self):
        w = self.watch((-4.0, 1.0), (1.5, 1.0), (-1.0, 1.0))
        assert w.verdict(1.0, 2.0) == PROVEN
        assert w.verdict(0.0, 2.0) == UNDECIDED
        assert w.verdict(-1.0, 0.25) == REFUTED

    def test_degenerate_bracket_decides(self):
        w = self.watch((1.5, 1.0))
        assert w.verdict(0.5, 0.5) == PROVEN
        assert w.verdict(0.4, 0.4) == REFUTED

    def test_crossed_bracket_never_proves(self):
        assert self.watch((1.5, 1.0)).verdict(1.0, 0.0) == REFUTED
        assert self.watch((0.0, 1.0)).verdict(1.0, 0.0) == UNDECIDED

    def test_unbounded_bracket_never_proves(self):
        assert self.watch((0.0, 1.0)).verdict(-math.inf, math.inf) == UNDECIDED

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_pair_is_never_proven(self, bad):
        assert self.watch((-2.0, 1.0), (bad, 1.0)).verdict(0.0, 1.0) == UNDECIDED
        assert self.watch((-2.0, 1.0), (0.0, bad)).verdict(0.0, 1.0) == UNDECIDED
        assert self.watch((bad, 1.0), (3.0, 1.0)).verdict(0.0, 1.0) == REFUTED

    @pytest.mark.parametrize("f_star", [0.0, 1e9, -1e9])
    def test_tolerance_scales_with_gap_not_offset(self, f_star):
        # gap 1.0 against bound 0.5 is false whatever the objective's offset
        w = self.watch((f_star + 1.0, 0.5))
        assert w.verdict(f_star, f_star) == REFUTED
        assert w.verdict(f_star - 1.0, f_star + 0.5) == UNDECIDED

    def test_decides_as_every_pair_checked_alone(self):
        # the largest gap - bound need not be the first pair to fail the
        # tolerance: (1 + 1e-9, 1) passes it, (1e-3 + 5e-10, 1e-3) does not
        pairs = [(1.0 + 1e-9, 1.0), (1e-3 + 5e-10, 1e-3)]
        assert leq_with_tol(*pairs[0]) and not leq_with_tol(*pairs[1])
        for order in (pairs, pairs[::-1]):
            assert self.watch(*order).verdict(0.0, 0.0) == REFUTED

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3)),
                    min_size=1, max_size=8),
           st.sampled_from([0.0, 1e9, -1e9]), st.floats(-1e3, 1e3))
    def test_known_optimum_matches_per_pair_check(self, pairs, offset, f_star):
        f_star += offset
        w = self.watch(*((f_star + gap, bound) for gap, bound in pairs))
        every = all(leq_with_tol((f_star + gap) - f_star, bound) for gap, bound in pairs)
        assert w.verdict(f_star, f_star) == (PROVEN if every else REFUTED)


def _known_optimum_problem(draw):
    """A problem with an exactly known optimum f* at x*, inside a random ball or box."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x_star = rng.uniform(-2.0, 2.0, n)
    f_star = float(rng.uniform(-5.0, 5.0))
    if draw(st.booleans()):
        # f(x) = f* + sum_i w_i |x_i - x*_i|
        w = rng.uniform(0.1, 3.0, n)

        def oracle(x):
            d = x - x_star
            return SubgradientResult(f_star + float(w @ np.abs(d)), w * np.sign(d))

        L = float(np.linalg.norm(w))
    else:
        # f(x) = f* + max_i |<a_i, x - x*>|, the max of the affine functions +-<a_i, x - x*>
        a = rng.standard_normal((n + 1, n))

        def oracle(x):
            v = a @ (x - x_star)
            i = int(np.argmax(np.abs(v)))
            return SubgradientResult(f_star + abs(float(v[i])), np.sign(v[i]) * a[i])

        L = float(np.linalg.norm(a, axis=1).max())
    projector, R = _feasible_set(draw, rng, x_star)
    problem = ProblemInstance(name="drawn", dimension=n, oracle=oracle, projector=projector,
                              radius_R=R, lipschitz_L=L)
    return problem, f_star, _start(rng, x_star)


def _feasible_set(draw, rng, x_star):
    """A random ball or box that holds x* off its centre, and its R."""
    n = len(x_star)
    if draw(st.booleans()):
        radius = float(rng.uniform(0.1, 3.0))
        center = x_star + rng.uniform(-1.0, 1.0, n) * radius / math.sqrt(n)  # x* inside
        projector = Ball(center=center, radius=radius)
        R = float(np.linalg.norm(center - x_star)) + radius
    else:
        lower = x_star - rng.uniform(0.0, 3.0, n)
        upper = x_star + rng.uniform(0.0, 3.0, n)
        projector = Box(lower=lower, upper=upper)
        R = float(np.linalg.norm(np.maximum(x_star - lower, upper - x_star)))
    return projector, max(R, 1e-3)


def _start(rng, x_star):
    return x_star + rng.uniform(-4.0, 4.0, len(x_star))  # projected onto the set, off x*


def _image_problem(draw):
    """f(x) = f* + ||A (x - x*)||_inf, whose oracle returns the image z = A x - A x*.

    Its hook f* + max_i |z_i| is row-wise, so averages are valued from the
    averaged images; A has at least as many rows as columns, so x* is the
    only minimizer.
    """
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x_star = rng.uniform(-2.0, 2.0, n)
    f_star = float(rng.uniform(-5.0, 5.0))
    a = rng.standard_normal((n + draw(st.integers(0, 3)), n))
    a_x_star = a @ x_star

    def oracle(x):
        z = a @ x - a_x_star
        i = int(np.argmax(np.abs(z)))
        return SubgradientResult(f_star + abs(float(z[i])), np.sign(z[i]) * a[i], image=z)

    def value_at_image(x, z):
        return f_star + np.max(np.abs(z), axis=-1)

    projector, R = _feasible_set(draw, rng, x_star)
    problem = ProblemInstance(name="drawn_image", dimension=n, oracle=oracle,
                              projector=projector, radius_R=R,
                              lipschitz_L=float(np.linalg.norm(a, axis=1).max()),
                              value_at_image=value_at_image)
    return problem, f_star, _start(rng, x_star)


@st.composite
def drawn_runs(draw, problems=_known_optimum_problem):
    problem, f_star, start = problems(draw)
    iterations = draw(st.integers(1, 150))
    rule = draw(st.sampled_from(["family", "classic", "constant", "nesterov"]))
    R, L = problem.radius_R, problem.lipschitz_L
    policy = {
        "family": lambda: FamilyPolicy(R=R, a=draw(st.sampled_from([0.0, 0.5, 1.0]))),
        "classic": lambda: ClassicPolicy(R=R, L=L),
        "constant": lambda: ConstantPolicy(R=R, L=L, horizon_t=iterations),
        "nesterov": lambda: NesterovPolicy(R=R),
    }[rule]()
    # always with the exponent the rule's uniform (or step-weighted) certificate reads
    extra = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), max_size=2, unique=True))
    ks = tuple(sorted({-1.0 if rule == "nesterov" else 0.0, *extra}))
    restart = draw(st.sampled_from([None, 2.0]))
    config = SolverConfig(max_iterations=iterations, initial_point=start, policy=policy,
                          weight_ks=ks, record_trace=True, restart_factor=restart)
    spec = {"kind": rule, **({"a": policy.a} if rule == "family" else {})}
    return problem, f_star, config, spec


def check_agrees(problem, config, spec, report, trace, path):
    """`psg check` on the run's trace decides every certificate as the run did."""
    emit_trace_csv(trace, path, {
        "policy": spec, "iterations": config.max_iterations,
        "weight_ks": list(config.weight_ks), "restart_factor": config.restart_factor,
        "optimum_bracket": None if report.optimum_bracket is None
        else dict(zip(("low", "high"), report.optimum_bracket)),
        **({} if report.minorant_sums is None else {"minorant_sums": report.minorant_sums})})
    meta, columns = read_trace_csv(path)
    assert columns.keys() == trace.keys()
    assert all(np.array_equal(columns[name], col, equal_nan=True) for name, col in trace.items())
    checked = {name: ok for name, ok, _ in check_trace(meta, columns, problem)}
    run_labels = set(report.certificates) - {"per_step"}  # needs the iterates
    assert run_labels <= set(checked)
    for name, ok in checked.items():
        assert ok == report.certificates.get(name, True), (name, report)


def assert_sound(problem, f_star, config, spec, path):
    """Run a drawn problem and return (report, trace).

    The bracket must hold, no declared certificate be refuted and ``psg check`` agree.
    """
    report, trace = run(problem, config)
    if report.iterations_run:
        check_agrees(problem, config, spec, report, trace, path)
    declared = config.policy.certificates(config.weight_ks, problem.lipschitz_L)
    if not declared:
        assert report.optimum_bracket is None
        return report, trace
    low, high = report.optimum_bracket
    assert leq_with_tol(low, f_star) and f_star <= high == report.best_value
    for cert in declared:
        assert cert.label in report.certificates
        refuted = not report.certificates[cert.label] and cert.label not in report.undecided
        assert not refuted, (cert.label, report)
    assert all(report.certificates[label] for label in report.certificates
               if label.startswith("monotone_"))
    return report, trace


@settings(derandomize=True, max_examples=60, deadline=None)
@given(drawn_runs())
def test_bracket_holds_and_no_certificate_is_refuted(tmp_path_factory, drawn):
    assert_sound(*drawn, tmp_path_factory.getbasetemp() / "drawn_trace.csv")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(drawn_runs(_image_problem))
def test_image_hook_problems_are_sound_and_match_oracle_values(tmp_path_factory, drawn):
    problem, f_star, config, spec = drawn
    report, trace = assert_sound(problem, f_star, config, spec,
                                 tmp_path_factory.getbasetemp() / "drawn_image_trace.csv")
    plain, plain_trace = run(dataclasses.replace(problem, value_at_image=None), config)
    assert plain.averaged_values == report.averaged_values
    for label, point in plain.averaged_points.items():
        assert np.array_equal(report.averaged_points[label], point)
    for name, col in plain_trace.items():
        if name.startswith("f_avg_"):
            assert np.allclose(trace[name], col, rtol=1e-9, atol=1e-9), name
        else:
            assert np.array_equal(trace[name], col, equal_nan=True), name


def _offset_abs_problem(offset, known):
    """f(x) = offset + ||x||_1 on [-1, 1]^2, with its optimum value given or hidden."""
    base = make_abs_problem(2)

    def oracle(x):
        res = base.oracle(x)
        return SubgradientResult(offset + res.value, res.subgradient)

    return dataclasses.replace(base, name="abs_offset", oracle=oracle,
                               known_optimum_value=offset if known else None,
                               known_optimum_point=np.zeros(2) if known else None)


@pytest.mark.parametrize("name", ["lasso", "abs", "abs_offset", "abs_offset_hidden"])
def test_understated_bound_is_never_proven(name):
    # every declared bound is linear in R, so declaring R / 1000 to the
    # problem understates each by 1000x while the policy's steps stay the same
    if name == "lasso":
        problem, x1 = make_lasso(seed=1, n=16, m=10, radius=50.0), np.zeros(16)
    elif name == "abs":
        problem, x1 = make_abs_problem(2), np.array([0.7, -0.4])
    else:
        # gaps below 0.5 and bounds understated below them while f* = 1e9: a
        # tolerance relative to the objective's values would accept them all
        problem = _offset_abs_problem(1e9, known=name == "abs_offset")
        x1 = np.array([0.3, -0.2])
    R = problem.radius_R
    policy = FamilyPolicy(R=R)
    config = SolverConfig(max_iterations=200, initial_point=x1, policy=policy,
                          weight_ks=(-1.0, 0.0, 2.0))
    gap_labels = [c.label for c in policy.certificates(config.weight_ks, None)]
    assert gap_labels
    honest, _ = run(problem, config)
    assert all(honest.certificates[label] for label in gap_labels)
    assert all(honest.certificates.values())

    report, _ = run(dataclasses.replace(problem, radius_R=R / 1000.0), config)
    for label in gap_labels:
        assert report.certificates[label] is False
    if name in ("abs", "abs_offset"):  # a known optimum decides every certificate
        assert report.undecided == []


@pytest.mark.parametrize("offset", [0.0, 1e9, -1e9])
def test_per_step_allows_for_the_rounding_of_f(offset):
    problem = _offset_abs_problem(offset, known=True)
    config = SolverConfig(max_iterations=200, initial_point=np.array([0.3, -0.2]),
                          policy=FamilyPolicy(R=problem.radius_R))
    report, _ = run(problem, config)
    assert report.certificates["per_step"] is True


@pytest.mark.parametrize("offset", [0.0, 1e9])
@pytest.mark.parametrize("excess", [1e-3, -1e-3])
def test_per_step_refutes_an_excess_at_a_large_offset(offset, excess):
    # one step from x1 with x* = 0: f(x1) - f* against the descent inequality's rhs
    problem = _offset_abs_problem(offset, known=True)
    x1 = np.array([0.3, -0.2])
    config = SolverConfig(max_iterations=1, initial_point=x1,
                          policy=FamilyPolicy(R=problem.radius_R), record_trace=True)
    _, trace = run(problem, config)
    eta, g = trace["eta"][0], np.sign(x1)
    x2 = problem.projector.project(x1 - eta * g)
    rhs = (x1 @ x1 - x2 @ x2) / (2.0 * eta) + 0.5 * eta * (g @ g)
    rhs, gap = float(rhs), float(np.abs(x1).sum())
    # declaring f* lower by (rhs - gap + excess) makes f(x1) - f* = rhs + excess
    lowered = dataclasses.replace(problem,
                                  known_optimum_value=offset - (rhs - gap + excess))
    report, _ = run(lowered, config)
    assert report.certificates["per_step"] is (excess < 0)


def test_check_agrees_after_a_final_zero_subgradient(tmp_path):
    # the nesterov step lands on x* = 0, where it has no step: that iteration
    # has no trace row, yet its value is the run's f_best and bracket high
    problem = dataclasses.replace(make_abs_problem(1), known_optimum_value=None,
                                  known_optimum_point=None)
    config = SolverConfig(max_iterations=5, initial_point=np.array([0.5]),
                          policy=NesterovPolicy(R=0.5), weight_ks=(-1.0,), record_trace=True)
    report, trace = run(problem, config)
    assert list(trace["f_best"]) == [0.5]
    assert report.optimum_bracket[1] == report.best_value == 0.0
    check_agrees(problem, config, {"kind": "nesterov"}, report, trace, tmp_path / "t.csv")
