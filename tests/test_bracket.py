"""The in-run optimality bracket and the verdicts of gap certificates.

A run without a known optimum brackets f* by [f_low, f_best], where f_low
minimizes the uniform mean of the oracle's minorants over the feasible set.
The property test draws problems with an exactly known optimum, hides it
from the solver, and checks that the bracket contains f* and that no
certificate a policy declares is refuted.
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
from psg.bounds import PROVEN, REFUTED, UNDECIDED, GapWatch
from psg.core import leq_with_tol


class TestGapWatch:
    @staticmethod
    def watch(*pairs):
        w = GapWatch()
        for avg, bound in pairs:
            w.push(avg, bound)
        return w

    def test_nothing_checked_is_proven(self):
        assert GapWatch().verdict(-1.0, 1.0) == PROVEN

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
    R = max(R, 1e-3)
    problem = ProblemInstance(name="drawn", dimension=n, oracle=oracle, projector=projector,
                              radius_R=R, lipschitz_L=L)
    start = x_star + rng.uniform(-4.0, 4.0, n)  # projected onto the set, off x*
    return problem, f_star, start


@st.composite
def drawn_runs(draw):
    problem, f_star, start = _known_optimum_problem(draw)
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
                          weight_ks=ks, restart_factor=restart)
    return problem, f_star, config


@settings(derandomize=True, max_examples=60, deadline=None)
@given(drawn_runs())
def test_bracket_holds_and_no_certificate_is_refuted(drawn):
    problem, f_star, config = drawn
    report, _ = run(problem, config)
    declared = config.policy.certificates(config.weight_ks, problem.lipschitz_L)
    if not declared:
        assert report.optimum_bracket is None
        return
    low, high = report.optimum_bracket
    assert leq_with_tol(low, f_star) and f_star <= high == report.best_value
    for cert in declared:
        assert cert.label in report.certificates
        refuted = not report.certificates[cert.label] and cert.label not in report.undecided
        assert not refuted, (cert.label, report)
    assert all(report.certificates[label] for label in report.certificates
               if label.startswith("monotone_"))


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
    # (the per-step check reads f(x_s) - f* below the rounding of f at 1e9)
    assert all(honest.certificates[label] for label in gap_labels)
    if not name.startswith("abs_offset"):
        assert all(honest.certificates.values())

    report, _ = run(dataclasses.replace(problem, radius_R=R / 1000.0), config)
    for label in gap_labels:
        assert report.certificates[label] is False
    if name in ("abs", "abs_offset"):  # a known optimum decides every certificate
        assert report.undecided == []
