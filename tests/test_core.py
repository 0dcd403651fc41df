import dataclasses

import numpy as np
import pytest

from psg import (
    InvalidParameterError,
    NumericError,
    ProblemInstance,
    ShapeError,
    SubgradientResult,
    make_abs_problem,
    make_lasso,
    make_sqrt_example,
)
from psg.core import ensure_vector, leq_with_tol, scheme_label

from conftest import sample_feasible


def subgradient_inequality_holds(oracle, x, z) -> bool:
    """f(z) >= f(x) + <g, z - x> for the oracle's subgradient g at x, up to the tolerance."""
    res_x = oracle(x)
    return leq_with_tol(res_x.value + float(np.dot(res_x.subgradient, z - x)), oracle(z).value)


class TestSubgradientInequality:
    def test_sqrt_example_interior(self):
        # f(1) = -1 >= f(0.25) + g*(0.75) = -0.5 - 0.75 = -1.25
        oracle = make_sqrt_example().oracle
        assert subgradient_inequality_holds(oracle, np.array([0.25]), np.array([1.0]))


@pytest.mark.parametrize("problem", [
    make_abs_problem(1),
    make_abs_problem(3),
    make_sqrt_example(),
    make_lasso(seed=0, n=12, m=8),
], ids=lambda p: p.name)
def test_oracles_pass_1000_random_pairs(problem, rng):
    points = sample_feasible(problem.projector, rng, 2000)
    for i in range(1000):
        x, z = points[2 * i], points[2 * i + 1]
        if problem.oracle(x).subgradient is None:
            continue
        assert subgradient_inequality_holds(problem.oracle, x, z)


@pytest.mark.parametrize("problem", [make_abs_problem(1), make_abs_problem(5)],
                         ids=lambda p: p.name)
def test_instance_consistency_sampled(problem, rng):
    points = sample_feasible(problem.projector, rng, 500)
    x_star = problem.known_optimum_point
    for x in points:
        assert np.linalg.norm(x - x_star) <= problem.radius_R * (1 + 1e-12)
        g = problem.oracle(x).subgradient
        assert np.linalg.norm(g) <= problem.lipschitz_L * (1 + 1e-12)


def test_sqrt_feasible_set_inside_optimum_ball(rng):
    problem = make_sqrt_example()
    points = sample_feasible(problem.projector, rng, 500)
    for x in points:
        assert np.linalg.norm(x - problem.known_optimum_point) <= problem.radius_R + 1e-12


class TestEnsureVector:
    def test_scalar_promotes_to_1d(self):
        assert ensure_vector(3.0).shape == (1,)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ensure_vector([1.0, 2.0], dim=3)

    def test_matrix_rejected(self):
        with pytest.raises(ShapeError):
            ensure_vector(np.zeros((2, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            ensure_vector([1.0, np.nan])


def test_leq_with_tol_boundary():
    assert leq_with_tol(1.0, 1.0)
    assert leq_with_tol(1.0 + 1e-10, 1.0)
    assert not leq_with_tol(1.0 + 1e-6, 1.0)
    assert leq_with_tol(0.0, 0.0)


def test_leq_with_tol_on_arrays_is_the_scalar_check_per_entry():
    inf, nan, top = float("inf"), float("nan"), float(np.finfo(float).max)
    # inf - inf and an overflowing right side, too, give no warning
    lhs = [1.0, 1.0 + 1e-10, 1.0 + 1e-6, -0.0, -1e300, inf, -inf, nan, 1.0, -1e-13, top]
    rhs = [1.0, 1.0, 1.0, 0.0, -1e300, inf, -inf, 1.0, nan, -2e-13, top]
    scalar = [leq_with_tol(a, b, abs_=1e-12) for a, b in zip(lhs, rhs)]
    assert scalar == [True, True, False, True, True, True, False, False, False, True, True]
    assert all(type(ok) is bool for ok in scalar)
    abs_ = np.full(len(lhs), 1e-12)
    assert leq_with_tol(np.array(lhs), np.array(rhs), abs_=abs_).tolist() == scalar


class TestSubgradientResult:
    def test_fields_and_defaults(self):
        g = np.ones(2)
        res = SubgradientResult(1.5, g)
        assert res == (1.5, g)
        assert res.subgradient is g
        assert SubgradientResult(value=0.0, subgradient=None).subgradient is None

    def test_immutable_with_copies_by_replace(self):
        res = SubgradientResult(1.0, np.zeros(1))
        with pytest.raises(AttributeError):
            res.value = 2.0
        changed = res._replace(value=2.0)
        assert changed.value == 2.0 and res.value == 1.0
        assert changed.subgradient is res.subgradient


def test_problem_instance_validation():
    oracle = make_abs_problem(1).oracle
    box = make_abs_problem(1).projector
    with pytest.raises(InvalidParameterError):
        ProblemInstance(name="bad", dimension=0, oracle=oracle, projector=box, radius_R=1.0)
    with pytest.raises(InvalidParameterError):
        ProblemInstance(name="bad", dimension=1, oracle=oracle, projector=box, radius_R=-1.0)
    with pytest.raises(InvalidParameterError):
        ProblemInstance(name="bad", dimension=1, oracle=oracle, projector=box,
                        radius_R=1.0, lipschitz_L=0.0)


@pytest.mark.parametrize("field", ["radius_R", "lipschitz_L"])
def test_problem_instance_rejects_infinite_R_and_L(field):
    # an infinite R or L would reach the steps and bounds as inf * 0 = nan
    problem = make_abs_problem(2)
    with pytest.raises(InvalidParameterError, match=f"{field} must be positive and finite"):
        dataclasses.replace(problem, **{field: np.inf})


def test_scheme_labels():
    assert scheme_label(0.0) == "k0"
    assert scheme_label(-0.5) == "k-0.5"
    assert scheme_label(8.0) == "k8"
