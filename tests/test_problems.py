import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from psg import (
    FamilyPolicy,
    InvalidParameterError,
    LassoInstance,
    NumericError,
    SolverConfig,
    generate_lasso,
    make_abs_problem,
    make_lasso,
    make_sqrt_example,
    run,
)
from psg.problems import reference_optimum_value

from conftest import sample_feasible


class TestSqrtExample:
    def test_interior_oracle(self):
        oracle = make_sqrt_example().oracle
        res = oracle(np.array([0.25]))
        assert res.value == -0.5
        assert_allclose(res.subgradient, [-1.0])

    def test_at_optimum(self):
        res = make_sqrt_example().oracle(np.array([1.0]))
        assert res.value == -1.0
        assert_allclose(res.subgradient, [-0.5])

    def test_empty_subdifferential_at_zero(self):
        res = make_sqrt_example().oracle(np.array([0.0]))
        assert res.is_empty
        assert res.value == 0.0

    def test_declares_no_lipschitz_bound(self):
        problem = make_sqrt_example()
        assert problem.lipschitz_L is None
        assert problem.known_optimum_value == -1.0

    def test_subgradient_norm_grows_without_bound(self):
        # |g(10^-2k)| = 10^k / 2: no uniform norm bound exists on (0, 1]
        oracle = make_sqrt_example().oracle
        for k in range(1, 7):
            g = oracle(np.array([10.0 ** (-2 * k)])).subgradient
            assert abs(g[0]) == pytest.approx(10.0 ** k / 2.0, rel=1e-12)


class TestAbsProblem:
    def test_oracle_values(self):
        problem = make_abs_problem(1)
        res = problem.oracle(np.array([0.5]))
        assert res.value == 0.5
        assert_allclose(res.subgradient, [1.0])

    def test_minimal_norm_choice_at_zero(self):
        res = make_abs_problem(1).oracle(np.array([0.0]))
        assert res.value == 0.0
        assert_allclose(res.subgradient, [0.0])

    def test_corner(self):
        res = make_abs_problem(2).oracle(np.array([-1.0, 1.0]))
        assert res.value == 2.0
        assert_allclose(res.subgradient, [-1.0, 1.0])

    def test_metadata(self):
        problem = make_abs_problem(9)
        assert problem.lipschitz_L == 3.0
        assert problem.radius_R == 3.0
        assert problem.known_optimum_value == 0.0

    def test_rejects_bad_dim(self):
        with pytest.raises(InvalidParameterError):
            make_abs_problem(0)


class TestLasso:
    def test_oracle_at_origin(self):
        instance = generate_lasso(seed=3, n=10, m=6)
        problem = instance.to_problem()
        res = problem.oracle(np.zeros(10))
        assert res.value == pytest.approx(float(instance.y @ instance.y), rel=1e-15)
        assert_allclose(res.subgradient, -2.0 * instance.phi.T @ instance.y,
                        rtol=1e-15, atol=0)

    def test_scalar_least_squares_hand_value(self):
        # lam -> 0 limit checked with the smallest admissible lam: with
        # phi = (1), y = (2), x = 1 the residual part gives value 1, g = -2
        instance = LassoInstance(phi=np.array([[1.0]]), y=np.array([2.0]),
                                 lam=1e-12, radius=50.0, seed=0)
        res = instance.to_problem().oracle(np.array([1.0]))
        assert res.value == pytest.approx(1.0, abs=1e-11)
        assert res.subgradient[0] == pytest.approx(-2.0, abs=1e-11)

    def test_same_seed_bit_identical(self):
        a = generate_lasso(seed=11, n=20, m=12)
        b = generate_lasso(seed=11, n=20, m=12)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = generate_lasso(seed=1, n=20, m=12)
        b = generate_lasso(seed=2, n=20, m=12)
        assert not np.array_equal(a.phi, b.phi)

    def test_objective_midpoint_convexity(self, rng):
        problem = make_lasso(seed=5, n=16, m=10)
        points = sample_feasible(problem.projector, rng, 400)
        for i in range(200):
            x, z = points[2 * i], points[2 * i + 1]
            mid = problem.value((x + z) / 2.0)
            avg = 0.5 * (problem.value(x) + problem.value(z))
            assert mid <= avg * (1 + 1e-9) + 1e-12

    def test_no_lipschitz_or_optimum_declared(self):
        problem = make_lasso(seed=1, n=8, m=6)
        assert problem.lipschitz_L is None
        assert problem.known_optimum_value is None

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            generate_lasso(seed=1, n=0, m=4)
        with pytest.raises(InvalidParameterError):
            LassoInstance(phi=np.ones((2, 2)), y=np.ones(3), lam=1.0, radius=1.0, seed=0)
        with pytest.raises(InvalidParameterError):
            LassoInstance(phi=np.ones((2, 2)), y=np.ones(2), lam=0.0, radius=1.0, seed=0)
        with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -3"):
            generate_lasso(seed=-3, n=4, m=3)
        with pytest.raises(InvalidParameterError, match="phi must be a matrix"):
            LassoInstance(phi=np.ones(2), y=np.ones(2), lam=1.0, radius=1.0, seed=0)
        with pytest.raises(InvalidParameterError, match="phi and y must be finite"):
            LassoInstance(phi=np.array([[1.0, np.nan], [0.0, 1.0]]), y=np.ones(2), lam=1.0,
                          radius=1.0, seed=0)

    @pytest.mark.parametrize("field", ["lam", "radius"])
    def test_lambda_and_radius_must_be_finite(self, field):
        # an infinite lambda or radius gives a nonfinite oracle or step at iteration 1
        data = dict(phi=np.ones((2, 2)), y=np.ones(2), lam=1.0, radius=1.0, seed=0)
        message = f"{field} must be positive and finite, got inf"
        with pytest.raises(InvalidParameterError, match=message):
            LassoInstance(**dict(data, **{field: math.inf}))
        with pytest.raises(InvalidParameterError, match=message):
            generate_lasso(seed=1, n=4, m=3, **{field: math.inf})

    def test_sparse_ground_truth_size(self):
        instance = generate_lasso(seed=7, n=64, m=10)
        # ceil(64 / 16) = 4 nonzero +-1 entries in the planted signal feed y
        assert instance.phi.shape == (10, 64)
        assert instance.y.shape == (10,)


class TestLassoOracle:
    """The oracle's in-place arithmetic against the textbook expressions."""

    @staticmethod
    def points(n, rng):
        x = rng.standard_normal((4, n))
        x[0] = 0.0
        x[1, ::3] = 0.0
        x[2, :n // 2] = 0.0
        return x

    # n or m in {1, 2, 3} as well as the benchmark's shapes, each also as an
    # instance whose Phi is a strided view, which to_problem copies
    SHAPES = [(1, 1), (1, 5), (2, 8), (3, 40), (5, 1), (40, 2), (33, 3), (10, 6), (64, 40),
              (512, 300)]

    @pytest.mark.parametrize("n,m,loaded", [
        pytest.param(n, m, loaded, id=f"{n}-{m}" + ("-loaded" if loaded else ""))
        for n, m in SHAPES for loaded in (False, True)])
    def test_bit_identical_to_textbook(self, n, m, loaded, rng):
        instance = generate_lasso(seed=4, n=n, m=m)
        if loaded:  # every other column of a matrix twice as wide: a strided Phi
            wide = np.repeat(instance.phi, 2, axis=1)
            instance = dataclasses.replace(instance, phi=wide[:, ::2])
            assert instance.phi.flags.c_contiguous == (n * m == 1)
        # the textbook @ forms, on a C-contiguous phi, with ||x||_1 as sign(x) @ x
        phi, y, lam = np.ascontiguousarray(instance.phi), instance.y, instance.lam
        problem = instance.to_problem()
        for x in self.points(n, rng):
            res = problem.oracle(x)
            r = phi @ x - y
            assert res.value == float(r @ r) + lam * float(np.sign(x) @ x)
            assert np.array_equal(res.subgradient, 2.0 * (phi.T @ r) + lam * np.sign(x))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                              st.floats(min_value=-1e300, max_value=1e300)),
                    min_size=1, max_size=70))
    def test_l1_term_within_its_rounding_of_the_exact_sum(self, entries):
        # zero Phi and y leave the value lam ||x||_1 alone, here with lam = 1
        x = np.array(entries)
        n = len(x)
        problem = LassoInstance(phi=np.zeros((1, n)), y=np.zeros(1), lam=1.0, radius=1.0,
                                seed=0).to_problem()
        exact = math.fsum(abs(v) for v in entries)
        assert abs(problem.oracle(x).value - exact) <= n * 2.0 ** -53 * exact

    def test_overflowing_value_warns_and_fails_the_run(self):
        # r.dot(r) overflows to inf with numpy's warning, as r @ r does, and
        # the run reports the nonfinite value
        instance = generate_lasso(seed=4, n=3, m=2)
        huge = LassoInstance(phi=instance.phi, y=instance.y * 1e200, lam=instance.lam,
                             radius=instance.radius, seed=instance.seed).to_problem()
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert huge.oracle(np.zeros(3)).value == math.inf
        config = SolverConfig(max_iterations=5, initial_point=np.zeros(3),
                              policy=FamilyPolicy(R=instance.radius))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericError, match="iteration 1"):
                run(huge, config)

    def test_data_unchanged_and_results_independent(self, rng):
        instance = generate_lasso(seed=4, n=64, m=40)
        phi, y = instance.phi.copy(), instance.y.copy()
        problem = instance.to_problem()
        x = self.points(64, rng)[1]
        first = problem.oracle(x)
        expected = (first.value, first.subgradient.copy())
        first.subgradient[:] = np.nan
        second = problem.oracle(x)
        assert second.value == expected[0]
        assert np.array_equal(second.subgradient, expected[1])
        assert second.subgradient is not first.subgradient
        assert np.array_equal(instance.phi, phi) and np.array_equal(instance.y, y)


class TestReferenceOptimum:
    def test_returns_upper_estimate_that_improves_with_budget(self):
        problem = make_lasso(seed=2, n=12, m=8, radius=10.0, lam=1.0)
        short = reference_optimum_value(problem, 200)
        long = reference_optimum_value(problem, 2000)
        assert np.isfinite(short) and np.isfinite(long)
        assert long <= short
        assert long <= problem.value(np.zeros(12))

    def test_exact_on_a_solved_problem(self):
        # the origin is optimal, so the reference run stops immediately
        assert reference_optimum_value(make_abs_problem(3), 50) == 0.0
