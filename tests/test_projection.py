import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from psg import Ball, Box, InvalidParameterError, ShapeError, project
from psg.projection import feasibility_residual

from conftest import sample_feasible


class TestBall:
    def test_outside_point_scales_to_boundary(self):
        ball = Ball(center=np.zeros(2), radius=1.0)
        assert_allclose(project(ball, np.array([3.0, 4.0])), [0.6, 0.8])

    def test_inside_point_unchanged(self):
        ball = Ball(center=np.zeros(3), radius=50.0)
        y = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(project(ball, y), y)

    def test_zero_radius_returns_center(self):
        ball = Ball(center=np.array([2.0, -1.0]), radius=0.0)
        assert_allclose(project(ball, np.array([2.0, -1.0])), [2.0, -1.0])
        assert_allclose(project(ball, np.array([5.0, -1.0])), [2.0, -1.0])

    def test_overflowing_norm_still_scales_to_boundary(self):
        # ||d||^2 overflows for these finite points; the projection must not
        # collapse to the center
        ball = Ball(center=np.zeros(2), radius=1.0)
        assert np.array_equal(ball.project(np.array([1e200, 0.0])), [1.0, 0.0])
        assert_allclose(project(ball, np.array([3e200, -4e200])), [0.6, -0.8],
                        rtol=1e-15)
        shifted = Ball(center=np.array([1.0, 2.0]), radius=2.0)
        assert_allclose(shifted.project(np.array([1.0, -1e300])), [1.0, 0.0],
                        rtol=0, atol=1e-15)

    def test_overflowing_difference_stays_finite(self):
        # y - center itself overflows to inf; the nearest point is center + e_1
        ball = Ball(center=np.array([-1e308, 0.0]), radius=1.0)
        assert np.array_equal(ball.project(np.array([1e308, 0.0])), [-1e308, 0.0])
        far = Ball(center=np.array([-1e308, -1e308]), radius=1e300)
        assert_allclose(far.project(np.array([1e308, 1e308])),
                        -1e308 + 1e300 / np.sqrt(2.0), rtol=1e-15)


    def test_overflow_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ball = Ball(center=np.array([-1e308, 0.0]), radius=1.0)
            assert np.array_equal(ball.project(np.array([1e308, 0.0])), [-1e308, 0.0])
            at_origin = Ball(center=np.zeros(2), radius=1.0)
            assert np.array_equal(at_origin.project(np.array([-1e300, 0.0])), [-1.0, 0.0])

    @pytest.mark.parametrize("center", [np.zeros(5), np.linspace(-0.5, 0.5, 5)])
    def test_matches_textbook_formula_bitwise(self, rng, center):
        # the origin-centred ball skips y - 0, which is y exactly
        ball = Ball(center=center, radius=1.5)
        for y in rng.standard_normal((50, 5)) * 2.0:
            d = y - center
            norm = np.sqrt(d.dot(d))
            expected = y if norm <= 1.5 else center + d * (1.5 / norm)
            assert np.array_equal(ball.project(y), expected)

    def test_min_linear_matches_sampled_boundary(self, rng):
        ball = Ball(center=np.array([0.5, -2.0, 1.0]), radius=3.0)
        directions = rng.standard_normal((20000, 3))
        boundary = ball.center + 3.0 * directions / np.linalg.norm(directions, axis=1,
                                                                   keepdims=True)
        for v in rng.standard_normal((10, 3)) * [1.0, 10.0, 0.1]:
            sampled = float((boundary @ v).min())
            exact = ball.min_linear(v)
            assert exact <= sampled
            assert sampled - exact <= 1e-2 * np.linalg.norm(v) * ball.radius
            # attained at the boundary point opposite to v
            z = ball.center - ball.radius * v / np.linalg.norm(v)
            assert exact == pytest.approx(float(v @ z), rel=1e-12)
        assert ball.min_linear(np.zeros(3)) == 0.0


class TestBox:
    def test_min_linear_matches_vertices(self, rng):
        box = Box(lower=np.array([-1.0, 0.5, -3.0, 2.0]), upper=np.array([2.0, 0.5, -1.0, 4.0]))
        vertices = np.array(list(itertools.product(*zip(box.lower, box.upper))))
        for v in rng.standard_normal((20, 4)):
            assert box.min_linear(v) == pytest.approx(float((vertices @ v).min()), rel=1e-12)
            for z in sample_feasible(box, rng, count=50):
                assert box.min_linear(v) <= float(v @ z) + 1e-12


    def test_clamp(self):
        box = Box(lower=np.zeros(1), upper=np.ones(1))
        assert_allclose(project(box, np.array([-0.3])), [0.0])
        assert_allclose(project(box, np.array([1.7])), [1.0])
        assert_allclose(project(box, np.array([0.4])), [0.4])

    def test_invalid_bounds(self):
        with pytest.raises(InvalidParameterError):
            Box(lower=np.ones(2), upper=np.zeros(2))


def test_dimension_mismatch():
    with pytest.raises(ShapeError):
        project(Ball(center=np.zeros(2), radius=1.0), np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("op", [
    Ball(center=np.array([0.5, -1.0, 2.0]), radius=2.5),
    Box(lower=-np.ones(3), upper=np.array([0.5, 2.0, 1.0])),
], ids=["ball", "box"])
class TestProjectionProperties:
    def test_idempotent(self, op, rng):
        for _ in range(200):
            y = 10 * rng.standard_normal(3)
            once = project(op, y)
            assert_allclose(project(op, once), once, rtol=0, atol=1e-12)

    def test_distance_optimal_vs_sampling(self, op, rng):
        feasible = sample_feasible(op, rng, 1000)
        for _ in range(20):
            y = 10 * rng.standard_normal(3)
            p = project(op, y)
            dist = np.linalg.norm(p - y)
            assert np.all(np.linalg.norm(feasible - y, axis=1) >= dist - 1e-12)

    def test_nonexpansive_toward_feasible_points(self, op, rng):
        # the inequality behind the per-step descent certificate
        feasible = sample_feasible(op, rng, 200)
        for _ in range(50):
            y = 10 * rng.standard_normal(3)
            p = project(op, y)
            for x in feasible[:20]:
                assert np.linalg.norm(p - x) <= np.linalg.norm(y - x) + 1e-12

    def test_residual_zero_on_feasible(self, op, rng):
        for x in sample_feasible(op, rng, 100):
            assert feasibility_residual(op, x) <= 1e-12
