import numpy as np
import pytest
from numpy.testing import assert_allclose

from psg import (
    Ball,
    BestIterate,
    Box,
    InvalidParameterError,
    NumericError,
    StreamingAverage,
    WeightRule,
    weight,
)
from psg.projection import feasibility_residual

from conftest import sample_feasible


class TestWeight:
    def test_uniform_at_k_zero(self):
        assert weight(0.0, 7, 0.3) == 1.0

    def test_step_weighted_at_k_minus_one(self):
        assert weight(-1.0, 7, 0.3) == 0.3

    def test_index_power_for_positive_k(self):
        assert weight(2.0, 9, 0.3) == 9.0

    def test_negative_fractional_k(self):
        assert weight(-0.5, 3, 0.25) == pytest.approx(0.5, rel=1e-15)

    def test_rejects_k_below_minus_one(self):
        with pytest.raises(InvalidParameterError):
            weight(-1.5, 1, 1.0)
        with pytest.raises(InvalidParameterError):
            WeightRule(-2.0)

    def test_rule_is_callable(self):
        assert WeightRule(2.0)(9, 0.3) == 9.0


class TestStreamingAverage:
    def test_single_point(self):
        acc = StreamingAverage()
        acc.update(1.0, np.array([2.0, 0.0]))
        assert_allclose(acc.mean, [2.0, 0.0])
        assert acc.total_weight == 1.0

    def test_equal_weights(self):
        acc = StreamingAverage()
        acc.update(1.0, np.array([0.0])).update(1.0, np.array([1.0]))
        assert_allclose(acc.mean, [0.5])

    def test_unequal_weights(self):
        # direct quotient (1*0 + 3*4) / 4 = 3
        acc = StreamingAverage()
        acc.update(1.0, np.array([0.0])).update(3.0, np.array([4.0]))
        assert_allclose(acc.mean, [3.0])

    def test_rejects_bad_weight_and_point(self):
        acc = StreamingAverage()
        with pytest.raises(NumericError):
            acc.update(0.0, np.array([1.0]))
        with pytest.raises(NumericError):
            acc.update(np.inf, np.array([1.0]))
        with pytest.raises(NumericError):
            acc.update(1.0, np.array([np.nan]))
        with pytest.raises(NumericError):
            acc.update(1.0, np.array([1e200, np.inf]))

    @pytest.mark.parametrize("w", [1.0, np.array([1.0, 2.0])], ids=["scalar", "vector"])
    def test_accepts_a_finite_point_whose_squared_norm_overflows(self, w):
        acc = StreamingAverage()
        x = np.array([1e200, -1e200])
        acc.update(w, x).update(w, x)
        assert acc.count == 2
        assert np.all(acc.mean == x)

    def test_matches_direct_quotient_on_long_streams(self, rng):
        for _ in range(5):
            length = int(rng.integers(100, 10_001))
            weights = rng.uniform(0.01, 100.0, size=length)
            points = rng.standard_normal((length, 3))
            acc = StreamingAverage()
            for w, x in zip(weights, points):
                acc.update(w, x)
            direct = (weights[:, None] * points).sum(axis=0) / weights.sum()
            assert_allclose(acc.mean, direct, rtol=1e-9, atol=1e-12)
            assert acc.total_weight == pytest.approx(weights.sum(), rel=1e-9)
            assert acc.count == length

    def test_k_zero_reduces_to_plain_running_mean(self, rng):
        points = rng.standard_normal((500, 2))
        acc = StreamingAverage()
        for s, x in enumerate(points, start=1):
            acc.update(weight(0.0, s, eta_s=1.0 / s), x)
        assert_allclose(acc.mean, points.mean(axis=0), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("op", [
        Box(lower=-np.ones(3), upper=np.ones(3)),
        Ball(center=np.zeros(3), radius=2.0),
    ], ids=["box", "ball"])
    def test_mean_stays_feasible(self, op, rng):
        acc = StreamingAverage()
        for s, x in enumerate(sample_feasible(op, rng, 300), start=1):
            acc.update(s ** 0.5, x)
            assert feasibility_residual(op, acc.mean) <= 1e-9


@pytest.mark.parametrize("k", [-0.75, -0.5, -0.25, 0.0])
def test_classic_step_weights_proportional_to_index_power(k):
    # with eta_s = R / (L sqrt(s)) the weight eta_s^(-k) is (R/L)^(-k) s^(k/2)
    R, L = 2.0, 5.0
    ratios = [weight(k, s, R / (L * s ** 0.5)) / s ** (0.5 * k) for s in range(1, 101)]
    assert_allclose(ratios, ratios[0], rtol=1e-12)


class TestBestIterate:
    def test_tracks_minimum(self):
        acc = BestIterate()
        acc.update(1, 5.0, np.array([1.0]))
        assert acc.best_value == 5.0 and acc.best_index == 1
        acc.update(2, 3.0, np.array([2.0]))
        assert acc.best_value == 3.0 and acc.best_index == 2

    def test_ties_keep_earliest(self):
        acc = BestIterate()
        acc.update(1, 3.0, np.array([1.0]))
        acc.update(5, 3.0, np.array([9.0]))
        assert acc.best_index == 1
        assert_allclose(acc.best_point, [1.0])

    def test_point_is_copied(self):
        acc = BestIterate()
        x = np.array([1.0])
        acc.update(1, 0.5, x)
        x[0] = 99.0
        assert acc.best_point[0] == 1.0
