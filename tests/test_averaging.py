import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from psg import (
    Ball,
    BestIterate,
    Box,
    InvalidParameterError,
    NumericError,
    ShapeError,
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

    @pytest.mark.parametrize("k", [-1.0, -0.5, -0.25, 0.0, 0.5, 2.0, 7.0])
    def test_over_a_run_equals_each_call(self, k, rng):
        rule = WeightRule(k)
        etas = rng.uniform(1e-3, 10.0, size=50).tolist()
        weights = rule.over(17, etas)
        assert weights == [rule(s, eta) for s, eta in enumerate(etas, start=17)]
        assert all(type(w) is float for w in weights)

    def test_over_raises_on_overflow(self):
        with pytest.raises(OverflowError):
            WeightRule(300.0).over(100, [1.0] * 20)


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

    def test_overflowing_total_raises_before_the_mean_changes(self):
        # no numpy warning either: tier-1 turns one into an error
        acc = StreamingAverage().update(np.array([1e308, 1.0]), np.array([1.0]))
        with pytest.raises(OverflowError, match="total weight overflows"):
            acc.update(np.array([[1.0, 1.0], [1e308, 1.0]]), np.array([[3.0], [5.0]]))
        assert acc.count == 1
        assert acc.mean.tolist() == [[1.0], [1.0]]
        assert acc.total_weight.tolist() == [1e308, 1.0]

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

    @pytest.mark.parametrize("K", [None, 3], ids=["scalar", "vector"])
    def test_block_mean_is_not_a_view_of_out(self, K, rng):
        points = rng.standard_normal((5, 4))
        weights = rng.uniform(0.5, 2.0, size=(5,) if K is None else (5, K))
        for fresh in (True, False):
            acc = StreamingAverage()
            if not fresh:
                acc.update(weights[0], points[0])
            out = np.empty((5,) + ((4,) if K is None else (K, 4)))
            acc.update(weights, points, out=out)
            assert np.array_equal(acc.mean, out[-1])
            kept = acc.mean.copy()
            out[...] = np.nan
            assert np.array_equal(acc.mean, kept)
            assert acc.count == 5 + (not fresh)

    def test_block_rejects_mismatched_weights(self):
        for w in (np.ones(3), np.ones((3, 2)), 1.0):
            with pytest.raises(ShapeError):
                StreamingAverage().update(w, np.ones((2, 4)))

    def test_block_names_the_bad_weight(self):
        acc = StreamingAverage()
        with pytest.raises(NumericError, match="got nan"):
            acc.update(np.array([[1.0, 2.0], [np.nan, 1.0]]), np.ones((2, 3)))
        with pytest.raises(NumericError, match="nonfinite"):
            acc.update(np.ones((2, 2)), np.array([[1.0], [np.inf]]))
        assert acc.count == 0 and acc.mean is None

    @pytest.mark.parametrize("op", [
        Box(lower=-np.ones(3), upper=np.ones(3)),
        Ball(center=np.zeros(3), radius=2.0),
    ], ids=["box", "ball"])
    def test_mean_stays_feasible(self, op, rng):
        acc = StreamingAverage()
        for s, x in enumerate(sample_feasible(op, rng, 300), start=1):
            acc.update(s ** 0.5, x)
            assert feasibility_residual(op, acc.mean) <= 1e-9


def recurrence(weights, points):
    """The means after each point: W += w; mean += (w / W) (x - mean), written out."""
    shape = weights.shape[1:] + points.shape[1:]
    mean, total = np.broadcast_to(points[0], shape).copy(), weights[0].copy()
    means = [mean.copy()]
    for w, x in zip(weights[1:], points[1:]):
        total = total + w
        share = w / total
        mean = mean + (x - mean) * (share[..., None] if share.ndim else share)
        means.append(mean.copy())
    return np.array(means)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from([None, 1, 2, 3, 4]), st.integers(1, 40), st.integers(1, 130),
       st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_block_update_equals_point_updates(K, d, rows, before, seed):
    # K None is one weight per point; `before` points fed one at a time first,
    # so the block either starts the average or continues it
    rng = np.random.default_rng(seed)
    shape = () if K is None else (K,)
    weights = 10.0 ** rng.uniform(-6.0, 6.0, size=(before + rows,) + shape)
    points = rng.standard_normal((before + rows, d)) * 10.0 ** rng.uniform(-3, 3)
    apart, together = StreamingAverage(), StreamingAverage()
    for w, x in zip(weights[:before], points[:before]):
        apart.update(w, x)
        together.update(w, x)
    expected = []
    for w, x in zip(weights[before:], points[before:]):
        apart.update(w, x)
        expected.append(apart.mean.copy())
    out = np.empty((rows,) + shape + (d,))
    together.update(weights[before:], points[before:], out=out)
    assert np.array_equal(out, np.array(expected))
    assert np.array_equal(out, recurrence(weights, points)[before:])
    assert np.array_equal(together.mean, apart.mean)
    assert np.array_equal(together.total_weight, apart.total_weight)
    assert type(together.total_weight) is type(apart.total_weight)
    assert together.count == apart.count == before + rows


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
