import warnings
from fractions import Fraction

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


def exact_means(weights, points):
    """The weighted means after each point, as exact fractions of the float inputs."""
    shape = weights.shape[1:]
    num = np.full(shape + points.shape[1:], Fraction(0), dtype=object)
    den = np.full(shape, Fraction(0), dtype=object) if shape else Fraction(0)
    means = []
    for w, x in zip(weights, points):
        w_exact = np.vectorize(Fraction, otypes=[object])(w)
        x_exact = np.vectorize(Fraction, otypes=[object])(x)
        num = num + (w_exact[..., None] * x_exact if shape else w_exact * x_exact)
        den = den + w_exact
        means.append(num / (den[..., None] if shape else den))
    return means


def feed_blocks(weights, points, before):
    """`before` points as one block, then the rest as another: (average, means after each)."""
    acc = StreamingAverage()
    outs = []
    for part in (slice(0, before), slice(before, None)):
        out = np.empty(weights[part].shape + points.shape[1:])
        acc.update(weights[part], points[part], out=out)
        outs.extend(out)
    return acc, outs


BLOCK_ROWS = [1, 7, 8, 9, 63, 64, 65]
# The largest error of a block mean against the exact weighted mean, in ulps
# of the largest |x| fed so far. Over 5,000 draws like those below (1 to 5
# entries, up to 200 points before the block) the worst was 4.7 ulps with
# the solver's weights and 6.6 with weights spread over 1e-6..1e6; 1 and 40
# draws went past 4 ulps.
MAX_ULPS = 8


def solver_weights(rng, n, k):
    """The weights of k over n iterations of a family-like rule with a jittered running maximum."""
    s = np.arange(1, n + 1.0)
    etas = rng.uniform(0.1, 10.0) / (np.maximum.accumulate(rng.uniform(0.5, 2.0, n))
                                     * s ** (0.5 * rng.uniform(0.0, 1.0)))
    return np.array(WeightRule(k).over(1, etas.tolist()))


def assert_within_ulps(means, weights, points):
    tops = np.maximum.accumulate(np.abs(points).max(axis=1))
    for mean, exact, top in zip(means, exact_means(weights, points), tops):
        error = np.vectorize(lambda m, e: abs(Fraction(float(m)) - e))(mean, exact)
        assert float(error.max()) <= MAX_ULPS * np.spacing(top)


@pytest.mark.parametrize("before", [0, 64], ids=["fresh", "continuing"])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("K", [None, 3], ids=["one-weight", "K-weights"])
def test_block_means_stay_near_the_exact_mean(K, rows, before):
    rng = np.random.default_rng(rows + 100 * before + (K or 0))
    n = before + rows
    ks = [0.0] if K is None else [-1.0, 0.0, 2.0]
    weights = np.column_stack([solver_weights(rng, n, k) for k in ks])
    weights = weights[:, 0] if K is None else weights
    points = rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-3, 3, size=4)
    _, means = feed_blocks(weights, points, before)
    assert_within_ulps(means, weights, points)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([None, 1, 2, 3]), st.integers(1, 12), st.sampled_from(BLOCK_ROWS),
       st.integers(0, 9), st.integers(0, 2 ** 32 - 1))
def test_block_means_stay_near_the_exact_mean_for_spread_weights(K, d, rows, before, seed):
    rng = np.random.default_rng(seed)
    shape = () if K is None else (K,)
    weights = 10.0 ** rng.uniform(-6.0, 6.0, size=(before + rows,) + shape)
    points = rng.standard_normal((before + rows, d)) * 10.0 ** rng.uniform(-3, 3)
    acc, means = feed_blocks(weights, points, before)
    assert_within_ulps(means, weights, points)
    assert np.array_equal(acc.mean, means[-1]) and acc.count == before + rows


@pytest.mark.parametrize("before", [0, 5], ids=["fresh", "continuing"])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("K", [None, 3], ids=["one-weight", "K-weights"])
def test_constant_stream_stays_exactly_constant(K, rows, before, rng):
    point = rng.standard_normal(5) * 1e3
    weights = 10.0 ** rng.uniform(-8.0, 8.0, size=(before + rows,) + (() if K is None else (K,)))
    acc, means = feed_blocks(weights, np.tile(point, (before + rows, 1)), before)
    for mean in means + [acc.mean]:
        assert np.array_equal(mean, np.broadcast_to(point, mean.shape))


@pytest.mark.parametrize("K", [None, 3], ids=["one-weight", "K-weights"])
def test_one_point_update_is_the_recurrence(K, rng):
    shape = () if K is None else (K,)
    acc = StreamingAverage().update(rng.uniform(0.5, 2.0, size=(6,) + shape),
                                    rng.standard_normal((6, 4)))
    for _ in range(20):
        w, x = rng.uniform(0.01, 100.0, size=shape), rng.standard_normal(4) * 1e2
        mean, total = acc.mean.copy(), acc.total_weight + w
        share = w / total
        expected = mean + (x - mean) * (share[..., None] if K else share)
        acc.update(w, x)
        assert np.array_equal(acc.mean, expected)
        assert np.array_equal(acc.total_weight, total)


@pytest.mark.parametrize("before", [0, 5], ids=["fresh", "continuing"])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_each_of_k_weights_is_its_single_weight_stream(rows, before, rng):
    weights = 10.0 ** rng.uniform(-6.0, 6.0, size=(before + rows, 3))
    points = rng.standard_normal((before + rows, 6))
    joint, joint_means = feed_blocks(weights, points, before)
    for j in range(3):
        alone, means = feed_blocks(weights[:, j], points, before)
        assert np.array_equal(np.array(joint_means)[:, j], np.array(means))
        assert np.array_equal(joint.mean[j], alone.mean)
        assert joint.total_weight[j] == alone.total_weight
        assert type(alone.total_weight) is float


@pytest.mark.parametrize("K", [None, 2], ids=["one-weight", "K-weights"])
@pytest.mark.parametrize("big", [1e308, 1e300], ids=["overflow", "finite"])
def test_narrow_and_wide_means_warn_alike(K, big):
    # a point 2e308 away from the mean overflows x - m0: numpy warns, and the
    # mean turns nonfinite rather than silently finite, for 1 entry or 12
    def feed(d):
        w = np.ones((3,) if K is None else (3, K))
        x = np.array([[-big], [big], [big]]) * np.ones(d)
        acc = StreamingAverage().update(w[0], x[0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            acc.update(w[1:], x[1:])
        return [(c.category, str(c.message)) for c in caught], bool(np.isfinite(acc.mean).all())

    narrow, wide = feed(1), feed(12)
    assert narrow == wide
    overflowed = big == 1e308
    assert [category for category, _ in narrow[0]] == [RuntimeWarning] * overflowed
    assert narrow[1] is not overflowed


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
