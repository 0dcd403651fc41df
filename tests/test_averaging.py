import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from psg import (
    Ball,
    Box,
    InvalidParameterError,
    NumericError,
    ShapeError,
    StreamingAverage,
    WeightRule,
)
from psg.averaging import BestIterate, weight

from conftest import feasibility_residual, reference_power, sample_feasible


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

    def test_rejects_nan_k(self):
        # NaN fails k >= -1 as well as k < -1; it must not reach the update
        with pytest.raises(InvalidParameterError, match="k must be >= -1"):
            WeightRule(float("nan"))

    def test_rule_is_callable(self):
        assert WeightRule(2.0)(9, 0.3) == 9.0

    @pytest.mark.parametrize("k", [-1.0, -0.5, -0.25, 0.0, 0.5, 2.0, 7.0])
    def test_over_a_run_equals_each_call(self, k, rng):
        rule = WeightRule(k)
        s = np.arange(17.0, 67.0)
        etas = rng.uniform(1e-3, 10.0, size=50)
        weights = rule(s, etas)
        assert weights.dtype == np.float64 and weights.shape == (50,)
        assert weights.tolist() == [float(rule(s_i, eta))
                                    for s_i, eta in zip(range(17, 67), etas.tolist())]

    def test_over_a_run_overflow_is_inf(self):
        # s ** 150 overflows first at s = 114; no numpy warning (tier-1 turns one into an error)
        weights = WeightRule(300.0)(np.arange(100.0, 120.0), np.ones(20))
        assert np.isfinite(weights[:14]).all() and np.isinf(weights[14:]).all()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(k=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]),
           s=st.integers(1, 2 * 10 ** 6), eta=st.floats(1e-6, 1e6))
    def test_weight_is_the_exact_power_of_the_bounds(self, k, s, eta):
        # the rule's power is the bounds' one: sqrt and products for a
        # half-integer exponent, Python's pow for any other
        expected = reference_power(eta, -k) if k <= 0 else reference_power(float(s), 0.5 * k)
        rule = WeightRule(k)
        assert float(rule(s, eta)) == expected
        assert rule(np.array([float(s)] * 3), np.array([eta] * 3)).tolist() == [expected] * 3


def state(acc):
    """The mean, total weight and count of `acc`, as lists and numbers."""
    return np.asarray(acc.mean).tolist(), np.asarray(acc.total_weight).tolist(), acc.count


class TestStreamingAverage:
    def test_single_point(self):
        acc = StreamingAverage()
        acc.update([[1.0]], np.array([[2.0, 0.0]]))
        assert_allclose(acc.mean, [[2.0, 0.0]])
        assert acc.total_weight == 1.0

    def test_equal_weights(self):
        acc = StreamingAverage()
        acc.update([[1.0]], np.array([[0.0]])).update([[1.0]], np.array([[1.0]]))
        assert_allclose(acc.mean, [[0.5]])

    def test_unequal_weights(self):
        # direct quotient (1*0 + 3*4) / 4 = 3
        acc = StreamingAverage()
        acc.update([[1.0]], np.array([[0.0]])).update([[3.0]], np.array([[4.0]]))
        assert_allclose(acc.mean, [[3.0]])

    def test_rejects_bad_weight_and_point(self):
        acc = StreamingAverage()
        with pytest.raises(NumericError):
            acc.update([[0.0]], np.array([[1.0]]))
        with pytest.raises(NumericError):
            acc.update([[np.inf]], np.array([[1.0]]))
        with pytest.raises(NumericError):
            acc.update([[1.0]], np.array([[np.nan]]))
        with pytest.raises(NumericError):
            acc.update([[1.0]], np.array([[1e200, np.inf]]))

    def test_overflowing_sum_raises_before_the_mean_changes(self):
        # a mean of 0 whose sum w (x - b) = -2e310 does not fit a float; no numpy warning
        acc = StreamingAverage().update(np.array([[1e300]]), np.array([[1e10]]))
        with pytest.raises(OverflowError, match="weighted sum overflows"):
            acc.update(np.array([[1e300]]), np.array([[-1e10]]))
        assert state(acc) == ([[1e10]], [1e300], 1)

    def test_overflowing_total_raises_before_the_mean_changes(self):
        # no numpy warning either: tier-1 turns one into an error
        acc = StreamingAverage().update(np.array([[1e308, 1.0]]), np.array([[1.0]]))
        with pytest.raises(OverflowError, match="total weight overflows"):
            acc.update(np.array([[1.0, 1.0], [1e308, 1.0]]), np.array([[3.0], [5.0]]))
        assert acc.count == 1
        assert acc.mean.tolist() == [[1.0], [1.0]]
        assert acc.total_weight.tolist() == [1e308, 1.0]

    @pytest.mark.parametrize("w", [np.array([[1.0]]), np.array([[1.0, 2.0]])],
                             ids=["scalar", "vector"])
    def test_accepts_a_finite_point_whose_squared_norm_overflows(self, w):
        acc = StreamingAverage()
        x = np.array([[1e200, -1e200]])
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
                acc.update([[w]], x[None])
            direct = (weights[:, None] * points).sum(axis=0) / weights.sum()
            assert_allclose(acc.mean[0], direct, rtol=1e-9, atol=1e-12)
            assert acc.total_weight[0] == pytest.approx(weights.sum(), rel=1e-9)
            assert acc.count == length

    def test_k_zero_reduces_to_plain_running_mean(self, rng):
        points = rng.standard_normal((500, 2))
        acc = StreamingAverage()
        for s, x in enumerate(points, start=1):
            acc.update([[weight(0.0, s, eta_s=1.0 / s)]], x[None])
        assert_allclose(acc.mean[0], points.mean(axis=0), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("K", [1, 3], ids=["scalar", "vector"])
    def test_block_mean_is_not_a_view_of_out(self, K, rng):
        # the solver feeds one buffer again and again, and hands the mean it
        # reads out to the report: the fold keeps a view of neither
        points = rng.standard_normal((5, 4))
        weights = rng.uniform(0.5, 2.0, size=(5, K))
        for fresh in (True, False):
            acc = StreamingAverage()
            if not fresh:
                acc.update(weights[:1], points[:1])
            block = points.copy()
            acc.update(weights, block)
            out = acc.mean
            kept = out.copy()
            block[...] = np.nan
            out[...] = np.nan
            assert np.array_equal(acc.mean, kept)
            assert acc.count == 5 + (not fresh)

    @pytest.mark.parametrize("w,x", [
        (1.0, np.ones(4)),  # one point with one weight
        (np.ones(2), np.ones(4)),  # one point with a row of K weights
        (np.ones(2), np.ones((2, 4))),  # a block with one weight per row
        (np.ones(3), np.ones((2, 4))),
        (1.0, np.ones((2, 4))),
        (np.ones((3, 2)), np.ones((2, 4))),  # more weight rows than points
    ], ids=["point-weight", "point-K-weights", "weight-per-row", "three-weights",
            "block-weight", "more-weight-rows"])
    def test_block_rejects_mismatched_weights(self, w, x):
        fed = StreamingAverage().update(np.ones((1, 2)), np.zeros((1, 4)))
        for acc in (StreamingAverage(), fed):
            before = state(acc)
            with pytest.raises(ShapeError):
                acc.update(w, x)
            assert state(acc) == before

    @pytest.mark.parametrize("w,x", [
        (np.ones((2, 1)), np.ones((2, 4))),  # K differs from the sums'
        (np.ones((2, 2)), np.ones((2, 5))),  # d differs from the sums'
    ], ids=["other-K", "other-d"])
    def test_block_must_fit_the_sums(self, w, x):
        acc = StreamingAverage().update(np.ones((1, 2)), np.zeros((1, 4)))
        before = state(acc)
        with pytest.raises(ShapeError):
            acc.update(w, x)
        assert state(acc) == before

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
            acc.update([[s ** 0.5]], x[None])
            assert feasibility_residual(op, acc.mean[0]) <= 1e-9


def exact_mean(weights, points):
    """The K weighted means of all points, K x d, as exact fractions of the float inputs.

    1-D weights are one weight per point, a 1-column block.
    """
    weights = fractions(weights.reshape(len(weights), -1))
    return (weights.T @ fractions(points)) / weights.sum(axis=0)[:, None]


def fractions(a):
    return np.vectorize(Fraction, otypes=[object])(a)


U = Fraction(1, 2 ** 53)  # the unit roundoff of float64


def gamma(j):
    return j * U / (1 - j * U)


def fold_error_bound(weights, points):
    """A bound on |computed - exact| for each entry of the fold's K x d means, as fractions.

    With N points, b the first and A = sum_s w_s |x_s - b| per k and entry,
    the fold computes S = sum_s w_s (x_s - b) as fl(x_s - b), one product
    and at most N - 1 additions per term (inside its block's dot, then onto
    the sum of the blocks before), so |S^ - S| <= gamma(N + 1) A; the total
    W, a running sum of N positive terms, has |W^ - W| <= gamma(N - 1) W.
    Then |S^/W^ - S/W| <= E = (gamma(N + 1) + gamma(N - 1)) (A/W) / (1 - gamma(N - 1)),
    and the quotient and the addition of b round once each:
    |mean^ - mean| <= u |mean| + (1 + u) ((1 + u) E + u A/W). The order
    inside a dot does not enter, only its depth, so any BLAS order obeys it.
    """
    weights = fractions(weights.reshape(len(weights), -1))
    n = len(points)
    exact = fractions(points)
    spread = (weights.T @ np.abs(exact - exact[0])) / weights.sum(axis=0)[:, None]  # A / W
    mean = (weights.T @ exact) / weights.sum(axis=0)[:, None]
    g_sum, g_total = gamma(n + 1), gamma(max(n - 1, 0))
    e = (g_sum + g_total) * spread / (1 - g_total)
    return U * np.abs(mean) + (1 + U) * ((1 + U) * e + U * spread)


def feed_blocks(weights, points, before):
    """`before` points as one block, then the rest as another: (fold, means after each block).

    1-D weights are one weight per point, fed as a 1-column block.
    """
    weights = weights.reshape(len(weights), -1)
    acc = StreamingAverage()
    means = []
    for part in (slice(0, before), slice(before, None)):
        acc.update(weights[part], points[part])
        if len(weights[part]):
            means.append(acc.mean)
    return acc, means


def assert_within_the_bound(weights, points, before):
    """Feed `before` points, then the rest; the means after each block obey fold_error_bound."""
    _, means = feed_blocks(weights, points, before)
    ends = [before, len(points)] if before else [len(points)]
    for mean, end in zip(means, ends):
        error = np.abs(fractions(mean) - exact_mean(weights[:end], points[:end]))
        assert (error <= fold_error_bound(weights[:end], points[:end])).all()


# up to 65 rows, and lengths the solver's block sizing gives to narrow rows
BLOCK_ROWS = [1, 7, 8, 9, 63, 64, 65, 511, 512, 513, 4096]


def solver_weights(rng, n, k):
    """The weights of k over n iterations of a family-like rule with a jittered running maximum."""
    s = np.arange(1, n + 1.0)
    etas = rng.uniform(0.1, 10.0) / (np.maximum.accumulate(rng.uniform(0.5, 2.0, n))
                                     * s ** (0.5 * rng.uniform(0.0, 1.0)))
    return WeightRule(k)(s, etas)


@pytest.mark.parametrize("before", [0, 64], ids=["fresh", "continuing"])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("K", [None, 3], ids=["one-weight", "K-weights"])
def test_block_means_stay_near_the_exact_mean(K, rows, before):
    rng = np.random.default_rng(rows + 100 * before + (K or 0))
    n = before + rows
    ks = [0.0] if K is None else [-1.0, 0.0, 2.0]
    weights = np.column_stack([solver_weights(rng, n, k) for k in ks])
    points = rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-3, 3, size=4)
    assert_within_the_bound(weights, points, before)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([None, 1, 2, 3]), st.integers(1, 12), st.sampled_from(BLOCK_ROWS),
       st.integers(0, 9), st.integers(0, 2 ** 32 - 1))
def test_block_means_stay_near_the_exact_mean_for_spread_weights(K, d, rows, before, seed):
    # K None: one weight per point, fed as a 1-column block by feed_blocks
    rng = np.random.default_rng(seed)
    shape = () if K is None else (K,)
    weights = 10.0 ** rng.uniform(-6.0, 6.0, size=(before + rows,) + shape)
    points = rng.standard_normal((before + rows, d)) * 10.0 ** rng.uniform(-3, 3)
    assert_within_the_bound(weights, points, before)


@pytest.mark.parametrize("before", [0, 5], ids=["fresh", "continuing"])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("K", [None, 3], ids=["one-weight", "K-weights"])
def test_constant_stream_stays_exactly_constant(K, rows, before, rng):
    point = rng.standard_normal(5) * 1e3
    weights = 10.0 ** rng.uniform(-8.0, 8.0, size=(before + rows, K or 1))
    acc, means = feed_blocks(weights, np.tile(point, (before + rows, 1)), before)
    for mean in means + [acc.mean]:
        assert np.array_equal(mean, np.broadcast_to(point, mean.shape))


@pytest.mark.parametrize("K,d", [(1, 1), (1, 5), (3, 5)], ids=["rows", "column", "K-by-d"])
def test_prefix_sum_keeps_its_order_up_to_64_rows(K, d, rng):
    # each total is a running sum down its weight column, from the total
    # before the block: the bits of adding one weight after another
    for rows in range(1, 65):
        weights = 10.0 ** rng.uniform(-8, 8, size=(rows + 1, K))
        points = rng.standard_normal((rows + 1, d))
        acc = StreamingAverage().update(weights[:1], points[:1])
        acc.update(weights[1:], points[1:])
        for j in range(K):
            total = 0.0
            for w in weights[:, j].tolist():
                total += w
            assert acc.total_weight[j] == total, (rows, j)


@pytest.mark.parametrize("rows", [65, 72, 511, 512, 513, 4096, 4101])
def test_long_prefix_sums_are_exact_on_integers(rows, rng):
    # weights below 2^10 and offsets x - b below 2^21 make integer products
    # below 2^31, whose sums stay below 2^53: exact in any order, so both
    # the totals and the weighted sums equal the integer sums
    weights = rng.integers(1, 2 ** 10, size=(rows, 2))
    points = rng.integers(-2 ** 20, 2 ** 20, size=(rows, 3))
    acc = StreamingAverage().update(weights.astype(np.float64), points.astype(np.float64))
    offsets = points - points[0]
    assert acc.total_weight.tolist() == weights.sum(axis=0).tolist()
    assert acc.sums.tolist() == (weights.T @ offsets).tolist()


@pytest.mark.parametrize("K", [None, 2], ids=["one-weight", "K-weights"])
def test_weights_beyond_the_float_range_in_one_block(K, rng):
    # weights from 1e-320 to 1e10 in one block, a ratio of 1e330 that no
    # float holds: the fold forms no ratio of them, only their sums
    weights = np.array([[1e-320], [1e-320], [1e10], [0.7], [1.3], [2.1]])
    if K:  # beside a column of ordinary weights, which keeps its own bits
        weights = np.column_stack([weights, 10.0 ** rng.uniform(-3.0, 3.0, size=6)])
    points = np.array([[1.0], [3.0], [2.0], [0.3], [0.9], [0.45]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc, means = feed_blocks(weights, points, 1)
    assert_within_the_bound(weights, points, 1)
    assert float(means[0][0, 0]) == 1.0
    if K:
        _, alone = feed_blocks(weights[:, 1:2], points, 1)
        assert np.array_equal(np.array(means)[:, 1:2], np.array(alone))


@pytest.mark.parametrize("K", [None, 3], ids=["one-weight", "K-weights"])
def test_one_point_update_is_the_recurrence(K, rng):
    # each point a 1-row block: S' = S + w (x - b), W' = W + w, mean b + S' / W'
    shape = (K or 1,)
    acc = StreamingAverage().update(rng.uniform(0.5, 2.0, size=(6,) + shape),
                                    rng.standard_normal((6, 4)))
    base = acc.base.copy()
    for _ in range(20):
        w, x = rng.uniform(0.01, 100.0, size=shape), rng.standard_normal(4) * 1e2
        sums, total = acc.sums + w[:, None] * (x - base), acc.total_weight + w
        acc.update(w[None], x[None])
        assert np.array_equal(acc.sums, sums)
        assert np.array_equal(acc.total_weight, total)
        assert np.array_equal(acc.mean, base + sums / total[:, None])
        assert np.array_equal(acc.base, base)


@pytest.mark.parametrize("before", [0, 5], ids=["fresh", "continuing"])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_each_of_k_weights_is_its_single_weight_stream(rows, before, rng):
    weights = 10.0 ** rng.uniform(-6.0, 6.0, size=(before + rows, 3))
    points = rng.standard_normal((before + rows, 6))
    joint, joint_means = feed_blocks(weights, points, before)
    for j in range(3):
        alone, means = feed_blocks(weights[:, j:j + 1], points, before)
        assert np.array_equal(np.array(joint_means)[:, j:j + 1], np.array(means))
        assert np.array_equal(joint.mean[j:j + 1], alone.mean)
        assert joint.total_weight[j] == alone.total_weight
        assert alone.total_weight.shape == (1,)


@pytest.mark.parametrize("K", [None, 2], ids=["one-weight", "K-weights"])
@pytest.mark.parametrize("big", [1e308, 1e300], ids=["overflow", "finite"])
def test_narrow_and_wide_means_warn_alike(K, big):
    # a point 2e308 away from the first overflows x - b: for 1 entry or 12
    # the update raises rather than warns, and keeps the fold as it was
    def feed(d):
        w = np.ones((3, K or 1))
        x = np.array([[-big], [big], [big]]) * np.ones(d)
        acc = StreamingAverage().update(w[:1], x[:1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                acc.update(w[1:], x[1:])
            except OverflowError as exc:
                return str(exc), acc.count
        return None, acc.count

    narrow, wide = feed(1), feed(12)
    assert narrow == wide
    assert narrow == (("weighted sum overflows", 1) if big == 1e308 else (None, 3))


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
