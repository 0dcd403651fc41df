import math

import numpy as np
import pytest

from psg import (
    InvalidParameterError,
    check_certificate,
    classic_bound,
    constant_bound,
    family_bound,
    nesterov_bound,
    weak_ergodic_bound,
)
from psg.bounds import WeakBoundSums, monotone_label, weak_label


def weak_oracle(R, t, k, max_g):
    """Independent direct-summation evaluation (exact fsum accumulation)."""
    num = t ** ((k + 1) / 2) + math.fsum(s ** ((k - 1) / 2) for s in range(1, t + 1))
    den = 2.0 * math.fsum(s ** (k / 2) for s in range(1, t + 1))
    return num / den * R * max_g


class TestSpotValues:
    def test_constant(self):
        assert constant_bound(1, 1, 1) == 1.0
        assert constant_bound(1, 1, 4) == 0.5
        assert constant_bound(50, 10, 100) == 50.0

    def test_classic(self):
        assert classic_bound(1, 1, 1) == 1.5
        assert classic_bound(1, 1, 9) == 0.5
        assert classic_bound(2, 3, 4) == 4.5

    def test_nesterov(self):
        assert nesterov_bound(1, 1, 1) == pytest.approx(
            2.0 / (4.0 * (math.sqrt(2.0) - 1.0)), rel=1e-15)
        assert nesterov_bound(1, 1, 3) == pytest.approx((2.0 + math.log(3.0)) / 4.0, rel=1e-12)
        # homogeneity in R*L
        assert nesterov_bound(2, 1, 3) == pytest.approx(2 * nesterov_bound(1, 1, 3), rel=1e-15)

    def test_family(self):
        assert family_bound(1, 4, 2.0) == 1.5
        assert family_bound(1, 1, 1.0) == 1.5

    def test_family_equals_classic_at_lipschitz_norm(self):
        for t in (1, 7, 1000):
            assert family_bound(2.0, t, 3.0) == classic_bound(2.0, 3.0, t)

    def test_weak_single_term(self):
        assert weak_ergodic_bound(1, 1, 0.0, 1.0) == 1.0
        assert weak_ergodic_bound(1, 1, -1.0, 1.0) == 1.0

    def test_weak_against_direct_summation(self):
        assert weak_ergodic_bound(1, 4, 0.0, 1.0) == pytest.approx(
            weak_oracle(1, 4, 0.0, 1.0), rel=1e-12)
        for k in (-1.0, -0.5, 0.0, 1.0, 2.0, 8.0):
            for t in (1, 2, 17, 400):
                assert weak_ergodic_bound(2.5, t, k, 3.0) == pytest.approx(
                    weak_oracle(2.5, t, k, 3.0), rel=1e-12)

    def test_weak_rejects_bad_input(self):
        with pytest.raises(InvalidParameterError):
            weak_ergodic_bound(1, 1, -1.5, 1.0)
        with pytest.raises(InvalidParameterError):
            weak_ergodic_bound(1, 0, 0.0, 1.0)


class TestCheckCertificate:
    def test_clear_pass(self):
        assert check_certificate(0.4, 0.5)

    def test_boundary_passes(self):
        assert check_certificate(0.5, 0.5)

    def test_clear_fail(self):
        assert not check_certificate(0.6, 0.5)

    def test_nonfinite_fails(self):
        assert not check_certificate(float("nan"), 0.5)
        assert not check_certificate(0.1, float("inf"))


class TestTracker:
    @pytest.mark.parametrize("k", [-1.0, -0.5, 0.0, 1.0, 2.0, 8.0])
    def test_matches_direct_evaluation_exactly(self, k):
        sums = WeakBoundSums(k)
        for t in range(1, 501):
            sums.push()
            assert sums.bound(1.7, 2.3) == weak_ergodic_bound(1.7, t, k, 2.3)

    def test_reset(self):
        sums = WeakBoundSums(0.0)
        sums.push()
        sums.push()
        sums.reset()
        sums.push()
        assert sums.bound(1.0, 1.0) == weak_ergodic_bound(1.0, 1, 0.0, 1.0)

    def test_empty_tracker_errors(self):
        with pytest.raises(InvalidParameterError):
            WeakBoundSums(0.0).bound(1.0, 1.0)


def test_kahan_regime_matches_fsum():
    t = 100_001
    for k in (-1.0, 0.0, 2.0):
        assert weak_ergodic_bound(1.0, t, k, 1.0) == pytest.approx(
            weak_oracle(1.0, t, k, 1.0), rel=1e-12)


@pytest.mark.parametrize("k", [-1.0, 4.0])
def test_streamed_sums_match_fsum_at_1e6(k):
    # the plain streamed sums are the only accumulator; at t = 1e6 they stay
    # within 1e-11 relative of exactly rounded sums (k = 4 is the worst case)
    t = 1_000_000
    sums = WeakBoundSums(k)
    for _ in range(t):
        sums.push()
    for got, exponent in ((sums._sum_low, 0.5 * (k - 1.0)), (sums._sum_mid, 0.5 * k)):
        exact = math.fsum(s ** exponent for s in range(1, t + 1))
        assert abs(got - exact) <= 1e-11 * exact


def test_weak_k0_below_family_bound_up_to_1e5():
    sums = WeakBoundSums(0.0)
    for t in range(1, 100_001):
        sums.push()
        assert sums.bound(1.0, 1.0) <= family_bound(1.0, t, 1.0)


def test_weak_km1_below_nesterov_bound_up_to_1e5():
    # with max||g|| = L the k = -1 bound is dominated by the
    # norm-normalized rule's bound
    sums = WeakBoundSums(-1.0)
    for t in range(1, 100_001):
        sums.push()
        assert sums.bound(1.0, 1.0) <= nesterov_bound(1.0, 1.0, t)


@pytest.mark.parametrize("k", [-0.5, 0.0, 1.0, 2.0, 8.0])
def test_optimal_rate_scaling_for_k_above_minus_one(k):
    scaled_small = weak_ergodic_bound(1.0, 10_000, k, 1.0) * 10_000 ** 0.5
    scaled_large = weak_ergodic_bound(1.0, 100_000, k, 1.0) * 100_000 ** 0.5
    assert 0.9 <= scaled_small / scaled_large <= 1.1


def test_bounds_homogeneous_in_R_and_norm():
    for c in (0.5, 3.0):
        assert constant_bound(c * 1.0, 2.0, 9) == pytest.approx(c * constant_bound(1, 2, 9))
        assert classic_bound(1.0, c * 2.0, 9) == pytest.approx(c * classic_bound(1, 2, 9))
        assert family_bound(c * 1.0, 9, 2.0) == pytest.approx(c * family_bound(1, 9, 2.0))
        assert weak_ergodic_bound(1.0, 9, 1.0, c * 2.0) == pytest.approx(
            c * weak_ergodic_bound(1.0, 9, 1.0, 2.0))


def test_labels():
    assert weak_label(0.0) == "weak_k0"
    assert weak_label(-0.5) == "weak_k-0.5"
    assert monotone_label(2.0) == "monotone_k2"
    with pytest.raises(InvalidParameterError):
        weak_label(-3.0)
