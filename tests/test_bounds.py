import math

import numpy as np
import pytest

from psg import (
    ConstantPolicy,
    FamilyPolicy,
    InvalidParameterError,
    check_certificate,
    classic_bound,
    constant_bound,
    family_bound,
    nesterov_bound,
    weak_ergodic_bound,
)
from psg.bounds import WeakBoundSums, evaluate, monotone_label, weak_label


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
    for k in (-3.0, float("nan")):
        with pytest.raises(InvalidParameterError):
            weak_label(k)


class TestEvaluate:
    """The column evaluator that `psg run` and `psg check` share."""

    EPOCH = [0, 0, 0, 1, 1, 2]
    G_NORM = [2.0, 1.0, 3.0, 0.5, 0.7, 4.0]

    def columns(self, eta=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5)):
        return {"epoch": self.EPOCH, "eta": list(eta), "g_norm": self.G_NORM,
                "f_avg_k0": [1.0] * 6, "f_avg_k2": [1.0] * 6}

    def test_bounds_start_over_with_each_epoch_bit_for_bit(self):
        R, L, ks = 1.7, 3.0, (0.0, 2.0)
        bounds, _, _ = evaluate(FamilyPolicy(R=R), ks, R, L, self.columns())
        t = [1, 2, 3, 1, 2, 1]
        max_g = [2.0, 2.0, 3.0, 0.5, 0.7, 4.0]
        assert bounds["family"].tolist() == [family_bound(R, u, g) for u, g in zip(t, max_g)]
        for k in ks:
            assert bounds[weak_label(k)].tolist() == [
                weak_ergodic_bound(R, u, k, g) for u, g in zip(t, max_g)]
        for name, fn in (("classic", classic_bound), ("constant", constant_bound),
                         ("nesterov", nesterov_bound)):
            assert bounds[name].tolist() == [fn(R, L, u) for u in t]

    def test_long_columns_equal_scalars_bit_for_bit(self):
        # 20,000 rows: every table entry is Python's u ** e, not numpy's power
        R, L, ks, t = 1.7, 3.0, (-1.0, 0.0, 2.0), 20_000
        g_norm = np.random.default_rng(0).uniform(0.5, 2.0, size=t)
        columns = {"epoch": np.zeros(t), "eta": np.ones(t), "g_norm": g_norm}
        bounds, _, _ = evaluate(FamilyPolicy(R=R), ks, R, L, columns)
        max_g = np.maximum.accumulate(g_norm).tolist()
        u = range(1, t + 1)
        assert bounds["family"].tolist() == [family_bound(R, s, g) for s, g in zip(u, max_g)]
        for name, fn in (("classic", classic_bound), ("constant", constant_bound),
                         ("nesterov", nesterov_bound)):
            assert bounds[name].tolist() == [fn(R, L, s) for s in u], name
        for k in ks:
            sums, expected = WeakBoundSums(k), []
            for g in max_g:
                sums.push()
                expected.append(sums.bound(R, g))
            assert bounds[weak_label(k)].tolist() == expected, k

    @pytest.mark.parametrize("epoch,held", [([0, 0, 0, 0, 0, 0], False),
                                            ([0, 0, 1, 1, 1, 1], True)])
    def test_monotone_verdict_is_per_epoch(self, epoch, held):
        # w_s / eta_s = 1 / eta_s at k = 0 falls once, from row 2 to row 3
        columns = dict(self.columns(eta=(1.0, 0.5, 2.0, 1.0, 0.5, 0.25)), epoch=epoch)
        _, verdicts, _ = evaluate(FamilyPolicy(R=1.0), (0.0,), 1.0, None, columns)
        assert verdicts["monotone_k0"] is held

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("step", [0.0, -0.5, math.inf, math.nan])
    def test_invalid_step_fails_monotone_without_a_warning(self, step):
        # w_s / eta_s has no value there; no division is attempted
        columns = self.columns(eta=(1.0, 0.9, step, 0.7, 0.6, 0.5))
        _, verdicts, _ = evaluate(FamilyPolicy(R=1.0), (-1.0, 0.0, 2.0), 1.0, None, columns)
        assert verdicts == {"monotone_k-1": False, "monotone_k0": False, "monotone_k2": False}

    def test_gap_verdicts_need_a_bracket(self):
        policy = FamilyPolicy(R=1.0)
        _, verdicts, undecided = evaluate(policy, (0.0,), 1.0, None, self.columns())
        assert list(verdicts) == ["monotone_k0"] and undecided == []
        _, verdicts, undecided = evaluate(policy, (0.0,), 1.0, None, self.columns(),
                                          (-math.inf, math.inf))
        assert verdicts == {"family": False, "weak_k0": False, "monotone_k0": True}
        assert undecided == ["family", "weak_k0"]

    @pytest.mark.parametrize("horizon,f_star,proven", [(1, 7.5, False), (1, 8.5, True),
                                                      (2, 7.5, True)])
    def test_horizon_certificate_reads_the_last_row_of_a_full_epoch(self, horizon, f_star,
                                                                    proven):
        # the last epoch has one row: 9 - f* against R L / sqrt(1) = 1 at horizon 1;
        # at horizon 2 the certificate never applies and holds vacuously
        policy = ConstantPolicy(R=1.0, L=1.0, horizon_t=horizon)
        columns = dict(self.columns(), f_avg_k0=[9.0])  # only the final value
        _, verdicts, _ = evaluate(policy, (0.0,), 1.0, 1.0, columns, (f_star, f_star))
        assert verdicts["constant"] is proven
