import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psg import (
    ClassicPolicy,
    ConstantPolicy,
    FamilyPolicy,
    InvalidParameterError,
    NesterovPolicy,
    SolverConfig,
    classic_bound,
    constant_bound,
    family_bound,
    nesterov_bound,
    run,
    weak_ergodic_bound,
)
from psg.averaging import WeightRule
from psg.bounds import (PROVEN, REFUTED, WeakBoundSums, check_certificate, evaluate, gap_verdict,
                         monotone_label, value_mean, weak_label)

from conftest import make_resisting_problem, reference_power


def weak_oracle(R, t, k, max_g):
    """Independent direct-summation evaluation (exact fsum accumulation)."""
    num = t ** ((k + 1) / 2) + math.fsum(s ** ((k - 1) / 2) for s in range(1, t + 1))
    den = 2.0 * math.fsum(s ** (k / 2) for s in range(1, t + 1))
    return num / den * R * max_g


def reference_weak(R, k, max_g):
    """The weak bound at t = 1, 2, ..., one per entry of `max_g`, on Python floats.

    Its two sums add their terms in ascending order, one term per t.
    """
    sum_low = sum_mid = 0.0
    for t, g in enumerate(max_g, 1):
        sum_low += reference_power(float(t), 0.5 * (k - 1.0))
        sum_mid += reference_power(float(t), 0.5 * k)
        yield (reference_power(float(t), 0.5 * (k + 1.0)) + sum_low) / (2.0 * sum_mid) * R * g


# k: the weak bound's top term and its two summed terms at u, sqrt(u), as
# correctly rounded sqrt, product and reciprocal steps
WEAK_TERMS = {
    -1.0: lambda u, r: (1.0, 1.0 / u, 1.0 / r),
    0.0: lambda u, r: (r, 1.0 / r, 1.0),
    2.0: lambda u, r: (u * r, r, u),
    4.0: lambda u, r: (r * (u * u), r * u, u * u),
    5.0: lambda u, r: (u * (u * u), u * u, r * (u * u)),
}


def family_columns(R, ks, g_norm):
    """evaluate's family and weak columns over t = 1..len(g_norm) in one epoch."""
    t = len(g_norm)
    columns = {"epoch": np.zeros(t), "eta": np.ones(t), "g_norm": g_norm, "f_x": np.zeros(t)}
    bounds, _, _ = evaluate(FamilyPolicy(R=R), ks, R, None, columns)
    return bounds


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
        # a count is an integer >= 1 and no bool, as max_iterations is
        for t in (0, -3, 2.5, 3.0, True, "3", None):
            with pytest.raises(InvalidParameterError, match="t must be an integer >= 1"):
                weak_ergodic_bound(1, t, 0.0, 1.0)

    def test_scalar_calls_return_floats(self):
        for value in (constant_bound(1, 1, 4), classic_bound(1, 1, 4), nesterov_bound(1, 1, 4),
                      family_bound(1, 4, 1.0), weak_ergodic_bound(1, np.int64(4), 0.0, 1.0)):
            assert isinstance(value, float) and np.ndim(value) == 0


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


def test_bounds_are_sqrt_and_products_without_libm_pow():
    # every term is correctly rounded sqrt, product and reciprocal steps, so no
    # bound depends on the C library; glibc's u ** 0.5 differs from sqrt(u)
    # at 16 of these u
    R, g, ks, t = 1.7, 2.3, (-1.0, 0.0, 2.0, 5.0), 20_000
    u = np.arange(1.0, t + 1.0)
    columns = family_columns(R, ks, np.full(t, g))
    expected = {"family": [], "classic": [], "constant": [], "nesterov": [],
                **{k: [] for k in ks}}
    sums = {k: [0.0, 0.0] for k in ks}
    for s in range(1, t + 1):
        r = math.sqrt(s)
        expected["family"].append(1.5 * R * g / r)
        expected["constant"].append(R * g / r)
        expected["nesterov"].append(
            (2.0 * R * g + R * g * math.log(s)) / (4.0 * (math.sqrt(s + 1) - 1.0)))
        for k in ks:
            top, low, mid = WEAK_TERMS[k](float(s), r)
            sums[k][0] += low
            sums[k][1] += mid
            expected[k].append((top + sums[k][0]) / (2.0 * sums[k][1]) * R * g)
    assert columns["family"].tolist() == expected["family"]
    assert classic_bound(R, g, u).tolist() == expected["family"]
    assert constant_bound(R, g, u).tolist() == expected["constant"]
    assert nesterov_bound(R, g, u).tolist() == expected["nesterov"]
    for k in ks:
        assert columns[weak_label(k)].tolist() == expected[k], k


def test_kahan_regime_matches_fsum():
    t = 100_001
    for k in (-1.0, 0.0, 2.0):
        assert weak_ergodic_bound(1.0, t, k, 1.0) == pytest.approx(
            weak_oracle(1.0, t, k, 1.0), rel=1e-12)


@pytest.mark.parametrize("k", [-1.0, 4.0])
def test_streamed_sums_match_fsum_at_1e6(k):
    # the bound's two sums add their terms in ascending order, the only
    # accumulator; at t = 1e6 they stay within 1e-11 relative of exactly
    # rounded sums (k = 4 is the worst case), and the bound is formed from them
    t = 1_000_000
    u = np.arange(1.0, t + 1.0)
    _, low, mid = WEAK_TERMS[k](u, np.sqrt(u))
    sums = []
    for terms in (low, mid):
        got, exact = float(np.add.accumulate(terms)[-1]), math.fsum(terms.tolist())
        assert abs(got - exact) <= 1e-11 * exact
        sums.append(got)
    top = WEAK_TERMS[k](float(t), math.sqrt(t))[0]
    assert weak_ergodic_bound(1.0, t, k, 1.0) == (top + sums[0]) / (2.0 * sums[1])


def test_weak_k0_below_family_bound_up_to_1e5():
    bounds = family_columns(1.0, (0.0,), np.ones(100_000))
    above = np.flatnonzero(bounds["weak_k0"] > bounds["family"])
    assert above.size == 0, above[:5] + 1


def test_weak_km1_below_nesterov_bound_up_to_1e5():
    # with max||g|| = L the k = -1 bound is dominated by the
    # norm-normalized rule's bound
    t = 100_000
    weak = family_columns(1.0, (-1.0,), np.ones(t))["weak_k-1"]
    above = np.flatnonzero(weak > nesterov_bound(1.0, 1.0, np.arange(1.0, t + 1.0)))
    assert above.size == 0, above[:5] + 1


@settings(derandomize=True, max_examples=25, deadline=None)
@given(T=st.integers(1, 2_000), fraction=st.floats(0.0, 1.0),
       R=st.floats(0.01, 100.0), L=st.floats(0.01, 100.0), seed=st.integers(0, 2**32 - 1))
def test_scalar_is_its_column_entry(T, fraction, R, L, seed):
    # one code path: a scalar call is entry t of the column over 1..T, and
    # both equal the Python-float reference bit for bit
    ks = (-1.0, -0.5, 0.0, 0.5, 2.0, 5.0)
    t = 1 + int(fraction * (T - 1))
    u = np.arange(1.0, T + 1.0)
    g_norm = np.random.default_rng(seed).uniform(0.5, 2.0, size=T)
    max_g = np.maximum.accumulate(g_norm)
    g, r = float(max_g[t - 1]), math.sqrt(t)
    lipschitz = (
        (constant_bound, R * L / r),
        (classic_bound, 1.5 * R * L / r),
        (nesterov_bound, (2.0 * R * L + R * L * math.log(t)) / (4.0 * (math.sqrt(t + 1) - 1.0))),
    )
    for fn, reference in lipschitz:
        assert fn(R, L, t) == fn(R, L, u)[t - 1] == reference, fn.__name__
    columns = family_columns(R, ks, g_norm)
    assert family_bound(R, t, g) == columns["family"][t - 1] == 1.5 * R * g / r
    assert family_bound(R, u, max_g)[t - 1] == columns["family"][t - 1]
    for k in ks:
        streamed = list(reference_weak(R, k, max_g[:t].tolist()))[-1]
        assert weak_ergodic_bound(R, t, k, g) == columns[weak_label(k)][t - 1] == streamed, k


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
                "f_x": [1.0] * 6}

    @staticmethod
    def rules_with_L(R, L):
        """Each rule whose one bound needs L, with that bound's formula."""
        return ((ClassicPolicy(R=R, L=L), classic_bound),
                (ConstantPolicy(R=R, L=L, horizon_t=4), constant_bound),
                (NesterovPolicy(R=R), nesterov_bound))

    def test_bounds_start_over_with_each_epoch_bit_for_bit(self):
        R, L, ks = 1.7, 3.0, (0.0, 2.0)
        bounds, _, _ = evaluate(FamilyPolicy(R=R), ks, R, L, self.columns())
        assert list(bounds) == ["family", "weak_k0", "weak_k2"]
        t = [1, 2, 3, 1, 2, 1]
        max_g = [2.0, 2.0, 3.0, 0.5, 0.7, 4.0]
        assert bounds["family"].tolist() == [family_bound(R, u, g) for u, g in zip(t, max_g)]
        for k in ks:
            assert bounds[weak_label(k)].tolist() == [
                weak_ergodic_bound(R, u, k, g) for u, g in zip(t, max_g)]
        for policy, fn in self.rules_with_L(R, L):
            bounds, _, _ = evaluate(policy, ks, R, L, self.columns())
            assert list(bounds) == [policy.label]
            assert bounds[policy.label].tolist() == [fn(R, L, u) for u in t]

    def test_long_columns_equal_scalars_bit_for_bit(self):
        # 20,000 rows; k = 0.5 takes Python's pow, k = 5 squares u^2; a weak
        # column equals the streamed reference, whose every entry is a scalar
        # call (see test_scalar_is_its_column_entry)
        R, L, ks, t = 1.7, 3.0, (-1.0, 0.0, 0.5, 2.0, 5.0), 20_000
        g_norm = np.random.default_rng(0).uniform(0.5, 2.0, size=t)
        columns = {"epoch": np.zeros(t), "eta": np.ones(t), "g_norm": g_norm,
                   "f_x": np.zeros(t)}
        max_g = np.maximum.accumulate(g_norm).tolist()
        u = range(1, t + 1)
        for policy, fn in self.rules_with_L(R, L):
            bounds, _, _ = evaluate(policy, ks, R, L, columns)
            assert bounds[policy.label].tolist() == [fn(R, L, s) for s in u], policy.label
        bounds, _, _ = evaluate(FamilyPolicy(R=R), ks, R, L, columns)
        assert bounds["family"].tolist() == [family_bound(R, s, g) for s, g in zip(u, max_g)]
        for k in ks:
            expected = list(reference_weak(R, k, max_g))
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
        monotone = {label: ok for label, ok in verdicts.items() if label.startswith("monotone_")}
        assert monotone == {"monotone_k-1": False, "monotone_k0": False, "monotone_k2": False}

    def test_gap_verdicts_need_a_bracket(self):
        # without a bracket f* is unbounded: every gap certificate is declared
        # and undecided, as against (-inf, inf)
        policy = FamilyPolicy(R=1.0)
        for bracket in (None, (-math.inf, math.inf)):
            _, verdicts, undecided = evaluate(policy, (0.0,), 1.0, None, self.columns(), bracket)
            assert verdicts == {"family": False, "weak_k0": False, "monotone_k0": True}
            assert undecided == ["family", "weak_k0"]

    @pytest.mark.parametrize("horizon,f_star,proven", [(1, 7.5, False), (1, 8.5, True),
                                                      (2, 7.5, True)])
    def test_horizon_certificate_reads_the_last_row_of_a_full_epoch(self, horizon, f_star,
                                                                    proven):
        # the last epoch has one row, so v_0 = f(x_6) = 9: 9 - f* against
        # R L / sqrt(1) = 1 at horizon 1; at horizon 2 the certificate never
        # applies and holds vacuously
        policy = ConstantPolicy(R=1.0, L=1.0, horizon_t=horizon)
        columns = dict(self.columns(), f_x=[1.0] * 5 + [9.0])
        _, verdicts, _ = evaluate(policy, (0.0,), 1.0, 1.0, columns, (f_star, f_star))
        assert verdicts["constant"] is proven

    @pytest.mark.parametrize("k", [-1.0, 0.0, 2.0])
    def test_value_mean_is_the_weighted_mean_of_f_x_per_epoch(self, k):
        # sum w_s f(x_s) / sum w_s, summed row after row and restarted with each epoch
        eta, f_x = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5], [4.0, 3.5, 3.25, 9.0, 2.0, 7.0]
        rule, expected = WeightRule(k), []
        for start, end in ((0, 3), (3, 5), (5, 6)):
            num = den = 0.0
            for t, s in enumerate(range(start, end), start=1):
                w = float(rule(t, eta[s]))
                num, den = num + w * f_x[s], den + w
                expected.append(num / den)
        w = rule(np.array([1.0, 2.0, 3.0, 1.0, 2.0, 1.0]), np.array(eta))
        assert value_mean(w, np.array(f_x), [(0, 3), (3, 5), (5, 6)]).tolist() == expected

    def test_gap_verdicts_read_the_value_mean_not_a_column_of_averaged_values(self):
        # f(x_s) = 1, 3: v_0 = 1, 2; with f* = 0 and the family bound 1.5 R max||g|| / sqrt(t)
        # (R = 1, ||g|| = 1: 1.5, 1.06) the second row is refuted, whatever an
        # f_avg column beside it says
        columns = {"epoch": [0, 0], "eta": [1.0, 1.0], "g_norm": [1.0, 1.0], "f_x": [1.0, 3.0],
                   "f_avg_k0": [0.0, 0.0]}
        _, verdicts, undecided = evaluate(FamilyPolicy(R=1.0), (0.0,), 1.0, None, columns,
                                          (0.0, 0.0))
        assert verdicts["family"] is False and undecided == []
        columns["f_x"] = [1.0, 1.0]
        _, verdicts, _ = evaluate(FamilyPolicy(R=1.0), (0.0,), 1.0, None, columns, (0.0, 0.0))
        assert verdicts["family"] is True


RESISTING_KS = (-1.0, -0.5, 0.0, 0.5, 2.0)


@pytest.mark.parametrize("rule", ["family-a0", "family-a1", "classic", "constant", "nesterov"])
def test_every_bound_is_within_8x_of_the_gap_on_the_resisting_instance(rule):
    # On Nesterov's resisting instance (k = 1001, R = L = 1) the gap stays
    # large for t = 1,000 < k steps from 0, so every bound is proven with at
    # most an 8x margin (the smallest measured bound/gap is 2.39, constant),
    # and a bound 8x too small, the mutant, is refuted: a wrong bound fails here
    problem = make_resisting_problem(1001, R=1.0, L=1.0)
    R, L, f_star = problem.radius_R, problem.lipschitz_L, problem.known_optimum_value
    policy = {"family-a0": FamilyPolicy(R, a=0.0), "family-a1": FamilyPolicy(R, a=1.0),
              "classic": ClassicPolicy(R, L), "constant": ConstantPolicy(R, L, 1000),
              "nesterov": NesterovPolicy(R)}[rule]
    report, trace = run(problem, SolverConfig(max_iterations=1000, initial_point=np.zeros(1001),
                                              policy=policy, weight_ks=RESISTING_KS))
    assert report.iterations_run == 1000 and "per_step" in report.certificates
    assert all(report.certificates.values()), report.certificates
    claims = policy.claims(RESISTING_KS, L)
    assert [name for name in trace if name.startswith("bound_")] == [
        f"bound_{claim.label}" for claim in claims]
    for claim in claims:
        v = value_mean(WeightRule(claim.k)(trace["s"], trace["eta"]), trace["f_x"], [(0, 1000)])
        bound = trace[f"bound_{claim.label}"]
        if claim.horizon is not None:  # decided at its horizon alone
            v, bound = v[-1:], bound[-1:]
        assert gap_verdict(v, bound, f_star, f_star) == PROVEN, claim.label
        assert gap_verdict(v, bound / 8, f_star, f_star) == REFUTED, claim.label
