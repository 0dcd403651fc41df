import numpy as np
import pytest

from psg import (
    ClassicPolicy,
    ConstantPolicy,
    FamilyPolicy,
    InvalidParameterError,
    NesterovPolicy,
    ZeroSubgradientError,
)
from psg.averaging import weight
from psg.bounds import Certificate


class TestConstantStep:
    def test_values(self):
        assert ConstantPolicy(R=1, L=1, horizon_t=1).step_size(1, 0.5) == 1.0
        assert ConstantPolicy(R=2, L=4, horizon_t=4).step_size(1, 0.5) == 0.25
        assert ConstantPolicy(R=50, L=10, horizon_t=100).step_size(1, 0.5) == 0.5

    @pytest.mark.parametrize("args", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, args):
        with pytest.raises(InvalidParameterError):
            ConstantPolicy(*args)


class TestClassicStep:
    def test_values(self):
        assert ClassicPolicy(R=1, L=1).step_size(1, 0.5) == 1.0
        assert ClassicPolicy(R=1, L=1).step_size(4, 0.5) == 0.5
        assert ClassicPolicy(R=3, L=2).step_size(9, 0.5) == 0.5

    def test_strictly_decreasing(self):
        policy = ClassicPolicy(R=2.0, L=3.0)
        etas = [policy.step_size(s, 1.0) for s in range(1, 200)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            ClassicPolicy(R=1, L=0)


class TestNesterovStep:
    def test_values(self):
        assert NesterovPolicy(R=1).step_size(1, 1.0) == 1.0
        assert NesterovPolicy(R=1).step_size(4, 2.0) == 0.25
        assert NesterovPolicy(R=50).step_size(25, 5.0) == 2.0

    def test_zero_subgradient_is_an_error(self):
        with pytest.raises(ZeroSubgradientError):
            NesterovPolicy(R=1).step_size(3, 0.0)


def family_after(steps, a):
    """A family policy that has taken the (s, ||g_s||) steps in `steps`."""
    policy = FamilyPolicy(R=1.0, a=a)
    for s, g_norm in steps:
        policy.step_size(s, g_norm)
    return policy


class TestFamilyUpdateG:
    def test_first_call_from_sentinel(self):
        assert family_after([(1, 3.0)], a=1.0).G == 3.0

    def test_a_one_is_running_norm_max(self):
        assert family_after([(1, 2.0), (5, 3.0)], a=1.0).G == 3.0
        assert family_after([(1, 3.0), (6, 1.0)], a=1.0).G == 3.0

    def test_a_zero_scales_by_sqrt_s(self):
        # 1 * 9^0.5 = 3 beats the held 2
        assert family_after([(1, 2.0), (9, 1.0)], a=0.0).G == 3.0

    def test_rejects_bad_a(self):
        for a in (-0.1, 1.1):
            with pytest.raises(InvalidParameterError):
                FamilyPolicy(R=1.0, a=a)

    def test_zero_norm_keeps_state(self):
        assert family_after([(1, 2.0), (7, 0.0)], a=0.5).G == 2.0


class TestFamilyStep:
    def test_values(self):
        # G_s = ||g_s|| * s^((1-a)/2) on a first step
        assert FamilyPolicy(R=1, a=0.5).step_size(1, 1.0) == 1.0
        assert FamilyPolicy(R=1, a=1.0).step_size(4, 2.0) == 0.25
        assert FamilyPolicy(R=1, a=0.0).step_size(4, 1.0) == 0.5

    def test_zero_G_is_an_error(self):
        with pytest.raises(ZeroSubgradientError):
            FamilyPolicy(R=1, a=1.0).step_size(1, 0.0)

    def test_rejects_bad_a(self):
        with pytest.raises(InvalidParameterError):
            FamilyPolicy(R=1, a=2.0)


def iterate_G(g_norms, a):
    policy = FamilyPolicy(R=1.0, a=a)
    out = []
    for s, g in enumerate(g_norms, start=1):
        policy.step_size(s, g)
        out.append(policy.G)
    return np.array(out)


@pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 1.0])
def test_recursion_matches_closed_form(a, rng):
    # closed form: G_s = max over j <= s of ||g_j|| * j^((1-a)/2)
    for _ in range(50):
        length = int(rng.integers(1, 300))
        g_norms = rng.uniform(0, 10, size=length)
        recursive = iterate_G(g_norms, a)
        idx = np.arange(1, length + 1, dtype=float)
        closed = np.maximum.accumulate(g_norms * idx ** (0.5 * (1 - a)))
        np.testing.assert_allclose(recursive, closed, rtol=1e-12, atol=0)


def test_family_reduces_to_classic_when_norms_constant():
    # ||g_s|| = L and a = 1 make G_s = L, so the two step rules coincide
    # bit for bit.
    L = 1.0
    family = FamilyPolicy(R=1.0, a=1.0)
    classic = ClassicPolicy(R=1.0, L=L)
    for s in range(1, 1001):
        assert family.step_size(s, L) == classic.step_size(s, L)


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("k", [-1.0, -0.5, 0.0, 1.0, 2.0])
def test_weight_step_ratio_nondecreasing(a, k, rng):
    for _ in range(20):
        g_norms = rng.uniform(0.01, 10, size=400)
        policy = FamilyPolicy(R=1.0, a=a)
        ratios = []
        for s, g in enumerate(g_norms, start=1):
            eta = policy.step_size(s, g)
            assert eta > 0
            ratios.append(weight(k, s, eta) / eta)
        ratios = np.array(ratios)
        assert np.all(ratios[1:] >= ratios[:-1] * (1 - 1e-9) - 1e-12)


class TestDeclarations:
    KS = (-1.0, 0.0, 2.0)

    def test_constant_certificate_applies_at_the_horizon(self):
        policy = ConstantPolicy(R=1.0, L=2.0, horizon_t=80)
        assert policy.certificates(self.KS, 2.0) == [Certificate("constant", 0.0, 80)]
        assert policy.certificates(self.KS, None) == []
        assert policy.certificates((2.0,), 2.0) == []

    def test_classic_and_nesterov_need_L(self):
        assert ClassicPolicy(R=1.0, L=2.0).certificates(self.KS, 2.0) == [
            Certificate("classic", 0.0)]
        assert NesterovPolicy(R=1.0).certificates(self.KS, 2.0) == [
            Certificate("nesterov", -1.0)]
        assert ClassicPolicy(R=1.0, L=2.0).certificates(self.KS, None) == []
        assert NesterovPolicy(R=1.0).certificates(self.KS, None) == []

    def test_family_needs_no_L(self):
        assert FamilyPolicy(R=1.0).certificates(self.KS, None) == [
            Certificate("family", 0.0), Certificate("weak_k-1", -1.0),
            Certificate("weak_k0", 0.0), Certificate("weak_k2", 2.0)]

    @pytest.mark.parametrize("L", [3.0, 1.0])
    def test_lipschitz_rules_claim_nothing_at_another_L(self, L):
        # their theorems hold for the L their steps divide by, here 2
        for policy in (ClassicPolicy(R=1, L=2), ConstantPolicy(R=1, L=2, horizon_t=80)):
            assert policy.claims(self.KS, L) == []
            assert policy.bound_labels(self.KS, L) == []
            assert policy.certificates(self.KS, L) == []

    def test_monotone_exponents(self):
        for policy in (FamilyPolicy(R=1.0), ClassicPolicy(R=1.0, L=1.0),
                       ConstantPolicy(R=1.0, L=1.0, horizon_t=5)):
            assert policy.monotone_ks(self.KS) == list(self.KS)
        assert NesterovPolicy(R=1.0).monotone_ks(self.KS) == [-1.0]
        assert NesterovPolicy(R=1.0).monotone_ks((0.0, 2.0)) == []


class TestPolicies:
    def test_constant_policy_is_constant(self):
        policy = ConstantPolicy(R=2.0, L=4.0, horizon_t=4)
        assert policy.step_size(1, 7.0) == 0.25
        assert policy.step_size(3, 0.1) == 0.25
        assert policy.label == "constant"

    def test_classic_policy(self):
        policy = ClassicPolicy(R=1.0, L=1.0)
        assert policy.step_size(4, 99.0) == 0.5
        assert policy.G is None

    def test_nesterov_policy(self):
        policy = NesterovPolicy(R=50.0)
        assert policy.step_size(25, 5.0) == 2.0

    def test_family_policy_tracks_and_resets_state(self):
        policy = FamilyPolicy(R=1.0, a=1.0)
        assert policy.G is None
        policy.step_size(1, 2.0)
        assert policy.G == 2.0
        policy.step_size(2, 1.0)
        assert policy.G == 2.0
        policy.reset()
        assert policy.G is None
        assert policy.label == "family_a1"

    def test_family_rejects_bad_a(self):
        with pytest.raises(InvalidParameterError):
            FamilyPolicy(R=1.0, a=1.5)

    def test_policies_reject_bad_R(self):
        for ctor in (lambda: ClassicPolicy(R=0.0, L=1.0),
                     lambda: NesterovPolicy(R=-1.0),
                     lambda: FamilyPolicy(R=0.0),
                     # an infinite R or L fails here, not at the first step
                     lambda: FamilyPolicy(R=np.inf),
                     lambda: NesterovPolicy(R=np.inf),
                     lambda: ClassicPolicy(R=1.0, L=np.inf),
                     lambda: ConstantPolicy(R=np.inf, L=1.0, horizon_t=5),
                     lambda: ConstantPolicy(R=1.0, L=1.0, horizon_t=0),
                     # a run never has 2.5 rows, and a bool is no count
                     lambda: ConstantPolicy(R=1.0, L=1.0, horizon_t=2.5),
                     lambda: ConstantPolicy(R=1.0, L=1.0, horizon_t=True)):
            with pytest.raises(InvalidParameterError):
                ctor()
        assert ConstantPolicy(R=1.0, L=1.0, horizon_t=np.int64(5)).horizon_t == 5
