import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from psg import (
    Ball,
    Box,
    ClassicPolicy,
    ConstantPolicy,
    FamilyPolicy,
    InvalidParameterError,
    NesterovPolicy,
    NumericError,
    ProblemInstance,
    ShapeError,
    SolverConfig,
    StopReason,
    StreamingAverage,
    SubgradientResult,
    ZeroSubgradientError,
    make_abs_problem,
    make_lasso,
    make_sqrt_example,
    psg_step,
    reference_optimum_value,
    run,
)
from psg import solver as solver_module

from conftest import assert_trace_invariants, make_two_slope_problem


class TestPsgStep:
    def test_box_step(self):
        box = Box(lower=-np.ones(1), upper=np.ones(1))
        assert_allclose(psg_step(np.array([1.0]), np.array([1.0]), 1.0, box), [0.0])

    def test_zero_subgradient_is_identity(self):
        box = Box(lower=-np.ones(1), upper=np.ones(1))
        assert_allclose(psg_step(np.array([0.5]), np.array([0.0]), 7.0, box), [0.5])

    def test_ball_overshoot_projects_back(self):
        # y = (60, 80) has norm 100, scaled to the radius-50 sphere
        ball = Ball(center=np.zeros(2), radius=50.0)
        out = psg_step(np.array([0.0, 0.0]), np.array([-3.0, -4.0]), 20.0, ball)
        assert_allclose(out, [30.0, 40.0])

    def test_shape_mismatch(self):
        box = Box(lower=-np.ones(2), upper=np.ones(2))
        with pytest.raises(ShapeError):
            psg_step(np.zeros(2), np.zeros(3), 1.0, box)

    def test_nonpositive_eta(self):
        box = Box(lower=-np.ones(1), upper=np.ones(1))
        with pytest.raises(InvalidParameterError):
            psg_step(np.zeros(1), np.ones(1), 0.0, box)


class TestTwoStepHandTrace:
    """abs(1) from x=1 with the a=1 family rule resolves in two iterations."""

    @pytest.fixture()
    def result(self):
        problem = make_abs_problem(1)
        config = SolverConfig(max_iterations=10, initial_point=np.array([1.0]),
                              policy=FamilyPolicy(R=1.0, a=1.0), weight_ks=(0.0,),
                              record_trace=True)
        return run(problem, config)

    def test_stops_at_optimum(self, result):
        report, trace = result
        assert report.stop_reason is StopReason.ZERO_SUBGRADIENT
        assert report.iterations_run == 2
        assert report.best_value == 0.0
        assert report.best_index == 2
        assert report.max_g_norm == 1.0

    def test_trace_values(self, result):
        _, trace = result
        assert list(trace["s"]) == [1, 2]
        assert (trace["eta"][0], trace["g_norm"][0], trace["G"][0]) == (1.0, 1.0, 1.0)
        assert trace["f_x"][0] == 1.0 and trace["f_best"][0] == 1.0
        assert trace["f_avg_k0"][0] == 1.0
        assert trace["g_norm"][1] == 0.0
        assert trace["eta"][1] == 1.0 / 2 ** 0.5  # G stays 1, step R/(G sqrt(2))
        assert trace["f_x"][1] == 0.0 and trace["f_best"][1] == 0.0

    def test_uniform_mean_is_midpoint(self, result):
        report, _ = result
        assert report.averaged_values["k0"] == 0.5
        assert_allclose(report.averaged_points["k0"], [0.5])

    def test_certificates_hold(self, result):
        report, trace = result
        assert report.certificates == {"per_step": True, "family": True,
                                       "weak_k0": True, "monotone_k0": True}
        # first-row bounds from their closed forms at t=1
        assert trace["bound_family"][0] == 1.5
        assert trace["bound_weak_k0"][0] == 1.0


class TestStopping:
    def test_start_at_optimum_family_rule(self):
        # zero subgradient at s=1 leaves the family rule with no step size:
        # only the best iterate is recorded
        problem = make_abs_problem(1)
        config = SolverConfig(max_iterations=5, initial_point=np.zeros(1),
                              policy=FamilyPolicy(R=1.0, a=1.0), record_trace=True)
        report, trace = run(problem, config)
        assert report.stop_reason is StopReason.ZERO_SUBGRADIENT
        assert report.best_value == 0.0
        assert report.iterations_run == 0
        assert list(trace) == ["s", "epoch", "eta", "g_norm", "G", "f_x", "f_best", "f_avg_k0",
                               "bound_family", "bound_weak_k0"]
        assert all(len(col) == 0 for col in trace.values())
        assert report.averaged_values == {}

    def test_start_at_optimum_classic_rule(self):
        # the L-based rule can still produce a step, so the final point is
        # folded into the averages before stopping
        problem = make_abs_problem(1)
        config = SolverConfig(max_iterations=5, initial_point=np.zeros(1),
                              policy=ClassicPolicy(R=1.0, L=1.0), record_trace=True)
        report, trace = run(problem, config)
        assert report.stop_reason is StopReason.ZERO_SUBGRADIENT
        assert report.iterations_run == 1
        assert report.best_value == 0.0
        assert report.averaged_values["k0"] == 0.0

    def test_zero_subgradient_error_at_a_nonzero_norm_propagates(self):
        # only an exactly zero subgradient stops the run; a rule that raises
        # ZeroSubgradientError at any other norm is at fault
        class Broken(ClassicPolicy):
            def step_size(self, s, g_norm):
                if s == 3:
                    raise ZeroSubgradientError("broken rule")
                return super().step_size(s, g_norm)

        config = SolverConfig(max_iterations=5, initial_point=np.array([0.9]),
                              policy=Broken(R=0.1, L=1.0))
        with pytest.raises(ZeroSubgradientError, match="broken rule"):
            run(make_abs_problem(1), config)

    def test_empty_subdifferential(self):
        problem = make_sqrt_example()
        config = SolverConfig(max_iterations=5, initial_point=np.zeros(1),
                              policy=FamilyPolicy(R=1.0))
        report, trace = run(problem, config)
        assert report.stop_reason is StopReason.EMPTY_SUBDIFFERENTIAL
        assert report.iterations_run == 0

    def test_budget_exhausted(self):
        problem = make_abs_problem(2)
        config = SolverConfig(max_iterations=50, initial_point=np.array([0.7, -0.3]),
                              policy=FamilyPolicy(R=problem.radius_R))
        report, _ = run(problem, config)
        assert report.stop_reason is StopReason.BUDGET_EXHAUSTED
        assert report.iterations_run == 50


def reference_family_run(problem, x1, a, t):
    """Minimal independent reimplementation of the family-rule iteration.

    Returns (iterates including x_{t+1}, subgradient norms, step sizes);
    used to cross-check the solver's trace numbers.
    """
    x = np.array(x1, dtype=float)
    xs, norms, etas = [], [], []
    G = -np.inf
    for s in range(1, t + 1):
        res = problem.oracle(x)
        g = np.asarray(res.subgradient, dtype=float)
        gn = float(np.linalg.norm(g))
        G = max(G, gn * s ** (0.5 * (1 - a)))
        if G <= 0:
            break
        eta = problem.radius_R / (G * s ** (0.5 * a))
        xs.append(x.copy())
        norms.append(gn)
        etas.append(eta)
        x = problem.projector.project(x - eta * g)
        if gn == 0.0:
            break
    xs.append(x.copy())
    return np.array(xs), np.array(norms), np.array(etas)


def test_trace_matches_independent_reimplementation(rng):
    problem = make_abs_problem(3)
    x1 = rng.uniform(-1, 1, size=3)
    t = 400
    config = SolverConfig(max_iterations=t, initial_point=x1,
                          policy=FamilyPolicy(R=problem.radius_R, a=0.5),
                          weight_ks=(0.0, 2.0), record_trace=True)
    report, trace = run(problem, config)
    xs, norms, etas = reference_family_run(problem, x1, 0.5, t)

    assert len(trace["eta"]) == len(etas)
    assert_allclose(trace["eta"], etas, rtol=0, atol=0)
    assert_allclose(trace["g_norm"], norms, rtol=0, atol=0)
    assert_allclose(trace["f_x"], np.abs(xs[:-1]).sum(axis=1), rtol=0, atol=0)
    # streaming means against direct prefix quotients
    uniform = np.cumsum(xs[:-1], axis=0) / np.arange(1, len(etas) + 1)[:, None]
    stored = trace["f_avg_k0"]
    assert_allclose(stored, np.abs(uniform).sum(axis=1), rtol=1e-12, atol=1e-14)
    w2 = np.arange(1, len(etas) + 1, dtype=float)  # s^(k/2) with k = 2
    weighted = (np.cumsum(w2[:, None] * xs[:-1], axis=0)
                / np.cumsum(w2)[:, None])
    stored2 = trace["f_avg_k2"]
    assert_allclose(stored2, np.abs(weighted).sum(axis=1), rtol=1e-9, atol=1e-12)


def test_per_step_certificate_recomputed_from_reference(rng):
    problem = make_abs_problem(2)
    x1 = rng.uniform(-1, 1, size=2)
    xs, norms, etas = reference_family_run(problem, x1, 1.0, 300)
    x_star = problem.known_optimum_point
    f_star = problem.known_optimum_value
    d2 = np.sum((xs - x_star) ** 2, axis=1)
    f_vals = np.abs(xs[:-1]).sum(axis=1)
    rhs = (d2[:-1] - d2[1:]) / (2 * etas) + 0.5 * etas * norms ** 2
    lhs = f_vals - f_star
    assert np.all(lhs <= rhs * (1 + 1e-9) + 1e-12)

    config = SolverConfig(max_iterations=300, initial_point=x1,
                          policy=FamilyPolicy(R=problem.radius_R, a=1.0))
    report, _ = run(problem, config)
    assert report.certificates["per_step"]


class TestTraceInvariantsAndDeterminism:
    @pytest.mark.parametrize("policy", [
        FamilyPolicy(R=2.0, a=0.0),
        FamilyPolicy(R=2.0, a=1.0),
        ClassicPolicy(R=2.0, L=2.0),
        NesterovPolicy(R=2.0),
        ConstantPolicy(R=2.0, L=2.0, horizon_t=120),
    ], ids=lambda p: p.label)
    def test_invariants_hold(self, policy, rng):
        problem = make_abs_problem(4)
        config = SolverConfig(max_iterations=120, initial_point=rng.uniform(-1, 1, 4),
                              policy=policy, weight_ks=(-1.0, 0.0, 2.0), record_trace=True)
        report, trace = run(problem, config)
        assert_trace_invariants(trace)
        assert report.max_g_norm == max(trace["g_norm"])

    def test_iterates_stay_feasible(self, rng):
        problem = make_abs_problem(3)
        # track feasibility through the objective: |x| <= dim on the box,
        # and the per-record f_x equals the oracle at a feasible point
        config = SolverConfig(max_iterations=200, initial_point=5 * rng.standard_normal(3),
                              policy=FamilyPolicy(R=problem.radius_R), record_trace=True)
        _, trace = run(problem, config)
        assert np.all(trace["f_x"] <= 3.0 + 1e-12)

    def test_identical_configs_give_identical_traces(self):
        problem = make_abs_problem(3)

        def make_config():
            return SolverConfig(max_iterations=150, initial_point=np.array([0.3, -0.9, 0.5]),
                                policy=FamilyPolicy(R=problem.radius_R, a=0.5),
                                weight_ks=(0.0, 1.0), record_trace=True)

        _, trace_a = run(problem, make_config())
        _, trace_b = run(problem, make_config())
        for name in ("s", "eta", "g_norm", "G", "f_x"):
            assert np.array_equal(trace_a[name], trace_b[name]), name

    def test_policy_instance_not_mutated_by_run(self):
        problem = make_abs_problem(1)
        policy = FamilyPolicy(R=1.0, a=1.0)
        config = SolverConfig(max_iterations=20, initial_point=np.array([0.7]),
                              policy=policy)
        run(problem, config)
        assert policy.G is None
        report_a, _ = run(problem, config)
        report_b, _ = run(problem, config)
        assert report_a.best_value == report_b.best_value


class TestCertificateGating:
    def test_family_run_reports_family_and_weak(self):
        problem = make_abs_problem(2)
        config = SolverConfig(max_iterations=60, initial_point=np.array([0.7, -0.4]),
                              policy=FamilyPolicy(R=problem.radius_R, a=1.0),
                              weight_ks=(-1.0, 0.0, 2.0))
        report, _ = run(problem, config)
        expected = {"per_step", "family", "weak_k-1", "weak_k0", "weak_k2",
                    "monotone_k-1", "monotone_k0", "monotone_k2"}
        assert set(report.certificates) == expected
        assert all(report.certificates.values())

    def test_classic_run_reports_classic(self):
        problem = make_abs_problem(2)
        config = SolverConfig(max_iterations=60, initial_point=np.array([0.7, -0.4]),
                              policy=ClassicPolicy(R=problem.radius_R, L=problem.lipschitz_L),
                              weight_ks=(0.0,))
        report, _ = run(problem, config)
        assert report.certificates["classic"]
        assert "family" not in report.certificates
        assert report.certificates["monotone_k0"]

    def test_nesterov_run_reports_suboptimal_bound_at_km1(self):
        problem = make_abs_problem(2)
        config = SolverConfig(max_iterations=60, initial_point=np.array([0.7, -0.4]),
                              policy=NesterovPolicy(R=problem.radius_R),
                              weight_ks=(-1.0, 0.0))
        report, _ = run(problem, config)
        assert report.certificates["nesterov"]
        assert "monotone_k-1" in report.certificates
        assert "monotone_k0" not in report.certificates  # not guaranteed for this rule

    def test_constant_run_certifies_at_full_horizon(self):
        problem = make_abs_problem(2)
        config = SolverConfig(max_iterations=80, initial_point=np.array([0.7, -0.4]),
                              policy=ConstantPolicy(R=problem.radius_R,
                                                    L=problem.lipschitz_L, horizon_t=80),
                              weight_ks=(0.0,))
        report, _ = run(problem, config)
        assert report.certificates["constant"]

    def test_no_optimum_means_no_gap_certificates(self):
        # a projector without min_linear cannot bracket f*
        class ProjectOnly:
            def __init__(self, box):
                self.dimension = box.dimension
                self.project = box.project

        base = make_abs_problem(2)
        problem = ProblemInstance(name="anon", dimension=2, oracle=base.oracle,
                                  projector=ProjectOnly(base.projector),
                                  radius_R=base.radius_R)
        config = SolverConfig(max_iterations=30, initial_point=np.array([0.7, -0.4]),
                              policy=FamilyPolicy(R=problem.radius_R), weight_ks=(0.0,))
        report, _ = run(problem, config)
        assert "family" not in report.certificates
        assert "per_step" not in report.certificates
        assert report.certificates["monotone_k0"]
        assert "family" in report.bounds  # bound values still reported
        assert report.optimum_bracket is None and report.undecided == []

    def test_no_optimum_brackets_through_the_projector(self):
        base = make_abs_problem(2)
        problem = ProblemInstance(name="anon", dimension=2, oracle=base.oracle,
                                  projector=base.projector, radius_R=base.radius_R)
        config = SolverConfig(max_iterations=30, initial_point=np.array([0.7, -0.4]),
                              policy=FamilyPolicy(R=problem.radius_R), weight_ks=(0.0,))
        report, _ = run(problem, config)
        low, high = report.optimum_bracket
        assert low <= 0.0 <= high == report.best_value
        assert report.certificates == {"family": True, "weak_k0": True, "monotone_k0": True}
        assert "per_step" not in report.certificates  # needs the optimum point

    @pytest.mark.parametrize("with_point", [True, False])
    @pytest.mark.parametrize("with_L", [True, False])
    @pytest.mark.parametrize("ks", [(0.0,), (-1.0, 0.0, 2.0), (2.0,)])
    @pytest.mark.parametrize("rule", ["family", "classic", "constant", "nesterov"])
    def test_exact_certificate_keys(self, rule, ks, with_L, with_point):
        base = make_abs_problem(2)
        problem = dataclasses.replace(
            base, lipschitz_L=base.lipschitz_L if with_L else None,
            known_optimum_point=base.known_optimum_point if with_point else None)
        R, L = base.radius_R, base.lipschitz_L
        policy = {"family": FamilyPolicy(R=R), "classic": ClassicPolicy(R=R, L=L),
                  "constant": ConstantPolicy(R=R, L=L, horizon_t=30),
                  "nesterov": NesterovPolicy(R=R)}[rule]
        config = SolverConfig(max_iterations=30, initial_point=np.array([0.7, -0.4]),
                              policy=policy, weight_ks=ks)
        report, _ = run(problem, config)
        expected = ["per_step"] if with_point else []
        if rule == "family":
            expected += ["family"] * (0.0 in ks) + [f"weak_k{k:g}" for k in ks]
        elif with_L and (-1.0 if rule == "nesterov" else 0.0) in ks:
            expected.append(rule)
        expected += [f"monotone_k{k:g}" for k in ks if rule != "nesterov" or k == -1.0]
        assert list(report.certificates) == expected
        assert all(report.certificates.values())

    def test_constant_certificate_reads_the_reported_average(self):
        # no per-iteration certificate reads an average, and the end-of-horizon
        # check reuses the report's averaged value: one oracle call per
        # iteration plus one per average
        problem = make_abs_problem(2)
        calls = [0]

        def oracle(x):
            calls[0] += 1
            return problem.oracle(x)

        ks = (-1.0, 0.0, 2.0)
        config = SolverConfig(max_iterations=80, initial_point=np.array([0.7, -0.4]),
                              policy=ConstantPolicy(R=problem.radius_R,
                                                    L=problem.lipschitz_L, horizon_t=80),
                              weight_ks=ks)
        report, _ = run(dataclasses.replace(problem, oracle=oracle), config)
        assert report.certificates["constant"]
        assert report.iterations_run == 80
        assert calls[0] == 80 + len(ks)

    def test_lean_run_declares_no_averaged_certificates(self):
        # weight_ks=() tracks no average: no gap or monotone certificate, only
        # the per-step check, which reads no average
        problem = make_abs_problem(2)
        config = SolverConfig(max_iterations=30, initial_point=np.array([0.7, -0.4]),
                              policy=FamilyPolicy(R=problem.radius_R), weight_ks=())
        report, _ = run(problem, config)
        assert set(report.certificates) == {"per_step"}
        assert report.averaged_values == {}
        assert "family" in report.bounds


class TestRestart:
    def test_trigger_resets_state_and_certificate_survives(self):
        problem = make_two_slope_problem()
        config = SolverConfig(max_iterations=200, initial_point=np.array([0.3]),
                              policy=FamilyPolicy(R=1.0, a=1.0), weight_ks=(0.0,),
                              record_trace=True, restart_factor=1.5)
        report, trace = run(problem, config)
        # the norm maximum jumps from 1 to 2 at s=2, tripping the trigger;
        # the next row shows a freshly accumulated G below the old one
        assert np.any(np.diff(trace["G"]) < 0), "no restart happened"
        assert report.certificates["per_step"]
        assert np.all(trace["eta"] > 0)

    def test_restart_off_keeps_G_monotone(self):
        problem = make_two_slope_problem()
        config = SolverConfig(max_iterations=200, initial_point=np.array([0.3]),
                              policy=FamilyPolicy(R=1.0, a=1.0), weight_ks=(0.0,),
                              record_trace=True)
        report, trace = run(problem, config)
        assert_trace_invariants(trace)
        assert report.certificates["per_step"]
        assert report.certificates["family"]

    @staticmethod
    def sqrt_config(iterations, restart_factor=2.0):
        return SolverConfig(max_iterations=iterations, initial_point=np.array([0.9]),
                            policy=FamilyPolicy(R=1.0, a=0.0), weight_ks=(0.0, 2.0),
                            restart_factor=restart_factor)

    def assert_reports_first_five_rows(self, report):
        # the averages and bounds of epoch 0, rows 1..5: those of the same
        # run with no restart
        plain, _ = run(make_sqrt_example(), self.sqrt_config(5, restart_factor=None))
        assert set(report.averaged_values) == {"k0", "k2"}
        assert report.averaged_values == plain.averaged_values
        assert set(report.bounds) >= {"family", "weak_k0", "weak_k2"}
        assert report.bounds == plain.bounds

    def test_restart_on_the_last_iteration_keeps_its_epoch(self):
        # the restart fires at iteration 5, after its row: a sixth row opens epoch 1
        _, trace = run(make_sqrt_example(),
                       dataclasses.replace(self.sqrt_config(6), record_trace=True))
        assert trace["epoch"].tolist() == [0, 0, 0, 0, 0, 1]
        report, _ = run(make_sqrt_example(), self.sqrt_config(5))
        assert report.iterations_run == 5
        self.assert_reports_first_five_rows(report)
        assert all(report.certificates.values())

    def test_empty_subdifferential_after_a_restart_keeps_its_epoch(self):
        problem = make_sqrt_example()
        calls = 0

        def oracle(x):
            nonlocal calls
            calls += 1
            return SubgradientResult(0.0, None) if calls == 6 else problem.oracle(x)

        # the averages read x alone, so the problem's value_at_image still holds
        report, _ = run(dataclasses.replace(problem, oracle=oracle), self.sqrt_config(50))
        assert report.stop_reason == StopReason.EMPTY_SUBDIFFERENTIAL
        assert report.iterations_run == 5
        self.assert_reports_first_five_rows(report)


class TestValidation:
    def test_nonfinite_oracle_output(self):
        def oracle(x):
            return SubgradientResult(float("nan"), np.ones(1))

        problem = ProblemInstance(name="nan", dimension=1, oracle=oracle,
                                  projector=Box(lower=-np.ones(1), upper=np.ones(1)),
                                  radius_R=1.0)
        config = SolverConfig(max_iterations=5, initial_point=np.zeros(1),
                              policy=FamilyPolicy(R=1.0))
        with pytest.raises(NumericError, match="iteration 1"):
            run(problem, config)

    def test_config_rejects_bad_values(self):
        with pytest.raises(InvalidParameterError):
            SolverConfig(max_iterations=0, initial_point=np.zeros(1),
                         policy=FamilyPolicy(R=1.0))
        with pytest.raises(InvalidParameterError):
            SolverConfig(max_iterations=1, initial_point=np.zeros(1),
                         policy=FamilyPolicy(R=1.0), restart_factor=1.0)

    def test_infeasible_start_is_projected(self):
        problem = make_abs_problem(2)
        config = SolverConfig(max_iterations=3, initial_point=np.array([5.0, -9.0]),
                              policy=FamilyPolicy(R=problem.radius_R), record_trace=True)
        _, trace = run(problem, config)
        assert trace["f_x"][0] == 2.0  # |(1, -1)|_1 after clamping

    def test_bad_weight_k_rejected(self):
        problem = make_abs_problem(1)
        config = SolverConfig(max_iterations=3, initial_point=np.array([0.5]),
                              policy=FamilyPolicy(R=1.0), weight_ks=(-2.0,))
        with pytest.raises(InvalidParameterError):
            run(problem, config)


class TestImageHook:
    """Values at averages streamed from the oracle's image, not re-evaluated."""

    KS = (-1.0, 0.0, 2.0)

    @staticmethod
    def lasso(n, m):
        return make_lasso(seed=3, n=n, m=m)

    def config(self, n, restart_factor=None):
        return SolverConfig(max_iterations=300, initial_point=np.zeros(n),
                            policy=FamilyPolicy(R=50.0, a=1.0), weight_ks=self.KS,
                            record_trace=True, restart_factor=restart_factor)

    @pytest.mark.parametrize("restart_factor", [None, 2.0])
    @pytest.mark.parametrize("n,m", [(64, 40), (512, 300)])
    def test_matches_oracle_evaluation(self, n, m, restart_factor):
        problem = self.lasso(n, m)
        config = self.config(n, restart_factor)
        report, trace = run(problem, config)
        plain_report, plain_trace = run(
            dataclasses.replace(problem, value_at_image=None), config)

        restarted = bool(np.any(np.diff(trace["G"]) < 0))
        assert restarted == (restart_factor is not None)
        assert len(trace["s"]) == len(plain_trace["s"]) == 300
        assert trace.keys() == plain_trace.keys()
        for name, plain in plain_trace.items():
            if name.startswith("f_avg_"):
                assert np.all(np.abs(trace[name] - plain) <= 1e-9 * np.abs(plain)), name
            else:
                assert np.array_equal(trace[name], plain), name
        assert report.certificates == plain_report.certificates
        assert all(report.certificates.values())
        assert report.averaged_values == plain_report.averaged_values
        assert report.best_value == plain_report.best_value
        for label, point in plain_report.averaged_points.items():
            assert np.array_equal(report.averaged_points[label], point)

    def test_one_oracle_call_per_iteration(self):
        problem = self.lasso(64, 40)
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return problem.oracle(x)

        report, _ = run(dataclasses.replace(problem, oracle=counted), self.config(64))
        assert report.iterations_run == 300
        assert calls == report.iterations_run + len(self.KS)

        calls = 0
        report, _ = run(dataclasses.replace(problem, oracle=counted, value_at_image=None),
                        self.config(64))
        assert calls == report.iterations_run * (1 + len(self.KS)) + len(self.KS)

    @pytest.mark.parametrize("breach,message", [
        (lambda image: None, "no image vector at iteration 3"),
        (lambda image: image[:, None], "no image vector at iteration 3"),
        (lambda image: image[:-1], "image has length 39 at iteration 3"),
        (lambda image: np.where(np.arange(image.size) == 5, np.inf, image),
         "nonfinite entries at iteration 3"),
    ])
    def test_broken_contract_raises(self, breach, message):
        problem = self.lasso(64, 40)
        calls = 0

        def broken(x):
            nonlocal calls
            calls += 1
            res = problem.oracle(x)
            if calls == 3:
                res = dataclasses.replace(res, image=breach(res.image))
            return res

        broken_problem = dataclasses.replace(problem, oracle=broken)
        with pytest.raises(NumericError, match=message):
            run(broken_problem, self.config(64))

        # without a trace or a gap certificate the image is never read
        calls = 0
        lean = dataclasses.replace(self.config(64), record_trace=False, weight_ks=())
        report, _ = run(broken_problem, lean)
        assert report.iterations_run == 300


def flat_bottom_problem(c=1.0, n=5, seed=1):
    """f(x) = max(||A x - b||_inf - c, 0) in a ball, with the image A x - b.

    The subgradient is exactly zero on the flat bottom, so a run stops there.
    """
    rng = np.random.default_rng(seed)
    A, b = rng.standard_normal((n + 2, n)), rng.standard_normal(n + 2)

    def oracle(x):
        z = A @ x - b
        i = int(np.argmax(np.abs(z)))
        v = abs(float(z[i])) - c
        if v <= 0:
            return SubgradientResult(0.0, np.zeros(n), image=z)
        return SubgradientResult(v, np.sign(z[i]) * A[i], image=z)

    def value_at_image(x, z):
        return np.maximum(np.max(np.abs(z), axis=-1) - c, 0.0)

    return ProblemInstance(name="flat_bottom", dimension=n, oracle=oracle,
                           projector=Ball(center=np.zeros(n), radius=3.0), radius_R=6.0,
                           value_at_image=value_at_image)


class TestValueBlocks:
    """Values at the averages, evaluated a block of iterations at a time."""

    KS = (-1.0, 0.0, 2.0)

    @pytest.fixture
    def means(self, monkeypatch):
        """The K averages after every iteration of every run, restarts included.

        The solver feeds the averages a block of points at a time; these are
        the rows that each block update writes, one per iteration.
        """
        recorded = []

        class Recording(StreamingAverage):
            def update(self, w, x, out=None):
                super().update(w, x, out=out)
                recorded.extend(out.copy())
                return self

        monkeypatch.setattr(solver_module, "StreamingAverage", Recording)
        return recorded

    def assert_rows_match(self, problem, trace, means, hook):
        n = problem.dimension
        assert len(means) == len(trace["s"])
        for j, label in enumerate(f"f_avg_k{k:g}" for k in self.KS):
            if hook:
                expected = [float(problem.value_at_image(m[j, :n], m[j, n:])) for m in means]
            else:
                expected = [problem.value(m[j]) for m in means]
            assert trace[label].tolist() == expected, label

    @pytest.mark.parametrize("hook", [True, False], ids=["hook", "no-hook"])
    @pytest.mark.parametrize("iterations", [1, 63, 64, 65, 130])
    def test_each_row_equals_its_own_call(self, means, iterations, hook):
        problem = make_lasso(seed=3, n=64, m=40)
        if not hook:
            problem = dataclasses.replace(problem, value_at_image=None)
        _, trace = run(problem, SolverConfig(
            max_iterations=iterations, initial_point=np.zeros(64),
            policy=FamilyPolicy(R=50.0), weight_ks=self.KS, record_trace=True))
        assert len(trace["s"]) == iterations
        self.assert_rows_match(problem, trace, means, hook)

    def test_restart_inside_a_block(self, means):
        problem = make_lasso(seed=3, n=64, m=40)
        _, trace = run(problem, SolverConfig(
            max_iterations=130, initial_point=np.zeros(64), policy=FamilyPolicy(R=50.0),
            weight_ks=self.KS, record_trace=True, restart_factor=2.0))
        restarts = np.flatnonzero(np.diff(trace["epoch"])) + 1
        assert len(restarts) and np.any(restarts % solver_module.VALUE_BLOCK)
        self.assert_rows_match(problem, trace, means, hook=True)

    def test_zero_subgradient_inside_a_block(self, means):
        problem = flat_bottom_problem()
        report, trace = run(problem, SolverConfig(
            max_iterations=300, initial_point=np.full(5, 2.0), policy=FamilyPolicy(R=6.0),
            weight_ks=self.KS, record_trace=True))
        assert report.stop_reason == StopReason.ZERO_SUBGRADIENT
        assert report.iterations_run > solver_module.VALUE_BLOCK
        assert report.iterations_run % solver_module.VALUE_BLOCK
        self.assert_rows_match(problem, trace, means, hook=True)

    def test_hook_must_give_one_value_per_row(self):
        problem = make_lasso(seed=3, n=64, m=40)
        one_value = dataclasses.replace(
            problem, value_at_image=lambda x, r: float(np.vdot(r, r)))
        config = SolverConfig(max_iterations=5, initial_point=np.zeros(64),
                              policy=FamilyPolicy(R=50.0), weight_ks=self.KS,
                              record_trace=True)
        with pytest.raises(NumericError, match=r"shape \(\), not one value per average \(5, 3\)"):
            run(one_value, config)


class TestNoAverages:
    """weight_ks=() tracks no average and costs one oracle call per iteration."""

    @staticmethod
    def counted(problem):
        calls = [0]

        def oracle(x):
            calls[0] += 1
            return problem.oracle(x)

        return dataclasses.replace(problem, oracle=oracle), calls

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("name", ["lasso64", "abs3"])
    def test_same_run_without_averages(self, name, record_trace):
        if name == "lasso64":
            problem, x1 = make_lasso(seed=3, n=64, m=40), np.zeros(64)
        else:
            problem, x1 = make_abs_problem(3), np.array([0.7, -0.4, 0.2])

        def solve(problem, weight_ks):
            return run(problem, SolverConfig(
                max_iterations=300, initial_point=x1, policy=FamilyPolicy(R=problem.radius_R),
                weight_ks=weight_ks, record_trace=record_trace))

        counted, calls = self.counted(problem)
        report, trace = solve(counted, ())
        assert calls[0] == report.iterations_run
        plain, plain_trace = solve(problem, (0.0,))
        assert report.averaged_points == {} and report.averaged_values == {}
        for field in ("best_value", "best_index", "iterations_run", "stop_reason",
                      "max_g_norm"):
            assert getattr(report, field) == getattr(plain, field), field
        assert np.array_equal(report.best_point, plain.best_point)
        assert report.iterations_run > 1
        if record_trace:
            assert not any(name.startswith("f_avg_") for name in trace)
            for name in ("s", "eta", "f_x", "f_best", "bound_family"):
                assert np.array_equal(trace[name], plain_trace[name]), name

    def test_reference_run_makes_one_call_per_iteration(self):
        problem, calls = self.counted(make_lasso(seed=3, n=64, m=40))
        value = reference_optimum_value(problem, 500)
        assert calls[0] == 500
        report, _ = run(problem, SolverConfig(
            max_iterations=500, initial_point=np.zeros(64), policy=FamilyPolicy(R=50.0),
            weight_ks=()))
        assert value == report.best_value


class TestHotLoopChecks:
    """Checks made once per iteration where the quantity is produced."""

    @staticmethod
    def problem(subgradient, projector=None):
        def oracle(x):
            return SubgradientResult(float(np.abs(x).sum()), subgradient(x))

        projector = projector or Box(lower=-np.ones(1), upper=np.ones(1))
        return ProblemInstance(name="broken", dimension=projector.dimension, oracle=oracle,
                               projector=projector, radius_R=1.0, lipschitz_L=1.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_subgradient_norm_is_numeric(self):
        # ||g||^2 overflows although every entry is finite; without the check
        # the step would be R / inf = 0
        problem = self.problem(
            lambda x: np.full(2, 1e200) if np.any(x) else np.zeros(2),
            Ball(center=np.zeros(2), radius=1.0))
        config = SolverConfig(max_iterations=5, initial_point=np.array([0.5, 0.0]),
                              policy=FamilyPolicy(R=1.0))
        with pytest.raises(NumericError, match="norm inf at iteration 1"):
            run(problem, config)

    @pytest.mark.filterwarnings("error")
    def test_huge_step_projects_onto_the_ball(self):
        # min x[0] over the unit ball: the first step is about -1.2e160 along
        # x[0], whose squared norm overflows; it must land on [-1, 0], and
        # without a numpy overflow warning
        def oracle(x):
            return SubgradientResult(float(x[0]), np.array([1.0, 0.0]))

        problem = ProblemInstance(name="linear", dimension=2, oracle=oracle,
                                  projector=Ball(center=np.zeros(2), radius=1.0),
                                  radius_R=2.0, known_optimum_value=-1.0,
                                  known_optimum_point=np.array([-1.0, 0.0]))
        config = SolverConfig(max_iterations=3, initial_point=np.zeros(2),
                              policy=ConstantPolicy(R=2.0, L=1e-160, horizon_t=3))
        report, _ = run(problem, config)
        assert report.best_value == -1.0
        assert np.array_equal(report.best_point, [-1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_subgradient(self, bad):
        problem = self.problem(lambda x: np.array([bad if x[0] < 0.5 else 1.0]))
        config = SolverConfig(max_iterations=5, initial_point=np.array([0.9]),
                              policy=ClassicPolicy(R=1.0, L=1.0))
        with pytest.raises(NumericError, match="norm (nan|inf) at iteration 2"):
            run(problem, config)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nonfinite_step_is_caught_before_projection(self):
        # the oracle breaks the declared L, so x - eta * g overflows; the box
        # would clamp -inf to a finite corner if the step went unchecked
        problem = self.problem(lambda x: np.array([1e150]))
        config = SolverConfig(max_iterations=5, initial_point=np.array([0.5]),
                              policy=ConstantPolicy(R=1.0, L=1e-160, horizon_t=5))
        with pytest.raises(NumericError, match="nonfinite entries at iteration 1"):
            run(problem, config)

    @pytest.mark.parametrize("ks", [(-1.0,), (0.0,), (2.0,), (-1.0, 0.0, 2.0), ()])
    def test_infinite_step_is_numeric_for_every_weighting(self, ks):
        # R / (L sqrt(t)) overflows to inf; the step is rejected before any
        # weight or point is formed from it
        problem = self.problem(lambda x: np.array([1.0]))
        config = SolverConfig(max_iterations=5, initial_point=np.array([0.5]),
                              policy=ConstantPolicy(R=1.0, L=1e-320, horizon_t=5), weight_ks=ks)
        with pytest.raises(NumericError, match="step size inf is not finite at iteration 1"):
            run(problem, config)

    @pytest.mark.parametrize("restart", [False, True])
    def test_overflowing_weight_names_its_iteration(self, restart):
        # s ** 150 overflows first at s = 114 (113 ** 150 is about 1e308)
        if restart:
            problem, x1 = make_two_slope_problem(), np.array([0.3])
        else:
            problem, x1 = make_abs_problem(2), np.array([0.7, -0.4])
        config = SolverConfig(max_iterations=3000, initial_point=x1,
                              policy=FamilyPolicy(R=problem.radius_R), weight_ks=(0.0, 300.0),
                              restart_factor=1.5 if restart else None, record_trace=True)
        # the error counts iterations over the run, the weight over the epoch
        _, trace = run(problem, dataclasses.replace(config, weight_ks=(0.0,)))
        epoch = trace["epoch"].astype(int)
        s_local = np.arange(len(epoch)) - np.searchsorted(epoch, epoch) + 1
        expected = int(trace["s"][np.argmax(s_local == 114)])
        assert (expected > 114) == restart
        with pytest.raises(NumericError, match=f"weight of k=300 overflows at iteration {expected}$"):
            run(problem, config)

    def test_overflowing_total_weight_names_its_iteration(self):
        # each step is about 3.2e305 and k = -1 weights by the step, so the
        # running total passes the float maximum at iteration 569; no numpy
        # overflow warning is raised (tier-1 turns one into an error)
        problem = make_abs_problem(1)
        config = SolverConfig(max_iterations=1000, initial_point=np.array([0.7]),
                              policy=ConstantPolicy(R=1.0, L=1e-307, horizon_t=1000),
                              weight_ks=(-1.0, 0.0))
        with pytest.raises(NumericError,
                           match="total weight of k=-1 overflows at iteration 569$"):
            run(problem, config)
        # the same steps summed as Python floats overflow at 569 too
        eta = 1.0 / (1e-307 * 1000 ** 0.5)
        assert sum([eta] * 568) < np.inf and sum([eta] * 569) == np.inf

    def test_nonpositive_step_names_the_iteration(self):
        class Broken(ClassicPolicy):
            def step_size(self, s, g_norm):
                return 0.0 if s == 3 else super().step_size(s, g_norm)

        problem = make_abs_problem(1)
        config = SolverConfig(max_iterations=5, initial_point=np.array([0.9]),
                              policy=Broken(R=1.0, L=1.0))
        with pytest.raises(InvalidParameterError, match="at iteration 3"):
            run(problem, config)

    def test_weight_vector_matches_scalar_streams(self, rng):
        weights = rng.uniform(0.01, 100.0, size=(500, 3))
        points = rng.standard_normal((500, 4))
        together = StreamingAverage()
        apart = [StreamingAverage() for _ in range(3)]
        for w, x in zip(weights, points):
            together.update(w, x)
            for acc, w_i in zip(apart, w):
                acc.update(float(w_i), x)
        assert together.count == 500
        assert np.array_equal(together.mean, np.array([acc.mean for acc in apart]))
        assert np.array_equal(together.total_weight, [acc.total_weight for acc in apart])

    def test_weight_vector_rejects_bad_entry(self):
        acc = StreamingAverage()
        with pytest.raises(NumericError, match="got 0.0"):
            acc.update(np.array([1.0, 0.0]), np.ones(2))
        assert acc.count == 0

    @pytest.mark.parametrize("name", ["two-slope", "lasso64", "lasso512"])
    def test_joint_averages_match_single_k_runs(self, name):
        if name == "two-slope":
            problem, x1, restart = make_two_slope_problem(), np.array([0.3]), 1.5
        else:
            n, m = (64, 40) if name == "lasso64" else (512, 300)
            problem = make_lasso(seed=3, n=n, m=m)
            x1, restart = np.zeros(n), 2.0
        ks = (-1.0, 0.0, 0.5, 2.0)

        def solve(weight_ks):
            return run(problem, SolverConfig(
                max_iterations=200, initial_point=x1, policy=FamilyPolicy(R=problem.radius_R),
                weight_ks=weight_ks, record_trace=True, restart_factor=restart))

        report, trace = solve(ks)
        assert np.any(np.diff(trace["G"]) < 0), "no restart happened"
        for k in ks:
            single, single_trace = solve((k,))
            label = f"k{k:g}"
            assert np.array_equal(report.averaged_points[label],
                                  single.averaged_points[label])
            assert report.averaged_values[label] == single.averaged_values[label]
            assert np.array_equal(trace[f"f_avg_{label}"], single_trace[f"f_avg_{label}"])


def inflated(problem, s0):
    """`problem` whose oracle adds 1 to the value it returns on its s0-th call (None: never).

    The averages keep the problem's value_at_image, which reads x alone, so
    a run's oracle calls are its iterations, in order, until its loop ends.
    """
    calls = 0

    def oracle(x):
        nonlocal calls
        calls += 1
        res = problem.oracle(x)
        if calls != s0:
            return res
        return dataclasses.replace(res, value=res.value + 1.0)

    return dataclasses.replace(problem, oracle=oracle)


def ramp_problem():
    """f(x) = x on [0, 100]: from x = 50 unit steps eta_s = 1/sqrt(s) never reach 0.

    Every step is exact, so the per-step inequality holds with no slack:
    pairing x_s with x_s or x_{s+2} instead of x_{s+1} moves its right side
    by about x_s, far more than 1, either way.
    """
    one, no_image = np.ones(1), np.empty(0)

    def oracle(x):
        return SubgradientResult(float(x[0]), one, image=no_image)

    return ProblemInstance(name="ramp", dimension=1, oracle=oracle,
                           projector=Box(lower=np.zeros(1), upper=np.full(1, 100.0)),
                           radius_R=100.0, known_optimum_value=0.0,
                           known_optimum_point=np.zeros(1),
                           value_at_image=lambda x, z: x[..., 0])


class TestPerStepBlocks:
    """The per-step inequality, decided for a block of rows at a time."""

    # the rows on each side of the block boundaries, and the last row of a
    # run of 200 iterations
    CASES = [(budget, s0) for budget in (64, 65, 129, 200)
             for s0 in (None, 1, 63, 64, 65, 128, 129, 200) if s0 is None or s0 <= budget]

    @pytest.mark.parametrize("weight_ks", [(), (-1.0, 0.0, 2.0)], ids=["lean", "averages"])
    @pytest.mark.parametrize("budget,s0", CASES)
    def test_one_inflated_value_fails_it(self, weight_ks, budget, s0):
        report, _ = run(inflated(ramp_problem(), s0), SolverConfig(
            max_iterations=budget, initial_point=np.array([50.0]),
            policy=FamilyPolicy(R=1.0), weight_ks=weight_ks))
        assert report.iterations_run == budget
        assert report.certificates["per_step"] is (s0 is None)

    @pytest.mark.parametrize("weight_ks", [(), (-1.0, 0.0, 2.0)], ids=["lean", "averages"])
    @pytest.mark.parametrize("s0", [None, 6, 7])
    def test_rows_around_a_restart(self, weight_ks, s0):
        # from 0.1 with R = 0.01 the sqrt example restarts after row 6 and its
        # iterates keep moving: rows 6 and 7 hold with slack below 1 (so the
        # inflated call fails them), paired with x_s the inequality fails, and
        # paired with x_{s+2} it holds with slack above 1
        config = SolverConfig(max_iterations=20, initial_point=np.array([0.1]),
                              policy=FamilyPolicy(R=0.01, a=0.0), weight_ks=weight_ks,
                              restart_factor=2.0)
        _, trace = run(make_sqrt_example(), dataclasses.replace(config, record_trace=True))
        assert trace["epoch"][5:7].tolist() == [0, 1]
        report, _ = run(inflated(make_sqrt_example(), s0), config)
        assert report.certificates["per_step"] is (s0 is None)


class TestBestPoint:
    def test_start_as_best_point_is_a_copy(self):
        # f(x) = x from x = 0: every step projects back to 0, so every
        # iteration ties the first, which keeps the best index
        config = SolverConfig(max_iterations=70, initial_point=np.zeros(1),
                              policy=FamilyPolicy(R=1.0), weight_ks=())
        report, _ = run(ramp_problem(), config)
        assert report.best_value == 0.0 and report.best_index == 1
        assert np.array_equal(report.best_point, [0.0])
        assert not np.shares_memory(report.best_point, config.initial_point)

    def test_ties_keep_the_earliest_index(self):
        # rows 2, 3 and 5 tie at the smallest value
        values = iter([3.0, 1.0, 1.0, 2.0, 1.0])

        def oracle(x):
            return SubgradientResult(next(values), np.ones(1))

        problem = ProblemInstance(name="ties", dimension=1, oracle=oracle,
                                  projector=Box(lower=-np.ones(1), upper=np.ones(1)),
                                  radius_R=2.0)
        report, _ = run(problem, SolverConfig(max_iterations=5, initial_point=np.ones(1),
                                              policy=FamilyPolicy(R=1.0), weight_ks=()))
        assert report.best_value == 1.0 and report.best_index == 2
        # x_2 = project(1 - 1) = 0
        assert np.array_equal(report.best_point, [0.0])


def recorded(problem):
    """`problem` whose oracle logs (x, f(x), g) for every call, and the log."""
    calls = []

    def oracle(x):
        res = problem.oracle(x)
        calls.append((np.array(x), float(res.value), np.asarray(res.subgradient)))
        return res

    return dataclasses.replace(problem, oracle=oracle), calls


def bracket_low_per_iteration(problem, calls):
    """The bracket's low end from the minorants of `calls`, summed one iteration at a time."""
    g_sum, c_sum = np.zeros(problem.dimension), 0.0
    for x, f_x, g in calls:
        g_sum += g
        c_sum += f_x - float(g.dot(x))
    return (c_sum + problem.projector.min_linear(g_sum)) / len(calls), g_sum, c_sum


class TestBlockBookkeeping:
    """Minorant sums, image checks and the step check, done per block or by a scalar proof."""

    @staticmethod
    def no_image(problem):
        """`problem` with an empty image, its hook valuing x alone: values call no oracle."""
        inner, value = problem.oracle, problem.value

        def oracle(x):
            return dataclasses.replace(inner(x), image=np.empty(0))

        def value_at_image(x, z):
            return np.array([[value(point) for point in row] for row in x])

        return dataclasses.replace(problem, oracle=oracle, value_at_image=value_at_image)

    # flat bottoms the nesterov rule reaches with rows pending (2, 8 and 153 rows)
    BOTTOM = {1: 2.0, 2: 1.0, 64: 2.0}

    @pytest.mark.parametrize("image", [True, False], ids=["image", "no-image"])
    @pytest.mark.parametrize("n", [1, 2, 64])
    @pytest.mark.parametrize("case", ["budget", "restart", "zero-first", "zero-later"])
    def test_bracket_low_equals_the_per_iteration_sum(self, case, n, image):
        if case in ("budget", "restart"):
            problem = make_lasso(seed=3, n=n, m=n + 3)
            policy, x1 = FamilyPolicy(R=50.0), np.zeros(n)
        elif case == "zero-first":
            # x1 = 0 lies on the flat bottom: a zero subgradient at s = 1,
            # which the family rule cannot step from
            problem = flat_bottom_problem(c=3.0, n=n)
            policy, x1 = FamilyPolicy(R=6.0), np.zeros(n)
        else:
            # the nesterov rule stops on reaching the bottom, with rows pending;
            # lifted by 0.5, whose last minorant then moves the sum of offsets
            bottom = flat_bottom_problem(c=self.BOTTOM[n], n=n)
            inner = bottom.oracle
            problem = dataclasses.replace(
                bottom, lipschitz_L=1e3,
                oracle=lambda x: dataclasses.replace(inner(x), value=inner(x).value + 0.5),
                value_at_image=lambda x, z: bottom.value_at_image(x, z) + 0.5)
            policy, x1 = NesterovPolicy(R=6.0), np.full(n, 3.0 / n ** 0.5)
        if not image:
            problem = self.no_image(problem)
        problem, calls = recorded(problem)
        report, trace = run(problem, SolverConfig(
            max_iterations=200, initial_point=x1, policy=policy, weight_ks=(-1.0, 0.0),
            record_trace=True, restart_factor=2.0 if case == "restart" else None))
        # the oracle's last calls value the final averages
        loop_calls = len(calls) - len(report.averaged_values)
        if case == "restart" and n == 64:
            assert trace["epoch"][-1] >= 1
        if case.startswith("zero"):
            assert report.stop_reason == StopReason.ZERO_SUBGRADIENT
            assert loop_calls == report.iterations_run + 1
            assert (report.iterations_run == 0) == (case == "zero-first")
        low, g_sum, c_sum = bracket_low_per_iteration(problem, calls[:loop_calls])
        assert report.optimum_bracket[0] == low
        assert report.minorant_sums == {"g_sum": g_sum.tolist(), "c_sum": c_sum,
                                        "count": loop_calls}

    def test_zero_stop_on_an_underflowing_norm_sums_its_subgradient(self):
        # ||g||^2 = 1e-340 underflows, so the family rule cannot step at s = 1,
        # yet g itself is not zero and enters the minorant sums
        def oracle(x):
            return SubgradientResult(float(abs(x[0])) + 1.0, np.array([1e-170]))

        problem, calls = recorded(ProblemInstance(
            name="tiny", dimension=1, oracle=oracle, projector=Box(-np.ones(1), np.ones(1)),
            radius_R=2.0))
        report, _ = run(problem, SolverConfig(max_iterations=5, initial_point=np.array([0.5]),
                                              policy=FamilyPolicy(R=2.0)))
        assert report.iterations_run == 0 and len(calls) == 1
        low, g_sum, c_sum = bracket_low_per_iteration(problem, calls)
        assert report.minorant_sums == {"g_sum": [1e-170], "c_sum": c_sum, "count": 1}
        assert report.optimum_bracket == (low, 1.5)

    def test_zero_stop_minorant_is_summed_after_the_pending_rows(self):
        # offsets 1, 2^53 and 1: in iteration order the last 1 is lost to
        # rounding (2^53), summed first it is not (2^53 + 2)
        script = [(1.0, 1.0), (2.0 ** 53 - 1.0, 2.0), (1.0, 0.0)]

        def oracle(x):  # after the loop, the final averaged value
            value, slope = script.pop(0) if script else (0.0, 0.0)
            return SubgradientResult(value, np.array([slope]))

        problem, calls = recorded(ProblemInstance(
            name="rounding", dimension=1, oracle=oracle, projector=Box(-np.ones(1), np.ones(1)),
            radius_R=2.0, lipschitz_L=2.0))
        report, _ = run(problem, SolverConfig(max_iterations=5, initial_point=np.zeros(1),
                                              policy=NesterovPolicy(R=0.5), weight_ks=(-1.0,)))
        assert report.stop_reason == StopReason.ZERO_SUBGRADIENT and report.iterations_run == 2
        _, g_sum, c_sum = bracket_low_per_iteration(problem, calls[:3])
        assert c_sum == 2.0 ** 53
        assert report.minorant_sums == {"g_sum": g_sum.tolist(), "c_sum": c_sum, "count": 3}

    @staticmethod
    def faulty_lasso(bad_image_at, bad_step_at):
        """A Lasso whose oracle spoils the image (inf) or g (1e10-fold) on the given calls."""
        problem = make_lasso(seed=3, n=64, m=40)
        calls = 0

        def oracle(x):
            nonlocal calls
            calls += 1
            res = problem.oracle(x)
            if calls == bad_image_at:
                image = res.image.copy()
                image[5] = np.inf
                res = dataclasses.replace(res, image=image)
            if calls == bad_step_at:
                res = dataclasses.replace(res, subgradient=res.subgradient * 1e10)
            return res

        return dataclasses.replace(problem, oracle=oracle)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("later_step", [False, True], ids=["alone", "bad-step-after"])
    @pytest.mark.parametrize("s0", [1, 63, 64, 65])
    def test_nonfinite_image_names_its_iteration(self, s0, later_step):
        # the constant step 5e298 keeps every step finite until the oracle
        # stretches a subgradient; a step that then overflows at s0 + 1 (in
        # the same block unless s0 ends one) must not hide the image at s0
        s1 = s0 + 1 if later_step else None
        config = SolverConfig(max_iterations=200, initial_point=np.zeros(64),
                              policy=ConstantPolicy(R=50.0, L=1e-300, horizon_t=100),
                              weight_ks=(0.0,), record_trace=True)
        with pytest.raises(NumericError, match=f"image has nonfinite entries at iteration {s0}$"):
            run(self.faulty_lasso(s0, s1), config)
        with pytest.raises(NumericError, match=f"step x - eta \\* g has nonfinite entries at"
                                               f" iteration {s0 + 1}$"):
            run(self.faulty_lasso(None, s0 + 1), config)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nonfinite_image_at_a_zero_subgradient_stop_is_named(self):
        # the run stops at s = 1 without a row, yet its image was read
        problem = flat_bottom_problem(c=1.0, n=3)
        inner = problem.oracle

        def oracle(x):
            res = inner(x)
            return dataclasses.replace(res, image=np.full_like(res.image, np.inf))

        config = SolverConfig(max_iterations=10, initial_point=np.zeros(3),
                              policy=FamilyPolicy(R=6.0), weight_ks=(0.0,), record_trace=True)
        with pytest.raises(NumericError, match="image has nonfinite entries at iteration 1$"):
            run(dataclasses.replace(problem, oracle=oracle), config)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_finite_step_that_overflows_the_point_is_caught(self):
        # eta ||g|| = 2^970 is finite, but x - eta g from the most negative
        # float rounds to -inf, which the box would clamp back if unchecked
        big = np.finfo(np.float64).max
        problem = TestHotLoopChecks.problem(lambda x: np.array([1.0]),
                                            Box(lower=np.full(1, -big), upper=np.full(1, big)))
        config = SolverConfig(max_iterations=3, initial_point=np.array([-big]), weight_ks=(),
                              policy=ConstantPolicy(R=2.0 ** 970, L=1.0, horizon_t=1))
        with pytest.raises(NumericError, match="step x - eta \\* g has nonfinite entries at"
                                               " iteration 1$"):
            run(problem, config)

    @pytest.mark.filterwarnings("error")
    def test_step_just_above_the_proof_threshold_continues(self):
        # eta ||g|| = nextafter(2^960) skips the scalar proof; the vector
        # check then finds x - eta g finite, and the box projects it
        eta = np.nextafter(2.0 ** 960, np.inf)
        problem = TestHotLoopChecks.problem(lambda x: np.array([1.0]))
        report, _ = run(problem, SolverConfig(
            max_iterations=4, initial_point=np.array([0.5]), weight_ks=(),
            policy=ConstantPolicy(R=float(eta), L=1.0, horizon_t=1)))
        assert report.iterations_run == 4
        assert report.stop_reason == StopReason.BUDGET_EXHAUSTED
