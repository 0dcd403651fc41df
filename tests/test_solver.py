import dataclasses
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    StepSizePolicy,
    StopReason,
    StreamingAverage,
    SubgradientResult,
    WeightRule,
    ZeroSubgradientError,
    make_abs_problem,
    make_lasso,
    make_sqrt_example,
    run,
)
from psg import solver as solver_module
from psg.bounds import gap_verdict
from psg.problems import reference_optimum_value
from psg.solver import psg_step

from conftest import (assert_trace_invariants, make_project_only_problem,
                      make_two_slope_problem)


@pytest.fixture
def block_lengths(monkeypatch):
    """The block length of every run the test makes, as solver.block_rows gave it."""
    lengths = []
    sized = solver_module.block_rows

    def recording(*args):
        lengths.append(sized(*args))
        return lengths[-1]

    monkeypatch.setattr(solver_module, "block_rows", recording)
    return lengths


def at_block(rows, block):
    """The row that case `rows` names, for a run whose blocks hold `block` rows.

    Cases keep the names they had when every block held 64 rows: 63, 64 and
    65 are the rows around the first block boundary, 128 and 129 those around
    the second, and 130 and 200 rows inside the third block.
    """
    named = {63: block - 1, 64: block, 65: block + 1, 128: 2 * block,
             129: 2 * block + 1, 130: 2 * block + 2, 200: 2 * block + 72}
    return named.get(rows, rows)


class TestBlockRows:
    """The bookkeeping block's length: as many rows as fit the byte budget, within bounds."""

    @staticmethod
    def row_bytes(n, minorants):
        return 8 * (n + (n + 1 if minorants else 0))

    def test_narrow_rows_stop_at_the_cap_and_wide_ones_at_the_floor(self):
        assert solver_module.block_rows(1, False) == solver_module.VALUE_BLOCK_CAP
        assert solver_module.block_rows(1, True) == solver_module.VALUE_BLOCK_CAP
        assert solver_module.block_rows(512, True) == solver_module.VALUE_BLOCK == 64
        assert solver_module.block_rows(10 ** 6, False) == 64

    @pytest.mark.parametrize("n,minorants,expected", [
        (64, True, 254), (64, False, 512), (5, True, 2978), (300, False, 109)])
    def test_the_largest_block_within_the_budget(self, n, minorants, expected):
        row = self.row_bytes(n, minorants)
        rows = solver_module.block_rows(n, minorants)
        assert rows == expected
        assert rows * row <= solver_module.VALUE_BLOCK_BYTES < (rows + 1) * row

    def test_every_width_respects_floor_cap_and_budget(self):
        for n in range(1, 3000, 7):
            for minorants in (False, True):
                rows = solver_module.block_rows(n, minorants)
                row = self.row_bytes(n, minorants)
                assert solver_module.VALUE_BLOCK <= rows <= solver_module.VALUE_BLOCK_CAP
                if rows > solver_module.VALUE_BLOCK:
                    assert rows * row <= solver_module.VALUE_BLOCK_BYTES
                if rows < solver_module.VALUE_BLOCK_CAP:
                    assert (rows + 1) * row > solver_module.VALUE_BLOCK_BYTES

    def test_sized_by_the_point_and_the_minorants_alone(self, block_lengths):
        # the number of averages does not move a block boundary, so each
        # average keeps its bits
        problem = make_lasso(seed=3, n=64, m=40)
        config = SolverConfig(max_iterations=3, initial_point=np.zeros(64),
                              policy=FamilyPolicy(R=50.0), weight_ks=(-1.0, 0.0, 2.0))
        run(problem, config)
        run(problem, dataclasses.replace(config, weight_ks=(0.0,)))
        assert block_lengths == [254] * 2  # block_rows(64, True)


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
                              policy=FamilyPolicy(R=1.0, a=1.0), weight_ks=(0.0,))
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
                              policy=FamilyPolicy(R=1.0, a=1.0))
        report, trace = run(problem, config)
        assert report.stop_reason is StopReason.ZERO_SUBGRADIENT
        assert report.best_value == 0.0
        assert report.iterations_run == 0
        assert list(trace) == ["s", "epoch", "eta", "g_norm", "G", "f_x", "f_best",
                               "bound_family", "bound_weak_k0"]
        assert all(len(col) == 0 for col in trace.values())
        assert report.averaged_values == {}
        # the lean run, with no average, returns its columns empty too
        _, lean = run(problem, dataclasses.replace(config, weight_ks=()))
        assert list(lean) == list(trace)[:-1]
        assert all(len(col) == 0 for col in lean.values())

    def test_start_at_optimum_classic_rule(self):
        # the L-based rule can still produce a step, so the final point is
        # folded into the averages before stopping
        problem = make_abs_problem(1)
        config = SolverConfig(max_iterations=5, initial_point=np.zeros(1),
                              policy=ClassicPolicy(R=1.0, L=1.0))
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
                          weight_ks=(0.0, 2.0))
    report, trace = run(problem, config)
    xs, norms, etas = reference_family_run(problem, x1, 0.5, t)

    assert len(trace["eta"]) == len(etas)
    assert_allclose(trace["eta"], etas, rtol=0, atol=0)
    assert_allclose(trace["g_norm"], norms, rtol=0, atol=0)
    assert_allclose(trace["f_x"], np.abs(xs[:-1]).sum(axis=1), rtol=0, atol=0)
    # the final means against direct quotients
    uniform = xs[:-1].mean(axis=0)
    assert_allclose(report.averaged_points["k0"], uniform, rtol=1e-12, atol=1e-14)
    assert report.averaged_values["k0"] == np.abs(report.averaged_points["k0"]).sum()
    w2 = np.arange(1, len(etas) + 1, dtype=float)  # s^(k/2) with k = 2
    weighted = (w2[:, None] * xs[:-1]).sum(axis=0) / w2.sum()
    assert_allclose(report.averaged_points["k2"], weighted, rtol=1e-9, atol=1e-12)


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
                              policy=policy, weight_ks=(-1.0, 0.0, 2.0))
        report, trace = run(problem, config)
        assert_trace_invariants(trace)
        assert report.max_g_norm == max(trace["g_norm"])

    def test_iterates_stay_feasible(self, rng):
        problem = make_abs_problem(3)
        # track feasibility through the objective: |x| <= dim on the box,
        # and the per-record f_x equals the oracle at a feasible point
        config = SolverConfig(max_iterations=200, initial_point=5 * rng.standard_normal(3),
                              policy=FamilyPolicy(R=problem.radius_R))
        _, trace = run(problem, config)
        assert np.all(trace["f_x"] <= 3.0 + 1e-12)

    def test_identical_configs_give_identical_traces(self):
        problem = make_abs_problem(3)

        def make_config():
            return SolverConfig(max_iterations=150, initial_point=np.array([0.3, -0.9, 0.5]),
                                policy=FamilyPolicy(R=problem.radius_R, a=0.5),
                                weight_ks=(0.0, 1.0))

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
        # a projector without min_linear cannot bracket f*: the gap
        # certificates are declared, as psg check declares them, and none is
        # proven; no minorant is summed
        problem = make_project_only_problem()
        config = SolverConfig(max_iterations=30, initial_point=np.array([0.7, -0.4]),
                              policy=FamilyPolicy(R=problem.radius_R), weight_ks=(0.0,))
        report, _ = run(problem, config)
        assert report.certificates == {"family": False, "weak_k0": False, "monotone_k0": True}
        assert report.undecided == ["family", "weak_k0"]
        assert "family" in report.bounds  # bound values still reported
        assert report.optimum_bracket is None and report.minorant_sums is None

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

    def test_constant_certificate_reads_the_value_mean_at_its_horizon(self):
        # the end-of-horizon check reads v_0 from f_x and eta, no value at an
        # average: one oracle call per iteration plus one per reported average
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
        report, trace = run(dataclasses.replace(problem, oracle=oracle), config)
        assert report.certificates["constant"]
        assert report.iterations_run == 80
        assert calls[0] == 80 + len(ks)
        v_0 = float(np.mean(trace["f_x"]))  # uniform weights
        assert gap_verdict([v_0], trace["bound_constant"][-1:], 0.0, 0.0) == "proven"
        assert report.averaged_values["k0"] <= v_0

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
                              restart_factor=1.5)
        report, trace = run(problem, config)
        # the norm maximum jumps from 1 to 2 at s=2, tripping the trigger;
        # the next row shows a freshly accumulated G below the old one
        assert np.any(np.diff(trace["G"]) < 0), "no restart happened"
        assert report.certificates["per_step"]
        assert np.all(trace["eta"] > 0)

    def test_restart_off_keeps_G_monotone(self):
        problem = make_two_slope_problem()
        config = SolverConfig(max_iterations=200, initial_point=np.array([0.3]),
                              policy=FamilyPolicy(R=1.0, a=1.0), weight_ks=(0.0,))
        report, trace = run(problem, config)
        assert_trace_invariants(trace)
        assert report.certificates["per_step"]
        assert report.certificates["family"]

    @staticmethod
    def sqrt_config(iterations, restart_factor=2.0, R=1.0):
        return SolverConfig(max_iterations=iterations, initial_point=np.array([0.9]),
                            policy=FamilyPolicy(R=R, a=0.0), weight_ks=(0.0, 2.0),
                            restart_factor=restart_factor)

    def assert_reports_first_five_rows(self, report, R=1.0):
        # the averages and bounds of epoch 0, rows 1..5: those of the same
        # run with no restart
        plain, _ = run(make_sqrt_example(), self.sqrt_config(5, restart_factor=None, R=R))
        assert set(report.averaged_values) == {"k0", "k2"}
        assert report.averaged_values == plain.averaged_values
        assert set(report.bounds) >= {"family", "weak_k0", "weak_k2"}
        assert report.bounds == plain.bounds

    def test_restart_on_the_last_iteration_keeps_its_epoch(self):
        # the restart fires at iteration 5, after its row: a sixth row opens epoch 1
        _, trace = run(make_sqrt_example(), self.sqrt_config(6))
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

        # With R = 0.01 the iterate moves at every step (with R = 1 it sits at
        # x* = 1 from row 2, and the memo makes no sixth call), so call 6 is
        # iteration 6, the first of epoch 1.
        _, trace = run(problem, self.sqrt_config(6, R=0.01))
        assert trace["epoch"].tolist() == [0, 0, 0, 0, 0, 1]
        assert len(set(trace["f_x"])) == 6
        report, _ = run(dataclasses.replace(problem, oracle=oracle), self.sqrt_config(50, R=0.01))
        assert report.stop_reason == StopReason.EMPTY_SUBDIFFERENTIAL
        assert report.iterations_run == 5
        self.assert_reports_first_five_rows(report, R=0.01)


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
                              policy=FamilyPolicy(R=problem.radius_R))
        _, trace = run(problem, config)
        assert trace["f_x"][0] == 2.0  # |(1, -1)|_1 after clamping

    def test_bad_weight_k_rejected(self):
        problem = make_abs_problem(1)
        config = SolverConfig(max_iterations=3, initial_point=np.array([0.5]),
                              policy=FamilyPolicy(R=1.0), weight_ks=(-2.0,))
        with pytest.raises(InvalidParameterError):
            run(problem, config)

    @pytest.mark.parametrize("budget", [2.5, True], ids=["fraction", "bool"])
    def test_config_rejects_a_budget_that_is_no_count(self, budget):
        with pytest.raises(InvalidParameterError, match="max_iterations must be an integer"):
            SolverConfig(max_iterations=budget, initial_point=np.zeros(1),
                         policy=FamilyPolicy(R=1.0))

    def test_numpy_integer_budget_runs(self):
        config = SolverConfig(max_iterations=np.int64(3), initial_point=np.array([0.9]),
                              policy=FamilyPolicy(R=1.0))
        report, _ = run(make_sqrt_example(), config)
        assert report.iterations_run == 3

    def test_repeated_weight_k_rejected(self):
        # two averages would report one averaged point under a header listing both
        config = SolverConfig(max_iterations=3, initial_point=np.array([0.5]),
                              policy=FamilyPolicy(R=1.0), weight_ks=(0.0, 2.0, 0.0))
        with pytest.raises(InvalidParameterError, match="weight_ks: k=0 repeats"):
            run(make_abs_problem(1), config)

    def test_negative_zero_weight_k_runs_as_zero(self):
        # s^(-0/2) = s^(0/2) = 1: -0.0 is the uniform mean, under the labels of 0.0
        problem = make_abs_problem(2)
        reports = [run(problem, SolverConfig(max_iterations=50, initial_point=np.array([0.7, -0.4]),
                                             policy=FamilyPolicy(R=problem.radius_R),
                                             weight_ks=(k,)))
                   for k in (0.0, -0.0)]
        (zero, zero_trace), (negative, negative_trace) = reports
        assert list(negative.certificates) == ["per_step", "family", "weak_k0", "monotone_k0"]
        assert negative.certificates == zero.certificates
        assert negative.bounds.keys() == zero.bounds.keys()
        assert all(np.array_equal(negative.bounds[b], zero.bounds[b]) for b in zero.bounds)
        assert negative.averaged_values == zero.averaged_values
        assert negative_trace.keys() == zero_trace.keys()
        assert all(np.array_equal(negative_trace[c], zero_trace[c]) for c in zero_trace)
        config = SolverConfig(max_iterations=3, initial_point=np.array([0.5]),
                              policy=FamilyPolicy(R=1.0), weight_ks=(0.0, -0.0))
        with pytest.raises(InvalidParameterError, match="weight_ks: k=-0 repeats"):
            run(make_abs_problem(1), config)


def flat_bottom_problem(c=1.0, n=5, seed=1):
    """f(x) = max(||A x - b||_inf - c, 0) in a ball.

    The subgradient is exactly zero on the flat bottom, so a run stops there.
    """
    rng = np.random.default_rng(seed)
    A, b = rng.standard_normal((n + 2, n)), rng.standard_normal(n + 2)

    def oracle(x):
        z = A @ x - b
        i = int(np.argmax(np.abs(z)))
        v = abs(float(z[i])) - c
        if v <= 0:
            return SubgradientResult(0.0, np.zeros(n))
        return SubgradientResult(v, np.sign(z[i]) * A[i])

    return ProblemInstance(name="flat_bottom", dimension=n, oracle=oracle,
                           projector=Ball(center=np.zeros(n), radius=3.0), radius_R=6.0)


def one_buffer(problem):
    """`problem` whose oracle answers every call in one subgradient array, which the next overwrites.

    The run must copy each g_s it keeps before it calls the oracle again.
    """
    inner, buffer = problem.oracle, np.empty(problem.dimension)

    def oracle(x):
        res = inner(x)
        if res.subgradient is None:
            return res
        buffer[...] = res.subgradient
        return res._replace(subgradient=buffer)

    return dataclasses.replace(problem, oracle=oracle)


class TestValueBlocks:
    """The averages, folded in a block of iterations at a time."""

    KS = (-1.0, 0.0, 2.0)

    @pytest.fixture
    def blocks(self, monkeypatch):
        """The (weights, points) of every update of every run, restarts included."""
        recorded = []

        class Recording(StreamingAverage):
            def update(self, w, x):
                recorded.append((np.array(w), np.array(x)))
                return super().update(w, x)

        monkeypatch.setattr(solver_module, "StreamingAverage", Recording)
        return recorded

    def assert_last_epoch_averaged(self, report, trace, blocks, iterates):
        """The report's averages are the weighted means of the last epoch's iterates x_1, ....

        Its rows are the last rows of the blocks fed, and its weights those
        of WeightRule over the epoch's own count, as ``psg check`` forms them.
        """
        epoch = trace["epoch"]
        first = int(np.argmax(epoch == epoch[-1]))
        x = np.array(iterates[first:len(epoch)])
        fed = np.concatenate([points for _, points in blocks])[-len(x):]
        assert np.array_equal(fed, x)
        t = np.arange(1.0, len(x) + 1.0)
        for k in self.KS:
            w = WeightRule(k)(t, trace["eta"][first:])
            direct = (w[:, None] * x).sum(axis=0) / w.sum()
            assert_allclose(report.averaged_points[f"k{k:g}"], direct, rtol=1e-12, atol=1e-13)

    # the Lasso's block: 64 floats per point, and 65 per minorant
    BLOCK = solver_module.block_rows(64, True)

    # hook: the Lasso's own oracle, a new array per answer; no-hook: one_buffer's
    @pytest.mark.parametrize("hook", [True, False], ids=["hook", "no-hook"])
    @pytest.mark.parametrize("iterations", [1, 63, 64, 65, 130])
    def test_each_row_equals_its_own_call(self, blocks, iterations, hook, block_lengths):
        iterations = at_block(iterations, self.BLOCK)
        lasso = make_lasso(seed=3, n=64, m=40)
        problem, iterates = projected(lasso if hook else one_buffer(lasso))
        report, trace = run(problem, SolverConfig(
            max_iterations=iterations, initial_point=np.zeros(64),
            policy=FamilyPolicy(R=50.0), weight_ks=self.KS))
        assert block_lengths == [self.BLOCK]
        assert len(trace["s"]) == iterations
        # full blocks, then the rest after the loop
        full, rest = divmod(iterations, self.BLOCK)
        assert [len(x) for _, x in blocks] == [self.BLOCK] * full + ([rest] if rest else [])
        self.assert_last_epoch_averaged(report, trace, blocks, iterates)
        # each row's value, and each average's, is the oracle's answer at its own point
        assert trace["f_x"].tolist() == [lasso.value(x) for x in iterates[:iterations]]
        for label, point in report.averaged_points.items():
            assert report.averaged_values[label] == lasso.value(point), label

    def test_restart_inside_a_block(self, blocks, block_lengths):
        problem, iterates = projected(make_lasso(seed=3, n=64, m=40))
        report, trace = run(problem, SolverConfig(
            max_iterations=2 * self.BLOCK + 2, initial_point=np.zeros(64),
            policy=FamilyPolicy(R=50.0), weight_ks=self.KS, restart_factor=2.0))
        assert block_lengths == [self.BLOCK]
        restarts = np.flatnonzero(np.diff(trace["epoch"])) + 1
        assert len(restarts) and np.any(restarts % self.BLOCK)
        # an epoch after a restart still crosses a block boundary
        assert len(trace["s"]) - restarts[-1] > self.BLOCK
        self.assert_last_epoch_averaged(report, trace, blocks, iterates)

    def test_zero_subgradient_inside_a_block(self, blocks, block_lengths):
        problem, iterates = projected(flat_bottom_problem(n=64))
        report, trace = run(problem, SolverConfig(
            max_iterations=3000, initial_point=np.full(64, 2.0), policy=FamilyPolicy(R=6.0),
            weight_ks=self.KS))
        assert report.stop_reason == StopReason.ZERO_SUBGRADIENT
        assert block_lengths == [self.BLOCK]
        assert report.iterations_run > self.BLOCK
        assert report.iterations_run % self.BLOCK
        self.assert_last_epoch_averaged(report, trace, blocks, iterates)


@pytest.mark.parametrize("policy", [FamilyPolicy(R=math.sqrt(3.0), a=0.5),
                                    NesterovPolicy(R=math.sqrt(3.0))], ids=["a0.5", "nesterov"])
def test_run_averages_with_the_weights_monotone_k_certifies(policy, monkeypatch):
    # the weights the averages are fed are WeightRule's over the trace's
    # columns bit for bit, which bounds.evaluate decides monotone_k<k> on;
    # on this run numpy's power differs from Python's pow at k = -0.5, 0.5, 1 and 3
    ks = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
    fed = []

    class Spy(StreamingAverage):
        def update(self, w, x):
            fed.append(np.array(w, dtype=np.float64))
            return super().update(w, x)

    monkeypatch.setattr(solver_module, "StreamingAverage", Spy)
    _, trace = run(make_abs_problem(3), SolverConfig(
        max_iterations=3000, initial_point=np.array([0.7, -0.4, 0.2]), policy=policy,
        weight_ks=ks))
    weights = np.concatenate(fed)
    assert weights.shape == (3000, len(ks))
    for j, k in enumerate(ks):
        differing = np.flatnonzero(weights[:, j] != WeightRule(k)(trace["s"], trace["eta"]))
        assert differing.tolist() == [], k


class TestNoAverages:
    """weight_ks=() tracks no average and costs one oracle call per iteration."""

    @staticmethod
    def counted(problem):
        calls = [0]

        def oracle(x):
            calls[0] += 1
            return problem.oracle(x)

        return dataclasses.replace(problem, oracle=oracle), calls

    @pytest.mark.parametrize("name", ["lasso64", "abs3"])
    def test_same_run_without_averages(self, name):
        if name == "lasso64":
            problem, x1 = make_lasso(seed=3, n=64, m=40), np.zeros(64)
        else:
            problem, x1 = make_abs_problem(3), np.array([0.7, -0.4, 0.2])

        def solve(problem, weight_ks):
            return run(problem, SolverConfig(
                max_iterations=300, initial_point=x1, policy=FamilyPolicy(R=problem.radius_R),
                weight_ks=weight_ks))

        counted, calls = self.counted(problem)
        report, trace = solve(counted, ())
        assert calls[0] == report.iterations_run == report.oracle_calls
        # the report counts every call, also the one that values the average
        # after the loop, the only one that a traced or certified run adds
        counted, calls = self.counted(problem)
        plain, plain_trace = solve(counted, (0.0,))
        assert calls[0] == plain.oracle_calls == plain.iterations_run + 1
        assert report.averaged_points == {} and report.averaged_values == {}
        for field in ("best_value", "best_index", "iterations_run", "stop_reason",
                      "max_g_norm"):
            assert getattr(report, field) == getattr(plain, field), field
        assert np.array_equal(report.best_point, plain.best_point)
        assert report.iterations_run > 1
        # the lean trace has every column but the average's bound, each equal
        assert list(trace) == [name for name in plain_trace if name != "bound_weak_k0"]
        for name in trace:
            assert np.array_equal(trace[name], plain_trace[name], equal_nan=True), name

    def test_reference_run_makes_one_call_per_iteration(self):
        problem, calls = self.counted(make_lasso(seed=3, n=64, m=40))
        value = reference_optimum_value(problem, 500)
        assert calls[0] == 500
        report, _ = run(problem, SolverConfig(
            max_iterations=500, initial_point=np.zeros(64), policy=FamilyPolicy(R=50.0),
            weight_ks=()))
        assert value == report.best_value


def sqrt_sum_problem(dim):
    """f(x) = -sum_i sqrt(x_i) on [0, 1]^dim: f* = -dim at the vertex x* = (1, ..., 1).

    No Lipschitz bound exists, and the subdifferential is empty where some
    x_i = 0.
    """
    def oracle(x):
        if not (x > 0.0).all():
            return SubgradientResult(-float(np.sqrt(np.maximum(x, 0.0)).sum()), None)
        roots = np.sqrt(x)
        return SubgradientResult(-float(roots.sum()), -0.5 / roots)

    return ProblemInstance(name=f"sqrt_sum{dim}", dimension=dim, oracle=oracle,
                           projector=Box(lower=np.zeros(dim), upper=np.ones(dim)),
                           radius_R=math.sqrt(dim), known_optimum_value=-float(dim),
                           known_optimum_point=np.ones(dim))


class TestOracleMemo:
    """An iterate equal to the last point the oracle was called at costs no call."""

    @staticmethod
    def assert_same_run(got, want):
        """Two runs' (report, trace) pairs are equal, arrays bit for bit."""
        (report, trace), (other, other_trace) = got, want
        for name in (f.name for f in dataclasses.fields(report)):
            a, b = getattr(report, name), getattr(other, name)
            if name == "averaged_points":
                assert list(a) == list(b) and all(np.array_equal(a[k], b[k]) for k in a)
            elif name == "best_point":
                assert np.array_equal(a, b)
            else:
                assert a == b, name
        assert list(trace) == list(other_trace)
        for name in trace:
            assert np.array_equal(trace[name], other_trace[name], equal_nan=True), name

    # vertex optima: the projection pins the iterate once it reaches x* = 1
    @pytest.mark.parametrize("dim,start,a,restart_factor,calls", [
        (1, [0.9], 0.0, 2.0, 2),  # the benchmark's nonlip: averages exactly 1 too
        (1, [0.1], 1.0, None, 5),
        (3, [0.9, 0.3, 0.05], 0.0, 2.0, 3),
        (3, [0.9, 0.3, 0.05], 1.0, None, 6),
        (3, [1e-3, 0.2, 0.99], 0.5, None, 22),
    ])
    def test_calls_only_where_the_iterate_moved(self, dim, start, a, restart_factor, calls):
        plain = make_sqrt_example() if dim == 1 else sqrt_sum_problem(dim)
        problem, seen = recorded(plain)
        problem, iterates = projected(problem)
        config = SolverConfig(max_iterations=2000, initial_point=np.array(start),
                              policy=FamilyPolicy(R=plain.radius_R, a=a),
                              weight_ks=(-1.0, 0.0, 2.0), restart_factor=restart_factor)
        report, trace = run(problem, config)
        t = report.iterations_run
        assert t == 2000 and all(report.certificates.values())
        points = [x.tobytes() for x, _, _ in seen]
        assert all(p != q for p, q in zip(points, points[1:]))
        # x_1 is called at; x_s for s > 1 only when it moved; then each final
        # average that differs from the point called at before it
        keys = [x.tobytes() for x in iterates[:t]]
        moved = sum(p != q for p, q in zip(keys, keys[1:]))
        finals, last = 0, keys[-1]
        for point in report.averaged_points.values():
            finals += point.tobytes() != last
            last = point.tobytes()
        assert len(seen) == report.oracle_calls == 1 + moved + finals == calls
        assert moved < t - 1
        # each served value is f at its point, and the wrappers change nothing
        assert trace["f_x"].tolist() == [plain.value(x) for x in iterates[:t]]
        assert report.averaged_values == {label: plain.value(point) for label, point
                                          in report.averaged_points.items()}
        self.assert_same_run((report, trace), run(plain, config))

    @pytest.mark.parametrize("signs,calls", [((0.0,), 1), ((-0.0, 0.0), 50)])
    def test_points_are_compared_bit_for_bit(self, signs, calls):
        # f(x) = x from x = 0: every step lands at 0, here as -0.0 and 0.0 in
        # turn, which are equal as numbers but not as bytes
        sign = itertools.cycle(signs)
        problem, seen = recorded(ramp_problem())
        problem, _ = projected(problem, lambda y: np.full(1, next(sign)))
        report, _ = run(problem, SolverConfig(max_iterations=50, initial_point=np.zeros(1),
                                              policy=FamilyPolicy(R=1.0), weight_ks=()))
        assert report.iterations_run == 50
        assert len(seen) == report.oracle_calls == calls


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

    def test_subgradient_of_the_wrong_shape(self):
        # a length-1 subgradient would broadcast over the 2-D step unnoticed
        problem = self.problem(lambda x: np.ones(1), Ball(center=np.zeros(2), radius=1.0))
        config = SolverConfig(max_iterations=5, initial_point=np.array([0.5, 0.0]),
                              policy=FamilyPolicy(R=1.0))
        with pytest.raises(NumericError, match=r"subgradient shape \(1,\) at iteration 1"):
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
                              restart_factor=1.5 if restart else None)
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

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(k=st.floats(200.0, 400.0), scale=st.floats(0.5, 5.0), spread=st.floats(0.0, 1.0),
           dim=st.integers(1, 600), seed=st.integers(0, 2 ** 16))
    def test_overflow_is_named_as_a_python_float_loop_names_it(self, k, scale, spread, dim,
                                                                seed):
        # k = -1 weights by steps near 1e305, so its total overflows; s ** (k/2)
        # overflows as a weight, a total or a weighted sum. dim sets the block length.
        steps = (1e305 * scale
                 * (1.0 + spread * np.random.default_rng(seed).random(1500))).tolist()

        class Listed(StepSizePolicy):
            def step_size(self, s, g_norm):
                return steps[s - 1]

        ks = (-1.0, 0.0, k)

        def python_weight(e, s, eta):
            try:
                return eta ** -e if e <= 0 else s ** (0.5 * e)
            except OverflowError:
                return math.inf

        # the reference: each weight, running total and running weighted sum
        # w_s (x_s - x_1) a Python float, in order; the box sends the
        # iterates from 0.5 to -1 and 1 in turn
        totals, sums, expected, x = [0.0] * len(ks), [0.0] * len(ks), None, 0.5
        for s, eta in enumerate(steps, 1):
            for j, e in enumerate(ks):
                w = python_weight(e, s, eta)
                totals[j] += w
                sums[j] += w * (x - 0.5)
                if totals[j] == math.inf or not math.isfinite(sums[j]):
                    what = ("weight" if w == math.inf else "total weight"
                            if totals[j] == math.inf else "weighted sum")
                    expected = f"{what} of k={e:g} overflows at iteration {s}"
                    break
            if expected is not None:
                break
            x = min(max(x - eta * math.copysign(1.0, x), -1.0), 1.0)
        assert expected is not None
        config = SolverConfig(max_iterations=len(steps), initial_point=np.full(dim, 0.5),
                              policy=Listed(), weight_ks=ks)
        with pytest.raises(NumericError) as caught:
            run(make_abs_problem(dim), config)
        assert str(caught.value) == expected

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
            together.update(w[None], x[None])
            for acc, w_i in zip(apart, w):
                acc.update([[w_i]], x[None])
        assert together.count == 500
        assert np.array_equal(together.mean, np.concatenate([acc.mean for acc in apart]))
        assert np.array_equal(together.total_weight,
                              np.concatenate([acc.total_weight for acc in apart]))

    def test_weight_vector_rejects_bad_entry(self):
        acc = StreamingAverage()
        with pytest.raises(NumericError, match="got 0.0"):
            acc.update(np.array([[1.0, 0.0]]), np.ones((1, 2)))
        assert acc.count == 0

    @pytest.mark.parametrize("name", ["two-slope", "lasso64", "lasso512"])
    def test_joint_averages_match_single_k_runs(self, name, block_lengths):
        if name == "two-slope":
            problem, x1, restart = make_two_slope_problem(), np.array([0.3]), 1.5
            block = solver_module.block_rows(1, False)  # f* is known: no minorants
        else:
            n, m = (64, 40) if name == "lasso64" else (512, 300)
            problem = make_lasso(seed=3, n=n, m=m)
            x1, restart = np.zeros(n), 2.0
            block = solver_module.block_rows(n, True)
        block_lengths.clear()  # the call above is recorded too
        ks = (-1.0, 0.0, 0.5, 2.0)

        def solve(weight_ks):
            return run(problem, SolverConfig(
                max_iterations=2 * block + 9, initial_point=x1,
                policy=FamilyPolicy(R=problem.radius_R), weight_ks=weight_ks,
                restart_factor=restart))

        report, trace = solve(ks)
        assert np.any(np.diff(trace["G"]) < 0), "no restart happened"
        # some epoch fills a block, so the runs cross a block boundary
        assert np.bincount(trace["epoch"].astype(int)).max() > block
        for k in ks:
            single, single_trace = solve((k,))
            label = f"k{k:g}"
            assert np.array_equal(report.averaged_points[label],
                                  single.averaged_points[label])
            assert report.averaged_values[label] == single.averaged_values[label]
            for name in ("eta", "f_x", "epoch"):
                assert np.array_equal(trace[name], single_trace[name])
        assert block_lengths == [block] * (1 + len(ks))


def inflated(problem, s0):
    """`problem` whose oracle adds 1 to the value it returns on its s0-th call (None: never).

    A run's oracle calls are its iterations, in order, until its loop ends.
    """
    calls = 0

    def oracle(x):
        nonlocal calls
        calls += 1
        res = problem.oracle(x)
        if calls != s0:
            return res
        return res._replace(value=res.value + 1.0)

    return dataclasses.replace(problem, oracle=oracle)


def ramp_problem():
    """f(x) = x on [0, 1000]: from x = 500 the steps eta_s = 1/sqrt(s) never reach 0.

    Over 10,000 iterations they sum to less than 200.

    Every step is exact, so the per-step inequality holds with no slack:
    pairing x_s with x_s or x_{s+2} instead of x_{s+1} moves its right side
    by about x_s, far more than 1, either way.
    """
    one = np.ones(1)

    def oracle(x):
        return SubgradientResult(float(x[0]), one)

    return ProblemInstance(name="ramp", dimension=1, oracle=oracle,
                           projector=Box(lower=np.zeros(1), upper=np.full(1, 1000.0)),
                           radius_R=1000.0, known_optimum_value=0.0,
                           known_optimum_point=np.zeros(1))


class TestPerStepBlocks:
    """The per-step inequality, decided for a block of rows at a time."""

    # the ramp's block, one float per point: as long with three averages as without
    BLOCK = solver_module.block_rows(1, False)
    # the rows on each side of the block boundaries, and the last row of a
    # run that ends inside its third block (named as at_block names them)
    CASES = [(budget, s0) for budget in (64, 65, 129, 200)
             for s0 in (None, 1, 63, 64, 65, 128, 129, 200) if s0 is None or s0 <= budget]

    @pytest.mark.parametrize("weight_ks", [(), (-1.0, 0.0, 2.0)], ids=["lean", "averages"])
    @pytest.mark.parametrize("budget,s0", CASES)
    def test_one_inflated_value_fails_it(self, weight_ks, budget, s0, block_lengths):
        budget, s0 = at_block(budget, self.BLOCK), at_block(s0, self.BLOCK)
        report, _ = run(inflated(ramp_problem(), s0), SolverConfig(
            max_iterations=budget, initial_point=np.array([500.0]),
            policy=FamilyPolicy(R=1.0), weight_ks=weight_ks))
        assert block_lengths == [self.BLOCK]
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
        _, trace = run(make_sqrt_example(), config)
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


def projected(problem, project=None):
    """`problem` whose projector logs every point it returns, x_1, x_2, ... in order, and the log.

    `project`, when given, replaces the projector's own map.
    """
    inner, points = problem.projector, []
    project = project or inner.project

    def logged(y):
        points.append(project(y))
        return points[-1]

    projector = SimpleNamespace(dimension=inner.dimension, project=logged,
                                min_linear=getattr(inner, "min_linear", None))
    return dataclasses.replace(problem, projector=projector), points


def bracket_low_per_iteration(problem, calls):
    """The bracket's low end from the minorants of `calls`, summed one iteration at a time."""
    g_sum, c_sum = np.zeros(problem.dimension), 0.0
    for x, f_x, g in calls:
        g_sum += g
        c_sum += f_x - float(g.dot(x))
    return (c_sum + problem.projector.min_linear(g_sum)) / len(calls), g_sum, c_sum


class TestBlockBookkeeping:
    """Minorant sums and the step check, done per block or by a scalar proof."""

    # flat bottoms the nesterov rule reaches with rows pending (2, 8 and 153 rows)
    BOTTOM = {1: 2.0, 2: 1.0, 64: 2.0}

    # image: the oracle's own arrays, a new one per answer; no-image: one_buffer's
    @pytest.mark.parametrize("image", [True, False], ids=["image", "no-image"])
    @pytest.mark.parametrize("n", [1, 2, 64])
    @pytest.mark.parametrize("case", ["budget", "restart", "zero-first", "zero-later"])
    def test_bracket_low_equals_the_per_iteration_sum(self, case, n, image, block_lengths):
        # a Lasso with m = n + 3, two averages, minorants summed; the budget
        # runs past the first block boundary
        block = solver_module.block_rows(n, True)
        budget = block + 9
        block_lengths.clear()  # the call above is recorded too
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
                oracle=lambda x: inner(x)._replace(value=inner(x).value + 0.5))
            policy, x1 = NesterovPolicy(R=6.0), np.full(n, 3.0 / n ** 0.5)
        problem, calls = recorded(problem)
        if not image:
            problem = one_buffer(problem)
        problem, iterates = projected(problem)
        report, trace = run(problem, SolverConfig(
            max_iterations=budget, initial_point=x1, policy=policy, weight_ks=(-1.0, 0.0),
            restart_factor=2.0 if case == "restart" else None))
        # iteration s sums the minorant of x_s, which the oracle answered at its
        # last call there: the memo calls it once for an iterate that did not move
        summed = report.iterations_run
        if case in ("budget", "restart"):
            assert block_lengths == [block] and report.iterations_run == budget
        if case == "restart" and n == 64:
            assert trace["epoch"][-1] >= 1
        if case.startswith("zero"):
            # the stopping iteration sums its minorant and projects no step
            assert report.stop_reason == StopReason.ZERO_SUBGRADIENT
            summed += 1
            assert len(iterates) == summed
            assert (report.iterations_run == 0) == (case == "zero-first")
        answers = {x.tobytes(): (x, f_x, g) for x, f_x, g in calls}
        per_iteration = [answers[x.tobytes()] for x in iterates[:summed]]
        low, g_sum, c_sum = bracket_low_per_iteration(problem, per_iteration)
        assert report.optimum_bracket[0] == low
        assert report.minorant_sums == {"g_sum": g_sum.tolist(), "c_sum": c_sum,
                                        "count": summed}

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
    def faulty_lasso(bad_value_at, bad_step_at):
        """A Lasso whose oracle spoils f(x) (inf) or g (1e10-fold) on the given calls."""
        problem = make_lasso(seed=3, n=64, m=40)
        calls = 0

        def oracle(x):
            nonlocal calls
            calls += 1
            res = problem.oracle(x)
            if calls == bad_value_at:
                res = res._replace(value=math.inf)
            if calls == bad_step_at:
                res = res._replace(subgradient=res.subgradient * 1e10)
            return res

        return dataclasses.replace(problem, oracle=oracle)

    # the Lasso's block with one average; the Lasso declares no Lipschitz
    # bound, so the constant rule has no gap certificate and sums no minorant
    BLOCK = solver_module.block_rows(64, False)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("later_step", [False, True], ids=["alone", "bad-step-after"])
    @pytest.mark.parametrize("s0", [1, 63, 64, 65])
    def test_nonfinite_image_names_its_iteration(self, s0, later_step, block_lengths):
        # the constant step 5e298 keeps every step finite until the oracle
        # stretches a subgradient; the image f(x_s0) that the oracle returns
        # is inf, and a step that overflows at s0 + 1 (in the same block
        # unless s0 ends one) must not hide it; nor does a block boundary
        # hide the step that overflows
        s0 = at_block(s0, self.BLOCK)
        s1 = s0 + 1 if later_step else None
        config = SolverConfig(max_iterations=2 * self.BLOCK, initial_point=np.zeros(64),
                              policy=ConstantPolicy(R=50.0, L=1e-300, horizon_t=100),
                              weight_ks=(0.0,))
        with pytest.raises(NumericError, match=f"oracle returned nonfinite value at iteration"
                                               f" {s0}$"):
            run(self.faulty_lasso(s0, s1), config)
        with pytest.raises(NumericError, match=f"step x - eta \\* g has nonfinite entries at"
                                               f" iteration {s0 + 1}$"):
            run(self.faulty_lasso(None, s0 + 1), config)
        assert block_lengths == [self.BLOCK] * 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nonfinite_image_at_a_zero_subgradient_stop_is_named(self):
        # the run would stop at s = 1 without a row, yet its value f(x_1) is read
        problem = flat_bottom_problem(c=1.0, n=3)
        inner = problem.oracle

        def oracle(x):
            return inner(x)._replace(value=math.inf)

        config = SolverConfig(max_iterations=10, initial_point=np.zeros(3),
                              policy=FamilyPolicy(R=6.0), weight_ks=(0.0,))
        with pytest.raises(NumericError, match="oracle returned nonfinite value at iteration 1$"):
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


class TestRecordMemory:
    """The per-iteration record is float64 arrays, and no allocation grows with the budget."""

    @staticmethod
    def traced_peak(problem, config):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            report, _ = run(problem, config)
            return report, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_nonlip_run_peak_per_iteration(self):
        # the benchmark's nonlip config: 7 epochs, 3 averages, trace on
        iterations, problem = 20000, make_sqrt_example()
        config = SolverConfig(max_iterations=iterations, initial_point=np.array([0.9]),
                              policy=FamilyPolicy(R=problem.radius_R, a=0.0),
                              weight_ks=(-1.0, 0.0, 2.0), restart_factor=2.0)
        report, peak = self.traced_peak(problem, config)
        assert report.iterations_run == iterations
        # about 126 B per iteration, 88 of them the trace's 11 float64 columns
        assert peak <= 220 * iterations, peak / iterations

    def test_budget_sizes_nothing(self):
        # abs started at its optimum stops at the first oracle call
        config = SolverConfig(max_iterations=10 ** 12, initial_point=np.zeros(3),
                              policy=FamilyPolicy(R=1.0), weight_ks=(-1.0, 0.0, 2.0))
        report, peak = self.traced_peak(make_abs_problem(3), config)
        assert report.stop_reason is StopReason.ZERO_SUBGRADIENT
        assert report.iterations_run == 0
        assert peak < 2 ** 20
