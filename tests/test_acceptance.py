"""Acceptance suite: one PASS/FAIL line per criterion (run with ``pytest -s``).

Every certificate is verified twice: through the solver's own runtime
checks, and against an independent reimplementation of the iteration and
the bound formulas (straight cumulative sums over the stored history).
"""

import math
import time

import numpy as np
import pytest

import psg
from psg.bounds import weak_label

REL = 1e-9
ABS = 1e-12

FULL_K_GRID = (-1.0, -0.5, 0.0, 1.0, 2.0, 8.0)
A_GRID = (0.0, 0.5, 1.0)
DIMS = (1, 10)
T_BUDGET = 5000


def _report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    return ok


def _start_point(dim):
    return np.random.default_rng(1234 + dim).uniform(-1.0, 1.0, size=dim)


def reference_run(oracle, projector, x1, R, a, t):
    """Independent family-rule iteration; returns (xs, norms, etas).

    xs has one extra row (the post-step point after the last completed
    iteration). Stops exactly like the solver: a zero subgradient ends the
    run after the iterate is included.
    """
    x = np.array(x1, dtype=float)
    xs, norms, etas = [], [], []
    G = -math.inf
    for s in range(1, t + 1):
        value, g = oracle(x)
        gn = float(np.linalg.norm(g))
        G = max(G, gn * s ** (0.5 * (1.0 - a)))
        if G <= 0:
            break
        eta = R / (G * s ** (0.5 * a))
        xs.append(x.copy())
        norms.append(gn)
        etas.append(eta)
        x = projector(x - eta * g)
        if gn == 0.0:
            break
    xs.append(x.copy())
    return np.array(xs), np.array(norms), np.array(etas)


def abs_reference(dim, a, t=T_BUDGET):
    def oracle(x):
        return float(np.abs(x).sum()), np.sign(x)

    def projector(y):
        return np.clip(y, -1.0, 1.0)

    return reference_run(oracle, projector, _start_point(dim), math.sqrt(dim), a, t)


def uniform_gaps_and_bounds(xs, norms, R, f_of):
    """Objective gaps of prefix means and the matching uniform-average bound."""
    count = len(norms)
    idx = np.arange(1, count + 1, dtype=float)
    means = np.cumsum(xs[:-1], axis=0) / idx[:, None]
    gaps = np.array([f_of(m) for m in means])
    bounds = 1.5 * R * np.maximum.accumulate(norms) / idx ** 0.5
    return gaps, bounds


def weighted_gaps_and_bounds(xs, norms, etas, R, k, f_of):
    count = len(norms)
    idx = np.arange(1, count + 1, dtype=float)
    w = etas ** (-k) if k <= 0 else idx ** (0.5 * k)
    means = np.cumsum(w[:, None] * xs[:-1], axis=0) / np.cumsum(w)[:, None]
    gaps = np.array([f_of(m) for m in means])
    numerator = idx ** (0.5 * (k + 1.0)) + np.cumsum(idx ** (0.5 * (k - 1.0)))
    denominator = 2.0 * np.cumsum(idx ** (0.5 * k))
    bounds = numerator / denominator * R * np.maximum.accumulate(norms)
    return gaps, bounds


def certified(gaps, bounds):
    return bool(np.all(gaps <= bounds * (1.0 + REL) + ABS))


# Solver runs shared by criteria 2, 6 and 7, built lazily with their elapsed
# wall time recorded for the budget check.
_full_grid_cache = {}


def full_grid_runs():
    if not _full_grid_cache:
        t0 = time.perf_counter()
        runs = {}
        for dim in DIMS:
            problem = psg.make_abs_problem(dim)
            for a in A_GRID:
                config = psg.SolverConfig(
                    max_iterations=T_BUDGET,
                    initial_point=_start_point(dim),
                    policy=psg.FamilyPolicy(R=problem.radius_R, a=a),
                    weight_ks=FULL_K_GRID,
                )
                runs[(dim, a)] = psg.run(problem, config)
        _full_grid_cache["runs"] = runs
        _full_grid_cache["elapsed"] = time.perf_counter() - t0
    return _full_grid_cache["runs"], _full_grid_cache["elapsed"]


def test_criterion_uniform_average_certificate():
    """Uniform-mean gap <= 1.5 R max||g|| / sqrt(t) at every t, both dims, all a."""
    t0 = time.perf_counter()
    solver_ok = True
    full_budget_seen = False
    for dim in DIMS:
        problem = psg.make_abs_problem(dim)
        for a in A_GRID:
            config = psg.SolverConfig(
                max_iterations=T_BUDGET,
                initial_point=_start_point(dim),
                policy=psg.FamilyPolicy(R=problem.radius_R, a=a),
                weight_ks=(0.0,),
            )
            report, _ = psg.run(problem, config)
            solver_ok &= report.certificates["family"]
            full_budget_seen |= report.iterations_run == T_BUDGET
    elapsed = time.perf_counter() - t0

    independent_ok = True
    for dim in DIMS:
        R = math.sqrt(dim)
        for a in A_GRID:
            xs, norms, _ = abs_reference(dim, a)
            gaps, bounds = uniform_gaps_and_bounds(
                xs, norms, R, lambda m: float(np.abs(m).sum()))
            independent_ok &= certified(gaps, bounds)

    ok = solver_ok and independent_ok and full_budget_seen and elapsed < 5.0
    assert _report(
        f"uniform-average certificate (every t <= {T_BUDGET}, "
        f"{elapsed:.2f}s)", ok)


def test_criterion_weighted_average_certificates():
    """k-weighted-mean gap <= its bound at every t for k in the test grid."""
    runs, elapsed = full_grid_runs()
    solver_ok = all(report.certificates[weak_label(k)]
                    for report, _ in runs.values() for k in FULL_K_GRID)

    independent_ok = True
    for dim in DIMS:
        R = math.sqrt(dim)
        for a in A_GRID:
            xs, norms, etas = abs_reference(dim, a)
            for k in FULL_K_GRID:
                gaps, bounds = weighted_gaps_and_bounds(
                    xs, norms, etas, R, k, lambda m: float(np.abs(m).sum()))
                independent_ok &= certified(gaps, bounds)

    ok = solver_ok and independent_ok and elapsed < 10.0
    assert _report(
        f"weighted-average certificates (k in {list(FULL_K_GRID)}, "
        f"{elapsed:.2f}s)", ok)


def test_criterion_non_lipschitz_convergence():
    """Unbounded-subgradient 1-D problem: certificate at every t, best gap <= 1e-2."""
    problem = psg.make_sqrt_example()
    config = psg.SolverConfig(
        max_iterations=10_000,
        initial_point=np.array([0.01]),  # ||g|| = 50 at the start
        policy=psg.FamilyPolicy(R=1.0, a=1.0),
        weight_ks=(0.0,),
    )
    report, _ = psg.run(problem, config)
    best_gap = report.best_value - (-1.0)

    def oracle(x):
        v = float(x[0])
        root = math.sqrt(v)
        return -root, np.array([-0.5 / root])

    def projector(y):
        return np.clip(y, 0.0, 1.0)

    xs, norms, _ = reference_run(oracle, projector, np.array([0.01]), 1.0, 1.0, 10_000)
    # the callback returns the gap to f* = -1 directly
    gaps, bounds = uniform_gaps_and_bounds(
        xs, norms, 1.0, lambda m: 1.0 - math.sqrt(float(m[0])))
    ok = (report.certificates["family"] and report.certificates["per_step"]
          and best_gap <= 1e-2 and certified(gaps, bounds)
          and report.iterations_run == 10_000)
    assert _report(
        f"non-Lipschitz convergence (best gap {best_gap:.2e} <= 1e-2)", ok)


def test_criterion_classic_reduction_bitwise():
    """With unit subgradient norms, family(a=1) steps equal classic(L=1) steps exactly."""
    problem = psg.make_abs_problem(1)
    traces = {}
    for policy in (psg.FamilyPolicy(R=1.0, a=1.0), psg.ClassicPolicy(R=1.0, L=1.0)):
        config = psg.SolverConfig(max_iterations=1000, initial_point=np.array([0.7]),
                                  policy=policy, weight_ks=(0.0,))
        _, trace = psg.run(problem, config)
        traces[policy.label] = trace["eta"]
    prefix = min(len(traces["family_a1"]), len(traces["classic"]))
    ok = prefix > 0 and np.array_equal(traces["family_a1"][:prefix], traces["classic"][:prefix])
    assert _report(
        f"classic-rate reduction, bitwise over {prefix}-step prefix", ok)


def test_criterion_closed_form_G_equivalence():
    """Recursive running maximum equals its closed form on 1000 random sequences."""
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        length = int(rng.integers(1, 1001))
        norms = rng.uniform(0.0, 10.0, size=length)
        a = float(rng.choice([0.0, 0.3, 1.0]))
        idx = np.arange(1, length + 1, dtype=float)
        closed = np.maximum.accumulate(norms * idx ** (0.5 * (1.0 - a)))
        policy = psg.FamilyPolicy(R=1.0, a=a)
        for s in range(1, length + 1):
            policy.step_size(s, norms[s - 1])
            if abs(policy.G - closed[s - 1]) > 1e-12 * max(1.0, abs(closed[s - 1])):
                ok = False
                break
        if not ok:
            break
    assert _report("closed-form G equivalence (1000 sequences, 1e-12 relative)", ok)


def test_criterion_weight_step_monotonicity():
    """w_s / eta_s is nondecreasing on every certified run for the k grid."""
    runs, _ = full_grid_runs()
    mono_ks = (-1.0, -0.5, 0.0, 1.0, 2.0)
    solver_ok = all(report.certificates[f"monotone_k{k:g}"]
                    for report, _ in runs.values() for k in mono_ks)
    independent_ok = True
    for (dim, a), (_, trace) in runs.items():
        etas = trace["eta"]
        idx = np.arange(1, len(etas) + 1, dtype=float)
        for k in mono_ks:
            w = etas ** (-k) if k <= 0 else idx ** (0.5 * k)
            ratios = w / etas
            independent_ok &= bool(
                np.all(ratios[1:] >= ratios[:-1] * (1.0 - REL) - ABS))
    ok = solver_ok and independent_ok
    assert _report(f"weight/step monotonicity (k in {list(mono_ks)})", ok)


def test_criterion_per_step_inequality():
    """Per-step descent inequality holds at every iteration of every certified run."""
    runs, _ = full_grid_runs()
    solver_ok = all(report.certificates["per_step"] for report, _ in runs.values())

    independent_ok = True
    for dim in DIMS:
        for a in A_GRID:
            xs, norms, etas = abs_reference(dim, a)
            d2 = np.sum(xs ** 2, axis=1)  # optimum is the origin
            f_vals = np.abs(xs[:-1]).sum(axis=1)
            rhs = (d2[:-1] - d2[1:]) / (2.0 * etas) + 0.5 * etas * norms ** 2
            independent_ok &= bool(np.all(f_vals <= rhs * (1.0 + REL) + ABS))
    ok = solver_ok and independent_ok
    assert _report("per-step descent inequality (all certified runs)", ok)


def test_criterion_desk_scale_lasso():
    """Qualitative benchmark behaviour on three desk-scale instances."""
    t0 = time.perf_counter()
    stability_ok = True
    ordering_ok = True
    convergence_ok = True
    for seed in (1, 2, 3):
        problem = psg.make_lasso(seed, n=64, m=40, radius=50.0, lam=10.0)

        results = {}
        for policy in (psg.FamilyPolicy(R=50.0, a=1.0), psg.NesterovPolicy(R=50.0)):
            config = psg.SolverConfig(
                max_iterations=2000, initial_point=np.zeros(64), policy=policy,
                weight_ks=(0.0, 2.0))
            results[policy.label] = psg.run(problem, config)

        fam_report, fam_trace = results["family_a1"]
        _, nes_trace = results["nesterov"]
        fam_tail = fam_trace["f_x"][-500:]
        nes_tail = nes_trace["f_x"][-500:]
        stability_ok &= np.std(fam_tail, ddof=1) < np.std(nes_tail, ddof=1)

        ordering_ok &= (fam_report.averaged_values["k2"]
                        <= fam_report.averaged_values["k0"] + 1e-6)

        convergence_ok &= bool(np.all(np.diff(fam_trace["f_best"]) <= 0))
        # proven against the run's own bracket low <= f* <= high = f_best
        low, high = fam_report.optimum_bracket
        convergence_ok &= fam_report.certificates["family"]
        convergence_ok &= low <= high == fam_report.best_value
    elapsed = time.perf_counter() - t0
    ok = stability_ok and ordering_ok and convergence_ok and elapsed < 60.0
    assert _report(
        "desk-scale benchmark: (i) adaptive rule more stable than "
        "norm-normalized, (ii) k=2 average <= k=0 average, (iii) certified "
        f"convergence ({elapsed:.1f}s)", ok)


def test_criterion_bound_spot_values():
    """Bound evaluators match independent evaluations to 1e-12."""
    expected_nesterov = (2.0 + math.log(3.0)) / 4.0
    nesterov_ok = abs(psg.nesterov_bound(1, 1, 3) - expected_nesterov) <= 1e-12

    num = 4.0 ** 0.5 + math.fsum(s ** -0.5 for s in range(1, 5))
    den = 2.0 * math.fsum(s ** 0.0 for s in range(1, 5))
    weak_ok = abs(psg.weak_ergodic_bound(1, 4, 0.0, 1.0) - num / den) <= 1e-12

    ok = nesterov_ok and weak_ok
    assert _report("bound-evaluator spot values (1e-12)", ok)
