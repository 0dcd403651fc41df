"""Convergence on an objective with unbounded subgradients.

f(x) = -sqrt(x) on [0, 1] has no Lipschitz bound: the subgradient norm
blows up like 1/(2 sqrt(x)) near zero, so the constant and classic rules
cannot even be instantiated (no L exists), and at x = 0 the subdifferential
is empty. The norm-adaptive rule simply folds whatever norms it sees into
its running maximum and still converges from any positive start.
"""

import numpy as np

import psg

problem = psg.make_sqrt_example()
print("f(x) = -sqrt(x) on [0, 1]; optimum f* = -1 at x* = 1")
print(f"declared Lipschitz bound: {problem.lipschitz_L}")
print(f"subgradient norm at x = 1e-8: "
      f"{np.linalg.norm(problem.oracle(np.array([1e-8])).subgradient):.1e}\n")

print("starting AT zero (empty subdifferential there):")
report, _ = psg.run(problem, psg.SolverConfig(
    max_iterations=100, initial_point=np.zeros(1), policy=psg.FamilyPolicy(R=1.0)))
print(f"  stop reason: {report.stop_reason.value}\n")

for x1 in (0.01, 1e-6):
    config = psg.SolverConfig(max_iterations=10_000, initial_point=np.array([x1]),
                              policy=psg.FamilyPolicy(R=1.0, a=1.0),
                              weight_ks=(0.0,))
    report, trace = psg.run(problem, config)
    print(f"starting at x = {x1:g} (initial ||g|| = {trace['g_norm'][0]:.1f}):")
    print(f"  first step size {trace['eta'][0]:.4f}, G after one step {trace['G'][0]:.1f}")
    print(f"  best gap after {report.iterations_run} iterations: "
          f"{report.best_value - (-1.0):.2e}")
    print(f"  certificates: {report.certificates}\n")

print("The large initial norm is absorbed by the running maximum G, which")
print("scales the very first step down to R/G and keeps every later step safe.")
