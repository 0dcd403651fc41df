"""Tour of the four step-size rules on a simple nonsmooth problem.

Runs the projected subgradient method on f(x) = ||x||_1 over the box
[-1, 1]^8 with each rule and compares the uniform-average gap against the
rule's provable bound. The norm-adaptive family rule needs neither the
Lipschitz constant nor the iteration budget in advance, yet matches the
classic rule's guarantee.
"""

import numpy as np

import psg

DIM = 8
ITERATIONS = 2000

problem = psg.make_abs_problem(DIM)
x1 = np.random.default_rng(0).uniform(-1.0, 1.0, size=DIM)
R, L = problem.radius_R, problem.lipschitz_L

policies = [
    psg.ConstantPolicy(R=R, L=L, horizon_t=ITERATIONS),
    psg.ClassicPolicy(R=R, L=L),
    psg.NesterovPolicy(R=R),
    psg.FamilyPolicy(R=R, a=1.0),
]

print(f"f(x) = ||x||_1 on [-1,1]^{DIM}, f* = 0, L = {L:.4f}, R = {R:.4f}, "
      f"t = {ITERATIONS}\n")
print(f"{'rule':<12} {'uniform-avg gap':>16} {'bound':>10} {'best gap':>10} "
      f"{'certificates':<30}")
for policy in policies:
    config = psg.SolverConfig(max_iterations=ITERATIONS, initial_point=x1,
                              policy=policy, weight_ks=(-1.0, 0.0))
    report, _ = psg.run(problem, config)
    gap = report.averaged_values["k0"]
    # each rule's first declared bound is its own uniform-average bound
    bound = report.bounds[policy.bound_labels(config.weight_ks, L)[0]]
    certs = ",".join(name for name, ok in report.certificates.items() if ok)
    print(f"{policy.label:<12} {gap:>16.6f} {bound:>10.4f} "
          f"{report.best_value:>10.6f} {certs:<30}")

print("\nEvery gap sits below its bound; the family rule achieves this")
print("without being told L or the horizon.")
