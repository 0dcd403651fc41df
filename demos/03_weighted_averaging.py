"""Effect of the averaging exponent k on a synthetic Lasso benchmark.

One weighted average is tracked per exponent: k = 0 is the plain running
mean, k = -1 weights by step size, and larger k concentrates weight on
recent iterates (approaching the raw last iterate as k grows). All of them
carry the same 1/sqrt(t)-rate guarantee under the norm-adaptive rule, but
recency weighting usually wins in practice. None stores an iterate history:
each average is one weighted sum of the iterates, folded in a block of
iterations at a time. Their certificates are decided on the weighted mean
of the objective values the run already computed, which bounds the value
at the average (Jensen), so checking them costs no oracle call; each
average is evaluated once, at the end.
"""

import numpy as np

import psg

KS = (-1.0, 0.0, 1.0, 2.0, 4.0, 8.0)

problem = psg.make_lasso(seed=1, n=64, m=40, radius=50.0, lam=10.0)
config = psg.SolverConfig(max_iterations=2000, initial_point=np.zeros(64),
                          policy=psg.FamilyPolicy(R=50.0, a=1.0), weight_ks=KS)
report, _ = psg.run(problem, config)

# no known optimum: the run brackets it from its own subgradient minorants
f_low, f_high = report.optimum_bracket
print(f"{problem.name}: f* lies in [{f_low:.4f}, {f_high:.4f}]\n")

print(f"{'average':>10} {'objective':>12} {'gap <=':>12} {'bound':>12} {'proven':>6}")
for k in KS:
    label = f"k{k:g}"
    value = report.averaged_values[label]
    bound = report.bounds[f"weak_{label}"]
    ok = report.certificates[f"weak_{label}"]
    print(f"{label:>10} {value:>12.4f} {value - f_low:>12.4f} {bound:>12.2f} "
          f"{'yes' if ok else 'NO':>6}")
print(f"{'best':>10} {report.best_value:>12.4f} "
      f"{report.best_value - f_low:>12.4f} {'-':>12} {'-':>6}")

print("\nLarger k tracks the best iterate more closely while keeping the")
print("one-shot guarantee; the best iterate itself needs one objective")
print("evaluation per iteration, and the lean run (weight_ks=())")
print("tracks no average, so it evaluates none and proves no gap.")
