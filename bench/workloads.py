"""Workload inputs and the correctness gate of the psg benchmark.

Every workload is a `psg run` config. Three are the shipped Lasso configs with
the problem seed taken from the benchmark seed; ``nonlip`` is written here.
The default seed reproduces the shipped configs exactly, and the ``nonlip``
start point of 0.9 from ROADMAP item 5.
"""

from __future__ import annotations

import json
import math
import os
import random

DEFAULT_SEED = 1

# Relative tolerance on recorded objective values: rounding changes that the
# roadmap allows (streamed or batched evaluation) stay inside it.
VALUE_RTOL = 1e-9

SHIPPED = {
    "desk": "lasso_desk.json",
    "full": "lasso_full.json",
    "sweep": "sweep_a.json",
}

# f(x) = -sqrt(x) on [0, 1]: unbounded subgradients near 0, so the family rule
# with a = 0 restarts as G grows. Known optimum, hence no reference run.
NONLIP = {
    "problem": {"kind": "sqrt-example"},
    "policy": {"kind": "family", "a": 0.0},
    "weight_ks": [-1.0, 0.0, 2.0],
    "iterations": 20000,
    "initial_point": [0.9],
    "trace_path": "nonlip_trace.csv",
    "summary_path": "nonlip_summary.json",
    "restart_factor": 2.0,
}

NAMES = ("desk", "full", "sweep", "nonlip")


def nonlip_start(seed: int) -> float:
    """Start point of ``nonlip``: 0.9 at the default seed, else a draw in [0.3, 0.95].

    The interval keeps clear of x = 0, where the subdifferential is empty;
    every start in it makes the run restart 6 times.
    """
    if seed == DEFAULT_SEED:
        return 0.9
    return random.Random(seed).uniform(0.3, 0.95)


def make_config(name: str, seed: int, root: str) -> dict:
    """The `psg run` config of workload `name` at `seed`."""
    if name == "nonlip":
        config = json.loads(json.dumps(NONLIP))
        config["initial_point"] = [nonlip_start(seed)]
        return config
    with open(os.path.join(root, "configs", SHIPPED[name]), encoding="utf-8") as fh:
        config = json.load(fh)
    config["problem"]["seed"] = seed
    return config


def known_false_fail(config: dict, policy: str, check: str) -> bool:
    """True for a `psg check` FAIL that the seed is known to report falsely.

    * The nesterov rule guarantees w_s / eta_s nondecreasing only at k = -1,
      and `psg run` certifies nothing else for it, but `psg check` tests
      every k.
    * `psg check` recomputes G, the weight/step ratios and the bound columns
      over the whole trace, while a restarted run resets them at each
      restart (ROADMAP item 5).
    """
    if (policy == "nesterov" and check.startswith("weight_step_ratio_nondecreasing_")
            and check != "weight_step_ratio_nondecreasing_k-1"):
        return True
    if config.get("restart_factor") is not None:
        return (check in ("G_nondecreasing", "bound_family_recomputed")
                or check.startswith("weight_step_ratio_nondecreasing_")
                or (check.startswith("bound_weak_") and check.endswith("_recomputed")))
    return False


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=VALUE_RTOL, abs_tol=0.0)


def _cell_misses(cell: dict, want: dict | None) -> list:
    label = cell["policy"]
    if cell["status"] != "ok":
        return [f"cell {label}: status {cell['status']}: {cell.get('error')}"]
    misses = [f"cell {label}: certificate {name} failed"
              for name, ok in cell["certificates"].items() if not ok]
    if want is None:
        return misses
    for key in ("policy", "iterations_run", "stop_reason", "certificates"):
        if cell[key] != want[key]:
            misses.append(f"cell {label}: {key} is {cell[key]!r}, recorded {want[key]!r}")
    if not _close(cell["best_value"], want["best_value"]):
        misses.append(f"cell {label}: best_value {cell['best_value']!r}, "
                      f"recorded {want['best_value']!r}")
    got, rec = cell["averaged_values"], want["averaged_values"]
    if set(got) != set(rec) or not all(_close(got[k], rec[k]) for k in rec):
        misses.append(f"cell {label}: averaged_values {got!r}, recorded {rec!r}")
    return misses


def gate(config: dict, seed: int, result: dict, recorded: dict | None) -> dict:
    """Score one execution: operations, failed operations, and gate misses.

    An operation is one cell of `psg run` or one `psg check` verdict. A cell
    fails on ``status: failed``, on any false certificate, or, at the default
    seed, on differing from `recorded`. Every failed operation is named in
    ``failures``; those that are not known false FAILs are also ``misses``,
    which make the run incorrect.
    """
    cells = result["summary"]["cells"]
    wanted = recorded["cells"] if recorded is not None and seed == DEFAULT_SEED else None
    failed, failures, misses = 0, [], []
    if result["run_exit"] != 0:
        misses.append(f"psg run --strict exited with {result['run_exit']}")
    if wanted is not None and len(wanted) != len(cells):
        misses.append(f"{len(cells)} cells, recorded {len(wanted)}")
        wanted = None
    for i, cell in enumerate(cells):
        cell_misses = _cell_misses(cell, None if wanted is None else wanted[i])
        failed += bool(cell_misses)
        failures.extend(cell_misses)
        misses.extend(cell_misses)
    ops = len(cells)
    for check in result["checks"]:
        if check["exit"] != 0:
            ops += 1
            miss = f"psg check {check['policy']}: exited with {check['exit']}"
            failed += 1
            failures.append(miss)
            misses.append(miss)
        for name, ok in check["verdicts"]:
            ops += 1
            if ok:
                continue
            failure = f"psg check {check['policy']}: FAIL {name}"
            failed += 1
            failures.append(failure)
            if not known_false_fail(config, check["policy"], name):
                misses.append(failure)
    return {"ops": ops, "failed": failed, "failures": failures, "misses": misses}
