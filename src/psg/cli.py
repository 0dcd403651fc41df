"""Batch experiment runner and trace tooling.

Subcommands
-----------
``psg run --config cfg.json [--out-dir DIR] [--strict]``
    Run every (problem x policy) cell of a JSON experiment config, write one
    CSV trace per cell (when requested) and a JSON summary.
``psg gen-lasso --seed S --n N --m M --out FILE [--lambda L] [--radius R]``
    Write a synthetic Lasso instance to CSV for cross-run reuse.
``psg check --trace FILE --problem FILE [--strict]``
    Re-validate the invariants and certificates of a stored trace.

Exit codes: 0 success, 1 config or I/O error, 2 numeric failure inside a
run, 3 a certificate not proven (only with ``--strict``).

Config schema (JSON object)::

    {
      "problem":        {"kind": "abs", "dim": 1}
                      | {"kind": "sqrt-example"}
                      | {"kind": "lasso", "seed": 1, "n": 64, "m": 40,
                         "radius": 50.0, "lambda": 10.0}
                      | {"kind": "lasso-file", "path": "instance.csv"},
      "policy":         one of, or a list of,
                        {"kind": "family", "a": 1.0}
                      | {"kind": "nesterov"}
                      | {"kind": "classic", "L": 1.0}
                      | {"kind": "constant", "L": 1.0},
      "weight_ks":      [0.0, 2.0],          # optional, default [0.0]
      "iterations":     2000,
      "initial_point":  "zero" | {"random": 7} | [0.5, ...],   # optional
      "trace_path":     "traces/run.csv",    # optional; omitted = no traces
      "summary_path":   "summary.json",      # optional, this is the default
      "restart_factor": 10.0                 # optional, default off
    }

For the classic and constant policies ``L`` may be omitted when the problem
declares a Lipschitz bound. The default initial point is the origin, except
for the sqrt example where it is 0.5 (the origin has an empty
subdifferential there). Problems without a known optimum (Lasso) check
their gap certificates against the bracket ``[f_low, f_best]`` that each
cell forms from its own oracle calls (see :func:`psg.solver.run`); a
problem's ``f_star`` is the bracket ``[f_star, f_star]``. Each summary cell
reports the bracket as ``optimum_bracket`` ({"low", "high"}, or null) and
the certificates neither proven nor refuted as ``undecided``;
``certificates`` maps each certificate to True iff it was proven.

Trace CSV format: header
``s,eta,g_norm,G,f_x,f_best,f_avg_k<k1>,...,bound_family,bound_weak_k<k1>,...``
followed by one row per iteration, floats printed with 17 significant
digits (lossless round-trip), ``G`` is ``nan`` for policies that do not
track it. With several cells the per-cell file name is derived from
``trace_path`` by inserting the cell label before the extension.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds as bnd
from .averaging import WeightRule
from .core import (
    InvalidParameterError,
    NumericError,
    ProblemInstance,
    leq_with_tol,
    scheme_label,
    with_reference_optimum,
)
from .problems import (
    load_lasso_csv,
    make_abs_problem,
    make_lasso,
    make_sqrt_example,
    save_lasso_csv,
    generate_lasso,
)
from .solver import SolverConfig, run
from .stepsize import ClassicPolicy, ConstantPolicy, FamilyPolicy, NesterovPolicy

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_CERTIFICATE = 3


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    dim: Optional[int] = None
    seed: Optional[int] = None
    n: Optional[int] = None
    m: Optional[int] = None
    radius: Optional[float] = None
    lam: Optional[float] = None
    path: Optional[str] = None
    f_star: Optional[float] = None


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    a: Optional[float] = None
    L: Optional[float] = None


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    policies: tuple
    iterations: int
    weight_ks: tuple = (0.0,)
    initial_point: tuple = ("zero",)
    trace_path: Optional[str] = None
    summary_path: str = "summary.json"
    restart_factor: Optional[float] = None


def _parse_problem(obj) -> ProblemSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("problem: expected an object with a 'kind' field")
    kind = obj["kind"]
    known = {"abs", "sqrt-example", "lasso", "lasso-file"}
    if kind not in known:
        raise ConfigError(f"problem.kind: unknown kind {kind!r}, expected one of {sorted(known)}")
    f_star = None if obj.get("f_star") is None else float(obj["f_star"])
    if kind == "abs":
        if "dim" not in obj:
            raise ConfigError("problem.dim: required for kind 'abs'")
        return ProblemSpec(kind=kind, dim=int(obj["dim"]), f_star=f_star)
    if kind == "sqrt-example":
        return ProblemSpec(kind=kind, f_star=f_star)
    if kind == "lasso-file":
        if "path" not in obj:
            raise ConfigError("problem.path: required for kind 'lasso-file'")
        return ProblemSpec(kind=kind, path=str(obj["path"]), f_star=f_star)
    for field_name in ("seed", "n", "m"):
        if field_name not in obj:
            raise ConfigError(f"problem.{field_name}: required for kind 'lasso'")
    return ProblemSpec(
        kind=kind, seed=int(obj["seed"]), n=int(obj["n"]), m=int(obj["m"]),
        radius=float(obj.get("radius", 50.0)), lam=float(obj.get("lambda", 10.0)),
        f_star=f_star)


def _parse_policy(obj) -> PolicySpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("policy: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "family":
        return PolicySpec(kind=kind, a=float(obj.get("a", 1.0)))
    if kind == "nesterov":
        return PolicySpec(kind=kind)
    if kind in ("classic", "constant"):
        L = obj.get("L")
        return PolicySpec(kind=kind, L=None if L is None else float(L))
    raise ConfigError(f"policy.kind: unknown kind {kind!r}")


def _parse_initial_point(obj, problem: ProblemSpec) -> tuple:
    if obj is None:
        if problem.kind == "sqrt-example":
            return ("explicit", (0.5,))
        return ("zero",)
    if obj == "zero":
        return ("zero",)
    if isinstance(obj, dict) and set(obj) == {"random"}:
        return ("random", int(obj["random"]))
    if isinstance(obj, list):
        try:
            return ("explicit", tuple(float(v) for v in obj))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"initial_point: non-numeric entry ({exc})") from None
    raise ConfigError(
        "initial_point: expected \"zero\", {\"random\": seed}, or a list of numbers")


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a decoded JSON object into an :class:`ExperimentConfig`."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    known = {"problem", "policy", "weight_ks", "iterations", "initial_point",
             "trace_path", "summary_path", "restart_factor"}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")
    for required in ("problem", "policy", "iterations"):
        if required not in data:
            raise ConfigError(f"{required}: required field missing")

    problem = _parse_problem(data["problem"])
    raw_policy = data["policy"]
    if isinstance(raw_policy, dict):
        raw_policy = [raw_policy]
    if not isinstance(raw_policy, list) or not raw_policy:
        raise ConfigError("policy: expected a policy object or a nonempty list of them")
    policies = tuple(_parse_policy(p) for p in raw_policy)

    iterations = int(data["iterations"])
    if iterations < 1:
        raise ConfigError("iterations: must be >= 1")

    ks = data.get("weight_ks", [0.0])
    if not isinstance(ks, list) or not ks:
        raise ConfigError("weight_ks: expected a nonempty list of numbers")
    weight_ks = tuple(float(k) for k in ks)
    if any(k < -1 for k in weight_ks):
        raise ConfigError("weight_ks: every k must be >= -1")

    restart = data.get("restart_factor")
    if restart is not None:
        restart = float(restart)
        if not restart > 1:
            raise ConfigError("restart_factor: must exceed 1")

    return ExperimentConfig(
        problem=problem,
        policies=policies,
        iterations=iterations,
        weight_ks=weight_ks,
        initial_point=_parse_initial_point(data.get("initial_point"), problem),
        trace_path=data.get("trace_path"),
        summary_path=data.get("summary_path", "summary.json"),
        restart_factor=restart,
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready form of a config; parsing it back yields an equal config."""
    problem: dict = {"kind": config.problem.kind}
    if config.problem.kind == "abs":
        problem["dim"] = config.problem.dim
    elif config.problem.kind == "lasso":
        problem.update(seed=config.problem.seed, n=config.problem.n, m=config.problem.m)
        problem["radius"] = config.problem.radius
        problem["lambda"] = config.problem.lam
    elif config.problem.kind == "lasso-file":
        problem["path"] = config.problem.path
    if config.problem.f_star is not None:
        problem["f_star"] = config.problem.f_star

    policies = []
    for p in config.policies:
        entry = {"kind": p.kind}
        if p.a is not None:
            entry["a"] = p.a
        if p.L is not None:
            entry["L"] = p.L
        policies.append(entry)

    mode = config.initial_point[0]
    if mode == "zero":
        initial = "zero"
    elif mode == "random":
        initial = {"random": config.initial_point[1]}
    else:
        initial = list(config.initial_point[1])

    out = {
        "problem": problem,
        "policy": policies,
        "weight_ks": list(config.weight_ks),
        "iterations": config.iterations,
        "initial_point": initial,
        "summary_path": config.summary_path,
    }
    if config.trace_path is not None:
        out["trace_path"] = config.trace_path
    if config.restart_factor is not None:
        out["restart_factor"] = config.restart_factor
    return out


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return parse_config(data)


def build_problem(spec: ProblemSpec) -> ProblemInstance:
    if spec.kind == "abs":
        problem = make_abs_problem(spec.dim)
    elif spec.kind == "sqrt-example":
        problem = make_sqrt_example()
    elif spec.kind == "lasso":
        problem = make_lasso(spec.seed, spec.n, spec.m, spec.radius, spec.lam)
    else:
        problem = load_lasso_csv(spec.path).to_problem()
    if spec.f_star is not None:
        problem = with_reference_optimum(problem, spec.f_star)
    return problem


def build_policy(spec: PolicySpec, problem: ProblemInstance, iterations: int):
    R = problem.radius_R
    if spec.kind == "family":
        return FamilyPolicy(R=R, a=spec.a if spec.a is not None else 1.0)
    if spec.kind == "nesterov":
        return NesterovPolicy(R=R)
    L = spec.L if spec.L is not None else problem.lipschitz_L
    if L is None:
        raise ConfigError(
            f"policy.L: required for kind {spec.kind!r} (problem declares no Lipschitz bound)")
    if spec.kind == "classic":
        return ClassicPolicy(R=R, L=L)
    return ConstantPolicy(R=R, L=L, horizon_t=iterations)


def resolve_initial_point(initial: tuple, problem: ProblemInstance) -> np.ndarray:
    mode = initial[0]
    if mode == "zero":
        return np.zeros(problem.dimension)
    if mode == "random":
        return np.random.default_rng(initial[1]).standard_normal(problem.dimension)
    point = np.asarray(initial[1], dtype=np.float64)
    if point.shape != (problem.dimension,):
        raise ConfigError(
            f"initial_point: has dimension {point.shape[0]}, problem needs {problem.dimension}")
    return point


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def emit_trace_csv(trace, path) -> None:
    """Write a solver trace to `path` in the documented CSV format."""
    if not trace:
        raise InvalidParameterError("cannot write an empty trace")
    avg_labels = list(trace[0].averaged_values)
    weak_labels = [lbl for lbl in trace[0].bounds if lbl.startswith("weak_")]
    header = (["s", "eta", "g_norm", "G", "f_x", "f_best"]
              + [f"f_avg_{lbl}" for lbl in avg_labels]
              + ["bound_family"]
              + [f"bound_{lbl}" for lbl in weak_labels])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for rec in trace:
            row = [str(rec.s), _fmt(rec.eta), _fmt(rec.g_norm),
                   "nan" if rec.big_G is None else _fmt(rec.big_G),
                   _fmt(rec.f_x), _fmt(rec.f_best)]
            row.extend(_fmt(rec.averaged_values[lbl]) for lbl in avg_labels)
            row.append(_fmt(rec.bounds["family"]))
            row.extend(_fmt(rec.bounds[lbl]) for lbl in weak_labels)
            fh.write(",".join(row) + "\n")


@dataclass
class TraceTable:
    """Parsed trace CSV: column arrays plus the averaging exponents found."""

    columns: dict
    ks: list

    @property
    def length(self) -> int:
        return len(self.columns["s"])


def read_trace_csv(path) -> TraceTable:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if any(len(r) != len(header) for r in rows):
        raise InvalidParameterError(f"{path}: ragged rows")
    columns = {}
    for j, name in enumerate(header):
        vals = [r[j] for r in rows]
        if name == "s":
            columns[name] = np.array([int(v) for v in vals])
        else:
            columns[name] = np.array([float(v) for v in vals])
    ks = [float(name[len("f_avg_k"):]) for name in header if name.startswith("f_avg_k")]
    return TraceTable(columns=columns, ks=ks)


def check_trace(table: TraceTable, problem: ProblemInstance) -> list:
    """Re-validate a stored trace; returns (name, passed, detail) triples.

    Structural invariants are recomputed from scratch (iteration counter,
    best-value monotonicity, G monotonicity, bound columns from the stored
    subgradient norms); gap certificates are evaluated when the problem
    carries a known or reference optimum. Assumes a trace produced without
    restarts, which is the default.
    """
    cols = table.columns
    results = []
    s = cols["s"]
    results.append(("s_strictly_increasing", bool(np.all(np.diff(s) > 0)), ""))
    results.append(("eta_positive", bool(np.all(cols["eta"] > 0)), ""))
    g_col = cols["G"]
    if np.all(np.isnan(g_col)):
        results.append(("G_nondecreasing", True, "not tracked"))
    else:
        results.append(("G_nondecreasing", bool(np.all(np.diff(g_col) >= 0)), ""))
    rebest = np.minimum.accumulate(cols["f_x"])
    results.append(("f_best_running_min", bool(np.array_equal(rebest, cols["f_best"])), ""))

    for k in table.ks:
        ratios = (WeightRule(k)(s, cols["eta"]) / cols["eta"]).tolist()
        ok = all(leq_with_tol(a, b) for a, b in zip(ratios[:-1], ratios[1:]))
        results.append((f"weight_step_ratio_nondecreasing_k{k:g}", ok, ""))

    R = problem.radius_R
    cummax_g = np.maximum.accumulate(cols["g_norm"])
    refam = np.array([bnd.family_bound(R, int(si), float(mg))
                      for si, mg in zip(s, cummax_g)])
    ok = np.allclose(refam, cols["bound_family"], rtol=1e-12, atol=0)
    results.append(("bound_family_recomputed", bool(ok), ""))

    for k in table.ks:
        name = f"bound_{bnd.weak_label(k)}"
        if name not in cols:
            continue
        sums = bnd.WeakBoundSums(k)
        recomputed = np.empty(table.length)
        for i in range(table.length):
            sums.push()
            recomputed[i] = sums.bound(R, float(cummax_g[i]))
        ok = np.allclose(recomputed, cols[name], rtol=1e-12, atol=0)
        results.append((f"{name}_recomputed", bool(ok), ""))

    f_star = problem.known_optimum_value
    if f_star is None:
        results.append(("gap_certificates", True, "skipped: no known optimum"))
        return results
    for k in table.ks:
        avg = cols[f"f_avg_{scheme_label(k)}"]
        weak = cols[f"bound_{bnd.weak_label(k)}"]
        ok = all(bnd.check_certificate(float(a) - f_star, float(b))
                 for a, b in zip(avg, weak))
        results.append((f"certificate_{bnd.weak_label(k)}", ok, ""))
        if k == 0.0:
            ok = all(bnd.check_certificate(float(a) - f_star, float(b))
                     for a, b in zip(avg, cols["bound_family"]))
            results.append(("certificate_family", ok, ""))
    return results


def _cell_label(policy, index: int, total: int) -> str:
    return policy.label if total == 1 else f"{index}_{policy.label}"


def _trace_path_for(base: Optional[str], label: str, single: bool) -> Optional[str]:
    if base is None:
        return None
    if single:
        return base
    root, ext = os.path.splitext(base)
    return f"{root}__{label}{ext or '.csv'}"


def _finite_or_null(obj):
    """`obj` with every nonfinite float replaced by None, for strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _bracket_dict(bracket):
    return None if bracket is None else {"low": bracket[0], "high": bracket[1]}


def _run_cell(problem, policy, config: ExperimentConfig, trace_path: Optional[str]):
    solver_config = SolverConfig(
        max_iterations=config.iterations,
        initial_point=resolve_initial_point(config.initial_point, problem),
        policy=policy,
        weight_ks=config.weight_ks,
        record_trace=trace_path is not None,
        restart_factor=config.restart_factor,
    )
    report, trace = run(problem, solver_config)
    if trace_path is not None and trace:
        os.makedirs(os.path.dirname(os.path.abspath(trace_path)), exist_ok=True)
        emit_trace_csv(trace, trace_path)
    else:
        trace_path = None
    return report, trace_path


def run_experiment(config: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Execute all cells of `config` and return the summary dict.

    The summary is also written to ``config.summary_path`` as strict JSON:
    nonfinite floats (such as the best value of a run that stopped before
    its first step) are written, and returned, as null. Relative output
    paths are resolved under `out_dir` (default: current directory). A
    numeric failure marks its cell as failed without affecting the others.
    """
    problem = build_problem(config.problem)
    policies = [build_policy(spec, problem, config.iterations) for spec in config.policies]

    def resolve(path):
        if path is None:
            return None
        if os.path.isabs(path) or out_dir is None:
            return path
        return os.path.join(out_dir, path)

    single = len(policies) == 1
    labels = [_cell_label(p, i, len(policies)) for i, p in enumerate(policies)]
    paths = [resolve(_trace_path_for(config.trace_path, lbl, single)) for lbl in labels]

    def execute(policy, path):
        try:
            report, written = _run_cell(problem, policy, config, path)
            return {"problem": problem.name, "policy": policy.label,
                    "status": "ok", "error": None,
                    "iterations_run": report.iterations_run,
                    "stop_reason": report.stop_reason.value,
                    "best_value": report.best_value,
                    "best_index": report.best_index,
                    "averaged_values": report.averaged_values,
                    "max_g_norm": report.max_g_norm,
                    "bounds": report.bounds,
                    "certificates": report.certificates,
                    "optimum_is_reference": report.optimum_is_reference,
                    "optimum_bracket": _bracket_dict(report.optimum_bracket),
                    "undecided": report.undecided,
                    "trace_path": written}
        except NumericError as exc:
            return {"problem": problem.name, "policy": policy.label,
                    "status": "failed", "error": str(exc)}

    cells = [execute(policy, path) for policy, path in zip(policies, paths)]

    summary = _finite_or_null({"config": config_to_dict(config), "cells": cells})
    summary_path = resolve(config.summary_path)
    parent = os.path.dirname(os.path.abspath(summary_path))
    os.makedirs(parent, exist_ok=True)
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return summary


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        summary = run_experiment(config, out_dir=args.out_dir)
    except (ConfigError, InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    failed = [c for c in summary["cells"] if c["status"] != "ok"]
    for cell in failed:
        print(f"cell {cell['policy']}: {cell['error']}", file=sys.stderr)
    if failed:
        return EXIT_NUMERIC
    if args.strict:
        unproven = [(c["policy"], name, "undecided" if name in c["undecided"] else "refuted")
                    for c in summary["cells"]
                    for name, ok in c["certificates"].items() if not ok]
        for policy, name, verdict in unproven:
            print(f"certificate {verdict}: {policy}: {name}", file=sys.stderr)
        if unproven:
            return EXIT_CERTIFICATE
    return EXIT_OK


def _cmd_gen_lasso(args) -> int:
    try:
        instance = generate_lasso(args.seed, args.n, args.m, args.radius, args.lam)
        save_lasso_csv(instance, args.out)
    except (InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        spec = _parse_problem(data["problem"] if "problem" in data else data)
        problem = build_problem(spec)
        table = read_trace_csv(args.trace)
        results = check_trace(table, problem)
    except (OSError, KeyError, ValueError) as exc:  # config and JSON errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    bad = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
        bad += not ok
    if bad and args.strict:
        return EXIT_CERTIFICATE
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="psg", description="Projected subgradient benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--strict", action="store_true",
                       help="exit 3 when any certificate is refuted or undecided")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-lasso", help="write a synthetic lasso instance CSV")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--lambda", dest="lam", type=float, default=10.0)
    p_gen.add_argument("--radius", type=float, default=50.0)
    p_gen.set_defaults(func=_cmd_gen_lasso)

    p_check = sub.add_parser("check", help="re-validate a stored trace")
    p_check.add_argument("--trace", required=True)
    p_check.add_argument("--problem", required=True,
                         help="JSON file with the problem block of the config")
    p_check.add_argument("--strict", action="store_true",
                         help="exit 3 when any validation fails")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
