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

A field that the object's kind does not take is an error, at every level.
For the classic and constant policies ``L`` may be omitted when the problem
declares a Lipschitz bound. The default initial point is the origin, except
for the sqrt example where it is 0.5 (the origin has an empty
subdifferential there). A problem that knows its exact optimum f* (abs,
sqrt-example) is the optimality bracket ``[f*, f*]``; without one (Lasso)
each cell brackets f* by ``[f_low, f_best]`` from its own oracle calls (see
:func:`psg.solver.run`). Each summary cell reports ``optimum_bracket``
({"low", "high"}, or null), ``certificates`` (True iff proven) and
``undecided``.

Trace CSV format: a line ``# {json}`` (the cell's ``policy`` spec,
``iterations``, ``weight_ks``, ``restart_factor`` and ``optimum_bracket``),
then the trace that :func:`psg.solver.run` returns, column for column: the
header
``s,epoch,eta,g_norm,G,f_x,f_best,f_avg_k<k1>,...,bound_family,bound_weak_k<k1>,...``
and one row per iteration; ``epoch`` counts the restarts so far, every number
is written as ``%.17g`` (lossless round-trip), and ``G`` is ``nan`` for
policies that do not track it. :func:`read_trace_csv` returns the same
columns. A cell that stops before its first iteration writes no trace. With
several cells the per-cell file name is derived from ``trace_path`` by
inserting the cell label before the extension. ``psg check`` rebuilds the policy from the first line and runs
the solver's own evaluator (:func:`psg.bounds.evaluate`) on the columns:
every bound column must match bit for bit, and every certificate except
``per_step`` (it needs the iterates) is decided again. When the problem
does not know f*, it takes the first line's bracket, whose ``high`` must
not exceed the final ``f_best``, and its ``low`` on trust.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import bounds as bnd
from .core import InvalidParameterError, NumericError, ProblemInstance
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

# Rows formatted per write by emit_trace_csv: on a 20,000-row trace 512 rows
# write as fast as 1,024 and hold half as many Python floats at once
CSV_CHUNK_ROWS = 512


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


# The fields each kind of problem and policy object accepts besides "kind".
PROBLEM_FIELDS = {"abs": {"dim"}, "sqrt-example": set(), "lasso-file": {"path"},
                  "lasso": {"seed", "n", "m", "radius", "lambda"}}
POLICY_FIELDS = {"family": {"a"}, "nesterov": set(), "classic": {"L"}, "constant": {"L"}}


def _reject_unknown_fields(obj: dict, where: str, fields: set) -> None:
    for key in obj:
        if key != "kind" and key not in fields:
            raise ConfigError(f"{where}.{key}: unknown field")


def _parse_problem(obj) -> ProblemSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("problem: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind not in PROBLEM_FIELDS:
        raise ConfigError(
            f"problem.kind: unknown kind {kind!r}, expected one of {sorted(PROBLEM_FIELDS)}")
    _reject_unknown_fields(obj, "problem", PROBLEM_FIELDS[kind])
    if kind == "abs":
        if "dim" not in obj:
            raise ConfigError("problem.dim: required for kind 'abs'")
        return ProblemSpec(kind=kind, dim=int(obj["dim"]))
    if kind == "sqrt-example":
        return ProblemSpec(kind=kind)
    if kind == "lasso-file":
        if "path" not in obj:
            raise ConfigError("problem.path: required for kind 'lasso-file'")
        return ProblemSpec(kind=kind, path=str(obj["path"]))
    for field_name in ("seed", "n", "m"):
        if field_name not in obj:
            raise ConfigError(f"problem.{field_name}: required for kind 'lasso'")
    return ProblemSpec(
        kind=kind, seed=int(obj["seed"]), n=int(obj["n"]), m=int(obj["m"]),
        radius=float(obj.get("radius", 50.0)), lam=float(obj.get("lambda", 10.0)))


def _parse_policy(obj) -> PolicySpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("policy: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind not in POLICY_FIELDS:
        raise ConfigError(f"policy.kind: unknown kind {kind!r}")
    _reject_unknown_fields(obj, "policy", POLICY_FIELDS[kind])
    if kind == "family":
        return PolicySpec(kind=kind, a=float(obj.get("a", 1.0)))
    if kind == "nesterov":
        return PolicySpec(kind=kind)
    L = obj.get("L")
    return PolicySpec(kind=kind, L=None if L is None else float(L))


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


def _spec_dict(spec) -> dict:
    """The fields of a problem or policy spec that are set, under their config names."""
    return {("lambda" if name == "lam" else name): value
            for name, value in asdict(spec).items() if value is not None}


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready form of a config; parsing it back yields an equal config."""
    mode = config.initial_point[0]
    if mode == "zero":
        initial = "zero"
    elif mode == "random":
        initial = {"random": config.initial_point[1]}
    else:
        initial = list(config.initial_point[1])

    out = {
        "problem": _spec_dict(config.problem),
        "policy": [_spec_dict(p) for p in config.policies],
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
        return make_abs_problem(spec.dim)
    if spec.kind == "sqrt-example":
        return make_sqrt_example()
    if spec.kind == "lasso":
        return make_lasso(spec.seed, spec.n, spec.m, spec.radius, spec.lam)
    return load_lasso_csv(spec.path).to_problem()


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


def emit_trace_csv(trace: dict, path, header: dict) -> None:
    """Write a trace, as :func:`psg.solver.run` returns it, to `path` as CSV.

    The first line is ``# `` and the JSON object `header` (nonfinite numbers
    written as null), the second the column names, then one row per entry
    with every number as ``%.17g``, which round-trips floats and prints
    integers as integers.
    """
    rows = np.column_stack(list(trace.values())) if trace else np.empty((0, 0))
    if not len(rows):
        raise InvalidParameterError("cannot write an empty trace")
    row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + json.dumps(_finite_or_null(header), sort_keys=True, allow_nan=False)
                 + "\n")
        fh.write(",".join(trace) + "\n")
        # np.savetxt's bytes with one % per chunk, not one per row; a chunk
        # at a time keeps few values alive as Python floats
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            chunk = rows[start:start + CSV_CHUNK_ROWS]
            fh.write((row_fmt * len(chunk)) % tuple(chunk.ravel().tolist()))


def read_trace_csv(path) -> tuple:
    """Parse a trace written by :func:`emit_trace_csv`: (header object, columns).

    The columns map each name, in the file's order, to a float array.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("# {"):
            raise InvalidParameterError(f"{path}: first line is not a '# {{...}}' header")
        meta = json.loads(first[2:])
        names = fh.readline().strip().split(",")
        try:
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InvalidParameterError(f"{path}: ragged rows: {exc}") from None
    if rows.shape[1:] != (len(names),) or not len(rows):
        raise InvalidParameterError(f"{path}: expected rows of {len(names)} columns")
    return meta, dict(zip(names, rows.T))


def check_trace(meta: dict, cols: dict, problem: ProblemInstance) -> list:
    """Re-validate a trace; returns (name, passed, detail) triples.

    `meta` and `cols` are as :func:`read_trace_csv` returns them. The
    structural invariants come from the columns; the bounds and the
    certificates from :func:`psg.bounds.evaluate`, as ``psg run`` computes
    them (see the module docstring for what is taken on trust).
    """
    epoch, G, f_best = cols["epoch"], cols["G"], cols["f_best"]
    steps = np.diff(epoch)
    results = [
        ("s_strictly_increasing", bool(np.all(np.diff(cols["s"]) > 0)), ""),
        ("eta_positive", bool(np.all(cols["eta"] > 0)), ""),
        ("epoch_counts_restarts", bool(epoch[0] == 0 and np.all((steps == 0) | (steps == 1))),
         ""),
    ]
    if np.all(np.isnan(G)):
        results.append(("G_nondecreasing", True, "not tracked"))
    else:
        ok = np.all((np.diff(G) >= 0) | (steps != 0))
        results.append(("G_nondecreasing", bool(ok), "within each epoch"))
    rebest = np.minimum.accumulate(cols["f_x"])
    results.append(("f_best_running_min", bool(np.array_equal(rebest, f_best)), ""))

    f_star = problem.known_optimum_value
    recorded = meta["optimum_bracket"]
    if f_star is not None:
        bracket = (f_star, f_star)
    elif recorded is None:
        bracket = (-math.inf, math.inf)
    else:
        bracket = (-math.inf if recorded["low"] is None else recorded["low"],
                   math.inf if recorded["high"] is None else recorded["high"])
        # below the final f_best only when a final zero subgradient, which has
        # no row, found f*; a lower high only makes the verdicts stricter
        results.append(("optimum_bracket_high", bool(bracket[1] <= f_best[-1]),
                        "at most the final f_best"))

    policy = build_policy(_parse_policy(meta["policy"]), problem, int(meta["iterations"]))
    ks = [float(k) for k in meta["weight_ks"]]
    bounds, verdicts, undecided = bnd.evaluate(
        policy, ks, problem.radius_R, problem.lipschitz_L, cols, bracket)
    for label, column in bounds.items():
        name = f"bound_{label}"
        if name in cols:
            results.append((f"{name}_recomputed", bool(np.array_equal(column, cols[name])), ""))
    for label, ok in verdicts.items():
        detail = "" if ok else "undecided" if label in undecided else "refuted"
        results.append((label, ok, detail))
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

    def execute(spec, policy, path):
        solver_config = SolverConfig(
            max_iterations=config.iterations,
            initial_point=resolve_initial_point(config.initial_point, problem),
            policy=policy, weight_ks=config.weight_ks, record_trace=path is not None,
            restart_factor=config.restart_factor)
        try:
            report, trace = run(problem, solver_config)
        except NumericError as exc:
            return {"problem": problem.name, "policy": policy.label,
                    "status": "failed", "error": str(exc)}
        bracket = _bracket_dict(report.optimum_bracket)
        written = trace is not None and report.iterations_run > 0
        if written:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            emit_trace_csv(trace, path, {
                "policy": _spec_dict(spec), "iterations": config.iterations,
                "weight_ks": list(config.weight_ks), "restart_factor": config.restart_factor,
                "optimum_bracket": bracket})
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
                "optimum_bracket": bracket,
                "undecided": report.undecided,
                "trace_path": path if written else None}

    cells = [execute(*cell) for cell in zip(config.policies, policies, paths)]

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
        results = check_trace(*read_trace_csv(args.trace), problem)
    except (OSError, KeyError, ValueError) as exc:  # config and JSON errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    if args.strict and not all(ok for _, ok, _ in results):
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
