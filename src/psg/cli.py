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

A config is a JSON object. :data:`CONFIG_FIELDS` lists its fields, and
:data:`PROBLEM_FIELDS` and :data:`POLICY_FIELDS` the fields of each kind of
``problem`` and ``policy`` object (``policy`` may also be a list of them,
one cell each), each field with its type and default; the README shows an
example. A field that the object's kind does not take is an error, at every
level, and so is a value of the wrong type: counts are integers (``2000.0``
counts), other numbers finite; ``null`` is the same as omitting the field.
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
``iterations``, ``weight_ks``, ``restart_factor``, ``optimum_bracket`` and,
when its minorants gave f_low, ``minorant_sums`` {"g_sum", "c_sum",
"count"}), then the trace that :func:`psg.solver.run` returns, column for
column: the header
``s,epoch,eta,g_norm,G,f_x,f_best,f_avg_k<k1>,...,bound_family,bound_weak_k<k1>,...``
and one row per iteration; ``epoch`` counts the restarts so far, every number
is written as ``%.17g`` (lossless round-trip), and ``G`` is ``nan`` for
policies that do not track it. :func:`read_trace_csv` returns the same
columns. A cell that stops before its first iteration writes no trace. With
several cells the per-cell file name is derived from ``trace_path`` by
inserting the cell label before the extension. ``psg check`` rebuilds the
policy from the first line and runs the solver's own evaluator
(:func:`psg.bounds.evaluate`) on the columns: every bound column must match
bit for bit, and every certificate except ``per_step`` (it needs the
iterates) is decided again. When the problem does not know f*, it takes the
first line's bracket: its ``high`` must not exceed the final ``f_best``, and
its ``low`` must equal ``(c_sum + min_linear(g_sum)) / count`` bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import bounds as bnd
from .core import InvalidParameterError, NumericError, ProblemInstance, scheme_label
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


# What a bad config, problem file, trace or output path raises, a file that
# is not text included; every command reports it as "error: ..." and exits 1
INPUT_ERRORS = (ConfigError, InvalidParameterError, OSError, UnicodeDecodeError)


def _int(value, where: str) -> int:
    # an integral float such as 2000.0 is a count too
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _float(value, where: str) -> float:
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ConfigError(f"{where}: expected a finite number, got {value!r}")


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _numbers(value, where: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a nonempty list of numbers")
    return tuple(_float(v, f"{where}[{i}]") for i, v in enumerate(value))


def _initial_point(value, where: str):
    if value == "zero":
        return value
    if isinstance(value, dict) and set(value) == {"random"}:
        return {"random": _int(value["random"], f"{where}.random")}
    if isinstance(value, list):
        return list(_numbers(value, where))
    raise ConfigError(f"{where}: expected \"zero\", {{\"random\": seed}}, or a list of numbers")


# The fields each kind of problem and policy object takes besides "kind",
# name -> (reader, default): the one place they are listed. REQUIRED marks a
# field without a default; a default of None means "not set".
REQUIRED = object()
PROBLEM_FIELDS = {
    "abs": {"dim": (_int, REQUIRED)},
    "sqrt-example": {},
    "lasso": {"seed": (_int, REQUIRED), "n": (_int, REQUIRED), "m": (_int, REQUIRED),
              "radius": (_float, 50.0), "lambda": (_float, 10.0)},
    "lasso-file": {"path": (_str, REQUIRED)},
}
POLICY_FIELDS = {"family": {"a": (_float, 1.0)}, "nesterov": {},
                 "classic": {"L": (_float, None)}, "constant": {"L": (_float, None)}}


def _read_fields(obj: dict, prefix: str, schema: dict) -> dict:
    """Each field of `schema` read from the object `obj` by its reader; null counts as absent."""
    if not isinstance(obj, dict):
        names = " and ".join(map(repr, schema))
        raise ConfigError(f"{prefix[:-1]}: expected an object with {names}")
    for key in obj:
        if key not in schema:
            raise ConfigError(f"{prefix}{key}: unknown field")
    values = {}
    for name, (read, default) in schema.items():
        if obj.get(name) is not None:
            values[name] = read(obj[name], prefix + name)
        elif default is REQUIRED:
            raise ConfigError(f"{prefix}{name}: required field missing")
        else:
            values[name] = default
    return values


def _spec(kinds: dict, obj, where: str) -> SimpleNamespace:
    """A problem or policy object, read by the row of `kinds` that its kind names."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}, expected one of {sorted(kinds)}")
    fields = {key: value for key, value in obj.items() if key != "kind"}
    return SimpleNamespace(kind=kind, **_read_fields(fields, f"{where}.", kinds[kind]))


def _policies(value, where: str) -> tuple:
    items = [value] if isinstance(value, dict) else value
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{where}: expected a policy object or a nonempty list of them")
    return tuple(_spec(POLICY_FIELDS, item, where) for item in items)


# The top-level fields of a config, as the kinds' fields above.
CONFIG_FIELDS = {
    "problem": (functools.partial(_spec, PROBLEM_FIELDS), REQUIRED),
    "policy": (_policies, REQUIRED),
    "iterations": (_int, REQUIRED),
    "weight_ks": (_numbers, (0.0,)),
    "initial_point": (_initial_point, None),  # the origin, or 0.5 for the sqrt example
    "trace_path": (_str, None),
    "summary_path": (_str, "summary.json"),
    "restart_factor": (_float, None),
}


# The ends of a trace header's optimum_bracket; null is an open end.
BRACKET_FIELDS = {"low": (_float, -math.inf), "high": (_float, math.inf)}
MINORANT_FIELDS = {"g_sum": (_numbers, REQUIRED), "c_sum": (_float, REQUIRED),
                   "count": (_int, REQUIRED)}


def parse_config(data: dict) -> SimpleNamespace:
    """Validate a decoded JSON object into a config, read by :data:`CONFIG_FIELDS`.

    The result has every field, defaults filled in, with ``policy`` as the
    tuple ``policies``. ``problem`` and each policy are namespaces of their
    object's fields (``spec.kind``, ``spec.n``, ...); ``initial_point`` keeps
    the config's own form.
    """
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    fields = _read_fields(data, "", CONFIG_FIELDS)
    if fields["iterations"] < 1:
        raise ConfigError("iterations: must be >= 1")
    if any(k < -1 for k in fields["weight_ks"]):
        raise ConfigError("weight_ks: every k must be >= -1")
    if fields["restart_factor"] is not None and not fields["restart_factor"] > 1:
        raise ConfigError("restart_factor: must exceed 1")
    if fields["initial_point"] is None:
        fields["initial_point"] = [0.5] if fields["problem"].kind == "sqrt-example" else "zero"
    fields["policies"] = fields.pop("policy")
    return SimpleNamespace(**fields)


def _spec_dict(spec: SimpleNamespace) -> dict:
    """The fields of a problem or policy spec that are set, as the config writes them."""
    return {name: value for name, value in vars(spec).items() if value is not None}


def config_to_dict(config: SimpleNamespace) -> dict:
    """JSON-ready form of a config; parsing it back yields an equal config."""
    out = {
        "problem": _spec_dict(config.problem),
        "policy": [_spec_dict(p) for p in config.policies],
        "weight_ks": list(config.weight_ks),
        "iterations": config.iterations,
        "initial_point": config.initial_point,
        "trace_path": config.trace_path,
        "summary_path": config.summary_path,
        "restart_factor": config.restart_factor,
    }
    return {name: value for name, value in out.items() if value is not None}


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def load_config(path) -> SimpleNamespace:
    return parse_config(_load_json(path))


def build_problem(spec: SimpleNamespace) -> ProblemInstance:
    if spec.kind == "abs":
        return make_abs_problem(spec.dim)
    if spec.kind == "sqrt-example":
        return make_sqrt_example()
    if spec.kind == "lasso":
        return make_lasso(spec.seed, spec.n, spec.m, spec.radius, vars(spec)["lambda"])
    return load_lasso_csv(spec.path).to_problem()


def build_policy(spec: SimpleNamespace, problem: ProblemInstance, iterations: int):
    R = problem.radius_R
    if spec.kind == "family":
        return FamilyPolicy(R=R, a=spec.a)
    if spec.kind == "nesterov":
        return NesterovPolicy(R=R)
    L = spec.L if spec.L is not None else problem.lipschitz_L
    if L is None:
        raise ConfigError(
            f"policy.L: required for kind {spec.kind!r} (problem declares no Lipschitz bound)")
    if spec.kind == "classic":
        return ClassicPolicy(R=R, L=L)
    return ConstantPolicy(R=R, L=L, horizon_t=iterations)


def resolve_initial_point(initial, problem: ProblemInstance) -> np.ndarray:
    """The start that a config's ``initial_point``, in its own form, names."""
    if initial == "zero":
        return np.zeros(problem.dimension)
    if isinstance(initial, dict):
        return np.random.default_rng(initial["random"]).standard_normal(problem.dimension)
    point = np.array(initial, dtype=np.float64)
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
        try:
            meta = json.loads(first[2:])
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"{path}: header: {exc}") from None
        names = fh.readline().strip().split(",")
        try:
            with warnings.catch_warnings():  # a file with no rows fails the shape check below
                warnings.simplefilter("ignore", UserWarning)
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
    them (see the module docstring for what is taken on trust). A header
    or a column set that no run writes raises :class:`ConfigError` or
    :class:`InvalidParameterError`.
    """
    policy_spec = _spec(POLICY_FIELDS, meta.get("policy"), "header.policy")
    ks = _numbers(meta.get("weight_ks"), "header.weight_ks")
    missing = [name for name in ("s", "epoch", "eta", "g_norm", "G", "f_x", "f_best",
                                 *(f"f_avg_{scheme_label(k)}" for k in ks)) if name not in cols]
    if missing:
        raise InvalidParameterError(f"trace has no column {', '.join(missing)}")
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
    if f_star is not None:
        bracket = (f_star, f_star)
    elif meta.get("optimum_bracket") is None:
        bracket = (-math.inf, math.inf)
    else:
        ends = _read_fields(meta["optimum_bracket"], "header.optimum_bracket.", BRACKET_FIELDS)
        bracket = (ends["low"], ends["high"])
        # below the final f_best only when a final zero subgradient, which has
        # no row, found f*; a lower high only makes the verdicts stricter
        results.append(("optimum_bracket_high", bool(bracket[1] <= f_best[-1]),
                        "at most the final f_best"))
        low, sums = None, meta.get("minorant_sums")
        if sums is not None:
            sums = _read_fields(sums, "header.minorant_sums.", MINORANT_FIELDS)
            g_sum = np.array(sums["g_sum"])
            if g_sum.shape != (problem.dimension,) or sums["count"] < 1:
                raise ConfigError("header.minorant_sums: g_sum does not fit the problem,"
                                  " or count is not positive")
            low = (sums["c_sum"] + problem.projector.min_linear(g_sum)) / sums["count"]
        results.append(("optimum_bracket_low", low == bracket[0],
                        "no minorant sums" if low is None else "from the minorant sums"))

    policy = build_policy(policy_spec, problem, _int(meta.get("iterations"), "header.iterations"))
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


def run_experiment(config: SimpleNamespace, out_dir: Optional[str] = None) -> dict:
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
        bracket = report.optimum_bracket and dict(zip(("low", "high"), report.optimum_bracket))
        written = trace is not None and report.iterations_run > 0
        if written:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            sums = {} if report.minorant_sums is None else {"minorant_sums": report.minorant_sums}
            emit_trace_csv(trace, path, {
                "policy": _spec_dict(spec), "iterations": config.iterations,
                "weight_ks": list(config.weight_ks), "restart_factor": config.restart_factor,
                "optimum_bracket": bracket, **sums})
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
    except INPUT_ERRORS as exc:
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
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        data = _load_json(args.problem)
        if isinstance(data, dict) and "problem" in data:  # a whole config
            data = data["problem"]
        problem = build_problem(_spec(PROBLEM_FIELDS, data, "problem"))
        results = check_trace(*read_trace_csv(args.trace), problem)
    except INPUT_ERRORS as exc:
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
    p_gen.add_argument("--lambda", dest="lam", type=float,
                       default=PROBLEM_FIELDS["lasso"]["lambda"][1])
    p_gen.add_argument("--radius", type=float, default=PROBLEM_FIELDS["lasso"]["radius"][1])
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
