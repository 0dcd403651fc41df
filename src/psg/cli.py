"""Batch experiment runner and trace tooling.

Subcommands
-----------
``psg run --config cfg.json [--out-dir DIR] [--strict]``
    Run every (problem x policy) cell of a JSON experiment config, write one
    trace per cell (when requested) and a JSON summary.
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

Trace files: the suffix of ``trace_path`` picks the format. A path that
ends in ``.npz`` gets an uncompressed NumPy zip (NEP 1 ``.npy`` entries):
the entry ``header``, a 0-d str array holding the JSON object below, then one
1-D float64 entry per column, in trace order, holding the bits the run
computed. Any other path gets CSV: a line ``# {json}``, the column names and
one row per iteration, every number written as ``%.17g`` (lossless
round-trip). :func:`emit_trace` and :func:`read_trace` pick the format by
the suffix, and ``meta, columns = read_trace(f); emit_trace_csv(columns,
out, meta)`` converts a ``.npz`` trace to the CSV that a ``.csv`` run
writes, byte for byte. The header
object holds the cell's ``policy`` spec, ``iterations``, ``weight_ks``,
``restart_factor``, ``optimum_bracket`` and, when its minorants gave f_low,
``minorant_sums`` {"g_sum", "c_sum", "count"}. The columns are the trace
that :func:`psg.solver.run` returns, column for column:
``s,epoch,eta,g_norm,G,f_x,f_best,f_avg_k<k1>,...,bound_<label1>,...``;
``epoch`` counts the restarts so far, and ``G`` is ``nan`` for policies that
do not track it. The bound columns are the labels of the
bounds the policy claims (:meth:`psg.stepsize.StepSizePolicy.claims`, of
which the base class derives ``bound_labels``): ``family`` and
``weak_k<k>`` per ``k`` for the family rule, ``nesterov`` when the problem
declares a Lipschitz bound, and ``classic`` or ``constant`` when the
policy's ``L`` is the problem's; another ``L`` runs uncertified.
:func:`read_trace` returns the same columns. A cell that stops before
its first iteration writes no trace. One cell writes ``trace_path`` itself;
cell ``i`` of several writes ``<root>__<i>_<label><ext>``, ``trace_path``
with the cell's index and label before its extension, which it keeps
(``.csv`` when it has none). Before the first cell runs, every trace and the
summary are vetted as the files they resolve to: none may be an existing
directory, the problem's input file or another of the run's outputs. ``psg check`` checks the
columns' structure (``eta_positive``: every step is positive and finite),
rebuilds the policy from the first line and runs the solver's own evaluator
(:func:`psg.bounds.evaluate`) on the columns: every bound column must match
bit for bit, and every certificate except ``per_step`` (it needs the
iterates) is decided again. A trace that repeats a column name, or lacks a
column its run writes, ``G`` or a declared ``bound_<label>`` among them, is
an input error. When the problem does not know f*, it takes the
header's bracket: its ``high`` must not exceed the final ``f_best``, and
its ``low`` must equal, bit for bit, the low end that
:func:`psg.bounds.minorant_low` forms from the header's ``minorant_sums``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import zipfile
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import bounds as bnd
from .core import (
    InvalidParameterError,
    NumericError,
    ProblemInstance,
    read_csv,
    repeated_scheme,
    scheme_label,
    write_csv,
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


# What a bad config, problem file, trace or output path raises, a file that
# is not text included; main reports it for every command as "error: ..." and exits 1
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


def _exponents(value, where: str) -> tuple:
    """Weight exponents: a nonempty list of numbers k >= -1, no two of one label."""
    ks = _numbers(value, where)
    if any(k < -1 for k in ks):
        raise ConfigError(f"{where}: every k must be >= -1")
    repeated = repeated_scheme(ks)
    if repeated is not None:
        raise ConfigError(f"{where}: expected distinct exponents, k={repeated:g} repeats")
    return ks


def _initial_point(value, where: str):
    if value == "zero":
        return value
    if isinstance(value, dict) and set(value) == {"random"}:
        seed = _int(value["random"], f"{where}.random")
        if seed < 0:
            raise ConfigError(f"{where}.random: expected a seed >= 0, got {seed}")
        return {"random": seed}
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
    "weight_ks": (_exponents, (0.0,)),
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
    if fields["restart_factor"] is not None and not fields["restart_factor"] > 1:
        raise ConfigError("restart_factor: must exceed 1")
    if fields["initial_point"] is None:
        fields["initial_point"] = [0.5] if fields["problem"].kind == "sqrt-example" else "zero"
    fields["policies"] = fields.pop("policy")
    return SimpleNamespace(**fields)


def _spec_dict(spec: SimpleNamespace) -> dict:
    """The fields of a problem or policy spec that are set, as the config writes them."""
    return {name: value for name, value in vars(spec).items() if value is not None}


def _plain(value):
    """A config value as JSON writes it: a spec as its dict, a tuple as a list."""
    if isinstance(value, SimpleNamespace):
        return _spec_dict(value)
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def config_to_dict(config: SimpleNamespace) -> dict:
    """JSON-ready form of a config, field by field of :data:`CONFIG_FIELDS`.

    Parsing it back yields an equal config.
    """
    fields = vars(config) | {"policy": config.policies}
    return {name: _plain(fields[name]) for name in CONFIG_FIELDS if fields[name] is not None}


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


def build_policy(spec: SimpleNamespace, problem: ProblemInstance, iterations: int, where: str):
    """The policy of `spec`; `where` names the spec's field in an error ("policy")."""
    R = problem.radius_R
    if spec.kind == "family":
        return FamilyPolicy(R=R, a=spec.a)
    if spec.kind == "nesterov":
        return NesterovPolicy(R=R)
    L = spec.L if spec.L is not None else problem.lipschitz_L
    if L is None:
        raise ConfigError(
            f"{where}.L: required for kind {spec.kind!r} (problem declares no Lipschitz bound)")
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


def _header_json(trace: dict, header: dict) -> str:
    """The JSON text of a trace's `header`, nonfinite numbers as null; an empty trace fails."""
    if not trace or not len(next(iter(trace.values()))):
        raise InvalidParameterError("cannot write an empty trace")
    return json.dumps(_finite_or_null(header), sort_keys=True, allow_nan=False)


def _header_object(path, text: str) -> dict:
    try:
        meta = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"{path}: header: {exc}") from None
    if not isinstance(meta, dict):
        raise InvalidParameterError(f"{path}: header: expected a JSON object")
    return meta


def _column_dict(path, names: list, columns: list) -> dict:
    """Each name to its column, in the file's order; a name that repeats is an input error."""
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise InvalidParameterError(f"{path}: column {repeated[0]} repeats")
    return dict(zip(names, columns))


def emit_trace_csv(trace: dict, path, header: dict) -> None:
    """Write a trace, as :func:`psg.solver.run` returns it, to `path` as CSV.

    The first line is ``# `` and the JSON object `header` (nonfinite numbers
    written as null), then the columns in the layout of
    :func:`psg.core.write_csv`: their names, then one row per entry with
    every number as ``%.17g``.
    """
    write_csv(path, "# " + _header_json(trace, header), trace)


def read_trace_csv(path) -> tuple:
    """Parse a trace written by :func:`emit_trace_csv`: (header object, columns).

    The columns map each name, in the file's order, to a float array; a
    name that repeats is an input error.
    """
    first, names, rows = read_csv(path, "# {")
    meta = _header_object(path, first[2:])
    if rows.shape[1:] != (len(names),) or not len(rows):
        raise InvalidParameterError(f"{path}: expected rows of {len(names)} columns")
    return meta, _column_dict(path, names, list(rows.T))


def emit_trace(trace: dict, path, header: dict) -> None:
    """Write a trace to `path`: a NumPy zip if `path` ends in ``.npz``, else CSV.

    The zip, uncompressed and byte-deterministic, holds the entry ``header``
    (a 0-d str array, the JSON text of :func:`emit_trace_csv`'s first line)
    and then each column as a 1-D float64 entry, in the trace's order.
    """
    if not str(path).endswith(".npz"):
        return emit_trace_csv(trace, path, header)
    text = _header_json(trace, header)
    columns = {name: np.asarray(col, dtype=np.float64) for name, col in trace.items()}
    if len({col.shape for col in columns.values()}) > 1 or next(iter(columns.values())).ndim != 1:
        raise InvalidParameterError("columns differ in length or are not 1-D")
    with open(path, "wb") as fh:  # every zip entry is dated 1980-01-01
        np.savez(fh, header=np.array(text), **columns)


def read_trace(path) -> tuple:
    """Read a trace that :func:`emit_trace` wrote: (header object, columns).

    A path ending in ``.npz`` is read as the NumPy zip, any other by
    :func:`read_trace_csv`; both give the header object and the columns'
    bits that were written. A file that is not such a zip, a missing or
    malformed ``header``, an entry that is not a 1-D float64 array, columns
    of unequal length or no rows, and a repeated name are input errors
    naming `path`.
    """
    if not str(path).endswith(".npz"):
        return read_trace_csv(path)
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as npz:
            names = npz.files
            entries = [npz[name] for name in names]  # a member that is not .npy reads as bytes
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise InvalidParameterError(f"{path}: not a NumPy zip of arrays ({exc})") from None
    header = entries.pop(names.index("header")) if names.count("header") == 1 else None
    names = [name for name in names if name != "header"]
    if not (isinstance(header, np.ndarray) and header.shape == () and header.dtype.kind == "U"):
        raise InvalidParameterError(f"{path}: expected one entry header, a 0-d str array")
    for name, col in zip(names, entries):
        if not (isinstance(col, np.ndarray) and col.dtype == np.float64 and col.ndim == 1):
            raise InvalidParameterError(f"{path}: entry {name} is not a 1-D float64 array")
    if len({len(col) for col in entries}) != 1 or not len(entries[0]):
        raise InvalidParameterError(f"{path}: expected columns of one length, with rows")
    return _header_object(path, header.item()), _column_dict(path, names, entries)


def check_trace(meta: dict, cols: dict, problem: ProblemInstance) -> list:
    """Re-validate a trace; returns (name, passed, detail) triples.

    `meta` and `cols` are as :func:`read_trace` returns them. The
    structural invariants come from the columns; the bounds and the
    certificates from :func:`psg.bounds.evaluate`, as ``psg run`` computes
    them (see the module docstring for what is taken on trust). A header
    or a column set that no run writes raises :class:`ConfigError` or
    :class:`InvalidParameterError`.
    """
    policy = build_policy(_spec(POLICY_FIELDS, meta.get("policy"), "header.policy"), problem,
                          _int(meta.get("iterations"), "header.iterations"), "header.policy")
    ks = _exponents(meta.get("weight_ks"), "header.weight_ks")
    L = problem.lipschitz_L
    missing = [name for name in ("s", "epoch", "eta", "g_norm", "G", "f_x", "f_best",
                                 *(f"f_avg_{scheme_label(k)}" for k in ks),
                                 *(f"bound_{label}" for label in policy.bound_labels(ks, L)))
               if name not in cols]
    if missing:
        raise InvalidParameterError(f"trace has no column {', '.join(missing)}")
    epoch, G, f_best = cols["epoch"], cols["G"], cols["f_best"]
    # each whole-length temporary dies with its check, before evaluate builds its own
    results = [
        ("s_strictly_increasing", bool(np.all(np.diff(cols["s"]) > 0)), ""),
        ("eta_positive", bool(np.all((cols["eta"] > 0) & (cols["eta"] < math.inf))), ""),
        ("epoch_counts_restarts",
         bool(epoch[0] == 0 and np.all(np.isin(np.diff(epoch), (0.0, 1.0)))), ""),
    ]
    if np.all(np.isnan(G)):
        results.append(("G_nondecreasing", True, "not tracked"))
    else:
        ok = np.all((np.diff(G) >= 0) | (np.diff(epoch) != 0))
        results.append(("G_nondecreasing", bool(ok), "within each epoch"))
    rebest_ok = np.array_equal(np.minimum.accumulate(cols["f_x"]), f_best)
    results.append(("f_best_running_min", bool(rebest_ok), ""))

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
            if len(sums["g_sum"]) != problem.dimension or sums["count"] < 1:
                raise ConfigError("header.minorant_sums: g_sum does not fit the problem,"
                                  " or count is not positive")
            low = bnd.minorant_low(sums, problem.projector.min_linear)
        results.append(("optimum_bracket_low", low == bracket[0],
                        "no minorant sums" if low is None else "from the minorant sums"))

    bounds, verdicts, undecided = bnd.evaluate(policy, ks, problem.radius_R, L, cols, bracket)
    for label, column in bounds.items():
        name = f"bound_{label}"
        results.append((f"{name}_recomputed", bool(np.array_equal(column, cols[name])), ""))
    for label, ok in verdicts.items():
        detail = "" if ok else "undecided" if label in undecided else "refuted"
        results.append((label, ok, detail))
    return results


def _output_paths(config: SimpleNamespace, policies: list, out_dir: Optional[str]) -> tuple:
    """Each cell's trace file (or None) and the summary file, under `out_dir`.

    One cell writes ``trace_path`` itself; several write ``trace_path`` with
    ``__<i>_<label>`` before its extension (``.csv`` when it has none). A
    name that is not a file's, an existing directory, two outputs that are
    one file and an output that is the problem's input file are config
    errors, raised before anything is written.
    """
    for name in ("trace_path", "summary_path"):
        path = getattr(config, name)
        if path is not None and os.path.basename(path) in ("", ".", ".."):
            raise ConfigError(f"{name}: expected a file name, got {path!r}")
    trace = config.trace_path and os.path.join(out_dir or "", config.trace_path)
    root, ext = os.path.splitext(trace or "")
    traces = [trace if len(policies) == 1 or not trace else f"{root}__{i}_{p.label}{ext or '.csv'}"
              for i, p in enumerate(policies)]
    summary = os.path.join(out_dir or "", config.summary_path)
    # each file's real path -> (what it is, what would overwrite it); the
    # summary goes first, as it is written last
    owners = {}
    if config.problem.kind == "lasso-file":
        owners[os.path.realpath(config.problem.path)] = ("problem's input file", "the run")
    for where, path, writer in [("summary_path", summary, "the summary")] + [
            ("trace_path" if len(traces) == 1 else f"trace_path ({path})", path, "a trace")
            for path in traces if path]:
        if os.path.isdir(path):
            raise ConfigError(f"{where}: {path} is a directory")
        owner = owners.setdefault(os.path.realpath(path), (where, writer))
        if owner != (where, writer):
            raise ConfigError(f"{where}: is the {owner[0]}; {owner[1]} would overwrite it")
    return traces, summary


def _finite_or_null(obj):
    """`obj` with every nonfinite float replaced by None, for strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


# The fields of a run's report that a summary cell holds as they are
REPORT_FIELDS = ("iterations_run", "best_value", "best_index", "averaged_values", "max_g_norm",
                 "bounds", "certificates", "undecided")


def run_experiment(config: SimpleNamespace, out_dir: Optional[str] = None) -> dict:
    """Execute all cells of `config` and return the summary dict.

    The summary is also written to ``config.summary_path`` as strict JSON:
    nonfinite floats (such as the best value of a run that stopped before
    its first step) are written, and returned, as null. Relative output
    paths are resolved under `out_dir` (default: current directory), and
    an output path that cannot hold its file is a :class:`ConfigError`
    before the first cell runs. A numeric failure marks its cell as failed
    without affecting the others.
    """
    problem = build_problem(config.problem)
    policies = [build_policy(spec, problem, config.iterations, "policy")
                for spec in config.policies]
    paths, summary_path = _output_paths(config, policies, out_dir)
    x0 = resolve_initial_point(config.initial_point, problem)  # run never changes it

    def execute(spec, policy, path):
        cell = {"problem": problem.name, "policy": policy.label}
        solver_config = SolverConfig(
            max_iterations=config.iterations, initial_point=x0,
            policy=policy, weight_ks=config.weight_ks, record_trace=path is not None,
            restart_factor=config.restart_factor)
        try:
            report, trace = run(problem, solver_config)
        except NumericError as exc:
            return cell | {"status": "failed", "error": str(exc)}
        bracket = report.optimum_bracket and dict(zip(("low", "high"), report.optimum_bracket))
        written = trace is not None and report.iterations_run > 0
        if written:
            # the parent as written: in "sub/../t.csv" sub must exist, abspath would drop it
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            sums = {} if report.minorant_sums is None else {"minorant_sums": report.minorant_sums}
            emit_trace(trace, path, {
                "policy": _spec_dict(spec), "iterations": config.iterations,
                "weight_ks": list(config.weight_ks), "restart_factor": config.restart_factor,
                "optimum_bracket": bracket, **sums})
        return cell | {name: getattr(report, name) for name in REPORT_FIELDS} | {
            "status": "ok", "error": None, "stop_reason": report.stop_reason.value,
            "optimum_bracket": bracket, "trace_path": path if written else None}

    cells = [execute(*cell) for cell in zip(config.policies, policies, paths)]

    summary = _finite_or_null({"config": config_to_dict(config), "cells": cells})
    os.makedirs(os.path.dirname(summary_path) or ".", exist_ok=True)
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return summary


def _cmd_run(args) -> int:
    summary = run_experiment(load_config(args.config), out_dir=args.out_dir)
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
    save_lasso_csv(generate_lasso(args.seed, args.n, args.m, args.radius, args.lam), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    data = _load_json(args.problem)
    if isinstance(data, dict) and "problem" in data:  # a whole config
        data = data["problem"]
    problem = build_problem(_spec(PROBLEM_FIELDS, data, "problem"))
    results = check_trace(*read_trace(args.trace), problem)
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
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
