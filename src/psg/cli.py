"""Batch experiment runner and trace tooling.

Subcommands
-----------
``psg run --config cfg.json [--out-dir DIR] [--strict]``
    Run every (problem x policy) cell of a JSON experiment config, write one
    trace per cell (when the config has a ``trace_path``) and a JSON summary.
``psg check --trace FILE --problem FILE [--strict]``
    Re-validate the invariants and certificates of a stored trace; FILE
    holds the trace's problem spec, alone or as the ``problem`` of a config.

Exit codes: 0 success, 1 config or I/O error, 2 numeric failure inside a
run, 3 a certificate not proven (only with ``--strict``). :func:`main`
builds its parser once per process, so a process that calls it for many
commands (a benchmark's check loop, a test suite) parses each as a fresh
``psg`` process would.

A config is a JSON object. :data:`CONFIG_FIELDS` lists its fields, each
with its type and default, and :data:`PROBLEM_KINDS` and
:data:`POLICY_KINDS` hold one row per kind of ``problem`` and ``policy``
object (``policy`` may also be a list of them, one cell each): the kind's
fields, read the same way, and the builder that turns them into the problem
or the policy; the README shows an example. A field that the object's kind
does not take is an error, at every level, and so is a value of the wrong
type: counts are integers (``2000.0`` counts), other numbers finite;
``null`` is the same as omitting the field. For the classic and constant
policies ``L`` may be omitted when the problem declares a Lipschitz bound.
A value that the step rule rejects, such as a family ``a`` of 2, is an
error that names the policy object (``policy: a must lie in [0, 1], got
2.0``). The default initial point is the origin, except for the sqrt
example where it is 0.5 (the origin has an empty subdifferential there).
A problem that knows its exact optimum f* (abs, sqrt-example) is the
optimality bracket ``[f*, f*]``; without one (Lasso) each cell brackets f*
by ``[f_low, f_best]`` from its own oracle calls (see
:func:`psg.solver.run`). Each summary cell reports ``optimum_bracket``
({"low", "high"}, or null), ``certificates`` (True iff proven),
``undecided`` and ``oracle_calls`` (the calls its run made).

Trace files: the suffix of ``trace_path`` picks the format. A path that
ends in ``.npz`` gets an uncompressed NumPy zip of three NEP 1 ``.npy``
members: ``header``, a 0-d str array holding the JSON object below;
``names``, the column names in trace order, a 1-D str array; and
``columns``, a float64 matrix with one row per column, holding the bits the
run computed, so that each column reads back as a contiguous row. A
``.npz`` of the older layout, one member per column, is refused as an input
error. Any other path gets CSV: a line ``# {json}``, the column names and
one row per iteration, every number written as ``%.17g`` (lossless
round-trip). :func:`emit_trace` and :func:`read_trace` pick the format by
the suffix, and ``meta, columns = read_trace(f); emit_trace_csv(columns,
out, meta)`` converts a ``.npz`` trace to the CSV that a ``.csv`` run
writes, byte for byte. The header
object holds the config's ``problem`` spec and the cell's ``policy`` spec,
as :func:`config_to_dict` writes them, ``iterations``, ``weight_ks``,
``restart_factor`` and, when its minorants gave f_low, ``minorant_sums``
{"g_sum", "c_sum", "count"}; the bracket is not stored. The columns are
the trace that :func:`psg.solver.run` returns, column for column, named and ordered
by :func:`psg.solver.trace_columns`:
``s,epoch,eta,g_norm,G,f_x,f_best,bound_<label1>,...``;
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
directory, lie under a file, or be the config file or another of the
run's outputs. ``psg check`` refuses, as an input error, a ``--problem``
spec that is not the header's ``problem`` (and so a trace whose header has
none). It checks the columns' structure
(``s_counts_1_to_t``: ``s`` is 1..t bit for bit; ``G_nondecreasing``: ``G``
is positive, finite and nondecreasing within each epoch when the header's
policy tracks it, else all ``nan``; ``eta_positive``: every step is positive and finite;
``epoch_counts_restarts``: every epoch 0 when the header's
``restart_factor`` is null; ``iterations`` and ``restart_factor`` are
read and range-checked as a config's are), rebuilds the policy from the
header and runs the solver's own evaluator (:func:`psg.bounds.evaluate`) on the columns:
every bound column must match bit for bit, and every certificate except ``per_step`` (it needs the
iterates) is decided again, each gap certificate on the weighted value mean
that ``evaluate`` forms from the ``f_x`` and ``eta`` columns. A trace that
repeats a column name, or lacks a column its run writes, ``G`` or a
declared ``bound_<label>`` among them, is an input error; a header key that
check does not read, such as the ``optimum_bracket`` of an older trace, is
ignored. The gap certificates are decided against the bracket of
:func:`psg.bounds.bracket`, which ``psg run`` forms too: [f*, f*] when the
problem knows f*, else the low end that the header's ``minorant_sums``
give and the trace's final ``f_best``; without the sums there is none, and
no gap certificate is proven. Those sums and the ``f_x`` column are taken
on trust. The run's high, its best value, is lower only when it stopped on
a zero subgradient that its rule could not step from, an iteration with no
row: check's bracket is then wider, and a verdict can only move from
refuted to undecided, never to proven.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
import zipfile
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bounds as bnd
from .core import InvalidParameterError, NumericError, ProblemInstance, ShapeError, repeated_scheme
from .problems import make_abs_problem, make_lasso, make_sqrt_example
from .solver import SolverConfig, run, trace_columns
from .stepsize import ClassicPolicy, ConstantPolicy, FamilyPolicy, NesterovPolicy

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_CERTIFICATE = 3


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


# What a bad config, problem spec, trace or output path raises, a file that
# is not text and a start point of the wrong dimension (ShapeError, from run)
# included; main reports it for every command as "error: ..." and exits 1
INPUT_ERRORS = (ConfigError, InvalidParameterError, ShapeError, OSError, UnicodeDecodeError)


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


# One row per kind of problem and policy object, the one place a kind is
# listed: the fields it takes besides "kind", name -> (reader, default), and
# its builder, which takes the fields' values in the row's order (a policy's
# after R and the iteration budget t). REQUIRED marks a field without a
# default; a default of None means "not set".
REQUIRED = object()
Kind = NamedTuple("Kind", [("fields", dict), ("build", Callable)])
PROBLEM_KINDS = {
    "abs": Kind({"dim": (_int, REQUIRED)}, make_abs_problem),
    "sqrt-example": Kind({}, make_sqrt_example),
    "lasso": Kind({"seed": (_int, REQUIRED), "n": (_int, REQUIRED), "m": (_int, REQUIRED),
                   "radius": (_float, 50.0), "lambda": (_float, 10.0)}, make_lasso),
}
POLICY_KINDS = {
    "family": Kind({"a": (_float, 1.0)}, lambda R, t, a: FamilyPolicy(R, a)),
    "nesterov": Kind({}, lambda R, t: NesterovPolicy(R)),
    "classic": Kind({"L": (_float, None)}, lambda R, t, L: ClassicPolicy(R, L)),
    "constant": Kind({"L": (_float, None)}, lambda R, t, L: ConstantPolicy(R, L, t)),
}


def _read_fields(obj: dict, prefix: str, schema: dict) -> dict:
    """Each field of `schema` read from the object `obj` by its reader; null counts as absent."""
    if not isinstance(obj, dict):
        names = " and ".join(map(repr, schema))
        raise ConfigError(f"{prefix[:-1] or 'top level'}: expected an object with {names}")
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
    return SimpleNamespace(kind=kind, **_read_fields(fields, f"{where}.", kinds[kind].fields))


def _policies(value, where: str) -> tuple:
    items = [value] if isinstance(value, dict) else value
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{where}: expected a policy object or a nonempty list of them")
    return tuple(_spec(POLICY_KINDS, item, where) for item in items)


# The top-level fields of a config, read as the kinds' fields above.
CONFIG_FIELDS = {
    "problem": (functools.partial(_spec, PROBLEM_KINDS), REQUIRED),
    "policy": (_policies, REQUIRED),
    "iterations": (_int, REQUIRED),
    "weight_ks": (_exponents, (0.0,)),
    "initial_point": (_initial_point, None),  # the origin, or 0.5 for the sqrt example
    "trace_path": (_str, None),
    "summary_path": (_str, "summary.json"),
    "restart_factor": (_float, None),
}


# The summed minorants of a trace header, from which psg check brackets f*
MINORANT_FIELDS = {"g_sum": (_numbers, REQUIRED), "c_sum": (_float, REQUIRED),
                   "count": (_int, REQUIRED)}


def _run_length(obj: dict, prefix: str) -> tuple:
    """(iterations, restart_factor) of a config or a trace header, each read and in range.

    iterations must be >= 1 and restart_factor, unless null, must exceed 1.
    """
    iterations = _int(obj.get("iterations"), prefix + "iterations")
    factor = obj.get("restart_factor")
    factor = None if factor is None else _float(factor, prefix + "restart_factor")
    if iterations < 1:
        raise ConfigError(f"{prefix}iterations: must be >= 1")
    if factor is not None and not factor > 1:
        raise ConfigError(f"{prefix}restart_factor: must exceed 1")
    return iterations, factor


def parse_config(data: dict) -> SimpleNamespace:
    """Validate a decoded JSON object into a config, read by :data:`CONFIG_FIELDS`.

    The result has every field, defaults filled in, ``policy`` a tuple of
    one spec per cell. ``problem`` and each policy are namespaces of their
    object's fields (``spec.kind``, ``spec.n``, ...); ``initial_point`` keeps
    the config's own form.
    """
    fields = _read_fields(data, "", CONFIG_FIELDS)
    _run_length(fields, "")
    if fields["initial_point"] is None:
        fields["initial_point"] = [0.5] if fields["problem"].kind == "sqrt-example" else "zero"
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
    fields = vars(config)
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
    """The problem of `spec`, built by its kind's row of :data:`PROBLEM_KINDS`."""
    kind = PROBLEM_KINDS[spec.kind]
    return kind.build(*(vars(spec)[name] for name in kind.fields))


def build_policy(spec: SimpleNamespace, problem: ProblemInstance, iterations: int, where: str):
    """The policy of `spec`, built by its kind's row of :data:`POLICY_KINDS`.

    A kind that takes ``L`` steps with the spec's, else with the problem's
    Lipschitz bound. `where` names the spec's field in an error ("policy"),
    a value that the rule rejects included.
    """
    kind = POLICY_KINDS[spec.kind]
    values = {"L": problem.lipschitz_L} | _spec_dict(spec)  # the spec's L, else the problem's
    if values["L"] is None and "L" in kind.fields:
        raise ConfigError(
            f"{where}.L: required for kind {spec.kind!r} (problem declares no Lipschitz bound)")
    try:
        return kind.build(problem.radius_R, iterations, *(values[name] for name in kind.fields))
    except InvalidParameterError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def resolve_initial_point(initial, problem: ProblemInstance) -> np.ndarray:
    """The start that a config's ``initial_point``, in its own form, names."""
    if initial == "zero":
        return np.zeros(problem.dimension)
    if isinstance(initial, dict):
        return np.random.default_rng(initial["random"]).standard_normal(problem.dimension)
    return np.array(initial, dtype=np.float64)  # run checks its dimension


def _header_json(trace: dict, header: dict) -> str:
    """The JSON text of a trace's `header`, nonfinite numbers as null.

    Both writers call it before they open their file, so a trace that
    :func:`read_trace` would refuse fails first: no columns, no rows, or
    columns that are not 1-D or not of one length.
    """
    shape, *others = {np.shape(col) for col in trace.values()} or {(0,)}
    if others or len(shape) != 1 or not shape[0]:
        raise InvalidParameterError("a trace needs 1-D columns of one nonzero length")
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


# Rows formatted per write by emit_trace_csv: on a 20,000-row trace 512 rows
# write as fast as 1,024 and hold half as many Python floats at once
CSV_CHUNK_ROWS = 512


def emit_trace_csv(trace: dict, path, header: dict) -> None:
    """Write a trace, as :func:`psg.solver.run` returns it, to `path` as CSV.

    The first line is ``# `` and the JSON object `header` (nonfinite numbers
    written as null), then the column names, then one row per entry. Every
    number is written as ``%.17g``, which round-trips floats and prints
    integers as integers: the bytes of ``np.savetxt(fmt="%.17g",
    delimiter=",")``, but with one ``%`` per chunk of :data:`CSV_CHUNK_ROWS`
    rows, not one per row; only the chunk's rows are stacked, and few values
    are alive as Python floats.
    """
    first_line = "# " + _header_json(trace, header)  # before the file opens
    cols = list(trace.values())
    row_fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(first_line + "\n" + ",".join(trace) + "\n")
        for start in range(0, len(cols[0]), CSV_CHUNK_ROWS):
            chunk = np.column_stack([col[start:start + CSV_CHUNK_ROWS] for col in cols])
            fh.write((row_fmt * len(chunk)) % tuple(chunk.ravel().tolist()))


def read_trace_csv(path) -> tuple:
    """Parse a trace written by :func:`emit_trace_csv`: (header object, columns).

    The columns map each name, in the file's order, to a float array. A
    first line that does not start with ``# {``, rows that do not parse or
    that are not one per entry of each name, and a name that repeats are
    input errors naming `path`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("# {"):
            raise InvalidParameterError(f"{path}: first line does not start with '# {{'")
        names = fh.readline().strip().split(",")
        try:
            with warnings.catch_warnings():  # a file with no rows fails the check below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InvalidParameterError(f"{path}: malformed rows ({exc})") from None
    meta = _header_object(path, first[2:])
    if rows.shape[1:] != (len(names),) or not len(rows):
        raise InvalidParameterError(f"{path}: expected rows of {len(names)} columns")
    return meta, _column_dict(path, names, list(rows.T))


# The members of a .npz trace, in the file's order
NPZ_MEMBERS = ["header.npy", "names.npy", "columns.npy"]


def emit_trace(trace: dict, path, header: dict) -> None:
    """Write a trace to `path`: a NumPy zip if `path` ends in ``.npz``, else CSV.

    The zip, uncompressed and byte-deterministic, holds the three ``.npy``
    members of :data:`NPZ_MEMBERS`: ``header`` (a 0-d str array, the JSON
    text of :func:`emit_trace_csv`'s first line), ``names`` (the column
    names, a 1-D str array, in the trace's order) and ``columns`` (a float64
    matrix with one row per column). It is the file that ``np.savez`` writes
    of those three arrays, but the matrix is written column by column, so
    the trace is never copied whole.
    """
    if not str(path).endswith(".npz"):
        return emit_trace_csv(trace, path, header)
    text = _header_json(trace, header)
    shape = (len(trace), len(next(iter(trace.values()))))
    # each member opened as np.savez opens it, so each is dated 1980-01-01
    with zipfile.ZipFile(path, "w", allowZip64=True) as zf:
        for name, array in zip(NPZ_MEMBERS, (np.array(text), np.array(list(trace)))):
            with zf.open(name, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, array)
        with zf.open(NPZ_MEMBERS[2], "w", force_zip64=True) as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<f8", "fortran_order": False, "shape": shape})
            for col in trace.values():
                fh.write(np.ascontiguousarray(col, dtype="<f8"))


def _npy_member(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    with zf.open(name) as fh:
        return np.lib.format.read_array(fh, allow_pickle=False)


def read_trace(path) -> tuple:
    """Read a trace that :func:`emit_trace` wrote: (header object, columns).

    A path ending in ``.npz`` is read as the NumPy zip, any other by
    :func:`read_trace_csv`; both give the header object and the columns'
    bits that were written. A ``.npz`` column is a row of the ``columns``
    matrix, a contiguous view. A file that is not a zip of ``.npy`` members,
    members other than :data:`NPZ_MEMBERS` in that order (a trace of the
    older layout, one member per column, among them), a ``header`` that is
    not a 0-d str array holding a JSON object, ``names`` and ``columns``
    that are not a 1-D str array and a float64 matrix with one nonempty row
    per name, and a repeated name are input errors naming `path`.
    """
    if not str(path).endswith(".npz"):
        return read_trace_csv(path)
    try:
        with zipfile.ZipFile(path) as zf:
            members = zf.namelist()
            if members == NPZ_MEMBERS:
                header, names, matrix = (_npy_member(zf, name) for name in members)
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise InvalidParameterError(f"{path}: not a NumPy zip of arrays ({exc})") from None
    if members != NPZ_MEMBERS:
        raise InvalidParameterError(f"{path}: expected the members {', '.join(NPZ_MEMBERS)},"
                                    f" got {', '.join(members) or 'none'}")
    if not (header.shape == () and header.dtype.kind == "U"):
        raise InvalidParameterError(f"{path}: expected header, a 0-d str array")
    if not (names.dtype.kind == "U" and matrix.dtype == np.float64 and matrix.ndim == 2
            and names.shape == matrix.shape[:1] and matrix.size):
        raise InvalidParameterError(f"{path}: expected names, a 1-D str array, and columns,"
                                    " a float64 matrix with one nonempty row per name")
    return _header_object(path, header.item()), _column_dict(path, names.tolist(), list(matrix))


def check_trace(meta: dict, cols: dict, problem: ProblemInstance) -> list:
    """Re-validate a trace; returns (name, passed, detail) triples.

    `meta` and `cols` are as :func:`read_trace` returns them. The
    structural invariants come from the columns; the bounds and the
    certificates from :func:`psg.bounds.evaluate`, as ``psg run`` computes
    them, against the bracket that :func:`psg.bounds.bracket` forms from
    the header's ``minorant_sums`` and the final ``f_best`` (see the module
    docstring for what is taken on trust). A header field that check reads
    and that is missing or malformed, or a column set that lacks a column
    its run writes, raises :class:`ConfigError` or
    :class:`InvalidParameterError`; a header key or a column that no run
    writes, such as an older trace's ``optimum_bracket`` or its
    ``f_avg_k<k>`` columns, is not read. The header's ``problem`` is not
    read: ``psg check`` compares it with the spec that `problem` is built
    from.
    """
    spec = _spec(POLICY_KINDS, meta.get("policy"), "header.policy")
    iterations, restart_factor = _run_length(meta, "header.")
    policy = build_policy(spec, problem, iterations, "header.policy")
    ks = _exponents(meta.get("weight_ks"), "header.weight_ks")
    L = problem.lipschitz_L
    missing = [name for name in trace_columns(policy.bound_labels(ks, L)) if name not in cols]
    if missing:
        raise InvalidParameterError(f"trace has no column {', '.join(missing)}")
    epoch, G, f_best = cols["epoch"], cols["G"], cols["f_best"]
    # a run without restart_factor has one epoch
    steps = (0.0,) if restart_factor is None else (0.0, 1.0)
    # each whole-length temporary dies with its check, before evaluate builds its own
    results = [
        ("s_counts_1_to_t", bool(np.array_equal(cols["s"], np.arange(1.0, len(G) + 1))), ""),
        ("eta_positive", bool(np.all((cols["eta"] > 0) & (cols["eta"] < math.inf))), ""),
        ("epoch_counts_restarts", bool(epoch[0] == 0 and np.all(np.isin(np.diff(epoch), steps))),
         ""),
    ]
    if policy.tracks_G:  # positive and finite at every row, as the rule's step divides by it
        ok = np.all((G > 0) & (G < math.inf)) and np.all((np.diff(G) >= 0) | (np.diff(epoch) != 0))
        results.append(("G_nondecreasing", bool(ok), "within each epoch"))
    else:
        results.append(("G_nondecreasing", bool(np.all(np.isnan(G))), "not tracked"))
    rebest_ok = np.array_equal(np.minimum.accumulate(cols["f_x"]), f_best)
    results.append(("f_best_running_min", bool(rebest_ok), ""))

    sums = meta.get("minorant_sums")
    if sums is not None:
        sums = _read_fields(sums, "header.minorant_sums.", MINORANT_FIELDS)
        if len(sums["g_sum"]) != problem.dimension or sums["count"] < 1:
            raise ConfigError("header.minorant_sums: g_sum does not fit the problem,"
                              " or count is not positive")
    # the final f_best, which the run's best value undercuts only at a final
    # zero subgradient that has no row: a wider bracket, never a looser verdict
    bracket = bnd.bracket(problem, sums, f_best[-1]) or (-math.inf, math.inf)
    bounds, verdicts, undecided = bnd.evaluate(policy, ks, problem.radius_R, L, cols, bracket)
    for label, column in bounds.items():
        name = f"bound_{label}"
        results.append((f"{name}_recomputed", bool(np.array_equal(column, cols[name])), ""))
    for label, ok in verdicts.items():
        detail = "" if ok else "undecided" if label in undecided else "refuted"
        results.append((label, ok, detail))
    return results


def _file_above(path: str) -> Optional[str]:
    """The nearest existing parent of `path` if it is not a directory, else None."""
    parent = os.path.dirname(path)
    while parent and not os.path.exists(parent):
        parent = os.path.dirname(parent)
    return parent if parent and not os.path.isdir(parent) else None


def _output_paths(config: SimpleNamespace, policies: list, out_dir: Optional[str],
                  config_path: Optional[str]) -> tuple:
    """Each cell's trace file (or None) and the summary file, under `out_dir`.

    One cell writes ``trace_path`` itself; several write ``trace_path`` with
    ``__<i>_<label>`` before its extension (``.csv`` when it has none). A
    name that is not a file's, an existing directory, an output under a
    file, two outputs that are one file and an output that is the run's
    input, the config file at `config_path`, are config errors, raised
    before anything is written.
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
    owners = {} if config_path is None else {
        os.path.realpath(config_path): ("config file", "the run")}
    for where, path, writer in [("summary_path", summary, "the summary")] + [
            ("trace_path" if len(traces) == 1 else f"trace_path ({path})", path, "a trace")
            for path in traces if path]:
        if os.path.isdir(path):
            raise ConfigError(f"{where}: {path} is a directory")
        blocked = _file_above(path)
        if blocked:
            raise ConfigError(f"{where}: {blocked} is a file, not a directory")
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
                 "bounds", "certificates", "undecided", "oracle_calls")


def run_experiment(config: SimpleNamespace, out_dir: Optional[str] = None,
                   config_path: Optional[str] = None) -> dict:
    """Execute all cells of `config` and return the summary dict.

    The summary is also written to ``config.summary_path`` as strict JSON:
    nonfinite floats (such as the best value of a run that stopped before
    its first step) are written, and returned, as null. Relative output
    paths are resolved under `out_dir` (default: current directory), and
    an output path that cannot hold its file, or that is the file the config
    was read from (`config_path`, when given), is a :class:`ConfigError`
    before the first cell runs. A numeric failure marks its cell as failed
    without affecting the others.
    """
    problem = build_problem(config.problem)
    policies = [build_policy(spec, problem, config.iterations, "policy")
                for spec in config.policy]
    paths, summary_path = _output_paths(config, policies, out_dir, config_path)
    x0 = resolve_initial_point(config.initial_point, problem)  # run never changes it

    def execute(spec, policy, path):
        cell = {"problem": problem.name, "policy": policy.label}
        solver_config = SolverConfig(
            max_iterations=config.iterations, initial_point=x0,
            policy=policy, weight_ks=config.weight_ks, restart_factor=config.restart_factor)
        try:
            report, trace = run(problem, solver_config)
        except NumericError as exc:
            return cell | {"status": "failed", "error": str(exc)}
        bracket = report.optimum_bracket and dict(zip(("low", "high"), report.optimum_bracket))
        written = path is not None and report.iterations_run > 0
        if written:
            # the parent as written: in "sub/../t.csv" sub must exist, abspath would drop it
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            sums = {} if report.minorant_sums is None else {"minorant_sums": report.minorant_sums}
            emit_trace(trace, path, {
                "policy": _spec_dict(spec), "iterations": config.iterations,
                "weight_ks": list(config.weight_ks), "restart_factor": config.restart_factor,
                "problem": _spec_dict(config.problem), **sums})
        return cell | {name: getattr(report, name) for name in REPORT_FIELDS} | {
            "status": "ok", "error": None, "stop_reason": report.stop_reason.value,
            "optimum_bracket": bracket, "trace_path": path if written else None}

    cells = [execute(*cell) for cell in zip(config.policy, policies, paths)]

    summary = _finite_or_null({"config": config_to_dict(config), "cells": cells})
    os.makedirs(os.path.dirname(summary_path) or ".", exist_ok=True)
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return summary


def _cmd_run(args) -> int:
    summary = run_experiment(load_config(args.config), out_dir=args.out_dir,
                             config_path=args.config)
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


def _cmd_check(args) -> int:
    data = _load_json(args.problem)
    if isinstance(data, dict) and "problem" in data:  # a whole config
        data = data["problem"]
    spec = _spec(PROBLEM_KINDS, data, "problem")
    problem, (meta, cols) = build_problem(spec), read_trace(args.trace)
    if _spec(PROBLEM_KINDS, meta.get("problem"), "header.problem") != spec:
        raise ConfigError(f"problem: differs from the header.problem of {args.trace}")
    results = check_trace(meta, cols, problem)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    if args.strict and not all(ok for _, ok, _ in results):
        return EXIT_CERTIFICATE
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``psg`` parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="psg", description="Projected subgradient benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--strict", action="store_true",
                       help="exit 3 when any certificate is refuted or undecided")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="re-validate a stored trace")
    p_check.add_argument("--trace", required=True)
    p_check.add_argument("--problem", required=True,
                         help="JSON file with the problem block of the config")
    p_check.add_argument("--strict", action="store_true",
                         help="exit 3 when any validation fails")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
