"""Outside-in span tracer for the psg package.

The tracer wraps the public functions and methods that the solver and the CLI
call, so the package itself is unchanged. Each call becomes a span with a
name, a start and end time, and the span that was open when it began (its
parent). Spans are kept in flat arrays until the run ends; self time, a
span's duration minus that of its child spans, is computed afterwards.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute): every binding of the function in a psg
# module is replaced, so calls through `from .x import f` are seen too.
FUNCTIONS = (
    ("core.ensure_vector", "psg.core", "ensure_vector"),
    ("core.leq_with_tol", "psg.core", "leq_with_tol"),
    ("projection.project", "psg.projection", "project"),
    ("solver.psg_step", "psg.solver", "psg_step"),
    ("averaging.weight", "psg.averaging", "weight"),
    ("bounds.check", "psg.bounds", "check_certificate"),
    ("problems.reference", "psg.problems", "reference_optimum_value"),
    ("cli.load_config", "psg.cli", "load_config"),
    ("cli.run_experiment", "psg.cli", "run_experiment"),
    ("cli.emit_trace_csv", "psg.cli", "emit_trace_csv"),
    ("cli.read_trace_csv", "psg.cli", "read_trace_csv"),
    ("cli.check_trace", "psg.cli", "check_trace"),
)

# (span name, module, class, method)
METHODS = (
    ("averaging.update", "psg.averaging", "StreamingAverage", "update"),
    ("averaging.best", "psg.averaging", "BestIterate", "update"),
    ("bounds.sums", "psg.bounds", "WeakBoundSums", "push"),
    ("bounds.sums", "psg.bounds", "WeakBoundSums", "bound"),
)


def oracle_cost(spec) -> tuple:
    """Computed flop and bytes of one oracle call, from the problem's formula.

    Lasso: the matvecs Phi x and Phi^T r take 2mn flop each and read the
    m x n float64 matrix once each. The 1-D sqrt example takes a square root
    and a division, reading and writing one float64.
    """
    if spec.kind == "lasso":
        return 4 * spec.m * spec.n, 16 * spec.m * spec.n
    if spec.kind == "sqrt-example":
        return 2, 16
    raise ValueError(f"no cost model for problem kind {spec.kind!r}")


class Tracer:
    """Records one span per call of every wrapped psg function."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list = []
        self.kept: dict = {}      # span index -> value kept from its result
        self.cost = (0, 0)        # computed (flop, bytes) per oracle call

    def wrap(self, name: str, fn, keep=None):
        """Return `fn` wrapped so that each call records a span `name`.

        `keep`, when given, maps the call's result to a value stored in
        ``kept`` under the span's index.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, kept, clock = self._stack, self.kept, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if keep is not None:
                kept[i] = keep(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the psg functions and methods the solver and the CLI call."""
        import psg.cli
        import psg.solver
        import psg.stepsize

        for name, module, attr in FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            _replace_everywhere(fn, self.wrap(name, fn))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
        policies = [psg.stepsize.StepSizePolicy, *psg.stepsize.StepSizePolicy.__subclasses__()]
        for cls in policies:
            if "step_size" in cls.__dict__ and cls is not psg.stepsize.StepSizePolicy:
                cls.step_size = self.wrap("stepsize.step_size", cls.__dict__["step_size"])
            if "reset" in cls.__dict__:
                cls.reset = self.wrap("stepsize.reset", cls.__dict__["reset"])
        _replace_everywhere(psg.solver.run, self.wrap(
            "solver.run", psg.solver.run, keep=lambda out: out[0].iterations_run))

        build = psg.cli.build_problem

        def build_traced_problem(spec):
            problem = build(spec)
            self.cost = oracle_cost(spec)
            return dataclasses.replace(
                problem, oracle=self.wrap("problems.oracle", problem.oracle))

        _replace_everywhere(build, self.wrap("problems.build", build_traced_problem))

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        start = np.frombuffer(self._start, dtype=np.int64)
        dur = (np.frombuffer(self._end, dtype=np.int64) - start).astype(np.float64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        name = np.frombuffer(self._name, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=dur, minlength=width)
        own = np.bincount(name, weights=dur - child, minlength=width)
        return {n: {"calls": int(calls[i]), "s": total[i] / 1e9, "self_s": own[i] / 1e9}
                for i, n in enumerate(self.names)}

    def nested_under(self, outer: str) -> list:
        """Indices of spans whose parent span is named `outer`."""
        parent = np.frombuffer(self._parent, dtype=np.int64)
        name = np.frombuffer(self._name, dtype=np.int32)
        nested = np.flatnonzero(parent >= 0)
        return nested[name[parent[nested]] == self._ids.get(outer, -1)].tolist()


def _replace_everywhere(fn, wrapped) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "psg" or module_name.startswith("psg."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
