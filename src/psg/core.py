"""Shared domain types: oracles, problem instances, run reports, and tolerances.

Also the package's one power function, :func:`power`, which forms every
averaging weight and every power of t in a bound.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

# Single tolerance pair used by every inequality certificate in the package.
# Relative part absorbs double-precision rounding in sums over t terms; the
# absolute part handles comparisons near zero.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# A difference of two computed objective values near |f| carries their rounding:
# it is allowed VALUE_ROUNDING * |f| (64 units in the last place) more.
VALUE_ROUNDING = 2.0 ** -46
# The most rows that a run's bookkeeping block holds (psg.solver), and the rows
# that the bounds' evaluator and psg check take at a time, so that what they
# build grows with the chunk, not with the run.
VALUE_BLOCK_CAP = 4096


class InvalidParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


class ShapeError(ValueError):
    """Vector dimensions do not match."""


class NumericError(ArithmeticError):
    """A computation produced a nonfinite value."""


class ZeroSubgradientError(RuntimeError):
    """A step size was requested for a zero subgradient (caller must stop first)."""


def require_count(value, name: str) -> None:
    """Raise InvalidParameterError unless `value` is an integer >= 1."""
    # range() takes no float, and a bool is no count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise InvalidParameterError(f"{name} must be an integer >= 1, got {value!r}")


def require_positive(value: float, name: str) -> None:
    """Raise InvalidParameterError unless `value` is positive and finite."""
    if not 0 < value < math.inf:
        raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")


def ensure_vector(x, dim: Optional[int] = None, name: str = "x") -> np.ndarray:
    """Coerce `x` to a finite 1-D float64 array, checking dimension if given."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ShapeError(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains nonfinite entries")
    return arr


def leq_with_tol(lhs, rhs, abs_=ABS_TOL):
    """lhs <= rhs + REL_TOL * max(|lhs|, |rhs|) + abs_, the package's one tolerance formula.

    Elementwise over arrays, giving a boolean array; on scalars, a bool. A
    nan on either side fails. Overflow and inf - inf pass silently, as they
    do on Python floats. The relative part is always REL_TOL; only the
    absolute part `abs_` varies (the per-step check widens it per entry).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ok = lhs <= rhs + REL_TOL * np.maximum(np.abs(lhs), np.abs(rhs)) + abs_
    return bool(ok) if np.ndim(ok) == 0 else ok


def _pow(u, e: float) -> float:
    """Python's u ** e, or inf where it overflows."""
    try:
        return u ** e
    except OverflowError:
        return math.inf


def _times_powers(result, u, m: int):
    """result * u^m, multiplying in u, u^2, u^4, ... for the set bits of m, lowest first."""
    while m:
        if m & 1:
            result *= u
        m >>= 1
        if m:
            u = u * u
    return result


def power(u, e: float) -> np.ndarray:
    """u ** e for u > 0, over `u` as a float64 array; a term that overflows is inf.

    The package's one power of iteration counts and steps: every bound's
    powers of t, and every averaging weight, the run's and the certificates'.
    A half-integer e = j/2 is sqrt(u) (1 when j is even) times u^(|j| // 2)
    as :func:`_times_powers` forms it, inverted last when j < 0. Each step is
    one correctly rounded IEEE-754 operation, so the powers are the same on
    every IEEE-754 platform and a 0-d `u` holds the bits of its entry in a
    column; libm's pow is not correctly rounded (glibc's u ** 0.5 differs
    from sqrt(u) at 1,638 of the integers u <= 2e6). Any other exponent is
    Python's pow, term by term.
    """
    u = np.asarray(u, dtype=np.float64)
    j = 2.0 * e
    if not j.is_integer():
        terms = map(_pow, u.ravel().tolist(), repeat(e))
        return np.fromiter(terms, dtype=np.float64, count=u.size).reshape(u.shape)
    n = abs(int(j))
    with np.errstate(over="ignore"):
        result = _times_powers(np.sqrt(u) if n % 2 else np.ones_like(u), u, n // 2)
    return 1.0 / result if j < 0 else result


class SubgradientResult(NamedTuple):
    """Objective value and one subgradient at a point.

    `subgradient is None` marks an empty subdifferential: the objective value
    is still valid but no descent direction exists at the point.

    A named tuple: immutable and cheap to build, as every oracle call builds
    one; ``result._replace(value=...)`` gives a copy with fields changed.
    """

    value: float
    subgradient: Optional[np.ndarray]


Oracle = Callable[[np.ndarray], SubgradientResult]


@dataclass(frozen=True)
class ProblemInstance:
    """A constrained nonsmooth convex problem exposed through a first-order oracle.

    Parameters
    ----------
    name : str
        Identifier used in reports and file names.
    dimension : int
        Length of the decision vector.
    oracle : callable
        Maps a point to a :class:`SubgradientResult`. It must be a function
        of the point: equal bytes of x give an equal answer, and the caller
        may keep the arrays it returns. :func:`psg.solver.run` relies on
        this: it does not call the oracle again at the point it called it at
        last, but reuses that answer.
    projector : object
        Euclidean projection operator onto the feasible set (see
        :mod:`psg.projection`).
    radius_R : float
        Radius of a Euclidean ball, centred at an optimum, containing the
        feasible set. Used by every step-size rule and convergence bound.
        When only a diameter D of the feasible set is known, R = D is a safe
        over-estimate.
    lipschitz_L : float, optional
        Uniform bound on subgradient norms over the feasible set, when one
        exists. Required by the constant and classic step-size rules.
    known_optimum_value, known_optimum_point : optional
        Exact optimum, when analytically available. Certificates that need a
        gap use the value; the per-step descent certificate needs the point.
        A problem without an optimum value lets the run bracket f* from its
        own minorants instead (see :func:`psg.solver.run`).
    """

    name: str
    dimension: int
    oracle: Oracle
    projector: object
    radius_R: float
    lipschitz_L: Optional[float] = None
    known_optimum_value: Optional[float] = None
    known_optimum_point: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidParameterError("dimension must be >= 1")
        require_positive(self.radius_R, "radius_R")
        if self.lipschitz_L is not None:
            require_positive(self.lipschitz_L, "lipschitz_L")

    def value(self, x: np.ndarray) -> float:
        """Objective value at `x` (valid even where the subdifferential is empty)."""
        return float(self.oracle(x).value)


class StopReason(str, Enum):
    BUDGET_EXHAUSTED = "budget-exhausted"
    ZERO_SUBGRADIENT = "zero-subgradient"
    EMPTY_SUBDIFFERENTIAL = "empty-subdifferential"


@dataclass
class RunReport:
    """Final summary of a solver run.

    `certificates` maps each checked certificate to True iff it was proven;
    `undecided` lists the gap certificates that were neither proven nor
    refuted, every other False one was refuted. `optimum_bracket` is the
    (low, high) pair known to contain f* that the gap certificates were
    checked against, or None when the run formed none; `minorant_sums` the
    {g_sum, c_sum, count} that :func:`psg.bounds.bracket` turns into low.
    `oracle_calls` counts the calls the run made into the problem's oracle,
    those that valued its averages included.
    """

    problem: str
    policy: str
    iterations_run: int
    stop_reason: StopReason
    best_value: float
    best_index: int
    best_point: Optional[np.ndarray]
    averaged_points: dict
    averaged_values: dict
    max_g_norm: float
    bounds: dict
    certificates: dict
    oracle_calls: int
    optimum_bracket: Optional[tuple] = None
    undecided: list = field(default_factory=list)
    minorant_sums: Optional[dict] = None


def scheme_label(k: float) -> str:
    """Canonical label for the averaging scheme with weight exponent `k`."""
    # + 0.0 turns -0.0, which weighs as 0.0 does, into 0.0
    return f"k{k + 0.0:g}"


def repeated_scheme(ks) -> Optional[float]:
    """The first k in `ks` whose label an earlier k already has, else None.

    Each k names one average and its trace columns, so no two may share a label.
    """
    seen = set()
    for k in ks:
        label = scheme_label(k)
        if label in seen:
            return k
        seen.add(label)
    return None
