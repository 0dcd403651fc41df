"""Shared domain types: oracles, problem instances, run reports, and tolerances."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

# Single tolerance pair used by every inequality certificate in the package.
# Relative part absorbs double-precision rounding in sums over t terms; the
# absolute part handles comparisons near zero.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# A difference of two computed objective values near |f| carries their rounding:
# it is allowed VALUE_ROUNDING * |f| (64 units in the last place) more.
VALUE_ROUNDING = 2.0 ** -46


class InvalidParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


class ShapeError(ValueError):
    """Vector dimensions do not match."""


class NumericError(ArithmeticError):
    """A computation produced a nonfinite value."""


class ZeroSubgradientError(RuntimeError):
    """A step size was requested for a zero subgradient (caller must stop first)."""


class EmptySubdifferentialError(RuntimeError):
    """The oracle has no subgradient at the queried point."""


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


def leq_with_tol(lhs, rhs, rel: float = REL_TOL, abs_=ABS_TOL):
    """lhs <= rhs + rel * max(|lhs|, |rhs|) + abs_, the package's one tolerance formula.

    Elementwise over arrays, giving a boolean array; on scalars, a bool. A
    nan on either side fails. Overflow and inf - inf pass silently, as they
    do on Python floats.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ok = lhs <= rhs + rel * np.maximum(np.abs(lhs), np.abs(rhs)) + abs_
    return bool(ok) if np.ndim(ok) == 0 else ok


@dataclass(frozen=True)
class SubgradientResult:
    """Objective value and one subgradient at a point.

    `subgradient is None` marks an empty subdifferential: the objective value
    is still valid but no descent direction exists at the point.

    `image` is optional: for an objective of the form h(A x - b) + r(x), the
    vector A x - b that the oracle computed on the way to the value. It is
    read only when the problem also sets
    :attr:`ProblemInstance.value_at_image`.
    """

    value: float
    subgradient: Optional[np.ndarray]
    image: Optional[np.ndarray] = None

    @property
    def is_empty(self) -> bool:
        return self.subgradient is None


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
        Maps a point to a :class:`SubgradientResult`.
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
    value_at_image : callable, optional
        For an objective of the form f(x) = h(A x - b) + r(x) whose oracle
        returns the image A x - b in :attr:`SubgradientResult.image`: maps a
        point x and an image z to h(z) + r(x). For weights w_s >= 0 summing
        to 1 it must satisfy
        ``value_at_image(sum w_s x_s, sum w_s z_s) == f(sum w_s x_s)``, which
        holds because A x - b is affine. The solver then streams each
        weighted average of the images beside the average of the iterates and
        evaluates the objective at an average in O(m + n), without an oracle
        call. It works row-wise: given stacked arrays of shapes (..., n) and
        (..., m), possibly column slices of one array, it returns an array
        of shape (...) with one value per row, each equal bit for bit to the
        call on that row's 1-D pair. The solver calls it once per block of
        iterations, on the averages of every iteration in the block. Provide
        it when the oracle's cost is dominated by forming A x; leave it None
        otherwise. The image may be empty (m = 0), for a hook that reads the
        value from x alone. The hook belongs to the oracle: a copy of the
        problem with another oracle must set ``value_at_image=None`` (or a
        hook of its own), or its averages are valued by the old objective.
    """

    name: str
    dimension: int
    oracle: Oracle
    projector: object
    radius_R: float
    lipschitz_L: Optional[float] = None
    known_optimum_value: Optional[float] = None
    known_optimum_point: Optional[np.ndarray] = None
    value_at_image: Optional[Callable[[np.ndarray, np.ndarray], Union[float, np.ndarray]]] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidParameterError("dimension must be >= 1")
        if not self.radius_R > 0:
            raise InvalidParameterError("radius_R must be positive")
        if self.lipschitz_L is not None and not self.lipschitz_L > 0:
            raise InvalidParameterError("lipschitz_L must be positive when given")

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
    {g_sum, c_sum, count} of low = (c_sum + min_linear(g_sum)) / count.
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
    optimum_bracket: Optional[tuple] = None
    undecided: list = field(default_factory=list)
    minorant_sums: Optional[dict] = None


def subgradient_inequality_check(oracle: Oracle, x: np.ndarray, z: np.ndarray,
                                 rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """Check the defining inequality of a subgradient at `x` against a probe `z`.

    For g in the subdifferential at x, convexity requires
    f(z) >= f(x) + g.(z - x). Returns True when the inequality holds up to
    the package tolerance.

    Raises
    ------
    EmptySubdifferentialError
        If the oracle reports an empty subdifferential at `x`.
    """
    res_x = oracle(x)
    if res_x.is_empty:
        raise EmptySubdifferentialError("subdifferential is empty at x")
    lower = res_x.value + float(np.dot(res_x.subgradient, np.asarray(z) - np.asarray(x)))
    f_z = oracle(z).value
    return leq_with_tol(lower, f_z, rel, abs_)


def scheme_label(k: float) -> str:
    """Canonical label for the averaging scheme with weight exponent `k`."""
    return f"k{k:g}"
