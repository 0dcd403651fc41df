"""Time-varying step-size rules for the projected subgradient method.

Four rules are provided, all producing a positive step eta_s at iteration s:

* constant:  eta = R / (L * sqrt(t)), tuned to a fixed iteration budget t;
* classic:   eta_s = R / (L * sqrt(s)), anytime, needs the Lipschitz bound L;
* Nesterov:  eta_s = R / (||g_s|| * sqrt(s)), normalized by the current
  subgradient norm, needs no L but its ergodic guarantee is sub-optimal;
* family:    eta_s = R / (G_s * s^(a/2)) for a fixed a in [0, 1], where G_s
  is the running maximum of ||g_j|| * j^((1-a)/2) over j <= s. The running
  maximum stands in for the Lipschitz constant, so the rule applies even
  when subgradient norms are unbounded, and its uniform-average guarantee
  matches the optimal 1/sqrt(t) rate.

All fractional powers are evaluated with the general float power operator
(no integer fast paths): the exponents are continuous in `a`, and with a = 1
the family rule reproduces the classic rule bit for bit when G_s equals L.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import InvalidParameterError, ZeroSubgradientError


def _require_positive(value: float, name: str) -> None:
    if not value > 0:
        raise InvalidParameterError(f"{name} must be positive, got {value!r}")


def _require_a(a: float) -> None:
    if not 0.0 <= a <= 1.0:
        raise InvalidParameterError(f"a must lie in [0, 1], got {a!r}")


def constant_step(R: float, L: float, horizon_t: int) -> float:
    """Constant step R / (L * sqrt(horizon_t)), tuned to a fixed budget."""
    _require_positive(R, "R")
    _require_positive(L, "L")
    _require_positive(horizon_t, "horizon_t")
    return R / (L * horizon_t ** 0.5)


def classic_step(R: float, L: float, s: int) -> float:
    """Decreasing step R / (L * sqrt(s)); optimal ergodic rate under a Lipschitz bound."""
    _require_positive(R, "R")
    _require_positive(L, "L")
    _require_positive(s, "s")
    return R / (L * s ** 0.5)


def nesterov_step(R: float, g_norm: float, s: int) -> float:
    """Subgradient-normalized step R / (||g_s|| * sqrt(s)).

    The zero-subgradient case is a solver stopping condition, never a step;
    requesting it here is an error.
    """
    _require_positive(R, "R")
    _require_positive(s, "s")
    if g_norm == 0:
        raise ZeroSubgradientError("step size undefined for a zero subgradient")
    _require_positive(g_norm, "g_norm")
    return R / (g_norm * s ** 0.5)


def family_update_G(state_G: Optional[float], g_norm: float, s: int, a: float) -> float:
    """Advance the running maximum G_s = max(G_{s-1}, ||g_s|| * s^((1-a)/2)).

    `state_G is None` is the uninitialized sentinel (conceptually -infinity,
    kept symbolic so it can never leak into arithmetic); it is only valid at
    s = 1, where the update returns ||g_1||. The result equals the closed
    form max over j <= s of ||g_j|| * j^((1-a)/2).
    """
    _require_a(a)
    if g_norm < 0:
        raise InvalidParameterError(f"g_norm must be nonnegative, got {g_norm!r}")
    _require_positive(s, "s")
    scaled = g_norm * s ** (0.5 * (1.0 - a))
    if state_G is None:
        return scaled
    return max(state_G, scaled)


def family_step(R: float, G_s: float, s: int, a: float) -> float:
    """Norm-adaptive step R / (G_s * s^(a/2)).

    G_s = 0 means every subgradient seen so far was zero, which the solver
    intercepts as a stopping condition before asking for a step.
    """
    _require_positive(R, "R")
    _require_a(a)
    _require_positive(s, "s")
    if G_s <= 0:
        raise ZeroSubgradientError("step size undefined: running subgradient maximum is zero")
    return R / (G_s * s ** (0.5 * a))


class StepSizePolicy:
    """Stateful per-iteration step-size rule.

    Subclasses implement :meth:`step_size`, called once per iteration with
    the 1-based iteration index and the current subgradient norm; it trusts
    both and the parameters validated at construction. Instances are owned
    by a single solver run; :meth:`reset` returns them to their initial state.
    """

    label: str = "policy"

    def step_size(self, s: int, g_norm: float) -> float:
        raise NotImplementedError

    def reset(self) -> None:
        pass

    @property
    def G(self) -> Optional[float]:
        """Running scaled-norm maximum, for policies that track one."""
        return None


@dataclass
class ConstantPolicy(StepSizePolicy):
    """Constant step tuned to a fixed iteration budget."""

    R: float
    L: float
    horizon_t: int

    def __post_init__(self):
        self._eta = constant_step(self.R, self.L, self.horizon_t)
        self.label = "constant"

    def step_size(self, s: int, g_norm: float) -> float:
        return self._eta


@dataclass
class ClassicPolicy(StepSizePolicy):
    """Step R / (L * sqrt(s)) from a known Lipschitz bound."""

    R: float
    L: float

    def __post_init__(self):
        _require_positive(self.R, "R")
        _require_positive(self.L, "L")
        self.label = "classic"

    def step_size(self, s: int, g_norm: float) -> float:
        return self.R / (self.L * s ** 0.5)


@dataclass
class NesterovPolicy(StepSizePolicy):
    """Step R / (||g_s|| * sqrt(s)) normalized by the current subgradient."""

    R: float

    def __post_init__(self):
        _require_positive(self.R, "R")
        self.label = "nesterov"

    def step_size(self, s: int, g_norm: float) -> float:
        if g_norm == 0:
            raise ZeroSubgradientError("step size undefined for a zero subgradient")
        return self.R / (g_norm * s ** 0.5)


@dataclass
class FamilyPolicy(StepSizePolicy):
    """Norm-adaptive rule eta_s = R / (G_s * s^(a/2)) with running state G_s.

    `a` interpolates between a step that ignores the iteration index (a = 0)
    and one that decays like 1/sqrt(s) (a = 1, the default used by the
    benchmark experiments).
    """

    R: float
    a: float = 1.0
    _G: Optional[float] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _require_positive(self.R, "R")
        _require_a(self.a)
        self.label = f"family_a{self.a:g}"

    def step_size(self, s: int, g_norm: float) -> float:
        scaled = g_norm * s ** (0.5 * (1.0 - self.a))
        self._G = G = scaled if self._G is None else max(self._G, scaled)
        if G <= 0:
            raise ZeroSubgradientError("step size undefined: running subgradient maximum is zero")
        return self.R / (G * s ** (0.5 * self.a))

    def reset(self) -> None:
        self._G = None

    @property
    def G(self) -> Optional[float]:
        return self._G
