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

Each rule is one policy class, the only place its step is computed, which
also declares the certificates its theorems guarantee.

All fractional powers are evaluated with the general float power operator
(no integer fast paths): the exponents are continuous in `a`, and with a = 1
the family rule reproduces the classic rule bit for bit when G_s equals L.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import bounds as bnd
from .bounds import Certificate
from .core import InvalidParameterError, ZeroSubgradientError


def _require_positive(value: float, name: str) -> None:
    if not value > 0:
        raise InvalidParameterError(f"{name} must be positive, got {value!r}")


def _require_a(a: float) -> None:
    if not 0.0 <= a <= 1.0:
        raise InvalidParameterError(f"a must lie in [0, 1], got {a!r}")


class StepSizePolicy:
    """Stateful per-iteration step-size rule.

    Subclasses implement :meth:`step_size`, called once per iteration with
    the 1-based iteration index and the current subgradient norm; it trusts
    both and the parameters validated at construction. Instances are owned
    by a single solver run; :meth:`reset` returns them to their initial state.
    Subclasses declare what their theory guarantees (:meth:`certificates`,
    :meth:`monotone_ks`); the base class guarantees nothing.
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

    def certificates(self, ks: Sequence[float], L: Optional[float]) -> list:
        """Gap certificates guaranteed for the weight exponents `ks` and Lipschitz bound `L`."""
        return []

    def monotone_ks(self, ks: Sequence[float]) -> list:
        """The exponents in `ks` at which w_s / eta_s is nondecreasing."""
        return []


@dataclass
class ConstantPolicy(StepSizePolicy):
    """Constant step tuned to a fixed iteration budget; its bound holds only there."""

    R: float
    L: float
    horizon_t: int

    def __post_init__(self):
        _require_positive(self.R, "R")
        _require_positive(self.L, "L")
        _require_positive(self.horizon_t, "horizon_t")
        self._eta = self.R / (self.L * self.horizon_t ** 0.5)
        self.label = "constant"

    def step_size(self, s: int, g_norm: float) -> float:
        return self._eta

    def certificates(self, ks, L):
        applies = 0.0 in ks and L is not None
        return [Certificate(bnd.CONSTANT, 0.0, self.horizon_t)] if applies else []

    def monotone_ks(self, ks):
        return list(ks)


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

    def certificates(self, ks, L):
        applies = 0.0 in ks and L is not None
        return [Certificate(bnd.CLASSIC, 0.0)] if applies else []

    def monotone_ks(self, ks):
        return list(ks)


@dataclass
class NesterovPolicy(StepSizePolicy):
    """Step R / (||g_s|| * sqrt(s)) normalized by the current subgradient.

    A zero subgradient is a solver stopping condition, never a step. Only the
    step-weighted mean (k = -1, where w_s / eta_s = 1) is certified.
    """

    R: float

    def __post_init__(self):
        _require_positive(self.R, "R")
        self.label = "nesterov"

    def step_size(self, s: int, g_norm: float) -> float:
        if g_norm == 0:
            raise ZeroSubgradientError("step size undefined for a zero subgradient")
        return self.R / (g_norm * s ** 0.5)

    def certificates(self, ks, L):
        if -1.0 in ks and L is not None:
            return [Certificate(bnd.NESTEROV, -1.0)]
        return []

    def monotone_ks(self, ks):
        return [k for k in ks if k == -1.0]


@dataclass
class FamilyPolicy(StepSizePolicy):
    """Norm-adaptive rule eta_s = R / (G_s * s^(a/2)) with running state G_s.

    G_s = max(G_{s-1}, ||g_s|| * s^((1-a)/2)) starts from ||g_1||; G_s = 0
    (only zero subgradients so far) has no step. `a` interpolates between a
    step that ignores the iteration index (a = 0) and one that decays like
    1/sqrt(s) (a = 1, the default used by the benchmark experiments).
    """

    R: float
    a: float = 1.0
    _G: Optional[float] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _require_positive(self.R, "R")
        _require_a(self.a)
        self.label = f"family_a{self.a:g}"
        self._g_power, self._step_power = 0.5 * (1.0 - self.a), 0.5 * self.a

    def step_size(self, s: int, g_norm: float) -> float:
        scaled = g_norm * s ** self._g_power
        self._G = G = scaled if self._G is None else max(self._G, scaled)
        if G <= 0:
            raise ZeroSubgradientError("step size undefined: running subgradient maximum is zero")
        return self.R / (G * s ** self._step_power)

    def reset(self) -> None:
        self._G = None

    @property
    def G(self) -> Optional[float]:
        return self._G

    def certificates(self, ks, L):
        uniform = [Certificate(bnd.FAMILY, 0.0)] if 0.0 in ks else []
        return uniform + [Certificate(bnd.weak_label(k), k) for k in ks]

    def monotone_ks(self, ks):
        return list(ks)
