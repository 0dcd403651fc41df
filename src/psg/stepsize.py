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

Each rule is one policy class, the only place its step is computed. Its
:meth:`~StepSizePolicy.claims` is the one place its theorems are declared;
the base class derives from them the bound columns a run writes and the
certificates it checks. A Lipschitz rule's theorem holds for the L its step
divides by, so it claims its bound only at that L.

All fractional powers are evaluated with the general float power operator
(no integer fast paths): the exponents are continuous in `a`, and with a = 1
the family rule reproduces the classic rule bit for bit when G_s equals L.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import bounds as bnd
from .bounds import Certificate
from .core import InvalidParameterError, ZeroSubgradientError, require_count, require_positive


class StepSizePolicy:
    """Stateful per-iteration step-size rule.

    Subclasses implement :meth:`step_size`, called once per iteration with
    the 1-based iteration index and the current subgradient norm; it trusts
    both and the parameters validated at construction. Instances are owned
    by a single solver run; :meth:`reset` returns them to their initial state.
    Each subclass declares its theorems once, in :meth:`claims`, and sets
    ``nonincreasing_steps`` when its steps never grow and ``tracks_G`` when
    it keeps a running scaled-norm maximum (:attr:`G`); the base class derives
    :meth:`bound_labels`, :meth:`certificates` and :meth:`monotone_ks` from
    them and by itself claims nothing.
    """

    label: str = "policy"
    nonincreasing_steps: bool = False
    tracks_G: bool = False

    def step_size(self, s: int, g_norm: float) -> float:
        raise NotImplementedError

    def reset(self) -> None:
        pass

    @property
    def G(self) -> Optional[float]:
        """Running scaled-norm maximum, for policies that track one."""
        return None

    def claims(self, ks: Sequence[float], L: Optional[float]) -> list:
        """One :class:`Certificate` per bound its theorems give for the exponents `ks` and `L`."""
        return []

    def bound_labels(self, ks: Sequence[float], L: Optional[float]) -> list:
        """Labels of the bounds its theorems give, one bound column each."""
        return [claim.label for claim in self.claims(ks, L)]

    def certificates(self, ks: Sequence[float], L: Optional[float]) -> list:
        """The claims whose weight exponent is in `ks`: the gap certificates a run checks."""
        return [claim for claim in self.claims(ks, L) if claim.k in ks]

    def monotone_ks(self, ks: Sequence[float]) -> list:
        """The exponents in `ks` at which w_s / eta_s is nondecreasing."""
        return list(ks) if self.nonincreasing_steps else []


@dataclass
class ConstantPolicy(StepSizePolicy):
    """Constant step tuned to a fixed iteration budget; its bound holds only there."""

    R: float
    L: float
    horizon_t: int
    nonincreasing_steps = True

    def __post_init__(self):
        require_positive(self.R, "R")
        require_positive(self.L, "L")
        require_count(self.horizon_t, "horizon_t")
        self._eta = self.R / (self.L * self.horizon_t ** 0.5)
        self.label = "constant"

    def step_size(self, s: int, g_norm: float) -> float:
        return self._eta

    def claims(self, ks, L):
        return [Certificate(bnd.CONSTANT, 0.0, self.horizon_t)] if L == self.L else []


@dataclass
class ClassicPolicy(StepSizePolicy):
    """Step R / (L * sqrt(s)) from a known Lipschitz bound."""

    R: float
    L: float
    nonincreasing_steps = True

    def __post_init__(self):
        require_positive(self.R, "R")
        require_positive(self.L, "L")
        self.label = "classic"

    def step_size(self, s: int, g_norm: float) -> float:
        return self.R / (self.L * s ** 0.5)

    def claims(self, ks, L):
        return [Certificate(bnd.CLASSIC, 0.0)] if L == self.L else []


@dataclass
class NesterovPolicy(StepSizePolicy):
    """Step R / (||g_s|| * sqrt(s)) normalized by the current subgradient.

    A zero subgradient is a solver stopping condition, never a step. Only the
    step-weighted mean (k = -1, where w_s / eta_s = 1) is certified.
    """

    R: float

    def __post_init__(self):
        require_positive(self.R, "R")
        self.label = "nesterov"

    def step_size(self, s: int, g_norm: float) -> float:
        if g_norm == 0:
            raise ZeroSubgradientError("step size undefined for a zero subgradient")
        return self.R / (g_norm * s ** 0.5)

    def claims(self, ks, L):
        return [Certificate(bnd.NESTEROV, -1.0)] if L is not None else []

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
    nonincreasing_steps = True
    tracks_G = True

    def __post_init__(self):
        require_positive(self.R, "R")
        if not 0.0 <= self.a <= 1.0:
            raise InvalidParameterError(f"a must lie in [0, 1], got {self.a!r}")
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

    def claims(self, ks, L):
        return [Certificate(bnd.FAMILY, 0.0), *(Certificate(bnd.weak_label(k), k) for k in ks)]
