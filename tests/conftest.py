import math

import numpy as np
import pytest

from psg import Ball, Box, ProblemInstance, SubgradientResult, make_abs_problem, project


def sample_feasible(projector, rng, count=1):
    """Random feasible points for a Ball or Box operator, shape (count, dim)."""
    if isinstance(projector, Box):
        return rng.uniform(projector.lower, projector.upper, size=(count, projector.dimension))
    dim = projector.dimension
    directions = rng.standard_normal((count, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = projector.radius * rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return projector.center + directions * radii


def feasibility_residual(op, x) -> float:
    """Distance from `x` to the feasible set of `op` (0 for feasible points)."""
    return float(np.linalg.norm(project(op, x) - x))


def reference_power(u: float, e: float) -> float:
    """Python-float u ** e as psg.core.power forms it: sqrt and products for a half-integer e.

    sqrt(u) (1 when 2e is even) times u, u^2, u^4, ... for the set bits of
    |2e| // 2, lowest first, inverted last when e < 0; any other e is
    Python's pow, inf where it overflows.
    """
    j = 2.0 * e
    if not j.is_integer():
        try:
            return u ** e
        except OverflowError:
            return math.inf
    n = abs(int(j))
    result, m = (math.sqrt(u) if n % 2 else 1.0), n // 2
    while m:
        if m & 1:
            result *= u
        m >>= 1
        if m:
            u *= u
    return 1.0 / result if j < 0 else result


def assert_trace_invariants(trace):
    """Invariants every non-restarted trace must satisfy."""
    assert np.all(np.diff(trace["s"]) > 0), "iteration index must be strictly increasing"
    assert np.array_equal(trace["f_best"], np.minimum.accumulate(trace["f_x"]))
    assert np.all(trace["eta"] > 0)
    big_g = trace["G"][~np.isnan(trace["G"])]
    assert np.all(np.diff(big_g) >= 0), "G must be nondecreasing"


def make_two_slope_problem():
    """f(x) = max(|x| - 1/2, 2|x| - 1) on [-1, 1]: slope 1 near 0, slope 2 outside.

    The subgradient norm grows when an iterate overshoots past |x| = 1/2,
    which makes this the smallest problem whose running norm maximum can
    grow mid-run (useful for exercising the restart trigger). Optimum at 0
    with value -1/2.
    """

    def oracle(x):
        v = abs(float(x[0]))
        value = max(v - 0.5, 2.0 * v - 1.0)
        slope = (1.0 if v <= 0.5 else 2.0) * np.sign(x[0])
        return SubgradientResult(value=value, subgradient=np.array([slope]))

    return ProblemInstance(
        name="two-slope",
        dimension=1,
        oracle=oracle,
        projector=Box(lower=-np.ones(1), upper=np.ones(1)),
        radius_R=1.0,
        lipschitz_L=2.0,
        known_optimum_value=-0.5,
        known_optimum_point=np.zeros(1),
    )


def make_resisting_problem(k: int, R: float, L: float) -> ProblemInstance:
    """Nesterov's resisting instance (Introductory Lectures, 2004, section 3.2.1).

    f(x) = gamma max_{i<=k} x_i + (mu/2) ||x||^2 on Ball(0, R) in R^k, with
    gamma = L sqrt(k) / (1 + sqrt(k)) and mu = L / (R (1 + sqrt(k))), so that
    ||g|| <= L on the ball. Its subgradient is gamma e_i* + mu x, i* the first
    index that attains the max. The optimum x* = -(gamma / (mu k)) sum e_i
    lies on the sphere ||x*|| = R, with f* = -L R / (2 (1 + sqrt(k))), so the
    ball lies within 2R of it. From x_1 = 0 the iterates after s steps lie in
    span(e_1..e_s): below t = k steps every average keeps a gap of at least
    L R / (2 (1 + sqrt(k))), which the bounds must stay above.
    """
    root = math.sqrt(k)
    gamma, mu = L * root / (1.0 + root), L / (R * (1.0 + root))

    def oracle(x):
        i = int(np.argmax(x))
        g = mu * x
        g[i] += gamma
        return SubgradientResult(value=gamma * float(x[i]) + 0.5 * mu * float(x.dot(x)),
                                 subgradient=g)

    return ProblemInstance(
        name=f"resisting{k}",
        dimension=k,
        oracle=oracle,
        projector=Ball(center=np.zeros(k), radius=R),
        radius_R=2.0 * R,
        lipschitz_L=L,
        known_optimum_value=-L * R / (2.0 * (1.0 + root)),
        known_optimum_point=np.full(k, -gamma / (mu * k)),
    )


class ProjectOnly:
    """A feasible set that projects but has no ``min_linear``: no run can bracket f* on it."""

    def __init__(self, projector):
        self.dimension = projector.dimension
        self.project = projector.project


def make_project_only_problem():
    """||x||_1 on [-1, 1]^2 with f* hidden and a projector without ``min_linear``."""
    base = make_abs_problem(2)
    return ProblemInstance(name="anon", dimension=2, oracle=base.oracle,
                           projector=ProjectOnly(base.projector), radius_R=base.radius_R)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
