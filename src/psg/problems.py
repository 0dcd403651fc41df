"""Bundled test problems: analytic nonsmooth objectives and a synthetic Lasso generator.

All oracles return the minimal-norm element wherever the subdifferential is
not a singleton (in particular sign(0) = 0 for every l1 term), and every
random quantity is drawn from one seeded ``numpy.random.default_rng``
(PCG64) generator, so instances are bit-reproducible for a given seed. A
Lasso of one's own data is
``LassoInstance(phi, y, lam, radius, seed).to_problem()``; the package
reads no instance file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameterError, ProblemInstance, SubgradientResult, require_positive
from .projection import Ball, Box


def make_sqrt_example() -> ProblemInstance:
    """1-D problem f(x) = -sqrt(x) on [0, 1].

    Convex on its domain but with unbounded subgradient norm near 0: no
    Lipschitz bound exists, so the constant and classic step rules do not
    apply. The subdifferential at x = 0 is empty; starting there stops the
    solver immediately. Optimum x* = 1 with f* = -1.
    """
    def oracle(x: np.ndarray) -> SubgradientResult:
        v = float(x[0])
        if v <= 0.0:
            return SubgradientResult(value=0.0, subgradient=None)
        root = math.sqrt(v)
        return SubgradientResult(value=-root, subgradient=np.array([-0.5 / root]))

    return ProblemInstance(
        name="sqrt-example",
        dimension=1,
        oracle=oracle,
        projector=Box(lower=np.zeros(1), upper=np.ones(1)),
        radius_R=1.0,
        lipschitz_L=None,
        known_optimum_value=-1.0,
        known_optimum_point=np.ones(1),
    )


def make_abs_problem(dim: int) -> ProblemInstance:
    """f(x) = ||x||_1 on the box [-1, 1]^dim.

    Canonical nonsmooth test with known optimum 0 at the origin; the
    componentwise sign subgradient (sign(0) = 0) is the minimal-norm
    element, so ||g|| <= sqrt(dim) = L and the feasible set sits inside the
    ball of radius sqrt(dim) around the optimum.
    """
    if dim < 1:
        raise InvalidParameterError("dim must be >= 1")

    def oracle(x: np.ndarray) -> SubgradientResult:
        return SubgradientResult(value=float(np.abs(x).sum()),
                                 subgradient=np.sign(x))

    root_dim = math.sqrt(dim)
    return ProblemInstance(
        name=f"abs{dim}",
        dimension=dim,
        oracle=oracle,
        projector=Box(lower=-np.ones(dim), upper=np.ones(dim)),
        radius_R=root_dim,
        lipschitz_L=root_dim,
        known_optimum_value=0.0,
        known_optimum_point=np.zeros(dim),
    )


@dataclass(frozen=True)
class LassoInstance:
    """Data of a ball-constrained Lasso problem min ||y - Phi x||^2 + lam ||x||_1."""

    phi: np.ndarray
    y: np.ndarray
    lam: float
    radius: float
    seed: int

    def __post_init__(self):
        if self.phi.ndim != 2:
            raise InvalidParameterError("phi must be a matrix")
        if self.y.shape != (self.phi.shape[0],):
            raise InvalidParameterError("y length must match the rows of phi")
        if not (np.all(np.isfinite(self.phi)) and np.all(np.isfinite(self.y))):
            raise InvalidParameterError("phi and y must be finite")
        require_positive(self.lam, "lam")
        require_positive(self.radius, "radius")

    @property
    def n(self) -> int:
        return self.phi.shape[1]

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    def to_problem(self) -> ProblemInstance:
        """Build the oracle/projector view of this instance.

        The objective value is ||y - Phi x||^2 + lam * ||x||_1 and the
        subgradient 2 Phi^T (Phi x - y) + lam * sign(x); no Lipschitz bound
        is attached (subgradient norms over the ball depend on the random
        matrix and are not estimated).

        The two matvecs and the value's ``r . r`` call ``ndarray.dot`` on a
        C-contiguous Phi: the bits of ``Phi @ x``, ``Phi.T @ r`` and
        ``r @ r``, without the matmul dispatch. A strided Phi is copied
        first; a generated one is already contiguous. The l1 term
        is ``lam * (sign(x) . x)``, one BLAS dot on the sign vector that the
        subgradient needs: each product sign(x_i) x_i is |x_i| exactly, and
        the sum is within n 2^-53 ||x||_1 of the exact one.
        """
        phi, y, lam = np.ascontiguousarray(self.phi), self.y, self.lam
        phi_t = phi.T

        # In-place updates of the fresh matvec results and sign vector give
        # the same bits as phi @ x - y and 2 (phi^T r) + lam sign(x) without
        # spare temporaries. No doubled copy of phi is kept: at m=300, n=512
        # the two copies overflow a 2 MB L2 cache and each call gets slower.
        def oracle(x: np.ndarray) -> SubgradientResult:
            r = phi.dot(x)
            r -= y
            sign = np.sign(x)
            value = float(r.dot(r)) + lam * float(sign.dot(x))
            grad = phi_t.dot(r)
            grad *= 2.0
            sign *= lam
            grad += sign
            return SubgradientResult(value, grad)

        return ProblemInstance(
            name=f"lasso_n{self.n}_m{self.m}_seed{self.seed}",
            dimension=self.n,
            oracle=oracle,
            projector=Ball(center=np.zeros(self.n), radius=self.radius),
            radius_R=self.radius,
        )


def generate_lasso(seed: int, n: int, m: int, radius: float = 50.0,
                   lam: float = 10.0) -> LassoInstance:
    """Draw a synthetic Lasso instance from the seeded generator.

    Phi has i.i.d. standard normal entries. The observations are
    y = Phi x0 + noise, where x0 is sparse with ceil(n/16) nonzero entries
    of value +-1 at uniformly chosen coordinates and the noise is i.i.d.
    normal with standard deviation 0.01. Draw order (Phi, support, signs,
    noise) is fixed so instances are reproducible bit for bit.
    """
    if n < 1 or m < 1:
        raise InvalidParameterError("n and m must be >= 1")
    if seed < 0:  # numpy's generator takes no negative seed
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((m, n))
    nnz = -(-n // 16)
    support = rng.choice(n, size=nnz, replace=False)
    signs = rng.integers(0, 2, size=nnz) * 2.0 - 1.0
    x0 = np.zeros(n)
    x0[support] = signs
    y = phi @ x0 + 0.01 * rng.standard_normal(m)
    return LassoInstance(phi=phi, y=y, lam=float(lam), radius=float(radius),
                         seed=int(seed))


def make_lasso(seed: int, n: int, m: int, radius: float = 50.0,
               lam: float = 10.0) -> ProblemInstance:
    """Convenience wrapper: generate an instance and return its problem view."""
    return generate_lasso(seed, n, m, radius, lam).to_problem()


def reference_optimum_value(problem: ProblemInstance, iterations: int) -> float:
    """Upper estimate of the optimum from a long norm-adaptive run.

    Runs the family rule (exponent a = 1) from the origin for `iterations`
    steps as the lean run, with no averages tracked (``weight_ks=()``), so
    it costs at most one oracle call per iteration run (none for an iterate
    equal to the last point evaluated), and returns the best objective value
    seen. The result is >= the
    true optimum. A library helper; the CLI does not use it, because a gap
    measured against it understates the true gap. A run that knows no
    optimum brackets f* from its own oracle calls instead (see
    :func:`psg.solver.run`).
    """
    from .solver import SolverConfig, run
    from .stepsize import FamilyPolicy

    config = SolverConfig(
        max_iterations=iterations,
        initial_point=np.zeros(problem.dimension),
        policy=FamilyPolicy(R=problem.radius_R),
        weight_ks=(),
    )
    report, _ = run(problem, config)
    return report.best_value
