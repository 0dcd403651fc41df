"""Bundled test problems: analytic nonsmooth objectives and a synthetic Lasso generator.

All oracles return the minimal-norm element wherever the subdifferential is
not a singleton (in particular sign(0) = 0 for every l1 term), and every
random quantity is drawn from one seeded ``numpy.random.default_rng``
(PCG64) generator, so instances are bit-reproducible for a given seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameterError, ProblemInstance, SubgradientResult
from .projection import Ball, Box


def make_sqrt_example() -> ProblemInstance:
    """1-D problem f(x) = -sqrt(x) on [0, 1].

    Convex on its domain but with unbounded subgradient norm near 0: no
    Lipschitz bound exists, so the constant and classic step rules do not
    apply. The subdifferential at x = 0 is empty; starting there stops the
    solver immediately. Optimum x* = 1 with f* = -1.

    The oracle returns an empty image and the problem a row-wise
    ``value_at_image`` that reads the value from x alone, so a run values its
    averages without oracle calls. A copy with another oracle
    (``dataclasses.replace(problem, oracle=...)``) must also set
    ``value_at_image=None``, or its averages keep the values of this one.
    """
    no_image = np.empty(0)

    def oracle(x: np.ndarray) -> SubgradientResult:
        v = float(x[0])
        if v <= 0.0:
            return SubgradientResult(value=0.0, subgradient=None)
        root = math.sqrt(v)
        return SubgradientResult(value=-root, subgradient=np.array([-0.5 / root]),
                                 image=no_image)

    def value_at_image(x: np.ndarray, z: np.ndarray):
        # the oracle's value row by row: np.sqrt and math.sqrt both round
        # correctly, and the other branch gives +0.0 as the oracle does
        v = x[..., 0]
        return np.where(v > 0.0, -np.sqrt(np.maximum(v, 0.0)), 0.0)

    return ProblemInstance(
        name="sqrt-example",
        dimension=1,
        oracle=oracle,
        projector=Box(lower=np.zeros(1), upper=np.ones(1)),
        radius_R=1.0,
        lipschitz_L=None,
        known_optimum_value=-1.0,
        known_optimum_point=np.ones(1),
        value_at_image=value_at_image,
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
        if not self.lam > 0:
            raise InvalidParameterError("lam must be positive")
        if not self.radius > 0:
            raise InvalidParameterError("radius must be positive")

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
        matrix and are not estimated). The oracle also returns the residual
        r = Phi x - y as its image, and the value at an averaged point is
        computed from the averaged residual without a matvec.

        The two matvecs and the value's ``r . r`` call ``ndarray.dot`` on a
        C-contiguous Phi: the bits of ``Phi @ x``, ``Phi.T @ r`` and
        ``r @ r``, without the matmul dispatch. A strided Phi (the column
        view :func:`load_lasso_csv` returns) is copied first, so a loaded
        instance gives the bits of the generated one it was saved from.
        """
        phi, y, lam = np.ascontiguousarray(self.phi), self.y, self.lam
        phi_t = phi.T

        def value_at_image(x: np.ndarray, r: np.ndarray):
            # np.abs(x).sum() without the wrapper: the same pairwise reduction.
            # The oracle calls this on one point per step, where the 1-D
            # expression is cheapest.
            if r.ndim == 1:
                return float(r.dot(r)) + lam * float(np.add.reduce(np.abs(x)))
            # Rows of a stack, each bit for bit the 1-D value: a batched
            # 1 x m @ m x 1 matmul takes the same dot as r.dot(r) (einsum does not)
            return ((r[..., None, :] @ r[..., :, None])[..., 0, 0]
                    + lam * np.add.reduce(np.abs(x), axis=-1))

        # In-place updates of the fresh matvec results give the same bits as
        # phi @ x - y and 2 (phi^T r) + lam sign(x) without spare temporaries.
        # No doubled copy of phi is kept: at m=300, n=512 the two copies
        # overflow a 2 MB L2 cache and each call gets slower.
        def oracle(x: np.ndarray) -> SubgradientResult:
            r = phi.dot(x)
            r -= y
            value = value_at_image(x, r)
            grad = phi_t.dot(r)
            grad *= 2.0
            grad += lam * np.sign(x)
            return SubgradientResult(value=value, subgradient=grad, image=r)

        return ProblemInstance(
            name=f"lasso_n{self.n}_m{self.m}_seed{self.seed}",
            dimension=self.n,
            oracle=oracle,
            projector=Ball(center=np.zeros(self.n), radius=self.radius),
            radius_R=self.radius,
            value_at_image=value_at_image,
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


def save_lasso_csv(instance: LassoInstance, path) -> None:
    """Write an instance to CSV for cross-run reuse.

    Line 1 is a comment carrying the scalars
    (``# lasso n=<n> m=<m> lambda=<lam> radius=<R> seed=<seed>``), line 2 a
    header, then one row per observation: ``y_i, phi_i1, ..., phi_in``, all
    floats printed with 17 significant digits (lossless for float64).
    """
    header = (f"# lasso n={instance.n} m={instance.m} lambda={instance.lam:.17g}"
              f" radius={instance.radius:.17g} seed={instance.seed}\n"
              + "y," + ",".join(f"phi_{j}" for j in range(instance.n)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack([instance.y, instance.phi]), fmt="%.17g",
                   delimiter=",", header=header, comments="")


def load_lasso_csv(path) -> LassoInstance:
    """Read an instance written by :func:`save_lasso_csv`.

    A malformed file raises :class:`InvalidParameterError` naming `path`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        meta = fh.readline()
        if not meta.startswith("# lasso "):
            raise InvalidParameterError(f"{path}: not a lasso instance file")
        fh.readline()  # header
        try:
            fields = dict(part.split("=", 1) for part in meta[len("# lasso "):].split())
            n, m, seed = int(fields["n"]), int(fields["m"]), int(fields["seed"])
            lam, radius = float(fields["lambda"]), float(fields["radius"])
            with warnings.catch_warnings():  # a file with no rows fails the shape check below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except KeyError as exc:
            raise InvalidParameterError(f"{path}: header lacks {exc}") from None
        except ValueError as exc:
            raise InvalidParameterError(f"{path}: malformed lasso file ({exc})") from None
    if data.shape != (m, n + 1):
        raise InvalidParameterError(f"{path}: inconsistent row data")
    return LassoInstance(phi=data[:, 1:], y=data[:, 0], lam=lam, radius=radius, seed=seed)


def reference_optimum_value(problem: ProblemInstance, iterations: int) -> float:
    """Upper estimate of the optimum from a long norm-adaptive run.

    Runs the family rule (exponent a = 1) from the origin for `iterations`
    steps as the lean run, with no averages tracked (``weight_ks=()``), so
    it costs exactly one oracle call per iteration run, and returns the
    best objective value seen. The result is >= the
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
        record_trace=False,
    )
    report, _ = run(problem, config)
    return report.best_value
