"""Projected subgradient solvers with norm-adaptive step sizes and certificates.

The package solves constrained nonsmooth convex problems with the projected
subgradient iteration x_{s+1} = project(x_s - eta_s g_s) and provides:

* four step-size rules (:mod:`psg.stepsize`), including a norm-adaptive
  family that needs no Lipschitz constant and keeps the optimal 1/sqrt(t)
  ergodic rate even for objectives with unbounded subgradients;
* streaming weighted-iterate averaging and best-iterate tracking
  (:mod:`psg.averaging`);
* evaluators for every supported convergence bound and their use as
  runtime certificates checked along the run (:mod:`psg.bounds`);
* ball/box projections (:mod:`psg.projection`), bundled test problems and a
  synthetic Lasso generator (:mod:`psg.problems`), and a batch experiment
  CLI (:mod:`psg.cli`).
"""

from .averaging import StreamingAverage, WeightRule
from .bounds import (
    classic_bound,
    constant_bound,
    family_bound,
    nesterov_bound,
    weak_ergodic_bound,
)
from .core import (
    ABS_TOL,
    REL_TOL,
    InvalidParameterError,
    NumericError,
    ProblemInstance,
    RunReport,
    ShapeError,
    StopReason,
    SubgradientResult,
    ZeroSubgradientError,
)
from .problems import (
    LassoInstance,
    generate_lasso,
    load_lasso_csv,
    make_abs_problem,
    make_lasso,
    make_sqrt_example,
    save_lasso_csv,
)
from .projection import Ball, Box, project
from .solver import SolverConfig, run
from .stepsize import (
    ClassicPolicy,
    ConstantPolicy,
    FamilyPolicy,
    NesterovPolicy,
    StepSizePolicy,
)

__version__ = "0.1.0"

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "Ball",
    "Box",
    "ClassicPolicy",
    "ConstantPolicy",
    "FamilyPolicy",
    "InvalidParameterError",
    "LassoInstance",
    "NesterovPolicy",
    "NumericError",
    "ProblemInstance",
    "RunReport",
    "ShapeError",
    "SolverConfig",
    "StepSizePolicy",
    "StopReason",
    "StreamingAverage",
    "SubgradientResult",
    "WeightRule",
    "ZeroSubgradientError",
    "classic_bound",
    "constant_bound",
    "family_bound",
    "generate_lasso",
    "load_lasso_csv",
    "make_abs_problem",
    "make_lasso",
    "make_sqrt_example",
    "nesterov_bound",
    "project",
    "run",
    "save_lasso_csv",
    "weak_ergodic_bound",
]
