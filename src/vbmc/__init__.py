"""Variational Bayesian Monte Carlo.

Sample-efficient joint estimation of a posterior distribution and a lower
bound on the model evidence for expensive black-box log-likelihoods, via
Gaussian-process Bayesian quadrature inside a variational objective.
"""

from .core import (
    Frame,
    InferenceResult,
    IterationRecord,
    ProblemSpec,
    VBMC,
    VBMCError,
    VBMCOptions,
)
from .transforms import ParameterTransform
from .variational import VariationalPosterior

__version__ = "0.1.0"

__all__ = [
    "VBMC",
    "VBMCError",
    "VBMCOptions",
    "ProblemSpec",
    "Frame",
    "InferenceResult",
    "IterationRecord",
    "ParameterTransform",
    "VariationalPosterior",
    "__version__",
]
