"""Bayesian estimation of graph signals with full posterior uncertainty.

Builds Gaussian priors from graph structure (smoothness or subspace
assumptions), fuses them with noisy, noise-free or partial observations in
information form, and returns posterior distributions whose covariance
resolves uncertainty by direction - including directions that are known
exactly and directions about which the data say nothing at all.
"""

from . import belief, graph_core, inference, sampling_eval, simulate
from .belief import *  # noqa: F401,F403
from .graph_core import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403
from .sampling_eval import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*belief.__all__, *graph_core.__all__, *inference.__all__, *sampling_eval.__all__,
           *simulate.__all__]
