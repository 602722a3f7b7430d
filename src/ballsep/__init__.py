"""Separation probabilities for ball pairs under partly random hyperplanes."""

from .errors import BallsepError, InternalConsistencyError
from .geometry import (
    Ball,
    SeparationInstance,
    exists_separating_bias_batch,
    make_instance,
    separates_batch,
    symmetric_instance,
)
from .montecarlo import (
    DEFAULT_SEED,
    Estimate,
    McConfig,
    estimate_p_full,
    estimate_p_weight,
)
from .probability import (
    SeparationReport,
    asymptotic_envelope,
    lemma_bounds,
    p_fully_random,
    p_random_bias,
    p_random_weight,
    separation_report,
)
from .specfun import log_beta
from .tessellation import MODES, achieved_confidence, estimate_all_pairs, width_for_confidence

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BallsepError",
    "DEFAULT_SEED",
    "Estimate",
    "InternalConsistencyError",
    "MODES",
    "McConfig",
    "SeparationInstance",
    "SeparationReport",
    "achieved_confidence",
    "asymptotic_envelope",
    "estimate_all_pairs",
    "estimate_p_full",
    "estimate_p_weight",
    "exists_separating_bias_batch",
    "lemma_bounds",
    "log_beta",
    "make_instance",
    "p_fully_random",
    "p_random_bias",
    "p_random_weight",
    "separates_batch",
    "separation_report",
    "symmetric_instance",
    "width_for_confidence",
    "__version__",
]
