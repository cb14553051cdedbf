"""Monte-Carlo achievable-rate bounds for coherent impulse-radio UWB links
with impulsive multi-user interference.

The library estimates a random-coding lower bound (threshold decoding on the
pairwise codeword overlap) and a genie-aided mutual-information upper bound
for a binary duty-cycled PPM-style link whose interferers share the same
radio. All randomness is counter-based: results are reproducible bit-for-bit
from a single seed.
"""

from .bounds import (BoundEstimate, ErrorProbabilityBound, LowerBoundProfile,
                     draw_h1, error_probability_bound, log_distance_probs,
                     lower_bound, upper_bound)
from .config import ConfigError, SweepSpec, effective_config, load_config, spec_from_mapping
from .mc import LogAccumulator, normal_qq_corr, substream
from .model import (H1_MODES, InvalidParameterError, ScenarioConfig, sample_channel,
                    sample_symbols)

__version__ = "0.1.0"

__all__ = [
    "BoundEstimate", "ConfigError", "ErrorProbabilityBound", "H1_MODES",
    "InvalidParameterError", "LogAccumulator", "LowerBoundProfile",
    "ScenarioConfig", "SweepSpec", "draw_h1", "effective_config",
    "error_probability_bound", "load_config", "log_distance_probs", "lower_bound",
    "normal_qq_corr", "sample_channel", "sample_symbols", "spec_from_mapping",
    "substream", "upper_bound", "__version__",
]
