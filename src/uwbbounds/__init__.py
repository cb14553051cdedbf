"""Monte-Carlo achievable-rate bounds for coherent impulse-radio UWB links
with impulsive multi-user interference.

The library estimates a random-coding lower bound (threshold decoding on the
pairwise codeword overlap) and a genie-aided mutual-information upper bound
for a binary duty-cycled PPM-style link whose interferers share the same
radio. All randomness is counter-based: results are reproducible bit-for-bit
from a single seed.
"""

from .bounds import BoundEstimate, LowerBoundProfile, lower_bound, upper_bound
from .config import ConfigError, SweepSpec, effective_config, load_config, spec_from_mapping
from .model import H1_MODES, InvalidParameterError, InvalidTypeError, ScenarioConfig

__version__ = "0.1.0"

__all__ = [
    "BoundEstimate", "ConfigError", "H1_MODES", "InvalidParameterError", "InvalidTypeError",
    "LowerBoundProfile", "ScenarioConfig", "SweepSpec", "effective_config", "load_config",
    "lower_bound", "spec_from_mapping", "upper_bound", "__version__",
]
