"""Depression screening from SDS questionnaires and per-question face video.

Input: one frames file per question holding face-cropped grayscale frames
already at the model's input size; face cropping, resizing and grayscale
conversion happen before sdscreen.

Pipeline: variable-length question videos are cut into half-overlapping
10-frame clips, a 3D CNN encodes each clip, redundancy-aware self-attention
pools clips into one feature per question, and a fully-connected head fuses
the 20 question features with each question's answer choice and answering
time into a subject-level depression probability.
"""

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    FormatError,
    NumericError,
    SdscreenError,
    ShapeError,
    UndefinedMetricError,
)

__version__ = "0.1.0"

__all__ = [
    "SdscreenError",
    "ConfigError",
    "ContractError",
    "ShapeError",
    "UndefinedMetricError",
    "NumericError",
    "FormatError",
    "DataError",
    "__version__",
]
