"""Streaming cross-frame correlation and evaluation for video polyp detection.

The package filters per-frame detector outputs with a sliding similarity-
gated window (removing transient false positives and interpolating missed
detections), scores results with polyp-level metrics, and generates
deterministic synthetic scenarios for verification.
"""

from .correlator import (
    CorrelationWindow,
    FilteredFrame,
    IscuConfig,
    StreamCorrelator,
    correct_missed,
    eliminate_noise,
    process_sequence,
)
from .errors import InputError, SequencingError
from .evaluation import (
    EvalReport,
    FrameOutcome,
    aggregate,
    evaluate_sequences,
    match_boxes,
    pdr,
)
from .geometry import (
    BoundingBox,
    BoxOrigin,
    FrameDetections,
    FrameMeta,
    GroundTruthBox,
    ScoredBox,
    adaptive_iou_threshold,
    clip_box,
    iou,
)
from .similarity import GrayFrame, SsimParams, prepare_luma, ssim, to_luma
from .synthetic import (
    ConfidenceModel,
    Scenario,
    ScenarioConfig,
    TrackSpec,
    generate_scenario,
    simulate_detector,
    standard_noise_config,
)

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "BoxOrigin",
    "ConfidenceModel",
    "CorrelationWindow",
    "EvalReport",
    "FilteredFrame",
    "FrameDetections",
    "FrameMeta",
    "FrameOutcome",
    "GrayFrame",
    "GroundTruthBox",
    "InputError",
    "IscuConfig",
    "Scenario",
    "ScenarioConfig",
    "ScoredBox",
    "SequencingError",
    "SsimParams",
    "StreamCorrelator",
    "TrackSpec",
    "adaptive_iou_threshold",
    "aggregate",
    "clip_box",
    "correct_missed",
    "eliminate_noise",
    "evaluate_sequences",
    "generate_scenario",
    "iou",
    "match_boxes",
    "pdr",
    "prepare_luma",
    "process_sequence",
    "simulate_detector",
    "ssim",
    "standard_noise_config",
    "to_luma",
]
