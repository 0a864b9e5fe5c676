"""Event-camera processing frontend.

Constant-event-count multi-channel time surfaces, keypoint detection
(learned forward pass or classical fallback), quantized descriptor
matching, and an asynchronous snapshot pipeline tying them together.
"""

from .events import (EventBatch, MotionSpec, SensorGeometry,
                     StreamFormatError, corner_positions, linear_warp,
                     parse_events, synthesize, write_events)
from .surface import (EventCountRing, MctsTensor, MotionInvarianceReport,
                      TimestampGrid, WindowSpec, adaptive_windows,
                      apply_events, mcts, motion_invariance_report,
                      normalized_counts_to_absolute, read_mcts, time_surface,
                      write_mcts, write_pgm)
from .detect import (Descriptors, KeypointSet, NetworkSpec, WeightBundle,
                     classical_detect, detector_probabilities, forward,
                     interpolate_descriptors, load_weights, nms,
                     random_weights, save_weights)
from .matching import (Match, QuantizedDescriptors, distance_matrix,
                       match_mutual_nn, quantize, verify_matches)
from .pipeline import (FrameResult, Metrics, PipelineConfig, ReplaySource,
                       SharedSurfaceState, Snapshot, freeze_snapshot,
                       frontend_step, preprocess_tick, run_pipeline)

__version__ = "0.1.0"

__all__ = [
    "EventBatch", "MotionSpec", "SensorGeometry",
    "StreamFormatError", "corner_positions", "linear_warp",
    "parse_events", "synthesize", "write_events",
    "EventCountRing", "MctsTensor", "MotionInvarianceReport", "TimestampGrid",
    "WindowSpec", "adaptive_windows", "apply_events", "mcts",
    "motion_invariance_report", "normalized_counts_to_absolute", "read_mcts",
    "time_surface", "write_mcts", "write_pgm",
    "Descriptors", "KeypointSet", "NetworkSpec", "WeightBundle",
    "classical_detect", "detector_probabilities", "forward",
    "interpolate_descriptors", "load_weights", "nms", "random_weights",
    "save_weights",
    "Match", "QuantizedDescriptors", "distance_matrix", "match_mutual_nn",
    "quantize", "verify_matches",
    "FrameResult", "Metrics", "PipelineConfig", "ReplaySource",
    "SharedSurfaceState", "Snapshot", "freeze_snapshot", "frontend_step",
    "preprocess_tick", "run_pipeline",
]
