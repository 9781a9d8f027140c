"""Traffic shaping and jitter analysis for RTP-style media streams."""

from .model import (MediaPacket, StreamTrace, TraceFormatError, TraceValidationError,
                    Violation, check_trace, read_trace_csv, validate_trace,
                    write_trace_csv)
from .pcap import (PcapError, PcapFormatError, PcapLinkTypeError,
                   PcapTruncatedError, import_pcap)
from .shaping import (LeakyBucketConfig, Occupancy, OccupancySample, PipelineStageError,
                      ShapeResult, ShaperConfig, ShapingPreconditionError,
                      TokenBucketConfig, leaky_bucket_shape, run_pipeline,
                      token_bucket_shape)
from .traffic import (AudioGenConfig, ChannelModel, ExponentialJitter,
                      GenerationError, NoJitter, UniformJitter, VideoGenConfig,
                      apply_channel, generate_audio, generate_video)
from .metrics import (ComparisonReport, InconsistentInputError,
                      InsufficientDataError, MetricPreconditionError,
                      MetricsReport, compare, format_decimal, interarrival_jitter,
                      loss, metrics_report, pdv, throughput)
from .reporting import Panel, panel_report, render_svg
from .scenario import ConfigError, ScenarioConfig, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "MediaPacket", "StreamTrace", "TraceFormatError",
    "TraceValidationError", "Violation", "check_trace", "read_trace_csv",
    "validate_trace", "write_trace_csv",
    "PcapError", "PcapFormatError", "PcapLinkTypeError", "PcapTruncatedError",
    "import_pcap",
    "LeakyBucketConfig", "Occupancy", "OccupancySample", "PipelineStageError", "ShapeResult",
    "ShaperConfig", "ShapingPreconditionError", "TokenBucketConfig",
    "leaky_bucket_shape", "run_pipeline", "token_bucket_shape",
    "AudioGenConfig", "ChannelModel", "ExponentialJitter", "GenerationError",
    "NoJitter", "UniformJitter", "VideoGenConfig", "apply_channel",
    "generate_audio", "generate_video",
    "ComparisonReport", "InconsistentInputError", "InsufficientDataError",
    "MetricPreconditionError", "MetricsReport", "compare", "format_decimal",
    "interarrival_jitter", "loss", "metrics_report", "pdv", "throughput",
    "Panel", "panel_report", "render_svg",
    "ConfigError", "ScenarioConfig", "parse_scenario",
]
