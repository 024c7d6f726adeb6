"""Facial-region motion intensity from dense Lucas-Kanade optical flow.

The pipeline: decode a frame sequence (imageio), compute dense flow between
frame pairs (flow), segment the frame into a grid of named facial regions
(regions), reduce each flow field to per-region mean displacement magnitudes
(intensity), and extract onset/apex/offset events and region rankings from
the resulting time series (analysis). The synth module generates sequences
with exactly known motion for testing, and cli wires everything into the
faceflow command.
"""

from .analysis import (
    AnalysisParams,
    ExpressionReport,
    RegionEvents,
    build_report,
    detect_events,
    rank_regions,
    smooth_series,
)
from .errors import (
    AmplitudeTooLarge,
    CellOutOfGrid,
    ConfigError,
    DataError,
    DegenerateGrid,
    DimensionMismatch,
    EmptySequence,
    EmptySeries,
    EvenWindow,
    ExcessiveShift,
    FaceflowError,
    InvalidThreshold,
    MalformedHeader,
    OutOfBounds,
    OverlappingCells,
    ParseError,
    PyramidTooDeep,
    SeriesFormatError,
    TooSmall,
    TruncatedPayload,
    UnknownRegion,
    UnsupportedMaxval,
)
from .flow import (
    FlowField,
    FlowParams,
    GradientField,
    gaussian_smooth,
    lucas_kanade,
    pyramidal_lk,
    sample_bilinear,
    spatiotemporal_gradients,
)
from .imageio import (
    FrameSequence,
    Image,
    RgbImage,
    decode_pgm,
    decode_ppm,
    encode_pgm,
    load_sequence,
    rgb_to_gray,
)
from .intensity import (
    FlowVector,
    IntensitySeries,
    displacement_magnitude,
    intensity_series,
    region_mean_magnitude,
)
from .regions import (
    GridSpec,
    RegionMap,
    cell_of_pixel,
    default_region_map,
    default_region_text,
    make_grid,
    parse_region_map,
    region_mask,
)
from .synth import (
    GroundTruth,
    RegionMotion,
    make_texture,
    synth_expression,
    translate_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # imageio
    "Image",
    "RgbImage",
    "FrameSequence",
    "decode_pgm",
    "decode_ppm",
    "encode_pgm",
    "rgb_to_gray",
    "load_sequence",
    # regions
    "GridSpec",
    "RegionMap",
    "make_grid",
    "cell_of_pixel",
    "region_mask",
    "parse_region_map",
    "default_region_map",
    "default_region_text",
    # flow
    "FlowParams",
    "FlowField",
    "GradientField",
    "gaussian_smooth",
    "spatiotemporal_gradients",
    "lucas_kanade",
    "pyramidal_lk",
    "sample_bilinear",
    # intensity
    "FlowVector",
    "IntensitySeries",
    "displacement_magnitude",
    "region_mean_magnitude",
    "intensity_series",
    # analysis
    "AnalysisParams",
    "RegionEvents",
    "ExpressionReport",
    "smooth_series",
    "detect_events",
    "rank_regions",
    "build_report",
    # synth
    "GroundTruth",
    "RegionMotion",
    "make_texture",
    "translate_sequence",
    "synth_expression",
    # errors
    "FaceflowError",
    "DataError",
    "ConfigError",
    "MalformedHeader",
    "TruncatedPayload",
    "UnsupportedMaxval",
    "EmptySequence",
    "DimensionMismatch",
    "PyramidTooDeep",
    "DegenerateGrid",
    "OutOfBounds",
    "UnknownRegion",
    "ParseError",
    "OverlappingCells",
    "CellOutOfGrid",
    "EvenWindow",
    "InvalidThreshold",
    "EmptySeries",
    "TooSmall",
    "ExcessiveShift",
    "AmplitudeTooLarge",
    "SeriesFormatError",
]
