"""The package's public names: each module's __all__, re-exported by faceflow."""

from __future__ import annotations

import importlib

import pytest

import faceflow

MODULE_NAMES = {
    "imageio": {
        "Image", "FrameSequence", "decode_pgm", "decode_ppm", "encode_pgm", "load_sequence",
    },
    "regions": {
        "GridSpec", "RegionMap", "make_grid", "cell_of_pixel", "region_mask",
        "parse_region_map", "default_region_map", "default_region_text",
    },
    "flow": {
        "FlowParams", "GradientField", "FlowField", "gaussian_smooth",
        "spatiotemporal_gradients", "lucas_kanade", "pyramidal_lk", "sample_bilinear",
    },
    "intensity": {
        "FlowVector", "IntensitySeries", "displacement_magnitude", "region_mean_magnitude",
        "intensity_series",
    },
    "analysis": {
        "AnalysisParams", "RegionEvents", "ExpressionReport", "detect_events",
        "rank_regions", "build_report",
    },
    "synth": {"GroundTruth", "RegionMotion", "make_texture", "translate_sequence",
              "synth_expression"},
    "errors": {"FaceflowError", "DataError", "ConfigError"},
}


def test_package_names_are_pinned():
    expected = {"__version__"}.union(*MODULE_NAMES.values())
    assert len(expected) == 42
    assert len(faceflow.__all__) == len(set(faceflow.__all__))
    assert set(faceflow.__all__) == expected
    for name in faceflow.__all__:
        assert hasattr(faceflow, name), name


@pytest.mark.parametrize("module", sorted(MODULE_NAMES))
def test_module_names_are_pinned_and_reexported(module):
    mod = importlib.import_module(f"faceflow.{module}")
    assert set(mod.__all__) == MODULE_NAMES[module]
    for name in mod.__all__:
        assert getattr(faceflow, name) is getattr(mod, name), name


def test_flow_support_stays_internal():
    # Shared by flow and intensity, importable from faceflow.flow only.
    assert "flow_support" not in faceflow.__all__
    assert not hasattr(faceflow, "flow_support")
    assert callable(importlib.import_module("faceflow.flow").flow_support)


def test_errors_are_two_categories_under_one_base():
    errors = importlib.import_module("faceflow.errors")
    assert errors.__all__ == ["FaceflowError", "DataError", "ConfigError"]
    assert issubclass(errors.DataError, errors.FaceflowError)
    assert issubclass(errors.ConfigError, errors.FaceflowError)
    # argparse treats a ValueError from a type converter as its own usage
    # error, which would replace the message of a ConfigError raised there.
    assert not issubclass(errors.ConfigError, ValueError)
    assert not issubclass(errors.DataError, ValueError)
