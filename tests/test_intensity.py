"""Displacement magnitudes, region means, and intensity time series."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import faceflow.intensity

from faceflow import (
    DimensionMismatch,
    EmptySequence,
    FlowParams,
    FlowVector,
    FrameSequence,
    Image,
    IntensitySeries,
    default_region_map,
    displacement_magnitude,
    intensity_series,
    make_grid,
    make_texture,
    parse_region_map,
    region_mask,
    region_mean_magnitude,
    synth_expression,
    translate_sequence,
    RegionMotion,
    UnknownRegion,
)
from faceflow.flow import FlowField


def uniform_field(height, width, u, v, valid=True):
    return FlowField(
        u=np.full((height, width), u),
        v=np.full((height, width), v),
        valid=np.full((height, width), valid, dtype=bool),
    )


class TestDisplacementMagnitude:
    def test_three_four_five(self):
        assert displacement_magnitude(FlowVector(xi=3.0, yi=4.0)) == 5.0

    def test_zero(self):
        assert displacement_magnitude(FlowVector(xi=0.0, yi=0.0)) == 0.0

    def test_sign_invariant(self):
        assert displacement_magnitude(FlowVector(xi=-3.0, yi=4.0)) == 5.0

    def test_reference_point_subtracted(self):
        vec = FlowVector(xi=5.0, yi=6.0, x=2.0, y=2.0)
        assert displacement_magnitude(vec) == 5.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FlowVector(xi=float("nan"), yi=0.0)


class TestRegionMeanMagnitude:
    def test_uniform_field_raw(self):
        field = uniform_field(10, 10, 0.6, 0.8)
        mask = np.ones((10, 10), dtype=bool)
        assert region_mean_magnitude(field, mask) == (1.0, 100)

    def test_uniform_field_normalized(self):
        field = uniform_field(480, 640, 0.6, 0.8)
        mask = np.ones((480, 640), dtype=bool)
        value, count = region_mean_magnitude(field, mask, normalize=True, diag=800.0)
        assert value == 0.00125
        assert count == 480 * 640

    def test_no_qualifying_pixels(self):
        field = uniform_field(4, 4, 1.0, 0.0, valid=False)
        mask = np.ones((4, 4), dtype=bool)
        assert region_mean_magnitude(field, mask) == (0.0, 0)

    def test_mask_disjoint_from_valid(self):
        field = uniform_field(4, 4, 1.0, 0.0)
        valid = np.zeros((4, 4), dtype=bool)
        valid[:2] = True
        field = FlowField(u=field.u, v=field.v, valid=valid)
        mask = np.zeros((4, 4), dtype=bool)
        mask[2:] = True
        assert region_mean_magnitude(field, mask) == (0.0, 0)

    def test_only_masked_valid_pixels_counted(self):
        u = np.zeros((4, 4))
        u[0, 0] = 3.0
        u[3, 3] = 100.0  # outside mask, must not contribute
        field = FlowField(u=u, v=np.zeros((4, 4)), valid=np.ones((4, 4), bool))
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, :2] = True
        assert region_mean_magnitude(field, mask) == (1.5, 2)

    def test_mask_shape_mismatch(self):
        field = uniform_field(4, 4, 0.0, 0.0)
        with pytest.raises(DimensionMismatch):
            region_mean_magnitude(field, np.ones((5, 4), dtype=bool))

    def test_normalize_requires_diag(self):
        field = uniform_field(4, 4, 0.0, 0.0)
        with pytest.raises(ValueError):
            region_mean_magnitude(field, np.ones((4, 4), bool), normalize=True)


class TestIntensitySeries:
    def test_identical_frames_zero_series(self):
        frame = make_texture(64, 64, seed=0)
        seq = FrameSequence((frame, frame, frame))
        grid = make_grid(64, 64, 6, 4)
        series = intensity_series(seq, grid, default_region_map())
        assert series.values.shape == (2, 3)
        assert np.array_equal(series.values, np.zeros((2, 3)))
        assert np.array_equal(series.frames, np.array([1, 2]))

    def test_all_values_nonnegative(self):
        base = make_texture(64, 64, seed=1)
        seq, _ = translate_sequence(base, 0.4, -0.2, 5)
        grid = make_grid(64, 64, 6, 4)
        series = intensity_series(seq, grid, default_region_map())
        assert (series.values >= 0).all()

    def test_normalization_is_exact_division(self):
        base = make_texture(64, 64, seed=2)
        seq, _ = translate_sequence(base, 0.5, 0.0, 4)
        grid = make_grid(64, 64, 6, 4)
        rmap = default_region_map()
        raw = intensity_series(seq, grid, rmap, normalize=False)
        norm = intensity_series(seq, grid, rmap, normalize=True)
        diag = np.hypot(64.0, 64.0)
        assert np.array_equal(norm.values, raw.values / diag)
        assert raw.units == "pixels" and norm.units == "normalized"

    def test_motion_localized_to_one_region(self):
        grid = make_grid(160, 120, 6, 4)
        rmap = default_region_map()
        motions = (RegionMotion("mouth", amplitude=2.0, onset=2, apex=6, offset=10),)
        seq, _ = synth_expression(160, 120, grid, rmap, motions, 12, seed=3)
        series = intensity_series(seq, grid, rmap)
        mouth = series.column("mouth")
        peak_frame = int(mouth.argmax())
        for other in ("eyes_eyebrows", "cheeks"):
            assert series.column(other)[peak_frame] <= 0.10 * mouth[peak_frame]

    def test_consecutive_mode_constant_velocity(self):
        base = make_texture(96, 96, seed=2)
        seq, _ = translate_sequence(base, 0.3, 0.0, 9)
        grid = make_grid(96, 96, 2, 2)
        rmap = parse_region_map("region all = r0c0, r0c1, r1c0, r1c1\n", rows=2, cols=2)
        series = intensity_series(seq, grid, rmap, mode="consecutive", normalize=False)
        values = series.column("all")
        assert values.std() / values.mean() < 0.2
        assert series.mode == "consecutive"

    def test_reference_mode_grows_with_displacement(self):
        base = make_texture(96, 96, seed=2)
        seq, _ = translate_sequence(base, 0.3, 0.0, 7)
        grid = make_grid(96, 96, 2, 2)
        rmap = parse_region_map("region all = r0c0, r0c1, r1c0, r1c1\n", rows=2, cols=2)
        series = intensity_series(seq, grid, rmap, mode="reference", normalize=False)
        values = series.column("all")
        assert (np.diff(values) > 0).all()

    def test_pyramid_params_used(self):
        base = make_texture(128, 128, seed=0)
        seq, _ = translate_sequence(base, 3.0, 0.0, 3)
        grid = make_grid(128, 128, 2, 2)
        rmap = parse_region_map("region all = r0c0, r0c1, r1c0, r1c1\n", rows=2, cols=2)
        single = intensity_series(seq, grid, rmap, FlowParams(), normalize=False)
        multi = intensity_series(
            seq, grid, rmap, FlowParams(pyramid_levels=3), normalize=False
        )
        # A 6-pixel displacement at frame 2 is far outside single-level range;
        # the coarse-to-fine estimate must land closer to the truth.
        assert abs(multi.column("all")[1] - 6.0) < 1.0
        assert abs(multi.column("all")[1] - 6.0) < abs(single.column("all")[1] - 6.0)

    def test_short_sequence_rejected(self):
        frame = make_texture(32, 32, seed=0)
        grid = make_grid(32, 32, 2, 2)
        rmap = parse_region_map("region a = r0c0\n", rows=2, cols=2)
        with pytest.raises(EmptySequence):
            intensity_series(FrameSequence((frame,)), grid, rmap)

    def test_grid_frame_mismatch(self):
        frame = make_texture(32, 32, seed=0)
        seq = FrameSequence((frame, frame))
        grid = make_grid(64, 64, 2, 2)
        rmap = parse_region_map("region a = r0c0\n", rows=2, cols=2)
        with pytest.raises(DimensionMismatch):
            intensity_series(seq, grid, rmap)

    def test_bad_mode_rejected(self):
        frame = make_texture(32, 32, seed=0)
        seq = FrameSequence((frame, frame))
        grid = make_grid(32, 32, 2, 2)
        rmap = parse_region_map("region a = r0c0\n", rows=2, cols=2)
        with pytest.raises(ValueError):
            intensity_series(seq, grid, rmap, mode="backwards")

    def test_column_lookup(self):
        series = IntensitySeries(
            regions=("a", "b"),
            frames=np.array([1, 2]),
            values=np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
        assert np.array_equal(series.column("b"), np.array([2.0, 4.0]))
        with pytest.raises(UnknownRegion):
            series.column("c")

    def test_counts_surface_valid_pixels(self):
        frame = make_texture(64, 64, seed=4)
        seq = FrameSequence((frame, frame))
        grid = make_grid(64, 64, 6, 4)
        rmap = default_region_map()
        series = intensity_series(seq, grid, rmap)
        assert series.counts is not None
        mask_sizes = [
            int(region_mask(grid, rmap, name).sum()) for name in rmap.names()
        ]
        assert series.counts[0].tolist() == mask_sizes


class TestConcurrentPairs:
    @pytest.mark.parametrize(
        "mode, levels", [("reference", 1), ("consecutive", 1), ("reference", 3)]
    )
    def test_worker_count_does_not_change_the_series(self, monkeypatch, mode, levels):
        grid = make_grid(128, 96, 6, 4)
        rmap = default_region_map()
        motions = (
            RegionMotion("mouth", amplitude=3.0, onset=1, apex=4, offset=8),
            RegionMotion("cheeks", amplitude=1.0, onset=2, apex=5, offset=8),
        )
        seq, _ = synth_expression(128, 96, grid, rmap, motions, 9, seed=5)
        params = FlowParams(pyramid_levels=levels)
        solve = faceflow.intensity.pyramidal_lk

        def run(workers):
            threads = []

            def recording_solve(*args):
                threads.append(threading.get_ident())
                return solve(*args)

            monkeypatch.setattr(faceflow.intensity, "_available_cpus", lambda: workers)
            monkeypatch.setattr(faceflow.intensity, "pyramidal_lk", recording_solve)
            return intensity_series(seq, grid, rmap, params, mode=mode), threads

        many = faceflow.intensity._available_cpus() + 2
        serial, serial_threads = run(1)
        # More workers than CPUs, with frequent thread switches.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel, parallel_threads = run(many)
        finally:
            sys.setswitchinterval(interval)

        assert len(serial_threads) == len(parallel_threads) == len(seq) - 1
        assert len(set(serial_threads)) == 1
        assert len(set(parallel_threads)) > 1
        assert np.array_equal(serial.values, parallel.values)
        assert np.array_equal(serial.counts, parallel.counts)
        assert serial.values.any()

    def test_empty_region_map_gives_empty_rows(self):
        frame = make_texture(32, 32, seed=0)
        seq = FrameSequence((frame, frame, frame))
        series = intensity_series(seq, make_grid(32, 32, 2, 2), parse_region_map("", rows=2, cols=2))
        assert series.values.shape == (2, 0) and series.counts.shape == (2, 0)
