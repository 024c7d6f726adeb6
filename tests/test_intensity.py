"""Displacement magnitudes, region means, and intensity time series."""

from __future__ import annotations

import os
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import faceflow.flow
import faceflow.intensity

from faceflow import (
    ConfigError,
    DataError,
    FlowParams,
    FlowVector,
    FrameSequence,
    Image,
    IntensitySeries,
    default_region_map,
    default_region_text,
    displacement_magnitude,
    encode_pgm,
    intensity_series,
    load_sequence,
    make_grid,
    make_texture,
    parse_region_map,
    region_mask,
    region_mean_magnitude,
    synth_expression,
    translate_sequence,
    RegionMotion,
    build_report,
)
from faceflow.flow import FlowField, flow_support, pyramidal_lk, sample_bilinear
from faceflow.regions import RegionMap


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
        with pytest.raises(ConfigError, match="FlowVector components must be finite"):
            FlowVector(xi=float("nan"), yi=0.0)


class TestRegionMeanMagnitude:
    def test_uniform_field_raw(self):
        field = uniform_field(10, 10, 0.6, 0.8)
        mask = np.ones((10, 10), dtype=bool)
        assert region_mean_magnitude(field, mask) == (1.0, 100)

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
        with pytest.raises(DataError, match="mask is 4x5, flow is 4x4"):
            region_mean_magnitude(field, np.ones((5, 4), dtype=bool))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_mask_must_be_boolean(self, dtype):
        field = uniform_field(4, 4, 1.0, 0.0)
        mask = np.zeros((4, 4), dtype=dtype)
        mask[:2] = 1
        with pytest.raises(DataError, match=f"^mask must be boolean, got {np.dtype(dtype)}$"):
            region_mean_magnitude(field, mask)

    @pytest.mark.parametrize("rows", [4, 2, 0])
    def test_count_is_a_python_int(self, rows):
        field = uniform_field(4, 4, 1.0, 0.0)
        mask = np.zeros((4, 4), dtype=bool)
        mask[:rows] = True
        value, count = region_mean_magnitude(field, mask)
        assert type(value) is float and type(count) is int
        assert count == 4 * rows

    @pytest.mark.parametrize("case", ["all true", "one invalid pixel", "partial mask"])
    def test_view_sum_matches_the_masked_gather(self, case):
        # A non-contiguous 160x320 view of a wider field, as a region's view of
        # a box is. With this seed, summing the all-true view column by column
        # or right to left gives other bits than row-major order.
        u, v = np.random.default_rng(1).uniform(0.0, 1e3, size=(2, 200, 400))
        box = (slice(20, 180), slice(30, 350))
        valid = np.ones((200, 400), dtype=bool)
        mask = np.ones((160, 320), dtype=bool)
        if case == "one invalid pixel":
            valid[100, 200] = False
        elif case == "partial mask":
            mask[:, :7] = False
        flow = FlowField(u=u[box], v=v[box], valid=valid[box])
        assert not flow.u.flags.c_contiguous
        selected = mask & flow.valid
        count = np.count_nonzero(selected)
        gathered = np.add.reduce(np.hypot(flow.u[selected], flow.v[selected])) / count
        value, got = region_mean_magnitude(flow, mask)
        assert got == count
        assert np.array_equal(value, gathered)


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
        with pytest.raises(DataError, match="need at least 2 frames"):
            intensity_series(FrameSequence((frame,)), grid, rmap)

    def test_grid_frame_mismatch(self):
        frame = make_texture(32, 32, seed=0)
        seq = FrameSequence((frame, frame))
        grid = make_grid(64, 64, 2, 2)
        rmap = parse_region_map("region a = r0c0\n", rows=2, cols=2)
        with pytest.raises(DataError, match="grid is 64x64, frames are 32x32"):
            intensity_series(seq, grid, rmap)

    def test_bad_mode_rejected(self):
        frame = make_texture(32, 32, seed=0)
        seq = FrameSequence((frame, frame))
        grid = make_grid(32, 32, 2, 2)
        rmap = parse_region_map("region a = r0c0\n", rows=2, cols=2)
        with pytest.raises(ConfigError, match="mode must be 'reference' or 'consecutive'"):
            intensity_series(seq, grid, rmap, mode="backwards")

    @pytest.mark.parametrize("frames, values, message", [
        ([1, 2], [1.0, 2.0], r"values must be \(n_frames, n_regions\)"),
        ([1, 2], [[1.0, 2.0, 3.0]] * 2, r"values must be \(n_frames, n_regions\)"),
        ([1, 2, 3], [[1.0, 2.0]] * 2, "frames must have one entry per values row"),
    ], ids=["1-d", "columns", "frames"])
    def test_shapes_checked(self, frames, values, message):
        with pytest.raises(ConfigError, match=message):
            IntensitySeries(regions=("a", "b"), frames=np.array(frames), values=np.array(values))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-300])
    @pytest.mark.parametrize("regions", [("a", "b"), ("b", "a")], ids=["a-b", "b-a"])
    def test_unusable_magnitude_rejected_in_any_column_order(self, regions, bad):
        # A NaN used to make the ranking of build_report depend on the column order.
        columns = {"a": [0.0, 1.0, 0.0], "b": [0.0, bad, 0.5]}
        values = np.array([columns[name] for name in regions]).T
        with pytest.raises(DataError, match=f"^frame 2, region 'b': magnitude {bad} is not "
                                            "finite and >= 0$"):
            IntensitySeries(regions=regions, frames=np.array([1, 2, 3]), values=values)

    @pytest.mark.parametrize("regions, values", [
        (("a",), np.zeros((0, 1))),
        ((), np.zeros((2, 0))),
    ], ids=["no-rows", "no-regions"])
    def test_empty_series_rejected(self, regions, values):
        frames = np.arange(1, len(values) + 1)
        with pytest.raises(DataError, match="^series has no regions or no rows$"):
            IntensitySeries(regions=regions, frames=frames, values=values)

    @pytest.mark.parametrize("name", ["", "a,b", " a", "a ", "mo\x01uth"],
                             ids=["empty", "comma", "leading-space", "trailing-space",
                                  "unprintable"])
    def test_region_name_must_survive_a_csv_header(self, name):
        message = (f"region name {name!r} must be non-empty printable text "
                   "with no comma and no leading or trailing space")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            IntensitySeries(regions=("b", name), frames=np.array([1]), values=np.zeros((1, 2)))

    def test_duplicate_region_names_rejected(self):
        # Two equal names would collapse into one key of build_report's per_region.
        with pytest.raises(DataError, match="^duplicate region name\\(s\\) a, b$"):
            IntensitySeries(regions=("a", "b", "c", "b", "a"), frames=np.array([1]),
                            values=np.zeros((1, 5)))

    @pytest.mark.parametrize("frames, message", [
        ([7, 6, 5], "frame 6 does not follow frame 7"),
        ([1, 2, 2], "frame 2 does not follow frame 2"),
    ], ids=["decreasing", "repeated"])
    def test_frames_must_increase(self, frames, message):
        with pytest.raises(DataError, match=f"^{message}; frame numbers must be strictly "
                                            "increasing$"):
            IntensitySeries(regions=("a",), frames=np.array(frames), values=np.zeros((3, 1)))

    @pytest.mark.parametrize("frames", [
        np.array([1.5, 2.0]),
        np.array([np.nan, 2.0]),
        np.array([2**63], dtype=np.uint64),
    ], ids=["fractional", "nan", "uint64-past-int64"])
    def test_frames_must_be_int64_integers(self, frames):
        # The CSV writer would truncate a fractional frame and fail on a NaN one.
        with pytest.raises(DataError, match="^frame numbers must be integers that fit in int64, "
                                            f"got {frames.dtype}$"):
            IntensitySeries(regions=("a",), frames=frames, values=np.zeros((len(frames), 1)))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64])
    def test_integer_frames_stored_as_int64(self, dtype):
        frames = np.array([1, 2**31 - 1], dtype=dtype)
        series = IntensitySeries(regions=("a",), frames=frames, values=np.zeros((2, 1)))
        assert series.frames.dtype == np.int64
        assert series.frames.tolist() == [1, 2**31 - 1]

    @pytest.mark.parametrize("counts, error, message", [
        (np.array([[-5.5]]), ConfigError, "counts must have the shape of values"),
        (np.array([[3], [-1]]), DataError, "valid-pixel counts must be integers >= 0"),
        (np.array([[3.0], [1.0]]), DataError, "valid-pixel counts must be integers >= 0"),
    ], ids=["shape", "negative", "float"])
    def test_counts_checked(self, counts, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            IntensitySeries(regions=("a",), frames=np.array([1, 2]), values=np.zeros((2, 1)),
                            counts=counts)

    @pytest.mark.parametrize("field, value, message", [
        ("units", "bogus", "units must be 'normalized', 'pixels' or 'unknown', got 'bogus'"),
        ("mode", "sideways",
         "mode must be 'reference', 'consecutive' or 'unknown', got 'sideways'"),
    ], ids=["units", "mode"])
    def test_units_and_mode_checked(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            IntensitySeries(regions=("a",), frames=np.array([1]), values=np.zeros((1, 1)),
                            **{field: value})

    def test_column_lookup(self):
        series = IntensitySeries(
            regions=("a", "b"),
            frames=np.array([1, 2]),
            values=np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
        assert np.array_equal(series.column("b"), np.array([2.0, 4.0]))
        with pytest.raises(ConfigError, match="no region named 'c' in series"):
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

            def recording_solve(*args, **kwargs):
                threads.append(threading.get_ident())
                return solve(*args, **kwargs)

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

    @pytest.mark.parametrize("count, expected", [(None, 1), (3, 3)])
    def test_cpu_count_where_the_os_gives_no_affinity_mask(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert faceflow.intensity._available_cpus() == expected

    def test_empty_region_map_rejected(self):
        # An empty map would have every pair solved on the whole frame, for no region.
        with pytest.raises(ConfigError, match="^region map defines no regions$"):
            parse_region_map("", rows=2, cols=2)



def write_frames(directory, frames):
    directory.mkdir()
    for i, frame in enumerate(frames):
        (directory / f"frame_{i:04d}.pgm").write_bytes(encode_pgm(frame))
    return directory


@pytest.fixture(scope="module")
def motion_frames(tmp_path_factory):
    """12 frames (11 pairs) of mouth and cheek motion at 128x96, written as PGM files."""
    grid = make_grid(128, 96, 6, 4)
    motions = (
        RegionMotion("mouth", amplitude=3.0, onset=1, apex=5, offset=10),
        RegionMotion("cheeks", amplitude=1.0, onset=2, apex=6, offset=11),
    )
    seq, _ = synth_expression(128, 96, grid, default_region_map(), motions, 12, seed=4)
    return write_frames(tmp_path_factory.mktemp("motion") / "frames", seq)


class TestStreamedFrames:
    """A sequence from load_sequence decodes each frame inside the run that solves it."""

    @pytest.mark.parametrize("workers", ["one", "two", "more-than-cpus"])
    @pytest.mark.parametrize("levels", [1, 3])
    @pytest.mark.parametrize("mode", ["reference", "consecutive"])
    def test_same_series_as_frames_in_memory(self, monkeypatch, motion_frames, mode, levels,
                                             workers):
        # 11 pairs split unevenly into runs at two or more workers, so in
        # consecutive mode runs start on the frame the run before them ended on.
        count = {"one": 1, "two": 2,
                 "more-than-cpus": faceflow.intensity._available_cpus() + 2}[workers]
        monkeypatch.setattr(faceflow.intensity, "_available_cpus", lambda: count)
        streamed = load_sequence(motion_frames)
        in_memory = FrameSequence(tuple(streamed))
        assert all(isinstance(frame, Image) for frame in in_memory.frames)
        grid, rmap = make_grid(128, 96, 6, 4), default_region_map()
        params = FlowParams(pyramid_levels=levels)
        from_files = intensity_series(streamed, grid, rmap, params, mode=mode)
        from_memory = intensity_series(in_memory, grid, rmap, params, mode=mode)
        assert np.array_equal(from_files.values, from_memory.values)
        assert np.array_equal(from_files.counts, from_memory.counts)
        assert from_files.values.any()

    @pytest.mark.parametrize("broken", ["truncated", "deleted"])
    def test_frame_broken_after_loading_stops_the_run(self, monkeypatch, tmp_path, broken):
        # 17 frames, 16 pairs, 2 workers: 8 runs of 2 pairs. Frame 1 breaks
        # in the first run; the second run may finish, no later run starts.
        seq, _ = translate_sequence(make_texture(64, 64, seed=2), 0.3, 0.1, 17)
        frames = write_frames(tmp_path / "frames", seq)
        monkeypatch.setattr(faceflow.intensity, "_available_cpus", lambda: 2)
        solved = []
        solve = faceflow.intensity.pyramidal_lk

        def recording_solve(*args, **kwargs):
            solved.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(faceflow.intensity, "pyramidal_lk", recording_solve)
        grid, rmap = make_grid(64, 64), default_region_map()
        intensity_series(load_sequence(frames), grid, rmap)
        per_pair = len(solved) // 16
        solved.clear()
        streamed = load_sequence(frames)
        path = frames / "frame_0001.pgm"
        if broken == "truncated":
            path.write_bytes(path.read_bytes()[:-1])
            message = r"^frame_0001\.pgm: expected 4096 sample bytes, got 4095$"
        else:
            path.unlink()
            message = r"^frame_0001\.pgm: No such file or directory$"
        with pytest.raises(DataError, match=message):
            intensity_series(streamed, grid, rmap)
        assert len(solved) <= 2 * per_pair

    def test_memory_does_not_grow_with_the_frame_count(self, monkeypatch, tmp_path):
        # The frames are decoded as their pairs are solved, never all held:
        # the peak over loading and solving stays within one float64 frame.
        monkeypatch.setattr(faceflow.intensity, "_available_cpus", lambda: 1)
        grid, rmap = make_grid(160, 120), default_region_map()
        motions = (RegionMotion("mouth", amplitude=2.0, onset=1, apex=4, offset=7),)

        def peak(count):
            frames = tmp_path / str(count)
            if not frames.exists():
                seq, _ = synth_expression(160, 120, grid, rmap, motions, count, seed=1)
                write_frames(frames, seq)
            tracemalloc.start()
            try:
                intensity_series(load_sequence(frames), grid, rmap)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8)  # the first solve imports and sets up what later ones reuse
        frame = 160 * 120 * 8
        assert abs(peak(32) - peak(8)) < frame

CELLS24 = "".join(f"region c{r}{c} = r{r}c{c}\n" for r in range(6) for c in range(4))
SPLIT = "region b = r2c1, r3c2\nregion a = r0c0, r5c3, r2c2\n"


def full_frame_series(seq, grid, rmap, params, mode):
    """Flow on whole frames, then each region's normalized mean and count."""
    masks = [region_mask(grid, rmap, name) for name in rmap.names()]
    diag = np.hypot(seq.width, seq.height)
    rows = []
    for t in range(1, len(seq)):
        flow = pyramidal_lk(seq[0] if mode == "reference" else seq[t - 1], seq[t], params)
        rows.append([region_mean_magnitude(flow, mask) for mask in masks])
    values = np.array([[v for v, _ in row] for row in rows]) / diag
    return values, np.array([[c for _, c in row] for row in rows])


# The four default-layout group boxes at 640x480: eyes, two cheek cells, mouth.
BOXES_640 = [(182, 342), (102, 171), (102, 171), (102, 342)]


class TestFlowBox:
    # (width, height, rows, cols, region map text, flow params)
    CASES = {
        "mid-frame cell": (128, 96, 6, 4, "region a = r2c1\n", FlowParams()),
        "opposite corners": (128, 96, 6, 4, "region a = r0c0\nregion b = r5c3\n", FlowParams()),
        "sigma 0 radius 2": (128, 96, 6, 4, "region a = r2c1\n",
                             FlowParams(window_radius=2, smooth_sigma=0.0)),
        "sigma 2.5 radius 3": (128, 96, 6, 4, "region a = r3c2\n",
                               FlowParams(window_radius=3, smooth_sigma=2.5)),
        # The grown box (12 rows at the top edge) is shorter than a window
        # side, so the support is stretched to 15 rows.
        "thin edge region": (96, 72, 72, 4, "region top = r0c1\n", FlowParams()),
        # Four group boxes (53.6% of the frame) beat the one box (75.8%);
        # cheeks has a cell in two of them.
        "default map 320x240": (320, 240, 6, 4, default_region_text(), FlowParams()),
    }

    @pytest.mark.parametrize("mode", ["reference", "consecutive"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_frame_flow(self, case, mode):
        width, height, rows, cols, text, params = self.CASES[case]
        grid = make_grid(width, height, rows, cols)
        rmap = parse_region_map(text, rows=rows, cols=cols)
        seq, _ = translate_sequence(make_texture(width, height, seed=7), 0.35, -0.2, 4)
        series = intensity_series(seq, grid, rmap, params, mode=mode)
        values, counts = full_frame_series(seq, grid, rmap, params, mode)
        assert np.array_equal(series.counts, counts)
        assert counts.min() > 0
        np.testing.assert_allclose(series.values, values, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("levels, shape", [(1, (86, 128)), (2, (86, 128))])
    def test_solve_sees_the_box(self, monkeypatch, levels, shape):
        # Default map on 128x96: rows 16-79 plus an 11-pixel halo, all columns,
        # at every pyramid depth.
        shapes = []
        solve = faceflow.intensity.pyramidal_lk

        def recording_solve(i1, i2, p, **kwargs):
            shapes.append((i1.pixels.shape, i2.pixels.shape))
            return solve(i1, i2, p, **kwargs)

        monkeypatch.setattr(faceflow.intensity, "pyramidal_lk", recording_solve)
        seq, _ = translate_sequence(make_texture(128, 96, seed=1), 0.3, 0.0, 4)
        intensity_series(seq, make_grid(128, 96), default_region_map(),
                         FlowParams(pyramid_levels=levels))
        assert shapes == [(shape, shape)] * 3

    @pytest.mark.parametrize("text, levels, calls, solves", [
        (None, 1, BOXES_640, BOXES_640),
        (CELLS24, 1, [(480, 640)], [(480, 640)]),
        (None, 2, BOXES_640, [(240, 320), *BOXES_640]),
        (CELLS24, 2, [(480, 640)], [(240, 320), (480, 640)]),
    ], ids=["default-map", "cells24", "pyramid", "pyramid-cells24"])
    def test_one_solve_per_group_box(self, monkeypatch, text, levels, calls, solves):
        # 640x480 default map: eyes, the two cheek cells and mouth, each grown
        # by the 11-pixel halo. One group keeps the whole frame. A pyramid
        # solves its coarse level once per pair on the whole frames, and
        # pyramidal_lk solves the finest level on the same boxes.
        called, solved = [], []
        solve, solve_lk = faceflow.intensity.pyramidal_lk, faceflow.flow._solve_lk

        def recording_solve(i1, i2, p, **kwargs):
            called.append(i1.pixels.shape)
            return solve(i1, i2, p, **kwargs)

        def recording_solve_lk(a1, a2, p):
            solved.append(a1.shape)
            return solve_lk(a1, a2, p)

        monkeypatch.setattr(faceflow.intensity, "_available_cpus", lambda: 1)
        monkeypatch.setattr(faceflow.intensity, "pyramidal_lk", recording_solve)
        monkeypatch.setattr(faceflow.flow, "_solve_lk", recording_solve_lk)
        seq, _ = translate_sequence(make_texture(640, 480, seed=1), 0.3, 0.0, 3)
        rmap = default_region_map() if text is None else parse_region_map(text)
        intensity_series(seq, make_grid(640, 480), rmap, FlowParams(pyramid_levels=levels))
        assert called == calls * 2
        assert solved == solves * 2

    @pytest.mark.parametrize("motion", ["translation", "mouth-only"])
    @pytest.mark.parametrize("sigma", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("mode", ["reference", "consecutive"])
    @pytest.mark.parametrize("levels", [2, 3])
    def test_pyramid_matches_full_frame_flow(self, levels, mode, sigma, motion):
        # At 320x240 the default map takes four group boxes, and a pyramid
        # solves its finest level on them alone, with the single-level halo
        # of each sigma; mouth-only motion leaves the other boxes still.
        grid = make_grid(320, 240)
        rmap = default_region_map()
        if motion == "translation":
            seq, _ = translate_sequence(make_texture(320, 240, seed=7), 1.3, -0.8, 4)
        else:
            motions = (RegionMotion("mouth", amplitude=3.0, onset=1, apex=2, offset=3),)
            seq, _ = synth_expression(320, 240, grid, rmap, motions, 4, seed=7)
        params = FlowParams(smooth_sigma=sigma, pyramid_levels=levels)
        series = intensity_series(seq, grid, rmap, params, mode=mode)
        values, counts = full_frame_series(seq, grid, rmap, params, mode)
        assert np.array_equal(series.counts, counts)
        assert counts.min() > 0
        np.testing.assert_allclose(series.values, values, rtol=1e-12, atol=0)

    # Twelve one-cell regions that touch only at their corners: twelve groups.
    CHECKERBOARD = "".join(f"region cell{r}{c} = r{r}c{c}\n"
                           for r in range(6) for c in range(4) if (r + c) % 2 == 0)

    @pytest.mark.parametrize("size", [(96, 72), (128, 96), (160, 120), (320, 240), (640, 480)],
                             ids=lambda size: "%dx%d" % size)
    @pytest.mark.parametrize("layout", ["default", "checkerboard"])
    def test_boxes_never_cost_more_than_one_box(self, layout, size):
        # Small frames' group boxes overlap in their halos; there the one box
        # around all regions is solved instead, so it caps the solved pixels.
        grid = make_grid(*size)
        rmap = parse_region_map(default_region_text() if layout == "default" else self.CHECKERBOARD)
        union = np.logical_or.reduce([region_mask(grid, rmap, name) for name in rmap.names()])
        boxes = faceflow.intensity._flow_boxes(union, FlowParams())
        assert sum(box_area(box) for box, _ in boxes) <= box_area(flow_support(union, FlowParams()))

    def test_oversized_window_names_the_frame(self):
        seq, _ = translate_sequence(make_texture(96, 72, seed=0), 0.3, 0.0, 3)
        grid = make_grid(96, 72, 72, 4)
        rmap = parse_region_map("region top = r0c1\n", rows=72, cols=4)
        with pytest.raises(ConfigError, match="image is 96x72"):
            intensity_series(seq, grid, rmap, FlowParams(window_radius=40))


def box_area(box):
    return (box[0].stop - box[0].start) * (box[1].stop - box[1].start)


def two_level_box_flow(first, second, params, box):
    """Two-level flow on box: the coarse level on whole half-size frames, the finest on box alone.

    Written out apart from flow's staged path: 2x2 box averages, the
    coarse flow doubled and upsampled by nearest neighbour, second sampled
    at x + u, the residual solved on the crops and added, and the sum zeroed
    where the residual is invalid.
    """
    assert params.pyramid_levels == 2
    one_level = replace(params, pyramid_levels=1)

    def half(a):
        t = a[: a.shape[0] // 2 * 2, : a.shape[1] // 2 * 2]
        return 0.25 * (t[0::2, 0::2] + t[0::2, 1::2] + t[1::2, 0::2] + t[1::2, 1::2])

    coarse = pyramidal_lk(Image(half(first.pixels)), Image(half(second.pixels)), one_level)
    ys, xs = (c.astype(np.float64) for c in np.mgrid[box])
    rows = np.minimum(np.arange(box[0].start, box[0].stop) // 2, coarse.u.shape[0] - 1)
    cols = np.minimum(np.arange(box[1].start, box[1].stop) // 2, coarse.u.shape[1] - 1)
    u, v = (2.0 * c[np.ix_(rows, cols)] for c in (coarse.u, coarse.v))
    warped = sample_bilinear(second.pixels, xs + u, ys + v)
    fine = pyramidal_lk(Image(first.pixels[box]), Image(warped), one_level)
    return (np.where(fine.valid, fine.u + u, 0.0), np.where(fine.valid, fine.v + v, 0.0),
            fine.valid)


def whole_box_series(seq, grid, rmap, params, mode):
    """Each region's normalized mean and count from flow solved on boxes found here.

    The boxes are found apart from intensity_series: one single-level
    flow_support box per 4-connected component of the region pixels,
    labelled by scipy, when their areas sum to less than the one box around
    all regions, else that box. At one level raw crops to each box go
    through pyramidal_lk with params; at two levels two_level_box_flow
    solves each box. Each region pixel's flow is read from the box of the
    component that holds it, and each region's mean is ndarray.mean.
    """
    from scipy.ndimage import label

    one_level = replace(params, pyramid_levels=1)
    masks = [region_mask(grid, rmap, name) for name in rmap.names()]
    union = np.logical_or.reduce(masks)
    labels, n_groups = label(union)
    groups = [labels == i for i in range(1, n_groups + 1)]
    boxes = [flow_support(group, one_level) for group in groups]
    whole = flow_support(union, one_level)
    if sum(map(box_area, boxes)) >= box_area(whole):
        boxes, groups = [whole], [union]
    diag = np.hypot(seq.width, seq.height)
    values = np.zeros((len(seq) - 1, len(masks)))
    counts = np.zeros((len(seq) - 1, len(masks)), dtype=np.int64)
    for t in range(1, len(seq)):
        first = seq[0] if mode == "reference" else seq[t - 1]
        magnitude = np.zeros((seq.height, seq.width))
        valid = np.zeros((seq.height, seq.width), dtype=bool)
        for box, group in zip(boxes, groups):
            if params.pyramid_levels == 1:
                flow = pyramidal_lk(Image(first.pixels[box]), Image(seq[t].pixels[box]), params)
                u, v, ok = flow.u, flow.v, flow.valid
            else:
                u, v, ok = two_level_box_flow(first, seq[t], params, box)
            owned = group[box]
            magnitude[box][owned] = np.hypot(u, v)[owned]
            valid[box][owned] = ok[owned]
        for j, mask in enumerate(masks):
            sel = mask & valid
            counts[t - 1, j] = sel.sum()
            if counts[t - 1, j]:
                values[t - 1, j] = magnitude[sel].mean() / diag
    return values, counts


class TestRunWideWork:
    # split: region a has one piece in each of three boxes, on different rows
    # and columns, so its reduction must keep the frame's row-major order.
    @pytest.mark.parametrize("layout", ["default", "cells24", "split"])
    @pytest.mark.parametrize("sigma", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("mode", ["reference", "consecutive"])
    def test_matches_whole_box_solve_exactly(self, mode, levels, sigma, layout):
        self.check_whole_box_match(mode, levels, sigma, layout, np.float64)

    # Decoded frames are float32, and the flow keeps their precision; the
    # whole-box solve takes each region's mean in float64 all the same.
    @pytest.mark.parametrize("layout", ["default", "cells24", "split"])
    @pytest.mark.parametrize("sigma", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("mode", ["reference", "consecutive"])
    def test_float32_frames_match_whole_box_solve_exactly(self, mode, levels, sigma, layout):
        self.check_whole_box_match(mode, levels, sigma, layout, np.float32)

    @staticmethod
    def check_whole_box_match(mode, levels, sigma, layout, dtype):
        grid = make_grid(96, 72)
        rmap = {"default": default_region_map(), "cells24": parse_region_map(CELLS24),
                "split": parse_region_map(SPLIT)}[layout]
        motions = (RegionMotion(rmap.names()[-1], amplitude=1.5, onset=1, apex=2, offset=3),)
        seq, _ = synth_expression(96, 72, grid, rmap, motions, 4, seed=3)
        seq = FrameSequence(tuple(Image(frame.pixels.astype(dtype)) for frame in seq))
        params = FlowParams(window_radius=3, smooth_sigma=sigma, pyramid_levels=levels)
        series = intensity_series(seq, grid, rmap, params, mode=mode)
        values, counts = whole_box_series(seq, grid, rmap, params, mode)
        assert np.array_equal(series.counts, counts)
        assert np.array_equal(series.values, values)
        assert values.any()

    @pytest.mark.parametrize(
        "mode, levels, stages",
        [("reference", 1, 5), ("consecutive", 1, 5), ("reference", 2, 5), ("consecutive", 2, 5)],
    )
    def test_calls_per_run_and_per_pair(self, monkeypatch, mode, levels, stages):
        # One worker solves the 4 pairs in one run, and at every depth each
        # frame is staged once: frame 0 as the reference or as the run's
        # first frame, every later frame as it arrives.
        monkeypatch.setattr(faceflow.intensity, "_available_cpus", lambda: 1)
        # Pool workers append; list.append is atomic where += on a count is not.
        calls = {"stage_frame": [], "pyramidal_lk": [], "region_mean_magnitude": []}

        def record(name):
            fn = getattr(faceflow.intensity, name)

            def recorder(*args, **kwargs):
                calls[name].append(None)
                return fn(*args, **kwargs)

            monkeypatch.setattr(faceflow.intensity, name, recorder)

        for name in calls:
            record(name)
        seq, _ = translate_sequence(make_texture(64, 64, seed=2), 0.3, 0.1, 5)
        intensity_series(seq, make_grid(64, 64), default_region_map(),
                         FlowParams(pyramid_levels=levels), mode=mode)
        # 5 frames, 4 pairs, 3 regions.
        counts = {name: len(made) for name, made in calls.items()}
        assert counts == {"stage_frame": stages, "pyramidal_lk": 4, "region_mean_magnitude": 12}

    @pytest.mark.parametrize("mode", ["reference", "consecutive"])
    def test_each_frame_pyramid_built_once(self, monkeypatch, mode):
        # 6 frames with 3 levels: each frame is downsampled twice, once per
        # series, however many pairs it is in.
        monkeypatch.setattr(faceflow.intensity, "_available_cpus", lambda: 1)
        downsampled = []
        downsample = faceflow.flow._box_downsample

        def recording_downsample(a):
            downsampled.append(a.shape)
            return downsample(a)

        monkeypatch.setattr(faceflow.flow, "_box_downsample", recording_downsample)
        seq, _ = translate_sequence(make_texture(128, 128, seed=2), 0.8, 0.3, 6)
        intensity_series(seq, make_grid(128, 128), default_region_map(),
                         FlowParams(pyramid_levels=3), mode=mode)
        assert downsampled == [(128, 128), (64, 64)] * 6

    @pytest.mark.parametrize("mode, levels, calls", [
        ("reference", 3, 84), ("consecutive", 3, 104), ("reference", 1, 64),
    ])
    def test_smooths_only_the_crops_a_pair_reads(self, monkeypatch, mode, levels, calls):
        # 6 frames, 5 pairs, 4 group boxes at 320x240. Staging smooths each
        # staged frame's 4 crops; each pair's 4 box solves call the smoothing
        # twice each with sigma 0, and a 3-level pair smooths 2 coarse levels
        # of both frames and 4 warped inputs. In reference mode under a
        # pyramid only frame 0's crops are read, so only frame 0 has any.
        monkeypatch.setattr(faceflow.intensity, "_available_cpus", lambda: 1)
        smoothed = []
        smooth = faceflow.flow._smooth_array

        def recording_smooth(pixels, sigma):
            smoothed.append(None)
            return smooth(pixels, sigma)

        monkeypatch.setattr(faceflow.flow, "_smooth_array", recording_smooth)
        seq, _ = translate_sequence(make_texture(320, 240, seed=2), 0.8, 0.3, 6)
        intensity_series(seq, make_grid(320, 240), default_region_map(),
                         FlowParams(pyramid_levels=levels), mode=mode)
        assert len(smoothed) == calls

    @pytest.mark.parametrize("mode", ["reference", "consecutive"])
    def test_empty_region_gives_zeros(self, mode):
        seq, _ = translate_sequence(make_texture(64, 64, seed=5), 0.4, 0.0, 4)
        rmap = RegionMap({"a": frozenset({(2, 1)}), "empty": frozenset()})
        series = intensity_series(seq, make_grid(64, 64), rmap, mode=mode)
        assert np.array_equal(series.column("empty"), np.zeros(3))
        assert np.array_equal(series.counts[:, 1], np.zeros(3, dtype=np.int64))
        assert series.column("a").all()

    @pytest.mark.parametrize("cells, solves, levels", [
        ({"a": {(1, 1)}, "b": {(4, 2)}, "empty": set()}, 2 * 3, 1),
        ({"empty": set()}, 0, 1),
        ({"empty": set()}, 0, 3),
    ], ids=["two-groups", "no-cells", "no-cells-pyramid"])
    def test_empty_region_beside_group_boxes(self, monkeypatch, cells, solves, levels):
        # Two one-cell groups on 160x120 take two boxes; a map with no cells
        # takes none, with or without a pyramid.
        solved = []
        solve = faceflow.intensity.pyramidal_lk

        def recording_solve(*args, **kwargs):
            solved.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(faceflow.intensity, "pyramidal_lk", recording_solve)
        seq, _ = translate_sequence(make_texture(160, 120, seed=5), 0.4, 0.0, 4)
        rmap = RegionMap({name: frozenset(c) for name, c in cells.items()})
        series = intensity_series(seq, make_grid(160, 120), rmap, FlowParams(pyramid_levels=levels))
        assert len(solved) == solves
        assert np.array_equal(series.column("empty"), np.zeros(3))
        assert not series.counts[:, -1].any()
        assert series.values[:, :-1].all()


class TestTracerContract:
    """What a tracer wrapping the flow and reduction entry points relies on.

    It replaces faceflow.intensity.lucas_kanade, .pyramidal_lk and
    .region_mean_magnitude and faceflow.flow.sample_bilinear where they are
    looked up, reads the valid mask of every field pyramidal_lk returns, and
    needs a solve span per flow box and pair, at every pyramid depth, and a
    reduction span per region and pair.
    """

    @pytest.mark.parametrize("module, name", [
        (faceflow.intensity, "lucas_kanade"),
        (faceflow.intensity, "pyramidal_lk"),
        (faceflow.intensity, "region_mean_magnitude"),
        (faceflow.flow, "sample_bilinear"),
    ])
    def test_patched_name_exists(self, module, name):
        assert callable(getattr(module, name))

    @pytest.mark.parametrize("mode", ["reference", "consecutive"])
    @pytest.mark.parametrize("levels", [1, 3])
    def test_calls_seen_through_the_module_globals(self, monkeypatch, levels, mode):
        grid = make_grid(320, 240)
        rmap = default_region_map()
        motions = (RegionMotion("mouth", amplitude=3.0, onset=1, apex=3, offset=5),)
        seq, _ = synth_expression(320, 240, grid, rmap, motions, 6, seed=2)
        params = FlowParams(pyramid_levels=levels)
        plain = intensity_series(seq, grid, rmap, params, mode=mode)
        results = {"pyramidal_lk": [], "region_mean_magnitude": [], "sample_bilinear": []}

        def wrap(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                results[name].append(result)
                return result

            monkeypatch.setattr(module, name, wrapper)

        wrap(faceflow.intensity, "pyramidal_lk")
        wrap(faceflow.intensity, "region_mean_magnitude")
        wrap(faceflow.flow, "sample_bilinear")
        traced = intensity_series(seq, grid, rmap, params, mode=mode)
        pairs = len(seq) - 1
        assert all(isinstance(field, FlowField) for field in results["pyramidal_lk"])
        assert len(results["pyramidal_lk"]) >= pairs
        assert len(results["region_mean_magnitude"]) == pairs * len(rmap.names())
        assert bool(results["sample_bilinear"]) == (levels > 1)
        assert np.array_equal(traced.values, plain.values)
        assert np.array_equal(traced.counts, plain.counts)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 12: a brightness change on still "
                   "frames reads as motion (1.4e-3 to 1.9e-3 here)")
def test_brightness_ramp_on_still_frames_reads_as_no_motion(tmp_path):
    # A still texture whose frames 1-4 brighten by a gain that ramps to 1.01,
    # each frame re-quantized to 8 bits. Every region should stay below the
    # paper's smallest reported magnitude, 0.4e-4 of the diagonal.
    base = make_texture(160, 120, seed=5)
    for t in range(5):
        frame = Image(base.pixels * (1 + 0.01 * t / 4))
        (tmp_path / f"frame_{t}.pgm").write_bytes(encode_pgm(frame))
    series = intensity_series(load_sequence(tmp_path), make_grid(160, 120), default_region_map())
    assert (series.values[-1] < 0.4e-4).all(), series.values[-1]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: sensor noise on still "
                   "frames reads as motion (2.3e-4 to 2.9e-4 here), and a region is named dominant")
def test_sensor_noise_on_still_frames_names_no_dominant_region(tmp_path):
    # A still texture plus Gaussian noise of one grey level per frame, each
    # frame quantized to 8 bits. No region moves, so none should be dominant.
    base = make_texture(160, 120, seed=5)
    rng = np.random.default_rng(1)
    for t in range(12):
        frame = Image(base.pixels + rng.normal(0.0, 1 / 255, base.pixels.shape))
        (tmp_path / f"frame_{t}.pgm").write_bytes(encode_pgm(frame))
    series = intensity_series(load_sequence(tmp_path), make_grid(160, 120), default_region_map())
    report = build_report(series)
    assert report.dominant_region is None, series.values.max(axis=0)
