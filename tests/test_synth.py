"""Synthetic textures and ground-truth motion sequences."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import faceflow.synth
from faceflow import (
    ConfigError,
    DataError,
    RegionMotion,
    default_region_map,
    make_grid,
    make_texture,
    parse_region_map,
    region_mask,
    synth_expression,
    translate_sequence,
)
from faceflow.flow import sample_bilinear
from faceflow.synth import _feather


class TestMakeTexture:
    def test_deterministic(self):
        a = make_texture(32, 24, seed=5)
        b = make_texture(32, 24, seed=5)
        assert np.array_equal(a.pixels, b.pixels)

    def test_seeds_differ(self):
        a = make_texture(32, 24, seed=1)
        b = make_texture(32, 24, seed=2)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_exact_value_range(self):
        tex = make_texture(64, 48, seed=0)
        assert tex.pixels.min() == 0.1
        assert tex.pixels.max() == 0.9

    def test_dimensions(self):
        tex = make_texture(40, 30, seed=0)
        assert tex.width == 40 and tex.height == 30

    @pytest.mark.parametrize("width,height", [(15, 20), (20, 15), (1, 1)])
    def test_too_small_rejected(self, width, height):
        with pytest.raises(ConfigError, match="texture needs dimensions >= 16"):
            make_texture(width, height, seed=0)

    @pytest.mark.parametrize("width,height", [(10**11, 10**11), (10**20, 16), (16, 10**20)])
    def test_unaddressable_size_rejected(self, width, height):
        # Checked before numpy is asked for the raster, which it could not address.
        with pytest.raises(ConfigError, match=rf"1 frame\(s\) of {width}x{height} exceed"):
            make_texture(width, height, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            make_texture(16, 16, seed=-1)


class TestTranslateSequence:
    def test_zero_shift_repeats_base(self):
        base = make_texture(32, 32, seed=1)
        seq, truth = translate_sequence(base, 0.0, 0.0, 4)
        for frame in seq:
            assert np.array_equal(frame.pixels, base.pixels)
        assert np.array_equal(truth.shifts, np.zeros((4, 2)))

    def test_first_frame_is_base(self):
        base = make_texture(32, 32, seed=1)
        seq, _ = translate_sequence(base, 0.5, 0.25, 3)
        assert seq[0] is base

    def test_integer_shift_copies_columns(self):
        base = make_texture(40, 40, seed=2)
        seq, _ = translate_sequence(base, 1.0, 0.0, 3)
        # Frame 2 is base shifted right by 2 px: interior columns line up.
        assert np.array_equal(seq[2].pixels[:, 2:], base.pixels[:, :-2])

    def test_half_pixel_shift_averages_neighbours(self):
        base = make_texture(32, 32, seed=3)
        seq, _ = translate_sequence(base, 0.5, 0.0, 2)
        expected = 0.5 * (base.pixels[:, 1:] + base.pixels[:, :-1])
        assert np.allclose(seq[1].pixels[:, 1:], expected, atol=1e-12)

    def test_ground_truth_shifts(self):
        base = make_texture(32, 32, seed=0)
        _, truth = translate_sequence(base, 0.25, -0.5, 4)
        assert np.array_equal(
            truth.shifts,
            np.array([[0.0, 0.0], [0.25, -0.5], [0.5, -1.0], [0.75, -1.5]]),
        )
        du, dv = truth.field(3)
        assert np.all(du == 0.75) and np.all(dv == -1.5)

    def test_cumulative_shift_capped(self):
        base = make_texture(32, 32, seed=0)
        with pytest.raises(ConfigError, match=r"cumulative shift \(8, 0\) px must stay under"):
            translate_sequence(base, 1.0, 0.0, 8)  # 8 px >= 32/4

    def test_vertical_shift_capped(self):
        base = make_texture(64, 32, seed=0)
        with pytest.raises(ConfigError, match=r"cumulative shift \(0, 8\) px must stay under"):
            translate_sequence(base, 0.0, -2.0, 4)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("axis", ["dx", "dy"])
    def test_non_finite_shift_rejected(self, axis, value):
        base = make_texture(32, 32, seed=0)
        shift = {"dx": 0.0, "dy": 0.0, axis: value}
        with pytest.raises(ConfigError, match="cumulative shift .* must stay under"):
            translate_sequence(base, shift["dx"], shift["dy"], 4)

    def test_too_few_frames(self):
        base = make_texture(32, 32, seed=0)
        with pytest.raises(ConfigError, match="need at least 2 frames, got 1"):
            translate_sequence(base, 0.1, 0.0, 1)

    def test_unaddressable_frame_count_rejected(self):
        base = make_texture(32, 32, seed=0)
        with pytest.raises(ConfigError, match=rf"{10**20} frame\(s\) of 32x32 exceed"):
            translate_sequence(base, 0.0, 0.0, 10**20)


class TestSynthExpression:
    def setup_method(self):
        self.grid = make_grid(160, 120, 6, 4)
        self.rmap = default_region_map()

    def synth(self, motions, n=12, seed=0):
        return synth_expression(160, 120, self.grid, self.rmap, motions, n, seed=seed)

    def test_static_outside_active_region(self):
        motions = (RegionMotion("mouth", 2.0, onset=1, apex=5, offset=9),)
        seq, _ = self.synth(motions)
        outside = ~region_mask(self.grid, self.rmap, "mouth")
        for frame in seq:
            assert np.array_equal(frame.pixels[outside], seq[0].pixels[outside])

    def test_active_region_moves_at_apex(self):
        motions = (RegionMotion("mouth", 2.0, onset=1, apex=5, offset=9),)
        seq, _ = self.synth(motions)
        inside = region_mask(self.grid, self.rmap, "mouth")
        assert not np.array_equal(seq[5].pixels[inside], seq[0].pixels[inside])

    def test_ground_truth_field_matches_profile(self):
        motions = (RegionMotion("mouth", 2.0, onset=0, apex=4, offset=8),)
        _, truth = self.synth(motions)
        du, dv = truth.field(4)
        mask = region_mask(self.grid, self.rmap, "mouth")
        # Deep-interior pixels carry the full amplitude at the apex frame.
        assert du[mask].max() == 2.0
        assert np.all(du[~mask] == 0.0)
        assert np.all(dv == 0.0)
        du2, _ = truth.field(2)
        assert du2[mask].max() == 1.0

    def test_profile_zero_before_onset_and_after_offset(self):
        motions = (RegionMotion("mouth", 2.0, onset=3, apex=6, offset=9),)
        seq, truth = self.synth(motions)
        for t in (0, 1, 2, 9, 10, 11):
            du, dv = truth.field(t)
            assert np.all(du == 0.0) and np.all(dv == 0.0)
            assert np.array_equal(seq[t].pixels, seq[0].pixels)

    def test_deterministic(self):
        motions = (RegionMotion("mouth", 1.5, onset=1, apex=5, offset=9),)
        a, _ = self.synth(motions, seed=9)
        b, _ = self.synth(motions, seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.pixels, fb.pixels)

    def test_two_regions_move_independently(self):
        motions = (
            RegionMotion("mouth", 2.0, onset=1, apex=5, offset=9),
            RegionMotion("eyes_eyebrows", 1.0, onset=2, apex=6, offset=10),
        )
        _, truth = self.synth(motions)
        mouth = region_mask(self.grid, self.rmap, "mouth")
        eyes = region_mask(self.grid, self.rmap, "eyes_eyebrows")
        du5, _ = truth.field(5)
        assert du5[mouth].max() == 2.0
        du6, _ = truth.field(6)
        assert du6[eyes].max() == 1.0
        assert du5[~(mouth | eyes)].max() == 0.0

    def test_amplitude_capped_by_cell_size(self):
        # 160x120 on a 6x4 grid: cells are 40x20, so the cap is 5 px.
        with pytest.raises(ConfigError, match="amplitude 5 px must stay under cell size / 4 = 5 px"):
            self.synth((RegionMotion("mouth", 5.0, onset=1, apex=5, offset=9),))

    def test_unknown_region(self):
        with pytest.raises(ConfigError, match="no region named 'nose'"):
            self.synth((RegionMotion("nose", 1.0, onset=1, apex=5, offset=9),))

    def test_duplicate_region(self):
        motions = (
            RegionMotion("mouth", 1.0, onset=1, apex=5, offset=9),
            RegionMotion("mouth", 2.0, onset=2, apex=6, offset=10),
        )
        with pytest.raises(ConfigError, match="region 'mouth' given twice"):
            self.synth(motions)

    def test_too_few_frames(self):
        with pytest.raises(ConfigError, match="need at least 2 frames, got 1"):
            self.synth((), n=1)

    def test_offset_beyond_sequence(self):
        with pytest.raises(ConfigError, match="offset frame 12 beyond last frame 11"):
            self.synth((RegionMotion("mouth", 1.0, onset=1, apex=5, offset=12),), n=12)

    @pytest.mark.parametrize("width, n", [(10**20, 12), (160, 10**20)])
    def test_unaddressable_size_rejected(self, width, n):
        grid = make_grid(width, 120, 6, 4)
        motion = RegionMotion("mouth", 1.0, onset=1, apex=5, offset=9)
        with pytest.raises(ConfigError, match=rf"{n} frame\(s\) of {width}x120 exceed"):
            synth_expression(width, 120, grid, self.rmap, (motion,), n, seed=0)

    def test_grid_mismatch(self):
        grid = make_grid(80, 60, 6, 4)
        with pytest.raises(DataError, match="grid is 80x60, requested frames are 160x120"):
            synth_expression(160, 120, grid, self.rmap, (), 5, seed=0)


def _whole_frame_render(seq, truth):
    """Every frame resampled at every pixel, through the full-frame field."""
    base = seq[0].pixels
    ys, xs = np.indices(base.shape, dtype=np.float64)
    frames = [base]
    for t in range(1, len(seq)):
        du, dv = truth.field(t)
        frames.append(sample_bilinear(base, xs - du, ys - dv))
    return frames


class TestRenderMatchesWholeFrame:
    """Sampling only the pixels that can move gives the whole-frame render bit for bit.

    Frames are rendered each time they are indexed, so any order, and indexing
    a frame again, gives the same bits.
    """

    CELLS24 = "\n".join(f"region c{r}{c} = r{r}c{c}" for r in range(6) for c in range(4))

    @staticmethod
    def check(seq, truth):
        expected = _whole_frame_render(seq, truth)
        in_order = range(len(seq))
        reversed_twice = [t for t in reversed(in_order) for _ in range(2)]
        for order in (in_order, reversed_twice):
            for t in order:
                assert np.array_equal(seq[t].pixels, expected[t])

    @pytest.mark.parametrize(
        "width, height, text, motions",
        [
            pytest.param(320, 240, None, [("mouth", 2.0, 2, 8, 14), ("cheeks", 1.0, 3, 9, 15)],
                         id="default map"),
            pytest.param(160, 120, CELLS24, [("c41", 2.5, 1, 6, 12), ("c12", 1.33, 3, 9, 15),
                                             ("c11", 0.5, 0, 4, 10)],
                         id="cells24"),
            # The L's bounding box holds all of "b".
            pytest.param(160, 120, "region a = r0c0, r1c0, r1c1\nregion b = r0c1",
                         [("a", 3.0, 1, 5, 9), ("b", 1.5, 2, 6, 10)],
                         id="overlapping boxes"),
            pytest.param(160, 120, None, [("mouth", 0.0, 2, 8, 14), ("cheeks", 1.0, 3, 9, 15)],
                         id="amplitude 0"),
        ],
    )
    def test_expression(self, width, height, text, motions):
        grid = make_grid(width, height)
        rmap = default_region_map() if text is None else parse_region_map(text)
        seq, truth = synth_expression(
            width, height, grid, rmap, [RegionMotion(*m) for m in motions], 16, seed=3
        )
        self.check(seq, truth)

    def test_translation(self):
        seq, truth = translate_sequence(make_texture(48, 40, seed=4), 0.37, -0.61, 8)
        self.check(seq, truth)


def _synth(mode, n):
    if mode == "expression":
        motions = (RegionMotion("mouth", 2.0, 2, 8, 14), RegionMotion("cheeks", 1.0, 3, 9, 15))
        return synth_expression(160, 120, make_grid(160, 120), default_region_map(), motions,
                                n, seed=3)
    return translate_sequence(make_texture(160, 120, seed=3), 0.25, -0.35, n)


@pytest.mark.parametrize("mode", ["expression", "translation"])
class TestDeferredFrames:
    """A synthetic sequence renders a frame each time it is indexed and keeps none."""

    def test_nothing_rendered_until_indexed(self, monkeypatch, mode):
        calls = []

        def counting(*args):
            calls.append(args)
            return sample_bilinear(*args)

        monkeypatch.setattr(faceflow.synth, "sample_bilinear", counting)
        seq, truth = _synth(mode, 16)
        assert len(calls) == 0
        assert truth.field(8)[0].any()
        seq[8]
        seq[8]
        assert len(calls) == 2
        seq[0]  # the base texture itself
        assert len(calls) == 2

    def test_memory_does_not_grow_with_the_count(self, mode):
        def peak(n):
            tracemalloc.start()
            try:
                seq, _ = _synth(mode, n)
                for frame in seq:
                    assert frame.width == 160
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        frame = 160 * 120 * 8
        assert abs(peak(80) - peak(20)) < frame


class TestFeather:
    def test_matches_scipy_distance_transform(self):
        from scipy.ndimage import distance_transform_edt

        rng = np.random.default_rng(16)
        for _ in range(300):
            h, w = (int(v) for v in rng.integers(3, 40, size=2))
            mask = np.zeros((h, w), dtype=bool)
            for _ in range(int(rng.integers(1, 5))):
                y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
                mask[y0 : int(rng.integers(y0, h)) + 1, x0 : int(rng.integers(x0, w)) + 1] = True
            if mask.all():
                mask[int(rng.integers(0, h)), int(rng.integers(0, w))] = False
            expected = np.minimum(distance_transform_edt(mask) / 4.0, 1.0)
            assert np.array_equal(_feather(mask), expected)

    def test_frame_edge_is_not_a_boundary(self):
        # r0c0 of a 2x2 grid on 64x48: the top and left edges are the frame's.
        grid = make_grid(64, 48, rows=2, cols=2)
        motion = RegionMotion("corner", 1.0, onset=1, apex=2, offset=3)
        _, truth = synth_expression(
            64, 48, grid, parse_region_map("region corner = r0c0"), (motion,), 4, seed=0
        )
        weight = truth.weights["corner"]
        assert np.all(weight[:20, :28] == 1.0)
        assert np.array_equal(weight[0, 28:32], [1.0, 0.75, 0.5, 0.25])
        assert np.array_equal(weight[20:24, 0], [1.0, 0.75, 0.5, 0.25])
        assert np.all(weight[24:, :] == 0.0) and np.all(weight[:, 32:] == 0.0)

    def test_region_covering_the_frame_is_not_feathered(self):
        grid = make_grid(32, 24, rows=1, cols=1)
        motion = RegionMotion("all", 2.0, onset=1, apex=3, offset=5)
        seq, truth = synth_expression(
            32, 24, grid, parse_region_map("region all = r0c0"), (motion,), 6, seed=0
        )
        assert np.all(truth.weights["all"] == 1.0)
        # The whole texture shifts 2 px right at the apex, replicating the left column.
        assert np.array_equal(seq[3].pixels[:, 2:], seq[0].pixels[:, :-2])


class TestRegionMotion:
    def test_ordering_enforced(self):
        with pytest.raises(ConfigError, match="need 0 <= onset <= apex <= offset, got 5/3/9"):
            RegionMotion("mouth", 1.0, onset=5, apex=3, offset=9)

    def test_negative_onset_rejected(self):
        with pytest.raises(ConfigError, match="need 0 <= onset <= apex <= offset, got -1/3/9"):
            RegionMotion("mouth", 1.0, onset=-1, apex=3, offset=9)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ConfigError, match="amplitude must be finite and >= 0, got -1.0"):
            RegionMotion("mouth", -1.0, onset=1, apex=3, offset=9)

    def test_apex_at_offset_rejected(self):
        # The ramp would drop to zero at the apex frame and never reach the amplitude.
        with pytest.raises(ConfigError, match="apex must come before offset"):
            RegionMotion("mouth", 2.0, onset=3, apex=10, offset=10)

    def test_apex_at_frame_zero_rejected(self):
        # Frame 0 is the undisplaced reference, so it cannot carry the amplitude.
        with pytest.raises(ConfigError, match="apex must come after frame 0"):
            RegionMotion("mouth", 1.0, onset=0, apex=0, offset=5)

    def test_still_motion_at_frame_zero_allowed(self):
        grid = make_grid(160, 120)
        motion = RegionMotion("mouth", 0.0, onset=0, apex=0, offset=5)
        _, truth = synth_expression(160, 120, grid, default_region_map(), (motion,), 6, seed=0)
        assert not truth.profiles["mouth"].any()

    def test_apex_at_onset_reaches_amplitude(self):
        grid = make_grid(160, 120)
        motion = RegionMotion("mouth", 2.0, onset=3, apex=3, offset=10)
        _, truth = synth_expression(160, 120, grid, default_region_map(), (motion,), 12, seed=0)
        assert truth.profiles["mouth"][3] == 2.0

    def test_flat_profile_allowed(self):
        motion = RegionMotion("mouth", 0.0, onset=2, apex=2, offset=2)
        assert motion.amplitude == 0.0
