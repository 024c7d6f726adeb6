"""Smoothing, gradients, single-level and pyramidal Lucas-Kanade."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import faceflow.flow
from faceflow import (
    ConfigError,
    DataError,
    FlowParams,
    Image,
    gaussian_smooth,
    lucas_kanade,
    make_texture,
    pyramidal_lk,
    sample_bilinear,
    spatiotemporal_gradients,
    translate_sequence,
)
from faceflow.flow import FlowField, _window_means, flow_support, stage_frame

INTERIOR = 9  # margin past the default window radius, clear of border effects


def shifted_pair(width, height, dx, dy, seed):
    base = make_texture(width, height, seed=seed)
    seq, _ = translate_sequence(base, dx, dy, 2)
    return seq[0], seq[1]


class TestGaussianSmooth:
    def test_sigma_zero_is_identity(self):
        img = Image(np.random.default_rng(0).random((5, 5)))
        assert gaussian_smooth(img, 0.0) is img

    def test_constant_preserved(self):
        img = Image(np.full((9, 9), 0.5))
        out = gaussian_smooth(img, 1.3)
        assert np.allclose(out.pixels, 0.5, atol=1e-14)

    def test_impulse_matches_sampled_gaussian(self):
        sigma = 1.5
        radius = math.ceil(3 * sigma)
        pixels = np.zeros((21, 21))
        pixels[10, 10] = 1.0
        out = gaussian_smooth(Image(pixels), sigma)

        offsets = np.arange(-radius, radius + 1)
        kernel = np.exp(-(offsets**2) / (2 * sigma**2))
        kernel /= kernel.sum()
        expected = np.zeros((21, 21))
        expected[10 - radius : 10 + radius + 1, 10 - radius : 10 + radius + 1] = (
            np.outer(kernel, kernel)
        )
        assert np.allclose(out.pixels, expected, atol=1e-6)

    def test_output_stays_in_unit_range(self):
        img = Image(np.random.default_rng(1).random((16, 16)))
        out = gaussian_smooth(img, 2.0)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError, match="sigma must be >= 0"):
            gaussian_smooth(Image(np.zeros((3, 3))), -1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError, match="smooth_sigma must be finite"):
            gaussian_smooth(Image(np.zeros((32, 32))), sigma)

    @pytest.mark.parametrize("sigma", [10.7, 11.0])
    def test_kernel_wider_than_image_rejected(self, sigma):
        # The frame-fit rule of pyramidal_lk: 3 sigma <= min dimension.
        img = make_texture(32, 32, seed=4)
        with pytest.raises(ConfigError, match=r"needs a kernel radius ceil\(3 sigma\)"):
            gaussian_smooth(img, sigma)
        assert gaussian_smooth(img, 10.0).pixels.shape == (32, 32)

    @pytest.mark.parametrize("sigma", [5e-324, 1e-200, 1e-163, 1e-160, 1e-155, 1e-3])
    def test_tiny_sigma_is_an_exact_delta(self, sigma):
        # 2 sigma^2 underflows below about 1e-162; the weights stay a delta.
        img = make_texture(20, 16, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = gaussian_smooth(img, sigma)
        assert np.array_equal(out.pixels, img.pixels)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.5])
    def test_ordinary_sigma_weights_unchanged(self, sigma):
        radius = math.ceil(3 * sigma)
        offsets = np.arange(-radius, radius + 1, dtype=np.float64)
        kernel = np.exp(-(offsets * offsets) / (2.0 * sigma * sigma))
        kernel /= kernel.sum()
        pixels = np.zeros((2 * radius + 1, 2 * radius + 1))
        pixels[radius, radius] = 1.0
        out = gaussian_smooth(Image(pixels), sigma)
        assert np.array_equal(out.pixels[radius], kernel * kernel[radius])


class TestGradients:
    def test_uniform_step_gives_it(self):
        i1 = Image(np.full((5, 5), 0.2))
        i2 = Image(np.full((5, 5), 0.7))
        g = spatiotemporal_gradients(i1, i2)
        assert np.allclose(g.it, 0.5, atol=1e-15)
        assert np.array_equal(g.ix, np.zeros((5, 5)))
        assert np.array_equal(g.iy, np.zeros((5, 5)))

    def test_horizontal_ramp(self):
        ramp = Image(np.tile(np.arange(6, dtype=np.float64) / 10, (4, 1)))
        g = spatiotemporal_gradients(ramp, ramp)
        # Central difference recovers the slope in the interior; the
        # replicate border halves it at the first and last columns.
        assert np.allclose(g.ix[:, 1:-1], 0.1)
        assert np.allclose(g.ix[:, 0], 0.05)
        assert np.allclose(g.ix[:, -1], 0.05)
        assert np.allclose(g.iy, 0.0)

    def test_vertical_ramp(self):
        ramp = Image(np.tile(np.arange(6, dtype=np.float64).reshape(-1, 1) / 10, (1, 4)))
        g = spatiotemporal_gradients(ramp, ramp)
        assert np.allclose(g.iy[1:-1, :], 0.1)
        assert np.allclose(g.ix, 0.0)

    def test_gradients_use_frame_average(self):
        rng = np.random.default_rng(2)
        a, b = Image(rng.random((6, 6))), Image(rng.random((6, 6)))
        g_ab = spatiotemporal_gradients(a, b)
        g_ba = spatiotemporal_gradients(b, a)
        assert np.allclose(g_ab.ix, g_ba.ix)
        assert np.allclose(g_ab.it, -g_ba.it)

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="frames are 4x4 and 4x5"):
            spatiotemporal_gradients(Image(np.zeros((4, 4))), Image(np.zeros((5, 4))))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (2, 3), (5, 2)])
    def test_narrow_frames_use_replicate_border(self, shape):
        rng = np.random.default_rng(3)
        a, b = rng.random(shape), rng.random(shape)
        g = spatiotemporal_gradients(Image(a), Image(b))
        p = np.pad((a + b) * 0.5, 1, mode="edge")
        assert np.array_equal(g.ix, (p[1:-1, 2:] - p[1:-1, :-2]) * 0.5)
        assert np.array_equal(g.iy, (p[2:, 1:-1] - p[:-2, 1:-1]) * 0.5)
        assert np.array_equal(g.it, b - a)


class TestFlowField:
    def test_rasters_must_share_one_shape(self):
        with pytest.raises(DataError, match="flow rasters must share one shape"):
            FlowField(u=np.zeros((2, 3)), v=np.zeros((2, 3)), valid=np.ones((3, 2), dtype=bool))


class TestWindowMeans:
    def test_full_hd_matches_exact_sums(self):
        # An integral image's rounding error grows with the frame area: on
        # this field it is 1.4e-12 relative at the far corner. The separable
        # filter must stay within 1e-12 of math.fsum there and elsewhere.
        h, w, r = 1080, 1920, 7
        rng = np.random.default_rng(0)
        field = rng.random((h, w))
        means = _window_means(field[None].copy(), r)[0]
        pixels = [(h - 1, w - 1), (0, 0)]
        pixels += [(int(y), int(x)) for y, x in zip(rng.integers(0, h, 60), rng.integers(0, w, 60))]
        for y, x in pixels:
            window = field[max(y - r, 0) : y + r + 1, max(x - r, 0) : x + r + 1]
            exact = math.fsum(window.ravel()) / (2 * r + 1) ** 2
            assert abs(means[y, x] - exact) <= 1e-12 * exact, (y, x)

    def test_planes_summed_independently_in_place(self):
        rng = np.random.default_rng(1)
        planes = rng.random((3, 9, 11))
        expected = [_window_means(plane[None].copy(), 2)[0] for plane in planes]
        out = _window_means(planes, 2)
        assert out is planes
        for got, want in zip(planes, expected):
            assert np.array_equal(got, want)


class TestSampleBilinear:
    def test_integer_coordinates_copy(self):
        values = np.random.default_rng(3).random((7, 9))
        ys, xs = np.mgrid[0:7, 0:9].astype(np.float64)
        assert np.array_equal(sample_bilinear(values, xs, ys), values)

    def test_midpoint_average(self):
        values = np.array([[0.0, 1.0]])
        out = sample_bilinear(values, np.array([0.5]), np.array([0.0]))
        assert out[0] == 0.5

    def test_bilinear_mix(self):
        values = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = sample_bilinear(values, np.array([0.25]), np.array([0.75]))
        assert np.isclose(out[0], 0.25 + 0.75 * 2.0)

    def test_coordinates_clamped(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = sample_bilinear(values, np.array([-5.0, 10.0]), np.array([-5.0, 10.0]))
        assert np.array_equal(out, np.array([1.0, 4.0]))


class TestLucasKanade:
    def test_identical_frames_zero_flow(self):
        base = make_texture(64, 64, seed=0)
        field = lucas_kanade(base, base, FlowParams())
        assert np.abs(field.u).max() == 0.0
        assert np.abs(field.v).max() == 0.0
        assert field.valid.all()

    def test_flat_image_all_invalid(self):
        flat = Image(np.full((32, 32), 0.5))
        field = lucas_kanade(flat, flat, FlowParams())
        assert not field.valid.any()
        assert np.array_equal(field.u, np.zeros((32, 32)))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_unit_shift_recovered(self, seed):
        i1, i2 = shifted_pair(96, 96, 1.0, 0.0, seed)
        field = lucas_kanade(i1, i2, FlowParams())
        m = INTERIOR
        u = field.u[m:-m, m:-m]
        v = field.v[m:-m, m:-m]
        valid = field.valid[m:-m, m:-m]
        assert valid.mean() > 0.95
        assert u[valid].min() >= 0.85 and u[valid].max() <= 1.15
        assert np.abs(v[valid]).max() <= 0.15

    def test_vertical_shift_recovered(self):
        i1, i2 = shifted_pair(96, 96, 0.0, 1.0, 4)
        field = lucas_kanade(i1, i2, FlowParams())
        m = INTERIOR
        v = field.v[m:-m, m:-m][field.valid[m:-m, m:-m]]
        assert 0.85 <= v.mean() <= 1.15

    def test_matches_least_squares_oracle(self):
        # Closed-form 2x2 solve must agree with numpy lstsq on the same
        # stacked window equations.
        i1, i2 = shifted_pair(48, 48, 0.6, -0.4, 5)
        params = FlowParams(smooth_sigma=0.0)
        field = lucas_kanade(i1, i2, params)
        g = spatiotemporal_gradients(i1, i2)
        r = params.window_radius
        h, w = 48, 48
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(30):
            y, x = rng.integers(0, h), rng.integers(0, w)
            if not field.valid[y, x]:
                continue
            ys = slice(max(y - r, 0), min(y + r + 1, h))
            xs = slice(max(x - r, 0), min(x + r + 1, w))
            a = np.column_stack([g.ix[ys, xs].ravel(), g.iy[ys, xs].ravel()])
            b = -g.it[ys, xs].ravel()
            (u, v), *_ = np.linalg.lstsq(a, b, rcond=None)
            assert math.isclose(field.u[y, x], u, rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(field.v[y, x], v, rel_tol=1e-9, abs_tol=1e-12)
            checked += 1
        assert checked >= 20

    def test_mirror_equivariance(self):
        i1, i2 = shifted_pair(64, 64, 0.8, 0.3, 6)
        field = lucas_kanade(i1, i2, FlowParams())
        m1 = Image(i1.pixels[:, ::-1].copy())
        m2 = Image(i2.pixels[:, ::-1].copy())
        mirrored = lucas_kanade(m1, m2, FlowParams())
        k = INTERIOR
        both = field.valid & mirrored.valid[:, ::-1]
        sel = np.zeros_like(both)
        sel[k:-k, k:-k] = both[k:-k, k:-k]
        assert np.allclose(field.u[sel], -mirrored.u[:, ::-1][sel], atol=1e-9)
        assert np.allclose(field.v[sel], mirrored.v[:, ::-1][sel], atol=1e-9)

    @pytest.mark.parametrize("scale", [0.5, 0.25, 0.125])
    def test_brightness_scale_invariance(self, scale):
        # Scaling both frames by a power of two scales every intermediate
        # float exactly, so the quotient u = num/det is bit-identical.
        i1, i2 = shifted_pair(48, 48, 0.5, 0.0, 7)
        params = FlowParams(eigen_threshold=0.0)
        a = lucas_kanade(i1, i2, params)
        b = lucas_kanade(
            Image(i1.pixels * scale), Image(i2.pixels * scale), params
        )
        assert np.array_equal(a.valid, b.valid)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)

    def test_validity_shrinks_with_threshold(self):
        i1, i2 = shifted_pair(48, 48, 0.4, 0.2, 8)
        previous = None
        for tau in [0.0, 1e-6, 1e-4, 1e-2]:
            valid = lucas_kanade(i1, i2, FlowParams(eigen_threshold=tau)).valid
            if previous is not None:
                assert (valid <= previous).all()
            previous = valid

    def test_invalid_pixels_have_zero_flow(self):
        i1, i2 = shifted_pair(48, 48, 0.4, 0.2, 9)
        field = lucas_kanade(i1, i2, FlowParams(eigen_threshold=1e-2))
        assert not field.valid.all()
        assert np.array_equal(field.u[~field.valid], np.zeros((~field.valid).sum()))
        assert np.array_equal(field.v[~field.valid], np.zeros((~field.valid).sum()))


class TestPyramidalLk:
    def test_single_level_matches_plain(self):
        i1, i2 = shifted_pair(48, 48, 0.7, -0.3, 1)
        a = lucas_kanade(i1, i2, FlowParams())
        b = pyramidal_lk(i1, i2, FlowParams(pyramid_levels=1))
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.valid, b.valid)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_shift_recovered(self, seed):
        i1, i2 = shifted_pair(128, 128, 4.0, 0.0, seed)
        field = pyramidal_lk(i1, i2, FlowParams(pyramid_levels=3))
        m = 20
        u = field.u[m:-m, m:-m]
        valid = field.valid[m:-m, m:-m]
        assert abs(u[valid].mean() - 4.0) <= 0.3

    def test_too_many_levels_rejected(self):
        img = Image(np.zeros((16, 16)))
        with pytest.raises(ConfigError, match=r"level\(s\) with window radius"):
            pyramidal_lk(img, img, FlowParams(pyramid_levels=5))

    def test_depth_limit_boundary(self):
        # Equality is allowed: min dim >= 2^(levels-1) * (2r+1), and with
        # radius 7 a 120-pixel side gives exactly 2^3 * 15 = 120 for 4 levels.
        img = Image(np.random.default_rng(0).random((120, 120)))
        pyramidal_lk(img, img, FlowParams(pyramid_levels=4))
        with pytest.raises(ConfigError, match=r"level\(s\) with window radius"):
            pyramidal_lk(img, img, FlowParams(pyramid_levels=5))

    @pytest.mark.parametrize("solve", [lucas_kanade, pyramidal_lk])
    def test_single_level_window_must_fit(self, solve):
        img = Image(np.zeros((120, 160)))
        solve(img, img, FlowParams(window_radius=59))  # 119-pixel window fits
        with pytest.raises(ConfigError, match=r"level\(s\) with window radius"):
            solve(img, img, FlowParams(window_radius=60))
        with pytest.raises(ConfigError, match=r"level\(s\) with window radius"):
            solve(img, img, FlowParams(window_radius=100000))

    @pytest.mark.parametrize("solve", [lucas_kanade, pyramidal_lk])
    def test_smoothing_radius_must_fit(self, solve):
        img = Image(np.zeros((30, 40)))
        solve(img, img, FlowParams(smooth_sigma=10.0))  # radius 30 fits
        for sigma in (10.001, 1e7, 1e308):
            with pytest.raises(ConfigError, match="smoothing sigma"):
                solve(img, img, FlowParams(smooth_sigma=sigma))

    def test_huge_level_count_rejected(self):
        img = Image(np.zeros((16, 16)))
        with pytest.raises(ConfigError, match=r"level\(s\) with window radius"):
            pyramidal_lk(img, img, FlowParams(pyramid_levels=10**12))

    @pytest.mark.parametrize("sigma", [0.0, 0.7, 1.0, 2.5])
    def test_presmoothed_frames_solve_identically(self, sigma):
        # Smoothing is the first per-frame step of a single-level solve.
        i1, i2 = shifted_pair(64, 48, 0.6, -0.4, 4)
        direct = pyramidal_lk(i1, i2, FlowParams(smooth_sigma=sigma))
        pre = pyramidal_lk(gaussian_smooth(i1, sigma), gaussian_smooth(i2, sigma),
                           FlowParams(smooth_sigma=0.0))
        assert np.array_equal(direct.u, pre.u)
        assert np.array_equal(direct.v, pre.v)
        assert np.array_equal(direct.valid, pre.valid)
        assert direct.valid.any()

    def test_lucas_kanade_ignores_levels(self):
        i1, i2 = shifted_pair(48, 48, 0.5, 0.0, 2)
        a = lucas_kanade(i1, i2, FlowParams())
        b = lucas_kanade(i1, i2, FlowParams(pyramid_levels=3))
        assert np.array_equal(a.u, b.u)


class TestFlowSupport:
    def test_box_is_the_same_at_every_depth_that_fits(self):
        # The bounding box rows 20-39, cols 30-59, grown by 7 + 1 + ceil(3) = 11.
        region = np.zeros((120, 160), dtype=bool)
        region[20:40, 30:60] = True
        for levels in (1, 2, 3):
            box = flow_support(region, FlowParams(pyramid_levels=levels))
            assert box == (slice(9, 51), slice(19, 71)), levels
        with pytest.raises(ConfigError, match=r"^5 level\(s\) .* image is 160x120$"):
            flow_support(region, FlowParams(pyramid_levels=5))

    def test_box_clipped_at_an_edge_keeps_one_window_side(self):
        region = np.zeros((120, 160), dtype=bool)
        region[0, 159] = True
        rows, cols = flow_support(region, FlowParams(window_radius=9, smooth_sigma=0.0))
        assert (rows, cols) == (slice(0, 19), slice(141, 160))

    def test_empty_region_takes_the_whole_frame(self):
        box = flow_support(np.zeros((120, 160), dtype=bool), FlowParams(pyramid_levels=2))
        assert box == (slice(0, 120), slice(0, 160))


class TestStageFrame:
    BOXES = [(slice(9, 51), slice(19, 71)), (slice(0, 120), slice(0, 160))]

    def test_one_level_keeps_only_the_smoothed_crops(self):
        frame = make_texture(160, 120, seed=2)
        stage = stage_frame(frame, self.BOXES, FlowParams())
        assert stage.levels == []
        for crop, box in zip(stage.crops, self.BOXES):
            assert np.array_equal(crop.pixels, gaussian_smooth(Image(frame.pixels[box]), 1.0).pixels)
            assert not np.shares_memory(crop.pixels, frame.pixels)

    def test_pyramid_keeps_the_frame_and_its_coarser_levels(self):
        frame = make_texture(160, 120, seed=2)
        stage = stage_frame(frame, self.BOXES, FlowParams(pyramid_levels=3))
        assert stage.levels[0] is frame.pixels
        assert [level.shape for level in stage.levels] == [(120, 160), (60, 80), (30, 40)]
        assert len(stage.crops) == 2

    def test_pyramid_smooths_no_crop_of_the_second_frame(self, monkeypatch):
        # Two coarse levels smooth both frames, the finest level only the
        # first frame's crop and the second's warped input.
        smoothed = []
        smooth = faceflow.flow._smooth_array

        def recording_smooth(pixels, sigma):
            smoothed.append(pixels.shape)
            return smooth(pixels, sigma)

        monkeypatch.setattr(faceflow.flow, "_smooth_array", recording_smooth)
        i1, i2 = shifted_pair(160, 120, 1.5, -0.5, seed=2)
        pyramidal_lk(i1, i2, FlowParams(pyramid_levels=3))
        assert smoothed == [(120, 160), (30, 40), (30, 40), (60, 80), (60, 80), (120, 160)]


class TestFlowParams:
    def test_defaults(self):
        p = FlowParams()
        assert p.window_radius == 7
        assert p.smooth_sigma == 1.0
        assert p.eigen_threshold == 1e-6
        assert p.pyramid_levels == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_radius": 0},
            {"window_radius": -1},
            {"smooth_sigma": -0.5},
            {"eigen_threshold": -1e-9},
            {"pyramid_levels": 0},
            {"smooth_sigma": math.inf},
            {"smooth_sigma": math.nan},
            {"eigen_threshold": math.nan},
            {"eigen_threshold": math.inf},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError, match=f"{next(iter(kwargs))} must be"):
            FlowParams(**kwargs)
