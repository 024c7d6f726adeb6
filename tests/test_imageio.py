"""Netpbm decoding, encoding, grayscale conversion, and sequence loading."""

from __future__ import annotations

import numpy as np
import pytest

from faceflow import (
    DimensionMismatch,
    EmptySequence,
    FrameSequence,
    Image,
    MalformedHeader,
    RgbImage,
    TruncatedPayload,
    UnsupportedMaxval,
    decode_pgm,
    decode_ppm,
    encode_pgm,
    load_sequence,
    rgb_to_gray,
)


def pgm_bytes(width, height, maxval, payload):
    return f"P5\n{width} {height}\n{maxval}\n".encode() + bytes(payload)


def ppm_bytes(width, height, maxval, payload):
    return f"P6\n{width} {height}\n{maxval}\n".encode() + bytes(payload)


class TestDecodePgm:
    def test_two_by_two(self):
        img = decode_pgm(pgm_bytes(2, 2, 255, [0, 255, 128, 64]))
        expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        assert np.array_equal(img.pixels, expected)
        assert img.width == 2 and img.height == 2

    def test_values_scaled_by_maxval(self):
        img = decode_pgm(pgm_bytes(2, 1, 100, [0, 50]))
        assert np.array_equal(img.pixels, np.array([[0.0, 0.5]]))

    def test_comments_in_header(self):
        data = b"P5 # magic\n# a comment line\n2 1 # dims\n255\n\x00\xff"
        img = decode_pgm(data)
        assert np.array_equal(img.pixels, np.array([[0.0, 1.0]]))

    def test_any_whitespace_between_tokens(self):
        data = b"P5\t\n 2\r1\n255 \x00\xff"
        img = decode_pgm(data)
        assert img.pixels.shape == (1, 2)

    def test_single_whitespace_after_maxval(self):
        # The byte right after the maxval terminator is pixel data even if
        # it looks like whitespace.
        data = b"P5\n1 2\n255\n\x0a\x20"
        img = decode_pgm(data)
        assert np.array_equal(img.pixels, np.array([[0x0A / 255], [0x20 / 255]]))

    def test_trailing_bytes_ignored(self):
        img = decode_pgm(pgm_bytes(1, 1, 255, [7]) + b"extra")
        assert img.pixels.shape == (1, 1)

    def test_bad_magic(self):
        with pytest.raises(MalformedHeader):
            decode_pgm(b"P2\n1 1\n255\n\x00")

    def test_truncated_header(self):
        with pytest.raises(MalformedHeader):
            decode_pgm(b"P5\n2 2\n")

    def test_nonnumeric_dimension(self):
        with pytest.raises(MalformedHeader):
            decode_pgm(b"P5\nx 2\n255\n\x00")

    def test_zero_dimension(self):
        with pytest.raises(MalformedHeader):
            decode_pgm(b"P5\n0 2\n255\n")

    def test_maxval_zero(self):
        with pytest.raises(MalformedHeader):
            decode_pgm(b"P5\n1 1\n0\n\x00")

    def test_maxval_above_255(self):
        with pytest.raises(UnsupportedMaxval):
            decode_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_short_payload(self):
        with pytest.raises(TruncatedPayload):
            decode_pgm(pgm_bytes(2, 2, 255, [0, 1, 2]))

    def test_empty_input(self):
        with pytest.raises(MalformedHeader):
            decode_pgm(b"")

    def test_sample_above_maxval(self):
        with pytest.raises(UnsupportedMaxval, match="255 exceeds maxval 100"):
            decode_pgm(pgm_bytes(2, 2, 100, [255, 0, 50, 100]))


class TestDecodePpm:
    def test_pixel_bytes_verbatim(self):
        payload = [10, 20, 30, 40, 50, 60]
        img = decode_ppm(ppm_bytes(2, 1, 255, payload))
        assert isinstance(img, RgbImage)
        assert np.array_equal(img.pixels, np.array([[[10, 20, 30], [40, 50, 60]]]))

    def test_sub_255_maxval_bytes_kept(self):
        img = decode_ppm(ppm_bytes(1, 1, 100, [50, 25, 0]))
        assert np.array_equal(img.pixels, np.array([[[50, 25, 0]]]))

    def test_wrong_magic(self):
        with pytest.raises(MalformedHeader):
            decode_ppm(pgm_bytes(1, 1, 255, [0]))

    def test_short_payload(self):
        with pytest.raises(TruncatedPayload):
            decode_ppm(ppm_bytes(2, 2, 255, [0] * 11))

    def test_maxval_above_255(self):
        with pytest.raises(UnsupportedMaxval):
            decode_ppm(b"P6\n1 1\n300\n" + b"\x00" * 6)

    def test_sample_above_maxval(self):
        with pytest.raises(UnsupportedMaxval, match="16 exceeds maxval 15"):
            decode_ppm(ppm_bytes(1, 2, 15, [15, 15, 15, 0, 16, 0]))


class TestEncodePgm:
    def test_round_trip(self):
        original = decode_pgm(pgm_bytes(3, 2, 255, range(6)))
        again = decode_pgm(encode_pgm(original))
        assert np.array_equal(again.pixels, original.pixels)

    def test_payload_bytes(self):
        img = Image(np.array([[0.0, 0.5, 1.0]]))
        data = encode_pgm(img)
        assert data.startswith(b"P5\n3 1\n255\n")
        assert data[-3:] == bytes([0, 128, 255])

    def test_values_clipped(self):
        img = Image(np.array([[-0.5, 1.5]]))
        assert encode_pgm(img)[-2:] == bytes([0, 255])


class TestRgbToGray:
    def test_pure_red(self):
        rgb = RgbImage(np.full((1, 1, 3), [255, 0, 0], dtype=np.uint8))
        assert rgb_to_gray(rgb).pixels[0, 0] == 0.299

    def test_pure_green(self):
        rgb = RgbImage(np.full((1, 1, 3), [0, 255, 0], dtype=np.uint8))
        assert rgb_to_gray(rgb).pixels[0, 0] == 0.587

    def test_pure_blue(self):
        rgb = RgbImage(np.full((1, 1, 3), [0, 0, 255], dtype=np.uint8))
        assert rgb_to_gray(rgb).pixels[0, 0] == 0.114

    def test_gray_pixels_map_to_exact_fraction(self):
        ks = np.arange(256, dtype=np.uint8)
        rgb = RgbImage(np.stack([ks, ks, ks], axis=-1).reshape(16, 16, 3))
        gray = rgb_to_gray(rgb)
        assert np.array_equal(gray.pixels, ks.astype(np.float64).reshape(16, 16) / 255)

    def test_output_in_unit_range(self):
        rng = np.random.default_rng(0)
        rgb = RgbImage(rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8))
        gray = rgb_to_gray(rgb)
        assert gray.pixels.min() >= 0.0 and gray.pixels.max() <= 1.0


class TestImageTypes:
    def test_image_requires_2d(self):
        with pytest.raises(ValueError):
            Image(np.zeros((2, 2, 3)))

    def test_rgb_requires_three_channels(self):
        with pytest.raises(ValueError):
            RgbImage(np.zeros((2, 2, 4), dtype=np.uint8))

    def test_sequence_rejects_mixed_dims(self):
        a = Image(np.zeros((2, 2)))
        b = Image(np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            FrameSequence((a, b))

    def test_sequence_iteration(self):
        frames = tuple(Image(np.full((2, 2), i / 10)) for i in range(3))
        seq = FrameSequence(frames)
        assert len(seq) == 3
        assert seq[1] is frames[1]
        assert tuple(seq) == frames


class TestLoadSequence:
    def test_natural_sort_order(self, tmp_path):
        # Write frames whose lexicographic and numeric orders differ.
        for i, value in [(2, 20), (10, 100), (1, 10)]:
            (tmp_path / f"frame_{i}.pgm").write_bytes(pgm_bytes(1, 1, 255, [value]))
        seq = load_sequence(tmp_path)
        values = [round(img.pixels[0, 0] * 255) for img in seq]
        assert values == [10, 20, 100]

    def test_ppm_converted_to_gray(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(ppm_bytes(1, 1, 255, [255, 255, 255]))
        seq = load_sequence(tmp_path)
        assert seq[0].pixels[0, 0] == 1.0

    def test_no_matching_files(self, tmp_path):
        with pytest.raises(EmptySequence):
            load_sequence(tmp_path)

    def test_pattern_filters_files(self, tmp_path):
        (tmp_path / "keep_1.pgm").write_bytes(pgm_bytes(1, 1, 255, [1]))
        (tmp_path / "skip_1.pgm").write_bytes(pgm_bytes(1, 1, 255, [2]))
        seq = load_sequence(tmp_path, pattern="keep_*.pgm")
        assert len(seq) == 1

    def test_mismatched_dimensions_name_file(self, tmp_path):
        (tmp_path / "a_1.pgm").write_bytes(pgm_bytes(1, 1, 255, [0]))
        (tmp_path / "a_2.pgm").write_bytes(pgm_bytes(2, 1, 255, [0, 0]))
        with pytest.raises(DimensionMismatch, match="a_2.pgm"):
            load_sequence(tmp_path)

    @pytest.mark.parametrize("maxval", [1, 15, 100, 255])
    def test_ppm_and_pgm_of_one_grey_level_agree(self, tmp_path, maxval):
        levels = sorted({0, 1, maxval // 3, maxval // 2, maxval})
        (tmp_path / "a_1.pgm").write_bytes(pgm_bytes(len(levels), 1, maxval, levels))
        rgb = [level for level in levels for _ in range(3)]
        (tmp_path / "a_2.pgm").write_bytes(ppm_bytes(len(levels), 1, maxval, rgb))
        gray, color = load_sequence(tmp_path)
        assert np.array_equal(gray.pixels, color.pixels)
        assert color.pixels.max() == 1.0

    @pytest.mark.parametrize("data", [pgm_bytes(1, 1, 15, [16]), ppm_bytes(1, 1, 15, [0, 16, 0])],
                             ids=["P5", "P6"])
    def test_sample_above_maxval_names_file(self, tmp_path, data):
        (tmp_path / "over_1.pgm").write_bytes(data)
        with pytest.raises(UnsupportedMaxval, match="over_1.pgm"):
            load_sequence(tmp_path)

    def test_decode_error_names_file(self, tmp_path):
        (tmp_path / "bad_1.pgm").write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(TruncatedPayload, match="bad_1.pgm"):
            load_sequence(tmp_path)
