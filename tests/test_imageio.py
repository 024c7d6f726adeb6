"""Netpbm decoding, encoding, grayscale conversion, and sequence loading."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from faceflow import (
    ConfigError,
    DataError,
    FrameSequence,
    Image,
    RegionMotion,
    default_region_map,
    encode_pgm,
    load_sequence,
    make_grid,
    synth_expression,
)
from faceflow.imageio import _DeferredFrame


def pgm_bytes(width, height, maxval, payload):
    return f"P5\n{width} {height}\n{maxval}\n".encode() + bytes(payload)


def ppm_bytes(width, height, maxval, payload):
    return f"P6\n{width} {height}\n{maxval}\n".encode() + bytes(payload)


@pytest.fixture
def decode(tmp_path):
    """Netpbm bytes decoded as faceflow reads a frame: frame 0 of a one-file sequence."""
    def decode(data):
        (tmp_path / "frame.pnm").write_bytes(data)
        return load_sequence(tmp_path, "frame.pnm")[0]
    return decode


class TestDecodePgm:
    def test_two_by_two(self, decode):
        img = decode(pgm_bytes(2, 2, 255, [0, 255, 128, 64]))
        expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]], dtype=np.float32)
        assert np.array_equal(img.pixels, expected)
        assert img.width == 2 and img.height == 2

    def test_values_scaled_by_maxval(self, decode):
        img = decode(pgm_bytes(2, 1, 100, [0, 50]))
        assert np.array_equal(img.pixels, np.array([[0.0, 0.5]]))

    def test_comments_in_header(self, decode):
        data = b"P5 # magic\n# a comment line\n2 1 # dims\n255\n\x00\xff"
        img = decode(data)
        assert np.array_equal(img.pixels, np.array([[0.0, 1.0]]))

    def test_any_whitespace_between_tokens(self, decode):
        data = b"P5\t\n 2\r1\n255 \x00\xff"
        img = decode(data)
        assert img.pixels.shape == (1, 2)

    def test_single_whitespace_after_maxval(self, decode):
        # The byte right after the maxval terminator is pixel data even if
        # it looks like whitespace.
        data = b"P5\n1 2\n255\n\x0a\x20"
        img = decode(data)
        assert np.array_equal(img.pixels, np.array([[0x0A / 255], [0x20 / 255]], dtype=np.float32))

    def test_trailing_bytes_ignored(self, decode):
        img = decode(pgm_bytes(1, 1, 255, [7]) + b"extra")
        assert img.pixels.shape == (1, 1)

    def test_bad_magic(self, decode):
        with pytest.raises(DataError, match="expected magic P5"):
            decode(b"P2\n1 1\n255\n\x00")

    def test_truncated_header(self, decode):
        with pytest.raises(DataError, match="header ended before"):
            decode(b"P5\n2 2\n")

    def test_nonnumeric_dimension(self, decode):
        with pytest.raises(DataError, match="non-numeric header token"):
            decode(b"P5\nx 2\n255\n\x00")

    def test_zero_dimension(self, decode):
        with pytest.raises(DataError, match="invalid dimensions 0x2"):
            decode(b"P5\n0 2\n255\n")

    def test_maxval_zero(self, decode):
        with pytest.raises(DataError, match="invalid maxval 0"):
            decode(b"P5\n1 1\n0\n\x00")

    def test_maxval_above_255(self, decode):
        with pytest.raises(DataError, match="maxval 65535 exceeds 255"):
            decode(b"P5\n1 1\n65535\n\x00\x00")

    def test_short_payload(self, decode):
        with pytest.raises(DataError, match="expected 4 sample bytes, got 3"):
            decode(pgm_bytes(2, 2, 255, [0, 1, 2]))

    @pytest.mark.parametrize("data", [b"P5 1 1 255", b"P5 1 1 255#c\n\x00"],
                             ids=["end-of-data", "comment"])
    def test_missing_whitespace_after_maxval(self, decode, data):
        with pytest.raises(DataError, match="missing whitespace byte after maxval"):
            decode(data)

    def test_empty_input(self, decode):
        with pytest.raises(DataError, match="header ended before"):
            decode(b"")

    def test_sample_above_maxval(self, decode):
        with pytest.raises(DataError, match="255 exceeds maxval 100"):
            decode(pgm_bytes(2, 2, 100, [255, 0, 50, 100]))

    @pytest.mark.parametrize("magic", ["P5", "P6"])
    def test_header_number_over_int_digit_limit(self, decode, magic):
        # 5000 digits is past the 4300-digit limit of int() on Python >= 3.11.
        with pytest.raises(DataError, match="header number too long"):
            decode(f"{magic}\n{'1' * 5000} 2\n255\n".encode() + bytes(12))


class TestDecodePpm:
    def test_returns_grey_image(self, decode):
        img = decode(ppm_bytes(2, 1, 255, [10, 20, 30, 40, 50, 60]))
        assert isinstance(img, Image)
        assert img.pixels.shape == (1, 2) and img.width == 2 and img.height == 1

    @pytest.mark.parametrize("maxval", [1, 15, 100])
    def test_grey_level_over_maxval(self, decode, maxval):
        ks = list(range(maxval + 1))
        img = decode(ppm_bytes(len(ks), 1, maxval, [k for k in ks for _ in range(3)]))
        assert np.array_equal(img.pixels, (np.array([ks], dtype=np.float64) / maxval).astype(np.float32))
        assert img.pixels[0, -1] == 1.0

    def test_short_payload(self, decode):
        with pytest.raises(DataError, match="expected 12 sample bytes, got 11"):
            decode(ppm_bytes(2, 2, 255, [0] * 11))

    def test_maxval_above_255(self, decode):
        with pytest.raises(DataError, match="maxval 300 exceeds 255"):
            decode(b"P6\n1 1\n300\n" + b"\x00" * 6)

    def test_sample_above_maxval(self, decode):
        with pytest.raises(DataError, match="16 exceeds maxval 15"):
            decode(ppm_bytes(1, 2, 15, [15, 15, 15, 0, 16, 0]))


class TestEncodePgm:
    def test_round_trip(self, decode):
        original = decode(pgm_bytes(3, 2, 255, range(6)))
        again = decode(encode_pgm(original))
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
    """A P6 frame's BT.601 luma, computed in integers and divided once."""

    @pytest.fixture
    def ppm_gray(self, decode):
        def gray(rgb):
            rgb = np.asarray(rgb, dtype=np.uint8)
            height, width, _ = rgb.shape
            return decode(ppm_bytes(width, height, 255, rgb.tobytes())).pixels
        return gray

    def test_pure_red(self, ppm_gray):
        assert ppm_gray([[[255, 0, 0]]])[0, 0] == np.float32(0.299)

    def test_pure_green(self, ppm_gray):
        assert ppm_gray([[[0, 255, 0]]])[0, 0] == np.float32(0.587)

    def test_pure_blue(self, ppm_gray):
        assert ppm_gray([[[0, 0, 255]]])[0, 0] == np.float32(0.114)

    def test_gray_pixels_map_to_exact_fraction(self, ppm_gray):
        ks = np.arange(256, dtype=np.uint8)
        gray = ppm_gray(np.stack([ks, ks, ks], axis=-1).reshape(16, 16, 3))
        assert np.array_equal(gray, (ks.astype(np.float64).reshape(16, 16) / 255).astype(np.float32))

    def test_output_in_unit_range(self, ppm_gray):
        rng = np.random.default_rng(0)
        gray = ppm_gray(rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8))
        assert gray.min() >= 0.0 and gray.max() <= 1.0


class TestImageTypes:
    def test_image_requires_2d(self):
        with pytest.raises(ConfigError, match="non-empty 2-D array"):
            Image(np.zeros((2, 2, 3)))

    @pytest.mark.parametrize("data", [pgm_bytes(1, 1, 255, [7]), ppm_bytes(1, 1, 255, [7, 8, 9])],
                             ids=["P5", "P6"])
    def test_decoded_frame_is_float32(self, decode, data):
        assert decode(data).pixels.dtype == np.float32

    @pytest.mark.parametrize("dtype, kept", [
        (np.float64, np.float64), (np.float32, np.float32), (np.float16, np.float64),
        (np.uint8, np.float64), (np.int64, np.float64),
    ])
    def test_image_keeps_float32_and_makes_the_rest_float64(self, dtype, kept):
        pixels = np.zeros((2, 2), dtype=dtype)
        image = Image(pixels)
        assert image.pixels.dtype == kept
        assert (image.pixels is pixels) == (dtype == kept)

    def test_sequence_rejects_no_frames(self):
        with pytest.raises(DataError, match="frame sequence has no frames"):
            FrameSequence(())

    def test_sequence_rejects_mixed_dims(self):
        a = Image(np.zeros((2, 2)))
        b = Image(np.zeros((3, 2)))
        with pytest.raises(DataError, match="frame 1 is 2x3, expected 2x2"):
            FrameSequence((a, b))

    @pytest.mark.parametrize("names, message", [
        (("", ""), "frame 1 is 2x3, expected 2x2 from frame 0"),
        (("a_1.pgm", "a_2.pgm"), "a_2.pgm is 2x3, expected 2x2 from a_1.pgm"),
        (("", "a_2.pgm"), "a_2.pgm is 2x3, expected 2x2 from frame 0"),
    ], ids=["in-memory", "files", "mixed"])
    def test_size_check_names_each_frame(self, names, message):
        # A frame is named by its file if it has one; an Image or a rendered frame by its index.
        frames = [_DeferredFrame(2, h, lambda: pytest.fail("frame made"), name)
                  for h, name in zip((2, 3), names)]
        if not names[0]:
            frames[0] = Image(np.zeros((2, 2)))
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            FrameSequence(tuple(frames))

    def test_sequence_iteration(self):
        frames = tuple(Image(np.full((2, 2), i / 10)) for i in range(3))
        seq = FrameSequence(frames)
        assert len(seq) == 3
        assert seq[1] is frames[1]
        assert tuple(seq) == frames


def _sequence_built(kind, tmp_path):
    """A 4-frame 96x72 sequence: decoded files, synth renders, or Images."""
    if kind == "synth":
        motions = (RegionMotion("mouth", amplitude=2.0, onset=1, apex=2, offset=3),)
        return synth_expression(96, 72, make_grid(96, 72), default_region_map(), motions, 4,
                                seed=1)[0]
    frames = [Image(np.full((72, 96), i / 4)) for i in range(4)]
    if kind == "images":
        return FrameSequence(tuple(frames))
    for i, frame in enumerate(frames):
        (tmp_path / f"frame_{i}.pgm").write_bytes(encode_pgm(frame))
    return load_sequence(tmp_path)


class TestSequenceSlicing:
    @pytest.mark.parametrize("kind", ["files", "synth", "images"])
    @pytest.mark.parametrize("index", [slice(0, 2), slice(1, None), slice(None, None, -2)])
    def test_slice_holds_the_same_frames(self, tmp_path, kind, index):
        seq = _sequence_built(kind, tmp_path)
        part = seq[index]
        assert isinstance(part, FrameSequence)
        assert part.frames == seq.frames[index]  # deferred frames stay deferred
        assert (part.width, part.height) == (seq.width, seq.height)
        picked = range(len(seq))[index]
        assert len(part) == len(picked)
        for frame, i in zip(part, picked):
            assert np.array_equal(frame.pixels, seq[i].pixels)

    @pytest.mark.parametrize("kind", ["files", "synth", "images"])
    def test_empty_slice_has_no_frames(self, tmp_path, kind):
        seq = _sequence_built(kind, tmp_path)
        with pytest.raises(DataError, match="frame sequence has no frames"):
            seq[4:]


class TestLoadSequence:
    def test_natural_sort_order(self, tmp_path):
        # Write frames whose lexicographic and numeric orders differ.
        for i, value in [(2, 20), (10, 100), (1, 10)]:
            (tmp_path / f"frame_{i}.pgm").write_bytes(pgm_bytes(1, 1, 255, [value]))
        seq = load_sequence(tmp_path)
        values = [round(img.pixels[0, 0] * 255) for img in seq]
        assert values == [10, 20, 100]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_order_does_not_follow_the_listing(self, tmp_path, monkeypatch, reverse):
        # frame1 and frame01 hold the same number; their text breaks the tie.
        for name, value in [("frame1", 1), ("frame01", 2), ("frame001", 3), ("frame2", 4)]:
            (tmp_path / f"{name}.pgm").write_bytes(pgm_bytes(1, 1, 255, [value]))
        glob = Path.glob
        monkeypatch.setattr(Path, "glob", lambda self, *args, **kwargs: sorted(
            glob(self, *args, **kwargs), key=str, reverse=reverse))
        seq = load_sequence(tmp_path)
        assert [round(img.pixels[0, 0] * 255) for img in seq] == [3, 2, 1, 4]

    @pytest.mark.parametrize("dirs", [("a", "b"), ("b", "a")], ids=["a-first", "b-first"])
    def test_subdirectories_stay_grouped(self, tmp_path, dirs):
        # Equal file names in two directories: the directory decides, in
        # whichever order the directories were made.
        for d in dirs:
            (tmp_path / d).mkdir()
            for i in (10, 2, 1):
                value = i + (100 if d == "b" else 0)
                (tmp_path / d / f"frame_{i}.pgm").write_bytes(pgm_bytes(1, 1, 255, [value]))
        seq = load_sequence(tmp_path, pattern="*/*.pgm")
        values = [round(img.pixels[0, 0] * 255) for img in seq]
        assert values == [1, 2, 10, 101, 102, 110]

    def test_ppm_converted_to_gray(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(ppm_bytes(1, 1, 255, [255, 255, 255]))
        seq = load_sequence(tmp_path)
        assert seq[0].pixels[0, 0] == 1.0

    def test_no_matching_files(self, tmp_path):
        with pytest.raises(DataError, match="no files match"):
            load_sequence(tmp_path)

    @pytest.mark.parametrize("pattern", ["", ".", "/abs/*.pgm", "**/x**", "a**/*.pgm"])
    def test_unusable_pattern_rejected(self, tmp_path, pattern):
        # Checked before globbing: pathlib rejects these differently across versions.
        (tmp_path / "a_1.pgm").write_bytes(pgm_bytes(1, 1, 255, [0]))
        with pytest.raises(ConfigError, match=f"frame pattern {re.escape(repr(pattern))} must"):
            load_sequence(tmp_path, pattern=pattern)

    def test_pattern_filters_files(self, tmp_path):
        (tmp_path / "keep_1.pgm").write_bytes(pgm_bytes(1, 1, 255, [1]))
        (tmp_path / "skip_1.pgm").write_bytes(pgm_bytes(1, 1, 255, [2]))
        seq = load_sequence(tmp_path, pattern="keep_*.pgm")
        assert len(seq) == 1

    def test_mismatched_dimensions_name_file(self, tmp_path):
        (tmp_path / "a_1.pgm").write_bytes(pgm_bytes(1, 1, 255, [0]))
        (tmp_path / "a_2.pgm").write_bytes(pgm_bytes(2, 1, 255, [0, 0]))
        with pytest.raises(DataError, match="a_2.pgm is 2x1, expected 1x1"):
            load_sequence(tmp_path)

    def test_size_checked_after_every_file(self, tmp_path):
        # The sequence checks the sizes, so a later file's format error comes first.
        (tmp_path / "a_1.pgm").write_bytes(pgm_bytes(1, 1, 255, [0]))
        (tmp_path / "a_2.pgm").write_bytes(pgm_bytes(2, 1, 255, [0, 0]))
        (tmp_path / "a_3.pgm").write_bytes(pgm_bytes(1, 1, 255, []))
        with pytest.raises(DataError, match="^a_3.pgm: expected 1 sample bytes, got 0$"):
            load_sequence(tmp_path)
        (tmp_path / "a_3.pgm").write_bytes(pgm_bytes(1, 1, 255, [0]))
        with pytest.raises(DataError, match="^a_2.pgm is 2x1, expected 1x1 from a_1.pgm$"):
            load_sequence(tmp_path)

    def test_unreadable_file_names_file(self, tmp_path, monkeypatch):
        # chmod cannot deny a read to the superuser, so the read itself is made to fail.
        for i in range(1, 5):
            (tmp_path / f"frame_000{i}.pgm").write_bytes(pgm_bytes(1, 1, 255, [0]))
        read_bytes = Path.read_bytes

        def denied(path):
            if path.name == "frame_0003.pgm":
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", denied)
        with pytest.raises(DataError, match=r"^frame_0003\.pgm: Permission denied$"):
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
        with pytest.raises(DataError, match="over_1.pgm: sample 16 exceeds maxval 15"):
            load_sequence(tmp_path)

    def test_decode_error_names_file(self, tmp_path):
        (tmp_path / "bad_1.pgm").write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(DataError, match="bad_1.pgm: expected 4 sample bytes"):
            load_sequence(tmp_path)

    def test_frames_decoded_when_indexed(self, tmp_path):
        # Every file is checked up front, but no decoded frame is kept.
        (tmp_path / "a_1.pgm").write_bytes(pgm_bytes(2, 1, 255, [0, 51]))
        (tmp_path / "a_2.pgm").write_bytes(pgm_bytes(2, 1, 255, [102, 255]))
        seq = load_sequence(tmp_path)
        assert (seq.width, seq.height, len(seq)) == (2, 1, 2)
        assert seq[1] is not seq[1]
        assert np.array_equal(seq[1].pixels, np.array([[0.4, 1.0]], dtype=np.float32))
        (tmp_path / "a_2.pgm").write_bytes(pgm_bytes(2, 1, 255, [255, 0]))
        assert np.array_equal(seq[1].pixels, [[1.0, 0.0]])
        assert np.array_equal(seq[0].pixels, np.array([[0.0, 0.2]], dtype=np.float32))

    @pytest.mark.parametrize("change, message", [
        ("truncate", "a_2.pgm: expected 2 sample bytes, got 1"),
        ("delete", "a_2.pgm: No such file or directory"),
        ("resize", "a_2.pgm is now 1x1, expected 2x1"),
        ("garble", "a_2.pgm: expected magic P5, got b'P4'"),
    ], ids=["truncate", "delete", "resize", "garble"])
    def test_frame_changed_after_loading_names_file(self, tmp_path, change, message):
        (tmp_path / "a_1.pgm").write_bytes(pgm_bytes(2, 1, 255, [0, 0]))
        path = tmp_path / "a_2.pgm"
        path.write_bytes(pgm_bytes(2, 1, 255, [0, 0]))
        seq = load_sequence(tmp_path)
        if change == "delete":
            path.unlink()
        else:
            path.write_bytes({"truncate": pgm_bytes(2, 1, 255, [0]),
                              "resize": pgm_bytes(1, 1, 255, [0]),
                              "garble": b"P4\n2 1\n255\n\0\0"}[change])
        assert np.array_equal(seq[0].pixels, [[0.0, 0.0]])
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            seq[1]
