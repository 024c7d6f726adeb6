"""End-to-end CLI behavior: subcommands, config files, exit codes, outputs."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import faceflow.cli
import faceflow.intensity
from faceflow import (
    AnalysisParams,
    ConfigError,
    DataError,
    FlowParams,
    GridSpec,
    IntensitySeries,
    build_report,
    default_region_map,
    intensity_series,
    load_sequence,
    make_grid,
)
from faceflow.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_DATA_ERROR,
    EXIT_OK,
    format_series_csv,
    main,
    parse_series_csv,
    render_series_svg,
    report_to_dict,
)


@pytest.fixture(scope="module")
def mouth_run(tmp_path_factory):
    """A small mouth-motion sequence with its series, shared across tests."""
    root = tmp_path_factory.mktemp("mouth")
    frames = root / "frames"
    assert (
        main(
            [
                "synth",
                "--out", str(frames),
                "--width", "128",
                "--height", "96",
                "--count", "30",
                "--seed", "11",
                "--active", "mouth:2.0:3:12:24",
            ]
        )
        == EXIT_OK
    )
    assert main(["series", "--frames", str(frames), "--out", str(root)]) == EXIT_OK
    return root


class TestSynth:
    def test_writes_frames_and_ground_truth(self, tmp_path):
        out = tmp_path / "frames"
        code = main(["synth", "--out", str(out), "--count", "5", "--dx", "0.5"])
        assert code == EXIT_OK
        assert sorted(p.name for p in out.glob("*.pgm")) == [
            f"frame_{i:04d}.pgm" for i in range(5)
        ]
        lines = (out / "ground_truth.csv").read_text().splitlines()
        assert lines[0] == "frame,dx,dy"
        assert len(lines) == 6

    @pytest.mark.parametrize("mode", [["--dx", "0.1"], ["--active", "mouth:2.0:2:6:10"]],
                             ids=["shift", "active"])
    def test_memory_does_not_grow_with_the_count(self, tmp_path, capsys, mode):
        # Each frame is written as it is rendered, so 60 more frames add at
        # most two frames' pixels to the traced peak.
        def peak(count):
            tracemalloc.start()
            try:
                assert main(["synth", "--out", str(tmp_path / str(count)), "--width", "320",
                             "--height", "240", "--count", str(count), *mode]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        frame = 320 * 240 * 8
        assert peak(80) - peak(20) <= 2 * frame

    def test_shorter_rerun_leaves_no_stale_frames(self, tmp_path):
        # series would read the longer run's frames 3-5 as part of the shorter one.
        out = tmp_path / "frames"
        assert main(["synth", "--out", str(out), "--count", "6",
                     "--active", "mouth:2.0:1:3:5"]) == EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        code, err = _run_main(["synth", "--out", str(out), "--count", "3", "--seed", "2"])
        assert (code, err) == (EXIT_CONFIG_ERROR, f"error: {out} already holds frame_0003.pgm, "
                               "which a 3-frame run would not overwrite; remove it or choose "
                               "another --out\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        # Reruns with the same or a larger count overwrite every frame.
        for count in ("6", "8"):
            assert main(["synth", "--out", str(out), "--count", count, "--seed", "2"]) == EXIT_OK
            assert main(["series", "--frames", str(out), "--out", str(tmp_path)]) == EXIT_OK
            lines = (tmp_path / "series.csv").read_text().splitlines()
            assert len(lines) == int(count)  # header + one row per pair
            assert all(float(cell) == 0.0 for line in lines[1:] for cell in line.split(",")[1:])

    def test_expression_ground_truth_lists_amplitudes(self, mouth_run):
        lines = (mouth_run / "frames" / "ground_truth.csv").read_text().splitlines()
        assert lines[0] == "frame,region,amplitude"
        assert len(lines) == 31
        # Amplitude peaks at the apex frame.
        apex_value = float(lines[1 + 12].split(",")[2])
        assert apex_value == 2.0

    def test_repeated_seed_identical_output(self, tmp_path):
        args = ["synth", "--count", "4", "--dx", "0.3", "--seed", "2"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in [f"frame_{i:04d}.pgm" for i in range(4)] + ["ground_truth.csv"]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_excessive_shift_is_config_error(self, tmp_path, capsys):
        code = main(
            ["synth", "--out", str(tmp_path), "--count", "100", "--dx", "2.0"]
        )
        assert code == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_active_option(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path), "--active", "mouth:1.0"])
        assert code == EXIT_CONFIG_ERROR
        assert "--active" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--dx", "--dy"])
    def test_non_finite_shift_is_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "frames"
        assert main(["synth", "--out", str(out), "--count", "5", flag, value]) == EXIT_CONFIG_ERROR
        assert "shift" in capsys.readouterr().err
        assert not out.exists()

    def test_apex_at_offset_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "frames"
        code = main(["synth", "--out", str(out), "--count", "12", "--active", "mouth:2:3:10:10"])
        assert code == EXIT_CONFIG_ERROR
        assert "--active" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--width", str(10**11), "--height", str(10**11)],
        ["--width", str(10**20)],
        ["--count", str(10**20)],
        ["--count", str(10**20), "--active", "mouth:1:1:2:3"],
        ["--width", str(10**20), "--active", "mouth:1:1:2:3"],
    ], ids=["area", "width", "count", "count-active", "width-active"])
    def test_unaddressable_size_is_config_error(self, tmp_path, args):
        out = tmp_path / "frames"
        code, err = _run_main(["synth", "--out", str(out), *args])
        assert code == EXIT_CONFIG_ERROR
        assert re.fullmatch(r"error: \d+ frame\(s\) of \d+x\d+ exceed 2\*\*40 pixels\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("mode", [[], ["--active", "mouth:1:1:2:3"]], ids=["shift", "active"])
    def test_negative_seed_is_config_error(self, tmp_path, mode):
        out = tmp_path / "frames"
        code, err = _run_main(["synth", "--out", str(out), "--count", "5", "--seed=-1", *mode])
        assert (code, err) == (EXIT_CONFIG_ERROR, "error: seed must be >= 0, got -1\n")
        assert not out.exists()

    def test_apex_at_frame_zero_is_config_error(self, tmp_path, capsys):
        # Frame 0 is the undisplaced reference; ground_truth.csv would claim it moved.
        out = tmp_path / "frames"
        code = main(["synth", "--out", str(out), "--count", "6", "--active", "mouth:1:0:0:5"])
        assert code == EXIT_CONFIG_ERROR
        assert "--active 'mouth:1:0:0:5': apex must come after frame 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--dx", "--dy"])
    def test_shift_with_active_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "frames"
        code = main(["synth", "--out", str(out), "--count", "5", "--active", "mouth:1:1:2:3",
                     flag, "0.5"])
        assert code == EXIT_CONFIG_ERROR
        assert "--active" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--rows", "0", "grid needs at least 1 row and column, got 0x4\n"),
        ("--cols", "0", "grid needs at least 1 row and column, got 6x0\n"),
        ("--regions", "missing.regions", "region map missing.regions: "),
    ], ids=["rows", "cols", "regions"])
    def test_grid_options_checked_in_translation_mode(self, tmp_path, monkeypatch, flag, value,
                                                      message):
        monkeypatch.chdir(tmp_path)
        code, err = _run_main(["synth", "--out", "frames", "--count", "5", "--dx", "0.1",
                               flag, value])
        assert code == EXIT_CONFIG_ERROR
        assert err.startswith(f"error: {message}")
        assert not (tmp_path / "frames").exists()


class TestSeries:
    def test_row_and_column_contract(self, tmp_path):
        frames = tmp_path / "frames"
        main(["synth", "--out", str(frames), "--count", "100", "--width", "128",
              "--height", "96", "--dx", "0.1"])
        assert main(["series", "--frames", str(frames), "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "frame,eyes_eyebrows,cheeks,mouth"
        assert len(lines) == 100  # header + 99 data rows
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_identical_frames_zero_body(self, tmp_path):
        frames = tmp_path / "frames"
        main(["synth", "--out", str(frames), "--count", "4"])  # dx = dy = 0
        main(["series", "--frames", str(frames), "--out", str(tmp_path)])
        lines = (tmp_path / "series.csv").read_text().splitlines()
        for line in lines[1:]:
            assert all(float(cell) == 0.0 for cell in line.split(",")[1:])

    def test_deterministic_output(self, mouth_run, tmp_path):
        main(["series", "--frames", str(mouth_run / "frames"), "--out", str(tmp_path)])
        assert (tmp_path / "series.csv").read_bytes() == (
            mouth_run / "series.csv"
        ).read_bytes()

    @pytest.mark.parametrize("content", [None, b"region mouth = r5c1\n\xff\n"],
                             ids=["missing", "undecodable"])
    def test_missing_region_map_names_path(self, mouth_run, tmp_path, capsys, content):
        layout = tmp_path / "nope.regions"
        if content is not None:
            layout.write_bytes(content)
        code = main(
            [
                "series",
                "--frames", str(mouth_run / "frames"),
                "--regions", str(layout),
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG_ERROR
        assert "nope.regions" in capsys.readouterr().err

    def test_custom_region_map(self, mouth_run, tmp_path):
        layout = tmp_path / "halves.regions"
        layout.write_text("region top = r0c0\nregion bottom = r1c0\n")
        code = main(
            [
                "series",
                "--frames", str(mouth_run / "frames"),
                "--regions", str(layout),
                "--rows", "2",
                "--cols", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        header = (tmp_path / "series.csv").read_text().splitlines()[0]
        assert header == "frame,top,bottom"

    @pytest.mark.parametrize("pattern", ["", "/abs/*.pgm", ".", "**/x**"])
    def test_unusable_pattern_is_config_error(self, mouth_run, tmp_path, capsys, pattern):
        code = main(["series", "--frames", str(mouth_run / "frames"), f"--pattern={pattern}",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR
        assert repr(pattern) in capsys.readouterr().err
        assert not (tmp_path / "series.csv").exists()

    def test_non_ascii_digit_directory_is_read(self, mouth_run, tmp_path):
        # str.isdigit() is true for '²', but int('²') fails.
        nested = tmp_path / "frames" / "²"
        nested.mkdir(parents=True)
        for frame in (mouth_run / "frames").glob("*.pgm"):
            (nested / frame.name).write_bytes(frame.read_bytes())
        code = main(["series", "--frames", str(tmp_path / "frames"), "--pattern=**/*.pgm",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "series.csv").read_text() == (mouth_run / "series.csv").read_text()

    @pytest.mark.parametrize("header, samples", [(b"P5\n3 3\n100\n", [255] + [50] * 8),
                                                 (b"P6\n3 3\n100\n", [0, 101, 0] + [50] * 24)],
                             ids=["P5", "P6"])
    def test_sample_above_maxval_is_data_error(self, tmp_path, capsys, header, samples):
        frames = tmp_path / "frames"
        frames.mkdir()
        for name in ("frame_1.pgm", "frame_2.pgm"):
            (frames / name).write_bytes(header + bytes(samples))
        layout = tmp_path / "one.regions"
        layout.write_text("region a = r0c0\n")
        code = main(["series", "--frames", str(frames), "--regions", str(layout), "--rows", "1",
                     "--cols", "1", "--window-radius", "1", "--sigma", "0", "--out", str(tmp_path)])
        assert code == EXIT_DATA_ERROR
        assert "frame_1.pgm" in capsys.readouterr().err
        assert not (tmp_path / "series.csv").exists()

    def test_header_number_over_int_digit_limit_is_data_error(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "frame_1.pgm").write_bytes(b"P5\n" + b"1" * 5000 + b" 2\n255\n" + bytes(4))
        assert main(["series", "--frames", str(frames), "--out", str(tmp_path)]) == EXIT_DATA_ERROR
        assert "frame_1.pgm" in capsys.readouterr().err
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize("cell", [f"r{'1' * 5000}c0", f"r0c{'1' * 5000}"], ids=["row", "col"])
    def test_region_cell_over_int_digit_limit_is_config_error(self, mouth_run, tmp_path, capsys,
                                                              cell):
        layout = tmp_path / "big.regions"
        layout.write_text(f"region a = {cell}\n")
        code, err = _run_main(["series", "--frames", str(mouth_run / "frames"),
                               "--regions", str(layout), "--out", str(tmp_path)])
        assert (code, err) == (EXIT_CONFIG_ERROR, "error: line 1: cell number too long\n")
        assert not (tmp_path / "series.csv").exists()

    def test_missing_frames_dir_is_data_error(self, tmp_path, capsys):
        code = main(["series", "--frames", str(tmp_path / "void"), "--out", str(tmp_path)])
        assert code == EXIT_DATA_ERROR

    def test_pixel_units(self, mouth_run, tmp_path):
        main(
            [
                "series",
                "--frames", str(mouth_run / "frames"),
                "--units", "pixels",
                "--out", str(tmp_path),
            ]
        )
        raw = parse_series_csv((tmp_path / "series.csv").read_text())
        norm = parse_series_csv((mouth_run / "series.csv").read_text())
        diag = float(np.hypot(128, 96))
        assert np.allclose(raw.values, norm.values * diag, rtol=1e-7)

    def test_bad_mode_value(self, mouth_run, tmp_path, capsys):
        code = main(
            [
                "series",
                "--frames", str(mouth_run / "frames"),
                "--mode", "sideways",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--window-radius", "100000"),
            ("--eigen-threshold", "nan"),
            ("--sigma", "inf"),
            ("--sigma", "1e7"),
            ("--pyramid-levels", "1000000000000"),
        ],
    )
    def test_unusable_flow_parameter_is_config_error(self, mouth_run, tmp_path, capsys, flag, value):
        code = main(["series", "--frames", str(mouth_run / "frames"), flag, value,
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize("flag, message", [
        ("--window-radius=0", "window_radius must be >= 1, got 0"),
        ("--sigma=-1", "smooth_sigma must be >= 0, got -1.0"),
        ("--eigen-threshold=nan", "eigen_threshold must be finite, got nan"),
        ("--pyramid-levels=0", "pyramid_levels must be >= 1, got 0"),
        ("--rows=0", "grid needs at least 1 row and column, got 0x4"),
        ("--cols=-2", "grid needs at least 1 row and column, got 6x-2"),
    ], ids=["window-radius", "sigma", "eigen-threshold", "pyramid-levels", "rows", "cols"])
    def test_bad_parameter_rejected_before_any_frame_is_decoded(self, mouth_run, tmp_path,
                                                                 monkeypatch, flag, message):
        monkeypatch.setattr(faceflow.cli, "load_sequence",
                            lambda *args: pytest.fail("frames decoded for a bad parameter"))
        code, err = _run_main(["series", "--frames", str(mouth_run / "frames"), flag,
                               "--out", str(tmp_path)])
        assert (code, err) == (EXIT_CONFIG_ERROR, f"error: {message}\n")
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize("sigma", ["1e-200", "1e-160"])
    def test_tiny_sigma_gives_the_sigma_zero_series(self, tmp_path, sigma):
        # 2 sigma^2 underflows below about 1e-162; the Gaussian is then a delta.
        frames = tmp_path / "frames"
        assert main(["synth", "--out", str(frames), "--width", "64", "--height", "48",
                     "--count", "4", "--dx", "0.4", "--seed", "2"]) == EXIT_OK
        outputs = {}
        for value in ("0", sigma):
            out = tmp_path / value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, err = _run_main(["series", "--frames", str(frames), "--sigma", value,
                                       "--out", str(out)])
            assert (code, err) == (EXIT_OK, "")
            outputs[value] = (out / "series.csv").read_text()
        assert outputs[sigma] == outputs["0"]
        assert parse_series_csv(outputs["0"]).values.all()

    def test_error_in_a_worker_is_data_error(self, mouth_run, tmp_path, capsys, monkeypatch):
        solve = faceflow.intensity.pyramidal_lk
        calls = []

        def failing_solve(i1, i2, params):
            calls.append(threading.current_thread() is threading.main_thread())
            if len(calls) == 5:
                raise DataError("frame pair 5 failed")
            return solve(i1, i2, params)

        monkeypatch.setattr(faceflow.intensity, "_available_cpus", lambda: 2)
        monkeypatch.setattr(faceflow.intensity, "pyramidal_lk", failing_solve)
        code = main(["series", "--frames", str(mouth_run / "frames"), "--out", str(tmp_path)])
        assert code == EXIT_DATA_ERROR
        assert capsys.readouterr().err == "error: frame pair 5 failed\n"
        assert calls and not any(calls)  # every pair ran on a worker thread

    @pytest.mark.parametrize("broken", ["truncated", "deleted"])
    def test_frame_broken_after_loading_is_data_error(self, tmp_path, monkeypatch, broken):
        # The frames are checked when loaded and decoded later, by the pool's runs.
        frames = tmp_path / "frames"
        assert main(["synth", "--out", str(frames), "--width", "64", "--height", "48",
                     "--count", "9", "--dx", "0.4", "--seed", "2"]) == EXIT_OK
        load = faceflow.cli.load_sequence

        def load_then_break(*args):
            seq = load(*args)
            path = frames / "frame_0006.pgm"
            if broken == "truncated":
                path.write_bytes(path.read_bytes()[:100])
            else:
                path.unlink()
            return seq

        monkeypatch.setattr(faceflow.intensity, "_available_cpus", lambda: 2)
        monkeypatch.setattr(faceflow.cli, "load_sequence", load_then_break)
        code, err = _run_main(["series", "--frames", str(frames), "--out", str(tmp_path)])
        problem = ("expected 3072 sample bytes, got 87" if broken == "truncated"
                   else "No such file or directory")
        assert (code, err) == (EXIT_DATA_ERROR, f"error: frame_0006.pgm: {problem}\n")
        assert not (tmp_path / "series.csv").exists()

    def test_defaults_are_the_library_defaults(self, mouth_run):
        seq = load_sequence(mouth_run / "frames")
        series = intensity_series(seq, make_grid(seq.width, seq.height), default_region_map(),
                                  FlowParams())
        assert (mouth_run / "series.csv").read_text() == format_series_csv(series)

    def test_unknown_flag(self, capsys):
        assert main(["series", "--framez", "x"]) == EXIT_CONFIG_ERROR

    def test_missing_required_flag(self, capsys):
        assert main(["series"]) == EXIT_CONFIG_ERROR
        assert "--frames" in capsys.readouterr().err


class TestAnalyze:
    def test_report_from_series_csv(self, mouth_run, tmp_path):
        code = main(
            ["analyze", "--series", str(mouth_run / "series.csv"), "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["dominant_region"] == "mouth"
        assert report["deformed_regions"] == ["mouth"]
        assert list(report) == [
            "parameters",
            "regions",
            "dominant_region",
            "deformed_regions",
        ]

    def test_all_zero_series(self, tmp_path):
        csv = tmp_path / "zero.csv"
        csv.write_text("frame,a,b\n1,0.0,0.0\n2,0.0,0.0\n")
        assert main(["analyze", "--series", str(csv), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["deformed_regions"] == []
        assert report["regions"]["a"]["onset"] is None

    def test_huge_finite_magnitudes_give_strict_json(self, tmp_path, capsys):
        csv = tmp_path / "huge.csv"
        csv.write_text("frame,a,b\n" + "".join(f"{t},1.7e308,1.0\n" for t in range(1, 5)))
        assert main(["analyze", "--series", str(csv), "--out", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        report = _strict_json((tmp_path / "report.json").read_text())
        assert report["regions"]["a"]["peak_value"] == 1.7e308
        assert report["dominant_region"] == "a"

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("frame,a\n1,0.5\n2,oops\n")
        assert main(["analyze", "--series", str(csv), "--out", str(tmp_path)]) == EXIT_DATA_ERROR
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("frame,mouth,mouth\n1,0.1,0.2\n2,0.3,0.4\n", "duplicate region name(s) mouth"),
            ("frame,a\n5,0.1\n2,0.2\n2,0.3\n", "frame 2 does not follow frame 5; "
             "frame numbers must be strictly increasing"),
            ("frame,a\n1,0.1\n2,0.2\n2,0.3\n", "frame 2 does not follow frame 2; "
             "frame numbers must be strictly increasing"),
        ],
        ids=["duplicate-column", "decreasing-frame", "repeated-frame"],
    )
    def test_ambiguous_csv_is_data_error(self, tmp_path, capsys, text, message):
        csv = tmp_path / "series.csv"
        csv.write_text(text)
        assert main(["analyze", "--series", str(csv), "--out", str(tmp_path)]) == EXIT_DATA_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "report.json").exists()

    def test_empty_body_csv(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("frame,a\n")
        assert main(["analyze", "--series", str(csv), "--out", str(tmp_path)]) == EXIT_DATA_ERROR

    def test_needs_series_or_frames(self, capsys):
        assert main(["analyze"]) == EXIT_CONFIG_ERROR
        assert "missing required option --series" in capsys.readouterr().err

    def test_series_options_are_not_analyze_options(self, mouth_run, tmp_path, capsys):
        csv = str(mouth_run / "series.csv")
        code = main(["analyze", "--frames", str(mouth_run / "frames"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR
        assert "--frames" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 1\n")
        code = main(["analyze", "--config", str(cfg), "--series", csv, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR
        assert "sigma" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_window_wider_than_the_series_averages_all_of_it(self, mouth_run, tmp_path):
        csv = mouth_run / "series.csv"
        n = len(csv.read_text().splitlines()) - 1
        reports = []
        for window in (str(2 * n + 1), "1000000000000000000001"):
            out = tmp_path / window
            assert main(["analyze", "--series", str(csv), "--smooth-window", window,
                         "--out", str(out)]) == EXIT_OK
            report = json.loads((out / "report.json").read_text())
            del report["parameters"]["smooth_window"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_default_analysis_parameters_echoed(self, mouth_run, tmp_path):
        main(["analyze", "--series", str(mouth_run / "series.csv"), "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["parameters"] == asdict(AnalysisParams())

    def test_custom_analysis_parameters_echoed(self, mouth_run, tmp_path):
        main(
            [
                "analyze",
                "--series", str(mouth_run / "series.csv"),
                "--theta", "0.25",
                "--run-length", "2",
                "--rho", "0.5",
                "--smooth-window", "3",
                "--out", str(tmp_path),
            ]
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["parameters"] == {
            "theta": 0.25,
            "run_length": 2,
            "rho": 0.5,
            "smooth_window": 3,
        }

    def test_bad_theta_is_config_error(self, mouth_run, tmp_path):
        code = main(
            [
                "analyze",
                "--series", str(mouth_run / "series.csv"),
                "--theta", "1.5",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG_ERROR

    def test_bad_parameter_reported_before_a_missing_series(self, tmp_path):
        code, err = _run_main(["analyze", "--series", str(tmp_path / "missing.csv"),
                               "--theta", "1.5", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR
        assert "theta" in err and "missing.csv" not in err


class TestPlot:
    def test_one_polyline_per_region(self, mouth_run, tmp_path):
        code = main(["plot", "--series", str(mouth_run / "series.csv"), "--out", str(tmp_path)])
        assert code == EXIT_OK
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.count("<polyline") == 3
        for name in ("eyes_eyebrows", "cheeks", "mouth"):
            assert name in svg
        assert ">frame</text>" in svg
        assert "mean magnitude" in svg

    def test_byte_identical_on_same_input(self, mouth_run, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["plot", "--series", str(mouth_run / "series.csv"), "--out", str(a)])
        main(["plot", "--series", str(mouth_run / "series.csv"), "--out", str(b)])
        assert (a / "plot.svg").read_bytes() == (b / "plot.svg").read_bytes()

    def test_empty_csv_is_data_error(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        assert main(["plot", "--series", str(csv), "--out", str(tmp_path)]) == EXIT_DATA_ERROR

    def test_missing_csv_is_data_error(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert main(["plot", "--series", str(missing), "--out", str(tmp_path)]) == EXIT_DATA_ERROR


@pytest.mark.parametrize("command, written", [("analyze", "report.json"), ("plot", "plot.svg")])
def test_undecodable_csv_is_data_error(tmp_path, capsys, command, written):
    csv = tmp_path / "latin1.csv"
    csv.write_bytes(b"frame,a\n1,0.5\n2,\xff\n")
    assert main([command, "--series", str(csv), "--out", str(tmp_path)]) == EXIT_DATA_ERROR
    assert f"error: series file {csv}: 'utf-8' codec can't decode" in capsys.readouterr().err
    assert not (tmp_path / written).exists()


@pytest.mark.parametrize("command", ["analyze", "plot"])
def test_missing_csv_names_the_file(tmp_path, command):
    csv = tmp_path / "missing.csv"
    code, err = _run_main([command, "--series", str(csv), "--out", str(tmp_path)])
    assert code == EXIT_DATA_ERROR
    assert err.startswith(f"error: series file {csv}: ") and "No such file" in err


@pytest.mark.parametrize("command", ["analyze", "plot"])
class TestFrameNumberRange:
    @pytest.mark.parametrize("frame", ["99999999999999999999", "9223372036854775808",
                                       "-9223372036854775809"])
    def test_outside_int64_is_data_error(self, tmp_path, capsys, command, frame):
        csv = tmp_path / "series.csv"
        csv.write_text(f"frame,a\n{frame},0.25\n")
        assert main([command, "--series", str(csv), "--out", str(tmp_path)]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err
        assert not any(tmp_path.glob("*.json")) and not any(tmp_path.glob("*.svg"))

    def test_int64_extremes_accepted(self, tmp_path, command):
        csv = tmp_path / "series.csv"
        csv.write_text("frame,a\n-9223372036854775808,0.0\n9223372036854775807,0.25\n")
        assert main([command, "--series", str(csv), "--out", str(tmp_path)]) == EXIT_OK


class TestConfigFile:
    def test_config_supplies_options(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# synth settings\ncount = 7\ndx = 0.2\nseed = 3\n")
        out = tmp_path / "frames"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(list(out.glob("*.pgm"))) == 7

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count = 7\n")
        out = tmp_path / "frames"
        main(["synth", "--config", str(cfg), "--count", "4", "--out", str(out)])
        assert len(list(out.glob("*.pgm"))) == 4

    def test_flag_and_config_values_share_one_message_format(self, tmp_path):
        reason = "invalid literal for int() with base 10: 'x'"
        out = str(tmp_path / "frames")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count = x\n")
        assert _run_main(["synth", "--count", "x", "--out", out]) == (
            EXIT_CONFIG_ERROR, f"error: --count 'x': {reason}\n")
        assert _run_main(["synth", "--config", str(cfg), "--out", out]) == (
            EXIT_CONFIG_ERROR, f"error: config key 'count' 'x': {reason}\n")
        assert not (tmp_path / "frames").exists()

    def test_config_value_error_names_the_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count = 6\nactive = mouth:1:0:0:5\n")
        code, err = _run_main(["synth", "--config", str(cfg), "--out", str(tmp_path / "frames")])
        assert (code, err) == (
            EXIT_CONFIG_ERROR,
            "error: config key 'active' 'mouth:1:0:0:5': apex must come after frame 0 "
            "when amplitude > 0\n",
        )

    def test_config_value_overridden_by_a_flag_is_not_read(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count = x\n")
        out = tmp_path / "frames"
        code, err = _run_main(["synth", "--config", str(cfg), "--count", "4", "--out", str(out)])
        assert (code, err) == (EXIT_OK, "")
        assert len(list(out.glob("*.pgm"))) == 4

    def test_underscore_keys_accepted(self, tmp_path):
        frames = tmp_path / "frames"
        main(["synth", "--out", str(frames), "--count", "4", "--dx", "0.3"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"frames = {frames}\nwindow_radius = 5\n")
        assert main(["series", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK

    @pytest.mark.parametrize("command, lines, key", [
        ("synth", "count = 4\ncount = 6\n", "count"),
        ("series", "window_radius = 5\nwindow-radius = 6\n", "window-radius"),
    ], ids=["same-spelling", "underscore-and-dash"])
    def test_key_set_twice_rejected(self, tmp_path, command, lines, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run\n" + lines)
        code, err = _run_main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert (code, err) == (EXIT_CONFIG_ERROR,
                               f"error: config file {cfg} line 3: key {key!r} is set twice\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames = somewhere\nspeed = 11\n")
        assert main(["series", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
        assert "speed" in capsys.readouterr().err

    def test_unknown_key_reported_before_a_bad_value(self, tmp_path):
        # Every key is checked before any value is converted.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count = x\nspeed = 11\n")
        out = tmp_path / "frames"
        assert _run_main(["synth", "--config", str(cfg), "--out", str(out)]) == (
            EXIT_CONFIG_ERROR, "error: unknown config key 'speed'\n")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count 7\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"count = 7\n\xff\n"],
                             ids=["missing", "undecodable"])
    def test_missing_config_file(self, tmp_path, capsys, content):
        cfg = tmp_path / "nope.cfg"
        if content is not None:
            cfg.write_bytes(content)
        assert (
            main(["synth", "--config", str(cfg), "--out", str(tmp_path)])
            == EXIT_CONFIG_ERROR
        )
        assert "nope.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["frames", "pattern", "regions", "series", "out"])
    def test_nul_byte_in_value_rejected(self, tmp_path, capsys, key):
        # Argv cannot carry a NUL byte; a config file can.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# paths\n{key} = a\0b\n")
        command = "analyze" if key == "series" else "series"
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"error: config file {cfg} line 2: contains a NUL byte\n"
        assert not (tmp_path / "series.csv").exists() and not (tmp_path / "report.json").exists()

    def test_repeatable_option_semicolon_separated(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("active = mouth:1.0:2:5:8; cheeks:0.5:3:6:9\ncount = 12\n")
        out = tmp_path / "frames"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        truth = (out / "ground_truth.csv").read_text().splitlines()
        assert truth[0] == "frame,region,amplitude"
        regions = {line.split(",")[1] for line in truth[1:]}
        assert regions == {"mouth", "cheeks"}


class TestSeriesCsvHelpers:
    def test_round_trip_preserves_values(self):
        series = IntensitySeries(
            regions=("a", "b"),
            frames=np.array([1, 2, 3]),
            values=np.array([[0.1, 0.25], [0.5, 0.000123456789], [1e-9, 0.0]]),
        )
        again = parse_series_csv(format_series_csv(series))
        assert again.regions == ("a", "b")
        assert np.array_equal(again.frames, series.frames)
        assert np.allclose(again.values, series.values, rtol=1e-8)

    def test_nine_significant_digits(self):
        series = IntensitySeries(
            regions=("a",),
            frames=np.array([1]),
            values=np.array([[1 / 3]]),
        )
        assert "3.33333333e-01" in format_series_csv(series)

    def test_header_rejected_without_frame_column(self):
        with pytest.raises(DataError, match="line 1: expected header"):
            parse_series_csv("time,a\n1,0.5\n")

    def test_negative_magnitude_rejected(self):
        with pytest.raises(DataError, match="frame 1, region 'a': magnitude -0.5 is not finite"):
            parse_series_csv("frame,a\n1,-0.5\n")

    def test_blank_body_line_skipped(self):
        series = parse_series_csv("frame,a\n1,0.5\n\n2,0.25\n")
        assert series.frames.tolist() == [1, 2]
        assert series.values.tolist() == [[0.5], [0.25]]

    @pytest.mark.parametrize("text, message", [
        ("frame,a\n1,0.5,0.75\n", "line 2: expected 2 fields, got 3"),
        ("frame,a\nx,0.5\n", "line 2: bad frame index 'x'"),
    ])
    def test_malformed_row_rejected(self, text, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            parse_series_csv(text)

    def test_report_dict_key_order(self):
        series = IntensitySeries(
            regions=("a",),
            frames=np.array([1, 2, 3, 4]),
            values=np.array([[0.0], [1.0], [1.0], [0.0]]),
        )
        data = report_to_dict(build_report(series))
        assert list(data["regions"]["a"]) == ["onset", "apex", "offset", "peak_value"]

    def test_svg_handles_single_row_series(self):
        series = IntensitySeries(
            regions=("a",), frames=np.array([1]), values=np.array([[0.5]])
        )
        svg = render_series_svg(series)
        assert svg.count("<polyline") == 1

    def test_svg_escapes_region_names(self):
        series = parse_series_csv("frame,a<b&c,mouth\n1,0.5,0.25\n")
        legend = [el.text for el in ET.fromstring(render_series_svg(series)).iter()
                  if el.tag.endswith("text")][-2:]
        assert legend == ["a<b&c", "mouth"]

    @pytest.mark.parametrize("count, height", [(3, 400), (21, 400), (24, 454)])
    def test_svg_legend_fits_the_canvas(self, count, height):
        # The 24 names are every cell of a 6x4 grid, as perfbench/cells24.regions lays them out.
        names = [f"c{row}{col}" for row in range(6) for col in range(4)][:count]
        series = IntensitySeries(regions=tuple(names), frames=np.array([1, 2]),
                                 values=np.ones((2, count)))
        svg = ET.fromstring(render_series_svg(series))
        assert float(svg.get("height")) == height
        assert svg.get("viewBox") == f"0 0 640 {height}"
        legend = {el.text: float(el.get("y")) for el in svg.iter() if el.tag.endswith("text")}
        assert all(0 < legend[name] < height for name in names)

    def test_unprintable_region_name_rejected(self):
        message = ("region name 'mo\\x01uth' must be non-empty printable text "
                   "with no comma and no leading or trailing space")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            parse_series_csv("frame,mo\x01uth\n1,0.5\n")

    @given(
        # Separators and control characters included: a name holding one must be refused.
        regions=st.lists(st.text(st.characters(categories=("L", "N", "P", "S", "Z", "Cc")),
                                 max_size=4), min_size=1, max_size=4),
        frames=st.sets(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=5),
        magnitudes=st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                            min_size=20, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    @example(regions=["a,b"], frames={1}, magnitudes=[0.5] * 20)
    def test_round_trip_of_every_accepted_series(self, regions, frames, magnitudes):
        shape = (len(frames), len(regions))
        values = np.array(magnitudes[: shape[0] * shape[1]]).reshape(shape)
        try:
            series = IntensitySeries(regions=tuple(regions), frames=np.array(sorted(frames)),
                                     values=values)
        except DataError:
            return  # the type refuses it, so there is nothing to write
        again = parse_series_csv(format_series_csv(series))
        assert again.regions == series.regions
        assert np.array_equal(again.frames, series.frames)
        np.testing.assert_allclose(again.values, series.values, rtol=1e-8,
                                   atol=np.finfo(np.float64).smallest_subnormal)


class TestTopLevel:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_CONFIG_ERROR

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == EXIT_CONFIG_ERROR

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "synth" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flags", [
        ("series", ["--rows", "--cols", "--window-radius", "--sigma", "--eigen-threshold",
                    "--pyramid-levels"]),
        ("analyze", ["--theta", "--run-length", "--rho", "--smooth-window"]),
        ("plot", []),
        ("synth", ["--rows", "--cols"]),
    ])
    def test_subcommand_help_shows_the_dataclass_defaults(self, capsys, command, flags):
        flow, analysis = FlowParams(), AnalysisParams()
        defaults = {
            "--rows": GridSpec.rows, "--cols": GridSpec.cols,
            "--window-radius": flow.window_radius, "--sigma": flow.smooth_sigma,
            "--eigen-threshold": flow.eigen_threshold, "--pyramid-levels": flow.pyramid_levels,
            "--theta": analysis.theta, "--run-length": analysis.run_length,
            "--rho": analysis.rho, "--smooth-window": analysis.smooth_window,
        }
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        shown = dict(re.findall(r"(--[a-z-]+) [A-Z_]+ (?:(?!--)[^()])*\(default ([^)]*)\)", text))
        assert {flag: shown.get(flag) for flag in flags} == {
            flag: str(defaults[flag]) for flag in flags
        }


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 40x30, four-frame translation sequence and a scratch output directory."""
    root = tmp_path_factory.mktemp("tiny")
    assert main(["synth", "--out", str(root / "frames"), "--width", "40", "--height", "30",
                 "--count", "4", "--dx", "0.4", "--seed", "3"]) == EXIT_OK
    return root


def _mostly(usual, unusual):
    """Draw from ``usual`` four times in five, else from ``unusual``."""
    return st.integers(0, 4).flatmap(lambda k: usual if k < 4 else unusual)


@st.composite
def _grid_and_region_text(draw):
    rows = draw(_mostly(st.integers(1, 8), st.integers(-1, 32)))
    cols = draw(_mostly(st.integers(1, 6), st.integers(-1, 42)))
    cell = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)))
    cells = draw(st.lists(cell, min_size=1, max_size=6, unique=True))
    cells += draw(_mostly(st.just([]), st.just([(max(rows, 0), 0)])))  # outside the grid
    split = draw(st.integers(0, len(cells) - 1))
    text = "".join(f"region {name} = {', '.join(f'r{r}c{c}' for r, c in part)}\n"
                   for name, part in (("a", cells[:split]), ("b", cells[split:])) if part)
    return rows, cols, text


_LISTED_PATTERNS = ["", "/abs/*.pgm", "**", "*", "frame_000[12].pgm", ".", "**/x**"]


def _each_listed_pattern(test):
    """Run each listed pattern with ordinary other arguments, whatever the seed draws."""
    for pattern in _LISTED_PATTERNS:
        test = example(grid=(6, 4, "region a = r2c1, r2c2\n"), radius=3, sigma="1.0", levels=1,
                       mode="reference", pattern=pattern)(test)
    return test


class TestSeriesFuzz:
    @_each_listed_pattern
    @given(
        grid=_grid_and_region_text(),
        radius=_mostly(st.integers(1, 6), st.sampled_from([-1, 0, 15, 10**12])),
        sigma=_mostly(st.floats(0, 4).map(repr),
                      st.sampled_from(["nan", "inf", "-inf", "1e308", "11", "-1", "-0.0"])),
        levels=_mostly(st.integers(1, 2), st.sampled_from([-1, 0, 3, 4, 10**12])),
        mode=_mostly(st.sampled_from(["reference", "consecutive"]), st.just("sideways")),
        pattern=st.one_of(st.just("*.pgm"),
                          st.sampled_from(_LISTED_PATTERNS)),
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exits_with_a_known_code_and_no_traceback(self, tiny_run, grid, radius, sigma,
                                                      levels, mode, pattern):
        rows, cols, text = grid
        layout = tiny_run / "fuzz.regions"
        layout.write_text(text)
        out = tiny_run / "out"
        (out / "series.csv").unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            # --flag=value, so that negative numbers are not read as flags.
            code = main(["series", f"--frames={tiny_run / 'frames'}", f"--regions={layout}",
                         f"--rows={rows}", f"--cols={cols}", f"--window-radius={radius}",
                         f"--sigma={sigma}", f"--pyramid-levels={levels}", f"--mode={mode}",
                         f"--pattern={pattern}", f"--out={out}"])
        assert code in (EXIT_OK, EXIT_DATA_ERROR, EXIT_CONFIG_ERROR)
        assert "Traceback" not in err.getvalue()
        assert (code == EXIT_OK) == (err.getvalue() == "") == (out / "series.csv").exists()


_BYTE_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(1, 255)),
    st.tuples(st.just("insert"),
              st.one_of(st.binary(min_size=1, max_size=6),
                        st.sampled_from([b" ", b"\n", b"\r\n", b",", b"#", b"-", b"0", b"nan",
                                         b"inf", b"1e999", b"\xff", b"<", b"&"]))),
    st.tuples(st.just("truncate"), st.none()),
)


@st.composite
def _mutations(draw):
    """A few (kind, position, argument) edits, positions mostly near the header."""
    edits = draw(st.lists(_BYTE_MUTATION, min_size=1, max_size=4))
    return [(kind, draw(_mostly(st.integers(0, 24), st.integers(0, 10**5))), arg)
            for kind, arg in edits]


def _mutate(data: bytes, edits) -> bytes:
    for kind, pos, arg in edits:
        pos %= len(data) + 1
        if kind == "flip" and pos < len(data):
            data = data[:pos] + bytes([data[pos] ^ arg]) + data[pos + 1:]
        elif kind == "insert":
            data = data[:pos] + arg + data[pos:]
        elif kind == "truncate":
            data = data[:pos]
    return data


def _strict_json(text):
    """json.loads that rejects Infinity, -Infinity and NaN, which JSON does not have."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def _run_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestMutatedBytesFuzz:
    @given(frame=st.integers(0, 3), edits=_mutations())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_series_on_a_mutated_frame(self, tiny_run, frame, edits):
        frames = sorted((tiny_run / "frames").glob("*.pgm"))
        mutated = tiny_run / "mutated_frames"
        mutated.mkdir(exist_ok=True)
        for i, path in enumerate(frames):
            data = path.read_bytes()
            (mutated / path.name).write_bytes(_mutate(data, edits) if i == frame else data)
        out = tiny_run / "mutated_out"
        (out / "series.csv").unlink(missing_ok=True)
        code, err = _run_main(["series", "--frames", str(mutated), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_DATA_ERROR, EXIT_CONFIG_ERROR)
        assert "Traceback" not in err
        assert (code == EXIT_OK) == (err == "") == (out / "series.csv").exists()

    @given(edits=_mutations())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_analyze_and_plot_on_a_mutated_csv(self, mouth_run, tmp_path_factory, edits):
        out = tmp_path_factory.mktemp("mutated_csv")
        csv = out / "series.csv"
        csv.write_bytes(_mutate((mouth_run / "series.csv").read_bytes(), edits))
        for command, written in (("analyze", "report.json"), ("plot", "plot.svg")):
            code, err = _run_main([command, "--series", str(csv), "--out", str(out)])
            assert code in (EXIT_OK, EXIT_DATA_ERROR, EXIT_CONFIG_ERROR), command
            assert "Traceback" not in err
            assert (code == EXIT_OK) == (err == "") == (out / written).exists(), command
            if code == EXIT_OK and written == "plot.svg":
                ET.parse(out / written)  # well-formed XML whatever the region names


def _wild_number():
    """Integers up to 10**30 and every kind of float (nan, inf, subnormal), as text."""
    return st.one_of(st.integers(-10**30, 10**30), st.floats()).map(repr)


class TestAnalyzeFuzz:
    @given(
        theta=_mostly(st.floats(0.01, 0.99).map(repr), _wild_number()),
        rho=_mostly(st.floats(0.01, 1.0).map(repr), _wild_number()),
        run_length=_mostly(st.integers(1, 40).map(repr), _wild_number()),
        smooth_window=_mostly(st.integers(0, 30).map(lambda k: repr(2 * k + 1)), _wild_number()),
        frames=_mostly(*(st.lists(numbers, min_size=29, max_size=29, unique=True).map(sorted)
                         for numbers in (st.integers(0, 10**4), st.integers(-10**30, 10**30)))),
        # Half the draws put the series within a few doublings of the float limit.
        scale=st.one_of(st.integers(0, 1024), st.integers(1016, 1024)),
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exits_with_a_known_code_and_no_traceback(self, mouth_run, tmp_path_factory, theta,
                                                      rho, run_length, smooth_window, frames,
                                                      scale):
        out = tmp_path_factory.mktemp("analyze_fuzz")
        header, *rows = (mouth_run / "series.csv").read_text().splitlines()
        assert len(rows) == len(frames)
        # Scaled by a power of two so the largest value lies in [2**(scale-1), 2**scale),
        # up to the float limit; the analysis is scale-free.
        values = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
        values = np.ldexp(values, scale - int(np.frexp(values.max())[1]))
        csv = out / "series.csv"
        csv.write_text("\n".join([header] + [",".join([str(frame), *map(repr, row.tolist())])
                                             for frame, row in zip(frames, values)]) + "\n")
        # --flag=value, so that negative numbers are not read as flags.
        code, err = _run_main(["analyze", f"--series={csv}", f"--theta={theta}", f"--rho={rho}",
                               f"--run-length={run_length}", f"--smooth-window={smooth_window}",
                               f"--out={out}"])
        assert code in (EXIT_OK, EXIT_DATA_ERROR, EXIT_CONFIG_ERROR)
        assert "Traceback" not in err
        assert (code == EXIT_OK) == (err == "") == (out / "report.json").exists()
        if code == EXIT_OK:
            _strict_json((out / "report.json").read_text())


def _empty_region_map(tmp_path):
    layout = tmp_path / "comments.regions"
    layout.write_text("# every region commented out\n# region mouth = r5c1\n")
    return layout


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


class TestByteOrderMark:
    """A text input that starts with a UTF-8 byte-order mark reads as without one."""

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "frames"
        cfg.write_bytes(BOM + f"out = {out}\ncount = 3\n".encode())
        assert _run_main(["synth", "--config", str(cfg)]) == (EXIT_OK, "")
        assert len(list(out.glob("*.pgm"))) == 3

    def test_region_map(self, tiny_run, tmp_path):
        text = b"region lips = r4c1, r4c2\n"
        for name, data in (("plain", text), ("bom", BOM + text)):
            (tmp_path / f"{name}.regions").write_bytes(data)
            assert _run_main(["series", "--frames", str(tiny_run / "frames"),
                              "--out", str(tmp_path / name),
                              "--regions", str(tmp_path / f"{name}.regions")]) == (EXIT_OK, "")
        assert (tmp_path / "bom" / "series.csv").read_bytes() == \
            (tmp_path / "plain" / "series.csv").read_bytes()

    def test_series_csv(self, tmp_path):
        text = b"frame,a,b\n1,0.5,0.1\n2,0.9,0.2\n3,0.4,0.1\n"
        for name, data in (("plain", text), ("bom", BOM + text)):
            (tmp_path / f"{name}.csv").write_bytes(data)
            assert _run_main(["analyze", "--series", str(tmp_path / f"{name}.csv"),
                              "--out", str(tmp_path / name)]) == (EXIT_OK, "")
        assert (tmp_path / "bom" / "report.json").read_bytes() == \
            (tmp_path / "plain" / "report.json").read_bytes()


class TestEmptyRegionMap:
    @pytest.mark.parametrize("command", ["series"])
    def test_rejected_before_any_frame_is_decoded(self, mouth_run, tmp_path, capsys, monkeypatch,
                                                  command):
        monkeypatch.setattr(faceflow.cli, "load_sequence",
                            lambda *args: pytest.fail("frames decoded for an empty region map"))
        code = main([command, "--frames", str(mouth_run / "frames"),
                     "--regions", str(_empty_region_map(tmp_path)), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: region map defines no regions\n"
        assert not (tmp_path / "series.csv").exists()
        assert not (tmp_path / "report.json").exists()

    def test_synth_active_rejected(self, tmp_path, capsys):
        out = tmp_path / "frames"
        code = main(["synth", "--out", str(out), "--count", "5", "--active", "mouth:1:1:2:3",
                     "--regions", str(_empty_region_map(tmp_path))])
        assert code == EXIT_CONFIG_ERROR
        assert "defines no regions" in capsys.readouterr().err
        assert not out.exists()


class TestErrorCategories:
    def test_every_error_is_data_or_config(self, mouth_run, tmp_path, monkeypatch):
        # main maps the exception type to the exit code; the two categories are disjoint.
        assert not issubclass(DataError, ConfigError) and not issubclass(ConfigError, DataError)
        argv = ["plot", "--series", str(mouth_run / "series.csv"), "--out", str(tmp_path)]
        for error, code in ((DataError, EXIT_DATA_ERROR), (ConfigError, EXIT_CONFIG_ERROR),
                            (FileNotFoundError, EXIT_DATA_ERROR)):
            def fail(text, error=error):
                raise error("planted")
            monkeypatch.setattr(faceflow.cli, "parse_series_csv", fail)
            assert _run_main(argv) == (code, "error: planted\n"), error

    @pytest.mark.parametrize("text", ["Unable to allocate 14.6 TiB for an array", ""])
    def test_out_of_memory_is_a_data_error(self, tmp_path, monkeypatch, text):
        # Planted: a real allocation this large is not attempted.
        def fail(width, height, seed):
            raise MemoryError(*([text] if text else []))
        monkeypatch.setattr(faceflow.cli, "make_texture", fail)
        argv = ["synth", "--out", str(tmp_path / "x"), "--width", "1000000",
                "--height", "1000000", "--count", "2"]
        message = "error: out of memory" + (f": {text}" if text else "") + "\n"
        assert _run_main(argv) == (EXIT_DATA_ERROR, message)

    def test_stray_value_error_is_not_a_config_error(self, mouth_run, tmp_path, monkeypatch):
        # A ValueError no check raised on purpose is a fault, not a user's bad option.
        def fail(text):
            raise ValueError("planted")
        monkeypatch.setattr(faceflow.cli, "parse_series_csv", fail)
        with pytest.raises(ValueError, match="planted"):
            main(["plot", "--series", str(mouth_run / "series.csv"), "--out", str(tmp_path)])


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports this checkout's faceflow."""
    src = str(Path(faceflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)


class TestScipyLoadedOnlyByKernels:
    def test_analyze_plot_and_help_leave_scipy_unloaded(self, mouth_run, tmp_path):
        csv, out = mouth_run / "series.csv", tmp_path
        proc = _run_fresh(f"""
            import contextlib, io, sys
            import faceflow, faceflow.cli
            from faceflow.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["analyze", "--series", {str(csv)!r}, "--out", {str(out)!r}]) == 0
                assert main(["plot", "--series", {str(csv)!r}, "--out", {str(out)!r}]) == 0
                try:
                    main(["--help"])
                except SystemExit as exc:
                    assert exc.code == 0
            print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        assert (out / "report.json").exists() and (out / "plot.svg").exists()

    def test_synth_leaves_scipy_unloaded(self, tmp_path):
        proc = _run_fresh(f"""
            import contextlib, io, sys
            from faceflow.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["synth", "--out", {str(tmp_path)!r}, "--width", "64", "--height", "48",
                             "--count", "6", "--active", "mouth:1.0:1:3:5"]) == 0
            print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        assert len(list(tmp_path.glob("frame_*.pgm"))) == 6

    def test_series_imports_scipy_inside_the_pool(self, mouth_run, tmp_path):
        proc = _run_fresh(f"""
            import sys
            import faceflow.intensity
            from faceflow.cli import main
            faceflow.intensity._available_cpus = lambda: 2
            assert "scipy" not in sys.modules
            code = main(["series", "--frames", {str(mouth_run / "frames")!r},
                         "--out", {str(tmp_path)!r}])
            assert "scipy.ndimage" in sys.modules
            sys.exit(code)
        """)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (tmp_path / "series.csv").read_bytes() == (mouth_run / "series.csv").read_bytes()
