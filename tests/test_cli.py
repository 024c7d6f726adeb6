"""End-to-end CLI behavior: subcommands, config files, exit codes, outputs."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import threading
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import faceflow.cli
import faceflow.errors
import faceflow.intensity
from faceflow import (
    ConfigError,
    DataError,
    DimensionMismatch,
    IntensitySeries,
    SeriesFormatError,
    build_report,
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

    @pytest.mark.parametrize("flag", ["--dx", "--dy"])
    def test_shift_with_active_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "frames"
        code = main(["synth", "--out", str(out), "--count", "5", "--active", "mouth:1:1:2:3",
                     flag, "0.5"])
        assert code == EXIT_CONFIG_ERROR
        assert "--active" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("pattern", ["", "/abs/*.pgm"])
    def test_unusable_pattern_is_config_error(self, mouth_run, tmp_path, capsys, pattern):
        code = main(["series", "--frames", str(mouth_run / "frames"), f"--pattern={pattern}",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR
        assert repr(pattern) in capsys.readouterr().err
        assert not (tmp_path / "series.csv").exists()

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
                raise DimensionMismatch("frame pair 5 failed")
            return solve(i1, i2, params)

        monkeypatch.setattr(faceflow.intensity, "_available_cpus", lambda: 2)
        monkeypatch.setattr(faceflow.intensity, "pyramidal_lk", failing_solve)
        code = main(["series", "--frames", str(mouth_run / "frames"), "--out", str(tmp_path)])
        assert code == EXIT_DATA_ERROR
        assert capsys.readouterr().err == "error: frame pair 5 failed\n"
        assert calls and not any(calls)  # every pair ran on a worker thread

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

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("frame,a\n1,0.5\n2,oops\n")
        assert main(["analyze", "--series", str(csv), "--out", str(tmp_path)]) == EXIT_DATA_ERROR
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("frame,mouth,mouth\n1,0.1,0.2\n2,0.3,0.4\n", "line 1"),
            ("frame,a\n5,0.1\n2,0.2\n2,0.3\n", "line 3"),
            ("frame,a\n1,0.1\n2,0.2\n2,0.3\n", "line 4"),
        ],
    )
    def test_ambiguous_csv_is_data_error(self, tmp_path, capsys, text, line):
        csv = tmp_path / "series.csv"
        csv.write_text(text)
        assert main(["analyze", "--series", str(csv), "--out", str(tmp_path)]) == EXIT_DATA_ERROR
        assert line in capsys.readouterr().err
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

    def test_underscore_keys_accepted(self, tmp_path):
        frames = tmp_path / "frames"
        main(["synth", "--out", str(frames), "--count", "4", "--dx", "0.3"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"frames = {frames}\nwindow_radius = 5\n")
        assert main(["series", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames = somewhere\nspeed = 11\n")
        assert main(["series", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
        assert "speed" in capsys.readouterr().err

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
        with pytest.raises(Exception, match="line 1"):
            parse_series_csv("time,a\n1,0.5\n")

    def test_negative_magnitude_rejected(self):
        with pytest.raises(Exception, match="line 2"):
            parse_series_csv("frame,a\n1,-0.5\n")

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

    def test_unprintable_region_name_rejected(self):
        with pytest.raises(SeriesFormatError, match="line 1"):
            parse_series_csv("frame,mo\x01uth\n1,0.5\n")


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


class TestSeriesFuzz:
    @given(
        grid=_grid_and_region_text(),
        radius=_mostly(st.integers(1, 6), st.sampled_from([-1, 0, 15, 10**12])),
        sigma=_mostly(st.floats(0, 4).map(repr),
                      st.sampled_from(["nan", "inf", "-inf", "1e308", "11", "-1", "-0.0"])),
        levels=_mostly(st.integers(1, 2), st.sampled_from([-1, 0, 3, 4, 10**12])),
        mode=_mostly(st.sampled_from(["reference", "consecutive"]), st.just("sideways")),
        pattern=st.one_of(st.just("*.pgm"),
                          st.sampled_from(["", "/abs/*.pgm", "**", "*", "frame_000[12].pgm"])),
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
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exits_with_a_known_code_and_no_traceback(self, mouth_run, tmp_path_factory, theta,
                                                      rho, run_length, smooth_window, frames):
        out = tmp_path_factory.mktemp("analyze_fuzz")
        header, *rows = (mouth_run / "series.csv").read_text().splitlines()
        assert len(rows) == len(frames)
        csv = out / "series.csv"
        csv.write_text("\n".join([header] + [f"{frame},{row.split(',', 1)[1]}"
                                             for frame, row in zip(frames, rows)]) + "\n")
        # --flag=value, so that negative numbers are not read as flags.
        code, err = _run_main(["analyze", f"--series={csv}", f"--theta={theta}", f"--rho={rho}",
                               f"--run-length={run_length}", f"--smooth-window={smooth_window}",
                               f"--out={out}"])
        assert code in (EXIT_OK, EXIT_DATA_ERROR, EXIT_CONFIG_ERROR)
        assert "Traceback" not in err
        assert (code == EXIT_OK) == (err == "") == (out / "report.json").exists()


def _empty_region_map(tmp_path):
    layout = tmp_path / "comments.regions"
    layout.write_text("# every region commented out\n# region mouth = r5c1\n")
    return layout


class TestEmptyRegionMap:
    @pytest.mark.parametrize("command", ["series"])
    def test_rejected_before_any_frame_is_decoded(self, mouth_run, tmp_path, capsys, monkeypatch,
                                                  command):
        monkeypatch.setattr(faceflow.cli, "load_sequence",
                            lambda *args: pytest.fail("frames decoded for an empty region map"))
        code = main([command, "--frames", str(mouth_run / "frames"),
                     "--regions", str(_empty_region_map(tmp_path)), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR
        assert "comments.regions defines no regions" in capsys.readouterr().err
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
    def test_every_error_is_data_or_config(self):
        bases = {"FaceflowError", "DataError", "ConfigError"}
        for name in set(faceflow.errors.__all__) - bases:
            cls = getattr(faceflow.errors, name)
            assert issubclass(cls, DataError) != issubclass(cls, ConfigError), name


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
