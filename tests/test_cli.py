"""End-to-end CLI behavior: subcommands, config files, exit codes, outputs."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

import faceflow.intensity
from faceflow import DimensionMismatch, IntensitySeries, build_report
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

    def test_missing_region_map_names_path(self, mouth_run, tmp_path, capsys):
        code = main(
            [
                "series",
                "--frames", str(mouth_run / "frames"),
                "--regions", str(tmp_path / "nope.regions"),
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

    def test_csv_and_in_process_reports_identical(self, mouth_run, tmp_path):
        from_csv = tmp_path / "a"
        from_frames = tmp_path / "b"
        main(["analyze", "--series", str(mouth_run / "series.csv"), "--out", str(from_csv)])
        main(["analyze", "--frames", str(mouth_run / "frames"), "--out", str(from_frames)])
        assert (from_csv / "report.json").read_bytes() == (
            from_frames / "report.json"
        ).read_bytes()

    def test_series_wins_over_frames(self, mouth_run, tmp_path):
        zero_csv = tmp_path / "zero.csv"
        zero_csv.write_text("frame,a\n1,0.0\n2,0.0\n")
        main(
            [
                "analyze",
                "--series", str(zero_csv),
                "--frames", str(mouth_run / "frames"),
                "--out", str(tmp_path),
            ]
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["dominant_region"] is None

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
        assert "--series or --frames" in capsys.readouterr().err

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

    def test_missing_config_file(self, tmp_path, capsys):
        assert (
            main(["synth", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
            == EXIT_CONFIG_ERROR
        )

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
