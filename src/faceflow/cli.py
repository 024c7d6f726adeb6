"""Command-line pipeline: synthesize frames, compute series, analyze, plot.

Subcommands:
    synth    render a synthetic frame directory plus its ground-truth CSV
    series   compute per-region intensity series from a frame directory
    analyze  turn a series.csv into report.json
    plot     draw a deterministic SVG line chart from series.csv

Every option can also come from a flat key=value config file (--config);
explicit flags win over config values. Exit codes: 0 success, 2 data or I/O
error, 3 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import AnalysisParams, ExpressionReport, build_report
from .errors import ConfigError, DataError, ParseError, SeriesFormatError
from .flow import FlowParams
from .imageio import encode_pgm, load_sequence
from .intensity import IntensitySeries, intensity_series
from .regions import RegionMap, default_region_text, make_grid, parse_region_map
from .synth import RegionMotion, make_texture, synth_expression, translate_sequence

__all__ = [
    "main",
    "format_series_csv",
    "parse_series_csv",
    "render_series_svg",
    "report_to_dict",
]

EXIT_OK = 0
EXIT_DATA_ERROR = 2
EXIT_CONFIG_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit 2; config errors are 3
        raise ConfigError(message)


def _choice_of(*allowed: str) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"must be one of: {', '.join(allowed)}")
        return text

    convert.__name__ = "|".join(allowed)
    return convert


@dataclass(frozen=True)
class _Opt:
    flag: str
    convert: Callable[[str], object]
    default: object
    help: str
    repeat: bool = False
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag.replace("-", "_")


_GRID_OPTS = (
    _Opt("rows", int, 6, "grid rows (default 6)"),
    _Opt("cols", int, 4, "grid columns (default 4)"),
    _Opt("regions", str, None, "region-map file (default: packaged facial layout)"),
)
_FLOW_OPTS = (
    _Opt("window-radius", int, 7, "LK window radius in pixels (default 7)"),
    _Opt("sigma", float, 1.0, "Gaussian pre-smoothing sigma, 0 disables (default 1.0)"),
    _Opt("eigen-threshold", float, 1e-6, "validity threshold on the smaller eigenvalue (default 1e-6)"),
    _Opt("pyramid-levels", int, 1, "coarse-to-fine levels, 1 = single level (default 1)"),
)
_SERIES_MODE_OPTS = (
    _Opt("mode", _choice_of("reference", "consecutive"), "reference",
         "pair frames with frame 0 (reference) or the previous frame (consecutive)"),
    _Opt("units", _choice_of("normalized", "pixels"), "normalized",
         "magnitudes normalized by the image diagonal, or raw pixels"),
)
_ANALYSIS_OPTS = (
    _Opt("theta", float, 0.1, "onset/offset threshold as a fraction of the peak (default 0.1)"),
    _Opt("run-length", int, 3, "consecutive above-threshold frames required (default 3)"),
    _Opt("rho", float, 0.2, "deformation significance as a fraction of the dominant peak (default 0.2)"),
    _Opt("smooth-window", int, 5, "odd moving-average window for event detection (default 5)"),
)
_OUT_OPT = _Opt("out", str, ".", "output directory (default: current directory)")

_SERIES_OPTS = (
    _Opt("frames", str, None, "directory of PGM/PPM frames", required=True),
    _Opt("pattern", str, "*.pgm", "frame filename glob (default *.pgm)"),
    *_GRID_OPTS,
    *_FLOW_OPTS,
    *_SERIES_MODE_OPTS,
    _OUT_OPT,
)
_ANALYZE_OPTS = (
    _Opt("series", str, None, "series.csv to analyze", required=True),
    *_ANALYSIS_OPTS,
    _OUT_OPT,
)
_PLOT_OPTS = (
    _Opt("series", str, None, "series.csv to plot", required=True),
    _OUT_OPT,
)
_SYNTH_OPTS = (
    _Opt("out", str, None, "directory to write frames and ground_truth.csv", required=True),
    _Opt("width", int, 160, "frame width in pixels (default 160)"),
    _Opt("height", int, 120, "frame height in pixels (default 120)"),
    _Opt("count", int, 100, "number of frames (default 100)"),
    _Opt("seed", int, 0, "texture seed (default 0)"),
    _Opt("dx", float, 0.0, "horizontal shift per frame, translation mode (default 0)"),
    _Opt("dy", float, 0.0, "vertical shift per frame, translation mode (default 0)"),
    _Opt("active", str, None,
         "region motion as name:amplitude:onset:apex:offset; repeatable; "
         "switches to expression mode", repeat=True),
    *_GRID_OPTS,
)


def _add_opts(parser: argparse.ArgumentParser, opts: tuple[_Opt, ...]) -> None:
    parser.add_argument("--config", default=None, help="key=value config file; flags win")
    for opt in opts:
        if opt.repeat:
            parser.add_argument(f"--{opt.flag}", type=opt.convert, action="append",
                                default=None, help=opt.help)
        else:
            parser.add_argument(f"--{opt.flag}", type=opt.convert, default=None,
                                help=opt.help)


def _read_text(path: str, what: str) -> str:
    """Text of a config or region file; an unreadable or undecodable one is a usage error."""
    try:
        return Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc


def _read_config(path: str) -> dict[str, str]:
    text = _read_text(path, "config file")
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config file {path} line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _merge_options(args: argparse.Namespace, opts: tuple[_Opt, ...]) -> dict:
    """Defaults, overlaid by config-file values, overlaid by explicit flags."""
    values = {opt.dest: opt.default for opt in opts}
    if args.config:
        by_flag = {opt.flag: opt for opt in opts}
        for key, text in _read_config(args.config).items():
            opt = by_flag.get(key.replace("_", "-"))
            if opt is None:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                if opt.repeat:
                    values[opt.dest] = [opt.convert(part.strip()) for part in text.split(";")]
                else:
                    values[opt.dest] = opt.convert(text)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
    for opt in opts:
        given = getattr(args, opt.dest)
        if given is not None:
            values[opt.dest] = given
    for opt in opts:
        if opt.required and values[opt.dest] is None:
            raise ConfigError(f"missing required option --{opt.flag}")
    return values


def _load_region_map(cfg: dict) -> RegionMap:
    if cfg["regions"] is not None:
        text = _read_text(cfg["regions"], "region map")
    else:
        text = default_region_text()
    region_map = parse_region_map(text, rows=cfg["rows"], cols=cfg["cols"])
    if not region_map.names():
        raise ParseError(f"region map {cfg['regions']} defines no regions")
    return region_map


def format_series_csv(series: IntensitySeries) -> str:
    """Serialize a series: header frame,<region>,... and 9-significant-digit values."""
    lines = ["frame," + ",".join(series.regions)]
    for i in range(series.values.shape[0]):
        cells = ",".join(f"{value:.8e}" for value in series.values[i])
        lines.append(f"{int(series.frames[i])},{cells}")
    return "\n".join(lines) + "\n"


def parse_series_csv(text: str) -> IntensitySeries:
    """Parse series.csv text; raises SeriesFormatError naming the bad line."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise SeriesFormatError("line 1: empty file, expected 'frame,<region>,...' header")
    header = lines[0].split(",")
    if header[0] != "frame" or len(header) < 2 or any(not name.strip() for name in header[1:]):
        raise SeriesFormatError("line 1: expected header 'frame,<region>,...'")
    if not all(name.isprintable() for name in header[1:]):
        raise SeriesFormatError("line 1: region names must be printable text")
    regions = tuple(name.strip() for name in header[1:])
    duplicates = sorted({name for name in regions if regions.count(name) > 1})
    if duplicates:
        raise SeriesFormatError(f"line 1: duplicate region column(s) {', '.join(duplicates)}")

    frames: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise SeriesFormatError(
                f"line {lineno}: expected {len(header)} fields, got {len(parts)}"
            )
        try:
            frame = int(parts[0])
        except ValueError:
            raise SeriesFormatError(f"line {lineno}: bad frame index {parts[0]!r}") from None
        if not -(2**63) <= frame < 2**63:
            raise SeriesFormatError(f"line {lineno}: frame {frame} outside the 64-bit range")
        if frames and frame <= frames[-1]:
            raise SeriesFormatError(
                f"line {lineno}: frame {frame} does not follow frame {frames[-1]}; "
                "frame numbers must be strictly increasing"
            )
        try:
            magnitudes = [float(part) for part in parts[1:]]
        except ValueError:
            raise SeriesFormatError(f"line {lineno}: non-numeric magnitude") from None
        if any(not math.isfinite(m) or m < 0 for m in magnitudes):
            raise SeriesFormatError(f"line {lineno}: magnitudes must be finite and >= 0")
        frames.append(frame)
        rows.append(magnitudes)
    if not rows:
        raise SeriesFormatError("line 2: no data rows")
    return IntensitySeries(
        regions=regions,
        frames=np.array(frames, dtype=np.int64),
        values=np.array(rows, dtype=np.float64),
        units="unknown",
        mode="unknown",
    )


def report_to_dict(report: ExpressionReport) -> dict:
    """JSON-ready dict with stable key order and 9-significant-digit peaks."""
    return {
        "parameters": asdict(report.params),
        "regions": {
            name: {
                "onset": events.onset,
                "apex": events.apex,
                "offset": events.offset,
                "peak_value": float(f"{events.peak_value:.8e}"),
            }
            for name, events in report.per_region.items()
        },
        "dominant_region": report.dominant_region,
        "deformed_regions": list(report.deformed_regions),
    }


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def render_series_svg(series: IntensitySeries) -> str:
    """Deterministic SVG line chart: one polyline per region, legend, axes."""
    from html import escape  # here: its entity table would cost every other command memory

    width, height = 640.0, 400.0
    left, right, top, bottom = 60.0, 170.0, 20.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    frames = series.frames.astype(np.float64)
    fmin, fmax = float(frames[0]), float(frames[-1])
    fspan = (fmax - fmin) or 1.0
    vmax = float(series.values.max()) or 1.0

    def sx(frame: float) -> float:
        return left + (frame - fmin) / fspan * plot_w

    def sy(value: float) -> float:
        return top + plot_h * (1.0 - value / vmax)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{top + plot_h:.2f}" stroke="black"/>',
        f'<line x1="{left:.2f}" y1="{top + plot_h:.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{top + plot_h:.2f}" stroke="black"/>',
    ]
    for i in range(5):
        value = vmax * i / 4.0
        y = sy(value)
        parts.append(
            f'<line x1="{left - 4:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{value:.2e}</text>'
        )
        frame = fmin + fspan * i / 4.0
        x = sx(frame)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" x2="{x:.2f}" '
            f'y2="{top + plot_h + 4:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 16:.2f}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{frame:.0f}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 12:.2f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">frame</text>'
    )
    parts.append(
        f'<text x="14" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 14 {top + plot_h / 2:.2f})">mean magnitude</text>'
    )
    for j, name in enumerate(series.regions):
        color = _PALETTE[j % len(_PALETTE)]
        points = " ".join(
            f"{sx(frame):.2f},{sy(value):.2f}"
            for frame, value in zip(frames, series.values[:, j])
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = top + 10 + 18 * j
        lx = left + plot_w + 16
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly:.2f}" x2="{lx + 18:.2f}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 24:.2f}" y="{ly + 4:.2f}" font-family="monospace" '
            f'font-size="12">{escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_text(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8", newline="\n")


def _cmd_series(args: argparse.Namespace) -> int:
    cfg = _merge_options(args, _SERIES_OPTS)
    region_map = _load_region_map(cfg)
    seq = load_sequence(cfg["frames"], cfg["pattern"])
    grid = make_grid(seq.width, seq.height, cfg["rows"], cfg["cols"])
    series = intensity_series(
        seq,
        grid,
        region_map,
        FlowParams(
            window_radius=cfg["window_radius"],
            smooth_sigma=cfg["sigma"],
            eigen_threshold=cfg["eigen_threshold"],
            pyramid_levels=cfg["pyramid_levels"],
        ),
        mode=cfg["mode"],
        normalize=cfg["units"] == "normalized",
    )
    path = Path(cfg["out"]) / "series.csv"
    _write_text(path, format_series_csv(series))
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _merge_options(args, _ANALYZE_OPTS)
    series = parse_series_csv(Path(cfg["series"]).read_text("utf-8"))
    params = AnalysisParams(
        theta=cfg["theta"],
        run_length=cfg["run_length"],
        rho=cfg["rho"],
        smooth_window=cfg["smooth_window"],
    )
    report = build_report(series, params)
    path = Path(cfg["out"]) / "report.json"
    _write_text(path, json.dumps(report_to_dict(report), indent=2) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    cfg = _merge_options(args, _PLOT_OPTS)
    series = parse_series_csv(Path(cfg["series"]).read_text("utf-8"))
    path = Path(cfg["out"]) / "plot.svg"
    _write_text(path, render_series_svg(series))
    print(f"wrote {path}")
    return EXIT_OK


def _parse_motion(text: str) -> RegionMotion:
    parts = text.split(":")
    if len(parts) != 5:
        raise ConfigError(
            f"--active expects name:amplitude:onset:apex:offset, got {text!r}"
        )
    try:
        return RegionMotion(
            region=parts[0],
            amplitude=float(parts[1]),
            onset=int(parts[2]),
            apex=int(parts[3]),
            offset=int(parts[4]),
        )
    except ValueError as exc:
        raise ConfigError(f"--active {text!r}: {exc}") from exc


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _merge_options(args, _SYNTH_OPTS)
    n = cfg["count"]
    if cfg["active"] and (cfg["dx"] or cfg["dy"]):
        raise ConfigError("--dx and --dy shift translation mode; they cannot be used with --active")
    if cfg["active"]:
        grid = make_grid(cfg["width"], cfg["height"], cfg["rows"], cfg["cols"])
        region_map = _load_region_map(cfg)
        motions = [_parse_motion(text) for text in cfg["active"]]
        seq, truth = synth_expression(
            cfg["width"], cfg["height"], grid, region_map, motions, n, cfg["seed"]
        )
        lines = ["frame,region,amplitude"]
        for t in range(n):
            for motion in motions:
                lines.append(f"{t},{motion.region},{truth.profiles[motion.region][t]:.8e}")
    else:
        base = make_texture(cfg["width"], cfg["height"], cfg["seed"])
        seq, truth = translate_sequence(base, cfg["dx"], cfg["dy"], n)
        lines = ["frame,dx,dy"]
        for t in range(n):
            lines.append(f"{t},{truth.shifts[t, 0]:.8e},{truth.shifts[t, 1]:.8e}")

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for t, frame in enumerate(seq):
        (out_dir / f"frame_{t:04d}.pgm").write_bytes(encode_pgm(frame))
    _write_text(out_dir / "ground_truth.csv", "\n".join(lines) + "\n")
    print(f"wrote {len(seq)} frames and ground_truth.csv to {out_dir}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="faceflow",
        description="Facial-region motion intensity from dense Lucas-Kanade optical flow.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text, opts, handler in (
        ("series", "compute per-region intensity series", _SERIES_OPTS, _cmd_series),
        ("analyze", "write an expression report as JSON", _ANALYZE_OPTS, _cmd_analyze),
        ("plot", "draw an SVG chart from series.csv", _PLOT_OPTS, _cmd_plot),
        ("synth", "generate a synthetic frame directory", _SYNTH_OPTS, _cmd_synth),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_opts(sub, opts)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    # Data errors first: UnicodeDecodeError is a ValueError subclass but
    # signals unreadable input, not misconfiguration.
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
