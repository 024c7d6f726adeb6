"""Command-line pipeline: synthesize frames, compute series, analyze, plot.

Subcommands:
    synth    render a synthetic frame directory plus its ground-truth CSV
    series   compute per-region intensity series from a frame directory
    analyze  turn a series.csv into report.json
    plot     draw a deterministic SVG line chart from series.csv

Every option can also come from a flat key=value config file (--config);
explicit flags win over config values. Exit codes: 0 success, 2 data or I/O
error or out of memory, 3 configuration error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import AnalysisParams, ExpressionReport, build_report
from .errors import ConfigError, DataError
from .flow import FlowParams
from .imageio import encode_pgm, load_sequence
from .intensity import IntensitySeries, intensity_series
from .regions import GridSpec, RegionMap, default_region_text, make_grid, parse_region_map
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

    return convert


def _parse_motion(text: str) -> RegionMotion:
    parts = text.split(":")
    if len(parts) != 5:
        raise ConfigError("expects name:amplitude:onset:apex:offset")
    return RegionMotion(
        region=parts[0],
        amplitude=float(parts[1]),
        onset=int(parts[2]),
        apex=int(parts[3]),
        offset=int(parts[4]),
    )


@dataclass(frozen=True)
class _Opt:
    flag: str
    convert: Callable[[str], object]
    default: object
    help: str
    repeat: bool = False
    required: bool = False
    field: str = ""  # the parameter field it sets, when that is not the flag's name

    @property
    def dest(self) -> str:
        """Its key in the merged options: the field it sets, else the flag's name."""
        return self.field or self.flag.replace("-", "_")


_GRID_OPTS = (
    _Opt("rows", int, GridSpec.rows, "grid rows"),
    _Opt("cols", int, GridSpec.cols, "grid columns"),
    _Opt("regions", str, None, "region-map file (default: packaged facial layout)"),
)
# Each dest is a FlowParams field name.
_FLOW_OPTS = (
    _Opt("window-radius", int, FlowParams.window_radius, "LK window radius in pixels"),
    _Opt("sigma", float, FlowParams.smooth_sigma, "Gaussian pre-smoothing sigma, 0 disables",
         field="smooth_sigma"),
    _Opt("eigen-threshold", float, FlowParams.eigen_threshold,
         "validity threshold on the smaller eigenvalue"),
    _Opt("pyramid-levels", int, FlowParams.pyramid_levels, "coarse-to-fine levels, 1 = single level"),
)
_SERIES_MODE_OPTS = (
    _Opt("mode", _choice_of("reference", "consecutive"), "reference",
         "pair frames with frame 0 (reference) or the previous frame (consecutive)"),
    _Opt("units", _choice_of("normalized", "pixels"), "normalized",
         "magnitudes normalized by the image diagonal, or raw pixels"),
)
# Each dest is an AnalysisParams field name.
_ANALYSIS_OPTS = (
    _Opt("theta", float, AnalysisParams.theta, "onset/offset threshold as a fraction of the peak"),
    _Opt("run-length", int, AnalysisParams.run_length, "consecutive above-threshold frames required"),
    _Opt("rho", float, AnalysisParams.rho,
         "deformation significance as a fraction of the dominant peak"),
    _Opt("smooth-window", int, AnalysisParams.smooth_window,
         "odd moving-average window for event detection"),
)
_OUT_OPT = _Opt("out", str, ".", "output directory")

_SERIES_OPTS = (
    _Opt("frames", str, None, "directory of PGM/PPM frames", required=True),
    _Opt("pattern", str, "*.pgm", "frame filename glob"),
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
    _Opt("width", int, 160, "frame width in pixels"),
    _Opt("height", int, 120, "frame height in pixels"),
    _Opt("count", int, 100, "number of frames"),
    _Opt("seed", int, 0, "texture seed"),
    _Opt("dx", float, 0.0, "horizontal shift per frame, translation mode"),
    _Opt("dy", float, 0.0, "vertical shift per frame, translation mode"),
    _Opt("active", _parse_motion, None,
         "region motion as name:amplitude:onset:apex:offset; repeatable; "
         "switches to expression mode", repeat=True),
    *_GRID_OPTS,
)


def _add_opts(parser: argparse.ArgumentParser, opts: tuple[_Opt, ...]) -> None:
    parser.add_argument("--config", default=None, help="key=value config file; flags win")
    for opt in opts:
        shown = "" if opt.default is None else f" (default {opt.default})"
        parser.add_argument(f"--{opt.flag}", default=None,
                            action="append" if opt.repeat else "store", help=opt.help + shown)


def _read_text(path: str, what: str, error: type[Exception] = ConfigError) -> str:
    """UTF-8 text of an input file, less any byte-order mark; `error` naming it if unreadable."""
    try:
        return Path(path).read_text("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{what} {path}: {exc}") from exc


def _read_config(path: str) -> dict[str, str]:
    text = _read_text(path, "config file")
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config file {path} line {lineno}: expected key=value")
        if "\0" in line:  # argv cannot carry one, so this is the one place to catch it
            raise ConfigError(f"config file {path} line {lineno}: contains a NUL byte")
        key, value = line.split("=", 1)
        key = key.strip().replace("_", "-")  # keys are flag names, with dashes or underscores
        if key in entries:
            raise ConfigError(f"config file {path} line {lineno}: key {key!r} is set twice")
        entries[key] = value.strip()
    return entries


def _merge_options(args: argparse.Namespace, opts: tuple[_Opt, ...]) -> dict:
    """Convert each option's winning text: a flag beats a config line, which beats the default."""
    config = _read_config(args.config) if args.config else {}
    for key in config:
        if key not in {opt.flag for opt in opts}:
            raise ConfigError(f"unknown config key {key!r}")
    values = {}
    for opt in opts:
        source, text = f"--{opt.flag}", getattr(args, opt.flag.replace("-", "_"))
        if text is None and opt.flag in config:
            source, text = f"config key {opt.flag!r}", config[opt.flag]
            text = [part.strip() for part in text.split(";")] if opt.repeat else text
        if text is None:
            if opt.required:
                raise ConfigError(f"missing required option --{opt.flag}")
            values[opt.dest] = opt.default
            continue
        converted = []
        for part in text if opt.repeat else [text]:
            try:
                converted.append(opt.convert(part))
            except (ValueError, ConfigError) as exc:  # a malformed value, or a check it runs
                raise ConfigError(f"{source} {part!r}: {exc}") from exc
        values[opt.dest] = converted if opt.repeat else converted[0]
    return values


def _load_region_map(cfg: dict) -> RegionMap:
    path = cfg["regions"]
    text = default_region_text() if path is None else _read_text(path, "region map")
    return parse_region_map(text, rows=cfg["rows"], cols=cfg["cols"])


def format_series_csv(series: IntensitySeries) -> str:
    """Serialize a series: header frame,<region>,... and 9-significant-digit values."""
    lines = ["frame," + ",".join(series.regions)]
    for i in range(series.values.shape[0]):
        cells = ",".join(f"{value:.8e}" for value in series.values[i])
        lines.append(f"{series.frames[i]},{cells}")
    return "\n".join(lines) + "\n"


def parse_series_csv(text: str) -> IntensitySeries:
    """Parse series.csv text: DataError names a bad line; IntensitySeries checks the contents."""
    lines = text.splitlines() or [""]
    header = lines[0].split(",")
    if header[0] != "frame" or len(header) < 2:
        raise DataError("line 1: expected header 'frame,<region>,...'")

    frames: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise DataError(
                f"line {lineno}: expected {len(header)} fields, got {len(parts)}"
            )
        try:
            frame = int(parts[0])
        except ValueError:
            raise DataError(f"line {lineno}: bad frame index {parts[0]!r}") from None
        if not -(2**63) <= frame < 2**63:
            raise DataError(f"line {lineno}: frame {frame} outside the 64-bit range")
        try:
            magnitudes = [float(part) for part in parts[1:]]
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric magnitude") from None
        frames.append(frame)
        rows.append(magnitudes)
    return IntensitySeries(
        regions=tuple(name.strip() for name in header[1:]),
        frames=np.array(frames, dtype=np.int64),
        # The reshape keeps a header-only file's shape (0, regions), which the series rejects.
        values=np.array(rows, dtype=np.float64).reshape(len(rows), len(header) - 1),
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

    left, right, top, bottom = 60.0, 170.0, 20.0, 50.0
    # Legend baselines run 18 px apart from top + 14; a longer legend grows the canvas.
    width, height = 640.0, max(400.0, top + 2 + 18.0 * len(series.regions))
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

    def line(x1: float, y1: float, x2: float, y2: float, paint: str = 'stroke="black"') -> str:
        return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {paint}/>'

    def text(x: float, y: float, content: str, size: int, anchor: str = "") -> str:
        align = f' text-anchor="{anchor}"' if anchor else ""
        return (f'<text x="{x:.2f}" y="{y:.2f}"{align} font-family="monospace" '
                f'font-size="{size}">{content}</text>')

    axis_y = top + plot_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        line(left, top, left, axis_y),
        line(left, axis_y, left + plot_w, axis_y),
    ]
    for i in range(5):
        value = vmax * i / 4.0
        y = sy(value)
        parts.append(line(left - 4, y, left, y))
        parts.append(text(left - 8, y + 4, f"{value:.2e}", 10, "end"))
        frame = fmin + fspan * i / 4.0
        x = sx(frame)
        parts.append(line(x, axis_y, x, axis_y + 4))
        parts.append(text(x, axis_y + 16, f"{frame:.0f}", 10, "middle"))
    parts.append(text(left + plot_w / 2, height - 12, "frame", 12, "middle"))
    # The y-axis label keeps its integer x="14"; text() would write 14.00.
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
        parts.append(line(lx, ly, lx + 18, ly, f'stroke="{color}" stroke-width="1.5"'))
        parts.append(text(lx + 24, ly + 4, escape(name), 12))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_output(out: str, name: str, content: str) -> int:
    path = Path(out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8", newline="\n")
    print(f"wrote {path}")
    return EXIT_OK


def _read_series(cfg: dict) -> IntensitySeries:
    return parse_series_csv(_read_text(cfg["series"], "series file", DataError))


def _cmd_series(cfg: dict) -> int:
    params = FlowParams(**{opt.dest: cfg[opt.dest] for opt in _FLOW_OPTS})
    region_map = _load_region_map(cfg)
    seq = load_sequence(cfg["frames"], cfg["pattern"])
    grid = make_grid(seq.width, seq.height, rows=cfg["rows"], cols=cfg["cols"])
    series = intensity_series(seq, grid, region_map, params, mode=cfg["mode"],
                              normalize=cfg["units"] == "normalized")
    return _write_output(cfg["out"], "series.csv", format_series_csv(series))


def _cmd_analyze(cfg: dict) -> int:
    params = AnalysisParams(**{opt.dest: cfg[opt.dest] for opt in _ANALYSIS_OPTS})
    series = _read_series(cfg)
    report = build_report(series, params)
    return _write_output(cfg["out"], "report.json", json.dumps(report_to_dict(report), indent=2) + "\n")


def _cmd_plot(cfg: dict) -> int:
    return _write_output(cfg["out"], "plot.svg", render_series_svg(_read_series(cfg)))


def _cmd_synth(cfg: dict) -> int:
    n = cfg["count"]
    if cfg["active"] and (cfg["dx"] or cfg["dy"]):
        raise ConfigError("--dx and --dy shift translation mode; they cannot be used with --active")
    grid = make_grid(cfg["width"], cfg["height"], rows=cfg["rows"], cols=cfg["cols"])
    region_map = _load_region_map(cfg)
    if cfg["active"]:
        seq, truth = synth_expression(
            cfg["width"], cfg["height"], grid, region_map, cfg["active"], n, cfg["seed"]
        )
        lines = ["frame,region,amplitude"]
        for t in range(n):
            for motion in cfg["active"]:
                lines.append(f"{t},{motion.region},{truth.profiles[motion.region][t]:.8e}")
    else:
        base = make_texture(cfg["width"], cfg["height"], cfg["seed"])
        seq, truth = translate_sequence(base, cfg["dx"], cfg["dy"], n)
        lines = ["frame,dx,dy"]
        for t in range(n):
            lines.append(f"{t},{truth.shifts[t, 0]:.8e},{truth.shifts[t, 1]:.8e}")

    out_dir = Path(cfg["out"])
    # series would read a longer earlier run's leftover frames as part of this one.
    stale = min(((int(m[1]), path.name) for path in out_dir.glob("frame_*.pgm")
                 if (m := re.fullmatch(r"frame_([0-9]+)\.pgm", path.name)) and int(m[1]) >= n),
                default=None)
    if stale:
        raise ConfigError(f"{out_dir} already holds {stale[1]}, which a {n}-frame run "
                          "would not overwrite; remove it or choose another --out")
    out_dir.mkdir(parents=True, exist_ok=True)
    # Each frame is rendered as it is written, so memory does not grow with the count.
    for t, frame in enumerate(seq):
        (out_dir / f"frame_{t:04d}.pgm").write_bytes(encode_pgm(frame))
    (out_dir / "ground_truth.csv").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    print(f"wrote {n} frames and ground_truth.csv to {out_dir}")
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
        sub.set_defaults(handler=handler, opts=opts)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(_merge_options(args, args.opts))
    except (DataError, OSError) as exc:  # OSError: file I/O
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except MemoryError as exc:  # numpy's names the allocation it could not make
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_DATA_ERROR
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
