"""Traced per-layer run of one workload, recorded from the benchmark's own code.

Timing wrappers replace the names the pipeline looks up at call time:
``faceflow.intensity.lucas_kanade``, ``.pyramidal_lk`` and
``.region_mean_magnitude``, and ``faceflow.flow.sample_bilinear`` (called by
the pyramid warp). The remaining public functions are called directly on the
same inputs. Spans (name, start, end, parent, run id) stay in memory and are
written to ``spans.jsonl`` in the workload's work directory at the end. The
end-to-end runs never install the wrappers.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

STARTUP_REPS = 3
DIRECT_REPS = 3
MIN_PAIR_SAMPLES = 100
# Printed by name but not BENCHMARK.json metrics: they are 0 by design on
# every workload without a pyramid, and a benchmark metric is never 0.
UNLISTED = {"flow.warp_s": "s", "flow.warp_calls": "count"}


class Tracer:
    """In-memory spans; run 0 holds direct calls, runs 1.. one traced series each."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = 0

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere, such as a CLI child's wall time."""
        self.spans.append({"id": len(self.spans), "name": name, "run": self.run_id,
                           "parent": None, "start": start, "end": end})

    def repeat(self, name: str, reps: int, fn, *args):
        """Call ``fn(*args)`` ``reps`` times, one span each; returns the last result."""
        for _ in range(reps):
            with self.span(name):
                result = fn(*args)
        return result

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if after is not None:
                after(record, result)
            return result

        return wrapper

    def durations(self, name: str, run: int | None = None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (run is None or s["run"] == run)]

    def fill_self_times(self) -> None:
        """A span's self time is its duration minus that of its direct children."""
        for s in self.spans:
            s["self"] = s["end"] - s["start"]
        for s in self.spans:
            if s["parent"] is not None:
                self.spans[s["parent"]]["self"] -= s["end"] - s["start"]

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")


def _count_valid(record: dict, field) -> None:
    record["valid"] = int(field.valid.sum())
    record["pixels"] = int(field.valid.size)


@contextmanager
def installed(tracer: Tracer):
    """Swap the timing wrappers in for the duration of the block."""
    import faceflow.flow as flow
    import faceflow.intensity as intensity

    patches = [
        (intensity, "lucas_kanade", "flow.pair", _count_valid),
        (intensity, "pyramidal_lk", "flow.pair", _count_valid),
        (intensity, "region_mean_magnitude", "intensity.reduce", None),
        (flow, "sample_bilinear", "flow.warp", None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    try:
        for module, attr, name, after in patches:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), after))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def _box_downsample(a):
    # The pyramid's 2x2 box average, to give the direct smoothing calls the
    # raster sizes each pyramid level works on.
    h2, w2 = a.shape[0] // 2, a.shape[1] // 2
    t = a[: 2 * h2, : 2 * w2]
    return 0.25 * (t[0::2, 0::2] + t[0::2, 1::2] + t[1::2, 0::2] + t[1::2, 1::2])


def nearest_rank(values: list[float], q: float) -> float:
    """The ``q`` quantile (0 < q <= 1) of ``values`` by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_traced(wl, seconds: float, repeat) -> tuple[dict, dict]:
    """Per-layer samples for workload ``wl``; ``repeat`` is the run's timing loop."""
    from faceflow.analysis import build_report
    from faceflow.cli import format_series_csv, parse_series_csv, render_series_svg, report_to_dict
    from faceflow.flow import FlowParams, gaussian_smooth, spatiotemporal_gradients
    from faceflow.imageio import Image, encode_pgm, load_sequence
    from faceflow.intensity import intensity_series
    from faceflow.regions import make_grid, parse_region_map, region_mask
    from faceflow.synth import synth_expression

    spec, runner, tracer = wl.spec, wl.runner, Tracer()
    flag = wl.flag
    defaults = FlowParams()
    params = FlowParams(
        window_radius=int(flag("--window-radius", defaults.window_radius)),
        smooth_sigma=float(flag("--sigma", defaults.smooth_sigma)),
        eigen_threshold=float(flag("--eigen-threshold", defaults.eigen_threshold)),
        pyramid_levels=int(flag("--pyramid-levels", defaults.pyramid_levels)),
    )
    mode = flag("--mode", "reference")

    # CLI children, untraced: set-up, one checked pipeline, start-up time.
    # The measured window of ``seconds`` starts after set-up.
    (inp,) = wl.inputs  # the seeded input only
    wl.setup(1)
    window_end = time.perf_counter() + seconds
    children = wl.pipeline(inp)
    for command, child in children.items():
        tracer.add(f"cli.{command}", child.start, child.end)
    for _ in range(STARTUP_REPS):
        child = runner.cli(["--help"])
        tracer.add("cli.startup", child.start, child.end)
    bytes_out = sum(path.stat().st_size for path in inp.out_dir.iterdir())

    # Direct calls into imageio, regions and synth.
    with tracer.span("imageio.load"):
        seq = load_sequence(inp.frames_dir)
    bytes_in = sum(p.stat().st_size for p in inp.frames_dir.glob("*.pgm"))
    region_map = tracer.repeat("regions.parse", DIRECT_REPS, parse_region_map, wl.region_text)
    grid = make_grid(seq.width, seq.height)
    names = region_map.names()
    masks = tracer.repeat("regions.mask", DIRECT_REPS,
                          lambda: [region_mask(grid, region_map, name) for name in names])
    frames, _ = tracer.repeat("synth.render", 1, synth_expression, spec["width"], spec["height"],
                              grid, region_map, inp.truth.motions, spec["frames"], inp.seed)
    tracer.repeat("imageio.encode", 1, lambda: [encode_pgm(frame) for frame in frames])
    del frames

    # Traced and untraced intensity_series, alternating, for the run's seconds.
    def traced_and_untraced(_):
        t0 = time.perf_counter()
        plain = intensity_series(seq, grid, region_map, params, mode=mode)
        untraced = time.perf_counter() - t0
        tracer.run_id += 1
        with installed(tracer), tracer.span("intensity.series"):
            traced = intensity_series(seq, grid, region_map, params, mode=mode)
        if not np.array_equal(plain.values, traced.values):
            raise RuntimeError("the timing wrappers changed the series")
        return untraced, traced

    # Enough traced calls for ten pair samples beyond flow.pair_ms_p90.
    rounds = repeat(traced_and_untraced, window_end - time.perf_counter(),
                    math.ceil(MIN_PAIR_SAMPLES / (len(seq) - 1)))
    series = rounds[-1][1]
    tracer.run_id = 0

    # Smoothing and gradients of every pair at every level, called directly.
    for t in range(1, len(seq)):
        a1 = seq[0 if mode == "reference" else t - 1].pixels
        a2 = seq[t].pixels
        for level in range(params.pyramid_levels):
            if level:
                a1, a2 = _box_downsample(a1), _box_downsample(a2)
            i1, i2 = Image(a1), Image(a2)
            with tracer.span("flow.smooth"):
                s1 = gaussian_smooth(i1, params.smooth_sigma)
                s2 = gaussian_smooth(i2, params.smooth_sigma)
            with tracer.span("flow.gradients"):
                spatiotemporal_gradients(s1, s2)

    # Serialization and analysis as the CLI does them.
    csv_text = tracer.repeat("cli.csv_write", DIRECT_REPS, format_series_csv, series)
    if csv_text != (inp.out_dir / "series.csv").read_text("utf-8"):
        runner.reject(children["series"], "series.csv differs from the in-process series")
    parsed = tracer.repeat("cli.csv_parse", DIRECT_REPS, parse_series_csv, csv_text)
    report = tracer.repeat("analysis.report", DIRECT_REPS, build_report, parsed)
    tracer.repeat("cli.json", DIRECT_REPS, lambda: json.dumps(report_to_dict(report), indent=2))
    tracer.repeat("cli.svg", DIRECT_REPS, render_series_svg, parsed)

    tracer.fill_self_times()
    tracer.dump(wl.work / "spans.jsonl")

    def per_run(name: str) -> list[list[float]]:
        """Span durations of ``name``, one list per traced series call."""
        return [tracer.durations(name, run) for run in range(1, len(rounds) + 1)]

    series_s = [sum(d) for d in per_run("intensity.series")]
    pair_s = [sum(d) for d in per_run("flow.pair")]
    warp_s = [sum(d) for d in per_run("flow.warp")]
    reduce_s = [sum(d) for d in per_run("intensity.reduce")]
    self_s = [s["self"] for s in tracer.spans if s["name"] == "intensity.series"]
    pair_ms = [1e3 * d for d in tracer.durations("flow.pair")]
    pair_spans = [s for s in tracer.spans if s["name"] == "flow.pair"]
    area = np.array([mask.sum() for mask in masks], dtype=np.float64)
    smooth_s = sum(tracer.durations("flow.smooth", 0))
    gradients_s = sum(tracer.durations("flow.gradients", 0))
    solve_s = [p - w - smooth_s - gradients_s for p, w in zip(pair_s, warp_s)]
    untraced = [r[0] for r in rounds]
    child_s = {name: tracer.durations(f"cli.{name}") for name in ("series", "analyze", "plot")}

    samples = {
        "imageio.load_s": tracer.durations("imageio.load"),
        "imageio.frames": [len(seq)],
        "imageio.bytes_in": [bytes_in],
        "imageio.encode_s": tracer.durations("imageio.encode"),
        "synth.render_s": tracer.durations("synth.render"),
        "regions.parse_s": tracer.durations("regions.parse"),
        "regions.mask_s": tracer.durations("regions.mask"),
        "regions.count": [len(names)],
        "flow.pairs": [len(seq) - 1],
        "flow.pair_ms_p50": [statistics.median(pair_ms)],
        "flow.pair_ms_p90": [nearest_rank(pair_ms, 0.9)],
        "flow.smooth_s": [smooth_s],
        "flow.gradients_s": [gradients_s],
        "flow.solve_s": solve_s,
        "flow.warp_s": warp_s,
        "flow.warp_calls": [len(d) for d in per_run("flow.warp")],
        "flow.valid_frac": [sum(s["valid"] for s in pair_spans) / sum(s["pixels"] for s in pair_spans)],
        "flow.share": [p / s for p, s in zip(pair_s, series_s)],
        "intensity.series_s": series_s,
        "intensity.self_s": self_s,
        "intensity.reduce_s": reduce_s,
        "intensity.reduce_calls": [len(d) for d in per_run("intensity.reduce")],
        "intensity.reduce_share": [r / s for r, s in zip(reduce_s, series_s)],
        "intensity.coverage_min": [float((series.counts / area).min())],
        "analysis.report_s": tracer.durations("analysis.report"),
        "cli.startup_s": tracer.durations("cli.startup"),
        "cli.startup_share": [len(child_s) * statistics.median(tracer.durations("cli.startup"))
                              / sum(sum(d) for d in child_s.values())],
        "cli.series_s": child_s["series"],
        "cli.analyze_s": child_s["analyze"],
        "cli.plot_s": child_s["plot"],
        "cli.csv_write_s": tracer.durations("cli.csv_write"),
        "cli.csv_parse_s": tracer.durations("cli.csv_parse"),
        "cli.json_s": tracer.durations("cli.json"),
        "cli.svg_s": tracer.durations("cli.svg"),
        "cli.bytes_out": [bytes_out],
        "trace.overhead_ratio": [statistics.median(series_s) / statistics.median(untraced)],
    }
    extra = {
        "traced_series_runs": len(rounds),
        "flow.pair_samples": len(pair_ms),
        "flow.solve_s": "derived: pair time - warp - smooth - gradients (includes the pyramid's "
                        "downsample/upsample when levels > 1)",
        "flow.smooth_s/gradients_s": "direct calls on every pair at every level, one series' worth",
        "untraced_series_s": statistics.median(untraced),
    }
    return samples, extra
