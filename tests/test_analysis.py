"""Series smoothing, onset/apex/offset detection, and region ranking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from faceflow import (
    AnalysisParams,
    ConfigError,
    DataError,
    IntensitySeries,
    RegionEvents,
    build_report,
    detect_events,
    rank_regions,
)
from faceflow.analysis import _smooth


def brute_force_events(values, theta=0.1, run_length=3, smooth_window=5):
    """Direct-scan reimplementation of the event logic, used as an oracle.

    Smoothing reuses _smooth (itself checked against direct averages in
    TestSmoothSeries) so that sub-ULP rounding differences between
    summation orders cannot flip argmax ties; the event scan is plain loops.
    """
    smoothed = [float(v) for v in _smooth(np.asarray(values, dtype=np.float64), smooth_window)]
    n = len(smoothed)
    peak = max(smoothed)
    if peak <= 0:
        return None, None, None
    apex = smoothed.index(peak)
    above = [v > theta * peak for v in smoothed]

    onset = None
    for start in range(apex + 1):
        stop = start + run_length
        if stop <= apex + 1 and all(above[start:stop]):
            onset = start
            break

    offset = None
    for end in range(n - 1, apex - 1, -1):
        start = end - run_length + 1
        if start >= apex and all(above[start : end + 1]):
            offset = end
            break
    return onset, apex, offset


def triangle_series(n=101, apex=50):
    up = np.arange(apex + 1) / apex
    down = (n - 1 - np.arange(apex + 1, n)) / (n - 1 - apex)
    return np.concatenate([up, down])


def make_series(columns: dict[str, list[float]], first_frame=1) -> IntensitySeries:
    names = tuple(columns)
    values = np.array(list(zip(*columns.values())), dtype=np.float64)
    frames = np.arange(first_frame, first_frame + values.shape[0])
    return IntensitySeries(regions=names, frames=frames, values=values)


class TestSmoothSeries:
    def test_constant_unchanged(self):
        data = np.full(10, 0.7)
        assert np.allclose(_smooth(data, 5), data, atol=1e-15)

    def test_impulse_window_three(self):
        out = _smooth(np.array([0.0, 0.0, 9.0, 0.0, 0.0]), 3)
        # Ends average over the clipped two-element window.
        assert np.array_equal(out, np.array([0.0, 3.0, 3.0, 3.0, 0.0]))

    def test_window_one_is_copy(self):
        data = np.array([1.0, 2.0, 3.0])
        out = _smooth(data, 1)
        assert np.array_equal(out, data)
        assert out is not data

    def test_edges_use_clipped_window(self):
        out = _smooth(np.array([6.0, 0.0, 0.0, 0.0, 6.0]), 5)
        assert out[0] == 2.0  # mean of first three values
        assert out[2] == 2.4  # full window
        assert out[4] == 2.0

    @pytest.mark.parametrize("value", [1.7e308, np.finfo(np.float64).max])
    def test_values_near_float_limit_stay_finite(self, value):
        # A running sum of these overflows unless they are scaled down first.
        out = _smooth(np.array([value, value, 0.0, value, value]), 3)
        assert np.isfinite(out).all()
        assert out[0] == value and out[4] == value
        assert out[2] == pytest.approx(value / 3 * 2, rel=1e-15)

    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=60),
        st.sampled_from([1, 3, 5, 7]),
    )
    def test_matches_direct_average(self, data, window):
        out = _smooth(np.array(data), window)
        n = len(data)
        half = window // 2
        for i in range(n):
            lo, hi = max(0, i - half), min(n, i + half + 1)
            assert out[i] == pytest.approx(sum(data[lo:hi]) / (hi - lo), rel=1e-9, abs=1e-9)


class TestDetectEvents:
    def test_triangle_oracle(self):
        params = AnalysisParams(theta=0.1, run_length=3, smooth_window=1)
        events = detect_events(triangle_series(), params)
        assert (events.onset, events.apex, events.offset) == (6, 50, 94)
        assert events.peak_value == 1.0

    def test_triangle_matches_brute_force(self):
        values = triangle_series()
        events = detect_events(values, AnalysisParams(theta=0.1, run_length=3, smooth_window=1))
        assert brute_force_events(values, 0.1, 3, 1) == (
            events.onset,
            events.apex,
            events.offset,
        )

    def test_all_zero_series(self):
        events = detect_events(np.zeros(20))
        assert events == RegionEvents(onset=None, apex=None, offset=None, peak_value=0.0)

    def test_first_argmax_wins(self):
        values = np.zeros(101)
        values[40] = values[60] = 1.0
        events = detect_events(values, AnalysisParams(smooth_window=1, run_length=1))
        assert events.apex == 40

    def test_run_length_must_fit_before_apex(self):
        # Peak at index 1: no run of 3 above-threshold values can end by the
        # apex, so onset is undetected while offset still is.
        values = np.array([0.0, 1.0, 0.9, 0.8, 0.7, 0.0])
        events = detect_events(values, AnalysisParams(theta=0.5, run_length=3, smooth_window=1))
        assert events.onset is None
        assert events.apex == 1
        assert events.offset == 4

    def test_empty_series_rejected(self):
        with pytest.raises(DataError, match="empty series"):
            detect_events(np.array([]))

    @pytest.mark.parametrize("bad", [float("nan"), -5.0])
    def test_unusable_magnitude_rejected(self, bad):
        # A NaN would become the apex; a negative value would drag the peak to <= 0.
        with pytest.raises(DataError, match=f"^index 2: magnitude {bad} is not finite and >= 0$"):
            detect_events([0.0, 1.0, bad, 1.0, 0.0])

    @pytest.mark.parametrize("values", [np.ones((3, 2)), np.ones((1, 5)), 1.0])
    def test_series_not_1d_is_data_error(self, values):
        with pytest.raises(DataError, match="not 1-D"):
            detect_events(values)

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.1, 1.5])
    def test_bad_theta_rejected(self, theta):
        with pytest.raises(ConfigError, match="theta must be in"):
            detect_events(np.ones(5), AnalysisParams(theta=theta))

    def test_bad_run_length_rejected(self):
        with pytest.raises(ConfigError, match="run_length must be"):
            detect_events(np.ones(5), AnalysisParams(run_length=0))

    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=80),
        st.floats(0.05, 0.95),
        st.integers(1, 4),
        st.sampled_from([1, 3, 5]),
    )
    @settings(max_examples=300)
    def test_matches_brute_force_on_random_series(self, data, theta, k, window):
        params = AnalysisParams(theta=theta, run_length=k, smooth_window=window)
        events = detect_events(data, params)
        assert brute_force_events(data, theta, k, window) == (
            events.onset,
            events.apex,
            events.offset,
        )

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=80))
    def test_event_ordering(self, data):
        events = detect_events(data)
        if None not in (events.onset, events.apex, events.offset):
            assert events.onset <= events.apex <= events.offset

    @given(
        # 0 or at least 2**-1000: scaled copies, their window means and theta
        # times the peak all stay normal, where scaling by 2**k is exact.
        st.lists(st.one_of(st.just(0.0), st.floats(2.0**-1000, 100)), min_size=1, max_size=60),
        st.integers(-6, 6),
    )
    def test_scale_invariance_powers_of_two(self, data, exponent):
        scale = 2.0**exponent
        base = detect_events(data)
        scaled = detect_events([v * scale for v in data])
        assert (base.onset, base.apex, base.offset) == (
            scaled.onset,
            scaled.apex,
            scaled.offset,
        )
        assert scaled.peak_value == base.peak_value * scale

    def test_scale_by_thousand_keeps_events(self):
        values = triangle_series()
        base = detect_events(values)
        scaled = detect_events(values * 1000.0)
        assert (base.onset, base.apex, base.offset) == (
            scaled.onset,
            scaled.apex,
            scaled.offset,
        )


# The packaged map's three names and three others, so renames go to and from both kinds.
_NAMES = ("eyes_eyebrows", "cheeks", "mouth", "a", "b", "zeta")


class TestRankRegions:
    def test_dominant_and_deformed_order(self):
        n = 40
        profile = np.interp(np.arange(n), [5, 20, 35], [0, 1, 0])
        series = make_series(
            {
                "eyes_eyebrows": list(profile * 0.5),
                "cheeks": list(profile * 0.05),
                "mouth": list(profile * 1.0),
            }
        )
        report = rank_regions(series)
        assert report.dominant_region == "mouth"
        assert report.deformed_regions == ("mouth", "eyes_eyebrows")

    def test_all_zero_series(self):
        series = make_series({"a": [0.0] * 10, "b": [0.0] * 10})
        report = rank_regions(series)
        assert report.dominant_region is None
        assert report.deformed_regions == ()
        assert all(e.peak_value == 0.0 for e in report.per_region.values())

    def test_equal_peaks_keep_column_order(self):
        profile = list(np.interp(np.arange(30), [3, 15, 27], [0, 1, 0]))
        series = make_series({"mouth": profile, "cheeks": profile})
        assert rank_regions(series).dominant_region == "mouth"

    def test_tie_breaks_by_column_order_for_custom_names(self):
        profile = list(np.interp(np.arange(30), [3, 15, 27], [0, 1, 0]))
        series = make_series({"zeta": profile, "alpha": profile})
        assert rank_regions(series).dominant_region == "zeta"

    @given(
        names=st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True),
        targets=st.permutations(_NAMES),
        # Two profiles shared out among up to four columns, so equal columns are common.
        profiles=st.lists(st.lists(st.integers(0, 3), min_size=8, max_size=8),
                          min_size=2, max_size=2),
        picks=st.lists(st.integers(0, 1), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    @example(names=["mouth", "cheeks"],
             targets=["a", "b", "eyes_eyebrows", "cheeks", "mouth", "zeta"],
             profiles=[[0, 1, 2, 3, 3, 2, 1, 0]] * 2, picks=[0, 0, 0, 0])
    def test_renaming_regions_only_renames_the_report(self, names, targets, profiles, picks):
        rename = dict(zip(names, targets))
        columns = {name: profiles[pick] for name, pick in zip(names, picks)}
        before = build_report(make_series(columns))
        after = build_report(make_series({rename[name]: column
                                          for name, column in columns.items()}))
        assert list(after.per_region.items()) == [
            (rename[name], events) for name, events in before.per_region.items()
        ]
        assert after.dominant_region == rename.get(before.dominant_region)
        assert after.deformed_regions == tuple(rename[name] for name in before.deformed_regions)

    def test_events_reported_as_frame_numbers(self):
        profile = np.interp(np.arange(60), [10, 30, 50], [0, 1, 0])
        series = make_series({"m": list(profile)}, first_frame=1)
        events = rank_regions(series).per_region["m"]
        # Positional apex 30 maps to frame 31.
        assert events.apex == 31

    def test_rho_monotonicity(self):
        n = 40
        profile = np.interp(np.arange(n), [5, 20, 35], [0, 1, 0])
        series = make_series(
            {
                "a": list(profile * 1.0),
                "b": list(profile * 0.5),
                "c": list(profile * 0.25),
                "d": list(profile * 0.1),
            }
        )
        previous = None
        for rho in [0.05, 0.2, 0.4, 0.6, 1.0]:
            deformed = set(rank_regions(series, rho=rho).deformed_regions)
            if previous is not None:
                assert deformed <= previous
            previous = deformed

    def test_empty_series_rejected(self):
        with pytest.raises(DataError, match="^series has no regions or no rows$"):
            IntensitySeries(regions=(), frames=np.array([], dtype=np.int64), values=np.zeros((0, 0)))

    def test_bad_rho_rejected(self):
        series = make_series({"a": [1.0, 2.0, 1.0]})
        with pytest.raises(ConfigError, match="rho must be in"):
            rank_regions(series, rho=0.0)


class TestBuildReport:
    def test_parameters_echoed(self):
        series = make_series({"a": [0.0, 1.0, 0.0, 0.0]})
        params = AnalysisParams(theta=0.3, run_length=1, rho=0.5, smooth_window=3)
        report = build_report(series, params)
        assert report.params == params

    def test_default_parameters(self):
        series = make_series({"a": [0.0, 1.0, 0.0, 0.0]})
        report = build_report(series)
        assert report.params == AnalysisParams()

    def test_deterministic(self):
        profile = list(np.interp(np.arange(30), [3, 15, 27], [0, 1, 0]))
        series = make_series({"x": profile, "y": profile[::-1]})
        a = build_report(series)
        b = build_report(series)
        assert a.per_region == b.per_region
        assert a.dominant_region == b.dominant_region
        assert a.deformed_regions == b.deformed_regions


class TestAnalysisParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": 0.0},
            {"theta": 1.0},
            {"run_length": 0},
            {"rho": 0.0},
            {"rho": 1.1},
            {"smooth_window": 2},
            {"smooth_window": -1},
            {"smooth_window": 4},
            {"smooth_window": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        field = next(iter(kwargs))
        message = "smoothing window must be odd" if field == "smooth_window" else f"{field} must be"
        with pytest.raises(ConfigError, match=message):
            AnalysisParams(**kwargs)

    def test_defaults(self):
        params = AnalysisParams()
        assert (params.theta, params.run_length, params.rho, params.smooth_window) == (
            0.1,
            3,
            0.2,
            5,
        )
