"""Grid construction, pixel-to-cell lookup, masks, and region-map parsing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from faceflow import (
    ConfigError,
    RegionMap,
    cell_of_pixel,
    default_region_map,
    default_region_text,
    make_grid,
    parse_region_map,
    region_mask,
)


class TestMakeGrid:
    def test_remainder_goes_to_last_cell(self):
        grid = make_grid(10, 10, 3, 3)
        widths = [b - a for a, b in (grid.col_bounds(c) for c in range(3))]
        assert widths == [3, 3, 4]

    def test_even_split(self):
        grid = make_grid(8, 6, 3, 4)
        assert [grid.col_bounds(c) for c in range(4)] == [(0, 2), (2, 4), (4, 6), (6, 8)]
        assert [grid.row_bounds(r) for r in range(3)] == [(0, 2), (2, 4), (4, 6)]

    def test_rejects_more_cells_than_pixels(self):
        with pytest.raises(ConfigError, match="2x10 frame cannot hold a 1x3 grid"):
            make_grid(2, 10, 1, 3)

    def test_rejects_zero_rows(self):
        with pytest.raises(ConfigError, match="grid needs at least 1 row and column, got 0x3"):
            make_grid(10, 10, 0, 3)

    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 6),
        st.integers(1, 6),
    )
    def test_bounds_tile_the_frame(self, width, height, rows, cols):
        if cols > width or rows > height:
            return
        grid = make_grid(width, height, rows, cols)
        col_spans = [grid.col_bounds(c) for c in range(cols)]
        row_spans = [grid.row_bounds(r) for r in range(rows)]
        assert col_spans[0][0] == 0 and col_spans[-1][1] == width
        assert row_spans[0][0] == 0 and row_spans[-1][1] == height
        assert all(x1 > x0 for x0, x1 in col_spans)
        assert all(prev[1] == cur[0] for prev, cur in zip(col_spans, col_spans[1:]))
        assert all(prev[1] == cur[0] for prev, cur in zip(row_spans, row_spans[1:]))


class TestCellOfPixel:
    def test_bottom_right_pixel(self):
        grid = make_grid(640, 480, 6, 4)
        assert cell_of_pixel(grid, 639, 479) == (5, 3)

    def test_origin(self):
        grid = make_grid(640, 480, 6, 4)
        assert cell_of_pixel(grid, 0, 0) == (0, 0)

    def test_last_column_absorbs_remainder(self):
        grid = make_grid(10, 10, 3, 3)
        # Columns split 3,3,4: x=6..9 all land in column 2.
        assert [cell_of_pixel(grid, x, 0)[1] for x in range(10)] == [
            0, 0, 0, 1, 1, 1, 2, 2, 2, 2,
        ]

    def test_out_of_bounds(self):
        grid = make_grid(10, 10, 2, 2)
        for x, y in [(-1, 0), (0, -1), (10, 0), (0, 10)]:
            with pytest.raises(ConfigError, match=rf"pixel \({x}, {y}\) outside 10x10 frame"):
                cell_of_pixel(grid, x, y)

    def test_matches_bounds_exhaustively(self):
        grid = make_grid(13, 7, 3, 5)
        for y in range(7):
            for x in range(13):
                r, c = cell_of_pixel(grid, x, y)
                x0, x1 = grid.col_bounds(c)
                y0, y1 = grid.row_bounds(r)
                assert x0 <= x < x1
                assert y0 <= y < y1


class TestRegionMask:
    def test_single_cell_area(self):
        grid = make_grid(12, 12, 3, 3)
        rmap = RegionMap({"a": frozenset({(0, 0)})})
        mask = region_mask(grid, rmap, "a")
        assert mask.sum() == 16
        assert mask[:4, :4].all()

    def test_multi_cell_union(self):
        grid = make_grid(12, 12, 3, 3)
        rmap = RegionMap({"a": frozenset({(0, 0), (2, 2)})})
        assert region_mask(grid, rmap, "a").sum() == 32

    def test_masks_of_disjoint_regions_disjoint(self):
        grid = make_grid(24, 24, 6, 4)
        rmap = default_region_map()
        masks = [region_mask(grid, rmap, name) for name in rmap.names()]
        combined = np.zeros((24, 24), dtype=int)
        for mask in masks:
            combined += mask.astype(int)
        assert combined.max() <= 1

    def test_unknown_region(self):
        grid = make_grid(12, 12, 3, 3)
        rmap = RegionMap({"a": frozenset({(0, 0)})})
        with pytest.raises(ConfigError, match="no region named 'b'"):
            region_mask(grid, rmap, "b")

    def test_cell_outside_grid(self):
        grid = make_grid(12, 12, 3, 3)
        rmap = RegionMap({"a": frozenset({(5, 0)})})
        with pytest.raises(ConfigError, match="region 'a' cell r5c0 outside 3x3 grid"):
            region_mask(grid, rmap, "a")


class TestRegionMap:
    def test_overlapping_cells_rejected(self):
        with pytest.raises(ConfigError, match="cell r0c0 belongs to both 'a' and 'b'"):
            RegionMap({"a": frozenset({(0, 0)}), "b": frozenset({(0, 0)})})

    def test_no_regions_rejected(self):
        with pytest.raises(ConfigError, match="^region map defines no regions$"):
            RegionMap({})

    def test_lookup(self):
        rmap = RegionMap({"a": frozenset({(1, 2)})})
        assert "a" in rmap
        assert rmap["a"] == frozenset({(1, 2)})
        with pytest.raises(ConfigError, match="no region named 'missing'"):
            rmap["missing"]


class TestParseRegionMap:
    def test_basic(self):
        rmap = parse_region_map("region brow = r0c1, r0c2\nregion jaw = r5c1\n")
        assert rmap.names() == ("brow", "jaw")
        assert rmap["brow"] == frozenset({(0, 1), (0, 2)})

    def test_comments_and_blanks(self):
        text = "# layout\n\nregion a = r0c0  # trailing comment\n"
        assert parse_region_map(text)["a"] == frozenset({(0, 0)})

    def test_bad_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 3: expected 'region <name>"):
            parse_region_map("# ok\nregion a = r0c0\nregion b r1c1\n")

    def test_bad_cell_token(self):
        with pytest.raises(ConfigError, match="line 1: bad cell 'c1r0'"):
            parse_region_map("region a = r0c0, c1r0\n")

    def test_duplicate_region_name(self):
        with pytest.raises(ConfigError, match="line 2: duplicate region 'a'"):
            parse_region_map("region a = r0c0\nregion a = r1c1\n")

    def test_duplicate_cell_across_regions(self):
        with pytest.raises(ConfigError, match="cell r0c0 belongs to both 'a' and 'b'"):
            parse_region_map("region a = r0c0\nregion b = r0c0\n")

    def test_cell_beyond_grid(self):
        with pytest.raises(ConfigError, match="line 1: cell r6c0 outside 6x4 grid"):
            parse_region_map("region a = r6c0\n", rows=6, cols=4)

    @pytest.mark.parametrize("cell", [f"r{'1' * 5000}c0", f"r0c{'1' * 5000}"], ids=["row", "col"])
    def test_cell_number_over_int_digit_limit(self, cell):
        # 5000 digits is past the 4300-digit limit of int() on Python >= 3.11.
        with pytest.raises(ConfigError, match="line 2: cell number too long"):
            parse_region_map(f"region a = r0c0\nregion b = {cell}\n")

    @pytest.mark.parametrize("rows, cols", [(0, 4), (6, -2)])
    def test_grid_shape_checked_before_cells(self, rows, cols):
        # The rule GridSpec applies, not a report that r0c0 lies outside the grid.
        with pytest.raises(ConfigError,
                           match=f"^grid needs at least 1 row and column, got {rows}x{cols}$"):
            parse_region_map("region a = r0c0", rows=rows, cols=cols)

    def test_custom_grid_size(self):
        rmap = parse_region_map("region a = r7c7\n", rows=8, cols=8)
        assert rmap["a"] == frozenset({(7, 7)})


class TestDefaultRegionMap:
    def test_layout(self):
        rmap = default_region_map()
        assert rmap.names() == ("eyes_eyebrows", "cheeks", "mouth")
        assert rmap["eyes_eyebrows"] == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
        assert rmap["cheeks"] == frozenset({(3, 0), (3, 3)})
        assert rmap["mouth"] == frozenset({(4, 1), (4, 2)})

    def test_text_parses_to_same_map(self):
        rmap = parse_region_map(default_region_text())
        assert rmap.names() == default_region_map().names()
