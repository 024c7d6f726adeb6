"""Grid segmentation of a frame and named region-to-cell maps.

A frame is tiled into rows x cols rectangular cells; remainder pixels are
absorbed by the last row and column. Named regions are disjoint sets of cells,
parsed from a small text format or taken from the packaged default layout
(eyes_eyebrows, cheeks, mouth on a 6x4 grid).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError

__all__ = [
    "GridSpec",
    "RegionMap",
    "make_grid",
    "cell_of_pixel",
    "region_mask",
    "parse_region_map",
    "default_region_map",
    "default_region_text",
]

_CELL_RE = re.compile(r"^r(\d+)c(\d+)$")
_LINE_RE = re.compile(r"^region\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular cell grid over a width x height frame."""

    width: int
    height: int
    rows: int = 6
    cols: int = 4

    def __post_init__(self) -> None:
        _check_grid_shape(self.rows, self.cols)
        if self.width < self.cols or self.height < self.rows:
            raise ConfigError(
                f"{self.width}x{self.height} frame cannot hold a "
                f"{self.rows}x{self.cols} grid of non-empty cells"
            )

    def col_bounds(self, col: int) -> tuple[int, int]:
        """Half-open x range [x0, x1) of a column; the last column absorbs remainder pixels."""
        return _span(col, self.cols, self.width)

    def row_bounds(self, row: int) -> tuple[int, int]:
        """Half-open y range [y0, y1) of a row; the last row absorbs remainder pixels."""
        return _span(row, self.rows, self.height)


def _check_grid_shape(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise ConfigError(f"grid needs at least 1 row and column, got {rows}x{cols}")


def _span(index: int, parts: int, length: int) -> tuple[int, int]:
    """Half-open range of one of `parts` equal parts of `length`; the last absorbs the remainder."""
    base = length // parts
    return index * base, length if index == parts - 1 else (index + 1) * base


@dataclass(frozen=True, eq=False)
class RegionMap:
    """Named, pairwise-disjoint sets of (row, col) grid cells."""

    regions: dict[str, frozenset[tuple[int, int]]]

    def __post_init__(self) -> None:
        if not self.regions:
            raise ConfigError("region map defines no regions")
        claimed: dict[tuple[int, int], str] = {}
        for name, cells in self.regions.items():
            for cell in cells:
                if cell in claimed:
                    raise ConfigError(
                        f"cell r{cell[0]}c{cell[1]} belongs to both "
                        f"{claimed[cell]!r} and {name!r}"
                    )
                claimed[cell] = name

    def names(self) -> tuple[str, ...]:
        return tuple(self.regions)

    def __contains__(self, name: str) -> bool:
        return name in self.regions

    def __getitem__(self, name: str) -> frozenset[tuple[int, int]]:
        if name not in self.regions:
            raise ConfigError(f"no region named {name!r}")
        return self.regions[name]


def make_grid(width: int, height: int, rows: int = GridSpec.rows, cols: int = GridSpec.cols) -> GridSpec:
    """Build a grid whose cells tile the frame exactly."""
    return GridSpec(width=width, height=height, rows=rows, cols=cols)


def cell_of_pixel(grid: GridSpec, x: int, y: int) -> tuple[int, int]:
    """Return the (row, col) of the unique cell containing pixel (x, y)."""
    if not (0 <= x < grid.width and 0 <= y < grid.height):
        raise ConfigError(f"pixel ({x}, {y}) outside {grid.width}x{grid.height} frame")
    col = min(x // (grid.width // grid.cols), grid.cols - 1)
    row = min(y // (grid.height // grid.rows), grid.rows - 1)
    return row, col


def region_mask(grid: GridSpec, region_map: RegionMap, name: str) -> np.ndarray:
    """Boolean (height, width) mask, true exactly on the named region's pixels."""
    cells = region_map[name]
    mask = np.zeros((grid.height, grid.width), dtype=bool)
    for row, col in cells:
        if not (0 <= row < grid.rows and 0 <= col < grid.cols):
            raise ConfigError(
                f"region {name!r} cell r{row}c{col} outside {grid.rows}x{grid.cols} grid"
            )
        y0, y1 = grid.row_bounds(row)
        x0, x1 = grid.col_bounds(col)
        mask[y0:y1, x0:x1] = True
    return mask


def parse_region_map(text: str, rows: int = GridSpec.rows, cols: int = GridSpec.cols) -> RegionMap:
    """Parse `region <name> = r<row>c<col>, ...` lines into a RegionMap.

    '#' starts a comment; blank lines are ignored. Cells are validated against
    a rows x cols grid; RegionMap rejects a cell claimed by two regions.
    """
    _check_grid_shape(rows, cols)
    regions: dict[str, frozenset[tuple[int, int]]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise ConfigError(f"line {lineno}: expected 'region <name> = r<row>c<col>, ...'")
        name, cell_text = match.group(1), match.group(2)
        if name in regions:
            raise ConfigError(f"line {lineno}: duplicate region {name!r}")
        cells = set()
        for token in cell_text.split(","):
            token = token.strip()
            cell_match = _CELL_RE.match(token)
            if cell_match is None:
                raise ConfigError(f"line {lineno}: bad cell {token!r}, expected r<row>c<col>")
            try:
                row, col = int(cell_match.group(1)), int(cell_match.group(2))
            except ValueError:  # more digits than the interpreter's int() limit
                raise ConfigError(f"line {lineno}: cell number too long") from None
            if row >= rows or col >= cols:
                raise ConfigError(
                    f"line {lineno}: cell r{row}c{col} outside {rows}x{cols} grid"
                )
            cells.add((row, col))
        regions[name] = frozenset(cells)
    return RegionMap(regions)


def default_region_text() -> str:
    """Source text of the packaged default region layout."""
    return resources.files("faceflow").joinpath("data/default.regions").read_text("utf-8")


def default_region_map() -> RegionMap:
    """The packaged facial layout for a 6x4 grid: eyes_eyebrows, cheeks, mouth."""
    return parse_region_map(default_region_text())
