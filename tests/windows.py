"""Read windows and grids by coordinates.

An ``Observation``'s window is row-major bytes and a ``GridState``'s
coverage a row-major bytearray. These helpers index them by row and
column or by (x, y), so tests state their expected values as drawn.
"""

from __future__ import annotations

from trustgrid.env import CELL_COVERED, CELL_UNCOVERED


def window_rows(obs) -> list[list[int]]:
    """The observation's window as a list of rows of markers."""
    side = 2 * obs.radius + 1
    cells = obs.window_key()
    return [list(cells[r * side : (r + 1) * side]) for r in range(side)]


def covered_at(state, x: int, y: int) -> int:
    """The coverage marker of grid cell (x, y)."""
    return state.covered[y * state.width + x]


def grid(flags) -> bytearray:
    """A ``GridState.covered`` buffer from rows of truthy (covered) flags."""
    return bytearray(CELL_COVERED if flag else CELL_UNCOVERED for row in flags for flag in row)
