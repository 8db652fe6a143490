"""Deterministic grid-world coverage environment.

Agents move on a bounded grid and a cell becomes covered the moment an
agent occupies it. Per-step rewards are the counts of newly covered
cells, credited to the agent that entered them. All dynamics are pure
functions of (state, actions); randomness enters only through the seeded
initial placement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import ScenarioConfig

# Observation window cell markers.
CELL_UNCOVERED = 0
CELL_COVERED = 1
CELL_OOB = 2  # outside the grid, neither covered nor uncovered

_OOB = bytes([CELL_OOB])  # one out-of-grid cell, repeated to pad windows

# bytes.translate tables, one per marker, spelling a window as one binary
# digit per cell: "1" where the cell holds that marker, "0" elsewhere
_MARKER_DIGITS = {
    marker: bytes(b"01"[b == marker] for b in range(256))
    for marker in (CELL_UNCOVERED, CELL_COVERED, CELL_OOB)
}


def cell_mask(cells: bytes, marker: int) -> int:
    """Bitmask of a row-major window's cells: bit i is set where
    ``cells[i] == marker``."""
    # reversed so that cell i is bit i
    return int(cells.translate(_MARKER_DIGITS[marker])[::-1] or b"0", 2)


class Action(IntEnum):
    """Movement actions. Enum order is the global tie-break order."""

    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3
    STAY = 4


# (dx, dy) per action; y grows downward.
ACTION_DELTAS: dict[Action, tuple[int, int]] = {
    Action.UP: (0, -1),
    Action.DOWN: (0, 1),
    Action.LEFT: (-1, 0),
    Action.RIGHT: (1, 0),
    Action.STAY: (0, 0),
}

# Per-agent reward for one step: agent id -> newly covered cell count.
RewardRecord = dict[int, int]


@dataclass
class GridState:
    """Full environment state: coverage bitmap, agent positions, step count."""

    width: int
    height: int
    # row-major CELL_COVERED/CELL_UNCOVERED markers, cell (x, y) at y * width + x
    covered: bytearray
    positions: dict[int, tuple[int, int]]  # agent id -> (x, y)
    t: int = 0


@dataclass
class Observation:
    """An agent's transmittable local view.

    ``cells`` is a (2r+1) x (2r+1) window of ``CELL_*`` markers centered on
    ``position``, as row-major bytes; cells beyond the grid edge are
    ``CELL_OOB``. Any other int8 buffer (a ``bytearray``, a square int8
    array) is copied into bytes, so a window never changes after it is
    built.
    """

    agent_id: int
    position: tuple[int, int]
    cells: bytes
    t: int

    def __post_init__(self) -> None:
        cells = self.cells
        if type(cells) is not bytes:
            view = memoryview(cells)
            if view.format not in ("b", "B"):
                raise ValueError(f"observation window must be int8, got format {view.format!r}")
            if view.ndim not in (1, 2) or view.ndim == 2 and view.shape[0] != view.shape[1]:
                raise ValueError(f"malformed observation window, shape {view.shape}")
            cells = self.cells = view.tobytes()
        side = isqrt(len(cells))
        if side * side != len(cells) or side % 2 == 0:
            raise ValueError(f"malformed observation window, {len(cells)} cells")

    @property
    def radius(self) -> int:
        return isqrt(len(self.cells)) // 2

    def window_key(self) -> bytes:
        """The window's cells in row-major order: a stable content key,
        used for value-table caching."""
        return self.cells


def reset(config: "ScenarioConfig", seed: int) -> GridState:
    """Build the initial state: agents placed, their start cells covered, t=0.

    Agents with a fixed start use it; the rest are placed uniformly at
    random (seeded) on unoccupied cells. A ``ScenarioConfig`` is checked
    when it is built, so it never holds more agents than cells.
    """
    width, height = config.width, config.height
    specs = sorted(config.roster, key=lambda spec: spec.agent_id)
    taken = {spec.start for spec in specs if spec.start is not None}

    rng = random.Random(seed)
    positions: dict[int, tuple[int, int]] = {}
    for spec in specs:
        start = spec.start
        if start is None:
            while True:
                cell = (rng.randrange(width), rng.randrange(height))
                if cell not in taken:
                    break
            taken.add(cell)
            start = cell
        positions[spec.agent_id] = start

    covered = bytearray([CELL_UNCOVERED]) * (width * height)
    for x, y in positions.values():
        covered[y * width + x] = CELL_COVERED
    return GridState(width, height, covered, positions, t=0)


def step(state: GridState, joint_action: dict[int, Action]) -> tuple[GridState, RewardRecord]:
    """Advance one step: every agent moves one cell, destinations get covered.

    Off-grid moves resolve to staying put. An agent is rewarded 1 when its
    destination cell was uncovered; simultaneous arrivals credit the lowest
    agent id. Returns the successor state and the per-agent rewards.
    """
    if set(joint_action) != set(state.positions):
        raise ValueError(
            f"action-count mismatch: got actions for {sorted(joint_action)}, "
            f"agents are {sorted(state.positions)}"
        )
    width = state.width
    covered = bytearray(state.covered)
    positions: dict[int, tuple[int, int]] = {}
    rewards: RewardRecord = {}
    for i in sorted(state.positions):
        x, y = state.positions[i]
        dx, dy = ACTION_DELTAS[joint_action[i]]
        nx, ny = x + dx, y + dy
        if not (0 <= nx < width and 0 <= ny < state.height):
            nx, ny = x, y
        cell = ny * width + nx
        if covered[cell] == CELL_COVERED:
            rewards[i] = 0
        else:
            rewards[i] = 1
            covered[cell] = CELL_COVERED
        positions[i] = (nx, ny)
    next_state = GridState(width, state.height, covered, positions, state.t + 1)
    return next_state, rewards


@lru_cache(maxsize=1 << 12)
def _window_layout(
    width: int, height: int, radius: int, x: int, y: int
) -> tuple[bytes, bytes, bytes, tuple[slice, ...]]:
    """How a window of ``radius`` centred on (x, y) is cut from a
    ``width`` x ``height`` grid's row-major cells: the out-of-grid cells
    before its first in-grid cell, between one row's in-grid cells and the
    next's, and after its last, and the slice of each in-grid row."""
    size = 2 * radius + 1
    x0, x1 = max(0, x - radius), min(width, x + radius + 1)
    y0, y1 = max(0, y - radius), min(height, y + radius + 1)
    lead = _OOB * ((y0 - y + radius) * size + x0 - x + radius)
    gap = _OOB * (size - (x1 - x0))
    tail = _OOB * ((y + radius + 1 - y1) * size + x + radius + 1 - x1)
    rows = tuple(slice(row * width + x0, row * width + x1) for row in range(y0, y1))
    return lead, gap, tail, rows


def observe(state: GridState, agent_id: int, radius: int) -> Observation:
    """Truthful local view of the covered map around an agent's position."""
    x, y = state.positions[agent_id]
    lead, gap, tail, rows = _window_layout(state.width, state.height, radius, x, y)
    covered = state.covered
    cells = b"".join((lead, gap.join([covered[row] for row in rows]), tail))
    return Observation(agent_id, (x, y), cells, state.t)


def coverage_fraction(state: GridState) -> float:
    """Covered cells divided by total cells, in [0, 1]."""
    return float(state.covered.count(CELL_COVERED)) / float(state.width * state.height)
