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
from math import isqrt
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import ScenarioConfig

# Observation window cell markers.
CELL_UNCOVERED = 0
CELL_COVERED = 1
CELL_OOB = 2  # outside the grid, neither covered nor uncovered

# every window's dtype; numpy returns this one object for int8, so an
# identity test suffices
_INT8 = np.dtype(np.int8)

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


@dataclass(eq=False)
class GridState:
    """Full environment state: coverage bitmap, agent positions, step count."""

    width: int
    height: int
    covered: np.ndarray  # bool, shape (height, width), indexed [y, x]
    positions: dict[int, tuple[int, int]]  # agent id -> (x, y)
    t: int = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridState):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.t == other.t
            and self.positions == other.positions
            and np.array_equal(self.covered, other.covered)
        )


@dataclass(eq=False)
class Observation:
    """An agent's transmittable local view.

    ``local_map`` is a (2r+1) x (2r+1) int8 window of ``CELL_*`` markers
    centered on ``position``; cells beyond the grid edge are ``CELL_OOB``.
    Code outside this module builds windows with ``from_cells`` and reads
    them through ``radius`` and ``window_key``.
    """

    agent_id: int
    position: tuple[int, int]
    local_map: np.ndarray  # int8, shape (2r+1, 2r+1)
    t: int

    def __post_init__(self) -> None:
        window = self.local_map
        if window.dtype is not _INT8:
            raise ValueError(f"observation window must be int8, got {window.dtype}")
        shape = window.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 2 == 0:
            raise ValueError(f"malformed observation window, shape {shape}")

    @classmethod
    def from_cells(
        cls, agent_id: int, position: tuple[int, int], cells: bytearray, t: int
    ) -> "Observation":
        """Observation over a row-major window of ``CELL_*`` markers.

        The window is a view of ``cells``, not a copy: the caller hands the
        buffer over and must not change it afterwards.
        """
        window = np.frombuffer(cells, dtype=np.int8)
        return cls(agent_id, position, window.reshape(isqrt(len(cells)), -1), t)

    @property
    def radius(self) -> int:
        return self.local_map.shape[0] // 2

    def window_key(self) -> bytes:
        """The window's cells in row-major order: a stable content key,
        used for value-table caching."""
        return self.local_map.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Observation):
            return NotImplemented
        return (
            self.agent_id == other.agent_id
            and self.position == other.position
            and self.t == other.t
            and self.window_key() == other.window_key()
        )


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

    covered = np.zeros((height, width), dtype=bool)
    for x, y in positions.values():
        covered[y, x] = True
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
    covered = state.covered.copy()
    positions: dict[int, tuple[int, int]] = {}
    rewards: RewardRecord = {}
    for i in sorted(state.positions):
        x, y = state.positions[i]
        dx, dy = ACTION_DELTAS[joint_action[i]]
        nx, ny = x + dx, y + dy
        if not (0 <= nx < state.width and 0 <= ny < state.height):
            nx, ny = x, y
        if covered[ny, nx]:
            rewards[i] = 0
        else:
            rewards[i] = 1
            covered[ny, nx] = True
        positions[i] = (nx, ny)
    next_state = GridState(state.width, state.height, covered, positions, state.t + 1)
    return next_state, rewards


def observe(state: GridState, agent_id: int, radius: int) -> Observation:
    """Truthful local view of the covered map around an agent's position."""
    if agent_id not in state.positions:
        raise KeyError(f"unknown agent {agent_id}")
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    x, y = state.positions[agent_id]
    size = 2 * radius + 1
    window = np.full((size, size), CELL_OOB, dtype=np.int8)
    x0, x1 = max(0, x - radius), min(state.width, x + radius + 1)
    y0, y1 = max(0, y - radius), min(state.height, y + radius + 1)
    # bool casts to the markers: True -> 1 (CELL_COVERED), False -> 0 (CELL_UNCOVERED)
    window[
        y0 - (y - radius) : y1 - (y - radius),
        x0 - (x - radius) : x1 - (x - radius),
    ] = state.covered[y0:y1, x0:x1]
    return Observation(agent_id, (x, y), window, state.t)


def coverage_fraction(state: GridState) -> float:
    """Covered cells divided by total cells, in [0, 1]."""
    return float(state.covered.sum()) / float(state.width * state.height)
