"""Environment dynamics: placement, movement, coverage credit, windows."""

from __future__ import annotations

import random

import numpy as np
import pytest
from windows import covered_at, grid, window_rows

from trustgrid.comms import AgentSpec, Role
from trustgrid.env import (
    CELL_COVERED,
    CELL_OOB,
    CELL_UNCOVERED,
    Action,
    GridState,
    Observation,
    cell_mask,
    coverage_fraction,
    observe,
    reset,
    step,
)
from trustgrid.policies import ValueOracleConfig, action_values, clear_value_cache


class Geometry:
    """Just enough config surface for reset()."""

    def __init__(self, width, height, starts):
        self.width = width
        self.height = height
        self.roster = tuple(
            AgentSpec(i, Role.COOPERATIVE, start=s) for i, s in enumerate(starts)
        )


def fixed(width, height, starts):
    return reset(Geometry(width, height, starts), seed=0)


def test_reset_covers_start_cells():
    state = fixed(5, 4, [(0, 0), (3, 2)])
    assert state.t == 0
    assert state.positions == {0: (0, 0), 1: (3, 2)}
    assert covered_at(state, 0, 0) == covered_at(state, 3, 2) == CELL_COVERED
    assert state.covered.count(CELL_COVERED) == 2


def test_reset_seeded_placement_is_reproducible_and_collision_free():
    geo = Geometry(6, 6, [None] * 5)
    a = reset(geo, seed=7)
    b = reset(geo, seed=7)
    c = reset(geo, seed=8)
    assert a.positions == b.positions
    assert a.positions != c.positions
    assert len(set(a.positions.values())) == 5


def test_reset_mixed_fixed_and_random_starts():
    geo = Geometry(4, 4, [(1, 1), None, (2, 3)])
    state = reset(geo, seed=3)
    assert state.positions[0] == (1, 1)
    assert state.positions[2] == (2, 3)
    assert state.positions[1] not in {(1, 1), (2, 3)}


def test_step_moves_and_covers():
    state = fixed(5, 5, [(2, 2), (0, 4)])
    nxt, rewards = step(state, {0: Action.RIGHT, 1: Action.UP})
    assert nxt.positions == {0: (3, 2), 1: (0, 3)}
    assert covered_at(nxt, 3, 2) == covered_at(nxt, 0, 3) == CELL_COVERED
    assert rewards == {0: 1, 1: 1}
    assert nxt.t == 1
    # original state untouched
    assert state.positions == {0: (2, 2), 1: (0, 4)}
    assert state.covered.count(CELL_COVERED) == 2


def test_step_off_grid_resolves_to_stay():
    state = fixed(3, 3, [(0, 0), (2, 2)])
    nxt, rewards = step(state, {0: Action.UP, 1: Action.DOWN})
    assert nxt.positions == {0: (0, 0), 1: (2, 2)}
    assert rewards == {0: 0, 1: 0}  # own cells already covered


def test_step_simultaneous_arrival_credits_lowest_id():
    state = fixed(5, 5, [(1, 2), (3, 2)])
    nxt, rewards = step(state, {0: Action.RIGHT, 1: Action.LEFT})
    assert nxt.positions == {0: (2, 2), 1: (2, 2)}  # no collision physics
    assert rewards == {0: 1, 1: 0}


def test_step_covered_destination_gives_no_reward():
    state = fixed(5, 5, [(1, 1), (3, 3)])
    mid, rewards = step(state, {0: Action.RIGHT, 1: Action.STAY})
    assert rewards == {0: 1, 1: 0}
    back, rewards = step(mid, {0: Action.LEFT, 1: Action.STAY})
    assert rewards == {0: 0, 1: 0}  # start cell was covered at reset
    _, rewards = step(back, {0: Action.RIGHT, 1: Action.STAY})
    assert rewards == {0: 0, 1: 0}  # revisiting its own trail


def test_step_requires_action_for_every_agent():
    state = fixed(4, 4, [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        step(state, {0: Action.STAY})
    with pytest.raises(ValueError):
        step(state, {0: Action.STAY, 1: Action.STAY, 7: Action.STAY})


def test_observe_center_and_oob_fill():
    state = fixed(4, 4, [(0, 0), (3, 3)])
    obs = observe(state, 0, radius=1)
    assert obs.agent_id == 0
    assert obs.position == (0, 0)
    assert obs.t == 0
    # top-left corner: row above and column left are off-grid
    window = window_rows(obs)
    assert window[0] == [CELL_OOB] * 3
    assert window[1][0] == CELL_OOB
    assert window[1][1] == CELL_COVERED  # own cell
    assert window[1][2] == CELL_UNCOVERED
    assert obs.radius == 1


def test_observe_sees_other_agents_coverage_not_agents():
    state = fixed(4, 4, [(1, 1), (2, 1)])
    obs = observe(state, 0, radius=1)
    assert window_rows(obs)[1][2] == CELL_COVERED  # neighbor's cell is covered


def test_observe_unknown_agent_and_bad_radius():
    state = fixed(4, 4, [(0, 0), (1, 1)])
    with pytest.raises(KeyError):
        observe(state, 9, radius=1)
    with pytest.raises(ValueError):
        observe(state, 0, radius=-1)


def test_observation_validates_window_shape():
    with pytest.raises(ValueError):
        Observation(0, (0, 0), np.zeros((2, 2), dtype=np.int8), 0)
    with pytest.raises(ValueError):
        Observation(0, (0, 0), np.zeros((3, 5), dtype=np.int8), 0)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, bool])
def test_observation_refuses_a_window_that_is_not_int8(dtype):
    # an int64 or float64 window would give the oracle eight bytes per cell
    with pytest.raises(ValueError, match="int8"):
        Observation(0, (0, 0), np.zeros((3, 3), dtype=dtype), 0)


def test_observation_copies_a_bytearray_window():
    original = bytes([CELL_OOB, CELL_COVERED, CELL_UNCOVERED] * 3)
    cells = bytearray(original)
    obs = Observation(4, (1, 2), cells, 7)
    assert (obs.agent_id, obs.position, obs.t, obs.radius) == (4, (1, 2), 7, 1)
    assert type(obs.window_key()) is bytes
    assert obs.window_key() == original
    cells[0] = CELL_COVERED  # the caller keeps its buffer; the window does not change
    assert obs.window_key() == original
    assert obs == Observation(4, (1, 2), original, 7)
    for length in (4, 8, 10):  # an even side, and two that are not squares
        with pytest.raises(ValueError):
            Observation(0, (0, 0), bytearray(length), 0)
        with pytest.raises(ValueError):
            Observation(0, (0, 0), bytes(length), 0)


def test_observation_accepts_the_benchmarks_int8_arrays():
    # perfbench's oracle microbenchmark builds each window as a writable copy,
    # and its reference recorder as a read-only view of the window's bytes
    picker = random.Random(5)
    config = ValueOracleConfig(gamma=0.9, horizon=4, radius=2)
    for _ in range(20):
        cells = bytes(picker.choice(MARKERS) for _ in range(25))
        built = Observation(0, (0, 0), cells, 0)
        writable = np.frombuffer(cells, dtype=np.int8).reshape(5, 5).copy()
        read_only = np.frombuffer(cells, np.int8).reshape(5, 5)
        assert writable.flags.writeable and not read_only.flags.writeable
        for window in (writable, read_only):
            obs = Observation(0, (0, 0), window, 0)
            assert obs == built
            assert obs.window_key() == built.window_key() == cells
            clear_value_cache()
            values = action_values(obs, config)
            clear_value_cache()
            assert [v.hex() for v in values] == [v.hex() for v in action_values(built, config)]


def test_coverage_fraction_and_monotonicity_under_random_play():
    rng = random.Random(11)
    geo = Geometry(6, 5, [None] * 3)
    for trial in range(20):
        state = reset(geo, seed=trial)
        previous = coverage_fraction(state)
        for _ in range(25):
            actions = {i: Action(rng.randrange(5)) for i in state.positions}
            state, rewards = step(state, actions)
            current = coverage_fraction(state)
            assert current >= previous
            assert 0.0 <= current <= 1.0
            # newly covered cells equal the summed rewards
            assert round((current - previous) * 30) == sum(rewards.values())
            previous = current


def test_state_equality_and_copy():
    state = fixed(4, 4, [(0, 0), (1, 1)])
    twin = fixed(4, 4, [(0, 0), (1, 1)])
    assert state == twin
    twin.covered[3 * 4 + 3] = CELL_COVERED
    assert state != twin


MARKERS = (CELL_UNCOVERED, CELL_COVERED, CELL_OOB)


def test_cell_mask_sets_bit_i_where_cell_i_holds_the_marker():
    cells = bytes([CELL_UNCOVERED, CELL_COVERED, CELL_OOB, CELL_UNCOVERED, CELL_OOB, CELL_COVERED])
    assert cell_mask(cells, CELL_UNCOVERED) == 0b001001
    assert cell_mask(cells, CELL_COVERED) == 0b100010
    assert cell_mask(cells, CELL_OOB) == 0b010100
    for marker in MARKERS:
        assert cell_mask(b"", marker) == 0
        assert cell_mask(bytes([marker]) * 81, marker) == (1 << 81) - 1
        others = [m for m in MARKERS if m != marker]
        assert cell_mask(bytes(others) * 40, marker) == 0


def test_cell_mask_reads_observe_windows_in_row_major_order():
    rng = random.Random(3)
    covered = grid([[rng.random() < 0.5 for _ in range(7)] for _ in range(6)])
    state = GridState(7, 6, covered, {0: (0, 0)})
    for x in range(7):
        for y in range(6):
            state.positions[0] = (x, y)
            window = observe(state, 0, 3)
            flat = list(window.window_key())
            for marker in MARKERS:
                expected = sum(1 << i for i, cell in enumerate(flat) if cell == marker)
                assert cell_mask(window.window_key(), marker) == expected
