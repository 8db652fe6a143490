"""Value oracle and greedy policy."""

from __future__ import annotations

import random

import numpy as np
import pytest
from windows import grid, window_rows

from oracles import dp_values, enumeration_values
from trustgrid import policies
from trustgrid.env import (
    CELL_COVERED,
    CELL_OOB,
    CELL_UNCOVERED,
    Action,
    GridState,
    Observation,
    observe,
)
from trustgrid.policies import (
    MAX_HORIZON,
    ValueOracleConfig,
    action_values,
    greedy_action,
)


def window_obs(rows, agent_id=0, position=(2, 2), t=0):
    return Observation(agent_id, position, np.array(rows, dtype=np.int8), t)


def random_window(rng, size):
    return [
        [rng.choice((CELL_UNCOVERED, CELL_COVERED, CELL_OOB)) for _ in range(size)]
        for _ in range(size)
    ]


def test_config_validation():
    with pytest.raises(TypeError):
        ValueOracleConfig()  # the config file holds the defaults
    with pytest.raises(ValueError):
        ValueOracleConfig(gamma=1.0, horizon=3, radius=2)
    with pytest.raises(ValueError):
        ValueOracleConfig(gamma=-0.1, horizon=3, radius=2)
    with pytest.raises(ValueError):
        ValueOracleConfig(gamma=0.9, horizon=0, radius=2)
    with pytest.raises(ValueError):
        ValueOracleConfig(gamma=0.9, horizon=3, radius=-1)


def test_fully_covered_window_is_worthless():
    obs = window_obs([[CELL_COVERED] * 5 for _ in range(5)])
    cfg = ValueOracleConfig(gamma=0.9, horizon=3, radius=2)
    assert action_values(obs, cfg) == (0.0,) * 5
    assert greedy_action(obs, cfg) is Action.UP  # first in the tie order


def test_the_deepest_horizon_returns_under_pytest():
    with pytest.raises(ValueError, match=f"horizon must be <= {MAX_HORIZON}"):
        ValueOracleConfig(gamma=0.9, horizon=MAX_HORIZON + 1, radius=2)
    # once the one uncovered cell is collected nothing is left, so the
    # recursion runs every branch to the full depth, one frame per move
    rows = [[CELL_COVERED] * 3 for _ in range(3)]
    rows[1][2] = CELL_UNCOVERED
    cfg = ValueOracleConfig(gamma=0.9, horizon=MAX_HORIZON, radius=1)
    values = action_values(window_obs(rows, position=(1, 1)), cfg)
    assert values[Action.RIGHT] == 1.0
    assert values[Action.STAY] == 0.9 * 1.0
    assert greedy_action(window_obs(rows, position=(1, 1)), cfg) is Action.RIGHT


def test_single_uncovered_cell_right_horizon_one():
    rows = [[CELL_COVERED] * 3 for _ in range(3)]
    rows[1][2] = CELL_UNCOVERED
    obs = window_obs(rows, position=(1, 1))
    cfg = ValueOracleConfig(gamma=0.9, horizon=1, radius=1)
    assert action_values(obs, cfg)[Action.RIGHT] == 1.0
    for action in (Action.UP, Action.DOWN, Action.LEFT, Action.STAY):
        assert action_values(obs, cfg)[action] == 0.0
    assert greedy_action(obs, cfg) is Action.RIGHT


def test_oob_cells_block_and_are_worthless():
    # uncovered cell beyond an out-of-grid wall cannot be reached or scored
    rows = [
        [CELL_OOB, CELL_OOB, CELL_OOB],
        [CELL_COVERED, CELL_COVERED, CELL_COVERED],
        [CELL_COVERED, CELL_COVERED, CELL_COVERED],
    ]
    obs = window_obs(rows, position=(1, 0))
    cfg = ValueOracleConfig(gamma=0.9, horizon=3, radius=1)
    assert action_values(obs, cfg) == (0.0,) * 5


def test_values_match_enumeration_on_random_5x5_windows():
    rng = random.Random(23)
    cfg = ValueOracleConfig(gamma=0.9, horizon=3, radius=2)
    for _ in range(40):
        rows = random_window(rng, 5)
        obs = window_obs(rows)
        expected = enumeration_values(rows, cfg.gamma, cfg.horizon)
        got = action_values(obs, cfg)
        for action in Action:
            assert got[action] == pytest.approx(expected[action], abs=1e-12)


def test_value_upper_bound_and_argmax_property():
    rng = random.Random(5)
    cfg = ValueOracleConfig(gamma=0.9, horizon=3, radius=2)
    bound = sum(cfg.gamma**k for k in range(cfg.horizon))
    for _ in range(60):
        obs = window_obs(random_window(rng, 5))
        values = action_values(obs, cfg)
        best = greedy_action(obs, cfg)
        assert all(0.0 <= v <= bound + 1e-12 for v in values)
        assert values[best] == max(values)
        # earliest action among the maxima
        for action in Action:
            if action < best:
                assert values[action] < values[best]


def test_values_are_deterministic_across_equal_observations():
    rows = [[CELL_UNCOVERED] * 5 for _ in range(5)]
    a = window_obs(rows, agent_id=1, position=(4, 4))
    b = window_obs(rows, agent_id=3, position=(7, 2), t=9)
    cfg = ValueOracleConfig(gamma=0.9, horizon=3, radius=2)
    assert action_values(a, cfg) == action_values(b, cfg)


def sweep_window(rng, radius, share, bands=True):
    """A window with grid-edge OOB bands (when ``bands``) along the top or
    bottom and the left or right; every other cell, the centre included,
    is uncovered with probability ``share``."""
    size = 2 * radius + 1
    band_rows, band_cols = (
        (rng.randrange(radius + 1), rng.randrange(radius + 1)) if bands else (0, 0)
    )
    far_side = rng.random() < 0.5

    def off_grid(i, band):
        return i >= size - band if far_side else i < band

    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            if off_grid(r, band_rows) or off_grid(c, band_cols):
                row.append(CELL_OOB)
            elif rng.random() < share:
                row.append(CELL_UNCOVERED)
            else:
                row.append(CELL_COVERED)
        rows.append(row)
    return rows


def test_values_equal_the_plain_dp_bit_for_bit():
    # == and not approx: greedy tie-breaks compare these floats exactly.
    # Dense windows drive nodes to their ceiling (the early stop); sparse
    # ones reach it rarely and exercise the skip of moves that collect
    # nothing. Both prune only from horizon 4 on. 0.618 and 0.619 sit on
    # either side of gamma + gamma**2 = 1, where idling once and then
    # collecting twice starts to beat collecting now.
    rng = random.Random(41)
    for radius in range(1, 5):
        for horizon in range(1, 8):
            for share in (0.0, 0.05, 0.1, 0.25, 0.5, 1.0):
                for bands in (False, True):
                    rows = sweep_window(rng, radius, share, bands)
                    obs = window_obs(rows, position=(radius, radius))
                    for gamma in (0.0, 0.3, 0.5, 0.618, 0.619, 0.9, 0.99, 0.999):
                        cfg = ValueOracleConfig(gamma=gamma, horizon=horizon, radius=radius)
                        got = list(action_values(obs, cfg))
                        assert got == dp_values(rows, gamma, horizon), (
                            radius, horizon, share, gamma, rows,
                        )



def test_idle_moves_scanned_after_the_only_collecting_move_keep_their_values():
    # From the centre only RIGHT collects, so every node there scans UP,
    # DOWN and LEFT after it. LEFT idles into a run of two uncovered
    # cells, which beats the lone cell on the right once gamma + gamma**2
    # exceeds 1: the greedy action flips between 0.618 and 0.619.
    U, C = CELL_UNCOVERED, CELL_COVERED
    rows = [
        [C, C, C, C, C],
        [U, C, C, C, C],
        [U, C, C, U, C],
        [U, C, C, C, C],
        [C, C, C, C, C],
    ]
    assert [rows[1][2], rows[3][2], rows[2][1], rows[2][3]] == [C, C, C, U]
    obs = window_obs(rows)
    for horizon in range(3, 8):
        for gamma in (0.0, 0.3, 0.5, 0.618, 0.619, 0.9, 0.99):
            cfg = ValueOracleConfig(gamma=gamma, horizon=horizon, radius=2)
            got = list(action_values(obs, cfg))
            assert got == dp_values(rows, gamma, horizon), (horizon, gamma)
    assert greedy_action(obs, ValueOracleConfig(gamma=0.618, horizon=3, radius=2)) is Action.RIGHT
    assert greedy_action(obs, ValueOracleConfig(gamma=0.619, horizon=3, radius=2)) is Action.LEFT


def test_every_out_of_grid_pattern_equals_the_plain_dp_bit_for_bit():
    # A window centred on each cell of the grid shows every out-of-grid
    # pattern a grid this small can give. Two coverage maps per pattern,
    # and no cache clear between windows, so the move table cached for a
    # pattern is reused on windows whose other cells differ.
    width, height = 6, 5
    rng = random.Random(7)
    maps = [
        grid([[rng.random() < share for _ in range(width)] for _ in range(height)])
        for share in (0.3, 0.7)
    ]
    hits = policies._edge_moves.cache_info().hits
    for radius in range(1, 5):
        for horizon in range(1, 7):
            cfg = ValueOracleConfig(gamma=0.9, horizon=horizon, radius=radius)
            for covered in maps:
                for x in range(width):
                    for y in range(height):
                        obs = observe(GridState(width, height, covered, {0: (x, y)}), 0, radius)
                        got = list(action_values(obs, cfg))
                        want = dp_values(window_rows(obs), cfg.gamma, horizon)
                        assert got == want, (radius, horizon, x, y)
    assert policies._edge_moves.cache_info().hits > hits
