"""Exact value oracle over observation windows and the policies built on it.

The oracle computes, by depth-limited dynamic programming, the maximum
discounted coverage gain reachable inside an agent's window when the
first move is fixed. Because every agent runs the same oracle with the
same tie-break order, any two agents given the same window agree on both
values and the derived greedy action.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import isqrt

from .env import ACTION_DELTAS, CELL_OOB, CELL_UNCOVERED, Action, Observation, cell_mask


# The value recursion takes one Python frame per lookahead step; this
# leaves half of Python's default recursion limit (1000) to its callers.
MAX_HORIZON = 500


@dataclass(frozen=True)
class ValueOracleConfig:
    """Lookahead parameters shared by every agent in a scenario."""

    gamma: float
    horizon: int
    radius: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.horizon > MAX_HORIZON:
            raise ValueError(f"horizon must be <= {MAX_HORIZON}, got {self.horizon}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")


class AdversaryStrategy(Enum):
    """How a self-interested agent chooses its environment action."""

    NAIVE = "naive"  # greedy on its own truthful view
    CONSISTENT_LIAR = "consistent_liar"  # greedy on the view it transmitted


@lru_cache(maxsize=None)
def _window_moves(size: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Per cell of a size x size window: the destination of each action in
    ``Action`` order, a move off the window staying put, and the bitmask of
    those destinations."""
    moves = []
    for idx in range(size * size):
        row, col = divmod(idx, size)
        dests = []
        for action in Action:
            dx, dy = ACTION_DELTAS[action]
            nr, nc = row + dy, col + dx
            dests.append(nr * size + nc if 0 <= nr < size and 0 <= nc < size else idx)
        moves.append(tuple(dests))
    return tuple(moves), tuple(sum(1 << d for d in set(dests)) for dests in moves)


@lru_cache(maxsize=1 << 8)
def _edge_moves(size: int, oob: int) -> tuple[tuple[int, ...], ...]:
    """``_window_moves(size)``'s destinations with every move onto a cell
    in the ``oob`` bitmask (out of grid) staying put instead."""
    moves, dest_bits = _window_moves(size)
    return tuple(
        tuple(idx if oob >> dest & 1 else dest for dest in dests) if bits & oob else dests
        for idx, (dests, bits) in enumerate(zip(moves, dest_bits))
    )


@lru_cache(maxsize=1 << 18)
def _value_table(window_bytes: bytes, gamma: float, horizon: int) -> tuple[float, ...]:
    """Value of each first action for one square row-major window, by
    exact depth-limited DP.

    State is (cell index, bitmask of cells covered since the start). Moves
    that would leave the window or enter an out-of-grid cell resolve to
    staying put; arriving on an uncovered cell gains 1 and covers it.

    The last two levels are answered in closed form. A depth-1 node is
    worth 1 + gamma * 0 when some move collects a cell and gamma * 0
    otherwise, so each depth-2 child is worth one of four constants. The
    constants come from the recursion's own float expressions, so every
    value keeps its exact bits and greedy tie-breaks cannot change.

    Deeper nodes are pruned against ceilings built from the same
    expressions: ``top[0] = 0.0`` and ``top[d] = 1.0 + gamma * top[d - 1]``.
    Rounding ``gamma * x`` (gamma >= 0) and ``1.0 + y`` is monotone, so by
    induction no node with ``d`` moves left is worth more than ``top[d]``,
    and no move of it that collects nothing is worth more than
    ``gamma * top[d - 1]``. A node scans its collecting moves (onto an
    uncovered cell not yet collected) first, and stops once its value
    equals ``top[d]``. It then scans its idle moves only while its value is
    below ``gamma * top[d - 1]``, so a collecting move that reaches that
    ceiling skips them all. A skipped move could not pass ``v > out``, and
    a node's value is the max over its moves, which no scan order changes.
    So every value is the plain recursion's, bit for bit, and so is every
    tie-break: the root computes all five first-action values.
    """
    cells = window_bytes
    size = isqrt(len(cells))
    center = (size // 2) * size + (size // 2)
    moves, dest_bits = _window_moves(size)
    if CELL_OOB in cells:
        moves = _edge_moves(size, cell_mask(cells, CELL_OOB))
    # out-of-grid cells are never uncovered, so dest_bits serves edge windows too
    uncovered = cell_mask(cells, CELL_UNCOVERED)

    depth1 = 1.0 + gamma * 0.0, gamma * 0.0  # some move collects a cell, or none
    both, first, second, neither = (
        1.0 + gamma * depth1[0],
        1.0 + gamma * depth1[1],
        gamma * depth1[0],
        gamma * depth1[1],
    )
    top = [0.0]  # top[d]: no node with d moves left is worth more
    for _ in range(horizon):
        top.append(1.0 + gamma * top[-1])

    def best2(idx: int, mask: int, depth: int = 2) -> float:
        """Value with two moves left; ``depth`` lets it stand in for ``best``."""
        # both >= first > second >= neither, so the first one found is the max
        fresh = uncovered & ~mask
        if fresh & dest_bits[idx]:
            for dest in moves[idx]:
                bit = 1 << dest
                if fresh & bit and fresh & ~bit & dest_bits[dest]:
                    return both
            return first
        for dest in moves[idx]:
            if fresh & dest_bits[dest]:
                return second
        return neither

    memo: dict[tuple[int, int, int], float] = {}

    def best(idx: int, mask: int, depth: int) -> float:
        """Value with ``depth`` >= 3 moves left, memoised and pruned."""
        key = (idx, mask, depth)
        cached = memo.get(key)
        if cached is not None:
            return cached
        child = best if depth > 3 else best2
        ceiling, idle_ceiling = top[depth], gamma * top[depth - 1]
        fresh = uncovered & ~mask
        out = 0.0
        for dest in moves[idx]:  # collecting moves first
            bit = 1 << dest
            if fresh & bit:
                v = 1.0 + gamma * child(dest, mask | bit, depth - 1)
                if v > out:
                    out = v
                    if out == ceiling:
                        break
        if out < idle_ceiling:  # else no idle move can pass it
            for dest in moves[idx]:
                if not fresh >> dest & 1:
                    v = gamma * child(dest, mask, depth - 1)
                    if v > out:
                        out = v
                        if out >= idle_ceiling:
                            break
        memo[key] = out
        return out

    def value(idx: int, mask: int, depth: int) -> float:
        if depth > 2:
            return best(idx, mask, depth)
        if depth == 2:
            return best2(idx, mask)
        if depth == 1:
            return depth1[0] if uncovered & ~mask & dest_bits[idx] else depth1[1]
        return 0.0

    values = []
    for dest in moves[center]:
        bit = 1 << dest
        if cells[dest] == CELL_UNCOVERED:
            values.append(1.0 + gamma * value(dest, bit, horizon - 1))
        else:
            values.append(gamma * value(dest, 0, horizon - 1))
    return tuple(values)


def action_values(obs: Observation, cfg: ValueOracleConfig) -> tuple[float, ...]:
    """Values of all actions on one observation, in ``Action`` order."""
    return _value_table(obs.window_key(), cfg.gamma, cfg.horizon)


def greedy_action(obs: Observation, cfg: ValueOracleConfig) -> Action:
    """Argmax action; ties go to the earliest action in the fixed order."""
    values = action_values(obs, cfg)
    return Action(values.index(max(values)))


def clear_value_cache() -> None:
    """Drop memoized value tables (test isolation and memory control)."""
    _value_table.cache_clear()
