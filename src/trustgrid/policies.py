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

_ACTIONS = tuple(Action)  # indexed by value, in tie-break order


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


# per cell of a window, its distinct move destinations as (cell, 1 << cell)
_Moves = tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=1 << 8)
def _moves(size: int, oob: int) -> tuple[_Moves, tuple[int, ...], tuple[int, ...]]:
    """Per cell of a size x size window whose out-of-grid cells are the
    ``oob`` bitmask: its distinct move destinations as (cell, 1 << cell)
    pairs, in ``Action`` order of first reach, a move off the window or
    onto an out-of-grid cell staying put; the bitmask of those
    destinations; and the centre cell's destination for each action in
    ``Action`` order, repeats kept."""
    center = (size // 2) * size + size // 2
    if oob:
        # the in-grid table, rebuilt only at the cells that can reach oob
        inner, reach, root = _moves(size, 0)
        moves = tuple(
            tuple({(idx, 1 << idx) if oob & bit else (dest, bit): None for dest, bit in pairs})
            if oob & bits
            else pairs
            for idx, (pairs, bits) in enumerate(zip(inner, reach))
        )
        root = tuple(center if oob >> dest & 1 else dest for dest in root)
    else:
        cells = []
        for idx in range(size * size):
            row, col = divmod(idx, size)
            dests = {}  # insertion-ordered, so each destination once
            for dx, dy in ACTION_DELTAS.values():
                nr, nc = row + dy, col + dx
                dests[nr * size + nc if 0 <= nr < size and 0 <= nc < size else idx] = None
            cells.append(tuple((dest, 1 << dest) for dest in dests))
        moves = tuple(cells)
        # the centre's neighbours are all in the window, and all distinct
        root = tuple(dest for dest, _ in moves[center])
    return moves, tuple(sum(bit for _, bit in pairs) for pairs in moves), root


def _collects_throughout(
    moves: _Moves,
    dest_bits: tuple[int, ...],
    idx: int,
    fresh: int,
    depth: int,
) -> bool:
    """Whether some ``depth`` >= 2 moves in a row from cell ``idx``, over
    ``_moves`` tables, each collect a cell of the ``fresh`` bitmask."""
    for dest, bit in moves[idx]:
        if fresh & bit:
            rest = fresh ^ bit
            if depth == 2:
                if rest & dest_bits[dest]:
                    return True
            elif _collects_throughout(moves, dest_bits, dest, rest, depth - 1):
                return True
    return False


# gamma, top[d], gamma * top[d], and the four values with two moves left
_Levels = tuple[float, tuple[float, ...], tuple[float, ...], tuple[float, float, float, float]]
# what the search reads of one window: its move table and destination
# masks (``_moves``), the constants and its memo
_Context = tuple[_Moves, tuple[int, ...], _Levels, dict[tuple[int, int, int], float]]


@lru_cache(maxsize=1 << 8)
def _levels(gamma: float, horizon: int) -> _Levels:
    """The search's constants for one (gamma, horizon), built by the
    recursion's own float expressions, so each has the recursion's bits.
    ``top[d]`` bounds a node with ``d`` moves left; with one move left a
    node is worth ``top[1]`` if some move collects a cell, else
    ``gamma * top[0]``, so with two left it is one of four constants."""
    top = [0.0]
    for _ in range(horizon):
        top.append(1.0 + gamma * top[-1])
    idle = tuple(gamma * t for t in top)
    # both moves collect, only the first, only the second, neither
    closed = 1.0 + gamma * top[1], 1.0 + gamma * idle[0], gamma * top[1], gamma * idle[0]
    return gamma, tuple(top), idle, closed


def _best2(ctx: _Context, idx: int, fresh: int, depth: int = 2) -> float:
    """Value with two moves left from cell ``idx``, ``fresh`` the uncovered
    cells not yet collected. It takes ``_best``'s arguments, so either can
    be the other's child."""
    moves, dest_bits, levels, _ = ctx
    # both >= first > second >= neither, so the first one found is the max
    both, first, second, neither = levels[3]
    if fresh & dest_bits[idx]:
        for dest, bit in moves[idx]:
            if fresh & bit and fresh & ~bit & dest_bits[dest]:
                return both
        return first
    for dest, _ in moves[idx]:
        if fresh & dest_bits[dest]:
            return second
    return neither


def _best(ctx: _Context, idx: int, fresh: int, depth: int) -> float:
    """Value with ``depth`` >= 3 moves left, memoised and pruned."""
    moves, dest_bits, levels, memo = ctx
    key = (idx, fresh, depth)
    cached = memo.get(key)
    if cached is not None:
        return cached
    gamma, top, idle, _ = levels
    child = _best if depth > 3 else _best2
    ceiling, idle_ceiling = top[depth], idle[depth - 1]
    out = 0.0
    for dest, bit in moves[idx]:  # collecting moves first
        if fresh & bit:
            v = 1.0 + gamma * child(ctx, dest, fresh ^ bit, depth - 1)
            if v > out:
                out = v
                if out == ceiling:
                    break
    if out < idle_ceiling:  # else no idle move can pass it
        for dest, bit in moves[idx]:
            if not fresh & bit:
                v = gamma * child(ctx, dest, fresh, depth - 1)
                if v > out:
                    out = v
                    if out >= idle_ceiling:
                        break
    memo[key] = out
    return out


def _value(ctx: _Context, idx: int, fresh: int, depth: int) -> float:
    """Value of a root child at cell ``idx`` with ``depth`` moves left."""
    moves, dest_bits, (_, top, idle, _), _ = ctx
    if depth > 2:
        if _collects_throughout(moves, dest_bits, idx, fresh, depth):
            return top[depth]
        return _best(ctx, idx, fresh, depth)
    if depth == 2:
        return _best2(ctx, idx, fresh)
    if depth == 1:
        return top[1] if fresh & dest_bits[idx] else idle[0]
    return 0.0


@lru_cache(maxsize=1 << 18)
def _value_table(window_bytes: bytes, gamma: float, horizon: int) -> tuple[float, ...]:
    """Value of each first action for one square row-major window, by
    exact depth-limited DP.

    State is (cell index, bitmask of cells covered since the start). Moves
    that would leave the window or enter an out-of-grid cell resolve to
    staying put; arriving on an uncovered cell gains 1 and covers it. The
    search below keys a state by the uncovered cells not yet covered, which
    names the same state, since only uncovered cells are ever covered.

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

    Most of the root's children can collect a cell at every move left to
    them. Such a child is worth exactly ``top[d]``: that is the value of
    its all-collecting path, built by the same expressions, and no node is
    worth more. So a child with ``d > 2`` moves left is first searched for
    such a path (``_collects_throughout``, depth first, without memo or
    floats), and the DP runs only when it has none.
    So every value is the plain recursion's, bit for bit, and so is every
    tie-break: the root computes all five first-action values.

    A miss builds no function and no constant, only its memo: the search
    is module level, and its constants are built once per (gamma, horizon)
    (``_levels``). Nothing refers to the memo after the miss, so it is
    freed on return.
    """
    cells = window_bytes
    size = isqrt(len(cells))
    oob = cell_mask(cells, CELL_OOB) if CELL_OOB in cells else 0
    moves, dest_bits, root = _moves(size, oob)
    uncovered = cell_mask(cells, CELL_UNCOVERED)
    levels = _levels(gamma, horizon)
    ctx = moves, dest_bits, levels, {}
    depth = horizon - 1

    # the root values every action, a repeated stay-put move included
    values = []
    for dest in root:
        bit = 1 << dest
        if uncovered & bit:
            rest = _value(ctx, dest, uncovered ^ bit, depth)
            values.append(1.0 + gamma * rest)
        else:
            values.append(gamma * _value(ctx, dest, uncovered, depth))
    return tuple(values)


def action_values(obs: Observation, cfg: ValueOracleConfig) -> tuple[float, ...]:
    """Values of all actions on one observation, in ``Action`` order."""
    return _value_table(obs.window_key(), cfg.gamma, cfg.horizon)


def greedy_action(obs: Observation, cfg: ValueOracleConfig) -> Action:
    """Argmax action; ties go to the earliest action in the fixed order."""
    values = action_values(obs, cfg)
    return _ACTIONS[values.index(max(values))]


def clear_value_cache() -> None:
    """Drop memoized value tables (test isolation and memory control)."""
    _value_table.cache_clear()
