"""The window format has one owner: ``env``.

Every window built outside ``env`` comes from ``Observation.from_cells``,
is a fresh writable int8 array of its input's shape, and shares no memory
with the window it was derived from. No other module imports numpy or
reads ``local_map``.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import numpy as np
import pytest

import trustgrid
from trustgrid.comms import FalsificationStrategy, falsify
from trustgrid.env import CELL_COVERED, CELL_OOB, CELL_UNCOVERED, Observation
from trustgrid.harness import merge_observation

GRID = (6, 6)


def corner_window(radius: int) -> Observation:
    """A truthful window at (1, 1): in-grid cells uncovered except the
    agent's own; at radius 2 the top row and left column are off the grid."""
    size = 2 * radius + 1
    cells = np.full((size, size), CELL_UNCOVERED, dtype=np.int8)
    cells[radius, radius] = CELL_COVERED
    cells[: radius - 1, :] = cells[:, : radius - 1] = CELL_OOB
    return Observation(0, (1, 1), cells, 5)


def assert_fresh_window(out: Observation, source: Observation) -> None:
    window = out.local_map
    assert window.dtype == np.int8
    assert window.shape == source.local_map.shape
    assert window.flags.writeable
    assert not np.shares_memory(window, source.local_map)


@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize(
    "strategy",
    [
        FalsificationStrategy.LURE,
        FalsificationStrategy.BABBLE,
        FalsificationStrategy.POSITION_SPOOF,
    ],
)
def test_falsified_windows_are_fresh_int8_windows(strategy, radius):
    truth = corner_window(radius)
    out = falsify(truth, strategy, random.Random(3), GRID)
    assert out is not truth
    assert_fresh_window(out, truth)


@pytest.mark.parametrize("radius", [1, 2])
def test_a_landed_merge_is_a_fresh_int8_window(radius):
    own = corner_window(radius)
    claim = falsify(own, FalsificationStrategy.LURE, random.Random(0), GRID)
    merged = merge_observation(own, (claim,))
    assert merged is not own
    assert merged.window_key() == claim.window_key()
    assert_fresh_window(merged, own)
    assert not np.shares_memory(merged.local_map, claim.local_map)


def parsed_modules() -> dict[str, ast.Module]:
    package = Path(trustgrid.__file__).parent
    return {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def test_only_env_knows_a_window_is_a_numpy_array():
    modules = parsed_modules()
    assert {"env.py", "comms.py", "harness.py", "policies.py", "trust.py"} <= set(modules)
    offences = []
    for name, tree in modules.items():
        if name == "env.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                imported = []
            if any(module.split(".")[0] == "numpy" for module in imported):
                offences.append(f"{name}:{node.lineno} imports numpy")
            if isinstance(node, ast.Attribute) and node.attr == "local_map":
                offences.append(f"{name}:{node.lineno} reads .local_map")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Observation"
            ):
                offences.append(f"{name}:{node.lineno} builds Observation without from_cells")
    assert offences == []
