"""Windows are bytes, no module of the package imports numpy, and the
package's import graph is pinned.

Every falsified or merged window is a ``bytes`` window of its source's
length, ``import trustgrid`` leaves numpy unloaded, and each module imports
from the package only the modules it reads.
"""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

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
    cells = bytearray(
        CELL_OOB if row < radius - 1 or col < radius - 1 else CELL_UNCOVERED
        for row in range(size)
        for col in range(size)
    )
    cells[radius * size + radius] = CELL_COVERED
    return Observation(0, (1, 1), cells, 5)


def assert_fresh_window(out: Observation, source: Observation) -> None:
    window = out.window_key()
    assert type(window) is bytes
    assert len(window) == len(source.window_key())


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


def parsed_modules() -> dict[str, ast.Module]:
    package = Path(trustgrid.__file__).parent
    return {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def test_no_module_imports_numpy():
    modules = parsed_modules()
    assert {"env.py", "comms.py", "harness.py", "policies.py", "trust.py"} <= set(modules)
    offences = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                imported = []
            if any(module.split(".")[0] == "numpy" for module in imported):
                offences.append(f"{name}:{node.lineno} imports numpy")
    assert offences == []


# module -> the package modules it imports from; ``env`` imports ``config``
# only for type checking
IMPORT_GRAPH = {
    "__init__": set(),
    "__main__": {"cli"},
    "cli": {"config", "harness"},
    "comms": {"env", "policies"},
    "config": {"comms", "policies", "trust"},
    "env": {"config"},
    "harness": {"comms", "config", "env", "metrics", "policies", "trust"},
    "metrics": {"comms"},
    "policies": {"env"},
    "trust": {"env", "policies"},
}


def test_the_package_import_graph_is_pinned():
    """Each module imports from the package only what its layer reads:
    ``metrics`` classifies beliefs and needs nothing from ``trust``."""
    graph = {}
    for name, tree in parsed_modules().items():
        imported = graph.setdefault(name.removesuffix(".py"), set())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:  # from . import x
                    imported.update(alias.name for alias in node.names)
                else:
                    imported.add(node.module.split(".")[0])
    assert graph == IMPORT_GRAPH


def test_importing_the_package_leaves_numpy_unloaded():
    package_root = str(Path(trustgrid.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    probe = "import sys, trustgrid; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
