"""README's two examples: the config reference and the kl calibration."""

from __future__ import annotations

import os
import re
import subprocess
import sys

from trustgrid.config import load_scenarios

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def readme_block(language):
    with open(os.path.join(ROOT, "README.md")) as fh:
        (block,) = re.findall(rf"^```{language}\n(.*?)^```$", fh.read(), re.M | re.S)
    return block


def test_the_config_reference_spells_the_defaults(tmp_path):
    # "The values above are the defaults"
    reference = tmp_path / "reference.ini"
    reference.write_text(readme_block("ini"))
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    assert load_scenarios(str(reference)) == load_scenarios(str(empty))


def test_the_kl_calibration_example_prints_zero():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", readme_block("python")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0.0\n"
