"""The headline run, pinned byte for byte.

``trustgrid --config scenarios/default.ini`` writes ten files: five arms
of 100 seeds at 200 steps, each a CSV and a JSON. Each must hash to the
SHA-256 recorded in ``headline_digests.json``. The golden sweeps run 15
steps on a small grid, so only this test pins the shipped arms' full
artifacts.

Regenerate (only for an intended change of artifact bytes) with
``PYTHONPATH=src python tests/test_headline.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from trustgrid.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "headline_digests.json")
SHIPPED = os.path.join(HERE, os.pardir, "scenarios", "default.ini")


def headline_digests(out_dir: str) -> dict[str, str]:
    """Run the shipped scenario file into ``out_dir``; SHA-256 per file."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", SHIPPED, "--out", out_dir]) == 0
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_headline_run_reproduces_its_digests(tmp_path):
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    got = headline_digests(str(tmp_path))
    assert sorted(got) == sorted(expected)
    changed = sorted(name for name in got if got[name] != expected[name])
    assert not changed, f"artifact bytes changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = headline_digests(work)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
