"""One path for every pinned run.

A digest set runs a config file through ``trustgrid`` in process and pins
each file it writes as ``{file name: SHA-256}`` in
``tests/digests/<set>.json``. Each ``scenarios/<stem>.ini`` is the set
``<stem>``; the sweeps in ``test_golden.py`` add one set each.

Record (only for an intended change of artifact bytes) with
``PYTHONPATH=src python tests/digests.py [SET ...]``, by default every set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from trustgrid.cli import main as trustgrid

HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST_DIR = os.path.join(HERE, "digests")
SCENARIO_DIR = os.path.join(HERE, os.pardir, "scenarios")


def stems(directory: str, suffix: str) -> set[str]:
    return {name[: -len(suffix)] for name in os.listdir(directory) if name.endswith(suffix)}


SCENARIOS = {
    stem: os.path.join(SCENARIO_DIR, stem + ".ini") for stem in stems(SCENARIO_DIR, ".ini")
}


def run_digests(config: str, out_dir: str) -> dict[str, str]:
    """Run ``config`` into the fresh directory ``out_dir``; SHA-256 per file."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert trustgrid(["--config", config, "--out", out_dir]) == 0, config
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def text_digests(text: str, work_dir: str) -> dict[str, str]:
    """Write the config ``text`` into ``work_dir`` and run it as a file."""
    config = os.path.join(work_dir, "config.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(text)
    return run_digests(config, os.path.join(work_dir, "out"))


def assert_digests(name: str, got: dict[str, str]) -> None:
    path = os.path.join(DIGEST_DIR, name + ".json")
    assert os.path.exists(path), f"no digest file pins {name!r}; record it (tests/digests.py)"
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert sorted(got) == sorted(expected)
    changed = sorted(file for file in got if got[file] != expected[file])
    assert not changed, f"artifact bytes changed for {len(changed)} files: {changed}"


def record(names: list[str]) -> None:
    from test_golden import SWEEPS, sweep_config  # not at the top: test_golden imports this

    for name in names or sorted(SCENARIOS.keys() | SWEEPS.keys()):
        with tempfile.TemporaryDirectory() as work:
            if name in SCENARIOS:
                digests = run_digests(SCENARIOS[name], os.path.join(work, "out"))
            else:
                digests = text_digests(sweep_config(SWEEPS[name]), work)
        with open(os.path.join(DIGEST_DIR, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(digests)} digests to tests/digests/{name}.json", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:])
