"""Every scenario file is pinned, and every pin belongs to a config.

Each ``scenarios/<stem>.ini`` must run to the digests in
``tests/digests/<stem>.json``. A scenario file without a digest file
fails, and so does a digest file that no config produces, so no arm ships
unpinned and no stale pin survives.
"""

from __future__ import annotations

import pytest

from digests import DIGEST_DIR, SCENARIOS, assert_digests, run_digests, stems
from test_golden import SWEEPS

PINNED = stems(DIGEST_DIR, ".json") - SWEEPS.keys()


@pytest.mark.parametrize("stem", sorted(SCENARIOS.keys() | PINNED))
def test_scenario_file_reproduces_its_digests(stem, tmp_path):
    assert stem in SCENARIOS, f"tests/digests/{stem}.json pins no scenario file"
    assert_digests(stem, run_digests(SCENARIOS[stem], str(tmp_path / "out")))
