"""Golden artifacts over the whole scenario space, run long enough to park.

The same 144-scenario sweep as ``test_golden.py``, run for 60 steps
instead of 15. On the small grid most agents have covered everything in
reach well before step 60 and stop moving: 10,966 of the sweep's 17,280
steps move no agent, against 8 of 4,320 in the 15-step sweep, and
10,714 steps follow such a step, against 4. Each scenario's CSV and JSON must hash to the digest in
``golden_parked_digests.json``, recorded before the episode loop learned
to reuse a parked step's work.

Regenerate (only for an intended change of artifact bytes) with
``PYTHONPATH=src python tests/test_golden_parked.py``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from test_golden import sweep_digests

DIGESTS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_parked_digests.json"
)
STEPS = 60


def test_parked_sweep_reproduces_golden_digests(tmp_path):
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    got = sweep_digests(str(tmp_path), STEPS)
    assert len(got) == 144
    assert len(set(expected.values())) == len(expected)
    assert sorted(got) == sorted(expected)
    changed = sorted(name for name in got if got[name] != expected[name])
    assert not changed, f"artifact bytes changed for {len(changed)} scenarios: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = sweep_digests(work, STEPS)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
