"""Golden artifacts over the whole scenario space, run long enough to freeze.

The same 144-scenario sweep as ``test_golden.py``, run for 60 steps
instead of 15. On the small grid most agents have covered everything in
reach well before step 60 and stop moving: 10,966 of the sweep's 17,280
steps move no agent, against 8 of 4,320 in the 15-step sweep. Many
episodes reach a fixed point, after which the engine only advances the
environment and repeats the frozen step's log: 6,136 of the 17,280 steps
are fast-forwarded that way. Each scenario's CSV and JSON must hash to
the digest in ``golden_parked_digests.json``, recorded while every stage
of every step was still simulated.

Regenerate (only for an intended change of artifact bytes) with
``PYTHONPATH=src python tests/test_golden_parked.py``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from test_golden import sweep_digests

from trustgrid import harness

DIGESTS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_parked_digests.json"
)
STEPS = 60


def test_parked_sweep_reproduces_golden_digests(tmp_path, monkeypatch):
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    transmits = 0  # one per simulated step
    transmit = harness.transmit

    def counted_transmit(*args):
        nonlocal transmits
        transmits += 1
        return transmit(*args)

    monkeypatch.setattr(harness, "transmit", counted_transmit)
    got = sweep_digests(str(tmp_path), STEPS)
    assert len(got) == 144
    assert 144 * 2 * STEPS - transmits == 6136  # steps fast-forwarded
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
