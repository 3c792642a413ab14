"""Record the sha256 of every acceptance report into acceptance_digests.json.

    PYTHONPATH=src python3 tests/record_acceptance_digests.py

Runs all experiments at seed 0 with default ``Caps()``, exactly as
``tests/test_acceptance.py`` does, and writes one digest of each report's
``canonical_text()`` per experiment id.  Run it from a checkout whose reports
are trusted; re-recording declares a change to a canonical report.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys

from finsite.experiments import all_experiment_ids, run_experiment
from finsite.generate import Caps

SEED = 0
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "acceptance_digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    caps = Caps()
    recorded = {e: digest(run_experiment(e, SEED, caps).canonical_text()) for e in all_experiment_ids()}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("{} digests at seed {}".format(len(recorded), SEED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
