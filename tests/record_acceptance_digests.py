"""Record, or check, the sha256 of every acceptance report.

    PYTHONPATH=src python3 tests/record_acceptance_digests.py
    PYTHONPATH=src python3 tests/record_acceptance_digests.py --check

Runs all experiments at seeds 0 and 1 with default ``Caps()``, exactly as
``tests/test_acceptance.py`` does at seed 0, and takes one digest of each
report's ``canonical_text()`` per experiment id.  Recording writes the seed-0
digests to acceptance_digests.json, which the tier-1 test reads, and the
seed-1 digests to acceptance_digests_seed1.json.  Run it from a checkout whose
reports are trusted; re-recording declares a change to a canonical report.

``--check`` writes nothing: it compares every report with its recorded digest,
names each changed (experiment, seed) with the report's current checked and
skipped counts and skips by reason, and exits 1 if there is one.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from finsite.experiments import all_experiment_ids, run_experiment
from finsite.generate import Caps

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = {
    0: os.path.join(HERE, "acceptance_digests.json"),
    1: os.path.join(HERE, "acceptance_digests_seed1.json"),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reports(seed: int) -> dict:
    caps = Caps()
    return {e: run_experiment(e, seed, caps) for e in all_experiment_ids()}


def digests(seed: int) -> dict[str, str]:
    return {e: digest(report.canonical_text()) for e, report in reports(seed).items()}


def counts(report) -> str:
    """The report's checked and skipped counts, and its skips by reason."""
    reasons = ", ".join("{} {}".format(reason, n) for reason, n in report.skips if n) or "none"
    return "checked {}, skipped {} ({})".format(report.checked, report.skipped, reasons)


def check() -> int:
    changed, total = [], 0
    for seed, path in DIGESTS.items():
        with open(path, encoding="utf-8") as fh:
            recorded = json.load(fh)
        now = reports(seed)
        total += len(now)
        for e in sorted(recorded.keys() | now.keys()):
            report = now.get(e)
            if report is None or recorded.get(e) != digest(report.canonical_text()):
                changed.append((e, seed, report))
    for exp_id, seed, report in changed:
        print("changed: {} at seed {}".format(exp_id, seed))
        if report is not None:
            print("  now {}".format(counts(report)))
    print("{} of {} reports changed".format(len(changed), total))
    return 1 if changed else 0


def record() -> int:
    for seed, path in DIGESTS.items():
        recorded = digests(seed)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("{} digests at seed {}".format(len(recorded), seed))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the recorded digests; write nothing")
    return check() if parser.parse_args(argv).check else record()


if __name__ == "__main__":
    sys.exit(main())
