"""Record the answers every workload must reproduce into expected.json.

    python3 perfbench/record.py [workload ...]

Run from the root of a finsite checkout whose outputs are trusted.  Each
workload runs one untraced pass under the benchmark's hash seed;
re-recording is a change to the benchmark's correctness gate and must be
justified as one.
"""
from __future__ import annotations

import json
import os
import random
import sys
import tempfile

import run


def main(argv: list[str]) -> int:
    code = run.pin_hash_seed()
    if code is not None:
        return code
    sys.path.insert(0, run.SRC)
    import workloads

    names = argv or list(workloads.WORKLOADS)
    recorded = {}
    if os.path.exists(run.EXPECTED):
        with open(run.EXPECTED, encoding="utf-8") as fh:
            recorded = json.load(fh)
    for name in names:
        with tempfile.TemporaryDirectory() as workdir:
            workload = workloads.WORKLOADS[name](workdir)
            answers = {}
            for op in workload.pass_ops(0, random.Random(0)):
                answers[op.key] = op.finish(op.call()).answer
        recorded[name] = dict(sorted(answers.items()))
        print("{}: {} answers".format(name, len(answers)))
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
