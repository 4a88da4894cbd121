#!/usr/bin/env python3
"""Record the sha256 of every CSV the `curves` workload writes on the golden seed.

The benchmark then counts any byte change in those CSVs as a failed
operation. Run from the repository root, at the commit whose output is the
reference:

    python3 perfbench/record_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)
import workloads  # noqa: E402

#: Operations of the golden seed whose CSVs are recorded.
GOLDEN_OPS = 512


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    csv_path = str(run.OUT / "golden.csv")
    layers = workloads.plain_layers()
    hashes = []
    for (op,) in workloads.first_units("curves", run.GOLDEN_SEED, GOLDEN_OPS):
        if workloads.prepare(op, layers, csv_path)() != 0:
            print(f"operation {len(hashes)} failed: {op}", file=sys.stderr)
            return 1
        hashes.append(hashlib.sha256(Path(csv_path).read_bytes()).hexdigest())
    Path(csv_path).unlink()
    (HERE / "golden_curves.json").write_text(json.dumps(hashes, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
