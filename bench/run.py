"""Benchmark of the catwalk command line; see bench/README.md.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {counting,expansion,paths} --seed N \\
        --seconds S --trace {0,1}

Prints the run's record as one JSON line, then the result as the last line:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under ``--trace 1``.
Exits 2 without a result when the catwalk source is not beside it.
"""

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("counting", "expansion", "paths")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int, choices=range(1, 61), metavar="1..60")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not (SRC / "catwalk" / "cli.py").is_file():
        print(f"error: no catwalk source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    record, result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
