"""The repository's benchmark of record.

Usage (from the repository root)::

    python3 kvbench/run.py --workload ycsb-b-sized --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
per-round details (sample counts, every round's wall times, a digest of
the virtual-time results).  See
kvbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _fail(message: str, code: int = 2) -> None:
    print("kvbench: %s" % message, file=sys.stderr)
    sys.exit(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail("no program sources under %s/src; nothing to measure" % ROOT)
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from kvbench.report import build_report
    from kvbench.workloads import WORKLOADS, generate

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        _fail("unknown workload %r (have: %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))))
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    inputs = generate(spec, args.seed)
    details, result = build_report(
        inputs, args.seconds, bool(args.trace), perf_counter()
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
