"""Steady-state benchmark of the monitor, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload catalog-steady --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same workload with spans recorded around each layer's calls and prints
the per-layer metrics (spans are written to ``.perfbench_out/``).  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The workloads, and why each was chosen, are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

import metrics
import spans

WORKLOADS = {
    "catalog-steady": "catalog",
    "keyed-flows": "flows",
    "serve-l2": "serve",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # The program is built from the checkout's own sources.
    src = os.path.abspath("src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(args.seed, args.seconds, bool(args.trace))

    if result.get("logs"):
        path = os.path.join(".perfbench_out",
                            f"spans-{args.workload}-{args.seed}.jsonl")
        count = spans.write(result["logs"], path)
        print(f"# {count} spans written to {path}")
    if result.get("note"):
        print(f"# {result['note']}")
    for name, value in sorted(result.get("harness", {}).items()):
        print(f"# {name} = {value:.6g}")
    for name, value in sorted(result["values"].items()):
        print(f"# {name} = {value:.6g}")
    print(metrics.result_line(bool(args.trace), result["values"],
                              result["attempted"], result["failed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
