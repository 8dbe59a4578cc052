"""Benchmark entry point.

    python3 benchmarks/run.py --workload attribute --seed 1 --seconds 25 --trace 0

Runs one workload of ``workloads.WORKLOADS`` in this single process,
with BLAS held to one thread, against the package source in ``src/`` of
the checkout that holds this file.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it (``report {...}``) carries the machine
facts, per-method throughput, check failures and, for ``--trace 1``, the
per-span table.  Exits 2 without a result when the package source is
missing.  See README.md beside this file for the workloads and metrics.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "attribute", "zoo", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "deltalift" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    # single-threaded BLAS; must be set before numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import harness

    result, report = harness.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), ROOT)
    harness.print_result(result, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
