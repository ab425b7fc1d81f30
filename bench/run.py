"""Benchmark entry point.

    python3 bench/run.py --workload field_d2 --seed 0 --seconds 25 --trace 0

Runs one workload listed in BENCHMARK.json against the package sources in
``src/`` of the checkout this file sits in, in this one process.  Standard
output gets a detail record (environment, iteration times, failures and,
when tracing, absent targets and raw totals) and then, as its last line,
the result: ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
The detail record, and the spans of a traced run, are also written under
``.bench_out/``.  Without the package sources it exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="heatcurrents benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "heatcurrents" / "__init__.py").is_file():
        print(f"error: no package sources under {src}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    # Imported only now: BLAS reads its thread count when numpy loads.
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    detail, line, rec = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, BLAS_THREADS
    )
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    if rec is not None:
        rec.save(stem.with_suffix(".spans.npz"))
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
