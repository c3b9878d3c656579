"""One pass of one workload in a fresh process; run.py starts one per pass.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --spawned T

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` runs from process start until ``qoskit.cli`` is
imported and the workload's inputs are ready. The last stdout line is one
JSON object with the pass's measurements, its op count and its problems.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    # Measure the checkout's source tree, never an installed copy.
    sys.path.insert(0, str(SRC))
    import qoskit.cli
    if Path(qoskit.cli.__file__).resolve().parent != SRC / "qoskit":
        raise SystemExit(f"qoskit imported from {qoskit.cli.__file__}, not {SRC}")
    import workloads

    work = Path(args.workdir)
    try:
        plan = workloads.build(args.workload, ROOT, work, args.seed)
        setup_s = time.monotonic() - args.spawned

        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)

        outcomes = []
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for op_id, op in enumerate(plan.ops):
            if tracer is not None:
                tracer.op_id = op_id
            try:
                outcomes.append((True, op.run()))
            except Exception:
                outcomes.append((False, traceback.format_exc(limit=3)))
        pass_s = time.perf_counter() - t0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)

        result = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "cpu_s": _cpu_s(usage1) - _cpu_s(usage0),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        }
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer.spans)
            result["layers"]["sim.simulate_run.peak_alloc_mb"] = tracer.peak_alloc_mb
            # A copy: the checks below may call wrapped functions too.
            result["spans"] = list(tracer.spans)

        problems = []
        failed = 0
        for op, (ok, value) in zip(plan.ops, outcomes):
            if ok:
                try:
                    found = op.check(value)
                except Exception:
                    found = [f"check raised: {traceback.format_exc(limit=3)}"]
            else:
                found = [f"raised: {value}"]
            failed += bool(found)
            problems += [f"{op.name}: {p}" for p in found]
        result.update(packets=plan.packets, attempted=len(plan.ops), failed=failed,
                      problems=problems)
        import numpy
        import scipy
        result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
