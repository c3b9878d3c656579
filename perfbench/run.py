"""qoskit's benchmark: one workload, closed loop, one fresh process per pass.

Run from the root of a qoskit checkout:

    python3 perfbench/run.py --workload validate-reports --seed 1729 --seconds 20 --trace 0

Passes run one after another, each in a fresh ``worker.py`` process, for
about ``--seconds`` (at least MIN_PASSES passes). With ``--trace 0``
every pass is untraced and the run reports the end-to-end metrics of
BENCHMARK.json as medians over passes. With ``--trace 1`` traced and untraced
passes alternate; the run reports the per-layer metrics as medians over the
traced passes, and ``trace.overhead_frac`` compares their pkts_per_s with the
untraced passes'.

The last stdout line is the result object; the lines before it name every
metric with its unit, fail_frac included. A full record (every pass, the
spans of the first traced pass, machine and version facts) is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("validate-reports", "drive-scenarios", "capacity-sweep", "packet-dump")
COMMITTED_SEED = 1729
MIN_PASSES = 3
#: No pass may run longer than this; a run never starts a pass that could
#: end after RUN_LIMIT_S.
PASS_TIMEOUT_S = 100.0
RUN_LIMIT_S = 170.0

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench"

END_TO_END_UNITS = {"pkts_per_s": "packets/s", "cpu_s": "s", "peak_rss_mb": "MiB",
                    "setup_s": "s"}


def _layer_units() -> dict[str, str]:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _one_pass(workload: str, seed: int, traced: bool, index: int) -> dict:
    workdir = OUT / "work" / f"{os.getpid()}-{index}"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced)), "--workdir", str(workdir)]
    spawned = time.monotonic()
    try:
        done = subprocess.run([*argv, "--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        return {"traced": traced, "crashed": f"pass exceeded {PASS_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode != 0 or not lines:
            raise ValueError(f"exit {done.returncode}")
        result = json.loads(lines[-1])
    except ValueError as exc:
        shutil.rmtree(workdir, ignore_errors=True)
        return {"traced": traced, "crashed": f"{exc}: {done.stderr.strip()[-2000:]}"}
    result["traced"] = traced
    result["wall_s"] = time.monotonic() - spawned
    return result


def _median(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=COMMITTED_SEED,
                        help=f"workload seed; {COMMITTED_SEED} selects the committed seeds")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/qoskit/cli.py", "reports", "scenarios") if not (ROOT / p).exists()]
    if missing:
        sys.stderr.write(f"error: run from a qoskit checkout; missing {', '.join(missing)}\n")
        return 2

    started = time.monotonic()
    load_before = os.getloadavg()
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(_one_pass(args.workload, args.seed, traced, len(passes)))
        elapsed = time.monotonic() - started
        walls = [p.get("wall_s", PASS_TIMEOUT_S) for p in passes]
        if elapsed + max(walls) > RUN_LIMIT_S:
            break
        # Start another pass only if it should end within --seconds.
        if (len(passes) >= MIN_PASSES + args.trace
                and elapsed + statistics.median(walls) > args.seconds):
            break
    shutil.rmtree(OUT / "work", ignore_errors=True)

    good = [p for p in passes if "crashed" not in p]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    if not plain or (args.trace and not traced):
        for p in passes:
            sys.stderr.write(f"pass failed: {p.get('crashed') or p.get('problems')}\n")
        return 1

    attempted = sum(p.get("attempted", 1) for p in passes)
    failed = sum(p["failed"] if "failed" in p else 1 for p in passes)

    def pkts_per_s(p):
        return p["packets"] / p["pass_s"]

    if args.trace:
        for p in traced:
            p["layers"]["trace.pass_s"] = p["pass_s"]
        values = {name: _median(traced, lambda p, n=name: p["layers"][n])
                  for name in traced[0]["layers"]}
        values["trace.overhead_frac"] = _median(plain, pkts_per_s) / _median(traced, pkts_per_s) - 1
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in _layer_units().items()}
    else:
        metrics = {
            "pkts_per_s": _median(plain, pkts_per_s),
            "cpu_s": _median(plain, lambda p: p["cpu_s"]),
            "peak_rss_mb": _median(plain, lambda p: p["peak_rss_mb"]),
            "setup_s": _median(plain, lambda p: p["setup_s"]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed, "metrics": metrics,
        "env": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "platform": platform.platform(), **good[0]["versions"],
                "commit": _commit(), "src_sha256": _src_digest(),
                "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "spans": traced[0]["spans"] if traced else None,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(OUT / "results" / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for key, metric in metrics.items():
        print(f"{args.workload}  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload}  fail_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations, {len(passes)} passes)")
    for p in passes:
        for problem in p.get("problems", [])[:5] + ([p["crashed"]] if "crashed" in p else []):
            print(f"# problem: {problem}")
    print("# env " + json.dumps(record["env"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
