"""Record golden.json: the committed-seed outputs that drive-scenarios and
packet-dump are checked against. It runs the two workloads' own operations
once, unchecked. Run from the repository root, and only when an answer is
meant to change:

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import qoskit.traces  # noqa: E402
import workloads  # noqa: E402


def _run(name: str, work: Path) -> list:
    plan = workloads.build(name, ROOT, work, workloads.COMMITTED_SEED)
    return [op.run() for op in plan.ops]


def _ok(result):
    code, out = result
    if code != 0:
        raise SystemExit(f"a qoskit command exited with {code}")
    return out


def main() -> None:
    golden = {"drive-scenarios": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        results = _run("drive-scenarios", work)
        for k, name in enumerate(workloads.SCENARIOS):
            _ok(results[2 * k])
            rows = qoskit.traces.parse_log((work / f"{name}.csv").read_bytes())
            golden["drive-scenarios"][name] = {
                "log": workloads.log_fingerprint(rows),
                "analysis": json.loads(_ok(results[2 * k + 1])),
            }

        simulated, _, estimate = _run("packet-dump", work)
        _ok(simulated)
        golden["packet-dump"] = {
            "dump_sha256": workloads.sha256((work / "packets.csv").read_bytes()),
            "jitter": workloads.jitter_fingerprint(estimate),
        }
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
