"""The four benchmark workloads: inputs from a seed, operations, output checks.

A workload is built by ``build(name, root, workdir, seed)`` into a ``Plan``:
its inputs are ready once the plan exists (that is the end of set-up), its
``ops`` are run in order as the timed pass, and each op's ``check`` runs after
the pass and returns a list of problems (empty when the output is right).

``COMMITTED_SEED`` (qoskit's default seed, 1729) selects the seeds the
repository's artefacts were made with: 1729 for ``validate``, the scenario
files' own seeds, 5005 for the sweep (acceptance criterion 5) and 42 for the
README's packet dump. Under it the outputs are compared byte for byte with
``reports/`` and with ``golden.json``. Any other seed derives fresh seeds and
falls back to checks that hold for every seed.

qoskit functions are looked up on their modules at call time, so the traced
run's rebinding (tracing.py) sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

import qoskit.cli
import qoskit.metrics
import qoskit.sim
import qoskit.traces

COMMITTED_SEED = 1729

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Relative tolerance for golden floats of drive-scenarios. Trace synthesis
#: may drift in the 9th significant digit (a vectorised finite-buffer queue
#: sums in another order); anything larger is a changed answer.
DRIVE_REL_TOL = 1e-6

#: Band around the M/M/1/K blocking formula for each capacity-sweep point at
#: one million packets (the acceptance suite uses 5% at rho = 0.8).
BLOCKING_REL_BAND = 0.15


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Plan:
    ops: list[Op]
    #: Packets the pass pushes through its main path; drive-scenarios adds
    #: the offered packets of each log while checking it.
    packets: int = 0


def derived_seed(seed: int, salt: str) -> int:
    digest = hashlib.sha256(f"{seed}:{salt}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def cli(argv: list[str]) -> tuple[int, str]:
    """Run one qoskit command in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qoskit.cli.main(argv)
    return code, out.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _compare(expected, actual, rel_tol: float, path: str = "") -> list[str]:
    """Exact for ints, strings, None and structure; floats within rel_tol."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in expected for p in _compare(expected[k], actual[k], rel_tol, f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in _compare(e, a, rel_tol, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if abs(actual - expected) <= rel_tol * max(abs(expected), abs(actual)) + 1e-12:
            return []
        return [f"{path}: {actual!r} != {expected!r} (rel tol {rel_tol:g})"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


# --- validate-reports -------------------------------------------------------

VALIDATE_ARGS = ["--capacity", "1000", "--rho-grid", "0.2:0.8:0.1",
                 "--packets", "1000000", "--seeds", "5"]
VALIDATE_PACKETS = 7 * 5 * 1_000_000
VALIDATE_FLAVOURS = (("default", "0.1"), ("alltagged", "1.0"))


def _validate_reports(root: Path, work: Path, seed: int) -> Plan:
    committed = seed == COMMITTED_SEED
    ops = []
    for flavour, tagged in VALIDATE_FLAVOURS:
        out = work / flavour
        argv = ["validate", *VALIDATE_ARGS, "--tagged-fraction", tagged,
                "--seed", str(seed), "--out", str(out)]
        reference = {
            suffix: (root / "reports" / f"validation_{flavour}{suffix}").read_bytes()
            for suffix in (".csv", "_model.dat", "_sim.dat")
        }
        ops.append(Op(f"validate {flavour}", lambda argv=argv: cli(argv),
                      lambda result, out=out, ref=reference, flavour=flavour:
                      _check_validate(result, out, ref, flavour, committed)))
    return Plan(ops, packets=len(ops) * VALIDATE_PACKETS)


def _check_validate(result, out: Path, ref: dict, flavour: str, committed: bool) -> list:
    code, _ = result
    produced = {
        ".csv": (out / "validation.csv").read_bytes(),
        "_model.dat": (out / "validation_model.dat").read_bytes(),
        "_sim.dat": (out / "validation_sim.dat").read_bytes(),
    }
    if committed:
        # Both committed reports exceed the 15% band somewhere, so exit 2.
        problems = [] if code == 2 else [f"exit code {code}, committed report says 2"]
        return problems + [f"validation{suffix} differs from reports/"
                           for suffix in produced if produced[suffix] != ref[suffix]]

    problems = [] if code in (0, 2) else [f"exit code {code}"]
    if produced["_model.dat"] != ref["_model.dat"]:
        problems.append("model curve differs from reports/")
    got = produced[".csv"].decode().splitlines()
    want = ref[".csv"].decode().splitlines()
    if [l for l in got if l.startswith("#") and not l.startswith("# base_seed=")] != \
            [l for l in want if l.startswith("#") and not l.startswith("# base_seed=")]:
        problems.append("report metadata differs from reports/ beyond the seed")
    got_rows = [l.split(",") for l in got if not l.startswith("#")]
    want_rows = [l.split(",") for l in want if not l.startswith("#")]
    if [r[:3] for r in got_rows] != [r[:3] for r in want_rows]:
        problems.append("rho/lambda/model columns differ from reports/")
    sim = [float(r[3]) for r in got_rows[1:]]
    stderr = [float(r[4]) for r in got_rows[1:]]
    if not all(math.isfinite(v) and v > 0 for v in sim + stderr):
        problems.append(f"non-positive simulated jitter or stderr: {sim} {stderr}")
    elif flavour == "alltagged":
        # Back-to-back jitter of this queue is exactly 1/C at every load.
        worst = max(abs(v * 1000.0 - 1.0) for v in sim)
        if worst > 0.01:
            problems.append(f"all-tagged jitter off 1/C by {worst:.2%} (> 1%)")
    elif any(b <= a for a, b in zip(sim, sim[1:])):
        problems.append(f"sparse-flow jitter not increasing in load: {sim}")
    return problems


# --- drive-scenarios --------------------------------------------------------

SCENARIOS = ("static_far", "constant_50kmh", "variable_speed")

#: Correlation signs the scenarios must show (acceptance criteria 6-8),
#: as (pair, sign) over the whole log.
DRIVE_SIGNS = {
    "static_far": (("tput_Bps~jitter_ms", -1),),
    "constant_50kmh": (("tput_Bps~jitter_ms", -1), ("jitter_ms~loss_fraction", 1)),
    "variable_speed": (("tput_Bps~jitter_ms", -1), ("jitter_ms~loss_fraction", 1)),
}


def log_fingerprint(rows) -> dict:
    """Counters exactly (digest and sums) and float columns as sums."""
    lost = [r.lost_pkts for r in rows]
    total = [r.total_pkts for r in rows]
    floats = {}
    for column in ("lat_deg", "lon_deg", "dist_m", "speed_kmh", "tput_Bps", "jitter_ms"):
        values = [getattr(r, column) for r in rows]
        floats[f"{column}.sum"] = math.fsum(values)
    floats["jitter_ms.sumsq"] = math.fsum(v * v for v in (r.jitter_ms for r in rows))
    return {
        "counters": {
            "lost_pkts.sha256": sha256(",".join(map(str, lost)).encode()),
            "total_pkts.sha256": sha256(",".join(map(str, total)).encode()),
            "lost_pkts.sum": sum(lost),
            "total_pkts.sum": sum(total),
        },
        "floats": floats,
    }


def _drive_scenarios(root: Path, work: Path, seed: int) -> Plan:
    committed = seed == COMMITTED_SEED
    plan = Plan([])
    for name in SCENARIOS:
        path = root / "scenarios" / f"{name}.scn"
        scenario = qoskit.traces.parse_scenario(path.read_text(encoding="utf-8"))
        log = work / f"{name}.csv"
        seed_args = [] if committed else ["--seed", str(derived_seed(seed, name))]
        synth = ["synth", "--scenario", str(path), "--output", str(log), *seed_args]
        analyze = ["analyze", "--log", str(log), "--by-speed", "--json"]
        plan.ops.append(Op(f"synth {name}", lambda argv=synth: cli(argv),
                           lambda result, name=name, log=log, scenario=scenario:
                           _check_synth(plan, result, log, scenario,
                                        _drive_golden(name) if committed else None)))
        plan.ops.append(Op(f"analyze {name}", lambda argv=analyze: cli(argv),
                           lambda result, name=name, scenario=scenario:
                           _check_analyze(result, name, scenario,
                                          _drive_golden(name) if committed else None)))
    return plan


def _drive_golden(name: str) -> dict:
    return load_golden()["drive-scenarios"][name]


def _check_synth(plan: Plan, result, log: Path, scenario, gold) -> list:
    code, _ = result
    if code != 0:
        return [f"exit code {code}"]
    data = log.read_bytes()
    rows = qoskit.traces.parse_log(data)
    plan.packets += sum(r.total_pkts for r in rows)
    problems = []
    if len(rows) != scenario.duration_s:
        problems.append(f"{len(rows)} rows for a {scenario.duration_s} s scenario")
    if qoskit.traces.write_log(rows) != data:
        problems.append("write_log(parse_log(f)) != f")
    # Every offered packet is lost, delivered, or still queued at the end,
    # and at most the buffer's worth can still be queued.
    delivered = sum(r.tput_Bps for r in rows) / scenario.packet_size_B
    queued = sum(r.total_pkts for r in rows) - sum(r.lost_pkts for r in rows) - delivered
    if not (delivered == int(delivered) and 0 <= queued <= scenario.buffer_pkts):
        problems.append(f"packet accounting broken: {delivered} delivered, {queued} queued")
    if gold is not None:
        got = log_fingerprint(rows)
        problems += _compare(gold["log"]["counters"], got["counters"], 0.0, "counters")
        problems += _compare(gold["log"]["floats"], got["floats"], DRIVE_REL_TOL, "floats")
    return problems


def _check_analyze(result, name: str, scenario, gold) -> list:
    code, out = result
    if code != 0:
        return [f"exit code {code}"]
    payload = json.loads(out)
    problems = []
    if payload["n_rows"] != scenario.duration_s:
        problems.append(f"n_rows {payload['n_rows']} != {scenario.duration_s}")
    for pair, sign in DRIVE_SIGNS[name]:
        corr = payload["correlations"][pair]
        if corr is None or corr["pearson_r"] * sign <= 0:
            problems.append(f"{pair} correlation has the wrong sign: {corr}")
    if gold is not None:
        problems += _compare(gold["analysis"], payload, DRIVE_REL_TOL, "analysis")
    return problems


# --- capacity-sweep ---------------------------------------------------------

SWEEP_LAMBDA = 800.0
SWEEP_BUFFER = 10
SWEEP_PACKETS = 1_000_000
SWEEP_GRID = [round(0.6 + 0.1 * k, 1) for k in range(9)]
SWEEP_COMMITTED_SEED = 5005
#: Budgets for the README's two planning inversions; the load budgets
#: straddle 1/C, so both constrained and unconstrained answers occur.
INVERT_LOAD_BUDGETS = [0.00099 + 0.00001 * k for k in range(24)]
INVERT_CAPACITY_BUDGETS = [0.0002 * 1.2 ** k for k in range(24)]
#: The inversions stop once the jitter matches the budget to 1e-9 relative,
#: from either side (the bound tests/test_model.py states), so "within
#: budget" means at most budget * (1 + 1e-9).
INVERT_REL_TOL = 1e-9


def _capacity_sweep(root: Path, work: Path, seed: int) -> Plan:
    base = qoskit.sim.SimConfig(
        1000.0, SWEEP_LAMBDA, buffer_capacity=SWEEP_BUFFER, horizon_packets=SWEEP_PACKETS,
        seed=SWEEP_COMMITTED_SEED if seed == COMMITTED_SEED else derived_seed(seed, "sweep"),
    )
    ops = [Op("simulate_sweep capacity",
              lambda: qoskit.sim.simulate_sweep(base, SWEEP_GRID, 1, vary="capacity"),
              _check_sweep)]
    for budget in INVERT_LOAD_BUDGETS:
        argv = ["invert", "--capacity", "1000", "--budget", repr(budget), "--json"]
        ops.append(Op(f"invert load {budget!r}", lambda argv=argv: cli(argv),
                      lambda result, b=budget: _check_invert(result, b)))
    for budget in INVERT_CAPACITY_BUDGETS:
        argv = ["invert", "--lambda", "600", "--budget", repr(budget), "--json"]
        ops.append(Op(f"invert capacity {budget!r}", lambda argv=argv: cli(argv),
                      lambda result, b=budget: _check_invert(result, b)))
    return Plan(ops, packets=len(SWEEP_GRID) * SWEEP_PACKETS)


def mm1k_blocking(rho: float, k: int) -> float:
    if rho == 1.0:
        return 1.0 / (k + 1)
    return (1.0 - rho) * rho ** k / (1.0 - rho ** (k + 1))


def _check_sweep(summaries) -> list:
    if len(summaries) != len(SWEEP_GRID):
        return [f"{len(summaries)} summaries for {len(SWEEP_GRID)} grid points"]
    problems = []
    for rho, s in zip(SWEEP_GRID, summaries):
        if s.loss_B != (s.offered_count - s.delivered_count) / s.offered_count:
            problems.append(f"rho {rho}: counter loss identity broken")
        rate_form = (s.offered_lambda - s.throughput_X) / s.offered_lambda
        if abs(rate_form - s.loss_B) > 1e-12 * s.loss_B:
            problems.append(f"rho {rho}: rate-form loss {rate_form!r} != {s.loss_B!r}")
        oracle = mm1k_blocking(SWEEP_LAMBDA / s.config.capacity_C, SWEEP_BUFFER)
        if abs(s.loss_B - oracle) > BLOCKING_REL_BAND * oracle:
            problems.append(f"rho {rho}: loss {s.loss_B:.5f} vs M/M/1/K {oracle:.5f}")
    tput = [s.throughput_X for s in summaries]
    jitter = [s.empirical_jitter_J for s in summaries]
    loss = [s.loss_B for s in summaries]
    s_tj = stats.spearmanr(tput, jitter).statistic
    s_lj = stats.spearmanr(loss, jitter).statistic
    if not (s_tj <= -0.9 and s_lj >= 0.9):
        problems.append(f"spearman(tput, jitter) {s_tj:+.3f}, spearman(loss, jitter) {s_lj:+.3f}")
    return problems


def _check_invert(result, budget: float) -> list:
    code, out = result
    if code != 0:
        return [f"exit code {code}"]
    payload = json.loads(out)
    problems = []
    if not payload["jitter_at_solution_seconds"] <= budget * (1.0 + INVERT_REL_TOL):
        problems.append(f"jitter {payload['jitter_at_solution_seconds']!r} over budget {budget!r}")
    if not 0.0 < payload["load_rho"] < 1.0:
        problems.append(f"load {payload['load_rho']!r} outside (0, 1)")
    return problems


# --- packet-dump ------------------------------------------------------------

DUMP_PACKETS = 1_000_000
DUMP_COMMITTED_SEED = 42
DUMP_ARRAYS = ("arrival_times", "service_times", "departure_times", "sojourn_times",
               "tagged", "dropped")


def _packet_dump(root: Path, work: Path, seed: int) -> Plan:
    committed = seed == COMMITTED_SEED
    dump_seed = DUMP_COMMITTED_SEED if committed else derived_seed(seed, "dump")
    path = work / "packets.csv"
    argv = ["simulate", "--capacity", "1000", "--rho", "0.5", "--packets", str(DUMP_PACKETS),
            "--seed", str(dump_seed), "--trace-out", str(path)]
    state: dict = {}

    def read():
        state["log"] = qoskit.sim.read_packet_trace(path)
        return state["log"]

    def jitter():
        log = state["log"]
        return qoskit.metrics.mean_abs_jitter(log.sojourn_times[log.tagged & ~log.dropped])

    def check_simulate(result):
        code, out = result
        if code != 0:
            return [f"exit code {code}"]
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        problems = []
        if fields["offered_count"] != fields["delivered_count"] or float(fields["loss_B"]) != 0:
            problems.append(f"unbounded queue lost packets: {fields}")
        if committed and sha256(path.read_bytes()) != load_golden()["packet-dump"]["dump_sha256"]:
            problems.append("packet dump bytes differ from the recorded dump")
        return problems

    def check_read(log):
        config = qoskit.sim.SimConfig(1000.0, 500.0, horizon_packets=DUMP_PACKETS, seed=dump_seed)
        state["reference"], _ = qoskit.sim.simulate_run(config)
        return [f"{name} read back differs from the simulated PacketLog"
                for name in DUMP_ARRAYS
                if getattr(log, name).dtype != getattr(state["reference"], name).dtype
                or getattr(log, name).tobytes() != getattr(state["reference"], name).tobytes()]

    def check_jitter(estimate):
        ref = state["reference"]
        sojourns = ref.sojourn_times[ref.tagged & ~ref.dropped]
        problems = []
        if estimate.n_samples != sojourns.size - 1:
            problems.append(f"{estimate.n_samples} samples for {sojourns.size} tagged packets")
        direct = float(np.abs(np.diff(sojourns)).mean())
        if not math.isclose(estimate.mean_abs_ipdv, direct, rel_tol=1e-12):
            problems.append(f"mean |ipdv| {estimate.mean_abs_ipdv!r} != direct {direct!r}")
        if not (estimate.ci95_halfwidth is not None and 0 < estimate.ci95_halfwidth < math.inf):
            problems.append(f"bootstrap half-width {estimate.ci95_halfwidth!r}")
        if committed:
            problems += _compare(load_golden()["packet-dump"]["jitter"],
                                 jitter_fingerprint(estimate), 1e-9, "jitter")
        return problems

    return Plan([Op("simulate --trace-out", lambda: cli(argv), check_simulate),
                 Op("read_packet_trace", read, check_read),
                 Op("mean_abs_jitter", jitter, check_jitter)],
                packets=DUMP_PACKETS)


def jitter_fingerprint(estimate) -> dict:
    return {"mean_abs_ipdv": estimate.mean_abs_ipdv, "n_samples": estimate.n_samples,
            "ci95_halfwidth": estimate.ci95_halfwidth}


WORKLOADS = {
    "validate-reports": _validate_reports,
    "drive-scenarios": _drive_scenarios,
    "capacity-sweep": _capacity_sweep,
    "packet-dump": _packet_dump,
}


def build(name: str, root: Path, work: Path, seed: int) -> Plan:
    os.makedirs(work, exist_ok=True)
    return WORKLOADS[name](root, work, seed)
