"""Command-line contract: values, exit codes, reproducibility, file formats."""

import argparse
import concurrent.futures
import dataclasses
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qoskit import cli, sim, traces
from qoskit.cli import main
from qoskit.sim import SimConfig, child_seed, simulate_run
from qoskit.traces import LOG_HEADER, QosLogRow, parse_log, write_log


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModelCommand:
    def test_default_variant_value(self, capsys):
        code, out, _ = run_cli(capsys, "model", "--capacity", "1000", "--rho", "0.5", "--json")
        assert code == 0
        payload = json.loads(out)
        oracle = (1 - math.exp(-1) - math.exp(-2)) / 500.0
        assert payload["jitter_seconds"] == pytest.approx(oracle, rel=1e-12)
        assert payload["jitter_ms"] == pytest.approx(oracle * 1e3, rel=1e-12)
        assert payload["formula_variant"] == "nonneg-v1"

    def test_lambda_flag_equivalent(self, capsys):
        _, out_rho, _ = run_cli(capsys, "model", "--capacity", "1000", "--rho", "0.5", "--json")
        _, out_lam, _ = run_cli(capsys, "model", "--capacity", "1000", "--lambda", "500", "--json")
        assert out_rho == out_lam

    def test_saturated_load_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "model", "--capacity", "1000", "--rho", "1.0")
        assert code == 1
        assert err == "error: load must be a finite number > 0 and < 1, got 1.0\n"

    @pytest.mark.parametrize("rho", ["-1", "0"])
    def test_bad_load_named_as_typed(self, capsys, rho):
        """The load used to be checked only as the arrival rate it forms
        (``arrival rate must be ... got -1000.0``), a value never typed."""
        code, out, err = run_cli(capsys, "model", "--capacity", "1000", "--rho", rho)
        assert code == 1 and out == ""
        assert err == f"error: load must be a finite number > 0, got {float(rho)!r}\n"

    def test_printed_literal_warns_and_prints_negative(self, capsys):
        code, out, err = run_cli(
            capsys, "model", "--capacity", "1000", "--rho", "0.5",
            "--variant", "printed-literal", "--json",
        )
        assert code == 0
        assert json.loads(out)["jitter_seconds"] < 0
        assert "WARNING" in err


    @pytest.mark.parametrize("argv, line", [
        (("model", "--capacity", "1e-320", "--rho", "0.5"),
         "error: the predicted jitter at C = 1e-320, rho = 0.5 overflows in ms\n"),
        (("invert", "--lambda", "1e-320", "--budget", "1"),
         "error: budget 1.0 s is below the attainable minimum at arrival rate 1e-320, "
         "which passes the largest double\n"),
        (("model", "--capacity", "1000", "--rho", "1.5"),
         "error: load must be a finite number > 0 and < 1, got 1.5\n"),
        (("simulate", "--capacity", "1000", "--rho", "1.2"),
         "error: load must be a finite number > 0 and < 1, got 1.2\n"),
    ], ids=["model", "invert", "model-unstable", "simulate-unstable"])
    def test_prediction_beyond_the_largest_float_rejected(self, capsys, argv, line):
        """C - lambda of 5e-321 or less: the prediction used to print as
        null, the spelling kept for an undefined estimate, and the inversion
        named an attainable minimum of inf s, then a capacity never typed.
        The model then named lambda = 5e-321, formed from the typed load,
        and an unstable typed load was named as the rate it forms
        (``arrival rate 1500.0 >= capacity 1000.0``); no such run has a
        finite prediction, and each error names only the values typed."""
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == line

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_milliseconds_beyond_the_largest_float_rejected(self, capsys, json_flag):
        """At C = 1e-306 the prediction, 9.9e305 s, is finite but not in
        milliseconds: ``jitter_ms`` used to print as null, the spelling kept
        for an undefined estimate."""
        code, out, err = run_cli(capsys, "model", "--capacity", "1e-306", "--rho", "0.5",
                                 *json_flag)
        assert code == 1 and out == ""
        assert err == "error: the predicted jitter at C = 1e-306, rho = 0.5 overflows in ms\n"

    def test_tiny_capacity_keeps_a_finite_prediction(self, capsys):
        code, out, _ = run_cli(capsys, "model", "--capacity", "1e-300", "--rho", "0.5", "--json")
        assert code == 0
        assert json.loads(out)["jitter_seconds"] == pytest.approx(9.9357055118389e299, rel=1e-12)


class TestInvertCommand:
    def test_forward_then_invert_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "model", "--capacity", "1000", "--rho", "0.8", "--json")
        budget = json.loads(out)["jitter_seconds"]
        code, out, _ = run_cli(
            capsys, "invert", "--capacity", "1000", "--budget", repr(budget), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["constrained"] is True
        assert payload["arrival_rate_lambda_max"] == pytest.approx(800.0, rel=1e-6)

    def test_huge_budget_unconstrained_notice(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--capacity", "1000", "--budget", "10")
        assert code == 0
        assert "unconstrained" in out

    def test_infeasible_budget_reports_minimum(self, capsys):
        code, _, err = run_cli(capsys, "invert", "--capacity", "1000", "--budget", "1e-9")
        assert code == 1
        assert "minimum" in err

    def test_capacity_inversion(self, capsys):
        _, out, _ = run_cli(capsys, "model", "--capacity", "1000", "--lambda", "600", "--json")
        budget = json.loads(out)["jitter_seconds"]
        code, out, _ = run_cli(
            capsys, "invert", "--lambda", "600", "--budget", repr(budget), "--json"
        )
        assert code == 0
        assert json.loads(out)["capacity_C_min"] == pytest.approx(1000.0, rel=1e-4)

    @pytest.mark.parametrize("argv, answer", [
        (("--lambda", "1e308", "--budget", "1"), ("capacity_C_min", 1.000001e308)),
        (("--capacity", "1e308", "--budget", "1"), ("arrival_rate_lambda_max", 9.99999e307)),
    ], ids=["capacity", "load"])
    def test_unconstrained_at_the_largest_double(self, capsys, argv, answer):
        """The search brackets used to leave the range of a double and
        name a value of inf that nobody typed."""
        code, out, _ = run_cli(capsys, "invert", *argv, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload[answer[0]] == answer[1] and payload["constrained"] is False

    @pytest.mark.parametrize("argv, message", [
        (("--capacity", "5e-324", "--budget", "1"),
         "budget 1.0 s is below the attainable minimum at capacity 5e-324, "
         "which passes the largest double"),
        (("--lambda", "5e-324", "--budget", "1"),
         "budget 1.0 s is below the attainable minimum at arrival rate 5e-324, "
         "which passes the largest double"),
        (("--lambda", "1e-320", "--budget", "1"),
         "budget 1.0 s is below the attainable minimum at arrival rate 1e-320, "
         "which passes the largest double"),
        (("--lambda", "1e308", "--budget", "1e-313"),
         "the smallest capacity for arrival rate 1e+308 within budget 1e-313 s "
         "passes the largest double"),
    ], ids=["capacity-tiny", "lambda-tiny", "lambda-subnormal", "capacity-past-max"])
    def test_range_end_errors_name_only_typed_values(self, capsys, argv, message):
        """These used to say ``arrival rate is zero`` or name a capacity or
        load found by the search, values nobody typed."""
        code, out, err = run_cli(capsys, "invert", *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_both_or_neither_axis_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "invert", "--budget", "1e-3")
        assert code == 1
        code, _, _ = run_cli(
            capsys, "invert", "--capacity", "1000", "--lambda", "5", "--budget", "1e-3"
        )
        assert code == 1


class TestSimulateCommand:
    def test_fixed_seed_rerun_identical(self, capsys, tmp_path):
        args = (
            "simulate", "--capacity", "1000", "--rho", "0.5", "--packets", "20000",
            "--seed", "5", "--json",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_write_error_mid_dump_exits_1(self, capsys, tmp_path, monkeypatch):
        """The disk fills after a few chunks: the command names the file,
        exits 1, and the writer's worker thread has ended."""
        path = tmp_path / "dump.csv"
        writes = []

        class FillingFile(io.FileIO):
            def write(self, data):
                writes.append(len(data))
                if len(writes) > 5:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
                return super().write(data)

        monkeypatch.setattr(sim, "open", lambda name, mode: FillingFile(name, "w"), raising=False)
        monkeypatch.setattr(sim, "_DUMP_WRITE_PACKETS", 100)
        before = threading.active_count()
        code, out, err = run_cli(capsys, "simulate", "--capacity", "1000", "--rho", "0.5",
                                 "--packets", "2000", "--trace-out", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {str(path)!r}: {os.strerror(errno.ENOSPC)}\n"
        assert len(writes) == 6 and threading.active_count() == before

    def test_trace_out_is_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (p1, p2):
            code, _, _ = run_cli(
                capsys, "simulate", "--capacity", "1000", "--rho", "0.5",
                "--packets", "2000", "--seed", "5", "--trace-out", str(path),
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == (
            "index,flow,arrival_s,service_s,departure_s,sojourn_s,dropped"
        )

    def test_mm1_sojourn_through_cli(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--capacity", "1000", "--rho", "0.5",
            "--packets", "200000", "--seed", "3", "--json",
        )
        assert code == 0
        assert json.loads(out)["mean_sojourn_s"] == pytest.approx(2e-3, rel=0.02)

    def test_finite_buffer_loss_through_cli(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--capacity", "1000", "--rho", "0.8",
            "--buffer", "10", "--packets", "200000", "--seed", "3", "--json",
        )
        assert code == 0
        oracle = 0.2 * 0.8**10 / (1 - 0.8**11)
        assert json.loads(out)["loss_B"] == pytest.approx(oracle, rel=0.05)

    def test_json_writes_undefined_jitter_as_null(self, capsys):
        """Too few tagged packets for a pair: the estimate is undefined, and
        JSON has no NaN, so it is null."""
        code, out, _ = run_cli(
            capsys, "simulate", "--capacity", "1000", "--rho", "0.5", "--packets", "20",
            "--tagged-fraction", "0.05", "--json",
        )
        assert code == 0
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"bare {name}"))
        assert payload["empirical_jitter_J_s"] is None
        assert payload["n_jitter_samples"] == 0

    @pytest.mark.parametrize(
        "argv, undefined",
        [
            (["--rho", "0.5", "--packets", "20", "--tagged-fraction", "0.05"],
             ["empirical_jitter_J_s"]),
            (["--rho", "100", "--buffer", "1", "--packets", "10", "--warmup", "0.45",
              "--seed", "3"], ["mean_sojourn_s", "empirical_jitter_J_s"]),
        ],
        ids=["no-tagged-pair", "nothing-delivered"],
    )
    def test_text_writes_undefined_estimates_as_null(self, capsys, argv, undefined):
        """The text form maps undefined estimates the way --json does."""
        code, out, _ = run_cli(capsys, "simulate", "--capacity", "1000", *argv)
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        assert [key for key, value in fields.items() if value == "null"] == undefined
        assert "nan" not in out
        _, out_json, _ = run_cli(capsys, "simulate", "--capacity", "1000", *argv, "--json")
        payload = json.loads(out_json)
        assert [key for key, value in payload.items() if value is None] == undefined

    @pytest.mark.parametrize("argv", [
        ["--rho", "0.8"],
        ["--rho", "0.8", "--tagged-fraction", "1"],
        ["--buffer", "3", "--rho", "1.2"],
        ["--buffer", "3", "--rho", "1.2", "--tagged-fraction", "1"],
        ["--buffer", "100", "--rho", "0.9"],
        ["--buffer", "100", "--rho", "0.9", "--tagged-fraction", "1"],
        ["--rho", "0.8", "--service", "deterministic", "--warmup", "0"],
    ])
    def test_trace_out_changes_no_output(self, capsys, tmp_path, argv):
        """Without --trace-out no packet log is built; the printed
        summary is byte for byte the one of the logged run."""
        args = ["simulate", "--capacity", "1000", "--packets", "40000", "--seed", "8", *argv]
        for json_flag in ([], ["--json"]):
            code, out, _ = run_cli(capsys, *args, *json_flag)
            code_logged, out_logged, _ = run_cli(
                capsys, *args, *json_flag, "--trace-out", str(tmp_path / "packets.csv"))
            assert code == code_logged == 0
            assert out == out_logged

    def test_tiny_capacity_near_saturation_has_finite_means(self, capsys):
        """About 9e5 sojourns near 1e302 sum past the double range; the
        mean is finite, and no overflow warning is printed."""
        args = ["simulate", "--capacity", "1e-300", "--rho", "0.9999999",
                "--packets", "1000000", "--json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, *args)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert 1e301 < payload["mean_sojourn_s"] < math.inf
        assert 0 < payload["empirical_jitter_J_s"] < math.inf

    @pytest.mark.parametrize("argv, message", [
        (("--rho", "100", "--buffer", "500"), "a departure time passes the largest double"),
        (("--rho", "0.99"), "times must be finite and service times non-negative"),
    ], ids=["departures", "arrivals"])
    def test_times_past_the_largest_double_rejected(self, capsys, argv, message):
        """At C = 1e-306 the work of 1,000 packets passes the largest double.
        The finite buffer used to print null means from infinite departures
        with three overflow warnings, and the unbounded run warned of the
        arrivals' overflow before its error."""
        code, out, err = run_cli(capsys, "simulate", "--capacity", "1e-306", *argv,
                                 "--packets", "1000")
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_rates_past_the_largest_double_rejected(self, capsys, tmp_path):
        """Two packets at 9e307 per second span less than 1 / 1.8e308 s, so
        the measured rates pass the largest double. They used to print as
        null, the spelling kept for an undefined estimate, after the dump
        was written. The simulator refuses the run, naming its horizon."""
        dump = tmp_path / "dump.csv"
        code, out, err = run_cli(capsys, "simulate", "--capacity", "1e308", "--rho", "0.9",
                                 "--packets", "2", "--warmup", "0", "--trace-out", str(dump),
                                 "--json")
        assert code == 1 and out == ""
        assert err == "error: the measured packet rates over 2 packets pass the largest double\n"
        assert not dump.exists()

    def test_unstable_config_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--capacity", "1000", "--rho", "1.1", "--packets", "10"
        )
        assert code == 1
        assert err == "error: load must be a finite number > 0 and < 1, got 1.1\n"
        code, _, err = run_cli(
            capsys, "simulate", "--capacity", "1000", "--lambda", "1100", "--packets", "10"
        )
        assert code == 1
        assert err == ("error: arrival rate 1100.0 >= capacity 1000.0: "
                       "an unbounded queue is unstable\n")

    @pytest.mark.parametrize("rho", ["nan", "inf", "-0.5", "0"])
    def test_bad_load_named_as_typed(self, capsys, rho):
        """The load used to be checked only as the arrival rate it forms
        (``arrival rate must be ... got nan``), a value never typed."""
        code, out, err = run_cli(capsys, "simulate", "--capacity", "1000", "--rho", rho,
                                 "--buffer", "10", "--packets", "10")
        assert code == 1 and out == ""
        assert err == f"error: load must be a finite number > 0, got {float(rho)!r}\n"

    @pytest.mark.parametrize("command", [("model",), ("simulate", "--buffer", "5")])
    def test_overflowing_arrival_rate_named_as_typed(self, capsys, command):
        """rho * C beyond the largest float used to be reported as an
        arrival rate of inf, a value never typed."""
        code, out, err = run_cli(capsys, *command, "--capacity", "1e10", "--rho", "1e300")
        assert code == 1 and out == ""
        assert err == ("error: load 1e+300 times capacity 10000000000.0 overflows "
                       "the arrival rate\n")
        assert "inf" not in err

    @pytest.mark.parametrize("argv, formed", [
        (("model", "--capacity", "5e-324", "--rho", "0.5"), "load 0.5 times capacity 5e-324"),
        (("simulate", "--capacity", "1e-300", "--rho", "1e-30", "--packets", "10"),
         "load 1e-30 times capacity 1e-300"),
        (("validate", "--capacity", "5e-324", "--rho-grid", "0.5", "--packets", "10",
          "--seeds", "1"), "rho=0.5 (grid index 0, seed index 0): load 0.5 times capacity 5e-324"),
    ], ids=["model", "simulate", "validate"])
    def test_underflowing_arrival_rate_named_as_typed(self, capsys, tmp_path, argv, formed):
        """rho * C below the smallest double used to be reported as an
        arrival rate of 0 (``arrival rate is zero``, ``got 0.0``)."""
        if argv[0] == "validate":
            argv += ("--out", str(tmp_path))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {formed} underflows the arrival rate\n"

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_rejected(self, capsys, seed):
        """Both seeds used to run another seed's stream (2^64 - 1 and 0)
        while printing their own."""
        code, out, err = run_cli(capsys, "simulate", "--capacity", "1000", "--rho", "0.5",
                                 "--packets", "10", "--seed", seed)
        assert code == 1 and out == ""
        assert "seed must be" in err


class TestValidateCommand:
    def test_single_point_consistent_with_model_and_simulate(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "validate", "--capacity", "1000", "--rho-grid", "0.5",
            "--packets", "20000", "--seeds", "1", "--seed", "77",
            "--out", str(tmp_path),
        )
        assert code == 2  # the model does not track sparse-tagged pairs this closely
        lines = (tmp_path / "validation.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        header, row = data[0], data[1].split(",")
        assert header == "rho,lambda,J_model_s,J_sim_mean_s,J_sim_stderr_s,relative_error"

        _, out, _ = run_cli(capsys, "model", "--capacity", "1000", "--rho", "0.5", "--json")
        assert float(row[2]) == pytest.approx(json.loads(out)["jitter_seconds"], rel=1e-11)

        cfg = SimConfig(1000.0, 500.0, horizon_packets=20_000, seed=child_seed(77, 0, 0))
        _, summary = simulate_run(cfg)
        assert float(row[3]) == pytest.approx(summary.empirical_jitter_J, rel=1e-11)
        assert row[4] == ""  # single seed: stderr undefined

    def test_same_files_on_one_and_two_workers(self, capsys, tmp_path, monkeypatch):
        """The sweep's worker count changes none of the three files."""
        sizes = []
        executor = concurrent.futures.ThreadPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            lambda workers, **kw: sizes.append(workers) or executor(workers, **kw))
        written = []
        for cores in (1, 2):
            monkeypatch.setattr(sim, "_usable_cores", lambda n=cores: n)
            out = tmp_path / f"cores{cores}"
            code, _, _ = run_cli(
                capsys, "validate", "--capacity", "1000", "--rho-grid", "0.2:0.8:0.3",
                "--packets", "40000", "--seeds", "3", "--tagged-fraction", "0.5",
                "--out", str(out),
            )
            assert code in (0, 2)
            written.append({name: (out / name).read_bytes() for name in
                            ("validation.csv", "validation_model.dat", "validation_sim.dat")})
        assert sizes == [1, 2]
        assert written[0] == written[1]

    def test_report_written_even_when_failing(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "validate", "--capacity", "1000", "--rho-grid", "0.5,0.6",
            "--packets", "20000", "--seeds", "2", "--out", str(tmp_path),
        )
        assert code == 2
        assert (tmp_path / "validation.csv").exists()
        assert "threshold" in out

    def test_loose_threshold_passes(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "validate", "--capacity", "1000", "--rho-grid", "0.5",
            "--packets", "20000", "--seeds", "1", "--threshold", "0.9",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "all points within" in out

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1"])
    def test_bad_threshold_rejected(self, capsys, tmp_path, threshold):
        code, _, err = run_cli(
            capsys, "validate", "--capacity", "1000", "--rho-grid", "0.5",
            "--packets", "20000", "--seeds", "1", "--threshold", threshold,
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "--threshold" in err
        assert not (tmp_path / "validation.csv").exists()

    def test_too_few_tagged_pairs_names_the_load_point(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "validate", "--capacity", "1000", "--rho-grid", "0.3,0.5",
            "--packets", "20", "--seeds", "2", "--tagged-fraction", "0.05",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "load point rho=0.3" in err
        assert "nan" not in out
        assert not (tmp_path / "validation.csv").exists()

    @pytest.mark.parametrize("grid, message", [
        ("-0.1:0.5:0.1", "rho_grid[0] must be a finite number > 0, got -0.1"),
        ("nan,0.5", "rho_grid[0] must be a finite number > 0, got nan"),
        ("1.2,0.5", "rho=1.2 (grid index 0, seed index 0): "
                    "arrival rate 1200.0 >= capacity 1000.0: an unbounded queue is unstable"),
    ])
    def test_bad_first_grid_point_named_like_later_ones(self, capsys, tmp_path, grid, message):
        """The first point used to fail in the base config, naming no point
        (``arrival rate must be ... got -100.0``)."""
        code, _, err = run_cli(
            capsys, "validate", "--capacity", "1000", f"--rho-grid={grid}",
            "--packets", "5000", "--seeds", "1", "--out", str(tmp_path),
        )
        assert code == 1
        assert err == f"error: {message}\n"
        assert not (tmp_path / "validation.csv").exists()

    @pytest.mark.parametrize("grid, message", [
        ("0.3", "rho=0.3 (grid index 0, seed index 0): "
                "load 0.3 times capacity 5e-324 underflows the arrival rate"),
        ("0.7,0.3", "rho=0.7 (grid index 0, seed index 0): "
                    "arrival rate 5e-324 >= capacity 5e-324: an unbounded queue is unstable"),
    ], ids=["underflow", "unstable"])
    def test_smallest_capacity_names_a_grid_point(self, capsys, tmp_path, grid, message):
        """No rate below the smallest double is positive, so every point
        fails. The error used to name the load 0.5 of a placeholder base
        rate, which was never typed."""
        code, out, err = run_cli(
            capsys, "validate", "--capacity", "5e-324", "--rho-grid", grid,
            "--packets", "10", "--seeds", "1", "--out", str(tmp_path),
        )
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_shared_field_named_without_a_point(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "validate", "--capacity", "1000", "--rho-grid", "0.3,0.5",
            "--tagged-fraction", "2", "--packets", "10", "--seeds", "1", "--out", str(tmp_path),
        )
        assert (code, out) == (1, "")
        assert err == "error: tagged fraction must be a finite number > 0 and <= 1, got 2.0\n"

    def test_plot_data_files_two_columns(self, capsys, tmp_path):
        run_cli(
            capsys, "validate", "--capacity", "1000", "--rho-grid", "0.4,0.5",
            "--packets", "5000", "--seeds", "1", "--out", str(tmp_path),
        )
        for name in ("validation_model.dat", "validation_sim.dat"):
            lines = (tmp_path / name).read_text().splitlines()
            assert len(lines) == 2
            for line in lines:
                x, y = line.split()
                float(x), float(y)

    @pytest.mark.parametrize("grid, expected", [("a:b:c", "start:stop:step"),
                                                ("0.2,x", "comma-separated loads")])
    def test_unparsable_grid(self, capsys, tmp_path, grid, expected):
        code, out, err = run_cli(capsys, "validate", "--capacity", "1000", "--rho-grid", grid,
                                 "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == f"error: cannot parse grid {grid!r}; expected {expected}\n"

    def test_empty_grid_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "validate", "--capacity", "1000", "--rho-grid", ",",
            "--out", str(tmp_path),
        )
        assert code == 1

    @pytest.mark.parametrize("grid", [
        "0:1e300:1e-300",       # the count overflows
        "0:1e12:1",             # a list too long to build
        "0.1:0.2:1e-7",         # 1,000,001 points, a count not exact in floats
        "0:99999.5:1",          # 100,001 points
    ])
    def test_grid_size_checked_before_any_point(self, capsys, tmp_path, grid):
        """The error names the grid as typed, never a derived count."""
        code, _, err = run_cli(
            capsys, "validate", "--capacity", "1000", "--rho-grid", grid,
            "--out", str(tmp_path),
        )
        assert code == 1
        assert err == f"error: grid {grid!r} has more than 100,000 points\n"

    @pytest.mark.parametrize("grid", ["0:99999:1", "0:99999.4:1"])
    def test_grid_of_the_most_points_is_built(self, grid):
        """A range rounds its step count, so both grids have 100,000 points."""
        points = cli._parse_grid(grid)
        assert len(points) == 100_000 and points[-1] == 99_999.0

    def test_grid_range_syntax(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "validate", "--capacity", "1000", "--rho-grid", "0.2:0.4:0.1",
            "--packets", "5000", "--seeds", "1", "--threshold", "1.0",
            "--out", str(tmp_path),
        )
        assert code == 0
        body = [l for l in (tmp_path / "validation.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(body) == 1 + 3  # header + rho 0.2, 0.3, 0.4


def _write_scenario(tmp_path, text):
    path = tmp_path / "scenario.scn"
    path.write_text(text)
    return str(path)


class TestSynthCommand:
    def test_static_scenario_one_row_per_second(self, capsys, tmp_path):
        scn = _write_scenario(
            tmp_path, "kind = static\nduration_s = 30\nstatic_dist_m = 1570\nseed = 4\n"
        )
        out_csv = tmp_path / "log.csv"
        code, _, _ = run_cli(capsys, "synth", "--scenario", scn, "--output", str(out_csv))
        assert code == 0
        rows = parse_log(out_csv.read_bytes())
        assert len(rows) == 30

    def test_zero_duration_errors(self, capsys, tmp_path):
        scn = _write_scenario(tmp_path, "kind = static\nduration_s = 0\n")
        code, _, err = run_cli(
            capsys, "synth", "--scenario", scn, "--output", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert "zero-duration" in err

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("kind = static\nduration_s = abc\n", "line 2: key 'duration_s'"),
            ("# seeded\nkind = static\nduration_s = 20\nseed = 1.5\n", "line 4: key 'seed'"),
            ("kind = constant_speed\nspeed_kmh = fast\nduration_s = 20\n",
             "line 2: key 'speed_kmh'"),
        ],
    )
    def test_unparsable_number_names_key_and_line(self, capsys, tmp_path, text, expected):
        scn = _write_scenario(tmp_path, text)
        code, _, err = run_cli(
            capsys, "synth", "--scenario", scn, "--output", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert f"scenario {expected}: cannot parse" in err

    def test_same_seed_identical_bytes(self, capsys, tmp_path):
        scn = _write_scenario(tmp_path, "kind = constant_speed\nduration_s = 20\nseed = 8\n")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "synth", "--scenario", scn, "--output", str(p1))
        run_cli(capsys, "synth", "--scenario", scn, "--output", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_scenario_file_errors(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.scn")
        code, _, err = run_cli(
            capsys, "synth", "--scenario", missing, "--output", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert missing in err

    def test_seed_outside_64_bits_rejected(self, capsys, tmp_path):
        """synth ran this seed while simulate and validate refused it."""
        scn = _write_scenario(tmp_path, "kind = static\nduration_s = 20\n")
        out_csv = tmp_path / "log.csv"
        code, out, err = run_cli(capsys, "synth", "--scenario", scn, "--output", str(out_csv),
                                 "--seed", "18446744073709551616")
        assert code == 1 and out == "" and "seed must be below 2**64" in err
        assert not out_csv.exists()

    def test_seed_override_changes_bytes(self, capsys, tmp_path):
        scn = _write_scenario(tmp_path, "kind = constant_speed\nduration_s = 20\nseed = 8\n")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "synth", "--scenario", scn, "--output", str(p1))
        run_cli(capsys, "synth", "--scenario", scn, "--output", str(p2), "--seed", "9")
        assert p1.read_bytes() != p2.read_bytes()

    @pytest.mark.parametrize(
        "kind, line, field",
        [
            ("constant_speed", "track_bearing_deg = inf", "track_bearing_deg"),
            ("constant_speed", "base_lat_deg = inf", "base_lat_deg"),
            ("constant_speed", "rate_anchors = nan:1000", "anchors[0] distance"),
            ("constant_speed", "rate_anchors = 500:nan", "anchors[0] rate"),
            ("constant_speed", "rate_anchors = 500:inf", "anchors[0] rate"),
            ("constant_speed", "speed_kmh = inf", "speed_kmh"),
            ("constant_speed", "track_max_m = inf", "track_max_m"),
            ("static", "static_dist_m = nan", "static_dist_m"),
            ("variable_speed", "speed_profile = 0:inf", "speed_profile[0] speed"),
            ("variable_speed", "speed_profile = 10:50, 20:30", "speed_profile[0] start"),
        ],
    )
    def test_bad_value_names_its_field(self, capsys, tmp_path, kind, line, field):
        """Each of these used to end in a traceback, or in a message about
        something else (a distance, or the queue's times)."""
        scn = _write_scenario(tmp_path, f"kind = {kind}\nduration_s = 4\n{line}\n")
        code, _, err = run_cli(
            capsys, "synth", "--scenario", scn, "--output", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert err.startswith(f"error: {field} must be a finite number")

    def test_overflowing_packet_count_names_rate_and_duration(self, capsys, tmp_path):
        """1e308 B/s of 1-byte packets for 2 s expects an infinite count;
        it used to end in an OverflowError traceback."""
        scn = _write_scenario(tmp_path, "kind = static\nduration_s = 2\n"
                                        "offered_Bps = 1e308\npacket_size_B = 1\n")
        code, _, err = run_cli(
            capsys, "synth", "--scenario", scn, "--output", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert err == ("error: expected packet count at 1e+308 packets/s over 2.0 s "
                       "must be a finite number <= 1000000000000000, got inf\n")

    def test_out_of_memory_exits_1(self, capsys, tmp_path, monkeypatch):
        """An allocation the machine cannot make (offered_Bps = 1e15 asks
        for about 7 TiB of arrival times) ends with exit 1 and a message.
        A stand-in generator raises, so no test allocates that much."""
        def unable(rng, rate, horizon):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(traces, "_poisson_arrivals", unable)
        scn = _write_scenario(tmp_path, "kind = static\nduration_s = 1\noffered_Bps = 1e15\n")
        code, _, err = run_cli(
            capsys, "synth", "--scenario", scn, "--output", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert err == "error: out of memory: Unable to allocate 7.28 TiB\n"


class TestAnalyzeCommand:
    def _synthesize(self, capsys, tmp_path, text):
        scn = _write_scenario(tmp_path, text)
        log = tmp_path / "log.csv"
        code, _, _ = run_cli(capsys, "synth", "--scenario", scn, "--output", str(log))
        assert code == 0
        return log

    def test_reports_correlations_and_plot_data(self, capsys, tmp_path):
        log = self._synthesize(
            capsys, tmp_path, "kind = static\nduration_s = 60\nstatic_dist_m = 1570\nseed = 2\n"
        )
        code, out, _ = run_cli(
            capsys, "analyze", "--log", str(log), "--json", "--out", str(tmp_path / "plots")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_rows"] == 60
        assert payload["correlations"]["tput_Bps~jitter_ms"]["n"] == 60
        matrix = payload["pearson_matrix"]
        assert matrix[0][0] == 1.0
        assert matrix[0][1] == matrix[1][0]
        for name in ("throughput_vs_time.dat", "jitter_vs_time.dat", "speed_vs_time.dat"):
            lines = (tmp_path / "plots" / name).read_text().splitlines()
            assert len(lines) == 60

    def test_constant_column_flagged_but_analysis_continues(self, capsys, tmp_path):
        rows = [
            QosLogRow(100 + k, 0.0, 0.0, 1, 1000.0, 0.0, 5000.0, float(k % 7), k % 3, 10)
            for k in range(12)
        ]
        log = tmp_path / "const.csv"
        log.write_bytes(write_log(rows))
        code, out, _ = run_cli(capsys, "analyze", "--log", str(log), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["correlations"]["tput_Bps~jitter_ms"] is None
        assert payload["correlations"]["jitter_ms~loss_fraction"] is not None
        assert payload["warnings"]

    _TEXT_SUMMARY = """\
rows: 12   span: 12 s
     tput_Bps: mean 5000   min 5000   max 5000
    jitter_ms: mean 2.58333   min 0   max 6
loss_fraction: mean 0.1   min 0   max 0.2
correlations (pearson / spearman):
  tput_Bps~jitter_ms: undefined
  tput_Bps~loss_fraction: undefined
  jitter_ms~loss_fraction: +0.055 / +0.089  (n=12)
warning: tput_Bps~jitter_ms: first series is constant; correlation undefined
warning: tput_Bps~loss_fraction: first series is constant; correlation undefined
"""

    _TEXT_BY_SPEED = """\
warning: speed bin [0, 10) km/h: tput_Bps~jitter_ms: first series is constant; correlation undefined
warning: speed bin [0, 10) km/h: tput_Bps~loss_fraction: first series is constant; correlation undefined
warning: speed bin [10, 20) km/h: tput_Bps~jitter_ms: first series is constant; correlation undefined
warning: speed bin [10, 20) km/h: tput_Bps~loss_fraction: first series is constant; correlation undefined
warning: speed bin [20, 30) km/h: tput_Bps~jitter_ms: need at least 3 paired samples, got 2
warning: speed bin [20, 30) km/h: tput_Bps~loss_fraction: need at least 3 paired samples, got 2
warning: speed bin [20, 30) km/h: jitter_ms~loss_fraction: need at least 3 paired samples, got 2
per-speed bins:
  [0, 10) km/h  n=5
      mean tput_Bps: 5000
      mean jitter_ms: 2
      mean loss_fraction: 0.08
      tput_Bps~jitter_ms: undefined
      tput_Bps~loss_fraction: undefined
      jitter_ms~loss_fraction: +0.189 / +0.211  (n=5)
  [10, 20) km/h  n=5
      mean tput_Bps: 5000
      mean jitter_ms: 2.8
      mean loss_fraction: 0.1
      tput_Bps~jitter_ms: undefined
      tput_Bps~loss_fraction: undefined
      jitter_ms~loss_fraction: -0.193 / -0.316  (n=5)
  [20, 30) km/h  n=2
      mean tput_Bps: 5000
      mean jitter_ms: 3.5
      mean loss_fraction: 0.15
      tput_Bps~jitter_ms: undefined
      tput_Bps~loss_fraction: undefined
      jitter_ms~loss_fraction: undefined
"""

    @pytest.mark.parametrize("by_speed", [False, True])
    def test_text_form(self, capsys, tmp_path, by_speed):
        """The whole text output on a log with a constant throughput and a
        two-row speed bin: undefined pairs, the warnings with and without a
        bin's context, and the bin means."""
        rows = [
            QosLogRow(100 + k, 0.0, 0.0, 1, 1000.0, (5.0, 15.0, 25.0)[min(k // 5, 2)],
                      5000.0, float(k % 7), k % 3, 10)
            for k in range(12)
        ]
        log = tmp_path / "const.csv"
        log.write_bytes(write_log(rows))
        argv = ["analyze", "--log", str(log)] + (["--by-speed"] if by_speed else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == self._TEXT_SUMMARY + (self._TEXT_BY_SPEED if by_speed else "")

    def test_header_only_log_exits_1(self, capsys, tmp_path):
        log = tmp_path / "empty.csv"
        log.write_text(LOG_HEADER + "\n")
        code, out, err = run_cli(capsys, "analyze", "--log", str(log))
        assert (code, out) == (1, "")
        assert err == "error: cannot analyze an empty log\n"

    def test_by_speed_bins(self, capsys, tmp_path):
        log = self._synthesize(
            capsys, tmp_path, "kind = variable_speed\nduration_s = 240\nseed = 6\n"
        )
        code, out, _ = run_cli(capsys, "analyze", "--log", str(log), "--by-speed", "--json")
        assert code == 0
        payload = json.loads(out)
        bins = payload["speed_bins"]
        assert len(bins) >= 3
        assert all(b["n"] >= 1 for b in bins)

    def test_throughput_whose_sum_overflows(self, capsys, tmp_path):
        """Five rows of the committed static scenario with a throughput from
        1e308 to 1.7e308: its sum leaves the double range, yet the mean and
        the correlations are finite and nothing warns."""
        scn = Path(__file__).resolve().parents[1] / "scenarios" / "static_far.scn"
        log = tmp_path / "log.csv"
        assert run_cli(capsys, "synth", "--scenario", str(scn), "--output", str(log))[0] == 0
        rows = [dataclasses.replace(row, tput_Bps=1e308 + k * 0.175e308)
                for k, row in enumerate(parse_log(log.read_bytes())[:5])]
        log.write_bytes(write_log(rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "analyze", "--log", str(log), "--by-speed",
                                     "--json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["columns"]["tput_Bps"]["mean"] == pytest.approx(1.35e308, rel=1e-15)
        assert payload["speed_bins"][0]["means"]["tput_Bps"] == payload["columns"]["tput_Bps"]["mean"]
        for key, stats in payload["correlations"].items():
            assert math.isfinite(stats["pearson_r"]) and math.isfinite(stats["spearman_rho"]), key
        assert payload["warnings"] == []

    @pytest.mark.parametrize("name", ["missing.csv", "."])
    def test_unreadable_log_errors(self, capsys, tmp_path, name):
        path = str(tmp_path / name)
        code, _, err = run_cli(capsys, "analyze", "--log", path)
        assert code == 1
        assert path in err

    def test_parse_error_propagates_line_number(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(LOG_HEADER + "\n1,0,0,1,100,0,0,0,5,3\n")
        code, _, err = run_cli(capsys, "analyze", "--log", str(bad))
        assert code == 1
        assert "line 2" in err


class TestOutputPaths:
    @pytest.mark.parametrize(
        "command, where",
        [("simulate", "a directory"), ("simulate", "under a missing directory"),
         ("synth", "a directory"), ("synth", "under a missing directory"),
         ("validate", "a file"), ("analyze", "a file")],
    )
    def test_unwritable_output_exits_1(self, capsys, tmp_path, command, where):
        """Output files are written as given and output directories are
        created; a path that allows neither is an error, not a traceback."""
        (tmp_path / "file").write_text("x")
        path = {"a directory": tmp_path, "a file": tmp_path / "file",
                "under a missing directory": tmp_path / "missing" / "out"}[where]
        scn = _write_scenario(tmp_path, "kind = static\nduration_s = 3\nseed = 1\n")
        log = tmp_path / "log.csv"
        assert run_cli(capsys, "synth", "--scenario", scn, "--output", str(log))[0] == 0
        argv = {
            "simulate": ["simulate", "--capacity", "1000", "--rho", "0.5", "--packets", "50",
                         "--trace-out", str(path)],
            "synth": ["synth", "--scenario", scn, "--output", str(path)],
            "validate": ["validate", "--capacity", "1000", "--rho-grid", "0.5",
                         "--packets", "500", "--seeds", "1", "--out", str(path)],
            "analyze": ["analyze", "--log", str(log), "--out", str(path)],
        }[command]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: cannot write")

    @pytest.mark.parametrize("width", ["nan", "inf", "1e-300"])
    def test_speed_bin_width_must_be_usable(self, capsys, tmp_path, width):
        """A NaN or infinite width used to give garbage bins silently, and a
        tiny one more bins than an int64 holds."""
        scn = _write_scenario(tmp_path, "kind = constant_speed\nduration_s = 3\n"
                                        "speed_kmh = 50\nseed = 1\n")
        log = tmp_path / "log.csv"
        assert run_cli(capsys, "synth", "--scenario", scn, "--output", str(log))[0] == 0
        code, _, err = run_cli(capsys, "analyze", "--log", str(log), "--by-speed",
                               "--speed-bin-width", width)
        assert code == 1
        assert "speed bin width" in err


class TestUsageContract:
    @pytest.mark.parametrize("module", ["scipy", "concurrent.futures", "logging"])
    def test_import_leaves_module_unloaded(self, module):
        """Importing the command line loads no scipy, and not the thread
        pool that only ``simulate_sweep`` needs (about 1 MiB and 7 ms with
        the logging it brings in)."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = f"import sys, qoskit.cli; sys.exit({module!r} in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
        assert result.returncode == 0, result.stderr.decode()

    def test_every_command_runs_without_scipy(self, tmp_path):
        """numpy is the only runtime dependency: with scipy unimportable,
        each of the six subcommands exits 0."""
        src = Path(__file__).resolve().parents[1] / "src"
        scn = _write_scenario(tmp_path, "kind = variable_speed\nduration_s = 60\nseed = 6\n")
        log = str(tmp_path / "log.csv")
        argvs = [
            ["model", "--capacity", "1000", "--rho", "0.5"],
            ["invert", "--capacity", "1000", "--budget", "0.001"],
            ["simulate", "--capacity", "1000", "--rho", "0.5", "--packets", "1000"],
            ["validate", "--capacity", "1000", "--rho-grid", "0.5", "--packets", "2000",
             "--seeds", "2", "--threshold", "1", "--out", str(tmp_path / "report")],
            ["synth", "--scenario", scn, "--output", log],
            ["analyze", "--log", log, "--by-speed", "--json"],
        ]
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from qoskit.cli import main\n"
                f"codes = [main(argv) for argv in {argvs!r}]\n"
                "sys.stderr.write(repr(codes))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
        assert result.returncode == 0, result.stderr.decode()
        assert result.stderr.decode().endswith(repr([0] * len(argvs)))

    def test_closed_stdout_exits_1_without_traceback(self):
        """A reader that leaves before the output is written, as ``| head``
        does, ends the command with exit 1 and nothing on stderr."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "qoskit.cli", "model", "--capacity", "1000",
                 "--rho", "0.5"], env=env, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == b""

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_calls_in_a_row_match_fresh_parsers(self, capsys):
        """``main`` builds its argument tree once per process. Calls in a
        row, good and bad, exit and print as they do on a tree built afresh
        for each call."""
        argvs = [
            ["model", "--capacity", "1000", "--rho", "0.5", "--json"],
            ["model", "--rho", "0.5"],
            ["invert", "--capacity", "1000", "--budget", "0.001", "--json"],
            ["frobnicate"],
            ["model", "--capacity", "1000", "--lambda", "500", "--rho", "0.5"],
            ["invert", "--lambda", "600", "--budget", "0.001"],
            ["model", "--capacity", "abc", "--rho", "0.5"],
            ["simulate", "--capacity", "1000", "--rho", "0.5", "--packets", "1000", "--json"],
            ["simulate", "--capacity", "1000", "--rho", "0.5", "--packets", "-1"],
            ["model", "--capacity", "1000", "--rho", "0.5"],
        ]
        in_a_row = [run_cli(capsys, *argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert in_a_row == fresh
        assert [code for code, _, _ in in_a_row] == [0, 1, 0, 1, 1, 0, 1, 0, 1, 0]

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "model", "--rho", "0.5")
        assert code == 1


# Values a user may type by mistake: non-finite, signed zero, the smallest
# subnormal, extremes, 2**64, negative, empty and not a number, next to a
# few sensible ones for each option type.
_ODD = ["nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e-320", "1e308", str(2 ** 64), "-1",
        "", "abc"]
_SENSIBLE = {float: ["1000", "600", "0.5", "0.9", "2"], int: ["1", "2", "7", "200"]}
# A text option that is not a path is a load grid.
_GRIDS = ["0.5", "0.3,0.6", "0.2:0.8:0.3", ",", "0.2,x", "a:b:c", "1:2", "0:1:0", "0.5:0.1:0.1",
          "0.1:0.2:1e-7", "0:1e300:1e-300", "0.9999999", "nan:1:0.1", "0.2:inf:0.1"]
# The largest value drawn for an option that multiplies the work. A sweep
# builds every run's config before the first run, so --seeds 2**64 would
# fill memory: the CLI does not yet state a memory need before allocating.
_MOST = {"--packets": 10 ** 4, "--seeds": 7}


def _option_values(option: str, action, paths: dict):
    """The values drawn for one option, from its parser action: None for a
    switch, its choices and two it lacks, a hand-made pool for a path, and
    else odd and sensible values of its type."""
    if action.nargs == 0:
        return None
    if action.choices is not None:
        return list(action.choices) + ["bogus", ""]
    if option in paths:
        return paths[option]
    values = _ODD + _SENSIBLE.get(action.type, _GRIDS)
    if option in _MOST:
        values = [v for v in values if not v.isdigit() or int(v) < _MOST[option]]
        values.append(str(_MOST[option]))
    return values


def _fuzz_flags(work: Path) -> dict:
    """Each command's options and the values drawn for them, read from
    ``cli.build_parser()``; only the paths are listed here."""
    scenarios = [str(work / "tiny.scn"), str(work / "missing.scn"), str(work),
                 str(work / "garbage.txt"), ""]
    logs = [str(work / "tiny.csv"), str(work / "missing.csv"), str(work),
            str(work / "garbage.txt"), str(work / "tiny.scn"), ""]
    outputs = [str(work / "out.csv"), str(work), str(work / "missing" / "out.csv"), ""]
    dirs = [str(work / "reports"), str(work / "garbage.txt"), str(work / "missing" / "dir"), ""]
    paths = {"--scenario": scenarios, "--log": logs, "--output": outputs,
             "--trace-out": outputs, "--out": dirs}
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {command: {option: _option_values(option, action, paths)
                      for action in parser._actions
                      if not isinstance(action, argparse._HelpAction)
                      for option in action.option_strings}
            for command, parser in commands.items()}


def _valid_argv(work: Path) -> dict:
    return {
        "model": {"--capacity": "1000", "--rho": "0.5"},
        "invert": {"--capacity": "1000", "--budget": "0.001"},
        "simulate": {"--capacity": "1000", "--rho": "0.5", "--packets": "200"},
        "validate": {"--capacity": "1000", "--rho-grid": "0.5", "--packets": "500",
                     "--seeds": "1", "--out": str(work / "reports")},
        "synth": {"--scenario": str(work / "tiny.scn"), "--output": str(work / "out.csv")},
        "analyze": {"--log": str(work / "tiny.csv")},
    }


@st.composite
def _argv(draw, flags: dict, valid: dict):
    """Either any subset of a command's flags, or a working command line
    with one to three flags set to drawn values."""
    command = draw(st.sampled_from(sorted(flags)))
    names = st.sampled_from(sorted(flags[command]))
    if draw(st.booleans()):
        chosen = {name: None for name in draw(st.lists(names, unique=True))}
    else:
        chosen = dict(valid[command])
        chosen.update({name: None for name in draw(st.lists(names, min_size=1, max_size=3,
                                                            unique=True))})
    argv = [command]
    for name, value in chosen.items():
        argv.append(name)
        if flags[command][name] is not None:
            argv.append(value if value is not None
                        else draw(st.sampled_from(flags[command][name])))
    return argv


_NON_FINITE = re.compile(r"\b(inf|nan)\b", re.IGNORECASE)


def _typed_only(line: str, argv: list) -> bool:
    """Whether an error line names only values typed: no inf or nan unless
    the argv has one, and every ``..., got V`` a V equal, as a float, to a
    number in the argv (a grid's numbers included)."""
    if _NON_FINITE.search(line) and not any(_NON_FINITE.search(arg) for arg in argv):
        return False
    typed = []
    for part in (part for arg in argv for part in re.split("[,:]", arg)):
        try:
            typed.append(float(part))
        except ValueError:
            pass
    for got in re.findall(r", got (\S+)$", line):
        try:
            value = float(got)
        except ValueError:      # a name or a quoted string, not a number
            continue
        if not any(value == t or value != value and t != t for t in typed):
            return False
    return True


def _null_paths(value, path=()):
    """The key and index paths at which a parsed JSON value holds null."""
    if value is None:
        yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _null_paths(item, path + (key,))


def _documented_null(command: str, path: tuple, payload: dict) -> bool:
    """Whether the README documents a null at ``path`` of a --json output:
    simulate's estimates without samples and its unbounded buffer, and
    analyze's undefined correlations and off-diagonal Pearson entries."""
    if command == "simulate":
        counts = {("mean_sojourn_s",): "delivered_count",
                  ("empirical_jitter_J_s",): "n_jitter_samples"}
        return (path == ("config", "buffer_capacity")
                or path in counts and payload[counts[path]] == 0)
    if command == "analyze":
        return (path[:1] == ("correlations",) and len(path) == 2
                or path[:1] == ("pearson_matrix",) and len(path) == 3 and path[1] != path[2]
                or path[:1] == ("speed_bins",) and path[2:3] == ("correlations",)
                and len(path) == 4)
    return False


# Scenario values that a file may hold by mistake. Every drawn
# ``packet_size_B`` and ``duration_s`` is rejected or at most 5, and an
# ``offered_Bps`` of 1e308 expects more packets than a trace may hold, so
# each accepted scenario stays small.
_SCENARIO_ODD = ["nan", "inf", "-inf", "0", "-1", "1e308", "1.5", "abc"]
_SCENARIO_VALUES = {
    **{key: _SCENARIO_ODD for key in (
        "seed", "static_dist_m", "speed_kmh", "track_min_m", "track_max_m", "start_dist_m",
        "packet_size_B", "buffer_pkts", "t0_unix_s", "base_lat_deg", "base_lon_deg",
        "track_bearing_deg")},
    "duration_s": _SCENARIO_ODD + ["1", "5"],
    "offered_Bps": _SCENARIO_ODD,
    "speed_profile": [f"0:{v}" for v in _SCENARIO_ODD] + [f"{v}:10" for v in _SCENARIO_ODD],
    "rate_anchors": [f"{v}:1000" for v in _SCENARIO_ODD] + [f"500:{v}" for v in _SCENARIO_ODD],
    "mask_zones": [f"{v}-800" for v in _SCENARIO_ODD] + [f"700-{v}" for v in _SCENARIO_ODD],
}


class TestCliFuzz:
    """Whatever the command line, the CLI ends with exit code 0, 1 or 2, no
    traceback and at most one ``error:`` line, an error line means exit
    code 1 and names only values typed, and a --json output holds null only
    where the README documents an undefined estimate. ``--packets`` stays at or below
    10,000 and ``--seeds`` at or below 7: a horizon or sweep too large for
    memory is a separate, known defect."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("fuzz")
        (work / "tiny.scn").write_text("kind = static\nduration_s = 3\n"
                                       "static_dist_m = 500\nseed = 5\n")
        (work / "garbage.txt").write_bytes(b"\x00\xffnot,a,log\n")
        assert main(["synth", "--scenario", str(work / "tiny.scn"),
                     "--output", str(work / "tiny.csv")]) == 0
        return work

    @pytest.fixture(scope="class")
    def flags(self, work):
        return _fuzz_flags(work)

    def test_flags_cover_every_option(self, flags):
        """Every option of every command is drawn, each path from a pool."""
        assert sorted(flags) == ["analyze", "invert", "model", "simulate", "synth", "validate"]
        assert sorted(flags["simulate"]) == [
            "--buffer", "--capacity", "--json", "--lambda", "--packets", "--rho", "--seed",
            "--service", "--tagged-fraction", "--trace-out", "--warmup"]
        assert flags["simulate"]["--service"] == ["exponential", "deterministic", "bogus", ""]
        assert max(int(v) for v in flags["validate"]["--packets"] if v.isdigit()) == 10 ** 4
        assert "0.1:0.2:1e-7" in flags["validate"]["--rho-grid"]
        for command in flags.values():
            for option, values in command.items():
                assert values is None or "" in values, option

    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_argv_exits_0_1_or_2_without_traceback(self, capsys, monkeypatch, work, flags,
                                                       data):
        monkeypatch.chdir(work)     # default output paths land here too
        argv = data.draw(_argv(flags, _valid_argv(work)), label="argv")
        code = main(argv)
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert len(errors) <= 1, argv
        assert code == 1 or not errors, argv
        for line in errors:
            assert _typed_only(line, argv), (argv, line)
        if code == 0 and "--json" in argv:
            payload = json.loads(out)
            for path in _null_paths(payload):
                assert _documented_null(argv[0], path, payload), (argv, path)

    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_scenario_exits_0_or_1_without_traceback(self, capsys, work, data):
        kind = data.draw(st.sampled_from(["static", "constant_speed", "variable_speed"]))
        keys = data.draw(st.lists(st.sampled_from(sorted(_SCENARIO_VALUES)), min_size=1,
                                  max_size=4, unique=True), label="keys")
        values = {"duration_s": "3"}
        values.update({key: data.draw(st.sampled_from(_SCENARIO_VALUES[key]), label=key)
                       for key in keys})
        text = f"kind = {kind}\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
        (work / "fuzz.scn").write_text(text)
        code = main(["synth", "--scenario", str(work / "fuzz.scn"),
                     "--output", str(work / "fuzz.csv")])
        err = capsys.readouterr().err
        assert code in (0, 1), text
        assert "Traceback" not in err, text
