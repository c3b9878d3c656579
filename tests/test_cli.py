"""Command-line contract: values, exit codes, reproducibility, file formats."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qoskit import traces
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
        assert "unstable" in err

    def test_printed_literal_warns_and_prints_negative(self, capsys):
        code, out, err = run_cli(
            capsys, "model", "--capacity", "1000", "--rho", "0.5",
            "--variant", "printed-literal", "--json",
        )
        assert code == 0
        assert json.loads(out)["jitter_seconds"] < 0
        assert "WARNING" in err


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

    def test_unstable_config_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--capacity", "1000", "--rho", "1.1", "--packets", "10"
        )
        assert code == 1
        assert "unbounded" in err


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
                    "unbounded buffer requires lambda < C; got load 1.2"),
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

    def test_empty_grid_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "validate", "--capacity", "1000", "--rho-grid", ",",
            "--out", str(tmp_path),
        )
        assert code == 1

    @pytest.mark.parametrize("grid, count", [
        ("0:1e300:1e-300", "inf"),             # the count overflows
        ("0:1e12:1", "1000000000001.0"),       # a list too long to build
    ])
    def test_grid_size_checked_before_any_point(self, capsys, tmp_path, grid, count):
        code, _, err = run_cli(
            capsys, "validate", "--capacity", "1000", "--rho-grid", grid,
            "--out", str(tmp_path),
        )
        assert code == 1
        assert err == f"error: number of grid points must be a finite number <= 100000, got {count}\n"

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
    def test_import_leaves_scipy_unloaded(self):
        """Only correlations need scipy; every other command skips its
        import cost."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, qoskit.cli; sys.exit('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
        assert result.returncode == 0, result.stderr.decode()

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

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "model", "--rho", "0.5")
        assert code == 1


# Flag values a user may type by mistake: non-finite, negative, zero, empty,
# not a number, and extremes, next to a few sensible ones.
_ODD = ["nan", "inf", "-inf", "-1", "0", "", "abc", "1e-300", "1e300"]
_RATE = _ODD + ["1000", "600", "0.5", "0.9", "2"]
_PACKETS = ["nan", "-1", "0", "", "abc", "1", "2", "50", "2000"]  # at most 2,000
_COUNT = ["nan", "-1", "0", "", "abc", "1", "2"]
_SEED = ["-1", "0", "", "abc", "7", "99999999999999999999"]
_GRID = ["0.5", "0.3,0.6", "0.2:0.8:0.3", "nan", "inf", "", ",", "abc", "0:1:0",
         "1.5", "-1", "0.5:0.1:0.1", "0.9999999"]
_VARIANT = ["nonneg-v1", "printed-literal", "bogus", ""]
_SWITCH = None  # a flag without a value


def _fuzz_flags(work: Path) -> dict:
    scenarios = [str(work / "tiny.scn"), str(work / "missing.scn"), str(work),
                 str(work / "garbage.txt"), ""]
    logs = [str(work / "tiny.csv"), str(work / "missing.csv"), str(work),
            str(work / "garbage.txt"), str(work / "tiny.scn")]
    outputs = [str(work / "out.csv"), str(work), str(work / "missing" / "out.csv")]
    dirs = [str(work / "reports"), str(work / "garbage.txt"), str(work / "missing" / "dir")]
    link = {"--capacity": _RATE, "--lambda": _RATE, "--rho": _RATE}
    return {
        "model": {**link, "--variant": _VARIANT, "--json": _SWITCH},
        "invert": {"--capacity": _RATE, "--lambda": _RATE, "--budget": _RATE,
                   "--variant": _VARIANT, "--json": _SWITCH},
        "simulate": {**link, "--packets": _PACKETS, "--tagged-fraction": _RATE,
                     "--buffer": _COUNT + ["3", "200"], "--warmup": _RATE,
                     "--service": ["exponential", "deterministic", "uniform"],
                     "--seed": _SEED, "--trace-out": outputs, "--json": _SWITCH},
        "validate": {"--capacity": _RATE, "--rho-grid": _GRID, "--packets": _PACKETS,
                     "--seeds": _COUNT, "--threshold": _RATE, "--variant": _VARIANT,
                     "--tagged-fraction": _RATE, "--seed": _SEED, "--out": dirs},
        "synth": {"--scenario": scenarios, "--output": outputs, "--seed": _SEED},
        "analyze": {"--log": logs, "--by-speed": _SWITCH, "--speed-bin-width": _RATE,
                    "--json": _SWITCH, "--out": dirs},
    }


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
def _argv(draw, work: Path):
    """Either any subset of a command's flags, or a working command line
    with one to three flags set to drawn values."""
    flags = _fuzz_flags(work)
    command = draw(st.sampled_from(sorted(flags)))
    names = st.sampled_from(sorted(flags[command]))
    if draw(st.booleans()):
        chosen = {name: None for name in draw(st.lists(names, unique=True))}
    else:
        chosen = dict(_valid_argv(work)[command])
        chosen.update({name: None for name in draw(st.lists(names, min_size=1, max_size=3,
                                                            unique=True))})
    argv = [command]
    for name, value in chosen.items():
        argv.append(name)
        if flags[command][name] is not None:
            argv.append(value if value is not None
                        else draw(st.sampled_from(flags[command][name])))
    return argv


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
    """Whatever the command line, the CLI ends with exit code 0, 1 or 2 and
    no traceback. ``--packets`` stays at or below 2,000: a horizon too
    large for memory is a separate, known defect."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("fuzz")
        (work / "tiny.scn").write_text("kind = static\nduration_s = 3\n"
                                       "static_dist_m = 500\nseed = 5\n")
        (work / "garbage.txt").write_bytes(b"\x00\xffnot,a,log\n")
        assert main(["synth", "--scenario", str(work / "tiny.scn"),
                     "--output", str(work / "tiny.csv")]) == 0
        return work

    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_argv_exits_0_1_or_2_without_traceback(self, capsys, monkeypatch, work, data):
        monkeypatch.chdir(work)     # default output paths land here too
        argv = data.draw(_argv(work), label="argv")
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv

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
