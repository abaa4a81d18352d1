import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gutpatterns
import gutpatterns.cli as cli
from gutpatterns import (
    Domain1D,
    FieldState,
    ScanGrid,
    Verdict,
    dispersion,
    initial_state,
    jacobian,
    scan_region,
    steady_state,
    table1_params,
)
from gutpatterns.cli import (
    SUBCOMMANDS,
    RunConfig,
    _fmt,
    main,
    parse_config,
    write_scan_csv,
    write_snapshot,
)
from gutpatterns.errors import ConfigError
from gutpatterns.params import MAX_COUNT

SMALL_SIM = """\
t_end = 720
snapshot_every = 360
n_points = 400
length = 0.004
spot_center = 0.002
"""


class TestParseConfig:
    def test_empty_gives_defaults_with_calibrated_fe(self):
        cfg = parse_config("")
        assert cfg.r_b == 0.0347
        assert cfg.b_i == 1e17
        assert cfg.fe_calibrated
        assert cfg.f_e == pytest.approx(0.0856, rel=5e-3)

    def test_explicit_fe_not_calibrated(self):
        cfg = parse_config("f_e = 0.09\n")
        assert cfg.f_e == 0.09
        assert not cfg.fe_calibrated

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nr_b = 0.01  # trailing\n")
        assert cfg.r_b == 0.01

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="line 2.*chemotaxis"):
            parse_config("r_b = 0.01\nchemotaxis = 1\n")

    def test_negative_rate_names_key(self):
        with pytest.raises(ConfigError, match="r_b"):
            parse_config("r_b = -1\n")

    def test_bad_syntax_has_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("this is not a key value pair\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="n_points"):
            parse_config("n_points = many\n")


class TestSubcommands:
    def test_steady_prints_equilibrium(self, tmp_path, capsys):
        assert main(["steady", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "beta_bar = 3" in out and "e+16" in out
        assert (tmp_path / "manifest").exists()

    def test_stability_prints_turing_true(self, tmp_path, capsys):
        assert main(["stability", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "turing = true" in lines
        assert "ode_stable = true" in lines
        p = table1_params()  # the condition value is M11, to the last digit
        assert f"turing_condition_value = {jacobian(p, steady_state(p)).m11!r}" in lines
        assert "critical_diffusivity_ratio = 14.053424466538212" in lines

    def test_dispersion_writes_curve(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("xi2_samples = 32\n")
        assert main(["dispersion", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "lambda_minus" in out and "lambda_plus" in out
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        assert lines[0] == "xi2,growth_rate"
        assert len(lines) == 33

    def test_simulate_outputs(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_SIM)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "snap_t0.csv").exists()
        assert (out_dir / "snap_t360.csv").exists()
        assert (out_dir / "snap_t720.csv").exists()
        series = (out_dir / "series.csv").read_text().splitlines()
        assert series[0] == "t,beta_variance,gamma_variance,beta_max,peak_count"
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report) == {"peak_count", "median_spacing_m", "in_predicted_band", "spatial_variance"}
        snap = (out_dir / "snap_t0.csv").read_text().splitlines()
        assert snap[0] == "x,beta,gamma"
        assert len(snap) == 401

    def test_flat_run_reports_no_peaks(self, tmp_path):
        # no noise on a 1 mm domain: beta stays flat to ~3e-14 relative, and its
        # round-off ripples are not peaks
        cfg = tmp_path / "cfg"
        cfg.write_text("n_points = 64\nlength = 0.001\nt_end = 100\nsnapshot_every = 10\n"
                       "ic = perturbation\nnoise_rel = 0\n")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert json.loads((out_dir / "report.json").read_text())["peak_count"] == 0
        rows = [line.split(",") for line in (out_dir / "series.csv").read_text().splitlines()[1:]
                if not line.startswith("#")]
        assert len(rows) == 11
        assert all(row[-1] == "0" for row in rows)

    def test_scan_output_format(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("r_c_steps = 12\na_steps = 10\n")
        out_dir = tmp_path / "out"
        assert main(["scan", "--config", str(cfg), "--out", str(out_dir)]) == 0
        lines = (out_dir / "scan.csv").read_text().splitlines()
        assert len(lines) == 13
        assert lines[0].startswith(",")
        first_row = lines[1].split(",")
        assert len(first_row) == 11
        assert all(cell in {"-1", "0", "1", "2"} for cell in first_row[1:])

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("r_b = -5\n")
        assert main(["steady", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_SIM + "ic = perturbation\n")
        args = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-1"]
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "seed" in err[0]
        assert not (tmp_path / "out" / "manifest").exists()

    def test_negative_perturbation_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("n_points = 64\nlength = 0.001\nt_end = 10\nsnapshot_every = 10\n"
                       "ic = perturbation\nnoise_rel = 1.5\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "noise_rel" in err[0]
        assert not (tmp_path / "out" / "manifest").exists()

    @pytest.mark.parametrize("case", ["missing_config", "config_is_dir", "config_not_utf8",
                                      "out_is_file"])
    def test_unusable_path_fails_with_one_error_line(self, tmp_path, capsys, case):
        cfg, out = tmp_path / "cfg", tmp_path / "out"
        if case == "config_is_dir":
            cfg.mkdir()
        elif case == "config_not_utf8":
            cfg.write_bytes(b"r_b = 0.01  # \xff\n")
        elif case == "out_is_file":
            cfg.write_text(SMALL_SIM)
            out.write_text("not a directory\n")
        before = {f: f.is_file() and f.read_bytes() for f in tmp_path.rglob("*")}
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert {f: f.is_file() and f.read_bytes() for f in tmp_path.rglob("*")} == before

    # Each config is accepted by the parser but overflows, underflows or
    # divides by zero in floating point somewhere in the subcommand, or has a
    # theta_target outside (0, 1) that the parser leaves to scan because f_e
    # is given; warnings are errors here, so a RuntimeWarning on the way to
    # the rejection fails.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("subcommand,config", [
        ("scan", "theta_target = 0.9999999\na_max = 1e308"),
        ("scan", "f_e = 0.08\ntheta_target = 1.5"),
        ("scan", "f_e = 0.08\ntheta_target = -0.5"),
        ("scan", "f_e = 0.08\ntheta_target = 0"),
        ("scan", "f_e = 0.08\ntheta_target = 1"),
        ("simulate", "length = 1e-300"),
        ("simulate", "length = 1e300"),
        ("simulate", "snapshot_every = 1e-300"),
        ("steady", "r_c = 1e-300"),
        ("stability", "b_i = 1e300"),
        ("dispersion", "b_i = 1e300"),
        ("simulate", "b_i = 1e300"),
        ("dispersion", "d_b = 1e300"),
        ("dispersion", "d_b = 1e-320"),
        ("dispersion", "d_c = 1e300"),
        ("dispersion", "d_c = 1e-300"),
        ("dispersion", "r_c = 1e-300"),
        ("dispersion", "f_b = 1e300"),
        ("dispersion", "a = 1e300"),
        ("dispersion", "f_e = 1e300"),
        ("dispersion", "d_b = 1e300\nd_c = 1e300"),
        ("simulate", "d_b = 1e300\nd_c = 1e300"),
        ("simulate", "s_b = 5e-324"),
        *((subcommand, "s_b = 5e-324\na = 1\nf_e = 0") for subcommand in SUBCOMMANDS),
        ("stability", "b_i = 1e-310\ns_b = 5e-324"),
        ("scan", "r_b = 1e-20\nb_i = 1e300\ntheta_target = 1e-300"),
        ("simulate", "t_end = 1e300"),
        ("simulate", "t_end = 1e300\nsnapshot_every = 1e300"),
        ("simulate", "t_end = 1e308\ndt = 1e-300\nsnapshot_every = 1e308"),
        ("simulate", "t_end = 10\ndt = 1e-10\nsnapshot_every = 1e308"),
    ])
    def test_float_extremes_fail_with_one_error_line(self, tmp_path, capsys, subcommand, config):
        cfg, out = tmp_path / "cfg", tmp_path / "out"
        cfg.write_text(SMALL_SIM + config + "\n")
        before = {f: f.is_file() and f.read_bytes() for f in tmp_path.rglob("*")}
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert {f: f.is_file() and f.read_bytes() for f in tmp_path.rglob("*")} == before

    def test_snapshot_name_collision_rejected(self, tmp_path, capsys):
        # every snapshot time lies within 1e-9 of 0, so each would be snap_t0.csv
        cfg, out = tmp_path / "cfg", tmp_path / "out"
        cfg.write_text("n_points = 64\nlength = 0.001\ndt = 1e-10\nt_end = 5e-10\nsnapshot_every = 1e-10\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "t=0.0" in err[0] and "t=1e-10" in err[0] and "snap_t0.csv" in err[0]
        assert not out.exists()

    # With one CPU, this process writes every snapshot. With two, forked
    # children write snap_t0.csv and snap_t5.csv: two may be alive at once, and
    # these are the first two. /dev/full fails the write, not the open. A
    # child's error is raised by the next write after it, so a run of 10001 snapshots
    # stops long before its last one.
    @pytest.mark.parametrize("subcommand, cpus, blocked, how", [
        ("simulate", 1, "snap_t0.csv", "dir"),
        ("simulate", 2, "snap_t5.csv", "dir"),
        ("scan", 2, "scan.csv", "dir"),
        ("simulate", 2, "snap_t5.csv", "full"),
    ], ids=["parent-snapshot", "helper-snapshot", "scan-csv", "helper-write-fails"])
    def test_unwritable_output_fails_with_one_error_line(self, tmp_path, capfd, monkeypatch,
                                                         subcommand, cpus, blocked, how):
        if how == "full" and not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        cfg, out = tmp_path / "cfg", tmp_path / "out"
        cfg.write_text("n_points = 64\nlength = 0.001\nt_end = 50000\nsnapshot_every = 5\n"
                       "r_c_steps = 4\na_steps = 4\n")
        out.mkdir()
        if how == "dir":
            (out / blocked).mkdir()
        else:
            (out / blocked).symlink_to("/dev/full")
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
        err = capfd.readouterr().err  # fd-level, so a helper's stderr shows too
        assert "Traceback" not in err, err
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(lines) == 1 and repr(str(out / blocked)) in lines[0], err
        assert (out / "manifest").exists()
        assert not (out / "snap_t50000.csv").exists() and not (out / "series.csv").exists()

    # Each config passes the parser and is rejected only inside simulate, which
    # checks every input before it makes the first snapshot, where the CLI
    # starts its outputs.
    @pytest.mark.parametrize("config, message", [
        ("dt = 5\n", "dt=5.0 exceeds the explicit-reaction bound 4.623 min"),
        ("spot_amplitude = 1e17\n", "initial bacterial density must stay below b_i"),
        ("peak_threshold = 1\n", "rel_threshold must lie in (0, 1), got 1.0"),
    ], ids=["dt-bound", "spot-at-b_i", "peak-threshold"])
    def test_rejected_by_simulate_writes_nothing(self, tmp_path, capsys, config, message):
        cfg, out = tmp_path / "cfg", tmp_path / "out"
        cfg.write_text("n_points = 64\nlength = 0.001\nspot_center = 0.0005\nt_end = 10\n"
                       "snapshot_every = 5\n" + config)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    # A config such as n_points = 1e12 asks numpy for terabytes; whether that
    # allocation fails depends on the machine's overcommit policy, so the
    # handler's callee raises MemoryError here instead.
    @pytest.mark.parametrize("subcommand, callee", [
        ("simulate", "simulate"), ("scan", "scan_region"), ("dispersion", "dispersion"),
    ])
    def test_memory_error_fails_with_one_error_line(self, tmp_path, capsys, monkeypatch, subcommand, callee):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

        monkeypatch.setattr(cli, callee, fail)
        cfg = tmp_path / "cfg"
        cfg.write_text("n_points = 64\nlength = 0.001\nt_end = 10\nsnapshot_every = 5\n")
        assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "7.28 TiB" in err[0], err

    def test_failed_step_keeps_manifest(self, tmp_path, capsys):
        # a small s_b makes the explicit killing term overshoot at t=1
        cfg, out, expected = tmp_path / "cfg", tmp_path / "out", tmp_path / "expected"
        text = ("n_points = 64\nlength = 0.001\nt_end = 10\nsnapshot_every = 10\n"
                "ic = perturbation\nnoise_rel = 1\ns_b = 1e13\n")
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "negativity" in err[0]
        # the manifest and the snapshot made before the failure, nothing more
        run_cfg = parse_config(text)
        expected.mkdir()
        write_snapshot(initial_state(run_cfg.params(), run_cfg.domain(), run_cfg.sim_config()),
                       cli._snapshot_rows(run_cfg.domain()), expected)
        outputs = read_outputs(out)
        assert sorted(outputs) == ["manifest", "snap_t0.csv"]
        assert outputs["snap_t0.csv"] == (expected / "snap_t0.csv").read_bytes()


BLOCK = cli._BLOCK_ROWS  # rows per block of the CSV float writers


def csv_reference(header: str, rows) -> str:
    """CSV text formatted value by value with _fmt: the writers' reference."""
    return "\n".join([header] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"


def assert_snapshot_reads_back(path: Path, beta: np.ndarray, gamma: np.ndarray) -> None:
    """``np.loadtxt`` reads the snapshot at ``path`` back as bitwise ``beta``
    and ``gamma``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(data[:, 1].view(np.int64), beta.view(np.int64))
    assert np.array_equal(data[:, 2].view(np.int64), gamma.view(np.int64))


def scan_csv_reference(grid: ScanGrid) -> str:
    rows = [[float(r_c)] + [int(v) for v in codes] for r_c, codes in zip(grid.r_c_axis, grid.verdicts)]
    return csv_reference("," + ",".join(_fmt(float(a)) for a in grid.a_axis), rows)


def random_scan_grid(rng, n_rows: int, n_cols: int) -> ScanGrid:
    """Each column's code and threshold drawn at random; an INFEASIBLE column has none."""
    above = rng.choice(np.array([-1, 1, 2], dtype=np.int8), n_cols)
    steps = np.where(above == Verdict.INFEASIBLE, 0, rng.integers(0, n_rows + 1, n_cols))
    return ScanGrid(r_c_axis=np.linspace(1e-3, 5e-2, n_rows), a_axis=np.linspace(0.05, 1.0, n_cols),
                    steps=steps, above=above)


class TestWritersMatchReference:
    def test_scan_csv_every_code(self, tmp_path):
        # thresholds at 0 (first column INFEASIBLE throughout) and at n_rows;
        # axis values that repr spells out in full
        grid = ScanGrid(r_c_axis=np.array([1e-3, 0.1 + 0.2, 5e-324, 1e16]),
                        a_axis=np.array([0.05, 1.0 / 3.0, 0.7, 1.0]),
                        steps=np.array([0, 1, 2, 4]), above=np.array([-1, 2, 1, 2], dtype=np.int8))
        assert set(np.unique(grid.verdicts).tolist()) == {int(v) for v in Verdict}
        write_scan_csv(grid, tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_text() == scan_csv_reference(grid)

    @pytest.mark.parametrize("n_rows, steps, above", [
        # consecutive equal rows, then a change, then equal again
        (5, [3, 0, 0], [2, 2, 1]),
        # many columns sharing a few thresholds, in no order
        (9, [4, 0, 7, 4, 4, 7, 0, 4] * 6, [2, -1, 1, 2, 1, 2, 1, 2] * 6),
        # rows that differ from the row above only in their last cell
        (4, [0, 0, 0, 2], [1, 2, 2, 1]),
        # one row only
        (1, [1, 0, 0, 1, 1], [2, 2, -1, 1, 2]),
        # every cell INFEASIBLE
        (4, [0, 0, 0], [-1, -1, -1]),
        # INFEASIBLE in the last column
        (4, [2, 1, 0], [2, 1, -1]),
        # adjacent INFEASIBLE columns between columns that change
        (5, [3, 0, 0, 1, 0, 0, 2], [2, -1, -1, 1, -1, -1, 2]),
        # thresholds equal to n_rows: those columns are ODE_UNSTABLE throughout
        (3, [3, 1, 3, 0], [2, 1, 1, 2]),
    ], ids=["repeats", "equal-thresholds", "last-cell", "one-row", "all-infeasible",
            "infeasible-last", "infeasible-adjacent", "threshold-n_rows"])
    def test_scan_csv_row_reuse(self, tmp_path, n_rows, steps, above):
        grid = ScanGrid(r_c_axis=np.linspace(1e-3, 5e-2, n_rows),
                        a_axis=np.linspace(0.05, 1.0, len(steps)),
                        steps=np.array(steps), above=np.array(above, dtype=np.int8))
        turing = write_scan_csv(grid, tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_text() == scan_csv_reference(grid)
        assert turing == np.count_nonzero(grid.verdicts == Verdict.TURING)

    def test_scan_csv_wide(self, tmp_path, rng):
        # 5 rows of 5000 columns, each code and threshold drawn at random
        above = rng.choice(np.array([-1, 1, 2], dtype=np.int8), 5000)
        steps = np.where(above == Verdict.INFEASIBLE, 0, rng.integers(0, 6, above.size))
        grid = ScanGrid(r_c_axis=np.linspace(1e-3, 5e-2, 5), a_axis=np.linspace(0.05, 1.0, above.size),
                        steps=steps, above=above)
        turing = write_scan_csv(grid, tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_text() == scan_csv_reference(grid)
        assert turing == np.count_nonzero(grid.verdicts == Verdict.TURING)

    def test_scan_csv_tall(self, tmp_path, rng):
        # 5000 rows of 5 columns: most rows repeat the one above, and the
        # reused row crosses blocks of axis values
        grid = random_scan_grid(rng, 5000, 5)
        assert Verdict.INFEASIBLE in grid.above and len(set(grid.steps.tolist())) > 1
        write_scan_csv(grid, tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_text() == scan_csv_reference(grid)

    def test_scan_csv_rejects_infeasible_column_with_unstable_rows(self, tmp_path):
        # "-1" below a one-byte "0" would move every later code of its row
        grid = ScanGrid(r_c_axis=np.linspace(1e-3, 5e-2, 3), a_axis=np.linspace(0.05, 1.0, 2),
                        steps=np.array([0, 1]), above=np.array([2, -1], dtype=np.int8))
        with pytest.raises(ValueError, match="INFEASIBLE"):
            write_scan_csv(grid, tmp_path / "scan.csv")

    def test_scan_csv_of_scan_region(self, tmp_path):
        grid = scan_region(table1_params(), (1e-4, 0.3), (0.01, 3.0), (23, 41))
        assert grid.verdicts.dtype == np.int8
        assert set(np.unique(grid.verdicts)) == {int(v) for v in Verdict}
        write_scan_csv(grid, tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_text() == scan_csv_reference(grid)

    def test_scan_subcommand_300x300(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("r_c_steps = 300\na_steps = 300\n")
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        run_cfg = parse_config(cfg.read_text())
        grid = scan_region(run_cfg.params(), (run_cfg.r_c_min, run_cfg.r_c_max),
                           (run_cfg.a_min, run_cfg.a_max), (300, 300), theta=run_cfg.theta_target)
        assert (tmp_path / "out" / "scan.csv").read_text() == scan_csv_reference(grid)

    @pytest.mark.parametrize("config, codes", [
        ("r_c_steps = 23\na_steps = 41\nr_c_min = 1e-4\nr_c_max = 0.3\na_min = 0.01\na_max = 3.0\n",
         {-1, 0, 1, 2}),
        ("r_c_steps = 7\na_steps = 9\na_min = 1e-3\na_max = 0.2\n", {Verdict.INFEASIBLE}),
        ("r_c_steps = 7\na_steps = 9\nr_c_min = 0.02\nr_c_max = 0.05\na_min = 0.28\na_max = 0.4\n",
         {Verdict.TURING}),
    ], ids=["every-code", "all-infeasible", "all-turing"])
    def test_scan_turing_cells(self, tmp_path, capsys, config, codes):
        cfg = tmp_path / "cfg"
        cfg.write_text(config)
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        run_cfg = parse_config(config)
        grid = scan_region(run_cfg.params(), (run_cfg.r_c_min, run_cfg.r_c_max),
                           (run_cfg.a_min, run_cfg.a_max), (run_cfg.r_c_steps, run_cfg.a_steps))
        assert set(np.unique(grid.verdicts).tolist()) == codes
        turing = np.count_nonzero(grid.verdicts == Verdict.TURING)
        assert capsys.readouterr().out == f"turing_cells = {turing}\n"

    def test_snapshot(self, tmp_path, rng):
        # domains A, B, A, then C (A's n_points, another length): each file
        # must carry its own domain's x column, not one of another domain.
        # A's node counts end a block one row early, exactly and one row late,
        # and three rows into a third block.
        # Specials: subnormals, the smallest normal float, the largest one
        # below 1e16, 2**53 + 2 (an integer that 17 digits spell out), and
        # 0.3 * b_i, whose repr is the short 3e+16.
        b_i = 1e17
        tiny = float(np.finfo(np.float64).tiny)
        below_tiny = float(np.nextafter(tiny, 0.0))
        below_1e16 = float(np.nextafter(1e16, 0.0))
        special_beta = [0.0, 5e-324, 1e16, np.nextafter(1.0, 0.0) * b_i, 3e16 / 7.0,
                        0.3 * b_i, below_1e16, 2.0**53 + 2, below_tiny, tiny]
        special_gamma = [1e16, 0.0, 5e-324, 2.5, 1.0 / 3.0,
                         tiny, below_tiny, 0.3 * b_i, 2.0**53 + 2, below_1e16]
        dom_b = Domain1D(length=0.011, n_points=19)
        for n_points in (32, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3):
            dom_a = Domain1D(length=0.03, n_points=n_points)
            dom_c = Domain1D(length=0.011, n_points=n_points)
            for k, dom in enumerate([dom_a, dom_b, dom_a, dom_c]):
                n = dom.n_points - len(special_beta)
                beta = np.concatenate([special_beta, rng.uniform(0.0, b_i, n)])
                gamma = np.concatenate([special_gamma, rng.uniform(0.0, 1e16, n)])
                out_dir = tmp_path / f"{n_points}-{k}"
                out_dir.mkdir()
                write_snapshot(FieldState(time=30.0, beta=beta, gamma=gamma), cli._snapshot_rows(dom),
                               out_dir)
                # x as its repr, beta and gamma with 17 significant digits
                rows = [[x, "%.17g" % b, "%.17g" % g]
                        for x, b, g in zip(dom.x().tolist(), beta.tolist(), gamma.tolist())]
                path = out_dir / "snap_t30.csv"
                assert path.read_text() == csv_reference("x,beta,gamma", rows)
                assert_snapshot_reads_back(path, beta, gamma)

    # Finite non-negative fields, subnormals included, of a shared length.
    @settings(max_examples=200, deadline=None, database=None)
    @given(beta=hnp.arrays(np.float64, st.shared(st.integers(16, 64), key="n"),
                           elements=st.floats(min_value=0.0, allow_infinity=False)),
           gamma=hnp.arrays(np.float64, st.shared(st.integers(16, 64), key="n"),
                            elements=st.floats(min_value=0.0, allow_infinity=False)))
    def test_snapshot_reads_back_bitwise(self, beta, gamma):
        dom = Domain1D(length=0.03, n_points=beta.size)
        with tempfile.TemporaryDirectory() as tmp:
            write_snapshot(FieldState(time=30.0, beta=beta, gamma=gamma), cli._snapshot_rows(dom), Path(tmp))
            assert_snapshot_reads_back(Path(tmp) / "snap_t30.csv", beta, gamma)

    @pytest.mark.parametrize("config", ["xi2_samples = 2048\n", "xi2_samples = 333\nxi2_max = 1e9\n",
                                        f"xi2_samples = {BLOCK}\n", f"xi2_samples = {BLOCK + 1}\n"])
    def test_dispersion(self, tmp_path, config):
        cfg = tmp_path / "cfg"
        cfg.write_text(config)
        assert main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        run_cfg = parse_config(config)
        p = run_cfg.params()
        curve = dispersion(p, jacobian(p, steady_state(p)), xi2_max=run_cfg.xi2_max,
                           samples=run_cfg.xi2_samples)
        rows = [[float(v) for v in row] for row in zip(curve.xi2_samples, curve.growth_rates)]
        assert (tmp_path / "out" / "dispersion.csv").read_text() == csv_reference("xi2,growth_rate", rows)


@pytest.mark.parametrize("n_rows, n_cols, limit", [(50, 200000, 10e6), (200000, 50, 1e6)],
                         ids=["wide", "tall"])
def test_scan_csv_writer_keeps_no_object_per_column_or_row(tmp_path, rng, n_rows, n_cols, limit):
    # The writer's own memory, the grid being made before tracing starts: ~11 B
    # per column (the first and the last row's bytes, and the byte offsets of
    # the changes in one array per row where some change) and one block of
    # axis values at a time, 2.3 MB wide and 0.1 MB tall. numpy arrays of
    # offsets and changes sorted by row took 6.3 MB wide; lists of cells and
    # offsets, a dict of changes and the whole header text 53 MB wide, and
    # 6.5 MB tall for the row values.
    grid = random_scan_grid(rng, n_rows, n_cols)
    tracemalloc.start()
    try:
        write_scan_csv(grid, tmp_path / "scan.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit, peak


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("cpus, n_snapshots", [(1, 5), (2, 5), (3, 5), (3, 2)])
def test_snapshot_files_do_not_depend_on_process_count(tmp_path, monkeypatch, rng, cpus, n_snapshots):
    dom = Domain1D(length=0.011, n_points=19)
    times = [0.0, 30.0, 0.1 + 0.2, 1440.5, 1e16][:n_snapshots]
    states = [FieldState(time=t, beta=np.append(rng.uniform(0.0, 1e17, 18), 5e-324),
                         gamma=np.append(rng.uniform(0.0, 1e16, 18), 1.0 / 3.0)) for t in times]
    expected, out, log = tmp_path / "expected", tmp_path / "out", tmp_path / "log"
    expected.mkdir()
    out.mkdir()
    rows = cli._snapshot_rows(dom)
    for state in states:
        write_snapshot(state, rows, expected)
    # a closure stands in for write_snapshot, as a timing wrapper would; every
    # process appends each time it writes to one log, and a child is slow, so
    # 2(k - 1) children are soon alive and this process writes the rest
    parent = os.getpid()

    def recording(state, rows, out_dir):
        start = time.monotonic()
        if os.getpid() != parent:
            time.sleep(0.05)
        write_snapshot(state, rows, out_dir)
        with open(log, "a") as f:
            f.write(f"{state.time!r} {os.getpid() != parent} {start!r} {time.monotonic()!r}\n")

    # count, at each fork, the children that waitpid has not yet reaped
    real_fork, real_waitpid = os.fork, os.waitpid
    forked, reaped, alive = [], [], []

    def fork():
        alive.append(len(forked) - len(reaped))
        pid = real_fork()
        forked.append(pid)
        return pid

    def waitpid(pid, options):
        done, status = real_waitpid(pid, options)
        if done:
            reaped.append(done)
        return done, status

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "write_snapshot", recording)
    with cli._snapshot_writer(dom, out, n_snapshots) as write:
        for state in states:
            write(state)
    assert read_outputs(out) == read_outputs(expected)
    records = [line.split() for line in log.read_text().splitlines()]
    assert sorted(t for t, *_ in records) == sorted(map(repr, times))
    assert max(alive, default=0) <= 2 * (min(cpus, n_snapshots) - 1)
    # children write k - 1 at a time: at no child's start are k - 1 others writing
    spans = [(float(start), float(end)) for _, child, start, end in records if child == "True"]
    assert all(sum(s < start < e for s, e in spans) < min(cpus, n_snapshots) - 1 for start, _ in spans)
    assert sorted(reaped) == sorted(forked)  # the with-block waited for every child
    assert (len(forked) > 0) == (min(cpus, n_snapshots) > 1)


def test_helper_error_raised_by_next_write(tmp_path, monkeypatch):
    dom = Domain1D(length=0.001, n_points=64)
    state = FieldState(time=0.0, beta=np.zeros(64), gamma=np.zeros(64))
    parent = os.getpid()

    def failing_in_helper(state, rows, out_dir):
        if os.getpid() != parent:
            raise OSError(28, "No space left on device", "in a helper")
        write_snapshot(state, rows, out_dir)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "write_snapshot", failing_in_helper)
    ended = False
    with pytest.raises(OSError, match="in a helper"):
        with cli._snapshot_writer(dom, tmp_path, 1000) as write:
            # the first write goes to the helper; once it has failed, a later
            # write raises its error, long before the with-block ends
            for _ in range(1000):
                write(state)
                time.sleep(0.01)
            ended = True
    assert not ended
    # an error from a write that no later write follows is raised at the end
    with pytest.raises(OSError, match="in a helper"):
        with cli._snapshot_writer(dom, tmp_path, 1000) as write:
            write(state)


@pytest.mark.skipif(sys.version_info < (3, 12), reason="os.fork warns about threads from Python 3.12 on")
@pytest.mark.skipif(cli._usable_cpus() < 2, reason="on one CPU simulate forks no writer")
def test_forked_writers_print_no_warning(tmp_path):
    # numpy's OpenBLAS threads make os.fork give a DeprecationWarning, which
    # is shown where the CLI runs as __main__; the writers ignore that one warning
    cfg = tmp_path / "cfg"
    cfg.write_text(SMALL_SIM)
    proc = subprocess.run([sys.executable, "-m", "gutpatterns.cli", "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_unloadable_lapack_fails_with_one_error_line(tmp_path, capsys, no_lapack_name_resolves):
    # as on a platform whose dynamic loader finds none of the names in numpy's LAPACK
    cfg, out = tmp_path / "cfg", tmp_path / "out"
    cfg.write_text(SMALL_SIM)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert all(name in err[0] for name in no_lapack_name_resolves), err
    assert not out.exists()


def test_killed_writer_fails_with_one_error_line(tmp_path, capfd, monkeypatch):
    # the child writing snap_t0.csv kills itself before it writes; the run
    # stops with one error line naming that file and leaves no child behind
    parent, real_fork, forked = os.getpid(), os.fork, []

    def killed_in_child(state, rows, out_dir):
        if os.getpid() != parent and state.time == 0.0:
            os.kill(os.getpid(), signal.SIGKILL)
        write_snapshot(state, rows, out_dir)

    def fork():
        forked.append(real_fork())
        return forked[-1]

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "write_snapshot", killed_in_child)
    monkeypatch.setattr(os, "fork", fork)
    cfg, out = tmp_path / "cfg", tmp_path / "out"
    cfg.write_text("n_points = 64\nlength = 0.001\nt_end = 50000\nsnapshot_every = 5\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert "Traceback" not in err, err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and repr(str(out / "snap_t0.csv")) in lines[0], err
    assert f"killed by signal {int(signal.SIGKILL)}" in lines[0], err
    assert not (out / "snap_t50000.csv").exists()
    assert forked
    for pid in forked:
        with pytest.raises(ChildProcessError):  # reaped already
            os.waitpid(pid, os.WNOHANG)


class TestReproducibility:
    def test_identical_runs_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_SIM + "ic = perturbation\nseed = 9\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert read_outputs(out1) == read_outputs(out2)

    def test_manifest_round_trip(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_SIM + "seed = 3\n")
        out1 = tmp_path / "o1"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        out2 = tmp_path / "o2"
        assert main(["simulate", "--config", str(out1 / "manifest"), "--out", str(out2)]) == 0
        # the manifest itself may differ (calibration provenance comment)
        a = {k: v for k, v in read_outputs(out1).items() if k != "manifest"}
        b = {k: v for k, v in read_outputs(out2).items() if k != "manifest"}
        assert a == b

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_SIM + "ic = perturbation\nseed = 1\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--seed", "2"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        a = (out1 / "snap_t0.csv").read_bytes()
        b = (out2 / "snap_t0.csv").read_bytes()
        assert a != b


# Runs one subcommand in a fresh interpreter and prints its exit code, whether
# scipy and scipy.linalg are loaded, how many LAPACKs kernels._lapack loaded,
# whether a process pool's modules are loaded, whether numpy.random and
# numpy.fft are loaded, and the peak RSS (VmHWM) in kB, or -1
# where /proc/self/status does not give it. Two usable CPUs are assumed, so that
# simulate forks its snapshot writers on any machine. It imports json, pickle,
# analysis and solver, which only simulate loads, so that a peak compared with
# steady's counts simulate's arrays and not the code of those modules.
_IMPORT_PROBE = """\
import json, pickle, sys
from gutpatterns import analysis, cli, kernels, solver
cli._usable_cpus = lambda: 2
code = cli.main(sys.argv[1:])
try:
    with open("/proc/self/status") as status:
        hwm = next((line.split()[1] for line in status if line.startswith("VmHWM:")), -1)
except OSError:
    hwm = -1
print(code, "scipy" in sys.modules, "scipy.linalg" in sys.modules, kernels._lapack.cache_info().currsize,
      "concurrent.futures" in sys.modules or "multiprocessing" in sys.modules,
      "numpy.random" in sys.modules, "numpy.fft" in sys.modules, hwm)
"""


def _env() -> dict[str, str]:
    """This environment, with the tested package first on PYTHONPATH."""
    src = str(Path(gutpatterns.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _probe(tmp_path, subcommand, config, probe=_IMPORT_PROBE):
    cfg = tmp_path / f"{subcommand}.cfg"
    cfg.write_text(config)
    proc = subprocess.run(
        [sys.executable, "-c", probe, subcommand, "--config", str(cfg),
         "--out", str(tmp_path / subcommand)],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("subcommand,config,loads_lapack", [
    ("steady", "", False),
    ("stability", "", False),
    ("dispersion", "", False),
    ("scan", "r_c_steps = 12\na_steps = 10\n", False),
    ("simulate", SMALL_SIM, True),
    ("simulate", SMALL_SIM + "ic = perturbation\n", True),
])
def test_scipy_loaded_only_by_simulate(tmp_path, subcommand, config, loads_lapack):
    # Only the diffusion solve needs LAPACK, and only simulate looks it up, in the
    # LAPACK numpy already loaded, so no subcommand imports scipy: its top-level
    # package and its LAPACK extension cost ~23 ms and ~3.5 MB, and scipy.linalg
    # another ~0.2 s and ~27 MB. simulate's snapshot writers are plain forks: no
    # subcommand loads concurrent.futures or multiprocessing (~21 ms and ~1.3 MB).
    # The perturbation IC draws from the standard library's random.Random, so no
    # subcommand loads numpy.random, which brings hashlib and OpenSSL's libcrypto
    # (~5.6 MB). simulate's report takes the median of the peak spacings, not an
    # FFT, so no subcommand loads numpy.fft either.
    code, scipy_, linalg, loads, pool, np_random, np_fft, _ = _probe(tmp_path, subcommand, config)
    assert (code, scipy_, linalg, int(loads), pool, np_random, np_fft) == (
        "0", "False", "False", int(loads_lapack), "False", "False", "False")


# Imports the package and the CLI in a fresh interpreter, runs one subcommand and
# prints its exit code and whether numpy was loaded after each of the three steps;
# exits with the CLI's code. With "blocked" first, numpy cannot be imported at all.
_NUMPY_PROBE = """\
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
loaded = lambda: sys.modules.get("numpy") is not None
import gutpatterns
steps = [loaded()]
import gutpatterns.cli as cli
steps.append(loaded())
code = cli.main(sys.argv[2:])
print(code, *steps, loaded())
sys.exit(code)
"""


def _numpy_probe(tmp_path, mode, subcommand, config):
    cfg = tmp_path / f"{subcommand}.cfg"
    cfg.write_text(config)
    return subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, mode, subcommand, "--config", str(cfg),
         "--out", str(tmp_path / mode / subcommand)],
        capture_output=True, text=True, env=_env(), timeout=120,
    )


@pytest.mark.parametrize("subcommand,config,code,loads", [
    ("steady", "", 0, False),
    ("stability", "", 0, False),
    ("steady", "r_b = -1\n", 1, False),  # rejected at parse
    ("dispersion", "", 0, True),
    ("scan", "r_c_steps = 12\na_steps = 10\n", 0, False),
    ("simulate", SMALL_SIM, 0, True),
])
def test_numpy_loaded_only_by_array_subcommands(tmp_path, subcommand, config, code, loads):
    # steady and stability are closed forms in math alone, and scan one closed
    # form and one bisection per column; importing numpy cost them about half
    # their start-up
    proc = _numpy_probe(tmp_path, "normal", subcommand, config)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == [str(code), "False", "False", str(loads)]


@pytest.mark.parametrize("subcommand", ["steady", "stability", "scan"])
def test_closed_form_subcommands_run_without_numpy(tmp_path, subcommand):
    outputs = []
    for mode in ("normal", "blocked"):
        proc = _numpy_probe(tmp_path, mode, subcommand, "")
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        outputs.append((proc.stdout, read_outputs(tmp_path / mode / subcommand)))
    assert outputs[0] == outputs[1]


def _has_vm_hwm():
    try:
        return "VmHWM:" in Path("/proc/self/status").read_text()
    except OSError:
        return False


@pytest.mark.skipif(not _has_vm_hwm(), reason="no VmHWM in /proc/self/status")
def test_simulate_peak_memory_close_to_steady(tmp_path):
    # steady itself loads no numpy, but the probe imports kernels, analysis and
    # solver, so its "steady" is numpy and the package; a small simulate adds a few
    # fields and its writers, 0.8-1.1 MiB on Linux with numpy 2.4, from either
    # initial condition. Against a steady without simulate's modules it read
    # 1.4-1.6 MiB, and 4.7-5.0 MiB at 30000 nodes.
    # Taking LAPACK from scipy's extension module added ~3.4 MB more, a process
    # pool for the writers ~1.3 MB, importing scipy.linalg ~27 MB, and drawing the
    # perturbation from numpy.random ~5.6 MB.
    # At 30000 nodes the arrays show: 3.7-3.9 MiB over steady from either
    # initial condition with one set of n-sized arrays, against 5.9 (spot) and
    # 6.8 MiB (perturbation) with two (4, n) work arrays and whole-field
    # temporaries in the initial state and the peak count.
    fine = "n_points = 30000\nt_end = 60\nsnapshot_every = 30\n"
    steady = int(_probe(tmp_path, "steady", "")[-1])
    for config, mib in [(SMALL_SIM, 2.5), (SMALL_SIM + "ic = perturbation\n", 2.5),
                        (fine, 5.0), (fine + "ic = perturbation\n", 5.0)]:
        simulate = int(_probe(tmp_path, "simulate", config)[-1])
        assert simulate - steady < mib * 1024, (config, steady, simulate)


@pytest.mark.skipif(not _has_vm_hwm(), reason="no VmHWM in /proc/self/status")
def test_dispersion_peak_memory_close_to_steady(tmp_path):
    # "steady" is numpy and the package, as above, since the probe imports kernels.
    # 200000 samples are two 1.6 MB columns. growth_rate evaluates them a
    # block at a time and the CSV writer formats a block of rows at a time:
    # ~7.2 MB over steady. The whole-array growth rate held ~6 sample-sized
    # temporaries at once (~12 MB over steady), whole columns ~36 MB.
    steady = int(_probe(tmp_path, "steady", "")[-1])
    dispersion = int(_probe(tmp_path, "dispersion", "xi2_samples = 200000\n")[-1])
    assert dispersion - steady < 9.5 * 1024, (steady, dispersion)


# Runs one subcommand in a fresh interpreter that imports nothing but the CLI,
# and prints its exit code and its peak RSS (VmHWM) in kB.
_HWM_PROBE = """\
import sys
from gutpatterns import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(code, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not _has_vm_hwm(), reason="no VmHWM in /proc/self/status")
def test_scan_peak_memory_close_to_steady(tmp_path):
    # Neither run loads numpy, so a 3000 x 3000 scan adds only its axes, its
    # per-column arrays and the writer's rows to steady: 0.1-0.3 MiB on Linux.
    # Importing numpy for it added ~13 MiB.
    steady = int(_probe(tmp_path, "steady", "", _HWM_PROBE)[-1])
    scan = int(_probe(tmp_path, "scan", "r_c_steps = 3000\na_steps = 3000\n", _HWM_PROBE)[-1])
    assert scan - steady < 2 * 1024, (steady, scan)


# perfbench/child.py times a traced benchmark run by replacing functions in
# gutpatterns.cli, .kernels and .analysis by name, so renaming or removing one
# of them breaks the benchmark. A fresh interpreter keeps the replacements out
# of this process.
def test_benchmark_tracer_finds_every_wrapped_name():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    probe = "import gutpatterns.cli as cli\nfrom child import install_timers\ninstall_timers(cli)\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# The handlers bind the array layers' names on first use; each must call the
# timer that child.py put in its place, or that layer's benchmark metrics read 0.
_TRACER_PROBE = """\
import json, sys
import gutpatterns.cli as cli
from child import install_timers
spans, counts = install_timers(cli)
cli._usable_cpus = lambda: 1  # every snapshot is written, and timed, in this process
simulate, scan, out = sys.argv[1:]
codes = [cli.main(["simulate", "--config", simulate, "--out", out]),
         cli.main(["scan", "--config", scan, "--out", out])]
print(json.dumps({"codes": codes, "calls": {span: calls for span, (calls, _) in spans.items()}}))
"""


def test_benchmark_tracer_times_every_layer(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    simulate, scan = tmp_path / "simulate.cfg", tmp_path / "scan.cfg"
    simulate.write_text(SMALL_SIM)  # 720 steps, snapshots at 0, 360 and 720
    scan.write_text("r_c_steps = 12\na_steps = 10\n")
    proc = subprocess.run([sys.executable, "-c", _TRACER_PROBE, str(simulate), str(scan), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["calls"] == {
        "kernels.step_arrays": 720,
        "solver.simulate": 1,
        "scan.scan_region": 1,
        "analysis.detect_peaks": 1,
        "analysis.snapshot_stats": 3,
        "analysis.analyze_pattern": 1,
        "cli.write_snapshot": 3,
        "cli.write_scan_csv": 1,
        "cli.parse_config": 2,
        "stability.dispersion": 0,
        "params.steady_state": 1,
    }


def test_runconfig_defaults_match_canonical_set():
    cfg = RunConfig()
    assert (cfg.r_c, cfg.a, cfg.s_b) == (0.02, 0.3129, 1e15)
    assert cfg.length == 0.03 and cfg.n_points == 3000
    assert cfg.t_end == 20160.0 and cfg.dt == 1.0


PROPERTY_BASE = """\
n_points = 64
length = 0.001
spot_center = 0.0005
t_end = 4
snapshot_every = 2
ic = perturbation
r_c_steps = 4
a_steps = 4
"""
PROPERTY_KEYS = ("seed", "xi2_max", "xi2_samples", "t_end", "dt", "snapshot_every",
                 "noise_rel", "spot_amplitude", "background", "theta_target", "peak_threshold",
                 "r_c_min", "r_c_max", "a_min", "a_max", "r_c_steps", "a_steps")
# Values that make a valid run long are left out: dt = 1e-9 would run 4e9
# steps. (dt = 1e-300 and t_end = 1e308 are rejected: too many steps.)
PROPERTY_VALUES = ("-1", "0", "2.5", "3", "inf", "-inf", "nan")


# A count above MAX_COUNT made numpy raise ValueError, IndexError or
# OverflowError, which ended in a traceback; MAX_COUNT itself asks for
# exabytes, which no machine can map. Huge values stay out of PROPERTY_VALUES,
# where t_end = 2**59 would be a valid run of 5.8e17 steps.
@pytest.mark.parametrize("count", [MAX_COUNT, 2**59, 2**60, 2**63])
@pytest.mark.parametrize("key, subcommand", [
    ("xi2_samples", "dispersion"), ("r_c_steps", "scan"), ("a_steps", "scan"), ("n_points", "simulate"),
])
def test_huge_count_fails_with_one_error_line(tmp_path, capsys, key, subcommand, count):
    cfg, out = tmp_path / "cfg", tmp_path / "out"
    cfg.write_text(f"{key} = {count}\n")
    code = main([subcommand, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    if count > MAX_COUNT:
        assert code == 1 and err[0].startswith("error:") and f"{MAX_COUNT}], got {count}" in err[0], err
    else:
        assert code == 2 and err[0].startswith("error: out of memory:"), err
    assert not out.exists()


def _assert_finite_outputs(out_dir: Path, subcommand: str, t_end: float) -> None:
    for csv in out_dir.glob("*.csv"):
        for row in csv.read_text().splitlines()[1:]:
            if not row.startswith("#"):
                assert all(math.isfinite(float(v)) for v in row.split(",")), (csv.name, row)
    if subcommand == "simulate":
        # null is the JSON form of the nan low-variance sentinel
        report = json.loads((out_dir / "report.json").read_text())
        assert all(math.isfinite(v) for v in report.values() if v is not None), report
        assert (out_dir / f"snap_t{t_end:g}.csv").exists()


# The space is 17 x 7 x 5 = 595 cases; Hypothesis stops once it has tried them all.
@settings(max_examples=1000, deadline=None, database=None)
@given(key=st.sampled_from(PROPERTY_KEYS), value=st.sampled_from(PROPERTY_VALUES),
       subcommand=st.sampled_from(SUBCOMMANDS))
def test_config_runs_clean_or_fails_with_one_error_line(key, value, subcommand):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg"
        cfg.write_text(PROPERTY_BASE + f"{key} = {value}\n")
        out_dir = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", str(cfg), "--out", str(out_dir)])
        if code == 0:
            _assert_finite_outputs(out_dir, subcommand, float(value) if key == "t_end" else 4.0)
        else:
            assert code in (1, 2)
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            # a run rejected at validation writes nothing
            assert code == 2 or not (out_dir / "manifest").exists()


MODEL_KEYS = ("r_b", "r_c", "d_b", "d_c", "b_i", "f_b", "a", "s_b", "f_e", "theta_target")
MODEL_VALUES = ("0", "5e-324", "1e-310", "1e-300", "1e-20", "0.5", "1", "1e20", "1e300", "1.7e308")


# The model's own keys, one to three at a time, at values that overflow,
# underflow or vanish somewhere in the closed forms or the step.
@settings(max_examples=300, deadline=None, database=None)
@example(model={"s_b": "5e-324", "a": "1", "f_e": "0"})
@example(model={"s_b": "1e300", "f_b": "1e300"})
@example(model={"r_c": "1e-310", "f_e": "1e-310", "b_i": "1.7e308"})
@given(model=st.dictionaries(st.sampled_from(MODEL_KEYS), st.sampled_from(MODEL_VALUES),
                             min_size=1, max_size=3))
def test_model_config_runs_clean_or_fails_with_one_error_line(model):
    config = PROPERTY_BASE + "xi2_samples = 16\nr_c_steps = 20\na_steps = 20\n"
    config += "".join(f"{key} = {value}\n" for key, value in model.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg"
        cfg.write_text(config)
        for subcommand in SUBCOMMANDS:
            out_dir = Path(tmp) / subcommand
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([subcommand, "--config", str(cfg), "--out", str(out_dir)])
            if code == 0:
                _assert_finite_outputs(out_dir, subcommand, 4.0)
            else:
                assert code in (1, 2), subcommand
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:"), (subcommand, lines)
                assert code == 2 or not out_dir.exists(), subcommand
