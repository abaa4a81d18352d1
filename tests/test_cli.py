import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gutpatterns
from gutpatterns import (
    Domain1D,
    FieldState,
    ScanGrid,
    Verdict,
    dispersion,
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
        out = capsys.readouterr().out
        assert "turing = true" in out
        assert "ode_stable = true" in out

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
        assert set(report) == {"peak_count", "dominant_xi2", "dominant_wavelength_m",
                               "in_predicted_band", "spatial_variance"}
        snap = (out_dir / "snap_t0.csv").read_text().splitlines()
        assert snap[0] == "x,beta,gamma"
        assert len(snap) == 401

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
    # divides by zero in floating point somewhere in the subcommand; warnings
    # are errors here, so a RuntimeWarning on the way to the rejection fails.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("subcommand,config", [
        ("scan", "theta_target = 0.9999999\na_max = 1e308"),
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
    ])
    def test_float_extremes_fail_with_one_error_line(self, tmp_path, capsys, subcommand, config):
        cfg, out = tmp_path / "cfg", tmp_path / "out"
        cfg.write_text(SMALL_SIM + config + "\n")
        before = {f: f.is_file() and f.read_bytes() for f in tmp_path.rglob("*")}
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert {f: f.is_file() and f.read_bytes() for f in tmp_path.rglob("*")} == before

    def test_failed_step_keeps_manifest(self, tmp_path, capsys):
        # a small s_b makes the explicit killing term overshoot at t=1
        cfg = tmp_path / "cfg"
        cfg.write_text("n_points = 64\nlength = 0.001\nt_end = 10\nsnapshot_every = 10\n"
                       "ic = perturbation\nnoise_rel = 1\ns_b = 1e13\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "negativity" in err[0]
        assert (tmp_path / "out" / "manifest").exists()


def csv_reference(header: str, rows) -> str:
    """CSV text formatted value by value with _fmt: the writers' reference."""
    return "\n".join([header] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"


def scan_csv_reference(grid: ScanGrid) -> str:
    rows = [[float(r_c)] + [int(v) for v in codes] for r_c, codes in zip(grid.r_c_axis, grid.verdicts)]
    return csv_reference("," + ",".join(_fmt(float(a)) for a in grid.a_axis), rows)


class TestWritersMatchReference:
    def test_scan_csv_every_code(self, tmp_path):
        # first column all INFEASIBLE; axis values that repr spells out in full
        codes = np.array([[-1, 0, 1, 2], [-1, 2, 1, 0], [-1, 1, 1, 1], [-1, 2, 2, 2]], dtype=np.int8)
        grid = ScanGrid(r_c_axis=np.array([1e-3, 0.1 + 0.2, 5e-324, 1e16]),
                        a_axis=np.array([0.05, 1.0 / 3.0, 0.7, 1.0]), verdicts=codes)
        write_scan_csv(grid, tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_text() == scan_csv_reference(grid)

    @pytest.mark.parametrize("codes", [
        # consecutive equal rows, then a change, then equal again
        [[2, 2, 1], [2, 2, 1], [2, 2, 1], [0, 2, 1], [0, 2, 1]],
        # a row equal to an earlier, non-adjacent row
        [[0, 1, 2], [2, 1, 0], [0, 1, 2], [2, 1, 0]],
        # rows that differ from the row above only in their last cell
        [[1, 2, 0, 2], [1, 2, 0, 1], [1, 2, 0, -1], [1, 2, 0, -1]],
        # one row only
        [[0, 2, -1, 1, 2]],
        # an all-INFEASIBLE row between others, and one at the end
        [[-1, 2, 1], [-1, -1, -1], [0, 2, -1], [-1, -1, -1]],
    ], ids=["repeats", "non-adjacent", "last-cell", "one-row", "all-infeasible"])
    def test_scan_csv_row_reuse(self, tmp_path, codes):
        verdicts = np.array(codes, dtype=np.int8)
        n_rows, n_cols = verdicts.shape
        grid = ScanGrid(r_c_axis=np.linspace(1e-3, 5e-2, n_rows),
                        a_axis=np.linspace(0.05, 1.0, n_cols), verdicts=verdicts)
        write_scan_csv(grid, tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_text() == scan_csv_reference(grid)

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

    def test_snapshot(self, tmp_path, rng):
        # domains A, B, A, then C (A's n_points, another length): a row
        # template kept from another domain would put the wrong x in the file
        b_i = 1e17
        special_beta = [0.0, 5e-324, 1e16, np.nextafter(1.0, 0.0) * b_i, 3e16 / 7.0]
        special_gamma = [1e16, 0.0, 5e-324, 2.5, 1.0 / 3.0]
        dom_a = Domain1D(length=0.03, n_points=32)
        dom_b = Domain1D(length=0.011, n_points=19)
        dom_c = Domain1D(length=0.011, n_points=32)
        for k, dom in enumerate([dom_a, dom_b, dom_a, dom_c]):
            n = dom.n_points - len(special_beta)
            beta = np.concatenate([special_beta, rng.uniform(0.0, b_i, n)])
            gamma = np.concatenate([special_gamma, rng.uniform(0.0, 1e16, n)])
            out_dir = tmp_path / str(k)
            out_dir.mkdir()
            write_snapshot(FieldState(time=30.0, beta=beta, gamma=gamma), dom, out_dir)
            rows = [[float(v) for v in row] for row in zip(dom.x(), beta, gamma)]
            assert (out_dir / "snap_t30.csv").read_text() == csv_reference("x,beta,gamma", rows)

    @pytest.mark.parametrize("config", ["xi2_samples = 2048\n", "xi2_samples = 333\nxi2_max = 1e9\n"])
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


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}


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


# Runs one subcommand in a fresh interpreter and prints whether scipy was loaded.
_SCIPY_PROBE = """\
import sys
from gutpatterns.cli import main
code = main(sys.argv[1:])
print(code, "scipy" in sys.modules)
"""


@pytest.mark.parametrize("subcommand,config,loads_scipy", [
    ("steady", "", False),
    ("stability", "", False),
    ("dispersion", "", False),
    ("scan", "r_c_steps = 12\na_steps = 10\n", False),
    ("simulate", SMALL_SIM, True),
])
def test_scipy_loaded_only_by_simulate(tmp_path, subcommand, config, loads_scipy):
    # scipy's import costs ~0.3 s; only the diffusion solve needs it
    cfg = tmp_path / "cfg"
    cfg.write_text(config)
    src = str(Path(gutpatterns.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.stdout.splitlines()[-1] == f"0 {loads_scipy}", proc.stderr


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
# Valid but unbounded values (t_end = 1e308, dt = 1e-300) are left out: they
# would run ~1e308 steps.
PROPERTY_VALUES = ("-1", "0", "2.5", "3", "inf", "-inf", "nan")


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
