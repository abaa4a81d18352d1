import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gutpatterns.cli import SUBCOMMANDS, RunConfig, main, parse_config
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
                 "noise_rel", "spot_amplitude", "background", "theta_target", "peak_threshold")
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


# The space is 11 x 7 x 5 = 385 cases; Hypothesis stops once it has tried them all.
@settings(max_examples=500, deadline=None, database=None)
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
