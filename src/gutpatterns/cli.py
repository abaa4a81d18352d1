"""Command-line entry point.

Subcommands: steady, stability, dispersion, simulate, scan. Configuration is
a flat ``key = value`` file with ``#`` comments; omitted keys fall back to
the canonical defaults, and an omitted f_e is calibrated at theta_target.
Every run that passes validation writes a ``manifest`` echoing the fully
resolved configuration; feeding the manifest back as the config reproduces
the run byte for byte. A run rejected at validation (exit 1) writes
nothing.

Exit codes: 0 success, 1 validation/parse error, 2 runtime invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import analyze_pattern, check_threshold, snapshot_stats
from .errors import (
    CalibrationError,
    ConfigError,
    ConsistencyError,
    DegenerateSpectrumError,
    InvariantError,
    ParameterError,
)
from .params import DEFAULT_THETA, TABLE1, ModelParams, calibrate_fe, steady_state
from .scan import ScanGrid, Verdict, scan_region
from .solver import Domain1D, FieldState, SimConfig, check_run, simulate
from .stability import dispersion, jacobian, turing_classify, unstable_band

SUBCOMMANDS = ("steady", "stability", "dispersion", "simulate", "scan")


@dataclass
class RunConfig:
    # kinetics / transport (defaults: canonical set)
    r_b: float = TABLE1["r_b"]
    r_c: float = TABLE1["r_c"]
    d_b: float = TABLE1["d_b"]
    d_c: float = TABLE1["d_c"]
    b_i: float = TABLE1["b_i"]
    f_b: float = TABLE1["f_b"]
    a: float = TABLE1["a"]
    s_b: float = TABLE1["s_b"]
    f_e: float | None = None       # None -> calibrate at theta_target
    theta_target: float = DEFAULT_THETA
    # domain
    length: float = 0.03
    n_points: int = 3000
    # simulation
    dt: float = 1.0
    t_end: float = 20160.0
    snapshot_every: float = 1440.0
    ic: str = "spot"
    spot_center: float = 0.015
    spot_half_width: float = 5e-5
    spot_amplitude: float = 1e15
    background: float = 0.0
    noise_rel: float = 1e-3
    seed: int = 0
    # dispersion sampling
    xi2_max: float | None = None
    xi2_samples: int = 512
    # scan rectangle
    r_c_min: float = 1e-3
    r_c_max: float = 5e-2
    a_min: float = 5e-2
    a_max: float = 1.0
    r_c_steps: int = 200
    a_steps: int = 200
    # analysis
    peak_threshold: float = 0.1

    fe_calibrated: bool = False  # set by resolve(); not a config key

    def resolve(self) -> None:
        """Fill in a calibrated f_e when none was given."""
        if self.f_e is None:
            partial = ModelParams(
                r_b=self.r_b, r_c=self.r_c, d_b=self.d_b, d_c=self.d_c,
                b_i=self.b_i, f_b=self.f_b, a=self.a, s_b=self.s_b, f_e=0.0,
            )
            self.f_e = calibrate_fe(partial, self.theta_target)
            self.fe_calibrated = True

    def params(self) -> ModelParams:
        self.resolve()
        return ModelParams(
            r_b=self.r_b, r_c=self.r_c, d_b=self.d_b, d_c=self.d_c,
            b_i=self.b_i, f_b=self.f_b, a=self.a, s_b=self.s_b, f_e=self.f_e,
        )

    def domain(self) -> Domain1D:
        return Domain1D(length=self.length, n_points=self.n_points)

    def sim_config(self) -> SimConfig:
        return SimConfig(
            t_end=self.t_end, dt=self.dt, snapshot_every=self.snapshot_every,
            ic=self.ic, spot_center=self.spot_center,
            spot_half_width=self.spot_half_width,
            spot_amplitude=self.spot_amplitude, background=self.background,
            noise_rel=self.noise_rel, seed=self.seed,
        )


_INT_KEYS = {"n_points", "seed", "xi2_samples", "r_c_steps", "a_steps"}
_STR_KEYS = {"ic"}
_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"fe_calibrated"}


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value configuration text."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in _STR_KEYS:
                parsed = value
            elif key in _INT_KEYS:
                parsed = int(value)
            else:
                parsed = float(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
        if key not in _STR_KEYS and not math.isfinite(parsed):
            raise ConfigError(f"line {lineno}: {key} must be finite")
        setattr(cfg, key, parsed)
    try:
        cfg.params()  # triggers validation and calibration early
        cfg.domain()
    except (ParameterError, CalibrationError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_manifest(cfg: RunConfig, out_dir: Path) -> None:
    cfg.resolve()
    lines = ["# resolved configuration; reusable as --config"]
    if cfg.fe_calibrated:
        lines.append("# f_e was calibrated from theta_target")
    for f in fields(RunConfig):
        if f.name == "fe_calibrated":
            continue
        value = getattr(cfg, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {_fmt(value)}")
    (out_dir / "manifest").write_text("\n".join(lines) + "\n")


def _write_columns(path: Path, header: str, *columns: np.ndarray) -> None:
    """Write equal-length float columns as CSV rows, each value as its repr."""
    text = [map(repr, column.tolist()) for column in columns]
    with path.open("w") as f:
        f.write(header + "\n")
        f.writelines(",".join(row) + "\n" for row in zip(*text))


def _snapshot_name(t: float) -> str:
    minutes = int(round(t))
    if abs(t - minutes) < 1e-9:
        return f"snap_t{minutes}.csv"
    return f"snap_t{_fmt(t)}.csv"


def write_snapshot(state: FieldState, dom: Domain1D, out_dir: Path) -> None:
    _write_columns(out_dir / _snapshot_name(state.time), "x,beta,gamma",
                   dom.x(), state.beta, state.gamma)


# "<code>," per Verdict, indexed by code - min(Verdict); S3 pads the two-byte
# tokens with a NUL, which write_scan_csv strips.
_VERDICT_OFFSET = -min(Verdict)
_VERDICT_TOKENS = np.array(
    [f"{int(Verdict(code))},".encode() for code in range(min(Verdict), max(Verdict) + 1)],
    dtype="S3",
)


def write_scan_csv(grid: ScanGrid, path: Path) -> None:
    """Header of a values, then one row per r_c: the r_c value and its codes."""
    with path.open("wb") as f:
        f.write(("," + ",".join(map(repr, grid.a_axis.tolist())) + "\n").encode())
        for r_c, codes in zip(grid.r_c_axis.tolist(), grid.verdicts):
            cells = _VERDICT_TOKENS[codes + _VERDICT_OFFSET].tobytes().replace(b"\0", b"")
            f.write(f"{r_c!r},".encode() + cells[:-1] + b"\n")


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def run(subcommand: str, cfg: RunConfig, out_dir: Path) -> int:
    """Execute one subcommand; returns the process exit status."""
    p = cfg.params()
    # Everything that can reject the config runs before anything is written,
    # so a run that exits 1 leaves no files; a simulate run that fails while
    # stepping keeps its manifest.
    if subcommand == "scan":
        grid = scan_region(
            p,
            (cfg.r_c_min, cfg.r_c_max),
            (cfg.a_min, cfg.a_max),
            (cfg.r_c_steps, cfg.a_steps),
            theta=cfg.theta_target,
        )
    else:
        eq = steady_state(p)
        j = jacobian(p, eq)
    if subcommand == "dispersion":
        curve = dispersion(p, j, xi2_max=cfg.xi2_max, samples=cfg.xi2_samples)
    if subcommand == "simulate":
        dom, sim = cfg.domain(), cfg.sim_config()
        check_run(p, dom, sim)
        check_threshold(cfg.peak_threshold)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(cfg, out_dir)

    if subcommand == "steady":
        print(f"beta_bar = {_fmt(eq.beta_bar)}")
        print(f"gamma_bar = {_fmt(eq.gamma_bar)}")
        print(f"theta = {_fmt(eq.theta)}")
        return 0

    if subcommand == "stability":
        verdict = turing_classify(p, eq, j)
        print(f"trace = {_fmt(verdict.trace)}")
        print(f"det = {_fmt(verdict.det)}")
        print(f"ode_stable = {str(verdict.ode_stable).lower()}")
        print(f"turing_condition_value = {_fmt(verdict.turing_condition_value)}")
        print(f"turing = {str(verdict.turing).lower()}")
        return 0

    if subcommand == "dispersion":
        _write_columns(out_dir / "dispersion.csv", "xi2,growth_rate",
                       curve.xi2_samples, curve.growth_rates)
        band = unstable_band(curve)
        if band is None:
            print("unstable_band = empty")
        else:
            print(f"lambda_minus = {_fmt(band[0])}")
            print(f"lambda_plus = {_fmt(band[1])}")
        return 0

    if subcommand == "simulate":
        curve = dispersion(p, j)
        band = unstable_band(curve)
        snapshots = simulate(p, dom, sim)
        series_rows = []
        for state in snapshots:
            write_snapshot(state, dom, out_dir)
            stats = snapshot_stats(state, dom, cfg.peak_threshold)
            series_rows.append([stats["t"], stats["beta_variance"], stats["gamma_variance"],
                                stats["beta_max"], stats["peak_count"]])
        report = analyze_pattern(snapshots[-1], dom, band,
                                 beta_ref=eq.beta_bar, rel_threshold=cfg.peak_threshold)
        report_kv = {
            "peak_count": report.peak_count,
            "dominant_xi2": report.dominant_xi2,
            "dominant_wavelength_m": report.dominant_wavelength,
            "in_predicted_band": report.in_predicted_band,
            "spatial_variance": report.spatial_variance,
        }
        lines = ["t,beta_variance,gamma_variance,beta_max,peak_count"]
        for row in series_rows:
            lines.append(",".join(_fmt(v) for v in row))
        for key, value in report_kv.items():
            lines.append(f"# {key} = {_fmt(value)}")
        (out_dir / "series.csv").write_text("\n".join(lines) + "\n")
        (out_dir / "report.json").write_text(
            json.dumps({k: _json_safe(v) for k, v in report_kv.items()}, indent=2) + "\n"
        )
        print(f"snapshots = {len(snapshots)}")
        print(f"peak_count = {report.peak_count}")
        print(f"in_predicted_band = {str(report.in_predicted_band).lower()}")
        return 0

    if subcommand == "scan":
        write_scan_csv(grid, out_dir / "scan.csv")
        print(f"turing_cells = {np.count_nonzero(grid.verdicts == Verdict.TURING)}")
        return 0

    raise ConfigError(f"unknown subcommand {subcommand!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gutpatterns",
        description="Bacteria-phagocyte reaction-diffusion model: analysis, simulation, scans.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text() if args.config is not None else ""
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.seed = args.seed
        return run(args.subcommand, cfg, args.out)
    except (ConfigError, ParameterError, CalibrationError, DegenerateSpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvariantError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
