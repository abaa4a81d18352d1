"""Command-line entry point.

Subcommands: steady, stability, dispersion, simulate, scan. Configuration is
a flat ``key = value`` file with ``#`` comments; omitted keys take their
:data:`DEFAULTS`, which are those of ``TABLE1``, ``Domain1D`` and
``SimConfig``, and an omitted f_e is calibrated at theta_target. Every run
that passes validation writes a ``manifest`` echoing the fully resolved
configuration; feeding the manifest back as the config reproduces the run
byte for byte. A run rejected at validation (exit 1) writes nothing.

Exit codes: 0 success, 1 validation/parse error, 2 runtime invariant
violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .analysis import PEAK_THRESHOLD, analyze_pattern, check_threshold, snapshot_stats
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
from .stability import DISPERSION_SAMPLES, dispersion, jacobian, turing_classify, unstable_band


# Every config key with its default, in manifest order. A key's type is that
# of its default; a default of None stands for a float with no fixed value.
DEFAULTS = {
    **TABLE1,
    "f_e": None,  # calibrated at theta_target
    "theta_target": DEFAULT_THETA,
    **{f.name: f.default for cls in (Domain1D, SimConfig) for f in fields(cls)},
    "xi2_max": None,  # dispersion picks its own range
    "xi2_samples": DISPERSION_SAMPLES,
    # the (r_c, a) scan rectangle
    "r_c_min": 1e-3,
    "r_c_max": 5e-2,
    "a_min": 5e-2,
    "a_max": 1.0,
    "r_c_steps": 200,
    "a_steps": 200,
    "peak_threshold": PEAK_THRESHOLD,
}


class RunConfig:
    """One attribute per :data:`DEFAULTS` key, plus ``fe_calibrated``, which
    :meth:`resolve` sets when it calibrates f_e."""

    def __init__(self):
        self.__dict__.update(DEFAULTS)
        self.fe_calibrated = False

    def _project(self, cls, **override):
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)} | override)

    def resolve(self) -> None:
        """Fill in a calibrated f_e when none was given."""
        if self.f_e is None:
            self.f_e = calibrate_fe(self._project(ModelParams, f_e=0.0), self.theta_target)
            self.fe_calibrated = True

    def params(self) -> ModelParams:
        self.resolve()
        return self._project(ModelParams)

    def domain(self) -> Domain1D:
        return self._project(Domain1D)

    def sim_config(self) -> SimConfig:
        return self._project(SimConfig)


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
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        kind = float if DEFAULTS[key] is None else type(DEFAULTS[key])
        try:
            parsed = kind(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
        if kind is not str and not math.isfinite(parsed):
            raise ConfigError(f"line {lineno}: {key} must be finite")
        setattr(cfg, key, parsed)
    try:
        cfg.params()  # triggers validation and calibration early
        cfg.domain()
    except (ParameterError, CalibrationError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _read_config(path: Path) -> str:
    """The text of a config file, which must be UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {str(path)!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {str(path)!r} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _start_outputs(cfg: RunConfig, out_dir: Path) -> None:
    """Create ``out_dir`` and write the manifest into it."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(out_dir)!r}: {exc.strerror}") from exc
    cfg.resolve()
    lines = ["# resolved configuration; reusable as --config"]
    if cfg.fe_calibrated:
        lines.append("# f_e was calibrated from theta_target")
    lines += [f"{key} = {_fmt(getattr(cfg, key))}" for key in DEFAULTS if getattr(cfg, key) is not None]
    (out_dir / "manifest").write_text("\n".join(lines) + "\n")


def _write_columns(path: Path, header: str, rows: str, *columns: np.ndarray) -> None:
    """Write CSV text: ``header``, then the ``rows`` template with its ``%r``
    fields filled in row order from equal-length float columns. ``%r`` of a
    Python float is its repr."""
    body = rows % tuple(np.column_stack(columns).ravel().tolist())
    with path.open("w") as f:
        f.write(header + "\n")
        f.write(body)


def _snapshot_name(t: float) -> str:
    minutes = int(round(t))
    if abs(t - minutes) < 1e-9:
        return f"snap_t{minutes}.csv"
    return f"snap_t{_fmt(t)}.csv"


@functools.lru_cache(maxsize=1)
def _snapshot_rows(dom: Domain1D) -> str:
    """Row template of a snapshot on ``dom``: x as its repr, then ``%r`` for
    beta and gamma. Every snapshot of a run shares it, so x is formatted once."""
    return "".join(f"{x!r},%r,%r\n" for x in dom.x().tolist())


def write_snapshot(state: FieldState, dom: Domain1D, out_dir: Path) -> None:
    _write_columns(out_dir / _snapshot_name(state.time), "x,beta,gamma",
                   _snapshot_rows(dom), state.beta, state.gamma)


# "<code>," per Verdict, indexed by code - min(Verdict); S3 pads the two-byte
# tokens with a NUL, which write_scan_csv deletes with bytes.translate.
_VERDICT_OFFSET = -min(Verdict)
_VERDICT_TOKENS = np.array(
    [f"{int(Verdict(code))},".encode() for code in range(min(Verdict), max(Verdict) + 1)],
    dtype="S3",
)


def write_scan_csv(grid: ScanGrid, path: Path) -> None:
    """Header of a values, then one row per r_c: the r_c value and its codes.
    A row whose codes equal the row above's reuses that row's cell bytes."""
    with path.open("wb", buffering=1 << 20) as f:
        f.write(("," + ",".join(map(repr, grid.a_axis.tolist())) + "\n").encode())
        last_codes, cells = None, b""
        for r_c, codes in zip(grid.r_c_axis.tolist(), grid.verdicts):
            key = codes.tobytes()
            if key != last_codes:
                last_codes = key
                cells = _VERDICT_TOKENS[codes + _VERDICT_OFFSET].tobytes().translate(None, b"\0")[:-1] + b"\n"
            f.write(f"{r_c!r},".encode())
            f.write(cells)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# Each handler below runs everything that can reject the config before it
# calls _start_outputs, so a run that exits 1 leaves no files; a simulate run
# that fails while stepping keeps its manifest.


def _linearised(cfg: RunConfig):
    p = cfg.params()
    eq = steady_state(p)
    return p, eq, jacobian(p, eq)


def _steady(cfg: RunConfig, out_dir: Path) -> None:
    eq = steady_state(cfg.params())
    _start_outputs(cfg, out_dir)
    print(f"beta_bar = {_fmt(eq.beta_bar)}")
    print(f"gamma_bar = {_fmt(eq.gamma_bar)}")
    print(f"theta = {_fmt(eq.theta)}")


def _stability(cfg: RunConfig, out_dir: Path) -> None:
    p, eq, j = _linearised(cfg)
    _start_outputs(cfg, out_dir)
    verdict = turing_classify(p, eq, j)
    print(f"trace = {_fmt(verdict.trace)}")
    print(f"det = {_fmt(verdict.det)}")
    print(f"ode_stable = {str(verdict.ode_stable).lower()}")
    print(f"turing_condition_value = {_fmt(verdict.turing_condition_value)}")
    print(f"turing = {str(verdict.turing).lower()}")


def _dispersion(cfg: RunConfig, out_dir: Path) -> None:
    p, _, j = _linearised(cfg)
    curve = dispersion(p, j, xi2_max=cfg.xi2_max, samples=cfg.xi2_samples)
    _start_outputs(cfg, out_dir)
    _write_columns(out_dir / "dispersion.csv", "xi2,growth_rate",
                   "%r,%r\n" * curve.xi2_samples.size, curve.xi2_samples, curve.growth_rates)
    band = unstable_band(curve)
    if band is None:
        print("unstable_band = empty")
    else:
        print(f"lambda_minus = {_fmt(band[0])}")
        print(f"lambda_plus = {_fmt(band[1])}")


def _simulate(cfg: RunConfig, out_dir: Path) -> None:
    p, eq, j = _linearised(cfg)
    band = unstable_band(dispersion(p, j))
    dom, sim = cfg.domain(), cfg.sim_config()
    check_run(p, dom, sim)
    check_threshold(cfg.peak_threshold)
    _start_outputs(cfg, out_dir)
    snapshots = simulate(p, dom, sim)
    lines = ["t,beta_variance,gamma_variance,beta_max,peak_count"]
    for state in snapshots:
        write_snapshot(state, dom, out_dir)
        lines.append(",".join(map(_fmt, snapshot_stats(state, dom, cfg.peak_threshold).values())))
    report = analyze_pattern(snapshots[-1], dom, band,
                             beta_ref=eq.beta_bar, rel_threshold=cfg.peak_threshold)
    report_kv = {
        "peak_count": report.peak_count,
        "dominant_xi2": report.dominant_xi2,
        "dominant_wavelength_m": report.dominant_wavelength,
        "in_predicted_band": report.in_predicted_band,
        "spatial_variance": report.spatial_variance,
    }
    lines += [f"# {key} = {_fmt(value)}" for key, value in report_kv.items()]
    (out_dir / "series.csv").write_text("\n".join(lines) + "\n")
    (out_dir / "report.json").write_text(
        json.dumps({k: _json_safe(v) for k, v in report_kv.items()}, indent=2) + "\n"
    )
    print(f"snapshots = {len(snapshots)}")
    print(f"peak_count = {report.peak_count}")
    print(f"in_predicted_band = {str(report.in_predicted_band).lower()}")


def _scan(cfg: RunConfig, out_dir: Path) -> None:
    grid = scan_region(cfg.params(), (cfg.r_c_min, cfg.r_c_max), (cfg.a_min, cfg.a_max),
                       (cfg.r_c_steps, cfg.a_steps), theta=cfg.theta_target)
    _start_outputs(cfg, out_dir)
    write_scan_csv(grid, out_dir / "scan.csv")
    print(f"turing_cells = {np.count_nonzero(grid.verdicts == Verdict.TURING)}")


_HANDLERS = {"steady": _steady, "stability": _stability, "dispersion": _dispersion,
             "simulate": _simulate, "scan": _scan}
SUBCOMMANDS = tuple(_HANDLERS)


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
        cfg = parse_config(_read_config(args.config) if args.config is not None else "")
        if args.seed is not None:
            cfg.seed = args.seed
        _HANDLERS[args.subcommand](cfg, args.out)
        return 0
    except (ConfigError, ParameterError, CalibrationError, DegenerateSpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvariantError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
