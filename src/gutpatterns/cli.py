"""Command-line entry point.

Subcommands: steady, stability, dispersion, simulate, scan. Configuration is
a flat ``key = value`` file with ``#`` comments; omitted keys take their
:data:`DEFAULTS`, which are those of ``TABLE1``, ``Domain1D`` and
``SimConfig``, and an omitted f_e is calibrated at theta_target. Every run
that passes validation writes a ``manifest`` echoing the fully resolved
configuration; feeding the manifest back as the config reproduces the run
byte for byte. Each handler runs all that can reject the config before its
outputs start, so a run rejected at validation (exit 1) writes nothing;
simulate starts them at its first snapshot, made after ``solver.simulate``
checks every input, and a failed run keeps its manifest and earlier snapshots.
Only the handlers that compute on arrays (dispersion, simulate) load numpy
and the modules built on it.

Exit codes: 0 success, 1 validation/parse error, 2 runtime invariant
violation, a LAPACK that could not be loaded, an output that could not be
written or memory that could not be allocated.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import os
import sys
import warnings
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import asdict, fields
from pathlib import Path

from .errors import (
    CalibrationError,
    ConfigError,
    ConsistencyError,
    InvariantError,
    ParameterError,
)
from .params import (DEFAULT_THETA, PEAK_THRESHOLD, TABLE1, Domain1D, ModelParams, SimConfig,
                     calibrate_fe, steady_state)
from .stability import DISPERSION_SAMPLES, band_edges, dispersion, jacobian, turing_classify

# The names taken from the array layers, by module. Code here binds those it
# calls into this module's globals (_bind) before calling them, as does an
# attribute lookup (__getattr__); a name bound already, as a replacement, is kept.
_LAZY = {
    "analysis": ("analyze_pattern", "snapshot_stats"),
    "scan": ("Verdict", "scan_region"),
    "solver": ("simulate", "snapshot_times"),
}


def _bind(*modules: str) -> None:
    """Import each of ``modules`` and bind its _LAZY names here unless bound."""
    for module in modules:
        imported = importlib.import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(imported, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    :func:`parse_config` sets when it calibrates f_e."""

    def __init__(self):
        self.__dict__.update(DEFAULTS)
        self.fe_calibrated = False

    def _project(self, cls, **override):
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)} | override)

    def params(self) -> ModelParams:
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
        if cfg.f_e is None:
            cfg.f_e = calibrate_fe(cfg._project(ModelParams, f_e=0.0), cfg.theta_target)
            cfg.fe_calibrated = True
        cfg.params()  # validates
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
    lines = ["# resolved configuration; reusable as --config"]
    if cfg.fe_calibrated:
        lines.append("# f_e was calibrated from theta_target")
    lines += [f"{key} = {_fmt(getattr(cfg, key))}" for key in DEFAULTS if getattr(cfg, key) is not None]
    with _create(out_dir / "manifest") as f:
        f.write("\n".join(lines) + "\n")


@contextlib.contextmanager
def _create(path: Path, mode: str = "w", **kwargs):
    """Open ``path`` for writing. An OSError raised while it is open names
    ``path``: one from a failed write, unlike one from open, names no file."""
    try:
        with path.open(mode, **kwargs) as f:
            yield f
    except OSError as exc:
        exc.filename = exc.filename or str(path)
        raise


# Rows per block of a CSV float writer: the writer holds one block's floats
# and text at a time, never a whole column's.
_BLOCK_ROWS = 1024


def _write_columns(path: Path, header: str, templates: Iterable[str], *columns: np.ndarray) -> None:
    """Write CSV text: ``header``, then the rows of equal-length float columns,
    _BLOCK_ROWS at a time. The k-th of ``templates`` is the k-th block's row
    template, whose ``%`` fields are filled in row order from that block's
    rows: ``%r`` of a Python float is its repr, and ``%.17g`` is 17
    significant digits, which also read back as the same float. There must
    be one template per block."""
    import numpy as np
    starts = range(0, columns[0].size, _BLOCK_ROWS)
    with _create(path) as f:
        f.write(header + "\n")
        for start, rows in zip(starts, templates, strict=True):
            block = np.column_stack([column[start:start + _BLOCK_ROWS] for column in columns])
            f.write(rows % tuple(block.ravel().tolist()))


def _snapshot_name(t: float) -> str:
    minutes = int(round(t))
    if abs(t - minutes) < 1e-9:
        return f"snap_t{minutes}.csv"
    return f"snap_t{_fmt(t)}.csv"


def _snapshot_rows(dom: Domain1D) -> tuple[str, ...]:
    """Row templates of a snapshot on ``dom``, one per block of _BLOCK_ROWS
    nodes: x as its repr, then ``%.17g`` for beta and gamma. Every snapshot of
    a run shares them, so x is formatted once, a block's slice at a time.
    17 significant digits read back as the same float64, and take no search
    for the shortest digit string that repr makes."""
    x = dom.x()
    return tuple("".join(f"{v!r},%.17g,%.17g\n" for v in x[start:start + _BLOCK_ROWS].tolist())
                 for start in range(0, x.size, _BLOCK_ROWS))


def write_snapshot(state: FieldState, rows: tuple[str, ...], out_dir: Path) -> None:
    """Write ``state`` to its snapshot file, filling the row templates
    ``rows`` that :func:`_snapshot_rows` made for its domain: x as its repr,
    beta and gamma with 17 significant digits, which ``np.loadtxt`` reads
    back bitwise equal."""
    _write_columns(out_dir / _snapshot_name(state.time), "x,beta,gamma",
                   rows, state.beta, state.gamma)


def _check_snapshot_names(times: list[float]) -> None:
    """ConfigError if two snapshots at ``times`` would be written to one file."""
    first_time = {}
    for t in times:
        name = _snapshot_name(t)
        earlier = first_time.setdefault(name, t)
        if earlier != t:
            raise ConfigError(f"snapshots at t={_fmt(earlier)} and t={_fmt(t)} would both be written to {name}")


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _reap(pid: int, report: int, path: Path, status: int | None = None) -> BaseException | None:
    """The error of the child writing ``path``, or None; its pipe is drained before waitpid."""
    import pickle
    with open(report, "rb") as f:
        error = f.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1] if status is None else status)
    if error or not code:
        return pickle.loads(error) if error else None  # bytes from this process's own child
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return OSError(f"the process writing {str(path)!r} {how}")


# the start of the DeprecationWarning that os.fork gives in a multi-threaded process,
# as numpy's BLAS threads make this one
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


@contextlib.contextmanager
def _snapshot_writer(dom: Domain1D, out_dir: Path, n_snapshots: int):
    """Yield a function that writes each state it is given by write_snapshot,
    with the row templates of ``dom`` built once on entry: in a child forked
    for it while fewer than 2(k - 1) are alive, k being the usable CPUs, once
    the child forked k - 1 before it is done, so k - 1 write at once; else in
    this process. No byte depends on k. A child inherits the state and the
    templates, where a spawned worker would import numpy again and unpickle
    them; it calls no BLAS or LAPACK, whose threads predate the fork, and no
    other Python thread here can hold a lock across the fork, so the warning
    that Python >= 3.12 gives at a fork while any thread runs is ignored, and
    only that warning. It leaves by os._exit
    and pipes back only its pickled error, raised with its type by the next
    write after it ends or at the end of the with-block, which waits for every
    child and lets its own error through unchanged. A child killed by a signal
    or exiting non-zero without a report is an OSError naming its file."""
    import pickle  # these two only here, so the other subcommands never load them
    import select
    k = min(_usable_cpus(), n_snapshots) if hasattr(os, "fork") else 1
    rows = _snapshot_rows(dom)
    children = {}  # pid -> (read end of its report pipe, the file it writes)

    def write(state: FieldState) -> None:
        for pid in list(children):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done and (error := _reap(pid, *children.pop(pid), status)):
                raise error
        if len(children) >= 2 * (k - 1):
            return write_snapshot(state, rows, out_dir)
        report, report_end = os.pipe()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                if len(children) >= k - 1:  # ready once that child has ended or reported
                    select.select([list(children.values())[-(k - 1)][0]], [], [])
                write_snapshot(state, rows, out_dir)
                os._exit(0)
            except BaseException as exc:
                os.write(report_end, pickle.dumps(exc))  # an exception pickles to well under a pipe's buffer
            finally:
                os._exit(1)
        os.close(report_end)
        children[pid] = (report, out_dir / _snapshot_name(state.time))

    try:
        yield write
    finally:
        errors = [_reap(pid, *child) for pid, child in children.items()]
    for error in filter(None, errors):
        raise error


# a code's cell in a row of scan.csv, by code: INFEASIBLE's -1 takes the last
_CELLS = (b"0,", b"1,", b"2,", b"-1,")


def _scan_codes(grid: ScanGrid) -> tuple[bytearray, bytearray, dict[int, array], int]:
    """The codes of the first and the last row of ``grid``, as CSV bytes that
    end in a newline, where they differ: row -> the offsets of the bytes
    that take their last-row value from that row on, and the TURING cells.

    Every code is one byte but INFEASIBLE's "-1", and a column is INFEASIBLE
    in every row or in none, so each code sits at a fixed offset in a row.
    """
    from array import array  # an extension module, which only scan loads
    _bind("scan")
    # plain ints: a numpy int8 compares with an IntEnum ~170x slower than with an int
    infeasible, unstable, turing = (v.value for v in (Verdict.INFEASIBLE, Verdict.ODE_UNSTABLE, Verdict.TURING))
    n_rows, turing_cells = len(grid.r_c_axis), 0
    first, last, changes = bytearray(), bytearray(), defaultdict(lambda: array("q"))
    for step, code in zip(grid.steps, grid.above):
        if code == infeasible and step:
            raise ValueError("an INFEASIBLE column must have no ODE_UNSTABLE rows")
        if code == turing:  # TURING below its threshold, in n_rows - step cells
            turing_cells += n_rows - step
        first += _CELLS[unstable if step else code]
        last += _CELLS[unstable if step >= n_rows else code]
        if 0 < step < n_rows:
            changes[step].append(len(first) - 2)
    first[-1] = last[-1] = ord("\n")
    return first, last, changes, turing_cells


def write_scan_csv(grid: ScanGrid, path: Path) -> int:
    """Header of a values, then one row per r_c: the r_c value and its codes;
    returns the number of TURING cells.

    One row of bytes is kept; as the row index reaches a column's threshold,
    that column's code is overwritten in place. The changes are kept by row,
    as arrays of byte offsets, and axis values are formatted _BLOCK_ROWS at a
    time, so no Python object is kept per column or per row.
    """
    row, last, changes, turing_cells = _scan_codes(grid)
    with _create(path, "wb", buffering=1 << 16) as f:
        for start in range(0, len(grid.a_axis), _BLOCK_ROWS):
            f.write("".join(f",{v!r}" for v in grid.a_axis[start:start + _BLOCK_ROWS].tolist()).encode())
        f.write(b"\n")
        for start in range(0, len(grid.r_c_axis), _BLOCK_ROWS):
            for i, value in enumerate(grid.r_c_axis[start:start + _BLOCK_ROWS].tolist(), start):
                for at in changes.get(i, ()):
                    row[at] = last[at]
                f.write(f"{value!r},".encode())
                f.write(row)
    return turing_cells


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _print_values(**values) -> None:
    """Print one ``key = value`` line per value, a bool as true or false."""
    for key, value in values.items():
        print(f"{key} = {str(value).lower() if isinstance(value, bool) else _fmt(value)}")


def _linearised(cfg: RunConfig):
    p = cfg.params()
    eq = steady_state(p)
    return p, eq, jacobian(p, eq)


def _steady(cfg: RunConfig, out_dir: Path) -> None:
    eq = steady_state(cfg.params())
    _start_outputs(cfg, out_dir)
    _print_values(**asdict(eq))


def _stability(cfg: RunConfig, out_dir: Path) -> None:
    p, _, j = _linearised(cfg)
    _start_outputs(cfg, out_dir)
    _print_values(**asdict(turing_classify(p, j)))


def _dispersion(cfg: RunConfig, out_dir: Path) -> None:
    p, _, j = _linearised(cfg)
    curve = dispersion(p, j, xi2_max=cfg.xi2_max, samples=cfg.xi2_samples)
    _start_outputs(cfg, out_dir)
    # every full block shares one template string
    full, last = divmod(curve.xi2_samples.size, _BLOCK_ROWS)
    templates = ["%r,%r\n" * _BLOCK_ROWS] * full + (["%r,%r\n" * last] if last else [])
    _write_columns(out_dir / "dispersion.csv", "xi2,growth_rate", templates,
                   curve.xi2_samples, curve.growth_rates)
    if curve.band is None:
        _print_values(unstable_band="empty")
    else:
        _print_values(lambda_minus=curve.band[0], lambda_plus=curve.band[1])


def _simulate(cfg: RunConfig, out_dir: Path) -> None:
    import json
    _bind("analysis", "solver")
    p, eq, j = _linearised(cfg)
    band = band_edges(p, j)
    dom, sim = cfg.domain(), cfg.sim_config()
    times = snapshot_times(sim)
    _check_snapshot_names(times)
    rows = []
    with _snapshot_writer(dom, out_dir, len(times)) as write:
        def emit(state: FieldState) -> None:
            # the row comes first: detect_peaks rejects a bad peak_threshold
            rows.append(snapshot_stats(state, dom, cfg.peak_threshold))
            if len(rows) == 1:
                _start_outputs(cfg, out_dir)
            write(state)

        final, = simulate(p, dom, sim, emit=emit)
    lines = [",".join(rows[0]), *(",".join(map(_fmt, row.values())) for row in rows)]
    report = asdict(analyze_pattern(final, dom, band,
                                    beta_ref=eq.beta_bar, rel_threshold=cfg.peak_threshold))
    lines += [f"# {key} = {_fmt(value)}" for key, value in report.items()]
    with _create(out_dir / "series.csv") as f:
        f.write("\n".join(lines) + "\n")
    with _create(out_dir / "report.json") as f:
        f.write(json.dumps({k: _json_safe(v) for k, v in report.items()}, indent=2) + "\n")
    _print_values(snapshots=len(rows), peak_count=report["peak_count"],
                  in_predicted_band=report["in_predicted_band"])


def _scan(cfg: RunConfig, out_dir: Path) -> None:
    _bind("scan")
    grid = scan_region(cfg.params(), (cfg.r_c_min, cfg.r_c_max), (cfg.a_min, cfg.a_max),
                       (cfg.r_c_steps, cfg.a_steps), theta=cfg.theta_target)
    _start_outputs(cfg, out_dir)
    _print_values(turing_cells=write_scan_csv(grid, out_dir / "scan.csv"))


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
    except (ConfigError, ParameterError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvariantError, ConsistencyError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
