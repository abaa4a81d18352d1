"""The benchmark's workloads: the config file each hands the CLI, and the
checks on what the CLI wrote.

The CLI sees only the generated config file. Each workload's reason is in
NOTES.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCAN_SAMPLE_CELLS = 256  # cells re-classified by the scalar oracle per scan run


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    keys: dict  # config keys set on top of the CLI defaults

    def config_text(self, seed: int) -> str:
        keys = {**self.keys, "seed": config_seed(seed)}
        return "".join(f"{k} = {v}\n" for k, v in keys.items())

    def work_units(self) -> tuple[float, str]:
        """(units of work in one run, their name) for the throughput line."""
        if self.subcommand == "scan":
            return self.keys["r_c_steps"] * self.keys["a_steps"], "cells"
        steps = round(self.keys["t_end"] / self.keys["dt"])
        return self.keys["n_points"] * steps, "node_steps"


CANONICAL_SIM = {"n_points": 3000, "dt": 1.0, "t_end": 20160.0, "snapshot_every": 1440.0, "ic": "spot"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("canonical", "simulate", CANONICAL_SIM),
        Workload("fine_output", "simulate", {
            **CANONICAL_SIM, "n_points": 30000, "t_end": 1440.0, "snapshot_every": 30.0,
            "ic": "perturbation",
        }),
        Workload("phase_scan", "scan", {"r_c_steps": 3000, "a_steps": 3000}),
    )
}


def config_seed(seed: int) -> int:
    """Non-negative config seed drawn from the workload seed."""
    return random.Random(seed).randrange(2**31)


def read_manifest(out_dir: Path) -> dict:
    values = {}
    for line in (out_dir / "manifest").read_text().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            values[key] = value
    return values


def check(w: Workload, subcommand: str, seed: int, out_dir: Path, stdout: str) -> list[str]:
    """Problems found in the outputs of one run of ``subcommand`` on the
    workload's config; empty when the run is correct."""
    manifest = read_manifest(out_dir)
    for key, value in {**w.keys, "seed": config_seed(seed)}.items():
        if manifest.get(key) != str(value):
            return [f"manifest {key} = {manifest.get(key)!r}, config gave {value!r}"]
    if subcommand == "scan":
        return _check_scan(w, seed, out_dir, stdout)
    if subcommand == "simulate":
        return _check_simulate(w, out_dir, stdout, float(manifest["b_i"]))
    if not stdout.startswith("beta_bar = "):
        return ["steady printed no beta_bar"]
    return []


def _check_simulate(w: Workload, out_dir: Path, stdout: str, b_i: float) -> list[str]:
    every, t_end, n = w.keys["snapshot_every"], w.keys["t_end"], w.keys["n_points"]
    times = [round(k * every) for k in range(round(t_end / every) + 1)]
    problems = []
    if f"snapshots = {len(times)}" not in stdout.splitlines():
        problems.append(f"stdout does not report {len(times)} snapshots")
    for t in times:
        path = out_dir / f"snap_t{t}.csv"
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        with path.open() as f:
            header = f.readline().strip()
            data = np.loadtxt(f, delimiter=",", ndmin=2)
        beta, gamma = data[:, 1], data[:, 2]
        if header != "x,beta,gamma" or data.shape != (n, 3):
            problems.append(f"{path.name}: header {header!r}, shape {data.shape}")
        elif not np.all(np.isfinite(data)):
            problems.append(f"{path.name}: non-finite value")
        elif not (np.all(beta >= 0.0) and np.all(beta < b_i) and np.all(gamma >= 0.0)):
            problems.append(f"{path.name}: field outside 0 <= beta < b_i, gamma >= 0")
    report = json.loads((out_dir / "report.json").read_text())
    if report.get("in_predicted_band") is not True:
        problems.append(f"report.json in_predicted_band = {report.get('in_predicted_band')!r}")
    if not report.get("peak_count", 0) >= 3:
        problems.append(f"report.json peak_count = {report.get('peak_count')!r}")
    if not (out_dir / "series.csv").is_file():
        problems.append("missing series.csv")
    return problems


def _check_scan(w: Workload, seed: int, out_dir: Path, stdout: str) -> list[str]:
    from gutpatterns import classify_point, table1_params

    rows = (out_dir / "scan.csv").read_text().splitlines()
    a_axis = [float(v) for v in rows[0].split(",")[1:]]
    body = [row.split(",", 1) for row in rows[1:]]
    n_rc, n_a = w.keys["r_c_steps"], w.keys["a_steps"]
    if len(a_axis) != n_a or len(body) != n_rc or any(cells.count(",") != n_a - 1 for _, cells in body):
        return [f"scan.csv is not {n_rc} x {n_a}"]
    # Codes are -1, 0, 1, 2, so every '2' in a row's cells is one Turing cell.
    turing = sum(cells.count("2") for _, cells in body)
    problems = []
    if f"turing_cells = {turing}" not in stdout.splitlines():
        problems.append(f"stdout turing_cells does not match the {turing} cells in scan.csv")
    base = table1_params()
    rng = random.Random(seed)
    for _ in range(SCAN_SAMPLE_CELLS):
        i, k = rng.randrange(n_rc), rng.randrange(n_a)
        r_c, cells = body[i]
        written = int(cells.split(",")[k])
        expected = int(classify_point(base, float(r_c), a_axis[k]))
        if written != expected:
            problems.append(f"cell r_c={r_c}, a={a_axis[k]!r}: scan.csv {written}, oracle {expected}")
    return problems
