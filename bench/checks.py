"""Correctness checks of every engine run's output.

* Stochastic runs are checked against the Fock oracle by the acceptance
  criterion-1 rule: at every stored sample, the real and the imaginary part
  of each column satisfy |mean - oracle| <= 4 stderr + floor.  The floor is
  ``SDE_FLOOR`` times the column's scale; it is needed where a column's
  stderr is zero (the field columns at t = 0, where the oracle still carries
  its cutoff error of about 1e-4 of the scale).
* Deterministic runs (``reference``, ``mb``) are compared with samples of the
  same run stored at the seed commit, within ``EXACT_ATOL`` of the column's
  scale.  The tolerance admits roundoff, BLAS threading and a change of
  integrator (exact propagation instead of RK4 differs by ~1e-7 on these
  grids); it does not admit a changed physical result.
* ``check-invariants`` must exit 0 and report ``passed``.

``self_check`` perturbs one column and requires the check to fail, so a check
that compares nothing cannot pass unnoticed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
SDE_SIGMAS = 4.0
SDE_FLOOR = 1e-3
EXACT_ATOL = 1e-6
#: perturbations for the self-check: a population error of 0.2 for an
#: ensemble, and 100 times the tolerance for a deterministic run
SDE_PERTURBATION = 0.2
EXACT_PERTURBATION = 1e-4


def load_samples(name):
    with open(DATA / name) as handle:
        raw = json.load(handle)
    return {
        "rows": np.asarray(raw["rows"], dtype=int),
        "t": np.asarray(raw["t"], dtype=float),
        "columns": {
            key: np.array([complex(re, im) for re, im in values])
            for key, values in raw["columns"].items()
        },
    }


class Output:
    """One CSV written by ``ppcavity run``, indexed by column name."""

    def __init__(self, path):
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            self.header = next(reader)
            self.data = np.array([[float(x) for x in row] for row in reader])

    def has(self, name):
        return f"real_{name}" in self.header

    def value(self, name):
        re = self.data[:, self.header.index(f"real_{name}")]
        im = self.data[:, self.header.index(f"imag_{name}")]
        return re + 1j * im

    def stderr(self, name):
        return self.data[:, self.header.index(f"stderr_{name}")]

    def perturbed(self, name, offset):
        out = object.__new__(Output)
        out.header = self.header
        out.data = self.data.copy()
        out.data[:, self.header.index(f"real_{name}")] += offset
        return out


def _within(output, samples):
    """The stored samples on the output's grid, which may be a prefix of theirs."""
    keep = samples["rows"] < output.data.shape[0]
    rows = samples["rows"][keep]
    if rows.size < 2:
        return None, "output shorter than two stored samples"
    scale = max(1.0, float(np.abs(samples["t"]).max()))
    if not np.all(np.abs(output.data[rows, 0] - samples["t"][keep]) <= 1e-12 * scale):
        return None, "time column differs from the stored grid"
    return keep, ""


def check_ensemble(output, samples):
    """Criterion-1 rule; returns (passed, detail)."""
    keep, detail = _within(output, samples)
    if keep is None:
        return False, detail
    rows = samples["rows"][keep]
    worst, worst_name = -1.0, ""
    for name, ref in samples["columns"].items():
        if not output.has(name):
            return False, f"column {name} missing"
        ref = ref[keep]
        mean = output.value(name)[rows]
        tol = SDE_SIGMAS * output.stderr(name)[rows] + SDE_FLOOR * max(1.0, np.abs(ref).max())
        ratio = np.maximum(np.abs(mean.real - ref.real), np.abs(mean.imag - ref.imag)) / tol
        col_worst = float("inf") if np.isnan(ratio).any() else float(ratio.max())
        if col_worst > worst:
            worst, worst_name = col_worst, name
    return worst <= 1.0, f"worst |mean - oracle| / (4 stderr + floor) = {worst:.3f} ({worst_name})"


def check_exact(output, samples):
    """Deterministic output against stored samples; returns (passed, detail)."""
    keep, detail = _within(output, samples)
    if keep is None:
        return False, detail
    rows = samples["rows"][keep]
    worst, worst_name = -1.0, ""
    for name, ref in samples["columns"].items():
        if not output.has(name):
            return False, f"column {name} missing"
        ref = ref[keep]
        err = np.abs(output.value(name)[rows] - ref) / max(1.0, np.abs(ref).max())
        col_worst = float("inf") if np.isnan(err).any() else float(err.max())
        if col_worst > worst:
            worst, worst_name = col_worst, name
    return worst <= EXACT_ATOL, f"worst scaled |output - stored| = {worst:.2e} ({worst_name})"


def check_invariants(path):
    with open(path) as handle:
        report = json.load(handle)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    passed = bool(report["passed"]) and not failed
    return passed, f"{len(report['checks']) - len(failed)}/{len(report['checks'])} invariant checks pass"


def check_run(run, out_path, exit_code, steps):
    """Check one engine run; returns (passed, detail)."""
    if exit_code != 0:
        return False, f"exit code {exit_code}"
    if run.command == "check-invariants":
        return check_invariants(out_path)
    output = Output(out_path)
    if output.data.shape[0] != steps + 1:
        return False, f"{output.data.shape[0]} rows for {steps} steps"
    samples = load_samples(run.samples)
    check = check_ensemble if run.engine.startswith("sde") else check_exact
    return check(output, samples)


def self_check(run, out_path):
    """The check must reject this output with one column perturbed.

    Returns (check is not vacuous, detail); runs without stored samples
    (check-invariants) return (True, "").
    """
    if run.samples is None:
        return True, ""
    output = Output(out_path)
    samples = load_samples(run.samples)
    name = next(iter(samples["columns"]))
    if run.engine.startswith("sde"):
        offset, check = SDE_PERTURBATION, check_ensemble
    else:
        scale = max(1.0, float(np.abs(samples["columns"][name]).max()))
        offset, check = EXACT_PERTURBATION * scale, check_exact
    passed, _ = check(output.perturbed(name, offset), samples)
    return (not passed), f"{run.label}: +{offset:g} on real_{name} is {'accepted' if passed else 'rejected'}"
