"""Command-line interface: ``ppcavity run``, ``compare`` and ``check-invariants``.

README's "Command line" section states the subcommands, their flags, the
overrides, the CSV and the sidecar.  Every engine returns one
:class:`EngineResult`, which :func:`cmd_run` writes the same way for all.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import RunConfig, parse_config, parse_value, serialize_config, validate_config
from .errors import CavityError
from .initialization import init_points
from .invariants import DEFAULT_POINTS, DEFAULT_SEED, run_all
from .jc import jc_sde_system, per_mode_amplitudes, phase_init_sampler
from .maxwell_bloch import BLOCH_BOUND_SLACK, evolve_mb
from .observables import observable_bundle, physical_columns, physical_observable_bundle
from .physical import join_phys, physical_init_sampler, physical_sde_system
from .reference import TruncatedSpace, evolve, initial_density
from .sde import run_ensemble

ENV_PREFIX = "PPCAVITY_"
DIVERGENCE_WARNING_FRACTION = 0.01
#: an SDE run warns when a column's stderr peaks above this multiple of its
#: median over the grid (``EnsembleResult.stderr_spikes``): the mark of an
#: excursion that stays under the divergence threshold
STDERR_SPIKE_WARNING = 5.0
#: the reference warns when the density matrix has an eigenvalue below this
EIGENVALUE_WARNING_FLOOR = -1e-8
#: rows that ``write_csv`` formats at once
_CSV_ROWS = 512
#: the BLAS thread settings that the sidecar's ``environment`` records
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _override(flag, name, kind):
    """The flag's value, else that of the environment variable ``name``, else None."""
    raw = os.environ.get(ENV_PREFIX + name)
    if flag is None and raw is not None:
        return parse_value(raw, kind, f"environment variable {ENV_PREFIX}{name}")
    return flag


def write_csv(path, times, names, columns, stderr=None):
    """Full round-trip precision CSV with the documented column order.

    Rows are formatted and written ``_CSV_ROWS`` at a time, so no copy of
    the whole table, as an array or as Python floats, is ever held.
    """
    header = ["t"]
    fields = [np.asarray(times)]
    for j, name in enumerate(names):
        header += [f"real_{name}", f"imag_{name}"]
        fields += [np.real(columns[j]), np.imag(columns[j])]
        if stderr is not None:
            header.append(f"stderr_{name}")
            fields.append(stderr[j])
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, len(fields[0]), _CSV_ROWS):
            rows = np.column_stack([f[start : start + _CSV_ROWS] for f in fields])
            # the bytes csv.writer writes for floats (repr, CRLF), one row at a time
            handle.writelines(
                ",".join(map(repr, row)) + "\r\n" for row in rows.astype(float, copy=False).tolist()
            )


def read_csv(path):
    """Header and (rows, columns) data of a CSV; ValueError names the file,
    and the line of a row whose field count is not the header's or that holds
    a field that is not a number."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or not rows[0]:
        raise ValueError(f"{path}: empty file, no header")
    header, rows = rows[0], rows[1:]
    data = np.empty((len(rows), len(header)))
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line} has {len(row)} of {len(header)} fields")
        try:
            data[line - 2] = row
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
    return header, data


def _environment():
    """The Python, numpy and BLAS versions and the BLAS thread settings of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {name: os.environ.get(name) for name in _THREAD_VARS},
    }


def _json(value, **kwargs):
    """``value`` as strict JSON text: a non-finite float is written as null."""
    finite = json.loads(json.dumps(value), parse_constant=lambda constant: None)
    return json.dumps(finite, allow_nan=False, **kwargs)


def _write_sidecar(out_path, cfg: RunConfig, extra):
    text = serialize_config(cfg)
    meta = {
        "version": __version__,
        "engine": cfg.engine,
        "master_seed": cfg.master_seed,
        "config": text,
        "config_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "environment": _environment(),
    }
    meta.update(extra)
    with open(str(out_path) + ".meta.json", "w") as handle:
        handle.write(_json(meta, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class EngineResult:
    """One engine run as ``cmd_run`` writes it: the CSV's times, names, values
    (points, observables) and standard errors (``None`` for a deterministic
    engine), the sidecar entries, the stdout summary and the stderr warnings."""

    times: np.ndarray
    names: tuple
    values: np.ndarray
    stderr: np.ndarray | None
    diagnostics: dict
    summary: str
    warnings: tuple


def _run_ensemble(cfg: RunConfig, system, sampler, bundle) -> EngineResult:
    """The one ensemble call of both SDE engines, on the grid and seed of ``cfg``."""
    res = run_ensemble(
        system,
        sampler,
        cfg.grid(),
        cfg.runs,
        cfg.master_seed,
        bundle,
        divergence_threshold=cfg.divergence_threshold,
    )
    fraction = res.runs_diverged / res.runs_requested
    diagnostics = res.diagnostics
    spike = diagnostics["stderr_spike"]
    warnings = []
    if fraction > DIVERGENCE_WARNING_FRACTION:
        warnings.append(
            f"warning: divergent fraction {fraction:.2%} exceeds "
            f"{DIVERGENCE_WARNING_FRACTION:.0%}; statistics are suspect"
        )
    if spike is not None and spike > STDERR_SPIKE_WARNING:
        warnings.append(
            f"warning: a standard error peaks at {spike:.3g} times its median "
            f"(above {STDERR_SPIKE_WARNING:g}); an excursion under the divergence "
            "threshold may bias the mean"
        )
    summary = (
        f"{cfg.engine}: {res.runs_completed}/{res.runs_requested} runs "
        f"completed ({res.runs_diverged} diverged) -> {cfg.out}"
    )
    return EngineResult(
        times=res.grid.times, names=res.names, values=res.mean, stderr=res.stderr,
        diagnostics=diagnostics, summary=summary, warnings=tuple(warnings),
    )


def _run_deterministic(cfg: RunConfig, params, traj) -> EngineResult:
    """A ``reference`` or ``mb`` trajectory, its physical coordinates read as observables."""
    diagnostics = traj.diagnostics
    low = diagnostics.get("min_eigenvalue", 0.0)
    bloch = diagnostics.get("max_bloch_violation", 0.0)
    warnings = []
    if low < EIGENVALUE_WARNING_FLOOR:
        warnings.append(
            f"warning: minimum density-matrix eigenvalue {low:.3e} "
            f"is below {EIGENVALUE_WARNING_FLOOR:.0e}; the reference lost positivity"
        )
    if not np.isfinite(bloch):
        warnings.append("warning: the trajectory overflowed during the run")
    elif bloch > BLOCH_BOUND_SLACK:
        warnings.append(f"warning: Bloch-sphere bound violated by {bloch:.3e} during the run")
    with np.errstate(all="ignore"):  # an overflowed trajectory holds inf and nan
        values = physical_columns(params, cfg.observables, cfg.probes)(traj.phys)
    return EngineResult(
        times=traj.times, names=cfg.observables, values=values, stderr=None,
        diagnostics=diagnostics, summary=f"{cfg.engine}: wrote {cfg.out}",
        warnings=tuple(warnings),
    )


def run_sde_jc(cfg: RunConfig) -> EngineResult:
    params, family = cfg.model_params(), cfg.family()
    dist = init_points(cfg.atomic_density(), family)
    return _run_ensemble(
        cfg,
        jc_sde_system(params, family),
        phase_init_sampler(params, family, cfg.alpha, dist),
        observable_bundle(params, family, cfg.observables, cfg.probes),
    )


def run_sde_physical(cfg: RunConfig) -> EngineResult:
    params, family = cfg.model_params(), cfg.family()
    dist = init_points(cfg.atomic_density(), family)
    return _run_ensemble(
        cfg,
        physical_sde_system(params),
        physical_init_sampler(family, phase_init_sampler(params, family, cfg.alpha, dist)),
        physical_observable_bundle(params, cfg.observables, cfg.probes),
    )


def run_reference(cfg: RunConfig) -> EngineResult:
    params = cfg.model_params()
    space = TruncatedSpace((cfg.n_max,) * params.mode_count)
    rho0 = initial_density(params, space, cfg.alpha, cfg.atomic_density())
    return _run_deterministic(cfg, params, evolve(params, rho0, cfg.grid(), space))


def run_mb(cfg: RunConfig) -> EngineResult:
    params = cfg.model_params()
    atom = cfg.atomic_density()
    alpha = per_mode_amplitudes(cfg.alpha, params.mode_count)
    rho21 = complex(atom.rho21)
    phys0 = join_phys(
        2.0 * alpha.real, 2.0 * alpha.imag, rho21, np.conj(rho21), (atom.rho22 - atom.rho11).real
    )
    return _run_deterministic(cfg, params, evolve_mb(params, phys0, cfg.grid()))


def cmd_run(args) -> int:
    with open(args.config) as handle:
        cfg = parse_config(handle.read())
    overrides = {
        "master_seed": _override(args.seed, "SEED", "int"),
        "runs": _override(args.runs, "RUNS", "int"),
        "out": _override(args.out, "OUT", "str"),
    }
    overrides = {field: value for field, value in overrides.items() if value is not None}
    if overrides:
        cfg = replace(cfg, **overrides)
        validate_config(cfg)
    if cfg.out is None:
        print("error: no output path (set out in [run] or pass --out)", file=sys.stderr)
        return 2

    # looked up at call time, so a wrapped run_* is the one that runs
    engines = {
        "sde-jc": run_sde_jc,
        "sde-mb-experimental": run_sde_physical,
        "reference": run_reference,
        "mb": run_mb,
    }
    result = engines[cfg.engine](cfg)
    stderr = None if result.stderr is None else result.stderr.T
    write_csv(cfg.out, result.times, result.names, result.values.T, stderr)
    _write_sidecar(cfg.out, cfg, result.diagnostics)
    print(result.summary)
    for line in result.warnings:
        print(line, file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    header_a, data_a = read_csv(args.first)
    header_b, data_b = read_csv(args.second)
    shared = [h for h in header_a if h in header_b and h != "t"]
    if not shared:
        print("error: no shared value columns", file=sys.stderr)
        return 2
    if data_a.shape[0] != data_b.shape[0]:
        print(
            f"error: row count mismatch ({data_a.shape[0]} vs {data_b.shape[0]})",
            file=sys.stderr,
        )
        return 2
    for path, header in ((args.first, header_a), (args.second, header_b)):
        if "t" not in header:
            print(f"error: {path}: no t column", file=sys.stderr)
            return 2
    t_a, t_b = data_a[:, header_a.index("t")], data_b[:, header_b.index("t")]
    differ = np.flatnonzero(t_a != t_b)
    if differ.size:
        row = differ[0]
        print(f"error: t differs at line {row + 2} ({t_a[row]} vs {t_b[row]})", file=sys.stderr)
        return 2
    print("column,max_abs,rms")
    for name in shared:
        diff = data_a[:, header_a.index(name)] - data_b[:, header_b.index(name)]
        max_abs = float(np.abs(diff).max()) if diff.size else 0.0
        rms = float(np.sqrt(np.mean(diff**2))) if diff.size else 0.0
        print(f"{name},{max_abs!r},{rms!r}")
    return 0


def cmd_check_invariants(args) -> int:
    seed, points = DEFAULT_SEED, DEFAULT_POINTS
    if args.config:
        with open(args.config) as handle:
            cfg = parse_config(handle.read())
        seed, points = cfg.invariants_seed, cfg.invariants_points
    seed = seed if args.seed is None else args.seed
    points = points if args.points is None else args.points
    report = run_all(seed=seed, points=points)
    text = _json(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(
            f"{status} {check['name']}: max_error={check['max_error']:.3e} "
            f"tolerance={check['tolerance']:.1e}",
            file=sys.stderr,
        )
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppcavity",
        description="Positive-P phase-space simulations of a two-level atom "
        "in a multimode cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the engine selected in the config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--runs", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="per-column deviation of two CSV files")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    p_cmp.set_defaults(func=cmd_compare)

    p_inv = sub.add_parser("check-invariants", help="run the property suites")
    p_inv.add_argument("--config", default=None)
    p_inv.add_argument("--seed", type=int, default=None)
    p_inv.add_argument("--points", type=int, default=None)
    p_inv.add_argument("--out", default=None)
    p_inv.set_defaults(func=cmd_check_invariants)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CavityError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
