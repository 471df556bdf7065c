"""Command-line interface: run engines, compare CSV outputs, check invariants.

Subcommands::

    ppcavity run --config run.cfg [--seed N] [--runs N] [--out PATH]
    ppcavity compare A.csv B.csv
    ppcavity check-invariants [--config run.cfg] [--seed N] [--points N] [--out PATH]

Flags override environment variables (prefix ``PPCAVITY_``, e.g.
``PPCAVITY_SEED``), which in turn override the configuration file; overrides
are parsed and validated like the file before any engine starts.  Every run
writes a CSV (column order: t, then real_/imag_/stderr_ triples per
observable, stderr only for stochastic engines) and a JSON sidecar
``<out>.meta.json`` holding the resolved configuration, seed, and divergence
count, which suffices to reproduce the run bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    parse_config,
    parse_value,
    serialize_config,
    validate_config,
)
from .errors import CavityError
from .initialization import init_points
from .invariants import DEFAULT_POINTS, DEFAULT_SEED, run_all
from .jc import jc_sde_system, per_mode_amplitudes, phase_init_sampler
from .maxwell_bloch import evolve_mb
from .observables import observable_bundle, physical_columns, physical_observable_bundle
from .physical import join_phys, physical_init_sampler, physical_sde_system
from .reference import TruncatedSpace, evolve, initial_density
from .sde import run_ensemble

ENV_PREFIX = "PPCAVITY_"
DIVERGENCE_WARNING_FRACTION = 0.01
#: the reference warns when the density matrix has an eigenvalue below this
EIGENVALUE_WARNING_FLOOR = -1e-8


def _env_override(name, kind):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return None
    return parse_value(raw, kind, f"environment variable {ENV_PREFIX}{name}")


def write_csv(path, times, names, columns, stderr=None):
    """Full round-trip precision CSV with the documented column order."""
    header = ["t"]
    fields = [times]
    for j, name in enumerate(names):
        header += [f"real_{name}", f"imag_{name}"]
        fields += [np.real(columns[j]), np.imag(columns[j])]
        if stderr is not None:
            header.append(f"stderr_{name}")
            fields.append(stderr[j])
    rows = np.column_stack(fields).astype(float, copy=False)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows.tolist())


def read_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    data = np.array(rows) if rows else np.zeros((0, len(header)))
    return header, data


def _write_sidecar(out_path, cfg: RunConfig, extra):
    meta = {
        "version": __version__,
        "engine": cfg.engine,
        "master_seed": cfg.master_seed,
        "config": serialize_config(cfg),
        "config_sha256": hashlib.sha256(
            serialize_config(cfg).encode("utf-8")
        ).hexdigest(),
    }
    meta.update(extra)
    with open(str(out_path) + ".meta.json", "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_ensemble(cfg: RunConfig, system, sampler, bundle):
    """The one ensemble call of both SDE engines, on the grid and seed of ``cfg``."""
    return run_ensemble(
        system,
        sampler,
        cfg.grid(),
        cfg.runs,
        cfg.master_seed,
        bundle,
        divergence_threshold=cfg.divergence_threshold,
    )


def run_sde_jc(cfg: RunConfig):
    params, family = cfg.model_params(), cfg.family()
    dist = init_points(cfg.atomic_density(), family)
    return _run_ensemble(
        cfg,
        jc_sde_system(params, family),
        phase_init_sampler(params, family, cfg.alpha, dist),
        observable_bundle(params, family, cfg.observables, cfg.probes),
    )


def run_sde_physical(cfg: RunConfig):
    params, family = cfg.model_params(), cfg.family()
    dist = init_points(cfg.atomic_density(), family)
    return _run_ensemble(
        cfg,
        physical_sde_system(params),
        physical_init_sampler(family, phase_init_sampler(params, family, cfg.alpha, dist)),
        physical_observable_bundle(params, cfg.observables, cfg.probes),
    )


def run_reference(cfg: RunConfig):
    params = cfg.model_params()
    space = TruncatedSpace((cfg.n_max,) * params.mode_count)
    rho0 = initial_density(params, space, cfg.alpha, cfg.atomic_density())
    return params, evolve(params, rho0, cfg.grid(), space)


def run_mb(cfg: RunConfig):
    params = cfg.model_params()
    atom = cfg.atomic_density()
    alpha = per_mode_amplitudes(cfg.alpha, params.mode_count)
    rho21 = complex(atom.rho21)
    phys0 = join_phys(
        2.0 * alpha.real, 2.0 * alpha.imag, rho21, np.conj(rho21), (atom.rho22 - atom.rho11).real
    )
    return params, evolve_mb(params, phys0, cfg.grid())


def cmd_run(args) -> int:
    with open(args.config) as handle:
        cfg = parse_config(handle.read())
    overrides = {}
    seed = args.seed if args.seed is not None else _env_override("SEED", "int")
    runs = args.runs if args.runs is not None else _env_override("RUNS", "int")
    out = args.out if args.out is not None else _env_override("OUT", "str")
    if seed is not None:
        overrides["master_seed"] = seed
    if runs is not None:
        overrides["runs"] = runs
    if out is not None:
        overrides["out"] = out
    if overrides:
        cfg = replace(cfg, **overrides)
        validate_config(cfg)
    if cfg.out is None:
        print("error: no output path (set out in [run] or pass --out)", file=sys.stderr)
        return 2

    if cfg.engine in ("sde-jc", "sde-mb-experimental"):
        result = run_sde_jc(cfg) if cfg.engine == "sde-jc" else run_sde_physical(cfg)
        write_csv(
            cfg.out, result.grid.times, result.names, list(result.mean.T), list(result.stderr.T)
        )
        fraction = result.runs_diverged / result.runs_requested
        _write_sidecar(
            cfg.out,
            cfg,
            {
                "runs_requested": result.runs_requested,
                "runs_diverged": result.runs_diverged,
                "diverged_paths": list(result.diverged_paths[:100]),
                "divergence_steps": list(result.divergence_steps[:100]),
                "chunk_size": result.chunk_size,
            },
        )
        print(
            f"{cfg.engine}: {result.runs_completed}/{result.runs_requested} runs "
            f"completed ({result.runs_diverged} diverged) -> {cfg.out}"
        )
        if fraction > DIVERGENCE_WARNING_FRACTION:
            print(
                f"warning: divergent fraction {fraction:.2%} exceeds "
                f"{DIVERGENCE_WARNING_FRACTION:.0%}; statistics are suspect",
                file=sys.stderr,
            )
    else:
        params, traj = run_reference(cfg) if cfg.engine == "reference" else run_mb(cfg)
        columns = physical_columns(params, cfg.observables, cfg.probes)(traj.phys)
        write_csv(cfg.out, traj.times, cfg.observables, list(columns.T))
        extra = traj.diagnostics
        _write_sidecar(cfg.out, cfg, extra)
        print(f"{cfg.engine}: wrote {cfg.out}")
        if extra.get("min_eigenvalue", 0.0) < EIGENVALUE_WARNING_FLOOR:
            print(
                f"warning: minimum density-matrix eigenvalue {extra['min_eigenvalue']:.3e} "
                f"is below {EIGENVALUE_WARNING_FLOOR:.0e}; the reference lost positivity",
                file=sys.stderr,
            )
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
    print("column,max_abs,rms")
    for name in shared:
        col_a = data_a[:, header_a.index(name)]
        col_b = data_b[:, header_b.index(name)]
        diff = col_a - col_b
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
    if args.seed is not None:
        seed = args.seed
    if args.points is not None:
        points = args.points
    report = run_all(seed=seed, points=points)
    text = json.dumps(report, indent=2)
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
