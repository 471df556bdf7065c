"""ppcavity benchmark: end-to-end and per-layer metrics of four workloads.

Usage, from the repository root::

    python3 bench/run.py --workload fig3-additive --seed 1 --seconds 25 --trace 0

Each pass runs every engine run of the workload through ``ppcavity.cli.main``
in a fresh child process, one pass at a time.  The run first starts a few
set-up probes, then repeats passes until the next one would end after
``--seconds``, and reports medians of times scaled to a reference machine
speed (``speed_factor``).  Every output is checked (``checks.py``); a run
that raises or fails its check is a failed operation.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (``tracing.py``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads, metrics and the predictions they test are described in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
STDERR_TARGET = 0.01  # resolve rho_21 to this standard error
#: time of ``calibrate()`` at the reference machine speed; see ``speed_factor``
CAL_REF_S = 0.25
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from workloads import WORKLOADS, config_value, engine_runs  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "path_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "completed_fraction": "ratio",
}
PER_LAYER_UNITS = {
    "basis.jet_s": "s",
    "basis.jet_calls": "count",
    "basis.pair_s": "s",
    "basis.pair_calls": "count",
    "jc.drift_self_s": "s",
    "jc.drift_calls": "count",
    "jc.noise_self_s": "s",
    "jc.noise_calls": "count",
    "observables.batch_self_s": "s",
    "observables.batch_calls": "count",
    "physical.drift_bar_s": "s",
    "physical.noise_bar_s": "s",
    "physical.batch_s": "s",
    "sde.run_ensemble_s": "s",
    "sde.self_s": "s",
    "sde.rng_draw_s": "s",
    "sde.path_steps": "count",
    "sde.diverged_paths": "count",
    "sde.record_bytes": "B",
    "sde.chunks": "count",
    "sde.workers": "count",
    "sde.time_to_stderr_s": "s",
    "reference.master_rhs_s": "s",
    "reference.master_rhs_calls": "count",
    "reference.master_rhs_gflop": "GFLOP",
    "reference.master_rhs_gflop_per_s": "GFLOP/s",
    "reference.evolve_self_s": "s",
    "reference.build_s": "s",
    "initialization.init_points_s": "s",
    "initialization.sample_s": "s",
    "cli.parse_config_s": "s",
    "maxwell_bloch.evolve_mb_s": "s",
    "invariants.run_all_s": "s",
    "cli.write_csv_s": "s",
    "cli.csv_bytes": "B",
    "trace.overhead_s": "s",
}
#: counts derived from sizes, not measured
COMPUTED = {
    "sde.record_bytes": "chunk x (steps+1) x observables x 16, largest ensemble",
    "reference.master_rhs_gflop": "8 dim^3 per master_rhs call",
    "cli.csv_bytes": "sizes of the CSV files written",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ppcavity" / "cli.py").is_file():
        print(f"error: no ppcavity source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    with open("/proc/loadavg") as handle:
        loadavg = handle.read().split()[:3]
    runs = engine_runs(args.workload, args.seed)
    bench = Bench(args.workload, runs)
    bench.child("setup")  # warm-up: byte-compiles the package; not timed
    start = time.monotonic()
    probes = [bench.child("setup") for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        traced = bool(args.trace) and sum(p["traced"] for p in passes) < len(passes) / 2
        same_kind = [p["pass_s"] for p in passes if p["traced"] == traced]
        have_both = any(not p["traced"] for p in passes) and (
            not args.trace or any(p["traced"] for p in passes)
        )
        if have_both and same_kind:
            if time.monotonic() - start + statistics.median(same_kind) > args.seconds:
                break
        passes.append(bench.run_pass(len(passes), traced))
    bench.self_check(passes[0])

    plain = [p for p in passes if not p["traced"]]
    report = Report(args, bench, passes)
    env = environment(loadavg, bench)
    report.passes()
    if args.trace:
        metrics = per_layer(passes)
        report.layers(metrics)
    else:
        metrics = end_to_end(plain, probes, scale=True)
        raw = end_to_end(plain, probes, scale=False)
        report.end_to_end(metrics, raw, len(plain), len(probes) + len(plain))
    attempted = sum(len(p["checks"]) for p in passes)
    failed = sum(not ok for p in passes for ok, _ in p["checks"])
    report.diagnostics(plain, attempted, failed)
    print(json.dumps({"env": env}, sort_keys=True))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0 and bench.not_vacuous,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


class Bench:
    """Spawns the measured child processes of one workload and checks their outputs."""

    def __init__(self, workload, runs):
        self.runs = runs
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.configs = []
        for index, run in enumerate(runs):
            path = None
            if run.config is not None:
                path = self.work / f"run-{index}.cfg"
                path.write_text(run.config)
            self.configs.append(path)
        # PPCAVITY_* variables would override the generated runs; bytecode is
        # always cached (by the warm-up process), so set-up time does not
        # depend on the caller's PYTHONDONTWRITEBYTECODE
        self.env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith("PPCAVITY_") and k != "PYTHONDONTWRITEBYTECODE"
        }
        self.not_vacuous = True
        self.self_checks = []
        self.effective_workers = []

    def child(self, mode, out_dir=None, traced=False):
        out_dir = out_dir or self.work
        job = {
            "mode": mode,
            "src": str(SRC),
            "trace": traced,
            "result": str(out_dir / "result.json"),
            "spans": str(out_dir / "spans.json"),
            "runs": [
                {
                    "label": run.label,
                    "config": None if cfg is None else str(cfg),
                    "out": str(out_dir / f"run-{i}.{'json' if cfg is None else 'csv'}"),
                }
                for i, (run, cfg) in enumerate(zip(self.runs, self.configs))
            ],
        }
        job_path = out_dir / "job.json"
        job_path.write_text(json.dumps(job))
        result_path = Path(job["result"])
        result_path.unlink(missing_ok=True)
        with open(out_dir / "child.log", "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(job_path)],
                cwd=ROOT,
                env=self.env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
            status, usage = _reap(proc)
            ended = time.monotonic()
        if status != 0 or not result_path.is_file():
            tail = (out_dir / "child.log").read_text()[-2000:]
            raise ChildFailed(f"{mode} process exited with {status}:\n{tail}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["t_setup"] - spawned
        result["pass_s"] = ended - spawned
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        result["job"] = job
        self.effective_workers = result["effective_workers"]
        return result

    def run_pass(self, index, traced):
        out_dir = self.work / f"pass-{index}"
        out_dir.mkdir()
        try:
            result = self.child("pass", out_dir, traced)
        except ChildFailed as exc:
            print(f"pass {index + 1}: {exc}", file=sys.stderr)
            result = {"traced": traced, "failed_process": True, "pass_s": 0.0, "runs": []}
            result["checks"] = [(False, "pass process failed")] * len(self.runs)
            return result
        result["traced"] = traced
        result["index"] = index
        result["checks"] = []
        for run, info, spec in zip(self.runs, result["runs"], result["job"]["runs"]):
            steps = int(config_value(run.config, "steps")) if run.config else 0
            if info["error"] is not None:
                ok, detail = False, info["error"]
            else:
                try:
                    ok, detail = checks.check_run(run, spec["out"], info["exit_code"], steps)
                except (OSError, ValueError, KeyError) as exc:
                    ok, detail = False, f"unreadable output: {exc!r}"
            result["checks"].append((ok, detail))
            info.update(_run_stats(run, spec["out"], steps, ok))
        if index > 1:  # keep the first pass (self-check) and the latest one
            shutil.rmtree(self.work / f"pass-{index - 1}", ignore_errors=True)
        return result

    def self_check(self, first_pass):
        if first_pass.get("failed_process"):
            return
        for run, spec in zip(self.runs, first_pass["job"]["runs"]):
            if os.path.exists(spec["out"]) and run.samples is not None:
                ok, detail = checks.self_check(run, spec["out"])
                self.self_checks.append(detail)
                self.not_vacuous &= ok


class ChildFailed(RuntimeError):
    pass


def _reap(proc):
    """Wait for the child with a timeout; returns (exit code, resource usage)."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _run_stats(run, out_path, steps, ok):
    """Paths, completed paths and the largest rho_21 standard error of one run.

    A run that failed completes none of its paths.
    """
    if run.command == "check-invariants":
        return {"paths": 0, "completed": 0, "steps": 0}
    if not run.engine.startswith("sde"):
        return {"paths": 1, "completed": int(ok), "steps": steps}
    stats = {"paths": int(config_value(run.config, "runs")), "completed": 0, "steps": steps}
    if ok:
        with open(out_path + ".meta.json") as handle:
            stats["diverged"] = json.load(handle)["runs_diverged"]
        stats["completed"] = stats["paths"] - stats["diverged"]
        output = checks.Output(out_path)
        if output.has("rho_21"):
            stats["max_stderr_rho_21"] = float(output.stderr("rho_21").max())
    return stats


def _median(values):
    return statistics.median(values) if values else 0.0


def speed_factor(calibrations):
    """CAL_REF_S over the mean time of ``calibrate()`` in one measured process.

    The speed of a shared machine drifts by up to 2x within minutes, and
    the drift is common to the work and the calibration kernel that one
    process runs back to back.  Times multiplied by this factor (rates
    divided by it) read as if measured at the reference speed, where
    ``calibrate()`` takes CAL_REF_S.  Each process is scaled by its own
    calibrations: a pass by the mean of the ones before and after its engine
    runs, a set-up sample by the one right after its set-up point.
    """
    return CAL_REF_S / statistics.mean(calibrations)


def scaled(raw, factor, units):
    """Times and rates at the reference speed; counts and sizes unchanged."""
    out = dict(raw)
    for name, unit in units.items():
        if name not in raw:
            continue
        if unit == "s":
            out[name] = raw[name] * factor
        elif unit.endswith("/s"):
            out[name] = raw[name] / factor
    return out


def end_to_end(plain, probes, scale):
    """Medians over the passes; with ``scale``, each pass and probe at the reference speed."""
    good = [p for p in plain if not p.get("failed_process")]
    per_pass = []
    for p in good:
        runs = [r for r in p["runs"] if r.get("steps")]
        raw = {
            "wall_s": p["wall_s"],
            "cpu_s": p["cpu_s"],
            "path_steps_per_s": sum(r["paths"] * r["steps"] for r in runs)
            / sum(r["engine_s"] for r in runs),
        }
        per_pass.append(scaled(raw, speed_factor(p["calibration_s"]), END_TO_END_UNITS) if scale else raw)
    setup = [
        s["setup_s"] * (speed_factor(s["calibration_s"][:1]) if scale else 1.0) for s in probes + good
    ]
    runs = [r for p in good for r in p["runs"] if r.get("paths")]
    requested = sum(r["paths"] for r in runs)
    return {
        "wall_s": _median([m["wall_s"] for m in per_pass]),
        "cpu_s": _median([m["cpu_s"] for m in per_pass]),
        "setup_s": _median(setup),
        "path_steps_per_s": _median([m["path_steps_per_s"] for m in per_pass]),
        "peak_rss_mb": max((p["peak_rss_mb"] for p in good), default=0.0),
        "completed_fraction": sum(r["completed"] for r in runs) / requested if requested else 0.0,
    }


def time_to_stderr(p):
    """Engine time x (max_t stderr_rho_21 / 0.01)^2, summed over the SDE runs of a pass."""
    return sum(
        r["engine_s"] * (r["max_stderr_rho_21"] / STDERR_TARGET) ** 2
        for r in p["runs"]
        if "max_stderr_rho_21" in r
    )


def layer_metrics(p):
    tr = p["trace"]
    tot, slf, calls = tr["totals"], tr["selfs"], tr["calls"]

    def t(name):
        return tot.get(name, 0.0)

    def s(name):
        return slf.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    ens = tr["ensembles"]
    rhs_s = t("reference.master_rhs")
    return {
        "basis.jet_s": t("basis.jet"),
        "basis.jet_calls": c("basis.jet"),
        "basis.pair_s": t("basis.pair"),
        "basis.pair_calls": c("basis.pair"),
        "jc.drift_self_s": s("jc.drift"),
        "jc.drift_calls": c("jc.drift"),
        "jc.noise_self_s": s("jc.noise"),
        "jc.noise_calls": c("jc.noise"),
        "observables.batch_self_s": s("observables.batch"),
        "observables.batch_calls": c("observables.batch"),
        "physical.drift_bar_s": t("physical.drift_bar"),
        "physical.noise_bar_s": t("physical.noise_bar"),
        "physical.batch_s": t("physical.batch"),
        "sde.run_ensemble_s": t("sde.run_ensemble"),
        "sde.self_s": s("sde.run_ensemble") + s("sde.chunk"),
        "sde.rng_draw_s": p["rng_draw_s"],
        "sde.path_steps": sum(e["runs"] * e["steps"] for e in ens),
        "sde.diverged_paths": sum(e["diverged"] for e in ens),
        "sde.record_bytes": max(
            [min(e["chunk"], e["runs"]) * (e["steps"] + 1) * e["observables"] * 16 for e in ens],
            default=0,
        ),
        "sde.chunks": sum(math.ceil(e["runs"] / e["chunk"]) for e in ens),
        "sde.workers": tr["ensemble_workers"],
        "reference.master_rhs_s": rhs_s,
        "reference.master_rhs_calls": c("reference.master_rhs"),
        "reference.master_rhs_gflop": tr["rhs_gflop"],
        "reference.master_rhs_gflop_per_s": tr["rhs_gflop"] / rhs_s if rhs_s > 0 else 0.0,
        "reference.evolve_self_s": s("reference.evolve"),
        "reference.build_s": t("reference.build"),
        "initialization.init_points_s": t("initialization.init_points"),
        "initialization.sample_s": t("initialization.sample"),
        "cli.parse_config_s": t("cli.parse_config"),
        "maxwell_bloch.evolve_mb_s": t("maxwell_bloch.evolve_mb"),
        "invariants.run_all_s": t("invariants.run_all"),
        "cli.write_csv_s": t("cli.write_csv"),
        "cli.csv_bytes": tr["csv_bytes"],
    }


def per_layer(passes):
    """Medians over the traced passes, each scaled by its own calibrations."""
    good = [p for p in passes if not p.get("failed_process")]
    traced = [p for p in good if p["traced"]]
    plain = [p for p in good if not p["traced"]]
    layers = [scaled(layer_metrics(p), speed_factor(p["calibration_s"]), PER_LAYER_UNITS) for p in traced]
    derived = ("sde.time_to_stderr_s", "trace.overhead_s")
    out = {n: _median([m[n] for m in layers]) for n in PER_LAYER_UNITS if n not in derived}
    out["sde.time_to_stderr_s"] = _median(
        [time_to_stderr(p) * speed_factor(p["calibration_s"]) for p in plain]
    )
    out["trace.overhead_s"] = _median(
        [p["wall_s"] * speed_factor(p["calibration_s"]) for p in traced]
    ) - _median([p["wall_s"] * speed_factor(p["calibration_s"]) for p in plain])
    return out


def environment(loadavg, bench):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            git_sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha or "unavailable (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "effective_workers": bench.effective_workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_at_start": loadavg,
    }


class Report:
    """Human-readable lines; the JSON result line comes last."""

    def __init__(self, args, bench, passes):
        self.args, self.bench, self.all = args, bench, passes
        print(
            f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
            f"trace {args.trace}  passes {len(passes)}"
        )

    def passes(self):
        for p in self.all:
            if p.get("failed_process"):
                print("pass: FAILED (process)")
                continue
            kind = "traced" if p["traced"] else "untraced"
            print(
                f"pass {p['index'] + 1} ({kind}): wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
                f"peak rss {p['peak_rss_mb']:.0f} MB, setup {p['setup_s']:.3f} s, "
                f"calibration {' '.join(f'{c:.3f}' for c in p['calibration_s'])} s "
                f"(times x {speed_factor(p['calibration_s']):.3f})"
            )
            for run, (ok, detail) in zip(p["runs"], p["checks"]):
                paths = ""
                if "diverged" in run:
                    paths = f", {run['diverged']}/{run['paths']} diverged"
                print(
                    f"  {run['label']}: {'ok' if ok else 'FAILED'} in {run['engine_s']:.3f} s "
                    f"engine{paths}; {detail}"
                )
        for line in self.bench.self_checks:
            print(f"self-check: {line}")

    def end_to_end(self, metrics, raw, n_passes, n_setup):
        print(
            f"end-to-end (median of {n_passes} untraced passes; setup_s of {n_setup} starts; "
            f"times at the reference speed, calibrate() = {CAL_REF_S} s):"
        )
        for name, unit in END_TO_END_UNITS.items():
            note = f"   (as measured: {raw[name]:.6g} {unit})" if raw[name] != metrics[name] else ""
            print(f"  {name:<22} {metrics[name]:.6g} {unit}{note}")

    def layers(self, metrics):
        n = sum(p["traced"] for p in self.all)
        print(f"per-layer (median of {n} traced passes, at the reference speed; zero = layer not exercised):")
        for name, unit in PER_LAYER_UNITS.items():
            label = f"  [computed: {COMPUTED[name]}]" if name in COMPUTED else ""
            print(f"  {name:<36} {metrics[name]:.6g} {unit}{label}")
        traced = [p for p in self.all if p["traced"] and not p.get("failed_process")]
        for p in traced[-1:]:
            tr = p["trace"]
            print(
                f"trace: {tr['span_count']} spans in the last traced pass; nesting per thread "
                f"{'ok' if tr['nesting_ok'] else 'BROKEN'}; self times + children = root "
                f"span to {tr['sum_error_s']:.1e} s"
            )
            if tr["missing_hooks"]:
                print(f"trace: hooks not found, layers not traced: {', '.join(tr['missing_hooks'])}")

    def diagnostics(self, plain, attempted, failed):
        """Metrics printed but not gated: they can read 0 or swing with the seed."""
        runs = [r for p in plain if not p.get("failed_process") for r in p["runs"]]
        sde = [r for r in runs if "diverged" in r]
        requested = sum(r["paths"] for r in sde)
        diverged = sum(r["diverged"] for r in sde)
        print("diagnostics (not gated):")
        fraction = diverged / requested if requested else 0.0
        print(f"  {'diverged_fraction':<22} {fraction:.6g} ratio ({diverged}/{requested} paths)")
        print(f"  {'failed_ops':<22} {failed / attempted if attempted else 0.0:.6g} ratio ({failed}/{attempted} engine runs)")
        tts = [
            time_to_stderr(p) * speed_factor(p["calibration_s"])
            for p in plain
            if not p.get("failed_process")
        ]
        if sde:
            print(
                f"  {'time_to_stderr_s':<22} {_median(tts):.6g} s (engine time x (max stderr_rho_21 "
                f"/ {STDERR_TARGET})^2, at the reference speed)"
            )
        else:
            print(f"  {'time_to_stderr_s':<22} n/a (no SDE run)")


if __name__ == "__main__":
    sys.exit(main())
