"""One measured process: a set-up probe or one pass over a workload's runs.

Usage: ``python3 bench/child.py JOB.json``.  The job names the source tree,
the generated configurations and where to write the result.  The process
imports ``ppcavity``, parses and validates every configuration (the set-up
point), and, for a pass, calls ``ppcavity.cli.main`` once per engine run.
With ``trace`` set it first installs the timing spans of ``tracing.py``.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main(job_path):
    with open(job_path) as handle:
        job = json.load(handle)
    src = job["src"]
    sys.path.insert(0, src)
    import ppcavity.cli as cli
    from ppcavity.config import parse_config

    package = os.path.realpath(os.path.dirname(cli.__file__))
    if not package.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported ppcavity from {package}, not from {src}")
    workers = []
    for run in job["runs"]:
        if run["config"] is not None:
            with open(run["config"]) as handle:
                cfg = parse_config(handle.read())
            if cfg.engine.startswith("sde"):
                workers.append(cfg.effective_workers())
    t_setup = time.monotonic()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from calibrate import calibrate

    result = {"t_start": T_START, "t_setup": t_setup, "effective_workers": workers}
    result["calibration_s"] = [calibrate()]
    if job["mode"] == "setup":
        _write(job["result"], result)
        return

    tracer = None
    engine_s = [0.0]
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        _time_engines(cli, engine_s)

    runs = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for index, run in enumerate(job["runs"]):
        engine_s[0] = 0.0
        if run["config"] is not None:
            argv = ["run", "--config", run["config"], "--out", run["out"]]
        else:
            argv = ["check-invariants", "--out", run["out"]]
        t0 = time.perf_counter()
        error = None
        try:
            if tracer is not None:
                tracer.run_id = index
                code = tracer.call("cli.main", cli.main, argv)
            else:
                code = cli.main(argv)
        except Exception as exc:  # a crashing run is a failed operation, not a crash of the pass
            code, error = None, f"{type(exc).__name__}: {exc}"
        main_s = time.perf_counter() - t0
        runs.append(
            {
                "label": run["label"],
                "exit_code": code,
                "error": error,
                "main_s": main_s,
                "engine_s": engine_s[0] if engine_s[0] > 0 else main_s,
            }
        )
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    result["runs"] = runs
    result["calibration_s"].append(calibrate())
    if tracer is not None:
        from ppcavity.sde import path_generator

        result["rng_draw_s"] = tracer.rng_draw_seconds(path_generator)
        result["trace"] = tracer.analyse()
        result["trace"]["ensembles"] = tracer.ensembles
        result["trace"]["rhs_gflop"] = tracer.rhs_flops / 1e9
        result["trace"]["csv_bytes"] = tracer.csv_bytes
        result["trace"]["missing_hooks"] = tracer.missing
        tracer.dump(job["spans"])
    _write(job["result"], result)


def _time_engines(cli, engine_s):
    """Accumulate the time spent in the engine entry points of ``cli``."""

    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                engine_s[0] += time.perf_counter() - t0

        return wrapper

    for name in ("run_sde_jc", "run_sde_physical", "run_reference", "run_mb", "run_all"):
        if hasattr(cli, name):
            setattr(cli, name, timed(getattr(cli, name)))


def _write(path, result):
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(result, handle)
    os.replace(tmp, path)


if __name__ == "__main__":
    main(sys.argv[1])
