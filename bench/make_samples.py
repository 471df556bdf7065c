"""Regenerate the stored oracle samples in ``bench/data``.

Usage, from the repository root: ``python3 bench/make_samples.py``.

Runs the deterministic engine runs of the workloads, plus the n_max 60 Fock
oracle on the whole fig3 grid (about 20 s), through ``ppcavity.cli.main`` and
keeps every ``stride``-th grid point of each output column.  The stored
files were made at the commit that added the benchmark; regenerate them only
when a change of physical results is intended, and say so.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from checks import DATA, Output  # noqa: E402
from workloads import engine_runs, fig3_oracle_run  # noqa: E402

import ppcavity.cli as cli  # noqa: E402

#: ~129 to 513 samples per column
STRIDES = {"fig3_oracle.json": 16, "oracle_reference.json": 8, "oracle_mb.json": 8, "lossy_reference.json": 4}


def main():
    work = ROOT / ".bench_work" / "samples"
    work.mkdir(parents=True, exist_ok=True)
    wanted = {fig3_oracle_run().samples: fig3_oracle_run()}
    for workload in ("oracle", "lossy-multimode"):
        for run in engine_runs(workload, 0):
            if run.samples and not run.engine.startswith("sde"):
                wanted[run.samples] = run
    DATA.mkdir(exist_ok=True)
    for name, run in wanted.items():
        cfg_path, out_path = work / (name + ".cfg"), work / (name + ".csv")
        cfg_path.write_text(run.config)
        if cli.main(["run", "--config", str(cfg_path), "--out", str(out_path)]) != 0:
            raise SystemExit(f"{name}: the engine run failed")
        output = Output(out_path)
        rows = list(range(0, output.data.shape[0], STRIDES[name]))
        columns = [h[len("real_"):] for h in output.header if h.startswith("real_")]
        payload = {
            "source": f"ppcavity run, engine {run.engine}, every {STRIDES[name]}th grid point",
            "rows": rows,
            "t": [float(output.data[r, 0]) for r in rows],
            "columns": {
                c: [[float(v.real), float(v.imag)] for v in output.value(c)[rows]] for c in columns
            },
        }
        with open(DATA / name, "w") as handle:
            _dump(payload, handle)
        print(f"wrote {DATA / name}: {len(rows)} rows x {len(columns)} columns")


def _dump(payload, handle):
    """JSON with one line per list, so a changed column shows as one changed line."""
    handle.write("{\n")
    for key in ("source", "rows", "t"):
        handle.write(f"{json.dumps(key)}: {json.dumps(payload[key])},\n")
    handle.write('"columns": {\n')
    items = list(payload["columns"].items())
    for i, (key, values) in enumerate(items):
        sep = "," if i + 1 < len(items) else ""
        handle.write(f"{json.dumps(key)}: {json.dumps(values)}{sep}\n")
    handle.write("}\n}\n")


if __name__ == "__main__":
    main()
