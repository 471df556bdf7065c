"""The benchmark's four workloads as generated ppcavity configurations.

Each workload is a list of engine runs.  A run is either a ``ppcavity run``
with a generated INI configuration or a ``ppcavity check-invariants`` call.
The workload seed only becomes the ``master_seed`` of the stochastic runs,
so the same seed always yields the same configurations; the deterministic
runs do not depend on it.

Sizes are chosen so that one pass (every run of a workload, in one fresh
process) takes a few seconds on a 2-core machine, which lets a 20 s
measurement hold several passes.  See ``bench/README.md`` for why each
workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: the fig3 scenario of the acceptance suite
FIG3_T_END = math.pi / 1100.0
FIG3_STEPS = 8192
#: fig3-coherent runs two engines on the first half of the fig3 grid and the
#: oracle the first eighth (same step size): the whole grid would make one
#: pass take 8-18 s, too long for several passes in one measurement
ORACLE_STEPS = 1024
THERMAL_RHO11 = 1.0 / (1.0 + math.exp(-1.0))
ATOMIC = ("rho_11", "rho_22", "rho_21", "rho_12", "nu")
LOSSY_OBSERVABLES = ATOMIC + ("e_1", "h_2", "E_at_1", "H_at_1")
LOSSY_PROBE = 0.3 * math.pi / 1100.0  # 0.3 of the cavity length
FIG3_SAMPLES = "fig3_oracle.json"


@dataclass(frozen=True)
class EngineRun:
    """One invocation of the public CLI inside a pass."""

    label: str
    command: str  # "run" or "check-invariants"
    config: str | None = None  # INI text for "run"
    samples: str | None = None  # stored oracle samples in bench/data the output is checked against

    @property
    def engine(self) -> str:
        if self.command == "check-invariants":
            return "check-invariants"
        return config_value(self.config, "engine")


def config_value(text, key):
    """The value of ``key`` in generated INI text (keys are unique there)."""
    for line in text.splitlines():
        name, _, value = line.partition("=")
        if name.strip() == key:
            return value.strip()
    raise KeyError(key)


def _config(
    engine,
    *,
    runs=1,
    seed=0,
    observables=ATOMIC,
    probes=(),
    n_max=None,
    omega=(1100.0,),
    g=(200.0,),
    rates=None,
    t_end=FIG3_T_END,
    steps=FIG3_STEPS,
    family="additive-noise",
    alpha=5.0,
):
    lines = ["[run]", f"engine = {engine}"]
    if engine.startswith("sde"):
        lines += [f"runs = {runs}", f"master_seed = {seed}"]
    lines.append("observables = " + ", ".join(observables))
    if probes:
        lines.append("probes = " + ", ".join(repr(x) for x in probes))
    if n_max is not None:
        lines.append(f"n_max = {n_max}")
    lines += [
        "",
        "[model]",
        "Omega = 1000",
        "omega = " + ", ".join(repr(x) for x in omega),
        "g = " + ", ".join(repr(x) for x in g),
    ]
    for name, value in (rates or {}).items():
        lines.append(f"{name} = {value!r}")
    lines += [
        "",
        "[grid]",
        f"t_end = {t_end!r}",
        f"steps = {steps}",
        "",
        "[family]",
        f"kind = {family}",
        "delta = 4 0",
        "",
        "[initial]",
        f"alpha = {alpha!r} 0",
        f"rho11 = {THERMAL_RHO11!r}",
    ]
    return "\n".join(lines) + "\n"


def _fig3_additive(seed):
    return [
        EngineRun(
            "sde-jc",
            "run",
            _config("sde-jc", runs=256, seed=seed, family="additive-noise"),
            FIG3_SAMPLES,
        )
    ]


def _fig3_coherent(seed):
    half = dict(runs=256, seed=seed, family="coherent-spin", t_end=FIG3_T_END / 2, steps=FIG3_STEPS // 2)
    return [
        EngineRun("sde-jc", "run", _config("sde-jc", **half), FIG3_SAMPLES),
        EngineRun("sde-mb-experimental", "run", _config("sde-mb-experimental", **half), FIG3_SAMPLES),
    ]


def _oracle(seed):
    del seed  # deterministic: no RNG, no ensemble
    t_end = FIG3_T_END * ORACLE_STEPS / FIG3_STEPS
    return [
        EngineRun(
            "reference",
            "run",
            _config("reference", n_max=60, t_end=t_end, steps=ORACLE_STEPS),
            "oracle_reference.json",
        ),
        EngineRun(
            "mb", "run", _config("mb", t_end=t_end, steps=ORACLE_STEPS), "oracle_mb.json"
        ),
        EngineRun("check-invariants", "check-invariants"),
    ]


LOSSY = dict(
    observables=LOSSY_OBSERVABLES,
    probes=(LOSSY_PROBE,),
    omega=(1100.0, 1900.0),
    g=(200.0, 150.0),
    rates={"r21": 100.0, "r_p": 50.0},
    steps=512,
    alpha=1.0,
)


def _lossy_multimode(seed):
    return [
        EngineRun(
            "sde-jc",
            "run",
            _config("sde-jc", runs=512, seed=seed, **LOSSY),
            "lossy_reference.json",
        ),
        EngineRun(
            "reference",
            "run",
            _config("reference", n_max=6, **LOSSY),
            "lossy_reference.json",
        ),
    ]


WORKLOADS = {
    "fig3-additive": _fig3_additive,
    "fig3-coherent": _fig3_coherent,
    "oracle": _oracle,
    "lossy-multimode": _lossy_multimode,
}


def fig3_oracle_run() -> EngineRun:
    """The n_max 60 Fock oracle on the whole fig3 grid (stored, not timed)."""
    return EngineRun("reference", "run", _config("reference", n_max=60), FIG3_SAMPLES)


def engine_runs(workload: str, seed: int) -> list[EngineRun]:
    if workload not in WORKLOADS:
        raise KeyError(workload)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return WORKLOADS[workload](seed)
