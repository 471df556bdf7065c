"""Plain-text run configuration: sectioned key = value files.

Sections and keys::

    [run]      engine (sde-jc | sde-mb-experimental | reference | mb),
               runs, master_seed, observables, probes, out,
               divergence_threshold, n_max
    [model]    Omega, omega | (length, mode_count), g, x0, length, area,
               hbar, c, epsilon0, r12, r21, r_p
    [grid]     t_start, t_end, steps
    [family]   kind (coherent-spin | additive-noise), delta, kappa
    [initial]  alpha (per mode), rho11, rho12
    [invariants]  seed, points   (used by the check-invariants subcommand)

Complex values are written as "re im" pairs (a single number means a real
value).  Lists are comma separated.  Unknown sections or keys are rejected
with the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import ADDITIVE_NOISE, COHERENT_SPIN, BasisFamily
from .errors import ConfigError
from .initialization import AtomicDensity
from .jc import ModelParams
from .observables import DEFAULT_OBSERVABLES, PHASE_COORDINATES, physical_columns
from .sde import DEFAULT_DIVERGENCE_THRESHOLD, TimeGrid

ENGINES = ("sde-jc", "sde-mb-experimental", "reference", "mb")

_OBSERVABLE_ALIASES = {
    "rho11": "rho_11",
    "rho22": "rho_22",
    "rho21": "rho_21",
    "rho12": "rho_12",
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated description of one run."""

    engine: str
    # model
    Omega: float
    omega: tuple = ()
    mode_count: int = 1
    g: tuple = ()
    x0: float | None = None
    length: float | None = None
    area: float = 1.0
    hbar: float = 1.0
    c: float = 1.0
    epsilon0: float = 1.0
    r12: float = 0.0
    r21: float = 0.0
    r_p: float = 0.0
    # grid
    t_start: float = 0.0
    t_end: float = 1.0
    steps: int = 1
    # family
    family_kind: str = ADDITIVE_NOISE
    delta: complex = 4.0 + 0.0j
    kappa: complex = 0.0 + 0.0j
    # initial state
    alpha: tuple = (0j,)
    rho11: float = 0.5
    rho12: complex = 0j
    # run control
    runs: int = 1000
    master_seed: int = 0
    observables: tuple = DEFAULT_OBSERVABLES
    probes: tuple = ()
    out: str | None = None
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD
    n_max: int = 60
    # invariant-suite control
    invariants_seed: int = 20240
    invariants_points: int = 100

    def model_params(self) -> ModelParams:
        if self.omega:
            return ModelParams.from_frequencies(
                omega=self.omega,
                g=self.g,
                Omega=self.Omega,
                x0=self.x0,
                length=self.length,
                area=self.area,
                hbar=self.hbar,
                c=self.c,
                epsilon0=self.epsilon0,
                r12=self.r12,
                r21=self.r21,
                r_p=self.r_p,
            )
        if self.length is None:
            raise ConfigError("either omega or length must be given in [model]")
        params = ModelParams.from_cavity(
            length=self.length,
            mode_count=self.mode_count,
            Omega=self.Omega,
            coupling=self.g,
            x0=self.x0,
            area=self.area,
            hbar=self.hbar,
            c=self.c,
            epsilon0=self.epsilon0,
            r12=self.r12,
            r21=self.r21,
            r_p=self.r_p,
        )
        return params

    def family(self) -> BasisFamily:
        if self.family_kind == COHERENT_SPIN:
            return BasisFamily.coherent_spin()
        return BasisFamily.additive_noise(self.delta, self.kappa)

    def grid(self) -> TimeGrid:
        return TimeGrid(self.t_start, self.t_end, self.steps)

    def atomic_density(self) -> AtomicDensity:
        return AtomicDensity.from_upper(self.rho11, self.rho12)

    def effective_workers(self) -> int:
        """Ensembles run their chunks serially: always 1."""
        return 1


def _parse_scalar(text, line, kind):
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
    except ValueError:
        raise ConfigError(f"expected {kind.__name__}, got {text!r}", line) from None
    raise AssertionError(kind)


def _parse_complex(text, line):
    parts = text.split()
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"expected a complex 're im' pair, got {text!r}", line)


def _parse_list(text, line, item):
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if item is complex:
            out.append(_parse_complex(chunk, line))
        elif item is str:
            out.append(chunk)
        else:
            out.append(_parse_scalar(chunk, line, item))
    if not out:
        raise ConfigError("empty list value", line)
    return tuple(out)


_SCHEMA = {
    ("run", "engine"): ("engine", "str"),
    ("run", "runs"): ("runs", "int"),
    ("run", "master_seed"): ("master_seed", "int"),
    ("run", "observables"): ("observables", "strlist"),
    ("run", "probes"): ("probes", "floatlist"),
    ("run", "out"): ("out", "str"),
    ("run", "divergence_threshold"): ("divergence_threshold", "float"),
    ("run", "n_max"): ("n_max", "int"),
    ("model", "Omega"): ("Omega", "float"),
    ("model", "omega"): ("omega", "floatlist"),
    ("model", "mode_count"): ("mode_count", "int"),
    ("model", "g"): ("g", "floatlist"),
    ("model", "x0"): ("x0", "float"),
    ("model", "length"): ("length", "float"),
    ("model", "area"): ("area", "float"),
    ("model", "hbar"): ("hbar", "float"),
    ("model", "c"): ("c", "float"),
    ("model", "epsilon0"): ("epsilon0", "float"),
    ("model", "r12"): ("r12", "float"),
    ("model", "r21"): ("r21", "float"),
    ("model", "r_p"): ("r_p", "float"),
    ("grid", "t_start"): ("t_start", "float"),
    ("grid", "t_end"): ("t_end", "float"),
    ("grid", "steps"): ("steps", "int"),
    ("family", "kind"): ("family_kind", "str"),
    ("family", "delta"): ("delta", "complex"),
    ("family", "kappa"): ("kappa", "complex"),
    ("initial", "alpha"): ("alpha", "complexlist"),
    ("initial", "rho11"): ("rho11", "float"),
    ("initial", "rho12"): ("rho12", "complex"),
    ("invariants", "seed"): ("invariants_seed", "int"),
    ("invariants", "points"): ("invariants_points", "int"),
}


def _convert(text, line, kind):
    if kind == "str":
        return text
    if kind == "int":
        return _parse_scalar(text, line, int)
    if kind == "float":
        return _parse_scalar(text, line, float)
    if kind == "complex":
        return _parse_complex(text, line)
    if kind == "strlist":
        return _parse_list(text, line, str)
    if kind == "floatlist":
        return _parse_list(text, line, float)
    if kind == "complexlist":
        return _parse_list(text, line, complex)
    raise AssertionError(kind)


def normalize_observable(name: str) -> str:
    return _OBSERVABLE_ALIASES.get(name, name)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration; raises ConfigError."""
    values: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not any(sec == section for sec, _ in _SCHEMA):
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        attr, kind = _SCHEMA[(section, key)]
        if attr in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        values[attr] = _convert(value, lineno, kind)

    if "engine" not in values:
        raise ConfigError("engine is required in [run]")
    if values["engine"] not in ENGINES:
        raise ConfigError(
            f"engine must be one of {', '.join(ENGINES)}; got {values['engine']!r}"
        )
    if "Omega" not in values:
        raise ConfigError("Omega is required in [model]")
    if "g" not in values:
        raise ConfigError("g is required in [model]")
    if "t_end" not in values:
        raise ConfigError("t_end is required in [grid]")
    if "steps" not in values:
        raise ConfigError("steps is required in [grid]")
    if "observables" in values:
        values["observables"] = tuple(
            normalize_observable(v) for v in values["observables"]
        )
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig):
    """Cross-field validation by constructing every domain object."""
    if cfg.family_kind not in (COHERENT_SPIN, ADDITIVE_NOISE):
        raise ConfigError(f"unknown family kind {cfg.family_kind!r}")
    try:
        params = cfg.model_params()
        cfg.family()
        cfg.grid()
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from None
    try:
        cfg.atomic_density()
    except ValueError as exc:
        raise ConfigError(f"initial atomic density: {exc}") from None
    if cfg.engine in ("sde-jc", "sde-mb-experimental"):
        if not 0.0 < cfg.rho11 < 1.0:
            raise ConfigError("stochastic engines need 0 < rho11 < 1")
        if cfg.runs < 1:
            raise ConfigError("runs must be >= 1")
    if cfg.engine == "sde-mb-experimental" and cfg.family_kind != COHERENT_SPIN:
        raise ConfigError(
            "the changed-variable engine requires the coherent-spin family; "
            "its noise matrix has no closed form for other families"
        )
    if cfg.engine == "reference" and cfg.n_max < 1:
        raise ConfigError("n_max must be >= 1")
    n_alpha = len(cfg.alpha)
    if n_alpha not in (1, params.mode_count):
        raise ConfigError("alpha must list one amplitude or one per mode")
    raw = PHASE_COORDINATES if cfg.engine == "sde-jc" else ()
    try:
        physical_columns(params, cfg.observables, cfg.probes, raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _format_complex(value: complex) -> str:
    return f"{value.real!r} {value.imag!r}"


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    lines = ["[run]", f"engine = {cfg.engine}"]
    lines.append(f"runs = {cfg.runs}")
    lines.append(f"master_seed = {cfg.master_seed}")
    lines.append("observables = " + ", ".join(cfg.observables))
    if cfg.probes:
        lines.append("probes = " + ", ".join(repr(x) for x in cfg.probes))
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    lines.append(f"divergence_threshold = {cfg.divergence_threshold!r}")
    lines.append(f"n_max = {cfg.n_max}")
    lines.append("")
    lines.append("[model]")
    lines.append(f"Omega = {cfg.Omega!r}")
    if cfg.omega:
        lines.append("omega = " + ", ".join(repr(x) for x in cfg.omega))
    else:
        lines.append(f"mode_count = {cfg.mode_count}")
    lines.append("g = " + ", ".join(repr(x) for x in cfg.g))
    if cfg.x0 is not None:
        lines.append(f"x0 = {cfg.x0!r}")
    if cfg.length is not None:
        lines.append(f"length = {cfg.length!r}")
    for name in ("area", "hbar", "c", "epsilon0", "r12", "r21", "r_p"):
        lines.append(f"{name} = {getattr(cfg, name)!r}")
    lines.append("")
    lines.append("[grid]")
    lines.append(f"t_start = {cfg.t_start!r}")
    lines.append(f"t_end = {cfg.t_end!r}")
    lines.append(f"steps = {cfg.steps}")
    lines.append("")
    lines.append("[family]")
    lines.append(f"kind = {cfg.family_kind}")
    lines.append(f"delta = {_format_complex(cfg.delta)}")
    lines.append(f"kappa = {_format_complex(cfg.kappa)}")
    lines.append("")
    lines.append("[initial]")
    lines.append("alpha = " + ", ".join(_format_complex(a) for a in cfg.alpha))
    lines.append(f"rho11 = {cfg.rho11!r}")
    lines.append(f"rho12 = {_format_complex(cfg.rho12)}")
    lines.append("")
    lines.append("[invariants]")
    lines.append(f"seed = {cfg.invariants_seed}")
    lines.append(f"points = {cfg.invariants_points}")
    return "\n".join(lines) + "\n"
