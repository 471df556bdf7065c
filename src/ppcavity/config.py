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
value).  Lists are comma separated.  Unknown sections or keys, malformed
values and non-finite numbers (nan, inf) are rejected with the offending line
number.  Validation then requires 0 <= seed < 2**64 for ``master_seed`` and
the invariant seed, at least one invariant point, a positive
``divergence_threshold``, and every domain object (model, family, grid,
initial density, the SDE engines' initial points, observables) to construct.

``_SCHEMA`` is the one statement of the format: ``parse_config`` reads and
``serialize_config`` writes it, one value kind at a time, through ``_KINDS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .basis import ADDITIVE_NOISE, COHERENT_SPIN, BasisFamily
from .errors import CavityError, ConfigError
from .initialization import AtomicDensity, init_points
from .invariants import DEFAULT_POINTS, DEFAULT_SEED
from .jc import ModelParams
from .observables import DEFAULT_OBSERVABLES, PHASE_COORDINATES, physical_columns
from .sde import DEFAULT_DIVERGENCE_THRESHOLD, TimeGrid

ENGINES = ("sde-jc", "sde-mb-experimental", "reference", "mb")

#: density-matrix observables may drop the underscore: rho11 is rho_11
_OBSERVABLE_ALIASES = {f"rho{ij}": f"rho_{ij}" for ij in ("11", "22", "21", "12")}


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
    invariants_seed: int = DEFAULT_SEED
    invariants_points: int = DEFAULT_POINTS

    def model_params(self) -> ModelParams:
        # every ModelParams field is a RunConfig field of the same name
        model = {f.name: getattr(self, f.name) for f in fields(ModelParams)}
        if self.omega:
            return ModelParams.from_frequencies(**model)
        if self.length is None:
            raise ConfigError("either omega or length must be given in [model]")
        del model["omega"]
        return ModelParams.from_cavity(
            mode_count=self.mode_count, coupling=model.pop("g"), **model
        )

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


def _parse_str(text, line):
    return text


def _parse_int(text, line):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected int, got {text!r}", line) from None


def _parse_float(text, line):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected float, got {text!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}", line)
    return value


def _parse_complex(text, line):
    try:
        re_im = [float(part) for part in text.split()]
    except ValueError:
        re_im = []
    if len(re_im) not in (1, 2):
        raise ConfigError(f"expected a complex 're im' pair, got {text!r}", line)
    if not all(map(math.isfinite, re_im)):
        raise ConfigError(f"expected a finite number, got {text!r}", line)
    return complex(*re_im)


def _format_complex(value: complex) -> str:
    return f"{value.real!r} {value.imag!r}"


def _list_of(parse_item, format_item):
    def parse(text, line):
        out = tuple(
            parse_item(chunk.strip(), line) for chunk in text.split(",") if chunk.strip()
        )
        if not out:
            raise ConfigError("empty list value", line)
        return out

    return parse, lambda values: ", ".join(format_item(v) for v in values)


#: value kind -> (parse(text, line), format(value)); format inverts parse
_KINDS = {
    "str": (_parse_str, str),
    "int": (_parse_int, str),
    "float": (_parse_float, repr),
    "complex": (_parse_complex, _format_complex),
    "strlist": _list_of(_parse_str, str),
    "floatlist": _list_of(_parse_float, repr),
    "complexlist": _list_of(_parse_complex, _format_complex),
}

#: (section, key) -> (RunConfig field, value kind); also the serialized order
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

#: required keys, in the order their absence is reported
_REQUIRED = (
    ("run", "engine"),
    ("model", "Omega"),
    ("model", "g"),
    ("grid", "t_end"),
    ("grid", "steps"),
)


def parse_value(text: str, kind: str, source: str):
    """One value of ``kind`` read as the config file reads it; errors name ``source``."""
    try:
        return _KINDS[kind][0](text, None)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


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
        key, value = (part.strip() for part in line.split("=", 1))
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        attr, kind = _SCHEMA[(section, key)]
        if attr in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        values[attr] = _KINDS[kind][0](value, lineno)

    for section, key in _REQUIRED:
        if _SCHEMA[section, key][0] not in values:
            raise ConfigError(f"{key} is required in [{section}]")
    if "observables" in values:
        values["observables"] = tuple(_OBSERVABLE_ALIASES.get(v, v) for v in values["observables"])
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig):
    """Range and cross-field validation, constructing every domain object."""
    if cfg.engine not in ENGINES:
        raise ConfigError(
            f"engine must be one of {', '.join(ENGINES)}; got {cfg.engine!r}"
        )
    seeds = (("master_seed", cfg.master_seed), ("[invariants] seed", cfg.invariants_seed))
    for key, seed in seeds:
        if not 0 <= seed < 2**64:
            raise ConfigError(f"{key} must satisfy 0 <= seed < 2**64; got {seed}")
    if cfg.invariants_points < 1:
        raise ConfigError("[invariants] points must be >= 1")
    if not cfg.divergence_threshold > 0:
        raise ConfigError("divergence_threshold must be > 0")
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
        try:
            init_points(cfg.atomic_density(), cfg.family())
        except CavityError as exc:
            raise ConfigError(f"[initial] for the {cfg.family_kind} family: {exc}") from None
    if cfg.engine == "reference" and cfg.n_max < 1:
        raise ConfigError("n_max must be >= 1")
    n_alpha = len(cfg.alpha)
    if n_alpha not in (1, params.mode_count):
        raise ConfigError("alpha must list one amplitude or one per mode")
    folded = [_OBSERVABLE_ALIASES.get(name, name) for name in cfg.observables]
    for i, name in enumerate(folded):
        if name in folded[:i]:
            raise ConfigError(f"observable {name!r} is listed more than once")
    raw = PHASE_COORDINATES if cfg.engine == "sde-jc" else ()
    try:
        physical_columns(params, cfg.observables, cfg.probes, raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    sections: dict = {}
    for (section, key), (attr, kind) in _SCHEMA.items():
        value = getattr(cfg, attr)
        if value is None or (kind.endswith("list") and not value):
            continue
        if attr == "mode_count" and cfg.omega:
            continue
        line = f"{key} = {_KINDS[kind][1](value)}"
        sections.setdefault(section, [f"[{section}]"]).append(line)
    return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"
