"""Plain-text run configuration: sectioned ``key = value`` files.

``_SCHEMA`` is the one statement of the format, its sections, keys and value
kinds: :func:`parse_config` reads and :func:`serialize_config` writes it, one
kind at a time, through ``_KINDS``.  A complex value is an "re im" pair (one
number is a real value) and a list is comma separated.
:func:`validate_config` states what a parsed configuration must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .basis import ADDITIVE_NOISE, BasisFamily
from .errors import CavityError, ConfigError
from .initialization import AtomicDensity, init_points
from .invariants import DEFAULT_POINTS, DEFAULT_SEED
from .jc import ModelParams, per_mode_amplitudes, phase_init_sampler
from .observables import DEFAULT_OBSERVABLES, PHASE_COORDINATES, physical_columns
from .physical import physical_init_sampler
from .reference import TruncatedSpace
from .sde import DEFAULT_DIVERGENCE_THRESHOLD, TimeGrid, check_count, check_seed

ENGINES = ("sde-jc", "sde-mb-experimental", "reference", "mb")

#: density-matrix observables may drop the underscore: rho11 is rho_11
_OBSERVABLE_ALIASES = {f"rho{ij}": f"rho_{ij}" for ij in ("11", "22", "21", "12")}


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run, a field per key of ``_SCHEMA``;
    :func:`parse_config` returns it validated."""

    engine: str
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
    t_start: float = 0.0
    t_end: float = 1.0
    steps: int = 1
    family_kind: str = ADDITIVE_NOISE
    delta: complex = 4.0 + 0.0j
    kappa: complex = 0.0 + 0.0j
    alpha: tuple = (0j,)
    rho11: float = 0.5
    rho12: complex = 0j
    runs: int = 1000
    master_seed: int = 0
    observables: tuple = DEFAULT_OBSERVABLES
    probes: tuple = ()
    out: str | None = None
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD
    n_max: int = 60
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
        return BasisFamily(self.family_kind, self.delta, self.kappa)

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
    """Parse and fully validate a configuration; raises ConfigError, which
    names the line of an unknown section or key, a duplicate key, a malformed
    value or a non-finite number."""
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
    """Check ``cfg`` beyond its value kinds; raises ConfigError.

    Checked here: the engine, the seeds (0 <= seed < 2**64), at least one
    invariant point, a positive ``divergence_threshold``, at least one run of
    an SDE engine and no observable listed twice.  Every other rule belongs to
    an object the engine builds, and is checked by building it: the model,
    family, grid, amplitudes, initial density and observable columns, the
    truncated space of ``reference`` and the sampler chain of an SDE engine.
    """
    if cfg.engine not in ENGINES:
        raise ConfigError(
            f"engine must be one of {', '.join(ENGINES)}; got {cfg.engine!r}"
        )
    raw = PHASE_COORDINATES if cfg.engine == "sde-jc" else ()
    try:
        check_seed("master_seed", cfg.master_seed)
        check_seed("[invariants] seed", cfg.invariants_seed)
        check_count("[invariants] points", cfg.invariants_points)
        if not cfg.divergence_threshold > 0:
            raise ConfigError("divergence_threshold must be > 0")
        folded = [_OBSERVABLE_ALIASES.get(name, name) for name in cfg.observables]
        for i, name in enumerate(folded):
            if name in folded[:i]:
                raise ConfigError(f"observable {name!r} is listed more than once")
        params, family = cfg.model_params(), cfg.family()
        cfg.grid()
        per_mode_amplitudes(cfg.alpha, params.mode_count)
        physical_columns(params, cfg.observables, cfg.probes, raw)
        if cfg.engine == "reference":
            TruncatedSpace((cfg.n_max,) * params.mode_count)
    except (ValueError, CavityError) as exc:
        raise ConfigError(str(exc)) from None
    try:
        atom = cfg.atomic_density()
    except (ValueError, CavityError) as exc:
        raise ConfigError(f"initial atomic density: {exc}") from None
    if cfg.engine in ("sde-jc", "sde-mb-experimental"):
        try:
            check_count("runs", cfg.runs)
            sampler = phase_init_sampler(params, family, cfg.alpha, init_points(atom, family))
            if cfg.engine == "sde-mb-experimental":
                physical_init_sampler(family, sampler)
        except CavityError as exc:
            raise ConfigError(f"[initial] for the {cfg.family_kind} family: {exc}") from None
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
