import csv
import dataclasses
import json
import os
import platform
import tracemalloc
import warnings

import numpy as np
import pytest

import ppcavity.cli as cli_module
import ppcavity.jc as jc_module
from ppcavity.cli import main, read_csv, write_csv
from ppcavity.config import ENGINES, RunConfig, parse_config, serialize_config, validate_config
from ppcavity.errors import ConfigError
from ppcavity.invariants import DEFAULT_POINTS, DEFAULT_SEED, run_all
from ppcavity.maxwell_bloch import BLOCH_BOUND_SLACK
from ppcavity.reference import DIMENSION_CAP

from helpers import strict_json

FIG3_REFERENCE = """
[run]
engine = reference
observables = rho_11, rho_22, rho_21, rho_12
n_max = 8

[model]
Omega = 1000
omega = 1100
g = 200

[grid]
t_end = 2.8559933214452665e-3
steps = 64

[initial]
alpha = 5 0
rho11 = 0.7310585786300049
"""


def small_sde_config(tmp_path, out_name="out.csv", **extra):
    lines = {
        "engine": "sde-jc",
        "runs": "12",
        "master_seed": "7",
    }
    lines.update(extra)
    run_section = "\n".join(f"{k} = {v}" for k, v in lines.items())
    return f"""
[run]
{run_section}
out = {tmp_path / out_name}

[model]
Omega = 40
omega = 50
g = 5

[grid]
t_end = 0.05
steps = 100

[initial]
alpha = 1 0
rho11 = 0.7
"""


def random_config(rng) -> RunConfig:
    """A valid configuration drawn from ``rng`` that sets every key of the format.

    Both model routes occur (explicit ``omega``, or ``length``/``mode_count``),
    and the optional values (``x0``, ``length``, ``out``, probes) are sometimes
    left out.  Floats use all their digits, so a lossy format would show.
    """

    def real(lo, hi):
        return float(rng.uniform(lo, hi))

    def cplx(scale):
        return complex(real(-scale, scale), real(-scale, scale))

    modes = int(rng.integers(1, 4))
    engine = ENGINES[int(rng.integers(len(ENGINES)))]
    coherent = engine == "sde-mb-experimental" or rng.random() < 0.5
    c = real(0.5, 2.0)
    fields = {"engine": engine, "c": c, "Omega": real(0.0, 2000.0)}
    if rng.random() < 0.5:
        fields["omega"] = tuple(np.cumsum(rng.uniform(1.0, 100.0, modes)).tolist())
        length = real(0.5, 2.0) if rng.random() < 0.5 else None
        fields["length"] = length
        length = length or float(np.pi * c / fields["omega"][0])
    else:
        length = fields["length"] = real(0.5, 2.0)
        fields["mode_count"] = modes
    fields["g"] = tuple(rng.uniform(0.0, 300.0, modes if rng.random() < 0.7 else 1).tolist())
    if rng.random() < 0.5:
        fields["x0"] = length * real(0.05, 0.95)
    for name in ("area", "hbar", "epsilon0"):
        fields[name] = real(0.1, 3.0)
    for name in ("r12", "r21", "r_p"):
        fields[name] = real(0.0, 100.0) if rng.random() < 0.5 else 0.0
    fields["t_start"] = real(-1.0, 1.0)
    fields["t_end"] = fields["t_start"] + real(1e-4, 1.0)
    fields["steps"] = int(rng.integers(1, 10_000))
    fields["family_kind"] = "coherent-spin" if coherent else "additive-noise"
    fields["delta"] = complex(real(1.0, 8.0), real(-1.0, 1.0))
    fields["kappa"] = cplx(1.0)
    fields["alpha"] = tuple(cplx(6.0) for _ in range(modes if rng.random() < 0.5 else 1))
    rho11 = fields["rho11"] = real(0.05, 0.95)
    phase = complex(np.exp(2j * np.pi * rng.random()))
    fields["rho12"] = 0.9 * (rho11 * (1.0 - rho11)) ** 0.5 * phase
    probes = tuple(length * real(0.0, 1.0) for _ in range(int(rng.integers(0, 3))))
    names = ["rho_11", "rho_22", "rho_21", "rho_12", "nu"]
    names += [f"{q}_{n}" for q in "eh" for n in range(1, modes + 1)]
    names += [f"{q}_at_{j}" for q in "EH" for j in range(1, len(probes) + 1)]
    names += ["z", "w"] if engine == "sde-jc" else []
    picked = rng.choice(len(names), size=int(rng.integers(1, len(names) + 1)), replace=False)
    fields["observables"] = tuple(names[i] for i in sorted(picked))
    fields["probes"] = probes
    fields["out"] = f"out-{int(rng.integers(1000))}.csv" if rng.random() < 0.5 else None
    fields["runs"] = int(rng.integers(1, 5000))
    fields["master_seed"] = int(rng.integers(0, 2**64, dtype=np.uint64))
    fields["divergence_threshold"] = real(1.0, 1e9)
    n_max = int(rng.integers(1, 80))
    while engine == "reference" and 2 * (n_max + 1) ** modes > DIMENSION_CAP:
        n_max -= 1  # a reference config's truncated space stays within the cap
    fields["n_max"] = n_max
    fields["invariants_seed"] = int(rng.integers(0, 2**64, dtype=np.uint64))
    fields["invariants_points"] = int(rng.integers(1, 500))
    return RunConfig(**fields)


class TestParsing:
    def test_minimal_reference_config(self):
        cfg = parse_config(FIG3_REFERENCE)
        assert cfg.engine == "reference"
        assert cfg.family_kind == "additive-noise"
        assert cfg.delta == 4.0 + 0.0j
        assert cfg.n_max == 8
        params = cfg.model_params()
        assert params.omega == (1100.0,)
        assert params.mode_amplitudes[0] == pytest.approx(1.0)
        assert cfg.grid().steps == 64

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigError, match="engine"):
            parse_config("")

    def test_unknown_key_reports_line(self):
        text = "[run]\nengine = reference\nbogus = 1\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nope]\nx = 1\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("engine = reference\n")

    def test_workers_key_rejected(self):
        # ensembles run their chunks serially; the worker count is no setting
        text = FIG3_REFERENCE.replace("n_max = 8", "n_max = 8\nworkers = 2")
        with pytest.raises(ConfigError, match="line 6: unknown key 'workers'"):
            parse_config(text)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", "run.cfg", "--workers", "2"])
        assert exit_info.value.code == 2

    def test_duplicate_key(self):
        text = "[run]\nengine = reference\nengine = mb\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_bad_value(self):
        text = FIG3_REFERENCE.replace("steps = 64", "steps = sixty")
        with pytest.raises(ConfigError, match="expected int"):
            parse_config(text)

    def test_round_trip(self):
        cfg = parse_config(FIG3_REFERENCE)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_seeded_random_round_trip(self):
        rng = np.random.Generator(np.random.Philox(key=20241))
        routes = set()
        for _ in range(300):
            cfg = random_config(rng)
            text = serialize_config(cfg)
            assert parse_config(text) == cfg, text
            assert serialize_config(parse_config(text)) == text
            routes.add(bool(cfg.omega))
        assert routes == {True, False}

    @pytest.mark.parametrize("engine", ["reference", "mb", "sde-jc"])
    @pytest.mark.parametrize(
        "line",
        [
            "Omega = nan",
            "g = inf",
            "t_end = inf",
            "rho11 = nan",
            # short ids keep every test name within 100 characters
            pytest.param("alpha = 5 -inf", id="alpha=5 -inf"),
            "delta = 4 nan",
            pytest.param("divergence_threshold = inf", id="threshold=inf"),
        ],
    )
    def test_non_finite_value_names_its_line(self, engine, line):
        key = line.split()[0]
        text = FIG3_REFERENCE.replace("engine = reference", f"engine = {engine}")
        text += "\n[family]\ndelta = 4 0\n[run]\ndivergence_threshold = 1e6\n"
        lines = [line if row.startswith(f"{key} =") else row for row in text.splitlines()]
        lineno = 1 + next(i for i, row in enumerate(lines) if row == line)
        with pytest.raises(ConfigError, match=f"line {lineno}: expected a finite number"):
            parse_config("\n".join(lines))

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_divergence_threshold_must_be_positive(self, value):
        text = FIG3_REFERENCE.replace("n_max = 8", f"n_max = 8\ndivergence_threshold = {value}")
        with pytest.raises(ConfigError, match="divergence_threshold must be > 0"):
            parse_config(text)

    @pytest.mark.parametrize(
        "section, line, message",
        [
            ("run", "master_seed = -1", "master_seed must satisfy 0 <= seed < 2\\*\\*64"),
            ("run", f"master_seed = {2**64}", "master_seed must satisfy"),
            ("invariants", "seed = -1", "\\[invariants\\] seed must satisfy"),
            ("invariants", f"seed = {2**64}", "\\[invariants\\] seed must satisfy"),
            ("invariants", "points = 0", "\\[invariants\\] points must be >= 1"),
        ],
        ids=["run-neg-seed", "run-big-seed", "inv-neg-seed", "inv-big-seed", "inv-0-points"],
    )
    def test_seeds_and_points_are_range_checked(self, section, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(FIG3_REFERENCE + f"\n[{section}]\n{line}\n")
        edge = f"master_seed = {2**64 - 1}\n[invariants]\nseed = {2**64 - 1}\npoints = 1\n"
        cfg = parse_config(FIG3_REFERENCE + "\n[run]\n" + edge)
        assert cfg.master_seed == cfg.invariants_seed == 2**64 - 1

    def test_alias_normalization(self):
        text = FIG3_REFERENCE.replace(
            "observables = rho_11, rho_22, rho_21, rho_12",
            "observables = rho11, nu",
        )
        cfg = parse_config(text)
        assert cfg.observables == ("rho_11", "nu")


class TestValidation:
    def test_stochastic_engine_needs_interior_population(self):
        text = FIG3_REFERENCE.replace("engine = reference", "engine = sde-jc").replace(
            "rho11 = 0.7310585786300049", "rho11 = 1"
        )
        with pytest.raises(ConfigError, match="0 < rho11 < 1"):
            parse_config(text)

    def test_changed_variable_engine_requires_coherent_spin(self):
        text = FIG3_REFERENCE.replace(
            "engine = reference", "engine = sde-mb-experimental"
        )
        with pytest.raises(ConfigError, match="coherent-spin"):
            parse_config(text)
        ok = text + "\n[family]\nkind = coherent-spin\n"
        assert parse_config(ok).family_kind == "coherent-spin"

    def test_initial_density_must_be_representable_by_the_family(self):
        # rho11 = 1/2 gives K = 1, and h = 1 is not reachable for the
        # additive-noise family: refused at parse time, naming [initial]
        half = FIG3_REFERENCE.replace("rho11 = 0.7310585786300049", "rho11 = 0.5")
        text = half.replace("engine = reference", "engine = sde-jc")
        with pytest.raises(ConfigError, match=r"^\[initial\] for the additive-noise family"):
            parse_config(text + "\n[family]\nkind = additive-noise\n")
        for engine in ("sde-jc", "sde-mb-experimental"):
            text = half.replace("engine = reference", f"engine = {engine}")
            assert parse_config(text + "\n[family]\nkind = coherent-spin\n").rho11 == 0.5
        assert parse_config(half).rho11 == 0.5  # the reference needs no phase-space points

    @pytest.mark.parametrize("excess", [5e-10, 0.0], ids=["beyond", "pure"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_gives_a_density_one_positivity_verdict(self, engine, excess):
        # rho11 = 1e-6 and |rho12|^2 = p(1 - p) + 5e-10 has det -5e-10, within
        # an absolute 1e-9, but a coherence weight q = 1.00025: one rule refuses
        # it for every engine, and accepts the pure state on the boundary
        p = 1e-6
        r = (p * (1.0 - p) + excess) ** 0.5
        text = FIG3_REFERENCE.replace("engine = reference", f"engine = {engine}").replace(
            "rho11 = 0.7310585786300049", f"rho11 = {p!r}\nrho12 = {r!r} 0"
        ) + "\n[family]\nkind = coherent-spin\n"
        if excess:
            with pytest.raises(ConfigError, match="^initial atomic density: .* not positive"):
                parse_config(text)
        else:
            assert parse_config(text).rho12 == r

    def test_unknown_family_kind_is_refused_by_the_family(self):
        cfg = RunConfig(engine="sde-jc", Omega=1000.0, omega=(1100.0,), g=(200.0,),
                        family_kind="coherent_spin")
        with pytest.raises(ValueError, match="unknown basis family kind 'coherent_spin'"):
            cfg.family()
        with pytest.raises(ConfigError, match="'coherent_spin'"):
            validate_config(cfg)

    def test_reference_dimension_cap_is_a_parse_error(self):
        text = FIG3_REFERENCE.replace("n_max = 8", "n_max = 3000")
        with pytest.raises(ConfigError, match="truncated dimension 6002 exceeds the cap 4096"):
            parse_config(text)
        # the SDE engines build no truncated space, so n_max does not bind them
        sde = text.replace("engine = reference", "engine = sde-jc")
        assert parse_config(sde).n_max == 3000

    def test_probe_observable_requires_probe(self):
        text = FIG3_REFERENCE.replace(
            "observables = rho_11, rho_22, rho_21, rho_12",
            "observables = E_at_1",
        )
        with pytest.raises(ConfigError, match="probe"):
            parse_config(text)

    @pytest.mark.parametrize(
        "listed, repeated",
        [("nu, rho_11, nu", "nu"), ("rho11, rho_11", "rho_11"), ("rho_21, e_1, rho21", "rho_21")],
    )
    def test_repeated_observable_is_rejected(self, listed, repeated):
        # a repeated column would be read as its first copy by compare and
        # EnsembleResult.column; aliases fold first, so rho11 repeats rho_11
        text = FIG3_REFERENCE.replace(
            "observables = rho_11, rho_22, rho_21, rho_12", f"observables = {listed}"
        )
        with pytest.raises(ConfigError, match=f"observable '{repeated}' is listed more than once"):
            parse_config(text)
        cfg = RunConfig(engine="reference", Omega=1000.0, omega=(1100.0,), g=(200.0,),
                        observables=tuple(v.strip() for v in listed.split(",")))
        with pytest.raises(ConfigError, match=f"'{repeated}'"):
            validate_config(cfg)

    def test_phase_coordinates_only_for_phase_engine(self):
        text = FIG3_REFERENCE.replace(
            "observables = rho_11, rho_22, rho_21, rho_12", "observables = z, w"
        )
        with pytest.raises(ConfigError, match="sde-jc"):
            parse_config(text)


class TestRunCommand:
    def test_reference_run_writes_constant_population_column(self, tmp_path):
        # g = 0 keeps populations frozen
        text = FIG3_REFERENCE.replace("g = 200", "g = 0")
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / "ref.csv"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        header, data = read_csv(out_path)
        assert header[0] == "t"
        assert "real_rho_11" in header and "imag_rho_21" in header
        assert all(not h.startswith("stderr_") for h in header)
        col = data[:, header.index("real_rho_11")]
        assert np.abs(col - col[0]).max() <= 1e-12
        meta = json.loads((tmp_path / "ref.csv.meta.json").read_text())
        assert meta["engine"] == "reference"
        assert "config_sha256" in meta and len(meta["config_sha256"]) == 64
        for key in (
            "max_trace_error", "max_herm_error", "max_purity", "min_eigenvalue",
            "max_energy_drift",
        ):
            assert isinstance(meta[key], float)
        assert meta["max_trace_error"] <= 1e-6
        assert meta["integrator"] == "spectral"  # no dissipation: exact propagation
        assert "max_parity_leak" not in meta  # a diagnostic of the split step only
        # g = 0: the populations, and with them the energy, stay where they are
        assert 0.0 <= meta["max_energy_drift"] <= 1e-12

    def test_positivity_loss_is_warned(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "run.cfg"
        out = str(tmp_path / "ref.csv")
        # without dissipation the reference propagates exactly, so its lowest
        # eigenvalue is roundoff; the loss is injected below
        cfg_path.write_text(FIG3_REFERENCE.replace("steps = 64", "steps = 1024"))
        assert main(["run", "--config", str(cfg_path), "--out", out]) == 0
        assert "warning" not in capsys.readouterr().err
        evolve = cli_module.evolve

        def lossy_evolve(*args, **kwargs):
            traj = evolve(*args, **kwargs)
            traj.min_eigenvalue = -1.24e-8
            return traj

        monkeypatch.setattr(cli_module, "evolve", lossy_evolve)
        assert main(["run", "--config", str(cfg_path), "--out", out]) == 0
        err = capsys.readouterr().err
        assert (
            "warning: minimum density-matrix eigenvalue -1.240e-08 is below -1e-08; "
            "the reference lost positivity\n" in err
        )
        assert json.loads((tmp_path / "ref.csv.meta.json").read_text())["min_eigenvalue"] == -1.24e-8
        monkeypatch.undo()
        # a lossy two-mode model at a coarse step: both split-step factors are
        # completely positive, so the lowest eigenvalue is roundoff (measured
        # -1.6e-16 to -4.9e-16) and nothing is warned
        lossy = (
            FIG3_REFERENCE.replace("n_max = 8", "n_max = 2")
            .replace("omega = 1100", "omega = 1100, 1900")
            .replace("g = 200", "g = 200, 150\nr21 = 100\nr_p = 50")
            .replace("alpha = 5 0", "alpha = 1 0")
        )
        for steps in (256, 512):
            cfg_path.write_text(lossy.replace("steps = 64", f"steps = {steps}"))
            assert main(["run", "--config", str(cfg_path), "--out", out]) == 0
            err = capsys.readouterr().err
            meta = json.loads((tmp_path / "ref.csv.meta.json").read_text())
            assert meta["integrator"] == "strang"
            # U enters the step as its two parity blocks; what it drops is roundoff
            assert 0.0 <= meta["max_parity_leak"] <= 1e-14
            assert meta["min_eigenvalue"] >= -1e-14
            assert "warning" not in err

    def test_sde_run_is_reproducible_bytes(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(small_sde_config(tmp_path, "a.csv"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "a.csv").read_bytes()
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == first
        header, data = read_csv(tmp_path / "a.csv")
        assert "stderr_rho_11" in header
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["runs_requested"] == 12
        assert meta["master_seed"] == 7
        assert len(meta["divergence_steps"]) == len(meta["diverged_paths"])
        # the default chunk is wider than the 12 runs: one chunk of 12 ran
        assert meta["chunk_size"] == 12

    def test_seed_flag_and_env_override(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(small_sde_config(tmp_path, "b.csv"))
        assert main(["run", "--config", str(cfg_path), "--seed", "99"]) == 0
        meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
        assert meta["master_seed"] == 99
        monkeypatch.setenv("PPCAVITY_SEED", "123")
        assert main(["run", "--config", str(cfg_path)]) == 0
        meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
        assert meta["master_seed"] == 123
        # explicit flag beats the environment
        assert main(["run", "--config", str(cfg_path), "--seed", "77"]) == 0
        meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
        assert meta["master_seed"] == 77

    def test_rerun_from_sidecar_config_is_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(small_sde_config(tmp_path, "first.csv"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        meta = json.loads((tmp_path / "first.csv.meta.json").read_text())
        again = tmp_path / "again.cfg"
        again.write_text(meta["config"])
        second = tmp_path / "second.csv"
        assert main(["run", "--config", str(again), "--out", str(second)]) == 0
        assert second.read_bytes() == (tmp_path / "first.csv").read_bytes()

    def test_overrides_are_parsed_and_validated(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(small_sde_config(tmp_path, "c.csv"))
        monkeypatch.setenv("PPCAVITY_SEED", "abc")
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "environment variable PPCAVITY_SEED: expected int, got 'abc'" in err
        monkeypatch.delenv("PPCAVITY_SEED")
        assert main(["run", "--config", str(cfg_path), "--runs", "0"]) == 1
        assert "runs must be >= 1" in capsys.readouterr().err
        mb_path = tmp_path / "mb.cfg"
        mb_path.write_text(FIG3_REFERENCE.replace("engine = reference", "engine = mb"))
        out_path = tmp_path / "mb.csv"
        assert main(["run", "--config", str(mb_path), "--out", str(out_path), "--seed", "-5"]) == 1
        assert "master_seed must satisfy" in capsys.readouterr().err
        assert not out_path.exists()
        assert not (tmp_path / "mb.csv.meta.json").exists()

    def test_mb_engine_runs(self, tmp_path):
        text = FIG3_REFERENCE.replace("engine = reference", "engine = mb")
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / "mb.csv"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        header, data = read_csv(out_path)
        assert data.shape[0] == 65
        meta = json.loads((tmp_path / "mb.csv.meta.json").read_text())
        assert isinstance(meta["max_bloch_violation"], float)

    def test_pure_state_mb_run_reports_its_bloch_bound_violation(self, tmp_path, capsys):
        # a pure atomic state starts on the Bloch sphere, and the RK4
        # truncation error of 4096 steps takes it just outside: a warning
        # line, not a RuntimeWarning
        text = FIG3_REFERENCE.replace("engine = reference", "engine = mb")
        text = text.replace("t_end = 2.8559933214452665e-3", "t_end = 0.05")
        text = text.replace("steps = 64", "steps = 4096")
        text = text.replace("rho11 = 0.7310585786300049", "rho11 = 0.5\nrho12 = 0.5 0")
        cfg_path = tmp_path / "run.cfg"
        out_path = tmp_path / "mb.csv"
        cfg_path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        header, data = read_csv(out_path)
        assert data.shape[0] == 4097
        meta = json.loads((tmp_path / "mb.csv.meta.json").read_text())
        assert meta["max_bloch_violation"] > BLOCH_BOUND_SLACK
        assert "warning: Bloch-sphere bound violated" in capsys.readouterr().err

    def test_pure_state_bloch_violation_is_rk4_truncation(self, tmp_path, capsys):
        # the violation falls like dt^4 (7.5x and 11.3x per doubling here),
        # not like roundoff, so a finer grid stays on the sphere and warns not
        text = FIG3_REFERENCE.replace("engine = reference", "engine = mb")
        text = text.replace("t_end = 2.8559933214452665e-3", "t_end = 0.05")
        text = text.replace("rho11 = 0.7310585786300049", "rho11 = 0.5\nrho12 = 0.5 0")
        cfg_path, out_path = tmp_path / "run.cfg", tmp_path / "mb.csv"
        violations = []
        for steps in (2048, 4096, 8192):
            cfg_path.write_text(text.replace("steps = 64", f"steps = {steps}"))
            capsys.readouterr()
            assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
            meta = json.loads((tmp_path / "mb.csv.meta.json").read_text())
            violations.append(meta["max_bloch_violation"])
        assert violations[0] >= 5.0 * violations[1] and violations[1] >= 5.0 * violations[2]
        assert violations[2] <= BLOCH_BOUND_SLACK
        assert "Bloch" not in capsys.readouterr().err

    def test_experimental_engine_runs(self, tmp_path):
        text = small_sde_config(tmp_path, "x.csv").replace(
            "engine = sde-jc", "engine = sde-mb-experimental"
        )
        text += "\n[family]\nkind = coherent-spin\n"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path)]) == 0
        header, _ = read_csv(tmp_path / "x.csv")
        assert "real_nu" in header

    @staticmethod
    def engine_config(tmp_path, engine):
        """A small config file for ``engine``."""
        if engine.startswith("sde"):
            text = small_sde_config(tmp_path, engine=engine) + "\n[family]\nkind = coherent-spin\n"
        else:
            text = FIG3_REFERENCE.replace("engine = reference", f"engine = {engine}")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        return cfg_path

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_prints_its_summary_line(self, tmp_path, capsys, engine):
        out = tmp_path / "run.csv"
        if engine.startswith("sde"):
            summary = f"{engine}: 12/12 runs completed (0 diverged) -> {out}\n"
        else:
            summary = f"{engine}: wrote {out}\n"
        cfg_path = self.engine_config(tmp_path, engine)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert capsys.readouterr() == (summary, "")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_records_its_environment(self, tmp_path, monkeypatch, engine):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg_path = self.engine_config(tmp_path, engine)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run.csv")]) == 0
        env = json.loads((tmp_path / "run.csv.meta.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert isinstance(env["blas"]["name"], str)
        assert env["blas_thread_env"] == {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": "3",
            "MKL_NUM_THREADS": None,
        }

    def test_divergent_fraction_is_warned(self, tmp_path, capsys):
        # at this threshold 1 of the 12 paths diverges
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(small_sde_config(tmp_path, "d.csv", divergence_threshold="4"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr() == (
            f"sde-jc: 11/12 runs completed (1 diverged) -> {tmp_path / 'd.csv'}\n",
            "warning: divergent fraction 8.33% exceeds 1%; statistics are suspect\n",
        )

    @pytest.mark.parametrize("excursion", [0.0, 100.0])
    def test_stderr_spike_is_warned(self, tmp_path, capsys, monkeypatch, excursion):
        # one path's alpha leaves by the excursion for one grid point and
        # comes back; its e_1 stderr peaks there, far above its median,
        # while no path diverges; a quiet run reads under the threshold
        def spiked_system(params, family, _system=cli_module.jc_sde_system):
            system = _system(params, family)
            steps = []

            def increment(prepared, dt, dw):
                out = system.increment(prepared, dt, dw)
                steps.append(None)
                out[0, 0] += {90: excursion, 91: -excursion}.get(len(steps), 0.0)
                return out

            return dataclasses.replace(system, increment=increment)

        monkeypatch.setattr(cli_module, "jc_sde_system", spiked_system)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(small_sde_config(tmp_path, "s.csv", observables="rho_11, e_1"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        spikes = json.loads((tmp_path / "s.csv.meta.json").read_text())
        err = capsys.readouterr().err
        if excursion:
            assert spikes["stderr_spike"] == spikes["stderr_spike_by_column"]["e_1"]
            assert spikes["stderr_spike"] > cli_module.STDERR_SPIKE_WARNING
            assert err.startswith("warning: a standard error peaks at ")
            assert err.count("\n") == 1
        else:
            assert spikes["stderr_spike"] < cli_module.STDERR_SPIKE_WARNING
            assert err == ""

    def test_missing_out_is_an_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(FIG3_REFERENCE)
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "output path" in capsys.readouterr().err


class TestCsv:
    def test_special_values_round_trip(self, tmp_path):
        times = np.array([0.0, 1.0])
        column = np.array([complex(-0.0, 5e-324), complex(np.nan, np.inf)])
        stderr = np.array([-np.inf, 0.1])
        write_csv(tmp_path / "s.csv", times, ("x",), [column], [stderr])
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines == ["t,real_x,imag_x,stderr_x", "0.0,-0.0,5e-324,-inf", "1.0,nan,inf,0.1"]
        header, data = read_csv(tmp_path / "s.csv")
        assert header == ["t", "real_x", "imag_x", "stderr_x"]
        expected = np.array([[0.0, -0.0, 5e-324, -np.inf], [1.0, np.nan, np.inf, 0.1]])
        assert np.array_equal(data, expected, equal_nan=True)
        assert np.array_equal(np.signbit(data), np.signbit(expected))

    def test_bytes_match_csv_writer_and_round_trip(self, tmp_path, rng):
        # one slice of rows, and two full slices and a partial third
        for n in (33, 2 * cli_module._CSV_ROWS + 37):
            times = np.linspace(0.0, 1e-3, n)
            parts = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-300, 300, (2, n))
            parts[:, :6] = [
                [-0.0, np.nan, np.inf, 5e-324, 1e308, 0.1],
                [0.0, -np.inf, -0.0, -5e-324, -2.2250738585072014e-308, 0.0],
            ]
            column = np.empty(n, dtype=complex)
            column.real, column.imag = parts
            stderr = np.abs(rng.standard_normal(n))
            stderr[:2] = [np.nan, np.inf]
            write_csv(tmp_path / "a.csv", times, ("x", "y"), [column, column[::-1]], [stderr, stderr])
            rows = np.column_stack(
                [times, column.real, column.imag, stderr, column[::-1].real, column[::-1].imag, stderr]
            )
            with open(tmp_path / "b.csv", "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["t", "real_x", "imag_x", "stderr_x", "real_y", "imag_y", "stderr_y"])
                writer.writerows(rows.tolist())
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
            header, data = read_csv(tmp_path / "a.csv")
            assert header[0] == "t" and len(header) == 7
            assert np.array_equal(data, rows, equal_nan=True)
            assert np.array_equal(np.signbit(data), np.signbit(rows))

    def test_rows_are_formatted_a_slice_at_a_time(self, tmp_path, rng):
        # the fig3 table: 8193 rows of t and five real/imag/stderr triples
        n, names = 8193, ("a", "b", "c", "d", "e")
        columns = list(rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n)))
        stderr = list(np.abs(rng.standard_normal((5, n))))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "a.csv", np.linspace(0.0, 1.0, n), names, columns, stderr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one slice is 0.45 MB formatted; the whole table held as an array is
        # 1 MB, and as Python floats 4 MB more
        assert peak <= n * 16 * 8


class TestCompareCommand:
    def test_hand_computed_deviations(self, tmp_path, capsys):
        times = np.array([0.0, 1.0, 2.0])
        a = [np.array([1.0 + 1j, 2.0 + 0j, 3.0 - 1j])]
        b = [np.array([1.0 + 1j, 2.5 + 0j, 3.0 + 0j])]
        write_csv(tmp_path / "a.csv", times, ("x",), a)
        write_csv(tmp_path / "b.csv", times, ("x",), b)
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "column,max_abs,rms"
        rows = {line.split(",")[0]: line.split(",")[1:] for line in out[1:]}
        # real_x deviations: (0, 0.5, 0); rms = sqrt(0.25/3)
        assert float(rows["real_x"][0]) == pytest.approx(0.5)
        assert float(rows["real_x"][1]) == pytest.approx(np.sqrt(0.25 / 3.0))
        # imag_x deviations: (0, 0, 1)
        assert float(rows["imag_x"][0]) == pytest.approx(1.0)
        assert float(rows["imag_x"][1]) == pytest.approx(np.sqrt(1.0 / 3.0))

    def test_row_count_mismatch(self, tmp_path, capsys):
        write_csv(tmp_path / "a.csv", [0.0, 1.0], ("x",), [np.array([1j, 2j])])
        write_csv(tmp_path / "b.csv", [0.0], ("x",), [np.array([1j])])
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 2

    def test_time_grid_mismatch_names_the_line(self, tmp_path, capsys):
        # equal row counts over different grids, as from two runs with the
        # same steps and another t_end
        values = [np.array([1j, 2j, 3j])]
        write_csv(tmp_path / "a.csv", [0.0, 0.5, 1.0], ("x",), values)
        write_csv(tmp_path / "b.csv", [0.0, 0.25, 0.5], ("x",), values)
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 2
        assert capsys.readouterr().err == "error: t differs at line 3 (0.5 vs 0.25)\n"

    def test_missing_t_column_names_the_file(self, tmp_path, capsys):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_csv(good, [0.0], ("x",), [np.array([1j])])
        bad.write_text("real_x,imag_x\r\n1.0,2.0\r\n")
        for pair in ([bad, good], [good, bad]):
            assert main(["compare", *map(str, pair)]) == 2
            assert capsys.readouterr().err == f"error: {bad}: no t column\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file, no header"),
            ("t,real_x\r\n1.0\r\n", "line 2 has 1 of 2 fields"),
            ("t,real_x\r\n1.0,2.0\r\n2.0,abc\r\n", "line 3: could not convert string to float: 'abc'"),
        ],
        ids=["empty-file", "short-row", "non-numeric-field"],
    )
    def test_malformed_csv_is_a_clean_error(self, tmp_path, capsys, text, message):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_csv(good, [0.0], ("x",), [np.array([1j])])
        bad.write_text(text)
        for pair in ([bad, good], [good, bad]):
            assert main(["compare", *map(str, pair)]) == 1
            assert capsys.readouterr().err == f"error: {bad}: {message}\n"


class TestInvariantsCommand:
    @pytest.mark.parametrize("points, seed", [(5, 11), (DEFAULT_POINTS, DEFAULT_SEED)])
    def test_suite_passes_and_report_is_stable(self, points, seed, capsys):
        flags = ["--points", str(points), "--seed", str(seed)]
        assert main(["check-invariants", *flags]) == 0
        first = capsys.readouterr().out
        assert main(["check-invariants", *flags]) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["passed"] is True
        assert (report["seed"], report["points"]) == (seed, points)
        assert len(report["checks"]) >= 10

    def test_injected_sign_error_fails_factorization(self, monkeypatch):
        true_noise = jc_module.noise_jc

        def corrupted(*args, **kwargs):
            out = true_noise(*args, **kwargs)
            out[..., 0, 0] = -out[..., 0, 0]
            return out

        monkeypatch.setattr(jc_module, "noise_jc", corrupted)
        report = run_all(seed=11, points=5)
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["factorization"]["passed"]
        assert not report["passed"]

    def test_run_all_checks_seed_and_points(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must satisfy 0 <= seed < 2\\*\\*64"):
                run_all(seed=seed, points=1)
        with pytest.raises(ValueError, match="points must be >= 1"):
            run_all(seed=0, points=0)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "error: seed must satisfy 0 <= seed < 2**64; got -1"),
            (["--seed", str(2**64)], f"error: seed must satisfy 0 <= seed < 2**64; got {2**64}"),
            (["--points", "0"], "error: points must be >= 1"),
        ],
        ids=["neg-seed", "big-seed", "0-points"],
    )
    def test_bad_seed_or_points_is_a_clean_error(self, flags, message, capsys):
        assert main(["check-invariants", *flags]) == 1
        assert message in capsys.readouterr().err

    def test_failing_check_is_written_as_strict_json(self, monkeypatch, tmp_path, capsys):
        # an infinite max_error is null in the report and inf on its stderr line
        def failing(seed, points, _run_all=run_all):
            report = _run_all(seed=seed, points=points)
            report["checks"][0].update(passed=False, max_error=float("inf"))
            report["passed"] = False
            return report

        monkeypatch.setattr(cli_module, "run_all", failing)
        out = tmp_path / "report.json"
        assert main(["check-invariants", "--points", "2", "--out", str(out)]) == 1
        check = strict_json(out)["checks"][0]
        assert check["max_error"] is None
        assert f"FAIL {check['name']}: max_error=inf " in capsys.readouterr().err

    def test_report_file_output(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(
            ["check-invariants", "--points", "4", "--seed", "3", "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["points"] == 4
