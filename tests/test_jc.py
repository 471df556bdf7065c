from functools import partial

import numpy as np
import pytest

from ppcavity import jc
from ppcavity.basis import BasisFamily, PhaseFunctions
from ppcavity.cli import run_mb
from ppcavity.config import RunConfig
from ppcavity.errors import PoleProximityError
from ppcavity.invariants import random_phase_state, random_rates, sample_model
from ppcavity.jc import (
    ModelParams,
    diffusion_jc,
    drift_jc,
    jc_sde_system,
    noise_jc,
    per_mode_amplitudes,
    phase_init_sampler,
    principal_sqrt,
    split_state,
)
from ppcavity.initialization import AtomicDensity, init_points
from ppcavity.observables import observable_bundle
from ppcavity.reference import TruncatedSpace, initial_density
from ppcavity.sde import TimeGrid, noise_matrix, run_ensemble

from helpers import single_mode_drift, single_mode_noise

CS = BasisFamily.coherent_spin()
ADD = BasisFamily.additive_noise(4.0, 0.0)


def fig_params(**rates):
    return ModelParams.from_frequencies(omega=1100.0, g=200.0, Omega=1000.0, **rates)


def test_principal_sqrt_matches_the_three_step_form(rng):
    # lift an imaginary -0.0 to +0.0, then take the root: bit for bit the
    # same on signed zeros, infinities, nan, subnormals and random values
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0])
    random = rng.standard_normal((2, 22000)) * 10.0 ** rng.integers(-320, 300, (2, 22000))
    random[1, :4000] = 0.0
    random[1, 4000:8000] = -0.0
    x = np.empty(special.size**2 + random.shape[1], dtype=complex)
    x.real = np.concatenate([np.repeat(special, special.size), random[0]])
    x.imag = np.concatenate([np.tile(special, special.size), random[1]])
    with np.errstate(all="ignore"):
        want = np.sqrt(np.where(x.imag == 0.0, x.real + 0.0j, x))
        got = principal_sqrt(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert principal_sqrt(complex(-4.0, -0.0)) == 2j


class TestModelParams:
    def test_from_cavity_mode_frequencies(self):
        params = ModelParams.from_cavity(length=2.0, mode_count=3, Omega=5.0, coupling=0.1)
        assert np.allclose(params.omega_array, np.pi / 2.0 * np.array([1, 2, 3]))
        assert np.allclose(params.wave_numbers, params.omega_array)
        assert params.x0 == 1.0

    def test_mode_arrays_are_computed_once_and_read_only(self):
        params = ModelParams.from_cavity(length=2.0, mode_count=3, Omega=5.0, coupling=0.1)
        for name in ("omega_array", "g_array", "wave_numbers", "mode_amplitudes", "gs", "e_photon"):
            values = getattr(params, name)
            assert getattr(params, name) is values
            with pytest.raises(ValueError):
                values[0] = 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(Omega=1.0, omega=(2.0, 1.0), g=(0.1, 0.1), x0=0.5, length=1.0)
        with pytest.raises(ValueError):
            ModelParams(Omega=1.0, omega=(1.0,), g=(0.1,), x0=2.0, length=1.0)
        with pytest.raises(ValueError):
            ModelParams(Omega=1.0, omega=(1.0,), g=(0.1,), x0=0.5, length=1.0, r12=-1.0)
        with pytest.raises(ValueError):
            ModelParams(Omega=1.0, omega=(1.0,), g=(0.1, 0.2), x0=0.5, length=1.0)

    def test_rates_and_photon_field(self):
        params = ModelParams.from_frequencies(
            omega=(1.0, 2.0), g=(0.1, 0.1), Omega=3.0, r12=0.4, r21=0.2, r_p=0.1
        )
        assert params.gamma1 == pytest.approx(0.6)
        assert params.gamma2 == pytest.approx(0.4)
        assert params.nu0 == pytest.approx(0.2 / 0.6)
        assert np.allclose(
            params.e_photon, np.sqrt(params.omega_array / params.volume)
        )
        # no rates: steady-state inversion convention
        assert fig_params().nu0 == 0.0

    def test_dipole_moment_requires_proportional_couplings(self):
        bad = ModelParams.from_frequencies(omega=(1.0, 2.0), g=(0.1, 0.1), Omega=3.0)
        with pytest.raises(ValueError):
            bad.dipole_moment()
        e_p = bad.e_photon
        good = ModelParams.from_frequencies(
            omega=(1.0, 2.0), g=tuple(0.3 * e_p), Omega=3.0
        )
        m21 = good.dipole_moment()
        assert m21 == pytest.approx(-0.3)

    def test_split_state_layout(self):
        vec = np.array([1 + 2j, 3j, 0.5, -1.0, 0.1j, -0.2])
        alpha, beta, z, w = split_state(vec, 2)
        assert np.array_equal(alpha, [1 + 2j, 0.5])
        assert np.array_equal(beta, [3j, -1.0])
        assert (z, w) == (0.1j, -0.2)
        # batched: the same views along the last axis
        alpha, beta, z, w = split_state(np.stack([vec, 2 * vec]), 2)
        assert np.array_equal(alpha[1], [2 + 4j, 1.0])
        assert np.array_equal(w, [-0.2, -0.4])


class TestDrift:
    def test_zero_state_zero_drift(self):
        out = drift_jc(fig_params(), ADD, np.zeros(4, complex))
        assert np.abs(out).max() == 0.0

    def test_decoupled_limit_is_free_rotation(self, rng):
        params = ModelParams.from_frequencies(omega=(0.9, 1.7), g=(0.0, 0.0), Omega=1.3)
        for fam in (CS, ADD):
            state = random_phase_state(rng, fam, 2)
            out = drift_jc(params, fam, state)
            alpha = state[0:4:2]
            beta = state[1:4:2]
            pf = fam.jet(state[4], state[5])
            expected_bosonic_a = -1j * params.omega_array * alpha
            expected_bosonic_b = 1j * params.omega_array * beta
            assert np.abs(out[0:4:2] - expected_bosonic_a).max() <= 1e-14
            assert np.abs(out[1:4:2] - expected_bosonic_b).max() <= 1e-14
            assert abs(out[4] - (-1j) * params.Omega * pf.lin) <= 1e-13
            assert abs(out[5] - 1j * params.Omega * pf.lin_t) <= 1e-13

    def test_single_mode_closed_form(self, rng):
        params = fig_params()
        for delta in (4.0 + 0.0j, 3.0 + 1.0j):
            fam = BasisFamily.additive_noise(delta, 0.0)
            for _ in range(100):
                state = random_phase_state(rng, fam, 1)
                got = drift_jc(params, fam, state)
                want = single_mode_drift(params, delta, state)
                assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())

    def test_dissipation_touches_only_fermionic_rows(self, rng):
        params = sample_model(**random_rates(rng))
        free = sample_model()
        for fam in (CS, ADD):
            state = random_phase_state(rng, fam, params.mode_count)
            with_rates = drift_jc(params, fam, state)
            without = drift_jc(free, fam, state)
            n2 = 2 * params.mode_count
            assert np.array_equal(with_rates[:n2], without[:n2])
            assert np.abs(with_rates[n2:] - without[n2:]).max() > 0.0

    def test_singularity_error(self):
        params = fig_params()
        bad = np.array([0.1, 0.1, 1.0, -1.0], dtype=complex)  # 1 + z w = 0
        with pytest.raises(PoleProximityError):
            drift_jc(params, CS, bad)
        with pytest.raises(PoleProximityError):
            noise_jc(params, CS, bad)


class TestDiffusionAndNoise:
    def test_diffusion_symmetric(self, rng):
        params = sample_model(**random_rates(rng))
        for fam in (CS, ADD):
            state = random_phase_state(rng, fam, params.mode_count)
            for model in (sample_model(), params):
                d = diffusion_jc(model, fam, state)
                assert np.abs(d - d.T).max() == 0.0

    def test_additive_family_entries_are_constant(self, rng):
        params = sample_model()
        state = random_phase_state(rng, ADD, params.mode_count)
        d = diffusion_jc(params, ADD, state)
        n = params.mode_count
        for k in range(n):
            assert d[2 * k, 2 * n] == 1j * params.gs[k] * 4.0
            assert d[2 * k + 1, 2 * n + 1] == -1j * params.gs[k] * 4.0

    def test_coherent_spin_diffusion_vanishes_at_unit_points(self):
        params = fig_params()
        state = np.array([0.3, 0.1, 1.0, 0.5j], dtype=complex)  # z = 1
        d = diffusion_jc(params, CS, state)
        assert d[0, 2] == 0.0  # d_1 = g s (z^2 - 1) = 0

    def test_factorization(self, rng):
        free = sample_model()
        for _ in range(25):
            params = sample_model(**random_rates(rng))
            for fam in (CS, ADD, BasisFamily.additive_noise(3.0 + 1.0j, 0.1j)):
                state = random_phase_state(rng, fam, params.mode_count)
                b = noise_jc(free, fam, state)
                d = diffusion_jc(free, fam, state)
                assert np.abs(b @ b.T - d).max() <= 1e-12 * (1.0 + np.abs(d).max())
                bp = noise_jc(params, fam, state)
                dp = diffusion_jc(params, fam, state)
                assert np.abs(bp @ bp.T - dp).max() <= 1e-12 * (1.0 + np.abs(dp).max())

    def test_noise_single_mode_closed_form(self, rng):
        params = fig_params()
        for delta in (4.0 + 0.0j, 3.0 + 1.0j):
            fam = BasisFamily.additive_noise(delta, 0.0)
            state = random_phase_state(rng, fam, 1)
            got = noise_jc(params, fam, state)
            assert np.abs(got - single_mode_noise(params, delta)).max() <= 1e-14

    def test_additive_noise_matrix_state_independent(self, rng):
        params = sample_model()
        base = noise_jc(params, ADD, np.zeros(params.dim, complex))
        for _ in range(20):
            state = random_phase_state(rng, ADD, params.mode_count)
            assert np.array_equal(noise_jc(params, ADD, state), base)

    def test_dissipative_block(self, rng):
        params = sample_model(**random_rates(rng))
        state = random_phase_state(rng, CS, params.mode_count)
        n = params.mode_count
        extra = noise_jc(params, CS, state)[:, 4 * n :]
        d_entry = diffusion_jc(params, CS, state)[2 * n, 2 * n + 1]
        tt = extra @ extra.T
        want = np.zeros_like(tt)
        want[2 * n, 2 * n + 1] = want[2 * n + 1, 2 * n] = d_entry
        assert np.abs(tt - want).max() <= 1e-15 * (1.0 + abs(d_entry))
        # zero rates: the layout has no extra columns
        assert noise_jc(sample_model(), CS, state).shape == (2 * (n + 1), 4 * n)


def _formed_jets(monkeypatch):
    """Every PhaseFunctions formed from now on, in order."""
    jets = []

    def init(self, *args, _init=PhaseFunctions.__init__):
        _init(self, *args)
        jets.append(self)

    monkeypatch.setattr(PhaseFunctions, "__init__", init)
    return jets


class TestEnsembleIntegration:
    def test_decoupled_mode_rotates(self):
        params = ModelParams.from_frequencies(omega=50.0, g=0.0, Omega=40.0)
        atom = AtomicDensity.from_upper(0.7, 0.1)
        dist = init_points(atom, CS)
        sampler = phase_init_sampler(params, CS, 2.0, dist)
        system = jc_sde_system(params, CS)
        assert system.noise_dim == 4
        grid = TimeGrid(0.0, 0.2, 4000)
        res = run_ensemble(
            system,
            sampler,
            grid,
            40,
            3,
            observable_bundle(params, CS, ("e_1",)),
        )
        mean, err = res.column("e_1")
        # alpha rotates at -omega, beta at +omega: e = 2*Re(alpha_0 e^{-i w t})
        exact = 2.0 * 2.0 * np.cos(params.omega[0] * grid.times)
        # explicit-Euler error bounds: amplitude growth plus phase lag
        wdt = params.omega[0] * grid.dt
        k = np.arange(grid.steps + 1)
        amp = np.abs(1.0 + 1j * wdt) ** k - 1.0
        phase = k * wdt**3 / 3.0
        assert (np.abs(mean - exact) <= 4.0 * err + 4.0 * (amp + phase) + 1e-12).all()
        assert res.runs_diverged == 0

    @pytest.mark.parametrize("rates", [{}, {"r21": 100.0, "r_p": 50.0}])
    def test_one_jet_per_step_and_no_pair(self, monkeypatch, rates):
        # the stepping loop binds the jet once per chunk and prepares each
        # state once: the increment and the observable batch share its jet,
        # and nothing evaluates h again; the constant additive noise is formed
        # when the system is built, so no step forms a noise matrix
        params = fig_params(**rates)
        sampler = phase_init_sampler(
            params, ADD, 1.0, init_points(AtomicDensity.from_upper(0.7), ADD)
        )
        noise_calls = []

        def counted_noise(*args, _noise=jc.noise_jc, **kwargs):
            noise_calls.append(args)
            return _noise(*args, **kwargs)

        monkeypatch.setattr(jc, "noise_jc", counted_noise)
        system = jc_sde_system(params, ADD)
        noise_calls.clear()
        calls = {"bind_jet": 0, "pair": 0}
        for name in calls:

            def counted(self, *args, _name=name, _method=getattr(BasisFamily, name)):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(BasisFamily, name, counted)
        jets = _formed_jets(monkeypatch)
        grid = TimeGrid(0.0, 1e-4, 16)
        bundle = observable_bundle(params, ADD, ("rho_21", "nu", "e_1", "z"))
        # two chunks, of 6 and 4 paths
        run_ensemble(system, sampler, grid, 10, 5, bundle, chunk_size=6)
        assert calls == {"bind_jet": 2, "pair": 0}
        assert [len(pf.hs) for pf in jets] == [6] * (grid.steps + 1) + [4] * (grid.steps + 1)
        assert noise_calls == []

    @pytest.mark.parametrize(
        "rates, formed", [({}, set()), ({"r21": 100.0, "r_p": 50.0}, {"inv_slopes"})]
    )
    def test_a_step_forms_only_the_stacked_slopes_it_reads(self, monkeypatch, rates, formed):
        # the additive-noise drift, its constant noise and the projection
        # read no slope of either side; the dissipative terms read the
        # stacked inverse slopes (1/h', 1/htilde') only
        params = fig_params(**rates)
        sampler = phase_init_sampler(
            params, ADD, 1.0, init_points(AtomicDensity.from_upper(0.7), ADD)
        )
        system = jc_sde_system(params, ADD)
        jets = _formed_jets(monkeypatch)
        bundle = observable_bundle(params, ADD, ("rho_21", "nu", "e_1", "z"))
        grid = TimeGrid(0.0, 1e-4, 1)
        run_ensemble(system, sampler, grid, 6, 5, bundle)
        stacked = {"slopes", "curvatures", "inv_slopes"}
        # the bound step forms two jets: the first is read by the observables
        # and the increment, the last one by the observables alone
        assert len(jets) == 2
        assert stacked & set(vars(jets[0])) == formed
        assert stacked & set(vars(jets[-1])) == set()
        for name in formed:  # one array for both sides of the 6 paths
            assert vars(jets[0])[name].shape == (6, 2)
        for pf in jets:
            # each side is a view of its pair, never a member formed on its own
            assert {"hp", "htp", "hpp", "htpp", "inv_hp", "inv_htp"}.isdisjoint(vars(pf))
            for pair, sides in (("hs", ("h", "ht")), ("lins", ("lin", "lin_t"))):
                for i, name in enumerate(sides):
                    assert getattr(pf, name).base is getattr(pf, pair)
                    assert np.array_equal(getattr(pf, name), getattr(pf, pair)[..., i])

    def test_sampler_respects_weights(self, rng):
        params = fig_params()
        atom = AtomicDensity.from_upper(0.62, 0.21 * np.exp(0.4j))
        dist = init_points(atom, CS)
        sampler = phase_init_sampler(params, CS, 1.5, dist)
        draws = np.array([sampler(rng)[2] for _ in range(4000)])
        fractions = [np.mean(np.abs(draws - z) < 1e-12) for z in dist.zs]
        for frac, weight in zip(fractions, dist.weights):
            assert abs(frac - weight) <= 4.0 * np.sqrt(0.25 / 4000)


class TestPerModeAmplitudes:
    """One coherent amplitude or one per mode, the same rule in every consumer."""

    @staticmethod
    def consumers(n_modes):
        omega = tuple(float(k) for k in range(1, n_modes + 1))
        params = ModelParams.from_frequencies(omega=omega, g=0.1, Omega=1.5)
        atom = AtomicDensity.from_upper(0.7, 0.1j)
        dist = init_points(atom, CS)
        space = TruncatedSpace((2,) * n_modes)
        quadratures = tuple(f"{q}_{k}" for k in range(1, n_modes + 1) for q in "eh")
        return {
            "phase_init_sampler": lambda amps: phase_init_sampler(params, CS, amps, dist)(
                np.random.default_rng(0)
            ),
            "initial_density": lambda amps: initial_density(params, space, amps, atom),
            # every coordinate of the trajectory: each mode's quadratures and the atom
            "run_mb": lambda amps: run_mb(
                RunConfig(
                    engine="mb", Omega=1.5, omega=omega, g=(0.1,), alpha=amps, steps=4,
                    observables=quadratures + ("rho_21", "rho_12", "nu"),
                )
            ).values,
        }

    @pytest.mark.parametrize("n_modes, count", [(2, 3), (3, 2)])
    def test_wrong_count_raises(self, n_modes, count):
        amps = tuple(0.5 + 0.1j * k for k in range(count))
        with pytest.raises(ValueError, match="one per mode"):
            per_mode_amplitudes(amps, n_modes)
        for consume in self.consumers(n_modes).values():
            with pytest.raises(ValueError, match="one per mode"):
                consume(amps)

    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_scalar_equals_explicit_list(self, n_modes):
        for name, consume in self.consumers(n_modes).items():
            assert np.array_equal(consume(0.5 - 0.2j), consume((0.5 - 0.2j,) * n_modes)), name


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def test_join_state_is_coordinate_major():
    # the one layout writer lays a batch out as the stepping loop holds it:
    # each coordinate one contiguous run over the batch
    alpha = np.arange(6.0).reshape(3, 2) + 1j
    out = jc.join_state(alpha, 2.0 * alpha, np.ones(3), np.zeros(3))
    assert out.shape == (3, 6) and out.T.flags.c_contiguous
    assert np.array_equal(out[:, 0:4:2], alpha) and np.array_equal(out[:, 1:4:2], 2.0 * alpha)
    single = jc.join_state(alpha[0], alpha[0], 1.0, 0.0)
    assert single.shape == (6,) and single.flags.c_contiguous


@pytest.mark.parametrize("noise", [False, True, "units"], ids=["drift", "kick", "units"])
@pytest.mark.parametrize("rated", [False, True], ids=["free", "rates"])
@pytest.mark.parametrize("n_modes", [1, 2, 3])
@pytest.mark.parametrize("fam", [CS, ADD, BasisFamily.additive_noise(3.0 + 1.0j, 0.2 - 0.1j)])
def test_increment_on_a_coordinate_major_state_is_bit_identical(rng, fam, n_modes, rated, noise):
    # the .T view of a (dim, paths) state, as the stepping loop hands it
    # out, gives the increment of a C-order copy bit for bit, raw or with
    # its jet, through increment_jc and the system's increment alike; three
    # modes pin the order of the mode sums, and "units" is the call of
    # noise_matrix, a (points,) state against (m, 1, m) unit increments
    params = sample_model(n_modes, **(random_rates(rng) if rated else {}))
    states = np.stack([random_phase_state(rng, fam, n_modes) for _ in range(33)])
    states[3, -2:] = 0.0  # signed zeros in the jet
    coords = np.ascontiguousarray(states.T)
    m, dt = params.noise_dim, 0.01
    dw = rng.standard_normal((33, m)) * 0.1 if noise else None
    if noise == "units":
        dw, dt = np.eye(m).reshape(m, 1, m), 0.0
    got = jc.increment_jc(params, fam, coords.T, dt, dw, check=False)
    want = jc.increment_jc(params, fam, states, dt, dw, check=False)
    assert got.T.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(want))
    if noise is True:
        system = jc_sde_system(params, fam)
        got = system.increment(system.prepare(coords.T), dt, dw)
        want = system.increment(system.prepare(states), dt, dw)
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("rated", [False, True], ids=["free", "rates"])
@pytest.mark.parametrize("n_modes", [1, 2])
@pytest.mark.parametrize("fam", [CS, ADD], ids=["coherent-spin", "additive-noise"])
def test_system_increment_reads_unit_increments_as_noise_columns(rng, fam, n_modes, rated):
    # the SdeSystem contract takes dw (..., m): noise_matrix's (m, 1, m) unit
    # increments through the system's increment give its noise matrix at a
    # batch, the constant kick of the additive-noise system without rates too
    params = sample_model(n_modes, **(random_rates(rng) if rated else {}))
    system = jc_sde_system(params, fam)
    states = np.stack([random_phase_state(rng, fam, n_modes) for _ in range(5)])
    increment = partial(system.increment, system.prepare(states))
    got = noise_matrix(increment, params.noise_dim, 1)
    assert got.shape == (5, params.dim, params.noise_dim)
    assert np.array_equal(got, system.noise(states))


@pytest.mark.parametrize("n_modes", [1, 2])
@pytest.mark.parametrize("fam", [CS, ADD], ids=["coherent-spin", "additive-noise"])
def test_rate_arrays_give_the_per_point_coefficients(rng, fam, n_modes):
    # a model whose rates are (points,) arrays gives each point the
    # coefficients of a scalar model with that point's rates, bit for bit;
    # one point has r12 = 0, one r_p = 0.  Each scalar model sees the whole
    # stack and its own row is kept: numpy may round a batch of one apart
    # from a longer one
    rates = [random_rates(rng) for _ in range(9)]
    rates[2]["r12"] = rates[5]["r_p"] = 0.0
    states = np.stack([random_phase_state(rng, fam, n_modes) for _ in rates])
    dw = rng.standard_normal((len(rates), 4 * n_modes + 2))
    stacked = sample_model(n_modes, **{name: np.array([r[name] for r in rates]) for name in rates[0]})
    singles = [sample_model(n_modes, **r) for r in rates]
    coefficients = {
        "drift": lambda params, state, dw: jc.increment_jc(params, fam, state, 0.01),
        "increment": lambda params, state, dw: jc.increment_jc(params, fam, state, 0.01, dw),
        "noise": lambda params, state, dw: noise_jc(params, fam, state),
        "diffusion": lambda params, state, dw: diffusion_jc(params, fam, state),
    }
    for name, fn in coefficients.items():
        want = np.stack([fn(params, states, dw)[k] for k, params in enumerate(singles)])
        assert np.array_equal(_bits(fn(stacked, states, dw)), _bits(want)), name


@pytest.mark.parametrize("name", ["r12", "r21", "r_p"])
def test_a_negative_entry_of_a_rate_array_is_refused(name):
    rates = {name: np.array([0.3, -1e-3, 0.5])}
    with pytest.raises(ValueError, match=f"rate {name} must be nonnegative"):
        sample_model(**rates)
