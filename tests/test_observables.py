import warnings

import numpy as np
import pytest

from ppcavity.basis import BasisFamily
from ppcavity.errors import PoleProximityError
from ppcavity.initialization import AtomicDensity, init_points
from ppcavity.invariants import random_phase_state
from ppcavity.jc import ModelParams, jc_sde_system, jet_state, phase_init_sampler
from ppcavity.observables import (
    extend_with_observable,
    observable_bundle,
    physical_columns,
    physical_observable_bundle,
    projection_observable,
)
from ppcavity.physical import join_phys, reconstruct_fields, split_phys, to_physical
from ppcavity.reference import ReferenceTrajectory
from ppcavity.sde import TimeGrid, from_coefficients, run_ensemble

from helpers import ou_second_moment

CS = BasisFamily.coherent_spin()
ADD = BasisFamily.additive_noise(4.0, 0.0)

THERMAL_P = 1.0 / (1.0 + np.exp(-1.0))


def test_project_ground_state():
    # single mode: (epsilon, eta, rho21, rho12, nu)
    out = to_physical(CS, np.array([0, 0, 0, 0], dtype=complex))
    assert out[2] == 0.0
    assert out[3] == 0.0
    assert out[4] == -1.0


def test_project_equatorial_point():
    out = to_physical(CS, np.array([0, 0, 1.0, 1.0], dtype=complex))
    assert out[2] == 0.5
    assert out[3] == 0.5
    assert out[4] == 0.0


def test_project_field_quadratures():
    a = 0.7
    out = to_physical(CS, np.array([a, a, 0.1, 0.2], dtype=complex))
    assert out[0] == 2.0 * a
    assert out[1] == 0.0


def test_project_pole_error():
    with pytest.raises(PoleProximityError):
        to_physical(CS, np.array([0, 0, 1.0, -1.0], dtype=complex))


def test_thermal_initial_inversion(rng):
    # ensemble mean of nu over the sampled initial distribution at t = 0
    atom = AtomicDensity.from_upper(THERMAL_P, 0.0)
    dist = init_points(atom, ADD)
    zs, ws = dist.sample(rng, 10_000)
    state = np.zeros((10_000, 4), dtype=complex)
    state[:, 2] = zs
    state[:, 3] = ws
    nu = to_physical(ADD, state)[:, 4]
    stderr = nu.std() / np.sqrt(len(nu))
    target = 2.0 / (1.0 + np.e) - 1.0
    assert abs(nu.mean() - target) <= 4.0 * stderr + 1e-12


def test_observable_bundle_names(rng):
    params = ModelParams.from_frequencies(omega=(1.0, 2.0), g=(0.1, 0.1), Omega=3.0)
    bundle = observable_bundle(
        params, CS, ("rho_11", "rho_22", "nu", "e_2", "h_1", "z", "w", "E_at_1"),
        probes=(params.x0,),
    )
    state = random_phase_state(rng, CS, 2)
    row = bundle.batch(state)
    # two modes: (epsilon_1, eta_1, epsilon_2, eta_2, rho21, rho12, nu)
    phys = to_physical(CS, state)
    nu = phys[6]
    assert abs(row[0] - (1.0 - nu) / 2.0) <= 1e-15
    assert abs(row[1] - (1.0 + nu) / 2.0) <= 1e-15
    assert abs(row[2] - nu) <= 1e-15
    assert abs(row[3] - phys[2]) <= 1e-15
    assert abs(row[4] - phys[1]) <= 1e-15
    assert row[5] == state[4]
    assert row[6] == state[5]
    expected_field = (
        params.e_photon * np.sin(params.wave_numbers * params.x0) * phys[0:4:2]
    ).sum()
    assert abs(row[7] - expected_field) <= 1e-14
    # unknown names and out-of-range mode or probe indices fail when the
    # bundle is built, naming the observable
    one_mode = ModelParams.from_frequencies(omega=1.0, g=0.1, Omega=3.0)
    for model, bad in (
        (params, "nope"),
        (params, "e_0"),
        (params, "e_3"),
        (params, "E_at_0"),
        (params, "H_at_2"),
        (one_mode, "h_5"),
    ):
        with pytest.raises(ValueError, match=bad):
            observable_bundle(model, CS, (bad,), probes=(params.x0,))
        with pytest.raises(ValueError, match=bad):
            physical_observable_bundle(model, (bad,), probes=(params.x0,))


def test_columns_agree_across_engines(rng):
    # one column layer: the phase-space bundle on a state, the changed-variable
    # bundle on its physical coordinates and the deterministic-engine route on
    # the same coordinates give identical columns
    params = ModelParams.from_frequencies(omega=(1.0, 2.0), g=(0.1, 0.2), Omega=3.0)
    probes = (0.3 * params.length, 0.7 * params.length)
    names = ("rho_11", "rho_22", "rho_21", "rho_12", "nu", "e_1", "e_2", "h_1", "h_2",
             "E_at_1", "E_at_2", "H_at_1", "H_at_2")
    for fam in (CS, ADD):
        states = np.stack([random_phase_state(rng, fam, 2) for _ in range(16)])
        phys = to_physical(fam, states)
        phase = observable_bundle(params, fam, names, probes).batch(states)
        changed = physical_observable_bundle(params, names, probes).batch(phys)
        assert np.array_equal(phase, changed)
        eps, eta, rho21, rho12, nu = split_phys(phys, 2)
        traj = ReferenceTrajectory(
            times=np.arange(16.0), rho11=(1.0 - nu) / 2.0, rho22=(1.0 + nu) / 2.0,
            rho21=rho21, rho12=rho12, nu=nu, e=eps, h=eta, energy=np.zeros(16),
            max_trace_error=0.0, max_herm_error=0.0, max_purity=1.0, min_eigenvalue=0.0,
        )
        deterministic = physical_columns(params, names, probes)(traj.phys)
        assert np.array_equal(deterministic, phase)


#: every observable kind, on two modes and two probes, in a permuted order
ALL_KINDS = ("H_at_2", "w", "rho_22", "e_2", "nu", "E_at_1", "h_1", "rho_21", "z",
             "rho_11", "H_at_1", "e_1", "rho_12", "h_2", "E_at_2")
#: families with (z, w) at which 1 + h*htilde is exactly 0 (for the
#: additive-noise ones, where exp(2u) under- or overflows, h = -1, htilde = 1)
POLES = (
    (CS, (1.0, -1.0)),
    (ADD, (2000.0, -2000.0)),
    (BasisFamily.additive_noise(4.0 + 0.5j, 0.1 - 0.2j), (1000 * (4 + 0.5j), -1000 * (4 - 0.5j))),
)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(float), b.view(float), equal_nan=True)


@pytest.mark.parametrize("case", range(len(POLES)), ids=["cs", "add", "add-complex"])
def test_writer_matches_physical_composition_bit_for_bit(rng, case):
    # the batch writes each column straight from the jet into a strided row of
    # the loop's block buffer; it equals the composition of to_physical, the
    # raw (z, w) and the column layer on physical vectors, nan and inf
    # included, and to_physical is the change of variables term by term
    fam, pole = POLES[case]
    params = ModelParams.from_frequencies(omega=(1.0, 2.0), g=(0.1, 0.2), Omega=3.0)
    probes = (0.3 * params.length, 0.7 * params.length)
    states = np.stack([random_phase_state(rng, fam, 2) for _ in range(16)])
    states[[3, 11], -2:] = pole
    with np.errstate(all="ignore"):
        phys = to_physical(fam, states, check=False)
        old = physical_columns(params, ALL_KINDS, probes, ("z", "w"))(
            np.concatenate((phys, states[..., -2:]), axis=-1)
        )
        pf = fam.jet(states[..., -2:])
        alpha, beta = states[..., 0:4:2], states[..., 1:4:2]
        terms = (beta + alpha, 1j * (beta - alpha), pf.h / pf.denom, pf.ht / pf.denom,
                 (pf.hht - 1.0) / pf.denom)
    assert _same_bits(phys, join_phys(*terms))
    assert not np.isfinite(old[[3, 11]]).all() and np.isfinite(np.delete(old, [3, 11], 0)).all()
    bundle = observable_bundle(params, fam, ALL_KINDS, probes)
    values = np.full((len(states), 64, len(ALL_KINDS)), 7.0 + 7.0j)
    with np.errstate(all="ignore"):  # as in the stepping loop
        row = values[:, 37]
        assert bundle.batch(jc_sde_system(params, fam).prepare(states), row) is row
    assert _same_bits(values[:, 37], old)
    assert (values[:, :37] == 7.0 + 7.0j).all() and (values[:, 38:] == 7.0 + 7.0j).all()
    assert _same_bits(bundle.batch(states), old)


def test_direct_calls_at_a_pole_do_not_warn():
    # outside any errstate, RuntimeWarnings as errors: the public jet,
    # to_physical and the batch never warn; only the loop's prepare forms a
    # jet that is not guarded, read under the caller's error state, so there
    # the pole shows
    params = ModelParams.from_frequencies(omega=1.0, g=0.1, Omega=3.0)
    names = ("rho_11", "rho_21", "nu", "e_1", "z")
    for fam, pole in POLES:
        states = np.array([[1.0, 1.0, *pole], [0.5, 0.5, 0.1, 0.2]], dtype=complex)
        bundle = observable_bundle(params, fam, names)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            jet = fam.jet(states[..., -2:])
            for member in ("slopes", "curvatures", "inv_slopes"):
                getattr(jet, member)
            assert jet.denom[0] == 0.0
            phys = to_physical(fam, states, check=False)
            assert not np.isfinite(phys[0, 2:]).all()
            row = bundle.batch(states)
            assert np.array_equal(bundle.batch(jet_state(fam, states)), row, equal_nan=True)
            assert not np.isfinite(row[0]).all()
            with pytest.raises(RuntimeWarning):
                bundle.batch(jc_sde_system(params, fam).prepare(states))


def test_field_columns_equal_reconstruct_fields(rng):
    # the probe columns form their per-mode factors once, with the same
    # arithmetic as reconstruct_fields, so the values are identical
    params = ModelParams.from_frequencies(omega=(1.0, 2.0), g=(0.1, 0.2), Omega=3.0)
    probes = (0.3 * params.length, 0.7 * params.length)
    phys = to_physical(ADD, np.stack([random_phase_state(rng, ADD, 2) for _ in range(16)]))
    got = physical_columns(params, ("E_at_1", "H_at_1", "E_at_2", "H_at_2"), probes)(phys)
    for j, x in enumerate(probes):
        e_val, h_val = reconstruct_fields(params, phys, x)
        assert np.array_equal(got[:, 2 * j], e_val)
        assert np.array_equal(got[:, 2 * j + 1], h_val)


class TestAugmentation:
    def make_ou(self, lam=1.2, sigma=0.6):
        def noise(state):
            return np.broadcast_to(
                np.array([[sigma + 0j]]), state.shape[:-1] + (1, 1)
            )

        return from_coefficients(1, 1, lambda x: -lam * x, noise)

    def test_constant_observable_stays_constant(self):
        from ppcavity.observables import SmoothObservable

        v = SmoothObservable(
            value=lambda s: np.full(s.shape[:-1], 3.25 + 0j),
            gradient=lambda s: np.zeros_like(s),
            hessian=lambda s: np.zeros(s.shape[:-1] + (1, 1), dtype=complex),
        )
        system = extend_with_observable(self.make_ou(), v)
        grid = TimeGrid(0.0, 1.0, 64)
        init = np.array([1.0, 3.25], dtype=complex)
        res = run_ensemble(system, lambda rng: init, grid, 1, 8, {"v": lambda s: s[..., 1]})
        assert np.array_equal(res.mean[:, 0], np.full(65, 3.25 + 0j))

    def test_identity_observable_reproduces_coordinate(self):
        from ppcavity.observables import SmoothObservable

        def grad(s):
            out = np.zeros_like(s)
            out[..., 0] = 1.0
            return out

        v = SmoothObservable(
            value=lambda s: s[..., 0],
            gradient=grad,
            hessian=lambda s: np.zeros(s.shape[:-1] + (1, 1), dtype=complex),
        )
        system = extend_with_observable(self.make_ou(), v)
        grid = TimeGrid(0.0, 1.0, 256)
        init = np.array([0.8, 0.8], dtype=complex)
        res = run_ensemble(
            system, lambda rng: init, grid, 1, 21, {"x": lambda s: s[..., 0], "v": lambda s: s[..., 1]}
        )
        assert np.array_equal(res.mean[:, 0], res.mean[:, 1])

    def test_a_step_forms_the_base_noise_and_gradient_once(self, rng):
        # the augmented increment is that of from_coefficients(drift, noise)
        # bit for bit, and each step calls the base noise and the gradient
        # once, not once for the drift and once for the noise
        from ppcavity.observables import SmoothObservable

        calls = {"noise": 0, "gradient": 0}
        base = self.make_ou()

        def noise(state):
            calls["noise"] += 1
            return base.noise(state)

        def grad(s):
            calls["gradient"] += 1
            out = np.zeros_like(s)
            out[..., 0] = 2.0 * s[..., 0]
            return out

        def hess(s):
            out = np.zeros(s.shape[:-1] + (1, 1), dtype=complex)
            out[..., 0, 0] = 2.0
            return out

        v = SmoothObservable(value=lambda s: s[..., 0] ** 2, gradient=grad, hessian=hess)
        system = extend_with_observable(from_coefficients(1, 1, base.drift, noise), v)
        states = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        dw = rng.standard_normal((5, 1))
        rebuilt = from_coefficients(2, 1, system.drift, system.noise)
        got, want = system.increment(states, 0.01, dw), rebuilt.increment(states, 0.01, dw)
        assert np.array_equal(got, want)
        calls.update(noise=0, gradient=0)
        grid = TimeGrid(0.0, 1.0, 16)
        init = np.array([0.8, 0.64], dtype=complex)
        run_ensemble(system, lambda rng_: init, grid, 4, 3, {"sq": lambda s: s[..., 1]})
        assert calls == {"noise": grid.steps, "gradient": grid.steps}

    def test_ou_square_has_ito_correction(self):
        from ppcavity.observables import SmoothObservable

        lam, sigma = 1.2, 0.6

        def grad(s):
            out = np.zeros_like(s)
            out[..., 0] = 2.0 * s[..., 0]
            return out

        def hess(s):
            out = np.zeros(s.shape[:-1] + (1, 1), dtype=complex)
            out[..., 0, 0] = 2.0
            return out

        v = SmoothObservable(value=lambda s: s[..., 0] ** 2, gradient=grad, hessian=hess)
        system = extend_with_observable(self.make_ou(lam, sigma), v)
        # the augmented drift carries the sigma^2 correction at the origin
        drift0 = system.drift(np.zeros(2, complex))
        assert abs(drift0[1] - sigma**2) <= 1e-15
        grid = TimeGrid(0.0, 1.0, 400)
        x0 = 0.8
        res = run_ensemble(
            system,
            lambda rng: np.array([x0, x0**2], dtype=complex),
            grid,
            6000,
            13,
            {"sq": lambda s: s[..., 1]},
        )
        mean, err = res.column("sq")
        exact = ou_second_moment(x0, sigma, lam, grid.times)
        bias = 3.0 * lam * grid.dt * exact + 1e-6
        assert (np.abs(mean.real - exact) <= 4.0 * err + bias).all()


def test_projection_observable_derivatives_fd(rng):
    # independent central-difference check of the hard-coded derivatives
    step = 1e-5
    for fam in (CS, ADD):
        for which in ("rho_21", "rho_12", "nu"):
            obs = projection_observable(which, fam, 1)
            for _ in range(5):
                state = random_phase_state(rng, fam, 1, scale=0.4)
                grad = obs.gradient(state)
                hess = obs.hessian(state)
                for i in (2, 3):
                    ei = np.zeros(4, complex)
                    ei[i] = step
                    fd1 = (obs.value(state + ei) - obs.value(state - ei)) / (2 * step)
                    assert abs(fd1 - grad[i]) <= 1e-6 * (1.0 + abs(grad[i]))
                    fd2 = (
                        obs.value(state + ei)
                        - 2.0 * obs.value(state)
                        + obs.value(state - ei)
                    ) / step**2
                    assert abs(fd2 - hess[i, i]) <= 1e-4 * (1.0 + abs(hess[i, i]))
                exy = np.zeros(4, complex)
                exy[2] = step
                eyy = np.zeros(4, complex)
                eyy[3] = step
                fd_mixed = (
                    obs.value(state + exy + eyy)
                    - obs.value(state + exy - eyy)
                    - obs.value(state - exy + eyy)
                    + obs.value(state - exy - eyy)
                ) / (4.0 * step**2)
                assert abs(fd_mixed - hess[2, 3]) <= 1e-4 * (1.0 + abs(hess[2, 3]))


def fig3_setup():
    params = ModelParams.from_frequencies(omega=1100.0, g=200.0, Omega=1000.0)
    atom = AtomicDensity.from_upper(THERMAL_P, 0.0)
    return params, atom


def test_conjugacy_on_average():
    params, atom = fig3_setup()
    dist = init_points(atom, ADD)
    sampler = phase_init_sampler(params, ADD, 5.0, dist)
    system = jc_sde_system(params, ADD)
    grid = TimeGrid(0.0, np.pi / 1100.0, 1024)
    res = run_ensemble(
        system, sampler, grid, 400, 97, observable_bundle(params, ADD, ("z", "w"))
    )
    mz, ez = res.column("z")
    mw, ew = res.column("w")
    assert (np.abs(mw - np.conj(mz)) <= 4.0 * (ez + ew) + 1e-9).all()


def test_augmented_matches_projection_mean():
    params, atom = fig3_setup()
    dist = init_points(atom, ADD)
    sampler = phase_init_sampler(params, ADD, 5.0, dist)
    base = jc_sde_system(params, ADD)
    v = projection_observable("rho_21", ADD, 1)
    augmented = extend_with_observable(base, v)

    def aug_sampler(rng_):
        state = sampler(rng_)
        return np.concatenate([state, [v.value(state)]])

    grid = TimeGrid(0.0, 0.25 * np.pi / 1100.0, 1024)
    runs = 600
    res_aug = run_ensemble(
        augmented, aug_sampler, grid, runs, 555, {"sigma": lambda s: s[..., 4]}
    )
    res_proj = run_ensemble(
        base, sampler, grid, runs, 556, observable_bundle(params, ADD, ("rho_21",))
    )
    m_a, e_a = res_aug.column("sigma")
    m_p, e_p = res_proj.column("rho_21")
    assert (np.abs(m_a - m_p) <= 4.0 * (e_a + e_p) + 1e-9).all()
