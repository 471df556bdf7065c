import warnings
from dataclasses import replace

import numpy as np
import pytest

from ppcavity.basis import BasisFamily
from ppcavity.errors import InconsistentStateError, PoleProximityError
from ppcavity.initialization import AtomicDensity, init_points
from ppcavity.invariants import (
    _FAMILIES,
    _SHIFTED_STATES,
    check_ito_transform,
    check_jacobian_diffusion,
    holomorphic_derivatives,
    random_phase_state,
    random_rates,
    sample_model,
)
from ppcavity.jc import (
    ModelParams,
    diffusion_jc,
    drift_jc,
    jc_sde_system,
    jet_state,
    noise_jc,
    phase_init_sampler,
)
from ppcavity.observables import (
    observable_bundle,
    physical_observable_bundle,
    projection_observable,
)
from ppcavity.physical import (
    drift_bar,
    from_physical,
    jacobian_change,
    join_phys,
    noise_bar,
    physical_init_sampler,
    physical_sde_system,
    reconstruct_fields,
    split_phys,
    to_physical,
)
from ppcavity import sde
from ppcavity.sde import ObservableMap, TimeGrid, path_generator, run_ensemble

from helpers import random_disc, rk4

CS = BasisFamily.coherent_spin()
ADD = BasisFamily.additive_noise(4.0, 0.0)


def test_to_physical_definitions():
    a = 0.8
    state = np.array([a, a, 0, 0], dtype=complex)
    phys = to_physical(CS, state)
    assert phys[0] == 2.0 * a  # epsilon
    assert phys[1] == 0.0  # eta
    assert np.allclose(phys[2:], [0.0, 0.0, -1.0])


def test_join_split_phys_round_trip():
    parts = ([1.0, 2.0], [0.5j, 0], 0.1, 0.2, -0.3)
    vec = join_phys(*parts)
    assert np.array_equal(vec, [1.0, 0.5j, 2.0, 0, 0.1, 0.2, -0.3])
    for got, want in zip(split_phys(vec, 2), parts):
        assert np.array_equal(got, want)
    assert np.array_equal(join_phys(*split_phys(vec, 2)), vec)


def test_raw_to_physical_reads_the_jet(rng):
    # a raw state takes the jet_state route, bit for bit the closed form of
    # BasisFamily.pair, at random points, near both poles and far out
    for fam in _FAMILIES.values():
        z, w = random_disc(rng, (2, 20), 3.0)
        d, k = fam.delta, fam.kappa
        # a pole of h, a pole of 1/(1 + h*htilde), then |Re u| = 400 and 1e4
        z[:2] = d * (0.5j * np.pi - k / 2.0) + 1e-9, 0.3
        w[1] = fam.invert_htilde(-1.0 / complex(fam.pair(0.3, 0.0)[0])) + 1e-9
        u = np.array([400.0, -400.0, 1e4, -1e4]) + 0.5j
        z[2:6] = d * (u - k / 2.0)
        w[2:6] = np.conj(z[2:6])
        alpha, beta = random_disc(rng, (2, 20))
        states = np.stack([alpha, beta, z, w], axis=-1)
        with np.errstate(all="ignore"):
            got = to_physical(fam, states, check=False)
            via_jet = to_physical(fam, jet_state(fam, states), check=False)
            h, ht = fam.pair(z, w)
            denom = 1.0 + h * ht
            want = join_phys(
                (beta + alpha)[:, None],
                1j * (beta - alpha)[:, None],
                h / denom,
                ht / denom,
                (h * ht - 1.0) / denom,
            )
        assert np.array_equal(got, via_jet, equal_nan=True)
        assert np.array_equal(got, want, equal_nan=True)


def test_increment_bar_runs_under_its_callers_error_state():
    # in the ground state rho21 = rho12 = 0 the kick divides 0 by 0: the
    # increment, which the stepping loop calls under its own error state,
    # sets none, while the public noise_bar sets its own and does not warn
    params = ModelParams.from_frequencies(omega=1.0, g=0.1, Omega=3.0)
    phys = join_phys([1.0], [0.5], 0.0, 0.0, -1.0)
    dw = np.ones(params.noise_dim)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        physical_sde_system(params).increment(phys, 0.01, dw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(noise_bar(params, phys)).all()


_POLES = {"coherent-spin": (CS, (1.0, -1.0)), "additive-noise": (ADD, (2000.0, -2000.0))}
_AT_A_POLE = {
    "to_physical": lambda params, fam, state: to_physical(fam, state, check=False),
    "jacobian_change": lambda params, fam, state: jacobian_change(fam, state),
    "drift_jc": lambda params, fam, state: drift_jc(params, fam, state, check=False),
    "noise_jc": lambda params, fam, state: noise_jc(params, fam, state, check=False),
    "diffusion_jc": lambda params, fam, state: diffusion_jc(params, fam, state, check=False),
    "observable_batch": lambda params, fam, state: observable_bundle(
        params, fam, ("rho_11", "rho_21", "nu", "e_1", "z")
    ).batch(state),
}
for _which in ("rho_21", "rho_12", "nu"):
    for _part in ("value", "gradient", "hessian"):
        _AT_A_POLE[f"{_part}[{_which}]"] = (
            lambda params, fam, state, which=_which, part=_part: getattr(
                projection_observable(which, fam, 1), part
            )(state)
        )


@pytest.mark.parametrize("name", sorted(_AT_A_POLE))
@pytest.mark.parametrize("family", sorted(_POLES))
def test_public_entry_points_do_not_warn_at_a_pole(family, name):
    # every public callable that takes a phase-space state sets its own
    # numpy error state: at an exact pole 1 + h*htilde = 0 it returns
    # inf/nan without a RuntimeWarning, on its own and in a batch
    fam, (z, w) = _POLES[family]
    params = sample_model(1, r12=0.3, r21=0.2, r_p=0.1)
    point = np.array([0.5 + 0.1j, 0.5 - 0.1j, z, w])
    assert fam.pair(z, w)[0] * fam.pair(z, w)[1] == -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state in (point, np.stack([point, point * 0.1])):
            _AT_A_POLE[name](params, fam, state)


def test_from_physical_example():
    phys = np.array([2.0, 0.0, 0.0, 0.0, -1.0], dtype=complex)
    for fam in (CS, ADD):
        state = from_physical(fam, phys)
        assert np.allclose(state[:2], [1.0, 1.0])
        h, ht = fam.pair(state[2], state[3])
        assert abs(complex(h)) <= 1e-14
        assert abs(complex(ht)) <= 1e-14


def test_from_physical_inconsistency():
    bad = np.array([0, 0, 1.0, 1.0, 0.0], dtype=complex)  # 4*1*1 != 1
    with pytest.raises(InconsistentStateError):
        from_physical(CS, bad)
    pole = np.array([0, 0, 0.1, 0.1, 1.0], dtype=complex)
    with pytest.raises(PoleProximityError):
        from_physical(CS, pole)


def test_round_trips(rng):
    for fam in (CS, ADD):
        for _ in range(100):
            state = random_phase_state(rng, fam, 2, scale=0.4)
            phys = to_physical(fam, state)
            back = from_physical(fam, phys)
            scale = 1.0 + np.abs(state).max()
            # h is recovered exactly; z only up to the log branch, so compare
            # through the function values
            assert np.abs(back[:4] - state[:4]).max() <= 1e-12 * scale
            hb = fam.pair(back[4], back[5])
            ho = fam.pair(state[4], state[5])
            assert abs(hb[0] - ho[0]) <= 1e-12 * (1.0 + abs(ho[0]))
            assert abs(hb[1] - ho[1]) <= 1e-12 * (1.0 + abs(ho[1]))
            assert np.abs(to_physical(fam, back) - phys).max() <= 1e-12 * (
                1.0 + np.abs(phys).max()
            )


def test_drift_bar_decoupled_rotations(rng):
    params = ModelParams.from_frequencies(omega=(0.9, 1.7), g=(0.0, 0.0), Omega=1.3)
    phys = np.array([1.0, 0.5, -0.2, 0.3, 0.1 + 0.2j, 0.05, -0.4], dtype=complex)
    out = drift_bar(params, phys)
    assert out[0] == params.omega[0] * phys[1]
    assert out[1] == -params.omega[0] * phys[0]
    assert out[2] == params.omega[1] * phys[3]
    assert out[3] == -params.omega[1] * phys[2]
    assert out[4] == -1j * params.Omega * phys[4]
    assert out[5] == 1j * params.Omega * phys[5]
    assert out[6] == 0.0


def test_drift_bar_relaxation_rows():
    params = ModelParams.from_frequencies(
        omega=(2.0,), g=(0.0,), Omega=0.0, r12=0.4, r21=0.25, r_p=0.15
    )
    phys = np.array([0, 0, 0.2, 0.1, -0.5], dtype=complex)
    out = drift_bar(params, phys)
    assert abs(out[2] + params.gamma2 * 0.2) <= 1e-15
    assert abs(out[3] + params.gamma2 * 0.1) <= 1e-15
    assert abs(out[4] + params.gamma1 * (-0.5 - params.nu0)) <= 1e-15


def test_ito_transform_consistency(rng):
    err, tol = check_ito_transform(rng, 100)
    assert err <= tol


def test_jacobian_diffusion_identity(rng):
    err, tol = check_jacobian_diffusion(rng, 100)
    assert err <= tol


def test_jacobian_matches_spectral_derivatives(rng):
    for fam in (CS, ADD):

        def change(x):
            return to_physical(fam, x, check=False)

        for _ in range(5):
            state = random_phase_state(rng, fam, 2, scale=0.4)
            grad, _ = holomorphic_derivatives(change, state)
            assert np.abs(grad - jacobian_change(fam, state)).max() <= 1e-9


def test_holomorphic_derivatives_one_call_and_closed_forms():
    calls = []

    def fn(x):
        calls.append(x.shape)
        x0, x1, x2 = np.moveaxis(x, -1, 0)
        return np.stack([x0**2 * x1 + np.exp(x1 * x2), x0 * x1 * x2 + x2**3], axis=-1)

    x0, x1, x2 = x = np.array([0.3 - 0.2j, -0.7 + 0.1j, 0.5 + 0.4j])
    e = np.exp(x1 * x2)
    grad_want = np.array(
        [[2 * x0 * x1, x0**2 + x2 * e, x1 * e], [x1 * x2, x0 * x2, x0 * x1 + 3 * x2**2]]
    )
    hess_want = np.array(
        [
            [[2 * x1, 2 * x0, 0], [2 * x0, x2**2 * e, (1 + x1 * x2) * e], [0, (1 + x1 * x2) * e, x1**2 * e]],
            [[0, x2, x1], [x2, 0, x0], [x1, x0, 6 * x2]],
        ]
    )
    grad, hess = holomorphic_derivatives(fn, x)
    assert len(calls) == 1
    assert np.all(np.abs(grad - grad_want) <= 1e-8 * (1 + np.abs(grad_want)))
    assert np.all(np.abs(hess - hess_want) <= 1e-8 * (1 + np.abs(hess_want)))
    # a (2, 2, n) stack of points: still one call, and each point's
    # derivatives are those of its own single-point call
    stack = np.stack([x, 0.5 * x + 0.1j, x[::-1], -x]).reshape(2, 2, 3)
    calls.clear()
    grads, hessians = holomorphic_derivatives(fn, stack)
    assert len(calls) == 1
    assert grads.shape == (2, 2, 2, 3) and hessians.shape == (2, 2, 2, 3, 3)
    for idx in np.ndindex(2, 2):
        grad, hess = holomorphic_derivatives(fn, stack[idx])
        assert np.array_equal(grads[idx], grad) and np.array_equal(hessians[idx], hess)
    # a stack too large for one call is split into calls of bounded size,
    # with the same values
    stack = x + 0.01 * np.arange(60)[:, None]
    calls.clear()
    grads, hessians = holomorphic_derivatives(fn, stack)
    assert len(calls) > 1
    assert all(np.prod(shape[:-1]) <= _SHIFTED_STATES for shape in calls)
    for k in (0, 30, 59):
        grad, hess = holomorphic_derivatives(fn, stack[k])
        assert np.array_equal(grads[k], grad) and np.array_equal(hessians[k], hess)


def test_noise_bar_structure(rng):
    params = sample_model(**random_rates(rng))
    n = params.mode_count
    # rho21 = (1-nu)/2 makes the first radicand vanish
    nu = -0.4 + 0.1j
    phys = np.zeros(2 * n + 3, dtype=complex)
    phys[2 * n] = (1.0 - nu) / 2.0
    phys[2 * n + 1] = 0.3
    phys[2 * n + 2] = nu
    bbar = noise_bar(params, phys)
    for k in range(n):
        block = bbar[2 * k : 2 * k + 2, 4 * k : 4 * k + 2]
        assert np.abs(block).max() <= 1e-15
    # without rates there are no dissipative columns
    free = sample_model()
    state = random_phase_state(rng, CS, n, scale=0.4)
    bbar0 = noise_bar(free, to_physical(CS, state))
    assert bbar0.shape[-1] == free.noise_dim


def test_reconstruct_fields():
    params = ModelParams.from_frequencies(omega=(2.0,), g=(0.4,), Omega=1.0)
    phys = np.zeros(5, dtype=complex)
    e_val, h_val = reconstruct_fields(params, phys, 0.3)
    assert e_val == 0.0 and h_val == 0.0
    phys[0] = 1.5  # epsilon_1
    e_val, _ = reconstruct_fields(params, phys, params.length / 2.0)
    assert abs(e_val - params.e_photon[0] * 1.5) <= 1e-15


def test_dipole_coupling_identity(rng):
    # the coupling rate -(i/hbar) m21 E(x0) is sum_n i g_n epsilon_n when the
    # couplings are proportional to the per-photon field, which dipole_moment enforces
    base = ModelParams.from_frequencies(omega=(1.0, 2.0), g=(0.1, 0.1), Omega=3.0)
    params = ModelParams.from_frequencies(
        omega=(1.0, 2.0), g=tuple(0.3 * base.e_photon), Omega=3.0
    )
    m21 = params.dipole_moment()
    for _ in range(20):
        phys = np.zeros(7, dtype=complex)
        phys[0:4:2] = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        direct = 1j * (params.gs * phys[0:4:2]).sum()
        e_val, _ = reconstruct_fields(params, phys, params.x0)
        assert abs(direct - (-1j / params.hbar * m21 * e_val)) <= 1e-12 * (1 + abs(direct))


def fig3_free_params():
    return ModelParams.from_frequencies(omega=1100.0, g=200.0, Omega=1000.0)


def test_deterministic_equivalence_over_horizon():
    # noise off: the physical-coordinate flow is the image of the phase flow
    params = fig3_free_params()
    atom = AtomicDensity.from_upper(1.0 / (1.0 + np.exp(-1.0)), 0.0)
    dist = init_points(atom, ADD)
    phi0 = np.array([5.0, 5.0, dist.zs[1], dist.ws[1]], dtype=complex)
    grid = TimeGrid(0.0, np.pi / 1100.0, 8192)
    phase = rk4(lambda x: drift_jc(params, ADD, x, check=False), phi0, grid)
    bar = rk4(lambda x: drift_bar(params, x), to_physical(ADD, phi0), grid)
    assert np.abs(to_physical(ADD, phase) - bar).max() <= 1e-8


def test_stochastic_equivalence_short_horizon():
    # ensemble means of the changed-variable SDE match the mapped means of the
    # phase-space SDE within combined statistical error
    params = fig3_free_params()
    atom = AtomicDensity.from_upper(1.0 / (1.0 + np.exp(-1.0)), 0.0)
    dist = init_points(atom, CS)
    phase_sampler = phase_init_sampler(params, CS, 5.0, dist)
    grid = TimeGrid(0.0, 0.1 * np.pi / 1100.0, 820)
    runs = 1200
    names = ("rho_21", "rho_12", "nu", "e_1", "h_1")
    res_phase = run_ensemble(
        jc_sde_system(params, CS),
        phase_sampler,
        grid,
        runs,
        31,
        observable_bundle(params, CS, names),
    )
    res_bar = run_ensemble(
        physical_sde_system(params),
        physical_init_sampler(CS, phase_sampler),
        grid,
        runs,
        31,
        physical_observable_bundle(params, names),
    )
    for name in names:
        m_p, e_p = res_phase.column(name)
        m_b, e_b = res_bar.column(name)
        assert (np.abs(m_p - m_b) <= 4.0 * (e_p + e_b) + 1e-9).all()


def test_physical_sampler_requires_coherent_spin():
    params = fig3_free_params()
    atom = AtomicDensity.from_upper(0.7, 0.0)
    dist = init_points(atom, ADD)
    sampler = phase_init_sampler(params, ADD, 1.0, dist)
    with pytest.raises(ValueError):
        physical_init_sampler(ADD, sampler)


def test_jacobian_diffusion_on_dense_grid(rng):
    # direct statement of the transported-diffusion identity at one point
    params = sample_model(**random_rates(rng))
    state = random_phase_state(rng, CS, params.mode_count, scale=0.4)
    phys = to_physical(CS, state)
    jac = jacobian_change(CS, state)
    lhs = noise_bar(params, phys) @ noise_bar(params, phys).T
    rhs = jac @ diffusion_jc(params, CS, state) @ jac.T
    assert np.abs(lhs - rhs).max() <= 1e-8 * (1.0 + np.abs(rhs).max())


def _both_engines(params, family, states):
    """(system, prepared states) of the phase-space and changed-variable engines."""
    physical = physical_sde_system(params)
    jc = jc_sde_system(params, family)
    return ((jc, jc.prepare(states)), (physical, physical.prepare(to_physical(family, states))))


@pytest.mark.parametrize("rated", [False, True], ids=["free", "rates"])
@pytest.mark.parametrize("n_modes", [1, 2, 3])
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_increment_is_drift_dt_plus_noise_dw(rng, family, n_modes, rated):
    # one formula per engine: the increment is affine in dt and dw, with the
    # drift and the noise matrix as its coefficients
    fam = _FAMILIES[family]
    params = sample_model(n_modes, **(random_rates(rng) if rated else {}))
    states = np.stack([random_phase_state(rng, fam, n_modes) for _ in range(16)])
    for system, prepared in _both_engines(params, fam, states):
        for dt in (1e-3, 0.3):
            dw = rng.standard_normal((16, system.noise_dim)) * np.sqrt(dt)
            got = system.increment(prepared, dt, dw)
            a, b = system.drift(prepared), system.noise(prepared)
            assert b.shape == (16, system.dim, system.noise_dim)
            want = a * dt + (b @ dw[..., None])[..., 0]
            scale = np.abs(a * dt) + (np.abs(b) * np.abs(dw)[:, None, :]).sum(axis=-1)
            assert (np.abs(got - want) <= 1e-15 * scale.max(axis=-1, keepdims=True)).all()


@pytest.mark.parametrize("engine", ["sde-jc", "sde-mb-experimental"])
def test_replaced_drift_and_noise_keep_a_working_system(engine):
    # benchmark tracing rebuilds a system with dataclasses.replace(system,
    # drift=..., noise=...): the rebuilt system steps as before, and its
    # drift and noise are the wrapped ones
    params = ModelParams.from_frequencies(
        omega=(1100.0, 1900.0), g=(200.0, 150.0), Omega=1000.0, r21=100.0, r_p=50.0
    )
    sampler = phase_init_sampler(params, CS, 1.0, init_points(AtomicDensity.from_upper(0.7), CS))
    if engine == "sde-jc":
        system = jc_sde_system(params, CS)
        bundle = observable_bundle(params, CS, ("rho_21", "nu", "e_1"))
    else:
        system = physical_sde_system(params)
        sampler = physical_init_sampler(CS, sampler)
        bundle = physical_observable_bundle(params, ("rho_21", "nu", "e_1"))
    calls = []

    def traced(fn):
        def wrapped(state):
            calls.append(fn)
            return fn(state)

        return wrapped

    rebuilt = replace(system, drift=traced(system.drift), noise=traced(system.noise))
    grid = TimeGrid(0.0, 1e-4, 70)
    res = run_ensemble(system, sampler, grid, 8, 3, bundle)
    again = run_ensemble(rebuilt, sampler, grid, 8, 3, bundle)
    assert np.array_equal(res.mean, again.mean) and np.array_equal(res.stderr, again.stderr)
    state = system.prepare(sampler(np.random.default_rng(1)))
    assert np.array_equal(rebuilt.drift(state), system.drift(state))
    assert np.array_equal(rebuilt.noise(state), system.noise(state))
    assert calls == [system.drift, system.noise]


def _called(system, observables):
    """``system`` and ``observables`` with plain callables, which the stepping
    loop calls as they are: the public entry points composed step by step."""
    called = replace(
        system,
        prepare=lambda state: system.prepare(state),
        increment=lambda prepared, dt, dw: system.increment(prepared, dt, dw),
    )
    return called, ObservableMap(observables.names, lambda p, out: observables.batch(p, out))


@pytest.mark.parametrize("rated", [False, True], ids=["free", "rates"])
@pytest.mark.parametrize("n_modes", [1, 2])
@pytest.mark.parametrize(
    "engine, family",
    [
        ("sde-jc", "coherent-spin"),
        ("sde-jc", "additive-noise"),
        ("sde-mb-experimental", "coherent-spin"),
    ],
)
def test_bound_step_equals_the_public_entry_points(monkeypatch, engine, family, n_modes, rated):
    # the stepping loop binds prepare, increment and the observable batch once
    # per chunk; the bound forms give the bits of the public calls composed
    # step by step, over chunks, blocks and the replay of a diverged path
    fam = _FAMILIES[family]
    rates = {"r21": 100.0, "r_p": 50.0} if rated else {}
    params = ModelParams.from_frequencies(
        omega=(1100.0, 1900.0)[:n_modes], g=(200.0, 150.0)[:n_modes], Omega=1000.0, **rates
    )
    sampler = phase_init_sampler(params, fam, 1.0, init_points(AtomicDensity.from_upper(0.7), fam))
    names = ("rho_11", "rho_22", "rho_21", "rho_12", "nu", "e_1", "h_1", "E_at_1", "H_at_1")
    if engine == "sde-jc":
        system = jc_sde_system(params, fam)
        observables = observable_bundle(params, fam, names + ("z", "w"), (3e-4,))
    else:
        system = physical_sde_system(params)
        sampler = physical_init_sampler(fam, sampler)
        observables = physical_observable_bundle(params, names, (3e-4,))
    # both engines draw the one noise layout
    assert system.noise_dim == params.noise_dim
    replays = []

    def counted(system, state, steps, *args, _integrate=sde._integrate_chunk):
        replays.append(steps == sde._DRAW_BLOCK - 1)
        return _integrate(system, state, steps, *args)

    monkeypatch.setattr(sde, "_integrate_chunk", counted)
    # thresholds under which some paths diverge after their first block
    threshold = 8.0 if family == "additive-noise" else 3.0
    grid, options = TimeGrid(0.0, 3e-3, 200), {"divergence_threshold": threshold, "chunk_size": 10}
    bound = run_ensemble(system, sampler, grid, 24, 11, observables, **options)
    system, observables = _called(system, observables)
    called = run_ensemble(system, sampler, grid, 24, 11, observables, **options)
    assert bound.diverged_paths and any(replays)
    for field in ("mean", "stderr"):
        assert np.array_equal(_bits(getattr(bound, field)), _bits(getattr(called, field)))
    assert bound.diverged_paths == called.diverged_paths
    assert bound.divergence_steps == called.divergence_steps


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _constraint_drift(steps, paths=64):
    """Per-path maximum over the grid of |4 rho21 rho12 - (1 - nu^2)| /
    (1 + |1 - nu^2|): the changed-variable fig3 run (coherent-spin, alpha 5)
    to t = 0.1 pi / omega, stepped by hand on the increment, one standard
    normal draw per path and step from the stream of ``path_generator(77, r)``."""
    params = ModelParams.from_frequencies(omega=1100.0, g=200.0, Omega=1000.0)
    system = physical_sde_system(params)
    dist = init_points(AtomicDensity.from_upper(1.0 / (1.0 + np.exp(-1.0))), CS)
    sampler = physical_init_sampler(CS, phase_init_sampler(params, CS, 5.0, dist))
    gens = [path_generator(77, r) for r in range(paths)]
    state = np.stack([sampler(g) for g in gens])
    dt = 0.1 * np.pi / 1100.0 / steps
    worst = np.zeros(paths)
    for _ in range(steps):
        dw = np.stack([g.standard_normal(system.noise_dim) for g in gens]) * np.sqrt(dt)
        state = state + system.increment(system.prepare(state), dt, dw)
        _, _, rho21, rho12, nu = split_phys(state, 1)
        gap = 1.0 - nu**2
        worst = np.maximum(worst, np.abs(4.0 * rho21 * rho12 - gap) / (1.0 + np.abs(gap)))
    return worst


def test_constraint_drift_falls_with_the_step():
    # paths leave the constraint surface 4 rho21 rho12 = (1 + nu)(1 - nu) by
    # roundoff and the Euler error only, so finer steps bring them closer (like
    # dt^1/2); with rad12 and rad21 on their principal branches alone the
    # drift grew from a median of 7.8e-3 at 1024 steps to 2.6e-2 at 2048,
    # with a path at 0.68
    coarse, fine = _constraint_drift(1024), _constraint_drift(2048)
    assert np.median(fine) < 0.9 * np.median(coarse)
    assert max(coarse.max(), fine.max()) < 1e-2


@pytest.mark.parametrize("noise", [False, True, "units"], ids=["drift", "kick", "units"])
@pytest.mark.parametrize("rated", [False, True], ids=["free", "rates"])
@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_increment_bar_on_a_coordinate_major_state_is_bit_identical(rng, n_modes, rated, noise):
    # the .T view of a (dim, paths) physical state, as the stepping loop
    # hands it out, gives the increment of a C-order copy bit for bit; three
    # modes pin the order of the mode sums, and "units" is the call of
    # noise_matrix, a (points,) state against (m, 1, m) unit increments
    params = sample_model(n_modes, **(random_rates(rng) if rated else {}))
    states = np.stack([random_phase_state(rng, CS, n_modes) for _ in range(33)])
    phys = np.ascontiguousarray(to_physical(CS, states))
    coords = np.ascontiguousarray(phys.T)
    m, dt = 4 * n_modes + 2, 0.01
    dw = rng.standard_normal((33, m)) * 0.1 if noise else None
    if noise == "units":
        dw, dt = np.eye(m).reshape(m, 1, m), 0.0
    system = physical_sde_system(params)
    got, want = system.increment(coords.T, dt, dw), system.increment(phys, dt, dw)
    assert got.T.flags.c_contiguous
    assert np.array_equal(*(np.ascontiguousarray(x).view(float) for x in (got, want)))


def test_a_negative_real_radicand_with_imaginary_minus_zero_takes_the_upper_root():
    # a real negative rho21 squares to an imaginary part of -0.0, so the
    # radicand rho21**2 / ((1 - nu)**2 / 4) - 1 of p is negative real with an
    # imaginary -0.0 (and so is q's): lifted to +0.0, each root is +i|.|
    params = sample_model(1)
    phys = join_phys([0.3], [-0.2], -0.25 + 0.0j, -0.25 + 0.0j, 0.0)
    _, _, rho21, _, nu = split_phys(phys, 1)
    radicand = rho21**2 / ((1.0 - nu) ** 2 / 4.0) - 1.0
    assert radicand.real < 0.0 and radicand.imag == 0.0 and np.signbit(radicand.imag)
    b = noise_bar(params, phys)
    # dW_0 alone kicks eps_1 by i p pref, dW_2 alone by -i q pref
    kick = 1j * params.noise_prefactor[0]
    p, q = b[0, 0] / kick, -b[0, 2] / kick
    assert np.allclose([p, q], 1j * np.sqrt(0.75), rtol=1e-15, atol=0.0)
