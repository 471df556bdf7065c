"""Executable property suites over all primary modules.

Each check draws seeded random points in a fixed order, compares an identity
with an independent numerical route (direct matrix products, spectral
derivatives of the holomorphic change map, closed-form single-mode
expressions) on the stacked points, and reports the worst error against a
fixed tolerance.  The CLI exposes the suite as the ``check-invariants``
subcommand; the report is deterministic for a given seed.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import jc, maxwell_bloch, observables, physical, sde
from .basis import BasisFamily

#: defaults of the check-invariants subcommand and the [invariants] section
DEFAULT_SEED = 20240
DEFAULT_POINTS = 100
_CIRCLE_POINTS = 16
_CIRCLE_RADIUS = 1e-3
#: most shifted states :func:`holomorphic_derivatives` hands ``fn`` in one call
_SHIFTED_STATES = 2048


def holomorphic_derivatives(fn, x):
    """Gradient and Hessian of a holomorphic map by circle sampling.

    ``fn`` maps complex states of shape (..., n) to values of shape (..., m).
    It is called once per block of points of the (..., n) stack ``x``, on
    every shifted state of the block at once; a block holds at most
    ``_SHIFTED_STATES`` shifted states (but at least one point), which bounds
    the memory of a large stack.  Derivatives along each coordinate come
    from the discrete Cauchy integral over ``_CIRCLE_POINTS`` samples on a
    circle of radius ``_CIRCLE_RADIUS``; mixed partials use the diagonal
    direction e_i + e_j and the polarization identity.  Returns the
    (..., m, n) gradient and the (..., m, n, n) Hessian.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    eye = np.eye(n, dtype=complex)
    i, j = np.triu_indices(n, k=1)
    # the n unit directions, then e_i + e_j for i < j; samples are indexed
    # (point, circle point, direction, output)
    directions = np.concatenate([eye, eye[i] + eye[j]])
    roots = np.exp(2j * np.pi * np.arange(_CIRCLE_POINTS) / _CIRCLE_POINTS)[:, None, None]
    shifts = _CIRCLE_RADIUS * roots * directions
    points = x.reshape(-1, n)
    block = max(1, _SHIFTED_STATES // (_CIRCLE_POINTS * len(directions)))
    sums1, sums2 = [], []
    for start in range(0, len(points), block):
        samples = np.asarray(fn(points[start : start + block, None, None, :] + shifts))
        sums1.append((samples * roots**-1).sum(axis=-3))
        sums2.append((samples * roots**-2).sum(axis=-3))
    shape = x.shape[:-1] + sums1[0].shape[-2:]
    d1 = np.concatenate(sums1).reshape(shape) / (_CIRCLE_POINTS * _CIRCLE_RADIUS)
    d2 = 2.0 * np.concatenate(sums2).reshape(shape) / (_CIRCLE_POINTS * _CIRCLE_RADIUS**2)
    diag = np.swapaxes(d2[..., :n, :], -1, -2)
    second = np.zeros(diag.shape + (n,), dtype=complex)
    second[..., range(n), range(n)] = diag
    mixed = np.swapaxes(d2[..., n:, :], -1, -2) - diag[..., i] - diag[..., j]
    second[..., i, j] = second[..., j, i] = mixed / 2.0
    return np.swapaxes(d1[..., :n, :], -1, -2), second


def _worst_relative(got, want, axes):
    """Worst over points of max|got - want| / (1 + max|want|) along ``axes``."""
    return (np.abs(got - want).max(axis=axes) / (1.0 + np.abs(want).max(axis=axes))).max()


def _random_complex(rng, shape=None, scale=0.5):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _away_from_poles(pf):
    """Accept a random phase point: |1 + h htilde| > 0.3, |h'| > 0.05 and |htilde'| > 0.05."""
    return (np.abs(pf.denom) > 0.3) & (np.abs(pf.hp) > 0.05) & (np.abs(pf.htp) > 0.05)


def random_phase_state(rng, family, n_modes, scale=0.5):
    """Random phase point rejected until :func:`_away_from_poles` accepts it."""
    while True:
        state = np.empty(2 * (n_modes + 1), dtype=complex)
        state[: 2 * n_modes] = _random_complex(rng, 2 * n_modes, scale)
        state[2 * n_modes :] = _random_complex(rng, 2, scale)
        if _away_from_poles(family.jet(state[2 * n_modes], state[2 * n_modes + 1])):
            return state


def random_rates(rng):
    return dict(r12=rng.uniform(0.05, 1.0), r21=rng.uniform(0.05, 1.0), r_p=rng.uniform(0.05, 1.0))


def sample_model(n_modes=2, **rates):
    omega = (0.9, 1.7, 2.3)[:n_modes]
    g = (0.4, 0.25, 0.15)[:n_modes]
    return jc.ModelParams.from_frequencies(omega=omega, g=g, Omega=1.3, x0=0.8, length=3.0, **rates)


_FAMILIES = {
    "coherent-spin": BasisFamily.coherent_spin(),
    "additive-noise": BasisFamily.additive_noise(4.0, 0.0),
    "additive-noise-complex": BasisFamily.additive_noise(3.0 + 1.0j, 0.2 - 0.1j),
}


def check_basis_ode_identity(rng, points):
    """delta * h' = h^2 - 1 for the additive-noise family, |z| <= 2."""
    worst = 0.0
    for name in ("additive-noise", "additive-noise-complex"):
        fam = _FAMILIES[name]
        count = 10 * points
        z = 2.0 * np.sqrt(rng.uniform(size=count)) * np.exp(
            2j * np.pi * rng.uniform(size=count)
        )
        pf = fam.jet(z, np.zeros_like(z))
        h, hp = pf.h, pf.hp
        err = np.abs(fam.delta * hp - (h * h - 1.0)) / (1.0 + np.abs(h) ** 2)
        worst = max(worst, err.max())
    return worst, 1e-12


def check_basis_derivative(rng, points):
    """h' against a central finite difference of h."""
    worst = 0.0
    step = 1e-6
    for fam in _FAMILIES.values():
        z = _random_complex(rng, points, 0.8)
        hp = fam.jet(z, np.zeros_like(z)).hp
        h_plus = fam.pair(z + step, np.zeros_like(z))[0]
        h_minus = fam.pair(z - step, np.zeros_like(z))[0]
        fd = (h_plus - h_minus) / (2 * step)
        err = np.abs(fd - hp) / (1.0 + np.abs(hp))
        worst = max(worst, err.max())
    return worst, 1e-6


def check_basis_inversion(rng, points):
    """invert then evaluate round-trips to the target."""
    worst = 0.0
    for fam in _FAMILIES.values():
        for _ in range(points):
            target = _random_complex(rng, None, 0.7)
            z = fam.invert_h(target)
            w = fam.invert_htilde(np.conj(target))
            h, ht = fam.pair(z, w)
            worst = max(worst, abs(h - target) / (1 + abs(target)))
            worst = max(worst, abs(ht - np.conj(target)) / (1 + abs(target)))
    return worst, 1e-12


def check_basis_conjugate_symmetry(rng, points):
    """htilde(w) = conj(h(conj(w)))."""
    worst = 0.0
    for fam in _FAMILIES.values():
        z = _random_complex(rng, points, 0.8)
        ht = fam.pair(np.zeros_like(z), z)[1]
        h_conj = fam.pair(np.conj(z), np.zeros_like(z))[0]
        worst = max(worst, np.abs(ht - np.conj(h_conj)).max())
    return worst, 1e-14


def check_init_reconstruction(rng, points):
    """Three-point distribution reproduces the density matrix entrywise."""
    from .initialization import AtomicDensity, init_points

    fam = _FAMILIES["coherent-spin"]
    worst = 0.0
    for _ in range(points):
        p = rng.uniform(0.05, 0.95)
        rmax = np.sqrt(0.99 * p * (1 - p))
        r = rng.uniform(0, rmax)
        phi = rng.uniform(-np.pi, np.pi)
        rho = AtomicDensity.from_upper(p, r * np.exp(1j * phi))
        dist = init_points(rho, fam)
        if not (0.0 <= dist.weights.min() and abs(dist.weights.sum() - 1) < 1e-12):
            return np.inf, 1e-12
        worst = max(worst, np.abs(dist.reconstruct(fam) - rho.matrix()).max())
    return worst, 1e-12


def _candidate_states(normals, n_modes, scale):
    """The phase points :func:`random_phase_state` forms from rows of 4N + 4 normals."""
    m = 2 * n_modes
    states = np.empty((len(normals), m + 2), dtype=complex)
    states[:, :m] = scale * (normals[:, :m] + 1j * normals[:, m : 2 * m])
    states[:, m:] = scale * (normals[:, 2 * m : 2 * m + 2] + 1j * normals[:, 2 * m + 2 :])
    return states


def _random_states(rng, family, n_modes, count, scale=0.5):
    """``count`` phase points, bit for bit those of ``count`` calls of
    :func:`random_phase_state`, which leave ``rng`` in the same state.

    Candidates are drawn and screened in batches, one jet per batch; then the
    generator is reset and draws again exactly the candidates those calls
    would have drawn, up to the last one accepted.
    """
    snapshot = rng.bit_generator.state
    drawn, accepted = 0, []
    while len(accepted) < count:
        batch = 2 * (count - len(accepted))
        states = _candidate_states(rng.standard_normal((batch, 4 * n_modes + 4)), n_modes, scale)
        ok = _away_from_poles(family.jet(states[:, -2], states[:, -1]))
        accepted.extend(drawn + np.flatnonzero(ok))
        drawn += batch
    accepted = accepted[:count]
    rng.bit_generator.state = snapshot
    normals = rng.standard_normal((accepted[-1] + 1, 4 * n_modes + 4))
    return _candidate_states(normals, n_modes, scale)[accepted]


def _factorization_error(params, family, states):
    b = jc.noise_jc(params, family, states)
    d = jc.diffusion_jc(params, family, states)
    return _worst_relative(b @ np.swapaxes(b, -1, -2), d, (-2, -1))


def check_factorization(rng, points):
    """B @ B.T = D for the dissipation-free coefficients, both families."""
    worst = 0.0
    params = sample_model()
    for fam in _FAMILIES.values():
        states = _random_states(rng, fam, params.mode_count, points)
        worst = max(worst, _factorization_error(params, fam, states))
    return worst, 1e-12


def check_factorization_dissipative(rng, points):
    """B @ B.T = D with scattering and dephasing rates drawn per point."""
    worst = 0.0
    for fam in _FAMILIES.values():
        rates, states = [], []
        for _ in range(points):
            rates.append(random_rates(rng))
            states.append(random_phase_state(rng, fam, n_modes=2))
        params = sample_model(**{name: np.array([r[name] for r in rates]) for name in rates[0]})
        worst = max(worst, _factorization_error(params, fam, np.stack(states)))
    return worst, 1e-12


def check_additive_noise_constant(rng, points):
    """Additive-noise family: noise matrix equals its zero-state value exactly."""
    params = sample_model()
    fam = _FAMILIES["additive-noise"]
    base = jc.noise_jc(params, fam, np.zeros(params.dim, dtype=complex))
    noise = jc.noise_jc(params, fam, _random_states(rng, fam, params.mode_count, points))
    return (0.0 if (noise == base).all() else np.inf), 0.0


def check_single_mode_forms(rng, points):
    """General assembly vs the closed-form single-mode drift and noise."""
    worst = 0.0
    for delta in (4.0 + 0.0j, 3.0 + 1.0j):
        fam = BasisFamily.additive_noise(delta, 0.0)
        params = sample_model(n_modes=1)
        om = params.omega[0]
        gs = params.gs[0]
        dc = np.conj(delta)
        states = _random_states(rng, fam, 1, points)
        alpha, beta, z, w = states.T
        th = np.tanh(z / delta + w / dc)
        oracle = 1j * np.stack(
            [
                -om * alpha + gs * th,
                om * beta - gs * th,
                -params.Omega * delta / 2 * np.sinh(2 * z / delta)
                + gs * delta * (alpha + beta),
                params.Omega * dc / 2 * np.sinh(2 * w / dc)
                - gs * dc * (alpha + beta),
            ],
            axis=-1,
        )
        got = jc.drift_jc(params, fam, states)
        worst = max(worst, _worst_relative(got, oracle, -1))
        rd, rdc = np.sqrt(delta), np.sqrt(dc)
        pref = np.sqrt(1j * gs / 2)
        noise_oracle = pref * np.array(
            [
                [1j * rd, -rd, 0, 0],
                [0, 0, -1j * rdc, -rdc],
                [-1j * rd, -rd, 0, 0],
                [0, 0, -1j * rdc, rdc],
            ]
        )
        got = jc.noise_jc(params, fam, random_phase_state(rng, fam, 1))
        worst = max(worst, np.abs(got - noise_oracle).max())
    return worst, 1e-12


def check_dissipative_structure(rng, points):
    """Dissipation touches only the fermionic drift rows."""
    fam = _FAMILIES["coherent-spin"]
    params_free = sample_model()
    params_rates = sample_model(**random_rates(rng))
    states = _random_states(rng, fam, params_free.mode_count, points)
    plain = jc.drift_jc(params_free, fam, states)
    plus = jc.drift_jc(params_rates, fam, states)
    bosonic = slice(0, 2 * params_free.mode_count)
    return np.abs(plus[..., bosonic] - plain[..., bosonic]).max(), 1e-14


def check_ito_transform(rng, points):
    """Changed-variable drift equals the stochastic chain rule applied to the
    phase-space drift and noise, with map derivatives obtained numerically."""
    worst = 0.0
    for fam_name in ("coherent-spin", "additive-noise"):
        fam = _FAMILIES[fam_name]
        params = sample_model(**random_rates(rng))
        change = partial(physical.to_physical, fam, check=False)
        states = _random_states(rng, fam, params.mode_count, points, scale=0.4)
        a = jc.drift_jc(params, fam, states)
        b = jc.noise_jc(params, fam, states)
        grad, hess = holomorphic_derivatives(change, states)
        corr = b @ np.swapaxes(b, -1, -2)
        oracle = np.einsum("...kp,...p->...k", grad, a) + 0.5 * np.einsum(
            "...kpq,...pq->...k", hess, corr
        )
        got = physical.drift_bar(params, change(states))
        worst = max(worst, _worst_relative(got, oracle, -1))
    return worst, 1e-6


def check_jacobian_diffusion(rng, points):
    """noise_bar factorizes the Jacobian-transported diffusion matrix."""
    fam = _FAMILIES["coherent-spin"]
    params = sample_model(**random_rates(rng))
    states = _random_states(rng, fam, params.mode_count, points, scale=0.4)
    jac = physical.jacobian_change(fam, states)
    rhs = jac @ jc.diffusion_jc(params, fam, states) @ np.swapaxes(jac, -1, -2)
    bbar = physical.noise_bar(params, physical.to_physical(fam, states))
    return _worst_relative(bbar @ np.swapaxes(bbar, -1, -2), rhs, (-2, -1)), 1e-8


def check_jacobian_diffusion_off_surface(rng, points):
    """noise_bar stays within O(1e-6) of the transported diffusion 1e-6 off
    the constraint surface 4 rho21 rho12 = (1 - nu)(1 + nu), where h (in half
    the points, else htilde) is near 0: there a root pair's common radicand
    h**2 - 1 lies on the branch cut, on either side of it."""
    fam = _FAMILIES["coherent-spin"]
    params = sample_model(**random_rates(rng))
    n = params.mode_count
    states = _random_states(rng, fam, n, points, scale=0.4)
    near_zero = 1e-7 * np.exp(2j * np.pi * rng.uniform(size=points))
    half = points // 2
    states[:half, -2], states[half:, -1] = near_zero[:half], near_zero[half:]
    jac = physical.jacobian_change(fam, states)
    rhs = jac @ jc.diffusion_jc(params, fam, states) @ np.swapaxes(jac, -1, -2)
    off = physical.to_physical(fam, states) + _random_complex(rng, (points, 2 * n + 3), 1e-6)
    bbar = physical.noise_bar(params, off)
    return _worst_relative(bbar @ np.swapaxes(bbar, -1, -2), rhs, (-2, -1)), 5e-5


def check_jacobian_fd(rng, points):
    """Analytic Jacobian of the change map against spectral derivatives."""
    worst = 0.0
    for fam in (_FAMILIES["coherent-spin"], _FAMILIES["additive-noise"]):
        states = _random_states(rng, fam, 2, max(4, points // 10), scale=0.4)
        grad, _ = holomorphic_derivatives(partial(physical.to_physical, fam, check=False), states)
        worst = max(worst, np.abs(grad - physical.jacobian_change(fam, states)).max())
    return worst, 1e-9


def check_mb_drift_identity(rng, points):
    """Maxwell-Bloch right-hand side equals drift_bar on the hermitian slice."""
    params = sample_model(**random_rates(rng))
    n = params.mode_count
    phys, deriv = [], []
    for _ in range(points):
        eps = rng.standard_normal(n)
        eta = rng.standard_normal(n)
        rho21 = complex(*(0.3 * rng.standard_normal(2)))
        phys.append(physical.join_phys(eps, eta, rho21, np.conj(rho21), rng.uniform(-1, 1)))
        deriv.append(maxwell_bloch.mb_rhs(params, phys[-1]))
    return np.abs(np.stack(deriv) - physical.drift_bar(params, np.stack(phys))).max(), 1e-13


def check_projection_derivatives(rng, points):
    """Hard-coded observable gradients and Hessians against spectral values."""
    worst = 0.0
    n_modes = 1
    for fam in (_FAMILIES["coherent-spin"], _FAMILIES["additive-noise"]):
        for which in ("rho_21", "rho_12", "nu"):
            obs = observables.projection_observable(which, fam, n_modes)

            def scalar(x):
                return obs.value(x)[..., None]

            states = _random_states(rng, fam, n_modes, max(4, points // 20), scale=0.4)
            grad, hess = holomorphic_derivatives(scalar, states)
            worst = max(worst, np.abs(grad[..., 0, :] - obs.gradient(states)).max())
            worst = max(worst, np.abs(hess[..., 0, :, :] - obs.hessian(states)).max())
    return worst, 1e-8


CHECKS = (
    ("basis-ode-identity", check_basis_ode_identity),
    ("basis-derivative-fd", check_basis_derivative),
    ("basis-invert-roundtrip", check_basis_inversion),
    ("basis-conjugate-symmetry", check_basis_conjugate_symmetry),
    ("init-reconstruction", check_init_reconstruction),
    ("factorization", check_factorization),
    ("factorization-dissipative", check_factorization_dissipative),
    ("additive-noise-constancy", check_additive_noise_constant),
    ("single-mode-closed-forms", check_single_mode_forms),
    ("dissipative-drift-structure", check_dissipative_structure),
    ("ito-transform-drift", check_ito_transform),
    ("jacobian-diffusion-transform", check_jacobian_diffusion),
    ("jacobian-spectral-validation", check_jacobian_fd),
    ("mb-drift-bar-identity", check_mb_drift_identity),
    ("projection-derivatives", check_projection_derivatives),
    ("jacobian-diffusion-off-surface", check_jacobian_diffusion_off_surface),
)


def run_all(seed: int = DEFAULT_SEED, points: int = DEFAULT_POINTS) -> dict:
    """Execute every suite with per-check seeded generators; returns a report."""
    sde.check_seed("seed", seed)
    sde.check_count("points", points)
    checks = []
    all_passed = True
    for index, (name, fn) in enumerate(CHECKS):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
        max_error, tolerance = fn(rng, points)
        passed = bool(max_error <= tolerance)
        all_passed &= passed
        checks.append(
            dict(name=name, passed=passed, max_error=float(max_error), tolerance=float(tolerance))
        )
    return {"seed": seed, "points": points, "passed": all_passed, "checks": checks}
