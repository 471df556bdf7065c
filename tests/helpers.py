"""Shared oracles for the test suite, independent of the library internals."""

import numpy as np


def rk4(f, x0, grid):
    """Classical fixed-step RK4 returning the full trajectory, on numpy
    arrays in the operand order of ``maxwell_bloch.evolve_mb``."""
    x = np.array(x0)
    dt = grid.dt
    out = np.empty((grid.steps + 1,) + x.shape, dtype=x.dtype)
    out[0] = x
    for k in range(grid.steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = x
    return out


def numpy_mb_rhs(params, vec):
    """The Maxwell-Bloch rhs of a real-form state (eps, eta, Re rho21, Im
    rho21, nu) as whole-array numpy operations, a frozen copy of the form
    that ``maxwell_bloch`` stepped before it moved to Python floats."""
    n = params.mode_count
    om = params.omega_array
    gs = params.gs
    eps = vec[0:n]
    eta = vec[n : 2 * n]
    re21 = vec[2 * n]
    im21 = vec[2 * n + 1]
    nu = vec[2 * n + 2]
    drive = float((gs * eps).sum())
    out = np.empty_like(vec)
    out[0:n] = om * eta
    out[n : 2 * n] = -om * eps - 4.0 * gs * re21
    out[2 * n] = params.Omega * im21 - params.gamma2 * re21
    out[2 * n + 1] = -params.Omega * re21 + drive * nu - params.gamma2 * im21
    out[2 * n + 2] = -4.0 * drive * im21 - params.gamma1 * (nu - params.nu0)
    return out


def single_mode_drift(params, delta, state):
    """Closed-form single-mode drift for the additive-noise family, kappa = 0."""
    om = params.omega[0]
    gs = params.gs[0]
    dc = np.conj(delta)
    alpha, beta, z, w = state
    th = np.tanh(z / delta + w / dc)
    return 1j * np.array(
        [
            -om * alpha + gs * th,
            om * beta - gs * th,
            -params.Omega * delta / 2.0 * np.sinh(2.0 * z / delta)
            + gs * delta * (alpha + beta),
            params.Omega * dc / 2.0 * np.sinh(2.0 * w / dc)
            - gs * dc * (alpha + beta),
        ]
    )


def single_mode_noise(params, delta):
    """Closed-form single-mode noise matrix for the additive-noise family."""
    gs = params.gs[0]
    rd, rdc = np.sqrt(complex(delta)), np.sqrt(np.conj(complex(delta)))
    return np.sqrt(1j * gs / 2.0) * np.array(
        [
            [1j * rd, -rd, 0, 0],
            [0, 0, -1j * rdc, -rdc],
            [-1j * rd, -rd, 0, 0],
            [0, 0, -1j * rdc, rdc],
        ]
    )


def ou_variance(sigma, lam, t):
    return sigma**2 / (2.0 * lam) * (1.0 - np.exp(-2.0 * lam * t))


def ou_second_moment(x0, sigma, lam, t):
    return ou_variance(sigma, lam, t) + x0**2 * np.exp(-2.0 * lam * t)


def random_disc(rng, shape=None, radius=1.0):
    """Uniform draw from the complex disc of given radius."""
    r = radius * np.sqrt(rng.uniform(size=shape))
    phase = np.exp(2j * np.pi * rng.uniform(size=shape))
    return r * phase


def state_amplitudes(family, z):
    """Unnormalized (lower, upper) amplitudes of the family state at z."""
    if family.kind == "coherent-spin":
        return 1.0 + 0j, complex(z)
    expo = np.exp(2.0 * complex(z) / family.delta + family.kappa)
    return 1.0 + expo, 1.0 - expo


def projector_2x2(family, z, w):
    """Fermionic projector built from outer products of the state vectors."""
    fz, gz = state_amplitudes(family, z)
    ket = np.array([fz, gz])
    fw, gw = state_amplitudes(family, np.conj(complex(w)))
    bra = np.array([fw, gw]).conj()
    return np.outer(ket, bra) / (bra @ ket)


def dense_spectral_values(ham, ops, rho0, elapsed, hbar):
    """tr(A rho(t)) for each A of ``ops`` at each elapsed time, by one dense
    eigh of H: the quadratic forms phi^T (A~^T o rho~) phi^* in the phases
    phi_k(t) = exp(-i E_k t / hbar), with A~ = V^dagger A V and rho~ =
    V^dagger rho0 V, stacked into one matrix for one GEMM."""
    energies, vecs = np.linalg.eigh(ham)
    rho_t = vecs.conj().T @ rho0 @ vecs
    dim = len(ham)
    forms = np.stack([(vecs.conj().T @ op @ vecs).T * rho_t for op in ops], axis=1)
    phi = np.exp(np.multiply.outer(elapsed, -1j * energies / hbar))
    quad = (phi @ forms.reshape(dim, -1)).reshape(len(phi), len(ops), dim)
    return np.einsum("bjl,bl->bj", quad, phi.conj())


def dense_spectral_states(ham, rho0, elapsed, hbar):
    """rho(t) = V (rho~ o phi phi^dagger) V^dagger at each elapsed time, by
    one dense eigh of H = V diag(E) V^dagger, with rho~ = V^dagger rho0 V."""
    energies, vecs = np.linalg.eigh(ham)
    rho_t = vecs.conj().T @ rho0 @ vecs
    phi = np.exp(np.multiply.outer(elapsed, -1j * energies / hbar))
    return np.array([vecs @ (rho_t * np.outer(p, p.conj())) @ vecs.conj().T for p in phi])
