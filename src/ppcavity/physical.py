"""Change of variables to physical coordinates and the stochastic MB system.

The physical state (epsilon_1, eta_1, ..., epsilon_N, eta_N, rho21, rho12, nu)
collects field quadratures per mode and the atomic coherences and inversion.
In these coordinates the drift is polynomial and its deterministic part is the
cavity-mode Maxwell-Bloch system; the transformed noise matrix (closed form
available for the coherent-spin family only) supplies the quantum corrections.
"""

from __future__ import annotations

import numpy as np

from .basis import COHERENT_SPIN, POLE_FLOOR, BasisFamily, checked_denominator
from .errors import InconsistentStateError, PoleProximityError
from .jc import ModelParams, jet_state, principal_sqrt, split_state
from .sde import SdeSystem

#: relative mismatch of 4*rho21*rho12 and (1+nu)(1-nu) that
#: :func:`from_physical` still accepts as consistent
CONSISTENCY_TOL = 1e-9


def split_phys(phys, n_modes):
    """Views (eps, eta, rho21, rho12, nu) of a flat (batched) physical vector."""
    phys = np.asarray(phys, dtype=complex)
    eps = phys[..., 0 : 2 * n_modes : 2]
    eta = phys[..., 1 : 2 * n_modes : 2]
    rho21 = phys[..., 2 * n_modes]
    rho12 = phys[..., 2 * n_modes + 1]
    nu = phys[..., 2 * n_modes + 2]
    return eps, eta, rho21, rho12, nu


def join_phys(eps, eta, rho21, rho12, nu) -> np.ndarray:
    """Inverse of :func:`split_phys`: lay out (batched) physical coordinates."""
    eps = np.asarray(eps)
    n = eps.shape[-1]
    out = np.empty(eps.shape[:-1] + (2 * n + 3,), dtype=complex)
    out[..., 0 : 2 * n : 2] = eps
    out[..., 1 : 2 * n : 2] = eta
    out[..., 2 * n] = rho21
    out[..., 2 * n + 1] = rho12
    out[..., 2 * n + 2] = nu
    return out


def to_physical(family: BasisFamily, state, check=True) -> np.ndarray:
    """Map a phase-space vector (batched ok) to physical coordinates.

    ``state`` may be a :class:`ppcavity.jc.JetState`, whose jet is read as
    it is; a raw state gets its jet from :func:`ppcavity.jc.jet_state`.  With
    ``check`` a vanishing 1 + h*htilde raises PoleProximityError; without it
    the result carries inf/nan there.
    """
    state, pf = jet_state(family, state)
    if check:
        checked_denominator(pf.h, pf.ht)
    alpha, beta, _, _ = split_state(state, (state.shape[-1] - 2) // 2)
    denom = pf.denom
    return join_phys(
        beta + alpha, 1j * (beta - alpha), pf.h / denom, pf.ht / denom, (pf.hht - 1.0) / denom
    )


def from_physical(family: BasisFamily, phys) -> np.ndarray:
    """Invert the change of variables for a single physical point.

    Requires the compatibility relation 4*rho21*rho12 = (1+nu)(1-nu); the
    inversion then uses h = 2*rho21/(1-nu) and htilde = 2*rho12/(1-nu).
    """
    phys = np.asarray(phys, dtype=complex)
    if phys.ndim != 1:
        raise ValueError("from_physical expects a single flat physical vector")
    n = (phys.shape[-1] - 3) // 2
    eps, eta, rho21, rho12, nu = split_phys(phys, n)
    one_m = 1.0 - nu
    if abs(one_m) < POLE_FLOOR:
        raise PoleProximityError("nu = 1 is a pole of the inverse change of variables")
    lhs = 4.0 * rho21 * rho12
    rhs = (1.0 + nu) * one_m
    scale = 1.0 + max(abs(lhs), abs(rhs))
    if abs(lhs - rhs) > CONSISTENCY_TOL * scale:
        raise InconsistentStateError(
            "4*rho21*rho12 != (1+nu)(1-nu); the two expressions for h disagree"
        )
    z = family.invert_h(2.0 * rho21 / one_m)
    w = family.invert_htilde(2.0 * rho12 / one_m)
    out = np.empty(2 * (n + 1), dtype=complex)
    out[0 : 2 * n : 2] = (eps + 1j * eta) / 2.0
    out[1 : 2 * n : 2] = (eps - 1j * eta) / 2.0
    out[2 * n] = z
    out[2 * n + 1] = w
    return out


def drift_bar(params: ModelParams, phys) -> np.ndarray:
    """Drift in physical coordinates: cavity-mode Maxwell plus Bloch rows."""
    phys = np.asarray(phys, dtype=complex)
    n = params.mode_count
    eps, eta, rho21, rho12, nu = split_phys(phys, n)
    om = params.omega_array
    gs = params.gs
    drive = (gs * eps).sum(axis=-1)
    out = np.empty_like(phys)
    out[..., 0 : 2 * n : 2] = om * eta
    out[..., 1 : 2 * n : 2] = -om * eps - 2.0 * gs * (rho21 + rho12)[..., None]
    out[..., 2 * n] = (
        -1j * params.Omega * rho21 + 1j * drive * nu - params.gamma2 * rho21
    )
    out[..., 2 * n + 1] = (
        1j * params.Omega * rho12 - 1j * drive * nu - params.gamma2 * rho12
    )
    out[..., 2 * n + 2] = 2j * drive * (rho21 - rho12) - params.gamma1 * (
        nu - params.nu0
    )
    return out


def noise_bar(params: ModelParams, phys) -> np.ndarray:
    """Transformed noise matrix, closed form for the coherent-spin family.

    The 4N+2 columns mirror the phase-space layout: four per mode plus two
    dissipative columns acting on the atomic rows only, left zero without
    dissipation.  Complex square roots are taken on the principal branch (a
    diffusion-gauge choice).
    """
    phys = np.asarray(phys, dtype=complex)
    n = params.mode_count
    _, _, rho21, rho12, nu = split_phys(phys, n)
    batch = phys.shape[:-1]
    with np.errstate(all="ignore"):
        one_m = 1.0 - nu
        one_p = 1.0 + nu
        one_m2, one_p2 = one_m**2, one_p**2
        quarter_m2 = one_m2 / 4.0
        rho21_2, rho12_2 = rho21**2, rho12**2
        p = principal_sqrt(4.0 * rho21_2 / one_m2 - 1.0)
        q = principal_sqrt(4.0 * rho12_2 / one_m2 - 1.0)
        rad12 = principal_sqrt(one_p2 / (4.0 * rho12_2) - 1.0)
        rad21 = principal_sqrt(one_p2 / (4.0 * rho21_2) - 1.0)
        r1 = quarter_m2 * p
        r2 = -rho12_2 * rad12
        r3 = rho12 * one_m * rad12
        s1 = -rho21_2 * rad21
        s2 = quarter_m2 * q
        s3 = rho21 * one_m * rad21

        out = np.zeros(batch + (2 * n + 3, 4 * n + 2), dtype=complex)
        ir21, ir12, inu = 2 * n, 2 * n + 1, 2 * n + 2
        pref = params.noise_prefactor
        for k in range(n):
            c = 4 * k
            pk = pref[k]
            # field-quadrature rows of this mode
            out[..., 2 * k, c] = pk * 1j * p
            out[..., 2 * k, c + 1] = -pk * p
            out[..., 2 * k + 1, c] = pk * p
            out[..., 2 * k + 1, c + 1] = pk * 1j * p
            out[..., 2 * k, c + 2] = -pk * 1j * q
            out[..., 2 * k, c + 3] = -pk * q
            out[..., 2 * k + 1, c + 2] = pk * q
            out[..., 2 * k + 1, c + 3] = -pk * 1j * q
            # atomic rows
            out[..., ir21, c] = -pk * 1j * r1
            out[..., ir21, c + 1] = -pk * r1
            out[..., ir12, c] = -pk * 1j * r2
            out[..., ir12, c + 1] = -pk * r2
            out[..., inu, c] = -pk * 1j * r3
            out[..., inu, c + 1] = -pk * r3
            out[..., ir21, c + 2] = -pk * 1j * s1
            out[..., ir21, c + 3] = pk * s1
            out[..., ir12, c + 2] = -pk * 1j * s2
            out[..., ir12, c + 3] = pk * s2
            out[..., inu, c + 2] = -pk * 1j * s3
            out[..., inu, c + 3] = pk * s3

        if not params.dissipative:
            # the two dissipative columns stay zero
            return out
        ratio = one_p / one_m
        dbar = 2.0 * params.r_p * ratio + params.r21 * ratio**2 + params.r12
        tpref = principal_sqrt(dbar / 2.0)
        out[..., ir21, 4 * n] = tpref * (-1j) * (rho21_2 + quarter_m2)
        out[..., ir21, 4 * n + 1] = tpref * (-rho21_2 + quarter_m2)
        out[..., ir12, 4 * n] = tpref * 1j * (rho12_2 + quarter_m2)
        out[..., ir12, 4 * n + 1] = tpref * (-rho12_2 + quarter_m2)
        out[..., inu, 4 * n] = tpref * 1j * (rho21 - rho12) * one_m
        out[..., inu, 4 * n + 1] = tpref * (rho21 + rho12) * one_m
    return out


def jacobian_change(family: BasisFamily, state) -> np.ndarray:
    """Analytic Jacobian of the phase-space -> physical change of variables."""
    state = np.asarray(state, dtype=complex)
    n = (state.shape[-1] - 2) // 2
    _, _, z, w = split_state(state, n)
    pf = family.jet(z, w)
    den2 = pf.denom**2
    out = np.zeros(state.shape[:-1] + (2 * n + 3, 2 * (n + 1)), dtype=complex)
    for k in range(n):
        out[..., 2 * k, 2 * k] = 1.0
        out[..., 2 * k, 2 * k + 1] = 1.0
        out[..., 2 * k + 1, 2 * k] = -1j
        out[..., 2 * k + 1, 2 * k + 1] = 1j
    iz, iw = 2 * n, 2 * n + 1
    out[..., 2 * n, iz] = pf.hp / den2
    out[..., 2 * n, iw] = -pf.h**2 * pf.htp / den2
    out[..., 2 * n + 1, iz] = -pf.ht**2 * pf.hp / den2
    out[..., 2 * n + 1, iw] = pf.htp / den2
    out[..., 2 * n + 2, iz] = 2.0 * pf.hp * pf.ht / den2
    out[..., 2 * n + 2, iw] = 2.0 * pf.h * pf.htp / den2
    return out


def reconstruct_fields(params: ModelParams, phys, x):
    """Electric and magnetic field values at position x from mode quadratures."""
    phys = np.asarray(phys, dtype=complex)
    n = params.mode_count
    eps, eta, _, _, _ = split_phys(phys, n)
    k = params.wave_numbers
    e_p = params.e_photon
    e_val = (e_p * np.sin(k * x) * eps).sum(axis=-1)
    h_val = -(1.0 / params.impedance) * (e_p * np.cos(k * x) * eta).sum(axis=-1)
    return e_val, h_val


def coupling_rate(params: ModelParams, phys):
    """Atom-field coupling rate -(i/hbar) m21 E(x0).

    Equals sum_n i g_n epsilon_n sin(k_n x0) whenever the couplings are
    proportional to the per-photon field, which ``dipole_moment`` enforces.
    """
    m21 = params.dipole_moment()
    e_val, _ = reconstruct_fields(params, phys, params.x0)
    return -1j / params.hbar * m21 * e_val


def physical_sde_system(params: ModelParams) -> SdeSystem:
    """Changed-variable SDE (coherent-spin closed-form noise).

    Numerically delicate: every noise entry involves square roots that react
    badly to sampling noise, so treat this engine as experimental.
    """
    n = params.mode_count

    def drift(state):
        return drift_bar(params, state)

    def noise(state):
        return noise_bar(params, state)

    return SdeSystem(
        dim=2 * n + 3,
        noise_dim=4 * n + 2,
        drift=drift,
        noise=noise,
        constant_noise=False,
    )


def physical_init_sampler(family: BasisFamily, phase_sampler):
    """Wrap a phase-space initial sampler for the changed-variable engine."""
    if family.kind != COHERENT_SPIN:
        raise ValueError(
            "the changed-variable noise matrix is only available for the "
            "coherent-spin family"
        )

    def sampler(rng):
        return to_physical(family, phase_sampler(rng))

    return sampler
