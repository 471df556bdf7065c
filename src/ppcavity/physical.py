"""Change of variables to physical coordinates and the stochastic MB system.

The physical state (epsilon_1, eta_1, ..., epsilon_N, eta_N, rho21, rho12, nu)
collects field quadratures per mode and the atomic coherences and inversion.
In these coordinates the drift is polynomial and its deterministic part is the
cavity-mode Maxwell-Bloch system; the transformed noise matrix (closed form
available for the coherent-spin family only) supplies the quantum corrections.
Both come from one formula, ``increment_bar``, the Euler increment of a step,
which forms each root pair of the kick, (p, q) and (rad12, rad21), in one call
and gives each rad the sign nearest its partner's, p or q.  Like everything
the stepping loop calls, it runs under the loop's numpy error state; the
public ``noise_bar`` sets its own.  ``to_physical`` reads the coordinates off
a :class:`ppcavity.jc.JetState`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .basis import (
    COHERENT_SPIN,
    FOUR,
    IMAG,
    MINUS_IMAG,
    ONE,
    ONE_LIFTED,
    POLE_FLOOR,
    TWO,
    ZERO,
    BasisFamily,
    checked_denominator,
)
from .errors import InconsistentStateError, PoleProximityError
from .jc import (
    ModelParams,
    empty_state,
    jet_state,
    join_state,
    mode_sum,
    principal_sqrt,
)
from .sde import SdeSystem, noise_matrix

#: relative mismatch of 4*rho21*rho12 and (1+nu)(1-nu) that
#: :func:`from_physical` still accepts as consistent
CONSISTENCY_TOL = 1e-9


def split_phys(phys, n_modes):
    """Views (eps, eta, rho21, rho12, nu) of a flat (batched) physical vector:
    the layout of :func:`ppcavity.jc.split_state` with nu appended."""
    return _phys_views(np.asarray(phys, dtype=complex), n_modes)


def _phys_views(phys, n):
    """:func:`split_phys` of a complex array, without the conversion."""
    return (
        phys[..., 0 : 2 * n : 2],
        phys[..., 1 : 2 * n : 2],
        phys[..., 2 * n],
        phys[..., 2 * n + 1],
        phys[..., 2 * n + 2],
    )


#: ``join_phys(eps, eta, rho21, rho12, nu)``, the inverse of :func:`split_phys`:
#: the phase-space layout writer with the three atomic coordinates trailing
join_phys = join_state


class ArrayCoordinates:
    """The physical coordinates of a (batched) physical vector (..., 2N+3)
    followed by further coordinates of the engine, read by
    :func:`ppcavity.observables.physical_columns`: ``eps`` and ``eta`` (...,
    N), ``atomic(k, out)`` for rho21, rho12 and nu (k = 0, 1, 2), copied into
    ``out`` if one is given, and ``raw(k)`` for the further coordinates.
    """

    def __init__(self, phys, n_modes):
        self.phys = np.asarray(phys, dtype=complex)
        self.shape = self.phys.shape[:-1]
        self.eps, self.eta, *self._atomic = split_phys(self.phys, n_modes)
        self._raw = 2 * n_modes + 3

    def atomic(self, k, out=None):
        if out is None:
            return self._atomic[k]
        out[...] = self._atomic[k]
        return out

    def raw(self, k):
        return self.phys[..., self._raw + k]


def to_physical(family: BasisFamily, state, check=True) -> np.ndarray:
    """Map a phase-space vector (batched ok) to physical coordinates.

    ``state`` may be a :class:`ppcavity.jc.JetState`, whose coordinates are
    read as they are; a raw state gets one from :func:`ppcavity.jc.jet_state`.  With
    ``check`` a vanishing 1 + h*htilde raises PoleProximityError; without it
    the result carries inf/nan there, without numpy warnings.
    """
    c = jet_state(family, state)
    if check:
        checked_denominator(c.pf.h, c.pf.ht)
    with np.errstate(all="ignore"):
        return join_phys(c.eps, c.eta, c.atomic(0), c.atomic(1), c.atomic(2))


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
    return join_state((eps + 1j * eta) / 2.0, (eps - 1j * eta) / 2.0, z, w)


def increment_bar(params: ModelParams, phys, dt, dw=None) -> np.ndarray:
    """Euler increment A dt + B dW in one pass: the engine's one coefficient formula.

    A is the cavity-mode Maxwell plus Bloch drift, B the coherent-spin closed
    form.  ``dw`` is as for :func:`ppcavity.jc.increment_jc`, with 4N+2
    columns: four per mode, then two dissipative ones, which act on the
    atomic rows only and are skipped without dissipation.  The atomic rows of
    the kick are r X + s Y, X and Y two increment combinations summed over
    the modes.  Square roots take the principal branch (a gauge choice).
    It sets no numpy error state: the kick divides by rho21, rho12 and
    1 - nu, so a caller outside the stepping loop sets its own.
    """
    phys = np.asarray(phys, dtype=complex)
    n = params.mode_count
    eps, eta, rho21, rho12, nu = _phys_views(phys, n)
    om = params.omega_array
    gs = params.gs
    batch = phys.shape[:-1]
    if dw is not None and dw.shape[:-1] != batch:
        batch = np.broadcast_shapes(batch, dw.shape[:-1])
    out = empty_state(batch, 2 * n + 3)
    inc_eps, inc_eta, inc_21, inc_12, inc_nu = _phys_views(out, n)
    idrive = 1j * dt * mode_sum(gs * eps)
    drive_nu = idrive * nu
    np.multiply(dt * om, eta, out=inc_eps)
    np.multiply(-dt, om * eps + 2.0 * gs * (rho21 + rho12)[..., None], out=inc_eta)
    np.add((-1j * params.Omega - params.gamma2) * dt * rho21, drive_nu, out=inc_21)
    np.subtract((1j * params.Omega - params.gamma2) * dt * rho12, drive_nu, out=inc_12)
    np.subtract(
        2.0 * idrive * (rho21 - rho12), params.gamma1 * dt * (nu - params.nu0), out=inc_nu
    )
    if dw is not None:
        # the operands are 0-d constants: numpy converts a Python scalar on
        # every call, to the same value
        one_m = ONE - nu
        one_p = ONE + nu
        quarter_m2 = one_m * one_m / FOUR
        rho_2 = phys[..., 2 * n : 2 * n + 2] ** 2
        rho21_2, rho12_2 = rho_2[..., 0], rho_2[..., 1]
        # the roots (p, q) and (rad12, rad21), each pair in one call; on the
        # constraint surface rad12 shares its radicand with p, rad21 with q;
        # subtracting ONE_LIFTED takes the principal root (principal_sqrt)
        roots = np.sqrt(rho_2 / quarter_m2[..., None] - ONE_LIFTED)
        rads = np.sqrt((one_p * one_p)[..., None] / (FOUR * rho_2[..., ::-1]) - ONE_LIFTED)
        # off the surface, near the branch cut, the principal roots of
        # such a pair can part: each rad takes the sign nearest its partner
        np.negative(rads, out=rads, where=(rads * np.conj(roots)).real < ZERO)
        p, q, rad12, rad21 = roots[..., 0], roots[..., 1], rads[..., 0], rads[..., 1]
        # per mode, pref (dW_c + i dW_{c+1}) and pref (dW_{c+2} - i dW_{c+3})
        pairs = dw[..., : 4 * n].view(complex)
        pref = params.noise_prefactor
        pa = p[..., None] * (pref * pairs[..., 0::2])
        qc = q[..., None] * (pref * np.conj(pairs[..., 1::2]))
        inc_eps += IMAG * (pa - qc)
        inc_eta += pa + qc
        kick = MINUS_IMAG * pref
        x = mode_sum(kick * np.conj(pairs[..., 0::2]))
        y = mode_sum(kick * pairs[..., 1::2])
        inc_21 += quarter_m2 * p * x
        inc_21 -= rho21_2 * rad21 * y
        inc_12 -= rho12_2 * rad12 * x
        inc_12 += quarter_m2 * q * y
        inc_nu += one_m * (rho12 * rad12 * x + rho21 * rad21 * y)
        if params.dissipative:
            ratio = one_p / one_m
            dbar = 2.0 * params.r_p * ratio + params.r21 * ratio**2 + params.r12
            tkick = MINUS_IMAG * principal_sqrt(dbar / TWO)
            pair = dw[..., 4 * n : 4 * n + 2].view(complex)[..., 0]
            x_d, y_d = tkick * np.conj(pair), tkick * pair
            inc_21 += rho21_2 * x_d
            inc_21 += quarter_m2 * y_d
            inc_12 -= quarter_m2 * x_d
            inc_12 -= rho12_2 * y_d
            inc_nu -= one_m * (rho21 * x_d - rho12 * y_d)
    return out


def drift_bar(params: ModelParams, phys) -> np.ndarray:
    """Drift in physical coordinates: the increment at dt = 1 without noise."""
    return increment_bar(params, phys, 1.0)


def noise_bar(params: ModelParams, phys) -> np.ndarray:
    """Transformed noise matrix, closed form for the coherent-spin family.

    Column c is the increment (:func:`increment_bar`) at dt = 0 on the unit
    increment e_c.  The two dissipative columns are zero without dissipation.
    At a pole of the kick the entries are inf/nan, without numpy warnings.
    """
    phys = np.asarray(phys, dtype=complex)
    increment = partial(increment_bar, params, phys)
    with np.errstate(all="ignore"):
        return noise_matrix(increment, 4 * params.mode_count + 2, phys.ndim - 1)


def jacobian_change(family: BasisFamily, state) -> np.ndarray:
    """Analytic Jacobian of the phase-space -> physical change of variables."""
    prepared = jet_state(family, state)
    state, pf = prepared.state, prepared.pf
    n = (state.shape[-1] - 2) // 2
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
    badly to sampling noise, so treat this engine as experimental.  A step
    adds :func:`increment_bar`.
    """
    n = params.mode_count
    return SdeSystem(
        dim=2 * n + 3,
        noise_dim=4 * n + 2,
        drift=partial(drift_bar, params),
        noise=partial(noise_bar, params),
        increment=partial(increment_bar, params),
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
