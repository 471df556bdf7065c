"""Change of variables to physical coordinates and the stochastic MB system.

The physical state (epsilon_1, eta_1, ..., epsilon_N, eta_N, rho21, rho12, nu)
collects field quadratures per mode and the atomic coherences and inversion.
There the drift is polynomial, with the cavity-mode Maxwell-Bloch system as
its deterministic part, and the transformed noise (closed form for the
coherent-spin family only) supplies the quantum corrections; both come from
:func:`increment_bar`.
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
    block_pair_rows,
    coordinate_rows,
    empty_state,
    increment_rows,
    jet_state,
    join_state,
    principal_sqrt,
    split_state,
)
from .sde import SdeSystem, bindable, noise_matrix

#: relative mismatch of 4*rho21*rho12 and (1+nu)(1-nu) that
#: :func:`from_physical` still accepts as consistent
CONSISTENCY_TOL = 1e-9


def split_phys(phys, n_modes):
    """Views (eps, eta, rho21, rho12, nu): those of :func:`ppcavity.jc.split_state` plus nu."""
    phys = np.asarray(phys, dtype=complex)
    return (*split_state(phys, n_modes), phys[..., 2 * n_modes + 2])


#: ``join_phys(eps, eta, rho21, rho12, nu)``, the inverse of :func:`split_phys`
join_phys = join_state


class ArrayCoordinates:
    """The coordinates of a (batched) physical vector (..., 2N+3) followed by
    further coordinates of the engine, as the observable layer reads them:
    ``eps`` and ``eta`` (..., N), ``atomic(k, out)`` for rho21, rho12 and nu
    (k = 0, 1, 2), copied into ``out`` if one is given, and ``raw(k)``.
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
    """Map a phase-space vector or its :class:`ppcavity.jc.JetState` (batched
    ok) to physical coordinates.  With ``check`` a vanishing 1 + h*htilde
    raises PoleProximityError; without it, inf/nan there, without numpy warnings.
    """
    c = jet_state(family, state)
    if check:
        checked_denominator(c.pf.h, c.pf.ht)
    with np.errstate(all="ignore"):
        return join_phys(c.eps, c.eta, c.atomic(0), c.atomic(1), c.atomic(2))


def from_physical(family: BasisFamily, phys) -> np.ndarray:
    """Invert the change of variables at one physical point, which must satisfy
    4*rho21*rho12 = (1+nu)(1-nu): h = 2*rho21/(1-nu), htilde = 2*rho12/(1-nu)."""
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


def _bar_constants(params: ModelParams, dt, ndim):
    """The 0-d operands of :func:`increment_bar`, formed where its step is
    bound: per mode g_n s_n, dt omega_n, omega_n, 2 g_n s_n, the noise
    prefactor and -i times it; i dt, -dt, the rotation and decay factors of
    rho21 and rho12, gamma1 dt, nu0 and the dissipative rates, as rows of a
    batch of rank ``ndim``."""
    per_mode = (params.gs, dt * params.omega_array, params.omega_array, 2.0 * params.gs)
    per_mode = [np.array(v, dtype=complex) for v in per_mode]
    per_mode += [params.noise_prefactor, MINUS_IMAG * params.noise_prefactor]
    scalars = (
        (-1j * params.Omega - params.gamma2) * dt,
        (1j * params.Omega - params.gamma2) * dt,
        params.gamma1 * dt,
        params.nu0,
        2.0 * params.r_p,
        params.r21,
        params.r12,
    )
    return (
        tuple(tuple(v[k, ...] for v in per_mode) for k in range(params.mode_count)),
        np.array(1j * dt),
        np.array(-dt, dtype=complex),
        tuple(coordinate_rows(np.asarray(v, dtype=complex), ndim) for v in scalars),
    )


def increment_bar(params: ModelParams, phys, dt, dw=None) -> np.ndarray:
    """Euler increment A dt + B dW of the changed-variable engine in one pass.

    A is the cavity-mode Maxwell plus Bloch drift, B the coherent-spin closed
    form.  ``dw`` has the columns of ``ModelParams.noise_dim``.  The atomic
    rows of the kick are r X + s Y, X and Y two increment combinations summed
    over the modes.  Square roots take the principal branch (a gauge choice).
    Rows and error state follow :class:`ppcavity.sde.SdeSystem`.
    """
    phys = np.asarray(phys, dtype=complex)
    batch, pairs = increment_rows(phys, dw)
    return _bind_bar(params, phys, dt, batch)(pairs)


def _bind_bar(params: ModelParams, phys, dt, batch):
    """:func:`increment_bar` bound to ``phys``, ``dt`` and the broadcast
    ``batch``: ``step(pairs)`` takes the rows of dw's complex pairs (None
    without dw) and writes the increment at the current ``phys`` into one
    ``jc.empty_state``, which it returns at every call."""
    n, nd = params.mode_count, len(batch)
    x = coordinate_rows(phys, nd + 1)
    modes, idt, minus_dt, scalars = _bar_constants(params, dt, nd)
    rot21, rot12, decay, nu0, two_rp, r21, r12 = scalars
    rho21, rho12, nu = x[2 * n, ...], x[2 * n + 1, ...], x[2 * n + 2, ...]
    rhos = x[2 * n : 2 * n + 2, ...]
    dissipative = params.dissipative
    out = empty_state(batch, 2 * n + 3)
    rows = out.T
    atom_rows = rows[2 * n, ...], rows[2 * n + 1, ...], rows[2 * n + 2, ...]
    # per mode, its constants and its rows of the state and of the increment
    modes = [
        (*modes[k], x[2 * k, ...], x[2 * k + 1, ...], rows[2 * k, ...], rows[2 * k + 1, ...])
        for k in range(n)
    ]

    def step(pairs):
        inc_21, inc_12, inc_nu = atom_rows
        rho_sum = rho21 + rho12
        if pairs is not None:
            one_m = ONE - nu
            one_p = ONE + nu
            quarter_m2 = one_m * one_m / FOUR
            rho_2 = np.square(rhos)
            rho21_2, rho12_2 = rho_2[0, ...], rho_2[1, ...]
            # the radicands of (p, q, rad12, rad21), rooted in one call; on the
            # constraint surface rad12 shares its radicand with p, rad21 with q;
            # subtracting ONE_LIFTED takes the principal root (principal_sqrt)
            roots = np.empty((4,) + rho_2.shape[1:], dtype=complex)
            np.divide(rho_2, quarter_m2, out=roots[:2])
            np.divide(one_p * one_p, FOUR * rho_2[::-1], out=roots[2:])
            roots -= ONE_LIFTED
            np.sqrt(roots, out=roots)
            # off the surface, near the branch cut, the principal roots of
            # such a pair can part: each rad takes the sign nearest its partner
            rads = roots[2:]
            np.negative(rads, out=rads, where=(rads * np.conj(roots[:2])).real < ZERO)
            p, q, rad12, rad21 = (roots[k, ...] for k in range(4))
        for k, mode in enumerate(modes):
            gs_k, dt_omega_k, omega_k, two_gs_k, pref_k, kick_k, eps, eta, inc_eps, inc_eta = mode
            term = gs_k * eps
            drive = term if k == 0 else drive + term
            np.multiply(dt_omega_k, eta, out=inc_eps)
            field = omega_k * eps
            field += two_gs_k * rho_sum
            np.multiply(minus_dt, field, out=inc_eta)
            if pairs is not None:
                # pref (dW_c + i dW_{c+1}) and pref (dW_{c+2} - i dW_{c+3})
                a_k, c_k = pairs[2 * k], pairs[2 * k + 1]
                pa = p * (pref_k * a_k)
                qc = q * (pref_k * np.conj(c_k))
                inc_eps += IMAG * (pa - qc)
                inc_eta += pa + qc
                term_x, term_y = kick_k * np.conj(a_k), kick_k * c_k
                kick_x = term_x if k == 0 else kick_x + term_x
                kick_y = term_y if k == 0 else kick_y + term_y
        idrive = idt * drive
        drive_nu = idrive * nu
        np.add(rot21 * rho21, drive_nu, out=inc_21)
        np.subtract(rot12 * rho12, drive_nu, out=inc_12)
        np.subtract(TWO * idrive * (rho21 - rho12), decay * (nu - nu0), out=inc_nu)
        if pairs is not None:
            inc_21 += quarter_m2 * p * kick_x
            inc_21 -= rho21_2 * rad21 * kick_y
            inc_12 -= rho12_2 * rad12 * kick_x
            inc_12 += quarter_m2 * q * kick_y
            inc_nu += one_m * (rho12 * rad12 * kick_x + rho21 * rad21 * kick_y)
            if dissipative:
                ratio = one_p / one_m
                dbar = two_rp * ratio + r21 * np.square(ratio) + r12
                tkick = MINUS_IMAG * principal_sqrt(dbar / TWO)
                pair = pairs[2 * n]
                x_d, y_d = tkick * np.conj(pair), tkick * pair
                inc_21 += rho21_2 * x_d
                inc_21 += quarter_m2 * y_d
                inc_12 -= quarter_m2 * x_d
                inc_12 -= rho12_2 * y_d
                inc_nu -= one_m * (rho21 * x_d - rho12 * y_d)
        return out

    return step


def drift_bar(params: ModelParams, phys) -> np.ndarray:
    """Drift in physical coordinates: the increment at dt = 1 without noise."""
    return increment_bar(params, phys, 1.0)


def noise_bar(params: ModelParams, phys) -> np.ndarray:
    """Transformed noise matrix (coherent-spin closed form) with the columns of
    ``ModelParams.noise_dim``: column c is :func:`increment_bar` at dt = 0 on
    the unit increment e_c; inf/nan at a pole, without warnings."""
    phys = np.asarray(phys, dtype=complex)
    increment = partial(increment_bar, params, phys)
    with np.errstate(all="ignore"):
        return noise_matrix(increment, params.noise_dim, phys.ndim - 1)


def jacobian_change(family: BasisFamily, state) -> np.ndarray:
    """Analytic Jacobian of the phase-space -> physical change of variables;
    inf/nan at a pole, without numpy warnings."""
    prepared = jet_state(family, state)
    state, pf = prepared.state, prepared.pf
    n = (state.shape[-1] - 2) // 2
    out = np.zeros(state.shape[:-1] + (2 * n + 3, 2 * (n + 1)), dtype=complex)
    for k in range(n):  # eps = beta + alpha, eta = i(beta - alpha)
        out[..., 2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = ((1.0, 1.0), (-1j, 1j))
    iz, iw = 2 * n, 2 * n + 1
    with np.errstate(all="ignore"):
        den2 = pf.denom**2
        out[..., 2 * n, iz] = pf.hp / den2
        out[..., 2 * n, iw] = -pf.h**2 * pf.htp / den2
        out[..., 2 * n + 1, iz] = -pf.ht**2 * pf.hp / den2
        out[..., 2 * n + 1, iw] = pf.htp / den2
        out[..., 2 * n + 2, iz] = 2.0 * pf.hp * pf.ht / den2
        out[..., 2 * n + 2, iw] = 2.0 * pf.h * pf.htp / den2
    return out


def reconstruct_fields(params: ModelParams, phys, x):
    """Electric and magnetic field values at position x from mode quadratures."""
    eps, eta, *_ = split_phys(phys, params.mode_count)
    k = params.wave_numbers
    e_p = params.e_photon
    e_val = (e_p * np.sin(k * x) * eps).sum(axis=-1)
    h_val = -(1.0 / params.impedance) * (e_p * np.cos(k * x) * eta).sum(axis=-1)
    return e_val, h_val


def physical_sde_system(params: ModelParams) -> SdeSystem:
    """Changed-variable SDE stepped by :func:`increment_bar`; experimental, since
    the square roots of every noise entry react badly to sampling noise."""

    def bind(state, dt, dws):
        step, pairs = _bind_bar(params, state, dt, state.shape[:-1]), block_pair_rows(dws)
        return lambda prepared, j: step(pairs[j])

    return SdeSystem(
        dim=2 * params.mode_count + 3,
        noise_dim=params.noise_dim,
        drift=partial(drift_bar, params),
        noise=partial(noise_bar, params),
        increment=bindable(partial(increment_bar, params), bind),
    )


def physical_init_sampler(family: BasisFamily, phase_sampler):
    """Wrap a phase-space initial sampler for the changed-variable engine; the
    one check that the engine's family is coherent-spin."""
    if family.kind != COHERENT_SPIN:
        raise ValueError(
            "the changed-variable engine requires the coherent-spin family; "
            "its noise matrix has no closed form for other families"
        )

    def sampler(rng):
        return to_physical(family, phase_sampler(rng))

    return sampler
