"""Cavity QED model parameters and positive-P SDE coefficient assembly.

The phase-space state is the flat complex vector
(alpha_1, beta_1, ..., alpha_N, beta_N, z, w) for N cavity modes plus the
two-level atom.  ``increment_jc`` forms the Euler increment A dt + B dW of the
full-wave (counterrotating terms included) atom-field coupling, optionally
extended by scattering and pure-dephasing dissipation acting on the fermionic
rows; drift and noise derive from it, the diffusion is a separate check.
The basis jet holds each mirror pair, such as (h, htilde), as one array with
a trailing axis of length 2; the coefficients read its per-side views, and
the two diffusion roots of a mode are formed in one call.

The noise matrix keeps only the structurally nonzero columns of the block
factorization: four per mode, plus two dissipative columns.  The factorization
identity B @ B.T = D holds exactly for both layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .basis import ADDITIVE_NOISE, ONE, BasisFamily, PhaseFunctions, checked_denominator
from .sde import SdeSystem, noise_matrix

_ROOT_I = np.sqrt(1j)  # fixed diffusion-gauge choice exp(i pi/4)
_KICK = 1j * _ROOT_I  # the gauge factor times the i of the (c, c+1) column pairs
#: relative spread of -hbar*g_n/e_p(omega_n) over the modes that
#: ``ModelParams.dipole_moment`` still accepts as one dipole moment
DIPOLE_SPREAD_TOL = 1e-9


def principal_sqrt(x):
    """Complex sqrt with imaginary parts -0.0 lifted to +0.0.

    Radicands that are negative real can carry either signed zero depending on
    how they were computed; lifting to +0.0 pins one branch so algebraically
    equal radicands always produce the same root.  IEEE addition does the
    lifting: -0.0 + 0.0 is +0.0 and every other imaginary part is unchanged.
    """
    return np.sqrt(np.asarray(x, dtype=complex) + 0.0j)


def _read_only(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ModelParams:
    """Cavity geometry, mode spectrum, couplings, atom, and dissipation rates.

    Frequencies are angular.  Dimensionless desk-scale runs keep the defaults
    hbar = c = epsilon0 = area = 1.  Derived quantities (wave numbers, the
    per-photon field, relaxation rates) are exposed as properties; the
    per-mode arrays among them are computed once and are read-only.

    The rates ``r12``, ``r21`` and ``r_p`` are floats or arrays that
    broadcast against a batch of states, one rate per point: validation and
    ``dissipative`` look at every entry, and the phase-space coefficient
    functions (:func:`increment_jc`, :func:`drift_jc`, :func:`noise_jc`,
    :func:`diffusion_jc`) broadcast them, as the invariant suite does to
    check a stack of points drawn with rates of their own.  The engines and
    the configuration pass floats, and ``nu0`` takes float rates only.  An
    instance with rate arrays is never hashed or compared.
    """

    Omega: float
    omega: tuple
    g: tuple
    x0: float
    length: float
    area: float = 1.0
    hbar: float = 1.0
    c: float = 1.0
    epsilon0: float = 1.0
    r12: float = 0.0
    r21: float = 0.0
    r_p: float = 0.0

    def __post_init__(self):
        omega = tuple(float(v) for v in np.atleast_1d(self.omega))
        g = np.atleast_1d(self.g)
        if g.size == 1 and len(omega) > 1:
            g = np.repeat(g, len(omega))
        g = tuple(float(v) for v in g)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "g", g)
        if len(g) != len(omega):
            raise ValueError("need one coupling per mode")
        if any(w <= 0 for w in omega) or any(np.diff(omega) <= 0):
            raise ValueError("mode frequencies must be positive and strictly increasing")
        for name in ("r12", "r21", "r_p"):
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValueError(f"rate {name} must be nonnegative")
        if not 0.0 < self.x0 < self.length:
            raise ValueError("atom position must satisfy 0 < x0 < length")
        for name in ("hbar", "c", "epsilon0", "area", "length"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_cavity(cls, length, mode_count, Omega, coupling, x0=None, **kwargs):
        """Modes at the cavity resonances omega_n = pi*c*n/length."""
        c = kwargs.get("c", 1.0)
        omega = tuple(math.pi * c * n / length for n in range(1, mode_count + 1))
        if x0 is None:
            x0 = length / 2.0
        return cls(Omega=Omega, omega=omega, g=coupling, x0=x0, length=length, **kwargs)

    @classmethod
    def from_frequencies(cls, omega, g, Omega, x0=None, length=None, **kwargs):
        """Explicit mode frequencies; the cavity length defaults to pi*c/omega_1."""
        omega = tuple(float(v) for v in np.atleast_1d(omega))
        c = kwargs.get("c", 1.0)
        if length is None:
            length = math.pi * c / omega[0]
        if x0 is None:
            x0 = length / 2.0
        return cls(Omega=Omega, omega=omega, g=g, x0=x0, length=length, **kwargs)

    # -- derived quantities --------------------------------------------------

    @cached_property
    def mode_count(self) -> int:
        return len(self.omega)

    @cached_property
    def dim(self) -> int:
        return 2 * (self.mode_count + 1)

    @cached_property
    def noise_dim(self) -> int:
        """Noise columns of the phase-space SDE: four per mode, plus two
        dissipative ones if ``dissipative``."""
        return 4 * self.mode_count + (2 if self.dissipative else 0)

    @cached_property
    def omega_array(self) -> np.ndarray:
        return _read_only(self.omega)

    @cached_property
    def g_array(self) -> np.ndarray:
        return _read_only(self.g)

    @cached_property
    def wave_numbers(self) -> np.ndarray:
        return _read_only(self.omega_array / self.c)

    @cached_property
    def mode_amplitudes(self) -> np.ndarray:
        """sin(k_n x0) position factors at the atom."""
        return _read_only(np.sin(self.wave_numbers * self.x0))

    @cached_property
    def gs(self) -> np.ndarray:
        """Per-mode effective couplings g_n sin(k_n x0)."""
        return _read_only(self.g_array * self.mode_amplitudes)

    @cached_property
    def noise_prefactor(self) -> np.ndarray:
        """Per-mode changed-variable noise factors exp(i pi/4) sqrt(g_n s_n / 2)."""
        out = _ROOT_I * principal_sqrt(self.gs / 2.0)
        out.flags.writeable = False
        return out

    @cached_property
    def pair_rates(self) -> tuple:
        """omega_n and g_n s_n, each repeated for the rows (alpha_n, beta_n)."""
        return _read_only(np.repeat(self.omega_array, 2)), _read_only(np.repeat(self.gs, 2))

    @property
    def mu0(self) -> float:
        return 1.0 / (self.epsilon0 * self.c**2)

    @property
    def impedance(self) -> float:
        return math.sqrt(self.mu0 / self.epsilon0)

    @property
    def volume(self) -> float:
        return self.length * self.area

    @cached_property
    def e_photon(self) -> np.ndarray:
        """Electric field per photon, sqrt(hbar*omega_n / (epsilon0 V))."""
        return _read_only(
            np.sqrt(self.hbar * self.omega_array / (self.epsilon0 * self.volume))
        )

    @property
    def gamma1(self) -> float:
        return self.r12 + self.r21

    @property
    def gamma2(self) -> float:
        return 0.5 * (self.r12 + self.r21) + self.r_p

    @property
    def nu0(self) -> float:
        if self.gamma1 == 0:
            return 0.0
        return (self.r12 - self.r21) / (self.r12 + self.r21)

    @cached_property
    def dissipative(self) -> bool:
        return bool(np.any(self.gamma1 > 0) or np.any(self.r_p > 0))

    def dipole_moment(self) -> float:
        """Dipole matrix element -hbar*g_n/e_p(omega_n); requires g prop e_p."""
        values = -self.hbar * self.g_array / self.e_photon
        spread = np.abs(values - values[0]).max()
        if spread > DIPOLE_SPREAD_TOL * (1.0 + abs(values[0])):
            raise ValueError(
                "couplings are not proportional to the per-photon field; "
                "no single dipole moment reproduces all modes"
            )
        return float(values[0])


def split_state(state, n_modes):
    """Views (alpha, beta, z, w) of a flat (batched) phase vector."""
    state = np.asarray(state, dtype=complex)
    alpha = state[..., 0 : 2 * n_modes : 2]
    beta = state[..., 1 : 2 * n_modes : 2]
    z = state[..., 2 * n_modes]
    w = state[..., 2 * n_modes + 1]
    return alpha, beta, z, w


def empty_state(batch_shape, dim) -> np.ndarray:
    """An uninitialised (batched) state (..., dim) stored coordinate-major: its
    ``.T`` is C-contiguous, so each coordinate is one contiguous run over the
    batch, as in the stepping loop of :mod:`ppcavity.sde`."""
    return np.empty(tuple(batch_shape) + (dim,), dtype=complex, order="F")


def join_state(alpha, beta, *tail) -> np.ndarray:
    """Inverse of :func:`split_state`: lay out (batched) per-mode pairs.

    ``alpha`` and ``beta`` (..., N) fill the pairs, then each of ``tail``
    (...) one trailing coordinate, such as z and w; the batch shape is that
    of ``alpha``, and the result is an :func:`empty_state`.  The physical
    layout is the same with three trailing coordinates
    (:func:`ppcavity.physical.join_phys`).
    """
    n = np.shape(alpha)[-1]
    out = empty_state(np.shape(alpha)[:-1], 2 * n + len(tail))
    out[..., 0 : 2 * n : 2] = alpha
    out[..., 1 : 2 * n : 2] = beta
    for k, value in enumerate(tail):
        out[..., 2 * n + k] = value
    return out


class JetState:
    """A (batched) phase-space vector ``state`` with the basis jet ``pf`` at its
    (z, w), and the members of :class:`ppcavity.physical.ArrayCoordinates`
    read off them: ``atomic(k, out)`` divides h, htilde or h*htilde - 1 by
    1 + h*htilde, into ``out`` if one is given; ``eps`` = beta + alpha and
    ``eta`` = i(beta - alpha) are cached; ``raw(k)`` reads z or w.  Nothing
    here sets a numpy error state (see :attr:`PhaseFunctions.guarded`).
    """

    def __init__(self, state, pf: PhaseFunctions):
        self.state, self.pf = state, pf
        self.shape = state.shape[:-1]

    def atomic(self, k, out=None):
        pf = self.pf
        numerator = pf.hht - ONE if k == 2 else (pf.h, pf.ht)[k]
        return np.divide(numerator, pf.denom, out=out)

    # the views alpha and beta of split_state, by their place before (z, w)
    @cached_property
    def eps(self):
        return self.state[..., 1:-2:2] + self.state[..., 0:-2:2]

    @cached_property
    def eta(self):
        return 1j * (self.state[..., 1:-2:2] - self.state[..., 0:-2:2])

    def raw(self, k):
        return self.state[..., k - 2]


def jet_state(family: BasisFamily, state) -> JetState:
    """Evaluate ``family.jet`` once on the last two coordinates (z, w) of ``state``.

    A JetState is returned as it is, so the coefficient functions, the
    observable batch and ``to_physical`` accept either form and share one jet.
    """
    if isinstance(state, JetState):
        return state
    state = np.asarray(state, dtype=complex)
    return JetState(state, family.jet(state[..., -2:]))


def mode_sum(x, axis=-1):
    """Sum over the (negative) mode ``axis`` by one add per mode, in order: numpy
    adds two slices much faster than it reduces a short axis."""
    tail = (slice(None),) * (-1 - axis)
    total = x[(Ellipsis, 0) + tail]
    for k in range(1, x.shape[axis]):
        total = total + x[(Ellipsis, k) + tail]
    return total


def _prepare(family, state, check):
    prepared = jet_state(family, state)
    if check:
        checked_denominator(prepared.pf.h, prepared.pf.ht, prepared.pf.slopes)
    return prepared.state, prepared.pf


def _mode_diffusion(params: ModelParams, pf: PhaseFunctions):
    """Per-mode diffusion entries g_n s_n (h^2 - 1)/h' and the mirror, (..., N, 2)."""
    return params.gs[:, None] * pf.quads[..., None, :]


def _dissipative_entry(params: ModelParams, pf: PhaseFunctions):
    hht = pf.hht
    return (
        2.0 * params.r_p * hht + params.r21 * hht**2 + params.r12
    ) * pf.inv_hp * pf.inv_htp


def increment_jc(params: ModelParams, family: BasisFamily, state, dt, dw=None, check=True):
    """Euler increment A dt + B dW in one pass: the engine's one coefficient formula.

    ``dw`` (..., m) holds real Wiener increments with a contiguous last axis,
    or is None for A dt alone.  The noise column pairs (c, c+1) meet dW only
    as i dW_c +- dW_{c+1}, so the kick reads each pair as dW_c + i dW_{c+1}
    and forms no (dim, m) matrix.  ``state`` is a phase-space vector or its
    :class:`JetState`; with ``check`` a pole raises PoleProximityError.  The
    increment is an :func:`empty_state` whose rows are written in place.
    """
    state, pf = _prepare(family, state, check)
    n = params.mode_count
    alpha, beta, _, _ = split_state(state, n)
    idt = 1j * dt
    batch = state.shape[:-1]
    if dw is not None:
        batch = np.broadcast_shapes(batch, dw.shape[:-1])
    out = empty_state(batch, params.dim)
    # the (alpha_n, beta_n) rows are -+i dt (omega_n x + g_n s_n (h + ht)/denom)
    # and the (z, w) rows +-i dt (drive quad - Omega lin) and the mirror: each
    # pair is written as one block of rows, and all rows take their factor
    # -+i dt at once
    rows_ab, rows_zw = out[..., : 2 * n], out[..., 2 * n :]
    omega2, gs2 = params.pair_rates
    np.multiply(((pf.h + pf.ht) / pf.denom)[..., None], gs2, out=rows_ab)
    rows_ab += omega2 * state[..., : 2 * n]
    np.multiply(mode_sum(params.gs * (alpha + beta))[..., None], pf.quads, out=rows_zw)
    rows_zw -= params.Omega * pf.lins
    out *= np.array((-idt, idt) * n + (idt, -idt))
    inc_z, inc_w = rows_zw[..., 0], rows_zw[..., 1]
    if params.dissipative:
        hht = pf.hht
        factor = (
            -params.r_p * dt * (1.0 - hht)
            - params.r21 * dt / 2.0 * (1.0 + 3.0 * hht)
            + params.r12 * dt / 2.0 * (3.0 + hht)
        ) / pf.denom
        inc_z += pf.h * pf.inv_hp * factor
        inc_w += pf.ht * pf.inv_htp * factor
    if dw is not None:
        # per mode, dW_c + i dW_{c+1} and dW_{c+2} + i dW_{c+3}
        pairs = dw[..., : 4 * n].view(complex)
        a_k, c_k = pairs[..., 0::2], pairs[..., 1::2]
        roots = _KICK * principal_sqrt(_mode_diffusion(params, pf) / 2.0)
        sp, sq = roots[..., 0], roots[..., 1]
        rows_ab[..., 0::2] += sp * a_k
        rows_ab[..., 1::2] -= sq * np.conj(c_k)
        inc_z -= mode_sum(sp * np.conj(a_k))
        inc_w -= mode_sum(sq * c_k)
        if params.dissipative:
            td = principal_sqrt(_dissipative_entry(params, pf) / 2.0)
            pair = dw[..., 4 * n : 4 * n + 2].view(complex)[..., 0]
            inc_z -= 1j * td * pair
            inc_w += 1j * td * np.conj(pair)
    return out


def drift_jc(params: ModelParams, family: BasisFamily, state, check=True):
    """Drift vector, with scattering and pure-dephasing terms if ``params.dissipative``.

    The increment (:func:`increment_jc`) at dt = 1 without noise.
    """
    return increment_jc(params, family, state, 1.0, None, check)


def diffusion_jc(params: ModelParams, family: BasisFamily, state, check=True):
    """Symmetric diffusion matrix; the dissipative layout adds the fermionic block."""
    state, pf = _prepare(family, state, check)
    batch_shape = state.shape[:-1]
    n = params.mode_count
    d = _mode_diffusion(params, pf)
    out = np.zeros(batch_shape + (params.dim, params.dim), dtype=complex)
    for k in range(n):
        out[..., 2 * k, 2 * n] = out[..., 2 * n, 2 * k] = 1j * d[..., k, 0]
        out[..., 2 * k + 1, 2 * n + 1] = out[..., 2 * n + 1, 2 * k + 1] = -1j * d[..., k, 1]
    if params.dissipative:
        dd = _dissipative_entry(params, pf)
        out[..., 2 * n, 2 * n + 1] = out[..., 2 * n + 1, 2 * n] = dd
    return out


def noise_jc(params: ModelParams, family: BasisFamily, state, check=True):
    """Noise matrix with 4N (dissipative: 4N+2) columns satisfying B @ B.T = D.

    Column c is the increment (:func:`increment_jc`) at dt = 0 on the unit
    increment e_c.
    """
    state = jet_state(family, state)
    increment = partial(increment_jc, params, family, state, check=check)
    return noise_matrix(increment, params.noise_dim, state.state.ndim - 1)


def jc_sde_system(params: ModelParams, family: BasisFamily) -> SdeSystem:
    """SDE system for the integrator; coefficients never raise on poles.

    ``prepare`` forms the :class:`JetState` of a state, its jet not
    ``guarded``: the integrator evaluates the basis jet once per step, under
    its own error state, and the
    increment (:func:`increment_jc`, without the pole check) and
    :func:`ppcavity.observables.observable_bundle` read it.  The
    dissipative layout is used exactly when any rate is positive
    (``params.dissipative``).  The additive-noise family without dissipation
    has a state-independent noise matrix (the ``additive-noise-constancy``
    invariant): it is formed once, at the zero state, and applied as one
    product.
    """
    noise = partial(noise_jc, params, family, check=False)
    if family.kind != ADDITIVE_NOISE or params.dissipative:
        increment = partial(increment_jc, params, family, check=False)
    else:
        constant = noise(np.zeros(params.dim, dtype=complex))

        def increment(state, dt, dw):
            # dw is (m,) or (paths, m): (dim, m) @ (m, paths) is the kick in
            # the coordinate-major order of the increment
            out = increment_jc(params, family, state, dt, None, check=False)
            out += (constant @ dw.T).T
            return out

    return SdeSystem(
        dim=params.dim,
        noise_dim=params.noise_dim,
        drift=partial(drift_jc, params, family, check=False),
        noise=noise,
        prepare=lambda state: JetState(state, family._unguarded_jet(state[..., -2:])),
        increment=increment,
    )


def per_mode_amplitudes(coherent, n_modes: int) -> np.ndarray:
    """Coherent amplitudes, one per mode; a single amplitude serves every mode.

    Raises ValueError for any other count.
    """
    coherent = np.atleast_1d(np.asarray(coherent, dtype=complex))
    if coherent.size == 1:
        coherent = np.repeat(coherent, n_modes)
    if coherent.shape != (n_modes,):
        raise ValueError(
            f"need one coherent amplitude or one per mode ({n_modes}), got {coherent.size}"
        )
    return coherent


def phase_init_sampler(params: ModelParams, family: BasisFamily, coherent, dist):
    """Initial-state sampler: fixed coherent bosonic point, sampled atom.

    ``coherent`` holds the per-mode coherent amplitudes (alpha_n = amplitude,
    beta_n = conj(amplitude)); ``dist`` is the three-point fermionic
    distribution from :func:`ppcavity.initialization.init_points`.
    """
    alpha = per_mode_amplitudes(coherent, params.mode_count)
    beta = np.conj(alpha)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        return join_state(alpha, beta, *dist.sample(rng))

    return sampler
