"""Cavity QED model parameters and positive-P SDE coefficient assembly.

The phase-space state is the flat complex vector (alpha_1, beta_1, ...,
alpha_N, beta_N, z, w) for N cavity modes plus the two-level atom.
:func:`increment_jc` is the one coefficient formula: the Euler increment of
the full-wave (counterrotating terms included) coupling, with optional
scattering and pure-dephasing dissipation on the fermionic rows.  The noise
matrix keeps only the structurally nonzero columns, in the layout of
``ModelParams.noise_dim``, which both engines draw; B @ B.T = D
(:func:`diffusion_jc`) holds with and without dissipation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .basis import (
    IMAG,
    LIFT,
    ONE,
    THREE,
    TWO,
    BasisFamily,
    PhaseFunctions,
    _frozen,
    checked_denominator,
)
from .sde import SdeSystem, bindable, noise_matrix

_ROOT_I = np.sqrt(1j)  # fixed diffusion-gauge choice exp(i pi/4)
_KICK = 1j * _ROOT_I  # the gauge factor times the i of the (c, c+1) column pairs
#: relative spread of -hbar*g_n/e_p(omega_n) over the modes that
#: ``ModelParams.dipole_moment`` still accepts as one dipole moment
DIPOLE_SPREAD_TOL = 1e-9


def principal_sqrt(x):
    """Complex sqrt with imaginary parts -0.0 lifted to +0.0 (IEEE -0.0 + 0.0
    is +0.0), so algebraically equal radicands on the negative real axis,
    whatever signed zero they carry, have the same root."""
    return np.sqrt(np.asarray(x, dtype=complex) + LIFT)


@dataclass(frozen=True)
class ModelParams:
    """Cavity geometry, mode spectrum, couplings, atom, and dissipation rates.

    Frequencies are angular; desk-scale runs keep hbar = c = epsilon0 = area
    = 1.  The per-mode derived arrays are computed once and are read-only.
    The rates ``r12``, ``r21`` and ``r_p`` are floats or arrays that
    broadcast against a batch of states, one rate per point: validation and
    ``dissipative`` look at every entry, and the coefficient functions
    broadcast them, as the invariant suite does for a stack of points with
    rates of their own.  The engines pass floats, and ``nu0`` takes float
    rates only.  An instance with rate arrays is never hashed or compared.
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
        return cls.from_frequencies(omega, coupling, Omega, x0, length, **kwargs)

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

    @cached_property
    def mode_count(self) -> int:
        return len(self.omega)

    @cached_property
    def dim(self) -> int:
        return 2 * (self.mode_count + 1)

    @cached_property
    def noise_dim(self) -> int:
        """The one noise layout of both SDE engines: four real columns per
        mode, read as two complex pairs dW_c + i dW_{c+1}, then, if
        ``dissipative``, one pair that drives the atomic rows only."""
        return 4 * self.mode_count + (2 if self.dissipative else 0)

    @cached_property
    def omega_array(self) -> np.ndarray:
        return _frozen(self.omega)

    @cached_property
    def g_array(self) -> np.ndarray:
        return _frozen(self.g)

    @cached_property
    def wave_numbers(self) -> np.ndarray:
        return _frozen(self.omega_array / self.c)

    @cached_property
    def mode_amplitudes(self) -> np.ndarray:
        """sin(k_n x0) position factors at the atom."""
        return _frozen(np.sin(self.wave_numbers * self.x0))

    @cached_property
    def gs(self) -> np.ndarray:
        """Per-mode effective couplings g_n sin(k_n x0)."""
        return _frozen(self.g_array * self.mode_amplitudes)

    @cached_property
    def noise_prefactor(self) -> np.ndarray:
        """Per-mode changed-variable noise factors exp(i pi/4) sqrt(g_n s_n / 2)."""
        return _frozen(_ROOT_I * principal_sqrt(self.gs / 2.0))

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
        return _frozen(
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
    ``.T`` is C-contiguous (the row contract of :class:`ppcavity.sde.SdeSystem`)."""
    return np.empty(tuple(batch_shape) + (dim,), dtype=complex, order="F")


def join_state(alpha, beta, *tail) -> np.ndarray:
    """Inverse of :func:`split_state`: ``alpha`` and ``beta`` (..., N) fill the
    pairs, then each of ``tail`` one trailing coordinate, such as z and w, of
    an :func:`empty_state`; ``physical.join_phys`` is the same writer."""
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
    1 + h*htilde; ``eps`` = beta + alpha and ``eta`` = i(beta - alpha) are
    cached; ``raw(k)`` reads z or w.  Nothing here sets an error state
    (:attr:`PhaseFunctions.guarded`).
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
    """The :class:`JetState` of ``state`` (a JetState is returned as it is),
    so every reader of a point shares one jet."""
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


def coordinate_rows(x, ndim):
    """``x.T`` with the leading axes of ``x`` padded to ``ndim``: the rows of a
    (batched) state or mirror pair, ``ndim`` counting its last axis, or a
    per-point value, ``ndim`` its batch rank.  Each row ``x.T[k, ...]``
    broadcasts against the rows of the other operands of that batch rank; a
    row of the stepping loop's coordinate-major state is contiguous."""
    if x.ndim < ndim:
        x = x.reshape((1,) * (ndim - x.ndim) + x.shape)
    return x.T


def increment_rows(state, dw):
    """What both engines' increments start from, at ``state`` (..., d) and the
    real increments ``dw`` (..., m) or None, their batches broadcast: the
    batch shape and the list of the rows of ``dw`` read as complex pairs dW_c
    + i dW_{c+1} (in the layout of ``ModelParams.noise_dim``), None without ``dw``."""
    batch = state.shape[:-1]
    if dw is None:
        return batch, None
    if dw.shape[:-1] != batch:
        batch = np.broadcast_shapes(batch, dw.shape[:-1])
    return batch, list(coordinate_rows(dw.view(complex), len(batch) + 1))


def block_pair_rows(dws):
    """Per step of a block of draws ``dws`` (paths, rows, m), the rows of its
    complex pairs, as :func:`increment_rows` reads them at a (paths, d) state."""
    return [list(pairs) for pairs in dws.view(complex).transpose(1, 2, 0)]


def _prepare(family, state, check):
    prepared = jet_state(family, state)
    if check:
        checked_denominator(prepared.pf.h, prepared.pf.ht, prepared.pf.slopes)
    return prepared.state, prepared.pf


def _jc_constants(params: ModelParams, dt, ndim):
    """The 0-d operands of :func:`increment_jc`, formed where its step is
    bound: per mode (g_n s_n, omega_n); the couplings as an (N, 1, ...)
    column against the rows of a jet pair; the factors (-i dt, i dt) of the
    (alpha_n, beta_n) rows and (i dt, -i dt) of the (z, w) rows as a column
    against two rows; Omega; and the rate factors of the dissipative rows, as
    rows of a batch of rank ``ndim``."""
    idt = 1j * dt
    gs = np.array(params.gs, dtype=complex)
    rates = (-params.r_p * dt, params.r21 * dt / 2.0, params.r12 * dt / 2.0)
    rates += (2.0 * params.r_p, params.r21, params.r12)
    pair = (1,) * ndim
    return (
        tuple((gs[k, ...], np.array(params.omega[k], dtype=complex)) for k in range(len(gs))),
        gs.reshape((-1, 1) + pair),
        np.array((-idt, idt)).reshape((2,) + pair),
        np.array((idt, -idt)).reshape((2,) + pair),
        np.array(params.Omega, dtype=complex),
        tuple(coordinate_rows(np.asarray(r, dtype=complex), ndim) for r in rates),
    )


def _dissipative_entry(hht, inv_hp, inv_htp, two_rp, r21, r12):
    """The fermionic diffusion entry (2 r_p hht + r21 hht^2 + r12)/(h' htilde'),
    of :func:`diffusion_jc` and, under its root, of :func:`increment_jc`."""
    return (two_rp * hht + r21 * np.square(hht) + r12) * inv_hp * inv_htp


def increment_jc(params: ModelParams, family: BasisFamily, state, dt, dw=None, check=True):
    """Euler increment A dt + B dW of the phase-space engine in one pass.

    ``dw`` (..., m) holds real Wiener increments with a contiguous last axis,
    or is None for A dt alone.  The noise column pairs (c, c+1) meet dW only
    as i dW_c +- dW_{c+1}, so the kick reads each pair as dW_c + i dW_{c+1}
    and forms no (dim, m) matrix.  ``state`` may be a :class:`JetState`; with
    ``check`` a pole raises PoleProximityError.  Rows and error state follow
    :class:`ppcavity.sde.SdeSystem`.
    """
    state, pf = _prepare(family, state, check)
    batch, pairs = increment_rows(state, dw)
    return _bind_jc(params, family, state, dt, batch)(pf, pairs)


def _mode_rows(rows, k):
    """The (alpha_k, beta_k) pair of ``rows``, then each of the two rows."""
    return rows[2 * k : 2 * k + 2, ...], rows[2 * k, ...], rows[2 * k + 1, ...]


def _bind_jc(params: ModelParams, family: BasisFamily, state, dt, batch):
    """:func:`increment_jc` bound to ``state``, ``dt`` and the broadcast
    ``batch``: ``step(pf, pairs)`` takes the jet of the current ``state`` and
    the rows of dw's complex pairs (None without dw) and writes the increment
    into one :func:`empty_state`, which it returns at every call."""
    n, nd = params.mode_count, len(batch)
    x = coordinate_rows(state, nd + 1)
    modes, gs, field_factors, zw_factors, omega_a, rates = _jc_constants(params, dt, nd)
    rp_dt, r21_dt, r12_dt, two_rp, r21, r12 = rates
    dissipative = params.dissipative
    out = empty_state(batch, params.dim)
    rows = out.T
    # per mode, its constants, its rows of the increment and its rows of the state
    modes = [(*modes[k], *_mode_rows(rows, k), *_mode_rows(x, k)) for k in range(n)]
    atom_rows = rows[2 * n :, ...], rows[2 * n, ...], rows[2 * n + 1, ...]

    def kick_roots(quads):
        # per mode, the roots of the two diffusion entries, (N, 2) rows in one call
        roots = gs * quads
        roots /= TWO
        roots += LIFT
        np.sqrt(roots, out=roots)
        np.multiply(_KICK, roots, out=roots)
        return roots

    constant_quads = family.constant_quads  # additive-noise: constant quads, constant roots
    fixed = None if constant_quads is None else kick_roots(coordinate_rows(constant_quads, nd + 1))

    def step(pf, pairs):
        zw, inc_z, inc_w = atom_rows
        hs, quads = coordinate_rows(pf.hs, nd + 1), coordinate_rows(pf.quads, nd + 1)
        h, ht = hs[0, ...], hs[1, ...]
        denom = coordinate_rows(pf.denom, nd)
        coupling = (h + ht) / denom
        if pairs is not None:
            roots = kick_roots(quads) if fixed is None else fixed
        # the (alpha_n, beta_n) rows are -+i dt (omega_n x + g_n s_n (h + ht)/denom)
        # and the (z, w) rows +-i dt (drive quad - Omega lin) and the mirror, a
        # pair of rows at a time
        for k, (gs_k, omega_k, field, row_a, row_b, x_k, alpha, beta) in enumerate(modes):
            np.multiply(coupling, gs_k, out=field)
            field += omega_k * x_k
            field *= field_factors
            term = gs_k * (alpha + beta)
            drive = term if k == 0 else drive + term
            if pairs is not None:
                a_k, c_k = pairs[2 * k], pairs[2 * k + 1]
                sp, sq = roots[k, 0, ...], roots[k, 1, ...]
                row_a += sp * a_k
                row_b -= sq * np.conj(c_k)
                term_z, term_w = sp * np.conj(a_k), sq * c_k
                kick_z = term_z if k == 0 else kick_z + term_z
                kick_w = term_w if k == 0 else kick_w + term_w
        np.multiply(drive, quads, out=zw)
        zw -= omega_a * coordinate_rows(pf.lins, nd + 1)
        zw *= zw_factors
        if dissipative:
            hht = coordinate_rows(pf.hht, nd)
            inv_slopes = coordinate_rows(pf.inv_slopes, nd + 1)
            inv_hp, inv_htp = inv_slopes[0, ...], inv_slopes[1, ...]
            factor = (
                rp_dt * (ONE - hht) - r21_dt * (ONE + THREE * hht) + r12_dt * (THREE + hht)
            ) / denom
            inc_z += h * inv_hp * factor
            inc_w += ht * inv_htp * factor
        if pairs is not None:
            inc_z -= kick_z
            inc_w -= kick_w
            if dissipative:
                entry = _dissipative_entry(hht, inv_hp, inv_htp, two_rp, r21, r12)
                td = IMAG * np.sqrt(entry / TWO + LIFT)
                pair = pairs[2 * n]
                inc_z -= td * pair
                inc_w += td * np.conj(pair)
        return out

    return step


def drift_jc(params: ModelParams, family: BasisFamily, state, check=True):
    """Drift vector: :func:`increment_jc` at dt = 1 without noise; without
    ``check``, inf/nan at a pole, without numpy warnings."""
    with np.errstate(all="ignore"):
        return increment_jc(params, family, state, 1.0, None, check)


def diffusion_jc(params: ModelParams, family: BasisFamily, state, check=True):
    """Symmetric diffusion matrix; the dissipative layout adds the fermionic block."""
    state, pf = _prepare(family, state, check)
    n = params.mode_count
    # per mode, g_n s_n (h^2 - 1)/h' and the mirror, (..., N, 2)
    d = params.gs[:, None] * pf.quads[..., None, :]
    out = np.zeros(state.shape[:-1] + (params.dim, params.dim), dtype=complex)
    for k in range(n):
        out[..., 2 * k, 2 * n] = out[..., 2 * n, 2 * k] = 1j * d[..., k, 0]
        out[..., 2 * k + 1, 2 * n + 1] = out[..., 2 * n + 1, 2 * k + 1] = -1j * d[..., k, 1]
    if params.dissipative:
        # on rows, with the rates (2 r_p, r21, r12) of increment_jc
        nd = state.ndim - 1
        rates = _jc_constants(params, 1.0, nd)[-1][3:]
        inv_slopes = coordinate_rows(pf.inv_slopes, nd + 1)
        dd = _dissipative_entry(coordinate_rows(pf.hht, nd), *inv_slopes, *rates).T
        out[..., 2 * n, 2 * n + 1] = out[..., 2 * n + 1, 2 * n] = dd
    return out


def noise_jc(params: ModelParams, family: BasisFamily, state, check=True):
    """Noise matrix with ``params.noise_dim`` columns, B @ B.T = D: column c is
    :func:`increment_jc` at dt = 0 on the unit increment e_c; without
    ``check``, inf/nan at a pole, without numpy warnings."""
    state = jet_state(family, state)
    increment = partial(increment_jc, params, family, state, check=check)
    with np.errstate(all="ignore"):
        return noise_matrix(increment, params.noise_dim, state.state.ndim - 1)


def jc_sde_system(params: ModelParams, family: BasisFamily) -> SdeSystem:
    """SDE system of the phase-space engine; its coefficients never raise.

    ``prepare`` forms the :class:`JetState` with an unguarded jet, which the
    increment (:func:`increment_jc` without the pole check) and
    :func:`ppcavity.observables.observable_bundle` read; both are bound once
    per chunk (:class:`ppcavity.sde.SdeSystem`), where the step constants and
    the additive-noise kick roots are formed.
    """

    def bind_prepare(state):
        jet = family.bind_jet(state[..., -2:])
        return lambda: JetState(state, jet())

    def bind(state, dt, dws):
        step, pairs = _bind_jc(params, family, state, dt, state.shape[:-1]), block_pair_rows(dws)
        return lambda prepared, j: step(prepared.pf, pairs[j])

    return SdeSystem(
        dim=params.dim,
        noise_dim=params.noise_dim,
        drift=partial(drift_jc, params, family, check=False),
        noise=partial(noise_jc, params, family, check=False),
        prepare=bindable(lambda state: bind_prepare(state)(), bind_prepare),
        increment=bindable(partial(increment_jc, params, family, check=False), bind),
    )


def per_mode_amplitudes(coherent, n_modes: int) -> np.ndarray:
    """Coherent amplitudes, one per mode; one amplitude serves every mode, and
    any other count raises ValueError."""
    coherent = np.atleast_1d(np.asarray(coherent, dtype=complex))
    if coherent.size == 1:
        coherent = np.repeat(coherent, n_modes)
    if coherent.shape != (n_modes,):
        raise ValueError(
            f"need one coherent amplitude or one per mode ({n_modes}), got {coherent.size}"
        )
    return coherent


def phase_init_sampler(params: ModelParams, family: BasisFamily, coherent, dist):
    """Initial-state sampler: the coherent point alpha_n = ``coherent``[n],
    beta_n = conj(alpha_n), and the atom drawn from the three-point
    distribution ``dist`` of :func:`ppcavity.initialization.init_points`."""
    alpha = per_mode_amplitudes(coherent, params.mode_count)
    beta = np.conj(alpha)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        return join_state(alpha, beta, *dist.sample(rng))

    return sampler
